//! Pins on the determinism rules the compiler can see. Hash containers,
//! wall clock, env, host threads and `RefCell` across `.await` have one
//! enforcer, clippy under the workspace's `clippy.toml`. Tier-1 cannot run
//! clippy, so it pins the configuration and, under each fixture's name,
//! what the repo root's `tests/clippy_fixture/` expects clippy to report
//! for it. CI's `tests/clippy_fixture/check.py` holds clippy to those
//! marks.

const CLIPPY_FIXTURE: &str = include_str!("../../../tests/clippy_fixture/src/lib.rs");

#[test]
fn clippy_toml_owns_the_compiler_visible_rules() {
    let toml = include_str!("../../../clippy.toml");
    let section = |name: &str| {
        let start = toml.find(&format!("\n{name} = [")).expect(name);
        &toml[start..start + toml[start..].find("\n]").expect(name)]
    };
    let types = section("disallowed-types");
    for path in [
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::hash::RandomState",
    ] {
        assert!(types.contains(&format!("path = \"{path}\"")), "{path}");
    }
    let methods = section("disallowed-methods");
    for path in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::time::SystemTime::elapsed",
        "std::env::var",
        "std::env::var_os",
        "std::env::vars",
        "std::env::vars_os",
        "std::env::args",
        "std::env::args_os",
        "std::env::current_dir",
        "std::env::current_exe",
        "std::env::temp_dir",
        "std::env::set_var",
        "std::env::remove_var",
        "std::thread::spawn",
        "std::thread::scope",
        "std::thread::Builder::spawn",
        "std::thread::Builder::spawn_scoped",
        "std::thread::sleep",
        "std::thread::park",
        "std::thread::park_timeout",
        "std::thread::yield_now",
        "std::thread::available_parallelism",
    ] {
        assert!(methods.contains(&format!("path = \"{path}\"")), "{path}");
        // The fixture crate plants a call of every listed path.
        let call = format!("{path}(");
        assert!(CLIPPY_FIXTURE.contains(&call), "no `{call}` there");
    }
}

/// The lints marked (`//~`) inside the fixture crate's item `name`.
fn marks(name: &str) -> Vec<&'static str> {
    let opens =
        |l: &str| l.contains(&format!("fn {name}(")) || l.contains(&format!("mod {name} {{"));
    let start = CLIPPY_FIXTURE
        .lines()
        .position(opens)
        .unwrap_or_else(|| panic!("no item `{name}` in the clippy fixture"));
    CLIPPY_FIXTURE
        .lines()
        .skip(start)
        .take_while(|l| *l != "}")
        .filter_map(|l| l.split_once("//~ "))
        .flat_map(|(_, lints)| lints.split_whitespace())
        .collect()
}

macro_rules! marked {
    ($($name:ident: $($lint:ident * $n:literal),*;)*) => {$(
        #[test]
        fn $name() {
            let want: &[(&str, usize)] = &[$((stringify!($lint), $n)),*];
            let want: Vec<&str> = want
                .iter()
                .flat_map(|&(lint, n)| vec![lint; n])
                .collect();
            assert_eq!(marks(stringify!($name)), want);
        }
    )*};
}

marked! {
    det001_for_loop_over_hashmap: disallowed_types * 3;
    det001_iter_methods: disallowed_types * 1;
    det001_not_fired_when_sorted: disallowed_types * 1;
    det001_not_fired_for_btreemap: ;
    det002_wall_clock_and_entropy: disallowed_methods * 14;
    det002_off_for_cli_shell: ;
    det002_ignores_unrelated_idents: ;
    det003_borrow_guard_across_await: await_holding_refcell_ref * 1;
    det003_temporary_across_await: await_holding_refcell_ref * 1;
    det003_scoped_borrow_is_clean: ;
    det003_dropped_borrow_is_clean: ;
    det003_match_scrutinee_across_await: await_holding_refcell_ref * 1;
    det004_float_accumulation_from_hash: disallowed_types * 1;
    det004_count_is_order_insensitive: disallowed_types * 1;
    det005_construction: disallowed_types * 3;
    det005_import_alone_is_clean: disallowed_types * 1;
    det006_thread_apis: disallowed_methods * 9;
    det006_off_for_harness_crates: ;
    det006_ignores_unrelated_thread_idents: ;
    det006_suppressible_with_justification: ;
    det008_use_alias_construction: disallowed_types * 3;
    det008_cross_file_reexport: disallowed_types * 2;
    det008_suppressible_with_justification: ;
    graph_alias_resolves_to_hash: disallowed_types * 2;
    graph_reexport_chain_resolves_across_files: disallowed_types * 1;
    graph_crate_root_reexport_via_glob: disallowed_types * 1;
    graph_type_alias_to_hash: disallowed_types * 1;
    graph_time_alias_detected: disallowed_methods * 1;
    graph_btree_alias_is_clean: ;
}
