//! Fixture tests: seeded violations of every simlint rule, asserting the
//! linter reports them, classifies them correctly, honors suppressions,
//! and rejects suppressions without justifications; and the pins on the
//! rules handed over to clippy (`clippy.toml`, `tests/clippy_fixture/`).

use simlint::rules::LintOptions;
use simlint::{lint_source, Diagnostic};

fn lint(src: &str) -> Vec<Diagnostic> {
    lint_source("fixture.rs", src, &LintOptions::default())
}

fn rules_of(diags: &[Diagnostic], suppressed: bool) -> Vec<&'static str> {
    diags
        .iter()
        .filter(|d| d.suppressed == suppressed)
        .map(|d| d.rule)
        .collect()
}

// ---------------------------------------------------------------------------
// The hand-over: hash containers, wall clock, env, host threads and RefCell
// across `.await` have one enforcer, clippy under the workspace's
// `clippy.toml`. Tier-1 cannot run clippy; it pins the configuration and,
// under each fixture's old name, what the fixture crate expects clippy to
// report for it. CI's `clippy_fixture/check.py` holds clippy to those marks.

const CLIPPY_FIXTURE: &str = include_str!("clippy_fixture/src/lib.rs");

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
    // One enforcer: simlint itself is silent on all of it.
    let own = lint_source(
        "crates/sim/src/fixture.rs",
        CLIPPY_FIXTURE,
        &LintOptions::default(),
    );
    assert!(own.is_empty(), "{own:?}");
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

macro_rules! handed_over {
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

handed_over! {
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

// ---------------------------------------------------------------------------
// Mechanisms: `#[cfg(test)]` exemption, suppressions, output shapes.

#[test]
fn cfg_test_module_is_exempt() {
    let diags = lint(
        r#"
        fn sim_facing() {}

        #[cfg(test)]
        mod tests {
            #[test]
            fn t() {
                let t0 = std::time::Instant::now();
                histogram().observe(t0.elapsed().as_secs_f64());
            }
        }
        "#,
    );
    assert!(rules_of(&diags, false).is_empty(), "{diags:?}");
}

#[test]
fn cfg_not_test_is_not_exempt() {
    let diags = lint(
        r#"
        #[cfg(not(test))]
        fn f(h: &Histogram) { h.observe(std::time::Instant::now()); }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"DET007"), "{diags:?}");
}

#[test]
fn suppression_same_line_and_line_above() {
    let diags = lint(
        r#"
        fn f(h: &Histogram) {
            h.observe(std::time::Instant::now()); // simlint: allow(DET007): fixture.
            // simlint: allow(DET007): also a fixture.
            h.record(std::time::SystemTime::now());
        }
        "#,
    );
    assert!(rules_of(&diags, false).is_empty(), "{diags:?}");
    assert_eq!(
        rules_of(&diags, true),
        vec!["DET007", "DET007"],
        "{diags:?}"
    );
    assert!(diags.iter().all(|d| d.justification.is_some()));
}

#[test]
fn suppression_multiline_comment_block() {
    let diags = lint(
        r#"
        fn f(h: &Histogram) {
            // simlint: allow(DET007): this justification is long enough to
            // wrap onto a second comment line before the statement.
            h.observe(std::time::Instant::now());
        }
        "#,
    );
    assert!(rules_of(&diags, false).is_empty(), "{diags:?}");
}

#[test]
fn suppression_does_not_leak_to_other_lines() {
    let diags = lint(
        r#"
        fn f(h: &Histogram) {
            // simlint: allow(DET007): covers only the next line.
            h.observe(std::time::Instant::now());
            h.observe(std::time::Instant::now());
        }
        "#,
    );
    assert_eq!(rules_of(&diags, false), vec!["DET007"], "{diags:?}");
}

#[test]
fn suppression_wrong_rule_does_not_apply() {
    let diags = lint(
        r#"
        fn f(h: &Histogram) {
            // simlint: allow(CONS001): wrong rule id for this finding.
            h.observe(std::time::Instant::now());
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"DET007"), "{diags:?}");
}

#[test]
fn file_scope_suppression() {
    let diags = lint(
        r#"
        // simlint: allow-file(DET007): fixture-wide waiver.
        fn f(h: &Histogram) {
            h.observe(std::time::Instant::now());
        }
        fn g(h: &Histogram) {
            h.record(std::time::SystemTime::now());
        }
        "#,
    );
    assert!(rules_of(&diags, false).is_empty(), "{diags:?}");
    assert_eq!(rules_of(&diags, true).len(), 2, "{diags:?}");
}

#[test]
fn suppression_without_justification_is_sl000() {
    for bad in [
        "// simlint: allow(DET007)",
        "// simlint: allow(DET007):",
        "// simlint: allow(DET007):   ",
        "// simlint: allow(): empty rules",
        "// simlint: deny(DET007): no such verb",
    ] {
        let src = format!("{bad}\nfn f(h: &H) {{ h.observe(std::time::Instant::now()); }}");
        let diags = lint(&src);
        assert!(
            rules_of(&diags, false).contains(&"SL000"),
            "{bad}: {diags:?}"
        );
        // And the malformed directive must NOT suppress the finding.
        assert!(
            rules_of(&diags, false).contains(&"DET007"),
            "{bad}: {diags:?}"
        );
    }
}

#[test]
fn prose_mentioning_simlint_is_not_a_directive() {
    let diags = lint(
        r#"
        //! Suppress findings with `// simlint: allow(<rule>)` comments.
        fn f() {}
        "#,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn json_output_shape() {
    let diags = lint("fn f(h: &H) { h.observe(std::time::Instant::now()); }");
    let json = simlint::render_json(&diags);
    assert!(json.contains("\"rule\": \"DET007\""), "{json}");
    assert!(json.contains("\"unsuppressed\": 1"), "{json}");
    assert!(json.contains("\"file\": \"fixture.rs\""), "{json}");
}

#[test]
fn diagnostics_carry_position() {
    let diags = lint("\n\nfn f(h: &H) { h.observe(std::time::Instant::now()); }");
    let d = diags.iter().find(|d| d.rule == "DET007").unwrap();
    assert_eq!(d.line, 3);
    assert_eq!(d.file, "fixture.rs");
}

// ---------------------------------------------------------------------------
// DET007: taint chains from nondeterministic sources to sinks.

#[test]
fn det007_source_directly_in_sink_args() {
    let diags = lint(
        r#"
        fn f(h: &Histogram) {
            h.observe(std::time::Instant::now().elapsed().as_secs_f64());
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"DET007"), "{diags:?}");
}

#[test]
fn det007_taint_through_let_binding() {
    let diags = lint(
        r#"
        use std::time::Instant;
        fn f(h: &Histogram) {
            let started = Instant::now();
            let elapsed = started.elapsed().as_secs_f64();
            h.record(elapsed);
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"DET007"), "{diags:?}");
}

#[test]
fn det007_taint_through_helper_return() {
    // `stamp()` returns a wall-clock-derived value; the crate summary must
    // mark it so the sink call in `g` is flagged.
    let diags = lint(
        r#"
        fn stamp() -> u128 {
            std::time::Instant::now().elapsed().as_nanos()
        }
        fn g(s: &Sanitizer) {
            s.checkpoint(stamp());
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"DET007"), "{diags:?}");
}

#[test]
fn det007_sort_key_from_environment() {
    let diags = lint(
        r#"
        fn f(v: &mut Vec<String>) {
            v.sort_by_key(|_| std::env::var("SALT").unwrap_or_default());
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"DET007"), "{diags:?}");
}

#[test]
fn det007_virtual_time_is_clean() {
    // ctx.now() is virtual time — no taint source involved.
    let diags = lint(
        r#"
        fn f(ctx: &SimCtx, h: &Histogram) {
            let started = ctx.now();
            h.record(ctx.now().duration_since(started).as_secs_f64());
        }
        "#,
    );
    assert!(!rules_of(&diags, false).contains(&"DET007"), "{diags:?}");
}

#[test]
fn det007_suppressible_with_justification() {
    let diags = lint(
        r#"
        fn f(h: &Histogram) {
            // simlint: allow(DET007, DET002): host-profiling probe, never in the sim digest.
            h.observe(std::time::Instant::now().elapsed().as_secs_f64());
        }
        "#,
    );
    assert!(rules_of(&diags, true).contains(&"DET007"), "{diags:?}");
    assert!(!rules_of(&diags, false).contains(&"DET007"), "{diags:?}");
}

// ---------------------------------------------------------------------------
// CONS001/CONS002: conservation contracts.

fn lint_net(src: &str) -> Vec<Diagnostic> {
    let opts = LintOptions {
        conservation: Some(simlint::rules::ConsScope::Net),
        ..LintOptions::default()
    };
    lint_source("crates/net/src/fixture.rs", src, &opts)
}

fn lint_metered(src: &str) -> Vec<Diagnostic> {
    let opts = LintOptions {
        conservation: Some(simlint::rules::ConsScope::Metered),
        ..LintOptions::default()
    };
    lint_source("crates/storage/src/fixture.rs", src, &opts)
}

#[test]
fn cons001_transfer_bypasses_ledger() {
    let diags = lint_net(
        r#"
        pub async fn push(peer: &Peer, bytes: u64) {
            peer.send(bytes).await;
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"CONS001"), "{diags:?}");
}

#[test]
fn cons001_ledger_routed_is_clean() {
    let diags = lint_net(
        r#"
        pub async fn push(limiter: &RateLimiter, peer: &Peer, bytes: u64) {
            limiter.consume(bytes).await;
            peer.send(bytes).await;
        }
        "#,
    );
    assert!(!rules_of(&diags, false).contains(&"CONS001"), "{diags:?}");
}

#[test]
fn cons001_field_access_does_not_count_as_routing() {
    // `self.consume` as a bare field read must not satisfy the contract;
    // only a call does.
    let diags = lint_net(
        r#"
        pub async fn push(peer: &Peer, bytes: u64) {
            let budget = peer.consume;
            peer.send(bytes + budget).await;
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"CONS001"), "{diags:?}");
}

#[test]
fn cons001_suppressible_with_justification() {
    let diags = lint_net(
        r#"
        // simlint: allow(CONS001): loopback copy, no fabric bandwidth consumed.
        pub async fn push(peer: &Peer, bytes: u64) {
            peer.send(bytes).await;
        }
        "#,
    );
    assert!(rules_of(&diags, true).contains(&"CONS001"), "{diags:?}");
    assert!(!rules_of(&diags, false).contains(&"CONS001"), "{diags:?}");
}

#[test]
fn cons002_unmetered_billable_op() {
    let diags = lint_metered(
        r#"
        pub async fn get(&self, key: &str) -> Blob {
            let logical_bytes = self.size_of(key);
            self.wire(logical_bytes).await
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"CONS002"), "{diags:?}");
}

#[test]
fn cons002_metered_op_is_clean() {
    let diags = lint_metered(
        r#"
        pub async fn get(&self, key: &str) -> Blob {
            let logical_bytes = self.size_of(key);
            self.core.meter_request(false, logical_bytes, false);
            self.wire(logical_bytes).await
        }
        "#,
    );
    assert!(!rules_of(&diags, false).contains(&"CONS002"), "{diags:?}");
}

#[test]
fn cons002_private_helper_is_exempt() {
    // The metering contract binds the public surface; private helpers are
    // metered by their callers.
    let diags = lint_metered(
        r#"
        async fn wire(&self, logical_bytes: u64) {
            self.nic.push(logical_bytes).await;
        }
        "#,
    );
    assert!(!rules_of(&diags, false).contains(&"CONS002"), "{diags:?}");
}

#[test]
fn cons002_metered_through_same_crate_helper() {
    // `billed()` transitively calls the meter, so `get` routing through it
    // satisfies the contract.
    let diags = lint_metered(
        r#"
        fn billed(&self, logical_bytes: u64) {
            self.core.meter_request(false, logical_bytes, false);
        }
        pub async fn get(&self, key: &str) -> Blob {
            let logical_bytes = self.size_of(key);
            self.billed(logical_bytes);
            self.wire(logical_bytes).await
        }
        "#,
    );
    assert!(!rules_of(&diags, false).contains(&"CONS002"), "{diags:?}");
}

#[test]
fn cons002_op_bypassing_the_request_lifecycle() {
    // The storage lifecycle (`request`) is the one place that meters. A
    // public op that samples latency and streams on its own, next to it,
    // moves bytes nobody bills.
    let src = |body: &str| {
        format!(
            r#"
            async fn request(&self, key: &str, logical_bytes: u64) {{
                self.meter_request(false, logical_bytes, false);
                self.first_byte(false).await;
                self.stream(false, logical_bytes).await;
            }}
            pub async fn read(&self, key: &str) -> Blob {{
                let logical_bytes = self.size_of(key);
                {body}
                self.store.get(key)
            }}
            "#
        )
    };
    let bypass = lint_metered(&src(
        "self.first_byte(false).await; self.stream(false, logical_bytes).await;",
    ));
    assert!(rules_of(&bypass, false).contains(&"CONS002"), "{bypass:?}");
    let routed = lint_metered(&src("self.request(key, logical_bytes).await;"));
    assert!(!rules_of(&routed, false).contains(&"CONS002"), "{routed:?}");
}

#[test]
fn cons002_suppressible_with_justification() {
    let diags = lint_metered(
        r#"
        // simlint: allow(CONS002): warm-up copy between replicas, never billed.
        pub async fn replicate(&self, logical_bytes: u64) {
            self.wire(logical_bytes).await;
        }
        "#,
    );
    assert!(rules_of(&diags, true).contains(&"CONS002"), "{diags:?}");
    assert!(!rules_of(&diags, false).contains(&"CONS002"), "{diags:?}");
}

// ---------------------------------------------------------------------------
// SL001: stale suppressions.

#[test]
fn sl001_stale_suppression_is_an_error() {
    let diags = lint(
        r#"
        // simlint: allow(DET007): once masked a wall-clock probe that is long gone.
        fn f(ctx: &SimCtx, h: &Histogram) {
            h.observe(ctx.now());
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"SL001"), "{diags:?}");
}

#[test]
fn sl001_live_suppression_is_quiet() {
    let diags = lint(
        r#"
        fn f(h: &Histogram) {
            // simlint: allow(DET007): host-profiling probe, never in the sim digest.
            h.observe(std::time::Instant::now());
        }
        "#,
    );
    assert!(!rules_of(&diags, false).contains(&"SL001"), "{diags:?}");
    assert!(rules_of(&diags, true).contains(&"DET007"), "{diags:?}");
}

#[test]
fn sl001_cannot_be_suppressed() {
    let diags = lint(
        r#"
        // simlint: allow(SL001): trying to hide the audit.
        // simlint: allow(DET007): stale directive below the shield.
        fn f() {}
        "#,
    );
    let sl001s = diags
        .iter()
        .filter(|d| d.rule == "SL001" && !d.suppressed)
        .count();
    assert!(sl001s >= 1, "{diags:?}");
}

#[test]
fn sl001_file_scope_stale_suppression() {
    let diags = lint(
        r#"
        // simlint: allow-file(CONS001): fixture once moved bytes.
        fn f() {}
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"SL001"), "{diags:?}");
}
