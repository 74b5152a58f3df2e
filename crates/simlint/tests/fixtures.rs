//! Fixture tests: seeded violations of every simlint rule, asserting the
//! linter reports them, classifies them correctly, honors suppressions,
//! and rejects suppressions without justifications.

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

#[test]
fn det001_for_loop_over_hashmap() {
    let diags = lint(
        r#"
        use std::collections::HashMap;
        fn f() {
            let mut m: HashMap<u32, u32> = HashMap::new();
            m.insert(1, 2);
            for (k, v) in &m {
                println!("{k} {v}");
            }
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"DET001"), "{diags:?}");
}

#[test]
fn det001_iter_methods() {
    for method in ["iter", "keys", "values", "drain", "into_iter", "retain"] {
        let src = format!(
            r#"
            fn f(m: std::collections::HashMap<u32, u32>) -> Vec<u32> {{
                let mut m = m;
                m.{method}().map(|x| x.0).collect()
            }}
            "#
        );
        let diags = lint(&src);
        assert!(
            rules_of(&diags, false).contains(&"DET001"),
            "{method}: {diags:?}"
        );
    }
}

#[test]
fn det001_not_fired_when_sorted() {
    let diags = lint(
        r#"
        fn f(m: std::collections::HashMap<u32, u32>) -> Vec<u32> {
            let mut ks: Vec<u32> = m.keys().copied().collect::<std::collections::BTreeSet<_>>()
                .into_iter().collect();
            ks
        }
        "#,
    );
    assert!(
        !rules_of(&diags, false).contains(&"DET001"),
        "sorted collection launders hash order: {diags:?}"
    );
}

#[test]
fn det001_not_fired_for_btreemap() {
    let diags = lint(
        r#"
        fn f(m: &std::collections::BTreeMap<u32, u32>) -> u32 {
            let mut acc = 0;
            for (_, v) in m.iter() { acc += v; }
            acc
        }
        "#,
    );
    assert!(rules_of(&diags, false).is_empty(), "{diags:?}");
}

#[test]
fn det002_wall_clock_and_entropy() {
    let cases = [
        "fn f() { let t = std::time::Instant::now(); }",
        "fn f() { let t = std::time::SystemTime::now(); }",
        "use std::time::{Duration, Instant};",
        "fn f() { let mut r = rand::thread_rng(); }",
        "fn f() -> u8 { rand::random() }",
        "fn f() -> String { std::env::var(\"X\").unwrap() }",
        "fn f() { let r = rand::rngs::OsRng; }",
    ];
    for src in cases {
        let diags = lint(src);
        assert!(
            rules_of(&diags, false).contains(&"DET002"),
            "{src}: {diags:?}"
        );
    }
}

#[test]
fn det002_off_for_cli_shell() {
    let opts = LintOptions {
        wall_clock: false,
        ..LintOptions::default()
    };
    let diags = lint_source(
        "fixture.rs",
        "fn f() { let t = std::time::Instant::now(); }",
        &opts,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn det002_ignores_unrelated_idents() {
    // An enum variant named `Instant` (as in skyrise_sim::trace::EventKind)
    // is not a wall-clock read.
    let diags = lint(
        r#"
        enum EventKind { Span, Instant }
        fn f(k: &EventKind) -> bool { matches!(k, EventKind::Instant) }
        "#,
    );
    assert!(rules_of(&diags, false).is_empty(), "{diags:?}");
}

#[test]
fn det003_borrow_guard_across_await() {
    let diags = lint(
        r#"
        async fn f(cell: &std::cell::RefCell<u32>, ctx: &SimCtx) {
            let guard = cell.borrow_mut();
            ctx.sleep(SimDuration::from_secs(1)).await;
            drop(guard);
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"DET003"), "{diags:?}");
}

#[test]
fn det003_temporary_across_await() {
    let diags = lint(
        r#"
        async fn f(cell: &std::cell::RefCell<Inner>, ctx: &SimCtx) {
            let x = run(cell.borrow().config).await;
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"DET003"), "{diags:?}");
}

#[test]
fn det003_scoped_borrow_is_clean() {
    let diags = lint(
        r#"
        async fn f(cell: &std::cell::RefCell<u32>, ctx: &SimCtx) {
            let v = {
                let g = cell.borrow();
                *g
            };
            ctx.sleep(SimDuration::from_secs(v as u64)).await;
            let w = cell.borrow_mut().take();
            ctx.sleep(SimDuration::from_secs(w)).await;
        }
        "#,
    );
    assert!(rules_of(&diags, false).is_empty(), "{diags:?}");
}

#[test]
fn det003_dropped_borrow_is_clean() {
    let diags = lint(
        r#"
        async fn f(cell: &std::cell::RefCell<u32>, ctx: &SimCtx) {
            let guard = cell.borrow_mut();
            drop(guard);
            ctx.sleep(SimDuration::from_secs(1)).await;
        }
        "#,
    );
    assert!(rules_of(&diags, false).is_empty(), "{diags:?}");
}

#[test]
fn det003_match_scrutinee_across_await() {
    let diags = lint(
        r#"
        async fn f(cell: &std::cell::RefCell<State>, ctx: &SimCtx) {
            match cell.borrow().mode {
                Mode::A => ctx.sleep(SimDuration::from_secs(1)).await,
                Mode::B => {}
            }
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"DET003"), "{diags:?}");
}

#[test]
fn det004_float_accumulation_from_hash() {
    let diags = lint(
        r#"
        fn f(m: &std::collections::HashMap<u32, f64>) -> f64 {
            m.values().sum()
        }
        "#,
    );
    let unsup = rules_of(&diags, false);
    assert!(unsup.contains(&"DET004"), "{diags:?}");
    assert!(
        !unsup.contains(&"DET001"),
        "accumulation reported as DET004, not DET001: {diags:?}"
    );
}

#[test]
fn det004_count_is_order_insensitive() {
    let diags = lint(
        r#"
        fn f(m: &std::collections::HashMap<u32, f64>) -> usize {
            m.values().count()
        }
        "#,
    );
    let unsup = rules_of(&diags, false);
    assert!(!unsup.contains(&"DET001"), "{diags:?}");
    assert!(!unsup.contains(&"DET004"), "{diags:?}");
}

#[test]
fn det005_construction() {
    let diags = lint(
        r#"
        fn f() {
            let m = std::collections::HashMap::<String, u32>::new();
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"DET005"), "{diags:?}");
}

#[test]
fn det005_import_alone_is_clean() {
    let diags = lint("use std::collections::HashMap;");
    assert!(rules_of(&diags, false).is_empty(), "{diags:?}");
}

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
                let mut m = std::collections::HashMap::new();
                m.insert(1, 2);
                for (k, v) in &m { let _ = (k, v); }
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
        fn f() { let t = std::time::Instant::now(); }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"DET002"), "{diags:?}");
}

#[test]
fn suppression_same_line_and_line_above() {
    let diags = lint(
        r#"
        fn f() {
            let m = std::collections::HashMap::<u32, u32>::new(); // simlint: allow(DET005): fixture.
            // simlint: allow(DET005): also a fixture.
            let n = std::collections::HashSet::<u32>::new();
        }
        "#,
    );
    assert!(rules_of(&diags, false).is_empty(), "{diags:?}");
    assert_eq!(
        rules_of(&diags, true),
        vec!["DET005", "DET005"],
        "{diags:?}"
    );
    assert!(diags.iter().all(|d| d.justification.is_some()));
}

#[test]
fn suppression_multiline_comment_block() {
    let diags = lint(
        r#"
        fn f() {
            // simlint: allow(DET005): this justification is long enough to
            // wrap onto a second comment line before the statement.
            let m = std::collections::HashMap::<u32, u32>::new();
        }
        "#,
    );
    assert!(rules_of(&diags, false).is_empty(), "{diags:?}");
}

#[test]
fn suppression_does_not_leak_to_other_lines() {
    let diags = lint(
        r#"
        fn f() {
            // simlint: allow(DET005): covers only the next line.
            let a = std::collections::HashMap::<u32, u32>::new();
            let b = std::collections::HashMap::<u32, u32>::new();
        }
        "#,
    );
    assert_eq!(rules_of(&diags, false), vec!["DET005"], "{diags:?}");
}

#[test]
fn suppression_wrong_rule_does_not_apply() {
    let diags = lint(
        r#"
        fn f() {
            // simlint: allow(DET001): wrong rule id for this finding.
            let m = std::collections::HashMap::<u32, u32>::new();
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"DET005"), "{diags:?}");
}

#[test]
fn file_scope_suppression() {
    let diags = lint(
        r#"
        // simlint: allow-file(DET005): fixture-wide waiver.
        fn f() {
            let a = std::collections::HashMap::<u32, u32>::new();
        }
        fn g() {
            let b = std::collections::HashSet::<u32>::new();
        }
        "#,
    );
    assert!(rules_of(&diags, false).is_empty(), "{diags:?}");
    assert_eq!(rules_of(&diags, true).len(), 2, "{diags:?}");
}

#[test]
fn suppression_without_justification_is_sl000() {
    for bad in [
        "// simlint: allow(DET005)",
        "// simlint: allow(DET005):",
        "// simlint: allow(DET005):   ",
        "// simlint: allow(): empty rules",
        "// simlint: deny(DET005): no such verb",
    ] {
        let src =
            format!("{bad}\nfn f() {{ let m = std::collections::HashMap::<u32, u32>::new(); }}");
        let diags = lint(&src);
        assert!(
            rules_of(&diags, false).contains(&"SL000"),
            "{bad}: {diags:?}"
        );
        // And the malformed directive must NOT suppress the finding.
        assert!(
            rules_of(&diags, false).contains(&"DET005"),
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
    let diags = lint("fn f() { let m = std::collections::HashMap::<u32, u32>::new(); }");
    let json = simlint::render_json(&diags);
    assert!(json.contains("\"rule\": \"DET005\""), "{json}");
    assert!(json.contains("\"unsuppressed\": 1"), "{json}");
    assert!(json.contains("\"file\": \"fixture.rs\""), "{json}");
}

#[test]
fn diagnostics_carry_position() {
    let diags = lint("\n\nfn f() { let m = std::collections::HashMap::<u32, u32>::new(); }");
    let d = diags.iter().find(|d| d.rule == "DET005").unwrap();
    assert_eq!(d.line, 3);
    assert_eq!(d.file, "fixture.rs");
}

#[test]
fn det006_thread_apis() {
    for src in [
        "fn f() { std::thread::spawn(|| {}); }",
        "fn f() { let n = std::thread::available_parallelism(); }",
        "fn f() { thread::scope(|s| { s.spawn(|| {}); }); }",
        "use std::thread;\nfn f() {}",
        "use std::thread::spawn;\nfn f() {}",
    ] {
        let diags = lint(src);
        assert!(
            rules_of(&diags, false).contains(&"DET006"),
            "{src}: {diags:?}"
        );
    }
}

#[test]
fn det006_off_for_harness_crates() {
    let opts = LintOptions {
        threads: false,
        ..LintOptions::default()
    };
    let diags = lint_source("fixture.rs", "fn f() { std::thread::spawn(|| {}); }", &opts);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn det006_ignores_unrelated_thread_idents() {
    // A local named `thread` or a non-std `thread` module must not fire.
    let diags = lint(
        r#"
        fn f(pool: &WorkerPool) { let thread = pool.current(); thread.run(); }
        "#,
    );
    assert!(!rules_of(&diags, false).contains(&"DET006"), "{diags:?}");
}

#[test]
fn det006_suppressible_with_justification() {
    let diags = lint(
        "// simlint: allow(DET006): host-side worker fan-out, not sim code.\n\
         fn f() { std::thread::spawn(|| {}); }",
    );
    assert!(rules_of(&diags, true).contains(&"DET006"), "{diags:?}");
    assert!(!rules_of(&diags, false).contains(&"DET006"), "{diags:?}");
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
// DET008: hash containers hidden behind aliases / re-exports.

#[test]
fn det008_use_alias_construction() {
    let diags = lint(
        r#"
        use std::collections::HashMap as Map;
        fn f() {
            let m: Map<u32, u32> = Map::new();
            for (k, v) in &m {
                let _ = (k, v);
            }
        }
        "#,
    );
    let unsup = rules_of(&diags, false);
    assert!(unsup.contains(&"DET008"), "{diags:?}");
    // The alias also feeds the order-sensitivity rule on the `for` loop.
    assert!(unsup.contains(&"DET001"), "{diags:?}");
}

#[test]
fn det008_cross_file_reexport() {
    let files = vec![
        (
            "crates/demo/src/lib.rs".to_string(),
            "pub mod util;\npub use util::FastMap;\n".to_string(),
        ),
        (
            "crates/demo/src/util.rs".to_string(),
            "pub use std::collections::HashMap as FastMap;\n".to_string(),
        ),
        (
            "crates/demo/src/work.rs".to_string(),
            "use crate::FastMap;\nfn f() { let m: FastMap<u32, u32> = FastMap::new(); }\n"
                .to_string(),
        ),
    ];
    let diags = simlint::lint_files(&files);
    let hit = diags
        .iter()
        .any(|d| d.rule == "DET008" && d.file == "crates/demo/src/work.rs" && !d.suppressed);
    assert!(hit, "{diags:?}");
}

#[test]
fn det008_suppressible_with_justification() {
    let diags = lint(
        r#"
        use std::collections::HashMap as Map;
        fn f() {
            // simlint: allow(DET008, DET005): interning table, keyed access only.
            let m: Map<u32, u32> = Map::new();
            let _ = m;
        }
        "#,
    );
    assert!(rules_of(&diags, true).contains(&"DET008"), "{diags:?}");
    assert!(!rules_of(&diags, false).contains(&"DET008"), "{diags:?}");
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
        // simlint: allow(DET005): once masked a HashMap that is long gone.
        fn f() {
            let m = std::collections::BTreeMap::<u32, u32>::new();
            let _ = m;
        }
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"SL001"), "{diags:?}");
}

#[test]
fn sl001_live_suppression_is_quiet() {
    let diags = lint(
        r#"
        fn f() {
            // simlint: allow(DET005): keyed probe table, order never observed.
            let m = std::collections::HashMap::<u32, u32>::new();
            let _ = m;
        }
        "#,
    );
    assert!(!rules_of(&diags, false).contains(&"SL001"), "{diags:?}");
    assert!(rules_of(&diags, true).contains(&"DET005"), "{diags:?}");
}

#[test]
fn sl001_cannot_be_suppressed() {
    let diags = lint(
        r#"
        // simlint: allow(SL001): trying to hide the audit.
        // simlint: allow(DET005): stale directive below the shield.
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
        // simlint: allow-file(DET006): fixture once spawned threads.
        fn f() {}
        "#,
    );
    assert!(rules_of(&diags, false).contains(&"SL001"), "{diags:?}");
}
