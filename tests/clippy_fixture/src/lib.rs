//! The bad and the clean source of every determinism hazard `clippy.toml`
//! owns, one item per fixture, named after the rule it plants. A trailing
//! `//~` comment marks each line clippy must report, with the lint's name
//! once per report; `check.py` fails on a missing report and on any report
//! without a mark, so the clean functions prove the absence of false
//! positives. `crates/skyrise/tests/fixtures.rs` (tier-1) pins each function's marks.

pub mod util;
pub use util::FastMap; //~ disallowed_types
pub use util::*;

pub struct SimCtx;
impl SimCtx {
    pub async fn sleep(&self, _secs: u64) {}
}
pub struct State {
    pub mode: bool,
    pub secs: u64,
}
type Cell<T> = std::cell::RefCell<T>;

// --- DET001 / DET004 / DET005: the container is the hazard; iterating or
// accumulating over it cannot be written without naming it first.

pub fn det001_for_loop_over_hashmap() {
    use std::collections::HashMap; //~ disallowed_types
    let mut m: HashMap<u32, u32> = HashMap::new(); //~ disallowed_types disallowed_types
    m.insert(1, 2);
    for (k, v) in &m {
        println!("{k} {v}");
    }
}

pub fn det001_iter_methods(
    mut m: std::collections::HashMap<u32, u32>, //~ disallowed_types
) -> u32 {
    m.retain(|_, v| *v > 0);
    let n = m.iter().map(|(k, v)| k + v).sum::<u32>() + m.keys().sum::<u32>();
    let n = n + m.values().sum::<u32>() + m.drain().map(|(k, v)| k + v).sum::<u32>();
    n + m.into_iter().map(|(k, v)| k + v).sum::<u32>()
}

pub fn det001_not_fired_when_sorted(
    m: std::collections::HashMap<u32, u32>, //~ disallowed_types
) -> Vec<u32> {
    // Sorting launders the order, but the container still needs its waiver.
    let ks: std::collections::BTreeSet<u32> = m.keys().copied().collect();
    ks.into_iter().collect()
}

pub fn det001_not_fired_for_btreemap(m: &std::collections::BTreeMap<u32, u32>) -> u32 {
    let mut acc = 0;
    for (_, v) in m.iter() {
        acc += v;
    }
    acc
}

pub fn det004_float_accumulation_from_hash(
    m: &std::collections::HashMap<u32, f64>, //~ disallowed_types
) -> f64 {
    m.values().sum()
}

pub fn det004_count_is_order_insensitive(
    m: &std::collections::HashMap<u32, f64>, //~ disallowed_types
) -> usize {
    m.values().count()
}

pub fn det005_construction() {
    let m = std::collections::HashMap::<String, u32>::new(); //~ disallowed_types
    let s = std::collections::HashSet::<u32>::new(); //~ disallowed_types
    let r = std::hash::RandomState::new(); //~ disallowed_types
    let _ = (m, s, r);
}

/// The import alone is reported.
pub mod det005_import_alone_is_clean {
    pub use std::collections::HashMap; //~ disallowed_types
}

// --- DET002: wall clock and host environment, once per listed path.
// `rand::thread_rng`, `rand::random`, `OsRng` and `from_entropy` are not
// here: the workspace's `rand` stand-in does not define them.

pub fn det002_wall_clock_and_entropy() {
    let _ = std::time::Instant::now(); //~ disallowed_methods
    let _ = std::time::SystemTime::now(); //~ disallowed_methods
    let _ = std::time::SystemTime::elapsed(&std::time::UNIX_EPOCH); //~ disallowed_methods
    let _ = std::env::var("X"); //~ disallowed_methods
    let _ = std::env::var_os("X"); //~ disallowed_methods
    let _ = std::env::vars(); //~ disallowed_methods
    let _ = std::env::vars_os(); //~ disallowed_methods
    let _ = std::env::args(); //~ disallowed_methods
    let _ = std::env::args_os(); //~ disallowed_methods
    let _ = std::env::current_dir(); //~ disallowed_methods
    let _ = std::env::current_exe(); //~ disallowed_methods
    let _ = std::env::temp_dir(); //~ disallowed_methods
    std::env::set_var("X", "1"); //~ disallowed_methods
    std::env::remove_var("X"); //~ disallowed_methods
}

/// The waiver a host-side item carries (`crates/bench`'s `host` module).
#[expect(
    clippy::disallowed_methods,
    reason = "fixture: a CLI shell times itself"
)]
pub fn det002_off_for_cli_shell() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn det002_ignores_unrelated_idents(k: &EventKind) -> bool {
    matches!(k, EventKind::Instant)
}
pub enum EventKind {
    Span,
    Instant,
}

// --- DET003: `clippy::await_holding_refcell_ref`, on by default.

pub async fn det003_borrow_guard_across_await(cell: &Cell<u32>, ctx: &SimCtx) {
    let guard = cell.borrow_mut(); //~ await_holding_refcell_ref
    ctx.sleep(1).await;
    drop(guard);
}

pub async fn det003_temporary_across_await(cell: &Cell<State>, ctx: &SimCtx) {
    ctx.sleep(cell.borrow().secs).await; //~ await_holding_refcell_ref
}

#[rustfmt::skip] // keeps the mark on the scrutinee's line
pub async fn det003_match_scrutinee_across_await(cell: &Cell<State>, ctx: &SimCtx) {
    match cell.borrow().mode { //~ await_holding_refcell_ref
        true => ctx.sleep(1).await,
        false => ctx.sleep(2).await,
    }
}

pub async fn det003_scoped_borrow_is_clean(cell: &Cell<u64>, ctx: &SimCtx) {
    let v = {
        let g = cell.borrow();
        *g
    };
    ctx.sleep(v).await;
    let w = std::mem::take(&mut *cell.borrow_mut());
    ctx.sleep(w).await;
}

pub async fn det003_dropped_borrow_is_clean(cell: &Cell<u32>, ctx: &SimCtx) {
    let guard = cell.borrow_mut();
    drop(guard);
    ctx.sleep(1).await;
}

// --- DET006: host threads, once per listed path.

#[rustfmt::skip] // keeps the mark on the `scope` line
pub fn det006_thread_apis() {
    let _ = std::thread::spawn(|| {}).join(); //~ disallowed_methods
    let _ = std::thread::Builder::spawn(std::thread::Builder::new(), || {}); //~ disallowed_methods
    std::thread::scope(|s| { //~ disallowed_methods
        let _ = std::thread::Builder::spawn_scoped(std::thread::Builder::new(), s, || {}); //~ disallowed_methods
    });
    std::thread::sleep(std::time::Duration::ZERO); //~ disallowed_methods
    std::thread::park_timeout(std::time::Duration::ZERO); //~ disallowed_methods
    std::thread::yield_now(); //~ disallowed_methods
    let _ = std::thread::available_parallelism(); //~ disallowed_methods
    if std::thread::panicking() {
        std::thread::park(); //~ disallowed_methods
    }
}

/// The crate-level waiver of a harness crate, here on a module.
pub mod det006_off_for_harness_crates {
    #![expect(
        clippy::disallowed_methods,
        reason = "fixture: the harness fans out over threads"
    )]
    pub fn run() {
        let _ = std::thread::spawn(|| {}).join();
    }
}

pub fn det006_ignores_unrelated_thread_idents(pool: &[u32]) -> u32 {
    let thread = pool.first().copied().unwrap_or(0);
    thread + 1
}

pub fn det006_suppressible_with_justification() {
    #[expect(
        clippy::disallowed_methods,
        reason = "fixture: host-side worker, not sim code"
    )]
    let _ = std::thread::spawn(|| {}).join();
}

// --- DET008 and the module graph: a hash container or a clock under
// another name. rustc's resolution sees through each.

pub fn det008_use_alias_construction() {
    use std::collections::HashMap as Map; //~ disallowed_types
    let m: Map<u32, u32> = Map::new(); //~ disallowed_types disallowed_types
    for (k, v) in &m {
        let _ = (k, v);
    }
}

pub fn det008_cross_file_reexport() {
    let m: crate::FastMap<u32, u32> = crate::FastMap::new(); //~ disallowed_types disallowed_types
    let _ = m;
}

pub fn det008_suppressible_with_justification() {
    #[expect(
        clippy::disallowed_types,
        reason = "fixture: interning table, keyed access only"
    )]
    let m: crate::FastMap<u32, u32> = crate::FastMap::new();
    let _ = m;
}

pub fn graph_alias_resolves_to_hash() -> usize {
    use std::collections::HashSet as Set; //~ disallowed_types
    Set::<u32>::new().len() //~ disallowed_types
}

pub fn graph_reexport_chain_resolves_across_files() -> usize {
    crate::util::FastMap::<u32, u32>::new().len() //~ disallowed_types
}

pub fn graph_crate_root_reexport_via_glob() -> usize {
    crate::IdSet::<u32>::new().len() //~ disallowed_types
}

pub fn graph_type_alias_to_hash() -> usize {
    type Index = std::collections::HashMap<u64, u32>; //~ disallowed_types
    Index::new().len()
}

pub fn graph_time_alias_detected() {
    use std::time::Instant as Clock;
    let _ = Clock::now(); //~ disallowed_methods
}

pub fn graph_btree_alias_is_clean() -> usize {
    use std::collections::BTreeMap as Map;
    Map::<u32, u32>::new().len()
}
