//! Intra-function dataflow: def-use taint chains from nondeterministic
//! sources to determinism-critical sinks (DET007), and conservation lints
//! that demand byte transfers and billable operations route through the
//! token-bucket ledger / usage meter (CONS001/CONS002).
//!
//! The analysis is linear-scan over the token stream, guided by the parse
//! layer's function extents:
//!
//! * a **source** is a wall-clock, entropy, or environment read in its
//!   canonical spelling (`Instant::now`, `env::var`, ...), or a *same-crate
//!   helper* whose return value derives from a source (computed as a
//!   bounded fixpoint over function summaries). A source renamed by
//!   `use ... as` is not followed: clippy's `disallowed-methods` resolves
//!   the alias and demands a waiver at the call, whatever its spelling;
//! * taint propagates through `let` bindings and plain assignments;
//! * a **sink** is a call that folds its arguments into reproducibility
//!   state: sanitizer checkpoints, telemetry digests/records, trace
//!   attributes, and sort keys.

use crate::lexer::{TokKind, Token};
use crate::parse::{matching_close, FnItem};
use crate::rules::ConsScope;
use crate::{Diagnostic, Severity};
use std::collections::{BTreeMap, BTreeSet};

/// Calls that fold their arguments into reproducibility-critical state.
pub const TAINT_SINKS: &[&str] = &[
    "checkpoint",
    "digest",
    "fold_digest",
    "record",
    "record_duration",
    "record_span",
    "observe",
    "attr",
    "sort_by_key",
    "sort_unstable_by_key",
    "sort_by_cached_key",
    "sort_by",
];

/// Entropy-drawing APIs (last path segment).
const ENTROPY_APIS: &[&str] = &["thread_rng", "OsRng", "getrandom", "from_entropy"];

/// Token-bucket ledger APIs (the net conservation contract).
pub const NET_LEDGER: &[&str] = &["consume", "grant", "try_admit", "assert_conserved"];

/// Usage-meter / CoreMetrics APIs (the storage/compute billing contract).
pub const METER_APIS: &[&str] = &[
    "meter_request",
    "record_storage_request",
    "record_op",
    "record_lambda",
    "record_invocation",
    "meter",
];

/// Idents whose presence marks a function as moving a byte payload.
fn is_bytes_ident(t: &Token) -> bool {
    t.kind == TokKind::Ident && (t.text == "bytes" || t.text.ends_with("_bytes"))
}

/// Scan `[lo, hi)` for a taint source or an already-tainted name. Returns
/// the line and a short description of the first hit.
fn region_taint(
    code: &[&Token],
    lo: usize,
    hi: usize,
    tainted: &BTreeSet<String>,
    taint_fns: &BTreeSet<String>,
) -> Option<(u32, String)> {
    let hi = hi.min(code.len());
    let mut i = lo;
    while i < hi {
        let t = code[i];
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let name = t.text.as_str();
        let next_is = |off: usize, c: char| code.get(i + off).map(|t| t.is_punct(c)) == Some(true);
        let path_then = |target: &[&str]| -> bool {
            next_is(1, ':')
                && next_is(2, ':')
                && code
                    .get(i + 3)
                    .map(|t| t.kind == TokKind::Ident && target.contains(&t.text.as_str()))
                    == Some(true)
        };
        if tainted.contains(name) {
            return Some((t.line, format!("`{name}` (tainted binding)")));
        }
        if (name == "Instant" || name == "SystemTime") && path_then(&["now"]) {
            return Some((t.line, format!("`{name}::now()` wall-clock read")));
        }
        if ENTROPY_APIS.contains(&name) {
            return Some((t.line, format!("`{name}` entropy draw")));
        }
        if name == "random"
            && i >= 3
            && code[i - 1].is_punct(':')
            && code[i - 2].is_punct(':')
            && code[i - 3].is_ident("rand")
        {
            return Some((t.line, "`rand::random` entropy draw".to_string()));
        }
        if name == "env"
            && path_then(&["var", "var_os", "vars", "vars_os", "args", "args_os"])
            && !next_is(1, '!')
        {
            return Some((t.line, "`std::env` host-environment read".to_string()));
        }
        if taint_fns.contains(name) && next_is(1, '(') {
            return Some((
                t.line,
                format!("helper `{name}()` returns a wall-clock/entropy-derived value"),
            ));
        }
        i += 1;
    }
    None
}

/// Analyze one function body: emit DET007 for tainted values reaching
/// sinks, and report whether the function's return value is tainted.
fn analyze_fn(
    file: &str,
    code: &[&Token],
    item: &FnItem,
    taint_fns: &BTreeSet<String>,
    diags: Option<&mut Vec<Diagnostic>>,
) -> bool {
    let Some((body_open, body_close)) = item.body else {
        return false;
    };
    let has_ret = (item.params.1..body_open)
        .any(|i| code[i].is_punct('-') && code.get(i + 1).map(|t| t.is_punct('>')) == Some(true));
    let mut tainted: BTreeSet<String> = BTreeSet::new();
    let mut returns_taint = false;
    let mut local_diags: Vec<Diagnostic> = Vec::new();

    // End of the statement starting at `i`: the first `;` with all brackets
    // opened since `i` closed again (capped at the body end).
    let stmt_end = |mut i: usize| -> usize {
        let mut depth = 0i32;
        while i < body_close {
            let t = code[i];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            } else if t.is_punct(';') && depth == 0 {
                return i;
            }
            i += 1;
        }
        body_close
    };

    let mut i = body_open + 1;
    let mut last_stmt_start = i;
    while i < body_close {
        let t = code[i];
        if t.is_punct(';') {
            last_stmt_start = i + 1;
            i += 1;
            continue;
        }
        if t.kind != TokKind::Ident {
            i += 1;
            continue;
        }
        // `let [mut] NAME ... = <expr>;` — taint NAME if the RHS carries it.
        if t.is_ident("let") {
            let mut j = i + 1;
            if j < body_close && code[j].is_ident("mut") {
                j += 1;
            }
            if j < body_close && code[j].kind == TokKind::Ident {
                let name = code[j].text.clone();
                let end = stmt_end(j + 1);
                if region_taint(code, j + 1, end, &tainted, taint_fns).is_some() {
                    tainted.insert(name);
                }
                i = j + 1;
                continue;
            }
        }
        // Plain reassignment `NAME = <expr>` at a statement start.
        if i + 1 < body_close
            && code[i + 1].is_punct('=')
            && code.get(i + 2).map(|t| t.is_punct('=')) != Some(true)
            && i > 0
            && (code[i - 1].is_punct(';') || code[i - 1].is_punct('{') || code[i - 1].is_punct('}'))
        {
            let end = stmt_end(i + 2);
            if region_taint(code, i + 2, end, &tainted, taint_fns).is_some() {
                tainted.insert(t.text.clone());
            }
            i += 2;
            continue;
        }
        // Sink call: `sink(<args>)` / `.sink(<args>)`.
        if TAINT_SINKS.contains(&t.text.as_str()) && i + 1 < body_close && code[i + 1].is_punct('(')
        {
            let close = matching_close(code, i + 1);
            if let Some((line, what)) = region_taint(code, i + 2, close, &tainted, taint_fns) {
                local_diags.push(Diagnostic::new(
                    file,
                    t.line,
                    "DET007",
                    Severity::Error,
                    format!(
                        "nondeterministic value reaches `{}` — {} (line {line}) taints this \
                         determinism-critical sink; derive it from virtual time or seeded \
                         randomness instead",
                        t.text, what
                    ),
                ));
            }
            i = close.max(i + 1);
            continue;
        }
        // `return <expr>;`
        if t.is_ident("return") && has_ret {
            let end = stmt_end(i + 1);
            if region_taint(code, i + 1, end, &tainted, taint_fns).is_some() {
                returns_taint = true;
            }
        }
        i += 1;
    }
    // Tail expression: tokens from the last top-level `;` to the close brace.
    if has_ret && region_taint(code, last_stmt_start, body_close, &tainted, taint_fns).is_some() {
        returns_taint = true;
    }
    if let Some(d) = diags {
        d.append(&mut local_diags);
    }
    returns_taint
}

/// DET007 over every non-test function in a file.
pub fn check_taint(
    file: &str,
    code: &[&Token],
    fns: &[FnItem],
    summaries: &CrateSummaries,
    exempt: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    for item in fns {
        if exempt.get(item.kw).copied().unwrap_or(false) {
            continue;
        }
        analyze_fn(file, code, item, &summaries.taint_fns, Some(diags));
    }
}

/// One file's inputs to the crate-level summary fixpoint.
pub struct FlowInput<'a> {
    /// Comment-filtered tokens.
    pub code: &'a [&'a Token],
    /// Its function items, from the parse layer.
    pub fns: &'a [FnItem],
}

/// Summaries for one crate's functions, keyed by bare function name
/// (collisions are accepted — the analysis stays conservative).
#[derive(Debug, Default, Clone)]
pub struct CrateSummaries {
    /// Functions whose return value derives from a nondet source.
    pub taint_fns: BTreeSet<String>,
    /// Functions that (transitively) hit the token-bucket ledger.
    pub ledger_fns: BTreeSet<String>,
    /// Functions that (transitively) hit the usage meter / CoreMetrics.
    pub meter_fns: BTreeSet<String>,
}

/// Compute function summaries for a group of same-crate files, as a bounded
/// fixpoint (taint through helper returns; ledger/meter through calls).
pub fn summarize(files: &[FlowInput<'_>]) -> CrateSummaries {
    let mut out = CrateSummaries::default();
    // Direct ledger/meter touches + call graphs.
    let mut calls: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for f in files {
        for item in f.fns {
            let Some((lo, hi)) = item.body else { continue };
            let entry = calls.entry(item.name.clone()).or_default();
            for i in lo + 1..hi.min(f.code.len()) {
                let t = f.code[i];
                if t.kind == TokKind::Ident
                    && f.code.get(i + 1).map(|n| n.is_punct('(')) == Some(true)
                {
                    entry.insert(t.text.clone());
                }
                if t.kind == TokKind::Ident
                    && f.code.get(i + 1).map(|n| n.is_punct('(')) == Some(true)
                {
                    if NET_LEDGER.contains(&t.text.as_str()) {
                        out.ledger_fns.insert(item.name.clone());
                    }
                    if METER_APIS.contains(&t.text.as_str()) {
                        out.meter_fns.insert(item.name.clone());
                    }
                }
            }
        }
    }
    // Transitive closure over calls for ledger/meter.
    for set in [&mut out.ledger_fns, &mut out.meter_fns] {
        loop {
            let mut grew = false;
            for (f, callees) in &calls {
                if !set.contains(f) && callees.iter().any(|c| set.contains(c)) {
                    set.insert(f.clone());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
    }
    // Taint-returning helpers: bounded fixpoint re-running the body scan
    // with the growing set.
    for _round in 0..4 {
        let mut next: BTreeSet<String> = BTreeSet::new();
        for f in files {
            for item in f.fns {
                if analyze_fn("", f.code, item, &out.taint_fns, None) {
                    next.insert(item.name.clone());
                }
            }
        }
        if next == out.taint_fns {
            break;
        }
        out.taint_fns = next;
    }
    out
}

/// CONS001/CONS002: byte-moving async operations must route through the
/// ledger (net) or the meter (storage/compute).
pub fn check_conservation(
    file: &str,
    code: &[&Token],
    fns: &[FnItem],
    summaries: &CrateSummaries,
    scope: ConsScope,
    exempt: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    for item in fns {
        if exempt.get(item.kw).copied().unwrap_or(false) {
            continue;
        }
        let Some((lo, hi)) = item.body else { continue };
        if !item.is_async {
            continue;
        }
        let hi = hi.min(code.len());
        let body = &code[lo..hi];
        let awaits = body.iter().any(|t| t.is_ident("await"));
        if !awaits {
            continue;
        }
        let moves_bytes = code[item.params.0..item.params.1.min(code.len())]
            .iter()
            .any(|t| is_bytes_ident(t))
            || body.iter().any(|t| is_bytes_ident(t));
        // A body ident only counts as routing/metering when it is a *call*
        // (`name(`): bare field accesses like `self.read` must not satisfy
        // the contract just because a fn of the same name is summarized.
        let calls = |names: &[&str], set: &BTreeSet<String>| -> bool {
            body.iter().enumerate().any(|(i, t)| {
                t.kind == TokKind::Ident
                    && body.get(i + 1).map(|n| n.is_punct('(')) == Some(true)
                    && (names.contains(&t.text.as_str()) || set.contains(&t.text))
            })
        };
        match scope {
            ConsScope::Net => {
                if !moves_bytes {
                    continue;
                }
                let routed = calls(NET_LEDGER, &summaries.ledger_fns);
                if !routed {
                    diags.push(Diagnostic::new(
                        file,
                        item.line,
                        "CONS001",
                        Severity::Error,
                        format!(
                            "async fn `{}` moves a byte payload without consuming from the \
                             token-bucket ledger; every transfer must route through \
                             `RateLimiter::consume`/`grant` so conservation stays checkable",
                            item.name
                        ),
                    ));
                }
            }
            ConsScope::Metered => {
                if !item.is_pub || !(moves_bytes || item.name.contains("invoke")) {
                    continue;
                }
                let metered = calls(METER_APIS, &summaries.meter_fns);
                if !metered {
                    diags.push(Diagnostic::new(
                        file,
                        item.line,
                        "CONS002",
                        Severity::Error,
                        format!(
                            "pub async fn `{}` performs a billable operation without touching \
                             `CoreMetrics`/the pricing meter; route it through \
                             `meter_request`/`record_op`/`record_lambda` (or suppress with the \
                             call-site that meters it)",
                            item.name
                        ),
                    ));
                }
            }
        }
    }
}
