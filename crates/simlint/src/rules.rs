//! Determinism rules over the token stream.
//!
//! Heuristic, token-level analyses — deliberately simple enough to audit by
//! eye, strict enough to catch the hazards that matter in a deterministic
//! discrete-event simulation:
//!
//! * **DET001** — iteration over `HashMap`/`HashSet` without an intervening
//!   sort. Hash iteration order varies run-to-run (`RandomState`), so any
//!   result shaped by it is nondeterministic.
//! * **DET002** — wall-clock / entropy / environment APIs (`Instant::now`,
//!   `SystemTime`, `thread_rng`, `std::env`, `OsRng`, ...) outside the bench
//!   CLI shell. All time must be virtual, all randomness seeded.
//! * **DET003** — `RefCell` borrow live across an `.await` point inside an
//!   async body: the executor re-enters other tasks at awaits, so a held
//!   borrow panics at runtime depending on interleaving.
//! * **DET004** — f64 accumulation (`sum`/`product`/`fold`) fed from an
//!   unordered container: float addition is not associative, so hash order
//!   leaks into the aggregate value. Reported instead of DET001 when an
//!   iteration chain ends in an accumulator.
//! * **DET005** — `HashMap`/`HashSet` construction or type annotation in
//!   sim-facing code. Even keyed-only maps are one `for` loop away from a
//!   DET001; prefer `BTreeMap`/`BTreeSet`, or suppress with a justification.
//! * **DET006** — host thread APIs (`std::thread::spawn`/`scope`/...) in
//!   sim-facing code. Every simulation is single-threaded by construction;
//!   only the bench harness shell may fan work out across OS threads.
//! * **DET007** — dataflow taint: a wall-clock / entropy / environment value
//!   reaching a determinism-critical sink (sanitizer checkpoint, telemetry
//!   digest/record, trace attr, sort key) — even through `let` bindings or
//!   same-crate helper returns. See [`crate::flow`].
//! * **DET008** — hash container hiding behind a `use ... as` alias,
//!   re-export chain, or `type` alias that DET001/DET005's lexical checks
//!   cannot see. Resolved through the module graph ([`crate::graph`]).
//! * **CONS001** — byte transfer in `crates/net` not routed through the
//!   token-bucket ledger (`consume`/`grant`), so runtime conservation
//!   checks would never see it.
//! * **CONS002** — billable storage/compute operation bypassing
//!   `CoreMetrics`/the pricing meter.
//! * **SL000** — malformed suppression: `// simlint: allow(...)` without the
//!   mandatory `: <justification>` tail (or unparseable rule list).
//! * **SL001** — stale suppression: a well-formed `allow(...)` that masks no
//!   diagnostic any more. Reported as an error so the allowlist only shrinks.

use crate::graph::FileCtx;
use crate::lexer::{TokKind, Token};
use crate::{Diagnostic, Edit, Severity};

/// Which conservation contract applies to a file's crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsScope {
    /// `crates/net`: byte movement must hit the token-bucket ledger (CONS001).
    Net,
    /// `crates/storage` / `crates/compute`: billable ops must hit the
    /// usage meter / `CoreMetrics` (CONS002).
    Metered,
}

/// Per-file rule toggles, derived from the crate a file belongs to.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Enable DET002 (wall-clock / entropy / env). Off for the bench CLI
    /// shell and for simlint itself, which legitimately touch the host.
    pub wall_clock: bool,
    /// Enable DET006 (host thread APIs). Off for the same host-side crates:
    /// the parallel harness runs whole experiments on worker threads, but
    /// each simulation inside stays single-threaded.
    pub threads: bool,
    /// Enable DET007 (source-to-sink taint). Follows `wall_clock`: where a
    /// crate may read the host clock at all, feeding it onward is its
    /// business (the bench shell reports wall time by design).
    pub taint: bool,
    /// Conservation contract for this file's crate, if any.
    pub conservation: Option<ConsScope>,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            wall_clock: true,
            threads: true,
            taint: true,
            conservation: None,
        }
    }
}

/// A parsed `// simlint: allow(...)` directive.
#[derive(Debug, Clone)]
struct Suppression {
    rules: Vec<String>,
    line: u32,
    /// Line of the first code token after the directive's comment block —
    /// what "the line below the comment" resolves to.
    covers_line: u32,
    file_scope: bool,
    justification: String,
}

const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet", "AHashMap"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];
const ACCUMULATORS: &[&str] = &["sum", "product", "fold"];
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "OsRng", "getrandom", "from_entropy"];

fn is_hash_type(t: &Token) -> bool {
    t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str())
}

/// Does this identifier indicate the statement imposes an order (so hash
/// iteration is laundered through a sort or ordered collection)?
fn is_ordering_ident(t: &Token) -> bool {
    t.kind == TokKind::Ident
        && (t.text.contains("sort") || t.text.starts_with("BTree") || t.text == "BinaryHeap")
}

/// Lint one file's token stream against its resolved module context.
/// Returns all diagnostics, with suppressed ones marked rather than
/// dropped, so `--json` can show the full picture.
pub fn check_tokens(
    file: &str,
    toks: &[Token],
    opts: &LintOptions,
    ctx: &FileCtx,
) -> Vec<Diagnostic> {
    let mut diags: Vec<Diagnostic> = Vec::new();

    let (sups, mut sup_diags) = parse_suppressions(file, toks);
    diags.append(&mut sup_diags);

    // Comments out of the way: rules see adjacent code tokens only.
    let code: Vec<&Token> = toks.iter().filter(|t| !t.is_comment()).collect();
    let exempt = test_exempt_mask(&code);
    let in_use = use_stmt_mask(&code);

    if opts.wall_clock {
        rule_det002(file, &code, &exempt, &in_use, ctx, &mut diags);
    }
    if opts.threads {
        rule_det006(file, &code, &exempt, &in_use, &mut diags);
    }
    rule_hash(file, &code, &exempt, &in_use, ctx, &mut diags);
    rule_det003(file, &code, &exempt, &mut diags);

    let parsed = crate::parse::parse(&code);
    if opts.taint {
        crate::flow::check_taint(file, &code, &parsed, ctx, &exempt, &mut diags);
    }
    if let Some(scope) = opts.conservation {
        crate::flow::check_conservation(file, &code, &parsed, ctx, scope, &exempt, &mut diags);
    }

    dedupe(&mut diags);
    let hits = apply_suppressions(&mut diags, &sups);

    // SL001: every suppression must still pay its way.
    for (s, n) in sups.iter().zip(hits) {
        if n == 0 {
            diags.push(Diagnostic::new(
                file,
                s.line,
                "SL001",
                Severity::Error,
                format!(
                    "stale suppression `allow{}({})`: it masks no diagnostic; delete it",
                    if s.file_scope { "-file" } else { "" },
                    s.rules.join(", ")
                ),
            ));
        }
    }
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

fn dedupe(diags: &mut Vec<Diagnostic>) {
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags.dedup_by(|a, b| {
        if a.line == b.line && a.rule == b.rule {
            // Keep the machine-applicable fix if only the dropped twin has it.
            if b.fix.is_none() {
                b.fix = a.fix.take();
            }
            true
        } else {
            false
        }
    });
}

/// Mark suppressed diagnostics; returns per-suppression hit counts (for
/// SL001 staleness). SL000/SL001 findings can never be suppressed.
fn apply_suppressions(diags: &mut [Diagnostic], sups: &[Suppression]) -> Vec<u32> {
    let mut hits = vec![0u32; sups.len()];
    for d in diags.iter_mut() {
        if d.rule.starts_with("SL") {
            continue; // suppression-audit reports cannot themselves be suppressed
        }
        for (si, s) in sups.iter().enumerate() {
            let rule_match = s.rules.iter().any(|r| r == d.rule || r == "all");
            if !rule_match {
                continue;
            }
            if s.file_scope || s.line == d.line || s.covers_line == d.line {
                hits[si] += 1;
                if !d.suppressed {
                    d.suppressed = true;
                    d.justification = Some(s.justification.clone());
                }
            }
        }
    }
    hits
}

fn parse_suppressions(file: &str, toks: &[Token]) -> (Vec<Suppression>, Vec<Diagnostic>) {
    let mut sups = Vec::new();
    let mut diags = Vec::new();
    for (ti, t) in toks.iter().enumerate() {
        if !t.is_comment() {
            continue;
        }
        // A directive must *start* the comment (after `//`/`//!`/`/**`
        // markers) — prose that merely mentions `simlint:` is not one.
        let stripped = t
            .text
            .trim_start_matches(|c: char| c == '/' || c == '!' || c == '*' || c.is_whitespace());
        let Some(rest) = stripped.strip_prefix("simlint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let (file_scope, rest) = if let Some(r) = rest.strip_prefix("allow-file") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("allow") {
            (false, r)
        } else {
            diags.push(Diagnostic::new(
                file,
                t.line,
                "SL000",
                Severity::Error,
                format!("unrecognized simlint directive: `{}`", t.text.trim()),
            ));
            continue;
        };
        let rest = rest.trim_start();
        let ok = rest.strip_prefix('(').and_then(|r| {
            let close = r.find(')')?;
            let rules: Vec<String> = r[..close]
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if rules.is_empty() {
                return None;
            }
            let tail = r[close + 1..].trim_start();
            let just = tail.strip_prefix(':')?.trim();
            if just.is_empty() {
                return None;
            }
            Some((rules, just.to_string()))
        });
        // The directive covers its own line (trailing comment) and the
        // first code line after its comment block (comment-above style,
        // including multi-line comment blocks).
        let covers_line = toks[ti + 1..]
            .iter()
            .find(|n| !n.is_comment())
            .map(|n| n.line)
            .unwrap_or(t.line);
        match ok {
            Some((rules, justification)) => sups.push(Suppression {
                rules,
                line: t.line,
                covers_line,
                file_scope,
                justification,
            }),
            None => diags.push(Diagnostic::new(
                file,
                t.line,
                "SL000",
                Severity::Error,
                "simlint suppression requires `allow(<rules>): <justification>` \
                 with a non-empty justification"
                    .to_string(),
            )),
        }
    }
    (sups, diags)
}

/// Mark code-token indices that fall inside a `#[cfg(test)]` item (attribute
/// through the end of the following brace block or `;`). Test code may use
/// wall clocks and hash maps freely — it never feeds simulation results.
fn test_exempt_mask(code: &[&Token]) -> Vec<bool> {
    let mut exempt = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if !(code[i].is_punct('#') && i + 1 < code.len() && code[i + 1].is_punct('[')) {
            i += 1;
            continue;
        }
        // Attribute group: find the matching `]`.
        let mut j = i + 1;
        let mut depth = 0i32;
        let mut has_cfg = false;
        let mut has_test = false;
        let mut has_not = false;
        while j < code.len() {
            if code[j].is_punct('[') {
                depth += 1;
            } else if code[j].is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if code[j].is_ident("cfg") || code[j].is_ident("cfg_attr") {
                has_cfg = true;
            } else if code[j].is_ident("test") {
                has_test = true;
            } else if code[j].is_ident("not") {
                has_not = true;
            }
            j += 1;
        }
        if !(has_cfg && has_test && !has_not) {
            i = j + 1;
            continue;
        }
        // Exempt the attribute, any stacked attributes, and the item body.
        let start = i;
        let mut k = j + 1;
        while k + 1 < code.len() && code[k].is_punct('#') && code[k + 1].is_punct('[') {
            let mut d = 0i32;
            while k < code.len() {
                if code[k].is_punct('[') {
                    d += 1;
                } else if code[k].is_punct(']') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                k += 1;
            }
            k += 1;
        }
        // Scan to the end of the item: first `;` at depth 0, or the matching
        // `}` of the first `{` at depth 0.
        let mut pb = 0i32; // parens + brackets
        let mut braces = 0i32;
        let mut entered = false;
        while k < code.len() {
            let t = code[k];
            if t.is_punct('(') || t.is_punct('[') {
                pb += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                pb -= 1;
            } else if t.is_punct('{') {
                braces += 1;
                entered = true;
            } else if t.is_punct('}') {
                braces -= 1;
                if entered && braces == 0 {
                    break;
                }
            } else if t.is_punct(';') && pb == 0 && braces == 0 {
                break;
            }
            k += 1;
        }
        for slot in exempt.iter_mut().take((k + 1).min(code.len())).skip(start) {
            *slot = true;
        }
        i = k + 1;
    }
    exempt
}

/// Mark code-token indices inside `use ...;` declarations.
fn use_stmt_mask(code: &[&Token]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        if code[i].is_ident("use") {
            let start = i;
            while i < code.len() && !code[i].is_punct(';') {
                i += 1;
            }
            for slot in mask.iter_mut().take((i + 1).min(code.len())).skip(start) {
                *slot = true;
            }
        }
        i += 1;
    }
    mask
}

fn diag(diags: &mut Vec<Diagnostic>, file: &str, line: u32, rule: &'static str, msg: String) {
    diags.push(Diagnostic::new(file, line, rule, Severity::Error, msg));
}

/// DET002: wall-clock, entropy, and environment APIs.
fn rule_det002(
    file: &str,
    code: &[&Token],
    exempt: &[bool],
    in_use: &[bool],
    ctx: &FileCtx,
    diags: &mut Vec<Diagnostic>,
) {
    let path_sep = |i: usize| -> bool {
        i + 1 < code.len() && code[i].is_punct(':') && code[i + 1].is_punct(':')
    };
    for i in 0..code.len() {
        if exempt[i] {
            continue;
        }
        let t = code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        if ENTROPY_IDENTS.contains(&name) {
            diag(
                diags,
                file,
                t.line,
                "DET002",
                format!("`{name}` draws OS entropy; use the seeded SimRng via `SimCtx::with_rng`"),
            );
            continue;
        }
        // Aliased sources the lexical checks above can't see: resolved
        // through the module graph (`use std::time::Instant as Clock`).
        if !in_use[i] {
            if let Some(canon) = ctx.time_aliases.get(name) {
                diag(
                    diags,
                    file,
                    t.line,
                    "DET002",
                    format!("`{name}` is `{canon}` under an alias; use virtual `SimTime` instead"),
                );
                continue;
            }
            if let Some(canon) = ctx.entropy_aliases.get(name) {
                diag(
                    diags,
                    file,
                    t.line,
                    "DET002",
                    format!(
                        "`{name}` is `{canon}` under an alias; use the seeded SimRng via \
                         `SimCtx::with_rng`"
                    ),
                );
                continue;
            }
        }
        if (name == "Instant" || name == "SystemTime") && path_sep(i + 1) && !in_use[i] {
            diag(
                diags,
                file,
                t.line,
                "DET002",
                format!("`{name}` reads the wall clock; use virtual `SimTime`/`SimCtx::now`"),
            );
            continue;
        }
        if name == "rand" && path_sep(i + 1) && i + 3 < code.len() && code[i + 3].is_ident("random")
        {
            diag(
                diags,
                file,
                t.line,
                "DET002",
                "`rand::random` draws from the thread RNG; use `SimCtx::with_rng`".to_string(),
            );
            continue;
        }
        if name == "std"
            && path_sep(i + 1)
            && i + 3 < code.len()
            && code[i + 3].is_ident("env")
            && !(i + 4 < code.len() && code[i + 4].is_punct('!'))
        {
            diag(
                diags,
                file,
                t.line,
                "DET002",
                "`std::env` makes results depend on the host environment; \
                 plumb configuration through experiment parameters"
                    .to_string(),
            );
            continue;
        }
        // Imports of the forbidden time types (brace groups defeat the
        // adjacency checks above): `use std::time::{Instant, ...};`
        if in_use[i] && (name == "Instant" || name == "SystemTime") {
            // Scan the contiguous `use ...;` region this token sits in.
            let mut lo = i;
            while lo > 0 && in_use[lo - 1] {
                lo -= 1;
            }
            let mut hi = i;
            while hi + 1 < code.len() && in_use[hi + 1] {
                hi += 1;
            }
            let stmt_has_time = (lo..=hi).any(|j| code[j].is_ident("time"));
            if stmt_has_time {
                diag(
                    diags,
                    file,
                    t.line,
                    "DET002",
                    format!("importing `std::time::{name}`; use virtual `SimTime` instead"),
                );
            }
        }
    }
}

/// Thread APIs whose *call* makes execution multi-threaded or scheduler
/// dependent. `JoinHandle` alone is not flagged: it only exists downstream
/// of one of these.
const THREAD_FNS: &[&str] = &[
    "spawn",
    "scope",
    "Builder",
    "sleep",
    "park",
    "yield_now",
    "available_parallelism",
];

/// DET006: host thread APIs in sim-facing code.
fn rule_det006(
    file: &str,
    code: &[&Token],
    exempt: &[bool],
    in_use: &[bool],
    diags: &mut Vec<Diagnostic>,
) {
    let path_sep = |i: usize| -> bool {
        i + 1 < code.len() && code[i].is_punct(':') && code[i + 1].is_punct(':')
    };
    for i in 0..code.len() {
        if exempt[i] {
            continue;
        }
        let t = code[i];
        if !(t.kind == TokKind::Ident && t.text == "thread") {
            continue;
        }
        // Imports: any `use` statement reaching into `std::thread`.
        if in_use[i] {
            let mut lo = i;
            while lo > 0 && in_use[lo - 1] {
                lo -= 1;
            }
            let stmt_has_std = (lo..i).any(|j| code[j].is_ident("std"));
            if stmt_has_std {
                diag(
                    diags,
                    file,
                    t.line,
                    "DET006",
                    "importing `std::thread` in sim-facing code; simulations are \
                     single-threaded — only the bench harness may use host threads"
                        .to_string(),
                );
            }
            continue;
        }
        // Calls: `thread::spawn(..)`, `std::thread::scope(..)`, ...
        if path_sep(i + 1)
            && i + 3 < code.len()
            && code[i + 3].kind == TokKind::Ident
            && THREAD_FNS.contains(&code[i + 3].text.as_str())
        {
            diag(
                diags,
                file,
                t.line,
                "DET006",
                format!(
                    "`thread::{}` makes execution depend on the host scheduler; \
                     keep simulations single-threaded (harness-level fan-out \
                     belongs in `crates/bench`)",
                    code[i + 3].text
                ),
            );
        }
    }
}

/// Shared scaffolding for DET001/DET004/DET005/DET008: find hash-typed
/// bindings (including alias-typed ones resolved through the module graph),
/// then flag constructions and order-leaking iteration.
fn rule_hash(
    file: &str,
    code: &[&Token],
    exempt: &[bool],
    in_use: &[bool],
    ctx: &FileCtx,
    diags: &mut Vec<Diagnostic>,
) {
    let is_hash_alias =
        |t: &Token| t.kind == TokKind::Ident && ctx.hash_aliases.contains_key(&t.text);
    // --- collect hash-typed `let` bindings, fields, and fn params --------
    let mut names: Vec<String> = Vec::new();
    for i in 0..code.len() {
        if code[i].is_ident("let") {
            let mut j = i + 1;
            if j < code.len() && code[j].is_ident("mut") {
                j += 1;
            }
            if j >= code.len() || code[j].kind != TokKind::Ident {
                continue;
            }
            let name = code[j].text.clone();
            if stmt_contains(code, j + 1, |t| is_hash_type(t) || is_hash_alias(t)) {
                names.push(name);
            }
        } else if code[i].kind == TokKind::Ident
            && i + 1 < code.len()
            && code[i + 1].is_punct(':')
            && !(i + 2 < code.len() && code[i + 2].is_punct(':'))
        {
            // `name: ... HashMap ...` up to a depth-0 `,`/`;`/`{`/`}` — a
            // struct field, fn param, or annotated binding of hash type.
            let mut depth = 0i32;
            let mut j = i + 2;
            let mut steps = 0;
            while j < code.len() && steps < 40 {
                let t = code[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                } else if depth == 0
                    && (t.is_punct(',') || t.is_punct(';') || t.is_punct('{') || t.is_punct('}'))
                {
                    break;
                } else if is_hash_type(t) || is_hash_alias(t) {
                    names.push(code[i].text.clone());
                    break;
                }
                j += 1;
                steps += 1;
            }
        }
    }
    names.sort();
    names.dedup();
    let is_hash_name = |t: &Token| t.kind == TokKind::Ident && names.binary_search(&t.text).is_ok();

    // --- DET005/DET008: construction / type use outside imports ----------
    for i in 0..code.len() {
        if exempt[i] || in_use[i] {
            continue;
        }
        let t = code[i];
        if is_hash_type(t) {
            let mut d = Diagnostic::new(
                file,
                t.line,
                "DET005",
                Severity::Error,
                format!(
                    "`{}` in sim-facing code: iteration order is seeded per-process; \
                     use `BTreeMap`/`BTreeSet` or suppress with a justification",
                    t.text
                ),
            );
            // Machine-applicable only for the std types (Fx/AHash variants
            // need import surgery a token swap can't do).
            if t.text == "HashMap" || t.text == "HashSet" {
                d.fix = Some(Edit {
                    start: t.pos,
                    end: t.end,
                    text: format!("BTree{}", &t.text[4..]),
                });
            }
            diags.push(d);
        } else if is_hash_alias(t) {
            let canon = &ctx.hash_aliases[&t.text];
            diag(
                diags,
                file,
                t.line,
                "DET008",
                format!(
                    "`{}` resolves to `{canon}` through aliases/re-exports: a hash \
                     container in sim-facing code under a different name; use \
                     `BTreeMap`/`BTreeSet` or suppress with a justification",
                    t.text
                ),
            );
        }
    }

    // --- DET001/DET004: order-leaking iteration ---------------------------
    for i in 0..code.len() {
        if exempt[i] {
            continue;
        }
        // `for PAT in <expr containing hash>` { ... }
        if code[i].is_ident("for") {
            let mut depth = 0i32;
            let mut j = i + 1;
            // find the `in` that terminates the pattern
            while j < code.len() && j < i + 50 {
                let t = code[j];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && t.is_ident("in") {
                    break;
                } else if depth == 0 && (t.is_punct('{') || t.is_punct(';')) {
                    j = code.len(); // `for` in a type position (e.g. HRTB); bail
                    break;
                }
                j += 1;
            }
            if j >= code.len() || !code[j].is_ident("in") {
                continue;
            }
            // head = (j, first depth-0 `{`)
            let mut k = j + 1;
            let mut depth = 0i32;
            let mut hash_hit: Option<u32> = None;
            let mut ordered = false;
            while k < code.len() {
                let t = code[k];
                if t.is_punct('(') || t.is_punct('[') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') {
                    depth -= 1;
                } else if depth == 0 && t.is_punct('{') {
                    break;
                } else if is_hash_type(t) || is_hash_name(t) || is_hash_alias(t) {
                    hash_hit.get_or_insert(t.line);
                } else if is_ordering_ident(t) {
                    ordered = true;
                }
                k += 1;
            }
            if let (Some(line), false) = (hash_hit, ordered) {
                diag(
                    diags,
                    file,
                    line,
                    "DET001",
                    "`for` over a hash container: iteration order is nondeterministic; \
                     iterate a `BTreeMap`/sorted `Vec` instead"
                        .to_string(),
                );
            }
            continue;
        }
        // `recv.iter()` / `.keys()` / ... method chains
        if !(code[i].is_punct('.')
            && i + 2 < code.len()
            && code[i + 1].kind == TokKind::Ident
            && ITER_METHODS.contains(&code[i + 1].text.as_str())
            && code[i + 2].is_punct('('))
        {
            continue;
        }
        // Receiver: idents walking back to the statement boundary.
        let mut recv_hash = false;
        let mut j = i;
        let mut steps = 0;
        while j > 0 && steps < 40 {
            j -= 1;
            steps += 1;
            let t = code[j];
            if t.is_punct(';')
                || t.is_punct('{')
                || t.is_punct('}')
                || t.is_punct('=')
                || t.is_punct(',')
            {
                break;
            }
            // An ordered intermediate between the hash source and this
            // call (e.g. `.collect::<BTreeSet<_>>().into_iter()`) already
            // laundered the iteration order.
            if is_ordering_ident(t) {
                break;
            }
            if is_hash_name(t) || is_hash_type(t) || is_hash_alias(t) {
                recv_hash = true;
                break;
            }
        }
        if !recv_hash {
            continue;
        }
        // Classify by the rest of the statement: accumulation → DET004,
        // order-insensitive terminators / sorts → clean, else DET001.
        let mut accumulates = false;
        let mut insensitive = false;
        let mut ordered = false;
        let mut k = i + 2;
        let mut depth = 0i32;
        let mut steps = 0;
        while k < code.len() && steps < 80 {
            let t = code[k];
            if t.is_punct('(') {
                depth += 1;
            } else if t.is_punct(')') {
                depth -= 1;
                if depth < 0 {
                    break;
                }
            } else if t.is_punct(';') && depth == 0 {
                break;
            } else if t.kind == TokKind::Ident && ACCUMULATORS.contains(&t.text.as_str()) {
                accumulates = true;
            } else if t.is_ident("count") || t.is_ident("len") {
                insensitive = true;
            } else if is_ordering_ident(t) {
                ordered = true;
            }
            k += 1;
            steps += 1;
        }
        let line = code[i + 1].line;
        if accumulates {
            diag(
                diags,
                file,
                line,
                "DET004",
                "f64/accumulator fed from a hash container: float reduction is \
                 order-sensitive, so the result depends on hash order"
                    .to_string(),
            );
        } else if !insensitive && !ordered {
            let mut d = Diagnostic::new(
                file,
                line,
                "DET001",
                Severity::Error,
                format!(
                    "`.{}()` on a hash container without an intervening sort",
                    code[i + 1].text
                ),
            );
            // `.keys()`/`.into_keys()` with no arguments: an ordered collect
            // inserted right after the call restores determinism in place.
            if (code[i + 1].is_ident("keys") || code[i + 1].is_ident("into_keys"))
                && code.get(i + 3).map(|t| t.is_punct(')')) == Some(true)
            {
                d.fix = Some(Edit {
                    start: code[i + 3].end,
                    end: code[i + 3].end,
                    text: ".collect::<std::collections::BTreeSet<_>>().into_iter()".to_string(),
                });
            }
            diags.push(d);
        }
    }
}

/// DET003: `RefCell` borrows live across `.await` inside async bodies.
fn rule_det003(file: &str, code: &[&Token], exempt: &[bool], diags: &mut Vec<Diagnostic>) {
    // Find async body ranges.
    let mut ranges: Vec<(usize, usize)> = Vec::new();
    for i in 0..code.len() {
        if !code[i].is_ident("async") || exempt[i] {
            continue;
        }
        // `async fn name(..) -> T {` or `async move {` / `async {`
        let mut j = i + 1;
        let mut steps = 0;
        while j < code.len() && steps < 120 && !code[j].is_punct('{') {
            j += 1;
            steps += 1;
        }
        if j >= code.len() || !code[j].is_punct('{') {
            continue;
        }
        // match braces
        let mut depth = 0i32;
        let mut k = j;
        while k < code.len() {
            if code[k].is_punct('{') {
                depth += 1;
            } else if code[k].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            k += 1;
        }
        if k < code.len() {
            ranges.push((j, k));
        }
    }

    for (body_open, body_close) in ranges {
        let mut depth = 0i32;
        // Borrow guard bindings live at (name, block depth).
        let mut live: Vec<(String, i32, u32)> = Vec::new();
        // Scrutinee temporaries (`match x.borrow() {`) live through their block.
        let mut temps: Vec<(i32, u32)> = Vec::new();
        // Current statement segment state.
        let mut seg_first_ident: Option<String> = None;
        let mut seg_let_name: Option<String> = None;
        let mut seg_is_let = false;
        let mut seg_borrow_line: Option<u32> = None;

        let mut idx = body_open + 1;
        while idx < body_close {
            let t = code[idx];
            if t.is_punct('{') {
                // `match`/`for` heads keep their scrutinee temporaries alive
                // through the block; `if`/`while` drop them at the brace.
                let keeps_temp = matches!(seg_first_ident.as_deref(), Some("match") | Some("for"));
                depth += 1;
                if keeps_temp {
                    if let Some(line) = seg_borrow_line {
                        temps.push((depth, line));
                    }
                }
                seg_first_ident = None;
                seg_let_name = None;
                seg_is_let = false;
                seg_borrow_line = None;
            } else if t.is_punct('}') {
                live.retain(|&(_, d, _)| d < depth);
                temps.retain(|&(d, _)| d < depth);
                depth -= 1;
                seg_first_ident = None;
                seg_let_name = None;
                seg_is_let = false;
                seg_borrow_line = None;
            } else if t.is_punct(';') {
                // `let g = x.borrow_mut();` creates a live guard — but only
                // when the borrow is the *last* call: a longer chain
                // (`.borrow().get(k).cloned()`) extracts an owned value and
                // the guard temporary dies right here at the `;`.
                let ends_with_borrow = idx >= 3
                    && code[idx - 1].is_punct(')')
                    && code[idx - 2].is_punct('(')
                    && (code[idx - 3].is_ident("borrow") || code[idx - 3].is_ident("borrow_mut"));
                if seg_is_let && ends_with_borrow {
                    if let (Some(name), Some(bline)) = (seg_let_name.take(), seg_borrow_line) {
                        live.push((name, depth, bline));
                    }
                }
                seg_first_ident = None;
                seg_let_name = None;
                seg_is_let = false;
                seg_borrow_line = None;
            } else if t.kind == TokKind::Ident {
                if seg_first_ident.is_none() {
                    seg_first_ident = Some(t.text.clone());
                }
                if t.is_ident("let") {
                    seg_is_let = true;
                    let mut j = idx + 1;
                    if j < body_close && code[j].is_ident("mut") {
                        j += 1;
                    }
                    if j < body_close && code[j].kind == TokKind::Ident {
                        seg_let_name = Some(code[j].text.clone());
                    }
                } else if (t.is_ident("borrow") || t.is_ident("borrow_mut"))
                    && idx + 1 < body_close
                    && code[idx + 1].is_punct('(')
                {
                    seg_borrow_line = Some(t.line);
                } else if t.is_ident("drop")
                    && idx + 2 < body_close
                    && code[idx + 1].is_punct('(')
                    && code[idx + 2].kind == TokKind::Ident
                {
                    let name = &code[idx + 2].text;
                    live.retain(|(n, _, _)| n != name);
                } else if t.is_ident("await")
                    && idx > 0
                    && code[idx - 1].is_punct('.')
                    && !exempt[idx]
                {
                    if let Some(bline) = seg_borrow_line {
                        diag(
                            diags,
                            file,
                            t.line,
                            "DET003",
                            format!(
                                "RefCell borrow (line {bline}) is a temporary still live \
                                 at this `.await`; bind and drop it before awaiting"
                            ),
                        );
                    } else if let Some((name, _, bline)) = live.first() {
                        diag(
                            diags,
                            file,
                            t.line,
                            "DET003",
                            format!(
                                "RefCell borrow guard `{name}` (line {bline}) is held \
                                 across this `.await`; scope it to a block that ends \
                                 before the await"
                            ),
                        );
                    } else if let Some((_, bline)) = temps.first() {
                        diag(
                            diags,
                            file,
                            t.line,
                            "DET003",
                            format!(
                                "RefCell borrow (line {bline}) in an enclosing match/for \
                                 head is held across this `.await`"
                            ),
                        );
                    }
                }
            }
            idx += 1;
        }
    }
}

/// True when any token from `start` to the end of the statement (depth-0
/// `;`, capped) satisfies the predicate.
fn stmt_contains(code: &[&Token], start: usize, pred: impl Fn(&Token) -> bool) -> bool {
    let mut depth = 0i32;
    let mut i = start;
    let mut steps = 0;
    while i < code.len() && steps < 200 {
        let t = code[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            if depth == 0 {
                return false;
            }
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return false;
        } else if pred(t) {
            return true;
        }
        i += 1;
        steps += 1;
    }
    false
}
