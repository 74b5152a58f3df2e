//! The rules that need to know what a digest, a ledger and a meter are,
//! and the audit of their waivers.
//!
//! Heuristic, token-level analyses, deliberately simple enough to audit by
//! eye. Everything the compiler can already see (hash containers, the wall
//! clock, `std::env`, host threads, a `RefCell` borrow across `.await`) is
//! clippy's: `clippy.toml` at the workspace root is the only enforcer of
//! those, type-resolved and alias-proof. What stays here:
//!
//! * **DET007**: dataflow taint: a wall-clock / entropy / environment value
//!   reaching a determinism-critical sink (sanitizer checkpoint, telemetry
//!   digest/record, trace attr, sort key), even through `let` bindings or
//!   same-crate helper returns. See [`crate::flow`].
//! * **CONS001**: byte transfer in `crates/net` not routed through the
//!   token-bucket ledger (`consume`/`grant`), so runtime conservation
//!   checks would never see it.
//! * **CONS002**: billable storage/compute operation bypassing
//!   `CoreMetrics`/the pricing meter.
//! * **SL000**: malformed suppression: `// simlint: allow(...)` without the
//!   mandatory `: <justification>` tail (or unparseable rule list).
//! * **SL001**: stale suppression: a well-formed `allow(...)` that masks no
//!   diagnostic any more. Reported as an error so the allowlist only shrinks.

use crate::flow::CrateSummaries;
use crate::lexer::Token;
use crate::{Diagnostic, Severity};

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
    /// Enable DET007 (source-to-sink taint). Off where a crate may read the
    /// host clock at all (under a clippy waiver): feeding it onward is then
    /// its business (the bench shell reports wall time by design).
    pub taint: bool,
    /// Conservation contract for this file's crate, if any.
    pub conservation: Option<ConsScope>,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
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

/// Lint one file's token stream against its crate's helper summaries.
/// Returns all diagnostics, with suppressed ones marked rather than
/// dropped, so `--json` can show the full picture.
pub fn check_tokens(
    file: &str,
    toks: &[Token],
    opts: &LintOptions,
    summaries: &CrateSummaries,
) -> Vec<Diagnostic> {
    let (sups, mut diags) = parse_suppressions(file, toks);

    // Comments out of the way: rules see adjacent code tokens only.
    let code: Vec<&Token> = toks.iter().filter(|t| !t.is_comment()).collect();
    let exempt = test_exempt_mask(&code);
    let fns = crate::parse::parse(&code);
    if opts.taint {
        crate::flow::check_taint(file, &code, &fns, summaries, &exempt, &mut diags);
    }
    if let Some(scope) = opts.conservation {
        crate::flow::check_conservation(file, &code, &fns, summaries, scope, &exempt, &mut diags);
    }

    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
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
/// through the end of the following brace block or `;`). Test code never
/// feeds simulation results, so taint and conservation do not bind it.
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
