//! `--fix`: machine-applicable rewrites for the container rules.
//!
//! Two strategies, tried in order per file:
//!
//! 1. **Whole-file container swap** — when a file has unsuppressed hash
//!    findings (DET001/DET004/DET005/DET008) and uses no hash-only API
//!    (`with_capacity`, `with_hasher`, `raw_entry`, ..., or the `hash_map`
//!    submodule), every `HashMap`/`HashSet` token — imports included — is
//!    rewritten to `BTreeMap`/`BTreeSet`. This fixes alias targets too
//!    (`use std::collections::HashMap as Map` keeps the alias, now ordered).
//! 2. **Per-diagnostic edits** — otherwise, apply the point fixes attached
//!    to diagnostics (e.g. an ordered collect after `.keys()`).
//!
//! Both strategies are idempotent: after a swap no hash tokens remain, and
//! an inserted ordered collect satisfies the rules on the next run, so a
//! second `--fix` pass is always a no-op.

use crate::graph::FileCtx;
use crate::lexer::{self, TokKind};
use crate::rules::LintOptions;
use crate::{Diagnostic, Edit};
use std::path::Path;

/// Hash-container APIs with no `BTreeMap`/`BTreeSet` equivalent; their
/// presence (or the `hash_map`/`hash_set` submodules') gates off the
/// whole-file swap.
const SWAP_BLOCKERS: &[&str] = &[
    "with_capacity",
    "with_hasher",
    "with_capacity_and_hasher",
    "reserve",
    "capacity",
    "shrink_to_fit",
    "raw_entry",
    "hash_map",
    "hash_set",
];

/// Apply edits to a source string. Edits are applied back-to-front;
/// overlapping edits are dropped (first-sorted wins).
pub fn apply_edits(src: &str, edits: &[Edit]) -> String {
    let mut sorted: Vec<&Edit> = edits.iter().collect();
    sorted.sort_by_key(|e| (e.start, e.end));
    sorted.dedup_by(|a, b| a.start < b.end && b.start < a.end && !(a == b));
    sorted.dedup();
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut cursor = 0usize;
    for e in &sorted {
        if e.start < cursor || e.end > chars.len() {
            continue; // overlap or out of range: skip defensively
        }
        out.extend(&chars[cursor..e.start]);
        out.push_str(&e.text);
        cursor = e.end;
    }
    out.extend(&chars[cursor..]);
    out
}

/// Compute the fixed contents for one file, or `None` when nothing
/// machine-applicable remains. `ctx` must come from the same workspace
/// pipeline the diagnostics did.
pub fn rewrite(file: &str, src: &str, opts: &LintOptions, ctx: &FileCtx) -> Option<String> {
    let toks = lexer::lex(src);
    let diags = crate::rules::check_tokens(file, &toks, opts, ctx);
    let live: Vec<&Diagnostic> = diags.iter().filter(|d| !d.suppressed).collect();
    let has_hash_finding = live
        .iter()
        .any(|d| matches!(d.rule, "DET001" | "DET004" | "DET005" | "DET008"));
    let blocked = toks
        .iter()
        .any(|t| t.kind == TokKind::Ident && SWAP_BLOCKERS.contains(&t.text.as_str()));
    if has_hash_finding && !blocked {
        let edits: Vec<Edit> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .filter_map(|t| {
                let to = match t.text.as_str() {
                    "HashMap" => "BTreeMap",
                    "HashSet" => "BTreeSet",
                    _ => return None,
                };
                Some(Edit {
                    start: t.pos,
                    end: t.end,
                    text: to.to_string(),
                })
            })
            .collect();
        if !edits.is_empty() {
            return Some(apply_edits(src, &edits));
        }
    }
    // Point-fix fallback. In a swap-blocked file, replacement edits are
    // container swaps that would orphan hash-only APIs — keep insertions
    // (ordered collects) only.
    let edits: Vec<Edit> = live
        .iter()
        .filter_map(|d| d.fix.clone())
        .filter(|e| !blocked || e.start == e.end)
        .collect();
    if edits.is_empty() {
        None
    } else {
        Some(apply_edits(src, &edits))
    }
}

/// Apply (or, with `check`, only report) fixes across the workspace.
/// Returns the relative paths of files that changed / would change.
pub fn fix_workspace(root: &Path, check: bool) -> std::io::Result<Vec<String>> {
    let files = crate::read_workspace(root)?;
    let ctxs = crate::contexts_for(&files);
    let mut changed = Vec::new();
    for ((rel, src), ctx) in files.iter().zip(&ctxs) {
        let opts = crate::options_for(Path::new(rel));
        if let Some(new_src) = rewrite(rel, src, &opts, ctx) {
            if new_src != *src {
                if !check {
                    std::fs::write(root.join(rel), new_src)?;
                }
                changed.push(rel.clone());
            }
        }
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::LintOptions;

    fn fix_one(src: &str) -> Option<String> {
        let files = vec![("crates/sim/src/x.rs".to_string(), src.to_string())];
        let ctxs = crate::contexts_for(&files);
        rewrite(
            "crates/sim/src/x.rs",
            src,
            &LintOptions::default(),
            &ctxs[0],
        )
    }

    #[test]
    fn swaps_containers_and_imports() {
        let src = "use std::collections::HashMap;\n\
                   fn f() { let m: HashMap<u32, u32> = HashMap::new(); for (k, v) in &m {} }";
        let fixed = fix_one(src).expect("fixable");
        assert!(!fixed.contains("HashMap"));
        assert!(fixed.contains("use std::collections::BTreeMap;"));
        assert!(fixed.contains("BTreeMap::new()"));
    }

    #[test]
    fn fix_is_idempotent() {
        let src = "use std::collections::HashSet;\n\
                   fn f() { let s = HashSet::new(); for x in &s {} }";
        let fixed = fix_one(src).expect("fixable");
        assert!(fix_one(&fixed).is_none(), "second pass must be a no-op");
    }

    #[test]
    fn capacity_api_blocks_the_swap() {
        let src = "use std::collections::HashMap;\n\
                   fn f() { let mut m: HashMap<u32, u32> = HashMap::with_capacity(8); m.reserve(4); }";
        // Nothing machine-applicable: swap gated off, no point fixes.
        assert!(fix_one(src).is_none());
    }

    #[test]
    fn keys_chain_gets_ordered_collect() {
        // `with_capacity` gates the swap, so the point fix applies instead.
        let src = "use std::collections::HashMap;\n\
                   fn g(m: &HashMap<u32, u32>) -> Vec<u32> { let mut c = HashMap::with_capacity(1); \
                   c.extend(m.iter()); m.keys().copied().collect() }";
        let fixed = fix_one(src).expect("point fix expected");
        assert!(fixed.contains(".keys().collect::<std::collections::BTreeSet<_>>().into_iter()"));
    }

    #[test]
    fn suppressed_findings_produce_no_edits() {
        let src = "use std::collections::HashMap;\n\
                   // simlint: allow(DET005, DET001): keyed probe table; order never observed.\n\
                   fn f() { let m: HashMap<u32, u32> = HashMap::new(); for (k, v) in &m {} }";
        assert!(fix_one(src).is_none());
    }

    #[test]
    fn apply_edits_back_to_front() {
        let src = "abcdef";
        let edits = vec![
            Edit {
                start: 4,
                end: 5,
                text: "X".into(),
            },
            Edit {
                start: 0,
                end: 1,
                text: "YY".into(),
            },
        ];
        assert_eq!(apply_edits(src, &edits), "YYbcdXf");
    }
}
