//! # simlint — determinism auditor for the Skyrise workspace
//!
//! Every number this repository reproduces from the paper is only as
//! trustworthy as the determinism of the discrete-event substrate. This
//! crate is the part of the static audit layer that clippy cannot express
//! (the runtime layer is `skyrise_sim::sanitizer`): a dependency-free lint
//! pass that tokenizes every crate's sources and reports, as structured
//! diagnostics, the hazards that need to know what a digest, a ledger and a
//! meter are. The hazards the compiler can already see (hash containers,
//! wall clock, `std::env`, host threads, `RefCell` across `.await`) belong
//! to clippy alone (`clippy.toml` at the workspace root).
//!
//! The analyzer runs in two passes: a parse layer ([`parse`]) extracts the
//! function items from every file's token stream and the flow pass
//! ([`flow`]) summarizes each crate's helpers; the rules then check each
//! file against its crate's summaries.
//!
//! Rules (see [`rules`] for the full contract): DET007 source-to-sink
//! taint, CONS001/CONS002 conservation (ledger/meter bypass), SL000
//! malformed suppressions, SL001 stale suppressions.
//!
//! Suppress a finding with a justified comment on (or directly above) the
//! offending line:
//!
//! ```text
//! (directive) simlint: allow(CONS002): billed by VM lifetime, not per call.
//! ```
//!
//! written as a regular `//` comment (spelled out here it would register as
//! a live directive); or for a whole file: `allow-file(DET007): <why>`.

#![warn(missing_docs)]

pub mod flow;
pub mod graph;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sarif;

use flow::CrateSummaries;
use rules::{ConsScope, LintOptions};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Diagnostic severity. Both levels fail CI when not suppressed; the split
/// exists so output consumers can prioritize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Definite determinism hazard.
    Error,
    /// Likely hazard that may be a false positive of the heuristics.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Path of the offending file (as passed to the linter).
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule identifier, e.g. `DET007`.
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// True when a `// simlint: allow(...)` directive covers this finding.
    pub suppressed: bool,
    /// The suppression's justification string, when suppressed.
    pub justification: Option<String>,
}

impl Diagnostic {
    /// Construct an unsuppressed diagnostic.
    pub fn new(
        file: &str,
        line: u32,
        rule: &'static str,
        severity: Severity,
        message: String,
    ) -> Self {
        Diagnostic {
            file: file.to_string(),
            line,
            rule,
            severity,
            message,
            suppressed: false,
            justification: None,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: [{}] {}:{}: {}",
            self.severity, self.rule, self.file, self.line, self.message
        )?;
        if self.suppressed {
            write!(
                f,
                " (suppressed: {})",
                self.justification.as_deref().unwrap_or("")
            )?;
        }
        Ok(())
    }
}

/// One summary per file, in order: parse everything, group the files by
/// crate, and run the flow pass's per-crate fixpoint so helper-return taint
/// and transitive ledger/meter routing are visible to the rules.
fn summaries_for(files: &[(String, String)]) -> Vec<CrateSummaries> {
    let lexed: Vec<Vec<lexer::Token>> = files.iter().map(|(_, src)| lexer::lex(src)).collect();
    let codes: Vec<Vec<&lexer::Token>> = lexed
        .iter()
        .map(|toks| toks.iter().filter(|t| !t.is_comment()).collect())
        .collect();
    let fns: Vec<Vec<parse::FnItem>> = codes.iter().map(|code| parse::parse(code)).collect();
    let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, (path, _)) in files.iter().enumerate() {
        groups.entry(graph::module_of(path)).or_default().push(i);
    }
    let mut out = vec![CrateSummaries::default(); files.len()];
    for idxs in groups.values() {
        let inputs: Vec<flow::FlowInput<'_>> = idxs
            .iter()
            .map(|&i| flow::FlowInput {
                code: &codes[i],
                fns: &fns[i],
            })
            .collect();
        let summaries = flow::summarize(&inputs);
        for &i in idxs {
            out[i] = summaries.clone();
        }
    }
    out
}

/// Lint a single source string. `file` is used only for diagnostics; helper
/// summaries are same-file.
pub fn lint_source(file: &str, src: &str, opts: &LintOptions) -> Vec<Diagnostic> {
    let files = vec![(file.to_string(), src.to_string())];
    let summaries = summaries_for(&files);
    let toks = lexer::lex(src);
    rules::check_tokens(file, &toks, opts, &summaries[0])
}

/// Lint a set of in-memory files as one workspace (helper summaries span
/// each crate's files). Paths should be workspace-relative, `/`-separated.
pub fn lint_files(files: &[(String, String)]) -> Vec<Diagnostic> {
    let summaries = summaries_for(files);
    let mut diags = Vec::new();
    for ((path, src), summary) in files.iter().zip(&summaries) {
        let opts = options_for(Path::new(path));
        let toks = lexer::lex(src);
        diags.extend(rules::check_tokens(path, &toks, &opts, summary));
    }
    diags
}

/// Crates whose nature requires touching the host clock/env/threads: the
/// bench harness shell (argument parsing, wall-clock progress, the parallel
/// experiment runner) and this linter itself. They read the host under a
/// crate-level clippy waiver, so DET007 is scoped off for them: everything
/// sim-facing keeps all rules on.
const HOST_SIDE_CRATES: &[&str] = &["bench", "simlint"];

/// Derive per-file options from its path within the workspace.
pub fn options_for(path: &Path) -> LintOptions {
    let mut opts = LintOptions::default();
    let p = path.to_string_lossy().replace('\\', "/");
    for c in HOST_SIDE_CRATES {
        if p.contains(&format!("crates/{c}/")) {
            opts.taint = false;
        }
    }
    // Test and example trees may time themselves on the host (each read
    // under a clippy waiver); none of it feeds a simulation's digest.
    if p.contains("/tests/") || p.contains("/examples/") || p.starts_with("tests/") {
        opts.taint = false;
    }
    if p.contains("crates/net/src/") {
        opts.conservation = Some(ConsScope::Net);
    } else if p.contains("crates/storage/src/") || p.contains("crates/compute/src/") {
        opts.conservation = Some(ConsScope::Metered);
    }
    opts
}

/// Should this path be linted at all? Everything `.rs` under the workspace
/// is in scope — sources, integration tests, and examples — except build
/// output. (`benches/` trees are host-side by nature and none exist today.)
fn in_scope(path: &Path) -> bool {
    let p = path.to_string_lossy().replace('\\', "/");
    if !p.ends_with(".rs") {
        return false;
    }
    for skip in ["/benches/", "/target/"] {
        if p.contains(skip) {
            return false;
        }
    }
    true
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    // Deterministic traversal order — the auditor practices what it preaches.
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if in_scope(&path) {
            out.push(path);
        }
    }
    Ok(())
}

/// Read every in-scope file under `<root>/crates` (plus root-level `tests/`
/// and `examples/`, when present) as `(relative path, contents)` pairs.
pub fn read_workspace(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for sub in ["crates", "tests", "examples"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    let mut out = Vec::with_capacity(files.len());
    for path in &files {
        let src = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        out.push((rel, src));
    }
    Ok(out)
}

/// Lint every in-scope source file under `root`. Paths in the returned
/// diagnostics are relative to `root`.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    Ok(lint_files(&read_workspace(root)?))
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render diagnostics as a JSON document for CI:
/// `{"diagnostics": [...], "unsuppressed": N}`.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let mut out = String::from("{\n  \"diagnostics\": [");
    for (i, d) in diags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \
             \"severity\": \"{}\", \"suppressed\": {}, \"message\": \"{}\"",
            json_escape(&d.file),
            d.line,
            d.rule,
            d.severity,
            d.suppressed,
            json_escape(&d.message)
        ));
        if let Some(j) = &d.justification {
            out.push_str(&format!(", \"justification\": \"{}\"", json_escape(j)));
        }
        out.push('}');
    }
    let unsuppressed = diags.iter().filter(|d| !d.suppressed).count();
    out.push_str(&format!("\n  ],\n  \"unsuppressed\": {unsuppressed}\n}}\n"));
    out
}
