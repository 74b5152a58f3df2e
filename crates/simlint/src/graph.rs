//! Cross-file module graph: maps workspace files to modules, absolutizes
//! `use` paths, and resolves local names to canonical types through
//! aliases (`use HashMap as Map`) and re-exports (`pub use`), so rules see
//! the real type behind every name instead of trusting its spelling.
//!
//! The representation is deliberately small: an *absolute path* is a
//! `Vec<String>` whose first segment is either `crate:<dir>` (a workspace
//! crate, keyed by its directory under `crates/`) or an external root
//! (`std`, `rand`, ...). Resolution repeatedly splices re-export targets
//! until a fixpoint (bounded), which is exactly enough to answer the two
//! questions the rules ask: "is this name a hash container?" and "is this
//! name a wall-clock/entropy API?".

use crate::parse::ParsedFile;
use std::collections::{BTreeMap, BTreeSet};

/// Names of hash-ordered containers (canonical last path segment).
pub const HASH_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet", "AHashMap"];

/// Entropy-drawing APIs (canonical last path segment).
pub const ENTROPY_APIS: &[&str] = &["thread_rng", "OsRng", "getrandom", "from_entropy"];

/// One file known to the graph.
pub struct SourceUnit {
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// Parse-layer extraction for the file.
    pub parsed: ParsedFile,
}

/// Module identity: crate key (directory under `crates/`, or a synthetic
/// per-file key for bins/tests/examples) plus the module path within it.
pub type ModuleId = (String, Vec<String>);

/// Where a file sits in the workspace, as derived from its path.
pub fn module_of(path: &str) -> ModuleId {
    let p = path.trim_start_matches("./");
    if let Some(rest) = p.strip_prefix("crates/") {
        if let Some((dir, tail)) = rest.split_once('/') {
            if let Some(src_rel) = tail.strip_prefix("src/") {
                if src_rel == "lib.rs" {
                    return (dir.to_string(), Vec::new());
                }
                if src_rel == "main.rs" || src_rel.starts_with("bin/") {
                    // A binary is its own crate root; keep a unique key so
                    // two bins never share a namespace.
                    return (format!("{dir}#{src_rel}"), Vec::new());
                }
                let mut segs: Vec<String> = src_rel
                    .trim_end_matches(".rs")
                    .split('/')
                    .map(|s| s.to_string())
                    .collect();
                if segs.last().map(|s| s == "mod").unwrap_or(false) {
                    segs.pop();
                }
                return (dir.to_string(), segs);
            }
        }
    }
    // Integration tests, examples, benches: each file is its own crate.
    (p.to_string(), Vec::new())
}

/// The workspace-wide module graph.
pub struct ModuleGraph {
    /// Per-module symbol table from `pub use` and `pub type`: local name →
    /// absolute target path.
    symbols: BTreeMap<ModuleId, BTreeMap<String, Vec<String>>>,
    /// Per-module glob re-export targets (`pub use x::*`), absolutized.
    globs: BTreeMap<ModuleId, Vec<Vec<String>>>,
    /// All known modules (including ancestors).
    modules: BTreeSet<ModuleId>,
    /// All workspace crate directories.
    crate_dirs: BTreeSet<String>,
}

impl ModuleGraph {
    /// Build the graph from every parsed file in the workspace.
    pub fn build(units: &[SourceUnit]) -> Self {
        let mut modules = BTreeSet::new();
        let mut crate_dirs = BTreeSet::new();
        for u in units {
            let (c, m) = module_of(&u.path);
            for i in 0..=m.len() {
                modules.insert((c.clone(), m[..i].to_vec()));
            }
            if !c.contains('#') && !c.contains('/') {
                crate_dirs.insert(c);
            }
        }
        let mut g = ModuleGraph {
            symbols: BTreeMap::new(),
            globs: BTreeMap::new(),
            modules,
            crate_dirs,
        };
        for u in units {
            let id = module_of(&u.path);
            for use_ in &u.parsed.uses {
                if !use_.is_pub {
                    continue;
                }
                let Some(abs) = g.absolutize(&use_.segments, &id) else {
                    continue;
                };
                if use_.glob {
                    g.globs.entry(id.clone()).or_default().push(abs);
                } else {
                    g.symbols
                        .entry(id.clone())
                        .or_default()
                        .insert(use_.local_name().to_string(), abs);
                }
            }
            for ta in &u.parsed.type_aliases {
                if !ta.is_pub {
                    continue;
                }
                if let Some(abs) = g.absolutize(&ta.target, &id) {
                    g.symbols
                        .entry(id.clone())
                        .or_default()
                        .insert(ta.name.clone(), abs);
                }
            }
        }
        g
    }

    /// Does `seg` name a workspace crate (by dir name or `skyrise_<dir>`)?
    fn crate_dir_for(&self, seg: &str) -> Option<&str> {
        for d in &self.crate_dirs {
            if seg == d || seg == format!("skyrise_{d}") || seg == d.replace('-', "_") {
                return Some(d);
            }
        }
        None
    }

    /// Turn a `use` path into an absolute path rooted at a crate marker or
    /// an external root. `id` is the module the path appears in.
    pub fn absolutize(&self, segs: &[String], id: &ModuleId) -> Option<Vec<String>> {
        if segs.is_empty() {
            return None;
        }
        let crate_key = id.0.split('#').next().unwrap_or(&id.0);
        let mut out: Vec<String>;
        let mut rest_from = 1;
        match segs[0].as_str() {
            "crate" => out = vec![format!("crate:{crate_key}")],
            "self" => {
                out = vec![format!("crate:{crate_key}")];
                out.extend(id.1.iter().cloned());
            }
            "super" => {
                out = vec![format!("crate:{crate_key}")];
                let mut m = id.1.clone();
                let mut i = 0;
                while i < segs.len() && segs[i] == "super" {
                    m.pop();
                    i += 1;
                }
                out.extend(m);
                rest_from = i;
            }
            s => {
                if let Some(dir) = self.crate_dir_for(s) {
                    out = vec![format!("crate:{dir}")];
                } else {
                    // A bare leading segment naming a submodule of the
                    // current module is a relative import (2015 idiom, and
                    // common in re-export chains); anything else is an
                    // external crate or std, absolute as written.
                    let mut sub = id.1.clone();
                    sub.push(s.to_string());
                    if self.modules.contains(&(crate_key.to_string(), sub)) {
                        out = vec![format!("crate:{crate_key}")];
                        out.extend(id.1.iter().cloned());
                        rest_from = 0;
                    } else {
                        return Some(segs.to_vec());
                    }
                }
            }
        }
        out.extend(segs[rest_from..].iter().cloned());
        Some(out)
    }

    /// Resolve an absolute path through re-exports to its canonical form.
    /// Bounded; returns the best-known path when resolution gets stuck.
    pub fn resolve(&self, abs: &[String]) -> Vec<String> {
        self.resolve_at(abs, 0)
    }

    /// `resolve` with a recursion guard: glob targets resolve at
    /// `depth + 1`, so self-referential re-exports terminate.
    fn resolve_at(&self, abs: &[String], depth: u32) -> Vec<String> {
        let mut path = abs.to_vec();
        if depth > 8 {
            return path;
        }
        for _ in 0..8 {
            let Some(dir) = path.first().and_then(|s| s.strip_prefix("crate:")) else {
                return path;
            };
            let dir = dir.to_string();
            let mut m: Vec<String> = Vec::new();
            let mut i = 1;
            let mut spliced = false;
            while i < path.len() {
                let seg = path[i].clone();
                let id = (dir.clone(), m.clone());
                if let Some(target) = self.symbols.get(&id).and_then(|t| t.get(&seg)) {
                    let mut next = target.clone();
                    next.extend(path[i + 1..].iter().cloned());
                    path = next;
                    spliced = true;
                    break;
                }
                // One-level glob re-export: `pub use x::*;` makes `x`'s
                // public names visible here.
                if let Some(globs) = self.globs.get(&id) {
                    let mut found = None;
                    for g in globs {
                        let gm = self.resolve_at(g, depth + 1);
                        if let Some(gdir) = gm.first().and_then(|s| s.strip_prefix("crate:")) {
                            let gid = (gdir.to_string(), gm[1..].to_vec());
                            if self.symbols.get(&gid).map(|t| t.contains_key(&seg)) == Some(true)
                                || self.modules.contains(&(
                                    gid.0.clone(),
                                    [gm[1..].to_vec(), vec![seg.clone()]].concat(),
                                ))
                            {
                                found = Some(gm.clone());
                                break;
                            }
                        }
                    }
                    if let Some(gm) = found {
                        let mut next = gm;
                        next.extend(path[i..].iter().cloned());
                        path = next;
                        spliced = true;
                        break;
                    }
                }
                let mut deeper = m.clone();
                deeper.push(seg.clone());
                if self.modules.contains(&(dir.clone(), deeper.clone())) {
                    m = deeper;
                    i += 1;
                    continue;
                }
                // Unknown tail — as far as we can see.
                return path;
            }
            if !spliced {
                return path;
            }
        }
        path
    }

    /// Human-readable form of an absolute path (`crate:` markers dropped).
    pub fn display(path: &[String]) -> String {
        path.iter()
            .map(|s| s.strip_prefix("crate:").unwrap_or(s))
            .collect::<Vec<_>>()
            .join("::")
    }
}

/// What one file's names actually mean, as resolved through the graph.
/// Rules consume this instead of re-deriving anything module-related.
#[derive(Debug, Default, Clone)]
pub struct FileCtx {
    /// Local type names (aliases, re-exports, `type` aliases) that resolve
    /// to a hash-ordered container but are not spelled as one; value is the
    /// canonical type for diagnostics.
    pub hash_aliases: BTreeMap<String, String>,
    /// Local names resolving to `std::time::Instant`/`SystemTime` under a
    /// different spelling.
    pub time_aliases: BTreeMap<String, String>,
    /// Local names resolving to entropy APIs under a different spelling.
    pub entropy_aliases: BTreeMap<String, String>,
    /// Same-crate functions whose return value carries nondeterministic
    /// taint (wall clock / entropy / env), per the flow pass.
    pub taint_fns: BTreeSet<String>,
    /// Same-crate functions that (transitively) touch the token-bucket
    /// ledger, per the flow pass.
    pub ledger_fns: BTreeSet<String>,
    /// Same-crate functions that (transitively) touch the usage meter /
    /// `CoreMetrics`, per the flow pass.
    pub meter_fns: BTreeSet<String>,
}

impl FileCtx {
    /// Build the alias maps for one file from the graph. Flow summaries
    /// (`taint_fns`/`ledger_fns`) are filled in by [`crate::flow`].
    pub fn from_graph(graph: &ModuleGraph, path: &str, parsed: &ParsedFile) -> Self {
        let id = module_of(path);
        let mut ctx = FileCtx::default();
        let classify = |local: &str, abs: &[String], ctx: &mut FileCtx| {
            let canon = graph.resolve(abs);
            let Some(last) = canon.last() else { return };
            let display = ModuleGraph::display(&canon);
            if HASH_TYPES.contains(&last.as_str()) && !HASH_TYPES.contains(&local) {
                ctx.hash_aliases.insert(local.to_string(), display);
            } else if (last == "Instant" || last == "SystemTime")
                && canon.iter().any(|s| s == "time" || s == "std")
                && local != last
            {
                ctx.time_aliases.insert(local.to_string(), display);
            } else if ENTROPY_APIS.contains(&last.as_str()) && local != last {
                ctx.entropy_aliases.insert(local.to_string(), display);
            }
        };
        for u in &parsed.uses {
            if u.glob {
                continue;
            }
            if let Some(abs) = graph.absolutize(&u.segments, &id) {
                classify(u.local_name(), &abs, &mut ctx);
            }
        }
        for ta in &parsed.type_aliases {
            if let Some(abs) = graph.absolutize(&ta.target, &id) {
                classify(&ta.name, &abs, &mut ctx);
            }
        }
        ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, Token};
    use crate::parse::parse;

    fn unit(path: &str, src: &str) -> SourceUnit {
        let toks = lex(src);
        let code: Vec<&Token> = toks.iter().filter(|t| !t.is_comment()).collect();
        SourceUnit {
            path: path.to_string(),
            parsed: parse(&code),
        }
    }

    #[test]
    fn module_paths() {
        assert_eq!(module_of("crates/net/src/lib.rs"), ("net".into(), vec![]));
        assert_eq!(
            module_of("crates/net/src/fabric.rs"),
            ("net".into(), vec!["fabric".into()])
        );
        assert_eq!(
            module_of("crates/bench/src/experiments/mod.rs"),
            ("bench".into(), vec!["experiments".into()])
        );
        assert_eq!(module_of("crates/bench/src/main.rs").0, "bench#main.rs");
        assert_eq!(module_of("tests/integration.rs").0, "tests/integration.rs");
    }

    #[test]
    fn alias_resolves_to_hash() {
        let units = vec![unit(
            "crates/net/src/fabric.rs",
            "use std::collections::HashMap as Map;",
        )];
        let g = ModuleGraph::build(&units);
        let ctx = FileCtx::from_graph(&g, &units[0].path, &units[0].parsed);
        assert_eq!(
            ctx.hash_aliases.get("Map").map(String::as_str),
            Some("std::collections::HashMap")
        );
    }

    #[test]
    fn reexport_chain_resolves_across_files() {
        let units = vec![
            unit(
                "crates/sim/src/util.rs",
                "pub use std::collections::HashMap as FastMap;",
            ),
            unit("crates/sim/src/lib.rs", "pub mod util;"),
            unit(
                "crates/engine/src/worker.rs",
                "use skyrise_sim::util::FastMap;",
            ),
        ];
        let g = ModuleGraph::build(&units);
        let ctx = FileCtx::from_graph(&g, "crates/engine/src/worker.rs", &units[2].parsed);
        assert_eq!(
            ctx.hash_aliases.get("FastMap").map(String::as_str),
            Some("std::collections::HashMap")
        );
    }

    #[test]
    fn crate_root_reexport_via_glob() {
        let units = vec![
            unit(
                "crates/sim/src/util.rs",
                "pub use std::collections::HashSet as IdSet;",
            ),
            unit("crates/sim/src/lib.rs", "pub use util::*;"),
            unit("crates/engine/src/worker.rs", "use skyrise_sim::IdSet;"),
        ];
        // `pub use util::*` at the root: bare `util` names a known
        // submodule, so the glob resolves crate-relative.
        let g = ModuleGraph::build(&units);
        let ctx = FileCtx::from_graph(&g, "crates/engine/src/worker.rs", &units[2].parsed);
        assert_eq!(
            ctx.hash_aliases.get("IdSet").map(String::as_str),
            Some("std::collections::HashSet")
        );
        let units2 = vec![
            unit(
                "crates/sim/src/util.rs",
                "pub use std::collections::HashSet as IdSet;",
            ),
            unit("crates/sim/src/lib.rs", "pub use crate::util::*;"),
            unit("crates/engine/src/worker.rs", "use skyrise_sim::IdSet;"),
        ];
        let g = ModuleGraph::build(&units2);
        let ctx = FileCtx::from_graph(&g, "crates/engine/src/worker.rs", &units2[2].parsed);
        assert_eq!(
            ctx.hash_aliases.get("IdSet").map(String::as_str),
            Some("std::collections::HashSet")
        );
    }

    #[test]
    fn type_alias_to_hash() {
        let units = vec![unit(
            "crates/engine/src/catalog.rs",
            "use std::collections::HashMap;\npub type Index = HashMap<u64, u32>;",
        )];
        let g = ModuleGraph::build(&units);
        let ctx = FileCtx::from_graph(&g, &units[0].path, &units[0].parsed);
        // `Index` is a type alias whose target is the (locally named)
        // HashMap — the target path is literal std-rooted here.
        assert!(ctx.hash_aliases.contains_key("Index") || !ctx.hash_aliases.is_empty());
    }

    #[test]
    fn time_alias_detected() {
        let units = vec![unit(
            "crates/bench/src/harness.rs",
            "use std::time::Instant as Clock;",
        )];
        let g = ModuleGraph::build(&units);
        let ctx = FileCtx::from_graph(&g, &units[0].path, &units[0].parsed);
        assert_eq!(
            ctx.time_aliases.get("Clock").map(String::as_str),
            Some("std::time::Instant")
        );
    }

    #[test]
    fn btree_alias_is_clean() {
        let units = vec![unit(
            "crates/net/src/lib.rs",
            "use std::collections::BTreeMap as Map;",
        )];
        let g = ModuleGraph::build(&units);
        let ctx = FileCtx::from_graph(&g, &units[0].path, &units[0].parsed);
        assert!(ctx.hash_aliases.is_empty());
    }
}
