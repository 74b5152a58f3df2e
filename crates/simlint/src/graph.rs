//! Where a file sits in the workspace. The flow pass summarizes helper
//! functions per crate ([`crate::flow::summarize`]), so all it needs to
//! know about a path is which crate's namespace the file shares. Name
//! resolution (aliases, re-exports, `type` aliases) is not simlint's job:
//! the rules that needed it are clippy's now (`clippy.toml`), which gets
//! it from rustc.

/// The crate a workspace-relative, `/`-separated path belongs to: the
/// directory under `crates/` for anything in that crate's `src/` (a bin is
/// summarized with its lib, so same-name helpers resolve: conservative,
/// and bins mostly call into the lib anyway), the path itself otherwise
/// (an integration test, example or bench is its own crate).
pub fn module_of(path: &str) -> &str {
    let p = path.trim_start_matches("./");
    match p.strip_prefix("crates/").and_then(|r| r.split_once('/')) {
        Some((dir, tail)) if tail.starts_with("src/") => dir,
        _ => p,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_paths() {
        assert_eq!(module_of("crates/net/src/lib.rs"), "net");
        assert_eq!(module_of("crates/net/src/fabric.rs"), "net");
        assert_eq!(module_of("./crates/bench/src/experiments/mod.rs"), "bench");
        assert_eq!(module_of("crates/bench/src/main.rs"), "bench");
        assert_eq!(module_of("crates/bench/src/bin/tool.rs"), "bench");
        assert_eq!(
            module_of("crates/sim/tests/proptests.rs"),
            "crates/sim/tests/proptests.rs"
        );
        assert_eq!(module_of("tests/integration.rs"), "tests/integration.rs");
    }
}
