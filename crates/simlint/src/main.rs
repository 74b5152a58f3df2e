//! CLI for the simlint determinism auditor.
//!
//! ```text
//! cargo run -p simlint                    # human-readable report
//! cargo run -p simlint -- --json          # machine-readable, for CI
//! cargo run -p simlint -- --sarif         # SARIF 2.1.0 to stdout
//! cargo run -p simlint -- --suppressed    # also show justified waivers
//! cargo run -p simlint -- --root /path/to/workspace
//! ```
//!
//! Exit status is non-zero iff any non-suppressed diagnostic was found.

#![expect(
    clippy::disallowed_methods,
    reason = "a host-side CLI: it reads its arguments and the working directory"
)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut sarif = false;
    let mut show_suppressed = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--sarif" => sarif = true,
            "--suppressed" => show_suppressed = true,
            "--root" => {
                let Some(r) = args.next() else {
                    eprintln!("--root requires a path");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(r);
            }
            "--help" | "-h" => {
                eprintln!(
                    "simlint: determinism auditor\n\
                     usage: simlint [--json | --sarif] [--suppressed] [--root <workspace>]"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(2);
            }
        }
    }

    // If invoked from a crate directory (cargo run -p simlint runs at the
    // workspace root, but be forgiving), look upward for `crates/`.
    if !root.join("crates").is_dir() {
        if let Ok(cwd) = std::env::current_dir() {
            let mut cur = cwd.as_path();
            loop {
                if cur.join("crates").is_dir() {
                    root = cur.to_path_buf();
                    break;
                }
                match cur.parent() {
                    Some(p) => cur = p,
                    None => break,
                }
            }
        }
    }

    let diags = match simlint::lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("simlint: cannot read workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    let unsuppressed: Vec<_> = diags.iter().filter(|d| !d.suppressed).collect();
    if sarif {
        print!("{}", simlint::sarif::render_sarif(&diags));
    } else if json {
        print!("{}", simlint::render_json(&diags));
    } else {
        for d in &diags {
            if d.suppressed && !show_suppressed {
                continue;
            }
            println!("{d}");
        }
        let n_sup = diags.len() - unsuppressed.len();
        println!(
            "simlint: {} unsuppressed finding(s), {} suppressed",
            unsuppressed.len(),
            n_sup
        );
    }
    if unsuppressed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
