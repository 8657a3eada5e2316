//! `dichotomy-lint` — determinism & cache-soundness source auditor.
//!
//! ```text
//! dichotomy-lint [--json FILE] [PATH…]
//! ```
//!
//! Paths default to `crates` (the workspace). Directories are walked with
//! the skip list (tests/fixtures/target exempt); files are linted as given,
//! so fixtures can be checked explicitly. Exit 1 when any deny-level
//! diagnostic survives the allowlist.

use std::path::PathBuf;
use std::process::ExitCode;

use dichotomy_common::diag::{has_deny, json_document};
use dichotomy_common::Severity;

fn main() -> ExitCode {
    let mut json_path: Option<PathBuf> = None;
    let mut roots: Vec<PathBuf> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(path) => json_path = Some(PathBuf::from(path)),
                None => {
                    eprintln!("dichotomy-lint: --json needs a file path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: dichotomy-lint [--json FILE] [PATH...]");
                return ExitCode::SUCCESS;
            }
            _ => roots.push(PathBuf::from(arg)),
        }
    }
    if roots.is_empty() {
        roots.push(PathBuf::from("crates"));
    }

    let diags = match dichotomy_lint::lint_paths(&roots) {
        Ok(diags) => diags,
        Err(err) => {
            eprintln!("dichotomy-lint: {err}");
            return ExitCode::from(2);
        }
    };

    for diag in &diags {
        println!("{}", diag.render());
    }
    let denies = diags
        .iter()
        .filter(|d| d.severity == Severity::Deny)
        .count();
    println!(
        "dichotomy-lint: {} finding{} ({} deny)",
        diags.len(),
        if diags.len() == 1 { "" } else { "s" },
        denies
    );

    if let Some(path) = json_path {
        let doc = json_document(vec![("generator", "dichotomy-lint".into())], &diags);
        if let Err(err) = std::fs::write(&path, doc) {
            eprintln!("dichotomy-lint: writing {}: {err}", path.display());
            return ExitCode::from(2);
        }
    }

    if has_deny(&diags) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
