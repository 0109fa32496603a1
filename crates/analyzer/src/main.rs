//! CLI for the workspace lints. See `LINTS.md` at the workspace root.
//!
//! ```text
//! cargo run --release -p hpcc-analyzer -- --workspace
//! cargo run --release -p hpcc-analyzer -- --workspace --pass HL001
//! cargo run --release -p hpcc-analyzer -- --root /path/to/checkout
//! ```
//!
//! Exit status 0 when the tree is clean, 1 when any finding fires, 2 on
//! usage or I/O errors.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut pass: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => {}
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage("--root needs a path"),
            },
            "--pass" => match args.next() {
                Some(p) => pass = Some(p),
                None => return usage("--pass needs a code (HL001..HL005)"),
            },
            "--help" | "-h" => {
                println!(
                    "hpcc-analyzer: workspace static lints (HL001 no-panic, HL002 lock-order, \
                     HL003 poison-hygiene, HL004 protocol-exhaustiveness, HL005 unsafe-confinement)\n\n\
                     usage: hpcc-analyzer [--workspace] [--root DIR] [--pass HLnnn]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| hpcc_analyzer::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => return usage("no workspace root found (run from the repo, or pass --root)"),
    };

    let findings = match hpcc_analyzer::run_workspace(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("hpcc-analyzer: i/o error: {e}");
            return ExitCode::from(2);
        }
    };
    let findings: Vec<_> = findings
        .into_iter()
        .filter(|f| {
            pass.as_deref()
                .is_none_or(|p| p.eq_ignore_ascii_case(f.code))
        })
        .collect();

    for f in &findings {
        println!("{f}\n");
    }
    if findings.is_empty() {
        println!("hpcc-analyzer: workspace clean (HL001 HL002 HL003 HL004 HL005)");
        ExitCode::SUCCESS
    } else {
        println!("hpcc-analyzer: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("hpcc-analyzer: {msg} (try --help)");
    ExitCode::from(2)
}
