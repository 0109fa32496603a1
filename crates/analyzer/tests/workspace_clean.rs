//! The shipped tree itself must be clean: every serving-path panic site is
//! fixed or justified, no lock-order cycles, no bare lock unwraps, and the
//! wire surface is exhaustive. This is the same scan CI runs via
//! `cargo run --release -p hpcc-analyzer -- --workspace`.

use std::path::Path;

#[test]
fn shipped_tree_has_no_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyzer sits two levels below the workspace root");
    let findings = hpcc_analyzer::run_workspace(root).expect("workspace scan");
    assert!(
        findings.is_empty(),
        "analyzer findings on the shipped tree:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn shared_helpers_are_the_kernel_sync_module_helpers() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyzer sits two levels below the workspace root");
    let rel = "crates/kernel/src/sync.rs";
    let src = std::fs::read_to_string(root.join(rel)).expect("kernel sync module");
    let file = hpcc_analyzer::lex::lex(rel, &src);
    let mut found: Vec<String> = hpcc_analyzer::poison::find_helpers(&[file])
        .into_iter()
        .map(|h| h.name)
        .collect();
    found.sort();
    assert_eq!(found, hpcc_analyzer::poison::SHARED_HELPERS);
}
