//! A tiny-size run of every workload, untraced and traced, exits 0 and
//! prints every metric name `BENCHMARK.json` lists.

use std::path::PathBuf;
use std::process::Command;

/// The `name`s listed under `key` in `BENCHMARK.json`.
fn listed_names(key: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("{key} in BENCHMARK.json"));
    let section = &text[start..];
    let section = &section[..section.find(']').expect("list end")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest.split('"').nth(1).expect("quoted name");
            value.to_string()
        })
        .collect()
}

fn run(workload: &str, trace: &str) -> String {
    let target = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "0.3"])
        .args(["--trace", trace, "--tiny"])
        .env("CARGO_TARGET_DIR", target)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout.lines().last().expect("a result line").to_string()
}

#[test]
fn every_workload_prints_every_listed_metric() {
    let end_to_end = listed_names("end_to_end");
    let per_layer = listed_names("per_layer");
    assert!(end_to_end.iter().any(|n| n == "setup_s"));
    for workload in perfbench::WORKLOADS {
        for (trace, names) in [("0", &end_to_end), ("1", &per_layer)] {
            let line = run(workload, trace);
            assert!(line.starts_with("{\"correct\": true"), "{line}");
            for name in names.iter() {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} --trace {trace} lacks {name}: {line}"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
