//! `repro_figures` regenerates the paper's figures and tables from the
//! simulation, and its whole output is deterministic. This test pins that
//! output byte for byte against `repro_figures.golden`, so a change to any
//! build, runtime or transcript path that moves a figure fails here and
//! names the first line that differs.
//!
//! To accept an intended change to a figure, regenerate the golden file:
//!
//! ```text
//! cargo run --release -p hpcc-bench --bin repro_figures > crates/bench/tests/repro_figures.golden
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("repro_figures.golden");

#[test]
fn repro_figures_output_matches_the_golden_file() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_figures"))
        .output()
        .expect("run repro_figures");
    assert!(
        out.status.success(),
        "repro_figures exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let actual = String::from_utf8(out.stdout).expect("repro_figures prints UTF-8");
    if actual == GOLDEN {
        return;
    }
    let (mut golden, mut got) = (GOLDEN.split('\n'), actual.split('\n'));
    for line in 1.. {
        match (golden.next(), got.next()) {
            (Some(g), Some(a)) if g == a => {}
            (g, a) => panic!(
                "repro_figures differs from the golden file at line {line}:\n  golden: {g:?}\n  actual: {a:?}"
            ),
        }
    }
}
