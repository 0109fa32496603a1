//! Regenerates every figure and table of the paper from the simulation.
//!
//! ```text
//! cargo run -p hpcc-bench --bin repro_figures            # everything
//! cargo run -p hpcc-bench --bin repro_figures -- fig2 table1
//! ```

#![forbid(unsafe_code)]

use hpcc_bench::*;

fn section(title: &str, body: String) {
    println!("================================================================");
    println!("{}", title);
    println!("================================================================");
    println!("{}", body);
    println!();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");

    if want("fig1") || want("fig4") {
        section(
            "Figure 1 / Figure 4: privileged UID map for a Type II container",
            repro_fig1_fig4(),
        );
    }
    if want("fig2") {
        section(
            "Figure 2: CentOS 7 Dockerfile fails in a basic Type III build",
            repro_fig2(),
        );
    }
    if want("fig3") {
        section(
            "Figure 3: Debian 10 Dockerfile fails in a basic Type III build",
            repro_fig3(),
        );
    }
    if want("fig5") {
        section(
            "Figure 5: Podman unprivileged-mode single-entry UID map",
            repro_fig5(),
        );
    }
    if want("fig6") {
        section(
            "Figure 6: container build workflow on Astra with Podman",
            repro_fig6(4),
        );
    }
    if want("fig7") {
        section(
            "Figure 7: fakeroot(1) example (inside vs outside views)",
            repro_fig7(),
        );
    }
    if want("fig8") {
        section(
            "Figure 8: modified CentOS 7 Dockerfile builds with fakeroot",
            repro_fig8(),
        );
    }
    if want("fig9") {
        section(
            "Figure 9: modified Debian 10 Dockerfile builds with pseudo",
            repro_fig9(),
        );
    }
    if want("fig10") {
        section(
            "Figure 10: unmodified CentOS 7 Dockerfile with ch-image --force",
            repro_fig10(),
        );
    }
    if want("fig11") {
        section(
            "Figure 11: unmodified Debian 10 Dockerfile with ch-image --force",
            repro_fig11(),
        );
    }
    if want("table1") {
        section("Table 1: fakeroot(1) implementations", repro_table1());
    }
    if want("pipeline") {
        section(
            "Section 5.3.3: LANL production CI pipeline",
            repro_ci_pipeline(),
        );
    }
    if want("types") {
        let mut body = String::new();
        for (name, ok, modified) in build_type_comparison() {
            body.push_str(&format!(
                "{:<32} {}  (RUN instructions modified: {})\n",
                name,
                if ok { "build OK" } else { "build FAILED" },
                modified
            ));
        }
        section(
            "Ablation E13: build-type comparison (centos7.dockerfile)",
            body,
        );
    }
    if want("push") {
        let mut body = String::new();
        for (name, uids) in push_policy_comparison() {
            body.push_str(&format!(
                "{:<32} distinct recorded owner UIDs: {}\n",
                name, uids
            ));
        }
        section("Ablation E17: push ownership policies", body);
    }
}
