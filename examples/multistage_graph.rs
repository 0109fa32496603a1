//! The stage-graph build pipeline on a diamond-shaped multi-stage
//! Dockerfile: the front end lowers the file to a stage IR, the planner
//! turns `COPY --from` / `FROM <alias>` references into a DAG (rejecting
//! forward and unknown references before anything runs), and the executor
//! builds independent stages concurrently with one shared build cache.
//!
//! Run with: `cargo run --example multistage_graph`

use hpcc_repro::core::{BuildGraph, BuildIr, BuildOptions, Builder};
use hpcc_repro::runtime::Invoker;

const DIAMOND: &str = "\
FROM centos:7 AS base
RUN yum install -y gcc

FROM base AS mpi
RUN yum install -y openmpi
RUN mkdir -p /opt/artifacts && echo mpi-stack > /opt/artifacts/mpi

FROM base AS tools
RUN yum install -y spack
RUN mkdir -p /opt/artifacts && echo tool-tree > /opt/artifacts/tools

FROM centos:7
COPY --from=mpi /opt/artifacts/mpi /opt/final/mpi
COPY --from=tools /opt/artifacts/tools /opt/final/tools
RUN echo assembled
";

fn main() {
    let ir = BuildIr::parse(DIAMOND).unwrap();
    let graph = BuildGraph::plan(&ir).unwrap();
    println!(
        "== plan: {} stages, critical path {} ==",
        ir.stage_count(),
        graph.critical_path_len()
    );
    for level in graph.levels() {
        let names: Vec<String> = level
            .iter()
            .map(|&s| {
                ir.stages[s]
                    .alias
                    .clone()
                    .unwrap_or_else(|| format!("stage{}", s))
            })
            .collect();
        println!(
            "  level: {:?}{}",
            names,
            if level.len() > 1 {
                "  <- built in parallel"
            } else {
                ""
            }
        );
    }

    // A planner error surfaces before any instruction executes.
    let bad = "FROM centos:7 AS a\nCOPY --from=later /x /y\n\nFROM centos:7 AS later\nRUN echo x\n";
    let err = BuildGraph::plan(&BuildIr::parse(bad).unwrap()).unwrap_err();
    println!("\n== plan-time rejection ==\n  {}", err);

    let alice = Invoker::user("alice", 1000, 1000);
    let mut builder = Builder::ch_image(alice);
    let options = BuildOptions::new("diamond").with_cache();
    let report = builder.build(DIAMOND, &options, None);
    println!("\n== parallel build: success={} ==", report.success);
    for stage in &report.stages {
        println!(
            "  {:<28} {} instructions, {:?}",
            stage.tag, stage.instructions_total, stage.elapsed
        );
    }

    let rebuild = builder.build(DIAMOND, &options, None);
    let hits: usize = rebuild.stages.iter().map(|s| s.cache_hits).sum();
    let misses: usize = rebuild.stages.iter().map(|s| s.cache_misses).sum();
    println!("\n== cached rebuild: {} hits, {} misses ==", hits, misses);
    println!(
        "tags in store: {:?} (intermediate stages are not tagged)",
        builder.tags()
    );
}
