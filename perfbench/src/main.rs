//! `perfbench`: runs one workload and prints its metrics as one JSON line.
//!
//! ```text
//! perfbench --workload <cold_build|ci_rebuild|serve_image> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` runs the workload untraced in this process and prints the
//! end-to-end metrics. `--trace 1` runs it twice, each time in a fresh
//! child process for half the seconds — untraced, then traced — and prints
//! the per-layer metrics, with `trace.overhead_ratio` comparing the two.
//! The exit code is 0 only when every output check passed.

use std::process::{Command, ExitCode, Stdio};

use perfbench::trace::CountingAlloc;
use perfbench::{Config, END_TO_END, PER_LAYER, WORKLOADS};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: perfbench --workload <cold_build|ci_rebuild|serve_image> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

/// Command-line arguments.
struct Args {
    workload: String,
    cfg: Config,
    /// Internal: run as a child of a `--trace 1` run and report to it.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let (mut tiny, mut child) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--tiny" => tiny = true,
            "--child" => child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            traced: trace.ok_or("--trace is required")?,
            tiny,
        },
        child,
    })
}

/// A finished run as the final JSON line reports it.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    mean_unit_ns: f64,
}

fn run_here(args: &Args) -> Report {
    let out = perfbench::run_workload(&args.workload, &args.cfg).expect("workload name checked");
    for m in &out.checks.messages {
        eprintln!("perfbench: {}: check failed: {m}", args.workload);
    }
    if args.cfg.traced {
        let path = perfbench::trace_path(&args.workload, args.cfg.seed);
        if let Err(e) = perfbench::trace::write_spans(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let names: &[(&'static str, &'static str)] = if args.cfg.traced {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let metrics = names
        .iter()
        .filter_map(|&(name, unit)| out.metrics.get(name).map(|&v| (name, unit, v)))
        .collect();
    Report {
        correct: out.checks.correct(),
        attempted: out.checks.attempted,
        failed: out.checks.failed + out.checks.broken,
        metrics,
        mean_unit_ns: out.mean_unit_ns,
    }
}

/// Child protocol: one `summary` line, then one `metric` line per metric.
fn print_child(r: &Report) {
    println!(
        "summary {} {} {} {}",
        u8::from(r.correct),
        r.attempted,
        r.failed,
        r.mean_unit_ns
    );
    for (name, _, value) in &r.metrics {
        println!("metric {name} {value}");
    }
}

fn run_child(args: &Args, traced: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", &args.workload])
        .args(["--seed", &args.cfg.seed.to_string()])
        .args(["--seconds", &(args.cfg.seconds / 2.0).to_string()])
        .args(["--trace", if traced { "1" } else { "0" }, "--child"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.cfg.tiny {
        cmd.arg("--tiny");
    }
    let output = cmd.output().map_err(|e| format!("cannot run child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut report = None;
    let mut values = std::collections::BTreeMap::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["summary", correct, attempted, failed, mean] => {
                report = Some(Report {
                    correct: *correct == "1" && output.status.success(),
                    attempted: attempted.parse().map_err(|_| "bad child summary")?,
                    failed: failed.parse().map_err(|_| "bad child summary")?,
                    metrics: Vec::new(),
                    mean_unit_ns: mean.parse().map_err(|_| "bad child summary")?,
                })
            }
            ["metric", name, value] => {
                values.insert(
                    name.to_string(),
                    value.parse::<f64>().map_err(|_| "bad child metric")?,
                );
            }
            _ => {}
        }
    }
    let mut report = report.ok_or_else(|| format!("child exited with {}", output.status))?;
    let names: &[(&'static str, &'static str)] = if traced { &PER_LAYER } else { &END_TO_END };
    report.metrics = names
        .iter()
        .filter_map(|&(name, unit)| values.get(name).map(|&v| (name, unit, v)))
        .collect();
    Ok(report)
}

fn print_json(r: &Report) {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.child || !args.cfg.traced {
        run_here(&args)
    } else {
        let pair = run_child(&args, false).and_then(|plain| Ok((plain, run_child(&args, true)?)));
        let (plain, mut traced) = match pair {
            Ok(pair) => pair,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let overhead = perfbench::ratio(traced.mean_unit_ns, plain.mean_unit_ns);
        for m in &mut traced.metrics {
            if m.0 == "trace.overhead_ratio" {
                m.2 = overhead;
            }
        }
        traced.correct &= plain.correct;
        traced
    };
    if args.child {
        print_child(&report);
    } else {
        print_json(&report);
    }
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
