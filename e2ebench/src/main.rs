//! `llamatune-e2ebench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints every metric by name with its unit, the run's history digest,
//! and, as the last line, one JSON object with the results. Exits
//! non-zero, without the JSON line, when an output check fails.

use llamatune_e2ebench::run::{self, Metric, Outcome, DEFAULT_SEED, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

/// Where runs keep their stores, relative to the working directory.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: llamatune-e2ebench --workload <{}|all> [--seed N (default {DEFAULT_SEED})] \
         [--seconds S (default 10)] [--trace 0|1 (default 0)]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn json(outcome: &Outcome) -> Result<String, String> {
    let mut fields = Vec::with_capacity(outcome.metrics.len());
    for Metric { name, unit, value } in &outcome.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        fields.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

/// Runs every workload, each in a fresh process of this program, so that
/// process-wide figures (peak RSS, thread counts) cannot carry over.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    for (name, _) in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .status()
            .map_err(|e| format!("{name}: {e}"))?;
        if !status.success() {
            return Err(format!("{name}: {status}"));
        }
    }
    Ok(())
}

fn run_one(args: &Args) -> Result<(), String> {
    let w = run::workload(&args.workload).ok_or_else(usage)?;
    let work = PathBuf::from(WORK_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let outcome = if args.trace {
        run::measure_traced(&w, args.seed, &work)
    } else {
        run::measure(&w, args.seed, args.seconds, &work)
    };
    // The stores are scratch: nothing a run writes outlives it.
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    let outcome = outcome?;
    if outcome.failed > 0 {
        return Err(format!("{} of {} operations failed", outcome.failed, outcome.attempted));
    }
    println!("{} seed={} trace={}", args.workload, args.seed, u8::from(args.trace));
    for Metric { name, unit, value } in &outcome.metrics {
        println!("  {name:<26} {value:>14.4} {unit}");
    }
    println!("  history_digest             {:016x}", outcome.digest);
    println!("{}", json(&outcome)?);
    Ok(())
}

fn main() -> ExitCode {
    let outcome =
        parse_args().and_then(
            |args| {
                if args.workload == "all" {
                    run_all(&args)
                } else {
                    run_one(&args)
                }
            },
        );
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("llamatune-e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
