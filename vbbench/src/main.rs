//! `vbbench`: end-to-end benchmark of the Virtual Battery pipeline, with
//! per-layer timing, over four workloads.
//!
//! ```text
//! vbbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! vbbench [--runs N] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--workload`, one run of that workload executes in this process
//! and the last line of standard output is the result as one JSON object.
//! Without it, every workload runs `--runs` times, each run in a child
//! process of this executable (so peak memory and set-up time are the
//! workload's own), and a table of medians with min/max is printed.
//! `--setup-only` (with `--workload`) sets the workload up once and prints
//! how long that took; a run starts such processes to sample cold set-ups.

mod heap;
mod host;
mod metrics;
mod probe;
mod run;
mod workload;

use std::process::{Command, ExitCode};

use run::{RunConfig, RunOutcome};
use vb_telemetry::Json;
use workload::Workload;

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

const USAGE: &str = "usage: vbbench [--workload table1|fleet_greedy|fleet_mip|site_cluster] \
[--seed N] [--seconds S] [--trace 0|1] [--runs N] [--setup-only]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    runs: usize,
    setup_only: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 42,
        seconds: 25.0,
        traced: false,
        runs: 3,
        setup_only: false,
    };
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                out.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds >= 0.0 && out.seconds.is_finite()) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--runs" => {
                out.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if out.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--setup-only" => out.setup_only = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if out.setup_only && out.workload.is_none() {
        return Err("--setup-only needs --workload".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vbbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all(&args);
    };
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    };
    if !args.setup_only {
        print_run(&cfg, &run::run(&cfg));
        return ExitCode::SUCCESS;
    }
    match run::setup_only(&cfg) {
        Ok(sample) => {
            println!("{}", sample.line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("vbbench: set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_run(cfg: &RunConfig, out: &RunOutcome) {
    println!(
        "vbbench {} seed={} seconds={} trace={} threads={} studies={} attempted={} failed={} failed_frac={}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.traced),
        run::THREADS,
        out.studies,
        out.attempted,
        out.failed,
        metrics::ratio(out.failed as f64, out.attempted as f64),
    );
    for note in &out.notes {
        println!("{note}");
    }
    for m in &out.metrics {
        println!("  {:<30} {:>16} {}", m.name, num(m.value), m.unit);
    }
    println!("output_digest {} {:016x}", cfg.workload.name(), out.digest);
    println!(
        "{}",
        metrics::result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
}

/// A value for a table: six decimals, or four significant digits in
/// exponent form for small values such as the time of a layer a workload
/// barely uses.
fn num(v: f64) -> String {
    if v != 0.0 && v.abs() < 1e-2 {
        format!("{v:.4e}")
    } else {
        format!("{v:.6}")
    }
}

/// One child run's parsed result.
struct ChildResult {
    ok: bool,
    attempted: u64,
    failed: u64,
    digest: Option<String>,
    metrics: Vec<(String, f64, String)>,
}

fn run_child(args: &Args, workload: Workload) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate vbbench: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }]);
    let out = cmd.output().map_err(|e| format!("cannot run child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let json = Json::parse(last).map_err(|e| format!("child result line: {e}"))?;
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix("output_digest "))
        .and_then(|l| l.split_whitespace().nth(1))
        .map(str::to_string);
    let metrics = match json.get("metrics") {
        Some(Json::Obj(fields)) => fields
            .iter()
            .filter_map(|(name, m)| {
                let value = m.get("value")?.as_f64()?;
                let unit = m.get("unit")?.as_str()?.to_string();
                Some((name.clone(), value, unit))
            })
            .collect(),
        _ => Vec::new(),
    };
    let count = |key| json.get(key).and_then(Json::as_u64).unwrap_or(0);
    let (attempted, failed) = (count("attempted"), count("failed"));
    let ok = out.status.success() && json.get("correct") == Some(&Json::Bool(true)) && failed == 0;
    Ok(ChildResult {
        ok,
        attempted,
        failed,
        digest,
        metrics,
    })
}

fn run_all(args: &Args) -> ExitCode {
    let mut all_ok = true;
    println!(
        "vbbench: {} run(s) per workload, seed {}, {} s per run, trace {}, threads {}",
        args.runs,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        run::THREADS
    );
    for workload in Workload::ALL {
        let mut results = Vec::new();
        for _ in 0..args.runs {
            match run_child(args, workload) {
                Ok(r) => results.push(r),
                Err(e) => {
                    eprintln!("vbbench {}: {e}", workload.name());
                    all_ok = false;
                }
            }
        }
        let digests: Vec<&str> = results.iter().filter_map(|r| r.digest.as_deref()).collect();
        let same_digest =
            digests.len() == results.len() && digests.windows(2).all(|w| w[0] == w[1]);
        let ok = !results.is_empty() && same_digest && results.iter().all(|r| r.ok);
        all_ok &= ok;
        println!(
            "\n== {} ({} runs{}) ==",
            workload.name(),
            results.len(),
            if ok { "" } else { ", FAILED" }
        );
        let attempted: u64 = results.iter().map(|r| r.attempted).sum();
        let failed: u64 = results.iter().map(|r| r.failed).sum();
        println!(
            "failed_frac {} ({failed} of {attempted} studies)",
            metrics::ratio(failed as f64, attempted as f64)
        );
        println!(
            "output_digest {} ({})",
            digests.first().unwrap_or(&"-"),
            if same_digest {
                "identical in every run"
            } else {
                "DIFFERS between runs"
            }
        );
        println!(
            "{:<30} {:>14} {:>14} {:>14}  unit",
            "metric", "median", "min", "max"
        );
        let Some(first) = results.first() else {
            continue;
        };
        for (name, _, unit) in &first.metrics {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r.metrics.iter().find(|m| &m.0 == name).map(|m| m.1))
                .collect();
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{name:<30} {:>14} {:>14} {:>14}  {unit}",
                num(metrics::median(values)),
                num(min),
                num(max)
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "fleet_mip",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(a.workload, Some(Workload::FleetMip));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 10.0, true));
        let d = args(&[]).expect("defaults");
        assert_eq!((d.workload, d.seed, d.runs, d.traced), (None, 42, 3, false));
        assert!(!d.setup_only);
        let s = args(&["--workload", "table1", "--setup-only"]).expect("set-up only");
        assert!(s.setup_only);
        for bad in [
            &["--workload", "nope"][..],
            &["--setup-only"],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--runs", "0"],
            &["--seed"],
            &["--bogus"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
