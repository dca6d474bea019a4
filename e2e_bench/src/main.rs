//! End-to-end benchmark of the Quokka engine on TPC-H at SF 0.01, on a
//! 4-worker `EngineConfig::quokka` cluster, driven by one closed-loop client
//! that sends each query as SQL text through `QuokkaSession::sql` and
//! `QueryHandle::collect_with` and checks every result against the
//! reference executor. See `NOTES.md` for the workloads, metrics and the
//! numbers measured.
//!
//! ```text
//! cargo run --offline --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload scan|join|recovery|all --seed 1 --seconds 25 --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured by [`run::PARTS`]
//! client processes in turn (this executable with `--part`). `--trace 1`
//! runs the traced pass in this process, prints the per-layer metrics and
//! writes its spans to `e2e_bench/traces/`. The last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`.

mod check;
mod heap;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use trace::Tracer;
use workload::Workload;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

const USAGE: &str =
    "usage: quokka-e2e-bench --workload scan|join|recovery|all [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a client process of an untraced run.
    part: Option<u64>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed =
        Args { workload: String::new(), seed: 1, seconds: 25, trace: false, part: None };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number =
            || value.parse::<u64>().map_err(|_| format!("{flag}: not a whole number: {value}"));
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--part" => match number()? {
                part if part < run::PARTS => parsed.part = Some(part),
                part => return Err(format!("--part must be below {}, got {part}", run::PARTS)),
            },
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(outcome: &run::Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// The arguments that run `workload` with this run's seed and length.
fn args_for(workload: Workload, args: &Args, trace: bool) -> Vec<String> {
    [
        "--workload",
        workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]
    .map(str::to_string)
    .to_vec()
}

/// Run this executable with `args`, echoing its standard output; returns
/// its last line if it exited successfully.
fn run_self(args: &[String], prefix: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a client process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default().to_string();
    for line in lines {
        println!("{prefix}{line}");
    }
    if !output.status.success() {
        return Err(format!("client process failed ({}): {last}", output.status));
    }
    Ok(last)
}

/// An untraced run: [`run::PARTS`] client processes one after another,
/// pooled.
fn end_to_end(workload: Workload, args: &Args) -> Result<run::Outcome, String> {
    let mut parts = Vec::new();
    for part in 0..run::PARTS {
        let mut child_args = args_for(workload, args, false);
        child_args.extend(["--part".to_string(), part.to_string()]);
        let last = run_self(&child_args, &format!("[part {part}] "))?;
        parts.push(
            run::Part::parse(&last).ok_or_else(|| format!("unreadable client result: {last}"))?,
        );
    }
    Ok(run::end_to_end(&parts))
}

/// Every workload in turn, each printing its metrics.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {} ==", w.name());
        match run_self(&args_for(w, args, args.trace), "") {
            Ok(last) => println!("{last}"),
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let seconds = Duration::from_secs(args.seconds);
    if let Some(part) = args.part {
        return match run::client(workload, args.seed, part, seconds) {
            Ok((part, lines)) => {
                lines.iter().for_each(|l| println!("{l}"));
                println!("{}", part.to_line());
                ExitCode::SUCCESS
            }
            Err(e) => {
                println!("benchmark set-up failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result =
        if args.trace {
            let mut tracer = Tracer::default();
            let outcome = run::per_layer(workload, args.seed, seconds, &mut tracer)
                .map_err(|e| e.to_string());
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("traces")
                .join(format!("{}-seed{}.jsonl", workload.name(), args.seed));
            match tracer.write_jsonl(&path) {
                Ok(()) => eprintln!("spans written to {}", path.display()),
                Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
            }
            outcome
        } else {
            end_to_end(workload, &args)
        };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    outcome.lines.iter().for_each(|l| println!("{l}"));
    for (name, value, unit) in &outcome.metrics {
        println!("{:<8} {name:<34} {value:>16.4} {unit}", workload.name());
    }
    println!("{}", result_json(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_parse_and_reject_bad_values() {
        let a = parse("--workload join --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.part),
            ("join", 9, 3, true, None)
        );
        assert_eq!(parse("--workload scan --part 1").unwrap().part, Some(1));
        assert!(parse(&format!("--workload scan --part {}", run::PARTS)).is_err());
        assert!(parse("--seed 9").is_err());
        assert!(parse("--workload scan --trace 2").is_err());
        assert!(parse("--workload scan --seed x").is_err());
        assert!(parse("--workload scan --bogus 1").is_err());
        assert!(parse("--workload scan --seed").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = run::Outcome {
            attempted: 3,
            failed: 1,
            metrics: vec![("latency_p50_ms", 1.25, "ms"), ("setup_s", 0.5, "s")],
            lines: Vec::new(),
        };
        assert_eq!(
            result_json(&outcome),
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"latency_p50_ms\": \
             {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn client_results_round_trip_and_pool() {
        let a = run::Part {
            latencies: vec![10.0, 30.0, 20.5],
            rows: 600,
            wall: 2.0,
            setup: vec![0.25, 0.5],
            heap_peaks: vec![50.0, 70.0, 60.0],
            peak_rss_mb: 100.0,
            attempted: 4,
            failed: 1,
        };
        assert_eq!(run::Part::parse(&a.to_line()), Some(a.clone()));
        let empty = run::Part::default();
        assert_eq!(run::Part::parse(&empty.to_line()), Some(empty));
        assert_eq!(run::Part::parse("nonsense"), None);

        let b = run::Part {
            latencies: vec![40.0],
            rows: 400,
            wall: 3.0,
            setup: vec![0.75],
            heap_peaks: vec![90.0],
            peak_rss_mb: 300.0,
            ..a.clone()
        };
        let c = run::Part { peak_rss_mb: 200.0, ..b.clone() };
        let outcome = run::end_to_end(&[a, b, c]);
        let metric = |name: &str| outcome.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert_eq!((outcome.attempted, outcome.failed), (12, 3));
        assert_eq!(metric("latency_p50_ms"), 30.0);
        assert_eq!(metric("throughput_rows_per_s"), 1400.0 / 8.0);
        assert_eq!(metric("setup_s"), 0.625);
        assert_eq!(metric("peak_heap_mb"), 70.0);
    }
}
