//! `ledger` — the repository's benchmark: three closed-loop workloads over
//! the wire, CPU per statement, and a layer-by-layer trace. See `README.md`
//! beside this file for every definition.
//!
//! ```text
//! ledger --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (BENCHMARK.json)
//! ledger run   [--seed N] [--seconds S] [--smoke] [--out FILE]   all workloads, end to end
//! ledger trace [--seed N] [--seconds S]                          all workloads, per layer
//! ledger compare A.jsonl B.jsonl                                 two sets of runs against the bounds
//! ```

mod compare;
mod harness;
mod hostref;
mod json;
mod layers;
mod stats;
mod trace;
mod verify;
mod workloads;

use harness::{RunResult, Settings};
use json::Json;
use std::io::Write as _;
use std::process::ExitCode;
use workloads::{Workload, ALL_WORKLOADS};

/// The contract this bench is written to; `compare` takes its bounds from it.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Measured seconds per run when none are given (BENCHMARK.json's value).
const DEFAULT_SECONDS: u64 = 25;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    /// `None` = end to end (`--trace 0`).
    trace: Option<trace::Part>,
    smoke: bool,
    /// Internal: measure one round and print it (see `harness::run_round`).
    round: bool,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        smoke: false,
        round: false,
        out: None,
        positional: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                parsed.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 60")?;
            }
            "--trace" => {
                parsed.trace = match value("--trace")?.as_str() {
                    "0" => None,
                    "1" => Some(trace::Part::All),
                    // Internal: what `ledger trace` asks of its children.
                    "workload" => Some(trace::Part::Workload),
                    "shared" => Some(trace::Part::Shared),
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--round" => parsed.round = true,
            "--out" => parsed.out = Some(value("--out")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

/// One run's result as the line the driver reads.
fn result_line(result: &RunResult) -> Json {
    let metrics = result.metrics.iter().map(|m| {
        let entry = json::obj([
            ("value".to_string(), Json::Num(m.value)),
            ("unit".to_string(), Json::Str(m.unit.to_string())),
        ]);
        (m.name.clone(), entry)
    });
    json::obj([
        (
            "correct".to_string(),
            Json::Bool(result.problems.is_empty()),
        ),
        ("attempted".to_string(), Json::Num(result.attempted as f64)),
        ("failed".to_string(), Json::Num(result.failed as f64)),
        ("metrics".to_string(), json::obj(metrics)),
    ])
}

fn settings_of(args: &Args) -> Settings {
    if args.smoke {
        Settings::smoke()
    } else {
        Settings::full(args.seconds)
    }
}

/// One workload, end to end or traced.
fn run_one(workload: Workload, args: &Args) -> Result<RunResult, String> {
    let settings = settings_of(args);
    let result = match args.trace {
        Some(part) => trace::run_traced(workload, args.seed, &settings, part)?,
        None => harness::run_end_to_end(workload, args.seed, &settings)?,
    };
    for note in &result.notes {
        eprintln!("[{}] {note}", workload.name());
    }
    for problem in result.problems.iter().take(10) {
        eprintln!("[{}] PROBLEM: {problem}", workload.name());
    }
    if let Some(bad) = result.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", bad.name));
    }
    Ok(result)
}

/// Runs every workload in a freshly exec'd child of this binary, so memory
/// and allocator state never leak from one workload into the next. A traced
/// suite takes the layer metrics that do not depend on the workload once, in
/// a child of their own, under the title `layers`.
fn run_suite(args: &Args, trace: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    let per_workload = if trace { "workload" } else { "0" };
    let mut children: Vec<(&str, Workload, &str)> = ALL_WORKLOADS
        .iter()
        .map(|w| (w.name(), *w, per_workload))
        .collect();
    if trace {
        children.push(("layers", ALL_WORKLOADS[0], "shared"));
    }
    for (title, workload, trace_arg) in children {
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", trace_arg]);
        if args.smoke {
            child.arg("--smoke");
        }
        let output = child
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let parsed = Json::parse(last)
            .map_err(|e| format!("{title}: no result line ({e}); exit {}", output.status))?;
        let failed = parsed
            .get("failed")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let attempted = parsed
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let correct = parsed.get("correct") == Some(&Json::Bool(true));
        println!("== {title} (seed {}) ==", args.seed);
        if let Some(Json::Obj(metrics)) = parsed.get("metrics") {
            for (name, entry) in metrics {
                println!(
                    "  {name:<52} {:>14.4} {}",
                    entry
                        .get("value")
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN),
                    entry.get("unit").and_then(Json::as_str).unwrap_or("?"),
                );
            }
        }
        println!("  {:<52} {attempted:>14}", "ops_attempted");
        println!("  {:<52} {failed:>14}", "ops_failed");
        println!("  {:<52} {:>14}", "outputs_correct", correct);
        all_ok &= output.status.success() && correct && failed == 0.0;
        if let Some(path) = &args.out {
            let line = json::obj([
                ("workload".to_string(), Json::Str(title.to_string())),
                ("seed".to_string(), Json::Num(args.seed as f64)),
                ("result".to_string(), parsed),
            ]);
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("{path}: {e}"))?;
            writeln!(file, "{}", line.render()).map_err(|e| format!("{path}: {e}"))?;
        }
    }
    Ok(all_ok)
}

fn real_main() -> Result<bool, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(cmd @ ("run" | "trace" | "compare")) => (cmd, &raw[1..]),
        _ => ("one", &raw[..]),
    };
    let args = parse_args(rest)?;
    match command {
        "run" => run_suite(&args, false),
        "trace" => run_suite(&args, true),
        "compare" => match args.positional.as_slice() {
            [a, b] => compare::compare_files(a, b),
            _ => Err("usage: ledger compare A.jsonl B.jsonl".into()),
        },
        _ => {
            let workload = args
                .workload
                .ok_or("usage: ledger --workload W --seed N --seconds S --trace 0|1")?;
            if args.round {
                let round = harness::run_round(workload, args.seed, &settings_of(&args))?;
                println!("{}", round.to_json().render());
                return Ok(true);
            }
            let result = run_one(workload, &args)?;
            println!("{}", result_line(&result).render());
            // A contract run reports failures in its result line; only a run
            // that could not measure at all exits non-zero.
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole harness, end to end and traced, at smoke size — in-process,
    /// because a test binary cannot re-exec itself as `ledger`.
    #[test]
    fn smoke_runs_two_workloads() {
        for (workload, modes) in [
            (Workload::PointLookup, &[None][..]),
            (Workload::TpcwOrdering, &[None, Some(trace::Part::All)][..]),
        ] {
            for &trace in modes {
                let args = Args {
                    workload: Some(workload),
                    seed: 1,
                    seconds: DEFAULT_SECONDS,
                    trace,
                    smoke: true,
                    round: false,
                    out: None,
                    positional: Vec::new(),
                };
                let line = run_one(workload, &args).unwrap();
                assert_eq!(line.failed, 0, "{} trace={trace:?}", workload.name());
                assert_eq!(line.problems, Vec::<String>::new(), "{}", workload.name());
                assert!(line.attempted > 0);
                let expected = contract_metric_names(if trace.is_some() {
                    "per_layer"
                } else {
                    "end_to_end"
                });
                let mut printed: Vec<&str> = line.metrics.iter().map(|m| m.name.as_str()).collect();
                printed.sort_unstable();
                assert_eq!(printed, expected, "{} trace={trace:?}", workload.name());
                assert!(line.metrics.iter().all(|m| m.value.is_finite()));
            }
        }
    }

    fn contract_metric_names(section: &str) -> Vec<&'static str> {
        let contract: &'static Json = Box::leak(Box::new(Json::parse(BENCHMARK_JSON).unwrap()));
        let mut names: Vec<&str> = contract
            .get(section)
            .unwrap()
            .as_array()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap())
            .collect();
        names.sort_unstable();
        names
    }

    #[test]
    fn contract_lists_exactly_the_workloads() {
        let contract = Json::parse(BENCHMARK_JSON).unwrap();
        let listed: Vec<&str> = contract
            .get("workloads")
            .unwrap()
            .as_array()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        let ours: Vec<&str> = ALL_WORKLOADS.iter().map(|w| w.name()).collect();
        assert_eq!(listed, ours);
        assert_eq!(
            contract.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS as f64)
        );
    }
}
