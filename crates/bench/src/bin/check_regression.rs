//! CI perf-regression gate: compares a `server_throughput` result JSON
//! against a checked-in baseline of floors and fails (exit 1) on regression.
//!
//! Usage:
//!
//! ```text
//! check_regression --bench BENCH_server_throughput.json --baseline BENCH_baseline.json
//! ```
//!
//! The baseline declares, per `(replicas, clients)` point, a total-throughput
//! floor, a light-p99 ceiling and an error budget, plus a global `slack_pct`
//! that widens every bound (CI runners are noisy; the gate is meant to catch
//! *regressions*, not to benchmark):
//!
//! ```json
//! {
//!   "slack_pct": 30,
//!   "floors": [
//!     {"replicas": 4, "clients": 64,
//!      "min_throughput_per_s": 4000, "max_light_p99_us": 200000,
//!      "max_errors": 0}
//!   ]
//! }
//! ```
//!
//! A floor entry may additionally pin a `"heartbeat"` policy spec (matched
//! verbatim against the point's `heartbeat` string). A top-level
//! `"min_light_p99_improvement_pct"` turns on the adaptive-vs-fixed gate:
//! every sweep point present under both a
//! `fixed:*` and an `adaptive:*` heartbeat must show the adaptive policy
//! improving `server_light_p99_us` by at least that much, without losing
//! more than `"max_throughput_loss_pct"` (default 3) of throughput.
//!
//! A floor entry with no matching point in the bench output is itself a
//! failure — a lane that silently stopped producing the point would
//! otherwise pass forever. Both files are read with the ledger's JSON parser
//! (the repo has no serde).

#[allow(dead_code)] // `render` and `obj` are the ledger's.
#[path = "ledger/json.rs"]
mod json;

use json::Json;

fn num(json: &Json, key: &str) -> Option<f64> {
    json.get(key).and_then(Json::as_f64)
}

fn text<'a>(json: &'a Json, key: &str) -> Option<&'a str> {
    json.get(key).and_then(Json::as_str)
}

fn array<'a>(json: &'a Json, key: &str) -> Option<&'a [Json]> {
    match json.get(key)? {
        Json::Arr(items) => Some(items),
        _ => None,
    }
}

/// One evaluated bound, for stdout and the step-summary table.
struct Check {
    label: String,
    metric: &'static str,
    measured: String,
    bound: String,
    pass: bool,
}

fn main() {
    let (bench_path, baseline_path) = parse_args();
    let bench = load(&bench_path);
    let baseline = load(&baseline_path);
    let mut checks: Vec<Check> = Vec::new();

    let slack = num(&baseline, "slack_pct").unwrap_or(0.0) / 100.0;
    let floors = array(&baseline, "floors").unwrap_or_else(|| {
        eprintln!("{baseline_path}: missing \"floors\" array");
        std::process::exit(2);
    });
    let points = array(&bench, "points").unwrap_or_else(|| {
        eprintln!("{bench_path}: missing \"points\" array");
        std::process::exit(2);
    });

    let mut failures = 0usize;
    for floor in floors {
        let replicas = num(floor, "replicas").unwrap_or(-1.0);
        let clients = num(floor, "clients").unwrap_or(-1.0);
        // Optional: a floor may pin a heartbeat-policy spec; absent, the
        // first matching (replicas, clients) point is checked regardless.
        let heartbeat = text(floor, "heartbeat");
        let mut label = format!("replicas={replicas}");
        if let Some(hb) = heartbeat {
            label.push_str(&format!(" heartbeat={hb}"));
        }
        label.push_str(&format!(" clients={clients}"));
        let Some(point) = points.iter().find(|p| {
            num(p, "replicas") == Some(replicas)
                && num(p, "clients") == Some(clients)
                && heartbeat.is_none_or(|hb| text(p, "heartbeat").unwrap_or("") == hb)
        }) else {
            println!("FAIL [{label}] point missing from {bench_path}");
            checks.push(Check {
                label: label.clone(),
                metric: "point",
                measured: "missing".into(),
                bound: "present".into(),
                pass: false,
            });
            failures += 1;
            continue;
        };

        if let Some(min_tp) = num(floor, "min_throughput_per_s") {
            let bound = min_tp * (1.0 - slack);
            let got = num(point, "throughput_per_s").unwrap_or(0.0);
            let pass = got >= bound;
            if pass {
                println!("PASS [{label}] throughput {got:.0}/s >= floor {bound:.0}/s");
            } else {
                println!(
                    "FAIL [{label}] throughput {got:.0}/s below floor {bound:.0}/s \
                     (baseline {min_tp:.0}/s - {:.0}% slack)",
                    slack * 100.0
                );
                failures += 1;
            }
            checks.push(Check {
                label: label.clone(),
                metric: "throughput",
                measured: format!("{got:.0}/s"),
                bound: format!(">= {bound:.0}/s"),
                pass,
            });
        }
        if let Some(max_p99) = num(floor, "max_light_p99_us") {
            let bound = max_p99 * (1.0 + slack);
            let got = num(point, "light_p99_us").unwrap_or(f64::MAX);
            let pass = got <= bound;
            if pass {
                println!("PASS [{label}] light p99 {got:.0}us <= ceiling {bound:.0}us");
            } else {
                println!(
                    "FAIL [{label}] light p99 {got:.0}us above ceiling {bound:.0}us \
                     (baseline {max_p99:.0}us + {:.0}% slack)",
                    slack * 100.0
                );
                failures += 1;
            }
            checks.push(Check {
                label: label.clone(),
                metric: "light p99",
                measured: format!("{got:.0}us"),
                bound: format!("<= {bound:.0}us"),
                pass,
            });
        }
        if let Some(max_p99) = num(floor, "max_server_light_p99_us") {
            // Server-side end-to-end (Total phase) p99 of the light
            // statement, from the engines' own histograms — unlike the
            // client-side number it excludes bench-thread scheduling noise,
            // so it can carry a tighter ceiling.
            let bound = max_p99 * (1.0 + slack);
            let got = num(point, "server_light_p99_us").unwrap_or(f64::MAX);
            let pass = got <= bound;
            if pass {
                println!("PASS [{label}] server light p99 {got:.0}us <= ceiling {bound:.0}us");
            } else {
                println!(
                    "FAIL [{label}] server light p99 {got:.0}us above ceiling {bound:.0}us \
                     (baseline {max_p99:.0}us + {:.0}% slack)",
                    slack * 100.0
                );
                failures += 1;
            }
            checks.push(Check {
                label: label.clone(),
                metric: "server light p99",
                measured: format!("{got:.0}us"),
                bound: format!("<= {bound:.0}us"),
                pass,
            });
        }
        if let Some(min_updates) = num(floor, "min_updates_ok") {
            let bound = min_updates * (1.0 - slack);
            let got = num(point, "updates_ok").unwrap_or(0.0);
            let pass = got >= bound;
            if pass {
                println!("PASS [{label}] {got:.0} concurrent updates >= floor {bound:.0}");
            } else {
                println!(
                    "FAIL [{label}] only {got:.0} concurrent updates ran, floor {bound:.0} \
                     (the write-load soak exercised nothing)"
                );
                failures += 1;
            }
            checks.push(Check {
                label: label.clone(),
                metric: "updates ok",
                measured: format!("{got:.0}"),
                bound: format!(">= {bound:.0}"),
                pass,
            });
        }
        if let Some(max_errors) = num(floor, "max_errors") {
            let got = num(point, "errors").unwrap_or(f64::MAX);
            let pass = got <= max_errors;
            if pass {
                println!("PASS [{label}] {got:.0} errors <= budget {max_errors:.0}");
            } else {
                println!("FAIL [{label}] {got:.0} errors > budget {max_errors:.0}");
                failures += 1;
            }
            checks.push(Check {
                label: label.clone(),
                metric: "errors",
                measured: format!("{got:.0}"),
                bound: format!("<= {max_errors:.0}"),
                pass,
            });
        }
    }

    // Adaptive-vs-fixed heartbeat comparison *within this run*: when the
    // baseline sets `min_light_p99_improvement_pct`, every sweep point that
    // exists under both a `fixed:*` and an `adaptive:*` heartbeat must show
    // the adaptive policy cutting the server-side light p99 by at least that
    // much — and (guarded by `max_throughput_loss_pct`, default 3) without
    // giving up more than a sliver of throughput. Both points come from the
    // same process run on the same machine, so `slack_pct` (which absorbs
    // runner-to-runner variance) deliberately does NOT widen these bounds —
    // it would defeat the improvement requirement; pick the margin via
    // `min_light_p99_improvement_pct` itself.
    if let Some(min_improvement) = num(&baseline, "min_light_p99_improvement_pct") {
        let max_loss = num(&baseline, "max_throughput_loss_pct").unwrap_or(3.0);
        let mut pairs = 0usize;
        for fixed in points {
            let Some(hb_fixed) = text(fixed, "heartbeat") else {
                continue;
            };
            if !hb_fixed.starts_with("fixed:") {
                continue;
            }
            let Some(adaptive) = points.iter().find(|p| {
                text(p, "heartbeat").is_some_and(|h| h.starts_with("adaptive:"))
                    && num(p, "replicas") == num(fixed, "replicas")
                    && num(p, "clients") == num(fixed, "clients")
            }) else {
                continue;
            };
            pairs += 1;
            let label = format!(
                "replicas={} clients={} {} vs {}",
                num(fixed, "replicas").unwrap_or(-1.0),
                num(fixed, "clients").unwrap_or(-1.0),
                text(adaptive, "heartbeat").unwrap_or("?"),
                hb_fixed,
            );
            let fixed_p99 = num(fixed, "server_light_p99_us").unwrap_or(0.0);
            let adaptive_p99 = num(adaptive, "server_light_p99_us").unwrap_or(f64::MAX);
            let bound = fixed_p99 * (1.0 - min_improvement / 100.0);
            let delta_pct = if fixed_p99 > 0.0 {
                (fixed_p99 - adaptive_p99) / fixed_p99 * 100.0
            } else {
                0.0
            };
            let pass = adaptive_p99 <= bound;
            if pass {
                println!(
                    "PASS [{label}] adaptive server light p99 {adaptive_p99:.0}us <= \
                     {bound:.0}us ({delta_pct:+.1}% vs fixed {fixed_p99:.0}us)"
                );
            } else {
                println!(
                    "FAIL [{label}] adaptive server light p99 {adaptive_p99:.0}us above \
                     {bound:.0}us — needs >= {min_improvement:.0}% improvement over fixed \
                     {fixed_p99:.0}us, measured {delta_pct:+.1}%"
                );
                failures += 1;
            }
            checks.push(Check {
                label: label.clone(),
                metric: "adaptive p99 delta",
                measured: format!("{adaptive_p99:.0}us ({delta_pct:+.1}%)"),
                bound: format!("<= {bound:.0}us"),
                pass,
            });
            let fixed_tp = num(fixed, "throughput_per_s").unwrap_or(0.0);
            let adaptive_tp = num(adaptive, "throughput_per_s").unwrap_or(0.0);
            let tp_bound = fixed_tp * (1.0 - max_loss / 100.0);
            let tp_pass = adaptive_tp >= tp_bound;
            if tp_pass {
                println!(
                    "PASS [{label}] adaptive throughput {adaptive_tp:.0}/s >= {tp_bound:.0}/s \
                     (fixed {fixed_tp:.0}/s, loss budget {max_loss:.0}%)"
                );
            } else {
                println!(
                    "FAIL [{label}] adaptive throughput {adaptive_tp:.0}/s below {tp_bound:.0}/s \
                     — gave up more than {max_loss:.0}% vs fixed {fixed_tp:.0}/s"
                );
                failures += 1;
            }
            checks.push(Check {
                label,
                metric: "adaptive throughput",
                measured: format!("{adaptive_tp:.0}/s"),
                bound: format!(">= {tp_bound:.0}/s"),
                pass: tp_pass,
            });
        }
        if pairs == 0 {
            // A lane that stopped sweeping both policies must not pass silently.
            println!(
                "FAIL [adaptive-vs-fixed] no (fixed, adaptive) heartbeat point pair in \
                 {bench_path}"
            );
            checks.push(Check {
                label: "adaptive-vs-fixed".into(),
                metric: "pair",
                measured: "missing".into(),
                bound: "present".into(),
                pass: false,
            });
            failures += 1;
        }
    }
    write_step_summary(&bench_path, slack, &checks, failures);
    if failures > 0 {
        eprintln!("{failures} regression check(s) failed");
        std::process::exit(1);
    }
    println!("all regression checks passed");
}

/// Appends a measured-vs-floor markdown table to `$GITHUB_STEP_SUMMARY`, so
/// perf-gate results are readable from the job page without downloading the
/// bench artifact. A no-op outside GitHub Actions.
fn write_step_summary(bench_path: &str, slack: f64, checks: &[Check], failures: usize) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let mut summary = String::new();
    let verdict = if failures == 0 {
        "all checks passed"
    } else {
        "REGRESSION"
    };
    summary.push_str(&format!(
        "### Perf gate: `{bench_path}` — {verdict}\n\n\
         Bounds include {:.0}% slack over the committed baseline.\n\n\
         | Point | Metric | Measured | Bound | Status |\n\
         |---|---|---|---|---|\n",
        slack * 100.0
    ));
    for check in checks {
        summary.push_str(&format!(
            "| {} | {} | {} | {} | {} |\n",
            check.label,
            check.metric,
            check.measured,
            check.bound,
            if check.pass { "✅ pass" } else { "❌ FAIL" }
        ));
    }
    summary.push('\n');
    use std::io::Write;
    match std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&path)
    {
        Ok(mut file) => {
            if let Err(e) = file.write_all(summary.as_bytes()) {
                eprintln!("cannot write step summary {path}: {e}");
            }
        }
        Err(e) => eprintln!("cannot open step summary {path}: {e}"),
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

fn parse_args() -> (String, String) {
    let mut bench = "BENCH_server_throughput.json".to_string();
    let mut baseline = "crates/bench/baselines/BENCH_baseline.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bench" => bench = args.next().unwrap_or_else(|| usage("--bench needs PATH")),
            "--baseline" => {
                baseline = args
                    .next()
                    .unwrap_or_else(|| usage("--baseline needs PATH"))
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    (bench, baseline)
}

fn usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: check_regression [--bench PATH] [--baseline PATH]");
    std::process::exit(2);
}

/// The contract `json.rs`'s own tests parse, at the root of this crate as in
/// the ledger's.
#[cfg(test)]
const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_of_a_bench_point_read_by_name() {
        let bench =
            Json::parse(r#"{"points": [{"replicas": 4, "heartbeat": "fixed:2ms", "floors": 3}]}"#)
                .unwrap();
        let point = &array(&bench, "points").unwrap()[0];
        assert_eq!(num(point, "replicas"), Some(4.0));
        assert_eq!(text(point, "heartbeat"), Some("fixed:2ms"));
        assert_eq!(array(point, "floors"), None);
        assert_eq!(num(point, "clients"), None);
    }
}
