//! `ledger compare A.jsonl B.jsonl`: two sets of `ledger run --out` results,
//! per workload × end-to-end metric the difference of the sets' medians and
//! each set's own run-to-run spread against the bound `BENCHMARK.json` fixes
//! for that metric — the two things the driver checks.

use crate::json::Json;
use crate::stats::{median, quartile_spread};
use std::collections::BTreeMap;

/// workload → metric → the values of all runs in the file.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = ResultSet::new();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let run = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", number + 1))?;
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("{path}:{}: no workload", number + 1))?;
        let Some(Json::Obj(metrics)) = run.get("result").and_then(|r| r.get("metrics")) else {
            return Err(format!("{path}:{}: no metrics", number + 1));
        };
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

/// How much worse `b` is than `a` as a share of `a`; negative when better.
pub fn worse_by(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let change = (b - a) / a;
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// Prints one row per workload × end-to-end metric. `Ok(false)` when B's
/// median is worse than A's by more than the metric's bound anywhere, or a
/// set's spread exceeds it (`setup_s` is exempt from the latter, as it is in
/// the driver's check).
pub fn compare_files(a_path: &str, b_path: &str) -> Result<bool, String> {
    let contract = Json::parse(crate::BENCHMARK_JSON)?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut within = true;
    let mut largest: f64 = 0.0;
    println!(
        "{:<14} {:<18} {:>12} {:>12} {:>9} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "A spread", "B spread", "bound"
    );
    for (workload, a_metrics) in &a {
        for spec in contract.get("end_to_end").map_or(&[][..], Json::as_array) {
            let name = spec.get("name").and_then(Json::as_str).unwrap_or_default();
            let bound = spec.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let lower = spec.get("better").and_then(Json::as_str) == Some("lower");
            let (Some(a_values), Some(b_values)) = (
                a_metrics.get(name),
                b.get(workload).and_then(|m| m.get(name)),
            ) else {
                return Err(format!("{workload}/{name} is missing from one of the sets"));
            };
            let (a_median, b_median) = (median(a_values), median(b_values));
            let worse = worse_by(a_median, b_median, lower);
            largest = largest.max(worse.abs());
            let spreads = [a_values, b_values].map(|v| quartile_spread(v).unwrap_or(0.0));
            let noisy = name != "setup_s" && spreads.iter().any(|s| *s > bound);
            let verdict = if worse > bound {
                within = false;
                "WORSE"
            } else if noisy {
                within = false;
                "NOISY"
            } else if -worse > bound {
                "better"
            } else {
                "same"
            };
            println!(
                "{workload:<14} {name:<18} {a_median:>12.4} {b_median:>12.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.1}%  {verdict}",
                worse * 100.0,
                spreads[0] * 100.0,
                spreads[1] * 100.0,
                bound * 100.0
            );
        }
    }
    println!(
        "largest difference of medians: {:.2}% ({} runs per workload in A, {} in B)",
        largest * 100.0,
        a.values()
            .next()
            .and_then(|m| m.values().next())
            .map_or(0, Vec::len),
        b.values()
            .next()
            .and_then(|m| m.values().next())
            .map_or(0, Vec::len),
    );
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_follows_the_metric_direction() {
        assert!((worse_by(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worse_by(200.0, 190.0, false) - 0.05).abs() < 1e-12);
    }
}
