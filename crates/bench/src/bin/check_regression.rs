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
//! otherwise pass forever. The JSON parser below is deliberately minimal
//! (objects, arrays, strings, numbers, booleans, null): the repo has no
//! serde, and both input files are machine-written.

use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Minimal JSON
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(HashMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    fn num(&self, key: &str) -> Option<f64> {
        match self.get(key)? {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn arr(&self, key: &str) -> Option<&[Json]> {
        match self.get(key)? {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn str_of(&self, key: &str) -> Option<&str> {
        match self.get(key)? {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = self
                        .bytes
                        .get(self.pos)
                        .ok_or("unterminated escape".to_string())?;
                    out.push(match escaped {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'u' => {
                            // Accept \uXXXX (BMP only — enough for these files).
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("bad unicode escape".to_string())?;
                            self.pos += 4;
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        other => *other as char,
                    });
                    self.pos += 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|b| *b != b'"' && *b != b'\\')
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid utf8".to_string())?,
                    );
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected , or ] at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = HashMap::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected , or }} at offset {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------------

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

    let slack = baseline.num("slack_pct").unwrap_or(0.0) / 100.0;
    let floors = baseline.arr("floors").unwrap_or_else(|| {
        eprintln!("{baseline_path}: missing \"floors\" array");
        std::process::exit(2);
    });
    let points = bench.arr("points").unwrap_or_else(|| {
        eprintln!("{bench_path}: missing \"points\" array");
        std::process::exit(2);
    });

    let mut failures = 0usize;
    for floor in floors {
        let replicas = floor.num("replicas").unwrap_or(-1.0);
        let clients = floor.num("clients").unwrap_or(-1.0);
        // Optional: a floor may pin a heartbeat-policy spec; absent, the
        // first matching (replicas, clients) point is checked regardless.
        let heartbeat = floor.str_of("heartbeat");
        let mut label = format!("replicas={replicas}");
        if let Some(hb) = heartbeat {
            label.push_str(&format!(" heartbeat={hb}"));
        }
        label.push_str(&format!(" clients={clients}"));
        let Some(point) = points.iter().find(|p| {
            p.num("replicas") == Some(replicas)
                && p.num("clients") == Some(clients)
                && heartbeat.is_none_or(|hb| p.str_of("heartbeat").unwrap_or("") == hb)
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

        if let Some(min_tp) = floor.num("min_throughput_per_s") {
            let bound = min_tp * (1.0 - slack);
            let got = point.num("throughput_per_s").unwrap_or(0.0);
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
        if let Some(max_p99) = floor.num("max_light_p99_us") {
            let bound = max_p99 * (1.0 + slack);
            let got = point.num("light_p99_us").unwrap_or(f64::MAX);
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
        if let Some(max_p99) = floor.num("max_server_light_p99_us") {
            // Server-side end-to-end (Total phase) p99 of the light
            // statement, from the engines' own histograms — unlike the
            // client-side number it excludes bench-thread scheduling noise,
            // so it can carry a tighter ceiling.
            let bound = max_p99 * (1.0 + slack);
            let got = point.num("server_light_p99_us").unwrap_or(f64::MAX);
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
        if let Some(min_updates) = floor.num("min_updates_ok") {
            let bound = min_updates * (1.0 - slack);
            let got = point.num("updates_ok").unwrap_or(0.0);
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
        if let Some(max_errors) = floor.num("max_errors") {
            let got = point.num("errors").unwrap_or(f64::MAX);
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
    if let Some(min_improvement) = baseline.num("min_light_p99_improvement_pct") {
        let max_loss = baseline.num("max_throughput_loss_pct").unwrap_or(3.0);
        let mut pairs = 0usize;
        for fixed in points {
            let Some(hb_fixed) = fixed.str_of("heartbeat") else {
                continue;
            };
            if !hb_fixed.starts_with("fixed:") {
                continue;
            }
            let Some(adaptive) = points.iter().find(|p| {
                p.str_of("heartbeat")
                    .is_some_and(|h| h.starts_with("adaptive:"))
                    && p.num("replicas") == fixed.num("replicas")
                    && p.num("clients") == fixed.num("clients")
            }) else {
                continue;
            };
            pairs += 1;
            let label = format!(
                "replicas={} clients={} {} vs {}",
                fixed.num("replicas").unwrap_or(-1.0),
                fixed.num("clients").unwrap_or(-1.0),
                adaptive.str_of("heartbeat").unwrap_or("?"),
                hb_fixed,
            );
            let fixed_p99 = fixed.num("server_light_p99_us").unwrap_or(0.0);
            let adaptive_p99 = adaptive.num("server_light_p99_us").unwrap_or(f64::MAX);
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
            let fixed_tp = fixed.num("throughput_per_s").unwrap_or(0.0);
            let adaptive_tp = adaptive.num("throughput_per_s").unwrap_or(0.0);
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
    Parser::parse(&text).unwrap_or_else(|e| {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_roundtrips_bench_shape() {
        let json = Parser::parse(
            r#"{"bench": "x", "points": [{"replicas": 4, "clients": 64,
                "throughput_per_s": 1234.5, "errors": 0, "nested": [1, -2.5e1],
                "flag": true, "nothing": null, "esc": "a\"b\nA"}]}"#,
        )
        .unwrap();
        let points = json.arr("points").unwrap();
        assert_eq!(points[0].num("replicas"), Some(4.0));
        assert_eq!(points[0].num("throughput_per_s"), Some(1234.5));
        assert_eq!(
            points[0].get("esc"),
            Some(&Json::Str("a\"b\nA".to_string()))
        );
        assert_eq!(
            points[0].get("nested"),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(-25.0)]))
        );
        assert!(Parser::parse("{\"a\": }").is_err());
        assert!(Parser::parse("[1, 2] trailing").is_err());
    }
}
