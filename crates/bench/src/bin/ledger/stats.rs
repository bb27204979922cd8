//! Harness arithmetic: percentiles, medians, `/proc` CPU and memory readings.

use std::time::Duration;

/// Median of a non-empty sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The distance between the first and third quartile as a share of the
/// median, quartiles as Python's `statistics.quantiles(values, n=4)` gives
/// them: the run-to-run spread the driver holds against a metric's bound.
/// `None` below two values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let position = i * (sorted.len() + 1);
        let below = (position / 4).clamp(1, sorted.len() - 1);
        let weight = position as f64 / 4.0 - below as f64;
        sorted[below - 1] + (sorted[below] - sorted[below - 1]) * weight
    };
    Some((quartile(3) - quartile(1)) / median(&sorted))
}

/// The quantile actually reported when `q` is asked of `n` samples: the
/// highest one not above `q` that still has at least ten samples beyond it
/// (the median when the sample is too small for even that).
pub fn supported_quantile(n: usize, q: f64) -> f64 {
    if n < 20 {
        return 0.5;
    }
    q.min(1.0 - 10.0 / n as f64).max(0.5)
}

/// Nearest-rank percentile of an ascending sample at the supported quantile.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let q = supported_quantile(sorted.len(), q);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `utime + stime` in clock ticks from the text of a `/proc/.../stat` file.
/// The command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command name come state (field 3) … utime is field 14 and
    // stime field 15, i.e. the 12th and 13th fields of `rest`.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Linux reports `/proc` times in `USER_HZ` ticks, which is 100 on every
/// supported architecture regardless of the kernel's own `HZ`.
const TICKS_PER_SECOND: f64 = 100.0;

/// A reading that cannot be taken is an error, never a silent zero: CPU per
/// statement is a difference of these.
fn cpu_seconds(path: &str) -> Result<f64, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let ticks = parse_stat_ticks(&text).ok_or(format!("{path}: no utime/stime fields"))?;
    Ok(ticks as f64 / TICKS_PER_SECOND)
}

/// CPU seconds used so far by the whole process, all threads.
pub fn process_cpu_seconds() -> Result<f64, String> {
    cpu_seconds("/proc/self/stat")
}

/// CPU seconds used so far by the calling thread.
pub fn thread_cpu_seconds() -> Result<f64, String> {
    cpu_seconds("/proc/thread-self/stat")
}

/// Seconds the hypervisor ran something else while a CPU of this guest was
/// runnable, summed over its CPUs since boot (field `steal` of the first
/// line of `/proc/stat`).
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let mut fields = stat.lines().next()?.split_ascii_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    fields.nth(7)?.parse().ok()
}

pub fn host_steal_seconds() -> Result<f64, String> {
    let path = "/proc/stat";
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let ticks = parse_steal_ticks(&text).ok_or(format!("{path}: no steal field"))?;
    Ok(ticks as f64 / TICKS_PER_SECOND)
}

/// A `kB` field of `/proc/self/status` in MiB.
pub fn parse_status_mib(status: &str, field: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..]
        .trim_start_matches(':')
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let path = "/proc/self/status";
    let status = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_status_mib(&status, "VmHWM").ok_or(format!("{path}: no VmHWM field"))
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // Median of slices: one disturbed slice out of five cannot move it.
        assert_eq!(median(&[10.0, 10.5, 99.0, 9.5, 10.2]), 10.2);
    }

    #[test]
    fn quartile_spread_matches_pythons_exclusive_quantiles() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // == [3.5, 13.5, 31.0]
        let values = [46.0, 1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0];
        assert!((quartile_spread(&values).unwrap() - 27.5 / 13.5).abs() < 1e-12);
        // quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]: extrapolated ends.
        assert!((quartile_spread(&[10.0, 20.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        // 1000 samples: p95 has 50 beyond it, p99 exactly 10.
        assert_eq!(supported_quantile(1000, 0.95), 0.95);
        assert_eq!(supported_quantile(1000, 0.99), 0.99);
        // 500 samples: p99 would leave 5 beyond, so it is lowered to p98.
        assert!((supported_quantile(500, 0.99) - 0.98).abs() < 1e-12);
        // 100 samples support p90 at most; fewer than 20 only the median.
        assert!((supported_quantile(100, 0.95) - 0.90).abs() < 1e-12);
        assert_eq!(supported_quantile(19, 0.95), 0.5);

        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 500.0);
        assert_eq!(percentile(&sorted, 0.95), 950.0);
        let small: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&small, 0.95), 90.0);
    }

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let stat = "4242 (ledger) R) x) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    137 45 0 0 20 0 7 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(137 + 45));
        assert_eq!(parse_stat_ticks("garbage"), None);
        assert_eq!(parse_stat_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn own_cpu_time_advances() {
        let before = thread_cpu_seconds().unwrap();
        let spun = Instant::now();
        while spun.elapsed() < Duration::from_millis(40) {
            std::hint::spin_loop();
        }
        let after = thread_cpu_seconds().unwrap();
        assert!(after > before, "{before} -> {after}");
        assert!(process_cpu_seconds().unwrap() >= after - before);
        assert!(cpu_seconds("/proc/self/no-such-file").is_err());
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_cpu_line() {
        let stat =
            "cpu  1507667 0 223753 1813717 10730 0 45188 23543 0 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n";
        assert_eq!(parse_steal_ticks(stat), Some(23543));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3"), None);
        assert!(host_steal_seconds().unwrap() >= 0.0);
    }

    #[test]
    fn status_field_in_mib() {
        let status = "Name:\tledger\nVmPeak:\t  900000 kB\nVmHWM:\t  262144 kB\n";
        assert_eq!(parse_status_mib(status, "VmHWM"), Some(256.0));
        assert_eq!(parse_status_mib(status, "VmSwap"), None);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
