//! Lock-free metrics primitives: log-bucketed latency histograms and
//! counters, plus the two helpers the server's `/metrics` renderer writes
//! Prometheus text exposition with ([`escape_label_value`],
//! [`render_summary`]).
//!
//! Hand-rolled in the repo's offline style (no crates.io): a histogram is a
//! fixed-size array of `AtomicU64` buckets with power-of-two boundaries, so
//! recording is a couple of relaxed atomic adds — cheap enough to stay
//! always-on in the engine's hot path — and two histograms merge by adding
//! their buckets, which makes statistics of several sources (statement
//! types, runs) aggregate losslessly (the merged percentile is computed from the merged
//! counts, never approximated from pre-computed percentiles).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of histogram buckets. Bucket 0 holds zero-valued observations;
/// bucket `i` (1 ≤ i < BUCKETS−1) holds values in `[2^(i−1), 2^i − 1]`
/// microseconds; the last bucket is the overflow bucket. 40 buckets cover
/// 1 µs .. ~2.3 hours before overflowing.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Upper bound (inclusive, µs) of bucket `i`; `u64::MAX` for the overflow
/// bucket.
pub fn bucket_upper_bound_us(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

fn bucket_index(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        ((64 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// A lock-free log-bucketed latency histogram (microsecond resolution).
///
/// Recording touches four relaxed atomics (bucket, count, sum, max); there is
/// no lock anywhere, so operator and coordinator threads record concurrently
/// without contention. The exact maximum is tracked separately so the top
/// percentile never reports a bucket bound above the largest value actually
/// observed.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub const fn new() -> Histogram {
        #[allow(clippy::declare_interior_mutable_const)]
        const ZERO: AtomicU64 = AtomicU64::new(0);
        Histogram {
            buckets: [ZERO; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one observation in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Records one duration observation.
    pub fn record(&self, d: Duration) {
        self.record_us(d.as_micros() as u64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations, µs.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Largest observation, µs (exact, not a bucket bound).
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// Upper bound (µs) of the bucket containing the requested percentile
    /// (`0.0..=1.0`), clamped to the exact maximum; 0 when empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        self.snapshot().percentile_us(p)
    }

    /// Adds another histogram's counts into this one.
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_us
            .fetch_add(other.sum_us.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_us
            .fetch_max(other.max_us.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Resets every bucket and counter to zero. Not atomic with respect to
    /// concurrent recorders — a racing observation may straddle the reset —
    /// but never corrupts the histogram beyond an off-by-a-few count, which
    /// is the standard contract for bench warm-up resets.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum_us.store(0, Ordering::Relaxed);
        self.max_us.store(0, Ordering::Relaxed);
    }

    /// Consistent-enough point-in-time copy of the counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for (dst, src) in counts.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            counts,
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`], mergeable and serialisable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`bucket_upper_bound_us`]).
    pub counts: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of observations, µs.
    pub sum_us: u64,
    /// Exact maximum observation, µs.
    pub max_us: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl HistogramSnapshot {
    /// True when no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observation, µs.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Upper bound (µs) of the bucket containing the requested percentile
    /// (`0.0..=1.0`), clamped to the exact maximum; 0 when empty.
    ///
    /// The clamp makes `percentile_us(1.0)` exactly the maximum, and keeps
    /// every lower percentile from exceeding it — so p50 ≤ p95 ≤ p99 ≤ max
    /// always holds.
    pub fn percentile_us(&self, p: f64) -> u64 {
        // Sum the buckets rather than trusting `count`: a racing recorder may
        // have bumped one before the other was read.
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound_us(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Adds another snapshot's counts into this one.
    pub fn merge_from(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Escapes a string for use inside a Prometheus label value (the text
/// exposition format requires `\`, `"` and newline escaped as `\\`, `\"` and
/// `\n`). Auto-parameterised ad-hoc statement names can carry arbitrary SQL
/// fragments, so every statement/operator label must pass through here.
/// Borrows when no escaping is needed (the overwhelmingly common case).
pub fn escape_label_value(s: &str) -> std::borrow::Cow<'_, str> {
    if !s.contains(['\\', '"', '\n']) {
        return std::borrow::Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    std::borrow::Cow::Owned(out)
}

/// Renders one histogram snapshot as a Prometheus summary series
/// (`quantile` labels plus `_sum` and `_count`, the two companions the text
/// format gives a summary). `name` may already carry labels; quantile labels
/// are merged in.
pub fn render_summary(out: &mut String, name: &str, snap: &HistogramSnapshot) {
    let (base, labels) = match name.find('{') {
        Some(i) => (&name[..i], name[i + 1..name.len() - 1].to_string()),
        None => (name, String::new()),
    };
    let sep = if labels.is_empty() { "" } else { "," };
    for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
        out.push_str(&format!(
            "{base}{{{labels}{sep}quantile=\"{label}\"}} {}\n",
            snap.percentile_us(q)
        ));
    }
    let brace = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("{base}_sum{brace} {}\n", snap.sum_us));
    out.push_str(&format!("{base}_count{brace} {}\n", snap.count));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bucket_bounds_are_monotone_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_upper_bound_us(i) > bucket_upper_bound_us(i - 1));
            // Every value maps into the bucket whose bound we report.
            let bound = bucket_upper_bound_us(i);
            if bound != u64::MAX {
                assert_eq!(bucket_index(bound), i);
                assert_eq!(bucket_index(bound + 1), i + 1);
            }
        }
    }

    #[test]
    fn percentiles_are_exact_on_bucket_bounds_and_monotone() {
        let h = Histogram::new();
        assert_eq!(h.percentile_us(0.99), 0);
        for _ in 0..99 {
            h.record_us(40);
        }
        h.record_us(40_000);
        assert_eq!(h.count(), 100);
        // 40 lands in bucket [32,63]; p50 reports 63. 40_000 lands in
        // [32768,65535]; its bound exceeds the exact max, so p100 is 40_000.
        assert_eq!(h.percentile_us(0.5), 63);
        assert_eq!(h.percentile_us(1.0), 40_000);
        let p50 = h.percentile_us(0.50);
        let p95 = h.percentile_us(0.95);
        let p99 = h.percentile_us(0.99);
        assert!(p50 <= p95 && p95 <= p99 && p99 <= h.max_us());
    }

    #[test]
    fn merge_equals_single_histogram() {
        let parts: Vec<Histogram> = (0..4).map(|_| Histogram::new()).collect();
        let single = Histogram::new();
        for (i, v) in [3u64, 17, 250, 999, 12_345, 7, 0, 88].iter().enumerate() {
            parts[i % 4].record_us(*v);
            single.record_us(*v);
        }
        let merged = Histogram::new();
        for p in &parts {
            merged.merge_from(p);
        }
        assert_eq!(merged.snapshot(), single.snapshot());
        // Snapshot-level merge agrees with histogram-level merge.
        let mut snap = HistogramSnapshot::default();
        for p in &parts {
            snap.merge_from(&p.snapshot());
        }
        assert_eq!(snap, single.snapshot());
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_us(t * 1000 + i % 500);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 80_000);
        assert_eq!(h.snapshot().counts.iter().sum::<u64>(), 80_000);
    }

    #[test]
    fn reset_clears_everything() {
        let h = Histogram::new();
        h.record_us(123);
        h.record_us(456_789);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum_us(), 0);
        assert_eq!(h.max_us(), 0);
        assert_eq!(h.percentile_us(0.99), 0);
    }

    #[test]
    fn label_values_escape_quotes_backslashes_newlines() {
        use std::borrow::Cow;
        // The common case borrows (no allocation on the scrape path).
        assert!(matches!(
            escape_label_value("getItemById"),
            Cow::Borrowed("getItemById")
        ));
        assert_eq!(
            escape_label_value(r#"q_select_"I_TITLE"_from\items"#),
            r#"q_select_\"I_TITLE\"_from\\items"#
        );
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
    }
}
