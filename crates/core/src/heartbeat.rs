//! The adaptive heartbeat controller: one decision per observation window,
//! on the coordinator thread, from numbers the engine already records.

use crate::admission::Lane;
use crate::config::HeartbeatPolicy;
use crate::engine::EngineInner;
use crate::stats::Phase;
use crate::trace::TraceEvent;
use shareddb_common::metrics::HistogramSnapshot;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Multiplicative steps of the adaptive heartbeat controller. Shrinking is
/// stronger than growth and a dead band separates the two pressure
/// thresholds, so the interval converges instead of oscillating.
const HEARTBEAT_SHRINK: f64 = 0.75;
const HEARTBEAT_GROW: f64 = 1.25;
/// Queue pressure (admitted + still queued) at or above which the interval
/// grows — a longer heavy cycle amortizes shared work over more queries.
const GROW_PRESSURE: usize = 16;
/// Queue pressure at or below which the interval shrinks back toward `min`.
const SHRINK_PRESSURE: usize = 4;
/// Fresh light-lane completions required before the controller rolls its
/// p99 observation window.
const WINDOW_MIN_SAMPLES: u64 = 8;

/// The per-replica adaptive heartbeat controller (runs on the coordinator
/// thread, one `step` per batch).
///
/// The control signal is the light lane's windowed p99 (diff of the
/// cumulative Total-phase histogram over the light statement types) plus the
/// admission-queue pressure; the actuator is the heavy-lane admission
/// interval (the light lane is never gated, so a longer interval only
/// *spaces out* heavy cycles). Light p99 over target or a standing backlog →
/// grow: heavy batches run less often, each one amortizes the shared
/// operators over more of the backlog, and fewer light queries land behind
/// an in-flight heavy cycle. Near-idle with latency headroom → shrink back
/// toward `min`, keeping heavy admission latency low when there is nothing
/// to protect. Anything between the thresholds holds the interval
/// (hysteresis), and the asymmetric step sizes bias toward meeting the SLO.
pub(crate) struct HeartbeatController {
    policy: HeartbeatPolicy,
    /// The statement types classified light — the set whose merged
    /// `Total`-phase histogram the p99 is read from.
    light_indices: Vec<usize>,
    /// Cumulative light-lane Total-phase histogram at the last window
    /// rollover; diffed against the live histogram to get a windowed p99.
    window_base: HistogramSnapshot,
    /// When the current observation window opened.
    window_started: Instant,
    /// Largest admission pressure (batch size + remaining backlog) seen
    /// during the current window.
    peak_pressure: usize,
    /// Light p99 of the last completed window, µs (0 until the first window
    /// fills — the controller only grows once it has evidence of headroom).
    light_p99_us: u64,
}

impl HeartbeatController {
    pub fn new(policy: HeartbeatPolicy, lanes: &[Lane]) -> HeartbeatController {
        let light = |(index, lane): (usize, &Lane)| (*lane == Lane::Light).then_some(index);
        HeartbeatController {
            policy,
            light_indices: lanes.iter().enumerate().filter_map(light).collect(),
            window_base: HistogramSnapshot::default(),
            window_started: Instant::now(),
            peak_pressure: 0,
            light_p99_us: 0,
        }
    }

    /// One control step after a batch: `admitted` submissions were drained
    /// into it and `backlog` remained queued. Returns the interval for the
    /// next cycle and publishes it (and the adjustment counter) on `inner`;
    /// a change is written to the trace journal with the two numbers that
    /// decided it.
    ///
    /// A decision is made at most once per observation window, and a window
    /// closes only after spanning at least two heavy cycles at the current
    /// interval — a shorter window mostly samples the gaps *between* heavy
    /// admissions, reads a calm p99, and shrinks the interval right before
    /// the next heavy cycle proves it wrong (the oscillation this rule
    /// exists to prevent). Between rollovers the interval holds.
    pub fn step(&mut self, inner: &EngineInner, admitted: usize, backlog: usize) -> Duration {
        let HeartbeatPolicy::Adaptive {
            min,
            max,
            target_light_p99,
        } = self.policy
        else {
            return self.policy.initial_interval();
        };
        let interval = Duration::from_micros(inner.heartbeat_us.load(Ordering::Relaxed));
        self.peak_pressure = self.peak_pressure.max(admitted + backlog);
        if self.window_started.elapsed() < interval * 2 {
            return interval;
        }
        let live = inner.stats.merged_phase(&self.light_indices, Phase::Total);
        let window = live.diff(&self.window_base);
        let have_samples = window.count >= WINDOW_MIN_SAMPLES;
        if !have_samples && self.peak_pressure < GROW_PRESSURE {
            // Not enough light completions to judge the tail and no heavy
            // backlog to react to: keep accumulating.
            return interval;
        }
        if have_samples {
            self.light_p99_us = window.percentile_us(0.99);
        }
        let target_us = target_light_p99.as_micros() as u64;
        let proposed = if self.light_p99_us > target_us || self.peak_pressure >= GROW_PRESSURE {
            interval.mul_f64(HEARTBEAT_GROW)
        } else if self.peak_pressure <= SHRINK_PRESSURE && self.light_p99_us <= target_us / 2 {
            interval.mul_f64(HEARTBEAT_SHRINK)
        } else {
            interval
        };
        let next = Duration::from_micros(proposed.clamp(min, max).as_micros() as u64);
        if next != interval {
            inner
                .heartbeat_us
                .store(next.as_micros() as u64, Ordering::Relaxed);
            inner.heartbeat_adjustments.fetch_add(1, Ordering::Relaxed);
            inner.trace.push(TraceEvent::HeartbeatAdjusted {
                from_us: interval.as_micros() as u64,
                to_us: next.as_micros() as u64,
                light_p99_us: self.light_p99_us,
                peak_pressure: self.peak_pressure,
            });
        }
        self.window_base = live;
        self.window_started = Instant::now();
        self.peak_pressure = 0;
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::engine::tests::build_engine;
    use crate::engine::Engine;
    use shareddb_common::Value;

    // -- adaptive heartbeat controller --------------------------------------

    /// Heavy backlog with latency headroom grows the interval toward `max`;
    /// a subsequent light-only phase drifts it back down to `min`.
    #[test]
    fn adaptive_interval_tracks_load() {
        // Generous 50ms target: the tiny fixture never exceeds it, so the
        // only active control rules are grow-under-pressure and
        // drift-when-idle.
        let policy = HeartbeatPolicy::Adaptive {
            min: Duration::from_micros(500),
            max: Duration::from_millis(20),
            target_light_p99: Duration::from_millis(50),
        };
        let min = Duration::from_micros(500);
        let engine = build_engine(EngineConfig::default().heartbeat_policy(policy));
        assert_eq!(engine.heartbeat_interval(), min);
        // Waves of concurrent heavy queries: pressure >= GROW_PRESSURE per
        // batch, light p99 far under target/2.
        for _ in 0..6 {
            let wave: Vec<_> = (0..24)
                .map(|_| engine.execute("topOrders", &[Value::Float(0.0)]).unwrap())
                .collect();
            for h in wave {
                h.wait().unwrap();
            }
        }
        let grown = engine.heartbeat_interval();
        assert!(
            grown > min,
            "interval should grow under heavy backlog, still at {grown:?}"
        );
        assert!(engine.heartbeat_adjustments() > 0);
        // Why it grew is in the journal: the first change left the floor
        // under a pressure at or over the growth threshold.
        let first_change = engine.trace().into_iter().find_map(|r| match r.event {
            TraceEvent::HeartbeatAdjusted {
                from_us,
                to_us,
                peak_pressure,
                ..
            } => Some((from_us, to_us > from_us, peak_pressure >= GROW_PRESSURE)),
            _ => None,
        });
        assert_eq!(first_change, Some((500, true, true)));
        // Light-only phase: single-statement batches keep pressure under
        // SHRINK_PRESSURE, so the interval decays back to the floor — one
        // shrink step per observation window (each spanning twice the
        // current interval), hence the deadline loop.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut i = 0i64;
        while engine.heartbeat_interval() > min && Instant::now() < deadline {
            engine
                .execute_sync("userById", &[Value::Int(i % 100)])
                .unwrap();
            i += 1;
        }
        assert_eq!(
            engine.heartbeat_interval(),
            min,
            "interval should drift back to min in a light phase"
        );
    }

    /// The adaptive policy keeps light p99 under the target where a fixed
    /// interval pinned at the adaptive `max` (the negative control)
    /// violates it: light queries there wait out the full batch pacing.
    #[test]
    fn adaptive_meets_light_slo_where_fixed_max_does_not() {
        let target = Duration::from_millis(5);
        let light_p99 = |engine: &Engine| {
            let light: Vec<usize> = (0..6)
                .filter(|&i| matches!(engine.statement_lane(i), Lane::Light))
                .collect();
            engine
                .inner
                .stats
                .merged_phase(&light, Phase::Total)
                .percentile_us(0.99)
        };
        // Negative control: fixed interval at the adaptive max, non-eager,
        // so every light query waits for the 10ms pacing.
        let fixed = build_engine(EngineConfig {
            heartbeat: HeartbeatPolicy::Fixed(Duration::from_millis(10)),
            eager_heartbeat: false,
            ..EngineConfig::default()
        });
        for i in 0..20 {
            fixed
                .execute_sync("userById", &[Value::Int(i % 100)])
                .unwrap();
        }
        let fixed_p99 = light_p99(&fixed);
        assert!(
            fixed_p99 > target.as_micros() as u64,
            "negative control: fixed-max pacing should violate the {target:?} target, p99 {fixed_p99}us"
        );
        // Adaptive with the same max admits light immediately.
        let policy = HeartbeatPolicy::Adaptive {
            min: Duration::from_micros(500),
            max: Duration::from_millis(10),
            target_light_p99: Duration::from_millis(5),
        };
        let adaptive = build_engine(EngineConfig::default().heartbeat_policy(policy));
        for i in 0..20 {
            adaptive
                .execute_sync("userById", &[Value::Int(i % 100)])
                .unwrap();
        }
        let adaptive_p99 = light_p99(&adaptive);
        assert!(
            adaptive_p99 <= target.as_micros() as u64,
            "adaptive policy should keep light p99 under {target:?}, got {adaptive_p99}us"
        );
    }
}
