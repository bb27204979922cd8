//! Engine configuration.

use std::time::Duration;

/// How the coordinator picks the interval between two heartbeats.
///
/// The paper's central trade-off is batch size vs. latency: a longer
/// heartbeat amortizes shared operators over more queries, a shorter one
/// keeps light queries fast. `Fixed` pins the interval; `Adaptive` lets the
/// coordinator steer it each batch between `min` and `max` from the
/// admission-queue depth and the live light-query p99 (drawn from the
/// engine's phase histograms), with hysteresis so it converges instead of
/// oscillating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatPolicy {
    /// Constant interval. Under [`EngineConfig::eager_heartbeat`] (the
    /// default) it paces nothing: a batch forms as soon as work is queued and
    /// the previous batch is done, and the interval is only reported.
    Fixed(Duration),
    /// Controller-steered interval.
    Adaptive {
        /// Lower bound of the interval (latency floor).
        min: Duration,
        /// Upper bound of the interval (amortization ceiling).
        max: Duration,
        /// Light-query p99 the controller defends: the interval shrinks while
        /// the observed light p99 exceeds this target.
        target_light_p99: Duration,
    },
}

impl HeartbeatPolicy {
    /// The interval the coordinator starts with: the fixed interval, or the
    /// adaptive floor (latency-safe; the controller grows it under backlog).
    pub fn initial_interval(&self) -> Duration {
        match *self {
            HeartbeatPolicy::Fixed(d) => d,
            HeartbeatPolicy::Adaptive { min, .. } => min,
        }
    }

    /// True for [`HeartbeatPolicy::Adaptive`].
    pub fn is_adaptive(&self) -> bool {
        matches!(self, HeartbeatPolicy::Adaptive { .. })
    }
}

/// Configuration of the batched SharedDB runtime.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Interval policy between two heartbeats when queries keep arriving. The
    /// paper uses heartbeats "in the order of one second or even less" for
    /// OLTP workloads; the default here is much smaller because the
    /// reproduced experiments run at laptop scale.
    pub heartbeat: HeartbeatPolicy,
    /// Number of CPU cores the engine may use concurrently — the `maxcpus`
    /// knob of Section 5.1. It is the number of threads that run operator
    /// cycles: the coordinator plus `core_budget − 1` pool threads (no
    /// semaphore: a thread that does not exist cannot take a core).
    /// `usize::MAX`, the default, means the machine's
    /// `available_parallelism()`.
    pub core_budget: usize,
    /// If true, the engine processes an available batch immediately instead of
    /// waiting for the full heartbeat interval (keeps latency low under light
    /// load; the paper's worst case of one queueing cycle still holds).
    pub eager_heartbeat: bool,
    /// Statements whose end-to-end latency reaches this threshold are written
    /// to the engine's slow-query log with their full phase breakdown
    /// (admission / batch-wait / execute). `None` disables the log.
    pub slow_query_threshold: Option<Duration>,
    /// Capacity (in events) of the batch-lifecycle trace journal — a bounded
    /// ring, so tracing is always-on with fixed memory. `0` disables tracing.
    pub trace_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            heartbeat: HeartbeatPolicy::Fixed(Duration::from_millis(2)),
            core_budget: usize::MAX,
            eager_heartbeat: true,
            slow_query_threshold: None,
            trace_capacity: 1024,
        }
    }
}

impl EngineConfig {
    /// Configuration with a fixed core budget.
    pub fn with_cores(cores: usize) -> Self {
        EngineConfig {
            core_budget: cores.max(1),
            ..Default::default()
        }
    }

    /// Sets a fixed heartbeat interval (shorthand for
    /// [`HeartbeatPolicy::Fixed`]).
    pub fn heartbeat(mut self, interval: Duration) -> Self {
        self.heartbeat = HeartbeatPolicy::Fixed(interval);
        self
    }

    /// Sets the heartbeat policy (fixed or adaptive).
    pub fn heartbeat_policy(mut self, policy: HeartbeatPolicy) -> Self {
        self.heartbeat = policy;
        self
    }

    /// Sets the slow-query threshold (`None` disables the slow-query log).
    pub fn slow_query(mut self, threshold: Option<Duration>) -> Self {
        self.slow_query_threshold = threshold;
        self
    }

    /// Sets the trace-journal capacity in events (0 disables tracing).
    pub fn trace_capacity(mut self, events: usize) -> Self {
        self.trace_capacity = events;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert!(c.core_budget >= 1);
        assert!(c.eager_heartbeat);
    }

    #[test]
    fn builders() {
        let c = EngineConfig::with_cores(0).heartbeat(Duration::from_millis(10));
        assert_eq!(c.core_budget, 1); // clamped
        assert_eq!(
            c.heartbeat,
            HeartbeatPolicy::Fixed(Duration::from_millis(10))
        );
        let c = c.heartbeat_policy(HeartbeatPolicy::Adaptive {
            min: Duration::from_millis(1),
            max: Duration::from_millis(8),
            target_light_p99: Duration::from_millis(4),
        });
        assert!(c.heartbeat.is_adaptive());
        assert_eq!(c.heartbeat.initial_interval(), Duration::from_millis(1));
    }
}
