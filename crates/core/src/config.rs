//! Engine configuration.

use std::fmt;
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
    /// Constant interval (the pre-controller behaviour).
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

    /// Parses the operator-facing spec syntax: `fixed:MS` or
    /// `adaptive:MIN_MS,MAX_MS,TARGET_P99_MS` (fractional milliseconds
    /// allowed, e.g. `fixed:0.5` or `adaptive:0.5,8,2`).
    pub fn parse(spec: &str) -> Result<HeartbeatPolicy, String> {
        let ms = |s: &str| -> Result<Duration, String> {
            let v: f64 = s
                .trim()
                .parse()
                .map_err(|_| format!("bad millisecond value {s:?} in heartbeat spec"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("bad millisecond value {s:?} in heartbeat spec"));
            }
            Ok(Duration::from_nanos((v * 1_000_000.0) as u64))
        };
        match spec.trim().split_once(':') {
            Some(("fixed", rest)) => Ok(HeartbeatPolicy::Fixed(ms(rest)?)),
            Some(("adaptive", rest)) => {
                let parts: Vec<&str> = rest.split(',').collect();
                if parts.len() != 3 {
                    return Err(format!(
                        "adaptive heartbeat spec {spec:?} needs MIN_MS,MAX_MS,TARGET_P99_MS"
                    ));
                }
                let (min, max, target) = (ms(parts[0])?, ms(parts[1])?, ms(parts[2])?);
                if min > max {
                    return Err(format!("adaptive heartbeat spec {spec:?} has min > max"));
                }
                Ok(HeartbeatPolicy::Adaptive {
                    min,
                    max,
                    target_light_p99: target,
                })
            }
            _ => Err(format!(
                "heartbeat spec {spec:?} is neither fixed:MS nor adaptive:MIN,MAX,TARGET"
            )),
        }
    }
}

impl fmt::Display for HeartbeatPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        match *self {
            HeartbeatPolicy::Fixed(d) => write!(f, "fixed:{}", ms(d)),
            HeartbeatPolicy::Adaptive {
                min,
                max,
                target_light_p99,
            } => write!(
                f,
                "adaptive:{},{},{}",
                ms(min),
                ms(max),
                ms(target_light_p99)
            ),
        }
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

    #[test]
    fn heartbeat_policy_parses_and_round_trips() {
        let fixed = HeartbeatPolicy::parse("fixed:2").unwrap();
        assert_eq!(fixed, HeartbeatPolicy::Fixed(Duration::from_millis(2)));
        let frac = HeartbeatPolicy::parse("fixed:0.5").unwrap();
        assert_eq!(frac, HeartbeatPolicy::Fixed(Duration::from_micros(500)));
        let adaptive = HeartbeatPolicy::parse("adaptive:0.5,8,2").unwrap();
        assert_eq!(
            adaptive,
            HeartbeatPolicy::Adaptive {
                min: Duration::from_micros(500),
                max: Duration::from_millis(8),
                target_light_p99: Duration::from_millis(2),
            }
        );
        // The rendered form parses back to the same policy.
        for p in [fixed, frac, adaptive] {
            assert_eq!(HeartbeatPolicy::parse(&p.to_string()).unwrap(), p);
        }
        assert!(HeartbeatPolicy::parse("adaptive:8,1,2").is_err()); // min > max
        assert!(HeartbeatPolicy::parse("adaptive:1,2").is_err()); // arity
        assert!(HeartbeatPolicy::parse("exponential:3").is_err());
        assert!(HeartbeatPolicy::parse("fixed:abc").is_err());
        assert!(HeartbeatPolicy::parse("fixed:-1").is_err());
    }
}
