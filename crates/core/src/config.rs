//! Engine configuration.

use std::time::Duration;

/// Configuration of the batched SharedDB runtime. There is no batching
/// knob: what arrives while a batch runs is queued, and the queue is the
/// next batch as soon as that one is done (Section 3.2).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of CPU cores the engine may use concurrently — the `maxcpus`
    /// knob of Section 5.1. It is the number of threads that run operator
    /// cycles: the coordinator plus `core_budget − 1` pool threads (no
    /// semaphore: a thread that does not exist cannot take a core).
    /// `usize::MAX`, the default, means the machine's
    /// `available_parallelism()`.
    pub core_budget: usize,
    /// Statements whose end-to-end latency reaches this threshold have their
    /// trace record copied to the engine's slow-query log, with its full
    /// phase breakdown (admission / batch-wait / execute). `None` disables
    /// the log.
    pub slow_query_threshold: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            core_budget: usize::MAX,
            slow_query_threshold: None,
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

    /// Sets the slow-query threshold (`None` disables the slow-query log).
    pub fn slow_query(mut self, threshold: Option<Duration>) -> Self {
        self.slow_query_threshold = threshold;
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
        assert_eq!(EngineConfig::with_cores(0).core_budget, 1); // clamped
    }
}
