//! # shareddb-bench
//!
//! The benchmark harness that regenerates every figure of the paper's
//! evaluation (Section 5). Each figure has its own binary in `src/bin/`:
//!
//! | Binary | Paper figure | Content |
//! |--------|--------------|---------|
//! | `fig6_plan` | Figure 6 | the TPC-W global plan and its sharing map |
//! | `fig7_varying_load` | Figure 7 | WIPS vs offered load, three mixes, three systems |
//! | `fig8_scale_cores` | Figure 8 | max WIPS vs number of CPU cores |
//! | `fig9_interactions` | Figure 9 | max WIPS per individual web interaction |
//! | `fig10_heavy_light` | Figure 10 | batch response time vs batch size, light vs heavy query |
//! | `fig11_load_interaction` | Figure 11 | light-query throughput under increasing heavy-query load |
//!
//! All binaries print CSV-like rows to stdout and accept environment
//! variables to scale the run (`TPCW_ITEMS`, `BENCH_SECONDS`, ...); the
//! defaults finish in a few minutes on a laptop. Criterion micro benchmarks
//! (shared operators, ClockScan, B-tree, query-set representations) live in
//! `benches/`.

pub mod conformance;

use shareddb_baseline::EngineProfile;
use shareddb_core::EngineConfig;
use shareddb_storage::Catalog;
use shareddb_tpcw::{build_catalog, BaselineSystem, SharedDbSystem, TpcwDatabase, TpcwScale};
use std::sync::Arc;
use std::time::Duration;

/// Reads a usize parameter from the environment with a default.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads an f64 parameter from the environment with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The benchmark-wide TPC-W scale (default 2000 items; override with
/// `TPCW_ITEMS`).
pub fn bench_scale() -> TpcwScale {
    TpcwScale::with_items(env_usize("TPCW_ITEMS", 2_000))
}

/// Measurement duration per data point (default 2 s; override with
/// `BENCH_SECONDS`, fractional values allowed).
pub fn bench_duration() -> Duration {
    Duration::from_secs_f64(env_f64("BENCH_SECONDS", 2.0))
}

/// The three systems under test, in the order the paper lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemUnderTest {
    /// MySQL-like baseline (`EngineProfile::Basic`).
    MySqlLike,
    /// SystemX-like baseline (`EngineProfile::Tuned`).
    SystemXLike,
    /// SharedDB.
    SharedDb,
}

impl SystemUnderTest {
    /// All three systems.
    pub fn all() -> [SystemUnderTest; 3] {
        [
            SystemUnderTest::MySqlLike,
            SystemUnderTest::SystemXLike,
            SystemUnderTest::SharedDb,
        ]
    }

    /// Label used in the output rows.
    pub fn label(&self) -> &'static str {
        match self {
            SystemUnderTest::MySqlLike => "MySQL-like",
            SystemUnderTest::SystemXLike => "SystemX-like",
            SystemUnderTest::SharedDb => "SharedDB",
        }
    }

    /// Instantiates the system over a fresh copy of the TPC-W database with a
    /// given core budget.
    pub fn build(&self, scale: &TpcwScale, cores: usize) -> Box<dyn TpcwDatabase> {
        let catalog: Arc<Catalog> =
            Arc::new(build_catalog(scale).expect("failed to build TPC-W catalog"));
        match self {
            SystemUnderTest::MySqlLike => {
                Box::new(BaselineSystem::new(catalog, EngineProfile::Basic, cores))
            }
            SystemUnderTest::SystemXLike => {
                Box::new(BaselineSystem::new(catalog, EngineProfile::Tuned, cores))
            }
            SystemUnderTest::SharedDb => Box::new(
                SharedDbSystem::new(catalog, EngineConfig::with_cores(cores))
                    .expect("failed to start SharedDB"),
            ),
        }
    }
}

/// Prints a CSV header followed by flushing stdout (figure binaries).
pub fn print_header(columns: &[&str]) {
    println!("{}", columns.join(","));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_defaults() {
        assert_eq!(env_usize("SHAREDDB_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_f64("SHAREDDB_DOES_NOT_EXIST_F", 1.5), 1.5);
    }

    #[test]
    fn systems_have_distinct_labels() {
        let labels: Vec<_> = SystemUnderTest::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 3);
        assert!(labels.contains(&"SharedDB"));
    }

    #[test]
    fn build_each_system_and_run_a_point_query() {
        let scale = TpcwScale::tiny();
        for system in SystemUnderTest::all() {
            let db = system.build(&scale, 4);
            let rows = db
                .execute(
                    "getItemById",
                    &[shareddb_common::Value::Int(1)],
                    Duration::from_secs(5),
                )
                .unwrap();
            assert_eq!(rows, 1, "{}", system.label());
        }
    }
}
