//! The workload driver: interactions offered at a rate, and WIPS measurement.
//!
//! The paper's clients are emulated browsers (EBs) with an exponentially
//! distributed think time (mean 7 s) issuing web interactions against the
//! database tier; the metric is the number of *successful* web interactions
//! per second (WIPS), where an interaction only counts if it finishes within
//! its TPC-W response-time limit (Section 5.1).
//!
//! The reproduction offers the load a population of EBs implies (their number
//! over their mean think time) as one rate: a pool of client threads issues
//! interactions on a schedule of `offered_per_s` a second, each timed from
//! when it was due; an infinite rate is a closed loop, each client issuing
//! its next interaction as soon as its last one is answered. Interactions
//! that miss their response-time limit count as timed out, and so do those a
//! busy client pool starts too late. This preserves the quantity the figures plot — successful throughput
//! as a function of offered load — without emulating a multi-machine client
//! tier. The sweeps of the paper's figures that drive it are
//! `shareddb_bench::figures`.

use crate::plans;
use crate::schema::TpcwScale;
use crate::workload::{ParamGenerator, WebInteraction};
use rand::rngs::StdRng;
use rand::SeedableRng;
use shareddb_baseline::{ClassicEngine, EngineProfile};
use shareddb_common::{Result, Value};
use shareddb_core::{Engine, EngineConfig};
use shareddb_storage::Catalog;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A database system under test: SharedDB or one of the baselines.
pub trait TpcwDatabase: Send + Sync {
    /// Human-readable system name used in reports.
    fn system_name(&self) -> String;
    /// Executes one prepared statement and returns the number of result rows
    /// (0 for updates). Must respect the deadline.
    fn execute(&self, statement: &str, params: &[Value], deadline: Duration) -> Result<usize>;
}

/// SharedDB adapter.
pub struct SharedDbSystem {
    engine: Engine,
}

impl SharedDbSystem {
    /// Builds the TPC-W global plan over `catalog` and starts the engine.
    pub fn new(catalog: Arc<Catalog>, config: EngineConfig) -> Result<Self> {
        let (plan, registry) = plans::build_shared_plan(&catalog)?;
        let engine = Engine::start(catalog, plan, registry, config)?;
        Ok(SharedDbSystem { engine })
    }

    /// Access to the underlying engine (statistics, plan inspection).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl TpcwDatabase for SharedDbSystem {
    fn system_name(&self) -> String {
        "SharedDB".to_string()
    }
    fn execute(&self, statement: &str, params: &[Value], deadline: Duration) -> Result<usize> {
        let handle = self.engine.execute(statement, params)?;
        let outcome = handle.wait_timeout(deadline)?;
        Ok(outcome.rows().len())
    }
}

/// Query-at-a-time baseline adapter.
pub struct BaselineSystem {
    engine: ClassicEngine,
}

impl BaselineSystem {
    /// Starts a baseline engine with `workers` worker threads and registers
    /// the TPC-W statements.
    pub fn new(catalog: Arc<Catalog>, workers: usize) -> Self {
        let engine = ClassicEngine::start(catalog, EngineProfile::Tuned, workers);
        plans::register_baseline_statements(&engine);
        BaselineSystem { engine }
    }

    /// Access to the underlying engine.
    pub fn engine(&self) -> &ClassicEngine {
        &self.engine
    }
}

impl TpcwDatabase for BaselineSystem {
    fn system_name(&self) -> String {
        "query-at-a-time".to_string()
    }
    fn execute(&self, statement: &str, params: &[Value], deadline: Duration) -> Result<usize> {
        let handle = self.engine.execute(statement, params)?;
        let rows = handle.wait_timeout(deadline)?;
        Ok(rows.len())
    }
}

/// Driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Offered load in web interactions a second; `f64::INFINITY` is a
    /// closed loop.
    pub offered_per_s: f64,
    /// Measurement duration.
    pub duration: Duration,
    /// Number of client worker threads issuing interactions.
    pub client_threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            offered_per_s: 1000.0,
            duration: Duration::from_secs(2),
            client_threads: 16,
            seed: 1,
        }
    }
}

/// Result of one driver run.
#[derive(Debug, Clone)]
pub struct DriverReport {
    /// System under test.
    pub system: String,
    /// Successful web interactions per second (the WIPS metric).
    pub wips: f64,
    /// Attempted interactions.
    pub attempted: u64,
    /// Successful interactions (within the response-time limit).
    pub successful: u64,
    /// [`DriverReport::successful`] per interaction, indexed by
    /// `WebInteraction as usize` (the order of `ALL_INTERACTIONS`).
    pub successful_by_interaction: [u64; 14],
    /// Interactions that missed their deadline.
    pub timed_out: u64,
    /// Interactions that failed with an error.
    pub failed: u64,
    /// Mean latency of successful interactions.
    pub mean_latency: Duration,
}

/// Runs one measurement of `db` under `config`, each interaction drawn by
/// `pick`: a mix's [`Mix::sample`](crate::Mix::sample), one interaction
/// alone, or a stream of two in a set ratio.
pub fn run_interactions(
    db: &dyn TpcwDatabase,
    scale: &TpcwScale,
    config: &DriverConfig,
    pick: impl Fn(&mut StdRng) -> WebInteraction + Sync,
) -> DriverReport {
    let generator = ParamGenerator::new(scale);
    let attempted = AtomicU64::new(0);
    let successful: [AtomicU64; 14] = Default::default();
    let timed_out = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let latency_nanos = AtomicU64::new(0);
    let schedule_slot = AtomicUsize::new(0);

    let interarrival = Duration::from_secs_f64(1.0 / config.offered_per_s.max(1e-6));
    let start = Instant::now();

    std::thread::scope(|scope| {
        for thread_idx in 0..config.client_threads.max(1) {
            let (generator, pick) = (&generator, &pick);
            let (attempted, successful, timed_out, failed, latency_nanos, schedule_slot) = (
                &attempted,
                &successful,
                &timed_out,
                &failed,
                &latency_nanos,
                &schedule_slot,
            );
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(config.seed + thread_idx as u64);
                loop {
                    let elapsed = start.elapsed();
                    if elapsed >= config.duration {
                        break;
                    }
                    // Claim the next slot of the arrival schedule.
                    let slot = schedule_slot.fetch_add(1, Ordering::Relaxed);
                    let scheduled = interarrival.mul_f64(slot as f64);
                    if scheduled > config.duration {
                        break;
                    }
                    if scheduled > elapsed {
                        std::thread::sleep(scheduled - elapsed);
                    }
                    let interaction = pick(&mut rng);
                    let limit = interaction.time_limit();
                    let calls = generator.calls(interaction, &mut rng);
                    attempted.fetch_add(1, Ordering::Relaxed);
                    // An open loop times an interaction from when it was due,
                    // so that waiting for a free client counts against its
                    // limit; a closed loop from when it is sent.
                    let begun = match interarrival.is_zero() {
                        true => Instant::now(),
                        false => start + scheduled,
                    };
                    let mut ok = true;
                    let mut err = false;
                    for call in calls {
                        let remaining = limit.saturating_sub(begun.elapsed());
                        if remaining.is_zero() {
                            ok = false;
                            break;
                        }
                        match db.execute(call.statement, &call.params, remaining) {
                            Ok(_) => {}
                            Err(shareddb_common::Error::DeadlineExceeded) => {
                                ok = false;
                                break;
                            }
                            Err(_) => {
                                ok = false;
                                err = true;
                                break;
                            }
                        }
                    }
                    let latency = begun.elapsed();
                    if ok && latency <= limit {
                        successful[interaction as usize].fetch_add(1, Ordering::Relaxed);
                        latency_nanos.fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
                    } else if err {
                        failed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        timed_out.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    let successful_by_interaction = successful.map(|count| count.into_inner());
    let successful_count = successful_by_interaction.iter().sum::<u64>();
    DriverReport {
        system: db.system_name(),
        wips: successful_count as f64 / elapsed,
        attempted: attempted.into_inner(),
        successful: successful_count,
        successful_by_interaction,
        timed_out: timed_out.into_inner(),
        failed: failed.into_inner(),
        mean_latency: Duration::from_nanos(
            latency_nanos
                .into_inner()
                .checked_div(successful_count)
                .unwrap_or(0),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::build_catalog;
    use crate::workload::Mix;

    fn catalog() -> Arc<Catalog> {
        Arc::new(build_catalog(&TpcwScale::tiny()).unwrap())
    }

    #[test]
    fn shareddb_system_runs_the_shopping_mix() {
        let catalog = catalog();
        let scale = TpcwScale::tiny();
        let db = SharedDbSystem::new(catalog, EngineConfig::default()).unwrap();
        let config = DriverConfig {
            offered_per_s: 500.0,
            duration: Duration::from_millis(500),
            client_threads: 4,
            seed: 11,
        };
        let report = run_interactions(&db, &scale, &config, |rng| Mix::Shopping.sample(rng));
        assert_eq!(report.system, "SharedDB");
        assert!(report.attempted > 0);
        assert!(report.successful > 0, "report: {report:?}");
        assert_eq!(report.failed, 0, "report: {report:?}");
        assert!(report.wips > 0.0);
    }

    #[test]
    fn baseline_system_runs_the_ordering_mix() {
        let catalog = catalog();
        let scale = TpcwScale::tiny();
        let db = BaselineSystem::new(catalog, 4);
        let config = DriverConfig {
            offered_per_s: 500.0,
            duration: Duration::from_millis(500),
            client_threads: 4,
            seed: 12,
        };
        let report = run_interactions(&db, &scale, &config, |rng| Mix::Ordering.sample(rng));
        assert!(report.successful > 0, "report: {report:?}");
        assert_eq!(report.failed, 0, "report: {report:?}");
        assert_eq!(report.system, "query-at-a-time");
    }

    #[test]
    fn a_closed_loop_of_one_interaction_counts_only_it() {
        let catalog = catalog();
        let scale = TpcwScale::tiny();
        let db = SharedDbSystem::new(catalog, EngineConfig::default()).unwrap();
        let config = DriverConfig {
            offered_per_s: f64::INFINITY,
            duration: Duration::from_millis(300),
            client_threads: 2,
            ..Default::default()
        };
        let report = run_interactions(&db, &scale, &config, |_| WebInteraction::BestSellers);
        assert!(report.successful > 0, "report: {report:?}");
        assert_eq!(report.successful_by_interaction[2], report.successful);
    }

    /// An open loop claims slot `n` at `n / rate` and stops at the first slot
    /// past the duration, so it attempts at most ⌊rate × duration⌋ + 1
    /// interactions however many clients wait for a slot.
    #[test]
    fn an_open_loop_attempts_no_more_than_its_schedule() {
        let catalog = catalog();
        let scale = TpcwScale::tiny();
        let db = SharedDbSystem::new(catalog, EngineConfig::default()).unwrap();
        let config = DriverConfig {
            offered_per_s: 200.0,
            duration: Duration::from_millis(500),
            client_threads: 4,
            seed: 13,
        };
        let report = run_interactions(&db, &scale, &config, |_| WebInteraction::ProductDetail);
        assert!(report.attempted <= 101, "report: {report:?}");
        assert_eq!(report.failed, 0, "report: {report:?}");
    }
}
