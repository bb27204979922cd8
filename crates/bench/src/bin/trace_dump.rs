//! Trace dump: runs a short TPC-W mix against an in-process cluster and
//! prints each replica's retained trace ring with operator and statement
//! names resolved against the global plan.
//!
//! The ring is the drill-down companion to the `/metrics` histograms:
//! percentiles say *how long* the execute phase took, the ring says *what a
//! particular batch did* — one `batch` record per batch that ran queries
//! (its statement counts, and the shared operators that fired with their
//! tuples and busy time) and one record per answered statement (its batch,
//! rows and phase breakdown). The ring holds the engine's last 1 024
//! records, so it is always on.
//!
//! No arguments: two replicas, [`shareddb_bench::drive_dump_mix`]'s 64
//! statements. Environment: `TPCW_ITEMS` (scale, default 2000).

use shareddb_bench::{bench_scale, drive_dump_mix};
use shareddb_cluster::{ClusterConfig, ClusterEngine};
use shareddb_core::{EngineConfig, Phase};
use shareddb_tpcw::{build_catalog, build_shared_plan};
use std::sync::Arc;

/// Replicas of the dumped cluster: two, so that a replicated type's
/// look-ups show on both.
const REPLICAS: usize = 2;

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("unknown argument {arg}");
        eprintln!("usage: trace_dump");
        std::process::exit(2);
    }
    let scale = bench_scale();
    let catalog = Arc::new(build_catalog(&scale).expect("build TPC-W catalog"));
    let (plan, registry) = build_shared_plan(&catalog).expect("build global plan");
    let operator_names: Vec<String> = plan.nodes().iter().map(|n| n.name.clone()).collect();
    let statement_names: Vec<String> = registry.iter().map(|s| s.name.clone()).collect();

    let mut cluster = ClusterEngine::start(
        catalog,
        plan,
        registry,
        EngineConfig::default(),
        ClusterConfig {
            replicas: REPLICAS,
            replicate_statements: vec!["getItemById".to_string()],
        },
    )
    .expect("start cluster");

    drive_dump_mix(scale.items, |statement, params| {
        cluster.execute_sync(statement, params)
    });

    for (replica, engine) in cluster.engines().iter().enumerate() {
        let records = engine.trace();
        println!(
            "== replica {replica}: {} retained records ==",
            records.len()
        );
        for record in &records {
            println!(
                "[{:>4} {:>9.3}ms] {}",
                record.seq,
                record.at.as_secs_f64() * 1e3,
                record.event.describe(&operator_names, &statement_names)
            );
        }
        println!();
    }

    println!("== phase latency summaries ==");
    for (replica, engine) in cluster.engines().iter().enumerate() {
        for snap in engine.stats().phases {
            for phase in Phase::ALL {
                let histogram = snap.phase(phase);
                if histogram.is_empty() {
                    continue;
                }
                println!(
                    "replica {replica} {:<16} {:<10} count={:<5} p50={}us p99={}us max={}us",
                    snap.statement,
                    phase.name(),
                    histogram.count,
                    histogram.percentile_us(0.50),
                    histogram.percentile_us(0.99),
                    histogram.max_us,
                );
            }
        }
    }

    cluster.shutdown();
}
