//! Trace dump: runs a short TPC-W mix against an in-process engine and
//! prints its retained trace ring with operator and statement names
//! resolved against the global plan.
//!
//! The ring is the drill-down companion to the `/metrics` histograms:
//! percentiles say *how long* the execute phase took, the ring says *what a
//! particular batch did* — one `batch` record per batch that ran queries
//! (its statement counts, and the shared operators that fired with their
//! tuples and busy time) and one record per answered statement (its batch,
//! rows and phase breakdown). The ring holds the engine's last 1 024
//! records, so it is always on.
//!
//! No arguments: [`shareddb_bench::drive_dump_mix`]'s 64 statements.
//! Environment: `TPCW_ITEMS` (scale, default 2000).

use shareddb_bench::{bench_scale, drive_dump_mix};
use shareddb_core::{Engine, EngineConfig, Phase};
use shareddb_tpcw::{build_catalog, build_shared_plan};
use std::sync::Arc;

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

    let mut engine =
        Engine::start(catalog, plan, registry, EngineConfig::default()).expect("start engine");

    drive_dump_mix(scale.items, |statement, params| {
        engine.execute_sync(statement, params)
    });

    let records = engine.trace();
    println!("== trace ring: {} retained records ==", records.len());
    for record in &records {
        println!(
            "[{:>4} {:>9.3}ms] {}",
            record.seq,
            record.at.as_secs_f64() * 1e3,
            record.event.describe(&operator_names, &statement_names)
        );
    }
    println!();

    println!("== phase latency summaries ==");
    for snap in engine.stats().phases {
        for phase in Phase::ALL {
            let histogram = snap.phase(phase);
            if histogram.is_empty() {
                continue;
            }
            println!(
                "{:<16} {:<10} count={:<5} p50={}us p99={}us max={}us",
                snap.statement,
                phase.name(),
                histogram.count,
                histogram.percentile_us(0.50),
                histogram.percentile_us(0.99),
                histogram.max_us,
            );
        }
    }

    engine.shutdown();
}
