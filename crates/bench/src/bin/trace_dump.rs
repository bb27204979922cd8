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
//! Arguments: `--replicas N` (default 2), `--statements COUNT` (executions to
//! drive, default 64). Environment: `TPCW_ITEMS` (scale, default 2000).

use shareddb_bench::bench_scale;
use shareddb_cluster::{ClusterConfig, ClusterEngine};
use shareddb_common::Value;
use shareddb_core::{EngineConfig, Phase};
use shareddb_tpcw::schema::SUBJECTS;
use shareddb_tpcw::{build_catalog, build_shared_plan};
use std::sync::Arc;

fn main() {
    let (replicas, statements) = parse_args();
    let scale = bench_scale();
    let items = scale.items as i64;
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
            replicas,
            replicate_statements: vec!["getItemById".to_string()],
        },
    )
    .expect("start cluster");

    // A deterministic light/heavy/update mix: enough traffic that batches
    // carry more than one statement, small enough to read the output.
    for i in 0..statements {
        let outcome = match i % 8 {
            7 => cluster.execute_sync(
                "getBestSellers",
                &[Value::text(SUBJECTS[i % SUBJECTS.len()]), Value::Int(0)],
            ),
            6 => cluster.execute_sync(
                "addOrderLine",
                &[
                    Value::Int(60_000_000 + i as i64),
                    Value::Int(i as i64 % 16),
                    Value::Int(i as i64 % items.max(1)),
                    Value::Int(1),
                ],
            ),
            _ => cluster.execute_sync("getItemById", &[Value::Int(i as i64 * 7 % items.max(1))]),
        };
        if let Err(e) = outcome {
            eprintln!("statement {i} failed: {e}");
        }
    }

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
        for snap in engine.phase_snapshot() {
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

fn parse_args() -> (usize, usize) {
    let mut replicas = 2usize;
    let mut statements = 64usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| usage(what))
        };
        match arg.as_str() {
            "--replicas" => replicas = value("--replicas needs N").max(1),
            "--statements" => statements = value("--statements needs COUNT"),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    (replicas, statements)
}

fn usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: trace_dump [--replicas N] [--statements COUNT]");
    std::process::exit(2);
}
