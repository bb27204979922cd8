//! Batch-lifecycle trace dump: runs a short TPC-W mix against an in-process
//! cluster and prints each replica's retained trace journal with operator
//! and statement names resolved against the global plan.
//!
//! The journal is the drill-down companion to the `/metrics` histograms:
//! percentiles say *how long* the execute phase took, the trace says *what a
//! particular batch did* — how many statements it admitted, which shared
//! operators actually fired and for how long, and where each query's rows
//! were routed (the Γ step). The ring is bounded (`trace_capacity` events),
//! so this is safe to leave on in production-shaped runs.
//!
//! Arguments: `--replicas N` (default 2), `--capacity EVENTS` (journal ring
//! size, default 512), `--statements COUNT` (executions to drive, default
//! 64). Environment: `TPCW_ITEMS` (scale, default 2000).

use shareddb_bench::{bench_scale, env_usize};
use shareddb_cluster::{ClusterConfig, ClusterEngine};
use shareddb_common::Value;
use shareddb_core::{EngineConfig, Phase, TraceEvent};
use shareddb_tpcw::schema::SUBJECTS;
use shareddb_tpcw::{build_catalog, build_shared_plan};
use std::sync::Arc;

fn main() {
    let (replicas, capacity, statements) = parse_args();
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
        EngineConfig::default().trace_capacity(capacity),
        ClusterConfig {
            replicas,
            replicate_statements: vec!["getItemById".to_string()],
            ..ClusterConfig::default()
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
        println!("== replica {replica}: {} retained events ==", records.len());
        for record in &records {
            print!(
                "[{:>4} {:>9.3}ms] ",
                record.seq,
                record.at.as_secs_f64() * 1e3
            );
            match &record.event {
                TraceEvent::OperatorFired { operator, .. } => {
                    let name = operator_names
                        .get(*operator)
                        .map(String::as_str)
                        .unwrap_or("?");
                    println!("{} ({name})", record.event);
                }
                TraceEvent::QueryRouted { statement, .. } => {
                    let name = statement_names
                        .get(*statement)
                        .map(String::as_str)
                        .unwrap_or("?");
                    println!("{} ({name})", record.event);
                }
                TraceEvent::BatchFormed {
                    batch,
                    queries,
                    updates,
                    mix,
                } => {
                    // The mix is what operator busy time gets attributed by,
                    // so print it with statement names resolved.
                    print!("batch {batch} formed: {queries} queries, {updates} updates");
                    if mix.is_empty() {
                        println!();
                    } else {
                        let named: Vec<String> = mix
                            .iter()
                            .map(|(statement, count)| {
                                let name = statement_names
                                    .get(*statement)
                                    .map(String::as_str)
                                    .unwrap_or("?");
                                format!("{name}\u{00d7}{count}")
                            })
                            .collect();
                        println!(", mix [{}]", named.join(", "));
                    }
                }
                event => println!("{event}"),
            }
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

fn parse_args() -> (usize, usize, usize) {
    let mut replicas = 2usize;
    let mut capacity = 512usize;
    let mut statements = env_usize("TRACE_STATEMENTS", 64);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| usage(what))
        };
        match arg.as_str() {
            "--replicas" => replicas = value("--replicas needs N").max(1),
            "--capacity" => capacity = value("--capacity needs EVENTS"),
            "--statements" => statements = value("--statements needs COUNT"),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    (replicas, capacity, statements)
}

fn usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: trace_dump [--replicas N] [--capacity EVENTS] [--statements COUNT]");
    std::process::exit(2);
}
