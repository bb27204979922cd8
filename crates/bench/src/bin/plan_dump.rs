//! Annotated global-plan dump: renders every TPC-W statement type's view of
//! the shared plan — the operator subtree with per-node **sharing sets** —
//! as text, and optionally the whole plan as a Graphviz digraph. Its default
//! output, under an operator census, is the paper's Figure 6
//! (`docs/figures/fig6_plan.txt`).
//!
//! SharedDB has no per-query plans, so this is what EXPLAIN means here: the
//! statement's slice of the one always-on plan, annotated with who else runs
//! through each operator. With `--analyze` a short heavy/light/update mix is
//! driven through an in-process engine first and the dump folds in live
//! runtime counters plus the per-statement-type cost attribution — the same
//! output a client gets from `EXPLAIN ANALYZE <stmt>` over the wire.
//!
//! Arguments: `--statement NAME` (one statement instead of all),
//! `--analyze [COUNT]` via `PLAN_DUMP_STATEMENTS` (mix size, default 64),
//! `--dot` (emit the digraph instead of text; combine with `--statement` to
//! highlight that statement's subtree). Environment: `TPCW_ITEMS` (scale).

use shareddb_bench::{bench_scale, env_usize};
use shareddb_common::Value;
use shareddb_core::{render_dot, render_explain_text, Engine, EngineConfig};
use shareddb_tpcw::schema::SUBJECTS;
use shareddb_tpcw::{build_catalog, build_shared_plan};
use std::sync::Arc;

fn main() {
    let args = parse_args();
    let scale = bench_scale();
    let items = scale.items as i64;
    let catalog = Arc::new(build_catalog(&scale).expect("build TPC-W catalog"));
    let (plan, registry) = build_shared_plan(&catalog).expect("build global plan");

    let statement_index = args.statement.as_deref().map(|name| {
        registry
            .get(name)
            .unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            })
            .0
    });

    // --analyze: drive a deterministic mix through an in-process engine so
    // the dump carries live counters and cost attribution.
    let analyze = if args.analyze {
        let mut engine = Engine::start(
            Arc::clone(&catalog),
            plan.clone(),
            registry.clone(),
            EngineConfig::default(),
        )
        .expect("start engine");
        for i in 0..args.statements {
            let outcome = match i % 8 {
                7 => engine.execute_sync(
                    "getBestSellers",
                    &[Value::text(SUBJECTS[i % SUBJECTS.len()]), Value::Int(0)],
                ),
                6 => engine.execute_sync(
                    "addOrderLine",
                    &[
                        Value::Int(70_000_000 + i as i64),
                        Value::Int(i as i64 % 16),
                        Value::Int(i as i64 % items.max(1)),
                        Value::Int(1),
                    ],
                ),
                _ => engine.execute_sync("getItemById", &[Value::Int(i as i64 * 7 % items.max(1))]),
            };
            if let Err(e) = outcome {
                eprintln!("statement {i} failed: {e}");
            }
        }
        let data = engine.stats();
        engine.shutdown();
        Some(data)
    } else {
        None
    };

    if args.dot {
        print!("{}", render_dot(&plan, &registry, statement_index));
        return;
    }
    match statement_index {
        Some(index) => {
            print!(
                "{}",
                render_explain_text(&catalog, &plan, &registry, index, analyze.as_ref())
            );
        }
        None => {
            println!(
                "== global plan: {} operators, {} statement types ==",
                plan.len(),
                registry.len()
            );
            let mut census: Vec<_> = plan.operator_census().into_iter().collect();
            census.sort();
            let census: Vec<_> = census.iter().map(|(k, n)| format!("{k} {n}")).collect();
            println!("operators by kind: {}", census.join(", "));
            for index in 0..registry.len() {
                println!();
                print!(
                    "{}",
                    render_explain_text(&catalog, &plan, &registry, index, analyze.as_ref())
                );
            }
        }
    }
}

struct Args {
    statement: Option<String>,
    analyze: bool,
    dot: bool,
    statements: usize,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        statement: None,
        analyze: false,
        dot: false,
        statements: env_usize("PLAN_DUMP_STATEMENTS", 64),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--statement" => {
                parsed.statement = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--statement needs NAME")),
                )
            }
            "--analyze" => parsed.analyze = true,
            "--dot" => parsed.dot = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    parsed
}

fn usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: plan_dump [--statement NAME] [--analyze] [--dot]");
    std::process::exit(2);
}
