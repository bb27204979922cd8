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
//! `--analyze` (drive [`shareddb_bench::drive_dump_mix`]'s 64 statements
//! first), `--dot` (emit the digraph instead of text; combine with
//! `--statement` to highlight that statement's subtree). Environment:
//! `TPCW_ITEMS` (scale).

use shareddb_bench::{bench_scale, drive_dump_mix};
use shareddb_core::{render_dot, render_explain_text, Engine, EngineConfig};
use shareddb_tpcw::{build_catalog, build_shared_plan};
use std::sync::Arc;

fn main() {
    let args = parse_args();
    let scale = bench_scale();
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
        drive_dump_mix(scale.items, |statement, params| {
            engine.execute_sync(statement, params)
        });
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
}

fn parse_args() -> Args {
    let mut parsed = Args {
        statement: None,
        analyze: false,
        dot: false,
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
