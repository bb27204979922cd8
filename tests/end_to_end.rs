//! Cross-crate integration tests: the full stack (storage → global plan →
//! batched engine → TPC-W workload) plus result parity between SharedDB and
//! the query-at-a-time baseline.

use shareddb::baseline::EngineProfile;
use shareddb::common::Value;
use shareddb::core::EngineConfig;
use shareddb::tpcw::{
    build_catalog, run_workload, BaselineSystem, DriverConfig, Mix, ParamGenerator, SharedDbSystem,
    TpcwDatabase, TpcwScale, ALL_INTERACTIONS, SUBJECTS,
};
use std::sync::Arc;
use std::time::Duration;

fn tiny_scale() -> TpcwScale {
    TpcwScale::tiny()
}

#[test]
fn every_web_interaction_executes_on_shareddb() {
    let scale = tiny_scale();
    let catalog = Arc::new(build_catalog(&scale).unwrap());
    let db = SharedDbSystem::new(catalog, EngineConfig::default()).unwrap();
    let generator = ParamGenerator::new(&scale);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
    for interaction in ALL_INTERACTIONS {
        for _ in 0..3 {
            for call in generator.calls(interaction, &mut rng) {
                db.execute(call.statement, &call.params, Duration::from_secs(30))
                    .unwrap_or_else(|e| {
                        panic!("{} failed on {}: {e}", interaction.name(), call.statement)
                    });
            }
        }
    }
}

#[test]
fn every_web_interaction_executes_on_the_baseline() {
    let scale = tiny_scale();
    let catalog = Arc::new(build_catalog(&scale).unwrap());
    let db = BaselineSystem::new(catalog, 8);
    let generator = ParamGenerator::new(&scale);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(43);
    for interaction in ALL_INTERACTIONS {
        for call in generator.calls(interaction, &mut rng) {
            db.execute(call.statement, &call.params, Duration::from_secs(30))
                .unwrap_or_else(|e| {
                    panic!("{} failed on {}: {e}", interaction.name(), call.statement)
                });
        }
    }
}

#[test]
fn shared_and_baseline_return_identical_read_results() {
    let scale = tiny_scale();
    let catalog = Arc::new(build_catalog(&scale).unwrap());
    let shared = SharedDbSystem::new(Arc::clone(&catalog), EngineConfig::default()).unwrap();
    let baseline = BaselineSystem::new(Arc::clone(&catalog), 4);

    // Identical row counts for a spectrum of read statements and parameters.
    let cases: Vec<(&str, Vec<Value>)> = vec![
        ("getItemById", vec![Value::Int(3)]),
        ("getBook", vec![Value::Int(11)]),
        ("getCustomerByUname", vec![Value::text("UNAME5")]),
        ("doSubjectSearch", vec![Value::text(SUBJECTS[2])]),
        ("doTitleSearch", vec![Value::text("%BOOK 4%")]),
        ("doAuthorSearch", vec![Value::text("ALAST1%")]),
        ("getNewProducts", vec![Value::text(SUBJECTS[7])]),
        (
            "getBestSellers",
            vec![Value::text(SUBJECTS[0]), Value::Int(0)],
        ),
        ("getCart", vec![Value::Int(1)]),
        ("getCustomerOrder", vec![Value::Int(2)]),
    ];
    for (statement, params) in cases {
        let a = shared
            .execute(statement, &params, Duration::from_secs(30))
            .unwrap();
        let b = baseline
            .execute(statement, &params, Duration::from_secs(30))
            .unwrap();
        assert_eq!(a, b, "row count mismatch for {statement}");
    }
}

#[test]
fn concurrent_mixed_workload_is_robust() {
    let scale = tiny_scale();
    let catalog = Arc::new(build_catalog(&scale).unwrap());
    let db = SharedDbSystem::new(catalog, EngineConfig::default()).unwrap();
    let config = DriverConfig {
        mix: Mix::Shopping,
        emulated_browsers: 100,
        think_time: Duration::from_millis(100),
        duration: Duration::from_millis(600),
        client_threads: 8,
        time_limit_scale: 1.0,
        seed: 5,
    };
    let report = run_workload(&db, &scale, &config);
    assert!(report.attempted >= 10, "report: {report:?}");
    assert_eq!(report.failed, 0, "report: {report:?}");
    assert!(report.successful > 0);
    // The engine really batched work.
    let stats = db.engine().stats();
    assert!(stats.batches > 0);
    assert!(stats.queries + stats.updates >= report.successful);
}

#[test]
fn updates_are_visible_across_engines_sharing_a_catalog() {
    // SharedDB and the baseline run over the SAME catalog: an update executed
    // through one engine must be visible to the other (single storage layer,
    // snapshot isolation).
    let scale = tiny_scale();
    let catalog = Arc::new(build_catalog(&scale).unwrap());
    let shared = SharedDbSystem::new(Arc::clone(&catalog), EngineConfig::default()).unwrap();
    let baseline = BaselineSystem::new(Arc::clone(&catalog), 2);

    // Insert a cart line through SharedDB, read it through the baseline.
    shared
        .execute(
            "addToCart",
            &[
                Value::Int(777_001),
                Value::Int(777_000),
                Value::Int(1),
                Value::Int(3),
            ],
            Duration::from_secs(10),
        )
        .unwrap();
    let rows = baseline
        .execute("getCart", &[Value::Int(777_000)], Duration::from_secs(10))
        .unwrap();
    assert_eq!(rows, 1);

    // Delete it through the baseline, observe through SharedDB.
    baseline
        .execute("clearCart", &[Value::Int(777_000)], Duration::from_secs(10))
        .unwrap();
    let rows = shared
        .execute("getCart", &[Value::Int(777_000)], Duration::from_secs(10))
        .unwrap();
    assert_eq!(rows, 0);
}

/// Pages over a catalog the generator never produces: the best-ranked items
/// of two subjects have lost their AUTHOR row, so the join under a search has
/// to look past them to fill its page of fifty — while a writer keeps moving
/// publication dates. Every page the shared engine answers is row for row
/// what the query-at-a-time engine computes at the snapshot its batch read
/// (`TraceEvent::Batch`), kept from reclamation by a pin taken before the
/// submit.
#[test]
fn pages_look_past_items_without_an_author_on_every_lane() {
    use shareddb::baseline::ClassicEngine;
    use shareddb::common::ids::Timestamp;
    use shareddb::common::{Expr, Tuple};
    use shareddb::core::{Engine, TraceEvent};
    use shareddb::storage::{Snapshot, UpdateOp};
    use shareddb::tpcw::{build_shared_plan, register_baseline_statements, PAGE_SIZE};
    use std::sync::atomic::{AtomicBool, Ordering};

    let scale = TpcwScale::with_items(12_000);
    let catalog = Arc::new(build_catalog(&scale).unwrap());
    let classic = ClassicEngine::start(Arc::clone(&catalog), EngineProfile::Tuned, 1);
    register_baseline_statements(&classic);
    let subjects = [Value::text(SUBJECTS[1]), Value::text(SUBJECTS[4])];
    let threshold = (scale.orders as i64 - ParamGenerator::new(&scale).bestseller_window).max(0);
    let mut pages: Vec<(&str, Vec<Value>)> = Vec::new();
    for subject in &subjects {
        pages.push(("doSubjectSearch", vec![subject.clone()]));
        pages.push(("getNewProducts", vec![subject.clone()]));
        pages.push((
            "getBestSellers",
            vec![subject.clone(), Value::Int(threshold)],
        ));
    }

    // The authors of the rows ranked 1st, 2nd, 4th and 8th on each search
    // page go: `A_ID` is the first column behind ITEM's.
    let a_id = catalog.table("ITEM").unwrap().read().schema().len();
    let mut orphaned: Vec<Value> = Vec::new();
    for (statement, params) in pages.iter().filter(|(s, _)| *s != "getBestSellers") {
        let page = classic.execute_sync(statement, params).unwrap();
        assert_eq!(page.len(), PAGE_SIZE);
        orphaned.extend([0, 1, 3, 7].map(|rank| page[rank][a_id].clone()));
    }
    for author in &orphaned {
        let predicate = Expr::col(0).eq(Expr::Literal(author.clone()));
        catalog
            .apply("AUTHOR", UpdateOp::Delete { predicate })
            .unwrap();
    }
    for (statement, params) in pages.iter().filter(|(s, _)| *s != "getBestSellers") {
        let page = classic.execute_sync(statement, params).unwrap();
        assert_eq!(page.len(), PAGE_SIZE, "{statement}: the page is refilled");
        assert!(page.iter().all(|row| !orphaned.contains(&row[a_id])));
    }

    let engine = || {
        let (plan, registry) = build_shared_plan(&catalog).unwrap();
        Engine::start(
            Arc::clone(&catalog),
            plan,
            registry,
            EngineConfig::default(),
        )
        .unwrap()
    };
    let shared = engine();

    // The writer ages items all over the table, and every other time one of
    // a subject's newest: that page changes under the readers for certain.
    let newest = classic
        .execute_sync("getNewProducts", &subjects[..1])
        .unwrap();
    let newest: Vec<i64> = newest.iter().map(|row| row[0].as_int().unwrap()).collect();
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (stop, writer, items) = (Arc::clone(&stop), engine(), scale.items as i64);
        std::thread::spawn(move || {
            let mut writes = 0i64;
            while !stop.load(Ordering::Relaxed) {
                let item = match writes % 2 {
                    0 => newest[(writes / 2) as usize % newest.len()],
                    _ => (writes * 7_919) % items,
                };
                let moved = [
                    Value::Int(item),
                    Value::Float(9.5),
                    Value::Date(15_000 + writes % 900),
                ];
                writer.execute_sync("adminUpdateItem", &moved).unwrap();
                writes += 1;
            }
            writes
        })
    };

    // The snapshot the batch that answered `ticket` read.
    let read_at = |ticket: u64| {
        let trace = shared.trace();
        let batch = trace.iter().find_map(|record| match record.event {
            TraceEvent::Statement(s) if s.ticket == ticket => Some(s.batch),
            _ => None,
        });
        let snapshot = trace.iter().find_map(|record| match record.event {
            TraceEvent::Batch {
                batch: b, snapshot, ..
            } if Some(b) == batch => Some(snapshot),
            _ => None,
        });
        Snapshot::at(snapshot.expect("the statement's batch is in the trace"))
    };
    let mut first_pages: Vec<Vec<Tuple>> = Vec::new();
    let mut snapshots: Vec<Timestamp> = Vec::new();
    for round in 0..12 {
        for (statement, params) in &pages {
            // Whatever the batch reads is at or after the pin, so no version
            // it sees is reclaimed before the reference reads it too.
            let _history = catalog.pin();
            let handle = shared.execute(statement, params).unwrap();
            let ticket = handle.ticket().0;
            let got = handle.wait().unwrap();
            let snapshot = read_at(ticket);
            snapshots.push(snapshot.ts);
            let want = classic.execute_at(statement, params, snapshot).unwrap();
            assert!(!want.is_empty());
            assert_eq!(
                got.rows(),
                &want[..],
                "{statement}{params:?}, round {round} at {snapshot:?}"
            );
            if *statement == "getNewProducts" && params[0] == subjects[0] {
                first_pages.push(want);
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    assert!(writer.join().unwrap() > 0, "the writer never ran");
    // The writer was seen: the newest products of a subject changed
    // meanwhile, and the batches read snapshots it had moved on.
    assert!(first_pages.iter().any(|page| *page != first_pages[0]));
    assert!(snapshots.windows(2).all(|w| w[0] <= w[1]), "{snapshots:?}");
    assert!(snapshots[0] < snapshots[snapshots.len() - 1]);
    // And the engine did prune: the join by the demand of the searches, the
    // group-by by that of the best-seller pages.
    let stats = shared.stats().operators;
    for pruning in ["IndexNlJoin(AUTHOR)#4", "GroupBy#12"] {
        let op = stats.iter().find(|op| op.name == pruning).unwrap();
        assert!(op.rows_pruned > 0, "{pruning}: {op:?}");
    }
}

/// One batch of 150 pages — more queries than a word of query ids holds, so
/// the rows of a subject carry ids spread over three words — answers every
/// page as the same statement run in a batch of its own does: the scan, the
/// joins, the group-join and Γ over query sets wider than a word.
#[test]
fn a_batch_wider_than_a_word_answers_as_batches_of_one() {
    use shareddb::core::{Engine, QueryOutcome, TraceEvent};
    use shareddb::tpcw::build_shared_plan;

    let scale = tiny_scale();
    let catalog = Arc::new(build_catalog(&scale).unwrap());
    let threshold = ParamGenerator::new(&scale).bestseller_threshold();
    let pages: Vec<(&str, Vec<Value>)> = (0..150)
        .map(|i| {
            let subject = Value::text(SUBJECTS[i % SUBJECTS.len()]);
            match i % 2 {
                0 => ("doSubjectSearch", vec![subject]),
                _ => ("getBestSellers", vec![subject, Value::Int(threshold)]),
            }
        })
        .collect();
    let engine = || {
        let (plan, registry) = build_shared_plan(&catalog).unwrap();
        let config = EngineConfig::default();
        Engine::start(Arc::clone(&catalog), plan, registry, config).unwrap()
    };
    let rows = |outcome: QueryOutcome| outcome.rows().to_vec();

    let alone = engine();
    let expected: Vec<_> = pages
        .iter()
        .map(|(statement, params)| rows(alone.execute_sync(statement, params).unwrap()))
        .collect();
    assert!(expected.iter().all(|page| !page.is_empty()));

    // Gathers the 150 into one batch: the page ahead of them reads ITEM,
    // held here, and they queue behind its batch.
    let batched = engine();
    let item = catalog.table("ITEM").unwrap();
    let hold = item.write();
    let ahead = batched.execute(pages[0].0, &pages[0].1).unwrap();
    while batched.queued() > 0 {
        std::thread::yield_now();
    }
    let handles: Vec<_> = pages
        .iter()
        .map(|(statement, params)| batched.execute(statement, params))
        .collect::<Result<_, _>>()
        .unwrap();
    drop(hold);
    assert_eq!(&rows(ahead.wait().unwrap()), &expected[0]);
    for ((statement, _), (handle, expected)) in pages.iter().zip(handles.into_iter().zip(&expected))
    {
        assert_eq!(&rows(handle.wait().unwrap()), expected, "{statement}");
    }
    let batches: Vec<usize> = batched
        .trace()
        .iter()
        .filter_map(|record| match record.event {
            TraceEvent::Batch { queries, .. } => Some(queries),
            _ => None,
        })
        .collect();
    assert_eq!(batches, [1, 150]);
}
