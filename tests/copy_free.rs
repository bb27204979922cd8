//! The copy-free heavy path as counts, not timings: a row is one shared
//! allocation from the table's version arena to the result set a client
//! holds, and what a scan cycle or an operator cycle allocates depends on
//! what it emits — not on the rows it looks at, nor on how many operators
//! read one producer's output.

use shareddb::baseline::{ClassicEngine, EngineProfile};
use shareddb::common::{tuple, DataType, Expr, QTuple, QueryId, SortKey, TicketId, Tuple, Value};
use shareddb::core::batch::{bind_query, Activation};
use shareddb::core::demand::push_down;
use shareddb::core::operators::{execute_group_join, execute_on, Emitted, ExecContext};
use shareddb::core::storage_ops::build_storage_operators;
use shareddb::core::{
    ActivationTemplate, Engine, EngineConfig, OperatorSpec, PlanBuilder, QueryBatch,
    StatementRegistry, StatementSpec, SubmitOptions,
};
use shareddb::storage::{Catalog, ClockScan, ScanQuery, TableDef};
use shareddb::tpcw::{
    build_catalog, build_shared_plan, register_baseline_statements, ParamGenerator, TpcwScale,
    PAGE_SIZE, SUBJECTS,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Counts every allocation (a `realloc` counts as one): per thread, for the
/// exact comparisons of single-threaded work, and process-wide, for bounds on
/// work that crosses the engine's threads.
struct Counting;

static EVERYWHERE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ON_THIS_THREAD: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    EVERYWHERE.fetch_add(1, Ordering::Relaxed);
    // Const-initialised and without a destructor: touching it allocates
    // nothing and works for the whole life of the thread.
    let _ = ON_THIS_THREAD.try_with(|count| count.set(count.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counters are statistics that
// publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`,
        // and the caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The tests of this file run one at a time, so that the process-wide count
/// of one is not the table loading of another.
fn alone() -> MutexGuard<'static, ()> {
    static ALONE: Mutex<()> = Mutex::new(());
    ALONE
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Allocations `work` makes on the calling thread.
fn allocations<R>(work: impl FnOnce() -> R) -> (u64, R) {
    let before = ON_THIS_THREAD.get();
    let result = work();
    (ON_THIS_THREAD.get() - before, result)
}

/// `ID`, `KIND` (`HIT`: ids under `hits`, else `MISS`), `N` (= id), with
/// `misses` rows no query of [`queries`] selects after the hits.
fn table_with(catalog: &Catalog, name: &str, hits: i64, misses: i64) {
    let def = TableDef::new(name)
        .column("ID", DataType::Int)
        .column("KIND", DataType::Text)
        .column("N", DataType::Int)
        .primary_key(&["ID"]);
    catalog.create_table(def).unwrap();
    let kind = |id| if id < hits { "HIT" } else { "MISS" };
    let rows = (0..hits + misses).map(|id| tuple![id, kind(id), id]);
    catalog.bulk_load(name, rows.collect()).unwrap();
}

/// Equality, range and conjunction queries that select ids under 40 only.
fn queries() -> Vec<ScanQuery> {
    let hit = || Expr::col(1).eq(Expr::lit("HIT"));
    vec![
        ScanQuery::new(QueryId(1), hit()),
        ScanQuery::new(QueryId(2), hit()),
        ScanQuery::new(QueryId(3), Expr::col(2).lt(Expr::lit(25i64))),
        ScanQuery::new(QueryId(4), Expr::col(2).lt_eq(Expr::lit(10i64))),
        ScanQuery::new(QueryId(5), hit().and(Expr::col(2).gt(Expr::lit(30i64)))),
        ScanQuery::new(QueryId(6), Expr::col(0).eq(Expr::lit(7i64))),
    ]
}

#[test]
fn a_scan_cycle_allocates_nothing_for_rows_that_match_nothing() {
    let _alone = alone();
    let catalog = Catalog::new();
    table_with(&catalog, "SMALL", 40, 1_000);
    table_with(&catalog, "LARGE", 40, 4_000);
    let queries = queries();
    let cycle = |table: &str| {
        let scan = ClockScan::new(catalog.table(table).unwrap(), catalog.oracle());
        let (count, result) = allocations(|| scan.execute_batch(&queries, &[]).unwrap());
        assert_eq!(result.tuples.len(), 40);
        assert_eq!(result.query_classes, [4, 2, 0]);
        (count, result.rows_examined)
    };
    let (small, examined_small) = cycle("SMALL");
    let (large, examined_large) = cycle("LARGE");
    assert_eq!((examined_small, examined_large), (1_040, 4_040));
    assert_eq!(
        small, large,
        "allocations depend on rows that match nothing"
    );
    // Per cycle the predicate index and the result vector's growth; nothing
    // per emitted row, whose handful of queries lives in the tuple (40 when
    // this was written).
    assert!(small < 80, "{small} allocations for 40 emitted rows");
}

#[test]
fn an_operator_cycle_allocates_for_what_it_emits() {
    let _alone = alone();
    let catalog = Catalog::new();
    let ctx = ExecContext {
        catalog: &catalog,
        snapshot: catalog.snapshot(),
    };
    // Query 1 is active at the operators below and wants ten rows; the other
    // `foreign` rows belong to a query that is active elsewhere in the plan.
    let input = |foreign: i64| -> Vec<QTuple> {
        let wanted = |id| if id < 10 { 1 } else { 2 };
        (0..10 + foreign)
            .map(|id| QTuple::for_query(tuple![id, format!("row {id}")], QueryId(wanted(id))))
            .collect()
    };
    let (small, large) = (input(1_000), input(4_000));
    let keys = vec![SortKey::desc(0)];
    let top_n = (
        OperatorSpec::TopN { keys: keys.clone() },
        Activation::TopN { limit: 5 },
        5,
    );
    let sort = (OperatorSpec::Sort { keys }, Activation::Participate, 10);
    let distinct = (OperatorSpec::Distinct, Activation::Participate, 10);
    for (spec, activation, emitted) in [top_n, sort, distinct] {
        let activations = [(QueryId(1), activation)];
        let cycle = |input: &[QTuple]| {
            let (count, out) = allocations(|| {
                execute_on(&spec, &activations, &[input], &ctx)
                    .unwrap()
                    .tuples
            });
            assert_eq!(out.len(), emitted, "{spec:?}");
            // What is emitted is the input row itself.
            assert!(out
                .iter()
                .all(|t| input.iter().any(|i| i.tuple.ptr_eq(&t.tuple))));
            count
        };
        let count = cycle(&small);
        assert_eq!(
            count,
            cycle(&large),
            "{spec:?}: allocations depend on foreign rows"
        );
        assert!(
            count < 40,
            "{spec:?}: {count} allocations for {emitted} rows out"
        );
        // A second consumer of the same producer output costs the same
        // again — nothing was copied to be handed to either.
        assert_eq!(count, cycle(&small), "{spec:?}");
    }
}

/// A scan feeding two top-n consumers, through the engine: 5 000 rows cross
/// the executor's threads and the router, and the batch allocates per cycle
/// — vectors growing, the predicate index, the replies — not per row: a
/// row's query set lives in its tuple, the row itself is the stored version,
/// and neither consumer copies what the scan emitted.
#[test]
fn a_batch_allocates_per_row_emitted_not_per_row_and_consumer() {
    let _alone = alone();
    const ROWS: i64 = 5_000;
    let catalog = Arc::new(Catalog::new());
    table_with(&catalog, "T", ROWS, 0);
    let mut builder = PlanBuilder::new(&catalog);
    let scan = builder.table_scan("T").unwrap();
    let newest = builder.top_n(scan, vec![SortKey::desc(0)]).unwrap();
    let oldest = builder.top_n(scan, vec![SortKey::asc(0)]).unwrap();
    let plan = builder.build();
    let mut registry = StatementRegistry::new();
    for (name, root) in [("newest", newest), ("oldest", oldest)] {
        let everything = ActivationTemplate::Scan {
            predicate: Expr::col(1).eq(Expr::lit("HIT")),
        };
        let spec = StatementSpec::query(name, root)
            .activate(scan, everything)
            .activate(root, ActivationTemplate::TopN { limit: 5 });
        registry.register(spec).unwrap();
    }
    let engine = Engine::start(
        Arc::clone(&catalog),
        plan,
        registry,
        EngineConfig::default(),
    )
    .unwrap();
    engine.execute_sync("newest", &[]).unwrap(); // threads, channels, lazy state
                                                 // Process-wide: the work is on the engine's threads.
    let before = EVERYWHERE.load(Ordering::Relaxed);
    let newest = engine.execute("newest", &[]).unwrap();
    let oldest = engine.execute("oldest", &[]).unwrap();
    let rows = (newest.wait().unwrap(), oldest.wait().unwrap());
    let count = EVERYWHERE.load(Ordering::Relaxed) - before;
    assert_eq!(rows.0.rows()[0][0], Value::Int(ROWS - 1));
    assert_eq!(rows.1.rows()[0][0], Value::Int(0));
    // Each row is the table's stored version (scan path: no join, no
    // projection), whether the two statements shared a batch or not.
    let table = catalog.table("T").unwrap();
    let table = table.read();
    let stored = |row: &Tuple| {
        table
            .lookup_pk(&row.values()[..1], catalog.snapshot())
            .unwrap()
            .1
    };
    for row in rows.0.rows().iter().chain(rows.1.rows()) {
        assert!(row.ptr_eq(stored(row)), "{row} was copied on its way out");
    }
    // 119 when this was written; the statements may have taken a batch each.
    assert!(
        count < 300,
        "{count} allocations for two statements over {ROWS} emitted rows"
    );
}

/// The probe path hands out the stored version as well, and a result set a
/// client holds keeps its old values when the row is updated later: the
/// shared version is immutable, the update appended a new one — and when the
/// arena gives the superseded version's payload back, the client's reference
/// keeps it alive.
#[test]
fn a_held_result_row_is_the_stored_version_and_survives_an_update() {
    let _alone = alone();
    let catalog = Arc::new(build_catalog(&TpcwScale::tiny()).unwrap());
    let (plan, registry) = build_shared_plan(&catalog).unwrap();
    let engine = Engine::start(
        Arc::clone(&catalog),
        plan,
        registry,
        EngineConfig::default(),
    )
    .unwrap();
    let item = [Value::Int(5)];
    let held = engine.execute_sync("getItemById", &item).unwrap();
    let old_cost = held.rows()[0][4].clone();
    let table = catalog.table("ITEM").unwrap();
    let version = table.read().lookup_pk(&item, catalog.snapshot()).unwrap().0;
    assert!(held.rows()[0].ptr_eq(table.read().row(version).unwrap().values()));

    let new_cost = Value::Float(old_cost.as_float().unwrap() + 1.0);
    let update = [item[0].clone(), new_cost.clone(), Value::Date(15_403)];
    engine.execute_sync("adminUpdateItem", &update).unwrap();
    let fresh = engine.execute_sync("getItemById", &item).unwrap();
    assert_eq!(fresh.rows()[0][4], new_cost);
    assert_eq!(
        held.rows()[0][4],
        old_cost,
        "the held row changed under the client"
    );
    assert!(!fresh.rows()[0].ptr_eq(&held.rows()[0]));
    // No snapshot was pinned at the commit: the arena reclaimed the
    // superseded version, and the held row is the client's alone.
    let table = table.read();
    let superseded = table.row(version).unwrap();
    assert!(!superseded.is_live() && !superseded.holds_payload());
}

/// One `heavy_light`-shaped batch — eight `getBestSellers` over the latest
/// orders (the ledger's threshold), four `getNewProducts` and four
/// `doSubjectSearch`, sixteen subjects, 20 000 items — through the real
/// plan's operators in id order on this thread, as the executor runs them,
/// so that every count is exact: a scan allocates per cycle, not per row (a
/// query set lives in the tuple or is the previous row's), an index join
/// allocates the pair that names its two rows and nothing else, the
/// best-seller join runs inside its group-by and builds no pair at all,
/// what feeds a Top-N emits no more than the pages kept above it (the
/// statements are bound through the demand pass, as an engine binds them),
/// and the whole batch stays within a tenth of the count it had when this
/// was written. Run with `--nocapture` for the per-operator table.
#[test]
fn a_heavy_batch_allocates_less_than_once_per_tuple() {
    let _alone = alone();
    let scale = TpcwScale::with_items(20_000);
    let catalog = Arc::new(build_catalog(&scale).unwrap());
    let (plan, mut registry) = build_shared_plan(&catalog).unwrap();
    push_down(&plan, &mut registry);
    let threshold = (scale.orders as i64 - ParamGenerator::new(&scale).bestseller_window).max(0);
    let subject = |i: usize| Value::text(SUBJECTS[i]);
    let best_sellers = (0..8).map(|i| ("getBestSellers", vec![subject(i), Value::Int(threshold)]));
    let new_products = (8..12).map(|i| ("getNewProducts", vec![subject(i)]));
    let searches = (12..16).map(|i| ("doSubjectSearch", vec![subject(i)]));
    let calls: Vec<(&str, Vec<Value>)> = best_sellers.chain(new_products).chain(searches).collect();
    let queries = calls.iter().enumerate().map(|(i, (statement, params))| {
        let (index, spec) = registry.get(statement).unwrap();
        let (id, ticket, options) = (
            QueryId(i as u32 + 1),
            TicketId(i as u64),
            SubmitOptions::default(),
        );
        bind_query(spec, index, id, ticket, params, &options).unwrap()
    });
    let batch = QueryBatch {
        queries: queries.collect(),
        ..QueryBatch::default()
    };
    let storage = build_storage_operators(&catalog, &plan).unwrap();
    let snapshot = catalog.snapshot();
    let ctx = ExecContext {
        catalog: &catalog,
        snapshot,
    };

    // The executor's rule: a join runs inside the cycle of the group-by over
    // it (a group-join) when the group-by aggregates for every query of the
    // batch at the join.
    let at = |id: usize| batch.activations_for(id);
    let grouped_by = |join: usize, group_by: usize| {
        let grouped = at(group_by);
        plan.group_join_of(group_by) == Some(join)
            && at(join)
                .iter()
                .all(|(q, _)| grouped.iter().any(|(g, _)| g == q))
    };
    let inside: Vec<Option<usize>> = (0..plan.len())
        .map(|join| (0..plan.len()).find(|&group_by| grouped_by(join, group_by)))
        .collect();

    // The walk, several times over: the counts are the same each time, the
    // time of an operator's cycle is the median of its times.
    const WALKS: usize = 9;
    let mut outputs: Vec<Vec<QTuple>> = vec![Vec::new(); plan.len()];
    // Per group-join: the join, the pairs it matched.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let mut cycles: Vec<(usize, u64)> = Vec::new();
    let mut micros: Vec<Vec<u128>> = vec![Vec::new(); plan.len()];
    for _ in 0..WALKS {
        cycles.clear();
        pairs.clear();
        for node in plan.nodes() {
            let activations = at(node.id);
            if activations.is_empty() || inside[node.id].is_some() {
                continue;
            }
            let joined = match node.inputs[..] {
                [join] if inside[join] == Some(node.id) => Some(plan.node(join)),
                _ => None,
            };
            let producers = joined.map_or(&node.inputs, |join| &join.inputs);
            let inputs: Vec<&[QTuple]> = producers.iter().map(|&i| &outputs[i][..]).collect();
            let at_join = joined.map(|join| at(join.id)).unwrap_or_default();
            let started = Instant::now();
            let (count, emitted) = allocations(|| match (&storage[node.id], joined) {
                (Some(storage), _) => Emitted {
                    tuples: storage.execute(&activations, snapshot).unwrap(),
                    ..Emitted::default()
                },
                (None, Some(join)) => {
                    execute_group_join(&join.spec, &at_join, &node.spec, &activations, &inputs)
                        .unwrap()
                }
                (None, None) => execute_on(&node.spec, &activations, &inputs, &ctx).unwrap(),
            });
            micros[node.id].push(started.elapsed().as_micros());
            cycles.push((node.id, count));
            pairs.extend(joined.map(|join| (join.id, emitted.joined)));
            outputs[node.id] = emitted.tuples;
        }
    }
    let mut batch_micros = 0;
    for &(id, count) in &cycles {
        micros[id].sort_unstable();
        let median = micros[id][WALKS / 2];
        batch_micros += median;
        eprintln!(
            "{count:>7} allocations {:>7} tuples {median:>6} us  {}",
            outputs[id].len(),
            plan.node(id).name
        );
    }
    for &(join, pairs) in &pairs {
        let (join, group_by) = (&plan.node(join).name, inside[join].unwrap());
        let group_by = &plan.node(group_by).name;
        eprintln!("      - allocations {pairs:>7} pairs       - us  {join} inside {group_by}");
    }
    // The rows the operators report: what crosses an operator boundary and
    // what a group-join's join matched.
    let (allocated, tuples) = cycles.iter().fold((0, 0), |(count, tuples), (id, c)| {
        (count + c, tuples + outputs[*id].len() as u64)
    });
    let tuples = tuples + pairs.iter().map(|(_, pairs)| *pairs as u64).sum::<u64>();
    // 1 205 allocations for 30 379 tuples when this was written (5 053 when
    // the best-seller join still built a pair per joined row, 16 776 for
    // 39 178 before the searches' and best-sellers' limits reached the join
    // and the group-by): a tenth more fails, and a pair per joined row again
    // is three times that.
    eprintln!("{allocated:>7} allocations {tuples:>7} tuples {batch_micros:>6} us  the batch");
    assert!(tuples > 30_000, "{tuples} tuples: not the batch meant");
    assert!(
        allocated <= 1_205 * 11 / 10,
        "{allocated} allocations for {tuples} tuples"
    );

    // True when `row` is the version `table` stores under its key.
    let is_stored = |table: &str, row: &Tuple| {
        let table = catalog.table(table).unwrap();
        let table = table.read();
        let key: Vec<Value> = table
            .primary_key()
            .iter()
            .map(|&c| row[c].clone())
            .collect();
        let stored = table.lookup_pk(&key, snapshot);
        stored.is_some_and(|(_, version)| version.ptr_eq(row))
    };
    let scans_table = |id: usize, wanted: &str| matches!(&plan.node(id).spec, OperatorSpec::TableScan { table } if table == wanted);
    // What the eight searches and the eight best-seller pages keep: all
    // their producers need to emit, whatever they read.
    let pages = 8 * PAGE_SIZE;
    let mut checked = [0; 5];
    let mut top_n_allocations = 0;
    for &(id, count) in &cycles {
        let (node, output) = (plan.node(id), &outputs[id]);
        match &node.spec {
            OperatorSpec::TableScan { .. } => {
                assert!(count <= 200, "{}: {count} allocations", node.name);
                checked[0] += 1;
            }
            OperatorSpec::TopN { .. } => {
                top_n_allocations += count;
                checked[3] += 1;
            }
            OperatorSpec::GroupBy { .. } => {
                assert!(output.len() <= pages, "{}: {}", node.name, output.len());
                checked[4] += 1;
                // Its join ran inside it: thousands of pairs, none built —
                // an allocation per emitted row, a hundred a cycle (485 for
                // 400 rows when this was written).
                let (_, joined) = pairs
                    .iter()
                    .find(|(join, _)| inside[*join] == Some(id))
                    .unwrap();
                assert!(*joined > 3_000, "{}: {joined} pairs", node.name);
                assert!(
                    count <= output.len() as u64 + 100,
                    "{}: {count} allocations for {} rows",
                    node.name,
                    output.len()
                );
                checked[1] += 1;
            }
            OperatorSpec::IndexNlJoin { table, .. }
                if table == "AUTHOR" && scans_table(node.inputs[0], "ITEM") =>
            {
                // Both pages of a subject are cut from its rows here; more
                // than 3 000 rows before the searches said how few they keep.
                assert!(output.len() <= pages, "{}: {}", node.name, output.len());
                // The pair per emitted row, naming its two stored rows, and
                // 60 allocations a cycle beside.
                let per_row = (count.saturating_sub(60)) as f64 / output.len().max(1) as f64;
                assert!(
                    per_row <= 1.05,
                    "{}: {count} allocations for {} rows",
                    node.name,
                    output.len()
                );
                for row in output.iter() {
                    let (item, author) = row.tuple.sides().expect("a join emits pairs");
                    assert!(
                        is_stored("ITEM", item) && is_stored("AUTHOR", author),
                        "{}: {} holds a copy",
                        node.name,
                        row.tuple
                    );
                }
                checked[2] += 1;
            }
            _ => {}
        }
    }
    assert_eq!(
        checked,
        [2, 1, 1, 3, 1],
        "scans, group-joins, AUTHOR joins, Top-Ns, group-bys checked"
    );
    // 58 when this was written: a selection per query, not a sort of all.
    assert!(
        top_n_allocations <= 75,
        "{top_n_allocations} allocations in the three Top-Ns"
    );

    // What the batch answers is what a query-at-a-time engine answers.
    let classic = ClassicEngine::start(Arc::clone(&catalog), EngineProfile::Tuned, 1);
    register_baseline_statements(&classic);
    for (query, (statement, params)) in batch.queries.iter().zip(&calls) {
        let of_query = outputs[query.root].iter();
        let rows: Vec<Tuple> = of_query
            .filter(|t| t.queries.contains(query.query_id))
            .map(|t| t.tuple.clone())
            .collect();
        assert!(!rows.is_empty(), "{statement}{params:?}");
        assert_eq!(rows, classic.execute_sync(statement, params).unwrap());
    }
}

/// What the hand-off costs a look-up, as a count: sixty-four `getItemById`
/// submitted and then waited for — one batch: they queue behind a look-up
/// whose batch waits for ITEM, which the test holds, and whose cost, that of
/// a lone look-up, is counted apart and taken off — allocate, over every
/// thread of the engine, what binding, the probe, the result sets and the
/// batch itself need and one shared slot per statement for the way back,
/// which holds the outcome in place: no channel with its queue, no map
/// entry. 316 a round (4.9 a statement) at the parent, 252 (3.9) when this
/// was written.
#[test]
fn a_lookup_allocates_one_slot_for_its_way_back() {
    let _alone = alone();
    const BATCH: u64 = 64;
    let catalog = Arc::new(build_catalog(&TpcwScale::tiny()).unwrap());
    let (plan, registry) = build_shared_plan(&catalog).unwrap();
    let config = EngineConfig::default();
    let engine = Engine::start(Arc::clone(&catalog), plan, registry, config).unwrap();
    let item = catalog.table("ITEM").unwrap();
    let counted = |run: &dyn Fn()| {
        let before = EVERYWHERE.load(Ordering::Relaxed);
        run();
        EVERYWHERE.load(Ordering::Relaxed) - before
    };
    let look_up = |i: u64| {
        let params = [Value::Int(i as i64)];
        engine.submit("getItemById", &params, SubmitOptions::default())
    };
    let lone = || assert_eq!(look_up(0).unwrap().wait().unwrap().rows().len(), 1);
    let round = || {
        let hold = item.write();
        let ahead = look_up(0).unwrap();
        while engine.queued() > 0 {
            std::thread::yield_now();
        }
        let handles: Vec<_> = (0..BATCH).map(|i| look_up(i).unwrap()).collect();
        drop(hold);
        assert_eq!(ahead.wait().unwrap().rows().len(), 1);
        for handle in handles {
            assert_eq!(handle.wait().unwrap().rows().len(), 1);
        }
    };
    // The first rounds size what is kept from batch to batch.
    let (mut rounds, mut lones) = (Vec::new(), Vec::new());
    for _ in 0..12 {
        lones.push(counted(&lone));
        rounds.push(counted(&round));
    }
    let least = |counts: &[u64]| *counts[4..].iter().min().unwrap();
    let per_statement = (least(&rounds) - least(&lones)) as f64 / BATCH as f64;
    eprintln!(
        "{per_statement:.1} allocations a look-up ({rounds:?} a round of {BATCH} behind one \
         of {lones:?})"
    );
    assert!(per_statement <= 4.5, "{per_statement} ({rounds:?})");
}
