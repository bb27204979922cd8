//! Segment-parallel execution: the one scatter mechanism, pinned end to end.
//!
//! The central invariant of `scan_segments`: splitting a shared scan into N
//! hash segments executed on the engine's worker pool and recombining the
//! partials per batch is **invisible** — every statement shape the walker
//! (`core::scatter`) scatters returns exactly what a 1-segment engine
//! returns, even while writers mutate the tables concurrently, and every
//! shape it refuses runs whole and exact. Both engines of a comparison share
//! one catalog (one MVCC timestamp oracle), and each comparison pins both
//! executions to one snapshot.
//!
//! Three layers: the SQL conformance corpus (every shape it has), the
//! walker's decisions one by one on two hand-built fixtures (a
//! `getBestSellers`-shaped join plan and a SQL-compiled join chain), and a
//! segmented server over the wire.

use shareddb::client::Connection;
use shareddb::common::agg::AggregateFunction;
use shareddb::common::{tuple, DataType, Expr, SortKey, Value};
use shareddb::core::merge::MergeSpec;
use shareddb::core::plan::{ActivationTemplate, PlanBuilder, StatementSpec, UpdateTemplate};
use shareddb::core::scatter::{scatter_spec, ScatterSpec};
use shareddb::core::{
    Engine, EngineConfig, GlobalPlan, QueryOutcome, StatementRegistry, SubmitOptions,
};
use shareddb::server::{Server, ServerConfig};
use shareddb::sql::{compile_workload, SqlCompiler};
use shareddb::storage::{Catalog, TableDef};
use shareddb_bench::conformance::{corpus_catalog, load_corpus, Case, Expectation};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The corpus' positive cases plus a writer statement and an
/// aggregate-control statement, compiled into one shared plan.
fn build_engine(catalog: &Arc<Catalog>, cases: &[Case], segments: usize) -> Engine {
    let mut compiler = SqlCompiler::new(catalog);
    for case in cases {
        compiler
            .add_statement(&case.name, &case.sql)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
    }
    compiler
        .add_statement("bumpOrder", "UPDATE ORDERS SET O_TOTAL = ? WHERE O_ID = ?")
        .unwrap();
    compiler
        .add_statement(
            "orderTotals",
            "SELECT O_STATUS, SUM(O_TOTAL) FROM ORDERS GROUP BY O_STATUS",
        )
        .unwrap();
    let (plan, registry) = compiler.finish();
    Engine::start(
        Arc::clone(catalog),
        plan,
        registry,
        EngineConfig::default().scan_segments(segments),
    )
    .unwrap()
}

fn sorted_rows(outcome: &QueryOutcome) -> Vec<String> {
    let mut rows: Vec<String> = outcome.rows().iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

#[test]
fn segmented_corpus_matches_unsegmented_under_concurrent_writers() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/sql_corpus");
    let cases: Vec<Case> = load_corpus(&dir)
        .expect("load corpus")
        .into_iter()
        .filter(|c| matches!(c.expect, Expectation::Rows { .. }))
        .collect();
    let catalog = corpus_catalog();
    // Two engines over ONE catalog: a shared timestamp oracle makes pinned
    // snapshots comparable across them. Writes go through `baseline` only.
    let baseline = build_engine(&catalog, &cases, 1);
    let segmented = build_engine(&catalog, &cases, 4);

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        let catalog = Arc::clone(&catalog);
        let cases = cases.clone();
        let engine = build_engine(&catalog, &cases, 1);
        std::thread::spawn(move || {
            let mut i: i64 = 0;
            while !stop.load(Ordering::Relaxed) {
                engine
                    .execute_sync(
                        "bumpOrder",
                        &[Value::Float((i % 100) as f64), Value::Int(i % 60)],
                    )
                    .unwrap();
                i += 1;
            }
            i
        })
    };

    // Negative control material: unpinned reads of the mutated aggregate on
    // the segmented engine must observe the writer's interleaving.
    let mut unpinned_observations = std::collections::HashSet::new();

    let mut compared = 0usize;
    for round in 0..25 {
        for case in &cases {
            // Pin both executions to one snapshot; under concurrent writes
            // this is the only way the comparison is meaningful.
            let snapshot = catalog.snapshot();
            let opts = || SubmitOptions {
                pinned_snapshot: Some(snapshot),
                ..SubmitOptions::default()
            };
            let want = baseline
                .submit(&case.name, &case.params, opts())
                .unwrap()
                .wait()
                .unwrap();
            let got = segmented
                .submit(&case.name, &case.params, opts())
                .unwrap()
                .wait()
                .unwrap();
            assert_eq!(
                sorted_rows(&want),
                sorted_rows(&got),
                "case {} diverged at round {round}",
                case.name
            );
            compared += 1;
        }
        let control = segmented.execute_sync("orderTotals", &[]).unwrap();
        unpinned_observations.insert(sorted_rows(&control).join("|"));
    }
    stop.store(true, Ordering::Relaxed);
    let writes = writer.join().unwrap();

    assert!(compared >= 25 * 10, "corpus shrank: {compared} comparisons");
    assert!(writes > 0, "writer never ran");
    // Negative control: the writer's updates were observable to unpinned
    // segmented reads — i.e. the equality above is load-bearing, not an
    // artifact of a quiescent catalog.
    assert!(
        unpinned_observations.len() > 1,
        "concurrent writer was never observed; negative control failed"
    );
}

/// The corpus' eligible shapes actually take the segment lane: the
/// walker recognises a healthy subset of the corpus (join chains, grouped
/// aggregates with HAVING, ordered scans), and the segmented engine records
/// per-segment work for them.
#[test]
fn corpus_has_eligible_shapes_and_segments_fire() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/sql_corpus");
    let cases: Vec<Case> = load_corpus(&dir)
        .expect("load corpus")
        .into_iter()
        .filter(|c| matches!(c.expect, Expectation::Rows { .. }))
        .collect();
    let catalog = corpus_catalog();
    let mut compiler = SqlCompiler::new(&catalog);
    for case in &cases {
        compiler.add_statement(&case.name, &case.sql).unwrap();
    }
    let (plan, registry) = compiler.finish();
    let eligible: Vec<String> = registry
        .iter()
        .filter(|s| scatter_spec(&catalog, &plan, s).is_some())
        .map(|s| s.name.clone())
        .collect();
    assert!(
        eligible.len() >= 4,
        "only {} eligible corpus shapes: {eligible:?}",
        eligible.len()
    );

    let engine = Engine::start(
        Arc::clone(&catalog),
        plan,
        registry,
        EngineConfig::default().scan_segments(3),
    )
    .unwrap();
    for case in &cases {
        engine.execute_sync(&case.name, &case.params).unwrap();
    }
    let segment_stats = engine.segment_stats();
    assert_eq!(segment_stats.len(), 3);
    for s in &segment_stats {
        assert!(
            s.batches >= 1,
            "segment {} never executed for the corpus",
            s.segment
        );
        assert!(s.execute.count >= 1);
    }
}

// ---------------------------------------------------------------------------
// The walker's decisions, one by one
// ---------------------------------------------------------------------------

/// A 1-segment and a 4-segment engine over one catalog, and a third engine
/// that keeps writing to the tables they read.
struct Fixture {
    catalog: Arc<Catalog>,
    whole: Engine,
    segmented: Engine,
    writes: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    writer: Option<JoinHandle<()>>,
}

impl Fixture {
    /// `write(engine, i)` is the writer's `i`-th statement.
    fn start(
        catalog: Arc<Catalog>,
        plan: GlobalPlan,
        registry: StatementRegistry,
        write: fn(&Engine, i64),
    ) -> Fixture {
        let engine = |segments| {
            let config = EngineConfig::default().scan_segments(segments);
            Engine::start(Arc::clone(&catalog), plan.clone(), registry.clone(), config).unwrap()
        };
        let (whole, segmented, writing) = (engine(1), engine(4), engine(1));
        let writes = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (writes, stop) = (Arc::clone(&writes), Arc::clone(&stop));
            std::thread::spawn(move || {
                for i in 0.. {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    write(&writing, i);
                    writes.fetch_add(1, Ordering::Release);
                }
            })
        };
        Fixture {
            catalog,
            whole,
            segmented,
            writes,
            stop,
            writer: Some(writer),
        }
    }

    /// What the walker says about `statement`, as the segmented engine
    /// derived it (row demands pushed down).
    fn scatter_spec(&self, statement: &str) -> Option<ScatterSpec> {
        let (_, spec) = self.segmented.registry().get(statement).unwrap();
        scatter_spec(&self.catalog, self.segmented.plan(), spec)
    }

    /// Batches segment 0 has run.
    fn segment_batches(&self) -> u64 {
        self.segmented.segment_stats()[0].batches
    }

    /// Runs `statement` on both engines at one snapshot taken after a
    /// further write of the concurrent writer: `(1 segment, 4 segments)`.
    fn both(&self, statement: &str, params: &[Value]) -> (QueryOutcome, QueryOutcome) {
        let seen = self.writes.load(Ordering::Acquire);
        while self.writes.load(Ordering::Acquire) == seen {
            std::thread::yield_now();
        }
        self.both_at(self.catalog.snapshot(), statement, params)
    }

    fn both_at(
        &self,
        snapshot: shareddb::storage::mvcc::Snapshot,
        statement: &str,
        params: &[Value],
    ) -> (QueryOutcome, QueryOutcome) {
        let run = |engine: &Engine| {
            let opts = SubmitOptions {
                pinned_snapshot: Some(snapshot),
                ..SubmitOptions::default()
            };
            engine
                .submit(statement, params, opts)
                .unwrap()
                .wait()
                .unwrap()
        };
        (run(&self.whole), run(&self.segmented))
    }

    /// `statement` scatters — every segment runs it — and the recombined
    /// result is the 1-segment result: row for row when `ordered`, else as a
    /// multiset. Returns the result.
    fn assert_scatters_exactly(
        &self,
        statement: &str,
        params: &[Value],
        ordered: bool,
    ) -> QueryOutcome {
        assert!(
            self.scatter_spec(statement).is_some(),
            "{statement} not eligible"
        );
        let before: Vec<u64> = self
            .segmented
            .segment_stats()
            .iter()
            .map(|s| s.batches)
            .collect();
        let (want, got) = self.both(statement, params);
        if ordered {
            assert_eq!(want.rows(), got.rows(), "{statement} diverged");
        } else {
            assert_eq!(
                sorted_rows(&want),
                sorted_rows(&got),
                "{statement} diverged"
            );
        }
        let after = self.segmented.segment_stats();
        assert_eq!(after.len(), 4);
        for (segment, before) in after.iter().zip(before) {
            assert_eq!(
                segment.batches,
                before + 1,
                "{statement}: segment {}",
                segment.segment
            );
        }
        got
    }

    /// The walker refuses `statement`: it runs whole, and exact.
    fn assert_stays_whole_and_exact(&self, statement: &str, params: &[Value]) -> QueryOutcome {
        assert!(
            self.scatter_spec(statement).is_none(),
            "{statement} is eligible"
        );
        let before = self.segment_batches();
        let (want, got) = self.both(statement, params);
        assert_eq!(
            sorted_rows(&want),
            sorted_rows(&got),
            "{statement} diverged"
        );
        assert_eq!(
            self.segment_batches(),
            before,
            "{statement} took the segment lane"
        );
        got
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let written = self.writer.take().map(|writer| writer.join());
        if !std::thread::panicking() {
            written.unwrap().expect("the writer failed");
        }
    }
}

/// The writer of both fixtures: re-prices an item, then changes an order
/// line's quantity, touching every table the scattered statements read.
fn reprice_and_restock(engine: &Engine, i: i64) {
    let reprice = [Value::Float((i % 11) as f64), Value::Int(i % 40)];
    engine.execute_sync("reprice", &reprice).unwrap();
    let restock = [Value::Int(1 + i % 9), Value::Int(i * 7 % 200)];
    engine.execute_sync("restock", &restock).unwrap();
}

fn register_writer_statements(registry: &mut StatementRegistry) {
    let set = |table: &str, name: &str, column: usize| {
        StatementSpec::update(
            name,
            table,
            UpdateTemplate::Update {
                assignments: vec![(column, Expr::param(0))],
                predicate: Expr::col(0).eq(Expr::param(1)),
            },
        )
    };
    registry.register(set("ITEM", "reprice", 2)).unwrap();
    registry.register(set("ORDER_LINE", "restock", 2)).unwrap();
}

/// The tables of both fixtures. ITEM and STOCK key their pk on the item id;
/// ORDER_LINE refers to it from a non-key column, as an Int (`OL_I_ID`) and
/// as a Float (`OL_WEIGHT`).
fn shop_catalog() -> Arc<Catalog> {
    let catalog = Catalog::new();
    catalog
        .create_table(
            TableDef::new("ITEM")
                .column("I_ID", DataType::Int)
                .column("I_SUBJECT", DataType::Text)
                .column("I_COST", DataType::Float)
                .primary_key(&["I_ID"]),
        )
        .unwrap();
    catalog
        .create_table(
            TableDef::new("ORDER_LINE")
                .column("OL_ID", DataType::Int)
                .column("OL_I_ID", DataType::Int)
                .column("OL_QTY", DataType::Int)
                .column("OL_WEIGHT", DataType::Float)
                .primary_key(&["OL_ID"]),
        )
        .unwrap();
    catalog
        .create_table(
            TableDef::new("STOCK")
                .column("ST_I_ID", DataType::Int)
                .column("ST_QTY", DataType::Int)
                .primary_key(&["ST_I_ID"]),
        )
        .unwrap();
    catalog
        .bulk_load(
            "ITEM",
            (0..40i64)
                .map(|i| tuple![i, format!("S{}", i % 3), (i % 7) as f64])
                .collect(),
        )
        .unwrap();
    catalog
        .bulk_load(
            "ORDER_LINE",
            (0..200i64)
                .map(|ol| tuple![ol, (ol * 13) % 40, 1 + ol % 5, ((ol * 13) % 40) as f64])
                .collect(),
        )
        .unwrap();
    catalog
        .bulk_load(
            "STOCK",
            (0..40i64).map(|i| tuple![i, (i * 3) % 11]).collect(),
        )
        .unwrap();
    Arc::new(catalog)
}

/// ITEM ⨝ ORDER_LINE (the `getBestSellers` shape): ITEM's pk is the join
/// key, ORDER_LINE joins on a non-key column. Hand-built: two scans, a hash
/// equi-join on the ITEM pk, a group-by whose key contains the join key, a
/// Top-N root; plus a plain join root, an AVG group-by root, a non-key join
/// and a cross-type join.
fn join_fixture() -> Fixture {
    let catalog = shop_catalog();

    let mut b = PlanBuilder::new(&catalog);
    let item_scan = b.table_scan("ITEM").unwrap();
    let ol_scan = b.table_scan("ORDER_LINE").unwrap();
    let join = b
        .hash_join(item_scan, ol_scan, "ITEM.I_ID", "ORDER_LINE.OL_I_ID")
        .unwrap();
    let group = b
        .group_by(
            join,
            vec!["ITEM.I_ID", "ITEM.I_SUBJECT"],
            vec![(AggregateFunction::Sum, "ORDER_LINE.OL_QTY", "TOTAL")],
        )
        .unwrap();
    let topn = b
        .top_n(group, vec![SortKey::desc(2), SortKey::asc(0)])
        .unwrap();
    let avg_group = b
        .group_by(
            item_scan,
            vec!["ITEM.I_SUBJECT"],
            vec![
                (AggregateFunction::Avg, "ITEM.I_COST", "AVG_COST"),
                (AggregateFunction::Count, "ITEM.I_ID", "CNT"),
            ],
        )
        .unwrap();
    // Non-key equi-join: neither side joins on its primary key.
    let nonkey_join = b
        .hash_join(item_scan, ol_scan, "ITEM.I_COST", "ORDER_LINE.OL_QTY")
        .unwrap();
    // Cross-type equi-join: keyed on the ITEM pk, but Int joins Float — join
    // equality is numeric-normalizing while the partition hash is
    // type-tagged, so this shape must never scatter.
    let crosstype_join = b
        .hash_join(item_scan, ol_scan, "ITEM.I_ID", "ORDER_LINE.OL_WEIGHT")
        .unwrap();
    let plan = b.build();

    let everything = || ActivationTemplate::Scan {
        predicate: Expr::lit(true),
    };
    let recent_lines = || ActivationTemplate::Scan {
        predicate: Expr::col(0).gt_eq(Expr::param(0)),
    };
    let mut registry = StatementRegistry::new();
    let bestsellers = |name: &str, having: Option<Expr>| {
        StatementSpec::query(name, topn)
            .activate(item_scan, everything())
            .activate(ol_scan, recent_lines())
            .activate(join, ActivationTemplate::Participate)
            .activate(group, ActivationTemplate::Having { predicate: having })
            .activate(topn, ActivationTemplate::TopN { limit: 10 })
    };
    registry.register(bestsellers("bestsellers", None)).unwrap();
    // The grouping key contains the join (= partition) key, so every group
    // is complete within its segment and the HAVING filters locally on
    // final values.
    let having = Expr::col(2).gt(Expr::param(1));
    registry
        .register(bestsellers("bestsellersHaving", Some(having)))
        .unwrap();
    let over_both_scans = |name: &str, root| {
        StatementSpec::query(name, root)
            .activate(item_scan, everything())
            .activate(ol_scan, everything())
            .activate(root, ActivationTemplate::Participate)
    };
    registry.register(over_both_scans("joinAll", join)).unwrap();
    registry
        .register(over_both_scans("nonKeyJoin", nonkey_join))
        .unwrap();
    registry
        .register(over_both_scans("crossTypeJoin", crosstype_join))
        .unwrap();
    registry
        .register(
            StatementSpec::query("avgCost", avg_group)
                .activate(item_scan, everything())
                .activate(avg_group, ActivationTemplate::Having { predicate: None }),
        )
        .unwrap();
    register_writer_statements(&mut registry);
    Fixture::start(catalog, plan, registry, reprice_and_restock)
}

/// The tentpole shape: a parameterised equi-join on the partitioning key
/// (ITEM pk ⨝ ORDER_LINE.OL_I_ID) with group-by and Top-N scatters and
/// merges to exactly the 1-segment result, in order; a join root without
/// blocking operators concat-merges completely.
#[test]
fn join_scatter_matches_single_segment() {
    let fixture = join_fixture();
    let spec = fixture.scatter_spec("bestsellers").unwrap();
    assert!(matches!(
        spec.merge,
        MergeSpec::Ordered {
            limit: Some(10),
            ..
        }
    ));
    assert!(spec.scatter_with_params && !spec.partial_aggregation);
    // Both scans hash the join key: ITEM its pk, ORDER_LINE `OL_I_ID`.
    let mut columns: Vec<Vec<usize>> = spec.partition_columns.unwrap().values().cloned().collect();
    columns.sort();
    assert_eq!(columns, [vec![0], vec![1]]);
    let got = fixture.assert_scatters_exactly("bestsellers", &[Value::Int(20)], true);
    assert_eq!(got.rows().len(), 10);

    assert_eq!(
        fixture.scatter_spec("joinAll").unwrap().merge,
        MergeSpec::Concat
    );
    let got = fixture.assert_scatters_exactly("joinAll", &[], false);
    assert_eq!(
        got.rows().len(),
        200,
        "concat merge lost or duplicated rows"
    );
}

/// HAVING below a Top-N root (the real `getBestSellers` shape): groups are
/// segment-complete, the HAVING filters locally, and the scattered result
/// matches the 1-segment one exactly.
#[test]
fn having_under_topn_scatter_matches_single_segment() {
    let fixture = join_fixture();
    assert!(
        !fixture
            .scatter_spec("bestsellersHaving")
            .unwrap()
            .partial_aggregation
    );
    // Every item sells 5 lines of 1..=9 each: between the two thresholds
    // lies some, not all, of the top ten.
    let all =
        fixture.assert_scatters_exactly("bestsellersHaving", &[Value::Int(0), Value::Int(0)], true);
    assert_eq!(all.rows().len(), 10);
    let none = fixture.assert_scatters_exactly(
        "bestsellersHaving",
        &[Value::Int(0), Value::Int(45)],
        true,
    );
    assert!(none.rows().is_empty());
    for threshold in 5..45 {
        fixture.assert_scatters_exactly(
            "bestsellersHaving",
            &[Value::Int(0), Value::Int(threshold)],
            true,
        );
    }
}

/// AVG: (sum, count) partials recombine to the exact 1-segment average.
#[test]
fn avg_scatter_recombines_exactly() {
    let fixture = join_fixture();
    let spec = fixture.scatter_spec("avgCost").unwrap();
    assert!(spec.partial_aggregation && spec.partition_columns.is_none());
    assert!(matches!(
        spec.merge,
        MergeSpec::Grouped {
            avg_partials: true,
            having: None,
            ..
        }
    ));
    for _ in 0..5 {
        let got = fixture.assert_scatters_exactly("avgCost", &[], false);
        assert_eq!(got.rows().len(), 3);
        assert_eq!(got.rows()[0].len(), 3, "a hidden count column leaked");
    }
}

/// A cross-type equi-join (Int pk = Float column) must NOT scatter even
/// though it is keyed on a primary key: `Int(5)` joins `Float(5.0)` under SQL
/// equality, but the type-tagged partition hash would send the two rows to
/// different segments and silently drop the match. A join keyed on neither
/// side's primary key must not scatter either.
#[test]
fn cross_type_and_non_key_joins_stay_whole_and_exact() {
    let fixture = join_fixture();
    let got = fixture.assert_stays_whole_and_exact("crossTypeJoin", &[]);
    assert_eq!(got.rows().len(), 200, "cross-type join lost matches");
    fixture.assert_stays_whole_and_exact("nonKeyJoin", &[]);
}

/// ITEM / ORDER_LINE / STOCK, SQL-compiled: both ITEM and STOCK key their pk
/// on the chain's join class; ORDER_LINE joins on a non-key column.
const CHAIN_WORKLOAD: &[(&str, &str)] = &[
    // Two-join chain, every join keyed on the I_ID equivalence class (ITEM
    // pk and STOCK pk are both members) → co-partitionable.
    (
        "chainAll",
        "SELECT * FROM ITEM I, ORDER_LINE OL, STOCK S \
         WHERE I.I_ID = OL.OL_I_ID AND I.I_ID = S.ST_I_ID",
    ),
    // The second join leaves the partition-key class (OL_QTY is not in it)
    // → must run whole.
    (
        "offClassChain",
        "SELECT * FROM ITEM I, ORDER_LINE OL, STOCK S \
         WHERE I.I_ID = OL.OL_I_ID AND OL.OL_QTY = S.ST_QTY",
    ),
    ("allItems", "SELECT * FROM ITEM ORDER BY I_ID"),
    ("cheapItems", "SELECT * FROM ITEM WHERE I_COST < ?"),
    (
        "costBySubject",
        "SELECT I_SUBJECT, SUM(I_COST), COUNT(*), MIN(I_COST), MAX(I_COST) \
         FROM ITEM GROUP BY I_SUBJECT",
    ),
    // Group-by root with HAVING: groups span segments, so HAVING is
    // deferred to the merge (partial mode).
    (
        "bigSubjects",
        "SELECT I_SUBJECT, SUM(I_COST) FROM ITEM GROUP BY I_SUBJECT \
         HAVING SUM(I_COST) > ?",
    ),
    // The compiler emits an *identity* projection, which must not meet the
    // hidden AVG count columns the partial rows ship to the merge.
    (
        "avgBySubject",
        "SELECT I_SUBJECT, AVG(I_COST) FROM ITEM GROUP BY I_SUBJECT",
    ),
    (
        "avgHaving",
        "SELECT I_SUBJECT, AVG(I_COST) FROM ITEM GROUP BY I_SUBJECT \
         HAVING AVG(I_COST) > ?",
    ),
    ("reprice", "UPDATE ITEM SET I_COST = ? WHERE I_ID = ?"),
    (
        "restock",
        "UPDATE ORDER_LINE SET OL_QTY = ? WHERE OL_ID = ?",
    ),
];

fn chain_fixture() -> Fixture {
    let catalog = shop_catalog();
    let (plan, registry) = compile_workload(&catalog, CHAIN_WORKLOAD).unwrap();
    Fixture::start(catalog, plan, registry, reprice_and_restock)
}

/// A two-join chain keyed on the partition-key class end to end scatters
/// and concat-merges to exactly the 1-segment result; a chain whose second
/// join leaves the class must not scatter — co-location would break there.
#[test]
fn join_chains_scatter_only_on_one_key_class() {
    let fixture = chain_fixture();
    let spec = fixture.scatter_spec("chainAll").unwrap();
    assert_eq!(
        spec.partition_columns.unwrap().len(),
        3,
        "one hash column per scan"
    );
    // Every ORDER_LINE matches one item + stock.
    let got = fixture.assert_scatters_exactly("chainAll", &[], false);
    assert_eq!(got.rows().len(), 200);
    let got = fixture.assert_stays_whole_and_exact("offClassChain", &[]);
    assert!(!got.rows().is_empty());
}

/// Single-scan roots: an ordered scan merges in order, a group-by
/// recombines SUM / COUNT / MIN / MAX partials, and a parameterised bare
/// scan — cheap per execution — runs whole.
#[test]
fn ordered_and_grouped_scatter_match_single_segment() {
    let fixture = chain_fixture();
    let got = fixture.assert_scatters_exactly("allItems", &[], true);
    let ids: Vec<Value> = got.rows().iter().map(|r| r[0].clone()).collect();
    assert_eq!(ids, (0..40).map(Value::Int).collect::<Vec<_>>());
    assert!(
        !fixture
            .scatter_spec("costBySubject")
            .unwrap()
            .partial_aggregation
    );
    let got = fixture.assert_scatters_exactly("costBySubject", &[], false);
    assert_eq!(got.rows().len(), 3);
    let items: i64 = got.rows().iter().map(|r| r[2].as_int().unwrap()).sum();
    assert_eq!(items, 40, "COUNT partials were not summed");

    let spec = fixture.scatter_spec("cheapItems").unwrap();
    assert_eq!(
        (spec.merge, spec.scatter_with_params),
        (MergeSpec::Concat, false)
    );
    let before = fixture.segment_batches();
    let (want, got) = fixture.both("cheapItems", &[Value::Float(3.0)]);
    assert_eq!(sorted_rows(&want), sorted_rows(&got));
    assert_eq!(
        fixture.segment_batches(),
        before,
        "a cheap scan was scattered"
    );
}

/// HAVING on a scattered group-by root: the predicate must see the
/// recombined totals, not per-segment partials. Thresholds are picked around
/// one group's exact total, so a segment-local HAVING (which would drop
/// every partial of that group) cannot pass the test.
#[test]
fn having_scatter_filters_on_recombined_groups() {
    let fixture = chain_fixture();
    let spec = fixture.scatter_spec("bigSubjects").unwrap();
    assert!(spec.partial_aggregation && spec.scatter_with_params);
    for _ in 0..5 {
        // One snapshot for the totals and every threshold derived from them.
        let snapshot = fixture.catalog.snapshot();
        let (all, _) = fixture.both_at(snapshot, "bigSubjects", &[Value::Float(-1.0)]);
        assert_eq!(all.rows().len(), 3);
        let top_total = all
            .rows()
            .iter()
            .map(|r| r[1].as_float().unwrap())
            .fold(f64::MIN, f64::max);
        let before = fixture.segment_batches();
        for (threshold, groups) in [
            (top_total - 0.5, Some(1)),
            (top_total, Some(0)),
            (-1.0, Some(3)),
        ] {
            let params = [Value::Float(threshold)];
            let (want, got) = fixture.both_at(snapshot, "bigSubjects", &params);
            assert_eq!(
                sorted_rows(&want),
                sorted_rows(&got),
                "diverged at {threshold}"
            );
            // Ties for the top total aside, the count is known.
            let tied = all
                .rows()
                .iter()
                .filter(|r| r[1].as_float().unwrap() == top_total)
                .count();
            if tied == 1 {
                assert_eq!(Some(got.rows().len()), groups, "threshold {threshold}");
            }
        }
        assert_eq!(
            fixture.segment_batches(),
            before + 3,
            "HAVING root did not scatter"
        );
        // Let the writer move the totals.
        fixture.both("bigSubjects", &[Value::Float(-1.0)]);
    }
}

/// SQL-compiled AVG statements scatter correctly despite their identity
/// projection: the segments' partial rows carry hidden (sum, count) columns
/// into the merge, which drops them before the projection applies, and the
/// deferred HAVING judges the *finalized* average.
#[test]
fn sql_compiled_avg_scatter_matches_single_segment() {
    let fixture = chain_fixture();
    let got = fixture.assert_scatters_exactly("avgBySubject", &[], false);
    assert_eq!(got.rows().len(), 3);
    assert_eq!(got.rows()[0].len(), 2, "a hidden count column leaked");
    let snapshot = fixture.catalog.snapshot();
    let (all, _) = fixture.both_at(snapshot, "avgHaving", &[Value::Float(-1.0)]);
    let top_avg = all
        .rows()
        .iter()
        .map(|r| r[1].as_float().unwrap())
        .fold(f64::MIN, f64::max);
    for threshold in [top_avg - 0.01, -1.0] {
        let params = [Value::Float(threshold)];
        let (want, got) = fixture.both_at(snapshot, "avgHaving", &params);
        assert_eq!(
            sorted_rows(&want),
            sorted_rows(&got),
            "diverged at {threshold}"
        );
        assert!(!got.rows().is_empty());
    }
    fixture.assert_scatters_exactly("avgHaving", &[Value::Float(1.0)], false);
}

// ---------------------------------------------------------------------------
// A segmented server, over the wire
// ---------------------------------------------------------------------------

fn every_segment_ran(server: &Server) -> bool {
    let replicas = server
        .with_cluster(|c| {
            c.engines()
                .iter()
                .map(|e| e.segment_stats())
                .collect::<Vec<_>>()
        })
        .unwrap();
    assert_eq!(replicas.len(), 1);
    replicas[0].len() == 4 && replicas[0].iter().all(|s| s.batches > 0)
}

/// A parameterless ordered statement scatters over the segments of the one
/// replica; the merged result that reaches the client over the wire is
/// complete and ordered.
#[test]
fn segmented_merge_is_exact_over_the_wire() {
    let catalog = Catalog::new();
    catalog
        .create_table(
            TableDef::new("ITEM")
                .column("I_ID", DataType::Int)
                .column("I_TITLE", DataType::Text)
                .primary_key(&["I_ID"]),
        )
        .unwrap();
    catalog
        .bulk_load(
            "ITEM",
            (0..300i64)
                .map(|i| tuple![i, format!("title{i}")])
                .collect(),
        )
        .unwrap();
    let mut server = Server::start_sql(
        Arc::new(catalog),
        &[("allItems", "SELECT * FROM ITEM ORDER BY I_ID")],
        EngineConfig::default().scan_segments(4),
        ServerConfig::default(),
    )
    .unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let all = conn.prepare("allItems").unwrap();
    let outcome = conn.execute(&all, &[]).unwrap();
    let rows = outcome.rows();
    assert_eq!(rows.len(), 300);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row[0], Value::Int(i as i64), "merge broke order at {i}");
    }
    assert!(every_segment_ran(&server));
    // One logical execution: the segments' partial rows are not statements.
    let per_replica = server
        .with_cluster(|c| {
            c.engines()
                .iter()
                .map(|e| e.stats().queries)
                .collect::<Vec<_>>()
        })
        .unwrap();
    assert_eq!(per_replica, [1]);
    conn.close().unwrap();
    server.shutdown();
}

/// Property-style single-snapshot check: a writer connection keeps bumping
/// every row's generation column (one UPDATE statement per generation, atomic
/// under group commit), while segmented reads scatter over 4 segments. Every
/// merged result must be a *single-snapshot* view: the full row set with one
/// uniform generation value — all segments of an execution are tasks of one
/// batch, which has one snapshot.
#[test]
fn segmented_reads_under_concurrent_updates_are_single_snapshot_consistent() {
    const ROWS: i64 = 256;
    let catalog = Catalog::new();
    catalog
        .create_table(
            TableDef::new("G")
                .column("ID", DataType::Int)
                .column("GEN", DataType::Int)
                .primary_key(&["ID"]),
        )
        .unwrap();
    catalog
        .bulk_load("G", (0..ROWS).map(|i| tuple![i, 0i64]).collect())
        .unwrap();
    let mut server = Server::start_sql(
        Arc::new(catalog),
        &[
            ("snap", "SELECT * FROM G ORDER BY ID"),
            ("tick", "UPDATE G SET GEN = ? WHERE ID >= 0"),
        ],
        EngineConfig::default().scan_segments(4),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut conn = Connection::connect(addr).unwrap();
            let tick = conn.prepare("tick").unwrap();
            let mut gen = 0i64;
            while !stop.load(Ordering::Relaxed) {
                gen += 1;
                let outcome = conn.execute(&tick, &[Value::Int(gen)]).unwrap();
                assert_eq!(outcome.rows_affected(), ROWS as u64);
            }
            let _ = conn.close();
            gen
        })
    };

    let mut conn = Connection::connect(addr).unwrap();
    let snap = conn.prepare("snap").unwrap();
    let mut distinct_generations = std::collections::HashSet::new();
    for round in 0..80 {
        let outcome = conn.execute(&snap, &[]).unwrap();
        let rows = outcome.rows();
        assert_eq!(rows.len(), ROWS as usize, "round {round}: torn row set");
        let generation = rows[0][1].clone();
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row[0], Value::Int(i as i64), "round {round}: order broken");
            assert_eq!(
                row[1], generation,
                "round {round}: rows from different snapshots in one \
                 scattered result (row {i} vs row 0)"
            );
        }
        distinct_generations.insert(format!("{generation:?}"));
    }
    stop.store(true, Ordering::Relaxed);
    let final_gen = writer.join().unwrap();
    assert!(every_segment_ran(&server));
    assert!(
        distinct_generations.len() > 1,
        "updates never interleaved with the reads — the test exercised \
         nothing (final generation {final_gen})"
    );
    conn.close().unwrap();
    server.shutdown();
}

/// The merge runs off the reactor: a multi-megabyte scattered result is
/// recombined on the engine's coordinator, so it must not stall an unrelated
/// connection's ping; the reactor only ships the already-merged bytes.
#[test]
fn huge_segment_merge_does_not_block_ping() {
    const ROWS: i64 = 8_000;
    let catalog = Catalog::new();
    catalog
        .create_table(
            TableDef::new("BIG")
                .column("ID", DataType::Int)
                .column("PAD", DataType::Text)
                .primary_key(&["ID"]),
        )
        .unwrap();
    let pad = "x".repeat(256);
    catalog
        .bulk_load("BIG", (0..ROWS).map(|i| tuple![i, pad.clone()]).collect())
        .unwrap();
    let mut server = Server::start_sql(
        Arc::new(catalog),
        &[("bigSort", "SELECT * FROM BIG ORDER BY ID")],
        EngineConfig::default().scan_segments(4),
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr();

    let stop = Arc::new(AtomicBool::new(false));
    let heavy = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut conn = Connection::connect(addr).unwrap();
            let big = conn.prepare("bigSort").unwrap();
            let mut merged = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let outcome = conn.execute(&big, &[]).unwrap();
                assert_eq!(outcome.rows().len(), ROWS as usize);
                merged += 1;
            }
            let _ = conn.close();
            merged
        })
    };

    // Concurrent light path: pings must keep completing promptly while ~2 MB
    // merges run back to back. The bound is deliberately generous (CI noise);
    // the regression this guards against is a reactor wedged for the whole
    // merge + encode of the big result, which showed up as multi-second
    // stalls.
    let mut conn = Connection::connect(addr).unwrap();
    let mut worst = Duration::ZERO;
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut pings = 0u32;
    while Instant::now() < deadline {
        let begun = Instant::now();
        conn.ping().unwrap();
        worst = worst.max(begun.elapsed());
        pings += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, Ordering::Relaxed);
    let merged = heavy.join().unwrap();
    assert!(merged > 0, "no big merge ever completed");
    assert!(every_segment_ran(&server));
    assert!(pings > 50, "ping loop starved entirely ({pings} pings)");
    assert!(
        worst < Duration::from_secs(2),
        "ping stalled {worst:?} behind a scattered merge ({merged} merges)"
    );
    conn.close().unwrap();
    server.shutdown();
}
