//! Engine-cluster integration tests: N engine replicas behind one endpoint,
//! statement-type routing (a replica partitions *statements*, never rows —
//! row scatter is `tests/segments.rs`), and the per-replica engine counters
//! after traffic through the real reactor and client library.

use shareddb::client::Connection;
use shareddb::cluster::{ClusterConfig, ClusterEngine};
use shareddb::common::{tuple, DataType, Value};
use shareddb::core::stats::EngineStatsSnapshot;
use shareddb::core::EngineConfig;
use shareddb::server::{Server, ServerConfig};
use shareddb::sql::SqlCompiler;
use shareddb::storage::{Catalog, TableDef};
use shareddb_bench::conformance::{corpus_catalog, load_corpus, Case, Expectation};
use std::sync::Arc;
use std::time::Duration;

fn catalog() -> Arc<Catalog> {
    let catalog = Catalog::new();
    catalog
        .create_table(
            TableDef::new("ITEM")
                .column("I_ID", DataType::Int)
                .column("I_TITLE", DataType::Text)
                .column("I_COST", DataType::Float)
                .primary_key(&["I_ID"]),
        )
        .unwrap();
    catalog
        .bulk_load(
            "ITEM",
            (0..300i64)
                .map(|i| tuple![i, format!("title{i}"), (i % 50) as f64])
                .collect(),
        )
        .unwrap();
    Arc::new(catalog)
}

const WORKLOAD: &[(&str, &str)] = &[
    ("getItem", "SELECT * FROM ITEM WHERE I_ID = ?"),
    ("allItems", "SELECT * FROM ITEM ORDER BY I_ID"),
    ("addItem", "INSERT INTO ITEM VALUES (?, ?, ?)"),
];

fn start_cluster(replicas: usize, replicate: &[&str]) -> Server {
    Server::start_sql(
        catalog(),
        WORKLOAD,
        EngineConfig::default(),
        ServerConfig {
            cluster: ClusterConfig {
                replicas,
                replicate_statements: replicate.iter().map(|s| s.to_string()).collect(),
            },
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

/// Each replica's engine counters, in replica order.
fn replica_stats(server: &Server) -> Vec<EngineStatsSnapshot> {
    server
        .with_cluster(|c| c.engines().iter().map(|e| e.stats()).collect())
        .unwrap()
}

/// The acceptance shape of the cluster: N replicas behind one endpoint,
/// hot-type executions spread over the engines, and the per-replica
/// breakdown adding up to the cluster's total.
#[test]
fn replicated_statements_spread_and_stats_show_replicas() {
    let mut server = start_cluster(3, &["getItem"]);
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let get_item = conn.prepare("getItem").unwrap();
    for i in 0..96 {
        let outcome = conn.execute(&get_item, &[Value::Int(i)]).unwrap();
        assert_eq!(outcome.rows().len(), 1);
        assert_eq!(outcome.rows()[0][0], Value::Int(i));
    }
    assert_eq!(server.engine_stats().unwrap().queries, 96);
    let replicas = replica_stats(&server);
    assert_eq!(replicas.len(), 3);
    let busy = replicas.iter().filter(|r| r.queries > 0).count();
    assert!(
        busy > 1,
        "hash-partitioned routing left replicas idle: {replicas:?}"
    );
    let per_replica: u64 = replicas.iter().map(|r| r.queries).sum();
    assert_eq!(per_replica, 96);
    conn.close().unwrap();
    server.shutdown();
}

/// Replication is routing only: with every statement type of the SQL corpus
/// forced `Replicated`, a 4-replica cluster answers each case with the rows
/// 1 replica answers it with — whichever replica the parameter hash or the
/// round-robin picks runs the statement whole.
#[test]
fn replicated_corpus_matches_single_replica() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/sql_corpus");
    let cases: Vec<Case> = load_corpus(&dir)
        .expect("load corpus")
        .into_iter()
        .filter(|c| matches!(c.expect, Expectation::Rows { .. }))
        .collect();
    let start = |replicas: usize| {
        let catalog = corpus_catalog();
        let mut compiler = SqlCompiler::new(&catalog);
        for case in &cases {
            compiler.add_statement(&case.name, &case.sql).unwrap();
        }
        let (plan, registry) = compiler.finish();
        let config = ClusterConfig {
            replicas,
            replicate_statements: cases.iter().map(|c| c.name.clone()).collect(),
        };
        ClusterEngine::start(catalog, plan, registry, EngineConfig::default(), config).unwrap()
    };
    let (one, four) = (start(1), start(4));
    assert!(four
        .routes()
        .iter()
        .all(|(_, route)| *route == shareddb::cluster::Route::Replicated));
    let sorted_rows = |outcome: &shareddb::core::QueryOutcome| {
        let mut rows: Vec<String> = outcome.rows().iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        rows
    };
    // Twice over, so that round-robin moves the parameterless cases on.
    for round in 0..2 {
        for case in &cases {
            let want = one.execute_sync(&case.name, &case.params).unwrap();
            let got = four.execute_sync(&case.name, &case.params).unwrap();
            assert_eq!(
                sorted_rows(&want),
                sorted_rows(&got),
                "case {} diverged in round {round}",
                case.name
            );
        }
    }
    // Every statement ran once, and the corpus spread over the replicas.
    let replicas: Vec<_> = four.engines().iter().map(|e| e.stats()).collect();
    assert_eq!(four.stats().queries, 2 * cases.len() as u64);
    assert!(replicas.iter().all(|r| r.queries > 0), "{replicas:?}");
}

/// Updates pin to the write replica; their effects are visible to statements
/// executing on other replicas (one shared MVCC catalog).
#[test]
fn updates_are_visible_across_replicas() {
    let mut server = start_cluster(2, &["getItem"]);
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let outcome = conn
        .query("INSERT INTO ITEM VALUES (9000, 'clustered book', 1.0)")
        .unwrap();
    assert_eq!(outcome.rows_affected(), 1);
    let get_item = conn.prepare("getItem").unwrap();
    let outcome = conn.execute(&get_item, &[Value::Int(9000)]).unwrap();
    assert_eq!(outcome.rows().len(), 1);
    assert_eq!(outcome.rows()[0][1], Value::text("clustered book"));
    let replicas = replica_stats(&server);
    assert_eq!(replicas.iter().map(|r| r.updates).sum::<u64>(), 1);
    assert_eq!(replicas[0].updates, 1, "update left the write replica");
    conn.close().unwrap();
    server.shutdown();
}

/// Per-statement cost attribution must be invariant under replication: for
/// point lookups hash-routed over 4 replicas, the cluster-merged
/// (activations, rows) per (operator, statement) pair equals the 1-replica
/// run exactly, and the merge itself is the element-wise sum of the
/// per-replica snapshots.
#[test]
fn attribution_merge_is_replica_count_invariant() {
    use shareddb::core::AttributionEntry;
    use std::collections::BTreeMap;

    fn attributed_work(replicas: usize) -> (Vec<AttributionEntry>, Vec<EngineStatsSnapshot>) {
        let catalog = catalog();
        let (plan, registry) = shareddb::sql::compile_workload(&catalog, WORKLOAD).unwrap();
        let mut cluster = ClusterEngine::start(
            catalog,
            plan,
            registry,
            EngineConfig::default(),
            ClusterConfig {
                replicas,
                replicate_statements: vec!["getItem".into()],
            },
        )
        .unwrap();
        for i in 0..64i64 {
            let outcome = cluster
                .execute_sync("getItem", &[Value::Int(i * 3 % 300)])
                .unwrap();
            assert_eq!(outcome.rows().len(), 1);
        }
        let merged = cluster.stats().attribution;
        let per_replica = cluster.engines().iter().map(|e| e.stats()).collect();
        cluster.shutdown();
        (merged, per_replica)
    }

    // Busy time is wall clock and differs run to run; the work counters
    // (activations, rows) are deterministic.
    fn work_by_key(entries: &[AttributionEntry]) -> BTreeMap<(String, String), (u64, u64)> {
        let mut map = BTreeMap::new();
        for e in entries {
            let slot = map
                .entry((e.operator.clone(), e.statement.clone()))
                .or_insert((0, 0));
            slot.0 += e.activations;
            slot.1 += e.rows;
        }
        map
    }

    let (merged_one, _) = attributed_work(1);
    let (_, per_replica_four) = attributed_work(4);

    // The merge is exactly the element-wise sum of the replica snapshots —
    // merge the SAME snapshot the replicas reported (idle busy time keeps
    // accruing between two live snapshot calls, so those can't be compared).
    let mut merged_four = EngineStatsSnapshot::default();
    for replica in &per_replica_four {
        merged_four.merge_from(replica);
    }
    let merged_four = merged_four.attribution;
    let flattened: Vec<AttributionEntry> = per_replica_four
        .iter()
        .flat_map(|replica| replica.attribution.iter().cloned())
        .collect();
    assert_eq!(work_by_key(&merged_four), work_by_key(&flattened));
    let merged_busy: u128 = merged_four.iter().map(|e| e.busy.as_nanos()).sum();
    let replica_busy: u128 = flattened.iter().map(|e| e.busy.as_nanos()).sum();
    assert_eq!(
        merged_busy, replica_busy,
        "merge changed attributed busy time"
    );

    // 4 replicas did the same attributed work as 1 (idle padding aside —
    // every replica heartbeats, so idle cycles scale with the count).
    let strip_idle = |map: BTreeMap<(String, String), (u64, u64)>| {
        map.into_iter()
            .filter(|((_, statement), _)| statement != shareddb::core::IDLE_STATEMENT)
            .collect::<BTreeMap<_, _>>()
    };
    let one = strip_idle(work_by_key(&merged_one));
    let four = strip_idle(work_by_key(&merged_four));
    assert_eq!(one, four, "replication changed per-statement attribution");
    let total_activations: u64 = one.values().map(|(a, _)| a).sum();
    assert_eq!(
        total_activations, 64,
        "every lookup attributed exactly once"
    );

    // The routed lookups really spread — more than one replica shows
    // getItem attribution.
    let routed = per_replica_four
        .iter()
        .filter(|replica| {
            replica
                .attribution
                .iter()
                .any(|e| e.statement == "getItem" && e.activations > 0)
        })
        .count();
    assert!(routed > 1, "hash routing left attribution on one replica");
}

/// A cluster's statistics are its replicas' merged in one place: after a
/// mixed TPC-W stream on two replicas, `getBestSellers` replicated and the
/// other types pinned, `ClusterEngine::stats()` is the `merge_from` fold of
/// the replicas' snapshots field by field; every attribution cell is the
/// sum of the replicas' cells of its `(operator, statement)`; and in every
/// snapshot an operator's busy time and rows are the sums of its cells and
/// its cycles the batches that ran the plan.
#[test]
fn cluster_stats_are_one_merge_of_the_replicas() {
    use rand::SeedableRng;
    use shareddb::core::TraceEvent;
    use shareddb::tpcw::{build_catalog, build_shared_plan, Mix, ParamGenerator, TpcwScale};
    use std::collections::BTreeMap;

    let scale = TpcwScale::tiny();
    let catalog = Arc::new(build_catalog(&scale).unwrap());
    let (plan, registry) = build_shared_plan(&catalog).unwrap();
    let mut cluster = ClusterEngine::start(
        catalog,
        plan,
        registry,
        EngineConfig::default(),
        ClusterConfig {
            replicas: 2,
            replicate_statements: vec!["getBestSellers".into()],
        },
    )
    .unwrap();
    let generator = ParamGenerator::new(&scale);
    std::thread::scope(|scope| {
        for seed in 0..4u64 {
            let (cluster, generator) = (&cluster, &generator);
            scope.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                for _ in 0..20 {
                    let interaction = Mix::Shopping.sample(&mut rng);
                    for call in generator.calls(interaction, &mut rng) {
                        let handle = cluster.execute(call.statement, &call.params).unwrap();
                        handle.wait().unwrap();
                    }
                }
                for page in 0..4 {
                    let subject = Value::text(shareddb::tpcw::SUBJECTS[page]);
                    let threshold = Value::Int(generator.bestseller_threshold());
                    let params = [subject, threshold];
                    cluster.execute_sync("getBestSellers", &params).unwrap();
                }
            });
        }
    });
    // Joins the coordinators: nothing is counted after this.
    cluster.shutdown();

    let total = cluster.stats();
    let replicas: Vec<EngineStatsSnapshot> = cluster.engines().iter().map(|e| e.stats()).collect();
    let mut fold = EngineStatsSnapshot::default();
    for replica in &replicas {
        fold.merge_from(replica);
    }
    // The window is a clock read at each call: the later fold's is longer.
    assert!(total.wall <= fold.wall && !total.wall.is_zero());
    fold.wall = total.wall;
    assert_eq!(total.operators, fold.operators);
    assert_eq!(total.attribution, fold.attribution);
    assert_eq!(total.phases, fold.phases);
    assert_eq!(total.scans, fold.scans);
    assert_eq!(total.update_rows, fold.update_rows);
    assert_eq!(total.histogram, fold.histogram);
    assert_eq!(total, fold);
    assert!(replicas.iter().all(|r| r.queries > 0), "{replicas:?}");
    assert!(total.updates > 0, "a stream without writes");

    // Cell by cell, the merge is the replicas' sum under one key each.
    let mut by_key: BTreeMap<(&str, &str), (u64, u64, u128)> = BTreeMap::new();
    for entry in replicas.iter().flat_map(|r| &r.attribution) {
        let cell = by_key
            .entry((&entry.operator, &entry.statement))
            .or_default();
        cell.0 += entry.activations;
        cell.1 += entry.rows;
        cell.2 += entry.busy.as_nanos();
    }
    assert_eq!(total.attribution.len(), by_key.len(), "a key merged twice");
    for entry in &total.attribution {
        let cell = by_key[&(entry.operator.as_str(), entry.statement.as_str())];
        let merged = (entry.activations, entry.rows, entry.busy.as_nanos());
        assert_eq!(merged, cell, "{} / {}", entry.operator, entry.statement);
    }

    // An operator's books close on its cells; its cycles are the batches
    // that ran the plan — per replica, the trace ring's batch records.
    let batches_of = |engine: &shareddb::core::Engine| {
        let trace = engine.trace();
        assert_eq!(trace.first().map(|r| r.seq), Some(0), "the ring wrapped");
        let batches = trace
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Batch { .. }));
        batches.count() as u64
    };
    let mut books: Vec<(&EngineStatsSnapshot, u64)> = replicas
        .iter()
        .zip(cluster.engines().iter().map(batches_of))
        .collect();
    books.push((&total, books.iter().map(|(_, batches)| batches).sum()));
    for (snapshot, batches) in books {
        for op in &snapshot.operators {
            let cells = snapshot
                .attribution
                .iter()
                .filter(|e| e.operator == op.name);
            let (rows, busy) = cells.fold((0, Duration::ZERO), |(rows, busy), e| {
                (rows + e.rows, busy + e.busy)
            });
            assert_eq!((op.tuples_out, op.busy), (rows, busy), "{}", op.name);
            assert_eq!(op.cycles, batches, "{}", op.name);
        }
    }
}

/// `replicas: 1` (the default) keeps the classic single-engine behaviour:
/// one replica entry in the stats, everything served by it.
#[test]
fn single_replica_default_is_unchanged() {
    let mut server = start_cluster(1, &[]);
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    let outcome = conn.query("SELECT * FROM ITEM WHERE I_ID = 7").unwrap();
    assert_eq!(outcome.rows().len(), 1);
    let replicas = replica_stats(&server);
    assert_eq!(replicas.len(), 1);
    assert_eq!(replicas[0].queries, server.engine_stats().unwrap().queries);
    assert_eq!(replicas[0].queries, 1);
    conn.close().unwrap();
    server.shutdown();
}
