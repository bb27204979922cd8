//! An engine's threads are its cores, not its operators, and they sleep when
//! there is nothing to do. Alone in their test binary, and one at a time in
//! it, so that the process holds no other engine's threads.

use shareddb::client::Connection;
use shareddb::cluster::{ClusterConfig, ClusterEngine};
use shareddb::common::{tuple, DataType, Value};
use shareddb::core::{Engine, EngineConfig, TraceEvent};
use shareddb::server::{Server, ServerConfig};
use shareddb::sql::compile_workload;
use shareddb::storage::{Catalog, TableDef};
use shareddb::tpcw::{build_catalog, build_shared_plan, TpcwScale};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Held by each test for its whole length: they count the process's threads.
static ALONE: Mutex<()> = Mutex::new(());

/// Names (`comm`, at most 15 bytes) of this process's `sdb-*` threads.
fn engine_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("sdb-"))
        .collect();
    names.sort();
    names
}

/// [`engine_threads`], once `count` of them have named themselves — a thread
/// does that when it first runs, which nothing waits for.
fn started_threads(count: usize) -> Vec<String> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while engine_threads().len() < count && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    engine_threads()
}

/// The `/proc` directories of this process's coordinator threads.
fn coordinators() -> Vec<PathBuf> {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    let tasks = tasks.filter_map(|task| {
        let task = task.ok()?.path();
        let comm = std::fs::read_to_string(task.join("comm")).ok()?;
        (comm.trim() == "sdb-coordinator").then_some(task)
    });
    tasks.collect()
}

/// The voluntary context switches of one thread.
fn switches(task: &Path) -> u64 {
    let status = std::fs::read_to_string(task.join("status")).unwrap();
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .unwrap();
    line.trim().parse::<u64>().unwrap()
}

/// The voluntary context switches of this process's one coordinator thread.
fn coordinator_switches() -> u64 {
    let coordinators = coordinators();
    assert_eq!(coordinators.len(), 1, "one coordinator");
    switches(&coordinators[0])
}

#[test]
fn an_engine_has_one_thread_per_core_whatever_its_plan_and_a_cluster_adds_none() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    assert_eq!(engine_threads(), Vec::<String>::new());

    // Twenty operators, four cores.
    let catalog = Arc::new(build_catalog(&TpcwScale::tiny()).unwrap());
    let (plan, registry) = build_shared_plan(&catalog).unwrap();
    assert!(plan.len() >= 20);
    let mut large = Engine::start(catalog, plan, registry, EngineConfig::with_cores(4)).unwrap();
    large.execute_sync("getItemById", &[Value::Int(1)]).unwrap();
    let four =
        ["coordinator", "worker-1", "worker-2", "worker-3"].map(|kind| format!("sdb-{kind}"));
    assert_eq!(started_threads(4), four);

    // One operator, as many cores as the machine has.
    let catalog = Arc::new(Catalog::new());
    let table = TableDef::new("T")
        .column("ID", DataType::Int)
        .primary_key(&["ID"]);
    catalog.create_table(table).unwrap();
    catalog.bulk_load("T", vec![tuple![1i64]]).unwrap();
    let (plan, registry) =
        compile_workload(&catalog, &[("get", "SELECT * FROM T WHERE ID = ?")]).unwrap();
    let mut small = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
    small.execute_sync("get", &[Value::Int(1)]).unwrap();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(started_threads(4 + cores).len(), 4 + cores);
    assert_eq!(small.stats().executor_threads, cores);

    large.shutdown();
    small.shutdown();
    assert_eq!(engine_threads(), Vec::<String>::new());

    // A default server — one replica — is its reactor and that engine: no
    // thread of the cluster layer's own (it once parked two merge workers).
    let item_by_id = [("get", "SELECT * FROM T WHERE ID = ?")];
    let catalog = Arc::new(Catalog::new());
    let table = TableDef::new("T")
        .column("ID", DataType::Int)
        .primary_key(&["ID"]);
    catalog.create_table(table).unwrap();
    let engine_config = EngineConfig::with_cores(2);
    let mut server = Server::start_sql(
        Arc::clone(&catalog),
        &item_by_id,
        engine_config.clone(),
        ServerConfig::default(),
    )
    .unwrap();
    let mut conn = Connection::connect(server.local_addr()).unwrap();
    assert!(conn
        .query("SELECT * FROM T WHERE ID = 1")
        .unwrap()
        .rows()
        .is_empty());
    conn.close().unwrap();
    let one = ["coordinator", "reactor", "worker-1"].map(|kind| format!("sdb-{kind}"));
    assert_eq!(started_threads(3), one);
    server.shutdown();
    assert_eq!(engine_threads(), Vec::<String>::new());

    // Four replicas of two cores are four coordinators and four workers and
    // nothing else: every replica still starts its own pool (ROADMAP, *one
    // executor*: a process-wide pool would show up here as a diff).
    let (plan, registry) = compile_workload(&catalog, &item_by_id).unwrap();
    let mut cluster = ClusterEngine::start(
        catalog,
        plan,
        registry,
        engine_config,
        ClusterConfig::with_replicas(4),
    )
    .unwrap();
    cluster.execute_sync("get", &[Value::Int(1)]).unwrap();
    let eight = ["coordinator"; 4]
        .iter()
        .chain(&["worker-1"; 4])
        .map(|kind| format!("sdb-{kind}"))
        .collect::<Vec<_>>();
    assert_eq!(started_threads(8), eight);
    assert_eq!(cluster.stats().executor_threads, 8);
    cluster.shutdown();
    assert_eq!(engine_threads(), Vec::<String>::new());
}

/// With nothing queued the coordinator parks until a submission or a
/// shutdown wakes it — paced or not — instead of waking every heartbeat
/// (≈ 480 times a second at 2 ms). A paced engine's spacing is one timed
/// wait on the same condition variable, not a poll.
#[test]
fn an_idle_engine_sleeps_until_a_statement_or_a_shutdown_wakes_it() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let catalog = Arc::new(Catalog::new());
    let table = TableDef::new("T")
        .column("ID", DataType::Int)
        .primary_key(&["ID"]);
    catalog.create_table(table).unwrap();
    catalog.bulk_load("T", vec![tuple![1i64]]).unwrap();
    let (plan, registry) =
        compile_workload(&catalog, &[("get", "SELECT * FROM T WHERE ID = ?")]).unwrap();
    for heartbeat in [Duration::ZERO, Duration::from_millis(50)] {
        let config = EngineConfig {
            heartbeat,
            ..EngineConfig::default()
        };
        let policy = format!("heartbeat {heartbeat:?}");
        let mut engine =
            Engine::start(Arc::clone(&catalog), plan.clone(), registry.clone(), config).unwrap();
        // The second statement waits out the spacing after the first batch.
        engine.execute_sync("get", &[Value::Int(1)]).unwrap();
        engine.execute_sync("get", &[Value::Int(1)]).unwrap();
        let before = coordinator_switches();
        std::thread::sleep(Duration::from_secs(1));
        let woken = coordinator_switches() - before;
        assert!(woken <= 5, "{policy}: {woken} wake-ups in an idle second");
        // A parked coordinator still answers: a statement wakes it, and so
        // does the shutdown.
        engine.execute_sync("get", &[Value::Int(1)]).unwrap();
        engine.shutdown();
        assert_eq!(engine_threads(), Vec::<String>::new());
    }
}

/// Read-your-writes is a route: a read queued behind its session's write on
/// the write's replica is answered by that write's batch — updates apply
/// before the batch's reads run — and its coordinator waits for nothing but
/// the heartbeat's spacing: a handful of context switches, no commit wake-up
/// and no timed wait of its own.
#[test]
fn a_read_behind_its_write_is_answered_by_the_writes_batch() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let catalog = Arc::new(Catalog::new());
    let table = TableDef::new("T")
        .column("ID", DataType::Int)
        .column("V", DataType::Int)
        .primary_key(&["ID"]);
    catalog.create_table(table).unwrap();
    catalog.bulk_load("T", vec![tuple![1i64, 0i64]]).unwrap();
    let statements = [
        ("get", "SELECT * FROM T WHERE ID = ?"),
        ("put", "UPDATE T SET V = ? WHERE ID = ?"),
    ];
    let (plan, registry) = compile_workload(&catalog, &statements).unwrap();
    // Holds the write queued: its batch starts 50 ms after the warm-up's.
    let paced = EngineConfig {
        heartbeat: Duration::from_millis(50),
        ..EngineConfig::default()
    };
    let mut engine = Engine::start(catalog, plan, registry, paced).unwrap();
    // The first batch runs at once; the next one 50 ms after it.
    engine.execute_sync("get", &[Value::Int(1)]).unwrap();
    let before = coordinator_switches();

    let started = Instant::now();
    let write = engine
        .execute("put", &[Value::Int(7), Value::Int(1)])
        .unwrap();
    let read = engine.execute("get", &[Value::Int(1)]).unwrap();
    let rows = read.wait().unwrap();
    let waited = started.elapsed();
    let woken = coordinator_switches() - before;
    write.wait().unwrap();
    eprintln!("the read waited {waited:?}; its coordinator switched {woken} times");
    assert_eq!(
        rows.rows()[0][1],
        Value::Int(7),
        "the read missed its write"
    );
    let batches: Vec<(usize, usize)> = engine
        .trace()
        .iter()
        .filter_map(|record| match record.event {
            TraceEvent::Batch {
                queries, updates, ..
            } => Some((queries, updates)),
            _ => None,
        })
        .collect();
    assert_eq!(
        batches,
        [(1, 0), (1, 1)],
        "the read rode in its write's batch"
    );
    assert!(
        waited < Duration::from_millis(900),
        "the read waited {waited:?}: past its write's batch"
    );
    assert!(woken <= 10, "{woken} wake-ups of the coordinator");
    engine.shutdown();
    assert_eq!(engine_threads(), Vec::<String>::new());
}
