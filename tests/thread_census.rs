//! An engine's threads are its cores, not its operators, and they sleep when
//! there is nothing to do. Alone in their test binary, and one at a time in
//! it, so that the process holds no other engine's threads.

use shareddb::client::Connection;
use shareddb::common::{tuple, DataType, Value};
use shareddb::core::{Engine, EngineConfig, GlobalPlan, StatementRegistry, TraceEvent};
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

/// How long a thread may take to show up in, or leave, `/proc/self/task`.
const SETTLE: Duration = Duration::from_secs(5);

/// [`engine_threads`], once `count` of them have named themselves — a thread
/// does that when it first runs, which nothing waits for.
fn started_threads(count: usize) -> Vec<String> {
    let deadline = Instant::now() + SETTLE;
    while engine_threads().len() < count && Instant::now() < deadline {
        std::thread::yield_now();
    }
    engine_threads()
}

/// Asserts that no `sdb-*` thread is left after a shutdown. A joined thread
/// can linger in `/proc/self/task` for a moment after `join` returns, so
/// this polls under the deadline [`started_threads`] uses; a thread that is
/// really left running still fails it.
fn stopped_threads() {
    let deadline = Instant::now() + SETTLE;
    while !engine_threads().is_empty() && Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(engine_threads(), Vec::<String>::new());
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
fn an_engine_has_one_thread_per_core_whatever_its_plan_and_a_server_adds_its_reactor() {
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
    stopped_threads();

    // A server is its reactor and its engine, nothing else.
    let item_by_id = [("get", "SELECT * FROM T WHERE ID = ?")];
    let catalog = Arc::new(Catalog::new());
    let table = TableDef::new("T")
        .column("ID", DataType::Int)
        .primary_key(&["ID"]);
    catalog.create_table(table).unwrap();
    let mut server = Server::start_sql(
        catalog,
        &item_by_id,
        EngineConfig::with_cores(2),
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
    stopped_threads();
}

/// With nothing queued the coordinator parks until a submission or a
/// shutdown wakes it: no timer wakes it.
#[test]
fn an_idle_engine_sleeps_until_a_statement_or_a_shutdown_wakes_it() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let (catalog, plan, registry) = one_table();
    let mut engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
    engine.execute_sync("get", &[Value::Int(1)]).unwrap();
    engine.execute_sync("get", &[Value::Int(1)]).unwrap();
    let before = coordinator_switches();
    std::thread::sleep(Duration::from_secs(1));
    let woken = coordinator_switches() - before;
    assert!(woken <= 5, "{woken} wake-ups in an idle second");
    // A parked coordinator still answers: a statement wakes it, and so
    // does the shutdown.
    engine.execute_sync("get", &[Value::Int(1)]).unwrap();
    engine.shutdown();
    stopped_threads();
}

/// `T(ID key, V)` holding the row `(1, 0)`, and `get` / `put` by key.
fn one_table() -> (Arc<Catalog>, GlobalPlan, StatementRegistry) {
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
    (catalog, plan, registry)
}

/// `(queries, updates)` of every batch in the engine's trace that ran
/// queries, oldest first.
fn batches(engine: &Engine) -> Vec<(usize, usize)> {
    let trace = engine.trace();
    let batches = trace.iter().filter_map(|record| match record.event {
        TraceEvent::Batch {
            queries, updates, ..
        } => Some((queries, updates)),
        _ => None,
    });
    batches.collect()
}

/// The batching rule: what arrives while a batch runs is queued, and the
/// queue is the next batch once that one is done. The coordinator is held in
/// a batch whose look-up waits for `T`, which the test holds; forty look-ups
/// from four threads queue meanwhile and are the next batch, exactly. After
/// it the coordinator parks with no timer: nothing wakes it in an idle
/// second.
#[test]
fn what_queues_while_a_batch_runs_is_the_next_batch() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    const THREADS: usize = 4;
    const EACH: usize = 10;
    let (catalog, plan, registry) = one_table();
    let engine = Engine::start(
        Arc::clone(&catalog),
        plan,
        registry,
        EngineConfig::default(),
    );
    let mut engine = engine.unwrap();
    let table = catalog.table("T").unwrap();
    let hold = table.write();
    let ahead = engine.execute("get", &[Value::Int(1)]).unwrap();
    while engine.queued() > 0 {
        std::thread::yield_now();
    }
    let handles: Vec<_> = std::thread::scope(|scope| {
        let submit = || -> Vec<_> {
            let each = (0..EACH).map(|_| engine.execute("get", &[Value::Int(1)]));
            each.collect()
        };
        let submitters: Vec<_> = (0..THREADS).map(|_| scope.spawn(submit)).collect();
        let handles = submitters.into_iter().map(|s| s.join().unwrap());
        handles.flatten().collect()
    });
    assert_eq!(
        engine.queued(),
        THREADS * EACH,
        "they queue behind the held batch"
    );
    drop(hold);
    ahead.wait().unwrap();
    for handle in handles {
        assert_eq!(handle.unwrap().wait().unwrap().rows().len(), 1);
    }
    assert_eq!(batches(&engine), [(1, 0), (THREADS * EACH, 0)]);

    // The coordinator parked once the batch was answered; let it get there,
    // then count: a timed wait of any period under two seconds would show.
    std::thread::sleep(Duration::from_millis(100));
    let before = coordinator_switches();
    std::thread::sleep(Duration::from_secs(1));
    let woken = coordinator_switches() - before;
    assert!(woken <= 1, "{woken} wake-ups in an idle second");
    engine.shutdown();
    stopped_threads();
}

/// Read-your-writes is the queue's order: a read queued behind its session's
/// write on the engine's one admission queue is answered by that write's
/// batch — updates apply before the batch's reads run — and its coordinator
/// waits for nothing but the batch ahead: a handful of context switches, no
/// commit wake-up and no timed wait of its own.
#[test]
fn a_read_behind_its_write_is_answered_by_the_writes_batch() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let (catalog, plan, registry) = one_table();
    let mut engine = Engine::start(
        Arc::clone(&catalog),
        plan,
        registry,
        EngineConfig::default(),
    )
    .unwrap();
    // Holds the write queued: the look-up ahead of it waits for T, held
    // here, and the write and the read queue behind its batch.
    let table = catalog.table("T").unwrap();
    let hold = table.write();
    let ahead = engine.execute("get", &[Value::Int(1)]).unwrap();
    while engine.queued() > 0 {
        std::thread::yield_now();
    }
    let write = engine
        .execute("put", &[Value::Int(7), Value::Int(1)])
        .unwrap();
    let read = engine.execute("get", &[Value::Int(1)]).unwrap();
    let before = coordinator_switches();
    let started = Instant::now();
    drop(hold);
    ahead.wait().unwrap();
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
    assert_eq!(
        batches(&engine),
        [(1, 0), (1, 1)],
        "the read rode in its write's batch"
    );
    assert!(
        waited < Duration::from_millis(900),
        "the read waited {waited:?}: past its write's batch"
    );
    assert!(woken <= 10, "{woken} wake-ups of the coordinator");
    engine.shutdown();
    stopped_threads();
}
