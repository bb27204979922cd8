//! An engine's threads are its cores, not its operators. Alone in its test
//! binary, so that the process holds no other engine's threads.
#![cfg(target_os = "linux")]

use shareddb::common::{tuple, DataType, Value};
use shareddb::core::{Engine, EngineConfig};
use shareddb::sql::compile_workload;
use shareddb::storage::{Catalog, TableDef};
use shareddb::tpcw::{build_catalog, build_shared_plan, TpcwScale};
use std::sync::Arc;

/// Names (`comm`, at most 15 bytes) of this process's `shareddb-*` threads.
fn engine_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("shareddb-"))
        .collect();
    names.sort();
    names
}

#[test]
fn an_engine_has_one_thread_per_core_whatever_its_plan() {
    assert_eq!(engine_threads(), Vec::<String>::new());

    // Twenty operators, four cores, four scan segments.
    let catalog = Arc::new(build_catalog(&TpcwScale::tiny()).unwrap());
    let (plan, registry) = build_shared_plan(&catalog).unwrap();
    assert!(plan.len() >= 20);
    let config = EngineConfig::with_cores(4).scan_segments(4);
    let mut large = Engine::start(catalog, plan, registry, config).unwrap();
    large.execute_sync("getItemById", &[Value::Int(1)]).unwrap();
    let four = ["coordi", "worker", "worker", "worker"].map(|kind| format!("shareddb-{kind}"));
    assert_eq!(engine_threads(), four);

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
    assert_eq!(engine_threads().len(), 4 + cores);
    assert_eq!(small.stats().executor_threads, cores);

    large.shutdown();
    small.shutdown();
    assert_eq!(engine_threads(), Vec::<String>::new());
}
