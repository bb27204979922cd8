//! The plan executor against a single-threaded reference, under stress, and
//! its completion rule.
//!
//! `executor_equals_serial_walk`: whatever the number of threads, a batch
//! returns per statement exactly the rows of a walk of the whole plan in id
//! order on one thread, in that walk's order. Mutations of
//! `crates/core/src/executor.rs` this test was checked to kill are listed in
//! CHANGES.md.

use proptest::{run_cases, ProptestConfig, Strategy, TestRng};
use rand::rngs::StdRng;
use rand::SeedableRng;
use shareddb::common::ids::TicketId;
use shareddb::common::{tuple, DataType, QTuple, QueryId, Tuple, Value};
use shareddb::core::batch::{bind_query, ActiveQuery};
use shareddb::core::operators::{execute_on, ExecContext};
use shareddb::core::plan::{OperatorNode, StatementSpec};
use shareddb::core::storage_ops::build_storage_operators;
use shareddb::core::{
    ActivationTemplate, Engine, EngineConfig, GlobalPlan, OperatorSpec, QueryOutcome,
    StatementRecord, StatementRegistry, SubmitOptions, TraceEvent,
};
use shareddb::sql::compile_workload;
use shareddb::storage::{Catalog, TableDef};
use shareddb::tpcw::workload::{ParamGenerator, StatementCall, WebInteraction, ALL_INTERACTIONS};
use shareddb::tpcw::{build_catalog, build_shared_plan, TpcwScale};
use std::collections::HashSet;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn pick(rng: &mut TestRng, n: usize) -> usize {
    (0..n).generate(rng)
}

/// One engine with `cores` executor threads over its own copy of the data.
struct Deployment {
    cores: usize,
    catalog: Arc<Catalog>,
    engine: Engine,
}

/// The same data and plan at 1, 2 and 8 executor threads. The heartbeat
/// gathers the statements submitted right after a warm-up statement into one
/// batch.
fn fleet(build: impl Fn() -> (Arc<Catalog>, GlobalPlan, StatementRegistry)) -> Vec<Deployment> {
    [1, 2, 8]
        .into_iter()
        .map(|cores| {
            let (catalog, plan, registry) = build();
            let config = EngineConfig {
                heartbeat: Duration::from_millis(4),
                ..EngineConfig::with_cores(cores)
            };
            let engine = Engine::start(Arc::clone(&catalog), plan, registry, config).unwrap();
            Deployment {
                cores,
                catalog,
                engine,
            }
        })
        .collect()
}

/// The reference: every query of `calls` bound into one batch, every node of
/// the plan executed once, in id order, on this thread, at the catalog's
/// current snapshot; then each query's rows taken from its root's output and
/// finished the way the statement asks (limit, computed columns or
/// projection, distinct).
fn serial_walk(deployment: &Deployment, calls: &[&StatementCall]) -> Vec<Vec<Tuple>> {
    let (catalog, engine) = (&deployment.catalog, &deployment.engine);
    let plan = engine.plan();
    let queries: Vec<ActiveQuery> = calls
        .iter()
        .enumerate()
        .map(|(i, call)| {
            let (index, spec) = engine.registry().get(call.statement).unwrap();
            let (query, ticket) = (QueryId(i as u32 + 1), TicketId(i as u64));
            let opts = SubmitOptions::default();
            bind_query(spec, index, query, ticket, &call.params, &opts).unwrap()
        })
        .collect();
    let storage = build_storage_operators(catalog, plan).unwrap();
    let ctx = ExecContext {
        catalog,
        snapshot: catalog.snapshot(),
    };
    let mut outputs: Vec<Vec<QTuple>> = Vec::with_capacity(plan.len());
    for node in plan.nodes() {
        let activations: Vec<_> = queries
            .iter()
            .flat_map(|q| {
                let here = q.activations.iter().filter(|(op, _)| *op == node.id);
                here.map(|(_, activation)| (q.query_id, activation.clone()))
            })
            .collect();
        let output = match &storage[node.id] {
            Some(storage) => storage.execute(&activations, ctx.snapshot),
            None => {
                let inputs: Vec<&[QTuple]> =
                    node.inputs.iter().map(|i| outputs[*i].as_slice()).collect();
                execute_on(&node.spec, &activations, &inputs, &ctx).map(|emitted| emitted.tuples)
            }
        };
        outputs.push(output.unwrap());
    }
    queries
        .iter()
        .map(|q| {
            let mine = outputs[q.root]
                .iter()
                .filter(|t| t.queries.contains(q.query_id));
            let mut rows: Vec<Tuple> = mine.map(|t| t.tuple.clone()).collect();
            if let (false, Some(limit)) = (q.distinct, q.limit) {
                rows.truncate(limit);
            }
            if !q.compute.is_empty() {
                let compute = |row: &Tuple| {
                    let values = q.compute.iter().map(|c| c.expr.eval(row).unwrap());
                    Tuple::new(values.collect())
                };
                rows = rows.iter().map(compute).collect();
            } else if !q.projection.is_empty() {
                rows = rows.iter().map(|r| r.project(&q.projection)).collect();
            }
            if q.distinct {
                let mut seen = HashSet::new();
                rows.retain(|row| seen.insert(row.clone()));
                rows.truncate(q.limit.unwrap_or(usize::MAX));
            }
            rows
        })
        .collect()
}

/// Runs `calls` as one burst on every deployment — the writes first, so that
/// every read is in their batch or a later one — and compares each read with
/// the serial walk over the same data, and the writes across deployments.
fn check_against_serial_walk(
    fleet: &[Deployment],
    warm_up: &StatementCall,
    calls: &[StatementCall],
) {
    let is_update = |call: &&StatementCall| {
        let (_, spec) = fleet[0].engine.registry().get(call.statement).unwrap();
        spec.is_update()
    };
    let (writes, reads): (Vec<&StatementCall>, Vec<&StatementCall>) =
        calls.iter().partition(is_update);
    let mut written: Vec<Vec<usize>> = Vec::new();
    for deployment in fleet {
        let engine = &deployment.engine;
        engine
            .execute_sync(warm_up.statement, &warm_up.params)
            .unwrap();
        let submit = |call: &&StatementCall| engine.execute(call.statement, &call.params).unwrap();
        let handles: Vec<_> = writes.iter().chain(&reads).map(submit).collect();
        let outcomes: Vec<QueryOutcome> = handles.into_iter().map(|h| h.wait().unwrap()).collect();
        let (wrote, read) = outcomes.split_at(writes.len());
        written.push(wrote.iter().map(|o| o.rows_affected()).collect());
        let expected = serial_walk(deployment, &reads);
        for ((call, got), expected) in reads.iter().zip(read).zip(expected) {
            assert!(
                got.rows() == expected,
                "{} cores, {call:?}: executor {:?}\nserial walk {expected:?}\nin {calls:#?}",
                deployment.cores,
                got.rows(),
            );
        }
    }
    assert!(
        written.iter().all(|w| *w == written[0]),
        "rows affected differ with the number of threads: {written:?} in {calls:#?}"
    );
}

/// After the property: the cases between them activated every node and ran
/// tasks both on the coordinator and (with more than one thread) on the pool.
fn assert_every_node_was_exercised(fleet: &[Deployment]) {
    for deployment in fleet {
        for op in deployment.engine.operator_stats() {
            assert!(op.active_cycles > 0, "{} never had a task", op.name);
        }
        let stats = deployment.engine.stats();
        assert_eq!(stats.executor_threads, deployment.cores);
        assert!(stats.tasks_run_by_coordinator > 0);
        assert_eq!(
            stats.tasks_run_by_workers > 0,
            deployment.cores > 1,
            "{} cores: {stats:?}",
            deployment.cores
        );
    }
}

// -- the TPC-W plan ----------------------------------------------------------

fn tpcw_scale() -> TpcwScale {
    TpcwScale::with_items(300)
}

fn tpcw_deployment() -> (Arc<Catalog>, GlobalPlan, StatementRegistry) {
    let catalog = Arc::new(build_catalog(&tpcw_scale()).unwrap());
    let (plan, registry) = build_shared_plan(&catalog).unwrap();
    (catalog, plan, registry)
}

/// A burst of TPC-W interactions: nothing but index probes, every
/// interaction at once (three parameter sets each: every node of the plan),
/// or a random handful. Parameters come from three seeds, so statements
/// repeat with equal parameters; the writes of an interaction ride along.
fn tpcw_burst(rng: &mut TestRng, params: &ParamGenerator) -> Vec<StatementCall> {
    use WebInteraction::{Home, SearchRequest};
    let interactions: Vec<(WebInteraction, u64)> = match pick(rng, 6) {
        0 => (0..1 + pick(rng, 6))
            .map(|_| ([Home, SearchRequest][pick(rng, 2)], pick(rng, 3) as u64))
            .collect(),
        1 => (0..3)
            .flat_map(|seed| ALL_INTERACTIONS.map(|i| (i, seed)))
            .collect(),
        _ => (0..1 + pick(rng, 8))
            .map(|_| (ALL_INTERACTIONS[pick(rng, 14)], pick(rng, 3) as u64))
            .collect(),
    };
    interactions
        .into_iter()
        .flat_map(|(interaction, seed)| params.calls(interaction, &mut StdRng::seed_from_u64(seed)))
        .collect()
}

// -- the plan of the engine's own tests (Figure 2), compiled from SQL --------

const FIGURE_2: &[(&str, &str)] = &[
    (
        "usersByCountry",
        "SELECT COUNTRY, SUM(ACCOUNT) FROM USERS GROUP BY COUNTRY",
    ),
    (
        "ordersOfUser",
        "SELECT * FROM USERS U, ORDERS O WHERE U.USER_ID = O.USER_ID \
         AND U.USERNAME = ? AND O.STATUS = 'OK' ORDER BY O.ORDER_ID",
    ),
    ("userById", "SELECT * FROM USERS WHERE USER_ID = ?"),
    (
        "topOrders",
        "SELECT ORDER_ID, TOTAL FROM ORDERS WHERE TOTAL >= ? ORDER BY TOTAL DESC LIMIT 5",
    ),
    ("countries", "SELECT DISTINCT COUNTRY FROM USERS"),
    ("addOrder", "INSERT INTO ORDERS VALUES (?, ?, ?, ?)"),
    ("cancelOrders", "DELETE FROM ORDERS WHERE USER_ID = ?"),
];

fn figure_2_deployment() -> (Arc<Catalog>, GlobalPlan, StatementRegistry) {
    let catalog = Arc::new(Catalog::new());
    let users = TableDef::new("USERS")
        .column("USER_ID", DataType::Int)
        .column("USERNAME", DataType::Text)
        .column("COUNTRY", DataType::Text)
        .column("ACCOUNT", DataType::Int)
        .primary_key(&["USER_ID"]);
    let orders = TableDef::new("ORDERS")
        .column("ORDER_ID", DataType::Int)
        .column("USER_ID", DataType::Int)
        .column("STATUS", DataType::Text)
        .column("TOTAL", DataType::Float)
        .primary_key(&["ORDER_ID"]);
    catalog.create_table(users).unwrap();
    catalog.create_table(orders).unwrap();
    let country = |i: i64| if i % 2 == 0 { "CH" } else { "DE" };
    let users = (0..100i64).map(|i| tuple![i, format!("user{i}"), country(i), i * 10]);
    let status = |i: i64| if i % 3 == 0 { "OK" } else { "PENDING" };
    let orders = (0..300i64).map(|i| tuple![i, i % 100, status(i), (i % 50) as f64]);
    catalog.bulk_load("USERS", users.collect()).unwrap();
    catalog.bulk_load("ORDERS", orders.collect()).unwrap();
    let (plan, mut registry) = compile_workload(&catalog, FIGURE_2).unwrap();
    // No compiled statement activates a node without the nodes below it;
    // this one does: a sort whose producer is idle unless another statement
    // of the batch wants it, and whose rows are none either way.
    let is_sort = |node: &&OperatorNode| matches!(node.spec, OperatorSpec::Sort { .. });
    let sort = plan.nodes().iter().find(is_sort).unwrap().id;
    let nothing_below =
        StatementSpec::query("sortOfNothing", sort).activate(sort, ActivationTemplate::Participate);
    registry.register(nothing_below).unwrap();
    (catalog, plan, registry)
}

/// One to ten statements over eight users, so that parameters repeat.
fn figure_2_burst(rng: &mut TestRng) -> Vec<StatementCall> {
    static NEXT_ORDER: AtomicI64 = AtomicI64::new(1_000_000);
    (0..1 + pick(rng, 10))
        .map(|_| {
            let user = pick(rng, 8) as i64;
            let (statement, params) = match pick(rng, 8) {
                0 => ("usersByCountry", vec![]),
                1 => ("ordersOfUser", vec![Value::text(format!("user{user}"))]),
                2 => ("userById", vec![Value::Int(user)]),
                3 => ("topOrders", vec![Value::Float(pick(rng, 50) as f64)]),
                4 => ("countries", vec![]),
                5 => {
                    let order = NEXT_ORDER.fetch_add(1, Ordering::Relaxed);
                    let total = Value::Float(pick(rng, 60) as f64);
                    let values = vec![Value::Int(order), Value::Int(user), "OK".into(), total];
                    ("addOrder", values)
                }
                6 => ("cancelOrders", vec![Value::Int(user)]),
                _ => ("sortOfNothing", vec![]),
            };
            StatementCall { statement, params }
        })
        .collect()
}

#[test]
fn executor_equals_serial_walk() {
    let warm_up = |statement| StatementCall {
        statement,
        params: vec![Value::Int(0)],
    };

    let tpcw = fleet(tpcw_deployment);
    let params = ParamGenerator::new(&tpcw_scale());
    run_cases(
        "executor_equals_serial_walk/tpcw",
        ProptestConfig::with_cases(48),
        |rng| check_against_serial_walk(&tpcw, &warm_up("getItemById"), &tpcw_burst(rng, &params)),
    );
    assert_every_node_was_exercised(&tpcw);

    let figure_2 = fleet(figure_2_deployment);
    run_cases(
        "executor_equals_serial_walk/figure_2",
        ProptestConfig::with_cases(96),
        |rng| check_against_serial_walk(&figure_2, &warm_up("userById"), &figure_2_burst(rng)),
    );
    assert_every_node_was_exercised(&figure_2);
}

/// 5 000 back-to-back bursts of two statements — a join over two scans and a
/// look-up, so a batch has several ready tasks and hands some to the pool —
/// on eight threads over two cores. A lost wake-up shows as a hang, which the
/// watchdog turns into a failure.
#[test]
fn executor_stress() {
    let (done, watchdog) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (catalog, plan, registry) = figure_2_deployment();
        let engine = Engine::start(catalog, plan, registry, EngineConfig::with_cores(8)).unwrap();
        for i in 0..5_000i64 {
            let user = Value::text(format!("user{}", i % 100));
            let join = engine.execute("ordersOfUser", &[user]).unwrap();
            let probe = engine.execute("userById", &[Value::Int(i % 100)]).unwrap();
            assert_eq!(probe.wait().unwrap().rows().len(), 1);
            assert_eq!(join.wait().unwrap().rows().len(), 1);
        }
        let stats = engine.stats();
        assert_eq!(stats.queries, 10_000);
        assert!(stats.tasks_run_by_workers > 0, "{stats:?}");
        done.send(()).unwrap();
    });
    watchdog
        .recv_timeout(Duration::from_secs(120))
        .expect("the executor hung (or its thread failed: see above)");
}

/// Statements complete at the batch barrier: a look-up that shares a batch
/// with a best-seller query is answered after the batch's slowest operator,
/// not when its own probe is done. (The day this changes is the pipelining
/// PR; ROADMAP says what has to come first.)
#[test]
fn a_lookup_completes_with_its_batch() {
    let (catalog, plan, registry) = tpcw_deployment();
    // Gathers the look-up and the best-seller page into one batch.
    let config = EngineConfig {
        heartbeat: Duration::from_millis(20),
        ..EngineConfig::default()
    };
    let engine = Engine::start(catalog, plan, registry, config).unwrap();
    let (item_by_id, _) = engine.registry().get("getItemById").unwrap();
    let subject = ParamGenerator::new(&tpcw_scale())
        .calls(WebInteraction::BestSellers, &mut StdRng::seed_from_u64(1))
        .remove(0);
    for attempt in 0.. {
        engine
            .execute_sync("getItemById", &[Value::Int(0)])
            .unwrap();
        let heavy = engine.execute(subject.statement, &subject.params).unwrap();
        let light = engine.execute("getItemById", &[Value::Int(7)]).unwrap();
        light.wait().unwrap();
        heavy.wait().unwrap();
        let trace = engine.trace();
        let shared = trace.iter().rev().find_map(|record| match &record.event {
            TraceEvent::Batch {
                batch,
                queries: 2,
                operators,
                ..
            } => Some((*batch, operators)),
            _ => None,
        });
        let Some((shared, operators)) = shared else {
            assert!(attempt < 20, "the two statements never shared a batch");
            continue;
        };
        let slowest_operator = operators.iter().map(|&(_, _, busy)| busy).max().unwrap();
        let lookup = trace.iter().find_map(|record| match record.event {
            TraceEvent::Statement(s) if s.batch == shared && s.statement == item_by_id => Some(s),
            _ => None,
        });
        let lookup_executed = lookup.unwrap().execute;
        assert!(
            lookup_executed >= slowest_operator,
            "the look-up was answered after {lookup_executed:?}, before the batch's \
             slowest operator ({slowest_operator:?}) had finished"
        );
        return;
    }
}

/// A statement's life is one record: every answered statement, query or
/// update, has exactly one `Statement` record in the trace ring, naming a
/// batch that has a `Batch` record (whose counts its statements make up) or
/// that ran updates only; the slow-query log at threshold zero holds the
/// same records; and the `Batch` records' busy times add up to the
/// operators' own.
#[test]
fn a_statement_is_one_record_in_the_ring_and_the_slow_log() {
    let (catalog, plan, registry) = tpcw_deployment();
    let config = EngineConfig::default().slow_query(Some(Duration::ZERO));
    let engine = Engine::start(catalog, plan, registry, config).unwrap();
    let params = ParamGenerator::new(&tpcw_scale());
    let calls: Vec<StatementCall> = ALL_INTERACTIONS
        .into_iter()
        .flat_map(|interaction| params.calls(interaction, &mut StdRng::seed_from_u64(3)))
        .collect();
    let handles: Vec<_> = calls
        .iter()
        .map(|call| engine.execute(call.statement, &call.params).unwrap())
        .collect();
    let mut tickets: Vec<u64> = handles.iter().map(|h| h.ticket().0).collect();
    for handle in handles {
        let _ = handle.wait();
    }
    // A lone write: a batch with no query, hence no `Batch` record.
    let write = params.calls(WebInteraction::BuyConfirm, &mut StdRng::seed_from_u64(4));
    let write = write
        .iter()
        .find(|call| engine.registry().get(call.statement).unwrap().1.is_update())
        .unwrap();
    let handle = engine.execute(write.statement, &write.params).unwrap();
    tickets.push(handle.ticket().0);
    handle.wait().unwrap();

    let trace = engine.trace();
    assert_eq!(trace[0].seq, 0, "the ring evicted records");
    let statements: Vec<StatementRecord> = trace
        .iter()
        .filter_map(|record| match record.event {
            TraceEvent::Statement(s) => Some(s),
            _ => None,
        })
        .collect();
    let mut recorded: Vec<u64> = statements.iter().map(|s| s.ticket).collect();
    recorded.sort_unstable();
    tickets.sort_unstable();
    assert_eq!(recorded, tickets, "one record per answered statement");
    let mut busy = Duration::ZERO;
    let mut batches = HashSet::new();
    for record in &trace {
        let TraceEvent::Batch {
            batch,
            queries,
            updates,
            operators,
        } = &record.event
        else {
            continue;
        };
        assert!(batches.insert(*batch), "batch {batch} recorded twice");
        let of_batch = statements.iter().filter(|s| s.batch == *batch).count();
        assert_eq!(of_batch, queries + updates, "batch {batch}");
        busy += operators.iter().map(|&(_, _, busy)| busy).sum::<Duration>();
    }
    let mut update_only = 0;
    for s in statements.iter().filter(|s| !batches.contains(&s.batch)) {
        let spec = engine.registry().by_index(s.statement);
        assert!(spec.is_update(), "{} has no batch record", spec.name);
        update_only += 1;
    }
    assert!(update_only >= 1);

    let (offenders, slow) = engine.slow_queries();
    assert_eq!(offenders, tickets.len() as u64);
    assert_eq!(slow, statements, "the slow log holds the ring's records");
    let operator_busy: Duration = engine.operator_stats().iter().map(|op| op.busy).sum();
    assert_eq!(busy, operator_busy);
}
