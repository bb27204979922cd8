//! The batched, push-based SharedDB runtime: the engine and its handles.
//!
//! An engine is an always-on global plan plus, by lifetime:
//!
//! * per submission — `admission`: a statement is bound and queued while the
//!   current batch is processed (Section 3.2);
//! * per batch — `coordinator`: the queue is drained into a
//!   [`crate::QueryBatch`] whose steps apply its updates (group commit),
//!   build the run on the batch's one snapshot, run it, and let `routing`
//!   hand every outcome back;
//! * per task — `executor`: one operator cycle is one task, one thread is
//!   one core (Section 4.3);
//! * for the engine's life — this module: [`Engine`] (start, shutdown, its
//!   one statistics snapshot), its shared state, and the types a caller holds:
//!   [`ResultSet`], [`QueryOutcome`], [`QueryHandle`], [`SubmitOptions`].
//!
//! Clients interact through [`Engine::execute`] (asynchronous, returns a
//! [`QueryHandle`]) or [`Engine::execute_sync`].

use crate::admission::{classify_statement, Admission, Lane};
use crate::completions::Completions;
use crate::config::EngineConfig;
use crate::coordinator::coordinator_loop;
use crate::executor::Executor;
use crate::plan::{GlobalPlan, StatementRegistry};
use crate::stats::{
    AttributionEntry, AttributionTable, EngineStats, EngineStatsSnapshot, Phase, ScanCounters,
};
use crate::storage_ops::{build_storage_operators, StorageOperator};
use crate::trace::{
    Ring, StatementRecord, TraceEvent, TraceRecord, SLOW_LOG_CAPACITY, TRACE_CAPACITY,
};
use shareddb_common::ids::TicketId;
use shareddb_common::sync::Mutex;
use shareddb_common::{Error, Result, Schema, Tuple};
use shareddb_storage::Catalog;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The rows produced for one query.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Schema of the rows (after projection).
    pub schema: Schema,
    /// The result rows, in the order produced by the query's root operator.
    pub rows: Vec<Tuple>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Outcome of one statement execution.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// A query returning rows.
    Rows(ResultSet),
    /// An update reporting its affected row count.
    Updated {
        /// Number of rows inserted / modified / deleted.
        rows_affected: usize,
    },
}

impl QueryOutcome {
    /// Convenience accessor: the rows of a query outcome (empty for updates).
    pub fn rows(&self) -> &[Tuple] {
        match self {
            QueryOutcome::Rows(rs) => &rs.rows,
            QueryOutcome::Updated { .. } => &[],
        }
    }

    /// Convenience accessor: rows affected by an update (0 for queries).
    pub fn rows_affected(&self) -> usize {
        match self {
            QueryOutcome::Rows(_) => 0,
            QueryOutcome::Updated { rows_affected } => *rows_affected,
        }
    }
}

/// Handle to a submitted statement execution.
#[derive(Debug)]
pub struct QueryHandle {
    pub(crate) ticket: TicketId,
    /// The statement's private target. `None`: it was submitted with
    /// [`SubmitOptions::completions`] and is answered there.
    pub(crate) slot: Option<Arc<Completions>>,
}

impl QueryHandle {
    /// The ticket identifying this execution.
    pub fn ticket(&self) -> TicketId {
        self.ticket
    }

    /// Blocks until the result is available.
    pub fn wait(self) -> Result<QueryOutcome> {
        self.outcome(None)
            .expect("a wait without deadline ends with an outcome")
    }

    /// Non-blocking poll: `None` while the statement is still in flight,
    /// `Some(outcome)` exactly once when it completes.
    pub fn try_wait(&self) -> Option<Result<QueryOutcome>> {
        self.outcome(Some(Instant::now()))
    }

    /// Blocks until the result is available or the deadline passes.
    pub fn wait_timeout(self, timeout: Duration) -> Result<QueryOutcome> {
        self.outcome(Some(Instant::now() + timeout))
            .unwrap_or(Err(Error::DeadlineExceeded))
    }

    /// Every statement is pushed one outcome — by its batch, or by the
    /// shutdown that finds it queued — so a wait without deadline returns.
    fn outcome(&self, deadline: Option<Instant>) -> Option<Result<QueryOutcome>> {
        match &self.slot {
            Some(slot) => slot.wait(deadline),
            None => Some(Err(Error::InvalidParameter(
                "the statement is answered through its submitter's completion queue".into(),
            ))),
        }
    }
}

/// Options for [`Engine::submit`].
#[derive(Clone, Default)]
pub struct SubmitOptions {
    /// Reject the submission with [`Error::Overloaded`] when the admission
    /// queue already holds this many statements. The check and the enqueue
    /// happen under the queue lock, so the bound is exact even with many
    /// concurrent submitters (no check-then-enqueue TOCTOU).
    pub max_queue_depth: Option<usize>,
    /// Where the outcome goes, under which tag (including the failure of a
    /// statement an engine shutdown finds queued): one reader serves any
    /// number of statements and engines and is woken once per drain, not per
    /// statement. `None` answers through the returned [`QueryHandle`].
    pub completions: Option<(Arc<Completions>, u64)>,
}

pub(crate) struct EngineInner {
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) plan: GlobalPlan,
    pub(crate) registry: StatementRegistry,
    pub(crate) config: EngineConfig,
    pub(crate) admission: Admission,
    /// Class per statement (registry index), precomputed at start.
    pub(crate) lane_of: Vec<Lane>,
    pub(crate) shutdown: AtomicBool,
    pub(crate) stats: Arc<EngineStats>,
    /// Start of the current statistics window (engine start, or the last
    /// [`Engine::reset_stats`]); the wall clock for busy-fraction numbers.
    pub(crate) stats_epoch: Mutex<Instant>,
    /// The one record of operator cycles: per-operator × per-statement-type
    /// cost attribution, whose row sums are each operator's busy time and
    /// rows.
    pub(crate) attribution: AttributionTable,
    /// Runs each batch's operator cycles as tasks.
    pub(crate) executor: Arc<Executor>,
    /// The scan and probe operators of the plan (shared with the executor);
    /// held here for their counters.
    pub(crate) storage_ops: Arc<Vec<Option<StorageOperator>>>,
    /// Every batch's and every statement's record.
    pub(crate) trace: Ring<TraceEvent>,
    /// The statement records that crossed the slow-query threshold; the
    /// pushed count is the offender total.
    pub(crate) slow: Ring<StatementRecord>,
}

/// The SharedDB engine: an always-on global plan plus the batching runtime.
pub struct Engine {
    pub(crate) inner: Arc<EngineInner>,
    coordinator: Option<JoinHandle<()>>,
}

impl Engine {
    /// Starts the engine: spawns the coordinator thread and the executor's
    /// pool — `core_budget − 1` threads when a budget is set, else one fewer
    /// than the machine's cores — whatever the size of the plan.
    pub fn start(
        catalog: Arc<Catalog>,
        plan: GlobalPlan,
        mut registry: StatementRegistry,
        config: EngineConfig,
    ) -> Result<Engine> {
        registry.validate(&plan)?;
        crate::demand::push_down(&plan, &mut registry);
        let storage_ops = Arc::new(build_storage_operators(&catalog, &plan)?);
        let statement_names: Vec<String> = registry.iter().map(|s| s.name.clone()).collect();
        let lane_of: Vec<Lane> = registry
            .iter()
            .map(|s| classify_statement(s, &plan))
            .collect();
        let stats = Arc::new(EngineStats::with_statements(statement_names.clone()));
        let workers = if config.core_budget == usize::MAX {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.core_budget
        };
        let executor = Executor::start(
            plan.clone(),
            Arc::clone(&storage_ops),
            Arc::clone(&catalog),
            Arc::clone(&stats),
            workers,
        )?;
        let inner = Arc::new(EngineInner {
            catalog: Arc::clone(&catalog),
            plan: plan.clone(),
            registry,
            config,
            admission: Admission::default(),
            lane_of,
            shutdown: AtomicBool::new(false),
            stats,
            stats_epoch: Mutex::new(Instant::now()),
            attribution: AttributionTable::new(
                plan.nodes().iter().map(|n| n.name.clone()).collect(),
                statement_names,
            ),
            executor,
            storage_ops,
            trace: Ring::new(TRACE_CAPACITY),
            slow: Ring::new(SLOW_LOG_CAPACITY),
        });

        let coordinator_inner = Arc::clone(&inner);
        let coordinator = std::thread::Builder::new()
            .name("sdb-coordinator".to_string())
            .spawn(move || coordinator_loop(coordinator_inner))
            .map_err(|e| {
                inner.executor.shutdown();
                Error::Internal(format!("failed to spawn coordinator: {e}"))
            })?;

        Ok(Engine {
            inner,
            coordinator: Some(coordinator),
        })
    }

    /// The catalog the engine runs on.
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.inner.catalog)
    }

    /// The global plan.
    pub fn plan(&self) -> &GlobalPlan {
        &self.inner.plan
    }

    /// The statement registry the engine executes from.
    pub fn registry(&self) -> &StatementRegistry {
        &self.inner.registry
    }

    /// Everything the engine records, in one snapshot: its counters and
    /// histograms, the operators and their cost attribution, phases, scans
    /// and update rows, over the window since start or the last
    /// [`Engine::reset_stats`].
    pub fn stats(&self) -> EngineStatsSnapshot {
        let inner = &self.inner;
        let (operators, attribution) = inner.attribution.snapshot();
        EngineStatsSnapshot {
            executor_threads: inner.executor.threads(),
            wall: inner.stats_epoch.lock().elapsed(),
            operators,
            attribution,
            scans: self
                .scan_counters()
                .map(|(table, counters)| counters.snapshot(table))
                .collect(),
            ..inner.stats.snapshot()
        }
    }

    fn scan_counters(&self) -> impl Iterator<Item = (&String, &ScanCounters)> {
        self.inner.storage_ops.iter().filter_map(|op| match op {
            Some(StorageOperator::Scan {
                table, counters, ..
            }) => Some((table, counters)),
            _ => None,
        })
    }

    /// The retained tail of the slow-query log, oldest first.
    pub fn slow_queries(&self) -> Vec<StatementRecord> {
        let records = self.inner.slow.snapshot().into_iter();
        records.map(|r| r.event).collect()
    }

    /// Total slow-query offenders, retained in the log or not.
    pub fn slow_query_count(&self) -> u64 {
        self.inner.slow.pushed()
    }

    /// The cost attribution alone: the nonzero cells of [`Engine::stats`]'s
    /// `attribution`.
    pub fn attribution(&self) -> Vec<AttributionEntry> {
        self.inner.attribution.snapshot().1
    }

    /// Records a reply's [`Phase::Flush`] — its outcome ready at the network
    /// reactor → its last byte accepted by the socket — for the statement at
    /// registry `statement`, in the engine's one phase table.
    pub fn record_flush(&self, statement: usize, flushed: Duration) {
        let stats = &self.inner.stats;
        stats.record_phase(statement, Phase::Flush, flushed);
    }

    /// The retained trace ring, oldest first.
    pub fn trace(&self) -> Vec<TraceRecord> {
        self.inner.trace.snapshot()
    }

    /// Zeroes the engine-level statistics, phase histograms, slow-query log,
    /// operator and scan counters, and restarts the busy-fraction wall clock.
    /// Bench harnesses call this after warm-up so reported numbers cover only
    /// the measured window.
    pub fn reset_stats(&self) {
        self.inner.stats.reset();
        self.inner.slow.reset();
        self.inner.attribution.reset();
        self.scan_counters()
            .for_each(|(_, counters)| counters.reset());
        *self.inner.stats_epoch.lock() = Instant::now();
    }

    /// Stops the engine: admits nothing further ([`Error::EngineShutdown`]),
    /// answers what is queued from one last batch and joins all threads.
    pub fn shutdown(&mut self) {
        {
            // Under the queue lock: the coordinator checks the flag under it
            // before it parks, so it sees the flag or the notify.
            let _queue = self.inner.admission.queue.lock();
            if self.inner.shutdown.swap(true, Ordering::AcqRel) {
                return;
            }
            self.inner.admission.signal.notify_all();
        }
        if let Some(handle) = self.coordinator.take() {
            let _ = handle.join();
        }
        // The coordinator is the only source of runs: with it gone the pool
        // is idle.
        self.inner.executor.shutdown();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::plan::{ActivationTemplate, PlanBuilder, StatementSpec, UpdateTemplate};
    use crate::SubmitOptions;
    use shareddb_common::agg::AggregateFunction;
    use shareddb_common::{tuple, DataType, Expr, SortKey, Value};
    use shareddb_storage::{IndexDef, IndexKind, TableDef};

    /// Builds a small catalog + plan resembling Figure 2 of the paper:
    /// USERS and ORDERS scans, a shared hash join, a group-by over USERS and
    /// a sort over the join output.
    pub(crate) fn build_engine(config: EngineConfig) -> Engine {
        let catalog = Arc::new(Catalog::new());
        catalog
            .create_table(
                TableDef::new("USERS")
                    .column("USER_ID", DataType::Int)
                    .column("USERNAME", DataType::Text)
                    .column("COUNTRY", DataType::Text)
                    .column("ACCOUNT", DataType::Int)
                    .primary_key(&["USER_ID"]),
            )
            .unwrap();
        catalog
            .create_table(
                TableDef::new("ORDERS")
                    .column("ORDER_ID", DataType::Int)
                    .column("USER_ID", DataType::Int)
                    .column("STATUS", DataType::Text)
                    .column("TOTAL", DataType::Float)
                    .primary_key(&["ORDER_ID"]),
            )
            .unwrap();
        catalog
            .create_index(IndexDef {
                name: "USERS_PK".into(),
                table: "USERS".into(),
                column: "USER_ID".into(),
                kind: IndexKind::Values,
            })
            .unwrap();
        let users: Vec<_> = (0..100i64)
            .map(|i| {
                tuple![
                    i,
                    format!("user{i}"),
                    if i % 2 == 0 { "CH" } else { "DE" },
                    i * 10
                ]
            })
            .collect();
        let orders: Vec<_> = (0..300i64)
            .map(|i| {
                tuple![
                    i,
                    i % 100,
                    if i % 3 == 0 { "OK" } else { "PENDING" },
                    (i % 50) as f64
                ]
            })
            .collect();
        catalog.bulk_load("USERS", users).unwrap();
        catalog.bulk_load("ORDERS", orders).unwrap();

        let mut b = PlanBuilder::new(&catalog);
        let users_scan = b.table_scan("USERS").unwrap();
        let orders_scan = b.table_scan("ORDERS").unwrap();
        let users_probe = b.index_probe("USERS").unwrap();
        // ORDERS builds, so that this join is not the group-join's below.
        let join = b
            .hash_join(orders_scan, users_scan, "ORDERS.USER_ID", "USERS.USER_ID")
            .unwrap();
        let join_sort = b.sort(join, vec![SortKey::asc(0)]).unwrap();
        let gamma = b
            .group_by(
                users_scan,
                vec!["USERS.COUNTRY"],
                vec![(AggregateFunction::Sum, "USERS.ACCOUNT", "SUM_ACCOUNT")],
            )
            .unwrap();
        let top = b.top_n(orders_scan, vec![SortKey::desc(3)]).unwrap();
        // Two operators that cannot run: a sort on a column the rows do not
        // have (its comparator panics), and a filter the statement below
        // gives a text column as predicate (it returns a type error) with a
        // sort and a top-n downstream of it.
        let bad_sort = b.sort(users_scan, vec![SortKey::asc(99)]).unwrap();
        let bad_filter = b.filter(orders_scan).unwrap();
        let after_bad_filter = b.sort(bad_filter, vec![SortKey::asc(0)]).unwrap();
        let top_after_bad_filter = b.top_n(after_bad_filter, vec![SortKey::asc(0)]).unwrap();
        // A group-join: a join that feeds nothing but a group-by over its
        // build side, as the best-seller chain of TPC-W.
        let sales_join = b
            .hash_join(users_scan, orders_scan, "USERS.USER_ID", "ORDERS.USER_ID")
            .unwrap();
        let sales = b
            .group_by(
                sales_join,
                vec!["USERS.USER_ID", "USERS.USERNAME"],
                vec![(AggregateFunction::Sum, "ORDERS.TOTAL", "SALES")],
            )
            .unwrap();
        let plan = b.build();

        let mut registry = StatementRegistry::new();
        // Q1: SELECT COUNTRY, SUM(ACCOUNT) FROM USERS GROUP BY COUNTRY
        registry
            .register(
                StatementSpec::query("usersByCountry", gamma)
                    .activate(
                        users_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(gamma, ActivationTemplate::Having { predicate: None }),
            )
            .unwrap();
        // Q2: SELECT * FROM USERS U, ORDERS O WHERE U.USER_ID = O.USER_ID
        //     AND U.USERNAME = ? AND O.STATUS = 'OK', sorted by order id.
        registry
            .register(
                StatementSpec::query("ordersOfUser", join_sort)
                    .activate(
                        users_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::col(1).eq(Expr::param(0)),
                        },
                    )
                    .activate(
                        orders_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::col(2).eq(Expr::lit("OK")),
                        },
                    )
                    .activate(join, ActivationTemplate::Participate)
                    .activate(join_sort, ActivationTemplate::Participate)
                    .project(vec![4, 5, 6, 7, 0, 1, 2, 3]),
            )
            .unwrap();
        // Q3: point look-up of one user through the shared index probe.
        registry
            .register(StatementSpec::query("userById", users_probe).activate(
                users_probe,
                ActivationTemplate::Probe {
                    column: 0,
                    key: Expr::param(0),
                    residual: None,
                },
            ))
            .unwrap();
        // Q4: top-N most expensive orders.
        registry
            .register(
                StatementSpec::query("topOrders", top)
                    .activate(
                        orders_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::col(3).gt_eq(Expr::param(0)),
                        },
                    )
                    .activate(top, ActivationTemplate::TopN { limit: 5 }),
            )
            .unwrap();
        // U1: register a new order.
        registry
            .register(StatementSpec::update(
                "addOrder",
                "ORDERS",
                UpdateTemplate::Insert {
                    values: vec![
                        Expr::param(0),
                        Expr::param(1),
                        Expr::lit("OK"),
                        Expr::param(2),
                    ],
                },
            ))
            .unwrap();
        // U2: cancel the orders of one user.
        registry
            .register(StatementSpec::update(
                "cancelOrders",
                "ORDERS",
                UpdateTemplate::Delete {
                    predicate: Expr::col(1).eq(Expr::param(0)),
                },
            ))
            .unwrap();

        // B1: every user, through the sort that panics.
        registry
            .register(
                StatementSpec::query("brokenSort", bad_sort)
                    .activate(
                        users_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(bad_sort, ActivationTemplate::Participate),
            )
            .unwrap();
        // B2: the filter fails; its consumers two hops down must still end.
        registry
            .register(
                StatementSpec::query("brokenFilter", top_after_bad_filter)
                    .activate(
                        orders_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(
                        bad_filter,
                        ActivationTemplate::Filter {
                            predicate: Expr::col(2),
                        },
                    )
                    .activate(after_bad_filter, ActivationTemplate::Participate)
                    .activate(top_after_bad_filter, ActivationTemplate::TopN { limit: 3 }),
            )
            .unwrap();

        // Q5: SELECT U.USER_ID, U.USERNAME, SUM(O.TOTAL) FROM USERS U, ORDERS O
        //     WHERE U.USER_ID = O.USER_ID AND U.COUNTRY = ? AND O.TOTAL >= 10
        //     GROUP BY U.USER_ID, U.USERNAME
        registry
            .register(
                StatementSpec::query("salesByUser", sales)
                    .activate(
                        users_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::col(2).eq(Expr::param(0)),
                        },
                    )
                    .activate(
                        orders_scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::col(3).gt_eq(Expr::lit(10.0)),
                        },
                    )
                    .activate(sales_join, ActivationTemplate::Participate)
                    .activate(sales, ActivationTemplate::Having { predicate: None }),
            )
            .unwrap();

        Engine::start(catalog, plan, registry, config).unwrap()
    }

    #[test]
    fn group_by_query_end_to_end() {
        let engine = build_engine(EngineConfig::default());
        let outcome = engine.execute_sync("usersByCountry", &[]).unwrap();
        let rows = outcome.rows();
        assert_eq!(rows.len(), 2);
        // 50 even users (CH) with accounts 0,20,..,980 -> 24500.
        let ch = rows.iter().find(|r| r[0] == Value::text("CH")).unwrap();
        assert_eq!(
            ch[1],
            Value::Int((0..100).filter(|i| i % 2 == 0).map(|i| i * 10).sum())
        );
    }

    /// The group-join answers what the join and the group-by answer apart:
    /// alone in its batch it runs as one task, beside a statement that reads
    /// its join (the serial walk of `tests/executor.rs` holds the rows), as
    /// two; EXPLAIN ANALYZE says where the join ran.
    #[test]
    fn group_join_query_end_to_end() {
        let engine = build_engine(EngineConfig::default());
        let rows = engine
            .execute_sync("salesByUser", &[Value::text("DE")])
            .unwrap();
        // User u has orders u, u + 100, u + 200 of (order % 50) each: all
        // three of them count, or none.
        let sales = |u: i64| {
            let totals = [u, u + 100, u + 200].map(|o| (o % 50) as f64);
            totals.into_iter().filter(|t| *t >= 10.0).sum::<f64>()
        };
        let mut expected: Vec<(i64, f64)> = (1..100)
            .step_by(2)
            .filter(|u| sales(*u) > 0.0)
            .map(|u| (u, sales(u)))
            .collect();
        expected.sort_by_key(|(u, _)| *u);
        let got: Vec<(i64, f64)> = rows
            .rows()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[2].as_float().unwrap()))
            .collect();
        assert_eq!(got, expected);
        assert_eq!(
            rows.rows()[0][1],
            Value::text(format!("user{}", expected[0].0))
        );
        let data = engine.stats();
        let stats = &data.operators;
        assert_eq!(
            (stats[11].active_cycles, stats[11].busy),
            (1, Duration::ZERO)
        );
        assert_eq!(stats[11].tuples_out, 3 * expected.len() as u64);
        let (index, _) = engine.registry().get("salesByUser").unwrap();
        let text = crate::render_explain_text(
            &engine.catalog(),
            engine.plan(),
            engine.registry(),
            index,
            Some(&data),
        );
        let join_line = text.lines().find(|l| l.contains("HashJoin#11")).unwrap();
        assert!(
            join_line.ends_with("(activated) runs inside GroupBy#12"),
            "{text}"
        );
    }

    #[test]
    fn join_query_with_parameters() {
        let engine = build_engine(EngineConfig::default());
        let outcome = engine
            .execute_sync("ordersOfUser", &[Value::text("user7")])
            .unwrap();
        let rows = outcome.rows();
        // User 7 has orders 7, 107, 207; status OK only for multiples of 3 -> 207.
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][4], Value::Int(207));
        assert_eq!(rows[0][1], Value::text("user7"));
    }

    #[test]
    fn concurrent_queries_share_one_batch() {
        // The statements behind the first batch are queued while it runs
        // and form the next.
        let engine = build_engine(EngineConfig::default());
        let handles: Vec<_> = (0..50)
            .map(|i| {
                engine
                    .execute("ordersOfUser", &[Value::text(format!("user{}", i % 100))])
                    .unwrap()
            })
            .collect();
        for h in handles {
            let outcome = h.wait().unwrap();
            assert!(outcome.rows().len() <= 3);
        }
        let stats = engine.stats();
        assert_eq!(stats.queries, 50);
        // Batching must have grouped many queries into few batches.
        assert!(stats.batches < 50, "batches = {}", stats.batches);
    }

    #[test]
    fn index_probe_point_query() {
        let engine = build_engine(EngineConfig::default());
        let outcome = engine.execute_sync("userById", &[Value::Int(33)]).unwrap();
        assert_eq!(outcome.rows().len(), 1);
        assert_eq!(outcome.rows()[0][1], Value::text("user33"));
    }

    #[test]
    fn top_n_query_respects_limit() {
        let engine = build_engine(EngineConfig::default());
        let outcome = engine
            .execute_sync("topOrders", &[Value::Float(0.0)])
            .unwrap();
        assert_eq!(outcome.rows().len(), 5);
        // Descending by TOTAL.
        let totals: Vec<f64> = outcome
            .rows()
            .iter()
            .map(|r| r[3].as_float().unwrap())
            .collect();
        assert!(totals.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn updates_and_queries_interleave() {
        let engine = build_engine(EngineConfig::default());
        // Insert a new order for user 1 and then read it back via the join.
        let outcome = engine
            .execute_sync(
                "addOrder",
                &[Value::Int(10_000), Value::Int(1), Value::Float(99.0)],
            )
            .unwrap();
        assert_eq!(outcome.rows_affected(), 1);
        let rows = engine
            .execute_sync("ordersOfUser", &[Value::text("user1")])
            .unwrap();
        assert!(rows.rows().iter().any(|r| r[4] == Value::Int(10_000)));
        // Delete the user's orders and observe the effect.
        let outcome = engine
            .execute_sync("cancelOrders", &[Value::Int(1)])
            .unwrap();
        assert!(outcome.rows_affected() >= 1);
        let rows = engine
            .execute_sync("ordersOfUser", &[Value::text("user1")])
            .unwrap();
        assert!(rows.rows().is_empty());
    }

    #[test]
    fn core_budget_one_still_completes() {
        let engine = build_engine(EngineConfig::with_cores(1));
        let handles: Vec<_> = (0..10)
            .map(|_| engine.execute("usersByCountry", &[]).unwrap())
            .collect();
        for h in handles {
            assert_eq!(h.wait().unwrap().rows().len(), 2);
        }
    }

    /// A shutdown answers what it finds queued — here a thousand statements
    /// held queued behind a batch that waits for a table the test holds
    /// until the shutdown has begun, a failing one among them, all bound for
    /// one queue nobody reads meanwhile — from one last batch: every tag
    /// once, a failed statement counted once, the reader woken once for the
    /// lot; and admits nothing after.
    #[test]
    fn shutdown_answers_what_is_queued_exactly_once() {
        let mut engine = build_engine(EngineConfig::default());
        let (users, inner) = (
            engine.catalog().table("USERS").unwrap(),
            Arc::clone(&engine.inner),
        );
        let (taken, held) = std::sync::mpsc::channel();
        let holder = std::thread::spawn(move || {
            let _hold = users.write();
            taken.send(()).unwrap();
            while !inner.shutdown.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        held.recv().unwrap();
        let ahead = engine.execute("userById", &[Value::Int(1)]).unwrap();
        while engine.queued() > 0 {
            std::thread::yield_now();
        }
        let queue = Arc::new(Completions::new(Some(Arc::new(|| {}))));
        for tag in 0..1_000u64 {
            let (statement, params) = match tag {
                500 => ("brokenFilter", vec![]),
                _ => ("userById", vec![Value::Int(tag as i64 % 100)]),
            };
            let opts = SubmitOptions {
                completions: Some((Arc::clone(&queue), tag)),
                ..SubmitOptions::default()
            };
            let handle = engine.submit(statement, &params, opts).unwrap();
            assert!(matches!(handle.try_wait(), Some(Err(_))), "answered there");
        }
        let mut outcomes = Vec::new();
        queue.take(&mut outcomes);
        assert!(outcomes.is_empty(), "answered behind a held batch");
        assert_eq!(engine.queued(), 1_000);
        engine.shutdown();
        holder.join().unwrap();
        assert_eq!(ahead.wait().unwrap().rows().len(), 1);
        queue.take(&mut outcomes);
        outcomes.sort_by_key(|(tag, _)| *tag);
        let tags: Vec<u64> = outcomes.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(tags, (0..1_000).collect::<Vec<u64>>());
        // A batch fails as one.
        let failed = outcomes.iter().filter(|(_, o)| o.is_err()).count() as u64;
        let stats = engine.stats();
        assert_eq!((failed, stats.failed), (1_000, 1_000), "{stats:?}");
        assert_eq!(stats.batches, 2, "the held batch and the last one");
        // The held statement's private slot, and the queue once.
        assert_eq!(stats.completion_wakes, 2);
        assert!(matches!(
            engine.execute("usersByCountry", &[]),
            Err(Error::EngineShutdown)
        ));
        queue.take(&mut outcomes);
        assert_eq!(outcomes.len(), 1_000);
    }

    #[test]
    fn operator_stats_are_recorded() {
        let engine = build_engine(EngineConfig::default());
        engine.execute_sync("usersByCountry", &[]).unwrap();
        let stats = engine.stats().operators;
        assert_eq!(stats.len(), engine.plan().len());
        // The USERS scan must have processed at least one active cycle.
        let users_scan = stats
            .iter()
            .find(|s| s.name.starts_with("Scan(USERS)"))
            .unwrap();
        assert!(users_scan.active_cycles >= 1);
        assert!(users_scan.tuples_out >= 100);
    }

    #[test]
    fn wait_timeout_reports_deadline() {
        let engine = build_engine(EngineConfig::default());
        // A timeout of zero cannot be met.
        let handle = engine.execute("usersByCountry", &[]).unwrap();
        match handle.wait_timeout(Duration::from_nanos(1)) {
            Err(Error::DeadlineExceeded) | Ok(_) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
