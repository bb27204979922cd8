//! The query-at-a-time baseline engine.
//!
//! The engine keeps a pool of worker threads; every submitted query is
//! executed in isolation by one worker (the traditional model: "traditional
//! database systems allocate a separate thread for each query", Section 3.5).
//! It is the one system SharedDB is compared with: the paper's MySQL and
//! SystemX are not available to a reproduction, and a penalty invented in
//! code would only draw a curve its constants chose.
//!
//! A query reaches its worker and its reply reaches the caller through
//! `std::sync::mpsc` channels — one hand-off each way per query, as a
//! statement pays on its way into and out of the shared engine, so the two
//! compare executors, not queues. The workers share the one job queue behind
//! a mutex; a reply has a channel of one slot to itself.

use crate::exec::{execute_plan, execute_update, QueryPlan};
use shareddb_common::sync::Mutex;
use shareddb_common::{Error, Result, Tuple, Value};
use shareddb_storage::mvcc::Snapshot;
use shareddb_storage::{Catalog, UpdateOp};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The baseline has one profile. The name stays because the pinned
/// benchmark's oracle starts its engine with it (`ledger/verify.rs`,
/// `ledger/trace.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineProfile {
    /// Per-query execution on as many workers as the engine is given.
    Tuned,
}

/// A registered baseline statement: either a query plan or an update template.
#[derive(Debug, Clone)]
pub enum BaselineStatement {
    /// A read-only query.
    Query(QueryPlan),
    /// A parameterised insert (values are expressions over the parameters).
    Insert {
        /// Target table.
        table: String,
        /// Value expressions.
        values: Vec<shareddb_common::Expr>,
    },
    /// A parameterised update/delete.
    Mutation {
        /// Target table.
        table: String,
        /// Update template (predicates/assignments may contain parameters).
        op: UpdateOp,
    },
}

/// Statistics of the baseline engine.
#[derive(Debug, Clone, Default)]
pub struct BaselineStats {
    /// Completed queries.
    pub queries: u64,
    /// Completed updates.
    pub updates: u64,
    /// Failed statements.
    pub failed: u64,
    /// Mean end-to-end latency.
    pub mean_latency: Duration,
    /// Maximum end-to-end latency.
    pub max_latency: Duration,
}

enum Job {
    Execute {
        statement: String,
        params: Vec<Value>,
        submitted: Instant,
        reply: SyncSender<Result<Vec<Tuple>>>,
    },
    Shutdown,
}

struct Shared {
    catalog: Arc<Catalog>,
    statements: Mutex<HashMap<String, BaselineStatement>>,
    queries: AtomicU64,
    updates: AtomicU64,
    failed: AtomicU64,
    latency_nanos: AtomicU64,
    max_latency_nanos: AtomicU64,
    shutdown: AtomicBool,
}

/// The query-at-a-time engine.
pub struct ClassicEngine {
    shared: Arc<Shared>,
    job_tx: Sender<Job>,
    workers: Vec<JoinHandle<()>>,
}

impl ClassicEngine {
    /// Starts the engine with `workers` worker threads (at least one).
    pub fn start(catalog: Arc<Catalog>, _profile: EngineProfile, workers: usize) -> Self {
        let workers = workers.max(1);
        let (job_tx, job_rx) = channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let shared = Arc::new(Shared {
            catalog,
            statements: Mutex::new(HashMap::new()),
            queries: AtomicU64::new(0),
            updates: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            latency_nanos: AtomicU64::new(0),
            max_latency_nanos: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&job_rx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("baseline-worker-{i}"))
                    .spawn(move || worker_loop(shared, rx))
                    .expect("spawn baseline worker"),
            );
        }
        ClassicEngine {
            shared,
            job_tx,
            workers: handles,
        }
    }

    /// Registers a prepared statement.
    pub fn register(&self, name: impl Into<String>, statement: BaselineStatement) {
        self.shared.statements.lock().insert(name.into(), statement);
    }

    /// Submits a statement execution; returns a handle to wait on.
    pub fn execute(&self, statement: &str, params: &[Value]) -> Result<BaselineHandle> {
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(Error::EngineShutdown);
        }
        if !self.shared.statements.lock().contains_key(statement) {
            return Err(Error::UnknownStatement(statement.to_string()));
        }
        let (reply_tx, reply_rx) = sync_channel(1);
        let submitted = Instant::now();
        self.job_tx
            .send(Job::Execute {
                statement: statement.to_string(),
                params: params.to_vec(),
                submitted,
                reply: reply_tx,
            })
            .map_err(|_| Error::EngineShutdown)?;
        Ok(BaselineHandle {
            receiver: reply_rx,
            submitted,
        })
    }

    /// Submits and waits for the result.
    pub fn execute_sync(&self, statement: &str, params: &[Value]) -> Result<Vec<Tuple>> {
        self.execute(statement, params)?.wait()
    }

    /// A registered query's result at `snapshot`, computed on the calling
    /// thread: what a shared execution pinned to the same snapshot must
    /// return, whatever is written meanwhile — while the caller holds the
    /// pin ([`Catalog::pin`](shareddb_storage::Catalog::pin)).
    pub fn execute_at(
        &self,
        statement: &str,
        params: &[Value],
        snapshot: Snapshot,
    ) -> Result<Vec<Tuple>> {
        let registered = self.shared.statements.lock().get(statement).cloned();
        match registered {
            Some(BaselineStatement::Query(plan)) => {
                execute_plan(&self.shared.catalog, &plan, params, snapshot).map(|r| r.rows)
            }
            Some(_) => Err(Error::Internal(format!("{statement} is not a query"))),
            None => Err(Error::UnknownStatement(statement.to_string())),
        }
    }

    /// Engine statistics.
    pub fn stats(&self) -> BaselineStats {
        let queries = self.shared.queries.load(Ordering::Relaxed);
        let updates = self.shared.updates.load(Ordering::Relaxed);
        let completed = queries + updates;
        BaselineStats {
            queries,
            updates,
            failed: self.shared.failed.load(Ordering::Relaxed),
            mean_latency: Duration::from_nanos(
                self.shared
                    .latency_nanos
                    .load(Ordering::Relaxed)
                    .checked_div(completed)
                    .unwrap_or(0),
            ),
            max_latency: Duration::from_nanos(
                self.shared.max_latency_nanos.load(Ordering::Relaxed),
            ),
        }
    }

    /// Stops the workers and joins their threads.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        for _ in 0..self.workers.len() {
            let _ = self.job_tx.send(Job::Shutdown);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ClassicEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Handle to one submitted baseline statement.
#[derive(Debug)]
pub struct BaselineHandle {
    receiver: Receiver<Result<Vec<Tuple>>>,
    submitted: Instant,
}

impl BaselineHandle {
    /// Time since submission.
    pub fn elapsed(&self) -> Duration {
        self.submitted.elapsed()
    }

    /// Blocks until the result is available.
    pub fn wait(self) -> Result<Vec<Tuple>> {
        self.receiver.recv().map_err(|_| Error::EngineShutdown)?
    }

    /// Blocks with a deadline.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Vec<Tuple>> {
        match self.receiver.recv_timeout(timeout) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => Err(Error::DeadlineExceeded),
            Err(RecvTimeoutError::Disconnected) => Err(Error::EngineShutdown),
        }
    }
}

fn worker_loop(shared: Arc<Shared>, jobs: Arc<Mutex<Receiver<Job>>>) {
    loop {
        // The queue's lock is held while waiting for a job, not while
        // executing it.
        let job = jobs.lock().recv();
        let Ok(Job::Execute {
            statement,
            params,
            submitted,
            reply,
        }) = job
        else {
            break;
        };
        let spec = shared.statements.lock().get(&statement).cloned();
        let result = match spec {
            None => Err(Error::UnknownStatement(statement)),
            Some(BaselineStatement::Query(plan)) => {
                let snapshot = shared.catalog.pin();
                execute_plan(&shared.catalog, &plan, &params, *snapshot).map(|r| r.rows)
            }
            Some(BaselineStatement::Insert { table, values }) => {
                crate::exec::bind_insert_values(&values, &params)
                    .and_then(|row| {
                        shared
                            .catalog
                            .apply(&table, UpdateOp::Insert { values: row })
                    })
                    .map(|_| Vec::new())
            }
            Some(BaselineStatement::Mutation { table, op }) => {
                execute_update(&shared.catalog, &table, &op, &params).map(|_| Vec::new())
            }
        };
        let latency = submitted.elapsed().as_nanos() as u64;
        shared.latency_nanos.fetch_add(latency, Ordering::Relaxed);
        shared
            .max_latency_nanos
            .fetch_max(latency, Ordering::Relaxed);
        match &result {
            Ok(rows) => {
                if rows.is_empty() {
                    // Heuristic: updates return no rows; queries may as well,
                    // but the distinction only matters for statistics.
                    shared.updates.fetch_add(1, Ordering::Relaxed);
                } else {
                    shared.queries.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                shared.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        let _ = reply.send(result);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::{tuple, DataType, Expr};
    use shareddb_storage::TableDef;

    fn catalog() -> Arc<Catalog> {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("ITEM")
                    .column("I_ID", DataType::Int)
                    .column("I_SUBJECT", DataType::Text)
                    .primary_key(&["I_ID"]),
            )
            .unwrap();
        catalog
            .bulk_load(
                "ITEM",
                (0..200i64)
                    .map(|i| tuple![i, if i % 2 == 0 { "A" } else { "B" }])
                    .collect(),
            )
            .unwrap();
        Arc::new(catalog)
    }

    #[test]
    fn query_execution_and_stats() {
        let engine = ClassicEngine::start(catalog(), EngineProfile::Tuned, 4);
        engine.register(
            "bySubject",
            BaselineStatement::Query(QueryPlan::scan_where(
                "ITEM",
                Expr::col(1).eq(Expr::param(0)),
            )),
        );
        let rows = engine
            .execute_sync("bySubject", &[Value::text("A")])
            .unwrap();
        assert_eq!(rows.len(), 100);
        let handles: Vec<_> = (0..20)
            .map(|_| engine.execute("bySubject", &[Value::text("B")]).unwrap())
            .collect();
        for h in handles {
            assert_eq!(h.wait().unwrap().len(), 100);
        }
        let stats = engine.stats();
        assert_eq!(stats.queries, 21);
        assert_eq!(stats.failed, 0);
        assert!(stats.mean_latency > Duration::ZERO);
    }

    #[test]
    fn unknown_statement_rejected() {
        let engine = ClassicEngine::start(catalog(), EngineProfile::Tuned, 1);
        assert!(matches!(
            engine.execute("nope", &[]),
            Err(Error::UnknownStatement(_))
        ));
    }

    #[test]
    fn mutations_and_inserts() {
        let engine = ClassicEngine::start(catalog(), EngineProfile::Tuned, 2);
        engine.register(
            "addItem",
            BaselineStatement::Insert {
                table: "ITEM".into(),
                values: vec![Expr::param(0), Expr::param(1)],
            },
        );
        engine.register(
            "dropItem",
            BaselineStatement::Mutation {
                table: "ITEM".into(),
                op: UpdateOp::Delete {
                    predicate: Expr::col(0).eq(Expr::param(0)),
                },
            },
        );
        engine.register("all", BaselineStatement::Query(QueryPlan::scan("ITEM")));
        engine
            .execute_sync("addItem", &[Value::Int(1000), Value::text("C")])
            .unwrap();
        assert_eq!(engine.execute_sync("all", &[]).unwrap().len(), 201);
        engine
            .execute_sync("dropItem", &[Value::Int(1000)])
            .unwrap();
        assert_eq!(engine.execute_sync("all", &[]).unwrap().len(), 200);
        let stats = engine.stats();
        assert!(stats.updates >= 2);
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let mut engine = ClassicEngine::start(catalog(), EngineProfile::Tuned, 2);
        engine.register("all", BaselineStatement::Query(QueryPlan::scan("ITEM")));
        engine.shutdown();
        assert!(matches!(
            engine.execute("all", &[]),
            Err(Error::EngineShutdown)
        ));
    }
}
