//! The plan executor: an operator cycle is a task, a thread is a core.
//!
//! The paper gives every operator a hardware context and says what to do on
//! a smaller machine: "when fewer cores than operators are available,
//! operators share cores" (Section 4.3). This is that sharing: `workers − 1`
//! pool threads plus the coordinator, which hands over one [`Run`] per batch
//! and works its tasks off beside the pool (`docs/ARCHITECTURE.md`, *Threads
//! and scheduling*). The rules:
//!
//! * **Tasks.** A task is a plan node with an activation in the batch. A
//!   node without one gets no task: nobody is woken for it and its consumers
//!   read an empty input.
//! * **Readiness.** A node is ready when every *active* producer of it has
//!   finished. Finishing a task publishes its output once for all consumers,
//!   decrements each active consumer and enqueues those that reach zero. The
//!   run is over when its task counter is zero — not when the queue is empty,
//!   which it also is while the last tasks still execute.
//! * **Wake-ups.** The thread that makes tasks ready takes the first itself
//!   and notifies one parked thread per task *beyond* it, so a chain of
//!   single consumers runs on one thread without a hand-off.
//! * **Failures.** A task body runs under `catch_unwind`. A failed or
//!   panicking node publishes an empty output, so its consumers proceed and
//!   the run ends; its error fails the batch's queries at the coordinator.
//! * **Group-joins.** A group-by whose only input is a hash join that feeds
//!   nothing else, grouping by build-side columns
//!   ([`GlobalPlan::group_join_of`]), runs the join inside its own task
//!   ([`execute_group_join`]) in every run where each query active at the
//!   join is active at the group-by as well. The join is then no task: its
//!   producers ready the group-by, and it publishes no pairs — only the
//!   count of those it matched. A run with a query that reads the join
//!   itself runs the two as tasks of their own.

use crate::batch::Activation;
use crate::operators::{execute_group_join, execute_on, Emitted, ExecContext};
use crate::plan::{GlobalPlan, OperatorId, OperatorNode};
use crate::stats::EngineStats;
use crate::storage_ops::StorageOperator;
use shareddb_common::sync::{Condvar, Mutex};
use shareddb_common::{Error, QTuple, QueryId, QuerySet, Result};
use shareddb_storage::{Catalog, SnapshotPin};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The activations of one plan node in one batch.
pub(crate) type Activations = Vec<(QueryId, Activation)>;

/// One plan node's share of a [`Run`].
#[derive(Default)]
pub(crate) struct NodeRun {
    /// The node's activations; empty = the node is idle in this batch.
    pub activations: Activations,
    /// The group-by whose task runs this join's cycle in this run; `None`:
    /// the node is a task of its own (when active).
    pub inside: Option<OperatorId>,
    /// Set when the node's cycle has finished, once for all its consumers.
    pub done: OnceLock<Done>,
}

/// What a finished node publishes.
pub(crate) struct Done {
    /// The output tuples of the batch.
    pub output: Vec<QTuple>,
    /// The rows the cycle counts: its output's, or — for a join that ran
    /// inside its group-by — the pairs it matched there.
    pub rows: usize,
    /// The work a row demand let the cycle skip, or why it failed.
    pub pruned: Result<usize>,
    /// Wall-clock time of the operator body; none of its own for a join
    /// that ran inside its group-by, whose time is the group-by's.
    pub busy: Duration,
}

/// Everything the tasks of one batch read and write.
pub(crate) struct Run {
    /// The batch's snapshot, pinned for as long as the run lives: every scan,
    /// probe and look-up of the batch reads it.
    pub pin: SnapshotPin,
    /// One entry per plan node, by operator id.
    pub nodes: Vec<NodeRun>,
}

/// Scheduling state, all of it under one mutex.
#[derive(Default)]
struct Schedule {
    /// The run in flight (one at a time), whose tasks `ready` holds.
    run: Option<Arc<Run>>,
    /// Plan nodes whose every active producer has finished.
    ready: VecDeque<OperatorId>,
    /// Per node: its active producers (counted per input edge) not yet
    /// finished.
    pending: Vec<usize>,
    /// Tasks of the run not yet finished.
    unfinished: usize,
    /// Pool threads parked on `Executor::work`.
    parked_workers: usize,
    /// The coordinator is parked on `Executor::idle`, not yet notified.
    coordinator_parked: bool,
    shutdown: bool,
    pool: Vec<JoinHandle<()>>,
}

/// The engine's task pool (see the module docs).
pub(crate) struct Executor {
    plan: GlobalPlan,
    /// Per node: its consumers, one entry per input edge.
    consumers: Vec<Vec<OperatorId>>,
    /// `(join, group-by)`: the group-joins of the plan.
    group_joins: Vec<(OperatorId, OperatorId)>,
    storage_ops: Arc<Vec<Option<StorageOperator>>>,
    catalog: Arc<Catalog>,
    stats: Arc<EngineStats>,
    /// Threads that run tasks: the pool plus the caller of `run`.
    workers: usize,
    schedule: Mutex<Schedule>,
    /// Pool threads wait here for a ready task.
    work: Condvar,
    /// The coordinator waits here for a ready task or the end of the run.
    idle: Condvar,
}

impl Executor {
    /// An executor of `workers` threads in all: the caller of
    /// [`Executor::run`] and `workers − 1` pool threads spawned here.
    pub fn start(
        plan: GlobalPlan,
        storage_ops: Arc<Vec<Option<StorageOperator>>>,
        catalog: Arc<Catalog>,
        stats: Arc<EngineStats>,
        workers: usize,
    ) -> Result<Arc<Executor>> {
        let mut consumers: Vec<Vec<OperatorId>> = vec![Vec::new(); plan.len()];
        for node in plan.nodes() {
            for &input in &node.inputs {
                consumers[input].push(node.id);
            }
        }
        let group_by = |node: &OperatorNode| Some((plan.group_join_of(node.id)?, node.id));
        let group_joins = plan.nodes().iter().filter_map(group_by).collect();
        let executor = Arc::new(Executor {
            plan,
            consumers,
            group_joins,
            storage_ops,
            catalog,
            stats,
            workers: workers.max(1),
            schedule: Mutex::default(),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        for i in 1..workers {
            let worker = Arc::clone(&executor);
            let spawned = std::thread::Builder::new()
                .name(format!("sdb-worker-{i}"))
                .spawn(move || worker.work(false));
            match spawned {
                Ok(handle) => executor.schedule.lock().pool.push(handle),
                Err(e) => {
                    executor.shutdown();
                    let message = format!("failed to spawn executor worker: {e}");
                    return Err(Error::Internal(message));
                }
            }
        }
        Ok(executor)
    }

    /// Threads that run tasks: the pool plus the caller of [`Executor::run`].
    pub fn threads(&self) -> usize {
        self.workers
    }

    /// Executes every task of `run`, working the queue on the calling thread
    /// beside the pool, and returns once the last one has finished: the
    /// `done` of every active node is then set.
    pub fn run(&self, mut run: Run) -> Arc<Run> {
        for &(join, group_by) in &self.group_joins {
            let (at_join, at_group_by) = (&run.nodes[join], &run.nodes[group_by]);
            if !at_join.activations.is_empty() {
                let grouped: QuerySet = at_group_by.activations.iter().map(|(q, _)| *q).collect();
                let all_grouped = at_join
                    .activations
                    .iter()
                    .all(|(q, _)| grouped.contains(*q));
                run.nodes[join].inside = all_grouped.then_some(group_by);
            }
        }
        let run = Arc::new(run);
        let mut schedule = self.schedule.lock();
        // Entries of idle nodes are never read.
        schedule.pending.resize(self.plan.len(), 0);
        let active = |id: OperatorId| !run.nodes[id].activations.is_empty();
        // A task waits for the active producers of the joins it runs too.
        let producers = |input: &OperatorId| match run.nodes[*input].inside {
            Some(_) => self
                .plan
                .node(*input)
                .inputs
                .iter()
                .filter(|i| active(**i))
                .count(),
            None => usize::from(active(*input)),
        };
        let is_task = |node: &&OperatorNode| active(node.id) && run.nodes[node.id].inside.is_none();
        for node in self.plan.nodes().iter().filter(is_task) {
            let pending = node.inputs.iter().map(producers).sum();
            schedule.pending[node.id] = pending;
            if pending == 0 {
                schedule.ready.push_back(node.id);
            }
            schedule.unfinished += 1;
        }
        schedule.run = Some(Arc::clone(&run));
        let pushed = schedule.ready.len();
        self.wake(&mut schedule, pushed);
        drop(schedule);
        self.work(true);
        run
    }

    /// Stops and joins the pool. No run may be in flight.
    pub fn shutdown(&self) {
        let pool = {
            let mut schedule = self.schedule.lock();
            schedule.shutdown = true;
            std::mem::take(&mut schedule.pool)
        };
        self.work.notify_all();
        for handle in pool {
            let _ = handle.join();
        }
    }

    /// The loop of every thread that runs tasks. A pool thread leaves it at
    /// shutdown, the coordinator when its run has no unfinished task.
    fn work(&self, coordinator: bool) {
        let mut schedule = self.schedule.lock();
        loop {
            if let Some(task) = schedule.ready.pop_front() {
                let run = Arc::clone(schedule.run.as_ref().expect("a ready task has its run"));
                drop(schedule);
                self.execute(&run, task);
                self.stats.record_task(coordinator);
                schedule = self.schedule.lock();
                self.finish(&mut schedule, &run, task);
            } else if coordinator {
                if schedule.unfinished == 0 {
                    schedule.run = None;
                    return;
                }
                schedule.coordinator_parked = true;
                schedule = self.idle.wait(schedule);
                schedule.coordinator_parked = false;
            } else {
                if schedule.shutdown {
                    return;
                }
                schedule.parked_workers += 1;
                schedule = self.work.wait(schedule);
                schedule.parked_workers -= 1;
            }
        }
    }

    /// Accounts a finished (and published) task: readies the consumers it
    /// was the last active producer of, and ends the run with the last task.
    fn finish(&self, schedule: &mut Schedule, run: &Run, node: OperatorId) {
        let before = schedule.ready.len();
        for &consumer in &self.consumers[node] {
            // A join run inside its group-by hands its producers on to it.
            let consumer = run.nodes[consumer].inside.unwrap_or(consumer);
            if run.nodes[consumer].activations.is_empty() {
                continue;
            }
            let pending = &mut schedule.pending[consumer];
            *pending -= 1;
            if *pending == 0 {
                schedule.ready.push_back(consumer);
            }
        }
        schedule.unfinished -= 1;
        if schedule.unfinished > 0 {
            let readied = schedule.ready.len() - before;
            self.wake(schedule, readied);
        } else if schedule.coordinator_parked {
            schedule.coordinator_parked = false;
            self.idle.notify_one();
        }
    }

    /// Wakes parked threads for `pushed` tasks just made ready by a thread
    /// that takes the first of them itself: one thread per task beyond it,
    /// the coordinator before a pool thread.
    fn wake(&self, schedule: &mut Schedule, pushed: usize) {
        let mut spare = pushed.saturating_sub(1);
        if spare > 0 && schedule.coordinator_parked {
            schedule.coordinator_parked = false;
            self.idle.notify_one();
            spare -= 1;
        }
        let woken = spare.min(schedule.parked_workers);
        (0..woken).for_each(|_| self.work.notify_one());
        self.stats.record_worker_wakeups(woken);
    }

    fn execute(&self, run: &Run, node: OperatorId) {
        let node = self.plan.node(node);
        let joined = match node.inputs[..] {
            [join] if run.nodes[join].inside == Some(node.id) => Some(join),
            _ => None,
        };
        let started = Instant::now();
        let result = self.operate(node, joined, run);
        let busy = started.elapsed();
        // A failed node publishes an empty output.
        let (output, pruned, pairs) = match result {
            Ok(emitted) => (emitted.tuples, Ok(emitted.pruned), emitted.joined),
            Err(e) => (Vec::new(), Err(e), 0),
        };
        if let Some(join) = joined {
            let (output, rows, pruned, busy) = (Vec::new(), pairs, Ok(0), Duration::ZERO);
            let _ = run.nodes[join].done.set(Done {
                output,
                rows,
                pruned,
                busy,
            });
        }
        let rows = output.len();
        let _ = run.nodes[node.id].done.set(Done {
            output,
            rows,
            pruned,
            busy,
        });
    }

    /// One operator cycle: `node` over its activations in `run`, reading
    /// what its producers published — with the cycle of `joined`, its input,
    /// inside it. A panic in the operator is returned as an error, so the
    /// thread — and the run's accounting — survive it.
    fn operate(
        &self,
        node: &OperatorNode,
        joined: Option<OperatorId>,
        run: &Run,
    ) -> Result<Emitted> {
        let (nodes, snapshot) = (&run.nodes, *run.pin);
        let activations = &nodes[node.id].activations;
        catch_unwind(AssertUnwindSafe(|| {
            if let Some(storage) = &self.storage_ops[node.id] {
                let tuples = storage.execute(activations, snapshot)?;
                return Ok(Emitted {
                    tuples,
                    ..Emitted::default()
                });
            }
            let input_of = |input: &OperatorId| -> &[QTuple] {
                let producer = &nodes[*input];
                if producer.activations.is_empty() {
                    return &[];
                }
                let published = producer.done.get();
                &published
                    .expect("a node is ready only after its active producers published")
                    .output
            };
            if let Some(join) = joined {
                let join = self.plan.node(join);
                let inputs: Vec<&[QTuple]> = join.inputs.iter().map(input_of).collect();
                let at_join = &nodes[join.id].activations;
                return execute_group_join(&join.spec, at_join, &node.spec, activations, &inputs);
            }
            let inputs: Vec<&[QTuple]> = node.inputs.iter().map(input_of).collect();
            let catalog = &self.catalog;
            execute_on(
                &node.spec,
                activations,
                &inputs,
                &ExecContext { catalog, snapshot },
            )
        }))
        .unwrap_or_else(|panic| {
            let message = panic.downcast_ref::<&str>().map(|s| s.to_string());
            let message = message.or_else(|| panic.downcast_ref::<String>().cloned());
            let message = message.unwrap_or_else(|| "no message".into());
            let name = &node.name;
            Err(Error::Internal(format!(
                "operator {name} panicked: {message}"
            )))
        })
    }
}
