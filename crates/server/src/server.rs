//! The event-driven TCP server: one reactor thread feeding one shared engine.
//!
//! ## Architecture
//!
//! ```text
//!   client sockets      reactor (1 thread)                engine
//!   ┌────────┐  bytes  ┌───────────────────┐  admit   ┌─────────────────┐
//!   │ conn 1 ├────────▶│ epoll             │─────────▶│                 │
//!   │        │◀────────┤ frame decoders    │◀─waker───┤  admission queue│
//!   └────────┘  frames │ reply queues      │          │   → QueryBatch  │
//!   ┌────────┐         │ write queues      │          │   → shared plan │
//!   │ conn N ├────────▶│                   │─────────▶│   → Γ(query_id) │
//!   └────────┘         └───────────────────┘          └─────────────────┘
//! ```
//!
//! A single `Reactor` thread owns the listener and every
//! client socket (nonblocking, readiness-driven — `epoll` through a direct
//! libc binding). Incoming bytes accumulate in per-connection
//! [`crate::protocol::FrameDecoder`]s; complete frames run admission control
//! and are submitted to the engine; results are pumped back *in submission
//! order* through per-connection reply queues when the engine's completion
//! waker fires. Because responses are strictly ordered, clients can
//! pipeline: many requests of one connection are in flight at once and all
//! of them queue behind the batch that is running, which is exactly how SharedDB
//! wants its work to arrive — many concurrent statements forming one big
//! batch.
//!
//! Compared to the former thread-per-connection frontend this removes two OS
//! threads per session (the server now scales to thousands of sockets) and
//! the 50 ms shutdown poll every session used to run: an idle server makes no
//! wakeups at all.
//!
//! ## Admission control
//!
//! Two limits protect the engine ([`ServerConfig`]):
//!
//! * `max_inflight_per_session` — statements a single connection may have
//!   unanswered; prevents one client from monopolising a batch.
//! * `max_queue_depth` — bound on the engine's admission queue, enforced
//!   **atomically** under the queue lock
//!   ([`shareddb_core::SubmitOptions::max_queue_depth`]); requests beyond it
//!   are rejected with a *retryable*
//!   [`crate::protocol::error_codes::OVERLOADED`] error instead of growing
//!   the queue without bound.
//!
//! On [`Server::shutdown`] the listener stops accepting, sessions drain their
//! in-flight work (bounded by `drain_timeout`, signalled event-driven by the
//! reactor rather than polled), and only then is the engine stopped.

use crate::reactor::{Epoll, Reactor};
use shareddb_common::metrics::{escape_label_value, render_summary, HistogramSnapshot};
use shareddb_common::sync::{Condvar, Mutex, RwLock};
use shareddb_common::{Error, Expr, Result};
use shareddb_core::plan::{ActivationTemplate, GlobalPlan, StatementKind, UpdateTemplate};
use shareddb_core::stats::{ScanRowsSnapshot, StatementPhaseSnapshot, UpdateRowsSnapshot};
use shareddb_core::{Engine, EngineConfig, Phase, StatementRegistry};
use shareddb_sql::compile::{canonicalize, SqlTemplate};
use shareddb_sql::compile_workload;
use shareddb_storage::{Catalog, PredicateClass, RecoveryReport, ScanCycleResult, SyncPolicy};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:0` picks a free port).
    pub bind_addr: String,
    /// Maximum unanswered statements per session before backpressure kicks in.
    pub max_inflight_per_session: usize,
    /// Engine admission-queue depth beyond which new statements are rejected.
    /// A *hard* bound: the check and the enqueue happen under the engine's
    /// queue lock, so concurrent sessions can never overshoot it.
    pub max_queue_depth: usize,
    /// How long [`Server::shutdown`] waits for sessions to drain.
    pub drain_timeout: Duration,
    /// Durability directory. `Some(dir)` makes the server crash-consistent:
    /// on startup it recovers the catalog from `dir` (checkpoint + committed
    /// WAL tail, truncating any torn record), compacts the log while still
    /// quiescent — which also captures bulk-loaded seed data the WAL never
    /// saw — and then appends every committed batch to `dir/wal.log`.
    /// `None` (the default) keeps the engine fully in-memory.
    pub data_dir: Option<std::path::PathBuf>,
    /// When to fsync the WAL (only meaningful with `data_dir`). See
    /// [`shareddb_storage::SyncPolicy`]: `Always` makes every acked update
    /// survive `kill -9` *and* power loss; `EveryBatch` (default) survives
    /// process crashes.
    pub wal_sync: SyncPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            bind_addr: "127.0.0.1:0".into(),
            max_inflight_per_session: 64,
            max_queue_depth: 4096,
            drain_timeout: Duration::from_secs(5),
            data_dir: None,
            wal_sync: SyncPolicy::EveryBatch,
        }
    }
}

/// Server-level counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Sessions accepted since start.
    pub sessions_opened: u64,
    /// Sessions currently connected.
    pub sessions_active: u64,
    /// Statements submitted over the network (admitted or rejected).
    pub requests: u64,
    /// Statements rejected by admission control.
    pub rejected: u64,
}

pub(crate) struct Shared {
    pub(crate) engine: RwLock<Option<Engine>>,
    pub(crate) registry: StatementRegistry,
    pub(crate) param_counts: Vec<usize>,
    /// canonical SQL text → (statement's registry index, template slot map);
    /// used to match ad-hoc [`crate::protocol::Frame::Query`] SQL against
    /// the compiled statement types.
    pub(crate) adhoc: HashMap<String, (usize, SqlTemplate)>,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    pub(crate) sessions_opened: AtomicU64,
    pub(crate) sessions_active: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) rejected: AtomicU64,
    /// Plain-HTTP `/metrics` requests served by the reactor.
    pub(crate) scrapes: AtomicU64,
    /// Malformed or unroutable HTTP requests answered with 4xx.
    pub(crate) http_errors: AtomicU64,
    /// What startup recovery replayed, and how long it and the compaction
    /// behind it took (`None` when running in-memory).
    pub(crate) recovery: Option<(RecoveryReport, Duration)>,
    /// Event-driven drain signal: the reactor flips the flag and notifies
    /// once every session has flushed and closed (no timed polling).
    drained: Mutex<bool>,
    drained_cv: Condvar,
}

impl Shared {
    pub(crate) fn notify_drained(&self) {
        *self.drained.lock() = true;
        self.drained_cv.notify_all();
    }

    fn wait_drained(&self, timeout: Duration) {
        let started = Instant::now();
        let mut drained = self.drained.lock();
        while !*drained {
            let Some(left) = timeout.checked_sub(started.elapsed()) else {
                return;
            };
            drained = self.drained_cv.wait_timeout(drained, left).0;
        }
    }

    /// Renders the full Prometheus text exposition: server counters, engine
    /// counters, the WAL, per-statement per-phase latency summaries (the
    /// reactor's flush phase among them), update and scan row
    /// counters, operator utilisation and attribution. Every engine number
    /// is read from one [`Engine::stats`] snapshot and written through
    /// [`family`], one metric family at a time.
    pub(crate) fn metrics_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        let w = &mut out;
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        scalar(
            w,
            "shareddb_sessions_opened",
            "counter",
            load(&self.sessions_opened),
        );
        scalar(
            w,
            "shareddb_sessions_active",
            "gauge",
            load(&self.sessions_active),
        );
        scalar(w, "shareddb_requests", "counter", load(&self.requests));
        scalar(w, "shareddb_rejected", "counter", load(&self.rejected));
        scalar(
            w,
            "shareddb_metrics_scrapes",
            "counter",
            load(&self.scrapes),
        );

        let engine = self.engine.read();
        let Some(engine) = engine.as_ref() else {
            return out;
        };
        let stats = engine.stats();
        scalar(w, "shareddb_engine_batches", "counter", stats.batches);
        scalar(w, "shareddb_engine_queries", "counter", stats.queries);
        scalar(w, "shareddb_engine_updates", "counter", stats.updates);
        scalar(w, "shareddb_engine_failed", "counter", stats.failed);
        scalar(w, "shareddb_engine_queued", "gauge", engine.queued());
        // The executor: who ran the operator cycles, and what it cost in
        // cross-thread hand-offs (wake-ups ÷ batches).
        family(
            w,
            "shareddb_executor_tasks_total",
            "counter",
            [
                ("ran_on=\"coordinator\"", stats.tasks_run_by_coordinator),
                ("ran_on=\"worker\"", stats.tasks_run_by_workers),
            ],
        );
        scalar(
            w,
            "shareddb_executor_worker_wakeups_total",
            "counter",
            stats.worker_wakeups,
        );
        // The hand-off back: wakes ÷ (queries + updates) is 1 when statements
        // come one at a time and far below it when outcomes reach their
        // reader a batch at a time.
        scalar(
            w,
            "shareddb_engine_completion_wakes_total",
            "counter",
            stats.completion_wakes,
        );
        scalar(
            w,
            "shareddb_executor_threads",
            "gauge",
            stats.executor_threads,
        );
        scalar(
            w,
            "shareddb_slow_queries",
            "counter",
            engine.slow_query_count(),
        );

        // Write-ahead-log durability series: how many bytes and group
        // commits the log absorbed, how often and how slowly it fsynced,
        // and the commit-batch size distribution.
        let catalog = engine.catalog();
        let wal = catalog.wal().stats_snapshot();
        scalar(
            w,
            "shareddb_wal_appended_bytes",
            "counter",
            wal.appended_bytes,
        );
        scalar(w, "shareddb_wal_batches", "counter", wal.batches);
        scalar(w, "shareddb_wal_syncs", "counter", wal.syncs);
        scalar(w, "shareddb_wal_last_lsn", "gauge", wal.last_lsn);
        summaries(w, "shareddb_wal_fsync_us", [("", &wal.fsync_us)]);
        let group_commit_size = [("", &wal.group_commit_size)];
        summaries(w, "shareddb_wal_group_commit_size", group_commit_size);
        if let Some((recovery, took)) = &self.recovery {
            scalar(w, "shareddb_recovery_us", "gauge", took.as_micros());
            scalar(
                w,
                "shareddb_recovery_checkpoint_rows",
                "gauge",
                recovery.checkpoint_rows,
            );
            scalar(
                w,
                "shareddb_recovery_replayed_batches",
                "gauge",
                recovery.replayed_batches,
            );
            scalar(
                w,
                "shareddb_recovery_torn_tail",
                "gauge",
                u8::from(recovery.torn_tail.is_some()),
            );
        }

        // Batch occupancy: how many statements each batch carried
        // (the sharing opportunity the batcher actually realised).
        summaries(w, "shareddb_batch_occupancy", [("", &stats.occupancy)]);

        // Phase-tagged latency summaries, the reactor's flush phase among
        // them: one table, so no series is written twice.
        summaries(w, "shareddb_phase_latency_us", phase_samples(&stats.phases));

        // The write path's useful-work ratio per update statement type:
        // live versions its WHERE clause was evaluated on vs rows it changed.
        // examined ≫ affected means the statement has no usable index.
        let update_rows = &stats.update_rows;
        let statement =
            |s: &UpdateRowsSnapshot| format!("statement=\"{}\"", escape_label_value(&s.statement));
        family(
            w,
            "shareddb_update_rows_examined_total",
            "counter",
            update_rows.iter().map(|s| (statement(s), s.examined)),
        );
        family(
            w,
            "shareddb_update_rows_affected_total",
            "counter",
            update_rows.iter().map(|s| (statement(s), s.affected)),
        );

        // The read path's counterpart: what each table's shared scan probed,
        // emitted and was spared by the chunk directory, how many queries it
        // served per predicate class (`residual` = evaluated row by row, the
        // un-shared path), and how many of its cycles were a pass over the
        // table and how many were served from its indexes.
        let scan_rows = &stats.scans;
        let table = |s: &ScanRowsSnapshot| format!("table=\"{}\"", escape_label_value(&s.table));
        family(
            w,
            "shareddb_scan_rows_examined_total",
            "counter",
            scan_rows.iter().map(|s| (table(s), s.examined)),
        );
        family(
            w,
            "shareddb_scan_rows_emitted_total",
            "counter",
            scan_rows.iter().map(|s| (table(s), s.emitted)),
        );
        family(
            w,
            "shareddb_scan_rows_skipped_total",
            "counter",
            scan_rows.iter().map(|s| (table(s), s.skipped)),
        );
        family(
            w,
            "shareddb_scan_queries_total",
            "counter",
            scan_rows.iter().flat_map(|s| {
                let classes = PredicateClass::NAMES.iter().zip(s.queries);
                classes.map(|(class, served)| (format!("{},class=\"{class}\"", table(s)), served))
            }),
        );
        family(
            w,
            "shareddb_scan_cycles_total",
            "counter",
            scan_rows.iter().flat_map(|s| {
                let paths = ScanCycleResult::PATHS.iter().zip(s.cycles);
                paths.map(|(path, cycles)| (format!("{},path=\"{path}\"", table(s)), cycles))
            }),
        );

        // The footprint: the versions each table holds, dead ones included,
        // those of them that still hold a payload, the payloads version GC
        // gave back, the updates written over their version in place, and
        // the entries of each of its B-trees — one per version, dead ones
        // included. A primary key is indexed by its table's key map and has
        // no tree here. The pins hold GC back.
        let pins = catalog.oracle().pin_count();
        scalar(w, "shareddb_snapshot_pins", "gauge", pins);
        let tables: Vec<_> = catalog
            .table_names()
            .into_iter()
            .filter_map(|name| {
                let label = format!("table=\"{}\"", escape_label_value(&name));
                Some((label, catalog.table(&name).ok()?))
            })
            .collect();
        family(
            w,
            "shareddb_table_versions",
            "gauge",
            tables
                .iter()
                .map(|(table, stored)| (table, stored.read().version_count())),
        );
        family(
            w,
            "shareddb_table_payloads",
            "gauge",
            tables
                .iter()
                .map(|(table, stored)| (table, stored.read().payload_count())),
        );
        family(
            w,
            "shareddb_gc_versions_reclaimed_total",
            "counter",
            tables
                .iter()
                .map(|(table, stored)| (table, stored.read().reclaimed_count())),
        );
        family(
            w,
            "shareddb_updates_in_place_total",
            "counter",
            tables
                .iter()
                .map(|(table, stored)| (table, stored.read().in_place_count())),
        );
        family(
            w,
            "shareddb_table_index_entries",
            "gauge",
            tables.iter().flat_map(|(table, stored)| {
                let stored = stored.read();
                let entries = stored.index_entry_counts().map(|(index, entries)| {
                    let index = escape_label_value(index);
                    (format!("{table},index=\"{index}\""), entries)
                });
                entries.collect::<Vec<_>>()
            }),
        );

        // Static sharing factor per operator: how many statement types'
        // subtrees or activation lists touch it in the global plan.
        let plan = engine.plan();
        let sets = shareddb_core::sharing_sets(plan, engine.registry());
        family(
            w,
            "shareddb_operator_sharing_factor",
            "gauge",
            plan.nodes().iter().map(|node| {
                (
                    format!("operator=\"{}\"", escape_label_value(&node.name)),
                    sets.get(node.id).map_or(0, Vec::len),
                )
            }),
        );

        // Operator utilisation (busy fraction of the stats window) and total
        // busy time — the latter is the attribution denominator: the
        // attributed series below sums to it per operator — and the input a statement's row demand let an operator skip: outer
        // rows a join did not look up, groups not built, rows a Top-N did not
        // keep.
        let operator = |name: &str| format!("operator=\"{}\"", escape_label_value(name));
        let operators: Vec<_> = stats
            .operators
            .iter()
            .map(|op| (operator(&op.name), op))
            .collect();
        family(
            w,
            "shareddb_operator_busy_fraction",
            "gauge",
            operators
                .iter()
                .map(|(labels, op)| (labels, format!("{:.6}", op.busy_fraction(stats.wall)))),
        );
        family(
            w,
            "shareddb_operator_busy_us",
            "counter",
            operators
                .iter()
                .map(|(labels, op)| (labels, op.busy.as_micros())),
        );
        family(
            w,
            "shareddb_operator_rows_pruned_total",
            "counter",
            operators
                .iter()
                .map(|(labels, op)| (labels, op.rows_pruned)),
        );

        // Per-operator × per-statement-type cost attribution: each
        // operator's busy time split by the activation mix of the cycles it
        // ran (an operator runs only for its activations).
        let attributed: Vec<_> = stats
            .attribution
            .iter()
            .map(|entry| {
                let labels = format!(
                    "{},stmt_type=\"{}\"",
                    operator(&entry.operator),
                    escape_label_value(&entry.statement)
                );
                (labels, entry)
            })
            .collect();
        family(
            w,
            "shareddb_attributed_busy_us",
            "counter",
            attributed
                .iter()
                .map(|(labels, entry)| (labels, entry.busy.as_micros())),
        );
        family(
            w,
            "shareddb_attributed_rows",
            "counter",
            attributed
                .iter()
                .map(|(labels, entry)| (labels, entry.rows)),
        );
        out
    }
}

/// Writes one metric family: its `# TYPE` line, then its samples in one
/// group — the text exposition format forbids a family's samples to be
/// interleaved with another's. `labels` is the text between the braces.
fn family<L: AsRef<str>, V: std::fmt::Display>(
    out: &mut String,
    name: &str,
    kind: &str,
    samples: impl IntoIterator<Item = (L, V)>,
) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (labels, value) in samples {
        let _ = match labels.as_ref() {
            "" => writeln!(out, "{name} {value}"),
            labels => writeln!(out, "{name}{{{labels}}} {value}"),
        };
    }
}

/// Writes a family of summaries — the ones that hold a sample — and behind
/// it, as a gauge family of its own, the largest value each has seen
/// (`{name}_max`): the text exposition format gives a summary `_sum` and
/// `_count` and no other companion.
fn summaries<'a, L: AsRef<str>>(
    out: &mut String,
    name: &str,
    samples: impl IntoIterator<Item = (L, &'a HistogramSnapshot)>,
) {
    let samples: Vec<(L, &HistogramSnapshot)> = samples
        .into_iter()
        .filter(|(_, histogram)| !histogram.is_empty())
        .collect();
    let _ = writeln!(out, "# TYPE {name} summary");
    for (labels, histogram) in &samples {
        match labels.as_ref() {
            "" => render_summary(out, name, histogram),
            labels => render_summary(out, &format!("{name}{{{labels}}}"), histogram),
        }
    }
    let largest = samples.iter().map(|(labels, h)| (labels, h.max_us));
    family(out, &format!("{name}_max"), "gauge", largest);
}

/// Writes a family of one unlabelled sample.
fn scalar(out: &mut String, name: &str, kind: &str, value: impl std::fmt::Display) {
    let _ = writeln!(out, "# TYPE {name} {kind}\n{name} {value}");
}

/// The phase snapshots of one set of statements, each with its
/// `statement`/`phase` labels: samples of `shareddb_phase_latency_us`.
fn phase_samples(
    statements: &[StatementPhaseSnapshot],
) -> impl Iterator<Item = (String, &HistogramSnapshot)> {
    statements.iter().flat_map(|snap| {
        Phase::ALL.into_iter().map(move |phase| {
            let labels = format!(
                "statement=\"{}\",phase=\"{}\"",
                escape_label_value(&snap.statement),
                phase.name()
            );
            (labels, snap.phase(phase))
        })
    })
}

/// The SharedDB network frontend: owns the engine and a TCP listener.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    reactor_thread: Option<JoinHandle<()>>,
    reactor_waker: Arc<dyn Fn() + Send + Sync>,
}

impl Server {
    /// Starts a server over a pre-built global plan and statement registry
    /// (e.g. the TPC-W plan). Ad-hoc [`crate::protocol::Frame::Query`] SQL is
    /// disabled in this mode — clients use `Prepare`/`ExecutePrepared`.
    pub fn start(
        catalog: Arc<Catalog>,
        plan: GlobalPlan,
        registry: StatementRegistry,
        engine_config: EngineConfig,
        config: ServerConfig,
    ) -> Result<Server> {
        Server::start_inner(
            catalog,
            plan,
            registry,
            HashMap::new(),
            engine_config,
            config,
        )
    }

    /// Compiles a SQL workload (via [`shareddb_sql::compile_workload`]) into a
    /// shared global plan and starts a server over it. Ad-hoc
    /// [`crate::protocol::Frame::Query`] SQL is matched against the workload's
    /// statement types by auto-parameterisation.
    pub fn start_sql(
        catalog: Arc<Catalog>,
        statements: &[(&str, &str)],
        engine_config: EngineConfig,
        config: ServerConfig,
    ) -> Result<Server> {
        let (plan, registry) = compile_workload(&catalog, statements)?;
        let mut adhoc = HashMap::new();
        for (name, sql) in statements {
            let template = canonicalize(sql)?;
            let (index, _) = registry.get(name)?;
            if adhoc
                .insert(template.canonical.clone(), (index, template))
                .is_some()
            {
                return Err(Error::ConstraintViolation(format!(
                    "statements {name} and an earlier statement share one statement type"
                )));
            }
        }
        Server::start_inner(catalog, plan, registry, adhoc, engine_config, config)
    }

    fn start_inner(
        catalog: Arc<Catalog>,
        plan: GlobalPlan,
        registry: StatementRegistry,
        adhoc: HashMap<String, (usize, SqlTemplate)>,
        engine_config: EngineConfig,
        config: ServerConfig,
    ) -> Result<Server> {
        let param_counts = registry.iter().map(spec_param_count).collect();
        // Durable mode: recover disk state and attach the WAL while still
        // quiescent (no engine batches yet), then compact so the next
        // recovery starts from a checkpoint covering everything live now —
        // including bulk-loaded seed rows, which the WAL never records.
        let recovery = match &config.data_dir {
            Some(dir) => {
                catalog.wal().set_sync_policy(config.wal_sync);
                let start = Instant::now();
                let report = catalog.recover(dir)?;
                catalog.compact(dir)?;
                Some((report, start.elapsed()))
            }
            None => None,
        };
        let engine = Engine::start(catalog, plan, registry.clone(), engine_config)?;
        let listener = TcpListener::bind(&config.bind_addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = Epoll::new()?;
        poller.register_listener(&listener)?;

        let shared = Arc::new(Shared {
            engine: RwLock::new(Some(engine)),
            registry,
            param_counts,
            adhoc,
            config,
            shutdown: AtomicBool::new(false),
            sessions_opened: AtomicU64::new(0),
            sessions_active: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            scrapes: AtomicU64::new(0),
            http_errors: AtomicU64::new(0),
            recovery,
            drained: Mutex::new(false),
            drained_cv: Condvar::new(),
        });

        let reactor_waker = poller.waker();
        let reactor = Reactor::new(Arc::clone(&shared), listener, poller);
        let reactor_thread = std::thread::Builder::new()
            .name("sdb-reactor".into())
            .spawn(move || reactor.run())
            .map_err(|e| Error::Internal(format!("failed to spawn reactor thread: {e}")))?;

        Ok(Server {
            shared,
            addr,
            reactor_thread: Some(reactor_thread),
            reactor_waker,
        })
    }

    /// The address the server listens on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs `read` on the engine — the one way in to everything it records:
    /// `e.stats()` for its counters, phase, operator and attribution tables,
    /// `e.trace()`, `e.slow_queries()`. `None` once the server has shut the
    /// engine down.
    pub fn with_engine<T>(&self, read: impl FnOnce(&Engine) -> T) -> Option<T> {
        let engine = self.shared.engine.read();
        engine.as_ref().map(read)
    }

    /// Engine statistics (batches, queries, phase latencies).
    pub fn engine_stats(&self) -> Option<shareddb_core::stats::EngineStatsSnapshot> {
        self.with_engine(Engine::stats)
    }

    /// Statements admitted to the engine but not yet formed into a batch.
    pub fn queued(&self) -> usize {
        self.with_engine(Engine::queued).unwrap_or(0)
    }

    /// Per-operator × per-statement-type cost attribution.
    pub fn attribution_stats(&self) -> Option<Vec<shareddb_core::AttributionEntry>> {
        self.with_engine(Engine::attribution)
    }

    /// What startup recovery restored and replayed, when the server runs
    /// with [`ServerConfig::data_dir`]; `None` in-memory.
    pub fn recovery_report(&self) -> Option<&RecoveryReport> {
        self.shared.recovery.as_ref().map(|(report, _)| report)
    }

    /// The Prometheus text exposition also served over HTTP at `/metrics`.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Zeroes the engine's statistics, the reactor's flush phase among them.
    /// Bench harnesses call this after warm-up so sweep points measure only
    /// their own window.
    pub fn reset_stats(&self) {
        self.with_engine(Engine::reset_stats);
    }

    /// Server-level statistics.
    pub fn stats(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            sessions_opened: self.shared.sessions_opened.load(Ordering::Relaxed),
            sessions_active: self.shared.sessions_active.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Relaxed),
            rejected: self.shared.rejected.load(Ordering::Relaxed),
        }
    }

    /// Graceful shutdown: stop accepting, drain in-flight sessions (bounded
    /// by [`ServerConfig::drain_timeout`]), then stop the engine.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the reactor so it observes the flag immediately (event-driven;
        // no session ever polls a shutdown flag on a timer any more).
        (self.reactor_waker)();
        // Drain: the reactor signals once every session has flushed its
        // in-flight work and closed.
        self.shared.wait_drained(self.shared.config.drain_timeout);
        // Stop the engine: completes everything still queued (final batch) or
        // fails it with a clean shutdown error; completion wakers hand those
        // results to the reactor, which delivers them and closes the
        // remaining sessions.
        let engine = self.shared.engine.write().take();
        if let Some(mut engine) = engine {
            engine.shutdown();
        }
        if let Some(handle) = self.reactor_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Number of positional parameters a registered statement takes, derived from
/// the `Expr::Param` references of its templates.
fn spec_param_count(spec: &shareddb_core::plan::StatementSpec) -> usize {
    fn scan(expr: &Expr, max: &mut usize) {
        expr.visit(&mut |e| {
            if let Expr::Param(i) = e {
                *max = (*max).max(*i + 1);
            }
        });
    }
    let mut max = 0;
    for (_, template) in &spec.activations {
        match template.base() {
            ActivationTemplate::Scan { predicate } | ActivationTemplate::Filter { predicate } => {
                scan(predicate, &mut max)
            }
            ActivationTemplate::Probe { key, residual, .. } => {
                scan(key, &mut max);
                if let Some(e) = residual {
                    scan(e, &mut max);
                }
            }
            ActivationTemplate::Having {
                predicate: Some(predicate),
            } => scan(predicate, &mut max),
            ActivationTemplate::Having { predicate: None }
            | ActivationTemplate::Participate
            | ActivationTemplate::TopN { .. }
            | ActivationTemplate::Demand { .. } => {}
        }
    }
    if let StatementKind::Query { compute, .. } = &spec.kind {
        for column in compute {
            scan(&column.expr, &mut max);
        }
    }
    if let StatementKind::Update { template, .. } = &spec.kind {
        match template {
            UpdateTemplate::Insert { values } => {
                for e in values {
                    scan(e, &mut max);
                }
            }
            UpdateTemplate::Update {
                assignments,
                predicate,
            } => {
                for (_, e) in assignments {
                    scan(e, &mut max);
                }
                scan(predicate, &mut max);
            }
            UpdateTemplate::Delete { predicate } => scan(predicate, &mut max),
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{chunk_flags, read_frame, write_frame, Frame, PROTOCOL_VERSION};
    use shareddb_common::{tuple, DataType, Value};
    use shareddb_storage::TableDef;
    use std::net::TcpStream;

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
                (0..100i64)
                    .map(|i| tuple![i, format!("t{i}"), i as f64])
                    .collect(),
            )
            .unwrap();
        Arc::new(catalog)
    }

    fn workload() -> Vec<(&'static str, &'static str)> {
        vec![
            ("getItem", "SELECT * FROM ITEM WHERE I_ID = ?"),
            ("addItem", "INSERT INTO ITEM VALUES (?, ?, ?)"),
        ]
    }

    /// Raw-socket smoke test of the whole reactor path (the full client
    /// library has its own loopback integration tests).
    #[test]
    fn raw_session_round_trip() {
        let mut server = Server::start_sql(
            catalog(),
            &workload(),
            EngineConfig::default(),
            ServerConfig::default(),
        )
        .unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write_frame(
            &mut stream,
            &Frame::Hello {
                version: PROTOCOL_VERSION,
                client_name: "raw".into(),
            },
        )
        .unwrap();
        match read_frame(&mut stream).unwrap().unwrap() {
            Frame::HelloOk {
                statement_count, ..
            } => assert_eq!(statement_count, 2),
            other => panic!("unexpected {other:?}"),
        }
        // Keepalive no-op.
        write_frame(&mut stream, &Frame::Ping { request_id: 99 }).unwrap();
        match read_frame(&mut stream).unwrap().unwrap() {
            Frame::Pong { request_id } => assert_eq!(request_id, 99),
            other => panic!("unexpected {other:?}"),
        }
        // Prepare + execute.
        write_frame(
            &mut stream,
            &Frame::Prepare {
                request_id: 1,
                name: "getItem".into(),
            },
        )
        .unwrap();
        let (statement_id, param_count) = match read_frame(&mut stream).unwrap().unwrap() {
            Frame::Prepared {
                request_id,
                statement_id,
                param_count,
                is_update,
            } => {
                assert_eq!(request_id, 1);
                assert!(!is_update);
                (statement_id, param_count)
            }
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(param_count, 1);
        write_frame(
            &mut stream,
            &Frame::ExecutePrepared {
                request_id: 2,
                statement_id,
                params: vec![Value::Int(42)],
            },
        )
        .unwrap();
        match read_frame(&mut stream).unwrap().unwrap() {
            Frame::ResultChunk {
                request_id,
                flags,
                rows,
                schema,
                ..
            } => {
                assert_eq!(request_id, 2);
                assert_eq!(flags, chunk_flags::FIRST | chunk_flags::LAST);
                assert_eq!(schema.len(), 3);
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0][0], Value::Int(42));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Ad-hoc SQL matches the registered statement type.
        write_frame(
            &mut stream,
            &Frame::Query {
                request_id: 3,
                sql: "select * from item where i_id = 7".into(),
            },
        )
        .unwrap();
        match read_frame(&mut stream).unwrap().unwrap() {
            Frame::ResultChunk { rows, .. } => {
                assert_eq!(rows.len(), 1);
                assert_eq!(rows[0][0], Value::Int(7));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Unknown statement type.
        write_frame(
            &mut stream,
            &Frame::Query {
                request_id: 4,
                sql: "SELECT * FROM ITEM WHERE I_TITLE = 'x'".into(),
            },
        )
        .unwrap();
        match read_frame(&mut stream).unwrap().unwrap() {
            Frame::Error { code, .. } => {
                assert_eq!(code, crate::protocol::error_codes::UNKNOWN_STATEMENT)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(server.engine_stats().unwrap().queries, 2);
        assert_eq!(server.stats().sessions_active, 1);
        write_frame(&mut stream, &Frame::Goodbye).unwrap();
        match read_frame(&mut stream).unwrap().unwrap() {
            Frame::GoodbyeOk => {}
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
        let stats = server.stats();
        assert_eq!(stats.sessions_opened, 1);
        assert_eq!(stats.sessions_active, 0);
    }

    #[test]
    fn param_counts_cover_all_template_kinds() {
        let catalog = catalog();
        let (_, registry) = compile_workload(&catalog, &workload()).unwrap();
        let counts: Vec<usize> = registry.iter().map(spec_param_count).collect();
        assert_eq!(counts, vec![1, 3]);
    }
}
