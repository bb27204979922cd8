//! # shareddb-core
//!
//! The core of SharedDB: the **global query plan**, the **shared operators**
//! and the **batched, push-based runtime** (Sections 3 and 4 of the paper).
//!
//! ## Execution model
//!
//! Instead of compiling every query into its own plan, the whole workload (a
//! set of prepared-statement *query types*) is compiled into one always-on
//! [`plan::GlobalPlan`]. Clients execute statements with concrete parameters;
//! each execution becomes an *activation* that is routed through the shared
//! operators of the plan.
//!
//! Queries and updates are **batched**: while one batch is processed, newly
//! arriving queries queue up; when the batch finishes, the queues are drained
//! to form the next batch ("heartbeat", Section 3.2). Every operator of the
//! plan processes one batch per cycle, following the operator skeleton of
//! Algorithm 1; a cycle is a task of the engine's executor, which has as
//! many threads as the machine has cores ([`engine::Engine`]).
//!
//! Shared operators implement the NF² data-query model: tuples carry the set
//! of interested queries, joins amend their predicate with the query-set
//! intersection, and a final Γ(query_id) router distributes results back to
//! clients.
//!
//! ## Module map
//!
//! * [`plan`] — operator specs, plan builder, statement registry, deployment.
//! * [`operators`] — the shared relational operators (pure batch functions).
//! * [`storage_ops`] — scan / index-probe operators backed by `shareddb-storage`.
//! * [`batch`] — activations, active queries, batch assembly.
//! * [`completions`] — the wake-on-empty queue outcomes reach their reader by.
//! * [`demand`] — a statement's Top-N limit, carried one edge down the plan.
//! * [`engine`] — the engine and its handles; its module docs map the runtime
//!   behind it, one file per lifetime (`admission`, `coordinator`,
//!   `routing`).
//! * `executor` — operator cycles as tasks on a ready queue, cores as threads.
//! * [`merge`] — the ordered merge of partial results, kept for the ledger's
//!   per-layer bench.
//! * [`explain`] — EXPLAIN/EXPLAIN ANALYZE: annotated statement subtrees,
//!   sharing sets, text + DOT rendering.
//! * [`stats`] — the engine's one snapshot:
//!   engine-level counters, phase histograms, and the operator cycles'
//!   single record — per-statement-type cost attribution, whose row sums are
//!   each operator's busy time and rows.
//! * [`trace`] — the trace ring's two records, one per batch and one per
//!   statement, and the bounded ring the slow-query log shares.
//! * [`config`] — engine configuration.

mod admission;
pub mod batch;
pub mod completions;
pub mod config;
mod coordinator;
pub mod demand;
pub mod engine;
mod executor;
pub mod explain;
pub mod merge;
pub mod operators;
pub mod plan;
mod routing;
pub mod stats;
pub mod storage_ops;
pub mod trace;

pub use admission::Lane;
pub use batch::{Activation, ActiveQuery, QueryBatch};
pub use completions::Completions;
pub use config::EngineConfig;
pub use engine::{Engine, QueryOutcome, ResultSet, SubmitOptions};
pub use explain::{render_dot, render_explain_text, sharing_sets};
pub use merge::{merge_results, MergeSpec};
pub use plan::{
    ActivationTemplate, ComputedColumn, GlobalPlan, OperatorId, OperatorSpec, PlanBuilder,
    StatementKind, StatementRegistry, StatementSpec,
};
pub use stats::{
    AttributionEntry, EngineStatsSnapshot, Phase, ScanRowsSnapshot, StatementPhaseSnapshot,
    UpdateRowsSnapshot, IDLE_STATEMENT, NUM_PHASES,
};
pub use trace::{StatementRecord, TraceEvent, TraceRecord};
