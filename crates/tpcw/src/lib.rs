//! # shareddb-tpcw
//!
//! The TPC-W benchmark used in the paper's evaluation (Section 5): an online
//! bookstore with fourteen web interactions, three workload mixes and a
//! WIPS (successful Web Interactions Per Second) metric.
//!
//! * [`schema`] — the base tables, indexes and the synthetic data generator.
//! * [`plans`] — the SharedDB global plan (Figure 6) and the equivalent
//!   per-query plans for the query-at-a-time baselines, registered under
//!   identical statement names.
//! * [`workload`] — the fourteen web interactions, the Browsing / Shopping /
//!   Ordering mixes, and parameter generation.
//! * [`driver`] — emulated-browser workload driver measuring WIPS under
//!   response-time limits, with adapters for SharedDB and the baselines.
//! * [`remote`] — a driver adapter running the workload over the
//!   `shareddb-server` wire protocol instead of in-process.

pub mod driver;
pub mod plans;
pub mod remote;
pub mod schema;
pub mod workload;

pub use driver::{
    run_interactions, run_workload, BaselineSystem, DriverConfig, DriverReport, SharedDbSystem,
    TpcwDatabase,
};
pub use plans::{build_shared_plan, register_baseline_statements, statement_names, PAGE_SIZE};
pub use remote::RemoteSystem;
pub use schema::{build_catalog, create_schema, load_data, TpcwScale, SUBJECTS};
pub use workload::{Mix, ParamGenerator, StatementCall, WebInteraction, ALL_INTERACTIONS};
