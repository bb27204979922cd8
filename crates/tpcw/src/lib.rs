//! # shareddb-tpcw
//!
//! The TPC-W benchmark used in the paper's evaluation (Section 5): an online
//! bookstore with fourteen web interactions, three workload mixes and a
//! WIPS (successful Web Interactions Per Second) metric.
//!
//! * [`schema`] — the base tables, indexes and the synthetic data generator.
//! * [`plans`] — the statements as SQL ([`SQL`]), which the SQL compiler
//!   turns into the SharedDB global plan of Figure 6, and the equivalent
//!   hand-written per-query plans for the query-at-a-time baselines,
//!   registered under identical statement names.
//! * [`workload`] — the fourteen web interactions, the Browsing / Shopping /
//!   Ordering mixes, and parameter generation.
//! * [`driver`] — the workload driver: interactions offered at a rate (or in
//!   a closed loop) to SharedDB or the query-at-a-time baseline, both in
//!   process, measuring WIPS under the response-time limits.

pub mod driver;
pub mod plans;
pub mod schema;
pub mod workload;

pub use driver::{
    run_interactions, BaselineSystem, DriverConfig, DriverReport, SharedDbSystem, TpcwDatabase,
};
pub use plans::{build_shared_plan, register_baseline_statements, statement_names, PAGE_SIZE, SQL};
pub use schema::{build_catalog, create_schema, load_data, TpcwScale, SUBJECTS};
pub use workload::{Mix, ParamGenerator, StatementCall, WebInteraction, ALL_INTERACTIONS};
