//! # shareddb-sql
//!
//! The SQL front end of SharedDB: a tokenizer and parser for the SQL subset
//! used by the paper's workloads (parameterised SELECT / INSERT / UPDATE /
//! DELETE with joins, GROUP BY, ORDER BY and LIMIT), per-query logical plans
//! with predicate push-down ("logical query optimization", Figure 3 middle),
//! and the **two-step global-plan compilation**: individual query plans are
//! merged into a single shared plan by unifying joins that use the same
//! tables and join keys (Figure 3 right, Section 3.3).
//!
//! * [`token`] — the tokenizer.
//! * [`ast`] — the abstract syntax tree.
//! * [`parser`] — the recursive-descent parser.
//! * [`logical`] — per-query logical plans with predicate push-down.
//! * [`compile`] — compiling a whole SQL workload into an *executable*
//!   [`shareddb_core::GlobalPlan`] + [`shareddb_core::StatementRegistry`],
//!   plus token-level auto-parameterisation for ad-hoc statements.

pub mod ast;
pub mod compile;
pub mod logical;
pub mod parser;
pub mod token;

pub use ast::{SelectStatement, Statement};
pub use compile::{
    bind_adhoc, canonicalize, compile_workload, parse_explain, SqlCompiler, SqlTemplate,
    TemplateSlot,
};
pub use logical::LogicalPlan;
pub use parser::parse;
