//! # SharedDB
//!
//! A Rust reproduction of **"SharedDB: Killing One Thousand Queries With One
//! Stone"** (Giannikis, Alonso, Kossmann — VLDB 2012).
//!
//! SharedDB batches queries and updates and executes them through a single,
//! always-on *global query plan* of shared operators, which bounds the total
//! work independently of the number of concurrent queries and therefore gives
//! robust response-time guarantees under high load.
//!
//! This umbrella crate re-exports the member crates:
//!
//! * [`common`] — values, schemas, tuples, and the NF² data-query model.
//! * [`storage`] — the Crescando-style storage manager (ClockScan shared
//!   scans, B-tree indexes, snapshot isolation, write-ahead logging).
//! * [`core`] — shared operators, the global plan, and the batched runtime.
//! * [`sql`] — the SQL-subset front end and the global-plan compiler.
//! * [`baseline`] — query-at-a-time baseline engines used for comparison.
//! * [`tpcw`] — the TPC-W benchmark used in the paper's evaluation.
//! * [`server`] — the TCP network frontend feeding client sessions into the
//!   shared batch engine (wire protocol, admission control).
//! * [`client`] — the blocking client library (pipelining, typed results).
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end walkthrough: create tables,
//! register prepared statements, start the engine, and run hundreds of
//! concurrent parameterised queries through one shared plan.

pub use shareddb_baseline as baseline;
pub use shareddb_client as client;
pub use shareddb_common as common;
pub use shareddb_core as core;
pub use shareddb_server as server;
pub use shareddb_sql as sql;
pub use shareddb_storage as storage;
pub use shareddb_tpcw as tpcw;

pub use shareddb_common::{Error, Result};
