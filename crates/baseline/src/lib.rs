//! # shareddb-baseline
//!
//! The query-at-a-time baseline SharedDB is compared with. The paper's
//! comparison systems (Section 5.2: MySQL 5.1/InnoDB and a commercial
//! "SystemX") are not available to a reproduction, so this crate implements a
//! classical Volcano-style executor over the *same* storage layer SharedDB
//! uses, with the same access paths (`AccessPath::choose`), on a pool of
//! workers.
//!
//! Its defining property is the *query-at-a-time* model:
//! every query is planned and executed in isolation, so total work grows
//! linearly with the number of concurrent queries — exactly the behaviour the
//! paper contrasts with SharedDB's bounded, shared computation.
//!
//! Modules:
//! * [`exec`] — the per-query Volcano-style plan and executor.
//! * [`engine`] — the multi-threaded query-at-a-time engine.

pub mod engine;
pub mod exec;

pub use engine::{BaselineStatement, ClassicEngine, EngineProfile};
pub use exec::{QueryPlan, QueryResult};
