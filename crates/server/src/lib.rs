//! # shareddb-server
//!
//! The SharedDB **network frontend**: a one-thread reactor in front of one
//! always-on [`shareddb_core::Engine`] that funnels the statements of many
//! client connections into the engine's admission queue, so that one
//! [`shareddb_core::QueryBatch`] serves many sockets. This is the missing
//! client tier of the paper's architecture (Figure 1): concurrent queries from
//! many clients are admitted, queued while the current batch executes, formed
//! into the next batch, and answered through the shared
//! global plan's Γ(query_id) router.
//!
//! * [`protocol`] — the length-prefixed binary wire protocol (frame formats,
//!   error codes, the incremental [`protocol::FrameDecoder`]; values go
//!   through [`shareddb_common::codec`], which the WAL shares).
//! * [`server`] — the single-threaded readiness reactor (epoll), admission
//!   control and graceful drain.
//!
//! The crate builds on Linux only: the reactor's one readiness source is
//! `epoll`, and a graceful drain reads `TCP_INFO` to know a client has every
//! reply.
//!
//! There is one way to ask a server how it is doing: `GET /metrics` on the
//! wire port ([`Server::metrics_text`] in process), which reads every number
//! from the engine that records it. In-process callers reach the same
//! engine through [`Server::with_engine`]. The wire protocol carries
//! statements and results — no statistics (v5) and no plan frames (v6):
//! `EXPLAIN [ANALYZE] …` is a query whose rows are the rendered plan.
//!
//! Servers are started either over a pre-built plan
//! ([`Server::start`], e.g. the TPC-W plan of `shareddb-tpcw`) or directly
//! from a SQL workload ([`Server::start_sql`]), which is compiled into a
//! shared global plan by [`shareddb_sql::compile_workload`]. Ad-hoc SQL
//! received over the wire is auto-parameterised and matched against the
//! compiled statement *types* — queries whose type is not part of the plan are
//! rejected, mirroring the paper's prepared-workload model.

#[cfg(not(target_os = "linux"))]
compile_error!("shareddb-server needs Linux: its reactor is epoll and its drain reads TCP_INFO");

pub mod protocol;
mod reactor;
pub mod server;

pub use protocol::{Frame, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, ServerStatsSnapshot};
