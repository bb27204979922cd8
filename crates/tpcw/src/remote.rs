//! TPC-W over the network: a [`TpcwDatabase`] adapter backed by the
//! `shareddb-client` wire protocol, so the workload driver exercises the full
//! socket → session → admission queue → batch → Γ(query_id) path instead of
//! calling the engine in-process.
//!
//! The adapter keeps a pool of connections (the driver calls
//! [`TpcwDatabase::execute`] from many client threads) with per-connection
//! prepared-statement caches, and honours the wire protocol's backpressure
//! contract: a *retryable* rejection is retried with a short backoff until the
//! interaction's deadline expires.

use crate::driver::TpcwDatabase;
use shareddb_client::{Connection, Outcome, Prepared};
use shareddb_common::sync::Mutex;
use shareddb_common::{Error, Result, Value};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

struct PooledConnection {
    conn: Connection,
    prepared: HashMap<String, Prepared>,
}

/// A TPC-W system-under-test reached over the SharedDB wire protocol.
pub struct RemoteSystem {
    addr: SocketAddr,
    pool: Mutex<Vec<PooledConnection>>,
}

impl RemoteSystem {
    /// Creates an adapter for the server at `addr`. The first connection is
    /// opened eagerly so an unreachable or refusing server surfaces as an
    /// error here (propagated through the driver's setup) instead of a panic
    /// in the middle of the run; further connections are opened lazily, one
    /// per concurrently executing driver thread.
    pub fn connect(addr: SocketAddr) -> Result<RemoteSystem> {
        let probe = PooledConnection {
            conn: Connection::connect_named(addr, "tpcw-driver")?,
            prepared: HashMap::new(),
        };
        Ok(RemoteSystem {
            addr,
            pool: Mutex::new(vec![probe]),
        })
    }

    fn checkout(&self) -> Result<PooledConnection> {
        if let Some(pooled) = self.pool.lock().pop() {
            return Ok(pooled);
        }
        Ok(PooledConnection {
            conn: Connection::connect_named(self.addr, "tpcw-driver")?,
            prepared: HashMap::new(),
        })
    }

    fn checkin(&self, pooled: PooledConnection) {
        self.pool.lock().push(pooled);
    }
}

impl TpcwDatabase for RemoteSystem {
    fn system_name(&self) -> String {
        "SharedDB/net".to_string()
    }

    fn execute(&self, statement: &str, params: &[Value], deadline: Duration) -> Result<usize> {
        let started = Instant::now();
        let mut pooled = self.checkout()?;
        let prepared = match pooled.prepared.get(statement) {
            Some(p) => p.clone(),
            None => {
                let p = pooled.conn.prepare(statement)?;
                pooled.prepared.insert(statement.to_string(), p.clone());
                p
            }
        };
        loop {
            let remaining = deadline.saturating_sub(started.elapsed());
            if remaining.is_zero() {
                return Err(Error::DeadlineExceeded);
            }
            match pooled
                .conn
                .execute_with_deadline(&prepared, params, remaining)
            {
                Ok(Outcome::Rows(rs)) => {
                    self.checkin(pooled);
                    return Ok(rs.len());
                }
                Ok(Outcome::Updated { .. }) => {
                    self.checkin(pooled);
                    return Ok(0);
                }
                // Backpressure: back off briefly and retry within the deadline.
                Err(e) if e.is_retryable() => {
                    std::thread::sleep(Duration::from_millis(1).min(remaining));
                    continue;
                }
                Err(Error::DeadlineExceeded) => {
                    // The connection may have a response in flight; drop it.
                    return Err(Error::DeadlineExceeded);
                }
                Err(e) => {
                    if e.is_user_error() {
                        // The connection is still in sync; keep it.
                        self.checkin(pooled);
                    }
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_workload, DriverConfig};
    use crate::plans::build_shared_plan;
    use crate::schema::{build_catalog, TpcwScale};
    use crate::workload::Mix;
    use shareddb_core::EngineConfig;
    use shareddb_server::{Server, ServerConfig};
    use std::sync::Arc;

    fn start_server() -> Server {
        let scale = TpcwScale::tiny();
        let catalog = Arc::new(build_catalog(&scale).unwrap());
        let (plan, registry) = build_shared_plan(&catalog).unwrap();
        Server::start(
            catalog,
            plan,
            registry,
            EngineConfig::default(),
            ServerConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn tpcw_point_query_over_the_wire() {
        let mut server = start_server();
        let db = RemoteSystem::connect(server.local_addr()).unwrap();
        let rows = db
            .execute("getItemById", &[Value::Int(1)], Duration::from_secs(10))
            .unwrap();
        assert_eq!(rows, 1);
        assert_eq!(db.system_name(), "SharedDB/net");
        server.shutdown();
    }

    #[test]
    fn tpcw_mix_runs_over_the_wire() {
        let mut server = start_server();
        let scale = TpcwScale::tiny();
        let db = RemoteSystem::connect(server.local_addr()).unwrap();
        let config = DriverConfig {
            mix: Mix::Shopping,
            emulated_browsers: 40,
            think_time: Duration::from_millis(100),
            duration: Duration::from_millis(500),
            client_threads: 4,
            time_limit_scale: 1.0,
            seed: 21,
        };
        let report = run_workload(&db, &scale, &config);
        assert!(report.attempted > 0);
        assert!(report.successful > 0, "report: {report:?}");
        assert_eq!(report.failed, 0, "report: {report:?}");
        // The server really batched the concurrent interactions.
        let stats = server.engine_stats().unwrap();
        assert!(stats.batches > 0);
        assert!(stats.queries + stats.updates >= report.successful);
        server.shutdown();
    }

    /// A refused connection is a clean error from `connect`, not a panic in
    /// the driver.
    #[test]
    fn refused_connection_is_an_error() {
        // Bind a listener to reserve a free port, then drop it so the
        // connection is refused.
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        match RemoteSystem::connect(addr) {
            Err(Error::Io(_)) => {}
            Err(other) => panic!("expected an I/O error, got {other:?}"),
            Ok(_) => panic!("connect to a closed port succeeded"),
        }
    }
}
