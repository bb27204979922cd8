//! # shareddb-cluster
//!
//! A shim over one [`Engine`], kept only because the benchmark's layer
//! replay (`crates/bench/src/bin/ledger/trace.rs`) times its statements
//! through [`ClusterEngine::submit`]. The server runs one engine
//! (`docs/ARCHITECTURE.md`, *One engine serves the endpoint*); this crate
//! goes once that pass submits to the engine directly (ROADMAP, item 9 (5)).

use shareddb_common::{Result, Value};
use shareddb_core::engine::QueryHandle;
use shareddb_core::{Engine, EngineConfig, GlobalPlan, StatementRegistry, SubmitOptions};
use shareddb_storage::Catalog;
use std::sync::Arc;

/// Configuration of a [`ClusterEngine`]: nothing is left to set.
#[derive(Debug, Clone, Default)]
pub struct ClusterConfig {}

/// One [`Engine`] behind the submit call the layer replay times.
pub struct ClusterEngine {
    engine: Engine,
}

impl ClusterEngine {
    /// Starts the engine over `catalog`.
    pub fn start(
        catalog: Arc<Catalog>,
        plan: GlobalPlan,
        registry: StatementRegistry,
        engine_config: EngineConfig,
        _config: ClusterConfig,
    ) -> Result<ClusterEngine> {
        let engine = Engine::start(catalog, plan, registry, engine_config)?;
        Ok(ClusterEngine { engine })
    }

    /// [`Engine::submit`].
    pub fn submit(
        &self,
        statement: &str,
        params: &[Value],
        opts: SubmitOptions,
    ) -> Result<QueryHandle> {
        self.engine.submit(statement, params, opts)
    }

    /// [`Engine::shutdown`].
    pub fn shutdown(&mut self) {
        self.engine.shutdown();
    }
}
