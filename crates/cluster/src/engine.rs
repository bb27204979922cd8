//! The clustered engine: N replicas of the shared-operator runtime behind one
//! submit interface.

use crate::router::{Route, Router};
use crate::ClusterConfig;
use shareddb_common::{Result, Value};
use shareddb_core::demand::push_down;
use shareddb_core::engine::{QueryHandle, QueryOutcome};
use shareddb_core::stats::EngineStatsSnapshot;
use shareddb_core::{
    Engine, EngineConfig, GlobalPlan, StatementRecord, StatementRegistry, SubmitOptions,
};
use shareddb_storage::Catalog;
use std::sync::Arc;

/// N engine replicas over one shared [`Catalog`], fronted by a `Router`
/// that dispatches each admitted statement by type (see the crate docs).
pub struct ClusterEngine {
    engines: Vec<Engine>,
    router: Router,
    registry: StatementRegistry,
    plan: GlobalPlan,
    catalog: Arc<Catalog>,
}

impl ClusterEngine {
    /// Starts `config.replicas` engines over one shared catalog and global
    /// plan, with every statement type's route fixed for the cluster's
    /// lifetime (see the crate docs). With `replicas == 1` the cluster
    /// behaves exactly like a single [`Engine`].
    ///
    /// A name in `config.replicate_statements` that is not registered is
    /// [`shareddb_common::Error::UnknownStatement`]; one that names an update
    /// is [`shareddb_common::Error::InvalidParameter`].
    pub fn start(
        catalog: Arc<Catalog>,
        plan: GlobalPlan,
        mut registry: StatementRegistry,
        engine_config: EngineConfig,
        config: ClusterConfig,
    ) -> Result<ClusterEngine> {
        // What every replica derives for itself, so that `registry()` —
        // EXPLAIN's source — shows the statements as they execute.
        registry.validate(&plan)?;
        push_down(&plan, &mut registry);
        let router = Router::new(&registry, &config)?;
        let replicas = config.replicas.max(1);
        let mut engines = Vec::with_capacity(replicas);
        for _ in 0..replicas {
            engines.push(Engine::start(
                Arc::clone(&catalog),
                plan.clone(),
                registry.clone(),
                engine_config.clone(),
            )?);
        }
        Ok(ClusterEngine {
            engines,
            router,
            registry,
            plan,
            catalog,
        })
    }

    /// The shared catalog.
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&self.catalog)
    }

    /// The global plan every replica deploys (replicas share one shape).
    pub fn plan(&self) -> &GlobalPlan {
        &self.plan
    }

    /// The statement registry the cluster routes by.
    pub fn registry(&self) -> &StatementRegistry {
        &self.registry
    }

    /// Number of engine replicas.
    pub fn replicas(&self) -> usize {
        self.engines.len()
    }

    /// The replicas, in replica order: every per-replica number — counters,
    /// phase and operator tables, queue depths, the trace ring — is read
    /// from the engine that records it.
    pub fn engines(&self) -> &[Engine] {
        &self.engines
    }

    /// Submits a statement to the replica the router picks: the statement
    /// runs whole on that one engine.
    pub fn submit(
        &self,
        statement: &str,
        params: &[Value],
        opts: SubmitOptions,
    ) -> Result<ClusterHandle> {
        let (index, _) = self.registry.get(statement)?;
        self.submit_prepared(index, params, opts)
    }

    /// [`ClusterEngine::submit`] of the statement at `index` of the registry
    /// (every replica's is this one), without the look-up by name.
    pub fn submit_prepared(
        &self,
        index: usize,
        params: &[Value],
        opts: SubmitOptions,
    ) -> Result<ClusterHandle> {
        let replica = self.router.pick_replica(index, params);
        let handle = self.engines[replica].submit_prepared(index, params, opts)?;
        Ok(ClusterHandle { replica, handle })
    }

    /// Submits and returns the handle (default options).
    pub fn execute(&self, statement: &str, params: &[Value]) -> Result<ClusterHandle> {
        self.submit(statement, params, SubmitOptions::default())
    }

    /// Submits and blocks until the result is available.
    pub fn execute_sync(&self, statement: &str, params: &[Value]) -> Result<QueryOutcome> {
        self.execute(statement, params)?.wait()
    }

    /// Statistics summed over all replicas: each replica's
    /// [`Engine::stats`] merged by [`EngineStatsSnapshot::merge_from`].
    /// Because every replica deploys the same plan, the sum reads like a
    /// single engine that saw all the traffic.
    pub fn stats(&self) -> EngineStatsSnapshot {
        let mut total = EngineStatsSnapshot::default();
        for engine in &self.engines {
            total.merge_from(&engine.stats());
        }
        total
    }

    /// Slow-query offenders summed over replicas: total count plus the
    /// retained records, each stamped with the replica that executed it
    /// (replica order preserved within the concatenation). A record names
    /// its statement by index into [`ClusterEngine::registry`].
    pub fn slow_queries(&self) -> (u64, Vec<StatementRecord>) {
        let mut total = 0;
        let mut records = Vec::new();
        for (replica, engine) in self.engines.iter().enumerate() {
            let (count, tail) = engine.slow_queries();
            total += count;
            records.extend(tail.into_iter().map(|mut record| {
                record.replica = replica;
                record
            }));
        }
        (total, records)
    }

    /// Zeroes every replica's statistics (counters, histograms, slow-query
    /// logs, operator counters). Bench harnesses call this after warm-up.
    pub fn reset_stats(&self) {
        for engine in &self.engines {
            engine.reset_stats();
        }
    }

    /// Statements queued but not yet batched, summed over replicas.
    pub fn queued(&self) -> usize {
        self.engines.iter().map(|e| e.queued()).sum()
    }

    /// The route per statement type (name, route), fixed at start.
    pub fn routes(&self) -> Vec<(String, Route)> {
        self.registry
            .iter()
            .map(|s| s.name.clone())
            .zip(self.router.routes().iter().copied())
            .collect()
    }

    /// Stops every replica (in-flight statements fail with a shutdown
    /// error).
    pub fn shutdown(&mut self) {
        for engine in &mut self.engines {
            engine.shutdown();
        }
    }
}

impl Drop for ClusterEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------------

/// Handle to a statement submitted to the cluster: the executing replica's
/// [`QueryHandle`] — for callers that block; an event loop names a queue in
/// [`SubmitOptions::completions`] and needs no handle — and which replica
/// that is.
pub struct ClusterHandle {
    replica: usize,
    handle: QueryHandle,
}

impl ClusterHandle {
    /// The executing replica.
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// Blocks until the outcome is available.
    pub fn wait(self) -> Result<QueryOutcome> {
        self.handle.wait()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::tuple;
    use shareddb_common::DataType;
    use shareddb_common::Error;
    use shareddb_core::stats::Phase;
    use shareddb_sql::compile_workload;
    use shareddb_storage::TableDef;
    use std::time::Duration;

    fn catalog() -> Arc<Catalog> {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("ITEM")
                    .column("I_ID", DataType::Int)
                    .column("I_SUBJECT", DataType::Text)
                    .column("I_COST", DataType::Float)
                    .primary_key(&["I_ID"]),
            )
            .unwrap();
        catalog
            .bulk_load(
                "ITEM",
                (0..200i64)
                    .map(|i| {
                        tuple![
                            i,
                            if i % 4 == 0 { "HISTORY" } else { "FICTION" },
                            (i % 50) as f64
                        ]
                    })
                    .collect(),
            )
            .unwrap();
        Arc::new(catalog)
    }

    const WORKLOAD: &[(&str, &str)] = &[
        ("getItem", "SELECT * FROM ITEM WHERE I_ID = ?"),
        ("allItems", "SELECT * FROM ITEM ORDER BY I_ID"),
        (
            "costBySubject",
            "SELECT I_SUBJECT, SUM(I_COST), COUNT(*), MIN(I_COST), MAX(I_COST) \
             FROM ITEM GROUP BY I_SUBJECT",
        ),
        ("addItem", "INSERT INTO ITEM VALUES (?, ?, ?)"),
    ];

    fn replica_stats(cluster: &ClusterEngine) -> Vec<EngineStatsSnapshot> {
        cluster.engines().iter().map(|e| e.stats()).collect()
    }

    fn try_start(replicas: usize, config: ClusterConfig) -> Result<ClusterEngine> {
        let catalog = catalog();
        let (plan, registry) = compile_workload(&catalog, WORKLOAD).unwrap();
        ClusterEngine::start(
            catalog,
            plan,
            registry,
            EngineConfig::default(),
            ClusterConfig { replicas, ..config },
        )
    }

    fn start(replicas: usize, config: ClusterConfig) -> ClusterEngine {
        try_start(replicas, config).unwrap()
    }

    fn replicating(name: &str) -> ClusterConfig {
        ClusterConfig {
            replicate_statements: vec![name.into()],
            ..ClusterConfig::default()
        }
    }

    #[test]
    fn single_replica_behaves_like_one_engine() {
        let cluster = start(1, ClusterConfig::default());
        assert_eq!(cluster.replicas(), 1);
        let outcome = cluster.execute_sync("getItem", &[Value::Int(7)]).unwrap();
        assert_eq!(outcome.rows().len(), 1);
        assert_eq!(outcome.rows()[0][0], Value::Int(7));
        for (_, route) in cluster.routes() {
            assert_eq!(route, Route::Pinned(0));
        }
    }

    /// A type not named in `replicate_statements` stays on its home replica
    /// however hot it runs: 600 ms of back-to-back look-ups (thousands a
    /// second) move no route.
    #[test]
    fn cold_types_pin_to_one_replica() {
        let cluster = start(2, ClusterConfig::default());
        let deadline = std::time::Instant::now() + Duration::from_millis(600);
        let mut i = 0;
        while std::time::Instant::now() < deadline {
            let outcome = cluster
                .execute_sync("getItem", &[Value::Int(i % 200)])
                .unwrap();
            assert_eq!(outcome.rows().len(), 1);
            i += 1;
        }
        let active: Vec<usize> = replica_stats(&cluster)
            .iter()
            .enumerate()
            .filter(|(_, s)| s.queries > 0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            active,
            [0],
            "getItem ran on replicas {active:?} after {i} look-ups"
        );
        let routes = cluster.routes();
        assert!(
            routes.contains(&("getItem".into(), Route::Pinned(0))),
            "{routes:?}"
        );
    }

    /// A replicated name is checked against the registry at start: a
    /// misspelled one and an update are refused, not silently pinned.
    #[test]
    fn start_refuses_an_unknown_replicated_statement() {
        let started = try_start(2, replicating("getItems"));
        assert!(matches!(started, Err(Error::UnknownStatement(name)) if name == "getItems"));
    }

    #[test]
    fn start_refuses_a_replicated_update() {
        let started = try_start(2, replicating("addItem"));
        assert!(matches!(started, Err(Error::InvalidParameter(_))));
    }

    #[test]
    fn replicated_type_spreads_by_parameter_hash() {
        let config = ClusterConfig {
            replicate_statements: vec!["getItem".into()],
            ..ClusterConfig::default()
        };
        let cluster = start(4, config);
        // Same key → same replica (twice); across keys the load spreads.
        let h1 = cluster.execute("getItem", &[Value::Int(1)]).unwrap();
        let h2 = cluster.execute("getItem", &[Value::Int(1)]).unwrap();
        assert_eq!(h1.replica(), h2.replica());
        h1.wait().unwrap();
        h2.wait().unwrap();
        for i in 0..64 {
            let outcome = cluster.execute_sync("getItem", &[Value::Int(i)]).unwrap();
            assert_eq!(outcome.rows().len(), 1, "item {i}");
        }
        let active = replica_stats(&cluster)
            .iter()
            .filter(|s| s.queries > 0)
            .count();
        assert!(active > 1, "hot type never left one replica");
    }

    #[test]
    fn updates_pin_to_the_write_replica_and_are_visible_everywhere() {
        let cluster = start(3, ClusterConfig::default());
        // getItem (query type 0) homes on replica 0, allItems on replica 1 —
        // read the insert back through a statement pinned elsewhere.
        let outcome = cluster
            .execute_sync(
                "addItem",
                &[Value::Int(9_000), Value::text("HISTORY"), Value::Float(1.0)],
            )
            .unwrap();
        assert_eq!(outcome.rows_affected(), 1);
        let all = cluster.execute_sync("allItems", &[]).unwrap();
        assert_eq!(all.rows().len(), 201);
        // Updates stay on replica 0 regardless of load.
        assert_eq!(replica_stats(&cluster)[0].updates, 1);
        assert!(replica_stats(&cluster)[1..].iter().all(|s| s.updates == 0));
    }

    /// What a replicated heavy type does: each parameterless execution runs
    /// whole — complete and ordered — on one replica, and consecutive
    /// executions take the replicas in turn.
    #[test]
    fn replicated_parameterless_type_round_robins_whole() {
        let config = ClusterConfig {
            replicate_statements: vec!["allItems".into(), "costBySubject".into()],
            ..ClusterConfig::default()
        };
        let cluster = start(4, config);
        for _ in 0..4 {
            let outcome = cluster.execute_sync("allItems", &[]).unwrap();
            let rows = outcome.rows();
            assert_eq!(rows.len(), 200);
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(row[0], Value::Int(i as i64), "order broken at {i}");
            }
        }
        assert!(
            replica_stats(&cluster).iter().all(|s| s.queries == 1),
            "round-robin skipped a replica: {:?}",
            replica_stats(&cluster)
        );
        let outcome = cluster.execute_sync("costBySubject", &[]).unwrap();
        let history = outcome
            .rows()
            .iter()
            .find(|r| r[0] == Value::text("HISTORY"))
            .unwrap();
        // 50 HISTORY items, ids 0,4,..,196; costs id % 50.
        let expected_sum: f64 = (0..200i64)
            .filter(|i| i % 4 == 0)
            .map(|i| (i % 50) as f64)
            .sum();
        assert_eq!(history[1], Value::Float(expected_sum));
        assert_eq!(history[2], Value::Int(50));
        assert_eq!(history[3], Value::Float(0.0));
        assert_eq!(history[4], Value::Float(48.0));
        assert_eq!(cluster.stats().queries, 5, "an execution ran twice");
    }

    /// Under concurrent hash-routed look-ups the cluster-level latency
    /// histogram must be the exact bucket-wise sum of the per-replica
    /// histograms (lossless merge) and its percentiles must be monotone.
    #[test]
    fn replica_histograms_merge_losslessly() {
        let config = ClusterConfig {
            replicate_statements: vec!["getItem".into()],
            ..ClusterConfig::default()
        };
        let cluster = start(4, config);
        const LOOKUPS: i64 = 64;
        std::thread::scope(|scope| {
            for thread in 0..4 {
                let cluster = &cluster;
                scope.spawn(move || {
                    for i in 0..LOOKUPS / 4 {
                        let key = Value::Int(thread * LOOKUPS / 4 + i);
                        let outcome = cluster.execute_sync("getItem", &[key]).unwrap();
                        assert_eq!(outcome.rows().len(), 1);
                    }
                });
            }
        });

        let total = cluster.stats();
        let replicas = replica_stats(&cluster);
        // Each look-up ran once, and they spread.
        assert_eq!(total.queries, LOOKUPS as u64);
        assert!(replicas.iter().filter(|s| s.queries > 0).count() > 1);
        // Lossless merge: bucket-wise the cluster histogram is the sum of
        // the replica histograms, as if one engine had seen all the traffic.
        let mut merged = shareddb_common::metrics::HistogramSnapshot::default();
        for replica in &replicas {
            merged.merge_from(&replica.histogram);
        }
        assert_eq!(total.histogram.counts, merged.counts);
        assert_eq!(total.histogram.count, merged.count);
        assert_eq!(total.histogram.sum_us, merged.sum_us);
        assert_eq!(total.histogram.max_us, merged.max_us);
        // Percentiles monotone and bounded by the exact max.
        let p50 = total.histogram.percentile_us(0.50);
        let p95 = total.histogram.percentile_us(0.95);
        let p99 = total.histogram.percentile_us(0.99);
        assert!(p50 <= p95 && p95 <= p99 && p99 <= total.histogram.max_us);
        assert_eq!(total.p99_latency.as_micros() as u64, p99);

        // Each replica recorded the phases of the look-ups it ran.
        for stats in &replicas {
            let snap = stats
                .phases
                .iter()
                .find(|s| s.statement == "getItem")
                .unwrap();
            assert_eq!(snap.phase(Phase::Execute).count, stats.queries);
            assert_eq!(snap.phase(Phase::Total).count, stats.queries);
        }

        // reset_stats zeroes every replica.
        cluster.reset_stats();
        assert_eq!(cluster.stats().queries, 0);
        assert!(cluster.stats().histogram.is_empty());
        assert!(cluster
            .engines()
            .iter()
            .flat_map(|e| e.stats().phases)
            .all(|s| s.phases.iter().all(|h| h.is_empty())));
    }

    /// The admission bound is accounted per replica: saturating one replica's
    /// queue rejects retryably without touching the others.
    #[test]
    fn queue_depth_is_per_replica() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(&catalog, WORKLOAD).unwrap();
        let cluster = ClusterEngine::start(
            catalog,
            plan,
            registry,
            // Holds every statement after the first queued.
            EngineConfig {
                heartbeat: Duration::from_secs(30),
                ..EngineConfig::default()
            },
            ClusterConfig::with_replicas(2),
        )
        .unwrap();
        // Start the heartbeat's clock on the home replica of getItem.
        cluster.execute_sync("getItem", &[Value::Int(0)]).unwrap();
        let opts = SubmitOptions {
            max_queue_depth: Some(2),
            ..SubmitOptions::default()
        };
        let mut handles = Vec::new();
        let mut rejected = 0;
        for i in 0..6 {
            match cluster.submit("getItem", &[Value::Int(i)], opts.clone()) {
                Ok(h) => handles.push(h),
                Err(Error::Overloaded(_)) => rejected += 1,
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert_eq!(rejected, 4, "per-replica bound of 2 not enforced");
        // The other replica's queue is untouched: a statement pinned there
        // is admitted under the same bound.
        cluster
            .submit("allItems", &[], opts)
            .expect("other replica should admit");
        drop(handles);
    }

    /// Read-your-writes across 4 replicas: a pipelined INSERT → SELECT on
    /// the same session observes the write on every round when the read
    /// carries the session's write fence, and provably reads stale without
    /// it (the negative control routes to a replica whose batch forms before
    /// the write replica's paced group commit).
    #[test]
    fn read_your_writes_across_replicas() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(&catalog, WORKLOAD).unwrap();
        let cluster = ClusterEngine::start(
            catalog,
            plan,
            registry,
            // Holds the write queued for 60 ms after the write replica's last batch.
            EngineConfig {
                heartbeat: Duration::from_millis(60),
                ..EngineConfig::default()
            },
            ClusterConfig::with_replicas(4),
        )
        .unwrap();
        // Heat the write replica's pacing clock (updates pin to replica 0,
        // like getItem) so the negative-control insert waits out the full
        // 60ms pacing. The read statement's home replica stays cold — its
        // first batch forms immediately.
        cluster.execute_sync("getItem", &[Value::Int(0)]).unwrap();
        // Negative control: unfenced pipelined write → read loses the race.
        let write = cluster
            .execute(
                "addItem",
                &[Value::Int(9_000), Value::text("HISTORY"), Value::Float(1.0)],
            )
            .unwrap();
        let stale = cluster.execute_sync("allItems", &[]).unwrap();
        assert_eq!(
            stale.rows().len(),
            200,
            "unfenced pipelined read should miss the still-uncommitted insert"
        );
        write.wait().unwrap();
        // Fenced rounds: 100% of N pipelined write→read pairs observe the
        // session's write, whichever replica serves the read.
        for round in 0..8i64 {
            let fence = Arc::new(shareddb_core::WriteFence::new());
            let write = cluster
                .submit(
                    "addItem",
                    &[
                        Value::Int(10_000 + round),
                        Value::text("FICTION"),
                        Value::Float(2.0),
                    ],
                    SubmitOptions {
                        write_fence: Some(Arc::clone(&fence)),
                        ..SubmitOptions::default()
                    },
                )
                .unwrap();
            let rows = cluster
                .submit(
                    "allItems",
                    &[],
                    SubmitOptions {
                        read_after: Some(Arc::clone(&fence)),
                        ..SubmitOptions::default()
                    },
                )
                .unwrap()
                .wait()
                .unwrap();
            assert!(
                rows.rows()
                    .iter()
                    .any(|r| r[0] == Value::Int(10_000 + round)),
                "round {round}: fenced read missed the session's write"
            );
            write.wait().unwrap();
        }
    }
}
