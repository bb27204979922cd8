//! The traced run: a short loaded window for the counts, a *layer replay*
//! that pushes statements one at a time through the layers' public functions
//! and records a span at each boundary, and the per-layer microbenches of
//! `layers.rs`. Spans stay in memory until the run ends.
//!
//! No call below the engine can be intercepted from outside the program, and
//! a span inside the program is a later change, so a request's spans are
//! taken in separate passes over the same statements (wire, cluster, bare
//! engine); a parent's self time is its duration minus its children's.

use crate::harness::{
    metric, run_window, scratch_dir, Deployment, Metric, RunResult, Settings, ROUNDS,
};
use crate::json::{self, Json};
use crate::layers;
use crate::stats::{median, ns, percentile, us};
use crate::workloads::{bestseller_threshold, interleaved_prefix, Workload};
use shareddb_baseline::{ClassicEngine, EngineProfile};
use shareddb_cluster::{ClusterConfig, ClusterEngine};
use shareddb_common::Value;
use shareddb_core::{Engine, EngineConfig, QueryOutcome, SubmitOptions};
use shareddb_server::protocol::{chunk_flags, read_frame, write_frame, Frame, FrameDecoder};
use shareddb_server::PROTOCOL_VERSION;
use shareddb_tpcw::{
    build_catalog, build_shared_plan, register_baseline_statements, StatementCall, TpcwScale,
    SUBJECTS,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span names, outermost first. `WIRE` is a request's root; `DECODE`,
/// `CLUSTER` and `ENCODE` are its children; `ENGINE` is `CLUSTER`'s child.
const WIRE: &str = "server.wire";
const DECODE: &str = "server.protocol.decode";
const CLUSTER: &str = "cluster.submit";
const ENGINE: &str = "core.engine";
const ENCODE: &str = "server.protocol.encode";

fn parent_of(name: &str) -> Option<&'static str> {
    match name {
        DECODE | CLUSTER | ENCODE => Some(WIRE),
        ENGINE => Some(CLUSTER),
        _ => None,
    }
}

struct Span {
    name: &'static str,
    /// Spans of one request share this identifier.
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span store of one replay.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn span<R>(&mut self, name: &'static str, request: u32, work: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = work();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            request,
            start_ns: (start - self.epoch).as_nanos() as u64,
            end_ns: (end - self.epoch).as_nanos() as u64,
        });
        result
    }

    /// Durations of all spans called `name`, in request order.
    fn durations(&self, name: &str) -> Vec<Duration> {
        let mut spans: Vec<&Span> = self.spans.iter().filter(|s| s.name == name).collect();
        spans.sort_by_key(|s| s.request);
        spans
            .iter()
            .map(|s| Duration::from_nanos(s.end_ns - s.start_ns))
            .collect()
    }

    /// Per request, the span's duration minus its child spans' durations, in
    /// microseconds. Negative when the passes disagree by more than the layer
    /// costs, which is itself worth seeing.
    fn self_times_us(&self, name: &str) -> Vec<f64> {
        let mut own: Vec<f64> = self.durations(name).iter().map(|d| us(*d)).collect();
        for span in &self.spans {
            if parent_of(span.name) == Some(name) {
                if let Some(slot) = own.get_mut(span.request as usize) {
                    *slot -= (span.end_ns - span.start_ns) as f64 / 1e3;
                }
            }
        }
        own
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    json::obj([
                        ("name".to_string(), Json::Str(s.name.to_string())),
                        ("request".to_string(), Json::Num(f64::from(s.request))),
                        ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                        ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                        (
                            "parent".to_string(),
                            parent_of(s.name).map_or(Json::Null, |p| Json::Str(p.to_string())),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// The reply frame the reactor would send for one outcome (one chunk).
fn encode_reply(request_id: u64, outcome: &QueryOutcome) -> Vec<u8> {
    let frame = match outcome {
        QueryOutcome::Updated { rows_affected } => Frame::ResultChunk {
            request_id,
            flags: chunk_flags::FIRST | chunk_flags::LAST | chunk_flags::UPDATE,
            rows_affected: *rows_affected as u64,
            schema: vec![],
            rows: vec![],
        },
        QueryOutcome::Rows(result) => Frame::ResultChunk {
            request_id,
            flags: chunk_flags::FIRST | chunk_flags::LAST,
            rows_affected: 0,
            schema: result
                .schema
                .columns()
                .iter()
                .map(|c| (c.qualified_name(), c.data_type))
                .collect(),
            rows: result.rows.iter().map(|t| t.values().to_vec()).collect(),
        },
    };
    frame.encode()
}

/// A bare socket speaking the wire protocol without the client library, so
/// the round trip holds no client-side decoding.
struct RawWire {
    stream: TcpStream,
    body: Vec<u8>,
}

impl RawWire {
    fn connect(addr: std::net::SocketAddr) -> Result<RawWire, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let hello = Frame::Hello {
            version: PROTOCOL_VERSION,
            client_name: "ledger-raw".into(),
        };
        write_frame(&mut stream, &hello).map_err(|e| e.to_string())?;
        match read_frame(&mut stream).map_err(|e| e.to_string())? {
            Some(Frame::HelloOk { .. }) => Ok(RawWire {
                stream,
                body: Vec::new(),
            }),
            other => Err(format!("unexpected greeting: {other:?}")),
        }
    }

    /// Sends one encoded request and reads frames up to the last chunk of
    /// its reply. Returns false when the server answered with an error frame.
    fn round_trip(&mut self, request: &[u8]) -> Result<bool, String> {
        const RESULT_CHUNK: u8 = 0x83;
        self.stream.write_all(request).map_err(|e| e.to_string())?;
        loop {
            let mut len = [0u8; 4];
            self.stream
                .read_exact(&mut len)
                .map_err(|e| e.to_string())?;
            self.body.resize(u32::from_le_bytes(len) as usize, 0);
            self.stream
                .read_exact(&mut self.body)
                .map_err(|e| e.to_string())?;
            // opcode, u64 request id, then the chunk flags
            match (self.body.first(), self.body.get(9)) {
                (Some(&RESULT_CHUNK), Some(flags)) if flags & chunk_flags::LAST != 0 => {
                    return Ok(true)
                }
                (Some(&RESULT_CHUNK), Some(_)) => {}
                _ => return Ok(false),
            }
        }
    }
}

/// What one replayed statement stream cost at each boundary.
pub struct Replay {
    pub tracer: Tracer,
    pub statements: usize,
    pub errors: u64,
}

/// Replays `calls` one at a time through wire, cluster and bare engine, each
/// on its own freshly built data set (an insert can only be applied once).
/// The cluster pass stops at `budget`; the other passes replay as many.
fn replay(
    calls: &[StatementCall],
    budget: Duration,
    scale: &TpcwScale,
    deployment: &mut Deployment,
) -> Result<Replay, String> {
    let mut tracer = Tracer::new();
    let mut errors = 0u64;

    // Cluster pass: decode → ClusterEngine::submit + wait → encode.
    let catalog = Arc::new(build_catalog(scale).map_err(|e| e.to_string())?);
    let (plan, registry) = build_shared_plan(&catalog).map_err(|e| e.to_string())?;
    let statement_ids: Vec<u32> = calls
        .iter()
        .map(|c| registry.get(c.statement).map(|(i, _)| i as u32))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let requests: Vec<Vec<u8>> = calls
        .iter()
        .zip(&statement_ids)
        .enumerate()
        .map(|(i, (call, id))| {
            Frame::ExecutePrepared {
                request_id: i as u64,
                statement_id: *id,
                params: call.params.clone(),
            }
            .encode()
        })
        .collect();
    let mut cluster = ClusterEngine::start(
        catalog,
        plan,
        registry,
        EngineConfig::default(),
        ClusterConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let mut decoder = FrameDecoder::new();
    let started = Instant::now();
    let mut statements = 0;
    for (i, call) in calls.iter().enumerate() {
        if started.elapsed() >= budget {
            break;
        }
        let request = i as u32;
        let frame = tracer.span(DECODE, request, || {
            decoder.push(&requests[i]);
            decoder.poll_frame()
        });
        let Ok(Some(Frame::ExecutePrepared { params, .. })) = frame else {
            return Err(format!("replayed frame {i} did not decode: {frame:?}"));
        };
        let outcome = tracer.span(CLUSTER, request, || {
            cluster
                .submit(call.statement, &params, SubmitOptions::default())
                .and_then(|handle| handle.wait())
        });
        match outcome {
            Ok(outcome) => {
                let bytes = tracer.span(ENCODE, request, || encode_reply(i as u64, &outcome));
                std::hint::black_box(bytes);
            }
            Err(_) => errors += 1,
        }
        statements += 1;
    }
    cluster.shutdown();
    drop(cluster);
    let calls = &calls[..statements];

    // Engine pass: the same statements through a bare Engine.
    let catalog = Arc::new(build_catalog(scale).map_err(|e| e.to_string())?);
    let (plan, registry) = build_shared_plan(&catalog).map_err(|e| e.to_string())?;
    let mut engine = Engine::start(catalog, plan, registry, EngineConfig::default())
        .map_err(|e| e.to_string())?;
    for (i, call) in calls.iter().enumerate() {
        let outcome = tracer.span(ENGINE, i as u32, || {
            engine.execute_sync(call.statement, &call.params)
        });
        errors += u64::from(outcome.is_err());
    }
    engine.shutdown();
    drop(engine);

    // Wire pass: over TCP against the real server, one statement in flight.
    let mut wire = RawWire::connect(deployment.server.local_addr())?;
    for (i, request) in requests[..statements].iter().enumerate() {
        let ok = tracer.span(WIRE, i as u32, || wire.round_trip(request))?;
        errors += u64::from(!ok);
    }
    Ok(Replay {
        tracer,
        statements,
        errors,
    })
}

fn median_us(durations: &[Duration]) -> f64 {
    median(&durations.iter().map(|d| us(*d)).collect::<Vec<_>>())
}

fn p99_us(durations: &[Duration]) -> f64 {
    let mut sorted: Vec<f64> = durations.iter().map(|d| us(*d)).collect();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.99)
}

/// `samples` timings of `work`.
fn timed(samples: usize, mut work: impl FnMut()) -> Vec<Duration> {
    (0..samples)
        .map(|_| {
            let started = Instant::now();
            work();
            started.elapsed()
        })
        .collect()
}

/// Point look-ups with seeded keys: the statement every per-statement
/// overhead is quoted for.
fn lookup_calls(scale: &TpcwScale, n: usize) -> Vec<StatementCall> {
    (0..n)
        .map(|i| StatementCall {
            statement: "getItemById",
            params: vec![Value::Int((i as i64 * 7_919) % scale.items as i64)],
        })
        .collect()
}

/// Engine-level costs beside the replay: amortisation over a batch, an
/// update, the heaviest statement alone and shared, and the query-at-a-time
/// comparator on the same data.
fn engine_metrics(scale: &TpcwScale, lookups: usize) -> Result<Vec<Metric>, String> {
    let catalog = Arc::new(build_catalog(scale).map_err(|e| e.to_string())?);
    let (plan, registry) = build_shared_plan(&catalog).map_err(|e| e.to_string())?;
    let mut engine = Engine::start(
        Arc::clone(&catalog),
        plan,
        registry,
        EngineConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let items = scale.items as i64;
    let item = |i: usize| vec![Value::Int((i as i64 * 104_729) % items)];
    let threshold = bestseller_threshold(scale);
    let bestsellers = |i: usize| {
        vec![
            Value::text(SUBJECTS[i % SUBJECTS.len()]),
            Value::Int(threshold),
        ]
    };

    let mut i = 0;
    let mut next = || {
        i += 1;
        i
    };
    let batch_of_64 = timed(lookups / 32, || {
        let handles: Vec<_> = (0..64)
            .map(|_| {
                engine
                    .execute("getItemById", &item(next()))
                    .expect("submit")
            })
            .collect();
        for handle in handles {
            handle.wait().expect("lookup");
        }
    });
    let update = timed(lookups / 2, || {
        let params = [
            item(next()).remove(0),
            Value::Float(9.5),
            Value::Date(15_403),
        ];
        engine
            .execute_sync("adminUpdateItem", &params)
            .expect("update");
    });
    let alone = timed(9, || {
        engine
            .execute_sync("getBestSellers", &bestsellers(next()))
            .expect("bestsellers");
    });
    let batch_of_16 = timed(5, || {
        let handles: Vec<_> = (0..16)
            .map(|_| {
                engine
                    .execute("getBestSellers", &bestsellers(next()))
                    .expect("submit")
            })
            .collect();
        for handle in handles {
            handle.wait().expect("bestsellers");
        }
    });
    engine.shutdown();

    let baseline = ClassicEngine::start(catalog, EngineProfile::Tuned, 1);
    register_baseline_statements(&baseline);
    let baseline_lookup = timed(lookups, || {
        baseline
            .execute_sync("getItemById", &item(next()))
            .expect("baseline lookup");
    });
    let baseline_bestsellers = timed(9, || {
        baseline
            .execute_sync("getBestSellers", &bestsellers(next()))
            .expect("baseline bestsellers");
    });
    Ok(vec![
        metric(
            "core.engine.lookup_b64_us_per_stmt",
            median_us(&batch_of_64) / 64.0,
            "us",
        ),
        metric("core.engine.update_us", median_us(&update), "us"),
        metric("core.engine.update_p99_us", p99_us(&update), "us"),
        metric("core.engine.bestsellers_ms", median_us(&alone) / 1e3, "ms"),
        metric(
            "core.engine.bestsellers_b16_ms_per_stmt",
            median_us(&batch_of_16) / 1e3 / 16.0,
            "ms",
        ),
        metric("baseline.lookup_us", median_us(&baseline_lookup), "us"),
        metric(
            "baseline.bestsellers_ms",
            median_us(&baseline_bestsellers) / 1e3,
            "ms",
        ),
    ])
}

/// Statements the replays push through the layers at most.
const REPLAY_STATEMENTS: usize = 2_000;

/// Which per-layer metrics a traced run takes. A contract run takes all of
/// them; `ledger trace` takes the workload's own for each workload and the
/// shared ones once, since they would read the same on every workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    All,
    /// The replay of the workload's statement stream and the loaded window.
    Workload,
    /// Look-up replay, engine costs and the microbenches of `layers.rs`:
    /// the same tables, operators and statements whatever the workload.
    Shared,
}

pub fn run_traced(
    workload: Workload,
    seed: u64,
    settings: &Settings,
    part: Part,
) -> Result<RunResult, String> {
    let scratch = scratch_dir();
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let mut result = RunResult::default();
    if part != Part::Shared {
        workload_layers(workload, seed, settings, &scratch, &mut result)?;
    }
    if part != Part::Workload {
        shared_layers(settings, &scratch, &mut result)?;
    }
    Ok(result)
}

/// Where a statement of this workload spends its time with nothing else in
/// flight (the stream replay), and the counts of one loaded round.
fn workload_layers(
    workload: Workload,
    seed: u64,
    settings: &Settings,
    scratch: &Path,
    result: &mut RunResult,
) -> Result<(), String> {
    let scale = settings.scale();
    // One round's time goes to the loaded window, half of that to the
    // replay's cluster pass.
    let replay_budget = settings.window / 2;
    let calls = interleaved_prefix(workload, &scale, seed, REPLAY_STATEMENTS);
    let (mut deployment, _) = Deployment::set_up(workload, &scale, scratch)?;
    let stream = replay(&calls, replay_budget, &scale, &mut deployment);
    deployment.tear_down();
    let stream = stream?;
    let trace_path = scratch.join(format!("trace_{}.json", workload.name()));
    std::fs::write(&trace_path, stream.tracer.to_json().render())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    result.notes.push(format!(
        "replayed {} statements through wire, cluster and engine; spans in {}",
        stream.statements,
        trace_path.display()
    ));
    let wire_us = median_us(&stream.tracer.durations(WIRE));
    let wire_self_us = median(&stream.tracer.self_times_us(WIRE));
    result.metrics.extend([
        metric("replay.statements", stream.statements as f64, "count"),
        metric("replay.server.wire_us", wire_us, "us"),
        metric("replay.server.wire_self_us", wire_self_us, "us"),
        metric(
            "replay.server.wire_self_share",
            wire_self_us / wire_us,
            "fraction",
        ),
        metric(
            "replay.server.protocol.decode_us",
            median_us(&stream.tracer.durations(DECODE)),
            "us",
        ),
        metric(
            "replay.cluster.submit_us",
            median_us(&stream.tracer.durations(CLUSTER)),
            "us",
        ),
        metric(
            "replay.cluster.self_us",
            median(&stream.tracer.self_times_us(CLUSTER)),
            "us",
        ),
        metric(
            "replay.core.engine_us",
            median_us(&stream.tracer.durations(ENGINE)),
            "us",
        ),
        metric(
            "replay.server.protocol.encode_us",
            median_us(&stream.tracer.durations(ENCODE)),
            "us",
        ),
    ]);

    // Counts under load, read after a short window of the real workload — on
    // a deployment of its own, since the replay above has already applied
    // the stream's first inserts to the other one.
    let (mut deployment, _) = Deployment::set_up(workload, &scale, scratch)?;
    let window = run_window(&mut deployment, workload, seed * ROUNDS as u64, settings);
    deployment.tear_down();
    let window = window?;
    let statements = window.engine.queries + window.engine.updates;
    result.metrics.extend([
        metric(
            "core.engine.stmts_per_batch",
            statements as f64 / window.engine.batches.max(1) as f64,
            "count",
        ),
        metric(
            "core.engine.batches_per_s",
            window.engine.batches as f64 / settings.window.as_secs_f64(),
            "1/s",
        ),
        metric(
            "storage.table.versions_per_live_row.item",
            window.item_versions_per_live_row,
            "count",
        ),
        metric(
            "storage.wal.bytes_per_update",
            window.wal_bytes as f64 / window.engine.updates.max(1) as f64,
            "bytes",
        ),
        metric("client.light_p95_ms", window.light.p95_ms, "ms"),
        metric("client.heavy_p95_ms", window.heavy.p95_ms, "ms"),
        metric("client.light_p99_ms", window.light.p99_ms, "ms"),
        metric("client.heavy_p99_ms", window.heavy.p99_ms, "ms"),
        metric("host.speed_factor", window.speed_factor, "ratio"),
        metric(
            "client.stmts_per_s_raw",
            window.light.raw_per_s + window.heavy.raw_per_s,
            "1/s",
        ),
        metric(
            "client.cpu_us_per_stmt_raw",
            window.raw_cpu_us_per_stmt,
            "us",
        ),
    ]);
    result.notes.push(format!(
        "loaded window of {:?}: {} statements in {} batches",
        settings.window, statements, window.engine.batches
    ));
    if stream.errors > 0 {
        result
            .problems
            .push(format!("{} replayed statements failed", stream.errors));
    }
    result.problems.extend(window.failures.iter().cloned());
    result.attempted += window.attempted() + 3 * stream.statements as u64;
    result.failed += window.failed() + stream.errors;
    Ok(())
}

/// What every layer costs one plain point look-up (the same replay over
/// `getItemById` calls), the engine-level costs and the microbenches.
fn shared_layers(
    settings: &Settings,
    scratch: &Path,
    result: &mut RunResult,
) -> Result<(), String> {
    let scale = settings.scale();
    let lookups = if settings.smoke { 300 } else { 1_500 };
    let (mut deployment, _) = Deployment::set_up(Workload::PointLookup, &scale, scratch)?;
    let lookup = replay(
        &lookup_calls(&scale, lookups),
        Duration::from_secs(60),
        &scale,
        &mut deployment,
    )?;
    let rtt = lookup.tracer.durations(WIRE);
    let residual = median(&lookup.tracer.self_times_us(WIRE));
    let submit = lookup.tracer.durations(CLUSTER);
    let engine = lookup.tracer.durations(ENGINE);
    let decode = lookup.tracer.durations(DECODE);
    let encode = lookup.tracer.durations(ENCODE);
    result.metrics.extend([
        metric(
            "server.protocol.decode_exec_ns",
            median(&decode.iter().map(|d| ns(*d)).collect::<Vec<_>>()),
            "ns",
        ),
        metric(
            "server.protocol.encode_row1_ns",
            median(&encode.iter().map(|d| ns(*d)).collect::<Vec<_>>()),
            "ns",
        ),
        metric("server.wire.lookup_rtt_us", median_us(&rtt), "us"),
        metric("server.wire.lookup_rtt_p99_us", p99_us(&rtt), "us"),
        metric("server.wire.residual_us", residual, "us"),
        metric(
            "server.wire.residual_share",
            residual / median_us(&rtt),
            "fraction",
        ),
        metric("cluster.submit_lookup_us", median_us(&submit), "us"),
        metric("cluster.submit_lookup_p99_us", p99_us(&submit), "us"),
        metric(
            "cluster.self_lookup_us",
            median(&lookup.tracer.self_times_us(CLUSTER)),
            "us",
        ),
        metric("core.engine.lookup_us", median_us(&engine), "us"),
        metric("core.engine.lookup_p99_us", p99_us(&engine), "us"),
    ]);

    // Through the client library, for comparison with the bare socket.
    let get_item = deployment.prepared["getItemById"].clone();
    let ping = timed(lookups, || deployment.light.ping().expect("ping"));
    let mut keys = lookup_calls(&scale, lookups).into_iter();
    let execute = timed(lookups, || {
        let call = keys.next().expect("one key per sample");
        deployment
            .light
            .execute(&get_item, &call.params)
            .expect("lookup");
    });
    deployment.tear_down();
    result.metrics.extend([
        metric("server.wire.ping_rtt_us", median_us(&ping), "us"),
        metric("server.wire.ping_rtt_p99_us", p99_us(&ping), "us"),
        metric("client.execute_lookup_us", median_us(&execute), "us"),
        metric("client.execute_lookup_p99_us", p99_us(&execute), "us"),
    ]);

    result.metrics.extend(engine_metrics(&scale, lookups)?);
    result
        .metrics
        .extend(layers::measure(&scale, scratch, settings.smoke)?);
    if lookup.errors > 0 {
        result
            .problems
            .push(format!("{} replayed look-ups failed", lookup.errors));
    }
    result.attempted += 3 * lookup.statements as u64;
    result.failed += lookup.errors;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tracer = Tracer::new();
        let push = |tracer: &mut Tracer, name, request, start_ns, end_ns| {
            tracer.spans.push(Span {
                name,
                request,
                start_ns,
                end_ns,
            })
        };
        // Request 0: 100 µs on the wire, of which 10 + 60 + 5 in the layers.
        push(&mut tracer, WIRE, 0, 0, 100_000);
        push(&mut tracer, DECODE, 0, 200_000, 210_000);
        push(&mut tracer, CLUSTER, 0, 210_000, 270_000);
        push(&mut tracer, ENGINE, 0, 300_000, 355_000);
        push(&mut tracer, ENCODE, 0, 270_000, 275_000);
        // Request 1 has no children recorded at all.
        push(&mut tracer, WIRE, 1, 400_000, 440_000);
        assert_eq!(tracer.self_times_us(WIRE), vec![25.0, 40.0]);
        assert_eq!(tracer.self_times_us(CLUSTER), vec![5.0]);
        assert_eq!(tracer.durations(ENGINE), vec![Duration::from_nanos(55_000)]);
        let rendered = tracer.to_json().render();
        assert_eq!(Json::parse(&rendered).unwrap().as_array().len(), 6);
    }
}
