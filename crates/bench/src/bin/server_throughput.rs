//! Network-frontend throughput: statements per second as a function of the
//! number of concurrent client connections (1 → 1024) and the number of
//! engine replicas behind the endpoint (`--replicas`).
//!
//! Every connection runs a closed loop over the wire protocol. Most
//! connections issue TPC-W `getItemById` point look-ups (the hot, light
//! statement type); one connection per 64 issues `getBestSellers` (a heavy
//! scan-join-aggregate over ITEM × ORDER_LINE, the latter from TPC-W's own
//! "latest orders" threshold on). On a single engine the heavy
//! statement convoys every batch: light queries admitted in the same
//! heartbeat wait for the heavy operators to finish (batch-granularity
//! head-of-line blocking). With `--replicas N` the cluster router promotes
//! the hot light type from the engines' own throughput/queue statistics and
//! spreads it by parameter hash, while the heavy type stays pinned to its
//! home replica — isolating light traffic from the heavy cycles exactly as
//! the paper's §4.5 replication argument prescribes.
//!
//! Arguments: `--replicas N[,M,...]` (replica counts to sweep, default `1`),
//! `--heartbeat SPEC[;SPEC...]` (heartbeat policies to sweep, e.g.
//! `fixed:2;adaptive:0.2,2,5` — `;`-separated because adaptive specs contain
//! commas; env fallback `BENCH_HEARTBEAT`; default: the engine default),
//! `--json PATH` (machine-readable results, default
//! `BENCH_server_throughput.json`).
//!
//! Environment: `TPCW_ITEMS` (scale, default 2000), `BENCH_SECONDS` (per
//! point, default 2), `SERVER_MAX_CLIENTS` (sweep ceiling, default 1024),
//! `SERVER_MIN_CLIENTS` (sweep floor, default 1), `BENCH_UPDATE_CLIENTS`
//! (extra connections alternating `addOrderLine` inserts with
//! `adminUpdateItem` updates — each of which must change exactly one row, so
//! an index miss on the write path is an error — concurrently, default 0;
//! the cluster-soak lane uses this to run replicated joins under write
//! load), `BENCH_REPLICATE` (comma-separated statement names forced onto the
//! replicated route from the start, e.g. `getBestSellers` to spread a heavy
//! type over every replica by parameter hash),
//! `BENCH_SCRAPE_HZ` (scrape the server's `/metrics` endpoint this many
//! times per second while the bench runs, writing the last exposition to
//! `BENCH_metrics_scrape.prom` — exercises scrape-under-load overhead).
//!
//! Output: CSV on stdout
//! (`replicas,heartbeat,clients,heavy,upd_clients,ok,updates,errors,throughput_per_s,light_p50_us,light_p99_us,mean_latency_us,batches_per_s`)
//! plus the JSON file with per-replica engine statistics per point. The
//! percentiles cover the **light** connections only (the tail the cluster is
//! supposed to protect); `mean_latency_us` covers all statements including
//! the heavy ones.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shareddb_bench::{bench_scale, env_usize};
use shareddb_client::Connection;
use shareddb_cluster::ClusterConfig;
use shareddb_common::Value;
use shareddb_core::stats::StatementPhaseSnapshot;
use shareddb_core::{EngineConfig, HeartbeatPolicy, Phase};
use shareddb_server::{Server, ServerConfig};
use shareddb_tpcw::schema::SUBJECTS;
use shareddb_tpcw::{build_catalog, build_shared_plan, ParamGenerator};
use std::io::{Read as _, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

struct PointResult {
    replicas: usize,
    /// Canonical heartbeat-policy spec this point ran with.
    heartbeat: String,
    clients: usize,
    heavy: usize,
    update_clients: usize,
    ok: u64,
    updates_ok: u64,
    errors: u64,
    throughput_per_s: f64,
    light_p50_us: u64,
    light_p99_us: u64,
    server_light_p99_us: u64,
    mean_latency_us: f64,
    batches_per_s: f64,
    per_replica: Vec<ReplicaPoint>,
    cluster_phases: Vec<PhaseRow>,
}

struct ReplicaPoint {
    batches: u64,
    queries: u64,
    updates: u64,
    failed: u64,
    phases: Vec<PhaseRow>,
}

/// One statement × phase latency summary flattened for the JSON report.
struct PhaseRow {
    statement: String,
    phase: &'static str,
    count: u64,
    p50_us: u64,
    p99_us: u64,
    max_us: u64,
}

fn phase_rows(statements: &[StatementPhaseSnapshot]) -> Vec<PhaseRow> {
    let mut rows = Vec::new();
    for snap in statements {
        for phase in Phase::ALL {
            let histogram = snap.phase(phase);
            if histogram.is_empty() {
                continue;
            }
            rows.push(PhaseRow {
                statement: snap.statement.clone(),
                phase: phase.name(),
                count: histogram.count,
                p50_us: histogram.percentile_us(0.50),
                p99_us: histogram.percentile_us(0.99),
                max_us: histogram.max_us,
            });
        }
    }
    rows
}

fn main() {
    let (replica_counts, heartbeats, json_path) = parse_args();
    let scale = bench_scale();
    let seconds = std::env::var("BENCH_SECONDS")
        .ok()
        .and_then(|v| v.parse().ok());
    let duration = Duration::from_secs_f64(seconds.unwrap_or(2.0));
    let max_clients = env_usize("SERVER_MAX_CLIENTS", 1024);
    let min_clients = env_usize("SERVER_MIN_CLIENTS", 1);
    let update_clients = env_usize("BENCH_UPDATE_CLIENTS", 0);
    let replicate: Vec<String> = std::env::var("BENCH_REPLICATE")
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect()
        })
        .unwrap_or_default();
    let items = scale.items as i64;

    let header = [
        "replicas",
        "heartbeat",
        "clients",
        "heavy",
        "upd_clients",
        "ok",
        "updates",
        "errors",
        "throughput_per_s",
        "light_p50_us",
        "light_p99_us",
        "mean_latency_us",
        "batches_per_s",
    ];
    println!("{}", header.join(","));

    let mut points: Vec<PointResult> = Vec::new();
    for heartbeat in &heartbeats {
        for &replicas in &replica_counts {
            let mut clients = min_clients.max(1);
            while clients <= max_clients {
                let point = run_point(
                    replicas,
                    heartbeat,
                    clients,
                    update_clients,
                    &replicate,
                    items,
                    duration,
                    &scale,
                );
                // The heartbeat spec is CSV-quoted: adaptive specs contain
                // commas.
                println!(
                    "{},\"{}\",{},{},{},{},{},{},{:.1},{},{},{:.1},{:.1}",
                    point.replicas,
                    point.heartbeat,
                    point.clients,
                    point.heavy,
                    point.update_clients,
                    point.ok,
                    point.updates_ok,
                    point.errors,
                    point.throughput_per_s,
                    point.light_p50_us,
                    point.light_p99_us,
                    point.mean_latency_us,
                    point.batches_per_s,
                );
                points.push(point);
                clients *= 2;
            }
        }
    }

    if let Err(e) = write_json(&json_path, &scale.items, duration.as_secs_f64(), &points) {
        eprintln!("failed to write {json_path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {json_path} ({} points)", points.len());
}

#[allow(clippy::too_many_arguments)]
fn run_point(
    replicas: usize,
    heartbeat: &HeartbeatPolicy,
    clients: usize,
    update_clients: usize,
    replicate: &[String],
    items: i64,
    duration: std::time::Duration,
    scale: &shareddb_tpcw::TpcwScale,
) -> PointResult {
    let catalog = Arc::new(build_catalog(scale).expect("catalog"));
    let (plan, registry) = build_shared_plan(&catalog).expect("plan");
    let mut server = Server::start(
        catalog,
        plan,
        registry,
        EngineConfig::default().heartbeat_policy(*heartbeat),
        ServerConfig {
            max_inflight_per_session: 16,
            cluster: ClusterConfig {
                replicas,
                replicate_statements: replicate.to_vec(),
                ..ClusterConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let addr = server.local_addr();

    // One heavy (getBestSellers) connection per 64 clients; the rest run the
    // hot point look-up.
    let heavy = clients / 64;
    let scrape_hz = env_usize("BENCH_SCRAPE_HZ", 0);
    let ok = Arc::new(AtomicU64::new(0));
    let updates_ok = Arc::new(AtomicU64::new(0));
    let errors = Arc::new(AtomicU64::new(0));
    let latency_ns = Arc::new(AtomicU64::new(0));
    let latencies_us = Arc::new(Mutex::new(Vec::<u64>::new()));
    let last_scrape = Arc::new(Mutex::new(String::new()));
    // Two barriers gate the measurement window: every connection finishes
    // connect + prepare before `ready`, the main thread zeroes all engine /
    // cluster / frontend statistics, and `go` releases the load — so the
    // server-side histograms in this point's JSON cover exactly this window.
    let parties = clients + update_clients + usize::from(scrape_hz > 0) + 1;
    let ready = Arc::new(Barrier::new(parties));
    let go = Arc::new(Barrier::new(parties));
    let orders = scale.orders as i64;
    let latest_orders = ParamGenerator::new(scale).bestseller_threshold();
    let started = std::thread::scope(|scope| {
        // Concurrent writers: each keeps appending ORDER_LINE rows (the
        // probe side of the getBestSellers join) and, every other statement,
        // updating one ITEM row through its primary key (the build side, and
        // the table getItemById probes), so the joins and aggregates run
        // against a continuously moving version set.
        for writer_idx in 0..update_clients {
            let updates_ok = Arc::clone(&updates_ok);
            let errors = Arc::clone(&errors);
            let ready = Arc::clone(&ready);
            let go = Arc::clone(&go);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(9_000 + writer_idx as u64);
                let setup = Connection::connect(addr).and_then(|mut conn| {
                    let add_line = conn.prepare("addOrderLine")?;
                    let update_item = conn.prepare("adminUpdateItem")?;
                    Ok((conn, add_line, update_item))
                });
                ready.wait();
                go.wait();
                let (mut conn, add_line, update_item) = match setup {
                    Ok(prepared) => prepared,
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                let started = Instant::now();
                let mut seq: i64 = 0;
                while started.elapsed() < duration {
                    seq += 1;
                    let (prepared, params) = if seq % 2 == 0 {
                        let params = vec![
                            Value::Int(rng.gen_range(0..items.max(1))),
                            Value::Float(rng.gen_range(1.0..100.0)),
                            Value::Date(15_403),
                        ];
                        (&update_item, params)
                    } else {
                        // Unique OL_ID far above the generated data.
                        let params = vec![
                            Value::Int(50_000_000 + writer_idx as i64 * 1_000_000 + seq),
                            Value::Int(rng.gen_range(0..orders.max(1))),
                            Value::Int(rng.gen_range(0..items.max(1))),
                            Value::Int(rng.gen_range(1..5)),
                        ];
                        (&add_line, params)
                    };
                    match conn.execute(prepared, &params) {
                        // Either statement touches exactly one row.
                        Ok(outcome) if outcome.rows_affected() == 1 => {
                            updates_ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                        Err(e) if e.is_retryable() => {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
                let _ = conn.close();
            });
        }
        for client_idx in 0..clients {
            let ok = Arc::clone(&ok);
            let errors = Arc::clone(&errors);
            let latency_ns = Arc::clone(&latency_ns);
            let latencies_us = Arc::clone(&latencies_us);
            let ready = Arc::clone(&ready);
            let go = Arc::clone(&go);
            let is_heavy = client_idx < heavy;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + client_idx as u64);
                let statement = if is_heavy {
                    "getBestSellers"
                } else {
                    "getItemById"
                };
                let setup = Connection::connect(addr).and_then(|mut conn| {
                    let prepared = conn.prepare(statement)?;
                    Ok((conn, prepared))
                });
                ready.wait();
                go.wait();
                let (mut conn, prepared) = match setup {
                    Ok(pair) => pair,
                    Err(_) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                        return;
                    }
                };
                let started = Instant::now();
                let mut local_latencies = Vec::new();
                while started.elapsed() < duration {
                    let params = if is_heavy {
                        vec![
                            Value::text(SUBJECTS[rng.gen_range(0..SUBJECTS.len())]),
                            Value::Int(latest_orders),
                        ]
                    } else {
                        vec![Value::Int(rng.gen_range(0..items.max(1)))]
                    };
                    let begun = Instant::now();
                    match conn.execute(&prepared, &params) {
                        Ok(_) => {
                            ok.fetch_add(1, Ordering::Relaxed);
                            let elapsed = begun.elapsed();
                            latency_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
                            if !is_heavy {
                                local_latencies.push(elapsed.as_micros() as u64);
                            }
                        }
                        Err(e) if e.is_retryable() => {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        Err(_) => {
                            errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                }
                latencies_us
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .append(&mut local_latencies);
                let _ = conn.close();
            });
        }
        if scrape_hz > 0 {
            // In-process Prometheus scraper: plain HTTP GETs against the
            // same port the binary protocol uses, at BENCH_SCRAPE_HZ, while
            // the load runs — the overhead shows up in the point's numbers.
            let last_scrape = Arc::clone(&last_scrape);
            let ready = Arc::clone(&ready);
            let go = Arc::clone(&go);
            scope.spawn(move || {
                let interval = std::time::Duration::from_secs_f64(1.0 / scrape_hz as f64);
                ready.wait();
                go.wait();
                let started = Instant::now();
                while started.elapsed() < duration {
                    if let Some(body) = scrape_metrics(addr) {
                        *last_scrape.lock().unwrap_or_else(|e| e.into_inner()) = body;
                    }
                    std::thread::sleep(interval.min(duration.saturating_sub(started.elapsed())));
                }
            });
        }
        ready.wait();
        server.reset_stats();
        go.wait();
        Instant::now()
    });
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let batches = server.engine_stats().map(|s| s.batches).unwrap_or(0);
    // Server-side tail of the light statement: merge the Total-phase
    // histograms for getItemById across replicas and read the p99 — this is
    // the latency floor check_regression guards (client-side p99 includes
    // scheduling noise from hundreds of bench threads; this does not).
    let mut light_total = shareddb_common::metrics::HistogramSnapshot::default();
    let point = |e: &shareddb_core::Engine| {
        let stats = e.stats();
        let phases = e.phase_snapshot();
        if let Some(snap) = phases.iter().find(|s| s.statement == "getItemById") {
            light_total.merge_from(snap.phase(Phase::Total));
        }
        ReplicaPoint {
            batches: stats.batches,
            queries: stats.queries,
            updates: stats.updates,
            failed: stats.failed,
            phases: phase_rows(&phases),
        }
    };
    let per_replica: Vec<ReplicaPoint> = server
        .with_cluster(|c| c.engines().iter().map(point).collect())
        .unwrap_or_default();
    // Reply-flush happens outside any single replica: the JSON's
    // `cluster_phases` section.
    let cluster_phases = phase_rows(&server.flush_phase_stats());
    if scrape_hz > 0 {
        let body = last_scrape
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if !body.is_empty() {
            if let Err(e) = std::fs::write("BENCH_metrics_scrape.prom", body) {
                eprintln!("failed to write BENCH_metrics_scrape.prom: {e}");
            }
        }
    }
    let ok_count = ok.load(Ordering::Relaxed);
    let mean_latency_us = if ok_count == 0 {
        0.0
    } else {
        latency_ns.load(Ordering::Relaxed) as f64 / ok_count as f64 / 1_000.0
    };
    let mut sorted = std::mem::take(&mut *latencies_us.lock().unwrap_or_else(|e| e.into_inner()));
    sorted.sort_unstable();
    let percentile = |p: f64| -> u64 {
        if sorted.is_empty() {
            0
        } else {
            let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
            sorted[idx]
        }
    };
    let point = PointResult {
        replicas,
        heartbeat: heartbeat.to_string(),
        clients,
        heavy,
        update_clients,
        ok: ok_count,
        updates_ok: updates_ok.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        throughput_per_s: ok_count as f64 / elapsed,
        light_p50_us: percentile(0.50),
        light_p99_us: percentile(0.99),
        server_light_p99_us: light_total.percentile_us(0.99),
        mean_latency_us,
        batches_per_s: batches as f64 / elapsed,
        per_replica,
        cluster_phases,
    };
    server.shutdown();
    point
}

/// One blocking `/metrics` scrape over a throwaway TCP connection (the
/// server answers with `Connection: close`); returns the response body.
fn scrape_metrics(addr: std::net::SocketAddr) -> Option<String> {
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .ok()?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")
        .ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let (head, body) = response.split_once("\r\n\r\n")?;
    head.starts_with("HTTP/1.1 200").then(|| body.to_string())
}

fn parse_args() -> (Vec<usize>, Vec<HeartbeatPolicy>, String) {
    let parse_counts = |list: &str, what: &str| -> Vec<usize> {
        list.split(',')
            .map(|n| {
                n.trim()
                    .parse::<usize>()
                    .unwrap_or_else(|_| usage(&format!("bad {what} value")))
                    .max(1)
            })
            .collect()
    };
    // Heartbeat specs are `;`-separated: adaptive specs contain commas.
    let parse_heartbeats = |list: &str, what: &str| -> Vec<HeartbeatPolicy> {
        list.split(';')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| {
                HeartbeatPolicy::parse(s).unwrap_or_else(|e| usage(&format!("bad {what}: {e}")))
            })
            .collect()
    };
    let mut replicas = vec![1usize];
    // The CLI flag wins over the env fallback (CI lanes set the env).
    let mut heartbeats = std::env::var("BENCH_HEARTBEAT")
        .map(|v| parse_heartbeats(&v, "BENCH_HEARTBEAT"))
        .unwrap_or_default();
    let mut json_path =
        std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_server_throughput.json".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--replicas" => {
                let list = args.next().unwrap_or_else(|| usage("--replicas needs N"));
                replicas = parse_counts(&list, "--replicas");
            }
            "--heartbeat" => {
                let list = args
                    .next()
                    .unwrap_or_else(|| usage("--heartbeat needs SPEC"));
                heartbeats = parse_heartbeats(&list, "--heartbeat");
            }
            "--json" => {
                json_path = args.next().unwrap_or_else(|| usage("--json needs PATH"));
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if heartbeats.is_empty() {
        heartbeats = vec![EngineConfig::default().heartbeat];
    }
    (replicas, heartbeats, json_path)
}

fn usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: server_throughput [--replicas N[,M,...]] [--heartbeat SPEC[;SPEC,...]] \
         [--json PATH]"
    );
    std::process::exit(2);
}

fn write_json(
    path: &str,
    items: &usize,
    seconds: f64,
    points: &[PointResult],
) -> std::io::Result<()> {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"server_throughput\",\n");
    out.push_str(&format!("  \"tpcw_items\": {items},\n"));
    out.push_str(&format!("  \"seconds_per_point\": {seconds},\n"));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"replicas\": {}, \"heartbeat\": \"{}\", \"clients\": {}, \
             \"heavy_clients\": {}, \
             \"update_clients\": {}, \"ok\": {}, \"updates_ok\": {}, \
             \"errors\": {}, \"throughput_per_s\": {:.1}, \"light_p50_us\": {}, \
             \"light_p99_us\": {}, \"server_light_p99_us\": {}, \
             \"mean_latency_us\": {:.1}, \"batches_per_s\": {:.1}, \
             \"per_replica\": [",
            p.replicas,
            p.heartbeat,
            p.clients,
            p.heavy,
            p.update_clients,
            p.ok,
            p.updates_ok,
            p.errors,
            p.throughput_per_s,
            p.light_p50_us,
            p.light_p99_us,
            p.server_light_p99_us,
            p.mean_latency_us,
            p.batches_per_s,
        ));
        for (j, r) in p.per_replica.iter().enumerate() {
            out.push_str(&format!(
                "{{\"replica\": {j}, \"batches\": {}, \"queries\": {}, \"updates\": {}, \
                 \"failed\": {}, \"phases\": ",
                r.batches, r.queries, r.updates, r.failed
            ));
            write_phase_rows(&mut out, &r.phases);
            out.push('}');
            if j + 1 < p.per_replica.len() {
                out.push_str(", ");
            }
        }
        out.push_str("], \"cluster_phases\": ");
        write_phase_rows(&mut out, &p.cluster_phases);
        out.push('}');
        if i + 1 < points.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    let mut file = std::fs::File::create(path)?;
    file.write_all(out.as_bytes())
}

fn write_phase_rows(out: &mut String, rows: &[PhaseRow]) {
    out.push('[');
    for (k, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "{{\"statement\": \"{}\", \"phase\": \"{}\", \"count\": {}, \
             \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
            row.statement, row.phase, row.count, row.p50_us, row.p99_us, row.max_us
        ));
        if k + 1 < rows.len() {
            out.push_str(", ");
        }
    }
    out.push(']');
}
