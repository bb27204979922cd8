//! The wire soak: one heavy/light mix over the wire protocol under
//! concurrent writes, run under both heartbeat policies and gated by
//! invariants that hold however fast the host is.
//!
//! TPC-W at 500 items behind 4 replicas, `getBestSellers` on the replicated
//! route (spread over the replicas by parameter hash, so every replica runs
//! the shared join). 256 connections in closed loops — 4 run
//! `getBestSellers`, 252 `getItemById` — beside 4 writers alternating
//! `addOrderLine` and `adminUpdateItem`, each of which must affect exactly
//! one row; `/metrics` is scraped once a second; a point lasts 5 s. The
//! first point runs `EngineConfig::default()` (a fixed 2 ms heartbeat), the
//! second the adaptive controller.
//!
//! ```text
//! cargo run --release -p shareddb-bench --bin wire_soak
//! ```
//!
//! takes no flags and reads no environment. It prints a markdown table of
//! both points and one of the gates ([`verdict`]), writes the adaptive
//! point's last scrape to `BENCH_metrics_scrape.prom` and exits 1 if a gate
//! fails. What the scrape must show — every replica answered and ran the
//! shared join, versions reclaimed, a well-formed exposition — is checked on
//! the file by the CI lane that runs this.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shareddb_client::Connection;
use shareddb_cluster::ClusterConfig;
use shareddb_common::metrics::HistogramSnapshot;
use shareddb_common::Value;
use shareddb_core::{EngineConfig, HeartbeatPolicy, Phase};
use shareddb_server::{Server, ServerConfig};
use shareddb_tpcw::schema::SUBJECTS;
use shareddb_tpcw::{build_catalog, build_shared_plan, ParamGenerator, TpcwScale};
use std::io::{Read as _, Write as _};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const ITEMS: usize = 500;
const REPLICAS: usize = 4;
const BEST_SELLERS: usize = 4;
const LOOKUPS: usize = 252;
const WRITERS: usize = 4;
const POINT: Duration = Duration::from_secs(5);
const SCRAPE_EVERY: Duration = Duration::from_secs(1);

/// The one stall ceiling, on the client-side light p99 of each point: ≈ 30×
/// what a 2-vCPU host measures, far below a wake-up lost until a timer
/// rescues it.
const LIGHT_P99_CEILING: Duration = Duration::from_millis(200);
/// The adaptive heartbeat must cut the server-side light p99 by this share
/// of the fixed heartbeat's...
const MIN_P99_CUT: f64 = 0.15;
/// ...and give up no more than this share of its statements a second.
const MAX_THROUGHPUT_LOSS: f64 = 0.03;

fn adaptive() -> HeartbeatPolicy {
    HeartbeatPolicy::Adaptive {
        min: Duration::from_micros(200),
        max: Duration::from_millis(100),
        target_light_p99: Duration::from_millis(10),
    }
}

/// What one point measured.
struct Point {
    heartbeat: &'static str,
    /// Look-ups and best-seller pages a second (the writers' statements are
    /// `updates`).
    stmts_per_s: f64,
    light_p50_us: u64,
    light_p99_us: u64,
    /// The replicas' own `getItemById` end-to-end p99: no client-thread
    /// scheduling in it.
    server_light_p99_us: u64,
    updates: u64,
    errors: u64,
    /// Statements each connection completed: best-sellers, look-ups, writers.
    completed: Vec<u64>,
    replica_queries: Vec<u64>,
}

/// One gate on one point (or on the pair).
struct Check {
    gate: String,
    measured: String,
    bound: String,
    pass: bool,
}

fn main() {
    let mut points = Vec::new();
    let mut scrape = String::new();
    for (heartbeat, policy) in [
        ("fixed 2 ms", EngineConfig::default().heartbeat),
        ("adaptive 0.2–100 ms, 10 ms", adaptive()),
    ] {
        let (point, last_scrape) = run_point(heartbeat, policy);
        points.push(point);
        scrape = last_scrape;
    }
    println!("| heartbeat | stmts/s | light p50 ms | light p99 ms | server light p99 ms | updates | errors | queries per replica |");
    println!("|---|---:|---:|---:|---:|---:|---:|---|");
    for p in &points {
        let replicas: Vec<String> = p.replica_queries.iter().map(u64::to_string).collect();
        println!(
            "| {} | {:.0} | {:.2} | {:.2} | {:.2} | {} | {} | {} |",
            p.heartbeat,
            p.stmts_per_s,
            p.light_p50_us as f64 / 1e3,
            p.light_p99_us as f64 / 1e3,
            p.server_light_p99_us as f64 / 1e3,
            p.updates,
            p.errors,
            replicas.join(" / "),
        );
    }
    let checks = verdict(&points);
    println!("\n| gate | measured | bound | |\n|---|---|---|---|");
    for c in &checks {
        let status = if c.pass { "pass" } else { "FAIL" };
        println!("| {} | {} | {} | {status} |", c.gate, c.measured, c.bound);
    }
    if scrape.is_empty() {
        eprintln!("no /metrics scrape succeeded");
        std::process::exit(1);
    }
    if let Err(e) = std::fs::write("BENCH_metrics_scrape.prom", scrape) {
        eprintln!("cannot write BENCH_metrics_scrape.prom: {e}");
        std::process::exit(1);
    }
    if checks.iter().any(|c| !c.pass) {
        std::process::exit(1);
    }
}

/// The gates on the fixed point and the adaptive point, in that order.
fn verdict(points: &[Point]) -> Vec<Check> {
    let mut checks = Vec::new();
    for p in points {
        checks.push(Check {
            gate: format!("{}: errors", p.heartbeat),
            measured: p.errors.to_string(),
            bound: "0".into(),
            pass: p.errors == 0,
        });
        // A wedged reactor, replica or lane leaves a connection with nothing.
        let idle = p.completed.iter().filter(|&&n| n == 0).count();
        checks.push(Check {
            gate: format!("{}: connections that completed nothing", p.heartbeat),
            measured: format!("{idle} of {}", p.completed.len()),
            bound: "0".into(),
            pass: idle == 0 && !p.completed.is_empty(),
        });
        let ceiling = LIGHT_P99_CEILING.as_micros() as u64;
        checks.push(Check {
            gate: format!("{}: client light p99", p.heartbeat),
            measured: format!("{} us", p.light_p99_us),
            bound: format!("<= {ceiling} us"),
            pass: p.light_p99_us <= ceiling,
        });
    }
    if let [fixed, adaptive] = points {
        let cut = 1.0 - adaptive.server_light_p99_us as f64 / fixed.server_light_p99_us as f64;
        checks.push(Check {
            gate: "adaptive vs fixed: server light p99 cut".into(),
            measured: format!(
                "{:+.1} % ({} -> {} us)",
                -cut * 100.0,
                fixed.server_light_p99_us,
                adaptive.server_light_p99_us
            ),
            bound: format!("<= -{:.0} %", MIN_P99_CUT * 100.0),
            pass: cut >= MIN_P99_CUT,
        });
        let change = adaptive.stmts_per_s / fixed.stmts_per_s - 1.0;
        checks.push(Check {
            gate: "adaptive vs fixed: stmts/s".into(),
            measured: format!(
                "{:+.1} % ({:.0} -> {:.0})",
                change * 100.0,
                fixed.stmts_per_s,
                adaptive.stmts_per_s
            ),
            bound: format!(">= -{:.0} %", MAX_THROUGHPUT_LOSS * 100.0),
            pass: change >= -MAX_THROUGHPUT_LOSS,
        });
    } else {
        checks.push(Check {
            gate: "adaptive vs fixed".into(),
            measured: format!("{} points", points.len()),
            bound: "2 points".into(),
            pass: false,
        });
    }
    checks
}

#[derive(Clone, Copy, PartialEq)]
enum Role {
    BestSellers,
    Lookup,
    Writer,
}

/// What one closed-loop connection did.
#[derive(Default)]
struct Client {
    completed: u64,
    failed: bool,
    /// Each look-up's latency.
    light_us: Vec<u64>,
}

/// Runs the load against a fresh server under `policy`; returns the point
/// and the last `/metrics` scrape.
fn run_point(heartbeat: &'static str, policy: HeartbeatPolicy) -> (Point, String) {
    let scale = TpcwScale::with_items(ITEMS);
    let catalog = std::sync::Arc::new(build_catalog(&scale).expect("catalog"));
    let (plan, registry) = build_shared_plan(&catalog).expect("plan");
    let server_config = ServerConfig {
        max_inflight_per_session: 16,
        cluster: ClusterConfig {
            replicas: REPLICAS,
            replicate_statements: vec!["getBestSellers".into()],
            ..ClusterConfig::default()
        },
        ..ServerConfig::default()
    };
    let engine_config = EngineConfig::default().heartbeat_policy(policy);
    let mut server =
        Server::start(catalog, plan, registry, engine_config, server_config).expect("server");
    let load = Load {
        addr: server.local_addr(),
        orders: scale.orders as i64,
        latest_orders: ParamGenerator::new(&scale).bestseller_threshold(),
    };
    let roles: Vec<Role> = [
        (Role::BestSellers, BEST_SELLERS),
        (Role::Lookup, LOOKUPS),
        (Role::Writer, WRITERS),
    ]
    .into_iter()
    .flat_map(|(role, n)| std::iter::repeat_n(role, n))
    .collect();
    // Every connection connects and prepares before `ready`; the statistics
    // are zeroed before `go` releases the load, so the server-side numbers
    // cover the measured window alone.
    let ready = Barrier::new(roles.len() + 2);
    let go = Barrier::new(roles.len() + 2);
    let (clients, scrape, elapsed) = std::thread::scope(|scope| {
        let (load, ready, go) = (&load, &ready, &go);
        let clients: Vec<_> = roles
            .iter()
            .enumerate()
            .map(|(index, &role)| scope.spawn(move || load.client(role, index, ready, go)))
            .collect();
        let scraper = scope.spawn(move || {
            ready.wait();
            go.wait();
            let started = Instant::now();
            let mut last = String::new();
            while started.elapsed() < POINT {
                if let Some(body) = scrape_metrics(load.addr) {
                    last = body;
                }
                std::thread::sleep(SCRAPE_EVERY.min(POINT.saturating_sub(started.elapsed())));
            }
            last
        });
        ready.wait();
        server.reset_stats();
        go.wait();
        let started = Instant::now();
        let clients: Vec<Client> = clients
            .into_iter()
            .map(|c| c.join().expect("client"))
            .collect();
        let elapsed = started.elapsed().as_secs_f64();
        (clients, scraper.join().expect("scraper"), elapsed)
    });

    let mut server_light = HistogramSnapshot::default();
    let replica_queries = server
        .with_cluster(|cluster| {
            let engines = cluster.engines();
            for engine in engines {
                let phases = engine.phase_snapshot();
                if let Some(s) = phases.iter().find(|s| s.statement == "getItemById") {
                    server_light.merge_from(s.phase(Phase::Total));
                }
            }
            engines.iter().map(|e| e.stats().queries).collect()
        })
        .unwrap_or_default();
    server.shutdown();

    let mut light_us: Vec<u64> = clients
        .iter()
        .flat_map(|c| c.light_us.iter().copied())
        .collect();
    light_us.sort_unstable();
    let percentile = |p: f64| {
        let last = light_us.len().saturating_sub(1);
        light_us
            .get((last as f64 * p).round() as usize)
            .copied()
            .unwrap_or(0)
    };
    let count = |role: Role| -> u64 {
        let of_role = clients.iter().zip(&roles).filter(|(_, &r)| r == role);
        of_role.map(|(c, _)| c.completed).sum()
    };
    let point = Point {
        heartbeat,
        stmts_per_s: (count(Role::Lookup) + count(Role::BestSellers)) as f64 / elapsed,
        light_p50_us: percentile(0.50),
        light_p99_us: percentile(0.99),
        server_light_p99_us: server_light.percentile_us(0.99),
        updates: count(Role::Writer),
        errors: clients.iter().filter(|c| c.failed).count() as u64,
        completed: clients.iter().map(|c| c.completed).collect(),
        replica_queries,
    };
    (point, scrape)
}

struct Load {
    addr: SocketAddr,
    orders: i64,
    latest_orders: i64,
}

impl Load {
    /// One connection's closed loop for `POINT`. A writer alternates its two
    /// statements; a retryable rejection is retried after 200 µs, any other
    /// error (or a write that does not affect exactly one row) ends the loop.
    fn client(&self, role: Role, index: usize, ready: &Barrier, go: &Barrier) -> Client {
        let names: &[&str] = match role {
            Role::BestSellers => &["getBestSellers"],
            Role::Lookup => &["getItemById"],
            Role::Writer => &["addOrderLine", "adminUpdateItem"],
        };
        let setup = Connection::connect(self.addr).and_then(|mut conn| {
            let prepared = names
                .iter()
                .map(|name| conn.prepare(name))
                .collect::<shareddb_common::Result<Vec<_>>>()?;
            Ok((conn, prepared))
        });
        ready.wait();
        go.wait();
        let mut client = Client::default();
        let Ok((mut conn, prepared)) = setup else {
            client.failed = true;
            return client;
        };
        let mut rng = StdRng::seed_from_u64(1_000 + index as u64);
        let items = ITEMS as i64;
        let started = Instant::now();
        let mut seq = 0i64;
        while started.elapsed() < POINT {
            let statement = &prepared[seq as usize % prepared.len()];
            let params = match (role, seq % 2) {
                (Role::BestSellers, _) => vec![
                    Value::text(SUBJECTS[rng.gen_range(0..SUBJECTS.len())]),
                    Value::Int(self.latest_orders),
                ],
                (Role::Lookup, _) => vec![Value::Int(rng.gen_range(0..items))],
                // A fresh ORDER_LINE id far above the generated ones.
                (Role::Writer, 0) => vec![
                    Value::Int(50_000_000 + index as i64 * 1_000_000 + seq),
                    Value::Int(rng.gen_range(0..self.orders)),
                    Value::Int(rng.gen_range(0..items)),
                    Value::Int(rng.gen_range(1..5)),
                ],
                (Role::Writer, _) => vec![
                    Value::Int(rng.gen_range(0..items)),
                    Value::Float(rng.gen_range(1.0..100.0)),
                    Value::Date(15_403),
                ],
            };
            seq += 1;
            let begun = Instant::now();
            match conn.execute(statement, &params) {
                Ok(outcome) if role == Role::Writer && outcome.rows_affected() != 1 => {
                    client.failed = true;
                    break;
                }
                Ok(_) => {
                    client.completed += 1;
                    if role == Role::Lookup {
                        client.light_us.push(begun.elapsed().as_micros() as u64);
                    }
                }
                Err(e) if e.is_retryable() => std::thread::sleep(Duration::from_micros(200)),
                Err(_) => {
                    client.failed = true;
                    break;
                }
            }
        }
        let _ = conn.close();
        client
    }
}

/// One blocking `/metrics` scrape over a throwaway TCP connection (the
/// server answers with `Connection: close`); returns the response body.
fn scrape_metrics(addr: SocketAddr) -> Option<String> {
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(5))).ok()?;
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: soak\r\n\r\n")
        .ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    let (head, body) = response.split_once("\r\n\r\n")?;
    head.starts_with("HTTP/1.1 200").then(|| body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pair as a 2-vCPU host measured it.
    fn measured() -> [Point; 2] {
        let point = |heartbeat, stmts_per_s, server_light_p99_us| Point {
            heartbeat,
            stmts_per_s,
            light_p50_us: 1_800,
            light_p99_us: 6_400,
            server_light_p99_us,
            updates: 12_402,
            errors: 0,
            completed: vec![40; BEST_SELLERS + LOOKUPS + WRITERS],
            replica_queries: vec![90_000; REPLICAS],
        };
        [
            point("fixed", 76_707.0, 4_095),
            point("adaptive", 90_201.0, 1_023),
        ]
    }

    fn failed(checks: &[Check]) -> Vec<&str> {
        checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.gate.as_str())
            .collect()
    }

    #[test]
    fn the_measured_pair_passes_every_gate() {
        let checks = verdict(&measured());
        assert_eq!(failed(&checks), Vec::<&str>::new());
        assert_eq!(checks.len(), 8);
    }

    #[test]
    fn each_gate_fails_on_a_point_that_breaks_it_alone() {
        type Break = fn(&mut [Point; 2]);
        let cases: [(&str, Break); 5] = [
            ("adaptive: errors", |p| p[1].errors = 1),
            // The first writer.
            ("fixed: connections that completed nothing", |p| {
                p[0].completed[LOOKUPS + BEST_SELLERS] = 0
            }),
            ("adaptive: client light p99", |p| {
                p[1].light_p99_us = LIGHT_P99_CEILING.as_micros() as u64 + 1
            }),
            // A 14 % cut: 4 095 -> 3 522 us.
            ("adaptive vs fixed: server light p99 cut", |p| {
                p[1].server_light_p99_us = 3_522
            }),
            // A 4 % loss.
            ("adaptive vs fixed: stmts/s", |p| {
                p[1].stmts_per_s = p[0].stmts_per_s * 0.96
            }),
        ];
        for (gate, break_it) in cases {
            let mut points = measured();
            break_it(&mut points);
            assert_eq!(failed(&verdict(&points)), vec![gate]);
        }
    }

    #[test]
    fn a_missing_point_fails_the_pair() {
        let [fixed, _] = measured();
        assert_eq!(failed(&verdict(&[fixed])), vec!["adaptive vs fixed"]);
    }
}
