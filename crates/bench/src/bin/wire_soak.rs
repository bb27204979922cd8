//! The wire soak: one heavy/light mix over the wire protocol under
//! concurrent writes, gated by invariants that hold however fast the host
//! is.
//!
//! TPC-W at 500 items behind one engine. 256 connections in closed loops — 4 run `getBestSellers`, 252 `getItemById`
//! — beside 4 writers alternating `addOrderLine` and `adminUpdateItem`, each
//! of which must affect exactly one row; `/metrics` is scraped once a
//! second; the run lasts 5 s, under `EngineConfig::default()`.
//!
//! ```text
//! cargo run --release -p shareddb-bench --bin wire_soak
//! ```
//!
//! takes no flags and reads no environment. It prints a markdown table of
//! the run — look-ups and best-seller pages a second in columns of their
//! own, so that starved best-sellers show — and one of the gates
//! ([`verdict`]), writes the last scrape to `BENCH_metrics_scrape.prom` and
//! exits 1 if a gate fails. What the scrape must show — the engine answered
//! queries and ran the shared join, versions reclaimed, a well-formed
//! exposition — is checked on the file by the CI lane that runs this.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shareddb_client::Connection;
use shareddb_common::Value;
use shareddb_core::{EngineConfig, Phase};
use shareddb_server::{Server, ServerConfig};
use shareddb_tpcw::schema::SUBJECTS;
use shareddb_tpcw::{build_catalog, build_shared_plan, ParamGenerator, TpcwScale};
use std::io::{Read as _, Write as _};
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

const ITEMS: usize = 500;
const BEST_SELLERS: usize = 4;
const LOOKUPS: usize = 252;
const WRITERS: usize = 4;
const POINT: Duration = Duration::from_secs(5);
const SCRAPE_EVERY: Duration = Duration::from_secs(1);

/// The one stall ceiling, on the client-side light p99: ≈ 20× what a 2-vCPU
/// host measures, far below a wake-up lost until a timer rescues it.
const LIGHT_P99_CEILING: Duration = Duration::from_millis(200);

/// What the run measured.
struct Point {
    lookups_per_s: f64,
    best_sellers_per_s: f64,
    light_p50_us: u64,
    light_p99_us: u64,
    /// The engine's own `getItemById` end-to-end p99: no client-thread
    /// scheduling in it.
    server_light_p99_us: u64,
    updates: u64,
    errors: u64,
    /// Statements each connection completed: best-sellers, look-ups, writers.
    completed: Vec<u64>,
}

/// One gate on the run.
struct Check {
    gate: String,
    measured: String,
    bound: String,
    pass: bool,
}

fn main() {
    let (point, scrape) = run_point();
    println!("| look-ups/s | best-sellers/s | light p50 ms | light p99 ms | server light p99 ms | updates | errors |");
    println!("|---:|---:|---:|---:|---:|---:|---:|");
    println!(
        "| {:.0} | {:.1} | {:.2} | {:.2} | {:.2} | {} | {} |",
        point.lookups_per_s,
        point.best_sellers_per_s,
        point.light_p50_us as f64 / 1e3,
        point.light_p99_us as f64 / 1e3,
        point.server_light_p99_us as f64 / 1e3,
        point.updates,
        point.errors,
    );
    let checks = verdict(&point);
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

/// The gates on the run.
fn verdict(p: &Point) -> Vec<Check> {
    // A wedged reactor or engine leaves a connection with nothing.
    let idle = p.completed.iter().filter(|&&n| n == 0).count();
    let ceiling = LIGHT_P99_CEILING.as_micros() as u64;
    vec![
        Check {
            gate: "errors".into(),
            measured: p.errors.to_string(),
            bound: "0".into(),
            pass: p.errors == 0,
        },
        Check {
            gate: "connections that completed nothing".into(),
            measured: format!("{idle} of {}", p.completed.len()),
            bound: "0".into(),
            pass: idle == 0 && !p.completed.is_empty(),
        },
        Check {
            gate: "client light p99".into(),
            measured: format!("{} us", p.light_p99_us),
            bound: format!("<= {ceiling} us"),
            pass: p.light_p99_us <= ceiling,
        },
    ]
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

/// Runs the load against a fresh server; returns what it measured and the
/// last `/metrics` scrape.
fn run_point() -> (Point, String) {
    let scale = TpcwScale::with_items(ITEMS);
    let catalog = std::sync::Arc::new(build_catalog(&scale).expect("catalog"));
    let (plan, registry) = build_shared_plan(&catalog).expect("plan");
    let server_config = ServerConfig {
        max_inflight_per_session: 16,
        ..ServerConfig::default()
    };
    let mut server = Server::start(
        catalog,
        plan,
        registry,
        EngineConfig::default(),
        server_config,
    )
    .expect("server");
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

    let server_light = server
        .engine_stats()
        .and_then(|stats| {
            let light = stats.phases.iter().find(|s| s.statement == "getItemById");
            light.map(|s| s.phase(Phase::Total).clone())
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
        lookups_per_s: count(Role::Lookup) as f64 / elapsed,
        best_sellers_per_s: count(Role::BestSellers) as f64 / elapsed,
        light_p50_us: percentile(0.50),
        light_p99_us: percentile(0.99),
        server_light_p99_us: server_light.percentile_us(0.99),
        updates: count(Role::Writer),
        errors: clients.iter().filter(|c| c.failed).count() as u64,
        completed: clients.iter().map(|c| c.completed).collect(),
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

    /// The run as a 2-vCPU host measured it.
    fn measured() -> Point {
        Point {
            lookups_per_s: 79_622.0,
            best_sellers_per_s: 1_104.7,
            light_p50_us: 3_070,
            light_p99_us: 5_970,
            server_light_p99_us: 2_047,
            updates: 7_636,
            errors: 0,
            completed: vec![40; BEST_SELLERS + LOOKUPS + WRITERS],
        }
    }

    fn failed(checks: &[Check]) -> Vec<&str> {
        checks
            .iter()
            .filter(|c| !c.pass)
            .map(|c| c.gate.as_str())
            .collect()
    }

    #[test]
    fn the_measured_run_passes_every_gate() {
        let checks = verdict(&measured());
        assert_eq!(failed(&checks), Vec::<&str>::new());
        assert_eq!(checks.len(), 3);
    }

    #[test]
    fn each_gate_fails_on_a_run_that_breaks_it_alone() {
        type Break = fn(&mut Point);
        let cases: [(&str, Break); 3] = [
            ("errors", |p| p.errors = 1),
            // The first writer.
            ("connections that completed nothing", |p| {
                p.completed[LOOKUPS + BEST_SELLERS] = 0
            }),
            ("client light p99", |p| {
                p.light_p99_us = LIGHT_P99_CEILING.as_micros() as u64 + 1
            }),
        ];
        for (gate, break_it) in cases {
            let mut point = measured();
            break_it(&mut point);
            assert_eq!(failed(&verdict(&point)), vec![gate]);
        }
    }
}
