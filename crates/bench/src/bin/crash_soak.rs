//! Crash-consistency soak: SIGKILL a durable server mid-write, restart it,
//! and verify that no acknowledged write was lost and no partial batch was
//! replayed.
//!
//! The binary re-executes itself as the server child (`--serve`), so one
//! process tree exercises the whole durability path:
//!
//! 1. The parent spawns `crash_soak --serve --data-dir DIR --port-file PF`.
//!    The child builds the SOAK schema, starts a durable
//!    [`shareddb_server::Server`] (`data_dir`, `SyncPolicy::Always`), writes
//!    its bound address to the port file, and parks.
//! 2. The parent first verifies the *recovered* state against its own ledger
//!    of previous cycles: every acknowledged insert must be present with its
//!    deterministic amount (zero acked-write loss), and every recovered row
//!    must come from some attempted insert (a torn tail may drop unacked
//!    writes, but never invent or half-apply one).
//! 3. Writer threads hammer inserts over the wire; after a random delay the
//!    parent delivers SIGKILL — mid-batch, mid-fsync, wherever the child
//!    happens to be. Inserts acknowledged before the kill join the ledger.
//! 4. Repeat. Under `SyncPolicy::Always` the WAL fsyncs before the engine
//!    acks, so the invariant is exact, not probabilistic.
//!
//! `crash_soak` takes no flags and reads no environment: 20 cycles, 4 writer
//! connections, the report in `BENCH_crash_soak.json` (with each cycle's
//! restart time, `recovery_us`, scraped from `shareddb_recovery_us`; the
//! slowest is printed at the end). Exit code 0 = all invariants held in
//! every cycle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use shareddb_client::Connection;
use shareddb_common::sync::Mutex;
use shareddb_common::{tuple, DataType, Value};
use shareddb_server::{Server, ServerConfig};
use shareddb_storage::{Catalog, SyncPolicy, TableDef};
use std::collections::{HashMap, HashSet};
use std::io::Write as _;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic per-row amount so the verifier can recompute what every
/// recovered row must contain.
fn amount_for(id: i64) -> f64 {
    (id % 97) as f64 * 0.5
}

/// Kill / restart cycles.
const CYCLES: usize = 20;
/// Concurrent writer connections.
const WRITERS: usize = 4;
const REPORT: &str = "BENCH_crash_soak.json";

fn workload() -> Vec<(&'static str, &'static str)> {
    vec![
        ("addItem", "INSERT INTO SOAK VALUES (?, ?, ?)"),
        ("getItem", "SELECT * FROM SOAK WHERE S_ID = ?"),
        ("getAll", "SELECT * FROM SOAK WHERE S_ID >= ?"),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--serve") {
        serve(&args);
        return;
    }

    let dir = std::env::temp_dir().join(format!("shareddb-crash-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create soak dir");
    let data_dir = dir.join("data");
    let port_file = dir.join("port");

    let mut ledger = Ledger::default();
    let mut cycle_reports = Vec::new();
    let mut failures = Vec::new();

    for cycle in 0..CYCLES {
        let report = run_cycle(cycle, &data_dir, &port_file, &mut ledger, &mut failures);
        eprintln!(
            "cycle {:>3}: recovered {} rows ({} replayed batches, torn_tail={}, {} us), \
             acked {:+}, attempted {:+}{}",
            cycle,
            report.recovered_rows,
            report.replayed_batches,
            report.torn_tail,
            report.recovery_us,
            report.acked_this_cycle,
            report.attempted_this_cycle,
            if report.ok {
                ""
            } else {
                "  INVARIANT VIOLATED"
            },
        );
        cycle_reports.push(report);
    }

    let pass = failures.is_empty();
    write_report(&ledger, &cycle_reports, pass);
    let slowest = cycle_reports
        .iter()
        .map(|r| r.recovery_us)
        .max()
        .unwrap_or(0);
    eprintln!(
        "crash_soak: {CYCLES} cycles, {} attempted, {} acked, slowest recovery {} us, {}",
        ledger.attempted.len(),
        ledger.acked.len(),
        slowest,
        if pass { "PASS" } else { "FAIL" },
    );
    for f in &failures {
        eprintln!("  {f}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    std::process::exit(i32::from(!pass));
}

/// Inserts the parent has attempted / seen acknowledged, across all cycles.
#[derive(Default)]
struct Ledger {
    attempted: HashSet<i64>,
    acked: HashSet<i64>,
}

struct CycleReport {
    cycle: usize,
    recovered_rows: usize,
    checkpoint_rows: u64,
    replayed_batches: u64,
    torn_tail: bool,
    recovery_us: u64,
    acked_this_cycle: usize,
    attempted_this_cycle: usize,
    ok: bool,
}

fn run_cycle(
    cycle: usize,
    data_dir: &Path,
    port_file: &Path,
    ledger: &mut Ledger,
    failures: &mut Vec<String>,
) -> CycleReport {
    let mut child = spawn_server(data_dir, port_file);
    let addr = wait_for_addr(port_file, &mut child);

    // Scrape what startup recovery did before any new writes land.
    let recovery = scrape_recovery_metrics(addr);

    // Invariant check against the recovered state.
    let mut ok = true;
    match verify_state(addr, ledger) {
        Ok(recovered) => {
            if recovered.missing_acked > 0 {
                ok = false;
                failures.push(format!(
                    "cycle {cycle}: {} acked inserts lost after restart",
                    recovered.missing_acked
                ));
            }
            if recovered.phantom_rows > 0 {
                ok = false;
                failures.push(format!(
                    "cycle {cycle}: {} recovered rows never attempted (partial batch?)",
                    recovered.phantom_rows
                ));
            }
            if recovered.corrupt_rows > 0 {
                ok = false;
                failures.push(format!(
                    "cycle {cycle}: {} recovered rows with wrong amount",
                    recovered.corrupt_rows
                ));
            }

            let (acked, attempted) = write_phase(cycle, addr, ledger, &mut child);
            CycleReport {
                cycle,
                recovered_rows: recovered.rows,
                checkpoint_rows: recovery.checkpoint_rows,
                replayed_batches: recovery.replayed_batches,
                torn_tail: recovery.torn_tail,
                recovery_us: recovery.recovery_us,
                acked_this_cycle: acked,
                attempted_this_cycle: attempted,
                ok,
            }
        }
        Err(e) => {
            failures.push(format!("cycle {cycle}: verification failed: {e}"));
            let _ = child.kill();
            let _ = child.wait();
            CycleReport {
                cycle,
                recovered_rows: 0,
                checkpoint_rows: recovery.checkpoint_rows,
                replayed_batches: recovery.replayed_batches,
                torn_tail: recovery.torn_tail,
                recovery_us: recovery.recovery_us,
                acked_this_cycle: 0,
                attempted_this_cycle: 0,
                ok: false,
            }
        }
    }
}

/// Runs the writer threads against the live child, kills it after a random
/// delay (SIGKILL — no destructors, no flush), and folds this cycle's
/// attempted/acked ids into the ledger.
fn write_phase(
    cycle: usize,
    addr: SocketAddr,
    ledger: &mut Ledger,
    child: &mut Child,
) -> (usize, usize) {
    let attempted = Arc::new(Mutex::new(Vec::<i64>::new()));
    let acked = Arc::new(Mutex::new(Vec::<i64>::new()));
    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ cycle as u64);
    // Kill mid-write: sooner in some cycles (torn small logs), later in
    // others (bigger replay tails).
    let kill_after = Duration::from_millis(rng.gen_range(40..400));

    std::thread::scope(|scope| {
        for writer in 0..WRITERS {
            let attempted = Arc::clone(&attempted);
            let acked = Arc::clone(&acked);
            scope.spawn(move || {
                let Ok(mut conn) = Connection::connect(addr) else {
                    return;
                };
                let Ok(prepared) = conn.prepare("addItem") else {
                    return;
                };
                for seq in 0.. {
                    let id = cycle as i64 * 1_000_000 + writer as i64 * 100_000 + seq;
                    let params = vec![
                        Value::Int(id),
                        Value::text(format!("c{cycle}w{writer}")),
                        Value::Float(amount_for(id)),
                    ];
                    attempted.lock().push(id);
                    match conn.execute(&prepared, &params) {
                        Ok(_) => acked.lock().push(id),
                        // Retryable = rejected before admission; not durable,
                        // keep going. Anything else means the kill landed.
                        Err(e) if e.is_retryable() => {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(_) => return,
                    }
                }
            });
        }

        std::thread::sleep(kill_after);
        // SIGKILL on Unix: the child gets no chance to flush anything.
        let _ = child.kill();
        let _ = child.wait();
        // Writer threads unblock with connection errors and exit the scope.
    });

    let attempted = attempted.lock();
    let acked = acked.lock();
    ledger.attempted.extend(attempted.iter().copied());
    ledger.acked.extend(acked.iter().copied());
    (acked.len(), attempted.len())
}

struct RecoveredState {
    rows: usize,
    missing_acked: usize,
    phantom_rows: usize,
    corrupt_rows: usize,
}

/// Reads the whole SOAK table through the re-warmed global plan and checks
/// it against the parent's ledger.
fn verify_state(addr: SocketAddr, ledger: &Ledger) -> Result<RecoveredState, String> {
    let mut conn = Connection::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let get_all = conn
        .prepare("getAll")
        .map_err(|e| format!("prepare: {e}"))?;
    let outcome = conn
        .execute(&get_all, &[Value::Int(0)])
        .map_err(|e| format!("scan: {e}"))?;
    let mut present = HashSet::new();
    let mut phantom_rows = 0usize;
    let mut corrupt_rows = 0usize;
    for row in outcome.rows() {
        let Value::Int(id) = row[0] else {
            return Err(format!("non-int id in {row:?}"));
        };
        present.insert(id);
        if !ledger.attempted.contains(&id) {
            phantom_rows += 1;
        }
        if row[2] != Value::Float(amount_for(id)) {
            corrupt_rows += 1;
        }
    }
    let missing_acked = ledger
        .acked
        .iter()
        .filter(|id| !present.contains(id))
        .count();
    // Spot-check the point look-up path too (index probe, not the scan).
    if let Some(&id) = ledger.acked.iter().next() {
        let get_item = conn
            .prepare("getItem")
            .map_err(|e| format!("prepare: {e}"))?;
        let point = conn
            .execute(&get_item, &[Value::Int(id)])
            .map_err(|e| format!("probe: {e}"))?;
        if point.rows().len() != 1 {
            return Err(format!(
                "point look-up of acked id {id} returned {} rows",
                point.rows().len()
            ));
        }
    }
    let _ = conn.close();
    Ok(RecoveredState {
        rows: present.len(),
        missing_acked,
        phantom_rows,
        corrupt_rows,
    })
}

/// The child half: build the schema, start a durable server, publish the
/// port, park forever (the parent kills us).
fn serve(args: &[String]) {
    let data_dir = flag_value(args, "--data-dir").expect("--data-dir required");
    let port_file = flag_value(args, "--port-file").expect("--port-file required");
    let catalog = Catalog::new();
    catalog
        .create_table(
            TableDef::new("SOAK")
                .column("S_ID", DataType::Int)
                .column("S_TAG", DataType::Text)
                .column("S_AMOUNT", DataType::Float)
                .primary_key(&["S_ID"]),
        )
        .expect("schema");
    // A seed row proves checkpoints cover unlogged bulk loads across kills.
    if !Path::new(&data_dir)
        .join(shareddb_storage::CHECKPOINT_FILE)
        .exists()
    {
        catalog
            .bulk_load("SOAK", vec![tuple![-1i64, "seed", amount_for(-1)]])
            .expect("seed");
    }
    let server = Server::start_sql(
        Arc::new(catalog),
        &workload(),
        Default::default(),
        ServerConfig {
            data_dir: Some(PathBuf::from(&data_dir)),
            wal_sync: SyncPolicy::Always,
            ..ServerConfig::default()
        },
    )
    .expect("server");
    let tmp = format!("{port_file}.tmp");
    std::fs::write(&tmp, server.local_addr().to_string()).expect("port file");
    std::fs::rename(&tmp, &port_file).expect("port file rename");
    loop {
        std::thread::park();
    }
}

fn spawn_server(data_dir: &Path, port_file: &Path) -> Child {
    let _ = std::fs::remove_file(port_file);
    let exe = std::env::current_exe().expect("current_exe");
    Command::new(exe)
        .arg("--serve")
        .arg("--data-dir")
        .arg(data_dir)
        .arg("--port-file")
        .arg(port_file)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn server child")
}

fn wait_for_addr(port_file: &Path, child: &mut Child) -> SocketAddr {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(text) = std::fs::read_to_string(port_file) {
            if let Ok(addr) = text.trim().parse() {
                return addr;
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            panic!("server child exited during startup: {status}");
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("server child did not publish a port within 30s");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[derive(Default)]
struct RecoveryMetrics {
    checkpoint_rows: u64,
    replayed_batches: u64,
    torn_tail: bool,
    /// Startup recovery plus its compaction, in microseconds.
    recovery_us: u64,
}

/// Pulls the `shareddb_recovery_*` gauges off the child's `/metrics`
/// endpoint — the same exposition an operator would scrape.
fn scrape_recovery_metrics(addr: SocketAddr) -> RecoveryMetrics {
    let Some(body) = scrape(addr) else {
        return RecoveryMetrics::default();
    };
    let mut values = HashMap::new();
    for line in body.lines() {
        if let Some((name, value)) = line.split_once(' ') {
            if name.starts_with("shareddb_recovery_") {
                values.insert(name.to_string(), value.parse::<f64>().unwrap_or(0.0));
            }
        }
    }
    RecoveryMetrics {
        checkpoint_rows: values
            .get("shareddb_recovery_checkpoint_rows")
            .copied()
            .unwrap_or(0.0) as u64,
        replayed_batches: values
            .get("shareddb_recovery_replayed_batches")
            .copied()
            .unwrap_or(0.0) as u64,
        torn_tail: values.get("shareddb_recovery_torn_tail").copied() == Some(1.0),
        recovery_us: values.get("shareddb_recovery_us").copied().unwrap_or(0.0) as u64,
    }
}

fn scrape(addr: SocketAddr) -> Option<String> {
    use std::io::Read as _;
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

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn write_report(ledger: &Ledger, reports: &[CycleReport], pass: bool) {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"crash_soak\",\n");
    out.push_str(&format!("  \"cycles\": {CYCLES},\n"));
    out.push_str(&format!("  \"writers\": {WRITERS},\n"));
    out.push_str("  \"sync_policy\": \"always\",\n");
    out.push_str(&format!("  \"attempted\": {},\n", ledger.attempted.len()));
    out.push_str(&format!("  \"acked\": {},\n", ledger.acked.len()));
    out.push_str(&format!("  \"pass\": {pass},\n"));
    out.push_str("  \"per_cycle\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"cycle\": {}, \"recovered_rows\": {}, \"checkpoint_rows\": {}, \
             \"replayed_batches\": {}, \"torn_tail\": {}, \"recovery_us\": {}, \
             \"acked\": {}, \"attempted\": {}, \"ok\": {}}}{}\n",
            r.cycle,
            r.recovered_rows,
            r.checkpoint_rows,
            r.replayed_batches,
            r.torn_tail,
            r.recovery_us,
            r.acked_this_cycle,
            r.attempted_this_cycle,
            r.ok,
            if i + 1 < reports.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(REPORT, out) {
        eprintln!("failed to write {REPORT}: {e}");
    }
}
