//! The north-star sentence as a test: one always-on plan does a bounded
//! amount of work per heartbeat however many clients are connected.
//!
//! One TPC-W engine in process, the read-only half of the ledger's
//! `heavy_light` mix — three look-up clients (`getItemById`) to each heavy one
//! (`getBestSellers` twice, `getNewProducts`, `doSubjectSearch`, subjects in
//! rotation) — driven closed-loop by 4, 32 and 128 submitter threads, the
//! same number of statements at each point. A write pre-roll comes first —
//! ten `adminUpdateItem` an item, through the engine. With nothing pinned
//! each is written over its item's version in place, so ITEM holds one
//! version a row; the test's pinned variant holds a pin through the
//! pre-roll, as a long reader would, so that each appends and ITEM holds
//! eleven versions a row, then drops it and commits one more price change,
//! which reclaims what the pin held. Nothing
//! is written during the points, so a table's versions are a constant. What
//! a point leaves in the engine's own counters:
//!
//! * **(i) A pass reads the table once, not once per query.** Per table,
//!   the rows a ClockScan cycle examines (`Engine::stats().scans`) are at
//!   most the table's versions at every point; and where every cycle of both
//!   points was a pass (ORDER_LINE: a range has no index to go through; ITEM
//!   goes through `ITEM_SUBJECT` while few subjects are asked for, which
//!   costs less than the pass by the rule that chooses it), rows examined per
//!   pass at 128 clients are within 1.1 × those at 4. Checked to die
//!   (CHANGES.md) when the scan walks once per query of its cycle.
//! * **(ii) An operator is one task per batch, whatever it serves.**
//!   Executor tasks per batch are at most the plan nodes the point activated.
//! * **(iii) A batch's time grows slower than its statements.** The mean
//!   execute phase of a statement (from its batch's start to its own
//!   outcome: the batch's operators, then Γ routing up to it) grows from 4 to
//!   128 clients by less than `SUBLINEAR` × the growth of statements per
//!   batch. First runs read 33 to 44 × the statements per batch at 8.4 to
//!   11.6 × the time (release; 38 × at 8 × in a debug build), a ratio of
//!   ratios of 0.21 to 0.27; `SUBLINEAR` = 0.5 leaves room for a loaded host
//!   and still fails a batch whose time follows its statements. (i) and (ii)
//!   are counts; this is the only check that reads a clock (and depends on
//!   how the 4-client point happened to batch), so a failed reading is taken
//!   again, twice at most, before the test fails.
//! * **(iv) A dead version holds no payload.** The versions of ITEM that
//!   still hold one (`Table::payload_count`, what
//!   `shareddb_table_payloads{table="ITEM"}` exports) are its live rows at
//!   every point: the pre-roll's commits reclaimed every version they
//!   superseded once no pin saw it.
//! * **(v) Reading ITEM costs what it cost when the engine was fresh**
//!   (without pins; ROADMAP item 4). Over one fixed round of reads, the
//!   versions a cycle served from ITEM's indexes fetches per row it returns,
//!   and the chunks a pass over ITEM visits, are within `AGED` (1.5) × what
//!   the same round read before the pre-roll: 1.0 and 1.0 both times. An
//!   arena that appends every update reads 11 and 11 here.

use shareddb::common::metrics::HistogramSnapshot;
use shareddb::common::Value;
use shareddb::core::{Engine, EngineConfig, Phase};
use shareddb::storage::{Catalog, CHUNK_ROWS};
use shareddb::tpcw::schema::SUBJECTS;
use shareddb::tpcw::workload::ParamGenerator;
use shareddb::tpcw::{build_catalog, build_shared_plan, TpcwScale};
use std::collections::HashMap;

const POINTS: [usize; 3] = [4, 32, 128];
const STATEMENTS_PER_POINT: usize = 2_048;
const PRE_ROLL: usize = 10_000;
const SUBLINEAR: f64 = 0.5;
const AGED: f64 = 1.5;

/// What one load point left in the engine's counters.
struct Point {
    clients: usize,
    statements_per_batch: f64,
    tasks_per_batch: f64,
    active_nodes: usize,
    mean_execute_us: f64,
    /// Per scanned table: rows examined, cycles that were a pass, cycles
    /// served from the indexes.
    scans: HashMap<String, (u64, u64, u64)>,
    /// ITEM's versions that hold a payload, once the point is over.
    item_payloads: usize,
}

fn run_point(engine: &Engine, scale: &TpcwScale, clients: usize) -> Point {
    let threshold = scale.orders as i64 - ParamGenerator::new(scale).bestseller_window;
    engine.reset_stats();
    std::thread::scope(|scope| {
        for client in 0..clients {
            scope.spawn(move || {
                for i in 0..STATEMENTS_PER_POINT / clients {
                    let subject = Value::text(SUBJECTS[(client + i) % SUBJECTS.len()]);
                    let item = Value::Int(((client * 131 + i * 7) % scale.items) as i64);
                    let (statement, params) = match (client % 4, i % 4) {
                        (0..=2, _) => ("getItemById", vec![item]),
                        (_, 0 | 1) => ("getBestSellers", vec![subject, Value::Int(threshold)]),
                        (_, 2) => ("getNewProducts", vec![subject]),
                        _ => ("doSubjectSearch", vec![subject]),
                    };
                    let outcome = engine.execute_sync(statement, &params).unwrap();
                    assert!(!outcome.rows().is_empty(), "{statement}{params:?}");
                }
            });
        }
    });
    let stats = engine.stats();
    assert_eq!(
        (stats.queries, stats.failed),
        (STATEMENTS_PER_POINT as u64, 0)
    );
    let batches = stats.batches as f64;
    let mut execute = HistogramSnapshot::default();
    for statement in &stats.phases {
        execute.merge_from(statement.phase(Phase::Execute));
    }
    let operators = &stats.operators;
    Point {
        clients,
        statements_per_batch: stats.queries as f64 / batches,
        tasks_per_batch: (stats.tasks_run_by_coordinator + stats.tasks_run_by_workers) as f64
            / batches,
        active_nodes: operators.iter().filter(|op| op.active_cycles > 0).count(),
        mean_execute_us: execute.mean_us(),
        scans: stats
            .scans
            .into_iter()
            .map(|s| (s.table, (s.examined, s.cycles[0], s.cycles[1])))
            .collect(),
        item_payloads: item_payloads(engine),
    }
}

fn item_payloads(engine: &Engine) -> usize {
    engine
        .catalog()
        .table("ITEM")
        .unwrap()
        .read()
        .payload_count()
}

/// `PRE_ROLL` price and date changes spread over the items, pipelined a
/// hundred at a time — when `pinned`, under a pin of the state before them.
fn pre_roll(engine: &Engine, catalog: &Catalog, scale: &TpcwScale, pinned: bool) {
    let _pin = pinned.then(|| catalog.pin());
    for first in (0..PRE_ROLL).step_by(100) {
        let handles: Vec<_> = (first..first + 100)
            .map(|n| {
                let item = Value::Int((n * 7_919 % scale.items) as i64);
                let cost = Value::Float(1.0 + (n % 50) as f64);
                let date = Value::Date(15_000 + (n % 900) as i64);
                engine
                    .execute("adminUpdateItem", &[item, cost, date])
                    .unwrap()
            })
            .collect();
        for handle in handles {
            assert_eq!(handle.wait().unwrap().rows_affected(), 1);
        }
    }
}

/// What reading ITEM cost over one fixed round of reads, from the engine's
/// counters: versions fetched per row returned by the cycles served from
/// its indexes (a subject search and the newest products of every subject,
/// one statement a batch), and chunks visited by a pass (a title search
/// whose pattern holds no gram).
fn item_read_cost(engine: &Engine, catalog: &Catalog) -> (f64, f64) {
    let item_scans = |engine: &Engine| {
        let mut scans = engine.stats().scans.into_iter();
        scans.find(|s| s.table == "ITEM").expect("ITEM was scanned")
    };
    engine.reset_stats();
    for subject in SUBJECTS {
        for statement in ["doSubjectSearch", "getNewProducts"] {
            engine
                .execute_sync(statement, &[Value::text(subject)])
                .unwrap();
        }
    }
    let served = item_scans(engine);
    assert_eq!(served.cycles[0], 0, "a subject's cycle took the pass");
    let fetched_per_row = served.examined as f64 / served.emitted as f64;
    engine.reset_stats();
    let pattern = [Value::text("%_K_1_")];
    assert!(!engine
        .execute_sync("doTitleSearch", &pattern)
        .unwrap()
        .rows()
        .is_empty());
    let passed = item_scans(engine);
    assert_eq!(passed.cycles, [1, 0], "the title search took no pass");
    let versions = catalog.table("ITEM").unwrap().read().version_count() as u64;
    let walked = versions - passed.skipped;
    (fetched_per_row, walked.div_ceil(CHUNK_ROWS as u64) as f64)
}

#[test]
fn work_per_heartbeat_is_bounded_by_the_data_not_by_the_clients() {
    bounded_over_the_pre_roll(false);
}

/// (i)–(iv) over history: every pre-roll update appends under a pin.
#[test]
fn work_per_heartbeat_is_bounded_over_history_a_pin_held() {
    bounded_over_the_pre_roll(true);
}

fn bounded_over_the_pre_roll(pinned: bool) {
    let scale = TpcwScale::with_items(1_000);
    let catalog = std::sync::Arc::new(build_catalog(&scale).unwrap());
    let (plan, registry) = build_shared_plan(&catalog).unwrap();
    let config = EngineConfig::default();
    let engine = Engine::start(catalog.clone(), plan, registry, config).unwrap();
    let versions = |table: &str| catalog.table(table).unwrap().read().version_count() as f64;
    let fresh = item_read_cost(&engine, &catalog);
    pre_roll(&engine, &catalog, &scale, pinned);
    let live_items = catalog.table("ITEM").unwrap().read().live_count();
    if pinned {
        assert_eq!(versions("ITEM") as usize, live_items + PRE_ROLL);
        // One more price change, nothing pinned: what the pin held goes.
        let cost = [Value::Int(0), Value::Float(2.0), Value::Date(15_000)];
        engine.execute_sync("adminUpdateItem", &cost).unwrap();
    } else {
        assert_eq!(versions("ITEM") as usize, live_items);
        // (v)
        let aged = item_read_cost(&engine, &catalog);
        eprintln!("ITEM versions fetched a row, chunks a pass: fresh {fresh:?}, aged {aged:?}");
        assert!(
            aged.0 <= AGED * fresh.0 && aged.1 <= AGED * fresh.1,
            "after the pre-roll ITEM reads {aged:?}, fresh {fresh:?}"
        );
    }

    let points: Vec<Point> = POINTS
        .map(|clients| run_point(&engine, &scale, clients))
        .into();
    for point in &points {
        eprintln!(
            "{:>3} clients: {:.1} statements, {:.1} tasks a batch over {} active nodes, \
             mean execute {:.0} us, scans {:?}, ITEM payloads {}",
            point.clients,
            point.statements_per_batch,
            point.tasks_per_batch,
            point.active_nodes,
            point.mean_execute_us,
            point.scans,
            point.item_payloads
        );
        // (i), the bound: a cycle examines no more than the table holds.
        for (table, (examined, passes, served)) in &point.scans {
            let per_cycle = *examined as f64 / (passes + served).max(1) as f64;
            assert!(
                per_cycle <= versions(table),
                "{} clients: {per_cycle:.0} rows of {table} a cycle, {} versions",
                point.clients,
                versions(table)
            );
        }
        // (iv)
        assert_eq!(point.item_payloads, live_items, "{} clients", point.clients);
        // (ii)
        assert!(
            point.tasks_per_batch <= point.active_nodes as f64,
            "{} clients: {:.1} tasks a batch, {} active nodes",
            point.clients,
            point.tasks_per_batch,
            point.active_nodes
        );
    }

    let (few, many) = (&points[0], &points[2]);
    // (i), flat: rows per pass, where both points only passed.
    let per_pass = |point: &Point, table: &str| match point.scans.get(table) {
        Some((examined, passes, 0)) if *passes > 0 => Some(*examined as f64 / *passes as f64),
        _ => None,
    };
    let mut compared = Vec::new();
    for table in few.scans.keys() {
        if let (Some(at_few), Some(at_many)) = (per_pass(few, table), per_pass(many, table)) {
            assert!(
                at_many <= 1.1 * at_few,
                "{table}: {at_many:.0} rows a pass at {} clients, {at_few:.0} at {}",
                many.clients,
                few.clients
            );
            compared.push(table.as_str());
        }
    }
    assert!(compared.contains(&"ORDER_LINE"), "compared {compared:?}");

    // (iii), the one check that reads a clock: a failed reading is taken
    // again, twice at most, before it counts.
    let mut readings = vec![sublinear(few, many)];
    while readings.last().is_some_and(|r| r.is_err()) && readings.len() < 3 {
        let [few, many] = [POINTS[0], POINTS[2]].map(|clients| run_point(&engine, &scale, clients));
        readings.push(sublinear(&few, &many));
    }
    assert!(readings.last().unwrap().is_ok(), "{readings:?}");
}

/// (iii) between two load points.
fn sublinear(few: &Point, many: &Point) -> Result<(), String> {
    let statements = many.statements_per_batch / few.statements_per_batch;
    let time = many.mean_execute_us / few.mean_execute_us;
    if statements <= 4.0 {
        return Err(format!("batches did not grow: {statements:.1} x"));
    }
    if time >= SUBLINEAR * statements {
        return Err(format!(
            "{statements:.1} x the statements a batch took {time:.1} x the time"
        ));
    }
    Ok(())
}
