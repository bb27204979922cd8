//! The key map under pinned snapshots, end to end.
//!
//! A primary key is indexed once, by its table's key map, and the map answers
//! for every snapshot: a look-up pinned before a write is led back along the
//! versions' back-links to the version it sees. Here every way a statement
//! reaches a row by its key — an `IndexProbe`, the inner side of an
//! `IndexNlJoin`, a ClockScan cycle served from the indexes — is pinned
//! before an update, a delete, a re-insert and a key move, while a writer
//! keeps doing all four to the neighbouring rows, and returns what a
//! query-at-a-time engine that only *scans* returns at the same snapshot.
//!
//! The gram index is held to the same: TPC-W's title search, an infix `LIKE`
//! served from `ITEM_TITLE`, pinned before and after a title is changed,
//! kept, deleted and written again under a writer that keeps retitling the
//! rest of the catalog.
//!
//! An engine's batch reads the latest commit, so a past snapshot is read
//! the way a batch hands one to its operators: a storage cycle at that
//! snapshot (`ClockScan::execute_at`, `IndexProbe::execute_at`), and for a
//! join an operator cycle over the references its scan emitted. With the
//! writer at rest the engine's own answers are held to the same reference.
//! Every snapshot is held by a `Catalog::pin` for as long as it is read: the
//! writer's commits reclaim whatever no pin sees.

use shareddb::baseline::{BaselineStatement, ClassicEngine, EngineProfile, QueryPlan};
use shareddb::common::{tuple, DataType, Expr, QTuple, QueryId, QuerySet, Tuple, Value};
use shareddb::core::batch::Activation;
use shareddb::core::operators::{execute_operator, ExecContext};
use shareddb::core::plan::{ActivationTemplate, OperatorSpec, PlanBuilder, StatementSpec};
use shareddb::core::{Engine, EngineConfig, StatementRegistry};
use shareddb::storage::{
    Catalog, ClockScan, IndexProbe, ProbeQuery, ScanQuery, Snapshot, SnapshotPin, TableDef,
    UpdateOp,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const ITEMS: i64 = 64;

/// `ITEMS(ID key, VAL)` and `REFS(R_ID key, R_GROUP, R_ITEM)`: four
/// references to every item, in eight groups.
fn catalog() -> Arc<Catalog> {
    let catalog = Catalog::new();
    catalog
        .create_table(
            TableDef::new("ITEMS")
                .column("ID", DataType::Int)
                .column("VAL", DataType::Int)
                .primary_key(&["ID"]),
        )
        .unwrap();
    catalog
        .create_table(
            TableDef::new("REFS")
                .column("R_ID", DataType::Int)
                .column("R_GROUP", DataType::Int)
                .column("R_ITEM", DataType::Int)
                .primary_key(&["R_ID"]),
        )
        .unwrap();
    let items = (0..ITEMS).map(|id| tuple![id, 0i64]).collect();
    catalog.bulk_load("ITEMS", items).unwrap();
    let refs = (0..4 * ITEMS)
        .map(|r| tuple![r, r % 8, r % ITEMS])
        .collect();
    catalog.bulk_load("REFS", refs).unwrap();
    Arc::new(catalog)
}

/// `probed`: ITEMS by key through the index probe. `joined`: the references
/// of a group (a pass over REFS), each with its item by key. `scanned`: ITEMS
/// by key as a scan predicate — a cycle the key map serves.
fn engine(catalog: &Arc<Catalog>) -> Engine {
    let mut b = PlanBuilder::new(catalog);
    let probe = b.index_probe("ITEMS").unwrap();
    let scan = b.table_scan("ITEMS").unwrap();
    let refs = b.table_scan("REFS").unwrap();
    let join = b.index_nl_join(refs, "ITEMS", "REFS.R_ITEM", "ID").unwrap();
    let plan = b.build();
    let mut registry = StatementRegistry::new();
    let by_key = |column: usize| Expr::col(column).eq(Expr::param(0));
    registry
        .register(StatementSpec::query("probed", probe).activate(
            probe,
            ActivationTemplate::Probe {
                column: 0,
                key: Expr::param(0),
                residual: None,
            },
        ))
        .unwrap();
    registry
        .register(
            StatementSpec::query("joined", join)
                .activate(
                    refs,
                    ActivationTemplate::Scan {
                        predicate: by_key(1),
                    },
                )
                .activate(join, ActivationTemplate::Participate),
        )
        .unwrap();
    registry
        .register(StatementSpec::query("scanned", scan).activate(
            scan,
            ActivationTemplate::Scan {
                predicate: by_key(0),
            },
        ))
        .unwrap();
    Engine::start(Arc::clone(catalog), plan, registry, EngineConfig::default()).unwrap()
}

/// A plan that walks every visible version of `table` and keeps those
/// `predicate` admits: a scan with a predicate of its own is read through an
/// index when the predicate names one, a filter above a bare scan never is.
fn walk_where(table: &str, predicate: Expr) -> QueryPlan {
    QueryPlan::Filter {
        input: Box::new(QueryPlan::scan(table)),
        predicate,
    }
}

/// The same three statements for the query-at-a-time engine, with no index
/// and no key map anywhere: scans, a filter and a hash join.
fn reference(catalog: &Arc<Catalog>) -> ClassicEngine {
    let classic = ClassicEngine::start(Arc::clone(catalog), EngineProfile::Tuned, 1);
    let by_key = |column: usize| Expr::col(column).eq(Expr::param(0));
    let items_by_key = walk_where("ITEMS", by_key(0));
    classic.register("probed", BaselineStatement::Query(items_by_key.clone()));
    classic.register("scanned", BaselineStatement::Query(items_by_key));
    classic.register(
        "joined",
        BaselineStatement::Query(QueryPlan::HashJoin {
            build: Box::new(walk_where("REFS", by_key(1))),
            probe: Box::new(QueryPlan::scan("ITEMS")),
            build_key: 2,
            probe_key: 0,
        }),
    );
    classic
}

/// One cycle of the `joined` statement's operators at `snapshot`: the scan of
/// REFS for the group, then the join's look-ups of ITEMS by key.
fn join_cycle(catalog: &Arc<Catalog>, group: i64, snapshot: Snapshot) -> Vec<Tuple> {
    let query = QueryId(1);
    let refs = ClockScan::new(catalog.table("REFS").unwrap(), catalog.oracle());
    let of_group = ScanQuery::new(query, Expr::col(1).eq(Expr::lit(group)));
    let outer: Vec<QTuple> = refs.execute_at(&[of_group], snapshot).unwrap().tuples;
    assert!(outer
        .iter()
        .all(|t| t.queries == QuerySet::singleton(query)));
    let join = OperatorSpec::IndexNlJoin {
        table: "ITEMS".into(),
        outer_key: 2,
        inner_column: 0,
    };
    let ctx = ExecContext {
        catalog: catalog.as_ref(),
        snapshot,
    };
    let activations = [(query, Activation::Participate)];
    let joined = execute_operator(&join, &activations, vec![outer], &ctx).unwrap();
    joined.into_iter().map(|t| t.tuple).collect()
}

/// The `probed` statement at `snapshot`: one index-probe cycle.
fn probe_cycle(catalog: &Arc<Catalog>, key: i64, snapshot: Snapshot) -> Vec<Tuple> {
    let probe = IndexProbe::new(catalog.table("ITEMS").unwrap(), catalog.oracle());
    let by_key = ProbeQuery::key(QueryId(1), 0, Value::Int(key));
    let cycle = probe.execute_at(&[by_key], snapshot).unwrap();
    cycle.tuples.into_iter().map(|t| t.tuple).collect()
}

/// The `scanned` statement at `snapshot`: one scan cycle, which the key map
/// serves — it fetches the key's one or two spellings and walks nothing.
fn scan_cycle(catalog: &Arc<Catalog>, key: i64, snapshot: Snapshot) -> Vec<Tuple> {
    let scan = ClockScan::new(catalog.table("ITEMS").unwrap(), catalog.oracle());
    let by_key = ScanQuery::new(QueryId(1), item_is(key));
    let cycle = scan.execute_at(&[by_key], snapshot).unwrap();
    assert!(cycle.by_index, "a pass served ITEMS by key {key}");
    cycle.tuples.into_iter().map(|t| t.tuple).collect()
}

fn item_is(id: i64) -> Expr {
    Expr::col(0).eq(Expr::lit(id))
}

fn set(column: usize, value: i64, id: i64) -> UpdateOp {
    UpdateOp::Update {
        assignments: vec![(column, Expr::lit(value))],
        predicate: item_is(id),
    }
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

#[test]
fn pinned_key_lookups_equal_the_scanning_engine() {
    let catalog = catalog();
    let classic = reference(&catalog);
    let engine = engine(&catalog);

    // The writer: updates, deletes, re-inserts, moves and moves back, round
    // and round the items above the four the test writes itself.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (stop, catalog) = (Arc::clone(&stop), Arc::clone(&catalog));
        std::thread::spawn(move || {
            let mut writes = 0i64;
            while !stop.load(Ordering::Relaxed) {
                let id = 8 + writes % (ITEMS - 8);
                let op = match writes / (ITEMS - 8) % 5 {
                    0 => set(1, writes, id),
                    1 => UpdateOp::Delete {
                        predicate: item_is(id),
                    },
                    2 => UpdateOp::Insert {
                        values: tuple![id, writes],
                    },
                    3 => set(0, id + 1_000, id),
                    _ => set(0, id, id + 1_000),
                };
                catalog.apply("ITEMS", op).unwrap();
                writes += 1;
            }
            writes
        })
    };

    // Item 1 is updated, item 2 deleted, item 3 deleted and written again,
    // item 4 moved to 104 and back, item 5 updated twice inside one commit;
    // a snapshot is pinned before the first write and after every one.
    let mut pins: Vec<SnapshotPin> = vec![catalog.pin()];
    let writes: Vec<Vec<UpdateOp>> = vec![
        vec![set(1, 11, 1)],
        vec![UpdateOp::Delete {
            predicate: item_is(2),
        }],
        vec![UpdateOp::Delete {
            predicate: item_is(3),
        }],
        vec![UpdateOp::Insert {
            values: tuple![3i64, 33i64],
        }],
        vec![set(0, 104, 4)],
        vec![set(0, 4, 104)],
        vec![set(1, 51, 5), set(1, 52, 5)],
    ];
    for ops in writes {
        let ops: Vec<(String, UpdateOp)> = ops
            .into_iter()
            .map(|op| ("ITEMS".to_string(), op))
            .collect();
        let applied = catalog.apply_batch(&ops).unwrap();
        assert!(applied
            .iter()
            .all(|r| r.as_ref().is_ok_and(|r| r.rows_affected == 1)));
        pins.push(catalog.pin());
    }
    assert!(pins.windows(2).all(|w| w[0].ts < w[1].ts));

    // Compare under the writer: its first commit past the last pin first.
    let last_pin = pins.last().unwrap().ts;
    while catalog.snapshot().ts <= last_pin {
        std::thread::yield_now();
    }
    let mut compared = 0;
    let mut differing_views = std::collections::HashSet::new();
    for round in 0..3 {
        for (pin, snapshot) in pins.iter().enumerate() {
            // The keys written above, a neighbour the writer churns, the key
            // item 4 visits, one that never was; every group of references.
            let keys = [1, 2, 3, 4, 5, 104, 20 + round, 1_020 + round, 7_777];
            let calls = keys
                .iter()
                .flat_map(|&key| [("probed", key), ("scanned", key)])
                .chain((0..8).map(|group| ("joined", group)));
            for (statement, param) in calls {
                let params = [Value::Int(param)];
                let want = classic.execute_at(statement, &params, **snapshot).unwrap();
                let got = match statement {
                    "probed" => probe_cycle(&catalog, param, **snapshot),
                    "scanned" => scan_cycle(&catalog, param, **snapshot),
                    _ => join_cycle(&catalog, param, **snapshot),
                };
                assert_eq!(
                    sorted(got),
                    sorted(want.clone()),
                    "{statement}({param}) at pin {pin}"
                );
                compared += 1;
                if statement == "probed" && (1..=5).contains(&param) {
                    differing_views.insert((param, format!("{want:?}")));
                }
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    let writes = writer.join().unwrap();
    assert!(writes > 0 && compared > 0);
    // With the writer at rest the batch's snapshot is the latest one, and
    // each statement inside the engine is its cycles at that snapshot.
    let calls = [1, 2, 3, 4, 5, 104, 7_777]
        .into_iter()
        .flat_map(|key| [("probed", key), ("scanned", key)])
        .chain((0..8).map(|group| ("joined", group)));
    for (statement, param) in calls {
        let params = [Value::Int(param)];
        let want = classic.execute_at(statement, &params, catalog.snapshot());
        let got = engine.execute_sync(statement, &params).unwrap();
        let got = sorted(got.rows().to_vec());
        assert_eq!(got, sorted(want.unwrap()), "{statement}({param})");
    }
    // The pins do see different things: items 1–5 are there and gone, under
    // two or three values each.
    assert!(differing_views.len() >= 5 + 6, "{differing_views:?}");

    // The engine's key look-ups were served by the key map, not by a pass:
    // every cycle of the ITEMS scan fetched its one or two spellings of the
    // key and walked nothing.
    let scans = engine.stats().scans;
    let items = scans.iter().find(|s| s.table == "ITEMS").unwrap();
    assert_eq!(items.cycles, [0, 7], "{items:?}");
}

/// `doTitleSearch` of the TPC-W plan — an infix `LIKE` on `ITEM.I_TITLE`, a
/// look-up of each item's author, the first page by title — pinned before
/// and after titles change, against a query-at-a-time engine that walks ITEM
/// and AUTHOR whole: the same page at every pin, read as a batch's cycles,
/// and from the engine once the writer is at rest; no ITEM cycle was a
/// pass.
#[test]
fn pinned_title_searches_equal_the_scanning_engine() {
    use shareddb::common::SortKey;
    use shareddb::tpcw::{build_catalog, build_shared_plan, TpcwScale, PAGE_SIZE};
    const TITLE: usize = 1;

    let catalog = Arc::new(build_catalog(&TpcwScale::with_items(400)).unwrap());
    let classic = ClassicEngine::start(Arc::clone(&catalog), EngineProfile::Tuned, 1);
    let titled = walk_where("ITEM", Expr::col(TITLE).like(Expr::param(0)));
    let with_author = QueryPlan::HashJoin {
        build: Box::new(titled),
        probe: Box::new(QueryPlan::scan("AUTHOR")),
        build_key: 2,
        probe_key: 0,
    };
    let first_page = with_author
        .sorted(vec![SortKey::asc(TITLE)])
        .limited(PAGE_SIZE);
    classic.register("doTitleSearch", BaselineStatement::Query(first_page));
    let (plan, registry) = build_shared_plan(&catalog).unwrap();
    let config = EngineConfig::default();
    let engine = Engine::start(Arc::clone(&catalog), plan, registry, config).unwrap();

    let retitle = |id: i64, title: String| UpdateOp::Update {
        assignments: vec![(TITLE, Expr::lit(title))],
        predicate: item_is(id),
    };
    // The writer: the upper half of the catalog is retitled round and round,
    // into the searched patterns and out of them; every title stays its own.
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (stop, catalog) = (Arc::clone(&stop), Arc::clone(&catalog));
        std::thread::spawn(move || {
            let mut writes = 0i64;
            while !stop.load(Ordering::Relaxed) {
                let id = 200 + writes % 200;
                let title = match writes / 200 % 2 {
                    0 => format!("YET ANOTHER BOOK 12 {id} {writes}"),
                    _ => format!("VOLUME {id} PRINTING {writes}"),
                };
                catalog.apply("ITEM", retitle(id, title)).unwrap();
                writes += 1;
            }
            writes
        })
    };

    // Item 120 leaves `%BOOK 12%`, item 7 enters it, item 12 keeps its title
    // under a new price (`adminUpdateItem`), item 121 is deleted and written
    // again under another title; a snapshot is pinned around every write.
    let item_121 = {
        let item = catalog.table("ITEM").unwrap();
        let item = item.read();
        let (_, row) = item
            .lookup_pk(&[Value::Int(121)], catalog.snapshot())
            .unwrap();
        row.values().to_vec()
    };
    let mut rewritten = item_121.clone();
    rewritten[TITLE] = Value::text("BACK IN PRINT: BOOK 121");
    let writes = vec![
        retitle(120, "VOLUME ONE HUNDRED AND TWENTY".into()),
        retitle(7, "SEQUEL TO BOOK 12".into()),
        UpdateOp::Update {
            assignments: vec![(4, Expr::lit(9.5f64))],
            predicate: item_is(12),
        },
        UpdateOp::Delete {
            predicate: item_is(121),
        },
        UpdateOp::Insert {
            values: Tuple::new(rewritten),
        },
    ];
    let mut pins: Vec<SnapshotPin> = vec![catalog.pin()];
    for op in writes {
        assert_eq!(catalog.apply("ITEM", op).unwrap().rows_affected, 1);
        pins.push(catalog.pin());
    }

    let patterns = [
        "%BOOK 12%",
        "%OF BOOK 7",
        "%SEQUEL%BOOK%",
        "%TITLE 2_ OF%BOOK 12_",
        "%IN PRINT%",
        "VOLUME %",
        "%no such title%",
    ];
    // The statement at `snapshot` as a batch hands it to its operators: the
    // ITEM cycle, served from ITEM_TITLE; each item's author by key; the
    // first page by title.
    let page_at = |pattern: &str, snapshot: Snapshot| -> Vec<Tuple> {
        let items = ClockScan::new(catalog.table("ITEM").unwrap(), catalog.oracle());
        let titled = ScanQuery::new(QueryId(1), Expr::col(TITLE).like(Expr::lit(pattern)));
        let cycle = items.execute_at(&[titled], snapshot).unwrap();
        assert!(cycle.by_index, "a pass served {pattern}");
        let join = OperatorSpec::IndexNlJoin {
            table: "AUTHOR".into(),
            outer_key: 2,
            inner_column: 0,
        };
        let ctx = ExecContext {
            catalog: catalog.as_ref(),
            snapshot,
        };
        let activations = [(QueryId(1), Activation::Participate)];
        let joined = execute_operator(&join, &activations, vec![cycle.tuples], &ctx).unwrap();
        let mut page: Vec<Tuple> = joined.into_iter().map(|t| t.tuple).collect();
        page.sort_by(|a, b| a[TITLE].cmp(&b[TITLE]));
        page.truncate(PAGE_SIZE);
        page
    };
    // Compare under the writer: its first commit past the last pin first.
    let last_pin = pins.last().unwrap().ts;
    while catalog.snapshot().ts <= last_pin {
        std::thread::yield_now();
    }
    let mut pages = std::collections::HashSet::new();
    for (pin, snapshot) in pins.iter().enumerate() {
        for pattern in patterns {
            let params = [Value::text(pattern)];
            let want = classic
                .execute_at("doTitleSearch", &params, **snapshot)
                .unwrap();
            let got = page_at(pattern, **snapshot);
            assert_eq!(got, want, "{pattern} at pin {pin}");
            if pattern == "%BOOK 12%" {
                let titles: Vec<String> = want.iter().map(|row| row[TITLE].to_string()).collect();
                pages.insert(titles);
            }
        }
    }
    stop.store(true, Ordering::Relaxed);
    assert!(writer.join().unwrap() > 0);
    // The pins do see different pages: an item left, one came, one came back.
    assert!(pages.len() >= 4, "{pages:?}");
    // With the writer at rest the engine answers the page at the latest
    // snapshot, every ITEM cycle served from ITEM_TITLE.
    for pattern in patterns {
        let params = [Value::text(pattern)];
        let want = classic.execute_at("doTitleSearch", &params, catalog.snapshot());
        let got = engine.execute_sync("doTitleSearch", &params).unwrap();
        assert_eq!(got.rows(), &want.unwrap()[..], "{pattern}");
    }
    let scans = engine.stats().scans;
    let items = scans.iter().find(|s| s.table == "ITEM").unwrap();
    assert_eq!(items.cycles, [0, patterns.len() as u64], "{items:?}");
}
