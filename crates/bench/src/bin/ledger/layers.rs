//! Per-layer microbenches: each layer's public functions re-executed on the
//! TPC-W tables (and the real plan's operator specs) at the batch sizes the
//! engine sees, giving a cost per tuple, per statement or per operation.
//!
//! Every value is a median over samples; inputs an operator consumes are
//! cloned outside the timed section.

use crate::harness::{metric, Metric};
use crate::stats::median;
use crate::workloads::bestseller_threshold;
use shareddb_bench::conformance::{corpus_catalog, load_corpus, Expectation};
use shareddb_common::ids::Timestamp;
use shareddb_common::{tuple, Expr, QTuple, QueryId, QuerySet, TicketId, Tuple, Value};
use shareddb_core::batch::{bind_query, Activation};
use shareddb_core::operators::{execute_operator, ExecContext};
use shareddb_core::plan::OperatorSpec;
use shareddb_core::{merge_results, GlobalPlan, MergeSpec, ResultSet, SubmitOptions};
use shareddb_server::protocol::{chunk_flags, Frame};
use shareddb_sql::compile::{bind_adhoc, canonicalize};
use shareddb_sql::compile_workload;
use shareddb_storage::predicate_index::{IndexedQuery, PredicateIndex};
use shareddb_storage::{
    BTreeIndex, Catalog, ClockScan, FileSink, IndexProbe, ProbeQuery, RowId, ScanQuery, UpdateOp,
    Wal,
};
use shareddb_tpcw::{build_catalog, build_shared_plan, create_schema, TpcwScale, SUBJECTS};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Median nanoseconds of `work(input)` over `samples` runs, `input` made
/// afresh by `prepare` outside the timed section each time.
fn median_ns<T, R>(
    samples: usize,
    mut prepare: impl FnMut() -> T,
    mut work: impl FnMut(T) -> R,
) -> f64 {
    let timings: Vec<f64> = (0..samples)
        .map(|_| {
            let input = prepare();
            let started = Instant::now();
            let output = work(input);
            let elapsed = started.elapsed();
            black_box(output);
            elapsed.as_secs_f64() * 1e9
        })
        .collect();
    median(&timings)
}

/// Median nanoseconds of one call of a cheap `work`, timed `inner` at a time.
fn median_call_ns<R>(samples: usize, inner: usize, mut work: impl FnMut(usize) -> R) -> f64 {
    let mut call = 0;
    median_ns(
        samples,
        || (),
        |()| {
            for _ in 0..inner {
                black_box(work(call));
                call += 1;
            }
        },
    ) / inner as f64
}

fn query_ids(n: usize) -> impl Iterator<Item = QueryId> {
    (1..=n as u32).map(QueryId)
}

fn participate(n: usize) -> Vec<(QueryId, Activation)> {
    query_ids(n).map(|q| (q, Activation::Participate)).collect()
}

fn subject_equals(i: usize) -> Expr {
    Expr::col(3).eq(Expr::lit(SUBJECTS[i % SUBJECTS.len()]))
}

fn find_spec(plan: &GlobalPlan, wanted: impl Fn(&OperatorSpec, &[usize]) -> bool) -> OperatorSpec {
    plan.nodes()
        .iter()
        .find(|node| wanted(&node.spec, &node.inputs))
        .map(|node| node.spec.clone())
        .expect("the TPC-W plan has this operator")
}

/// ClockScan, predicate index, index probe, B-tree.
fn storage_reads(catalog: &Catalog, samples: usize, out: &mut Vec<Metric>) -> Result<(), String> {
    let item = catalog.table("ITEM").map_err(|e| e.to_string())?;
    let rows_in = item.read().version_count() as f64;
    let scan = ClockScan::new(item.clone(), catalog.oracle());
    for q in [1usize, 16, 64, 256] {
        let queries: Vec<ScanQuery> = query_ids(q)
            .enumerate()
            .map(|(i, id)| ScanQuery::new(id, subject_equals(i)))
            .collect();
        let cycle = median_ns(samples, || (), |()| scan.execute_batch(&queries, &[]));
        out.push(metric(
            format!("storage.clockscan.ns_per_tuple.q{q}"),
            cycle / rows_in,
            "ns",
        ));
        if q == 16 {
            let selected = scan
                .execute_batch(&queries, &[])
                .map_err(|e| e.to_string())?
                .tuples
                .len();
            out.push(metric(
                "storage.clockscan.rows_out_per_row_in",
                selected as f64 / rows_in,
                "fraction",
            ));
        }
    }
    // A LIKE cannot be indexed: every row walks the residual expression tree.
    let likes: Vec<ScanQuery> = query_ids(16)
        .map(|id| {
            let pattern = format!("%BOOK {}%", id.0 * 37);
            ScanQuery::new(id, Expr::col(1).like(Expr::lit(pattern)))
        })
        .collect();
    let cycle = median_ns(samples, || (), |()| scan.execute_batch(&likes, &[]));
    out.push(metric(
        "storage.clockscan.like_ns_per_tuple.q16",
        cycle / rows_in,
        "ns",
    ));

    let indexed: Vec<IndexedQuery> = query_ids(64)
        .enumerate()
        .map(|(i, query_id)| IndexedQuery {
            query_id,
            predicate: subject_equals(i),
        })
        .collect();
    let build = median_ns(samples * 4, || indexed.clone(), PredicateIndex::build);
    out.push(metric(
        "storage.predicate_index.build_ns_per_query.q64",
        build / 64.0,
        "ns",
    ));
    let index = PredicateIndex::build(indexed);
    let rows: Vec<Tuple> = item
        .read()
        .scan_live()
        .take(4_000)
        .map(|(_, t)| t.clone())
        .collect();
    let matching = median_ns(
        samples,
        || (),
        |()| {
            for row in &rows {
                black_box(index.matching_queries(row).expect("match"));
            }
        },
    );
    out.push(metric(
        "storage.predicate_index.match_ns_per_tuple.q64",
        matching / rows.len() as f64,
        "ns",
    ));

    let probe = IndexProbe::new(item.clone(), catalog.oracle());
    let items = rows_in as i64;
    for q in [1usize, 64] {
        let mut round = 0i64;
        let per_batch = median_ns(
            samples * 20,
            || {
                round += 1;
                query_ids(q)
                    .map(|id| {
                        let key = (round * 7_919 + i64::from(id.0) * 104_729) % items;
                        ProbeQuery::key(id, 0, Value::Int(key))
                    })
                    .collect::<Vec<_>>()
            },
            |probes| probe.execute_batch(&probes, &[]),
        );
        out.push(metric(
            format!("storage.index_probe.ns_per_probe.q{q}"),
            per_batch / q as f64,
            "ns",
        ));
    }

    let keys = 20_000i64;
    let insert = median_ns(
        samples,
        || (),
        |()| {
            let mut tree = BTreeIndex::new();
            for k in 0..keys {
                tree.insert(Value::Int((k * 7_919) % keys), RowId(k as u64));
            }
            tree
        },
    );
    out.push(metric(
        "storage.btree.insert_ns",
        insert / keys as f64,
        "ns",
    ));
    let mut tree = BTreeIndex::new();
    for k in 0..keys {
        tree.insert(Value::Int(k), RowId(k as u64));
    }
    let get = median_call_ns(samples * 4, 5_000, |call| {
        tree.get(&Value::Int((call as i64 * 104_729) % keys)).len()
    });
    out.push(metric("storage.btree.get_ns", get, "ns"));

    let (heap, versions) = catalog
        .table_names()
        .iter()
        .filter_map(|name| catalog.table(name).ok())
        .fold((0usize, 0usize), |(heap, versions), table| {
            let table = table.read();
            (heap + table.heap_size(), versions + table.version_count())
        });
    out.push(metric(
        "storage.table.heap_bytes_per_row",
        heap as f64 / versions.max(1) as f64,
        "bytes",
    ));
    Ok(())
}

/// The shared operators of the real plan on the real scan outputs.
fn operators(
    catalog: &Catalog,
    plan: &GlobalPlan,
    scale: &TpcwScale,
    samples: usize,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    let ctx = ExecContext {
        catalog,
        snapshot: catalog.snapshot(),
    };
    let run =
        |spec: &OperatorSpec, activations: &[(QueryId, Activation)], inputs: Vec<Vec<QTuple>>| {
            execute_operator(spec, activations, inputs, &ctx).expect("operator")
        };
    let is_scan_of = |plan: &GlobalPlan, id: usize, wanted: &str| matches!(&plan.node(id).spec, OperatorSpec::TableScan { table } if table == wanted);
    let hash_join = find_spec(plan, |s, _| matches!(s, OperatorSpec::HashJoin { .. }));
    let group_by = find_spec(plan, |s, _| matches!(s, OperatorSpec::GroupBy { .. }));
    let top_n = find_spec(plan, |s, inputs| {
        matches!(s, OperatorSpec::TopN { .. })
            && matches!(plan.node(inputs[0]).spec, OperatorSpec::GroupBy { .. })
    });
    let item_author = find_spec(plan, |s, inputs| {
        matches!(s, OperatorSpec::IndexNlJoin { table, .. } if table == "AUTHOR")
            && is_scan_of(plan, inputs[0], "ITEM")
    });

    let item_scan = ClockScan::new(
        catalog.table("ITEM").map_err(|e| e.to_string())?,
        catalog.oracle(),
    );
    let line_scan = ClockScan::new(
        catalog.table("ORDER_LINE").map_err(|e| e.to_string())?,
        catalog.oracle(),
    );
    let threshold = bestseller_threshold(scale);
    let scan_inputs = |q: usize| -> Result<(Vec<QTuple>, Vec<QTuple>), String> {
        let items: Vec<ScanQuery> = query_ids(q)
            .enumerate()
            .map(|(i, id)| ScanQuery::new(id, subject_equals(i)))
            .collect();
        let lines: Vec<ScanQuery> = query_ids(q)
            .map(|id| ScanQuery::new(id, Expr::col(1).gt_eq(Expr::lit(threshold))))
            .collect();
        Ok((
            item_scan
                .execute_batch(&items, &[])
                .map_err(|e| e.to_string())?
                .tuples,
            line_scan
                .execute_batch(&lines, &[])
                .map_err(|e| e.to_string())?
                .tuples,
        ))
    };
    for q in [1usize, 16, 64] {
        let (items, lines) = scan_inputs(q)?;
        let tuples = (items.len() + lines.len()) as f64;
        let activations = participate(q);
        let join = median_ns(
            samples,
            || vec![items.clone(), lines.clone()],
            |inputs| run(&hash_join, &activations, inputs),
        );
        out.push(metric(
            format!("core.operators.hash_join_ns_per_tuple.q{q}"),
            join / tuples,
            "ns",
        ));
    }

    let q = 16;
    let (items, lines) = scan_inputs(q)?;
    let joined = run(&hash_join, &participate(q), vec![items.clone(), lines]);
    let having: Vec<_> = query_ids(q)
        .map(|id| {
            (
                id,
                Activation::Having {
                    predicate: None,
                    partial: false,
                },
            )
        })
        .collect();
    let grouping = median_ns(
        samples,
        || vec![joined.clone()],
        |inputs| run(&group_by, &having, inputs),
    );
    out.push(metric(
        "core.operators.group_by_ns_per_tuple.q16",
        grouping / joined.len().max(1) as f64,
        "ns",
    ));
    let groups = run(&group_by, &having, vec![joined]);
    let limits: Vec<_> = query_ids(q)
        .map(|id| {
            (
                id,
                Activation::TopN {
                    limit: shareddb_tpcw::PAGE_SIZE,
                },
            )
        })
        .collect();
    let top = median_ns(
        samples * 2,
        || vec![groups.clone()],
        |inputs| run(&top_n, &limits, inputs),
    );
    out.push(metric(
        "core.operators.top_n_ns_per_tuple.q16",
        top / groups.len().max(1) as f64,
        "ns",
    ));
    let nl_join = median_ns(
        samples,
        || vec![items.clone()],
        |inputs| run(&item_author, &participate(q), inputs),
    );
    out.push(metric(
        "core.operators.index_nl_join_ns_per_tuple.q16",
        nl_join / items.len().max(1) as f64,
        "ns",
    ));

    // getCustomerOrder's pipeline: ORDERS probe → ORDER_LINE → ITEM → sort.
    let orders = IndexProbe::new(
        catalog.table("ORDERS").map_err(|e| e.to_string())?,
        catalog.oracle(),
    );
    let probes: Vec<ProbeQuery> = query_ids(q)
        .map(|id| {
            ProbeQuery::key(
                id,
                1,
                Value::Int(i64::from(id.0) * 31 % scale.customers as i64),
            )
        })
        .collect();
    let mut rows = orders
        .execute_batch(&probes, &[])
        .map_err(|e| e.to_string())?
        .tuples;
    for table in ["ORDER_LINE", "ITEM"] {
        let join = find_spec(plan, |s, inputs| {
            matches!(s, OperatorSpec::IndexNlJoin { table: t, .. } if t == table)
                && !is_scan_of(plan, inputs[0], "SHOPPING_CART_LINE")
                && !is_scan_of(plan, inputs[0], "AUTHOR")
        });
        rows = run(&join, &participate(q), vec![rows]);
    }
    let sort = find_spec(plan, |s, _| matches!(s, OperatorSpec::Sort { .. }));
    let sorting = median_ns(
        samples * 4,
        || vec![rows.clone()],
        |inputs| run(&sort, &participate(q), inputs),
    );
    out.push(metric(
        "core.operators.sort_ns_per_tuple.q16",
        sorting / rows.len().max(1) as f64,
        "ns",
    ));

    // Recombining two partial pages, as a second replica or segment would.
    let OperatorSpec::TopN { keys } = &top_n else {
        unreachable!("found as a TopN above");
    };
    let page: Vec<Tuple> = run(&top_n, &limits[..1], vec![groups])
        .into_iter()
        .map(|t| t.tuple)
        .collect();
    let schema = plan
        .nodes()
        .iter()
        .find(|n| n.spec == top_n)
        .expect("found above")
        .schema
        .clone();
    let merge_spec = MergeSpec::Ordered {
        keys: keys.clone(),
        limit: Some(shareddb_tpcw::PAGE_SIZE),
    };
    let halves = || {
        let (even, odd): (Vec<_>, Vec<_>) = page
            .iter()
            .cloned()
            .enumerate()
            .partition(|(i, _)| i % 2 == 0);
        [even, odd]
            .into_iter()
            .map(|rows| ResultSet {
                schema: schema.clone(),
                rows: rows.into_iter().map(|(_, row)| row).collect(),
            })
            .collect::<Vec<_>>()
    };
    let merging = median_ns(samples * 20, halves, |parts| {
        merge_results(&merge_spec, parts)
    });
    out.push(metric(
        "core.merge.merge_results_ns_per_row",
        merging / page.len().max(1) as f64,
        "ns",
    ));
    Ok(())
}

/// Phase 1 of a batch: apply, log, and what a restart pays for it.
fn storage_writes(
    catalog: &Catalog,
    scratch: &Path,
    samples: usize,
    out: &mut Vec<Metric>,
) -> Result<(), String> {
    const OPS: usize = 64;
    let mut next_id = 3_000_000_000i64;
    let mut inserts = || -> Vec<(String, UpdateOp)> {
        (0..OPS)
            .map(|i| {
                next_id += 1;
                let values = tuple![next_id, i as i64, i as i64, 1i64];
                ("ORDER_LINE".to_string(), UpdateOp::Insert { values })
            })
            .collect()
    };
    let mut round = 0i64;
    let mut updates = || -> Vec<(String, UpdateOp)> {
        round += 1;
        (0..OPS as i64)
            .map(|i| {
                let op = UpdateOp::Update {
                    assignments: vec![(4, Expr::lit(round as f64))],
                    predicate: Expr::col(0).eq(Expr::lit(round * 97 + i)),
                };
                ("ITEM".to_string(), op)
            })
            .collect()
    };
    let apply = |ops: Vec<(String, UpdateOp)>| catalog.apply_batch(&ops).expect("apply");
    out.push(metric(
        "storage.catalog.apply_batch_ns_per_op.insert",
        median_ns(samples * 2, &mut inserts, apply) / OPS as f64,
        "ns",
    ));
    out.push(metric(
        "storage.catalog.apply_batch_ns_per_op.update",
        median_ns(samples * 2, &mut updates, apply) / OPS as f64,
        "ns",
    ));

    let dir = scratch.join(format!("layers_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let file_sink = |name: &str| FileSink::create(dir.join(name)).map_err(|e| e.to_string());
    let mut ts = 0u64;
    let mut log = |wal: &Wal, ops: Vec<(String, UpdateOp)>| {
        ts += 1;
        wal.log_batch(Timestamp(ts), &ops).expect("log");
    };
    let memory = Wal::in_memory();
    out.push(metric(
        "storage.wal.log_batch_ns_per_op.mem",
        median_ns(samples * 4, &mut inserts, |ops| log(&memory, ops)) / OPS as f64,
        "ns",
    ));
    let file = Wal::new(Box::new(file_sink("flush.log")?));
    out.push(metric(
        "storage.wal.log_batch_ns_per_op.file",
        median_ns(samples * 4, &mut inserts, |ops| log(&file, ops)) / OPS as f64,
        "ns",
    ));
    let logged = file.stats_snapshot();
    out.push(metric(
        "storage.wal.bytes_per_op",
        logged.appended_bytes as f64 / (logged.batches as usize * OPS) as f64,
        "bytes",
    ));
    // Flushed by `log_batch`, synced here: the sandbox's page cache, not a
    // device.
    let synced = Wal::new(Box::new(file_sink("sync.log")?));
    let fsync = median_ns(
        samples * 2,
        || log(&synced, inserts()),
        |()| synced.sync().expect("fsync"),
    );
    out.push(metric("storage.wal.fsync_us", fsync / 1e3, "us"));

    let checkpoint = median_ns(3, || (), |()| catalog.checkpoint(&dir).expect("checkpoint"));
    out.push(metric(
        "storage.catalog.checkpoint_ms",
        checkpoint / 1e6,
        "ms",
    ));
    let info = catalog.checkpoint(&dir).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&info.path)
        .map_err(|e| e.to_string())?
        .len();
    out.push(metric(
        "storage.checkpoint.bytes_per_row",
        bytes as f64 / info.rows.max(1) as f64,
        "bytes",
    ));
    let recover = median_ns(
        2,
        || {
            let fresh = Catalog::new();
            create_schema(&fresh).expect("schema");
            fresh
        },
        |fresh| fresh.recover(&dir).expect("recover").checkpoint_rows,
    );
    out.push(metric("storage.catalog.recover_ms", recover / 1e6, "ms"));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// Query sets and expressions: the inner loops of scans and joins.
fn common(catalog: &Catalog, samples: usize, out: &mut Vec<Metric>) -> Result<(), String> {
    let even = QuerySet::from_ids((0..64).map(|i| QueryId(2 * i)));
    let odd = QuerySet::from_ids((0..64).map(|i| QueryId(2 * i + 1)));
    out.push(metric(
        "common.queryset.union_ns.q64",
        median_call_ns(samples * 4, 2_000, |_| even.union(&odd)),
        "ns",
    ));
    let item = catalog.table("ITEM").map_err(|e| e.to_string())?;
    let row = item
        .read()
        .scan_live()
        .next()
        .map(|(_, t)| t.clone())
        .ok_or("empty ITEM")?;
    let equals = subject_equals(0);
    out.push(metric(
        "common.expr.eval_eq_ns",
        median_call_ns(samples * 4, 5_000, |_| equals.eval_predicate(&row)),
        "ns",
    ));
    let like = Expr::col(1).like(Expr::lit("%BOOK 77%"));
    out.push(metric(
        "common.expr.eval_like_ns",
        median_call_ns(samples * 4, 5_000, |_| like.eval_predicate(&row)),
        "ns",
    ));
    Ok(())
}

fn sql_literal(value: &Value) -> String {
    match value {
        Value::Text(s) => format!("'{s}'"),
        other => other.to_string(),
    }
}

/// The SQL front end, over the conformance corpus: the workloads themselves
/// use prepared statements, so nothing here moves an end-to-end metric.
fn sql(samples: usize, out: &mut Vec<Metric>) -> Result<(), String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/sql_corpus");
    let cases: Vec<_> = load_corpus(&dir)?
        .into_iter()
        .filter(|case| matches!(case.expect, Expectation::Rows { .. }))
        .collect();
    let catalog = corpus_catalog();
    let statements: Vec<(&str, &str)> = cases
        .iter()
        .map(|c| (c.name.as_str(), c.sql.as_str()))
        .collect();
    let compile = median_ns(
        samples,
        || (),
        |()| compile_workload(&catalog, &statements).expect("corpus compiles"),
    );
    out.push(metric("sql.compile_workload_ms", compile / 1e6, "ms"));
    let canonical = median_call_ns(samples * 4, cases.len(), |call| {
        canonicalize(&cases[call % cases.len()].sql).expect("canonicalize")
    });
    out.push(metric("sql.canonicalize_us", canonical / 1e3, "us"));

    // An ad-hoc statement as the server receives it: literals in place of
    // the parameters, matched back to its prepared type.
    let case = cases
        .iter()
        .find(|c| !c.params.is_empty())
        .ok_or("no parameterised corpus case")?;
    let template = canonicalize(&case.sql).map_err(|e| e.to_string())?;
    let mut params = case.params.iter();
    let adhoc: String = case
        .sql
        .chars()
        .map(|c| match c {
            '?' => params.next().map_or("?".to_string(), sql_literal),
            c => c.to_string(),
        })
        .collect();
    let bind = median_call_ns(samples * 4, 200, |_| {
        let received = canonicalize(&adhoc).expect("canonicalize");
        bind_adhoc(&template, &received).expect("bind")
    });
    out.push(metric("sql.bind_adhoc_us", bind / 1e3, "us"));
    Ok(())
}

/// Everything in this file, on one freshly built data set.
pub fn measure(scale: &TpcwScale, scratch: &Path, smoke: bool) -> Result<Vec<Metric>, String> {
    let samples = if smoke { 3 } else { 7 };
    let mut out = Vec::new();

    let started = Instant::now();
    let catalog = build_catalog(scale).map_err(|e| e.to_string())?;
    let build_seconds = started.elapsed().as_secs_f64();
    let rows: usize = catalog
        .table_names()
        .iter()
        .filter_map(|name| catalog.table(name).ok())
        .map(|table| table.read().version_count())
        .sum();
    out.push(metric(
        "tpcw.build_catalog_rows_per_s",
        rows as f64 / build_seconds,
        "1/s",
    ));
    let (plan, registry) = build_shared_plan(&catalog).map_err(|e| e.to_string())?;

    let (index, spec) = registry.get("getItemById").map_err(|e| e.to_string())?;
    let options = SubmitOptions::default();
    let bind = median_call_ns(samples * 4, 2_000, |call| {
        let params = [Value::Int(call as i64 % scale.items as i64)];
        bind_query(spec, index, QueryId(1), TicketId(1), &params, &options).expect("bind")
    });
    out.push(metric("core.batch.bind_query_ns", bind, "ns"));

    // A page of 50 rows as one reply chunk, the heavy statements' usual answer.
    let item = catalog.table("ITEM").map_err(|e| e.to_string())?;
    let page: Vec<Vec<Value>> = item
        .read()
        .scan_live()
        .take(shareddb_tpcw::PAGE_SIZE)
        .map(|(_, t)| t.values().to_vec())
        .collect();
    let schema: Vec<_> = item
        .read()
        .schema()
        .columns()
        .iter()
        .map(|c| (c.qualified_name(), c.data_type))
        .collect();
    let chunk = Frame::ResultChunk {
        request_id: 1,
        flags: chunk_flags::FIRST | chunk_flags::LAST,
        rows_affected: 0,
        schema,
        rows: page,
    };
    out.push(metric(
        "server.protocol.encode_row50_ns",
        median_call_ns(samples * 4, 50, |_| chunk.encode()),
        "ns",
    ));

    storage_reads(&catalog, samples, &mut out)?;
    operators(&catalog, &plan, scale, samples, &mut out)?;
    common(&catalog, samples, &mut out)?;
    sql(samples, &mut out)?;
    // Last: it adds row versions to the tables the sections above read.
    storage_writes(&catalog, scratch, samples, &mut out)?;
    Ok(out)
}
