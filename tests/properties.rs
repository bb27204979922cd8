//! Property-based tests over the core data structures and invariants:
//!
//! * the NF² query-set algebra (union / intersection laws),
//! * the B+-tree index against a model (`BTreeMap`),
//! * the equivalence of the *shared* join/sort/top-N/group-by execution with
//!   per-query execution — the central correctness claim of the paper: routing
//!   a single big shared operator by query id returns exactly what each query
//!   would have computed on its own.

use proptest::prelude::*;
use proptest::TestRng;
use shareddb::common::agg::AggregateFunction;
use shareddb::common::{QTuple, QueryId, QuerySet, SortKey, Tuple, Value};
use shareddb::core::batch::Activation;
use shareddb::core::operators::{execute_operator, ExecContext};
use shareddb::core::plan::{AggregateSpec, OperatorSpec};
use shareddb::storage::table::RowId;
use shareddb::storage::{BTreeIndex, Catalog};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::ops::Bound;

// ---------------------------------------------------------------------------
// QuerySet laws
// ---------------------------------------------------------------------------

fn qs(ids: &[u32]) -> QuerySet {
    ids.iter().copied().collect()
}

proptest! {
    #[test]
    fn queryset_union_and_intersection_match_btreeset(a in proptest::collection::vec(0u32..200, 0..40),
                                                      b in proptest::collection::vec(0u32..200, 0..40)) {
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        let qa = qs(&a);
        let qb = qs(&b);
        let union: Vec<u32> = qa.union(&qb).iter().map(|q| q.raw()).collect();
        let expect_union: Vec<u32> = sa.union(&sb).copied().collect();
        prop_assert_eq!(union, expect_union);
        let inter: Vec<u32> = qa.intersect(&qb).iter().map(|q| q.raw()).collect();
        let expect_inter: Vec<u32> = sa.intersection(&sb).copied().collect();
        prop_assert_eq!(&inter, &expect_inter);
        prop_assert_eq!(qa.intersects(&qb), !expect_inter.is_empty());
        // Commutativity.
        prop_assert_eq!(qa.intersect(&qb), qb.intersect(&qa));
        prop_assert_eq!(qa.union(&qb), qb.union(&qa));
    }

    #[test]
    fn queryset_insert_remove_contains(ops in proptest::collection::vec((0u32..100, any::<bool>()), 0..200)) {
        let mut set = QuerySet::new();
        let mut model: BTreeSet<u32> = BTreeSet::new();
        for (id, insert) in ops {
            if insert {
                prop_assert_eq!(set.insert(QueryId(id)), model.insert(id));
            } else {
                prop_assert_eq!(set.remove(QueryId(id)), model.remove(&id));
            }
        }
        let got: Vec<u32> = set.iter().map(|q| q.raw()).collect();
        let expect: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(got, expect);
    }
}

/// `QuerySet` keeps a handful of ids inline and a longer list in a shared
/// slice: random operations around that boundary (0..=12 ids, so a set
/// crosses it both ways), each checked against `BTreeSet`. Mutations of
/// `crates/common/src/queryset.rs` this was checked to kill are listed in
/// CHANGES.md (PR 20).
mod queryset_across_the_inline_boundary {
    use super::*;

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (0..n).generate(rng)
    }

    /// Up to twelve ids under 16 — sets overlap and are often equal — or, now
    /// and then, a long one that sends `intersect` down its binary-search
    /// path.
    fn some_ids(rng: &mut TestRng) -> Vec<u32> {
        if pick(rng, 8) == 0 {
            let step = 1 + pick(rng, 3) as u32;
            return (0..100 + pick(rng, 100) as u32).map(|i| i * step).collect();
        }
        (0..pick(rng, 13)).map(|_| pick(rng, 16) as u32).collect()
    }

    #[derive(Debug)]
    enum Op {
        FromIds(Vec<u32>),
        FromIdsLike(Vec<u32>),
        Insert(u32),
        Remove(u32),
        Union(Vec<u32>),
        UnionInPlace(Vec<u32>),
        Intersect(Vec<u32>),
        RetainIn(Vec<u32>),
    }

    struct Ops;

    impl Strategy for Ops {
        type Value = Vec<Op>;
        fn generate(&self, rng: &mut TestRng) -> Vec<Op> {
            let op = |rng: &mut TestRng| match pick(rng, 12) {
                0 => Op::FromIds(some_ids(rng)),
                1 => Op::FromIdsLike(some_ids(rng)),
                2..=4 => Op::Insert(pick(rng, 16) as u32),
                5..=7 => Op::Remove(pick(rng, 16) as u32),
                8 => Op::Union(some_ids(rng)),
                9 => Op::UnionInPlace(some_ids(rng)),
                10 => Op::Intersect(some_ids(rng)),
                _ => Op::RetainIn(some_ids(rng)),
            };
            (0..1 + pick(rng, 40)).map(|_| op(rng)).collect()
        }
    }

    fn raw(set: &QuerySet) -> Vec<u32> {
        set.iter().map(QueryId::raw).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn queryset_matches_btreeset(ops in Ops) {
            let mut set = QuerySet::new();
            let mut model: BTreeSet<u32> = BTreeSet::new();
            for op in &ops {
                let before = set.clone();
                match op {
                    Op::FromIds(ids) => {
                        set = QuerySet::from_ids(ids.iter().copied().map(QueryId));
                        model = ids.iter().copied().collect();
                    }
                    Op::FromIdsLike(ids) => {
                        // Once like the current set, once like itself: the
                        // second is handed on, not rebuilt.
                        let mut scratch: Vec<QueryId> = ids.iter().copied().map(QueryId).collect();
                        set = QuerySet::from_ids_like(&mut scratch, &set);
                        model = ids.iter().copied().collect();
                        scratch.extend(ids.iter().rev().copied().map(QueryId));
                        let again = QuerySet::from_ids_like(&mut scratch, &set);
                        prop_assert_eq!(&again, &set);
                        let handed_on = std::ptr::eq(again.as_slice(), set.as_slice());
                        prop_assert_eq!(handed_on, set.heap_size() > 0, "{:?}", again);
                    }
                    Op::Insert(id) => {
                        prop_assert_eq!(set.insert(QueryId(*id)), model.insert(*id), "{:?}", op);
                    }
                    Op::Remove(id) => {
                        prop_assert_eq!(set.remove(QueryId(*id)), model.remove(id), "{:?}", op);
                    }
                    Op::Union(ids) => {
                        set = set.union(&qs(ids));
                        prop_assert_eq!(&set, &qs(ids).union(&before));
                        model.extend(ids);
                    }
                    Op::UnionInPlace(ids) => {
                        set.union_in_place(&qs(ids));
                        model.extend(ids);
                    }
                    Op::Intersect(ids) => {
                        let other = qs(ids);
                        let common = model.iter().any(|id| ids.contains(id));
                        prop_assert_eq!(set.intersects(&other), common);
                        prop_assert_eq!(other.intersects(&set), common);
                        set = set.intersect(&other);
                        prop_assert_eq!(&set, &other.intersect(&before));
                        model.retain(|id| ids.contains(id));
                    }
                    Op::RetainIn(ids) => {
                        set.retain_in(&qs(ids));
                        model.retain(|id| ids.contains(id));
                    }
                }
                // The set reads as the model whichever way it is stored …
                let expected: Vec<u32> = model.iter().copied().collect();
                prop_assert_eq!(raw(&set), expected.clone(), "after {:?} on {:?}", op, before);
                let slice: Vec<u32> = set.as_slice().iter().map(|q| q.raw()).collect();
                prop_assert_eq!(&slice, &expected);
                prop_assert_eq!((set.len(), set.is_empty()), (model.len(), model.is_empty()));
                for id in 0..17 {
                    prop_assert_eq!(set.contains(QueryId(id)), model.contains(&id));
                }
                // … is stored inline exactly when it is a handful, and equals
                // — and hashes as — the same set built any other way.
                prop_assert_eq!(set.heap_size() == 0, model.len() <= 5, "{:?}", set);
                let rebuilt: QuerySet = expected.iter().rev().copied().collect();
                prop_assert_eq!(&rebuilt, &set);
                prop_assert_eq!(hash_of(&rebuilt), hash_of(&set));
                prop_assert_eq!(set.to_string(), rebuilt.to_string());
            }
        }
    }
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

// ---------------------------------------------------------------------------
// Tuple: a join reads as the flat row
// ---------------------------------------------------------------------------

/// A tuple as a tree of `concat`s over rows.
#[derive(Debug, Clone)]
enum Shape {
    Row(Vec<Value>),
    Join(Box<Shape>, Box<Shape>),
}

impl Shape {
    fn any(rng: &mut TestRng, depth: usize) -> Shape {
        let pick = |rng: &mut TestRng, n: usize| (0..n).generate(rng);
        if depth == 0 || pick(rng, 3) == 0 {
            let value = |rng: &mut TestRng| match pick(rng, 4) {
                0 => Value::Null,
                1 => Value::text(["", "a", "ab"][pick(rng, 3)]),
                _ => Value::Int(pick(rng, 3) as i64),
            };
            // Rows without values included: a side may be empty.
            return Shape::Row((0..pick(rng, 4)).map(|_| value(rng)).collect());
        }
        let side = |rng: &mut TestRng| Box::new(Shape::any(rng, depth - 1));
        Shape::Join(side(rng), side(rng))
    }

    fn build(&self) -> Tuple {
        match self {
            Shape::Row(values) => Tuple::new(values.clone()),
            Shape::Join(left, right) => left.build().concat(&right.build()),
        }
    }

    fn flat(&self) -> Vec<Value> {
        match self {
            Shape::Row(values) => values.clone(),
            Shape::Join(left, right) => [left.flat(), right.flat()].concat(),
        }
    }
}

struct Shapes;

impl Strategy for Shapes {
    type Value = (Shape, Shape);
    /// Two shapes; half the time the second holds the values of the first
    /// under another shape, so that equal tuples of different shapes meet.
    fn generate(&self, rng: &mut TestRng) -> (Shape, Shape) {
        let first = Shape::any(rng, 3);
        let second = match (0..2).generate(rng) {
            0 => Shape::any(rng, 3),
            _ => {
                let values = first.flat();
                let (left, right) = values.split_at((0..values.len() + 1).generate(rng));
                let row = |values: &[Value]| Box::new(Shape::Row(values.to_vec()));
                Shape::Join(row(left), row(right))
            }
        };
        (first, second)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn a_nested_join_reads_as_the_flat_row((shape, other) in Shapes) {
        let (tuple, flat) = (shape.build(), shape.flat());
        let row = Tuple::new(flat.clone());
        prop_assert_eq!((tuple.len(), tuple.is_empty()), (flat.len(), flat.is_empty()));
        for i in 0..flat.len() + 2 {
            prop_assert_eq!(tuple.get(i), flat.get(i), "get({}) of {:?}", i, shape);
        }
        for (i, value) in flat.iter().enumerate() {
            prop_assert_eq!(&tuple[i], value);
        }
        prop_assert!(tuple.iter().eq(flat.iter()), "iter of {:?}", shape);
        prop_assert_eq!(tuple.iter().len(), flat.len());
        prop_assert_eq!(&*tuple.values(), &flat[..]);
        let reversed: Vec<usize> = (0..flat.len()).rev().collect();
        prop_assert_eq!(tuple.project(&reversed), row.project(&reversed));
        prop_assert_eq!(tuple.project(&reversed).into_values(), flat.iter().rev().cloned().collect::<Vec<_>>());
        prop_assert_eq!(tuple.clone().into_values(), flat.clone());
        prop_assert_eq!(tuple.to_string(), row.to_string());
        // Equality, hashing and order see the values, never the shape.
        prop_assert_eq!(&tuple, &row);
        prop_assert_eq!(hash_of(&tuple), hash_of(&row));
        let (other_tuple, other_flat) = (other.build(), other.flat());
        prop_assert_eq!(tuple == other_tuple, flat == other_flat);
        prop_assert_eq!(tuple.cmp(&other_tuple), flat.cmp(&other_flat), "{:?} against {:?}", shape, other);
        prop_assert_eq!(tuple.partial_cmp(&other_tuple), Some(flat.cmp(&other_flat)));
        if flat == other_flat {
            prop_assert_eq!(hash_of(&tuple), hash_of(&other_tuple));
        }
        // Shared is not the same as equal: a clone is the tuple itself, a
        // rebuilt one is not, whatever the shape.
        prop_assert!(tuple.ptr_eq(&tuple.clone()));
        prop_assert!(!tuple.ptr_eq(&shape.build()));
        prop_assert!(!tuple.ptr_eq(&row) && row.ptr_eq(&row.clone()));
        prop_assert_eq!(tuple.sides().is_some(), matches!(shape, Shape::Join(..)));
    }
}

/// What the arena stores per version and the operators move per tuple.
#[test]
fn tuples_and_query_sets_stay_small() {
    assert_eq!(std::mem::size_of::<Tuple>(), 16);
    assert!(std::mem::size_of::<QuerySet>() <= 24);
    assert!(std::mem::size_of::<QTuple>() <= 40);
}

// ---------------------------------------------------------------------------
// B+-tree vs model
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn btree_matches_model(ops in proptest::collection::vec((0i64..500, 0u64..50, any::<bool>()), 1..400),
                           lo in 0i64..500, len in 0i64..100) {
        let mut tree = BTreeIndex::new();
        let mut model: BTreeMap<i64, BTreeSet<u64>> = BTreeMap::new();
        for (key, row, insert) in ops {
            if insert {
                tree.insert(Value::Int(key), RowId(row));
                model.entry(key).or_default().insert(row);
            } else {
                tree.remove(&Value::Int(key), RowId(row));
                if let Some(set) = model.get_mut(&key) {
                    set.remove(&row);
                    if set.is_empty() {
                        model.remove(&key);
                    }
                }
            }
        }
        tree.check_invariants().unwrap();
        // Point lookups.
        for (key, rows) in &model {
            let got: BTreeSet<u64> = tree.get(&Value::Int(*key)).iter().map(|r| r.0).collect();
            prop_assert_eq!(&got, rows);
        }
        prop_assert_eq!(tree.entry_count(), model.values().map(|s| s.len()).sum::<usize>());
        // Range scan.
        let hi = lo + len;
        let got: Vec<i64> = tree
            .range(Bound::Included(&Value::Int(lo)), Bound::Excluded(&Value::Int(hi)))
            .into_iter()
            .map(|(k, _)| k.as_int().unwrap())
            .collect();
        let expect: Vec<i64> = model
            .range(lo..hi)
            .flat_map(|(k, rows)| std::iter::repeat_n(*k, rows.len()))
            .collect();
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------------
// Shared execution == per-query execution
// ---------------------------------------------------------------------------

/// Strategy: a small relation where every row is subscribed to a random
/// subset of `queries` queries.
fn annotated_rows(queries: u32) -> impl Strategy<Value = Vec<(i64, i64, Vec<u32>)>> {
    proptest::collection::vec(
        (
            0i64..20,
            0i64..50,
            proptest::collection::vec(0..queries, 0..queries as usize),
        ),
        0..60,
    )
}

fn to_qtuples(rows: &[(i64, i64, Vec<u32>)]) -> Vec<QTuple> {
    rows.iter()
        .map(|(k, v, subs)| {
            QTuple::new(
                Tuple::new(vec![Value::Int(*k), Value::Int(*v)]),
                subs.iter().map(|q| QueryId(*q + 1)).collect(),
            )
        })
        .collect()
}

fn rows_for_query(out: &[QTuple], q: u32) -> Vec<Tuple> {
    out.iter()
        .filter(|t| t.queries.contains(QueryId(q + 1)))
        .map(|t| t.tuple.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn shared_join_equals_per_query_join(left in annotated_rows(4), right in annotated_rows(4)) {
        let catalog = Catalog::new();
        let ctx = ExecContext { catalog: &catalog, snapshot: catalog.oracle().read_ts() };
        let spec = OperatorSpec::HashJoin { build_key: 0, probe_key: 0 };
        let all: Vec<(QueryId, Activation)> =
            (0..4u32).map(|q| (QueryId(q + 1), Activation::Participate)).collect();
        let shared = execute_operator(&spec, &all, vec![to_qtuples(&left), to_qtuples(&right)], &ctx).unwrap();
        for q in 0..4u32 {
            // Per-query execution: restrict the inputs to query q only.
            let lq: Vec<QTuple> = to_qtuples(&left)
                .into_iter()
                .filter(|t| t.queries.contains(QueryId(q + 1)))
                .map(|t| QTuple::new(t.tuple, QuerySet::singleton(QueryId(q + 1))))
                .collect();
            let rq: Vec<QTuple> = to_qtuples(&right)
                .into_iter()
                .filter(|t| t.queries.contains(QueryId(q + 1)))
                .map(|t| QTuple::new(t.tuple, QuerySet::singleton(QueryId(q + 1))))
                .collect();
            let solo = execute_operator(
                &spec,
                &[(QueryId(q + 1), Activation::Participate)],
                vec![lq, rq],
                &ctx,
            )
            .unwrap();
            let mut shared_rows = rows_for_query(&shared, q);
            let mut solo_rows = rows_for_query(&solo, q);
            shared_rows.sort();
            solo_rows.sort();
            prop_assert_eq!(shared_rows, solo_rows, "query {} differs", q);
        }
    }

    #[test]
    fn shared_topn_equals_per_query_topn(input in annotated_rows(3), limit in 1usize..8) {
        let catalog = Catalog::new();
        let ctx = ExecContext { catalog: &catalog, snapshot: catalog.oracle().read_ts() };
        let spec = OperatorSpec::TopN { keys: vec![SortKey::desc(1), SortKey::asc(0)] };
        let all: Vec<(QueryId, Activation)> =
            (0..3u32).map(|q| (QueryId(q + 1), Activation::TopN { limit })).collect();
        let shared = execute_operator(&spec, &all, vec![to_qtuples(&input)], &ctx).unwrap();
        for q in 0..3u32 {
            let iq: Vec<QTuple> = to_qtuples(&input)
                .into_iter()
                .filter(|t| t.queries.contains(QueryId(q + 1)))
                .map(|t| QTuple::new(t.tuple, QuerySet::singleton(QueryId(q + 1))))
                .collect();
            let solo = execute_operator(
                &spec,
                &[(QueryId(q + 1), Activation::TopN { limit })],
                vec![iq],
                &ctx,
            )
            .unwrap();
            // Top-N results are ordered: compare in order.
            prop_assert_eq!(rows_for_query(&shared, q), rows_for_query(&solo, q));
        }
    }

    #[test]
    fn shared_group_by_equals_per_query_group_by(input in annotated_rows(3)) {
        let catalog = Catalog::new();
        let ctx = ExecContext { catalog: &catalog, snapshot: catalog.oracle().read_ts() };
        let spec = OperatorSpec::GroupBy {
            group_columns: vec![0],
            aggregates: vec![
                AggregateSpec { function: AggregateFunction::Sum, column: 1, output_name: "S".into() },
                AggregateSpec { function: AggregateFunction::Count, column: 1, output_name: "C".into() },
            ],
        };
        let all: Vec<(QueryId, Activation)> =
            (0..3u32).map(|q| (QueryId(q + 1), Activation::Having { predicate: None, partial: false })).collect();
        let shared = execute_operator(&spec, &all, vec![to_qtuples(&input)], &ctx).unwrap();
        for q in 0..3u32 {
            let iq: Vec<QTuple> = to_qtuples(&input)
                .into_iter()
                .filter(|t| t.queries.contains(QueryId(q + 1)))
                .map(|t| QTuple::new(t.tuple, QuerySet::singleton(QueryId(q + 1))))
                .collect();
            let solo = execute_operator(
                &spec,
                &[(QueryId(q + 1), Activation::Having { predicate: None, partial: false })],
                vec![iq],
                &ctx,
            )
            .unwrap();
            let mut shared_rows = rows_for_query(&shared, q);
            let mut solo_rows = rows_for_query(&solo, q);
            shared_rows.sort();
            solo_rows.sort();
            prop_assert_eq!(shared_rows, solo_rows, "query {} differs", q);
        }
    }
}

// ---------------------------------------------------------------------------
// Storage: snapshot isolation under random update batches
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn old_snapshots_are_immutable(deletes in proptest::collection::vec(0i64..100, 1..20)) {
        use shareddb::common::{DataType, Expr};
        use shareddb::storage::{TableDef, UpdateOp};
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("T")
                    .column("ID", DataType::Int)
                    .column("V", DataType::Int)
                    .primary_key(&["ID"]),
            )
            .unwrap();
        catalog
            .bulk_load("T", (0..100i64).map(|i| shareddb::common::tuple![i, i]).collect())
            .unwrap();
        let before = catalog.oracle().read_ts();
        for key in deletes {
            catalog
                .apply_batch(&[(
                    "T".into(),
                    UpdateOp::Delete { predicate: Expr::col(0).eq(Expr::lit(key)) },
                )])
                .unwrap();
        }
        // The old snapshot still sees all 100 rows, regardless of what was
        // deleted afterwards.
        let table = catalog.table("T").unwrap();
        prop_assert_eq!(table.read().scan(before).count(), 100);
    }
}

// ---------------------------------------------------------------------------
// Index look-ups agree with `sql_cmp`
// ---------------------------------------------------------------------------

/// `Int(5) = Date(5)` under `sql_cmp` — what a scan and `Expr::eval` go by —
/// while the B-tree and the key map file the two apart. Every index look-up
/// spells its key both ways: the shared index probe, the index nested-loops
/// join, and the query-at-a-time baseline find what the scan finds.
#[test]
fn index_probe_spells_int_and_date_alike() {
    use shareddb::baseline::exec::{execute_plan, QueryPlan};
    use shareddb::common::{tuple, DataType, Expr};
    use shareddb::storage::{IndexDef, IndexProbe, ProbeQuery, TableDef};

    let catalog = Catalog::new();
    let items = TableDef::new("ITEM")
        .column("I_ID", DataType::Int)
        .column("I_PUB", DataType::Date)
        .primary_key(&["I_ID"]);
    catalog.create_table(items).unwrap();
    let (name, table, column) = ("ITEM_PUB".into(), "ITEM".into(), "I_PUB".into());
    let by_date = IndexDef {
        name,
        table,
        column,
    };
    catalog.create_index(by_date).unwrap();
    let orders = TableDef::new("ORDERS")
        .column("O_ID", DataType::Int)
        .column("O_DATE", DataType::Date)
        .primary_key(&["O_ID"]);
    catalog.create_table(orders).unwrap();
    let dated = |id: i64, day: i64| tuple![id, Value::Date(day)];
    let rows = vec![dated(4, 5), dated(5, 9), dated(6, 5)];
    catalog.bulk_load("ITEM", rows).unwrap();
    catalog.bulk_load("ORDERS", vec![dated(1, 5)]).unwrap();
    let snapshot = catalog.snapshot();
    let ids = |rows: Vec<Tuple>| -> Vec<i64> {
        let mut ids: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        ids.sort_unstable();
        ids
    };
    // (column, the key as the column does not spell it, the rows a scan finds)
    for (column, key, expected) in [(0, Value::Date(5), vec![5]), (1, Value::Int(5), vec![4, 6])] {
        let equals = Expr::col(column).eq(Expr::Literal(key.clone()));
        let scanned = execute_plan(
            &catalog,
            &QueryPlan::scan_where("ITEM", equals),
            &[],
            snapshot,
        );
        assert_eq!(ids(scanned.unwrap().rows), expected);
        let probe = IndexProbe::new(catalog.table("ITEM").unwrap(), catalog.oracle());
        let probed = probe.execute_batch(&[ProbeQuery::key(QueryId(1), column, key.clone())], &[]);
        let probed = probed.unwrap().tuples;
        assert_eq!(ids(probed.into_iter().map(|t| t.tuple).collect()), expected);
        let lookup = QueryPlan::IndexLookup {
            table: "ITEM".into(),
            column,
            key: Expr::param(0),
            residual: None,
        };
        let looked_up = execute_plan(&catalog, &lookup, &[key], snapshot);
        assert_eq!(ids(looked_up.unwrap().rows), expected);
    }
    // ORDERS.O_DATE (a date) joined into ITEM.I_ID (integers): order 1 of
    // day 5 meets item 5.
    let ctx = ExecContext {
        catalog: &catalog,
        snapshot,
    };
    let join = OperatorSpec::IndexNlJoin {
        table: "ITEM".into(),
        outer_key: 1,
        inner_column: 0,
    };
    let outer = vec![QTuple::new(dated(1, 5), qs(&[1]))];
    let activations = [(QueryId(1), Activation::Participate)];
    let joined = execute_operator(&join, &activations, vec![outer], &ctx).unwrap();
    let expected = tuple![1i64, Value::Date(5), 5i64, Value::Date(9)];
    assert_eq!(joined.len(), 1);
    assert_eq!(joined[0].tuple, expected);
    let classic = QueryPlan::IndexNlJoin {
        outer: Box::new(QueryPlan::scan("ORDERS")),
        table: "ITEM".into(),
        outer_key: 1,
        inner_column: 0,
    };
    let joined = execute_plan(&catalog, &classic, &[], snapshot).unwrap();
    assert_eq!(joined.rows, vec![expected]);
}
