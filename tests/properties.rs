//! Property-based tests over the core data structures and invariants:
//!
//! * the NF² query-set algebra (union / intersection laws),
//! * the equivalence of the *shared* join/sort/top-N/group-by execution with
//!   per-query execution — the central correctness claim of the paper: routing
//!   a single big shared operator by query id returns exactly what each query
//!   would have computed on its own.

use proptest::prelude::*;
use proptest::TestRng;
use shareddb::common::agg::AggregateFunction;
use shareddb::common::queryset;
use shareddb::common::{QTuple, QueryId, QuerySet, SortKey, Tuple, Value};
use shareddb::core::batch::Activation;
use shareddb::core::operators::{execute_operator, ExecContext};
use shareddb::core::plan::{AggregateSpec, OperatorSpec};
use shareddb::storage::Catalog;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};

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

/// `QuerySet` is one word while its ids span at most 64 and shared words
/// beyond: random operations around that boundary — ids from four bases, the
/// last at the top of the id space, spread over spans from a handful to a
/// few hundred, so a set crosses it both ways and meets sets based
/// elsewhere — each checked against `BTreeSet`. Mutations of
/// `crates/common/src/queryset.rs` this was checked to kill are listed in
/// CHANGES.md (PR 20, and the bit words of PR 41).
mod queryset_across_the_inline_boundary {
    use super::*;

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (0..n).generate(rng)
    }

    /// Where the ids of a case lie: `BASES[b] + 0 .. SPAN`.
    const BASES: [u32; 4] = [0, 40, 1_000, u32::MAX - SPAN];
    const SPAN: u32 = 300;

    /// An id near one of the bases: mostly within a word of it.
    fn some_id(rng: &mut TestRng, base: u32) -> u32 {
        let reach = [16, 70, SPAN as usize][pick(rng, 3)];
        base + pick(rng, reach) as u32
    }

    /// Up to twelve ids near one base — sets overlap and are often equal —
    /// or, now and then, a long run with a step that spans several words.
    fn some_ids(rng: &mut TestRng) -> Vec<u32> {
        let base = BASES[pick(rng, BASES.len())];
        if pick(rng, 8) == 0 {
            let step = 1 + pick(rng, 3) as u32;
            return (0..50 + pick(rng, 50) as u32)
                .map(|i| base + i * step)
                .collect();
        }
        (0..pick(rng, 13)).map(|_| some_id(rng, base)).collect()
    }

    #[derive(Debug)]
    enum Op {
        FromIds(Vec<u32>),
        Insert(u32),
        Remove(u32),
        Union(Vec<u32>),
        UnionInPlace(Vec<u32>),
        Intersect(Vec<u32>),
        RetainIn(Vec<u32>),
        /// The set and these, through one `queryset::Union`: a set of one
        /// id is inserted, the others added.
        UnionOfAll(Vec<Vec<u32>>),
    }

    struct Ops;

    impl Strategy for Ops {
        type Value = Vec<Op>;
        fn generate(&self, rng: &mut TestRng) -> Vec<Op> {
            let op = |rng: &mut TestRng| {
                let base = BASES[pick(rng, BASES.len())];
                match pick(rng, 12) {
                    11 => Op::UnionOfAll((0..pick(rng, 5)).map(|_| some_ids(rng)).collect()),
                    0 => Op::FromIds(some_ids(rng)),
                    1..=3 => Op::Insert(some_id(rng, base)),
                    4..=6 => Op::Remove(some_id(rng, base)),
                    7 => Op::Union(some_ids(rng)),
                    8 => Op::UnionInPlace(some_ids(rng)),
                    9 => Op::Intersect(some_ids(rng)),
                    _ => Op::RetainIn(some_ids(rng)),
                }
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
            // One for the whole case: a union reuses what the last left.
            let mut union = queryset::Union::default();
            for op in &ops {
                let before = set.clone();
                match op {
                    Op::FromIds(ids) => {
                        set = QuerySet::from_ids(ids.iter().copied().map(QueryId));
                        model = ids.iter().copied().collect();
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
                    Op::UnionOfAll(sets) => {
                        union.add(&set);
                        for ids in sets {
                            match ids[..] {
                                [id] => union.insert(QueryId(id)),
                                _ => union.add(&qs(ids)),
                            }
                            model.extend(ids);
                        }
                        set = union.take();
                        prop_assert!(union.is_empty());
                    }
                }
                // The set reads as the model whichever way it is stored …
                let expected: Vec<u32> = model.iter().copied().collect();
                prop_assert_eq!(raw(&set), expected.clone(), "after {:?} on {:?}", op, before);
                prop_assert_eq!((set.len(), set.is_empty()), (model.len(), model.is_empty()));
                for base in BASES {
                    for id in (base..base + SPAN).step_by(7) {
                        prop_assert_eq!(set.contains(QueryId(id)), model.contains(&id));
                    }
                }
                for id in &expected {
                    prop_assert!(set.contains(QueryId(*id)));
                }
                // … is one word exactly when its ids span at most 64, and
                // equals — and hashes as — the same set built any other way.
                let span = model.last().zip(model.first()).map_or(0, |(hi, lo)| hi - lo);
                prop_assert_eq!(set.heap_size() == 0, span < 64, "{:?}", set);
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
    assert_eq!(std::mem::size_of::<Value>(), 24);
    assert_eq!(std::mem::size_of::<Tuple>(), 16);
    assert!(std::mem::size_of::<QuerySet>() <= 16);
    assert!(std::mem::size_of::<QTuple>() <= 32);
}

// ---------------------------------------------------------------------------
// Text == String
// ---------------------------------------------------------------------------

/// Strings of 0 to 40 bytes, most near the 22 a `Text` holds in place, of
/// characters one to four bytes long.
struct Strings;

impl Strategy for Strings {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        const CHARS: [char; 8] = ['a', 'B', ' ', '\'', '\u{e9}', '\u{20ac}', '\u{1f600}', '%'];
        let bytes = match (0..3usize).generate(rng) {
            0 => (0..41usize).generate(rng),
            _ => (19..26usize).generate(rng),
        };
        let mut text = String::new();
        loop {
            let next = CHARS[(0..CHARS.len()).generate(rng)];
            if text.len() + next.len_utf8() > bytes {
                return text;
            }
            text.push(next);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A `Text` is the string it was built from: it derefs to it, compares,
    /// orders, hashes and prints as it does, lies in the value up to 22
    /// bytes and in an allocation of its own length beyond, and comes back
    /// from the WAL and from the wire as it went.
    #[test]
    fn text_is_the_string_it_was_built_from(a in Strings, b in Strings) {
        use shareddb::common::Text;
        use shareddb::server::protocol::Frame;
        use shareddb::storage::wal::{encode_frame, scan_frames, LogRecord};
        use shareddb::storage::UpdateOp;

        let (ta, tb) = (Text::from(a.as_str()), Text::from(b.clone()));
        prop_assert_eq!(&*ta, a.as_str());
        prop_assert_eq!(ta.as_str(), a.as_str());
        prop_assert_eq!(ta.len(), a.len());
        prop_assert_eq!(ta == tb, a == b);
        prop_assert_eq!(ta.cmp(&tb), a.cmp(&b));
        prop_assert_eq!(hash_of(&ta), hash_of(&a));
        prop_assert_eq!(ta.to_string(), a.clone());
        prop_assert_eq!(format!("{ta:?}"), format!("{a:?}"));
        prop_assert_eq!(format!("{ta:>30}|"), format!("{a:>30}|"));
        prop_assert!(ta.clone() == ta);
        let (va, vb) = (Value::text(a.as_str()), Value::from(b.clone()));
        prop_assert_eq!(va.cmp(&vb), a.cmp(&b));
        prop_assert_eq!(va.sql_cmp(&vb), Some(a.cmp(&b)));
        prop_assert_eq!(va.as_text().unwrap(), a.as_str());
        prop_assert_eq!(va.to_string(), format!("'{a}'"));
        prop_assert_eq!(va.heap_size(), if a.len() <= 22 { 0 } else { a.len() });
        // The WAL's frames and the wire.
        let op = UpdateOp::Insert { values: Tuple::new(vec![va.clone(), Value::Int(1), vb.clone()]) };
        let record = LogRecord::Apply { table: "T".into(), op };
        let mut scanned = Vec::new();
        let frame = encode_frame(7, &record);
        let scan = scan_frames(&frame[..], |_, record| {
            scanned.push(record);
            Ok(())
        });
        prop_assert!(scan.unwrap().torn.is_none());
        prop_assert_eq!(scanned, vec![record]);
        let frame = Frame::ExecutePrepared { request_id: 1, statement_id: 2, params: vec![va, vb] };
        let body = frame.encode();
        // A frame is its length, then its body.
        prop_assert_eq!(Frame::decode(&body[4..]).unwrap(), frame);
    }
}

// ---------------------------------------------------------------------------
// Key words: the order and the equality they stand for
// ---------------------------------------------------------------------------

/// Values that meet where the words could go wrong: an integer and the float
/// equal to it, integers beyond 2^53 (which several share one `f64`), both
/// zeros, both NaNs, the infinities, dates at the ends of their range, NULL,
/// booleans, and texts that share eight bytes or more, end before them, or
/// are cut by them inside a character of two, three or four bytes.
struct KeyValues;

impl Strategy for KeyValues {
    type Value = Value;
    fn generate(&self, rng: &mut TestRng) -> Value {
        const BIG: i64 = 1 << 53;
        let pick = |rng: &mut TestRng, n: usize| (0..n).generate(rng);
        let small = |rng: &mut TestRng| pick(rng, 7) as i64 - 3;
        let integer = |rng: &mut TestRng| match pick(rng, 6) {
            0 => BIG + small(rng),
            1 => -BIG + small(rng),
            2 => [i64::MAX, i64::MIN, i64::MAX - 1, 1 << 61, -(1 << 61)][pick(rng, 5)],
            3 => small(rng) << (20 + pick(rng, 30)),
            _ => small(rng),
        };
        match pick(rng, 12) {
            0 => Value::Null,
            1 => Value::Bool(pick(rng, 2) == 0),
            2 | 3 => Value::Int(integer(rng)),
            4 => Value::Float(integer(rng) as f64),
            5 => Value::Float(small(rng) as f64 + [0.0, 0.5, -0.25, 1e-300][pick(rng, 4)]),
            6 => {
                let odd = [
                    0.0,
                    -0.0,
                    f64::NAN,
                    -f64::NAN,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                ];
                Value::Float(odd[pick(rng, 6)])
            }
            7 => Value::Float(f64::from_bits(rng.next_u64())),
            8 => Value::Date(integer(rng)),
            _ => {
                const STEMS: [&str; 6] = [
                    "",
                    "TITLE 1",
                    "TITLE 12",
                    "abcdef\u{e9}",
                    "abcde\u{20ac}",
                    "abcde\u{1f600}",
                ];
                const TAILS: [&str; 6] = ["", " ", "0", "z", "\u{e9}", " OF BOOK"];
                let (stem, tail) = (STEMS[pick(rng, 6)], TAILS[pick(rng, 6)]);
                Value::text(format!("{stem}{tail}"))
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// An order word is *weakly* monotone under the total order of values,
    /// in both directions: where two words differ, the values compare the
    /// way the words do (equal words decide nothing). And a hash word is
    /// equal for values that are: alone, and as part of a longer key.
    /// Mutations of `crates/common/src/value.rs` this was checked to kill
    /// are listed in CHANGES.md (PR 30).
    #[test]
    fn key_words_stand_for_the_order_and_the_equality_of_values(a in KeyValues, b in KeyValues, c in KeyValues) {
        use shareddb::common::{hash_words, SortOrder};
        use std::cmp::Ordering;
        for order in [SortOrder::Ascending, SortOrder::Descending] {
            let by_word = a.order_word(order).cmp(&b.order_word(order));
            if by_word != Ordering::Equal {
                prop_assert_eq!(by_word, order.apply(a.cmp(&b)), "{:?} {:?} {:?}", a, b, order);
            }
        }
        if a == b {
            prop_assert_eq!(a.hash_word(), b.hash_word(), "{:?} {:?}", a, b);
            prop_assert_eq!(hash_words([&c, &a]), hash_words([&c, &b]));
            prop_assert_eq!(hash_words([&a, &c]), hash_words([&b, &c]));
        }
        prop_assert_eq!(a.hash_word(), hash_words([&a]));
    }
}

/// What the words are worth where they can be exact: integers up to 2^51,
/// dates, booleans and texts of up to seven bytes have a word of their own —
/// a tie is the same value —, and the word of a text reaches into its eighth
/// byte. A key of several values is not the hash of its parts shuffled.
#[test]
fn key_words_tell_apart_what_fits_in_them() {
    use shareddb::common::{hash_words, SortOrder::Ascending};
    let word = |v: &Value| v.order_word(Ascending);
    let mut exact: Vec<Value> = vec![Value::Null, Value::Bool(false), Value::Bool(true)];
    exact.extend([0, 1, -1, 97, 1 << 51, -(1 << 51), (1 << 51) - 1].map(Value::Int));
    exact.extend([0, 1, -1, 15_403, 1 << 60, i64::MIN >> 3].map(Value::Date));
    exact.extend(["", "a", "ab", "b", "TITLE 1", "TITLE 2", "abcdefg"].map(Value::text));
    exact.extend(["TITLE 1 OF", "TITLE 10 OF", "TITLE 14 OF", "TITLE 18 OF"].map(Value::text));
    for (a, b) in exact.iter().flat_map(|a| exact.iter().map(move |b| (a, b))) {
        assert_eq!(word(a).cmp(&word(b)), a.cmp(b), "{a:?} {b:?}");
    }
    let (one, two) = (Value::Int(1), Value::Int(2));
    assert_ne!(hash_words([&one, &two]), hash_words([&two, &one]));
    assert_ne!(hash_words([&one]), hash_words([&one, &Value::Null]));
    assert_ne!(
        Value::text("ab").hash_word(),
        Value::text("ab\0").hash_word()
    );
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
        let before = catalog.pin();
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
        prop_assert_eq!(table.read().scan(*before).count(), 100);
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
    use shareddb::storage::{IndexDef, IndexKind, IndexProbe, ProbeQuery, TableDef};

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
        kind: IndexKind::Values,
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

// ---------------------------------------------------------------------------
// Join keys: what chooses a join's build table and a group-join's groups
// ---------------------------------------------------------------------------

/// The join keys of a case. A build side files its keys in an array of
/// chain heads when every key is an `Int` of at most 2^53 in magnitude and
/// the array is no larger than the probe input, in a table of hash words
/// otherwise; the keys here take each: integers over a narrow span,
/// negative ones among them, or at the top or the bottom of the exact
/// integers (±2^53), against a wide span (`0` beside `1 << 40`), integers
/// past 2^53, or integers beside other types.
struct JoinKeys {
    ints: Vec<i64>,
    others: bool,
}

impl JoinKeys {
    fn some(rng: &mut TestRng) -> Self {
        const TOP: i64 = 1 << 53;
        let (ints, others) = match (0..6usize).generate(rng) {
            0 => (vec![-2, -1, 0, 1, 2, 3], false),
            1 => (vec![0, 1, 1 << 40], false),
            2 => (vec![TOP - 1, TOP], false),
            3 => (vec![-TOP, 1 - TOP], false),
            4 => (vec![TOP + 1, TOP + 2], false),
            _ => (vec![0, 1, 2, 3], true),
        };
        JoinKeys { ints, others }
    }

    fn int(&self, rng: &mut TestRng) -> i64 {
        self.ints[(0..self.ints.len()).generate(rng)]
    }

    /// One of the integers, now and then NULL or, beside other types, the
    /// integer as a `Float`, a `Date` or a `Text`.
    fn build(&self, rng: &mut TestRng) -> Value {
        let k = self.int(rng);
        match (0..10usize).generate(rng) {
            0 => Value::Null,
            1 | 2 if self.others => match (0..3usize).generate(rng) {
                0 => Value::Float(k as f64),
                1 => Value::Date(k),
                _ => Value::text(k.to_string()),
            },
            _ => Value::Int(k),
        }
    }

    /// Distinct keys of the build side, up to `n` of them.
    fn distinct(&self, n: usize) -> Vec<Value> {
        self.ints.iter().take(n).map(|k| Value::Int(*k)).collect()
    }

    /// One of the integers as an `Int` or a `Float`, one past them, `2.5`,
    /// `-0.0` (which equals no `Int`), a `Date`, a `Text` or NULL.
    fn probe(&self, rng: &mut TestRng) -> Value {
        let k = self.int(rng);
        match (0..12usize).generate(rng) {
            0 => Value::Null,
            1 | 2 => Value::Float(k as f64),
            3 => Value::Float(2.5),
            4 => Value::Float(-0.0),
            5 => Value::Date(k),
            6 => Value::text(k.to_string()),
            7 => Value::Int(k + 1),
            _ => Value::Int(k),
        }
    }
}

// ---------------------------------------------------------------------------
// Row demand: what an operator prunes, the cut above it cannot miss
// ---------------------------------------------------------------------------

/// A query cut to `limit` rows under sort keys needs only those rows of the
/// cut's producer (`docs/ARCHITECTURE.md`, *Row demand*). The model of every
/// property here is the sentence itself: *stable sort, then cut* — over the
/// operator's plain output, against the same over its demanded output.
/// Mutations of `crates/core/src/operators.rs` and `demand.rs` these were
/// checked to kill are listed in CHANGES.md (PR 21).
mod row_demand {
    use super::*;
    use shareddb::common::sort::compare_tuples;
    use shareddb::common::{DataType, Expr, TicketId};
    use shareddb::core::batch::bind_query;
    use shareddb::core::demand::push_down;
    use shareddb::core::operators::{execute_group_join, execute_on};
    use shareddb::core::plan::{ActivationTemplate, PlanBuilder, StatementRegistry, StatementSpec};
    use shareddb::core::SubmitOptions;
    use shareddb::storage::{IndexDef, IndexKind, TableDef};

    const QUERIES: u32 = 4;

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (0..n).generate(rng)
    }

    /// Sort keys over the first `columns` columns: one or two, either way
    /// round, and the values under them few — ties are the rule.
    fn some_keys(rng: &mut TestRng, columns: usize) -> Vec<SortKey> {
        let key = |rng: &mut TestRng| match pick(rng, 2) {
            0 => SortKey::asc(pick(rng, columns)),
            _ => SortKey::desc(pick(rng, columns)),
        };
        (0..1 + pick(rng, 2)).map(|_| key(rng)).collect()
    }

    /// From nothing to beyond any input here.
    fn some_limit(rng: &mut TestRng) -> usize {
        [0, 1, 2, 3, 5, 8, 1_000][pick(rng, 7)]
    }

    fn some_queries(rng: &mut TestRng) -> QuerySet {
        (1..=QUERIES)
            .filter(|_| pick(rng, 2) == 0)
            .map(QueryId)
            .collect()
    }

    /// The model: the first `limit` of `rows` under `(keys, position)`.
    fn sorted_then_cut(rows: &[Tuple], keys: &[SortKey], limit: usize) -> Vec<Tuple> {
        let mut sorted = rows.to_vec();
        sorted.sort_by(|a, b| compare_tuples(a, b, keys));
        sorted.truncate(limit);
        sorted
    }

    fn rows_of(out: &[QTuple], query: QueryId) -> Vec<Tuple> {
        let mine = out.iter().filter(|t| t.queries.contains(query));
        mine.map(|t| t.tuple.clone()).collect()
    }

    /// True when `part` is `whole` with rows left out.
    fn is_subsequence(part: &[Tuple], whole: &[Tuple]) -> bool {
        let mut whole = whole.iter();
        part.iter().all(|row| whole.any(|other| other == row))
    }

    fn demand(base: Activation, keys: &[SortKey], limit: usize) -> Activation {
        Activation::Demand {
            base: Box::new(base),
            keys: keys.into(),
            limit,
        }
    }

    // -- (a) the selection ---------------------------------------------------

    /// Rows of two small columns under random query sets, and per query a
    /// limit or none.
    #[derive(Debug)]
    struct Selection {
        rows: Vec<(i64, i64, QuerySet)>,
        keys: Vec<SortKey>,
        limits: Vec<Option<usize>>,
    }

    struct Selections;

    impl Strategy for Selections {
        type Value = Selection;
        fn generate(&self, rng: &mut TestRng) -> Selection {
            let row =
                |rng: &mut TestRng| (pick(rng, 3) as i64, pick(rng, 4) as i64, some_queries(rng));
            let limit = |rng: &mut TestRng| (pick(rng, 3) > 0).then(|| some_limit(rng));
            Selection {
                rows: (0..pick(rng, 40)).map(|_| row(rng)).collect(),
                keys: some_keys(rng, 2),
                limits: (0..QUERIES).map(|_| limit(rng)).collect(),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn selection_is_a_stable_sort_then_a_cut(case in Selections) {
            let catalog = Catalog::new();
            let ctx = ExecContext { catalog: &catalog, snapshot: catalog.snapshot() };
            let input: Vec<QTuple> = case
                .rows
                .iter()
                .map(|(a, b, queries)| QTuple::new(Tuple::new(vec![Value::Int(*a), Value::Int(*b)]), queries.clone()))
                .collect();
            let queries = || (1..=QUERIES).map(QueryId).zip(&case.limits);
            // A Top-N takes a limit from its activation; a sort keeps every
            // row.
            let top_n = queries().map(|(q, limit)| match limit {
                Some(limit) => (q, Activation::TopN { limit: *limit }),
                None => (q, Activation::Participate),
            });
            let sort = queries().map(|(q, _)| (q, Activation::Participate));
            let keys = case.keys.clone();
            let cycles = [
                (OperatorSpec::TopN { keys: keys.clone() }, top_n.collect::<Vec<_>>(), true),
                (OperatorSpec::Sort { keys }, sort.collect::<Vec<_>>(), false),
            ];
            for (spec, activations, cuts) in cycles {
                let emitted = execute_on(&spec, &activations, &[&input], &ctx).unwrap();
                let mut pruned = 0;
                for (q, limit) in queries() {
                    let arrived = rows_of(&input, q);
                    let limit = limit.filter(|_| cuts).unwrap_or(usize::MAX);
                    let expected = sorted_then_cut(&arrived, &case.keys, limit);
                    prop_assert_eq!(rows_of(&emitted.tuples, q), expected, "{:?} of {:?}", q, spec);
                    pruned += arrived.len().saturating_sub(limit);
                }
                prop_assert_eq!(emitted.pruned, pruned);
                // One shared order, and a row emitted once for all who keep it.
                let out = &emitted.tuples;
                prop_assert!(out.windows(2).all(|w| compare_tuples(&w[0].tuple, &w[1].tuple, &case.keys).is_le()));
                for (i, row) in out.iter().enumerate() {
                    prop_assert!(!row.queries.is_empty());
                    prop_assert!(out[..i].iter().all(|earlier| !earlier.tuple.ptr_eq(&row.tuple)));
                }
            }
        }
    }

    // -- (b) the join ---------------------------------------------------------

    /// `INNER(KEY, TAG)`, indexed on `KEY`: key `k` of 0..6 has `k % 3` rows,
    /// so an outer key finds none, one or two — and 6 and up nothing at all.
    fn inner_table() -> Catalog {
        let catalog = Catalog::new();
        let def = TableDef::new("INNER")
            .column("KEY", DataType::Int)
            .column("TAG", DataType::Int);
        catalog.create_table(def).unwrap();
        let (name, table, column) = ("INNER_KEY".into(), "INNER".into(), "KEY".into());
        catalog
            .create_index(IndexDef {
                name,
                table,
                column,
                kind: IndexKind::Values,
            })
            .unwrap();
        let rows = (0..6i64)
            .flat_map(|k| (0..k % 3).map(move |n| shareddb::common::tuple![k, 10 * k + n]));
        catalog.bulk_load("INNER", rows.collect()).unwrap();
        catalog
    }

    /// Outer rows `(A, B, KEY)` — the key NULL now and then, or of no inner
    /// row — and per query a demand `(keys over A and B, limit)` or none.
    #[derive(Debug)]
    struct Join {
        outer: Vec<(i64, i64, Option<i64>, QuerySet)>,
        demands: Vec<Option<(Vec<SortKey>, usize)>>,
    }

    struct Joins;

    impl Strategy for Joins {
        type Value = Join;
        fn generate(&self, rng: &mut TestRng) -> Join {
            let row = |rng: &mut TestRng| {
                let key = (pick(rng, 6) > 0).then(|| pick(rng, 8) as i64);
                (
                    pick(rng, 3) as i64,
                    pick(rng, 3) as i64,
                    key,
                    some_queries(rng),
                )
            };
            let demand = |rng: &mut TestRng| {
                (pick(rng, 4) > 0).then(|| (some_keys(rng, 2), some_limit(rng)))
            };
            Join {
                outer: (0..pick(rng, 40)).map(|_| row(rng)).collect(),
                demands: (0..QUERIES).map(|_| demand(rng)).collect(),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn a_demanded_join_feeds_its_top_n_what_a_plain_join_does(case in Joins) {
            let catalog = inner_table();
            let ctx = ExecContext { catalog: &catalog, snapshot: catalog.snapshot() };
            let spec = OperatorSpec::IndexNlJoin { table: "INNER".into(), outer_key: 2, inner_column: 0 };
            let outer: Vec<QTuple> = case
                .outer
                .iter()
                .map(|(a, b, key, queries)| {
                    let key = key.map_or(Value::Null, Value::Int);
                    QTuple::new(Tuple::new(vec![Value::Int(*a), Value::Int(*b), key]), queries.clone())
                })
                .collect();
            let queries = || (1..=QUERIES).map(QueryId).zip(&case.demands);
            let plain: Vec<_> = queries().map(|(q, _)| (q, Activation::Participate)).collect();
            let demanded: Vec<_> = queries()
                .map(|(q, d)| match d {
                    Some((keys, limit)) => (q, demand(Activation::Participate, keys, *limit)),
                    None => (q, Activation::Participate),
                })
                .collect();
            let plain = execute_on(&spec, &plain, &[&outer], &ctx).unwrap();
            let pruning = execute_on(&spec, &demanded, &[&outer], &ctx).unwrap();
            prop_assert_eq!(plain.pruned, 0);
            for (q, d) in queries() {
                let (all, some) = (rows_of(&plain.tuples, q), rows_of(&pruning.tuples, q));
                match d {
                    None => prop_assert_eq!(&some, &all, "{:?} demands nothing", q),
                    Some((keys, limit)) => {
                        prop_assert!(is_subsequence(&some, &all), "{:?}: {:?} of {:?}", q, some, all);
                        prop_assert_eq!(
                            sorted_then_cut(&some, keys, *limit),
                            sorted_then_cut(&all, keys, *limit),
                            "{:?} under {:?}, {}", q, keys, limit
                        );
                        // A page is filled from no more outer rows than it
                        // takes: without the last one looked up (last under
                        // the keys), it was not full yet.
                        let ranked = sorted_then_cut(&some, keys, usize::MAX);
                        if let Some(last) = ranked.last() {
                            let outer_of = |row: &Tuple| row.sides().unwrap().0.clone();
                            let last = outer_of(last);
                            let before = ranked.iter().filter(|r| !outer_of(r).ptr_eq(&last)).count();
                            prop_assert!(before < *limit, "{:?}: {:?} for a page of {}", q, some, limit);
                        }
                    }
                }
            }
            // A row looked up once serves all its queries: emitted once.
            let out = &pruning.tuples;
            for (i, row) in out.iter().enumerate() {
                let sides = |t: &QTuple| t.tuple.sides().map(|(o, i)| (o.clone(), i.clone())).unwrap();
                let (outer_row, inner_row) = sides(row);
                prop_assert!(out[..i].iter().all(|e| {
                    let (o, i) = sides(e);
                    !(o.ptr_eq(&outer_row) && i.ptr_eq(&inner_row))
                }));
            }
            // What was pruned was not looked up: it is in no emitted row.
            let wanted = outer.iter().filter(|t| !t.queries.is_empty());
            let unseen = wanted.filter(|t| out.iter().all(|row| !row.tuple.sides().unwrap().0.ptr_eq(&t.tuple)));
            prop_assert!(pruning.pruned <= unseen.count());
            if case.demands.iter().all(Option::is_none) {
                prop_assert_eq!(pruning.pruned, 0);
            }
        }
    }

    // -- (c) the group-by -----------------------------------------------------

    /// Rows `(G, V)` grouped by `G` into `(G, SUM(V), COUNT(V))`; per query a
    /// HAVING or none, partial mode or not, and a demand over the output
    /// columns or none.
    #[derive(Debug)]
    struct Grouping {
        rows: Vec<(i64, i64, QuerySet)>,
        having: Vec<Option<Expr>>,
        partial: Vec<bool>,
        demands: Vec<Option<(Vec<SortKey>, usize)>>,
    }

    struct Groupings;

    impl Strategy for Groupings {
        type Value = Grouping;
        fn generate(&self, rng: &mut TestRng) -> Grouping {
            let row =
                |rng: &mut TestRng| (pick(rng, 6) as i64, pick(rng, 4) as i64, some_queries(rng));
            let having = |rng: &mut TestRng| match pick(rng, 3) {
                0 => None,
                1 => Some(Expr::col(1).gt(Expr::lit(pick(rng, 6) as i64))),
                _ => Some(Expr::col(2).lt_eq(Expr::lit(pick(rng, 4) as i64))),
            };
            let demand = |rng: &mut TestRng| {
                (pick(rng, 4) > 0).then(|| (some_keys(rng, 3), some_limit(rng)))
            };
            Grouping {
                rows: (0..pick(rng, 50)).map(|_| row(rng)).collect(),
                having: (0..QUERIES).map(|_| having(rng)).collect(),
                partial: (0..QUERIES).map(|_| pick(rng, 4) == 0).collect(),
                demands: (0..QUERIES).map(|_| demand(rng)).collect(),
            }
        }
    }

    fn sum_and_count_by_first_column() -> OperatorSpec {
        let aggregate = |function, name: &str| AggregateSpec {
            function,
            column: 1,
            output_name: name.into(),
        };
        OperatorSpec::GroupBy {
            group_columns: vec![0],
            aggregates: vec![
                aggregate(AggregateFunction::Sum, "S"),
                aggregate(AggregateFunction::Count, "C"),
            ],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn a_demanded_group_by_feeds_its_top_n_what_a_plain_one_does(case in Groupings) {
            let catalog = Catalog::new();
            let ctx = ExecContext { catalog: &catalog, snapshot: catalog.snapshot() };
            let spec = sum_and_count_by_first_column();
            let input: Vec<QTuple> = case
                .rows
                .iter()
                .map(|(g, v, queries)| QTuple::new(Tuple::new(vec![Value::Int(*g), Value::Int(*v)]), queries.clone()))
                .collect();
            let having = |i: usize| Activation::Having { predicate: case.having[i].clone(), partial: case.partial[i] };
            let plain: Vec<_> = (0..QUERIES as usize).map(|i| (QueryId(i as u32 + 1), having(i))).collect();
            let demanded: Vec<_> = (0..QUERIES as usize)
                .map(|i| match &case.demands[i] {
                    Some((keys, limit)) => (QueryId(i as u32 + 1), demand(having(i), keys, *limit)),
                    None => (QueryId(i as u32 + 1), having(i)),
                })
                .collect();
            let plain = execute_on(&spec, &plain, &[&input], &ctx).unwrap();
            let pruning = execute_on(&spec, &demanded, &[&input], &ctx).unwrap();
            prop_assert_eq!(plain.pruned, 0);
            let mut pruned = 0;
            for i in 0..QUERIES as usize {
                let q = QueryId(i as u32 + 1);
                let (all, some) = (rows_of(&plain.tuples, q), rows_of(&pruning.tuples, q));
                match &case.demands[i] {
                    // A partial group is another partition's to complete.
                    Some((keys, limit)) if !case.partial[i] => {
                        prop_assert!(is_subsequence(&some, &all), "{:?}: {:?} of {:?}", q, some, all);
                        prop_assert_eq!(
                            sorted_then_cut(&some, keys, *limit),
                            sorted_then_cut(&all, keys, *limit),
                            "{:?} under {:?}, {}", q, keys, limit
                        );
                        prop_assert_eq!(some.len(), all.len().min(*limit));
                        pruned += all.len() - some.len();
                    }
                    _ => prop_assert_eq!(&some, &all, "{:?} demands nothing", q),
                }
            }
            prop_assert_eq!(pruning.pruned, pruned);
            // Ascending by key, then by query, as ever.
            let place = |t: &QTuple| (t.tuple[0].clone(), t.queries.iter().next());
            prop_assert!(pruning.tuples.windows(2).all(|w| place(&w[0]) < place(&w[1])));
        }
    }

    // -- (d) the derivation ---------------------------------------------------

    /// One statement over `scan → p → t`, `p` an index join or a group-by,
    /// `t` a Top-N or a sort, and a filter beside `t` that reads `p` as well.
    #[derive(Debug)]
    struct Shape {
        join: bool,
        top_n: bool,
        keys: Vec<SortKey>,
        top_n_limit: usize,
        /// 0: `t`, 1: `p`, 2: the filter beside `t`.
        root: usize,
        reads_p_twice: bool,
        limit: Option<usize>,
        distinct: bool,
        partial: bool,
    }

    struct Shapes;

    impl Strategy for Shapes {
        type Value = Shape;
        fn generate(&self, rng: &mut TestRng) -> Shape {
            let join = pick(rng, 2) == 0;
            // A join's output: three outer columns, then two inner ones.
            let columns = if join { 5 } else { 2 };
            let root = [0, 0, 0, 1, 2][pick(rng, 5)];
            Shape {
                join,
                top_n: pick(rng, 2) == 0,
                keys: some_keys(rng, columns),
                top_n_limit: 1 + pick(rng, 3),
                root,
                reads_p_twice: root == 2 || pick(rng, 4) == 0,
                limit: (pick(rng, 3) > 0).then(|| 1 + pick(rng, 3)),
                distinct: pick(rng, 4) == 0,
                partial: pick(rng, 3) == 0,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn demand_derivation_refuses_what_is_not_sound(shape in Shapes) {
            let catalog = inner_table();
            let outer = TableDef::new("OUTER")
                .column("A", DataType::Int)
                .column("B", DataType::Int)
                .column("KEY", DataType::Int);
            catalog.create_table(outer).unwrap();
            let mut builder = PlanBuilder::new(&catalog);
            let scan = builder.table_scan("OUTER").unwrap();
            let p = match shape.join {
                true => builder.index_nl_join(scan, "INNER", "OUTER.KEY", "KEY").unwrap(),
                false => builder.group_by(scan, vec!["A"], vec![(AggregateFunction::Sum, "B", "S")]).unwrap(),
            };
            let t = match shape.top_n {
                true => builder.top_n(p, shape.keys.clone()).unwrap(),
                false => builder.sort(p, shape.keys.clone()).unwrap(),
            };
            let beside = builder.filter(p).unwrap();
            let plan = builder.build();

            let everything = ActivationTemplate::Scan { predicate: Expr::lit(true) };
            let at_p = match shape.join {
                true => ActivationTemplate::Participate,
                false => ActivationTemplate::Having { predicate: None },
            };
            let at_t = match shape.top_n {
                true => ActivationTemplate::TopN { limit: shape.top_n_limit },
                false => ActivationTemplate::Participate,
            };
            let mut spec = StatementSpec::query("q", [t, p, beside][shape.root])
                .activate(scan, everything)
                .activate(p, at_p.clone())
                .activate(t, at_t);
            if shape.reads_p_twice {
                spec = spec.activate(beside, ActivationTemplate::Filter { predicate: Expr::lit(true) });
            }
            if let Some(limit) = shape.limit {
                spec = spec.limit(limit);
            }
            if shape.distinct {
                spec = spec.distinct();
            }
            let mut registry = StatementRegistry::new();
            registry.register(spec).unwrap();
            push_down(&plan, &mut registry);
            registry.validate(&plan).unwrap();

            // The rule, said once more: a Top-N cuts the statement's rows (a
            // root sort's `LIMIT` is routing's, whatever `distinct` says) …
            let cut = shape.top_n.then_some(shape.top_n_limit);
            // … takes them from `p` alone, which hands them nowhere else, and
            // `p` can rank a row before it has built it.
            let ranks_early = !shape.join || shape.keys.iter().all(|k| k.column < 3);
            let at_p_cut = cut.filter(|_| shape.root != 1 && !shape.reads_p_twice && ranks_early);
            let (_, derived) = registry.get("q").unwrap();
            for (op, template) in &derived.activations {
                let expected = match *op {
                    op if op == p => at_p_cut.map(|limit| (&at_p, limit, t)),
                    _ => None,
                };
                match (template, expected) {
                    (ActivationTemplate::Demand { base, keys, limit, consumer }, Some(expected)) => {
                        prop_assert_eq!((&**base, *limit, *consumer), expected);
                        prop_assert_eq!(&keys[..], &shape.keys[..]);
                    }
                    (ActivationTemplate::Demand { .. }, None) => panic!("{template:?} at {op}"),
                    (plain, expected) => prop_assert!(expected.is_none(), "{:?} at {}", plain, op),
                }
            }
            let once = derived.clone();
            push_down(&plan, &mut registry);
            prop_assert_eq!(&registry.get("q").unwrap().1.activations, &once.activations);

            // Rewritten for a segment that ships partial groups, the demand
            // prunes nothing; as bound, all but the rows it names.
            if let (false, Some(limit)) = (shape.join, at_p_cut) {
                let query = bind_query(&once, 0, QueryId(1), TicketId(1), &[], &SubmitOptions::default()).unwrap();
                let (_, activation) = query.activations.iter().find(|(op, _)| *op == p).unwrap();
                let Activation::Demand { base, keys, limit: kept } = activation else {
                    panic!("{activation:?} at {p}");
                };
                let Activation::Having { predicate, partial: false } = &**base else {
                    panic!("{base:?} at {p}");
                };
                let partial = Activation::Having { predicate: predicate.clone(), partial: shape.partial };
                let activation = &Activation::Demand { base: Box::new(partial), keys: keys.clone(), limit: *kept };
                let groups: Vec<QTuple> = (0..5i64)
                    .map(|g| QTuple::for_query(Tuple::new(vec![Value::Int(g), Value::Int(g % 2), Value::Null]), QueryId(1)))
                    .collect();
                let ctx = ExecContext { catalog: &catalog, snapshot: catalog.snapshot() };
                let activations = [(QueryId(1), activation.clone())];
                let emitted = execute_on(&plan.node(p).spec, &activations, &[&groups], &ctx).unwrap();
                let pruned = if shape.partial { 0 } else { 5 - limit };
                prop_assert_eq!((emitted.tuples.len(), emitted.pruned), (5 - pruned, pruned));
            }
        }
    }

    // -- (e) the group-join ---------------------------------------------------

    /// A hash join `B ⋈ P` on `KEY` under a group-by, run apart and as one
    /// group-join cycle. Build rows `(KEY, G, X)`: keys few, drawn by
    /// [`JoinKeys`] — a NULL now and then, `3.0` beside `3` — and either
    /// distinct or repeated, a key's second row being a second version of it
    /// (another `G` and `X`), as a cycle whose queries read under different
    /// pinned snapshots meets them; probe rows `(KEY, N, Y)`, their keys
    /// those of the build side, their `Float` spellings, `2.5`, `-0.0`,
    /// dates, texts and NULL. `X` and `Y` are floats whose sums depend on
    /// their order. The group-by groups by build-side columns — with the
    /// join key or without it, or none —, aggregates columns of either side
    /// and carries per query a HAVING or none, partial mode or not, and a
    /// demand or none; the queries active at the join are mostly, not
    /// always, active at the group-by too.
    #[derive(Debug)]
    struct GroupJoin {
        build: Vec<(Value, i64, f64, QuerySet)>,
        probe: Vec<(Value, i64, f64, QuerySet)>,
        group_columns: Vec<usize>,
        aggregates: Vec<(AggregateFunction, usize)>,
        at_join: Vec<QueryId>,
        at_group_by: Vec<QueryId>,
        having: Vec<Option<Expr>>,
        partial: Vec<bool>,
        demands: Vec<Option<(Vec<SortKey>, usize)>>,
    }

    struct GroupJoins;

    impl Strategy for GroupJoins {
        type Value = GroupJoin;
        fn generate(&self, rng: &mut TestRng) -> GroupJoin {
            let keys = JoinKeys::some(rng);
            let float = |rng: &mut TestRng| [0.1, 0.2, 0.3, 1e16, -1e16, 2.5][pick(rng, 6)];
            let row = |rng: &mut TestRng, key: Value| {
                (key, pick(rng, 3) as i64, float(rng), some_queries(rng))
            };
            let distinct = pick(rng, 3) == 0;
            let build_keys = match distinct {
                true => keys.distinct(pick(rng, 12)),
                false => (0..pick(rng, 12)).map(|_| keys.build(rng)).collect(),
            };
            let mut build: Vec<_> = build_keys.into_iter().map(|k| row(rng, k)).collect();
            for at in 0..build.len() {
                if !distinct && pick(rng, 3) == 0 {
                    let version = (
                        build[at].0.clone(),
                        pick(rng, 3) as i64,
                        float(rng),
                        some_queries(rng),
                    );
                    build.push(version);
                }
            }
            let group_columns = [vec![1], vec![0, 1], vec![0], vec![]][pick(rng, 4)].clone();
            // Of the joined row: build KEY, G, X, then probe KEY, N, Y.
            let aggregate = |rng: &mut TestRng| match pick(rng, 6) {
                0 => (AggregateFunction::Count, pick(rng, 6)),
                1 => (AggregateFunction::Max, 4),
                2 => (AggregateFunction::Avg, 5),
                3 => (AggregateFunction::Sum, 2),
                _ => (AggregateFunction::Sum, 5),
            };
            let outputs = group_columns.len() + 1;
            let having = |rng: &mut TestRng| match pick(rng, 3) {
                0 => Some(Expr::col(outputs - 1).gt(Expr::lit(0.25))),
                _ => None,
            };
            let demand = |rng: &mut TestRng| {
                (pick(rng, 3) > 0).then(|| (some_keys(rng, outputs), some_limit(rng)))
            };
            let at_join: Vec<QueryId> = some_queries(rng).iter().collect();
            let mut at_group_by: Vec<QueryId> = at_join.clone();
            if pick(rng, 4) == 0 {
                at_group_by = some_queries(rng).iter().collect();
            }
            let probe_keys: Vec<Value> = (0..pick(rng, 16)).map(|_| keys.probe(rng)).collect();
            GroupJoin {
                build,
                probe: probe_keys.into_iter().map(|k| row(rng, k)).collect(),
                group_columns,
                aggregates: (0..1 + pick(rng, 2)).map(|_| aggregate(rng)).collect(),
                at_join,
                at_group_by,
                having: (0..QUERIES).map(|_| having(rng)).collect(),
                partial: (0..QUERIES).map(|_| pick(rng, 4) == 0).collect(),
                demands: (0..QUERIES).map(|_| demand(rng)).collect(),
            }
        }
    }

    /// A row, its floats spelled by their bits: equal only when bit for bit.
    fn spelled(out: &[QTuple]) -> Vec<(String, QuerySet)> {
        out.iter()
            .map(|t| (format!("{:?}", t.tuple.values()), t.queries.clone()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn a_group_join_emits_what_its_group_by_emits_over_the_join(case in GroupJoins) {
            let catalog = Catalog::new();
            let ctx = ExecContext { catalog: &catalog, snapshot: catalog.snapshot() };
            let rows = |rows: &[(Value, i64, f64, QuerySet)]| -> Vec<QTuple> {
                let row = |(key, n, x, queries): &(Value, i64, f64, QuerySet)| {
                    let values = vec![key.clone(), Value::Int(*n), Value::Float(*x)];
                    QTuple::new(Tuple::new(values), queries.clone())
                };
                rows.iter().map(row).collect()
            };
            let (build, probe) = (rows(&case.build), rows(&case.probe));
            let join = OperatorSpec::HashJoin { build_key: 0, probe_key: 0 };
            let aggregates = case.aggregates.iter().map(|&(function, column)| AggregateSpec {
                function,
                column,
                output_name: format!("{function:?}{column}"),
            });
            let group_by = OperatorSpec::GroupBy {
                group_columns: case.group_columns.clone(),
                aggregates: aggregates.collect(),
            };
            let at_join: Vec<_> = case.at_join.iter().map(|q| (*q, Activation::Participate)).collect();
            let at_group_by: Vec<_> = case
                .at_group_by
                .iter()
                .map(|&q| {
                    let i = q.raw() as usize - 1;
                    let having = Activation::Having { predicate: case.having[i].clone(), partial: case.partial[i] };
                    match &case.demands[i] {
                        Some((keys, limit)) => (q, demand(having, keys, *limit)),
                        None => (q, having),
                    }
                })
                .collect();
            let joined = execute_on(&join, &at_join, &[&build, &probe], &ctx).unwrap();
            // The join against its nested loop: NULL never joins.
            let meets = |b: &(Value, i64, f64, QuerySet), p: &(Value, i64, f64, QuerySet)| {
                let queries = b.3.iter().filter(|q| case.at_join.contains(q) && p.3.contains(*q));
                !b.0.is_null() && b.0 == p.0 && queries.count() > 0
            };
            let pairs = case.probe.iter().map(|p| case.build.iter().filter(|b| meets(b, p)).count());
            prop_assert_eq!(joined.tuples.len(), pairs.sum::<usize>());
            let apart = execute_on(&group_by, &at_group_by, &[&joined.tuples], &ctx).unwrap();
            let fused = execute_group_join(&join, &at_join, &group_by, &at_group_by, &[&build, &probe]).unwrap();
            prop_assert_eq!(spelled(&fused.tuples), spelled(&apart.tuples));
            prop_assert_eq!(fused.pruned, apart.pruned);
            if case.at_join.iter().all(|q| case.at_group_by.contains(q)) {
                prop_assert_eq!(fused.joined, joined.tuples.len());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Query sets as words: the operators against a model that keeps lists
// ---------------------------------------------------------------------------

/// The operators over query sets whose ids spread over more than one word
/// and start anywhere — near 0, near 1 000, at the top of the id space —
/// against a model that keeps each row's queries as a sorted list and
/// spells out each operator's rule over it: the hash join, the group-join,
/// the index-NL join under row demands and the Top-N, each output expanded
/// per query the way Γ routes it.
mod query_sets_as_words {
    use super::*;
    use shareddb::common::sort::compare_tuples;
    use shareddb::common::{tuple, DataType};
    use shareddb::core::operators::{execute_group_join, execute_on};
    use shareddb::storage::{IndexDef, IndexKind, TableDef};
    use std::collections::BTreeMap;

    const QUERIES: u32 = 6;

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (0..n).generate(rng)
    }

    /// A row `(key, value)` and its queries, as a list.
    type Row = (i64, i64, Vec<u32>);

    #[derive(Debug)]
    struct Case {
        /// The six query ids, ascending: 1, 13 or 29 apart from a base, so
        /// that two of them may lie more than a word apart.
        ids: Vec<u32>,
        build: Vec<Row>,
        probe: Vec<Row>,
        /// The join keys of the build and the probe rows, in their order,
        /// drawn by [`JoinKeys`]. In a third of the cases the build's are
        /// distinct, and the joins read only the build rows they key; the
        /// index-NL join and the Top-N read every row under its own key.
        build_keys: Vec<Value>,
        probe_keys: Vec<Value>,
        /// Per query: active at the join, at the group-by, and its limit.
        at_join: Vec<bool>,
        at_group_by: Vec<bool>,
        limits: Vec<Option<usize>>,
        keys: Vec<SortKey>,
    }

    struct Cases;

    impl Strategy for Cases {
        type Value = Case;
        fn generate(&self, rng: &mut TestRng) -> Case {
            let base = [0, 1_000, u32::MAX - 200][pick(rng, 3)] + pick(rng, 40) as u32;
            let stride = [1, 13, 29][pick(rng, 3)];
            let ids: Vec<u32> = (0..QUERIES).map(|k| base + k * stride).collect();
            let row = |rng: &mut TestRng| {
                let (key, value) = (pick(rng, 5) as i64, pick(rng, 6) as i64);
                let queries = ids.iter().copied().filter(|_| pick(rng, 2) == 0);
                (key, value, queries.collect())
            };
            let build: Vec<Row> = (0..pick(rng, 30)).map(|_| row(rng)).collect();
            let probe: Vec<Row> = (0..pick(rng, 30)).map(|_| row(rng)).collect();
            let keys = JoinKeys::some(rng);
            let build_keys = match pick(rng, 3) {
                0 => keys.distinct(build.len()),
                _ => build.iter().map(|_| keys.build(rng)).collect(),
            };
            let probe_keys = probe.iter().map(|_| keys.probe(rng)).collect();
            let flags = |rng: &mut TestRng| (0..QUERIES).map(|_| pick(rng, 4) > 0).collect();
            let limit = |rng: &mut TestRng| (pick(rng, 3) > 0).then(|| pick(rng, 6));
            let key = |rng: &mut TestRng| match pick(rng, 2) {
                0 => SortKey::asc(pick(rng, 2)),
                _ => SortKey::desc(pick(rng, 2)),
            };
            Case {
                at_join: flags(rng),
                at_group_by: flags(rng),
                limits: (0..QUERIES).map(|_| limit(rng)).collect(),
                keys: (0..1 + pick(rng, 2)).map(|_| key(rng)).collect(),
                ids,
                build,
                probe,
                build_keys,
                probe_keys,
            }
        }
    }

    fn qtuples(rows: &[Row]) -> Vec<QTuple> {
        let keys: Vec<Value> = rows.iter().map(|(k, _, _)| Value::Int(*k)).collect();
        keyed(rows, &keys)
    }

    /// The rows, each under the key of its place in `keys`.
    fn keyed(rows: &[Row], keys: &[Value]) -> Vec<QTuple> {
        let row = |((_, v, queries), k): (&Row, &Value)| {
            let tuple = Tuple::new(vec![k.clone(), Value::Int(*v)]);
            QTuple::new(tuple, queries.iter().copied().map(QueryId).collect())
        };
        rows.iter().zip(keys).map(row).collect()
    }

    /// The queries flagged, as a list.
    fn flagged(ids: &[u32], flags: &[bool]) -> Vec<u32> {
        ids.iter()
            .zip(flags)
            .filter(|(_, on)| **on)
            .map(|(id, _)| *id)
            .collect()
    }

    fn common(a: &[u32], b: &[u32]) -> Vec<u32> {
        a.iter().copied().filter(|id| b.contains(id)).collect()
    }

    /// Γ: each query's rows, in output order, from the sets expanded.
    fn routed(out: &[QTuple]) -> BTreeMap<u32, Vec<Vec<Value>>> {
        let mut rows: BTreeMap<u32, Vec<Vec<Value>>> = BTreeMap::new();
        for t in out {
            for (query, tuple) in t.explode() {
                rows.entry(query.raw())
                    .or_default()
                    .push(tuple.values().to_vec());
            }
        }
        rows
    }

    fn spelled(out: &[QTuple]) -> Vec<(Vec<Value>, Vec<u32>)> {
        let set = |t: &QTuple| t.queries.iter().map(QueryId::raw).collect();
        out.iter()
            .map(|t| (t.tuple.values().to_vec(), set(t)))
            .collect()
    }

    fn participate(ids: &[u32]) -> Vec<(QueryId, Activation)> {
        ids.iter()
            .map(|q| (QueryId(*q), Activation::Participate))
            .collect()
    }

    /// `INNER(KEY, TAG)`, indexed on `KEY`: key `k` has `k % 3` rows.
    fn inner_table() -> Catalog {
        let catalog = Catalog::new();
        let def = TableDef::new("INNER")
            .column("KEY", DataType::Int)
            .column("TAG", DataType::Int);
        catalog.create_table(def).unwrap();
        let index = IndexDef {
            name: "INNER_KEY".into(),
            table: "INNER".into(),
            column: "KEY".into(),
            kind: IndexKind::Values,
        };
        catalog.create_index(index).unwrap();
        let rows = (0..5i64).flat_map(|k| (0..k % 3).map(move |n| tuple![k, 10 * k + n]));
        catalog.bulk_load("INNER", rows.collect()).unwrap();
        catalog
    }

    fn sorted_then_cut(rows: &[Vec<Value>], keys: &[SortKey], limit: usize) -> Vec<Vec<Value>> {
        let mut sorted = rows.to_vec();
        let tuple = |values: &Vec<Value>| Tuple::new(values.clone());
        sorted.sort_by(|a, b| compare_tuples(&tuple(a), &tuple(b), keys));
        sorted.truncate(limit);
        sorted
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn query_sets_as_words_run_the_operators_the_lists_do(case in Cases) {
            let catalog = inner_table();
            let ctx = ExecContext { catalog: &catalog, snapshot: catalog.snapshot() };
            let (build, probe) = (qtuples(&case.build), qtuples(&case.probe));
            let (join_build, join_probe) = (keyed(&case.build, &case.build_keys), keyed(&case.probe, &case.probe_keys));
            let at_join = flagged(&case.ids, &case.at_join);
            let at_group_by = flagged(&case.ids, &case.at_group_by);

            // Hash join: per probe row, its build rows in arrival order, for
            // the queries of both that are active — NULL never joins.
            let join = OperatorSpec::HashJoin { build_key: 0, probe_key: 0 };
            let mut pairs = Vec::new();
            for ((_, pv, p), pk) in case.probe.iter().zip(&case.probe_keys) {
                let builds = case.build.iter().zip(&case.build_keys);
                for ((_, bv, b), bk) in builds.filter(|(_, bk)| !bk.is_null() && *bk == pk) {
                    let queries = common(&common(b, &at_join), p);
                    if !queries.is_empty() {
                        let row = vec![bk.clone(), Value::Int(*bv), pk.clone(), Value::Int(*pv)];
                        pairs.push((row, queries));
                    }
                }
            }
            let joined = execute_on(&join, &participate(&at_join), &[&join_build, &join_probe], &ctx).unwrap();
            prop_assert_eq!(spelled(&joined.tuples), pairs.clone());

            // Group-join: SUM and COUNT of the probe values by build key, per
            // query active at both, ascending by key, then by query.
            let group_by = OperatorSpec::GroupBy {
                group_columns: vec![0],
                aggregates: [AggregateFunction::Sum, AggregateFunction::Count]
                    .map(|function| AggregateSpec { function, column: 3, output_name: format!("{function:?}") })
                    .to_vec(),
            };
            let mut groups: BTreeMap<(Value, u32), (i64, i64)> = BTreeMap::new();
            for (row, queries) in &pairs {
                let Value::Int(value) = row[3] else { unreachable!() };
                for q in common(queries, &at_group_by) {
                    let group = groups.entry((row[0].clone(), q)).or_default();
                    *group = (group.0 + value, group.1 + 1);
                }
            }
            let grouped: Vec<_> = groups
                .iter()
                .map(|((key, q), (sum, count))| (vec![key.clone(), Value::Int(*sum), Value::Int(*count)], vec![*q]))
                .collect();
            let having = |q: &u32| (QueryId(*q), Activation::Having { predicate: None, partial: false });
            let having: Vec<_> = at_group_by.iter().map(having).collect();
            let fused = execute_group_join(&join, &participate(&at_join), &group_by, &having, &[&join_build, &join_probe]).unwrap();
            prop_assert_eq!(spelled(&fused.tuples), grouped);

            // Index-NL join: each outer (probe) row with the inner rows of its
            // key, for every query that has it; a query with a limit demands
            // its first rows under the keys, and gets them.
            let nl_join = OperatorSpec::IndexNlJoin { table: "INNER".into(), outer_key: 0, inner_column: 0 };
            let activations: Vec<_> = case.ids.iter().zip(&case.limits).map(|(q, limit)| {
                let activation = match limit {
                    Some(limit) => Activation::Demand {
                        base: Box::new(Activation::Participate),
                        keys: case.keys.clone().into(),
                        limit: *limit,
                    },
                    None => Activation::Participate,
                };
                (QueryId(*q), activation)
            }).collect();
            let inner = catalog.table("INNER").unwrap();
            let inner_rows: Vec<Tuple> = inner.read().scan_live().map(|(_, t)| t.clone()).collect();
            let looked_up = execute_on(&nl_join, &activations, &[&probe], &ctx).unwrap();
            let routed_join = routed(&looked_up.tuples);
            for (q, limit) in case.ids.iter().zip(&case.limits) {
                let mut all = Vec::new();
                for (k, v, _) in case.probe.iter().filter(|(_, _, queries)| queries.contains(q)) {
                    for matched in inner_rows.iter().filter(|t| t[0] == Value::Int(*k)) {
                        let mut row = vec![Value::Int(*k), Value::Int(*v)];
                        row.extend(matched.values().iter().cloned());
                        all.push(row);
                    }
                }
                let got = routed_join.get(q).cloned().unwrap_or_default();
                match limit {
                    None => prop_assert_eq!(got, all, "query {}", q),
                    Some(limit) => prop_assert_eq!(
                        sorted_then_cut(&got, &case.keys, *limit),
                        sorted_then_cut(&all, &case.keys, *limit),
                        "query {} under {:?}, {}", q, case.keys, limit
                    ),
                }
            }

            // Top-N: each query's first rows under the keys, stably.
            let top_n = OperatorSpec::TopN { keys: case.keys.clone() };
            let limits: Vec<_> = case.ids.iter().zip(&case.limits).map(|(q, limit)| {
                (QueryId(*q), Activation::TopN { limit: limit.unwrap_or(usize::MAX) })
            }).collect();
            let kept = routed(&execute_on(&top_n, &limits, &[&build], &ctx).unwrap().tuples);
            for (q, limit) in case.ids.iter().zip(&case.limits) {
                let arrived: Vec<Vec<Value>> = case.build.iter()
                    .filter(|(_, _, queries)| queries.contains(q))
                    .map(|(k, v, _)| vec![Value::Int(*k), Value::Int(*v)])
                    .collect();
                let expected = sorted_then_cut(&arrived, &case.keys, limit.unwrap_or(usize::MAX));
                prop_assert_eq!(kept.get(q).cloned().unwrap_or_default(), expected, "query {}", q);
            }
        }
    }
}
