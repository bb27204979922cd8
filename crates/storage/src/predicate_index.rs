//! Predicate indexing: the "query-data join" of ClockScan.
//!
//! The key trick of the Crescando ClockScan algorithm (Section 4.4, \[28\]) is
//! to index the *query predicates* of a batch instead of the data, and to
//! treat the scan as a join between data tuples and queries. While a cycle
//! sweeps over the table, each row is probed against the predicate index to
//! find the queries that select it — instead of evaluating every query
//! predicate against every row.
//!
//! Every query lands in exactly one of three classes, by the first
//! `column = literal` conjunct of its predicate, else its first
//! `column <, <=, >, >= literal` conjunct, else none ([`PredicateClass::of`]):
//!
//! * **Equality** and **range** — the conjunct becomes a typed entry
//!   `column ⟨op⟩ literal`. Entries are kept in flat runs, one per column,
//!   literal family (integer-or-date, float, text, boolean) and bound kind,
//!   each sorted by literal; queries with the same `(column, op, literal)`
//!   collapse into *one* entry carrying their ids in ascending order. Per
//!   row a run costs one value fetch and two binary searches over its
//!   **distinct** literals — `O(log d)` comparisons, however many queries
//!   share them — plus one copy of the ids of the entries that hold. Range
//!   runs are ordered so the entries a value satisfies are a prefix (`>`,
//!   `>=`) or a suffix (`<`, `<=`) of the run; nothing is compared per
//!   query.
//! * **Residual** — everything else (LIKE-only predicates, disjunctions,
//!   comparisons with NULL, ...): the whole expression is evaluated on every
//!   row, `O(residual queries)` evaluations per row, the un-shared path. An
//!   evaluation borrows the row's values and the literals where they lie
//!   and allocates nothing ([`Expr::eval`]): ≈ 15 ns for a text comparison,
//!   ≈ 25–30 ns for a `LIKE '%x%'` over a title — against one search among
//!   the distinct literals of a run, shared by all its queries, for the two
//!   indexed classes. A `LIKE`-only predicate need not come here at all: on
//!   a column indexed by gram a cycle whose every query names an index is
//!   served from the posting list of the pattern's rarest gram
//!   (`ClockScan::serve_from_indexes`, `AccessPath::IndexGrams`) and builds
//!   no predicate index; it is the residual class only in a cycle that takes
//!   the pass for another query's sake.
//!
//! A query whose whole predicate *is* its indexed conjunct is decided by the
//! entry alone. Any other indexed query is a candidate only: its full
//! predicate is re-evaluated on the rows its entry admits, so indexing
//! narrows and never changes results. Comparisons follow [`Value::sql_cmp`]
//! — the relation `Expr::eval` uses — not `Value`'s `Eq`/`Hash`: an
//! `Int(5)` literal selects a row holding `Date(5)`, and NULL or a value of
//! a foreign family selects nothing. A row that no query selects allocates
//! nothing.
//!
//! The same runs answer for a whole chunk of the version arena at once
//! ([`PredicateIndex::may_match`]): given the smallest and largest value the
//! chunk holds in a run's column, two searches of the run say whether any of
//! its comparisons can hold for a value in between. A chunk costs
//! `O(runs · log d)` — nothing at all when the cycle holds a residual query,
//! which admits every chunk — against the `O(rows · runs · log d)` of
//! probing the up to 1 024 versions it spares when the answer is no.

use crate::table::{ChunkZones, Zone};
use shareddb_common::{BinaryOp, Expr, QueryId, QuerySet, Result, Text, Tuple, Value};
use std::borrow::Cow;
use std::cmp::Ordering;

/// One query registered for a scan cycle.
#[derive(Debug, Clone)]
pub struct IndexedQuery {
    /// The id of the active query.
    pub query_id: QueryId,
    /// The full (bound, resolved) predicate of the query on this table.
    pub predicate: Expr,
}

/// The index class of one predicate (see the module documentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateClass {
    /// Indexed by an equality conjunct on this column.
    Equality(usize),
    /// Indexed by a `<`, `<=`, `>` or `>=` conjunct on this column.
    Range(usize),
    /// Not indexable: evaluated on every row.
    Residual,
}

impl PredicateClass {
    /// Class names in the order of [`PredicateIndex::class_counts`].
    pub const NAMES: [&'static str; 3] = ["equality", "range", "residual"];

    /// Where the class is counted in [`PredicateIndex::class_counts`].
    pub(crate) fn slot(self) -> usize {
        match self {
            PredicateClass::Equality(_) => 0,
            PredicateClass::Range(_) => 1,
            PredicateClass::Residual => 2,
        }
    }

    /// The class a bound predicate lands in.
    pub fn of(predicate: &Expr) -> PredicateClass {
        match indexed_conjunct(&predicate.split_conjuncts()) {
            Some((column, BinaryOp::Eq, _)) => PredicateClass::Equality(column),
            Some((column, _, _)) => PredicateClass::Range(column),
            None => PredicateClass::Residual,
        }
    }
}

/// The conjunct a predicate is indexed by: the first equality with a literal
/// an entry can hold, else the first such range comparison.
fn indexed_conjunct<'e>(conjuncts: &[&'e Expr]) -> Option<(usize, BinaryOp, &'e Value)> {
    let candidates = || {
        conjuncts
            .iter()
            .filter_map(|c| c.as_column_literal_cmp())
            .filter(|(_, _, literal)| Literals::of(literal).is_some())
    };
    candidates()
        .find(|(_, op, _)| *op == BinaryOp::Eq)
        .or_else(|| candidates().find(|(_, op, _)| Bound::of(*op).is_some()))
}

/// The literals of one run, ascending, as what they are: `sql_cmp` orders a
/// family totally among itself and consistently against every row value it
/// is comparable with, which is what makes a run searchable. `Int` holds
/// integer and date literals (both compare as `i64`).
#[derive(Debug)]
enum Literals {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Text(Vec<Text>),
    Bool(Vec<bool>),
}

impl Literals {
    /// The family of a literal — its position in a run key and an empty run
    /// of it; `None` for NULL, which no entry can hold (a comparison with
    /// NULL is never true).
    fn of(literal: &Value) -> Option<(u8, Literals)> {
        Some(match literal {
            Value::Null => return None,
            Value::Int(_) | Value::Date(_) => (0, Literals::Int(Vec::new())),
            Value::Float(_) => (1, Literals::Float(Vec::new())),
            Value::Text(_) => (2, Literals::Text(Vec::new())),
            Value::Bool(_) => (3, Literals::Bool(Vec::new())),
        })
    }

    fn push(&mut self, literal: Value) {
        match (self, literal) {
            (Literals::Int(keys), Value::Int(k) | Value::Date(k)) => keys.push(k),
            (Literals::Float(keys), Value::Float(k)) => keys.push(k),
            (Literals::Text(keys), Value::Text(k)) => keys.push(k),
            (Literals::Bool(keys), Value::Bool(k)) => keys.push(k),
            _ => unreachable!("a run holds the literals of one family"),
        }
    }

    /// Where `row` falls among the literals: `(below, above)` such that
    /// literals `[..below]` are under it, `[below..above]` equal to it and
    /// the rest over it — by the rules of [`Value::sql_cmp`], spelled out per
    /// pair of types. `None` when the row value is NULL or of a family the
    /// literals do not compare with: no comparison of the run holds.
    /// (Forced inline: the per-row probe runs this once per run and row, and
    /// with the per-chunk test as a second caller the inliner's own choice
    /// is a call there.)
    #[inline(always)]
    fn rank(&self, row: &Value) -> Option<(usize, usize)> {
        fn rank<K>(keys: &[K], literal_to_row: impl Fn(&K) -> Ordering) -> Option<(usize, usize)> {
            let below = keys.partition_point(|k| literal_to_row(k) == Ordering::Less);
            let equal = keys[below..]
                .iter()
                .take_while(|k| literal_to_row(k) == Ordering::Equal);
            Some((below, below + equal.count()))
        }
        match (self, row) {
            (Literals::Int(keys), Value::Int(v) | Value::Date(v)) => rank(keys, |k| k.cmp(v)),
            (Literals::Int(keys), Value::Float(v)) => rank(keys, |k| (*k as f64).total_cmp(v)),
            (Literals::Float(keys), Value::Int(v) | Value::Date(v)) => {
                rank(keys, |k| k.total_cmp(&(*v as f64)))
            }
            (Literals::Float(keys), Value::Float(v)) => rank(keys, |k| k.total_cmp(v)),
            (Literals::Text(keys), Value::Text(v)) => {
                let v = v.as_str();
                rank(keys, |k| k.as_str().cmp(v))
            }
            (Literals::Bool(keys), Value::Bool(v)) => rank(keys, |k| k.cmp(v)),
            _ => None,
        }
    }
}

/// Which side of the literal the values an entry admits lie on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Bound {
    /// `column = literal`.
    Point,
    /// `column > literal`, `column >= literal`: holds for a prefix of the run.
    Lower,
    /// `column < literal`, `column <= literal`: holds for a suffix of the run.
    Upper,
}

impl Bound {
    fn of(op: BinaryOp) -> Option<Bound> {
        match op {
            BinaryOp::Eq => Some(Bound::Point),
            BinaryOp::Gt | BinaryOp::GtEq => Some(Bound::Lower),
            BinaryOp::Lt | BinaryOp::LtEq => Some(Bound::Upper),
            _ => None,
        }
    }
}

/// The queries indexed by one comparison `column ⟨op⟩ literal`.
#[derive(Debug)]
struct Entry {
    /// True when a value equal to the literal satisfies the comparison.
    inclusive: bool,
    /// Queries whose whole predicate is this comparison, ascending.
    exact: Vec<QueryId>,
    /// Positions in `PredicateIndex::checked` of the queries that hold this
    /// comparison among other conjuncts.
    candidates: Vec<u32>,
}

/// What the entries of one run share: column, literal family, bound kind.
type RunKey = (usize, u8, Bound);

/// The comparison one query is indexed by: run, literal, inclusive, query,
/// and the query's slot in `checked` unless the comparison decides it.
type Keyed = (RunKey, Value, bool, QueryId, Option<u32>);

/// The comparisons of one [`RunKey`]: literal `i` belongs to
/// `entries[first + i]`, the last to `entries[end - 1]`.
#[derive(Debug)]
struct Run {
    key: RunKey,
    literals: Literals,
    first: usize,
    end: usize,
}

/// The predicate index for one scan cycle.
#[derive(Debug, Default)]
pub struct PredicateIndex<'a> {
    runs: Vec<Run>,
    entries: Vec<Entry>,
    /// Queries that need their full predicate evaluated: indexed candidates
    /// and residual queries.
    checked: Vec<(QueryId, Cow<'a, Expr>)>,
    /// Positions in `checked` of the residual queries.
    residual: Vec<u32>,
    /// Registered queries per class, in the order of `PredicateClass::NAMES`.
    classes: [usize; 3],
}

impl PredicateIndex<'static> {
    /// Builds the index for a batch of queries.
    pub fn build(queries: Vec<IndexedQuery>) -> Self {
        Self::from_predicates(
            queries
                .into_iter()
                .map(|q| (q.query_id, Cow::Owned(q.predicate))),
        )
    }
}

impl<'a> PredicateIndex<'a> {
    /// Builds the index over predicates the caller keeps (one scan cycle
    /// borrows its queries; nothing is cloned).
    pub fn over(queries: impl IntoIterator<Item = (QueryId, &'a Expr)>) -> Self {
        Self::from_predicates(queries.into_iter().map(|(q, p)| (q, Cow::Borrowed(p))))
    }

    fn from_predicates(queries: impl Iterator<Item = (QueryId, Cow<'a, Expr>)>) -> Self {
        let mut index = PredicateIndex::default();
        let mut keyed: Vec<Keyed> = Vec::new();
        for (query_id, predicate) in queries {
            let conjuncts = predicate.split_conjuncts();
            let conjunct = indexed_conjunct(&conjuncts);
            let decided = conjunct.is_some() && conjuncts.len() == 1;
            let slot = (!decided).then_some(index.checked.len() as u32);
            let class = match conjunct {
                Some((column, op, literal)) => {
                    let (family, _) = Literals::of(literal).expect("indexed literals have one");
                    let bound = Bound::of(op).expect("indexed operators have one");
                    let inclusive = !matches!(op, BinaryOp::Gt | BinaryOp::Lt);
                    let key = (column, family, bound);
                    keyed.push((key, literal.clone(), inclusive, query_id, slot));
                    (bound != Bound::Point) as usize
                }
                None => {
                    index.residual.extend(slot);
                    2
                }
            };
            index.classes[class] += 1;
            if slot.is_some() {
                index.checked.push((query_id, predicate));
            }
        }
        // Sorted by run, then literal; identical comparisons end up
        // neighbours with their queries ascending, and collapse.
        let literal_order = |a: &Value, b: &Value| a.sql_cmp(b).expect("one family");
        keyed.sort_by(|(ka, la, ia, qa, _), (kb, lb, ib, qb, _)| {
            ka.cmp(kb)
                .then_with(|| literal_order(la, lb))
                .then_with(|| ia.cmp(ib))
                .then_with(|| qa.cmp(qb))
        });
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            let (_, mut literals) = Literals::of(&run[0].1).expect("indexed literals have one");
            let first = index.entries.len();
            let same = |a: &Keyed, b: &Keyed| a.2 == b.2 && literal_order(&a.1, &b.1).is_eq();
            for comparison in run.chunk_by(same) {
                literals.push(comparison[0].1.clone());
                index.entries.push(Entry {
                    inclusive: comparison[0].2,
                    exact: comparison
                        .iter()
                        .filter(|c| c.4.is_none())
                        .map(|c| c.3)
                        .collect(),
                    candidates: comparison.iter().filter_map(|c| c.4).collect(),
                });
            }
            index.runs.push(Run {
                key: run[0].0,
                literals,
                first,
                end: index.entries.len(),
            });
        }
        index
    }

    /// Registered queries per class, in the order of
    /// [`PredicateClass::NAMES`].
    pub fn class_counts(&self) -> [usize; 3] {
        self.classes
    }

    /// Probes the index with one data tuple and returns the set of queries
    /// that select it.
    pub fn matching_queries(&self, tuple: &Tuple) -> Result<QuerySet> {
        let mut ids = Vec::new();
        self.matches_into(tuple, &mut ids)?;
        Ok(QuerySet::from_ids(ids))
    }

    /// Appends the queries that select `tuple` to `out`, in no particular
    /// order and each once (a query sits in exactly one entry or in the
    /// residual list). A scan passes one buffer for all its rows.
    #[inline]
    pub fn matches_into(&self, tuple: &Tuple, out: &mut Vec<QueryId>) -> Result<()> {
        for run in &self.runs {
            let (column, _, bound) = run.key;
            let Some((below, above)) = tuple.get(column).and_then(|v| run.literals.rank(v)) else {
                continue;
            };
            let entries = &self.entries[run.first..run.end];
            let strictly = match bound {
                Bound::Point => &[][..],
                Bound::Lower => &entries[..below],
                Bound::Upper => &entries[above..],
            };
            let at_literal = entries[below..above].iter().filter(|e| e.inclusive);
            for entry in strictly.iter().chain(at_literal) {
                out.extend_from_slice(&entry.exact);
                for &slot in &entry.candidates {
                    self.check(slot, tuple, out)?;
                }
            }
        }
        for &slot in &self.residual {
            self.check(slot, tuple, out)?;
        }
        Ok(())
    }

    /// False when no query of the index can select any version of a chunk
    /// with these zones, so a scan may pass over the chunk: there is no
    /// residual query, and in every run no comparison holds for any value
    /// between the chunk's smallest and largest in the run's column. A query
    /// that is only a candidate of its entry counts like one the entry
    /// decides — the indexed conjunct is necessary either way. A run's
    /// comparisons hold for more of its entries the larger (`>`, `>=`) or the
    /// smaller (`<`, `<=`) the value, so the end of the zone they favour
    /// speaks for all of it.
    pub fn may_match(&self, zones: &ChunkZones<'_>) -> bool {
        if !self.residual.is_empty() {
            return true;
        }
        self.runs.iter().any(|run| {
            let (column, _, bound) = run.key;
            let (min, max) = match zones.zone(column) {
                Zone::Unknown => return true,
                Zone::Empty => return false,
                Zone::Int(min, max) => (Value::Int(min), Value::Int(max)),
                Zone::Float(min, max) => (Value::Float(min), Value::Float(max)),
            };
            let (Some(at_min), Some(at_max)) = (run.literals.rank(&min), run.literals.rank(&max))
            else {
                return false;
            };
            let entries = &self.entries[run.first..run.end];
            let inclusive_at =
                |(below, above): (usize, usize)| entries[below..above].iter().any(|e| e.inclusive);
            match bound {
                Bound::Point => at_min.0 < at_max.1,
                Bound::Lower => at_max.0 > 0 || inclusive_at(at_max),
                Bound::Upper => at_min.1 < entries.len() || inclusive_at(at_min),
            }
        })
    }

    fn check(&self, slot: u32, tuple: &Tuple, out: &mut Vec<QueryId>) -> Result<()> {
        let (query_id, predicate) = &self.checked[slot as usize];
        if predicate.eval_predicate(tuple)? {
            out.push(*query_id);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use shareddb_common::{tuple, UnaryOp};

    fn q(id: u32, predicate: Expr) -> IndexedQuery {
        IndexedQuery {
            query_id: QueryId(id),
            predicate,
        }
    }

    fn ids(set: QuerySet) -> Vec<u32> {
        set.iter().map(|q| q.raw()).collect()
    }

    #[test]
    fn equality_indexed_queries() {
        // Two queries on CATEGORY (= col 1), one on ID (= col 0).
        let index = PredicateIndex::build(vec![
            q(1, Expr::col(1).eq(Expr::lit("FICTION"))),
            q(2, Expr::col(1).eq(Expr::lit("HISTORY"))),
            q(3, Expr::col(0).eq(Expr::lit(7i64))),
        ]);
        assert_eq!(index.class_counts(), [3, 0, 0]);
        let m = index.matching_queries(&tuple![7i64, "FICTION"]).unwrap();
        assert_eq!(ids(m), [1, 3]);
        let t = tuple![9i64, "COOKING"];
        assert!(index.matching_queries(&t).unwrap().is_empty());
    }

    #[test]
    fn equality_with_residual_conjunct_still_verified() {
        // col1 = 'X' AND col0 > 5: indexed on the equality, verified fully.
        let predicate = Expr::col(1)
            .eq(Expr::lit("X"))
            .and(Expr::col(0).gt(Expr::lit(5i64)));
        assert_eq!(PredicateClass::of(&predicate), PredicateClass::Equality(1));
        let index = PredicateIndex::build(vec![q(1, predicate)]);
        let matches = |row| ids(index.matching_queries(&row).unwrap());
        assert_eq!(matches(tuple![9i64, "X"]), [1]);
        assert!(matches(tuple![3i64, "X"]).is_empty());
    }

    #[test]
    fn range_indexed_queries() {
        let index = PredicateIndex::build(vec![
            q(1, Expr::col(0).gt(Expr::lit(10i64))),
            q(2, Expr::col(0).lt_eq(Expr::lit(3i64))),
            q(3, Expr::col(2).gt_eq(Expr::lit(1.5f64))),
            q(4, Expr::lit(11i64).lt_eq(Expr::col(0))),
            q(5, Expr::col(0).gt(Expr::lit(11i64))),
        ]);
        assert_eq!(index.class_counts(), [0, 5, 0]);
        let matches = |row| ids(index.matching_queries(&row).unwrap());
        assert_eq!(matches(tuple![11i64, "x", 2.0f64]), [1, 3, 4]);
        assert_eq!(matches(tuple![12i64, "x", 1.0f64]), [1, 4, 5]);
        assert_eq!(matches(tuple![2i64, "x", 0.0f64]), [2]);
        assert!(matches(tuple![Value::Null, "x", Value::Null]).is_empty());
    }

    #[test]
    fn residual_queries() {
        let either = Expr::col(0)
            .eq(Expr::lit(1i64))
            .or(Expr::col(0).eq(Expr::lit(2i64)));
        let index = PredicateIndex::build(vec![
            q(1, Expr::col(1).like(Expr::lit("%DB%"))),
            q(2, Expr::col(1).like(Expr::lit("%XYZ%"))),
            q(5, either),
            // A comparison with NULL is never true; it is not indexed.
            q(6, Expr::col(0).eq(Expr::Literal(Value::Null))),
        ]);
        assert_eq!(index.class_counts(), [0, 0, 4]);
        let matches = |row| ids(index.matching_queries(&row).unwrap());
        assert_eq!(matches(tuple![2i64, "SharedDB paper"]), [1, 5]);
        assert!(matches(tuple![3i64, "none"]).is_empty());
    }

    #[test]
    fn identical_comparisons_collapse_into_one_entry() {
        // 100 queries asking for one category, 100 for one range: two
        // comparisons per row find all of them.
        let queries: Vec<_> = (0..200)
            .map(|i| match i % 2 {
                0 => q(i, Expr::col(0).eq(Expr::lit("C"))),
                _ => q(i, Expr::col(1).lt(Expr::lit(5i64))),
            })
            .collect();
        let index = PredicateIndex::build(queries);
        assert_eq!(
            (index.class_counts(), index.entries.len()),
            ([100, 100, 0], 2)
        );
        assert_eq!(
            index.matching_queries(&tuple!["C", 1i64]).unwrap().len(),
            200
        );
        assert_eq!(
            index.matching_queries(&tuple!["C", 5i64]).unwrap().len(),
            100
        );
    }

    #[test]
    fn empty_index() {
        let index = PredicateIndex::build(vec![]);
        assert_eq!(index.class_counts(), [0, 0, 0]);
        assert!(index.matching_queries(&tuple![1i64]).unwrap().is_empty());
    }

    /// `sql_cmp` equates `Int(5)` and `Date(5)`; `Value`'s `Eq`/`Hash`, which
    /// keyed the equality class before, do not.
    #[test]
    fn int_and_date_spell_one_value() {
        let queries = vec![
            q(1, Expr::col(0).eq(Expr::lit(5i64))),
            q(2, Expr::col(0).eq(Expr::Literal(Value::Date(5)))),
            q(3, Expr::col(0).eq(Expr::lit(5.0f64))),
        ];
        let index = PredicateIndex::build(queries.clone());
        for row in [tuple![Value::Date(5)], tuple![5i64], tuple![5.0f64]] {
            assert!(queries
                .iter()
                .all(|q| q.predicate.eval_predicate(&row).unwrap()));
            assert_eq!(
                ids(index.matching_queries(&row).unwrap()),
                [1, 2, 3],
                "{row}"
            );
        }
        let other = tuple![Value::Date(6)];
        assert!(index.matching_queries(&other).unwrap().is_empty());
    }

    /// `may_match` is exact at the ends of a zone: `>` the largest value
    /// holds for nothing, `>=` it for something; a candidate's indexed
    /// conjunct counts like a deciding one, a residual query or a column no
    /// zone is kept for admits every chunk, and a column holding only NULLs
    /// rules out its own runs, not the others'.
    #[test]
    fn may_match_is_exact_at_the_ends_of_a_zone() {
        use crate::table::Table;
        use shareddb_common::ids::Timestamp;
        use shareddb_common::{Column, DataType, Schema};
        // N in 10..=20 (a NULL among them), F in 1.5..=2.5, S text.
        let table = |n: fn(i64) -> Value| {
            let schema = Schema::new(vec![
                Column::nullable("N", DataType::Int),
                Column::new("F", DataType::Float),
                Column::new("S", DataType::Text),
            ]);
            let mut table = Table::new("T", schema, vec![]);
            for i in 10..=20 {
                let row = tuple![n(i), 1.5 + (i - 10) as f64 / 10.0, "x"];
                table.insert(row, Timestamp(1)).unwrap();
            }
            table
        };
        let may_match = |table: &Table, predicates: &[Expr]| {
            let queries = predicates.iter().enumerate();
            let index = PredicateIndex::over(queries.map(|(i, p)| (QueryId(i as u32), p)));
            index.may_match(&table.chunks().next().unwrap().zones)
        };
        let numbers = table(|i| if i == 15 { Value::Null } else { Value::Int(i) });
        let (n, f, s) = (|| Expr::col(0), || Expr::col(1), || Expr::col(2));
        let cases = [
            (vec![n().gt(Expr::lit(20i64))], false),
            (vec![n().gt_eq(Expr::lit(20i64))], true),
            (vec![n().lt(Expr::lit(10i64))], false),
            (vec![n().lt_eq(Expr::Literal(Value::Date(10)))], true),
            (
                vec![n().eq(Expr::lit(21i64)), n().eq(Expr::lit(9i64))],
                false,
            ),
            (vec![n().eq(Expr::lit(15i64))], true),
            (vec![n().gt(Expr::lit(19.5f64))], true),
            (vec![n().gt(Expr::lit(20.5f64))], false),
            (vec![n().lt(Expr::lit(10.5f64))], true),
            (vec![n().eq(Expr::lit("a"))], false),
            (
                vec![f().lt(Expr::lit(1i64)), n().gt(Expr::lit(20i64))],
                false,
            ),
            (
                vec![f().lt_eq(Expr::lit(1.5f64)), n().gt(Expr::lit(20i64))],
                true,
            ),
            (vec![s().eq(Expr::lit("zzz"))], true),
            (
                vec![n().gt(Expr::lit(20i64)).and(s().like(Expr::lit("%")))],
                false,
            ),
            (
                vec![n().gt(Expr::lit(20i64)), s().like(Expr::lit("y%"))],
                true,
            ),
            (
                vec![n().gt(Expr::lit(20i64)).or(n().lt(Expr::lit(5i64)))],
                true,
            ),
            (vec![], false),
        ];
        for (predicates, expected) in cases {
            assert_eq!(may_match(&numbers, &predicates), expected, "{predicates:?}");
        }
        let nulls = table(|_| Value::Null);
        let any_n = n().gt_eq(Expr::lit(i64::MIN));
        assert!(!may_match(&nulls, std::slice::from_ref(&any_n)));
        assert!(may_match(&nulls, &[any_n, f().gt(Expr::lit(2i64))]));
    }

    // -- the differential property ------------------------------------------

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (0..n).generate(rng)
    }

    /// Column 0 holds numbers of every spelling, column 1 text, column 2
    /// booleans; each may be NULL.
    const COLUMNS: usize = 3;

    fn number(rng: &mut TestRng) -> Value {
        let n = pick(rng, 5) as i64 - 1;
        match pick(rng, 6) {
            0 => Value::Int(n),
            1 => Value::Date(n),
            2 => Value::Float(n as f64),
            3 => Value::Float(n as f64 + 0.5),
            // Integers a float cannot tell apart.
            4 => Value::Int((1 << 53) + n),
            _ => Value::Float((1u64 << 53) as f64),
        }
    }

    fn value_of(rng: &mut TestRng, column: usize) -> Value {
        match (pick(rng, 6), column) {
            (0, _) => Value::Null,
            (_, 0) => number(rng),
            (_, 1) => Value::text(["a", "b", "ab", ""][pick(rng, 4)]),
            _ => Value::Bool(pick(rng, 2) == 0),
        }
    }

    /// A literal of the column's family mostly, of any family sometimes.
    fn literal_for(rng: &mut TestRng, column: usize) -> Expr {
        let column = match pick(rng, 8) {
            0 => pick(rng, COLUMNS),
            _ => column,
        };
        Expr::Literal(value_of(rng, column))
    }

    fn comparison(rng: &mut TestRng) -> Expr {
        const OPS: [BinaryOp; 6] = [
            BinaryOp::Eq,
            BinaryOp::Lt,
            BinaryOp::LtEq,
            BinaryOp::Gt,
            BinaryOp::GtEq,
            BinaryOp::NotEq,
        ];
        let column = pick(rng, COLUMNS);
        let op = OPS[pick(rng, OPS.len())];
        let (column, literal) = (Expr::col(column), literal_for(rng, column));
        match pick(rng, 4) {
            0 => literal.binary(op, column),
            _ => column.binary(op, literal),
        }
    }

    fn predicate(rng: &mut TestRng) -> Expr {
        let like =
            |rng: &mut TestRng| Expr::col(1).like(Expr::lit(["%a%", "a_", "%"][pick(rng, 3)]));
        match pick(rng, 10) {
            0..=4 => comparison(rng),
            5 => comparison(rng).and(comparison(rng)),
            6 => comparison(rng).and(like(rng)),
            7 => like(rng).and(comparison(rng)).and(comparison(rng)),
            8 => comparison(rng).or(comparison(rng)),
            _ => Expr::Unary {
                op: UnaryOp::IsNull,
                expr: Box::new(Expr::col(pick(rng, COLUMNS))),
            },
        }
    }

    #[derive(Debug)]
    struct Case {
        predicates: Vec<Expr>,
        rows: Vec<Tuple>,
    }

    struct Cases;

    impl Strategy for Cases {
        type Value = Case;
        fn generate(&self, rng: &mut TestRng) -> Case {
            let mut predicates: Vec<Expr> = (0..pick(rng, 12)).map(|_| predicate(rng)).collect();
            // Duplicates of one comparison collapse into one entry.
            for _ in 0..pick(rng, 4) {
                let again = predicates.get(pick(rng, predicates.len().max(1))).cloned();
                predicates.extend(again);
            }
            let row = |rng: &mut TestRng| (0..COLUMNS).map(|c| value_of(rng, c)).collect();
            let rows = (0..1 + pick(rng, 6)).map(|_| row(rng)).collect();
            Case { predicates, rows }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The index is the naive evaluation: for every row, exactly the
        /// queries whose predicate holds — however they were classified,
        /// collapsed or spared the verification.
        #[test]
        fn predicate_index_equals_naive_evaluation(case in Cases) {
            let queries = case.predicates.iter().enumerate();
            let index = PredicateIndex::over(queries.map(|(i, p)| (QueryId(i as u32), p)));
            prop_assert_eq!(index.class_counts().iter().sum::<usize>(), case.predicates.len());
            for row in &case.rows {
                let naive: Vec<u32> = (0..case.predicates.len())
                    .filter(|&i| case.predicates[i].eval_predicate(row).unwrap())
                    .map(|i| i as u32)
                    .collect();
                let indexed = ids(index.matching_queries(row).unwrap());
                prop_assert!(indexed == naive, "{row}: indexed {indexed:?}, naive {naive:?}\nin {case:#?}");
            }
        }
    }
}
