//! The shared relational operators.
//!
//! Every operator processes **one batch per cycle**: it receives the tuples of
//! all its inputs for the current batch (already in the NF² data-query model)
//! plus the per-query activations, and produces the output tuples of the batch
//! (Algorithm 1 of the paper; the engine drives the cycles and the channels).
//!
//! Operators are implemented as pure functions over `(activations, inputs)` so
//! they can be unit-tested without threads. The engine wraps them in operator
//! threads (see [`crate::engine`]).
//!
//! The unifying rule (Section 3.3/3.4): each operator restricts incoming
//! tuples to the queries *activated at this operator* in the current batch,
//! performs its relational work **once** over the union of all interesting
//! tuples, and annotates outputs with the queries they belong to. Joins amend
//! their predicate with the query-set intersection, which prevents tuples of
//! unrelated queries from combining.

use crate::batch::Activation;
use crate::plan::{AggregateSpec, OperatorSpec};
use shareddb_common::agg::{Accumulator, AggregateFunction};
use shareddb_common::queryset::Union;
use shareddb_common::sort::{compare_tuples, key_word};
use shareddb_common::{
    hash_words, Error, QTuple, QueryId, QuerySet, Result, SortKey, Tuple, Value, WordTable,
};
use shareddb_storage::mvcc::Snapshot;
use shareddb_storage::Catalog;
use std::cmp::Ordering;

/// Context handed to operator execution: the catalog (for index nested-loops
/// joins that probe base tables) and the snapshot of the current batch.
pub struct ExecContext<'a> {
    /// The storage catalog.
    pub catalog: &'a Catalog,
    /// Snapshot all storage reads of this batch use.
    pub snapshot: Snapshot,
}

/// What one operator cycle produced.
#[derive(Debug, Default)]
pub struct Emitted {
    /// The output tuples of the batch.
    pub tuples: Vec<QTuple>,
    /// Work a row demand ([`Activation::Demand`], a Top-N's limit) let the
    /// cycle skip: outer rows a join did not look up, (group, query) rows a
    /// group-by did not build, (row, query) pairs a sort or Top-N did not
    /// keep. Zero in a cycle without demands.
    pub pruned: usize,
    /// Of a group-join ([`execute_group_join`]): the pairs its join matched
    /// and fed to the group-by instead of emitting them. Zero elsewhere.
    pub joined: usize,
}

/// Executes one non-storage operator over the inputs of the current batch.
///
/// `inputs[i]` holds the tuples produced by the operator's `i`-th input for
/// this batch. Storage operators (scans, probes) are executed by
/// [`crate::storage_ops`] instead. The inputs are only read — see
/// [`execute_on`], which this wraps for callers that own them.
pub fn execute_operator(
    spec: &OperatorSpec,
    activations: &[(QueryId, Activation)],
    inputs: Vec<Vec<QTuple>>,
    ctx: &ExecContext<'_>,
) -> Result<Vec<QTuple>> {
    let inputs: Vec<&[QTuple]> = inputs.iter().map(Vec::as_slice).collect();
    execute_on(spec, activations, &inputs, ctx).map(|emitted| emitted.tuples)
}

/// [`execute_operator`] over borrowed inputs: one producer's output serves
/// all its consumers, none of which copies it. An operator allocates for what
/// it emits and for its own state (hash table, groups) — a join one pair per
/// emitted row, naming its two input rows; group-by the aggregate row, the
/// only payload built here; everything else hands the input row on by
/// reference count — and nothing for an input tuple none of its queries
/// wants. A hash join whose only consumer is a group-by over build-side
/// columns builds no pair when the executor runs the two as one cycle,
/// [`execute_group_join`]: its pairs go straight into the accumulators.
///
/// Whatever a cycle hashes or ranks rows by, it gathers as one 64-bit word a
/// row ([`hash_words`], [`key_word`]): its tables, sized once from its input,
/// compare words before keys, its selections words before rows. A join
/// whose build keys are integers over a span no larger than its probe input
/// hashes nothing: it files its build rows in an array indexed by the key.
///
/// A query that carries an [`Activation::Demand`] gets, of what the operator
/// would emit for it, a sub-sequence that holds its first `limit` rows under
/// `(keys, position in that output)` — all a stable cut to `limit` rows
/// above can tell apart.
pub fn execute_on(
    spec: &OperatorSpec,
    activations: &[(QueryId, Activation)],
    inputs: &[&[QTuple]],
    ctx: &ExecContext<'_>,
) -> Result<Emitted> {
    let active = active_set(activations);
    let input = |i: usize| inputs.get(i).copied().unwrap_or_default();
    let only = || match inputs {
        [input] => Ok(*input),
        _ => Err(Error::Internal(format!(
            "operator expected exactly one input, got {}",
            inputs.len()
        ))),
    };
    let all = |tuples: Vec<QTuple>| Emitted {
        tuples,
        ..Emitted::default()
    };
    match spec {
        OperatorSpec::TableScan { .. } | OperatorSpec::IndexProbe { .. } => Err(Error::Internal(
            "storage operators are executed by the storage layer".into(),
        )),
        OperatorSpec::Filter => execute_filter(activations, &active, only()?).map(all),
        OperatorSpec::HashJoin {
            build_key,
            probe_key,
        } => Ok(all(execute_hash_join(
            &active,
            input(0),
            input(1),
            *build_key,
            *probe_key,
        ))),
        OperatorSpec::NestedLoopJoin => {
            Ok(all(execute_nested_loop_join(&active, input(0), input(1))))
        }
        OperatorSpec::IndexNlJoin {
            table,
            outer_key,
            inner_column,
        } => execute_index_nl_join(
            activations,
            &active,
            only()?,
            table,
            *outer_key,
            *inner_column,
            ctx,
        ),
        OperatorSpec::Sort { keys } | OperatorSpec::TopN { keys } => {
            Ok(execute_sort(activations, &active, only()?, keys))
        }
        OperatorSpec::GroupBy {
            group_columns,
            aggregates,
        } => execute_group_by(activations, &active, only()?, group_columns, aggregates),
        OperatorSpec::Distinct => Ok(all(execute_distinct(&active, only()?))),
    }
}

/// The set of queries activated at this operator in the current batch.
fn active_set(activations: &[(QueryId, Activation)]) -> QuerySet {
    activations.iter().map(|(q, _)| *q).collect()
}

/// The input rows some query activated at this operator is interested in,
/// each with those of its queries (the row itself is borrowed, not copied).
fn restricted<'a>(
    input: &'a [QTuple],
    active: &'a QuerySet,
) -> impl Iterator<Item = (&'a Tuple, QuerySet)> {
    input.iter().filter_map(move |t| {
        let queries = t.queries.intersect(active);
        (!queries.is_empty()).then_some((&t.tuple, queries))
    })
}

/// What the activations of a cycle say of some of its queries: `(query,
/// what)`, ascending by query.
struct PerQuery<T>(Vec<(QueryId, T)>);

impl<T> PerQuery<T> {
    fn of(said: impl Iterator<Item = (QueryId, T)>) -> Self {
        let mut said: Vec<_> = said.collect();
        said.sort_unstable_by_key(|(query, _)| *query);
        PerQuery(said)
    }

    /// The place of `query` in the list, if it is there.
    fn slot(&self, query: QueryId) -> Option<usize> {
        self.0.binary_search_by_key(&query, |(q, _)| *q).ok()
    }

    fn get(&self, query: QueryId) -> Option<&T> {
        self.slot(query).map(|slot| &self.0[slot].1)
    }
}

// ---------------------------------------------------------------------------
// Row demand
// ---------------------------------------------------------------------------

/// The queries of a cycle that want only their first `limit` rows under
/// `keys`: `(query, (keys, limit))`.
type Demands<'a> = PerQuery<(&'a [SortKey], usize)>;

impl<'a> Demands<'a> {
    /// The demands the activations carry.
    fn carried(activations: &'a [(QueryId, Activation)]) -> Self {
        let carried = |(q, a): &'a (QueryId, Activation)| {
            let (_, demand) = a.split_demand();
            demand.map(|demand| (*q, demand))
        };
        Self::of(activations.iter().filter_map(carried))
    }

    fn queries(&self) -> QuerySet {
        self.0.iter().map(|(query, _)| *query).collect()
    }
}

/// One row a selection chooses among: the order word of its first key,
/// gathered once, and what names it — a position in an input, a slot of a
/// table. Words decide where they differ ([`Value::order_word`]); only rows
/// whose words tie are looked at.
type Ranked = (u64, u32);

/// `a` against `b`: by word, then by `ties` — a total order of what the two
/// name that agrees with the words.
#[inline]
fn rank(a: &Ranked, b: &Ranked, ties: &impl Fn(u32, u32) -> Ordering) -> Ordering {
    a.0.cmp(&b.0).then_with(|| ties(a.1, b.1))
}

/// What each demanding query of a cycle chooses from, filed under the
/// query's slot, each query's in the order they were filed.
struct Candidates {
    items: Vec<Ranked>,
    /// Query slot `i` owns `items[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
}

impl Candidates {
    /// Sorts `filed` — `(query slot, item)` pairs — by slot, stably.
    fn file(filed: &[(u32, Ranked)], slots: usize) -> Self {
        let mut starts = vec![0usize; slots + 1];
        for (slot, _) in filed {
            starts[*slot as usize + 1] += 1;
        }
        for slot in 0..slots {
            starts[slot + 1] += starts[slot];
        }
        let mut next = starts.clone();
        let mut items = vec![(0, 0); filed.len()];
        for (slot, item) in filed {
            items[next[*slot as usize]] = *item;
            next[*slot as usize] += 1;
        }
        Candidates { items, starts }
    }

    fn of(&mut self, slot: usize) -> &mut [Ranked] {
        &mut self.items[self.starts[slot]..self.starts[slot + 1]]
    }
}

/// Offers `item` to `best`, the `limit` first under [`rank`] of the items
/// offered so far, kept as a heap with the last of them on top. True when
/// that cost a row its place: `item` itself, or the one it ousts.
fn offer(
    best: &mut Vec<Ranked>,
    limit: usize,
    item: Ranked,
    ties: &impl Fn(u32, u32) -> Ordering,
) -> bool {
    if best.len() < limit {
        best.push(item);
        let mut at = best.len() - 1;
        while at > 0 && rank(&best[at], &best[(at - 1) / 2], ties).is_gt() {
            best.swap(at, (at - 1) / 2);
            at = (at - 1) / 2;
        }
        return false;
    }
    if limit > 0 && rank(&item, &best[0], ties).is_lt() {
        best[0] = item;
        let mut at = 0;
        loop {
            let children = 2 * at + 1..best.len().min(2 * at + 3);
            let Some(last) = children.max_by(|a, b| rank(&best[*a], &best[*b], ties)) else {
                break;
            };
            if rank(&best[last], &best[at], ties).is_le() {
                break;
            }
            best.swap(at, last);
            at = last;
        }
    }
    true
}

/// Moves the first `limit` of `items` under [`rank`] to the front, in no
/// particular order, and returns how many those are.
fn select_first(items: &mut [Ranked], limit: usize, ties: &impl Fn(u32, u32) -> Ordering) -> usize {
    let keep = limit.min(items.len());
    if 0 < keep && keep < items.len() {
        items.select_nth_unstable_by(keep - 1, |a, b| rank(a, b, ties));
    }
    keep
}

// ---------------------------------------------------------------------------
// Filter
// ---------------------------------------------------------------------------

fn execute_filter(
    activations: &[(QueryId, Activation)],
    active: &QuerySet,
    input: &[QTuple],
) -> Result<Vec<QTuple>> {
    // query -> residual predicate
    let predicates = PerQuery::of(activations.iter().filter_map(|(q, a)| match a {
        Activation::Filter { predicate } => Some((*q, predicate)),
        _ => None,
    }));
    let mut out = Vec::new();
    for (tuple, queries) in restricted(input, active) {
        let mut keep = QuerySet::new();
        for q in queries.iter() {
            // A query that participates without a predicate keeps the tuple
            // unconditionally.
            if predicates
                .get(q)
                .map_or(Ok(true), |p| p.eval_predicate(tuple))?
            {
                keep.insert(q);
            }
        }
        if !keep.is_empty() {
            out.push(QTuple::new(tuple.clone(), keep));
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

fn execute_hash_join(
    active: &QuerySet,
    build: &[QTuple],
    probe: &[QTuple],
    build_key: usize,
    probe_key: usize,
) -> Vec<QTuple> {
    let side = BuildSide::of(build, active, build_key, probe.len());
    // Probe phase: the effective join predicate is
    // `build_key = probe_key AND build.query_id ∩ probe.query_id ≠ ∅`. The
    // build side carries only queries active here, so the intersection
    // restricts the probe side as well.
    let mut out = Vec::new();
    for probe in probe {
        let mut at = side.first(&probe.tuple[probe_key]);
        while at != END {
            let build = &side.rows[at as usize];
            let queries = build.queries.intersect(&probe.queries);
            out.extend(join(build.tuple, &probe.tuple, queries));
            at = build.next;
        }
    }
    out
}

/// A hash join's build phase: the (restricted) build side — NULL never
/// joins —, filed by its join key. The rows lie in one vector, those of one
/// key chained in arrival order; [`Heads`] maps a key to the first row of
/// its chain, which names the last, so a key costs no allocation of its own.
struct BuildSide<'a> {
    rows: Vec<BuildRow<'a>>,
    heads: Heads,
    key: usize,
    /// Every chain holds one row: no two build rows share a key.
    distinct: bool,
}

/// Where a build side's chains start.
enum Heads {
    /// Indexed by `key - min`: taken when every build key is an `Int` of at
    /// most 2^53 in magnitude ([`int_span`]) and the array is no larger than
    /// the probe input the cycle holds ([`addressed`]).
    Array { min: i64, first: Vec<u32> },
    /// By the hash word of the key, in a table sized for the build side.
    Words(WordTable),
}

/// The greatest magnitude of a key the array takes: every `Int` up to it is
/// a distinct `f64`, so `Value`'s equality of an `Int` and a `Float` is that
/// of the integers.
const EXACT: u64 = 1 << 53;

/// The least of `keys` and the number of integers from it to the greatest,
/// when every key is an `Int` of at most [`EXACT`] in magnitude; `(0, 0)`
/// for no key.
fn int_span<'v>(keys: impl Iterator<Item = &'v Value>) -> Option<(i64, u64)> {
    let mut bounds: Option<(i64, i64)> = None;
    for key in keys {
        match *key {
            Value::Int(k) if k.unsigned_abs() <= EXACT => {
                bounds = Some(bounds.map_or((k, k), |(lo, hi)| (lo.min(k), hi.max(k))));
            }
            _ => return None,
        }
    }
    Some(bounds.map_or((0, 0), |(lo, hi)| (lo, hi.abs_diff(lo) + 1)))
}

/// The size rule: an array of `span` chain heads takes no more bytes than
/// the `probe_rows` tuples of the probe input.
fn addressed(span: u64, probe_rows: usize) -> bool {
    let probe_bytes = std::mem::size_of::<QTuple>() as u64 * probe_rows as u64;
    span.saturating_mul(std::mem::size_of::<u32>() as u64) <= probe_bytes
}

impl Heads {
    /// The array slot `key` is filed at: an `Int`'s, or a `Float`'s that
    /// equals one — `3.0`, not `2.5` nor `-0.0`, which equals no `Int` —
    /// within the span; no other value equals an `Int`.
    #[inline]
    fn slot(min: i64, first: &[u32], key: &Value) -> Option<usize> {
        let k = match *key {
            Value::Int(k) => k,
            Value::Float(f) if (f as i64 as f64).to_bits() == f.to_bits() => f as i64,
            _ => return None,
        };
        let at = usize::try_from(k.checked_sub(min)?).ok()?;
        (at < first.len()).then_some(at)
    }
}

struct BuildRow<'a> {
    tuple: &'a Tuple,
    queries: QuerySet,
    next: u32,
    /// Of the first row of a chain: the last.
    last: u32,
}

impl<'a> BuildSide<'a> {
    /// The build side of a cycle whose probe input holds `probe_rows` rows.
    fn of(build: &'a [QTuple], active: &'a QuerySet, key: usize, probe_rows: usize) -> Self {
        let mut rows: Vec<BuildRow<'a>> = restricted(build, active)
            .filter(|(tuple, _)| !tuple[key].is_null())
            .map(|(tuple, queries)| BuildRow {
                tuple,
                queries,
                next: END,
                last: END,
            })
            .collect();
        let mut heads = match int_span(rows.iter().map(|row| &row.tuple[key])) {
            Some((min, span)) if addressed(span, probe_rows) => {
                let first = vec![END; usize::try_from(span).expect("no larger than the probe")];
                Heads::Array { min, first }
            }
            _ => Heads::Words(WordTable::with_room(rows.len())),
        };
        took_array(matches!(heads, Heads::Array { .. }));
        let mut distinct = true;
        for at in 0..link(rows.len()) {
            let value = &rows[at as usize].tuple[key];
            let first = match &mut heads {
                Heads::Array { min, first } => {
                    let slot = Heads::slot(*min, first, value).expect("a build key in its span");
                    let head = &mut first[slot];
                    if *head == END {
                        *head = at;
                    }
                    *head as usize
                }
                Heads::Words(table) => {
                    let same_key = |first: u32| rows[first as usize].tuple[key] == *value;
                    *table.entry(word_of([value]), at, same_key) as usize
                }
            };
            let last = std::mem::replace(&mut rows[first].last, at);
            if last != END {
                rows[last as usize].next = at;
                distinct = false;
            }
        }
        BuildSide {
            rows,
            heads,
            key,
            distinct,
        }
    }

    /// The first of the rows whose key equals `key`, [`END`] if none does.
    #[inline]
    fn first(&self, key: &Value) -> u32 {
        match &self.heads {
            Heads::Array { min, first } => {
                Heads::slot(*min, first, key).map_or(END, |slot| first[slot])
            }
            Heads::Words(table) => {
                let same_key = |first: u32| self.rows[first as usize].tuple[self.key] == *key;
                table.get(word_of([key]), same_key).unwrap_or(END)
            }
        }
    }
}

/// The end of a chain of `u32` links into one of a cycle's vectors.
const END: u32 = u32::MAX;

/// The link to the entry a vector of `len` entries is about to take.
fn link(len: usize) -> u32 {
    match u32::try_from(len) {
        Ok(at) if at != END => at,
        _ => panic!("an operator cycle holds {len} entries, more than its links can name"),
    }
}

/// The shared-join rule (Section 3.3): a pair joins for `queries`, those
/// interested in both sides, if there are any. The joined tuple holds both
/// rows by reference.
fn join(build: &Tuple, probe: &Tuple, queries: QuerySet) -> Option<QTuple> {
    (!queries.is_empty()).then(|| QTuple::new(build.concat(probe), queries))
}

// ---------------------------------------------------------------------------
// Nested-loop join (cross product)
// ---------------------------------------------------------------------------

/// Tuples per block of the block-nested loop. Each outer block is combined
/// with the whole inner side before the next outer block starts, keeping the
/// working set of the quadratic pass cache-sized while still performing it
/// once for *all* statements of the batch.
const NL_BLOCK: usize = 256;

fn execute_nested_loop_join(active: &QuerySet, build: &[QTuple], probe: &[QTuple]) -> Vec<QTuple> {
    // Restrict the build side once; pairing then only has to intersect the
    // two per-tuple query sets (the shared-join rule of Section 3.3 with the
    // key predicate dropped: `build.query_id ∩ probe.query_id ≠ ∅`).
    let build: Vec<(&Tuple, QuerySet)> = restricted(build, active).collect();
    let mut out = Vec::new();
    for build_block in build.chunks(NL_BLOCK) {
        for probe in probe {
            let pairs = build_block.iter();
            out.extend(pairs.filter_map(|(build, queries)| {
                join(build, &probe.tuple, queries.intersect(&probe.queries))
            }));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Index nested-loops join
// ---------------------------------------------------------------------------

fn execute_index_nl_join(
    activations: &[(QueryId, Activation)],
    active: &QuerySet,
    outer: &[QTuple],
    table: &str,
    outer_key: usize,
    inner_column: usize,
    ctx: &ExecContext<'_>,
) -> Result<Emitted> {
    let handle = ctx.catalog.table(table)?;
    let inner = handle.read();
    // The access path is a property of the table, not of the key.
    let lookup = inner.eq_lookup(inner_column);
    // NULL never joins.
    let key_at = |at: usize| Some(&outer[at].tuple[outer_key]).filter(|key| !key.is_null());

    // A demanding query looks up its best outer rows only — the sort keys
    // lie in the outer row — and as many of them as it takes to see `limit`
    // joined rows. A row is looked up once, whoever asked first.
    let demands = Demands::carried(activations);
    let demanding = demands.queries();
    let mut wanted: Vec<(u32, QueryId)> = Vec::new();
    let mut found = Found::default();
    if !demands.0.is_empty() {
        found.span_of = vec![NOT_LOOKED_UP; outer.len()];
        let mut filed: Vec<(u32, Ranked)> = Vec::new();
        for (at, t) in outer.iter().enumerate() {
            for query in t.queries.intersect(&demanding).iter() {
                let slot = demands.slot(query).expect("a demanding query");
                let (keys, _) = demands.0[slot].1;
                filed.push((slot as u32, (key_word(&t.tuple, keys), link(at))));
                found.span_of[at] = CANDIDATE;
            }
        }
        let mut candidates = Candidates::file(&filed, demands.0.len());
        for (slot, &(query, (keys, limit))) in demands.0.iter().enumerate() {
            let ties = |a: u32, b: u32| {
                let (a_row, b_row) = (&outer[a as usize].tuple, &outer[b as usize].tuple);
                compare_tuples(a_row, b_row, keys).then(a.cmp(&b))
            };
            let (mut rest, mut tried, mut joined) = (candidates.of(slot), 0, 0);
            while joined < limit && !rest.is_empty() {
                // The rows still missing if each of the next finds one — and
                // no fewer than were tried before, so that a query whose rows
                // find nothing selects a linear number of times in all.
                let take = select_first(rest, (limit - joined).max(tried), &ties);
                let (next, later) = std::mem::take(&mut rest).split_at_mut(take);
                next.sort_unstable_by(|a, b| rank(a, b, &ties));
                for &(_, at) in next.iter() {
                    if joined >= limit {
                        break;
                    }
                    let rows = found.look_up(at, || {
                        let rows = key_at(at as usize).map(|key| lookup.rows(key, ctx.snapshot));
                        rows.into_iter().flatten().map(|(_, inner_row)| inner_row)
                    });
                    if !rows.is_empty() {
                        joined += rows.len();
                        wanted.push((at, query));
                    }
                }
                tried += take;
                rest = later;
            }
        }
        wanted.sort_unstable();
    }

    // Output in outer order: every row for the queries that asked for all of
    // them, a demanding query's chosen rows for it as well.
    let undemanding: QuerySet = active
        .iter()
        .filter(|q| demands.slot(*q).is_none())
        .collect();
    let mut wanted = wanted.into_iter().peekable();
    let mut emitted = Emitted::default();
    for (at, t) in outer.iter().enumerate() {
        let mut queries = t.queries.intersect(&undemanding);
        while let Some((_, q)) = wanted.next_if(|(chosen, _)| *chosen as usize == at) {
            queries.insert(q);
        }
        if queries.is_empty() {
            // A demanding query's row that was looked up for nobody.
            emitted.pruned += usize::from(found.span_of.get(at) == Some(&CANDIDATE));
            continue;
        }
        let pair = |inner_row: &Tuple| QTuple::new(t.tuple.concat(inner_row), queries.clone());
        match (found.looked_up(at), key_at(at)) {
            (Some(rows), _) => emitted.tuples.extend(rows.iter().copied().map(pair)),
            (None, Some(key)) => {
                for (_, inner_row) in lookup.rows(key, ctx.snapshot) {
                    emitted.tuples.push(pair(inner_row));
                }
            }
            (None, None) => {}
        }
    }
    Ok(emitted)
}

/// The inner rows a join cycle found ahead of its output pass.
#[derive(Default)]
struct Found<'t> {
    /// Per outer position the `(first, count)` of its inner rows in `rows`,
    /// [`NOT_LOOKED_UP`], or [`CANDIDATE`]; empty when the cycle looked
    /// nothing up ahead.
    span_of: Vec<(u32, u32)>,
    rows: Vec<&'t Tuple>,
}

const NOT_LOOKED_UP: (u32, u32) = (END, 0);
/// Not looked up, and a row some demanding query chooses among.
const CANDIDATE: (u32, u32) = (END, 1);

impl<'t> Found<'t> {
    /// The inner rows of the outer row at `at`, from `matches` the first time.
    fn look_up<I: Iterator<Item = &'t Tuple>>(
        &mut self,
        at: u32,
        matches: impl FnOnce() -> I,
    ) -> &[&'t Tuple] {
        if self.span_of[at as usize].0 == END {
            let first = link(self.rows.len());
            self.rows.extend(matches());
            self.span_of[at as usize] = (first, link(self.rows.len()) - first);
        }
        self.looked_up(at as usize).expect("just looked up")
    }

    fn looked_up(&self, at: usize) -> Option<&[&'t Tuple]> {
        let (first, count) = *self.span_of.get(at)?;
        (first != END).then(|| &self.rows[first as usize..(first + count) as usize])
    }
}

// ---------------------------------------------------------------------------
// Sort / Top-N
// ---------------------------------------------------------------------------

/// The shared sort and the shared Top-N (Figure 4): every query keeps its
/// first `limit` rows under `(keys, position)` — all of them without a limit
/// — and what is kept is emitted once, in that one order, for the queries
/// that kept it.
fn execute_sort(
    activations: &[(QueryId, Activation)],
    active: &QuerySet,
    input: &[QTuple],
    keys: &[SortKey],
) -> Emitted {
    // A Top-N query's limit is its activation; a sort keeps every row.
    let limits = PerQuery::of(activations.iter().filter_map(|(q, a)| match a {
        Activation::TopN { limit } => Some((*q, *limit)),
        _ => None,
    }));
    let ties = |a: u32, b: u32| {
        let (a_row, b_row) = (&input[a as usize].tuple, &input[b as usize].tuple);
        compare_tuples(a_row, b_row, keys).then(a.cmp(&b))
    };
    // Per limited query the rows it keeps so far, their last on top.
    let room = |&(_, limit): &(QueryId, usize)| limit.min(input.len());
    let mut best: Vec<Vec<Ranked>> = limits.0.iter().map(room).map(Vec::with_capacity).collect();
    let mut kept: Vec<(Ranked, QuerySet)> = Vec::new();
    let mut emitted = Emitted::default();
    for (at, t) in input.iter().enumerate() {
        let mut queries = t.queries.intersect(active);
        if queries.is_empty() {
            continue;
        }
        let row = (key_word(&t.tuple, keys), link(at));
        if !limits.0.is_empty() {
            let mut unlimited = QuerySet::new();
            for q in queries.iter() {
                match limits.slot(q) {
                    Some(slot) => {
                        let dropped = offer(&mut best[slot], limits.0[slot].1, row, &ties);
                        emitted.pruned += usize::from(dropped);
                    }
                    None => {
                        unlimited.insert(q);
                    }
                }
            }
            queries = unlimited;
        }
        if !queries.is_empty() {
            kept.push((row, queries));
        }
    }
    for (best, &(query, _)) in best.iter().zip(&limits.0) {
        kept.extend(best.iter().map(|row| (*row, QuerySet::singleton(query))));
    }
    // The rank is total, so this is the stable sort by `keys`; a row several
    // queries kept lies in it once per query, side by side.
    kept.sort_unstable_by(|a, b| rank(&a.0, &b.0, &ties));
    let mut queries = Union::default();
    for of_row in kept.chunk_by(|a, b| a.0 .1 == b.0 .1) {
        of_row.iter().for_each(|(_, of)| queries.add(of));
        let row = input[of_row[0].0 .1 as usize].tuple.clone();
        emitted.tuples.push(QTuple::new(row, queries.take()));
    }
    emitted
}

// ---------------------------------------------------------------------------
// Group-by
// ---------------------------------------------------------------------------

fn execute_group_by(
    activations: &[(QueryId, Activation)],
    active: &QuerySet,
    input: &[QTuple],
    group_columns: &[usize],
    aggregates: &[AggregateSpec],
) -> Result<Emitted> {
    let mut groups = Groups::new(group_columns, aggregates, input.len());
    for (tuple, queries) in restricted(input, active) {
        let group = groups.of_row(tuple);
        groups.accumulate(group, &queries, |column| &tuple[column])?;
    }
    emit(groups, activations)
}

/// A [`OperatorSpec::GroupBy`] over the [`OperatorSpec::HashJoin`] that is
/// its only input, as one cycle — a group-join (Moerkotte and Neumann,
/// PVLDB 2011): the join's build phase, then a probe that feeds each
/// matching pair to the group-by's accumulators where the join would emit
/// it, then the group-by's HAVING, row demand and output order. `inputs` are
/// the join's. The group-by groups by build-side columns only
/// ([`crate::plan::GlobalPlan::group_join_of`]), so a build row falls into
/// one group: itself when the group columns hold the join key and no two
/// build rows share a key, else the group found the first time one of its
/// pairs counts. A pair counts
/// for `build.queries ∩ probe.queries ∩ active(group-by)`, the build side
/// restricted to the queries active at both. The pairs arrive in the order
/// the join emits them, so every accumulator sees the values it would see
/// behind the join — a `Float` sum included —, and no pair is built.
/// [`Emitted::joined`] counts the pairs that counted: the join's output,
/// when every query active at the join is active at the group-by.
pub fn execute_group_join(
    join: &OperatorSpec,
    join_activations: &[(QueryId, Activation)],
    group_by: &OperatorSpec,
    activations: &[(QueryId, Activation)],
    inputs: &[&[QTuple]],
) -> Result<Emitted> {
    let (
        OperatorSpec::HashJoin {
            build_key,
            probe_key,
        },
        OperatorSpec::GroupBy {
            group_columns,
            aggregates,
        },
        [build, probe],
    ) = (join, group_by, inputs)
    else {
        return Err(Error::Internal(
            "a group-join is a GroupBy over the two inputs of a HashJoin".into(),
        ));
    };
    let active = active_set(join_activations).intersect(&active_set(activations));
    let side = BuildSide::of(build, &active, *build_key, probe.len());
    // Grouped by the join key among other columns, over distinct keys, a
    // build row is a group of its own; otherwise it finds its group the
    // first time one of its pairs counts.
    let own_groups = side.distinct && group_columns.contains(build_key);
    took_own_groups(own_groups);
    let (mut groups, mut group_of) = if own_groups {
        let rows = side.rows.iter().map(|row| row.tuple);
        (Groups::of_rows(group_columns, aggregates, rows), Vec::new())
    } else {
        let groups = Groups::new(group_columns, aggregates, side.rows.len());
        (groups, vec![END; side.rows.len()])
    };
    let mut joined = 0;
    for probe in *probe {
        let mut at = side.first(&probe.tuple[*probe_key]);
        while at != END {
            let (row, build) = (at, &side.rows[at as usize]);
            at = build.next;
            let queries = build.queries.intersect(&probe.queries);
            if queries.is_empty() {
                continue;
            }
            joined += 1;
            let group = if own_groups {
                row
            } else {
                let group = &mut group_of[row as usize];
                if *group == END {
                    *group = groups.of_row(build.tuple);
                }
                *group
            };
            let width = build.tuple.len();
            let value = |c: usize| match c.checked_sub(width) {
                None => &build.tuple[c],
                Some(c) => &probe.tuple[c],
            };
            groups.accumulate(group, &queries, value)?;
        }
    }
    let mut emitted = emit(groups, activations)?;
    emitted.joined = joined;
    Ok(emitted)
}

/// The groups of one group-by cycle. Phase 1 (shared) puts every
/// interesting row in its group once, regardless of which query it belongs
/// to: a group is the first row that fell into it, whose grouping columns are
/// its key, found through a table of the keys' hash words — or, for rows
/// known to be groups of their own ([`Groups::of_rows`]), the row itself,
/// found by its position with no table at all. Phase 2 (per
/// query): aggregation state is per query because each query may aggregate a
/// different subset of the group — one slot per (group, query), the slots of
/// a group chained ascending by query from the group, slot `i` owning the
/// accumulators `i * aggregates.len()..` of the cycle's one vector. A new
/// group allocates nothing of its own.
struct Groups<'a> {
    group_columns: &'a [usize],
    aggregates: &'a [AggregateSpec],
    table: WordTable,
    /// Per group: its first row and the first of its slots.
    groups: Vec<(&'a Tuple, u32)>,
    slots: Vec<Slot>,
    accumulators: Vec<Accumulator>,
}

struct Slot {
    query: QueryId,
    next: u32,
}

impl<'a> Groups<'a> {
    /// No group yet, and a table that takes `room` of them without growing.
    fn new(group_columns: &'a [usize], aggregates: &'a [AggregateSpec], room: usize) -> Self {
        Groups {
            group_columns,
            aggregates,
            table: WordTable::with_room(room),
            groups: Vec::new(),
            slots: Vec::new(),
            accumulators: Vec::new(),
        }
    }

    /// One group per row of `rows`, group `i` the `i`-th, and no table:
    /// rows known to be groups of their own, found by their position.
    fn of_rows(
        group_columns: &'a [usize],
        aggregates: &'a [AggregateSpec],
        rows: impl Iterator<Item = &'a Tuple>,
    ) -> Self {
        Groups {
            groups: rows.map(|row| (row, END)).collect(),
            ..Groups::new(group_columns, aggregates, 0)
        }
    }

    /// The group of `row`'s key, opened with `row` if there is none yet.
    fn of_row(&mut self, row: &'a Tuple) -> u32 {
        let columns = self.group_columns;
        let key = GroupKey { row, columns };
        let (groups, fresh) = (&self.groups, link(self.groups.len()));
        let same_key = |group: u32| {
            GroupKey {
                row: groups[group as usize].0,
                columns,
            } == key
        };
        let group = *self.table.entry(word_of(key.values()), fresh, same_key);
        if group == fresh {
            self.groups.push((row, END));
        }
        group
    }

    /// Feeds one row, whose columns `value` reads, to the slots of `queries`
    /// in `group`.
    fn accumulate<'v>(
        &mut self,
        group: u32,
        queries: &QuerySet,
        value: impl Fn(usize) -> &'v Value,
    ) -> Result<()> {
        let width = self.aggregates.len();
        let head = &mut self.groups[group as usize].1;
        // The chain and the row's queries both ascend: walked in step.
        let (mut before, mut at) = (END, *head);
        for q in queries.iter() {
            while at != END && self.slots[at as usize].query < q {
                (before, at) = (at, self.slots[at as usize].next);
            }
            if at == END || self.slots[at as usize].query != q {
                let fresh = link(self.slots.len());
                self.slots.push(Slot { query: q, next: at });
                let fresh_accumulators = self.aggregates.iter().map(|a| a.function.accumulator());
                self.accumulators.extend(fresh_accumulators);
                match before {
                    END => *head = fresh,
                    before => self.slots[before as usize].next = fresh,
                }
                at = fresh;
            }
            let first = at as usize * width;
            let accumulators = &mut self.accumulators[first..first + width];
            for (acc, spec) in accumulators.iter_mut().zip(self.aggregates) {
                acc.update(value(spec.column))?;
            }
        }
        Ok(())
    }
}

/// The group-by's output: one row per (group, query) slot that passes the
/// query's HAVING and, for a demanding query, is among its first rows —
/// ascending by key, then by query.
fn emit(groups: Groups<'_>, activations: &[(QueryId, Activation)]) -> Result<Emitted> {
    let Groups {
        group_columns,
        aggregates,
        groups,
        slots,
        accumulators,
        ..
    } = groups;
    let key_of = |row| GroupKey {
        row,
        columns: group_columns,
    };
    let of_slot = |slot: u32| {
        let first = slot as usize * aggregates.len();
        first..first + aggregates.len()
    };
    // Per query its HAVING predicate and whether it is in partial-aggregation
    // mode, which the engine never sets and the ledger's per-layer bench
    // names: the AVG output columns of such a query carry the partial sum,
    // with one hidden count column per AVG appended to the row, so partials
    // recombine to exact averages.
    let having = PerQuery::of(
        activations
            .iter()
            .filter_map(|(q, a)| match a.split_demand().0 {
                Activation::Having { predicate, partial } => {
                    Some((*q, (predicate.as_ref(), *partial)))
                }
                _ => None,
            }),
    );
    let is_partial = |q: QueryId| having.get(q).is_some_and(|(_, partial)| *partial);
    // A partial group is cut nowhere: whoever recombines it wants it whole.
    let mut demands = Demands::carried(activations);
    demands.0.retain(|(q, _)| !is_partial(*q));

    // The output row of a (group, query) slot, gathered in one scratch
    // vector and collected once into its shared slice.
    let mut values: Vec<Value> = Vec::new();
    let mut row_of = |first_row: &Tuple, slot: u32| -> Tuple {
        let accumulators = &accumulators[of_slot(slot)];
        values.extend(group_columns.iter().map(|&c| first_row[c].clone()));
        if is_partial(slots[slot as usize].query) {
            values.extend(accumulators.iter().map(|a| {
                if a.function() == AggregateFunction::Avg {
                    a.partial_sum()
                } else {
                    a.finish()
                }
            }));
            // Hidden AVG count columns, in aggregate order.
            values.extend(
                accumulators
                    .iter()
                    .filter(|a| a.function() == AggregateFunction::Avg)
                    .map(|a| Value::Int(a.count() as i64)),
            );
        } else {
            values.extend(accumulators.iter().map(|a| a.finish()));
        }
        values.drain(..).collect()
    };
    // The order word of a slot's output row under `keys`, before there is
    // one: an aggregate is finished once, here, not once per comparison.
    let order_word_of = |first_row: &Tuple, slot: u32, keys: &[SortKey]| {
        keys.first()
            .map_or(0, |key| match group_columns.get(key.column) {
                Some(&c) => first_row[c].order_word(key.order),
                None => {
                    let aggregate = key.column - group_columns.len();
                    let finished = accumulators[of_slot(slot)][aggregate].finish();
                    finished.order_word(key.order)
                }
            })
    };

    // HAVING first — over *final* aggregate values; a query in partial mode
    // ships partial groups, so its predicate is left to whoever recombines
    // them — and the row built to be judged is kept. Then a demanding query chooses among what passed: `(first row of
    // the group, slot, row if built)` each.
    type Passed<'a> = (&'a Tuple, u32, Option<Tuple>);
    let mut passed: Vec<Passed<'_>> = Vec::new();
    let mut filed: Vec<(u32, Ranked)> = Vec::new();
    for (first_row, head) in groups {
        let mut next = head;
        while next != END {
            let slot = next;
            let query = slots[slot as usize].query;
            next = slots[slot as usize].next;
            let judged = match having.get(query) {
                Some((Some(predicate), false)) => {
                    let row = row_of(first_row, slot);
                    if !predicate.eval_predicate(&row)? {
                        continue;
                    }
                    Some(row)
                }
                _ => None,
            };
            if let Some(demand) = demands.slot(query) {
                let (keys, _) = demands.0[demand].1;
                let word = order_word_of(first_row, slot, keys);
                filed.push((demand as u32, (word, link(passed.len()))));
            }
            passed.push((first_row, slot, judged));
        }
    }
    // Two slots by a column of their output rows, before there are any.
    let by_column = |a: &Passed<'_>, b: &Passed<'_>, column: usize| match group_columns.get(column)
    {
        Some(&c) => a.0[c].cmp(&b.0[c]),
        None => {
            let aggregate = column - group_columns.len();
            let finished = |slot: u32| accumulators[of_slot(slot)][aggregate].finish();
            finished(a.1).cmp(&finished(b.1))
        }
    };
    let mut emitted = Emitted::default();
    let mut candidates = Candidates::file(&filed, demands.0.len());
    for (demand, &(_, (keys, limit))) in demands.0.iter().enumerate() {
        // A query's rows leave in ascending key order: that is its position.
        let ties = |a: u32, b: u32| {
            let (a, b) = (&passed[a as usize], &passed[b as usize]);
            let by = |key: &SortKey| key.order.apply(by_column(a, b, key.column));
            let by_keys = keys.iter().map(by).find(|o| o.is_ne());
            by_keys.unwrap_or_else(|| key_of(a.0).cmp(&key_of(b.0)))
        };
        let of_query = candidates.of(demand);
        let keep = select_first(of_query, limit, &ties);
        emitted.pruned += of_query.len() - keep;
        for &(_, unwanted) in &of_query[keep..] {
            passed[unwanted as usize].1 = END;
        }
    }
    if emitted.pruned > 0 {
        passed.retain(|(_, slot, _)| *slot != END);
    }

    // One output row per (group, query) still there — ascending by key, then
    // by query.
    passed.sort_unstable_by(|a, b| {
        let by_key = key_of(a.0).cmp(&key_of(b.0));
        by_key.then_with(|| slots[a.1 as usize].query.cmp(&slots[b.1 as usize].query))
    });
    emitted.tuples.reserve_exact(passed.len());
    for (first_row, slot, judged) in passed {
        let row = judged.unwrap_or_else(|| row_of(first_row, slot));
        let query = QuerySet::singleton(slots[slot as usize].query);
        emitted.tuples.push(QTuple::new(row, query));
    }
    Ok(emitted)
}

/// A group's key: the grouping columns of the first row that fell into the
/// group, read where they lie.
#[derive(Clone, Copy)]
struct GroupKey<'a> {
    row: &'a Tuple,
    columns: &'a [usize],
}

impl<'a> GroupKey<'a> {
    fn values(&self) -> impl Iterator<Item = &'a Value> + use<'a> {
        let row = self.row;
        self.columns.iter().map(move |&c| &row[c])
    }
}

impl PartialEq for GroupKey<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.values().eq(other.values())
    }
}

impl Eq for GroupKey<'_> {}

impl PartialOrd for GroupKey<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GroupKey<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.values().cmp(other.values())
    }
}

// ---------------------------------------------------------------------------
// Distinct
// ---------------------------------------------------------------------------

fn execute_distinct(active: &QuerySet, input: &[QTuple]) -> Vec<QTuple> {
    // Row -> its position in the output (first occurrence order).
    let mut seen = WordTable::with_room(input.len());
    let mut out: Vec<QTuple> = Vec::new();
    for (tuple, queries) in restricted(input, active) {
        let fresh = link(out.len());
        let same_row = |at: u32| out[at as usize].tuple == *tuple;
        let at = *seen.entry(word_of(tuple), fresh, same_row);
        if at == fresh {
            out.push(QTuple::new(tuple.clone(), queries));
        } else {
            out[at as usize].queries.union_in_place(&queries);
        }
    }
    out
}

/// The hash word of a key ([`hash_words`]) — under test, when a test says
/// so, one word for every key: all keys then lie in one probe run, and only
/// the comparison of the keys themselves tells them apart.
#[inline]
fn word_of<'a>(key: impl IntoIterator<Item = &'a Value>) -> u64 {
    #[cfg(test)]
    if tests::COLLIDE.get() {
        return 7;
    }
    hash_words(key)
}

/// Counts, under test, whether a build side took the array ([`Heads`]);
/// nothing otherwise.
#[inline]
fn took_array(_array: bool) {
    #[cfg(test)]
    tests::took(match _array {
        true => tests::Took::Array,
        false => tests::Took::Words,
    });
}

/// Counts, under test, whether a group-join's build rows were groups of
/// their own; nothing otherwise.
#[inline]
fn took_own_groups(_own: bool) {
    #[cfg(test)]
    tests::took(match _own {
        true => tests::Took::OwnGroups,
        false => tests::Took::KeyedGroups,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::agg::AggregateFunction;
    use shareddb_common::{tuple, Expr};
    use shareddb_storage::TableDef;
    use std::cell::Cell;

    thread_local! {
        /// Set by a test that wants every key of its cycles to share one hash
        /// word ([`word_of`]).
        pub(super) static COLLIDE: Cell<bool> = const { Cell::new(false) };
        /// How many cycles of this thread took each [`Took`], by [`took`]
        /// ([`took_array`], [`took_own_groups`]).
        static TOOK: Cell<[usize; 4]> = const { Cell::new([0; 4]) };
    }

    /// The build table and the group rule a cycle takes.
    #[derive(Clone, Copy, Debug)]
    pub(super) enum Took {
        Array,
        Words,
        /// A build row is its own group.
        OwnGroups,
        /// Groups found by the hash words of their keys.
        KeyedGroups,
    }

    /// Counts a cycle that took `kind`.
    pub(super) fn took(kind: Took) {
        let mut counts = TOOK.get();
        counts[kind as usize] += 1;
        TOOK.set(counts);
    }

    /// What the cycles `case` runs took: per [`Took`], whether any did.
    fn taken(case: impl FnOnce()) -> [bool; 4] {
        let before = TOOK.get();
        case();
        let after = TOOK.get();
        std::array::from_fn(|kind| after[kind] > before[kind])
    }

    /// Asserts that each of `kinds` was taken in at least a tenth of `cases`.
    fn each_a_tenth(cases: &[[bool; 4]], kinds: &[Took]) {
        for &kind in kinds {
            let took = cases.iter().filter(|taken| taken[kind as usize]).count();
            assert!(
                took * 10 >= cases.len(),
                "{kind:?} in {took} of {} cases",
                cases.len()
            );
        }
    }

    fn ctx(catalog: &Catalog) -> ExecContext<'_> {
        ExecContext {
            catalog,
            snapshot: catalog.oracle().read_ts(),
        }
    }

    fn qt(values: Tuple, queries: &[u32]) -> QTuple {
        QTuple::new(values, queries.iter().copied().collect())
    }

    fn participate(ids: &[u32]) -> Vec<(QueryId, Activation)> {
        ids.iter()
            .map(|&i| (QueryId(i), Activation::Participate))
            .collect()
    }

    #[test]
    fn filter_applies_per_query_predicates() {
        let catalog = Catalog::new();
        let activations = vec![
            (
                QueryId(1),
                Activation::Filter {
                    predicate: Expr::col(1).like(Expr::lit("%DB%")),
                },
            ),
            (
                QueryId(2),
                Activation::Filter {
                    predicate: Expr::col(1).like(Expr::lit("%Paper%")),
                },
            ),
        ];
        let input = vec![
            qt(tuple![1i64, "SharedDB Paper"], &[1, 2, 9]),
            qt(tuple![2i64, "Another Paper"], &[1, 2]),
            qt(tuple![3i64, "Unrelated"], &[1, 2]),
        ];
        let out = execute_operator(
            &OperatorSpec::Filter,
            &activations,
            vec![input],
            &ctx(&catalog),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        // Row 1 satisfies both; query 9 is not active here and is dropped.
        assert_eq!(out[0].queries, [1u32, 2].into_iter().collect());
        // Row 2 satisfies only query 2.
        assert_eq!(out[1].queries, [2u32].into_iter().collect());
    }

    #[test]
    fn hash_join_amends_predicate_with_query_sets() {
        let catalog = Catalog::new();
        // Figure 3: an R tuple only relevant for Q1 must not join an S tuple
        // only relevant for Q2, even when the keys match.
        let build = vec![
            qt(tuple![1i64, "r1"], &[1]),
            qt(tuple![2i64, "r2"], &[1, 2]),
        ];
        let probe = vec![
            qt(tuple![1i64, "s1"], &[2]),
            qt(tuple![2i64, "s2"], &[2]),
            qt(tuple![2i64, "s3"], &[1]),
            qt(tuple![3i64, "s4"], &[1, 2]),
        ];
        let out = execute_operator(
            &OperatorSpec::HashJoin {
                build_key: 0,
                probe_key: 0,
            },
            &participate(&[1, 2]),
            vec![build, probe],
            &ctx(&catalog),
        )
        .unwrap();
        // key 1: R{1} x S{2} -> empty intersection, no output.
        // key 2: R{1,2} x S{2} -> {2}; R{1,2} x S{1} -> {1}.
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .any(|t| t.tuple[3] == Value::text("s2") && t.queries == [2u32].into_iter().collect()));
        assert!(out
            .iter()
            .any(|t| t.tuple[3] == Value::text("s3") && t.queries == [1u32].into_iter().collect()));
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let catalog = Catalog::new();
        let build = vec![qt(tuple![Value::Null, "r"], &[1])];
        let probe = vec![qt(tuple![Value::Null, "s"], &[1])];
        let out = execute_operator(
            &OperatorSpec::HashJoin {
                build_key: 0,
                probe_key: 0,
            },
            &participate(&[1]),
            vec![build, probe],
            &ctx(&catalog),
        )
        .unwrap();
        assert!(out.is_empty());
    }

    /// The cross-product operator combines every pair whose query sets
    /// intersect — and only those pairs (the shared-join rule without the
    /// key predicate).
    #[test]
    fn nested_loop_join_is_a_query_set_aware_cross_product() {
        let catalog = Catalog::new();
        let build = vec![
            qt(tuple![1i64, "r1"], &[1]),
            qt(tuple![2i64, "r2"], &[1, 2]),
        ];
        let probe = vec![qt(tuple![10i64], &[2]), qt(tuple![20i64], &[1, 2])];
        let out = execute_operator(
            &OperatorSpec::NestedLoopJoin,
            &participate(&[1, 2]),
            vec![build, probe],
            &ctx(&catalog),
        )
        .unwrap();
        // r1×10 has empty intersection; the other three pairs survive.
        assert_eq!(out.len(), 3);
        for t in &out {
            assert_eq!(t.tuple.len(), 3);
        }
        assert!(out
            .iter()
            .any(|t| t.tuple[1] == Value::text("r1") && t.queries == [1u32].into_iter().collect()));
        assert!(out.iter().any(|t| t.tuple[0] == Value::Int(2)
            && t.tuple[2] == Value::Int(10)
            && t.queries == [2u32].into_iter().collect()));
    }

    /// Blocking must not change the result: a build side wider than one
    /// block produces exactly |build| × |probe| pairs.
    #[test]
    fn nested_loop_join_blocks_cover_everything() {
        let catalog = Catalog::new();
        let n = NL_BLOCK + 17;
        let build: Vec<QTuple> = (0..n as i64).map(|i| qt(tuple![i], &[1])).collect();
        let probe = vec![qt(tuple![100i64], &[1]), qt(tuple![200i64], &[1])];
        let out = execute_operator(
            &OperatorSpec::NestedLoopJoin,
            &participate(&[1]),
            vec![build, probe],
            &ctx(&catalog),
        )
        .unwrap();
        assert_eq!(out.len(), n * 2);
    }

    /// Partial mode defers HAVING to whoever recombines the groups: partial
    /// groups must not be filtered on their (incomplete) aggregate values.
    #[test]
    fn group_by_partial_mode_defers_having() {
        let catalog = Catalog::new();
        let input = vec![
            qt(tuple!["CH", 100i64], &[1]),
            qt(tuple!["DE", 300i64], &[1]),
        ];
        let spec = OperatorSpec::GroupBy {
            group_columns: vec![0],
            aggregates: vec![AggregateSpec {
                function: AggregateFunction::Sum,
                column: 1,
                output_name: "S".into(),
            }],
        };
        // HAVING SUM > 200 would drop CH locally; in partial mode another
        // partition may complete the group, so both rows must ship.
        let having = Some(Expr::col(1).gt(Expr::lit(200i64)));
        let partial = vec![(
            QueryId(1),
            Activation::Having {
                predicate: having.clone(),
                partial: true,
            },
        )];
        let out = execute_operator(&spec, &partial, vec![input.clone()], &ctx(&catalog)).unwrap();
        assert_eq!(out.len(), 2, "partial mode filtered partial groups");
        // The same activation without partial mode filters as usual.
        let final_mode = vec![(
            QueryId(1),
            Activation::Having {
                predicate: having,
                partial: false,
            },
        )];
        let out = execute_operator(&spec, &final_mode, vec![input], &ctx(&catalog)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple[0], Value::text("DE"));
    }

    #[test]
    fn index_nl_join_probes_base_table() {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("ITEM")
                    .column("I_ID", shareddb_common::DataType::Int)
                    .column("I_TITLE", shareddb_common::DataType::Text)
                    .primary_key(&["I_ID"]),
            )
            .unwrap();
        catalog
            .bulk_load(
                "ITEM",
                (0..10i64).map(|i| tuple![i, format!("title{i}")]).collect(),
            )
            .unwrap();
        // Outer tuples reference items 3 and 7.
        let outer = vec![
            qt(tuple![100i64, 3i64], &[1]),
            qt(tuple![101i64, 7i64], &[1, 2]),
            qt(tuple![102i64, 999i64], &[2]), // no match
        ];
        let out = execute_operator(
            &OperatorSpec::IndexNlJoin {
                table: "ITEM".into(),
                outer_key: 1,
                inner_column: 0,
            },
            &participate(&[1, 2]),
            vec![outer],
            &ctx(&catalog),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].tuple.len(), 4);
        assert_eq!(out[0].tuple[3], Value::text("title3"));
        assert_eq!(out[1].queries, [1u32, 2].into_iter().collect());
    }

    /// A demanding query's page is filled past outer rows that find nothing
    /// — looked up in the order of its keys, no further than it takes — and
    /// a row two queries want is looked up, and emitted, once.
    #[test]
    fn index_nl_join_looks_up_what_a_demanded_page_takes() {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("AUTHOR")
                    .column("A_ID", shareddb_common::DataType::Int)
                    .primary_key(&["A_ID"]),
            )
            .unwrap();
        // Authors 0, 2, 4, … : every odd item is an orphan.
        let authors = (0..10i64).map(|a| tuple![2 * a]).collect();
        catalog.bulk_load("AUTHOR", authors).unwrap();
        // Items (rank, author) in arrival order; query 1 wants its two best
        // by rank, query 2 its best by descending rank, query 3 everything
        // of the two rows it subscribes to.
        let item = |rank: i64, author: i64, queries: &[u32]| qt(tuple![rank, author], queries);
        let outer = vec![
            item(5, 4, &[1, 2]),
            item(1, 3, &[1]),    // best of query 1: no author
            item(2, 6, &[1, 3]), // its first hit
            item(9, 1, &[2, 3]), // best of query 2: no author
            item(3, 8, &[1]),    // query 1's second hit
            item(4, 0, &[1, 2]), // not needed by either
        ];
        let demand = |keys: Vec<SortKey>, limit| Activation::Demand {
            base: Box::new(Activation::Participate),
            keys: keys.into(),
            limit,
        };
        let activations = vec![
            (QueryId(1), demand(vec![SortKey::asc(0)], 2)),
            (QueryId(2), demand(vec![SortKey::desc(0)], 1)),
            (QueryId(3), Activation::Participate),
        ];
        let spec = OperatorSpec::IndexNlJoin {
            table: "AUTHOR".into(),
            outer_key: 1,
            inner_column: 0,
        };
        let emitted = execute_on(&spec, &activations, &[&outer], &ctx(&catalog)).unwrap();
        let out: Vec<(i64, Vec<u32>)> = emitted
            .tuples
            .iter()
            .map(|t| {
                let queries = t.queries.iter().map(|q| q.raw()).collect();
                (t.tuple[0].as_int().unwrap(), queries)
            })
            .collect();
        // In outer order; rank 5 is query 2's page after its miss on rank 9.
        assert_eq!(out, vec![(5, vec![2]), (2, vec![1, 3]), (3, vec![1])]);
        assert_eq!(emitted.pruned, 1, "rank 4 was looked up for nobody");
    }

    #[test]
    fn shared_sort_matches_figure_4() {
        let catalog = Catalog::new();
        // USERS(Name, Account, Birthdate) — queries A=1 and B=2.
        let input = vec![
            qt(tuple!["John Smith", 3000i64, 19800305i64], &[1, 2]),
            qt(tuple!["Kate Johnson", 800i64, 19760411i64], &[]),
            qt(tuple!["Bill Harisson", 1230i64, 19780302i64], &[2]),
            qt(tuple!["Nick Lee", 540i64, 19820209i64], &[1]),
            qt(tuple!["James Meyer", 2300i64, 19810309i64], &[1, 2]),
        ];
        let out = execute_operator(
            &OperatorSpec::Sort {
                keys: vec![SortKey::asc(2)],
            },
            &participate(&[1, 2]),
            vec![input],
            &ctx(&catalog),
        )
        .unwrap();
        // Kate is dropped (no interested query); the rest is sorted by date.
        let names: Vec<String> = out
            .iter()
            .map(|t| t.tuple[0].as_text().unwrap().to_string())
            .collect();
        assert_eq!(
            names,
            vec!["Bill Harisson", "John Smith", "James Meyer", "Nick Lee"]
        );
        assert_eq!(out[0].queries, [2u32].into_iter().collect());
        assert_eq!(out[1].queries, [1u32, 2].into_iter().collect());
    }

    #[test]
    fn top_n_shares_sort_and_limits_per_query() {
        let catalog = Catalog::new();
        let input: Vec<QTuple> = (0..20i64)
            .map(|i| {
                let subscribers: &[u32] = if i % 2 == 0 { &[1, 2] } else { &[1] };
                qt(tuple![i], subscribers)
            })
            .collect();
        let activations = vec![
            (QueryId(1), Activation::TopN { limit: 3 }),
            (QueryId(2), Activation::TopN { limit: 5 }),
        ];
        let out = execute_operator(
            &OperatorSpec::TopN {
                keys: vec![SortKey::desc(0)],
            },
            &activations,
            vec![input],
            &ctx(&catalog),
        )
        .unwrap();
        let q1: Vec<i64> = out
            .iter()
            .filter(|t| t.queries.contains(QueryId(1)))
            .map(|t| t.tuple[0].as_int().unwrap())
            .collect();
        let q2: Vec<i64> = out
            .iter()
            .filter(|t| t.queries.contains(QueryId(2)))
            .map(|t| t.tuple[0].as_int().unwrap())
            .collect();
        assert_eq!(q1, vec![19, 18, 17]);
        assert_eq!(q2, vec![18, 16, 14, 12, 10]);
    }

    #[test]
    fn group_by_shared_grouping_per_query_aggregates() {
        let catalog = Catalog::new();
        // (COUNTRY, ACCOUNT): query 1 sees all rows, query 2 only some.
        let input = vec![
            qt(tuple!["CH", 100i64], &[1, 2]),
            qt(tuple!["CH", 200i64], &[1]),
            qt(tuple!["DE", 300i64], &[1, 2]),
            qt(tuple!["DE", 400i64], &[2]),
        ];
        let spec = OperatorSpec::GroupBy {
            group_columns: vec![0],
            aggregates: vec![
                AggregateSpec {
                    function: AggregateFunction::Sum,
                    column: 1,
                    output_name: "SUM_ACCOUNT".into(),
                },
                AggregateSpec {
                    function: AggregateFunction::Count,
                    column: 1,
                    output_name: "CNT".into(),
                },
            ],
        };
        let activations = vec![
            (
                QueryId(1),
                Activation::Having {
                    predicate: None,
                    partial: false,
                },
            ),
            (
                QueryId(2),
                Activation::Having {
                    // HAVING SUM(ACCOUNT) > 150
                    predicate: Some(Expr::col(1).gt(Expr::lit(150i64))),
                    partial: false,
                },
            ),
        ];
        let out = execute_operator(&spec, &activations, vec![input], &ctx(&catalog)).unwrap();
        // Query 1: CH -> 300 (2 rows), DE -> 300 (1 row).
        // Query 2: CH -> 100 (fails HAVING), DE -> 700 (passes).
        let find = |q: u32, country: &str| {
            out.iter()
                .find(|t| t.queries.contains(QueryId(q)) && t.tuple[0] == Value::text(country))
        };
        assert_eq!(find(1, "CH").unwrap().tuple[1], Value::Int(300));
        assert_eq!(find(1, "CH").unwrap().tuple[2], Value::Int(2));
        assert_eq!(find(1, "DE").unwrap().tuple[1], Value::Int(300));
        assert!(find(2, "CH").is_none());
        assert_eq!(find(2, "DE").unwrap().tuple[1], Value::Int(700));
    }

    /// Partial-aggregation mode: AVG columns ship the partial sum
    /// with a hidden count column appended; other aggregates and non-partial
    /// queries of the same batch are untouched.
    #[test]
    fn group_by_partial_mode_ships_avg_sum_and_count() {
        let catalog = Catalog::new();
        let input = vec![
            qt(tuple!["CH", 100i64], &[1, 2]),
            qt(tuple!["CH", 200i64], &[1, 2]),
        ];
        let spec = OperatorSpec::GroupBy {
            group_columns: vec![0],
            aggregates: vec![
                AggregateSpec {
                    function: AggregateFunction::Avg,
                    column: 1,
                    output_name: "AVG_ACCOUNT".into(),
                },
                AggregateSpec {
                    function: AggregateFunction::Sum,
                    column: 1,
                    output_name: "SUM_ACCOUNT".into(),
                },
            ],
        };
        let activations = vec![
            (
                QueryId(1),
                Activation::Having {
                    predicate: None,
                    partial: true,
                },
            ),
            (
                QueryId(2),
                Activation::Having {
                    predicate: None,
                    partial: false,
                },
            ),
        ];
        let out = execute_operator(&spec, &activations, vec![input], &ctx(&catalog)).unwrap();
        let row = |q: u32| out.iter().find(|t| t.queries.contains(QueryId(q))).unwrap();
        // Partial query: [key, partial AVG sum, SUM, hidden AVG count].
        let partial = row(1);
        assert_eq!(partial.tuple.len(), 4);
        assert_eq!(partial.tuple[1], Value::Float(300.0));
        assert_eq!(partial.tuple[2], Value::Int(300));
        assert_eq!(partial.tuple[3], Value::Int(2));
        // Normal query: final values, no hidden columns.
        let normal = row(2);
        assert_eq!(normal.tuple.len(), 3);
        assert_eq!(normal.tuple[1], Value::Float(150.0));
        assert_eq!(normal.tuple[2], Value::Int(300));
    }

    #[test]
    fn distinct_merges_query_sets() {
        let catalog = Catalog::new();
        let input = vec![
            qt(tuple!["A"], &[1]),
            qt(tuple!["A"], &[2]),
            qt(tuple!["B"], &[1, 2]),
            qt(tuple!["B"], &[1]),
        ];
        let out = execute_operator(
            &OperatorSpec::Distinct,
            &participate(&[1, 2]),
            vec![input],
            &ctx(&catalog),
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].tuple, tuple!["A"]);
        assert_eq!(out[0].queries, [1u32, 2].into_iter().collect());
        assert_eq!(out[1].queries, [1u32, 2].into_iter().collect());
    }

    #[test]
    fn storage_specs_rejected_here() {
        let catalog = Catalog::new();
        let err = execute_operator(
            &OperatorSpec::TableScan { table: "X".into() },
            &[],
            vec![],
            &ctx(&catalog),
        )
        .unwrap_err();
        assert!(matches!(err, Error::Internal(_)));
    }

    #[test]
    fn wrong_input_arity_is_an_error() {
        let catalog = Catalog::new();
        assert!(execute_operator(
            &OperatorSpec::Filter,
            &[],
            vec![vec![], vec![]],
            &ctx(&catalog)
        )
        .is_err());
    }

    // -----------------------------------------------------------------------
    // The tables against the equality they stand for
    // -----------------------------------------------------------------------

    use proptest::prelude::*;
    use proptest::TestRng;
    use std::collections::BTreeMap;

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (0..n).generate(rng)
    }

    /// A key out of a handful, so that rows meet: NULL, numbers under both
    /// spellings (`3` and `3.0` are one key), the same digits as a date and
    /// as a text (two more keys), and a float no integer equals.
    fn some_key(rng: &mut TestRng) -> Value {
        let n = pick(rng, 4) as i64;
        match pick(rng, 8) {
            0 => Value::Null,
            1 | 2 => Value::Int(n),
            3 => Value::Float(n as f64),
            4 => Value::Float(n as f64 + 0.5),
            5 => Value::Date(n),
            6 => Value::text(n.to_string()),
            _ => Value::Bool(n % 2 == 0),
        }
    }

    /// `(key, key, payload)` rows for some of the queries 1 to 4 and, now and
    /// then, 9, which is active nowhere — or for a crowd of eight, some of
    /// them active nowhere either, whose set is too long to live in the row
    /// and is one slice shared by the rows that carry it, or a slice of its
    /// own, equal to that one or not.
    fn some_rows(rng: &mut TestRng) -> Vec<QTuple> {
        rows_keyed(rng, some_key, some_key)
    }

    /// [`some_rows`], their two keys drawn by `first` and `second`.
    fn rows_keyed(
        rng: &mut TestRng,
        first: impl Fn(&mut TestRng) -> Value,
        second: impl Fn(&mut TestRng) -> Value,
    ) -> Vec<QTuple> {
        let crowd = |first: u32| -> QuerySet { (first..first + 3).chain(9..14).collect() };
        let shared = crowd(2);
        let rows = 0..pick(rng, 24);
        let row = |payload: usize, rng: &mut TestRng| {
            let queries = match pick(rng, 6) {
                0 => shared.clone(),
                1 => crowd(1 + pick(rng, 2) as u32),
                _ => {
                    let mut few: Vec<u32> = (1..=4).filter(|_| pick(rng, 2) == 0).collect();
                    few.extend((pick(rng, 5) == 0).then_some(9));
                    few.into_iter().collect()
                }
            };
            let values = tuple![first(rng), second(rng), payload as i64];
            QTuple::new(values, queries)
        };
        rows.map(|payload| row(payload, rng)).collect()
    }

    /// Two inputs and the queries active at the operator.
    #[derive(Debug)]
    struct Inputs {
        left: Vec<QTuple>,
        right: Vec<QTuple>,
        active: Vec<u32>,
    }

    struct SomeInputs;

    impl Strategy for SomeInputs {
        type Value = Inputs;
        fn generate(&self, rng: &mut TestRng) -> Inputs {
            Inputs {
                left: some_rows(rng),
                right: some_rows(rng),
                active: (1..=4).filter(|_| pick(rng, 4) != 0).collect(),
            }
        }
    }

    /// The join keys of a case, which choose its build table: integers
    /// over a narrow span, negative ones among them, or at the top or the
    /// bottom of the exact integers (±2^53) — the array —; over a wide span
    /// (`0` beside `1 << 40`), past 2^53, or beside other types — the word
    /// table.
    struct JoinKeys {
        ints: Vec<i64>,
        others: bool,
    }

    impl JoinKeys {
        fn some(rng: &mut TestRng) -> Self {
            const TOP: i64 = 1 << 53;
            let (ints, others) = match pick(rng, 6) {
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
            self.ints[pick(rng, self.ints.len())]
        }

        /// One of the integers, now and then NULL or, beside other types,
        /// the integer as a `Float`, a `Date` or a `Text`.
        fn build(&self, rng: &mut TestRng) -> Value {
            let k = self.int(rng);
            match pick(rng, 10) {
                0 => Value::Null,
                1 | 2 if self.others => match pick(rng, 3) {
                    0 => Value::Float(k as f64),
                    1 => Value::Date(k),
                    _ => Value::text(k.to_string()),
                },
                _ => Value::Int(k),
            }
        }

        /// One of the integers as an `Int` or a `Float`, one past them,
        /// `2.5`, `-0.0` (which equals no `Int`), a `Date`, a `Text` or NULL.
        fn probe(&self, rng: &mut TestRng) -> Value {
            let k = self.int(rng);
            match pick(rng, 12) {
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

    /// Build rows `(key, join key, payload)` and probe rows `(join key, key,
    /// payload)`: in a quarter of the cases both keys of both sides drawn by
    /// [`some_key`] — `Bool` keys and fractional `Float`s on both sides —,
    /// else the join keys under [`JoinKeys`], a third of the builds with
    /// distinct join keys, the rest perhaps repeating them.
    fn some_join(rng: &mut TestRng) -> Inputs {
        if pick(rng, 4) == 0 {
            return SomeInputs.generate(rng);
        }
        let keys = JoinKeys::some(rng);
        let mut left = rows_keyed(rng, some_key, |rng| keys.build(rng));
        if pick(rng, 3) == 0 {
            left.truncate(keys.ints.len());
            for (row, k) in left.iter_mut().zip(&keys.ints) {
                let values = tuple![row.tuple[0].clone(), *k, row.tuple[2].clone()];
                row.tuple = values;
            }
        }
        Inputs {
            left,
            right: rows_keyed(rng, |rng| keys.probe(rng), some_key),
            active: (1..=4).filter(|_| pick(rng, 4) != 0).collect(),
        }
    }

    /// Runs `cycle` with the hash words of its keys as they are and with one
    /// word for every key.
    fn with_and_without_collisions(cycle: impl Fn()) {
        for collide in [false, true] {
            COLLIDE.set(collide);
            cycle();
        }
        COLLIDE.set(false);
    }

    /// The hash join emits what a nested loop with the key predicate and
    /// the query-set intersection emits, pair for pair in the loop's order
    /// — over either build table, keys of mixed types that compare equal,
    /// NULL keys (which never join) and keys that all share one hash word
    /// included.
    #[test]
    fn hash_join_is_a_nested_loop_with_the_key_predicate() {
        let catalog = Catalog::new();
        let mut cases = Vec::new();
        let config = ProptestConfig::with_cases(256);
        proptest::run_cases("hash_join_is", config, |rng| {
            let case = some_join(rng);
            let active: QuerySet = case.active.iter().copied().collect();
            let mut expected = Vec::new();
            for probe in &case.right {
                for build in &case.left {
                    let (build_key, probe_key) = (&build.tuple[1], &probe.tuple[0]);
                    let queries = build.queries.intersect(&active).intersect(&probe.queries);
                    if !build_key.is_null() && build_key == probe_key && !queries.is_empty() {
                        let values = build.tuple.iter().chain(&probe.tuple).cloned();
                        expected.push((values.collect::<Vec<_>>(), queries));
                    }
                }
            }
            let spec = OperatorSpec::HashJoin {
                build_key: 1,
                probe_key: 0,
            };
            cases.push(taken(|| {
                with_and_without_collisions(|| {
                    let inputs = vec![case.left.clone(), case.right.clone()];
                    let out =
                        execute_operator(&spec, &participate(&case.active), inputs, &ctx(&catalog));
                    let out: Vec<_> = out
                        .unwrap()
                        .into_iter()
                        .map(|t| (t.tuple.into_values(), t.queries))
                        .collect();
                    assert_eq!(out, expected, "{case:?}");
                })
            }));
        });
        each_a_tenth(&cases, &[Took::Array, Took::Words]);
    }

    /// A group-join emits what its group-by emits over its join — over
    /// either build table, with a build row as its own group (grouped by the
    /// join key, over distinct keys) or with groups found by their keys.
    #[test]
    fn group_by_is_the_same_run_as_a_group_join() {
        let catalog = Catalog::new();
        let mut cases = Vec::new();
        let config = ProptestConfig::with_cases(256);
        proptest::run_cases("group_by_is_the_same_run_as_a_group_join", config, |rng| {
            let case = some_join(rng);
            let join = OperatorSpec::HashJoin {
                build_key: 1,
                probe_key: 0,
            };
            let aggregate = |function, column| AggregateSpec {
                function,
                column,
                output_name: format!("{function:?}{column}"),
            };
            let group_by = OperatorSpec::GroupBy {
                group_columns: [vec![1], vec![0, 1], vec![0], vec![]][pick(rng, 4)].clone(),
                aggregates: vec![
                    aggregate(AggregateFunction::Sum, 5),
                    aggregate(AggregateFunction::Count, 2),
                ],
            };
            let at_join = participate(&case.active);
            let having = |q: &u32| {
                let having = Activation::Having {
                    predicate: None,
                    partial: false,
                };
                (QueryId(*q), having)
            };
            let at_group_by: Vec<_> = case.active.iter().map(having).collect();
            let inputs: [&[QTuple]; 2] = [&case.left, &case.right];
            let joined = execute_on(&join, &at_join, &inputs, &ctx(&catalog)).unwrap();
            let apart = execute_on(&group_by, &at_group_by, &[&joined.tuples], &ctx(&catalog));
            let spelled = |out: Vec<QTuple>| -> Vec<(String, QuerySet)> {
                let spell = |t: QTuple| (format!("{:?}", t.tuple.values()), t.queries);
                out.into_iter().map(spell).collect()
            };
            let apart = spelled(apart.unwrap().tuples);
            cases.push(taken(|| {
                with_and_without_collisions(|| {
                    let fused =
                        execute_group_join(&join, &at_join, &group_by, &at_group_by, &inputs);
                    let fused = fused.unwrap();
                    assert_eq!(fused.joined, joined.tuples.len(), "{case:?}");
                    assert_eq!(spelled(fused.tuples), apart, "{case:?}");
                })
            }));
        });
        let kinds = [Took::Array, Took::Words, Took::OwnGroups, Took::KeyedGroups];
        each_a_tenth(&cases, &kinds);
    }

    /// The size rule at its edge: chain heads that take as many bytes as
    /// the probe input are an array, one head more is the word table — and
    /// the join reads the same either way.
    #[test]
    fn an_array_of_chain_heads_is_no_larger_than_the_probe_input() {
        let catalog = Catalog::new();
        let spec = OperatorSpec::HashJoin {
            build_key: 0,
            probe_key: 0,
        };
        let heads_a_row = std::mem::size_of::<QTuple>() / std::mem::size_of::<u32>();
        for probe_rows in [1, 5] {
            let fits = (probe_rows * heads_a_row) as i64;
            for (span, kind) in [(fits, Took::Array), (fits + 1, Took::Words)] {
                let build = vec![
                    qt(tuple![-3i64, "low"], &[1]),
                    qt(tuple![span - 4, "high"], &[1]),
                ];
                let probe: Vec<QTuple> = (0..probe_rows)
                    .map(|_| qt(tuple![span - 4], &[1]))
                    .collect();
                let mut out = Vec::new();
                let took = taken(|| {
                    let inputs = vec![build, probe];
                    out = execute_operator(&spec, &participate(&[1]), inputs, &ctx(&catalog))
                        .unwrap();
                });
                let only = |k: Took| std::array::from_fn(|i| i == k as usize);
                assert_eq!(took, only(kind), "span {span}, {probe_rows} probe rows");
                assert_eq!(out.len(), probe_rows);
                assert!(out.iter().all(|t| t.tuple[1] == Value::text("high")));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The group-by emits, per group and query, what a `BTreeMap` from
        /// `(key, query)` to a sum and a count holds, in the map's order: a
        /// group's key is spelled the way its first row spelled it, `3` and
        /// `3.0` are one group, so are the NULLs, whatever the hash words.
        #[test]
        fn group_by_is_a_map_from_key_and_query(case in SomeInputs) {
            let catalog = Catalog::new();
            // key -> as its first row spelled it; (key, query) -> (sum, count)
            let mut spelled: BTreeMap<Vec<Value>, String> = BTreeMap::new();
            let mut model: BTreeMap<(Vec<Value>, u32), (i64, i64)> = BTreeMap::new();
            for row in &case.left {
                let key = vec![row.tuple[0].clone(), row.tuple[1].clone()];
                let of_row = row.queries.iter().map(|q| q.raw());
                for query in of_row.filter(|q| case.active.contains(q)) {
                    spelled.entry(key.clone()).or_insert_with(|| format!("{key:?}"));
                    let group = model.entry((key.clone(), query)).or_default();
                    group.0 += row.tuple[2].as_int().unwrap();
                    group.1 += 1;
                }
            }
            let expected: Vec<(String, Value, Value, u32)> = model
                .into_iter()
                .map(|((key, query), (sum, count))| {
                    (spelled[&key].clone(), Value::Int(sum), Value::Int(count), query)
                })
                .collect();
            let aggregate = |function, name: &str| AggregateSpec { function, column: 2, output_name: name.into() };
            let spec = OperatorSpec::GroupBy {
                group_columns: vec![0, 1],
                aggregates: vec![aggregate(AggregateFunction::Sum, "S"), aggregate(AggregateFunction::Count, "C")],
            };
            let having = || Activation::Having { predicate: None, partial: false };
            let activations: Vec<_> = case.active.iter().map(|q| (QueryId(*q), having())).collect();
            with_and_without_collisions(|| {
                let out = execute_operator(&spec, &activations, vec![case.left.clone()], &ctx(&catalog));
                let out: Vec<_> = out.unwrap().into_iter().map(|t| {
                    let query = t.queries.iter().next().unwrap().raw();
                    assert_eq!(t.queries.len(), 1);
                    let values = t.tuple.into_values();
                    (format!("{:?}", &values[..2]), values[2].clone(), values[3].clone(), query)
                }).collect();
                assert_eq!(out, expected);
            });
        }

        /// DISTINCT keeps the first of the rows that are equal — under the
        /// equality of values, whatever the hash words — with the queries of
        /// all of them.
        #[test]
        fn distinct_is_the_first_of_equal_rows_with_all_their_queries(case in SomeInputs) {
            let catalog = Catalog::new();
            let active: QuerySet = case.active.iter().copied().collect();
            let mut expected: Vec<(Vec<Value>, QuerySet)> = Vec::new();
            for row in &case.left {
                let queries = row.queries.intersect(&active);
                // The payload differs row by row: DISTINCT over the two keys.
                let values = vec![row.tuple[0].clone(), row.tuple[1].clone()];
                match expected.iter_mut().find(|(seen, _)| *seen == values) {
                    _ if queries.is_empty() => {}
                    Some((_, of_seen)) => of_seen.union_in_place(&queries),
                    None => expected.push((values, queries)),
                }
            }
            let keys_only = |t: &QTuple| QTuple::new(t.tuple.project(&[0, 1]), t.queries.clone());
            let input: Vec<QTuple> = case.left.iter().map(keys_only).collect();
            with_and_without_collisions(|| {
                let out = execute_operator(&OperatorSpec::Distinct, &participate(&case.active), vec![input.clone()], &ctx(&catalog));
                let out: Vec<_> = out.unwrap().into_iter().map(|t| (t.tuple.into_values(), t.queries)).collect();
                assert_eq!(out, expected);
            });
        }
    }
}
