//! Update operations.
//!
//! SharedDB batches updates together with queries: "updates are executed in
//! arrival order as part of the same scan that executes the queries"
//! (Section 4.4). An [`UpdateOp`] is the unit queued at a storage operator
//! (ClockScan or index probe) and applied at the beginning of its next cycle.

use crate::mvcc::Snapshot;
use crate::table::{grams, index_keys, IndexKind, RowId, Table};
use crate::wal::{nests_within, MAX_EXPR_DEPTH};
use shareddb_common::ids::Timestamp;
use shareddb_common::{hash_words, BinaryOp, DataType, Error, Expr, Result, Tuple, Value};
use std::ops::Bound;

/// A single data-modification operation against one table.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Insert a fully materialised row.
    Insert {
        /// The row to insert; must match the table schema.
        values: Tuple,
    },
    /// Update all rows matching `predicate`, applying the assignments.
    Update {
        /// `(column index, value expression)` pairs evaluated against the
        /// *old* row.
        assignments: Vec<(usize, Expr)>,
        /// Row filter (bound expression, no parameters).
        predicate: Expr,
    },
    /// Delete all rows matching `predicate`.
    Delete {
        /// Row filter (bound expression, no parameters).
        predicate: Expr,
    },
}

impl UpdateOp {
    /// Short human-readable tag used by logging and statistics.
    pub fn kind(&self) -> &'static str {
        match self {
            UpdateOp::Insert { .. } => "INSERT",
            UpdateOp::Update { .. } => "UPDATE",
            UpdateOp::Delete { .. } => "DELETE",
        }
    }
}

/// Outcome of applying one [`UpdateOp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UpdateResult {
    /// Number of rows inserted, modified or deleted.
    pub rows_affected: usize,
    /// Number of live row versions the WHERE clause was evaluated on (0 for
    /// an insert). `rows_examined / rows_affected` is the write path's
    /// useful-work ratio: far above 1 means no index narrowed the statement.
    pub rows_examined: usize,
}

/// How the rows of one `UPDATE`/`DELETE` — and, when its cycle allows, of one
/// scan query ([`crate::clockscan`]) — are found. Chosen from the bound
/// predicate; in order of preference:
///
/// 1. equality conjuncts cover the primary key → hash probes of the key map;
/// 2. an equality conjunct on a column with a secondary index → that index's
///    posting list;
/// 3. a `LIKE 'prefix%'` conjunct on a text column with a secondary index →
///    the index's keys from the prefix up to its successor;
/// 4. a `LIKE` conjunct on a column with a gram index whose pattern holds a
///    gram (three bytes in a row with no wildcard among them) → the posting
///    list of the pattern's rarest gram;
/// 5. otherwise one pass over the versions of the table.
///
/// The path only narrows: `apply_update` re-evaluates the *full* predicate
/// on every candidate, the rule [`crate::predicate_index`] states for reads
/// (which spare a predicate that *is* the probed equality the second look).
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Probe the primary-key map with each of these key vectors.
    PrimaryKey(Vec<Vec<Value>>),
    /// Probe the secondary index on `column` with each of these keys.
    Index {
        /// The indexed column.
        column: usize,
        /// Keys to probe.
        keys: Vec<Value>,
    },
    /// Walk the secondary index on `column` over the keys in `[low, high)`:
    /// the strings that start with `low`.
    IndexRange {
        /// The indexed column.
        column: usize,
        /// The prefix.
        low: Value,
        /// The smallest string above every string with the prefix (`None`:
        /// there is none, the range is open).
        high: Option<Value>,
    },
    /// Fetch the versions the gram index on `column` posts under `gram`:
    /// of the grams every value matching the pattern holds, the one the
    /// fewest versions hold.
    IndexGrams {
        /// The indexed column.
        column: usize,
        /// The gram, as the index keys it.
        gram: Value,
    },
    /// Evaluate the predicate on every live version.
    Scan,
}

/// The prefix of a pattern that asks for one and nothing else: a trailing
/// `%`, no other wildcard, at least one character before it.
fn like_prefix(pattern: &str) -> Option<&str> {
    let prefix = pattern.strip_suffix('%')?;
    (!prefix.is_empty() && !prefix.contains(['%', '_'])).then_some(prefix)
}

/// The smallest string greater than every string that starts with `prefix`:
/// the prefix up to its last character that has a successor, with that
/// character replaced by it. Strings order by code point, as UTF-8 bytes do.
fn prefix_successor(prefix: &str) -> Option<String> {
    let mut chars: Vec<char> = prefix.chars().collect();
    while let Some(last) = chars.pop() {
        // The step past a character minds the surrogate gap.
        if let Some(next) = (last..=char::MAX).nth(1) {
            chars.push(next);
            return Some(chars.into_iter().collect());
        }
    }
    None
}

impl AccessPath {
    /// Picks the access path for a bound predicate on `table`.
    pub fn choose(table: &Table, predicate: &Expr) -> AccessPath {
        let columns = table.schema().columns();
        let conjuncts = predicate.split_conjuncts();
        // `column = literal` conjuncts an index can answer exactly.
        let equalities: Vec<(usize, Vec<Value>)> = conjuncts
            .iter()
            .filter_map(|conjunct| match conjunct.as_column_literal_cmp()? {
                (column, BinaryOp::Eq, literal) => {
                    let (key, twin) = index_keys(columns.get(column)?.data_type, literal)?;
                    Some((column, std::iter::once(key.clone()).chain(twin).collect()))
                }
                _ => None,
            })
            .collect();
        let keys_of = |column| {
            equalities
                .iter()
                .find(|(c, _)| *c == column)
                .map(|(_, k)| k)
        };
        let pk = table.primary_key();
        if let Some(per_column) = pk.iter().map(|&c| keys_of(c)).collect::<Option<Vec<_>>>() {
            if !pk.is_empty() {
                // Every combination of the per-column spellings (one, unless
                // an Int/Date column is involved).
                let mut keys = vec![Vec::new()];
                for spellings in per_column {
                    keys = keys
                        .iter()
                        .flat_map(|key| {
                            spellings
                                .iter()
                                .map(move |v| [&key[..], std::slice::from_ref(v)].concat())
                        })
                        .collect();
                }
                return AccessPath::PrimaryKey(keys);
            }
        }
        if let Some((column, keys)) = equalities.into_iter().find(|(c, _)| table.has_index_on(*c)) {
            return AccessPath::Index { column, keys };
        }
        // `column LIKE 'pattern'` conjuncts.
        let likes = conjuncts.iter().filter_map(|c| match c {
            Expr::Like {
                expr,
                pattern,
                negated: false,
            } => match (expr.as_ref(), pattern.as_ref()) {
                (Expr::Column(column), Expr::Literal(Value::Text(pattern))) => {
                    Some((*column, pattern.as_str()))
                }
                _ => None,
            },
            _ => None,
        });
        let indexed_text = |column: usize| {
            columns
                .get(column)
                .is_some_and(|c| c.data_type == DataType::Text)
                && table.has_index_on(column)
        };
        let mut prefixes = likes
            .clone()
            .filter_map(|(column, pattern)| Some((column, like_prefix(pattern)?)));
        if let Some((column, prefix)) = prefixes.find(|(column, _)| indexed_text(*column)) {
            return AccessPath::IndexRange {
                column,
                low: Value::text(prefix),
                high: prefix_successor(prefix).map(Value::text),
            };
        }
        // A value matching the pattern holds each of its literal segments —
        // what lies between wildcards (`like` knows no escape) — and so
        // every gram of each. One list is fetched, the shortest: its length
        // is read off the tree here, before anything is.
        let posted =
            |column, gram: &Value| table.index_postings(column, IndexKind::Grams, gram).len();
        let held = likes
            .filter(|(column, _)| table.index_name(*column, IndexKind::Grams).is_some())
            .flat_map(|(column, pattern)| {
                let segments = pattern.split(['%', '_']);
                segments.flat_map(grams).map(move |gram| (column, gram))
            });
        match held.min_by_key(|(column, gram)| posted(*column, gram)) {
            Some((column, gram)) => AccessPath::IndexGrams { column, gram },
            None => AccessPath::Scan,
        }
    }

    /// The bounds of an [`AccessPath::IndexRange`].
    fn bounds<'a>(low: &'a Value, high: &'a Option<Value>) -> (Bound<&'a Value>, Bound<&'a Value>) {
        let high = high.as_ref().map_or(Bound::Unbounded, Bound::Excluded);
        (Bound::Included(low), high)
    }

    /// Renders the path for `EXPLAIN`: `pk(I_ID)`, `index(SCL_CART)`,
    /// `index(AUTHOR_LNAME) range`, `index(ITEM_TITLE) grams`, `scan`.
    pub fn describe(&self, table: &Table) -> String {
        let index_name = |column, kind| table.index_name(column, kind).unwrap_or("?");
        match self {
            AccessPath::PrimaryKey(_) => {
                let columns = table.schema().columns();
                let names: Vec<&str> = table
                    .primary_key()
                    .iter()
                    .map(|&c| columns[c].name.as_str())
                    .collect();
                format!("pk({})", names.join(", "))
            }
            AccessPath::Index { column, .. } => {
                format!("index({})", index_name(*column, IndexKind::Values))
            }
            AccessPath::IndexRange { column, .. } => {
                format!("index({}) range", index_name(*column, IndexKind::Values))
            }
            AccessPath::IndexGrams { column, .. } => {
                format!("index({}) grams", index_name(*column, IndexKind::Grams))
            }
            AccessPath::Scan => "scan".to_string(),
        }
    }

    /// The keys whose posting lists the path reads, and the index they are
    /// of (none for a path that reads no list).
    fn posted(&self) -> (usize, IndexKind, &[Value]) {
        match self {
            AccessPath::Index { column, keys } => (*column, IndexKind::Values, keys),
            AccessPath::IndexGrams { column, gram } => {
                (*column, IndexKind::Grams, std::slice::from_ref(gram))
            }
            _ => (0, IndexKind::Values, &[]),
        }
    }

    /// The hash word of the values the path probes with: equal paths have
    /// equal words.
    pub(crate) fn word(&self) -> u64 {
        match self {
            AccessPath::PrimaryKey(keys) => hash_words(keys.iter().flatten()),
            AccessPath::Index { keys, .. } => hash_words(keys),
            AccessPath::IndexRange { low: value, .. }
            | AccessPath::IndexGrams { gram: value, .. } => value.hash_word(),
            AccessPath::Scan => 0,
        }
    }

    /// How many versions a read through this path fetches: one per key of the
    /// key map, the posting lists' lengths for an index, the entries of a
    /// range — exact, and known before anything is fetched. `None` for the
    /// scan.
    pub fn fetch_cost(&self, table: &Table) -> Option<usize> {
        match self {
            AccessPath::PrimaryKey(keys) => Some(keys.len()),
            AccessPath::Index { .. } | AccessPath::IndexGrams { .. } => {
                let (column, kind, keys) = self.posted();
                let postings = keys
                    .iter()
                    .map(|key| table.index_postings(column, kind, key));
                Some(postings.map(|list| list.len()).sum())
            }
            AccessPath::IndexRange { column, low, high } => {
                let (low, high) = Self::bounds(low, high);
                Some(table.index_range_len(*column, low, high))
            }
            AccessPath::Scan => None,
        }
    }

    /// The versions the path leads to that `snapshot` sees, whatever the
    /// snapshot — each once, in no order (the scan's in `RowId` order).
    pub fn visible_rows<'t>(
        &'t self,
        table: &'t Table,
        snapshot: Snapshot,
    ) -> impl Iterator<Item = (RowId, &'t Tuple)> + 't {
        let by_key = match self {
            AccessPath::PrimaryKey(keys) => &keys[..],
            _ => &[][..],
        };
        let (column, kind, by_index) = self.posted();
        let ranged = match self {
            AccessPath::IndexRange { column, low, high } => {
                let (low, high) = Self::bounds(low, high);
                table.index_range(*column, low, high, snapshot)
            }
            _ => Vec::new(),
        };
        let keyed = by_key
            .iter()
            .filter_map(move |key| table.lookup_pk(key, snapshot));
        let posted = by_index
            .iter()
            .flat_map(move |key| table.index_postings(column, kind, key))
            .filter_map(move |rid| table.read(rid, snapshot).map(|row| (rid, row)));
        let scanned = matches!(self, AccessPath::Scan).then(|| table.scan(snapshot));
        keyed
            .chain(posted)
            .chain(ranged)
            .chain(scanned.into_iter().flatten())
    }

    /// The live candidates — the path's rows at [`Snapshot::LIVE`] — in
    /// ascending `RowId`: the order the scan visits them in, so the arena,
    /// the WAL and recovery replay do not depend on the path.
    fn candidates(&self, table: &Table) -> Vec<RowId> {
        let live = self.visible_rows(table, Snapshot::LIVE);
        let mut rows: Vec<RowId> = live.map(|(rid, _)| rid).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }
}

/// Applies one update to a table at `commit_ts`, all or nothing: on an error
/// the table is unchanged. Row selection for UPDATE and DELETE statements
/// acts on the *live* (newest) versions — updates are applied in arrival
/// order against the latest state, so an update sees the effect of all
/// earlier updates of the same batch.
///
/// Cost model: rows are found through [`AccessPath::choose`], so an UPDATE or
/// DELETE costs O(candidates) predicate evaluations when an equality conjunct
/// has a primary key or secondary index behind it — one for a primary-key
/// match, the key's live versions for a secondary index — and O(versions of
/// the table, dead ones included) without. A predicate that fails to
/// evaluate on a candidate fails the operation, and so does one the log
/// could not replay: an assignment to a column the table lacks, or an
/// expression nested deeper than [`MAX_EXPR_DEPTH`]. `pinned` decides
/// whether updated versions may be overwritten in place ([`Table::update_rows`]).
pub(crate) fn apply_update(
    table: &mut Table,
    update: &UpdateOp,
    commit_ts: Timestamp,
    pinned: bool,
) -> Result<UpdateResult> {
    apply_update_via(table, update, commit_ts, pinned, AccessPath::choose)
}

/// A storage operator's cycle writes nothing: a batch's writes commit
/// through [`Catalog::apply_ops`](crate::Catalog::apply_ops), which logs them
/// and reclaims the versions they retire, before its scans and probes run.
/// `execute_batch` keeps an `updates` parameter for the ledger's per-layer
/// bench, which passes `&[]`; a non-empty slice is refused, not committed
/// unlogged.
pub(crate) fn refuse_cycle_updates(updates: &[UpdateOp]) -> Result<()> {
    match updates.len() {
        0 => Ok(()),
        n => Err(Error::Internal(format!(
            "{n} update(s) handed to a storage operator's cycle: writes commit through \
             Catalog::apply_ops"
        ))),
    }
}

/// [`apply_update`] with the access-path rule as a parameter, so tests can
/// hold the index-assisted selection against the plain scan.
fn apply_update_via(
    table: &mut Table,
    update: &UpdateOp,
    commit_ts: Timestamp,
    pinned: bool,
    choose: fn(&Table, &Expr) -> AccessPath,
) -> Result<UpdateResult> {
    let (assignments, predicate) = match update {
        UpdateOp::Insert { values } => {
            table.insert(values.clone(), commit_ts)?;
            return Ok(UpdateResult {
                rows_affected: 1,
                rows_examined: 0,
            });
        }
        UpdateOp::Update {
            assignments,
            predicate,
        } => (Some(assignments), predicate),
        UpdateOp::Delete { predicate } => (None, predicate),
    };
    let arity = table.schema().len();
    if let Some((column, _)) = assignments.into_iter().flatten().find(|(c, _)| *c >= arity) {
        return Err(Error::InvalidParameter(format!(
            "assignment to column {column} of a table with {arity} columns"
        )));
    }
    let exprs = assignments.into_iter().flatten().map(|(_, e)| e);
    if !exprs
        .chain([predicate])
        .all(|e| nests_within(e, MAX_EXPR_DEPTH))
    {
        return Err(Error::Unsupported(format!(
            "an expression nested deeper than {MAX_EXPR_DEPTH} levels cannot be logged"
        )));
    }
    // Collect matching live rows first (borrow rules: select immutably, then
    // mutate).
    let candidates = choose(table, predicate).candidates(table);
    let rows_examined = candidates.len();
    let mut matching: Vec<RowId> = Vec::new();
    for rid in candidates {
        if predicate.eval_predicate(table.row(rid).expect("candidate exists").values())? {
            matching.push(rid);
        }
    }
    let rows_affected = matching.len();
    if let Some(assignments) = assignments {
        let mut updates = Vec::with_capacity(matching.len());
        for rid in matching {
            let old_row = table.row(rid).expect("candidate exists").values();
            let mut new_values = old_row.values().to_vec();
            for (col, expr) in assignments {
                new_values[*col] = expr.eval(old_row)?;
            }
            updates.push((rid, Tuple::new(new_values)));
        }
        table.update_rows(updates, commit_ts, pinned)?;
    } else {
        for rid in matching {
            table.delete_row(rid, commit_ts)?;
        }
    }
    Ok(UpdateResult {
        rows_affected,
        rows_examined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, IndexDef, TableDef};
    use proptest::prelude::*;
    use proptest::TestRng;
    use shareddb_common::{tuple, Column, DataType, Schema, UnaryOp};

    #[test]
    fn kinds() {
        assert_eq!(
            UpdateOp::Insert {
                values: tuple![1i64]
            }
            .kind(),
            "INSERT"
        );
        assert_eq!(
            UpdateOp::Delete {
                predicate: Expr::lit(true)
            }
            .kind(),
            "DELETE"
        );
        assert_eq!(
            UpdateOp::Update {
                assignments: vec![],
                predicate: Expr::lit(true)
            }
            .kind(),
            "UPDATE"
        );
    }

    /// The reference selection: the plain scan over the live versions.
    fn scan_only(_: &Table, _: &Expr) -> AccessPath {
        AccessPath::Scan
    }

    fn delete(predicate: Expr) -> UpdateOp {
        UpdateOp::Delete { predicate }
    }

    fn set(column: usize, value: Expr, predicate: Expr) -> UpdateOp {
        UpdateOp::Update {
            assignments: vec![(column, value)],
            predicate,
        }
    }

    // -- exact counts -------------------------------------------------------

    const ROWS: i64 = 10_000;

    /// A 10 000-row table shaped like TPC-W's ITEM / CUSTOMER (single-column
    /// key) and SHOPPING_CART_LINE (`CART` indexed: four lines per cart).
    fn big_table() -> Table {
        let schema = Schema::new(vec![
            Column::new("ID", DataType::Int),
            Column::new("CART", DataType::Int),
            Column::new("QTY", DataType::Int),
            Column::new("LOGIN", DataType::Date),
        ]);
        let mut table = Table::new("T", schema, vec![0]);
        table.create_index("T_CART", 1, IndexKind::Values).unwrap();
        for id in 0..ROWS {
            let row = tuple![id, id / 4, 1i64, Value::Date(15_000)];
            table.insert(row, Timestamp(0)).unwrap();
        }
        table
    }

    #[test]
    fn rows_examined_is_the_candidate_count() {
        let mut table = big_table();
        let ts = Timestamp(1);
        // A snapshot is pinned: each update appends.
        let apply_update = |table: &mut Table, op: &UpdateOp, ts| apply_update(table, op, ts, true);
        let id_is = |id: i64| Expr::col(0).eq(Expr::lit(id));
        let counts = |r: UpdateResult| (r.rows_examined, r.rows_affected);
        // adminUpdateItem / updateCustomerLogin: one key, one row.
        let by_key = set(2, Expr::lit(7i64), id_is(4_321));
        assert_eq!(
            counts(apply_update(&mut table, &by_key, ts).unwrap()),
            (1, 1)
        );
        let login = set(3, Expr::lit(Value::Date(15_401)), id_is(77));
        assert_eq!(
            counts(apply_update(&mut table, &login, ts).unwrap()),
            (1, 1)
        );
        // The superseded version stays in the arena and is not examined again.
        assert_eq!(
            counts(apply_update(&mut table, &by_key, ts).unwrap()),
            (1, 1)
        );
        assert_eq!(table.version_count() as i64, ROWS + 3);
        // refreshCart: the cart's four lines are examined, one is changed.
        let cart_is = |cart: i64| Expr::col(1).eq(Expr::lit(cart));
        let refresh = set(2, Expr::lit(3i64), cart_is(500).and(id_is(2_001)));
        // (the key is covered too, and the key map is preferred)
        assert_eq!(
            counts(apply_update(&mut table, &refresh, ts).unwrap()),
            (1, 1)
        );
        let refresh = set(
            2,
            Expr::lit(3i64),
            cart_is(500).and(Expr::col(2).eq(Expr::lit(1i64))),
        );
        assert_eq!(
            counts(apply_update(&mut table, &refresh, ts).unwrap()),
            (4, 3)
        );
        // clearCart: exactly the cart's live lines — its four dead versions
        // share the posting list and are not counted.
        assert_eq!(
            counts(apply_update(&mut table, &delete(cart_is(500)), ts).unwrap()),
            (4, 4)
        );
        assert_eq!(
            counts(apply_update(&mut table, &delete(cart_is(500)), ts).unwrap()),
            (0, 0)
        );
        // No indexed conjunct: every live version, and only those.
        let live = table.live_count();
        assert_eq!(live as i64, ROWS - 4);
        let by_qty = delete(Expr::col(2).eq(Expr::lit(7i64)));
        assert_eq!(
            counts(apply_update(&mut table, &by_qty, ts).unwrap()),
            (live, 1)
        );
        // Nothing pinned: a key's update overwrites its version, and the
        // next finds the one version there is.
        let versions = table.version_count();
        let by_key = set(2, Expr::lit(8i64), id_is(4_322));
        for _ in 0..2 {
            let applied = super::apply_update(&mut table, &by_key, ts, false);
            assert_eq!(counts(applied.unwrap()), (1, 1));
        }
        assert_eq!(table.version_count(), versions);
        assert_eq!(table.in_place_count(), 2);
    }

    #[test]
    fn access_path_rule() {
        let table = big_table();
        let path = |predicate: Expr| AccessPath::choose(&table, &predicate).describe(&table);
        let eq = |column: usize, value: Value| Expr::col(column).eq(Expr::Literal(value));
        assert_eq!(path(eq(0, Value::Int(1))), "pk(ID)");
        assert_eq!(path(Expr::lit(1i64).eq(Expr::col(0))), "pk(ID)");
        assert_eq!(
            path(eq(1, Value::Int(1)).and(eq(0, Value::Int(1)))),
            "pk(ID)"
        );
        assert_eq!(
            path(eq(1, Value::Int(1)).and(eq(2, Value::Int(1)))),
            "index(T_CART)"
        );
        assert_eq!(path(eq(2, Value::Int(1))), "scan");
        assert_eq!(path(Expr::col(0).gt(Expr::lit(1i64))), "scan");
        assert_eq!(path(eq(0, Value::Int(1)).or(eq(1, Value::Int(1)))), "scan");
        // The type-family guard: only a literal the index order agrees with
        // `sql_cmp` on may be probed; Int and Date are probed as each other.
        assert_eq!(path(eq(0, Value::Date(1))), "pk(ID)");
        for literal in [
            Value::Float(1.0),
            Value::Null,
            Value::text("1"),
            Value::Bool(true),
        ] {
            assert_eq!(path(eq(0, literal)), "scan");
        }
        assert_eq!(
            AccessPath::choose(&table, &eq(0, Value::Int(5))),
            AccessPath::PrimaryKey(vec![vec![Value::Int(5)], vec![Value::Date(5)]])
        );
    }

    /// A pattern that is a prefix and a `%` becomes the keys from the prefix
    /// up to its successor, on a text column with an index; anything else
    /// stays where it was.
    #[test]
    fn a_prefix_is_a_range_of_the_index() {
        let successor = |prefix: &str| prefix_successor(prefix);
        assert_eq!(successor("ALAST7").as_deref(), Some("ALAST8"));
        assert_eq!(successor("a\u{ff}").as_deref(), Some("a\u{100}"));
        assert_eq!(successor("a\u{d7ff}").as_deref(), Some("a\u{e000}"));
        assert_eq!(successor("a\u{10ffff}\u{10ffff}").as_deref(), Some("b"));
        assert_eq!(successor("\u{10ffff}"), None);
        assert_eq!(like_prefix("ab%"), Some("ab"));
        for none in ["%", "ab", "%ab", "a%b%", "a_%", "_%", ""] {
            assert_eq!(like_prefix(none), None, "{none}");
        }

        let schema = Schema::new(vec![
            Column::new("ID", DataType::Int),
            Column::nullable("NAME", DataType::Text),
            Column::new("NOTE", DataType::Text),
        ]);
        let mut table = Table::new("T", schema, vec![0]);
        table.create_index("T_NAME", 1, IndexKind::Values).unwrap();
        let names = ["ab", "abc", "ab\u{10ffff}c", "ac", "b"];
        for (id, name) in names.iter().enumerate() {
            let row = tuple![id as i64, *name, *name];
            table.insert(row, Timestamp(0)).unwrap();
        }
        table
            .insert(tuple![9i64, Value::Null, "ab"], Timestamp(0))
            .unwrap();
        let like = |column: usize, pattern: &str| Expr::col(column).like(Expr::lit(pattern));
        let path = |predicate: Expr| AccessPath::choose(&table, &predicate);
        let range = path(like(1, "ab%"));
        assert_eq!(range.describe(&table), "index(T_NAME) range");
        assert_eq!(range.fetch_cost(&table), Some(3));
        assert_eq!(
            range.candidates(&table),
            [RowId(0), RowId(1), RowId(2)],
            "the prefix itself, and past the last character there is"
        );
        // Beside another conjunct; an equality with an index behind it is
        // preferred, the key first of all.
        let beside = like(1, "a%").and(Expr::col(2).eq(Expr::lit("ac")));
        assert_eq!(path(beside).fetch_cost(&table), Some(4));
        let keyed = like(1, "a%").and(Expr::col(0).eq(Expr::lit(1i64)));
        assert_eq!(path(keyed).describe(&table), "pk(ID)");
        // No index, no prefix, a negation, a disjunct: the scan.
        let negated = Expr::Like {
            expr: Box::new(Expr::col(1)),
            pattern: Box::new(Expr::lit("ab%")),
            negated: true,
        };
        for scanned in [
            like(2, "ab%"),
            like(1, "%"),
            like(1, "a%c"),
            negated,
            like(1, "ab%").or(like(1, "b%")),
        ] {
            assert_eq!(path(scanned.clone()), AccessPath::Scan, "{scanned}");
        }
    }

    /// A pattern's literal segments — what lies between `%` and `_` — name
    /// the grams a matching value holds; the path is the posting list of the
    /// rarest, on a column indexed by gram, behind a prefix's range when the
    /// column is indexed by value as well.
    #[test]
    fn an_infix_is_the_rarest_gram_of_the_pattern() {
        let schema = Schema::new(vec![
            Column::new("ID", DataType::Int),
            Column::nullable("TITLE", DataType::Text),
            Column::new("NOTE", DataType::Text),
        ]);
        let mut table = Table::new("T", schema, vec![0]);
        table.create_index("T_TITLE", 1, IndexKind::Grams).unwrap();
        assert!(table.create_index("T_ID", 0, IndexKind::Grams).is_err());
        let titles = ["BOOK 1", "BOOK 12", "BOOK 123", "a\u{20ac}b", "abcabc", ""];
        for (id, title) in titles.iter().enumerate() {
            let row = tuple![id as i64, *title, *title];
            table.insert(row, Timestamp(0)).unwrap();
        }
        table
            .insert(tuple![9i64, Value::Null, "BOOK 9"], Timestamp(0))
            .unwrap();
        // One entry per distinct gram of each version: 4 + 5 + 6 + 3 + 3.
        let entries: Vec<_> = table.index_entry_counts().collect();
        assert_eq!(entries, [("T_TITLE", 21)]);
        let like = |column: usize, pattern: &str| Expr::col(column).like(Expr::lit(pattern));
        let path = |predicate: Expr| AccessPath::choose(&table, &predicate);
        let found = |pattern: &str| {
            let path = path(like(1, pattern));
            (
                path.describe(&table),
                path.fetch_cost(&table),
                path.candidates(&table),
            )
        };
        let grams = || "index(T_TITLE) grams".to_string();
        // `BOO` is in three titles, `K 1` too, `123` in one.
        assert_eq!(found("%BOOK 123%"), (grams(), Some(1), vec![RowId(2)]));
        assert_eq!(found("%OOK 1%").1, Some(3));
        // Two segments, a `_` between two, a prefix, no wildcard at all.
        assert_eq!(found("%BOOK%123").1, Some(1));
        assert_eq!(found("%OOK_123%"), (grams(), Some(1), vec![RowId(2)]));
        assert_eq!(found("BOOK 12%").1, Some(2));
        assert_eq!(found("abcabc").1, Some(1));
        // Bytes, not characters: `a€b` is five bytes, three grams.
        assert_eq!(found("%a\u{20ac}%").1, Some(1));
        assert_eq!(found("%\u{20ac}%"), (grams(), Some(1), vec![RowId(3)]));
        // A gram no title holds: nothing to fetch.
        assert_eq!(found("%BOOK 7%"), (grams(), Some(0), vec![]));
        // No segment of three bytes, a negation, a column without the
        // index, a disjunct: the scan.
        let negated = Expr::Like {
            expr: Box::new(Expr::col(1)),
            pattern: Box::new(Expr::lit("%BOOK 123%")),
            negated: true,
        };
        for scanned in [
            like(1, "%OK%"),
            like(1, "%B_O_K%1_"),
            like(1, ""),
            negated,
            like(2, "%BOOK 123%"),
            like(1, "%BOOK 1%").or(like(1, "%abc%")),
        ] {
            assert_eq!(path(scanned.clone()), AccessPath::Scan, "{scanned}");
        }
        // Beside other conjuncts the rarest gram of any pattern is taken;
        // an equality with an index behind it comes first.
        let both = like(1, "%BOOK%").and(like(1, "%12%")).and(like(1, "%123"));
        assert_eq!(path(both).fetch_cost(&table), Some(1));
        let keyed = like(1, "%BOOK 123%").and(Expr::col(0).eq(Expr::lit(1i64)));
        assert_eq!(path(keyed).describe(&table), "pk(ID)");
        // Indexed by value as well, a prefix is a range and an infix a gram.
        table
            .create_index("T_TITLES", 1, IndexKind::Values)
            .unwrap();
        let path = |predicate: Expr| AccessPath::choose(&table, &predicate).describe(&table);
        assert_eq!(path(like(1, "BOOK 12%")), "index(T_TITLES) range");
        assert_eq!(path(like(1, "%OOK 12%")), "index(T_TITLE) grams");
        assert_eq!(
            path(Expr::col(1).eq(Expr::lit("abcabc"))),
            "index(T_TITLES)"
        );
    }

    #[test]
    fn failing_operations_leave_the_table_untouched() {
        let mut table = big_table();
        let before = table.dump();
        let ts = Timestamp(1);
        // A predicate that does not evaluate is the operation's error, not
        // "0 rows affected".
        let apply_update =
            |table: &mut Table, op: &UpdateOp, ts| apply_update(table, op, ts, false);
        let bad_predicate = delete(Expr::col(0).like(Expr::lit(1i64)));
        assert!(apply_update(&mut table, &bad_predicate, ts).is_err());
        // The fourth line of the cart collides with a key: nothing moves.
        let shift = set(
            0,
            Expr::col(0).binary(BinaryOp::Add, Expr::lit(5i64)),
            cart_lines(9),
        );
        assert!(apply_update(&mut table, &shift, ts).is_err());
        let bad_value = set(2, Expr::lit("many"), cart_lines(9));
        assert!(apply_update(&mut table, &bad_value, ts).is_err());
        assert_eq!(table.dump(), before);
        // Keys vacated earlier in the same operation may be taken: 36..=39
        // become 37..=40 only from the top, so ascending order fails …
        let up = set(
            0,
            Expr::col(0).binary(BinaryOp::Add, Expr::lit(1i64)),
            cart_lines(9),
        );
        assert!(apply_update(&mut table, &up, ts).is_err());
        assert_eq!(table.dump(), before);
        // … and 36..=39 to 35..=38 works once 35 is gone.
        apply_update(&mut table, &delete(Expr::col(0).eq(Expr::lit(35i64))), ts).unwrap();
        let down = set(
            0,
            Expr::col(0).binary(BinaryOp::Sub, Expr::lit(1i64)),
            cart_lines(9),
        );
        assert_eq!(
            apply_update(&mut table, &down, ts).unwrap().rows_affected,
            4
        );
        assert!(table.lookup_pk(&[Value::Int(39)], Snapshot::LIVE).is_none());
        assert!(table.lookup_pk(&[Value::Int(35)], Snapshot::LIVE).is_some());
    }

    fn cart_lines(cart: i64) -> Expr {
        Expr::col(1).eq(Expr::lit(cart))
    }

    // -- the differential property ------------------------------------------

    fn pick(rng: &mut TestRng, n: usize) -> usize {
        (0..n).generate(rng)
    }

    /// Columns of the random tables: every type, two of them nullable.
    const TYPES: [DataType; 6] = [
        DataType::Int,
        DataType::Int,
        DataType::Text,
        DataType::Float,
        DataType::Date,
        DataType::Bool,
    ];

    /// Few strings, so that keys collide: some a prefix of others, some
    /// ending where a prefix's successor is hard — a two-byte character, the
    /// last character there is, and that one with a character behind it —
    /// and some long enough to hold a gram, or one twice.
    const TEXTS: [&str; 8] = [
        "a",
        "b",
        "ab",
        "a\u{ff}",
        "a\u{10ffff}b",
        "abc",
        "xabcabx",
        "ab cab",
    ];

    /// A value of any kind from a small domain, so that keys collide.
    fn any_value(rng: &mut TestRng) -> Value {
        let n = pick(rng, 5) as i64;
        match pick(rng, 7) {
            0 => Value::Null,
            1 => Value::Int(n),
            2 => Value::Float(n as f64),
            3 => Value::Float(n as f64 + 0.5),
            4 => Value::Date(n),
            5 => Value::text(TEXTS[pick(rng, TEXTS.len())]),
            _ => Value::Bool(n % 2 == 0),
        }
    }

    /// `C2 LIKE pattern` on the text column: a prefix (a range of its value
    /// index, when it has one), a pattern with a gram in it (a posting list
    /// of its gram index, when it has one) — an infix, two segments, a `_`
    /// between them, one gram and no wildcard, a character of several bytes
    /// — or a pattern with neither, which takes the scan; negated at times,
    /// which takes it too.
    fn like(rng: &mut TestRng) -> Expr {
        const PATTERNS: [&str; 18] = [
            "a%",
            "ab%",
            "a\u{ff}%",
            "a\u{10ffff}%",
            "c%",
            "%",
            "a_%",
            "%b",
            "%abc%",
            "abc",
            "%ab%cab",
            "%ab_cab%",
            "%a_c%",
            "%a\u{ff}",
            "%\u{10ffff}b",
            "%a\u{10ffff}b%",
            "%bca%",
            "",
        ];
        Expr::Like {
            expr: Box::new(Expr::col(2)),
            pattern: Box::new(Expr::lit(PATTERNS[pick(rng, PATTERNS.len())])),
            negated: pick(rng, 10) == 0,
        }
    }

    /// A value the column admits — not always one of its own type: Int,
    /// Float and Date columns take each other's values. (No rejection loop:
    /// a shrunk case replays zeros for ever.)
    fn value_for(rng: &mut TestRng, column: usize) -> Value {
        let value = any_value(rng);
        let nullable = column == 2 || column == 5;
        if value.is_null() && nullable
            || Column::new("C", TYPES[column]).check_value(&value).is_ok()
        {
            return value;
        }
        match TYPES[column] {
            DataType::Int => Value::Int(0),
            DataType::Float => Value::Float(0.0),
            DataType::Text => Value::text(TEXTS[pick(rng, TEXTS.len())]),
            DataType::Date => Value::Date(0),
            DataType::Bool => Value::Bool(false),
        }
    }

    fn random_row(rng: &mut TestRng) -> Tuple {
        Tuple::new((0..TYPES.len()).map(|c| value_for(rng, c)).collect())
    }

    fn random_predicate(rng: &mut TestRng) -> Expr {
        let column = |rng: &mut TestRng| Expr::col(pick(rng, TYPES.len()));
        let equality = |rng: &mut TestRng| {
            let (column, literal) = (column(rng), Expr::Literal(any_value(rng)));
            if pick(rng, 4) == 0 {
                literal.eq(column)
            } else {
                column.eq(literal)
            }
        };
        match pick(rng, 13) {
            10 | 11 => like(rng),
            12 => like(rng).and(equality(rng)),
            0..=2 => equality(rng),
            3 | 4 => equality(rng).and(equality(rng)),
            5 => equality(rng).and(column(rng).gt(Expr::Literal(any_value(rng)))),
            6 => equality(rng).or(equality(rng)),
            7 => column(rng).lt_eq(Expr::Literal(any_value(rng))),
            8 => Expr::Unary {
                op: UnaryOp::IsNull,
                expr: Box::new(column(rng)),
            },
            _ => Expr::lit(true),
        }
    }

    fn random_op(rng: &mut TestRng) -> UpdateOp {
        match pick(rng, 5) {
            0 | 1 => UpdateOp::Insert {
                values: random_row(rng),
            },
            2 => delete(random_predicate(rng)),
            _ => {
                let assignments = (0..1 + pick(rng, 2))
                    .map(|_| {
                        let column = pick(rng, TYPES.len());
                        let value = match pick(rng, 4) {
                            // Moves the key when `column` is part of it.
                            0 if column < 2 => {
                                Expr::col(column).binary(BinaryOp::Add, Expr::lit(1i64))
                            }
                            1 => Expr::Literal(any_value(rng)), // may not fit
                            _ => Expr::Literal(value_for(rng, column)),
                        };
                        (column, value)
                    })
                    .collect();
                UpdateOp::Update {
                    assignments,
                    predicate: random_predicate(rng),
                }
            }
        }
    }

    /// A random table definition (no / single / composite key, 0–2 secondary
    /// indexes by value, the text column indexed by gram or not) and a
    /// sequence of batches of random operations.
    #[derive(Debug)]
    struct Case {
        primary_key: Vec<usize>,
        indexed: Vec<usize>,
        grams: bool,
        batches: Vec<Vec<UpdateOp>>,
    }

    struct Cases;

    impl Strategy for Cases {
        type Value = Case;
        fn generate(&self, rng: &mut TestRng) -> Case {
            let primary_key = [vec![], vec![0], vec![0, 1]][pick(rng, 3)].clone();
            let mut indexed: Vec<usize> =
                (0..pick(rng, 3)).map(|_| pick(rng, TYPES.len())).collect();
            indexed.dedup();
            let grams = pick(rng, 2) == 0;
            let batches = (0..1 + pick(rng, 6))
                .map(|_| (0..1 + pick(rng, 8)).map(|_| random_op(rng)).collect())
                .collect();
            Case {
                primary_key,
                indexed,
                grams,
                batches,
            }
        }
    }

    impl Case {
        fn table(&self) -> Table {
            let columns = TYPES.iter().enumerate().map(|(i, &data_type)| {
                if i == 2 || i == 5 {
                    Column::nullable(format!("C{i}"), data_type)
                } else {
                    Column::new(format!("C{i}"), data_type)
                }
            });
            let mut table = Table::new(
                "T",
                Schema::new(columns.collect()),
                self.primary_key.clone(),
            );
            for &column in &self.indexed {
                table
                    .create_index(format!("T_C{column}"), column, IndexKind::Values)
                    .unwrap();
            }
            if self.grams {
                table.create_index("T_GRAMS", 2, IndexKind::Grams).unwrap();
            }
            table
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Index-assisted selection and the plain scan are the same function:
        /// after every operation both tables hold identical arenas (values,
        /// `begin`, `end`, in order), key maps and index contents, and report
        /// the same outcome — every other batch with the snapshot before it
        /// pinned, the rest free to overwrite in place.
        #[test]
        fn indexed_selection_equals_scan_selection(case in Cases) {
            let (mut indexed, mut reference) = (case.table(), case.table());
            for (batch, ops) in case.batches.iter().enumerate() {
                let ts = Timestamp(batch as u64 + 1);
                let pinned = batch % 2 == 1;
                for op in ops {
                    let got = apply_update_via(&mut indexed, op, ts, pinned, AccessPath::choose);
                    let expected = apply_update_via(&mut reference, op, ts, pinned, scan_only);
                    let same_outcome = match (&got, &expected) {
                        (Ok(got), Ok(expected)) => {
                            got.rows_affected == expected.rows_affected
                                && got.rows_examined <= expected.rows_examined
                        }
                        (Err(got), Err(expected)) => got.to_string() == expected.to_string(),
                        _ => false,
                    };
                    prop_assert!(
                        same_outcome,
                        "{op:?}: indexed {got:?}, scan {expected:?}\nin {case:#?}"
                    );
                    prop_assert!(
                        indexed.dump() == reference.dump(),
                        "after {op:?}: indexed {}\nscan {}\nin {case:#?}",
                        indexed.dump(),
                        reference.dump()
                    );
                }
            }
        }
    }

    /// Runs `case` through a durable catalog — with the snapshot before
    /// each batch pinned through its commit, or nothing pinned — beside the
    /// scan reference under the same pins, then recovers a second catalog
    /// from the log.
    fn replay(case: &Case, pinned: bool) {
        let dir = std::env::temp_dir().join(format!(
            "shareddb-update-prop-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            let catalog = Catalog::new();
            let mut def = TableDef::new("T");
            for (i, &data_type) in TYPES.iter().enumerate() {
                def = match i {
                    2 | 5 => def.nullable_column(&format!("C{i}"), data_type),
                    _ => def.column(&format!("C{i}"), data_type),
                };
            }
            let key: Vec<String> = case.primary_key.iter().map(|c| format!("C{c}")).collect();
            let key: Vec<&str> = key.iter().map(String::as_str).collect();
            catalog.create_table(def.primary_key(&key)).unwrap();
            let grams = case
                .grams
                .then_some((2, IndexKind::Grams, "T_GRAMS".to_string()));
            let by_value = case
                .indexed
                .iter()
                .map(|&c| (c, IndexKind::Values, format!("T_C{c}")));
            for (column, kind, name) in by_value.chain(grams) {
                let (table, column) = ("T".into(), format!("C{column}"));
                catalog
                    .create_index(IndexDef {
                        name,
                        table,
                        column,
                        kind,
                    })
                    .unwrap();
            }
            catalog.recover(&dir).unwrap();
            catalog
        };
        let live = open();
        let mut reference = case.table();
        for (batch, ops) in case.batches.iter().enumerate() {
            let named: Vec<(String, UpdateOp)> =
                ops.iter().map(|op| ("T".to_string(), op.clone())).collect();
            let pin = pinned.then(|| live.pin());
            let results = live.apply_batch(&named).unwrap();
            let commit = Timestamp(batch as u64 + 1);
            for (op, result) in ops.iter().zip(results) {
                let expected = apply_update_via(&mut reference, op, commit, pinned, scan_only);
                prop_assert_eq!(
                    result.map(|r| r.rows_affected).ok(),
                    expected.map(|r| r.rows_affected).ok()
                );
            }
            // The commit reclaims what it retired below its low-water mark.
            reference.reclaim(pin.map_or(commit, |pin| pin.ts));
        }
        let dump = |catalog: &Catalog| catalog.table("T").unwrap().read().dump();
        // Qualifiers aside (the catalog's columns carry the table name),
        // the dumps hold no schema, so they compare across the two.
        prop_assert_eq!(dump(&live), reference.dump());
        let recovered = open();
        if pinned {
            // The replay pins nothing and overwrites where the live run
            // appended: the live rows are the same, not the arena.
            let live_rows = |catalog: &Catalog| {
                let table = catalog.table("T").unwrap();
                let table = table.read();
                let mut rows: Vec<String> = table
                    .scan_live()
                    .map(|(_, row)| format!("{row:?}"))
                    .collect();
                rows.sort();
                rows
            };
            prop_assert_eq!(live_rows(&recovered), live_rows(&live));
        } else {
            prop_assert_eq!(dump(&recovered), dump(&live));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Replaying the WAL reproduces the live state, arena for arena —
        /// which also says failed operations left nothing behind and were
        /// not logged — and both equal the scan reference under the same
        /// rule for overwriting in place, reclaimed payloads included. With
        /// the snapshot before each batch pinned, the live catalog equals
        /// the reference, which appended under the pins, and the replay
        /// its live rows.
        #[test]
        fn recovery_replays_the_live_state(case in Cases) {
            replay(&case, false);
            replay(&case, true);
        }
    }
}
