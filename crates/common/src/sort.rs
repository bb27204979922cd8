//! Sort specifications and comparators.
//!
//! Used by the shared sort and Top-N operators (Section 3.4, Figure 4): the
//! sort itself is shared across all queries of a batch, so the comparator must
//! be a property of the *operator*, not of an individual query.

use crate::tuple::Tuple;
use std::cmp::Ordering;

/// Sort direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SortOrder {
    /// Ascending (the SQL default).
    Ascending,
    /// Descending.
    Descending,
}

impl SortOrder {
    /// Applies the direction to an ordering computed in ascending terms.
    #[inline]
    pub fn apply(self, ord: Ordering) -> Ordering {
        match self {
            SortOrder::Ascending => ord,
            SortOrder::Descending => ord.reverse(),
        }
    }
}

/// One `ORDER BY` key: a column index plus a direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SortKey {
    /// Index of the sort column in the input schema.
    pub column: usize,
    /// Direction.
    pub order: SortOrder,
}

impl SortKey {
    /// Ascending key on a column.
    pub fn asc(column: usize) -> Self {
        SortKey {
            column,
            order: SortOrder::Ascending,
        }
    }

    /// Descending key on a column.
    pub fn desc(column: usize) -> Self {
        SortKey {
            column,
            order: SortOrder::Descending,
        }
    }
}

/// Compares two tuples under a list of sort keys. NULLs sort first (ascending)
/// because [`crate::Value`]'s total order places NULL below every value.
pub fn compare_tuples(a: &Tuple, b: &Tuple, keys: &[SortKey]) -> Ordering {
    for key in keys {
        let ord = a[key.column].cmp(&b[key.column]);
        let ord = key.order.apply(ord);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// The order word of `row` under `keys`: [`crate::Value::order_word`] of its
/// first key — `word(a) < word(b)` implies `compare_tuples(a, b, keys)` is
/// `Less`, and equal words decide nothing. Whoever ranks many rows gathers
/// their words once and compares two rows only when their words tie.
#[inline]
pub fn key_word(row: &Tuple, keys: &[SortKey]) -> u64 {
    keys.first()
        .map_or(0, |key| row[key.column].order_word(key.order))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    /// Sorts `tuples` stably by `keys`, as an operator ranks its rows.
    fn sort(tuples: &mut [Tuple], keys: &[SortKey]) {
        tuples.sort_by(|a, b| compare_tuples(a, b, keys));
    }

    #[test]
    fn single_key_ascending_descending() {
        let mut ts = vec![tuple![3i64, "c"], tuple![1i64, "a"], tuple![2i64, "b"]];
        sort(&mut ts, &[SortKey::asc(0)]);
        assert_eq!(ts[0][0], crate::Value::Int(1));
        sort(&mut ts, &[SortKey::desc(0)]);
        assert_eq!(ts[0][0], crate::Value::Int(3));
    }

    #[test]
    fn multi_key_breaks_ties() {
        let mut ts = vec![tuple![1i64, "b"], tuple![1i64, "a"], tuple![0i64, "z"]];
        sort(&mut ts, &[SortKey::asc(0), SortKey::asc(1)]);
        assert_eq!(ts[0], tuple![0i64, "z"]);
        assert_eq!(ts[1], tuple![1i64, "a"]);
        assert_eq!(ts[2], tuple![1i64, "b"]);
    }

    #[test]
    fn nulls_sort_first_ascending() {
        let mut ts = vec![tuple![1i64], tuple![crate::Value::Null], tuple![0i64]];
        sort(&mut ts, &[SortKey::asc(0)]);
        assert_eq!(ts[0], tuple![crate::Value::Null]);
        sort(&mut ts, &[SortKey::desc(0)]);
        assert_eq!(ts[2], tuple![crate::Value::Null]);
    }

    #[test]
    fn compare_is_equal_when_keys_match() {
        let a = tuple![1i64, "x"];
        let b = tuple![1i64, "y"];
        assert_eq!(compare_tuples(&a, &b, &[SortKey::asc(0)]), Ordering::Equal);
        assert_ne!(
            compare_tuples(&a, &b, &[SortKey::asc(0), SortKey::asc(1)]),
            Ordering::Equal
        );
    }
}
