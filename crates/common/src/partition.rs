//! Stable horizontal partitioning of rows.

use crate::tuple::Tuple;
use crate::value::hash_values;

/// Deterministic horizontal partition of a row: a stable FNV-1a hash
/// ([`hash_values`]) of the row's key values (`key_columns`; the whole tuple
/// when empty) modulo `of`. Every consumer computes the same partition for
/// the same row, which is what lets one execution be split over the
/// `scan_segments` disjoint row segments of an engine's shared scans and
/// recombined.
///
/// Hashing the *key* (not the full tuple) keeps a row's partition stable
/// under updates to non-key columns. Every segment of one execution
/// additionally reads its batch's single MVCC snapshot, which makes
/// partitioning by *any* column set exactly-once — this is what lets a
/// co-partitioned join hash a non-key join column.
pub fn tuple_partition(tuple: &Tuple, key_columns: &[usize], of: u32) -> u32 {
    if of <= 1 {
        return 0;
    }
    let hash = if key_columns.is_empty() {
        hash_values(0, tuple)
    } else {
        hash_values(0, key_columns.iter().filter_map(|&c| tuple.get(c)))
    };
    (hash % of as u64) as u32
}
