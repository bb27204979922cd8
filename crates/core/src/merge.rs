//! The ordered merge of partial results.
//!
//! The engine runs every statement whole, in one batch on one snapshot, and
//! merges nothing. This function stays because the ledger's per-layer bench
//! times it (`core.merge.merge_results_ns_per_row`) until that metric leaves
//! the ledger.

use crate::engine::ResultSet;
use shareddb_common::sort::compare_tuples;
use shareddb_common::{Error, Result, SortKey};

/// How partial results recombine: by sort keys, then a limit.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeSpec {
    /// Merge by the root operator's sort keys, then re-apply the limit.
    Ordered {
        /// Sort keys of the root operator.
        keys: Vec<SortKey>,
        /// Row limit.
        limit: Option<usize>,
    },
}

/// Merges partial results, each sorted by `spec`'s keys, into one.
pub fn merge_results(spec: &MergeSpec, mut parts: Vec<ResultSet>) -> Result<ResultSet> {
    let Some(first) = parts.first() else {
        return Err(Error::Internal("merge of zero partial results".into()));
    };
    let schema = first.schema.clone();
    let MergeSpec::Ordered { keys, limit } = spec;
    let mut rows = Vec::with_capacity(parts.iter().map(|p| p.rows.len()).sum());
    for part in &mut parts {
        rows.append(&mut part.rows);
    }
    // A stable sort over the concatenation keeps ties in part order.
    rows.sort_by(|a, b| compare_tuples(a, b, keys));
    if let Some(limit) = limit {
        rows.truncate(*limit);
    }
    Ok(ResultSet { schema, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::{tuple, Column, DataType, Schema, Value};

    #[test]
    fn ordered_merge_respects_keys_and_limit() {
        let part = |rows| ResultSet {
            schema: Schema::new(vec![
                Column::new("A", DataType::Int),
                Column::new("B", DataType::Int),
            ]),
            rows,
        };
        let a = part(vec![tuple![1i64, 10i64], tuple![3i64, 30i64]]);
        let b = part(vec![tuple![2i64, 20i64], tuple![4i64, 40i64]]);
        let spec = MergeSpec::Ordered {
            keys: vec![SortKey::asc(0)],
            limit: Some(3),
        };
        let merged = merge_results(&spec, vec![a, b]).unwrap();
        let ids: Vec<&Value> = merged.rows.iter().map(|r| &r[0]).collect();
        assert_eq!(ids, [&Value::Int(1), &Value::Int(2), &Value::Int(3)]);
        assert!(merge_results(&spec, vec![]).is_err());
    }
}
