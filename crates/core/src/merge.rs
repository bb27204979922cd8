//! Recombination of partitioned partial results.
//!
//! An engine with `scan_segments > 1` runs an eligible statement once per
//! row segment of its shared scans (see [`crate::scatter`], the one consumer
//! of this module, through `routing::gather`). The segments' partial results
//! are merged here into one result that is equivalent to an unpartitioned
//! execution:
//!
//! * plain scans/filters concatenate,
//! * ordered results (shared sort / Top-N roots) merge by the root's sort
//!   keys (and re-apply the limit),
//! * aggregated results (shared group-by roots) re-combine partial groups
//!   (SUM of SUMs, SUM of COUNTs, MIN of MINs, MAX of MAXes; AVG ships as
//!   (sum, hidden count) partials and recombines exactly),
//! * DISTINCT roots re-deduplicate across partitions.

use crate::engine::ResultSet;
use shareddb_common::agg::AggregateFunction;
use shareddb_common::sort::compare_tuples;
use shareddb_common::{Error, Expr, Result, SortKey, Tuple, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

/// How the partial results of one scattered statement recombine.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeSpec {
    /// Unordered union of the partitions.
    Concat,
    /// Merge by the root operator's sort keys, then re-apply the limit.
    Ordered {
        /// Sort keys of the root operator.
        keys: Vec<SortKey>,
        /// Row limit (Top-N activation limit and/or statement LIMIT).
        limit: Option<usize>,
    },
    /// Re-aggregate partial groups: the first `group_width` columns are the
    /// grouping key, the remaining columns are partial aggregates combined
    /// per `functions`.
    Grouped {
        /// Number of grouping columns.
        group_width: usize,
        /// Aggregate function per aggregate column, in schema order.
        functions: Vec<AggregateFunction>,
        /// True when the partial rows ship AVG aggregates as mergeable
        /// partials (`ScatterSpec::partial_aggregation`): each AVG column
        /// carries the partial **sum** and one hidden count column per AVG is
        /// appended to the row, in aggregate order. The merge recombines
        /// sum/count, emits the exact average and drops the hidden columns.
        avg_partials: bool,
        /// HAVING predicate over the *recombined* group row (group columns
        /// followed by final aggregate values). A partition cannot filter its
        /// partial groups — another partition may complete them — so the
        /// group-by operators run in partial mode (HAVING deferred) and the
        /// predicate is applied here, once per merged group. The walker
        /// leaves it `None`; the engine fills in the query's bound predicate.
        having: Option<Expr>,
    },
    /// Union with duplicate elimination over the whole tuple.
    Distinct,
}

/// Merges the partial results of all partitions into one result set.
pub fn merge_results(spec: &MergeSpec, mut parts: Vec<ResultSet>) -> Result<ResultSet> {
    let Some(first) = parts.first() else {
        return Err(Error::Internal("merge of zero partial results".into()));
    };
    let schema = first.schema.clone();
    let mut rows: Vec<Tuple> = Vec::with_capacity(parts.iter().map(|p| p.rows.len()).sum());
    for part in &mut parts {
        rows.append(&mut part.rows);
    }
    let rows = match spec {
        MergeSpec::Concat => rows,
        MergeSpec::Ordered { keys, limit } => {
            // The partial results are each sorted already; a plain stable
            // sort over the concatenation keeps ties in partition order and
            // is O(n log n) with tiny constants at these sizes.
            let mut rows = rows;
            rows.sort_by(|a, b| compare_tuples(a, b, keys));
            if let Some(limit) = limit {
                rows.truncate(*limit);
            }
            rows
        }
        MergeSpec::Grouped {
            group_width,
            functions,
            avg_partials,
            having,
        } => merge_groups(
            rows,
            *group_width,
            functions,
            *avg_partials,
            having.as_ref(),
        )?,
        MergeSpec::Distinct => {
            let mut rows = rows;
            rows.sort_by(compare_all);
            rows.dedup();
            rows
        }
    };
    Ok(ResultSet { schema, rows })
}

fn compare_all(a: &Tuple, b: &Tuple) -> Ordering {
    for (va, vb) in a.iter().zip(b) {
        let ord = va.cmp(vb);
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

fn merge_groups(
    rows: Vec<Tuple>,
    group_width: usize,
    functions: &[AggregateFunction],
    avg_partials: bool,
    having: Option<&Expr>,
) -> Result<Vec<Tuple>> {
    // With AVG partials each row carries one hidden count column per AVG
    // aggregate after the regular aggregate columns.
    let avg_count = if avg_partials {
        functions
            .iter()
            .filter(|f| **f == AggregateFunction::Avg)
            .count()
    } else {
        0
    };
    let width = group_width + functions.len() + avg_count;
    let mut groups: HashMap<Vec<Value>, Vec<Value>> = HashMap::new();
    for row in rows {
        let values = row.values();
        if values.len() != width {
            return Err(Error::Internal(format!(
                "partial group row has {} columns, expected {width}",
                values.len(),
            )));
        }
        let key: Vec<Value> = values[..group_width].to_vec();
        match groups.entry(key) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(values[group_width..].to_vec());
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let acc = e.get_mut();
                for (i, function) in functions.iter().enumerate() {
                    // A shipped AVG partial is a plain sum: recombine it (and
                    // its hidden count) additively.
                    let effective = if avg_partials && *function == AggregateFunction::Avg {
                        AggregateFunction::Sum
                    } else {
                        *function
                    };
                    acc[i] = combine(effective, &acc[i], &values[group_width + i])?;
                }
                for i in functions.len()..functions.len() + avg_count {
                    acc[i] = combine(AggregateFunction::Count, &acc[i], &values[group_width + i])?;
                }
            }
        }
    }
    let mut rows: Vec<Tuple> = Vec::with_capacity(groups.len());
    for (mut key, mut aggs) in groups {
        if avg_count > 0 {
            finalize_avg_partials(&mut aggs, functions)?;
        }
        key.append(&mut aggs);
        let row = Tuple::new(key);
        // The deferred HAVING: evaluated over the recombined final row
        // (exactly what a single engine's group-by would have filtered on).
        if let Some(predicate) = having {
            if !predicate.eval_predicate(&row)? {
                continue;
            }
        }
        rows.push(row);
    }
    // Deterministic output order (single-engine group-by order is
    // hash-dependent anyway, so any stable order is fine).
    rows.sort_by(compare_all);
    Ok(rows)
}

/// Divides each recombined AVG sum by its recombined hidden count and drops
/// the hidden count columns.
fn finalize_avg_partials(aggs: &mut Vec<Value>, functions: &[AggregateFunction]) -> Result<()> {
    let mut count_idx = functions.len();
    for (i, function) in functions.iter().enumerate() {
        if *function != AggregateFunction::Avg {
            continue;
        }
        let count = match &aggs[count_idx] {
            Value::Int(n) => *n,
            _ => 0,
        };
        aggs[i] = if count > 0 && !aggs[i].is_null() {
            Value::Float(aggs[i].as_float()? / count as f64)
        } else {
            Value::Null
        };
        count_idx += 1;
    }
    aggs.truncate(functions.len());
    Ok(())
}

/// Combines two partial aggregate values of one group.
fn combine(function: AggregateFunction, a: &Value, b: &Value) -> Result<Value> {
    // A NULL partial aggregate means "no qualifying rows in this partition".
    if a.is_null() {
        return Ok(b.clone());
    }
    if b.is_null() {
        return Ok(a.clone());
    }
    Ok(match function {
        AggregateFunction::Sum | AggregateFunction::Count => add(a, b)?,
        AggregateFunction::Min => {
            if b.cmp(a) == Ordering::Less {
                b.clone()
            } else {
                a.clone()
            }
        }
        AggregateFunction::Max => {
            if b.cmp(a) == Ordering::Greater {
                b.clone()
            } else {
                a.clone()
            }
        }
        AggregateFunction::Avg => {
            return Err(Error::Internal(
                "AVG cannot be merged from partial averages".into(),
            ))
        }
    })
}

fn add(a: &Value, b: &Value) -> Result<Value> {
    Ok(match (a, b) {
        (Value::Int(x), Value::Int(y)) => Value::Int(x.wrapping_add(*y)),
        _ => Value::Float(a.as_float()? + b.as_float()?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::{tuple, DataType, Schema};

    fn result(rows: Vec<Tuple>) -> ResultSet {
        ResultSet {
            schema: Schema::new(vec![
                shareddb_common::Column::new("A", DataType::Int),
                shareddb_common::Column::new("B", DataType::Int),
            ]),
            rows,
        }
    }

    #[test]
    fn ordered_merge_respects_keys_and_limit() {
        let a = result(vec![tuple![1i64, 10i64], tuple![3i64, 30i64]]);
        let b = result(vec![tuple![2i64, 20i64], tuple![4i64, 40i64]]);
        let merged = merge_results(
            &MergeSpec::Ordered {
                keys: vec![SortKey::asc(0)],
                limit: Some(3),
            },
            vec![a, b],
        )
        .unwrap();
        let ids: Vec<i64> = merged
            .rows
            .iter()
            .map(|r| match r[0] {
                Value::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn grouped_merge_recombines_partials() {
        // Two partitions each holding partial (key, SUM, COUNT, MIN, MAX).
        let schema_row = |k: &str, s: i64, c: i64, lo: i64, hi: i64| tuple![k, s, c, lo, hi];
        let a = ResultSet {
            schema: Schema::new(vec![
                shareddb_common::Column::new("K", DataType::Text),
                shareddb_common::Column::new("S", DataType::Int),
                shareddb_common::Column::new("C", DataType::Int),
                shareddb_common::Column::new("LO", DataType::Int),
                shareddb_common::Column::new("HI", DataType::Int),
            ]),
            rows: vec![schema_row("x", 10, 2, 1, 9), schema_row("y", 5, 1, 5, 5)],
        };
        let mut b = a.clone();
        b.rows = vec![schema_row("x", 7, 3, 0, 4)];
        let merged = merge_results(
            &MergeSpec::Grouped {
                group_width: 1,
                functions: vec![
                    AggregateFunction::Sum,
                    AggregateFunction::Count,
                    AggregateFunction::Min,
                    AggregateFunction::Max,
                ],
                avg_partials: false,
                having: None,
            },
            vec![a, b],
        )
        .unwrap();
        assert_eq!(merged.rows.len(), 2);
        let x = merged
            .rows
            .iter()
            .find(|r| r[0] == Value::text("x"))
            .unwrap();
        assert_eq!(x[1], Value::Int(17));
        assert_eq!(x[2], Value::Int(5));
        assert_eq!(x[3], Value::Int(0));
        assert_eq!(x[4], Value::Int(9));
    }

    #[test]
    fn distinct_merge_deduplicates() {
        let a = result(vec![tuple![1i64, 1i64], tuple![2i64, 2i64]]);
        let b = result(vec![tuple![2i64, 2i64], tuple![3i64, 3i64]]);
        let merged = merge_results(&MergeSpec::Distinct, vec![a, b]).unwrap();
        assert_eq!(merged.rows.len(), 3);
    }

    /// AVG partials: partial rows ship (sum, hidden count); the merge divides
    /// the recombined sum by the recombined count and drops the hidden
    /// column, so the merged average is exact (not an average of averages).
    #[test]
    fn grouped_merge_recombines_avg_partials() {
        let schema = Schema::new(vec![
            shareddb_common::Column::new("K", DataType::Text),
            shareddb_common::Column::new("AVG_V", DataType::Float),
            shareddb_common::Column::new("CNT", DataType::Int),
        ]);
        // Partition A: key x has sum 30 over 3 rows; partition B: sum 10
        // over 1 row. Average of averages would be (10 + 10) / 2 = 10;
        // the exact merged average is 40 / 4 = 10 — pick asymmetric values
        // so a wrong merge shows: A sum 30/3, B sum 50/1.
        let a = ResultSet {
            schema: schema.clone(),
            rows: vec![tuple!["x", 30.0f64, 3i64], tuple!["y", 8.0f64, 2i64]],
        };
        let b = ResultSet {
            schema,
            rows: vec![tuple!["x", 50.0f64, 1i64]],
        };
        let merged = merge_results(
            &MergeSpec::Grouped {
                group_width: 1,
                functions: vec![AggregateFunction::Avg],
                avg_partials: true,
                having: None,
            },
            vec![a, b],
        )
        .unwrap();
        assert_eq!(merged.rows.len(), 2);
        let x = merged
            .rows
            .iter()
            .find(|r| r[0] == Value::text("x"))
            .unwrap();
        // Exact: (30 + 50) / (3 + 1) = 20. Average-of-averages would be 30.
        assert_eq!(x.values().len(), 2, "hidden count column leaked");
        assert_eq!(x[1], Value::Float(20.0));
        let y = merged
            .rows
            .iter()
            .find(|r| r[0] == Value::text("y"))
            .unwrap();
        assert_eq!(y[1], Value::Float(4.0));
    }

    /// The deferred HAVING runs over *recombined* groups: a group whose
    /// partial sums each miss the threshold still survives when the
    /// recombined total passes (filtering per partition would wrongly drop
    /// it), and a group whose total misses is dropped exactly once.
    #[test]
    fn grouped_merge_applies_having_after_recombination() {
        let schema = Schema::new(vec![
            shareddb_common::Column::new("K", DataType::Text),
            shareddb_common::Column::new("S", DataType::Int),
        ]);
        let part = |rows| ResultSet {
            schema: schema.clone(),
            rows,
        };
        // x: partials 60 + 60 = 120; y: 40 + 30 = 70. HAVING S > 100 keeps
        // only x — but every individual partial is below 100.
        let merged = merge_results(
            &MergeSpec::Grouped {
                group_width: 1,
                functions: vec![AggregateFunction::Sum],
                avg_partials: false,
                having: Some(Expr::col(1).gt(Expr::lit(100i64))),
            },
            vec![
                part(vec![tuple!["x", 60i64], tuple!["y", 40i64]]),
                part(vec![tuple!["x", 60i64], tuple!["y", 30i64]]),
            ],
        )
        .unwrap();
        assert_eq!(merged.rows.len(), 1);
        assert_eq!(merged.rows[0][0], Value::text("x"));
        assert_eq!(merged.rows[0][1], Value::Int(120));
    }

    /// Deferred HAVING over an AVG aggregate sees the *finalized* average
    /// (sum/count recombined and divided), not the shipped partial sum.
    #[test]
    fn grouped_merge_having_sees_final_avg() {
        let schema = Schema::new(vec![
            shareddb_common::Column::new("K", DataType::Text),
            shareddb_common::Column::new("AVG_V", DataType::Float),
            shareddb_common::Column::new("CNT", DataType::Int),
        ]);
        let part = |rows| ResultSet {
            schema: schema.clone(),
            rows,
        };
        // x: (30 + 50) / (3 + 1) = 20; y: (8) / (2) = 4. HAVING AVG > 10
        // must keep x and drop y; filtering on the raw partial sums (30, 50,
        // 8) would keep both.
        let merged = merge_results(
            &MergeSpec::Grouped {
                group_width: 1,
                functions: vec![AggregateFunction::Avg],
                avg_partials: true,
                having: Some(Expr::col(1).gt(Expr::lit(10.0f64))),
            },
            vec![
                part(vec![tuple!["x", 30.0f64, 3i64], tuple!["y", 8.0f64, 2i64]]),
                part(vec![tuple!["x", 50.0f64, 1i64]]),
            ],
        )
        .unwrap();
        assert_eq!(merged.rows.len(), 1);
        assert_eq!(merged.rows[0][0], Value::text("x"));
        assert_eq!(merged.rows[0][1], Value::Float(20.0));
    }

    /// An AVG group empty in every partition merges to NULL.
    #[test]
    fn avg_partials_all_null_merge_to_null() {
        let schema = Schema::new(vec![
            shareddb_common::Column::new("K", DataType::Text),
            shareddb_common::Column::new("AVG_V", DataType::Float),
            shareddb_common::Column::new("CNT", DataType::Int),
        ]);
        let part = |rows| ResultSet {
            schema: schema.clone(),
            rows,
        };
        let merged = merge_results(
            &MergeSpec::Grouped {
                group_width: 1,
                functions: vec![AggregateFunction::Avg],
                avg_partials: true,
                having: None,
            },
            vec![
                part(vec![tuple!["x", Value::Null, 0i64]]),
                part(vec![tuple!["x", Value::Null, 0i64]]),
            ],
        )
        .unwrap();
        assert_eq!(merged.rows[0][1], Value::Null);
    }

    #[test]
    fn avg_partials_cannot_merge() {
        assert!(combine(AggregateFunction::Avg, &Value::Int(1), &Value::Int(2)).is_err());
        // NULL partials pass through untouched for every function.
        assert_eq!(
            combine(AggregateFunction::Sum, &Value::Null, &Value::Int(2)).unwrap(),
            Value::Int(2)
        );
    }

    /// Hash-segmented lanes are rarely balanced: one segment may hold most
    /// of a group's rows, another may not see the group (or any row) at all.
    /// Merging such asymmetric partials must still be exact for AVG
    /// (sum/count recombination), DISTINCT (cross-segment dedup) and Top-N
    /// (ordered merge with limit).
    #[test]
    fn asymmetric_segment_partials_merge_exactly() {
        // AVG over 3 lopsided segments: (10+20+30+40)/4 from segment 0,
        // a single row from segment 1, nothing from segment 2.
        let avg_part = |rows: Vec<Tuple>| ResultSet {
            schema: Schema::new(vec![
                shareddb_common::Column::new("K", DataType::Text),
                shareddb_common::Column::new("AVG_V", DataType::Int),
            ]),
            rows,
        };
        let merged = merge_results(
            &MergeSpec::Grouped {
                group_width: 1,
                functions: vec![AggregateFunction::Avg],
                avg_partials: true,
                having: None,
            },
            vec![
                avg_part(vec![tuple!["x", 100i64, 4i64]]),
                avg_part(vec![tuple!["x", 8i64, 1i64], tuple!["y", 7i64, 1i64]]),
                avg_part(vec![]),
            ],
        )
        .unwrap();
        assert_eq!(merged.rows.len(), 2);
        let x = merged
            .rows
            .iter()
            .find(|r| r[0] == Value::text("x"))
            .unwrap();
        // (100 + 8) / (4 + 1); the hidden count column is dropped.
        assert_eq!(x.values().len(), 2);
        assert_eq!(x[1].as_float().unwrap(), 108.0 / 5.0);
        let y = merged
            .rows
            .iter()
            .find(|r| r[0] == Value::text("y"))
            .unwrap();
        assert_eq!(y[1].as_float().unwrap(), 7.0);

        // DISTINCT: duplicates within and across asymmetric segments
        // collapse; an empty segment contributes nothing.
        let merged = merge_results(
            &MergeSpec::Distinct,
            vec![
                result(vec![
                    tuple![1i64, 1i64],
                    tuple![1i64, 1i64],
                    tuple![2i64, 2i64],
                ]),
                result(vec![]),
                result(vec![tuple![2i64, 2i64], tuple![3i64, 3i64]]),
            ],
        )
        .unwrap();
        assert_eq!(merged.rows.len(), 3);

        // Top-N: one segment holds all the winners, the limit still binds.
        let merged = merge_results(
            &MergeSpec::Ordered {
                keys: vec![SortKey::desc(1)],
                limit: Some(2),
            },
            vec![
                result(vec![
                    tuple![1i64, 90i64],
                    tuple![2i64, 80i64],
                    tuple![3i64, 70i64],
                ]),
                result(vec![]),
                result(vec![tuple![4i64, 5i64]]),
            ],
        )
        .unwrap();
        assert_eq!(merged.rows.len(), 2);
        assert_eq!(merged.rows[0][1], Value::Int(90));
        assert_eq!(merged.rows[1][1], Value::Int(80));
    }
}
