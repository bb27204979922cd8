//! Γ(query_id): from the roots' shared outputs to each statement's outcome
//! on its way back.
//!
//! A root's output is exploded into per-query row lists in ONE pass, so
//! routing costs O(results), not O(results × queries). A query takes its
//! rows as they are and finishes them the way its statement asks (limit,
//! projection or computed columns, DISTINCT); the coordinator books the
//! outcome and hands it over.

use crate::batch::ActiveQuery;
use crate::engine::{EngineInner, QueryOutcome, ResultSet};
use crate::plan::ComputedColumn;
use shareddb_common::{
    hash_words, Column, QTuple, QueryId, Result, Schema, Tuple, Value, WordTable,
};

/// Γ routing table of a batch: root operator → the rows of each query that
/// reads it (`None`: no query of the batch does).
pub(crate) type RoutingTable = Vec<Option<QueryRows>>;

/// One root's output by query: each query's rows, in output order, under
/// its id — its place in the batch.
pub(crate) struct QueryRows(Vec<Vec<Tuple>>);

impl QueryRows {
    /// The Γ step over one root's output, for a batch of `queries` queries:
    /// the one place a query set is expanded back to its ids.
    pub(crate) fn explode(output: &[QTuple], queries: usize) -> Self {
        let mut rows = vec![Vec::new(); queries];
        for tuple in output {
            for query in tuple.queries.iter() {
                rows[query.raw() as usize].push(tuple.tuple.clone());
            }
        }
        QueryRows(rows)
    }

    /// Takes the rows of `query` out.
    pub(crate) fn take(&mut self, query: QueryId) -> Vec<Tuple> {
        std::mem::take(&mut self.0[query.raw() as usize])
    }
}

pub(crate) fn finalize_query_result(
    inner: &EngineInner,
    query: &ActiveQuery,
    mut rows: Vec<Tuple>,
) -> Result<QueryOutcome> {
    // DISTINCT statements dedup the *projected* rows, and their limit counts
    // deduplicated rows — so the truncate-early fast path only runs for
    // non-distinct statements.
    if !query.distinct {
        if let Some(limit) = query.limit {
            rows.truncate(limit);
        }
    }
    let root_schema = &inner.plan.node(query.root).schema;
    let (schema, rows) = if !query.compute.is_empty() {
        // Computed output columns (expression projections) replace the plain
        // index projection: each result row is the evaluation of the bound
        // expressions over the root row.
        let column = |c: &ComputedColumn| Column::nullable(c.name.clone(), c.data_type);
        let compute = |row: Tuple| {
            let values = query.compute.iter().map(|c| c.expr.eval(&row));
            Ok(Tuple::new(values.collect::<Result<Vec<Value>>>()?))
        };
        let rows = rows.into_iter().map(compute).collect::<Result<_>>()?;
        (
            Schema::new(query.compute.iter().map(column).collect()),
            rows,
        )
    } else if !query.projection.is_empty() {
        let project = |row: Tuple| row.project(&query.projection);
        let rows = rows.into_iter().map(project).collect();
        (root_schema.project(&query.projection), rows)
    } else {
        (root_schema.clone(), rows)
    };
    Ok(QueryOutcome::Rows(ResultSet {
        schema,
        rows: finish_output_rows(query, rows),
    }))
}

/// Applies the statement's post-projection DISTINCT (keeping the first
/// occurrence, which preserves any ORDER BY) and the deferred limit.
fn finish_output_rows(query: &ActiveQuery, mut rows: Vec<Tuple>) -> Vec<Tuple> {
    if query.distinct {
        let mut seen = WordTable::with_room(rows.len());
        let mut kept: Vec<Tuple> = Vec::with_capacity(rows.len());
        for row in rows {
            let fresh = kept.len() as u32;
            if *seen.entry(hash_words(&row), fresh, |at| kept[at as usize] == row) == fresh {
                kept.push(row);
            }
        }
        rows = kept;
        if let Some(limit) = query.limit {
            rows.truncate(limit);
        }
    }
    rows
}
