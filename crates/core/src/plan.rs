//! The global query plan and the statement registry.
//!
//! A [`GlobalPlan`] is a DAG of always-on shared operators (Figure 2 and
//! Figure 6 of the paper). Query *types* ([`StatementSpec`], e.g. JDBC
//! prepared statements) are registered against the plan: each statement
//! describes an acyclic path through the data-flow network (Section 4.1) by
//! listing, for every operator it touches, how to *activate* that operator for
//! one concrete execution (predicates, probe keys, limits, ...).
//!
//! The plan is static: it is compiled once for the whole workload and reused
//! for the lifetime of the engine. Per-query variation only enters through
//! activation parameters — this is what makes the computation shareable.

use shareddb_common::agg::AggregateFunction;
use shareddb_common::{Error, Expr, Result, Schema, SortKey};
use shareddb_storage::Catalog;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of an operator node within a [`GlobalPlan`].
pub type OperatorId = usize;

/// One aggregate computed by a shared group-by operator.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateSpec {
    /// The aggregate function.
    pub function: AggregateFunction,
    /// Input column (index into the operator's input schema). For `COUNT(*)`
    /// any column may be used together with [`AggregateFunction::Count`].
    pub column: usize,
    /// Name of the output column.
    pub output_name: String,
}

/// The kind of a shared operator node.
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorSpec {
    /// Shared table scan (ClockScan) over a base table. Activated with a
    /// per-query selection predicate.
    TableScan {
        /// Base table name.
        table: String,
    },
    /// Shared index probe over a base table. Activated with a per-query key
    /// or key range.
    IndexProbe {
        /// Base table name.
        table: String,
    },
    /// Shared filter: evaluates each activated query's residual predicate
    /// once per candidate tuple (the "Like Expression" / "Disjunction" boxes
    /// of Figure 6).
    Filter,
    /// Shared hash join between input 0 (build side) and input 1 (probe side).
    /// The effective join predicate is `build_key = probe_key AND
    /// build.query_id ∩ probe.query_id ≠ ∅` (Section 3.3).
    HashJoin {
        /// Join column in the build input's schema.
        build_key: usize,
        /// Join column in the probe input's schema.
        probe_key: usize,
    },
    /// Shared nested-loop join (cross product) between input 0 and input 1.
    /// There is no key predicate: every pair of tuples whose query sets
    /// intersect combines. Residual equality predicates (cycle-closing join
    /// edges) are applied by a shared filter above. Execution is a batched
    /// block-nested loop, so the quadratic pass is amortised across all
    /// statements of the batch (the inner block is scanned once per outer
    /// block, not once per outer tuple).
    NestedLoopJoin,
    /// Shared index nested-loops join: for every tuple of input 0 (outer), the
    /// inner base table is probed through its index on `inner_column`.
    IndexNlJoin {
        /// Inner base table name.
        table: String,
        /// Join column in the outer input's schema.
        outer_key: usize,
        /// Indexed column of the inner table.
        inner_column: usize,
    },
    /// Shared sort (Figure 4): one sort over the union of the tuples its
    /// queries keep — all of them, unless a demand tells of a `LIMIT`.
    Sort {
        /// Sort keys over the input schema.
        keys: Vec<SortKey>,
    },
    /// Shared Top-N: a per-query selection of `limit` rows, then one shared
    /// sort of what was kept.
    TopN {
        /// Sort keys over the input schema.
        keys: Vec<SortKey>,
    },
    /// Shared group-by: shared grouping phase, per-query aggregation and
    /// HAVING phase (Section 3.4).
    GroupBy {
        /// Grouping columns (indices into the input schema).
        group_columns: Vec<usize>,
        /// Aggregates to compute per group and query.
        aggregates: Vec<AggregateSpec>,
    },
    /// Shared duplicate elimination over the full input tuple.
    Distinct,
}

impl OperatorSpec {
    /// Short name used in plan rendering and statistics.
    pub fn label(&self) -> String {
        match self {
            OperatorSpec::TableScan { table } => format!("Scan({table})"),
            OperatorSpec::IndexProbe { table } => format!("Probe({table})"),
            OperatorSpec::Filter => "Filter".to_string(),
            OperatorSpec::HashJoin { .. } => "HashJoin".to_string(),
            OperatorSpec::NestedLoopJoin => "NestedLoopJoin".to_string(),
            OperatorSpec::IndexNlJoin { table, .. } => format!("IndexNlJoin({table})"),
            OperatorSpec::Sort { .. } => "Sort".to_string(),
            OperatorSpec::TopN { .. } => "TopN".to_string(),
            OperatorSpec::GroupBy { .. } => "GroupBy".to_string(),
            OperatorSpec::Distinct => "Distinct".to_string(),
        }
    }

    /// The base table accessed by storage operators.
    pub fn storage_table(&self) -> Option<&str> {
        match self {
            OperatorSpec::TableScan { table } | OperatorSpec::IndexProbe { table } => {
                Some(table.as_str())
            }
            OperatorSpec::IndexNlJoin { table, .. } => Some(table.as_str()),
            _ => None,
        }
    }
}

/// One node of the global plan.
#[derive(Debug, Clone)]
pub struct OperatorNode {
    /// Node id (index into [`GlobalPlan::nodes`]).
    pub id: OperatorId,
    /// What the operator does.
    pub spec: OperatorSpec,
    /// Ids of the input operators (child nodes), in positional order.
    pub inputs: Vec<OperatorId>,
    /// Output schema of the operator.
    pub schema: Schema,
    /// Human-readable name (defaults to the spec label).
    pub name: String,
}

/// The always-on global plan: a DAG of shared operators.
#[derive(Debug, Clone, Default)]
pub struct GlobalPlan {
    nodes: Vec<OperatorNode>,
}

impl GlobalPlan {
    /// The nodes of the plan in id order.
    pub fn nodes(&self) -> &[OperatorNode] {
        &self.nodes
    }

    /// Returns one node.
    pub fn node(&self, id: OperatorId) -> &OperatorNode {
        &self.nodes[id]
    }

    /// Number of operators.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the plan has no operators.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of the operators that consume the output of `id`.
    pub fn parents(&self, id: OperatorId) -> Vec<OperatorId> {
        self.nodes
            .iter()
            .filter(|n| n.inputs.contains(&id))
            .map(|n| n.id)
            .collect()
    }

    /// The hash join the group-by node `id` runs inside its own cycle, a
    /// group-join ([`crate::operators::execute_group_join`]): its only input,
    /// when that is a hash join feeding nothing else and every grouping
    /// column lies on the join's build side.
    pub fn group_join_of(&self, id: OperatorId) -> Option<OperatorId> {
        let node = &self.nodes[id];
        let (OperatorSpec::GroupBy { group_columns, .. }, &[join]) =
            (&node.spec, node.inputs.as_slice())
        else {
            return None;
        };
        let join_node = &self.nodes[join];
        let OperatorSpec::HashJoin { .. } = join_node.spec else {
            return None;
        };
        let build_width = self.nodes[join_node.inputs[0]].schema.len();
        let by_build_side = group_columns.iter().all(|&c| c < build_width);
        let feeds_only_it = self.parents(join) == [id];
        (by_build_side && feeds_only_it).then_some(join)
    }

    /// Renders the plan as an indented tree rooted at each sink (an operator
    /// nobody consumes), for logging.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let consumed: Vec<bool> = {
            let mut c = vec![false; self.nodes.len()];
            for n in &self.nodes {
                for &i in &n.inputs {
                    c[i] = true;
                }
            }
            c
        };
        for node in &self.nodes {
            if !consumed[node.id] {
                self.render_node(node.id, 0, &mut out);
            }
        }
        out
    }

    fn render_node(&self, id: OperatorId, depth: usize, out: &mut String) {
        let node = &self.nodes[id];
        out.push_str(&"  ".repeat(depth));
        out.push_str(&format!("[{}] {}\n", node.id, node.name));
        for &input in &node.inputs {
            self.render_node(input, depth + 1, out);
        }
    }

    /// Counts operators per kind label (used by tests and `plan_dump`).
    pub fn operator_census(&self) -> HashMap<String, usize> {
        let mut census = HashMap::new();
        for n in &self.nodes {
            *census.entry(n.spec.label()).or_insert(0) += 1;
        }
        census
    }
}

/// Builder for [`GlobalPlan`]s. Nodes must be added bottom-up: an operator can
/// only reference inputs that already exist, which guarantees acyclicity.
pub struct PlanBuilder<'a> {
    catalog: &'a Catalog,
    nodes: Vec<OperatorNode>,
}

impl<'a> PlanBuilder<'a> {
    /// Starts building a plan against a catalog (used to resolve table
    /// schemas).
    pub fn new(catalog: &'a Catalog) -> Self {
        PlanBuilder {
            catalog,
            nodes: Vec::new(),
        }
    }

    fn push(&mut self, spec: OperatorSpec, inputs: Vec<OperatorId>, schema: Schema) -> OperatorId {
        let id = self.nodes.len();
        let name = format!("{}#{id}", spec.label());
        self.nodes.push(OperatorNode {
            id,
            spec,
            inputs,
            schema,
            name,
        });
        id
    }

    fn input_schema(&self, id: OperatorId) -> Result<Schema> {
        self.nodes
            .get(id)
            .map(|n| n.schema.clone())
            .ok_or_else(|| Error::Internal(format!("unknown plan input {id}")))
    }

    fn table_schema(&self, table: &str) -> Result<Schema> {
        Ok(self.catalog.table(table)?.read().schema().clone())
    }

    /// Adds a shared table scan (ClockScan).
    pub fn table_scan(&mut self, table: &str) -> Result<OperatorId> {
        let schema = self.table_schema(table)?;
        Ok(self.push(
            OperatorSpec::TableScan {
                table: table.to_ascii_uppercase(),
            },
            vec![],
            schema,
        ))
    }

    /// Adds a shared index probe.
    pub fn index_probe(&mut self, table: &str) -> Result<OperatorId> {
        let schema = self.table_schema(table)?;
        Ok(self.push(
            OperatorSpec::IndexProbe {
                table: table.to_ascii_uppercase(),
            },
            vec![],
            schema,
        ))
    }

    /// Adds a shared filter over `input`.
    pub fn filter(&mut self, input: OperatorId) -> Result<OperatorId> {
        let schema = self.input_schema(input)?;
        Ok(self.push(OperatorSpec::Filter, vec![input], schema))
    }

    /// Adds a shared hash join; `build_key` / `probe_key` are column paths
    /// (e.g. `"ORDERS.O_ITEM_ID"`) resolved against the respective inputs.
    pub fn hash_join(
        &mut self,
        build: OperatorId,
        probe: OperatorId,
        build_key: &str,
        probe_key: &str,
    ) -> Result<OperatorId> {
        let build_schema = self.input_schema(build)?;
        let probe_schema = self.input_schema(probe)?;
        let build_col = build_schema.resolve_path(build_key)?;
        let probe_col = probe_schema.resolve_path(probe_key)?;
        let schema = build_schema.join(&probe_schema);
        Ok(self.push(
            OperatorSpec::HashJoin {
                build_key: build_col,
                probe_key: probe_col,
            },
            vec![build, probe],
            schema,
        ))
    }

    /// Adds a shared nested-loop join (cross product) of two inputs. The
    /// output schema is the concatenation `build × probe`.
    pub fn nested_loop_join(&mut self, build: OperatorId, probe: OperatorId) -> Result<OperatorId> {
        let build_schema = self.input_schema(build)?;
        let probe_schema = self.input_schema(probe)?;
        let schema = build_schema.join(&probe_schema);
        Ok(self.push(OperatorSpec::NestedLoopJoin, vec![build, probe], schema))
    }

    /// Adds a shared index nested-loops join probing `table` on
    /// `inner_column` with the outer tuple's `outer_key`.
    pub fn index_nl_join(
        &mut self,
        outer: OperatorId,
        table: &str,
        outer_key: &str,
        inner_column: &str,
    ) -> Result<OperatorId> {
        let outer_schema = self.input_schema(outer)?;
        let inner_schema = self.table_schema(table)?;
        let outer_col = outer_schema.resolve_path(outer_key)?;
        let inner_col = inner_schema.resolve_path(inner_column)?;
        let schema = outer_schema.join(&inner_schema);
        Ok(self.push(
            OperatorSpec::IndexNlJoin {
                table: table.to_ascii_uppercase(),
                outer_key: outer_col,
                inner_column: inner_col,
            },
            vec![outer],
            schema,
        ))
    }

    /// Adds a shared sort.
    pub fn sort(&mut self, input: OperatorId, keys: Vec<SortKey>) -> Result<OperatorId> {
        let schema = self.input_schema(input)?;
        Ok(self.push(OperatorSpec::Sort { keys }, vec![input], schema))
    }

    /// Adds a shared Top-N (sorted per `keys`, per-query limit set at
    /// activation time).
    pub fn top_n(&mut self, input: OperatorId, keys: Vec<SortKey>) -> Result<OperatorId> {
        let schema = self.input_schema(input)?;
        Ok(self.push(OperatorSpec::TopN { keys }, vec![input], schema))
    }

    /// Adds a shared group-by. The output schema is the grouping columns
    /// followed by one column per aggregate.
    pub fn group_by(
        &mut self,
        input: OperatorId,
        group_columns: Vec<&str>,
        aggregates: Vec<(AggregateFunction, &str, &str)>,
    ) -> Result<OperatorId> {
        let input_schema = self.input_schema(input)?;
        let group_cols: Vec<usize> = group_columns
            .iter()
            .map(|c| input_schema.resolve_path(c))
            .collect::<Result<_>>()?;
        let agg_specs: Vec<AggregateSpec> = aggregates
            .iter()
            .map(|(f, col, name)| {
                Ok(AggregateSpec {
                    function: *f,
                    column: input_schema.resolve_path(col)?,
                    output_name: name.to_string(),
                })
            })
            .collect::<Result<_>>()?;
        let mut columns: Vec<shareddb_common::Column> = group_cols
            .iter()
            .map(|&c| input_schema.column(c).clone())
            .collect();
        for agg in &agg_specs {
            let input_col = input_schema.column(agg.column);
            let data_type = match agg.function {
                AggregateFunction::Count => shareddb_common::DataType::Int,
                AggregateFunction::Avg => shareddb_common::DataType::Float,
                _ => input_col.data_type,
            };
            columns.push(shareddb_common::Column::nullable(
                agg.output_name.clone(),
                data_type,
            ));
        }
        let schema = Schema::new(columns);
        Ok(self.push(
            OperatorSpec::GroupBy {
                group_columns: group_cols,
                aggregates: agg_specs,
            },
            vec![input],
            schema,
        ))
    }

    /// Adds a shared duplicate-elimination operator.
    pub fn distinct(&mut self, input: OperatorId) -> Result<OperatorId> {
        let schema = self.input_schema(input)?;
        Ok(self.push(OperatorSpec::Distinct, vec![input], schema))
    }

    /// Finishes the plan.
    pub fn build(self) -> GlobalPlan {
        GlobalPlan { nodes: self.nodes }
    }
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

/// How one statement activates one operator node per execution. Parameters
/// (`Expr::Param`) are bound with the statement's parameter vector when a
/// query is admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum ActivationTemplate {
    /// Selection predicate pushed into a shared scan.
    Scan {
        /// Predicate template (may contain parameters).
        predicate: Expr,
    },
    /// Key look-up pushed into a shared index probe.
    Probe {
        /// Probed column (index into the table schema).
        column: usize,
        /// Key expression (parameter or literal).
        key: Expr,
        /// Residual predicate evaluated on fetched rows.
        residual: Option<Expr>,
    },
    /// Residual predicate evaluated by a shared filter operator.
    Filter {
        /// Predicate template.
        predicate: Expr,
    },
    /// The query participates in the operator without per-query configuration
    /// (joins, sorts, distinct).
    Participate,
    /// Per-query row limit of a shared Top-N operator.
    TopN {
        /// Maximum number of rows for this query.
        limit: usize,
    },
    /// Per-query HAVING predicate of a shared group-by (over the operator's
    /// output schema). `None` keeps all groups.
    Having {
        /// Optional predicate template.
        predicate: Option<Expr>,
    },
    /// `base`, of whose output rows the statement needs only its first
    /// `limit` under `(keys, arrival position)`: the operator may emit any
    /// sub-sequence of what it would emit for `base` that contains them.
    /// Never registered by hand — [`crate::demand::push_down`] derives it
    /// from the node that cuts the statement's rows.
    Demand {
        /// The activation the operator would have without the demand.
        base: Box<ActivationTemplate>,
        /// Sort keys over the operator's output schema.
        keys: Arc<[SortKey]>,
        /// Rows the statement keeps.
        limit: usize,
        /// The Top-N that cuts to `limit`.
        consumer: OperatorId,
    },
}

impl ActivationTemplate {
    /// The template without a row demand it may carry.
    pub fn base(&self) -> &ActivationTemplate {
        match self {
            ActivationTemplate::Demand { base, .. } => base,
            plain => plain,
        }
    }
}

/// One computed output column of a query statement: a scalar expression
/// evaluated over the root operator's output rows when results are routed
/// back to the client (`SELECT a + b, price * qty FROM ...`). Expressions are
/// resolved (only [`Expr::Column`] references) and may contain parameters,
/// which are bound per execution like activation templates.
#[derive(Debug, Clone, PartialEq)]
pub struct ComputedColumn {
    /// Output column name (e.g. the rendered expression text).
    pub name: String,
    /// Output column type (best-effort static inference).
    pub data_type: shareddb_common::DataType,
    /// The expression over the root schema.
    pub expr: Expr,
}

/// Whether a statement reads or writes.
#[derive(Debug, Clone, PartialEq)]
pub enum StatementKind {
    /// A query: activates operators and returns tuples from `root`.
    Query {
        /// Operator whose output is this statement's result.
        root: OperatorId,
        /// Output projection (indices into the root schema; empty = all).
        projection: Vec<usize>,
        /// Computed output columns. When non-empty this replaces `projection`:
        /// each result row is the evaluation of these expressions over the
        /// root row.
        compute: Vec<ComputedColumn>,
        /// Optional row limit applied when routing results.
        limit: Option<usize>,
        /// Re-deduplicate the *projected* output rows when routing results
        /// (SELECT DISTINCT). The shared Distinct operator eliminates
        /// duplicates over the full root tuple; a narrowing projection can
        /// reintroduce them, so distinct statements dedup again after
        /// projecting — and before the limit.
        distinct: bool,
    },
    /// An update: applied by the storage operator owning `table`.
    Update {
        /// Target table.
        table: String,
        /// Update template; assignment expressions and the predicate may
        /// contain parameters.
        template: UpdateTemplate,
    },
}

/// Parameterised update statement.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateTemplate {
    /// INSERT with one expression per column.
    Insert {
        /// Value expressions (parameters or literals), one per column.
        values: Vec<Expr>,
    },
    /// UPDATE ... SET ... WHERE ...
    Update {
        /// `(column, value expression)` assignments.
        assignments: Vec<(usize, Expr)>,
        /// Row filter.
        predicate: Expr,
    },
    /// DELETE ... WHERE ...
    Delete {
        /// Row filter.
        predicate: Expr,
    },
}

/// A registered statement (query type).
#[derive(Debug, Clone)]
pub struct StatementSpec {
    /// Statement name (e.g. `"getBestSellers"`).
    pub name: String,
    /// Read or write behaviour.
    pub kind: StatementKind,
    /// Per-operator activation templates (queries only).
    pub activations: Vec<(OperatorId, ActivationTemplate)>,
}

impl StatementSpec {
    /// Creates a query statement.
    pub fn query(name: impl Into<String>, root: OperatorId) -> Self {
        StatementSpec {
            name: name.into(),
            kind: StatementKind::Query {
                root,
                projection: Vec::new(),
                compute: Vec::new(),
                limit: None,
                distinct: false,
            },
            activations: Vec::new(),
        }
    }

    /// Creates an update statement.
    pub fn update(
        name: impl Into<String>,
        table: impl Into<String>,
        template: UpdateTemplate,
    ) -> Self {
        StatementSpec {
            name: name.into(),
            kind: StatementKind::Update {
                table: table.into().to_ascii_uppercase(),
                template,
            },
            activations: Vec::new(),
        }
    }

    /// Adds an activation template for one operator.
    pub fn activate(mut self, operator: OperatorId, template: ActivationTemplate) -> Self {
        self.activations.push((operator, template));
        self
    }

    /// Sets the output projection (queries only).
    pub fn project(mut self, columns: Vec<usize>) -> Self {
        if let StatementKind::Query { projection, .. } = &mut self.kind {
            *projection = columns;
        }
        self
    }

    /// Sets computed output columns (queries only); replaces the plain
    /// projection.
    pub fn compute(mut self, columns: Vec<ComputedColumn>) -> Self {
        if let StatementKind::Query { compute, .. } = &mut self.kind {
            *compute = columns;
        }
        self
    }

    /// Sets the output row limit (queries only).
    pub fn limit(mut self, n: usize) -> Self {
        if let StatementKind::Query { limit, .. } = &mut self.kind {
            *limit = Some(n);
        }
        self
    }

    /// Marks the output as SELECT DISTINCT: the projected result rows are
    /// re-deduplicated when routed (queries only).
    pub fn distinct(mut self) -> Self {
        if let StatementKind::Query { distinct, .. } = &mut self.kind {
            *distinct = true;
        }
        self
    }

    /// True for update statements.
    pub fn is_update(&self) -> bool {
        matches!(self.kind, StatementKind::Update { .. })
    }

    /// The result root operator for query statements.
    pub fn root(&self) -> Option<OperatorId> {
        match &self.kind {
            StatementKind::Query { root, .. } => Some(*root),
            StatementKind::Update { .. } => None,
        }
    }
}

/// The set of statements registered against a global plan.
#[derive(Debug, Clone, Default)]
pub struct StatementRegistry {
    statements: Vec<StatementSpec>,
    by_name: HashMap<String, usize>,
}

impl StatementRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a statement, returning its index.
    pub fn register(&mut self, spec: StatementSpec) -> Result<usize> {
        if self.by_name.contains_key(&spec.name) {
            return Err(Error::ConstraintViolation(format!(
                "statement {} already registered",
                spec.name
            )));
        }
        let idx = self.statements.len();
        self.by_name.insert(spec.name.clone(), idx);
        self.statements.push(spec);
        Ok(idx)
    }

    /// Looks up a statement by name.
    pub fn get(&self, name: &str) -> Result<(usize, &StatementSpec)> {
        self.by_name
            .get(name)
            .map(|&i| (i, &self.statements[i]))
            .ok_or_else(|| Error::UnknownStatement(name.to_string()))
    }

    /// Returns a statement by index.
    pub fn by_index(&self, idx: usize) -> &StatementSpec {
        &self.statements[idx]
    }

    /// Number of registered statements.
    pub fn len(&self) -> usize {
        self.statements.len()
    }

    /// True when no statement is registered.
    pub fn is_empty(&self) -> bool {
        self.statements.is_empty()
    }

    /// Iterates over all statements.
    pub fn iter(&self) -> impl Iterator<Item = &StatementSpec> {
        self.statements.iter()
    }

    /// The statements, for [`crate::demand::push_down`] to rewrite their
    /// activation templates in place (names and indices stay).
    pub(crate) fn statements_mut(&mut self) -> &mut [StatementSpec] {
        &mut self.statements
    }

    /// Checks that every statement references existing operators and that
    /// activation templates are compatible with the operator kinds.
    pub fn validate(&self, plan: &GlobalPlan) -> Result<()> {
        for spec in &self.statements {
            if let Some(root) = spec.root() {
                if root >= plan.len() {
                    return Err(Error::Internal(format!(
                        "statement {} roots at unknown operator {root}",
                        spec.name
                    )));
                }
                if let StatementKind::Query { compute, .. } = &spec.kind {
                    let width = plan.node(root).schema.len();
                    for column in compute {
                        for idx in column.expr.referenced_columns() {
                            if idx >= width {
                                return Err(Error::Internal(format!(
                                    "statement {} computes {} over unknown root column {idx}",
                                    spec.name, column.name
                                )));
                            }
                        }
                    }
                }
            }
            for (op, template) in &spec.activations {
                if *op >= plan.len() {
                    return Err(Error::Internal(format!(
                        "statement {} activates unknown operator {op}",
                        spec.name
                    )));
                }
                let node = plan.node(*op);
                let compatible = matches!(
                    (&node.spec, template.base()),
                    (
                        OperatorSpec::TableScan { .. },
                        ActivationTemplate::Scan { .. }
                    ) | (
                        OperatorSpec::IndexProbe { .. },
                        ActivationTemplate::Probe { .. }
                    ) | (OperatorSpec::Filter, ActivationTemplate::Filter { .. })
                        | (OperatorSpec::TopN { .. }, ActivationTemplate::TopN { .. })
                        | (
                            OperatorSpec::GroupBy { .. },
                            ActivationTemplate::Having { .. }
                        )
                        | (_, ActivationTemplate::Participate)
                );
                // Only these read a demand; elsewhere it would hide `base`.
                let demand_read = matches!(
                    node.spec,
                    OperatorSpec::IndexNlJoin { .. } | OperatorSpec::GroupBy { .. }
                );
                let demanded = matches!(template, ActivationTemplate::Demand { .. });
                if !compatible || (demanded && !demand_read) {
                    return Err(Error::Internal(format!(
                        "statement {} has an incompatible activation for operator {} ({})",
                        spec.name,
                        op,
                        node.spec.label()
                    )));
                }
            }
        }
        Ok(())
    }
}

impl fmt::Display for GlobalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_common::DataType;
    use shareddb_storage::TableDef;

    fn catalog() -> Catalog {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("USERS")
                    .column("USER_ID", DataType::Int)
                    .column("COUNTRY", DataType::Text)
                    .column("ACCOUNT", DataType::Float)
                    .primary_key(&["USER_ID"]),
            )
            .unwrap();
        catalog
            .create_table(
                TableDef::new("ORDERS")
                    .column("ORDER_ID", DataType::Int)
                    .column("USER_ID", DataType::Int)
                    .column("STATUS", DataType::Text)
                    .primary_key(&["ORDER_ID"]),
            )
            .unwrap();
        catalog
    }

    #[test]
    fn build_figure_2_style_plan() {
        let catalog = catalog();
        let mut b = PlanBuilder::new(&catalog);
        let users = b.table_scan("USERS").unwrap();
        let orders = b.table_scan("ORDERS").unwrap();
        let join = b
            .hash_join(users, orders, "USERS.USER_ID", "ORDERS.USER_ID")
            .unwrap();
        let gamma = b
            .group_by(
                users,
                vec!["USERS.COUNTRY"],
                vec![(AggregateFunction::Sum, "USERS.USER_ID", "SUM_USER_ID")],
            )
            .unwrap();
        let sort = b.sort(join, vec![SortKey::asc(0)]).unwrap();
        let plan = b.build();
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.node(users).spec.storage_table(), Some("USERS"));
        assert_eq!(plan.node(join).inputs, vec![users, orders]);
        assert_eq!(plan.node(join).schema.len(), 6);
        assert_eq!(plan.node(gamma).schema.len(), 2);
        assert_eq!(plan.node(sort).schema.len(), 6);
        // The scan feeds two parents: the join and the group-by.
        assert_eq!(plan.parents(users), vec![join, gamma]);
        let rendering = plan.render();
        assert!(rendering.contains("HashJoin"));
        assert!(rendering.contains("Scan(USERS)"));
    }

    #[test]
    fn join_key_resolution_errors() {
        let catalog = catalog();
        let mut b = PlanBuilder::new(&catalog);
        let users = b.table_scan("USERS").unwrap();
        let orders = b.table_scan("ORDERS").unwrap();
        assert!(b
            .hash_join(users, orders, "USERS.MISSING", "ORDERS.USER_ID")
            .is_err());
        assert!(b.table_scan("NO_SUCH_TABLE").is_err());
    }

    #[test]
    fn statement_registry_and_validation() {
        let catalog = catalog();
        let mut b = PlanBuilder::new(&catalog);
        let users = b.table_scan("USERS").unwrap();
        let top = b.top_n(users, vec![SortKey::desc(2)]).unwrap();
        let plan = b.build();

        let mut registry = StatementRegistry::new();
        let spec = StatementSpec::query("richestUsers", top)
            .activate(
                users,
                ActivationTemplate::Scan {
                    predicate: Expr::col(2).gt(Expr::param(0)),
                },
            )
            .activate(top, ActivationTemplate::TopN { limit: 10 })
            .project(vec![0, 2]);
        registry.register(spec).unwrap();
        assert!(registry.validate(&plan).is_ok());
        assert_eq!(registry.get("richestUsers").unwrap().0, 0);
        assert!(registry.get("missing").is_err());
        // Duplicate registration is rejected.
        assert!(registry
            .register(StatementSpec::query("richestUsers", top))
            .is_err());

        // Incompatible activation: TopN template on a scan operator.
        let mut bad_registry = StatementRegistry::new();
        bad_registry
            .register(
                StatementSpec::query("bad", top)
                    .activate(users, ActivationTemplate::TopN { limit: 3 }),
            )
            .unwrap();
        assert!(bad_registry.validate(&plan).is_err());
    }

    #[test]
    fn update_statement_spec() {
        let spec = StatementSpec::update(
            "addUser",
            "users",
            UpdateTemplate::Insert {
                values: vec![Expr::param(0), Expr::param(1), Expr::lit(0.0f64)],
            },
        );
        assert!(spec.is_update());
        assert_eq!(spec.root(), None);
        if let StatementKind::Update { table, .. } = &spec.kind {
            assert_eq!(table, "USERS");
        } else {
            panic!("expected update");
        }
    }

    #[test]
    fn census_counts_operator_kinds() {
        let catalog = catalog();
        let mut b = PlanBuilder::new(&catalog);
        let u = b.table_scan("USERS").unwrap();
        let o = b.table_scan("ORDERS").unwrap();
        b.hash_join(u, o, "USER_ID", "ORDERS.USER_ID").ok();
        let plan = b.build();
        let census = plan.operator_census();
        assert_eq!(census.get("Scan(USERS)"), Some(&1));
        assert_eq!(census.get("Scan(ORDERS)"), Some(&1));
    }
}
