//! SQL workload → executable global plan.
//!
//! This module completes the two-step compilation of Figure 3: step 1 is the
//! per-query optimisation of [`crate::logical::LogicalPlan`]; step 2 (here)
//! *merges* the logical plans of the whole workload into one executable
//! [`GlobalPlan`] with shared operators, and registers each statement's
//! activation path against the plan. Sharing follows Section 3.3, by one
//! rule that [`PlanBuilder`] keeps: an operator with the same configuration
//! over the same inputs is one shared node. Storage leaves are the exception:
//! one shared scan or index probe per base table *occurrence*, so self-joins
//! get distinct nodes. A statement's operators:
//!
//! * a table's **index probe** when the statement neither groups nor limits
//!   and its pushed-down predicate holds `column = ?` on the table's
//!   single-column primary key or a value index: the key is the probe's, the
//!   other conjuncts its residual; else its **scan** with the predicate,
//! * a **hash join** per equi-join edge between two pieces, the smaller node
//!   building, so the same inputs joined on the same keys share one join,
//! * an **index-NL join** for an equi-join edge to a table with no pushed-down
//!   predicate whose join column is its primary key or value-indexed: the
//!   table is looked up row by row and gets no scan (the key side of a
//!   key/foreign-key join),
//! * general join **graphs**: the equi-join edges are clustered into a
//!   spanning tree of joins; cycle-closing edges become residual equality
//!   filters over the join output, and FROM pieces with no join edge at all
//!   connect through a batched **nested-loop join** (cross product),
//! * a **filter**, **group-by**, **distinct** and **sort**. HAVING (and ORDER
//!   BY) may reference aggregate outputs; aggregates not in the SELECT list
//!   are computed as hidden columns of the group-by,
//! * ORDER BY with LIMIT: a **Top-N**, the limit the statement's activation —
//!   unless the statement de-duplicates again at result routing, where the
//!   limit has to follow that.
//!
//! The TPC-W statements (`tpcw::SQL`) compile into the paper's Figure 6 by
//! these rules.
//!
//! The module also provides [`canonicalize`] / [`SqlTemplate`]: token-level
//! auto-parameterisation that rewrites literals to `?` so that an ad-hoc SQL
//! string can be matched against the registered statement *types* of the
//! always-on plan (queries whose type is not part of the compiled plan are
//! rejected, exactly as in the paper's prepared-workload model).

use crate::ast::{SelectItem, SelectStatement, Statement, AGG_REF_QUALIFIER};
use crate::logical::{JoinEdge, LogicalPlan};
use crate::parser::parse;
use crate::token::{tokenize, Token};
use shareddb_common::agg::AggregateFunction;
use shareddb_common::{BinaryOp, Column, DataType, Error, Expr, Result, Schema, SortKey, Value};
use shareddb_core::plan::{
    ActivationTemplate, ComputedColumn, GlobalPlan, OperatorId, PlanBuilder, StatementRegistry,
    StatementSpec, UpdateTemplate,
};
use shareddb_storage::Catalog;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// One end of a join edge: (table alias, column).
type End<'e> = (&'e str, &'e str);

/// One connected piece of a statement's join graph during compilation.
struct Cluster {
    /// Current root operator of the piece.
    node: OperatorId,
    /// Alias-qualified schema used to resolve this statement's expressions.
    res: Schema,
    /// Base-qualified schema matching the shared node's real output schema
    /// (used to derive column paths for the plan builder).
    plan: Schema,
    /// Table aliases covered by the piece.
    aliases: Vec<String>,
    /// Join operators on the path so far (each needs a `Participate`).
    joins: Vec<OperatorId>,
}

impl Cluster {
    fn new(node: OperatorId, alias: &str, schema: Schema) -> Cluster {
        Cluster {
            node,
            res: schema.qualified(alias),
            plan: schema,
            aliases: vec![alias.to_string()],
            joins: Vec::new(),
        }
    }

    /// Takes `other` in under `join`, whose output is this piece's columns
    /// followed by `other`'s.
    fn merge(&mut self, other: Cluster, join: OperatorId) {
        self.res = self.res.join(&other.res);
        self.plan = self.plan.join(&other.plan);
        self.aliases.extend(other.aliases);
        self.joins.extend(other.joins);
        self.joins.push(join);
        self.node = join;
    }
}

/// Compiles a workload of named SQL statements into one shared global plan.
pub struct SqlCompiler<'a> {
    catalog: &'a Catalog,
    builder: PlanBuilder<'a>,
    /// (base table, occurrence within one statement) → shared scan node.
    scans: HashMap<(String, usize), OperatorId>,
    /// (base table, occurrence within one statement) → shared index probe.
    probes: HashMap<(String, usize), OperatorId>,
    registry: StatementRegistry,
}

impl<'a> SqlCompiler<'a> {
    /// Starts a compilation against `catalog`.
    pub fn new(catalog: &'a Catalog) -> Self {
        SqlCompiler {
            catalog,
            builder: PlanBuilder::new(catalog),
            scans: HashMap::new(),
            probes: HashMap::new(),
            registry: StatementRegistry::new(),
        }
    }

    /// Parses and adds one named statement to the workload.
    pub fn add_statement(&mut self, name: &str, sql: &str) -> Result<()> {
        let statement = parse(sql)?;
        let spec = match &statement {
            Statement::Select(select) => self.compile_select(name, select)?,
            Statement::Insert {
                table,
                columns,
                values,
            } => self.compile_insert(name, table, columns, values)?,
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => self.compile_update(name, table, assignments, where_clause.as_ref())?,
            Statement::Delete {
                table,
                where_clause,
            } => self.compile_delete(name, table, where_clause.as_ref())?,
        };
        self.registry.register(spec)?;
        Ok(())
    }

    /// Finishes the compilation, returning the shared plan and the registry.
    pub fn finish(self) -> (GlobalPlan, StatementRegistry) {
        (self.builder.build(), self.registry)
    }

    fn table_schema(&self, table: &str) -> Result<Schema> {
        Ok(self.catalog.table(table)?.read().schema().clone())
    }

    /// True when a look-up by `column` of `table` goes through an index:
    /// the column is the table's whole primary key or has a value index.
    fn indexed(&self, table: &str, column: &str) -> Result<bool> {
        let table = self.catalog.table(table)?;
        let table = table.read();
        let column = table.schema().resolve(None, column)?;
        Ok(table.primary_key() == [column] || table.has_index_on(column))
    }

    /// Reads one table of a statement: through the table's shared index
    /// probe when `may_probe` and a pushed-down conjunct is `column = ?` on an
    /// indexed column (the other conjuncts become the probe's residual),
    /// else through its shared scan with the whole pushed-down predicate.
    fn access(
        &mut self,
        lp: &LogicalPlan,
        (alias, base): (&str, &str),
        may_probe: bool,
        occurrence: &mut HashMap<(String, bool), usize>,
        activations: &mut Vec<(OperatorId, ActivationTemplate)>,
    ) -> Result<Cluster> {
        let schema = self.table_schema(base)?;
        let res = schema.qualified(alias);
        let mut conjuncts: Vec<Expr> = lp.table_predicates[alias]
            .iter()
            .map(|c| c.resolve(&res))
            .collect::<Result<_>>()?;
        let mut probe = None;
        if may_probe {
            for (i, conjunct) in conjuncts.iter().enumerate() {
                if let Some((column, value)) = key_equality(conjunct) {
                    if self.indexed(base, &schema.column(column).name)? {
                        probe = Some((i, column, value.clone()));
                        break;
                    }
                }
            }
        }
        let occ = occurrence
            .entry((base.to_string(), probe.is_some()))
            .or_insert(0);
        let key = (base.to_string(), *occ);
        *occ += 1;
        let (node, template) = match probe {
            Some((i, column, value)) => {
                conjuncts.remove(i);
                let node = shared(&mut self.probes, key, || self.builder.index_probe(base))?;
                let template = ActivationTemplate::Probe {
                    column,
                    key: value,
                    residual: (!conjuncts.is_empty()).then(|| Expr::conjunction(conjuncts)),
                };
                (node, template)
            }
            None => {
                let node = shared(&mut self.scans, key, || self.builder.table_scan(base))?;
                let predicate = lp.table_predicate(alias).resolve(&res)?;
                (node, ActivationTemplate::Scan { predicate })
            }
        };
        activations.push((node, template));
        Ok(Cluster::new(node, alias, schema))
    }

    /// Joins along one equi-join edge: two pieces through a shared hash join
    /// (one piece: a residual equality), a piece and a pending table through
    /// a shared index-NL join on the table's indexed column. False when the
    /// edge has to wait for a pending side to be read.
    fn join_edge(
        &mut self,
        lp: &LogicalPlan,
        edge: &JoinEdge,
        clusters: &mut Vec<Cluster>,
        pending: &mut Vec<&str>,
        residual_edges: &mut Vec<Expr>,
    ) -> Result<bool> {
        let left = (edge.left_table.as_str(), edge.left_column.as_str());
        let right = (edge.right_table.as_str(), edge.right_column.as_str());
        let piece = |(alias, _): End| {
            let mut pieces = clusters.iter();
            pieces.position(|c| c.aliases.iter().any(|a| a == alias))
        };
        let (mut build, mut probe) = match (piece(left), piece(right)) {
            (Some(li), Some(ri)) => ((left, li), (right, ri)),
            (Some(outer), None) => {
                return self.index_nl_join(lp, (left, outer), right, clusters, pending)
            }
            (None, Some(outer)) => {
                return self.index_nl_join(lp, (right, outer), left, clusters, pending)
            }
            (None, None) => return Ok(false),
        };
        if build.1 == probe.1 {
            let column = |(alias, name): End| Expr::NamedColumn {
                qualifier: Some(alias.to_string()),
                name: name.to_string(),
            };
            residual_edges.push(column(build.0).eq(column(probe.0)));
            return Ok(true);
        }
        // Canonical build/probe order (smaller node id builds) so that the
        // same pair of inputs shares one join regardless of alias order.
        if clusters[probe.1].node < clusters[build.1].node {
            std::mem::swap(&mut build, &mut probe);
        }
        let ((b, bi), (p, pi)) = (build, probe);
        let (b_node, p_node) = (clusters[bi].node, clusters[pi].node);
        let b_idx = clusters[bi].res.resolve(Some(b.0), b.1)?;
        let p_idx = clusters[pi].res.resolve(Some(p.0), p.1)?;
        let b_path = clusters[bi].plan.column(b_idx).qualified_name();
        let p_path = clusters[pi].plan.column(p_idx).qualified_name();
        let join_node = self.builder.hash_join(b_node, p_node, &b_path, &p_path)?;
        // Merge the probe cluster into the build cluster.
        let probe = clusters.remove(pi);
        let bi = if pi < bi { bi - 1 } else { bi };
        clusters[bi].merge(probe, join_node);
        Ok(true)
    }

    /// Joins the pending table at `inner` to the piece `outer` through a
    /// shared index-NL join, when the inner column is indexed.
    fn index_nl_join(
        &mut self,
        lp: &LogicalPlan,
        ((outer_alias, outer_col), outer): (End, usize),
        (inner_alias, inner_col): End,
        clusters: &mut [Cluster],
        pending: &mut Vec<&str>,
    ) -> Result<bool> {
        let table = &lp.tables[inner_alias];
        if !self.indexed(table, inner_col)? {
            return Ok(false);
        }
        let schema = self.table_schema(table)?;
        let outer_idx = clusters[outer].res.resolve(Some(outer_alias), outer_col)?;
        let outer_node = clusters[outer].node;
        let outer_path = clusters[outer].plan.column(outer_idx).qualified_name();
        let join_node = self
            .builder
            .index_nl_join(outer_node, table, &outer_path, inner_col)?;
        pending.retain(|a| *a != inner_alias);
        clusters[outer].merge(Cluster::new(join_node, inner_alias, schema), join_node);
        Ok(true)
    }

    fn compile_select(&mut self, name: &str, select: &SelectStatement) -> Result<StatementSpec> {
        let lp = LogicalPlan::from_select(select)?;
        let mut activations: Vec<(OperatorId, ActivationTemplate)> = Vec::new();
        let grouped = !lp.group_by.is_empty() || !lp.aggregates.is_empty();
        // A key look-up reads through the table's shared probe unless rows
        // are grouped or cut: those keep the table's shared scan.
        let may_probe = !grouped && lp.limit.is_none();

        // Tables no predicate narrows that an equi-join edge reaches through
        // their primary key or a value index are looked up by an index-NL
        // join over the other side and get no storage node of their own.
        let mut pending: Vec<&str> = Vec::new();
        for (alias, base) in &lp.tables {
            if !lp.table_predicates[alias].is_empty() {
                continue;
            }
            for column in lp.joins.iter().filter_map(|e| e.side(alias)) {
                if self.indexed(base, column)? {
                    pending.push(alias);
                    break;
                }
            }
        }

        // Every other table: one cluster each, read through the shared probe
        // or scan of its (base table, occurrence).
        let mut clusters: Vec<Cluster> = Vec::new();
        let mut occurrence: HashMap<(String, bool), usize> = HashMap::new();
        for (alias, base) in &lp.tables {
            if !pending.contains(&alias.as_str()) {
                let read = (alias.as_str(), base.as_str());
                clusters.push(self.access(
                    &lp,
                    read,
                    may_probe,
                    &mut occurrence,
                    &mut activations,
                )?);
            }
        }

        // Shared joins: merge clusters along the equi-join edges. The edges
        // form a general join *graph*; merging builds a spanning tree of
        // shared joins, and every cycle-closing edge (both endpoints
        // already in one cluster) is kept as a residual equality filter over
        // the join output — the Yannakakis-style treatment of cyclic queries:
        // join along a tree, check the remaining edges afterwards. An edge
        // to a pending table waits until the other side is read; when no
        // edge can go on (each waiting one has a pending end), the first
        // pending table is read by a scan.
        let mut residual_edges: Vec<Expr> = Vec::new();
        let mut edges: Vec<&JoinEdge> = lp.joins.iter().collect();
        while !edges.is_empty() {
            let before = edges.len();
            let mut waiting = Vec::new();
            for edge in edges {
                if !self.join_edge(&lp, edge, &mut clusters, &mut pending, &mut residual_edges)? {
                    waiting.push(edge);
                }
            }
            edges = waiting;
            if edges.len() == before {
                let alias = pending.remove(0);
                let read = (alias, lp.tables[alias].as_str());
                clusters.push(self.access(&lp, read, false, &mut occurrence, &mut activations)?);
            }
        }
        // Disconnected pieces (no equi-join edge between them) connect
        // through shared nested-loop joins: the cross product runs once per
        // batch for every statement that needs it (batched block-nested
        // loop). Combining always pairs the two clusters with the smallest
        // current root ids, so the same FROM list shares one operator chain
        // regardless of statement order.
        while clusters.len() > 1 {
            clusters.sort_by_key(|c| c.node);
            let probe = clusters.remove(1);
            let build = &mut clusters[0];
            let join_node = self.builder.nested_loop_join(build.node, probe.node)?;
            build.merge(probe, join_node);
        }
        let cluster = clusters.pop().expect("one cluster");
        for join in &cluster.joins {
            activations.push((*join, ActivationTemplate::Participate));
        }
        let mut root = cluster.node;
        let mut res_schema = cluster.res;
        let plan_schema = cluster.plan;

        // Residual predicates that could not be pushed down, plus the
        // cycle-closing join edges, → shared filter over the join output.
        let residuals: Vec<Expr> = lp.residual.iter().cloned().chain(residual_edges).collect();
        if !residuals.is_empty() {
            let node = self.builder.filter(root)?;
            let predicate = Expr::conjunction(residuals).resolve(&res_schema)?;
            activations.push((node, ActivationTemplate::Filter { predicate }));
            root = node;
        }

        // Aggregation → shared group-by.
        if !grouped && (lp.having.is_some() || !lp.agg_refs.is_empty()) {
            return Err(Error::Unsupported(
                "HAVING and aggregate references require GROUP BY or aggregates in the SELECT \
                 list"
                    .into(),
            ));
        }
        let mut group_width = 0;
        // Output column of the group-by for each aggregate placeholder of
        // HAVING / ORDER BY, in placeholder order.
        let mut agg_ref_cols: Vec<usize> = Vec::new();
        if grouped {
            let mut group_cols = Vec::new();
            for expr in &lp.group_by {
                group_cols.push(resolve_column(expr, &res_schema, "GROUP BY")?);
            }
            group_width = group_cols.len();
            let mut aggs: Vec<(AggregateFunction, usize)> = Vec::new();
            for (function, argument) in &lp.aggregates {
                // COUNT(*) parses to a literal argument; any column works.
                let col = match argument {
                    Expr::Literal(_) if *function == AggregateFunction::Count => 0,
                    other => resolve_column(other, &res_schema, "aggregate")?,
                };
                aggs.push((*function, col));
            }
            // Aggregates referenced inside HAVING / ORDER BY: reuse the
            // matching SELECT aggregate, or append a *hidden* aggregate —
            // computed by the shared group-by but dropped by the statement's
            // projection.
            for (function, argument) in &lp.agg_refs {
                let col = match argument {
                    Expr::Literal(_) if *function == AggregateFunction::Count => 0,
                    other => resolve_column(other, &res_schema, "aggregate")?,
                };
                let idx = match aggs.iter().position(|a| *a == (*function, col)) {
                    Some(i) => i,
                    None => {
                        aggs.push((*function, col));
                        aggs.len() - 1
                    }
                };
                agg_ref_cols.push(group_width + idx);
            }
            let group_paths: Vec<String> = group_cols
                .iter()
                .map(|&c| plan_schema.column(c).qualified_name())
                .collect();
            let agg_names: Vec<String> = aggs
                .iter()
                .enumerate()
                .map(|(i, (f, c))| {
                    format!("{f:?}{}_{}", i, plan_schema.column(*c).name).to_ascii_uppercase()
                })
                .collect();
            let agg_paths: Vec<String> = aggs
                .iter()
                .map(|(_, c)| plan_schema.column(*c).qualified_name())
                .collect();
            let node = self.builder.group_by(
                root,
                group_paths.iter().map(String::as_str).collect(),
                aggs.iter()
                    .zip(agg_paths.iter().zip(agg_names.iter()))
                    .map(|((f, _), (path, name))| (*f, path.as_str(), name.as_str()))
                    .collect(),
            )?;
            // Mirror the builder's output schema in the alias-qualified
            // resolution world; everything downstream of the group-by
            // (HAVING, DISTINCT, ORDER BY, projection) resolves against it.
            let mut res_cols: Vec<Column> = group_cols
                .iter()
                .map(|&c| res_schema.column(c).clone())
                .collect();
            for ((f, c), name) in aggs.iter().zip(agg_names) {
                let data_type = match f {
                    AggregateFunction::Count => DataType::Int,
                    AggregateFunction::Avg => DataType::Float,
                    _ => plan_schema.column(*c).data_type,
                };
                res_cols.push(Column::nullable(name, data_type));
            }
            res_schema = Schema::new(res_cols);
            let predicate = match &lp.having {
                Some(expr) => Some(substitute_agg_refs(expr, &agg_ref_cols)?.resolve(&res_schema)?),
                None => None,
            };
            activations.push((node, ActivationTemplate::Having { predicate }));
            root = node;
        }

        // DISTINCT → shared duplicate elimination.
        if lp.distinct {
            let node = self.builder.distinct(root)?;
            activations.push((node, ActivationTemplate::Participate));
            root = node;
        }

        // Projection: map the SELECT list onto the root schema. Plain column
        // references (and aggregate outputs) become an index projection; any
        // other expression (`a + b`, `price * qty`, ...) switches the whole
        // list to computed output columns evaluated during result routing.
        let mut projection: Vec<usize> = Vec::new();
        let mut computed: Vec<ComputedColumn> = Vec::new();
        let mut has_expression = false;
        let mut wildcard = false;
        let mut agg_seen = 0usize;
        for item in &select.items {
            match item {
                SelectItem::Wildcard => wildcard = true,
                SelectItem::Expr(expr) => {
                    let resolved = expr.resolve(&res_schema)?;
                    match resolved {
                        Expr::Column(idx) => {
                            projection.push(idx);
                            computed.push(ComputedColumn {
                                name: res_schema.column(idx).name.clone(),
                                data_type: res_schema.column(idx).data_type,
                                expr: Expr::Column(idx),
                            });
                        }
                        other => {
                            has_expression = true;
                            computed.push(ComputedColumn {
                                name: render_expr_name(expr),
                                data_type: infer_type(&other, &res_schema),
                                expr: other,
                            });
                        }
                    }
                }
                SelectItem::Aggregate { .. } => {
                    let idx = group_width + agg_seen;
                    projection.push(idx);
                    computed.push(ComputedColumn {
                        name: res_schema.column(idx).name.clone(),
                        data_type: res_schema.column(idx).data_type,
                        expr: Expr::Column(idx),
                    });
                    agg_seen += 1;
                }
            }
        }
        if wildcard && select.items.len() > 1 {
            return Err(Error::Unsupported(
                "SELECT * cannot be combined with other select items".into(),
            ));
        }
        // The shared Distinct node already dedups full root tuples; the
        // statement dedups again at result routing only when its output
        // differs from the root tuple — a narrowing projection or computed
        // columns can reintroduce duplicates, an identity projection or
        // wildcard cannot.
        let identity = projection.iter().copied().eq(0..res_schema.len());
        let redistinct = lp.distinct && !wildcard && (has_expression || !identity);

        // ORDER BY → shared sort; with a LIMIT → shared Top-N, unless the
        // limit has to wait for the de-duplication at routing.
        let mut limit = lp.limit;
        if !lp.order_by.is_empty() {
            let mut keys = Vec::new();
            for (expr, descending) in &lp.order_by {
                let expr = substitute_agg_refs(expr, &agg_ref_cols)?;
                let col = resolve_column(&expr, &res_schema, "ORDER BY")?;
                keys.push(if *descending {
                    SortKey::desc(col)
                } else {
                    SortKey::asc(col)
                });
            }
            root = match limit.filter(|_| !redistinct) {
                Some(n) => {
                    let node = self.builder.top_n(root, keys)?;
                    activations.push((node, ActivationTemplate::TopN { limit: n }));
                    limit = None;
                    node
                }
                None => {
                    let node = self.builder.sort(root, keys)?;
                    activations.push((node, ActivationTemplate::Participate));
                    node
                }
            };
        }

        let mut spec = StatementSpec::query(name, root);
        if redistinct {
            spec = spec.distinct();
        }
        if has_expression {
            spec = spec.compute(computed);
        } else if !wildcard && !identity {
            spec = spec.project(projection);
        }
        if let Some(limit) = limit {
            spec = spec.limit(limit);
        }
        for (op, template) in activations {
            spec = spec.activate(op, template);
        }
        Ok(spec)
    }

    fn compile_insert(
        &mut self,
        name: &str,
        table: &str,
        columns: &[String],
        values: &[Expr],
    ) -> Result<StatementSpec> {
        let schema = self.table_schema(table)?;
        let ordered: Vec<Expr> = if columns.is_empty() {
            if values.len() != schema.len() {
                return Err(Error::InvalidParameter(format!(
                    "INSERT into {table} provides {} values for {} columns",
                    values.len(),
                    schema.len()
                )));
            }
            values.to_vec()
        } else {
            if columns.len() != values.len() {
                return Err(Error::InvalidParameter(
                    "INSERT column list and VALUES arity differ".into(),
                ));
            }
            let mut ordered = Vec::with_capacity(schema.len());
            for column in schema.columns() {
                let position = columns
                    .iter()
                    .position(|c| c.eq_ignore_ascii_case(&column.name))
                    .ok_or_else(|| {
                        Error::InvalidParameter(format!(
                            "INSERT into {table} misses column {}",
                            column.name
                        ))
                    })?;
                ordered.push(values[position].clone());
            }
            ordered
        };
        Ok(StatementSpec::update(
            name,
            table,
            UpdateTemplate::Insert { values: ordered },
        ))
    }

    fn compile_update(
        &mut self,
        name: &str,
        table: &str,
        assignments: &[(String, Expr)],
        where_clause: Option<&Expr>,
    ) -> Result<StatementSpec> {
        let schema = self.table_schema(table)?;
        let assignments: Vec<(usize, Expr)> = assignments
            .iter()
            .map(|(column, expr)| Ok((schema.resolve(None, column)?, expr.resolve(&schema)?)))
            .collect::<Result<_>>()?;
        let predicate = match where_clause {
            Some(expr) => expr.resolve(&schema)?,
            None => Expr::lit(true),
        };
        Ok(StatementSpec::update(
            name,
            table,
            UpdateTemplate::Update {
                assignments,
                predicate,
            },
        ))
    }

    fn compile_delete(
        &mut self,
        name: &str,
        table: &str,
        where_clause: Option<&Expr>,
    ) -> Result<StatementSpec> {
        let schema = self.table_schema(table)?;
        let predicate = match where_clause {
            Some(expr) => expr.resolve(&schema)?,
            None => Expr::lit(true),
        };
        Ok(StatementSpec::update(
            name,
            table,
            UpdateTemplate::Delete { predicate },
        ))
    }
}

/// The leaf `nodes` holds for `key`, built by `build` the first time: one
/// shared scan or probe per (table, occurrence).
fn shared<K: std::hash::Hash + Eq>(
    nodes: &mut HashMap<K, OperatorId>,
    key: K,
    build: impl FnOnce() -> Result<OperatorId>,
) -> Result<OperatorId> {
    match nodes.entry(key) {
        Entry::Occupied(entry) => Ok(*entry.get()),
        Entry::Vacant(entry) => Ok(*entry.insert(build()?)),
    }
}

/// `column = value` of a resolved conjunct, either way round, when the value
/// is a parameter or a literal other than NULL: a key an index can look up.
fn key_equality(conjunct: &Expr) -> Option<(usize, &Expr)> {
    let Expr::Binary {
        op: BinaryOp::Eq,
        left,
        right,
    } = conjunct
    else {
        return None;
    };
    let is_key =
        |e: &Expr| matches!(e, Expr::Param(_)) || matches!(e, Expr::Literal(v) if !v.is_null());
    match (left.as_ref(), right.as_ref()) {
        (Expr::Column(c), key) | (key, Expr::Column(c)) if is_key(key) => Some((*c, key)),
        _ => None,
    }
}

/// Column name of a computed SELECT item: the rendered expression text
/// without the outermost parentheses (`A + B`, `PRICE * QTY`).
fn render_expr_name(expr: &Expr) -> String {
    let rendered = expr.to_string();
    match rendered.strip_prefix('(').and_then(|r| r.strip_suffix(')')) {
        Some(inner) => inner.to_string(),
        None => rendered,
    }
}

/// Best-effort static type of a resolved scalar expression. Arithmetic
/// follows the evaluator's promotion rules (Int only when both sides are
/// Int; division always Float because of NULL-on-zero); parameters default
/// to Float, the widest numeric type.
fn infer_type(expr: &Expr, schema: &Schema) -> DataType {
    use shareddb_common::{BinaryOp, UnaryOp};
    match expr {
        Expr::Column(idx) => schema.column(*idx).data_type,
        Expr::NamedColumn { .. } => DataType::Float, // resolved before use
        Expr::Literal(v) => v.data_type().unwrap_or(DataType::Float),
        Expr::Param(_) => DataType::Float,
        Expr::Binary { op, left, right } => match op {
            BinaryOp::And | BinaryOp::Or => DataType::Bool,
            _ if op.is_comparison() => DataType::Bool,
            BinaryOp::Div => DataType::Float,
            _ => {
                if infer_type(left, schema) == DataType::Int
                    && infer_type(right, schema) == DataType::Int
                {
                    DataType::Int
                } else {
                    DataType::Float
                }
            }
        },
        Expr::Unary { op, expr } => match op {
            UnaryOp::Neg => infer_type(expr, schema),
            UnaryOp::Not | UnaryOp::IsNull | UnaryOp::IsNotNull => DataType::Bool,
        },
        Expr::Like { .. } | Expr::InList { .. } | Expr::Between { .. } => DataType::Bool,
    }
}

/// Replaces [`AGG_REF_QUALIFIER`] aggregate placeholders with the group-by
/// output column each placeholder was mapped to. Other nodes pass through
/// untouched (named columns are resolved later, against the group output
/// schema).
fn substitute_agg_refs(expr: &Expr, agg_ref_cols: &[usize]) -> Result<Expr> {
    let sub = |e: &Expr| substitute_agg_refs(e, agg_ref_cols);
    Ok(match expr {
        Expr::NamedColumn {
            qualifier: Some(q),
            name,
        } if q == AGG_REF_QUALIFIER => {
            let idx: usize = name
                .parse()
                .map_err(|_| Error::Internal(format!("bad aggregate placeholder {name}")))?;
            let col = agg_ref_cols.get(idx).copied().ok_or_else(|| {
                Error::Internal(format!("aggregate placeholder {idx} out of range"))
            })?;
            Expr::Column(col)
        }
        Expr::Column(_) | Expr::NamedColumn { .. } | Expr::Literal(_) | Expr::Param(_) => {
            expr.clone()
        }
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(sub(left)?),
            right: Box::new(sub(right)?),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(sub(expr)?),
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(sub(expr)?),
            pattern: Box::new(sub(pattern)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(sub(expr)?),
            list: list.iter().map(sub).collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Between { expr, low, high } => Expr::Between {
            expr: Box::new(sub(expr)?),
            low: Box::new(sub(low)?),
            high: Box::new(sub(high)?),
        },
    })
}

/// Resolves an expression that must denote a single input column.
fn resolve_column(expr: &Expr, schema: &Schema, context: &str) -> Result<usize> {
    match expr.resolve(schema)? {
        Expr::Column(idx) => Ok(idx),
        other => Err(Error::Unsupported(format!(
            "{context} supports plain column references only, found {other:?}"
        ))),
    }
}

/// Compiles a whole workload of `(name, sql)` statements in one go.
pub fn compile_workload(
    catalog: &Catalog,
    statements: &[(&str, &str)],
) -> Result<(GlobalPlan, StatementRegistry)> {
    let mut compiler = SqlCompiler::new(catalog);
    for (name, sql) in statements {
        compiler.add_statement(name, sql)?;
    }
    Ok(compiler.finish())
}

/// Splits a leading `EXPLAIN [ANALYZE]` keyword prefix off a statement.
///
/// Returns `None` when `sql` does not start with `EXPLAIN`; otherwise
/// `(analyze, rest)` where `rest` is the statement text with the prefix
/// stripped. Matching is case-insensitive and word-bounded, so identifiers
/// that merely *start* with the keyword (`EXPLAINER`) are left alone.
/// SharedDB has no per-query planner, so the rest is resolved against the
/// registered statement types like any other ad-hoc statement and the plan
/// shown is that statement's view of the shared global plan.
pub fn parse_explain(sql: &str) -> Option<(bool, &str)> {
    fn strip_keyword<'a>(s: &'a str, keyword: &str) -> Option<&'a str> {
        let trimmed = s.trim_start();
        let head = trimmed.get(..keyword.len())?;
        if !head.eq_ignore_ascii_case(keyword) {
            return None;
        }
        let rest = &trimmed[keyword.len()..];
        match rest.chars().next() {
            None => Some(rest),
            Some(c) if c.is_whitespace() => Some(rest),
            Some(_) => None,
        }
    }
    let rest = strip_keyword(sql, "EXPLAIN")?;
    match strip_keyword(rest, "ANALYZE") {
        Some(rest) => Some((true, rest.trim())),
        None => Some((false, rest.trim())),
    }
}

// ---------------------------------------------------------------------------
// Token-level auto-parameterisation
// ---------------------------------------------------------------------------

/// One `?` slot of a canonicalised statement.
#[derive(Debug, Clone, PartialEq)]
pub enum TemplateSlot {
    /// The slot was a parameter in the original statement text, with its
    /// 0-based index: its position for `?`, `N − 1` for `?N`.
    Param(usize),
    /// The slot was a fixed literal in the original statement text.
    Literal(Value),
}

/// A statement reduced to its *type*: every literal and parameter replaced by
/// `?`, with a slot map recording what each `?` was.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlTemplate {
    /// The canonical statement text (all literals/parameters are `?`).
    pub canonical: String,
    /// What each `?` of `canonical` stood for, in order.
    pub slots: Vec<TemplateSlot>,
}

/// Canonicalises a SQL string by replacing every literal and parameter with
/// `?`. Returns the canonical text and the slot map. Two statements have the
/// same canonical text iff they are the same query *type* in the sense of the
/// paper (identical shape, different constants).
pub fn canonicalize(sql: &str) -> Result<SqlTemplate> {
    let tokens = tokenize(sql)?;
    let mut canonical = String::new();
    let mut slots = Vec::new();
    let mut params = 0usize;
    let mut i = 0usize;
    while i < tokens.len() {
        let token = &tokens[i];
        // Fold a unary minus over a number into one signed literal slot, so
        // `I_ID = -1` matches a registered `I_ID = ?` template. A minus is
        // unary when nothing operand-like precedes it (start of statement,
        // after an operator/paren/comma, or after a *keyword* — keywords
        // tokenise as identifiers but never denote a value, so `WHERE -5 < A`
        // and `BETWEEN -2 AND 2` still carry signed literals).
        if matches!(token, Token::Minus) {
            let prev_is_operand = i
                .checked_sub(1)
                .map(|p| match &tokens[p] {
                    Token::Ident(s) => !is_sql_keyword(s),
                    Token::Number(_) | Token::StringLit(_) | Token::Param(_) | Token::RParen => {
                        true
                    }
                    _ => false,
                })
                .unwrap_or(false);
            if !prev_is_operand {
                if let Some(Token::Number(text)) = tokens.get(i + 1) {
                    let negated = match parse_number(text)? {
                        Value::Int(v) => Value::Int(-v),
                        Value::Float(v) => Value::Float(-v),
                        other => other,
                    };
                    slots.push(TemplateSlot::Literal(negated));
                    if !canonical.is_empty() {
                        canonical.push(' ');
                    }
                    canonical.push('?');
                    i += 2;
                    continue;
                }
            }
        }
        let rendered: String = match token {
            Token::Ident(s) => s.to_ascii_uppercase(),
            Token::Number(text) => {
                slots.push(TemplateSlot::Literal(parse_number(text)?));
                "?".into()
            }
            Token::StringLit(text) => {
                slots.push(TemplateSlot::Literal(Value::text(text.clone())));
                "?".into()
            }
            Token::Param(number) => {
                slots.push(TemplateSlot::Param(number.unwrap_or(params)));
                params += 1;
                "?".into()
            }
            Token::Comma => ",".into(),
            Token::Dot => ".".into(),
            Token::LParen => "(".into(),
            Token::RParen => ")".into(),
            Token::Star => "*".into(),
            Token::Eq => "=".into(),
            Token::NotEq => "<>".into(),
            Token::Lt => "<".into(),
            Token::LtEq => "<=".into(),
            Token::Gt => ">".into(),
            Token::GtEq => ">=".into(),
            Token::Plus => "+".into(),
            Token::Minus => "-".into(),
            Token::Slash => "/".into(),
        };
        // `.` binds tighter than whitespace in qualified names; rendering
        // without surrounding spaces keeps `T.C` recognisable either way.
        if matches!(token, Token::Dot) {
            canonical.pop_if_trailing_space();
            canonical.push('.');
        } else {
            if !canonical.is_empty() {
                canonical.push(' ');
            }
            canonical.push_str(&rendered);
        }
        i += 1;
    }
    Ok(SqlTemplate { canonical, slots })
}

/// Reserved words that can directly precede a signed numeric literal. They
/// tokenise as [`Token::Ident`] but never denote an operand, so a `-` after
/// one of them is a unary sign, not a binary subtraction.
fn is_sql_keyword(ident: &str) -> bool {
    const KEYWORDS: &[&str] = &[
        "SELECT", "DISTINCT", "ALL", "FROM", "WHERE", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE",
        "IS", "AS", "ON", "JOIN", "INNER", "LEFT", "RIGHT", "OUTER", "CROSS", "GROUP", "ORDER",
        "BY", "ASC", "DESC", "HAVING", "LIMIT", "OFFSET", "INSERT", "INTO", "VALUES", "UPDATE",
        "SET", "DELETE", "CASE", "WHEN", "THEN", "ELSE", "END",
    ];
    KEYWORDS.iter().any(|kw| ident.eq_ignore_ascii_case(kw))
}

trait PopIfTrailingSpace {
    fn pop_if_trailing_space(&mut self);
}

impl PopIfTrailingSpace for String {
    fn pop_if_trailing_space(&mut self) {
        if self.ends_with(' ') {
            self.pop();
        }
    }
}

fn parse_number(text: &str) -> Result<Value> {
    if text.contains('.') || text.contains('e') || text.contains('E') {
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|_| Error::Parse(format!("bad number literal {text}")))
    } else {
        match text.parse::<i64>() {
            Ok(v) => Ok(Value::Int(v)),
            Err(_) => text
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::Parse(format!("bad number literal {text}"))),
        }
    }
}

/// Matches an ad-hoc statement's extracted literals against a registered
/// template, producing the parameter vector for the registered statement.
///
/// Fixed-literal slots must agree between the template and the ad-hoc
/// statement; `?`-slots of the template are filled from the ad-hoc literals.
pub fn bind_adhoc(template: &SqlTemplate, adhoc: &SqlTemplate) -> Result<Vec<Value>> {
    if template.slots.len() != adhoc.slots.len() {
        return Err(Error::UnknownStatement(adhoc.canonical.clone()));
    }
    let param_count = template
        .slots
        .iter()
        .filter_map(|s| match s {
            TemplateSlot::Param(i) => Some(i + 1),
            TemplateSlot::Literal(_) => None,
        })
        .max()
        .unwrap_or(0);
    let mut params = vec![Value::Null; param_count];
    for (slot, adhoc_slot) in template.slots.iter().zip(&adhoc.slots) {
        let value = match adhoc_slot {
            TemplateSlot::Literal(v) => v.clone(),
            TemplateSlot::Param(_) => {
                return Err(Error::InvalidParameter(
                    "ad-hoc statements must carry concrete literals, not ?".into(),
                ))
            }
        };
        match slot {
            TemplateSlot::Param(i) => params[*i] = value,
            TemplateSlot::Literal(expected) => {
                if *expected != value {
                    return Err(Error::UnknownStatement(adhoc.canonical.clone()));
                }
            }
        }
    }
    Ok(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use shareddb_core::{Engine, EngineConfig, Lane};
    use shareddb_storage::TableDef;
    use std::sync::Arc;

    fn catalog() -> Arc<Catalog> {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("USERS")
                    .column("USER_ID", DataType::Int)
                    .column("USERNAME", DataType::Text)
                    .column("COUNTRY", DataType::Text)
                    .column("ACCOUNT", DataType::Int)
                    .primary_key(&["USER_ID"]),
            )
            .unwrap();
        catalog
            .create_table(
                TableDef::new("ORDERS")
                    .column("ORDER_ID", DataType::Int)
                    .column("USER_ID", DataType::Int)
                    .column("STATUS", DataType::Text)
                    .column("TOTAL", DataType::Float)
                    .primary_key(&["ORDER_ID"]),
            )
            .unwrap();
        let users = (0..50i64)
            .map(|i| {
                shareddb_common::tuple![
                    i,
                    format!("user{i}"),
                    if i % 2 == 0 { "CH" } else { "DE" },
                    i * 10
                ]
            })
            .collect();
        let orders = (0..150i64)
            .map(|i| {
                shareddb_common::tuple![
                    i,
                    i % 50,
                    if i % 3 == 0 { "OK" } else { "PENDING" },
                    (i % 40) as f64
                ]
            })
            .collect();
        catalog.bulk_load("USERS", users).unwrap();
        catalog.bulk_load("ORDERS", orders).unwrap();
        Arc::new(catalog)
    }

    const WORKLOAD: &[(&str, &str)] = &[
        ("userByName", "SELECT * FROM USERS WHERE USERNAME = ?"),
        (
            "ordersOfUser",
            "SELECT * FROM USERS U, ORDERS O \
             WHERE U.USER_ID = O.USER_ID AND U.USERNAME = ? AND O.STATUS = 'OK' \
             ORDER BY O.ORDER_ID",
        ),
        (
            "richOrdersOfUser",
            "SELECT * FROM USERS U, ORDERS O \
             WHERE U.USER_ID = O.USER_ID AND U.USERNAME = ? AND O.TOTAL >= ? \
             ORDER BY O.ORDER_ID",
        ),
        (
            "accountByCountry",
            "SELECT COUNTRY, SUM(ACCOUNT) FROM USERS GROUP BY COUNTRY",
        ),
        ("addOrder", "INSERT INTO ORDERS VALUES (?, ?, 'OK', ?)"),
        ("cancelOrders", "DELETE FROM ORDERS WHERE USER_ID = ?"),
        (
            "repriceOrder",
            "UPDATE ORDERS SET TOTAL = ? WHERE ORDER_ID = ?",
        ),
    ];

    #[test]
    fn workload_compiles_into_one_shared_plan() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(&catalog, WORKLOAD).unwrap();
        registry.validate(&plan).unwrap();
        // Two scans shared by all statements, ONE shared join for both join
        // statements, one sort, one group-by.
        let census = plan.operator_census();
        assert_eq!(census.get("Scan(USERS)"), Some(&1));
        assert_eq!(census.get("Scan(ORDERS)"), Some(&1));
        assert_eq!(census.get("HashJoin"), Some(&1), "plan:\n{plan}");
        assert_eq!(census.get("Sort"), Some(&1));
        assert_eq!(census.get("GroupBy"), Some(&1));
        assert_eq!(registry.len(), WORKLOAD.len());
    }

    #[test]
    fn compiled_workload_executes_end_to_end() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(&catalog, WORKLOAD).unwrap();
        let engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();

        let outcome = engine
            .execute_sync("userByName", &[Value::text("user7")])
            .unwrap();
        assert_eq!(outcome.rows().len(), 1);
        assert_eq!(outcome.rows()[0][0], Value::Int(7));

        // user7 owns orders 7, 57, 107; OK only for multiples of 3 → 57.
        let outcome = engine
            .execute_sync("ordersOfUser", &[Value::text("user7")])
            .unwrap();
        assert_eq!(outcome.rows().len(), 1);
        assert_eq!(outcome.rows()[0][4], Value::Int(57));

        let outcome = engine.execute_sync("accountByCountry", &[]).unwrap();
        assert_eq!(outcome.rows().len(), 2);

        let outcome = engine
            .execute_sync(
                "addOrder",
                &[Value::Int(9_000), Value::Int(7), Value::Float(1.0)],
            )
            .unwrap();
        assert_eq!(outcome.rows_affected(), 1);
        let outcome = engine
            .execute_sync("ordersOfUser", &[Value::text("user7")])
            .unwrap();
        assert_eq!(outcome.rows().len(), 2);

        let outcome = engine
            .execute_sync("cancelOrders", &[Value::Int(7)])
            .unwrap();
        assert!(outcome.rows_affected() >= 1);
    }

    #[test]
    fn projection_and_limit_are_applied() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(
            &catalog,
            &[(
                "topAccounts",
                "SELECT USERNAME, ACCOUNT FROM USERS WHERE ACCOUNT >= ? \
                 ORDER BY ACCOUNT DESC LIMIT 3",
            )],
        )
        .unwrap();
        let engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
        let outcome = engine
            .execute_sync("topAccounts", &[Value::Int(0)])
            .unwrap();
        let rows = outcome.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].len(), 2);
        assert_eq!(rows[0][1], Value::Int(490));
        assert_eq!(rows[1][1], Value::Int(480));
    }

    /// Expression projections compile into the shared plan and evaluate
    /// during result routing: `SELECT a + b, price * qty FROM ...`.
    #[test]
    fn expression_projections_execute() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(
            &catalog,
            &[(
                "accountPlusId",
                "SELECT USERNAME, ACCOUNT + USER_ID, ACCOUNT / 2 FROM USERS WHERE USER_ID = ?",
            )],
        )
        .unwrap();
        registry.validate(&plan).unwrap();
        let engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
        let outcome = engine
            .execute_sync("accountPlusId", &[Value::Int(7)])
            .unwrap();
        match outcome {
            shareddb_core::QueryOutcome::Rows(rs) => {
                assert_eq!(rs.rows.len(), 1);
                // user7: ACCOUNT = 70, USER_ID = 7.
                assert_eq!(rs.rows[0][0], Value::text("user7"));
                assert_eq!(rs.rows[0][1], Value::Int(77));
                assert_eq!(rs.rows[0][2], Value::Float(35.0));
                assert_eq!(rs.schema.column(0).name, "USERNAME");
                assert_eq!(rs.schema.column(1).name, "ACCOUNT + USER_ID");
                assert_eq!(rs.schema.column(1).data_type, DataType::Int);
                assert_eq!(rs.schema.column(2).data_type, DataType::Float);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// Parameters inside expression projections bind per execution, and
    /// expressions over join outputs resolve against the joined schema.
    #[test]
    fn expression_projections_bind_parameters_and_join_columns() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(
            &catalog,
            &[(
                "scaledTotal",
                "SELECT O.ORDER_ID, O.TOTAL * ? FROM USERS U, ORDERS O \
                 WHERE U.USER_ID = O.USER_ID AND U.USERNAME = ?",
            )],
        )
        .unwrap();
        let engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
        let outcome = engine
            .execute_sync("scaledTotal", &[Value::Float(2.0), Value::text("user3")])
            .unwrap();
        let rows = outcome.rows();
        assert_eq!(rows.len(), 3); // orders 3, 53, 103
        for row in rows {
            let id = match row[0] {
                Value::Int(i) => i,
                ref other => panic!("unexpected {other:?}"),
            };
            assert_eq!(row[1], Value::Float(((id % 40) as f64) * 2.0));
        }
    }

    /// Auto-parameterisation still matches statement types whose SELECT list
    /// carries expressions: the literal inside the expression is a slot like
    /// any other.
    #[test]
    fn expression_projection_templates_match_adhoc_sql() {
        let template =
            canonicalize("SELECT USERNAME, ACCOUNT * 2 FROM USERS WHERE USER_ID = ?").unwrap();
        let adhoc =
            canonicalize("select username, account * 2 from users where user_id = 9").unwrap();
        assert_eq!(template.canonical, adhoc.canonical);
        assert_eq!(bind_adhoc(&template, &adhoc).unwrap(), vec![Value::Int(9)]);
        // A different scale factor is a different statement type.
        let other =
            canonicalize("SELECT USERNAME, ACCOUNT * 3 FROM USERS WHERE USER_ID = 9").unwrap();
        assert!(bind_adhoc(&template, &other).is_err());
    }

    /// A cycle over two tables (two join edges between the same pair): the
    /// edge to the users' key becomes the shared index-NL join, the other a
    /// residual equality filter on the join output.
    #[test]
    fn cyclic_two_table_join_compiles_and_filters() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(
            &catalog,
            &[(
                "doubleKeyed",
                "SELECT * FROM USERS U, ORDERS O \
                 WHERE U.USER_ID = O.USER_ID AND U.ACCOUNT = O.ORDER_ID",
            )],
        )
        .unwrap();
        registry.validate(&plan).unwrap();
        let census = plan.operator_census();
        assert_eq!(census.get("IndexNlJoin(USERS)"), Some(&1), "plan:\n{plan}");
        assert_eq!(census.get("Filter"), Some(&1), "plan:\n{plan}");
        let engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
        let outcome = engine.execute_sync("doubleKeyed", &[]).unwrap();
        // USER_ID match: order i belongs to user i % 50; ACCOUNT = 10 *
        // USER_ID must equal ORDER_ID. ORDER_ID = 10 u and user u = 10u % 50
        // → u ∈ {0} only (10u % 50 == u requires 9u ≡ 0 mod 50 → u = 0).
        let rows = outcome.rows();
        assert_eq!(rows.len(), 1, "{rows:?}");
        assert_eq!(rows[0][0], Value::Int(0)); // USER_ID
        assert_eq!(rows[0][4], Value::Int(0)); // ORDER_ID
    }

    /// A triangle cycle over three tables: two spanning-tree hash joins, one
    /// residual edge. The result matches the hand-computed triangle set.
    #[test]
    fn triangle_join_cycle_matches_hand_computed_result() {
        let catalog = Catalog::new();
        for (name, cols) in [("R", ["A", "B"]), ("S", ["A", "C"]), ("T", ["B", "C"])] {
            catalog
                .create_table(
                    TableDef::new(name)
                        .column(cols[0], DataType::Int)
                        .column(cols[1], DataType::Int),
                )
                .unwrap();
        }
        // R(a, b), S(a, c), T(b, c) over small domains; triangle iff all
        // three equalities hold.
        let r: Vec<_> = (0..4i64)
            .flat_map(|a| (0..4i64).map(move |b| shareddb_common::tuple![a, b]))
            .collect();
        let s: Vec<_> = (0..4i64)
            .map(|a| shareddb_common::tuple![a, (a + 1) % 4])
            .collect();
        let t: Vec<_> = (0..4i64)
            .map(|b| shareddb_common::tuple![b, (b + 2) % 4])
            .collect();
        catalog.bulk_load("R", r).unwrap();
        catalog.bulk_load("S", s).unwrap();
        catalog.bulk_load("T", t).unwrap();
        let catalog = Arc::new(catalog);
        let (plan, registry) = compile_workload(
            &catalog,
            &[(
                "triangle",
                "SELECT R.A, R.B FROM R, S, T \
                 WHERE R.A = S.A AND R.B = T.B AND S.C = T.C",
            )],
        )
        .unwrap();
        registry.validate(&plan).unwrap();
        let census = plan.operator_census();
        assert_eq!(census.get("HashJoin"), Some(&2), "plan:\n{plan}");
        assert_eq!(census.get("Filter"), Some(&1), "plan:\n{plan}");
        // Hand-computed: S(a, a+1), T(b, b+2); S.C = T.C ⇒ a+1 ≡ b+2 (mod 4)
        // ⇒ b = (a + 3) % 4. R holds every (a, b) pair, so 4 triangles.
        let engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
        let outcome = engine.execute_sync("triangle", &[]).unwrap();
        let mut rows: Vec<(i64, i64)> = outcome
            .rows()
            .iter()
            .map(|r| (r[0].as_int().unwrap(), r[1].as_int().unwrap()))
            .collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![(0, 3), (1, 0), (2, 1), (3, 2)]);
    }

    /// FROM pieces without a join edge connect through the shared
    /// nested-loop join (cross product), and two statements over the same
    /// FROM pair share one operator.
    #[test]
    fn cross_products_compile_and_share() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(
            &catalog,
            &[
                (
                    "userTimesOrders",
                    "SELECT * FROM USERS U, ORDERS O WHERE U.USERNAME = ?",
                ),
                (
                    "pairCount",
                    "SELECT COUNT(*) FROM USERS U, ORDERS O WHERE U.USERNAME = ? AND O.STATUS = 'OK'",
                ),
            ],
        )
        .unwrap();
        registry.validate(&plan).unwrap();
        let census = plan.operator_census();
        assert_eq!(census.get("NestedLoopJoin"), Some(&1), "plan:\n{plan}");
        assert_eq!(census.get("HashJoin"), None);
        let engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
        let user3 = [Value::text("user3")];
        let outcome = engine.execute_sync("userTimesOrders", &user3).unwrap();
        // 1 user × 150 orders.
        assert_eq!(outcome.rows().len(), 150);
        assert_eq!(outcome.rows()[0].len(), 8);
        // 1 user × 50 OK orders (every third of 150).
        let outcome = engine.execute_sync("pairCount", &user3).unwrap();
        assert_eq!(outcome.rows()[0][0], Value::Int(50));
    }

    /// HAVING referencing a SELECT-list aggregate binds to the group-by
    /// output column; parameters inside HAVING bind per execution.
    #[test]
    fn having_over_select_aggregate_executes() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(
            &catalog,
            &[(
                "bigCountries",
                "SELECT COUNTRY, SUM(ACCOUNT) FROM USERS GROUP BY COUNTRY \
                 HAVING SUM(ACCOUNT) > ?",
            )],
        )
        .unwrap();
        registry.validate(&plan).unwrap();
        let engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
        // CH: 10·(0+2+..+48) = 6000; DE: 10·(1+3+..+49) = 6250.
        let outcome = engine
            .execute_sync("bigCountries", &[Value::Int(6100)])
            .unwrap();
        assert_eq!(outcome.rows().len(), 1);
        assert_eq!(outcome.rows()[0][0], Value::text("DE"));
        assert_eq!(outcome.rows()[0][1], Value::Int(6250));
        let outcome = engine
            .execute_sync("bigCountries", &[Value::Int(0)])
            .unwrap();
        assert_eq!(outcome.rows().len(), 2);
    }

    /// HAVING (and ORDER BY) may reference aggregates that are NOT in the
    /// SELECT list: they are computed as hidden group-by columns and dropped
    /// by the projection.
    #[test]
    fn having_and_order_by_over_hidden_aggregates() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(
            &catalog,
            &[
                (
                    "richCountryNames",
                    "SELECT COUNTRY FROM USERS GROUP BY COUNTRY HAVING SUM(ACCOUNT) > 6100",
                ),
                (
                    "countriesByWealth",
                    "SELECT COUNTRY FROM USERS GROUP BY COUNTRY ORDER BY SUM(ACCOUNT) DESC",
                ),
            ],
        )
        .unwrap();
        registry.validate(&plan).unwrap();
        let engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
        let outcome = engine.execute_sync("richCountryNames", &[]).unwrap();
        assert_eq!(outcome.rows().len(), 1);
        assert_eq!(outcome.rows()[0].len(), 1, "hidden aggregate leaked");
        assert_eq!(outcome.rows()[0][0], Value::text("DE"));
        let outcome = engine.execute_sync("countriesByWealth", &[]).unwrap();
        let names: Vec<&Value> = outcome.rows().iter().map(|r| &r[0]).collect();
        assert_eq!(names, vec![&Value::text("DE"), &Value::text("CH")]);
        assert_eq!(outcome.rows()[0].len(), 1);
    }

    /// A HAVING variant shares the group-by operator with the plain
    /// aggregation of the same shape (HAVING is an activation, not a new
    /// operator), and COUNT(*) in HAVING reuses the SELECT COUNT(*).
    #[test]
    fn having_variants_share_the_group_by() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(
            &catalog,
            &[
                (
                    "countByCountry",
                    "SELECT COUNTRY, COUNT(*) FROM USERS GROUP BY COUNTRY",
                ),
                (
                    "popularCountries",
                    "SELECT COUNTRY, COUNT(*) FROM USERS GROUP BY COUNTRY HAVING COUNT(*) > ?",
                ),
            ],
        )
        .unwrap();
        registry.validate(&plan).unwrap();
        let census = plan.operator_census();
        assert_eq!(census.get("GroupBy"), Some(&1), "plan:\n{plan}");
        let engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
        let outcome = engine
            .execute_sync("popularCountries", &[Value::Int(24)])
            .unwrap();
        assert_eq!(outcome.rows().len(), 2); // both countries hold 25 users
        let outcome = engine
            .execute_sync("popularCountries", &[Value::Int(25)])
            .unwrap();
        assert_eq!(outcome.rows().len(), 0);
    }

    /// Aggregates in WHERE and duplicate FROM aliases are rejected with
    /// clear messages instead of confusing downstream errors.
    #[test]
    fn aggregates_in_where_and_duplicate_aliases_are_rejected() {
        let catalog = catalog();
        let mut compiler = SqlCompiler::new(&catalog);
        let err = compiler
            .add_statement("bad", "SELECT * FROM USERS WHERE SUM(ACCOUNT) > 1")
            .unwrap_err();
        assert!(
            err.to_string().contains("HAVING"),
            "unexpected message: {err}"
        );
        let err = compiler
            .add_statement(
                "bad2",
                "SELECT * FROM USERS U, ORDERS U WHERE U.USER_ID = 1",
            )
            .unwrap_err();
        assert!(
            err.to_string().contains("duplicate table alias"),
            "unexpected message: {err}"
        );
        // Same base table twice without aliases is the same mistake.
        let err = compiler
            .add_statement("bad3", "SELECT * FROM USERS, USERS")
            .unwrap_err();
        assert!(
            err.to_string().contains("duplicate table alias"),
            "unexpected message: {err}"
        );
        // HAVING without any grouping is rejected, not silently dropped.
        let err = compiler
            .add_statement("bad4", "SELECT USERNAME FROM USERS HAVING USERNAME = 'x'")
            .unwrap_err();
        assert!(
            err.to_string().contains("GROUP BY"),
            "unexpected message: {err}"
        );
    }

    #[test]
    fn unknown_tables_and_columns_are_rejected() {
        let catalog = catalog();
        let mut compiler = SqlCompiler::new(&catalog);
        assert!(compiler
            .add_statement("bad", "SELECT * FROM NO_SUCH_TABLE")
            .is_err());
        assert!(compiler
            .add_statement("bad2", "SELECT * FROM USERS WHERE NO_COLUMN = 1")
            .is_err());
        assert!(compiler
            .add_statement("bad3", "INSERT INTO USERS VALUES (1)")
            .is_err());
    }

    /// Rule 1: `column = ?` on a key reads through the table's one shared
    /// index probe — the other conjuncts become its residual — so the
    /// look-up is a light statement. Grouped or limited statements keep the
    /// shared scan.
    #[test]
    fn a_key_lookup_is_a_light_probe() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(
            &catalog,
            &[
                ("userById", "SELECT * FROM USERS WHERE USER_ID = ?"),
                (
                    "richUserById",
                    "SELECT USERNAME FROM USERS WHERE ACCOUNT > ? AND USER_ID = ?",
                ),
                (
                    "firstUserById",
                    "SELECT * FROM USERS WHERE USER_ID = ? LIMIT 1",
                ),
            ],
        )
        .unwrap();
        registry.validate(&plan).unwrap();
        let census = plan.operator_census();
        assert_eq!(census.get("Probe(USERS)"), Some(&1), "plan:\n{plan}");
        assert_eq!(census.get("Scan(USERS)"), Some(&1), "plan:\n{plan}");
        let (_, spec) = registry.get("richUserById").unwrap();
        assert_eq!(
            spec.activations,
            [(
                0,
                ActivationTemplate::Probe {
                    column: 0,
                    key: Expr::param(1),
                    residual: Some(Expr::col(3).gt(Expr::param(0))),
                }
            )]
        );
        let engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
        assert!(matches!(engine.statement_lane(0), Lane::Light));
        assert!(matches!(engine.statement_lane(1), Lane::Light));
        assert!(matches!(engine.statement_lane(2), Lane::Heavy));
        let rows = engine.execute_sync("userById", &[Value::Int(7)]).unwrap();
        assert_eq!(rows.rows().len(), 1);
        assert_eq!(rows.rows()[0][1], Value::text("user7"));
        let rich = |account: i64| {
            let params = [Value::Int(account), Value::Int(7)];
            engine
                .execute_sync("richUserById", &params)
                .unwrap()
                .rows()
                .len()
        };
        assert_eq!((rich(60), rich(70)), (1, 0));
    }

    /// Rule 2: a table no predicate narrows, joined on its key, is looked up
    /// by a shared index-NL join over the other side and gets no scan;
    /// statements joining the same way share it. Rule 3: ORDER BY with LIMIT
    /// is a shared Top-N keyed by (input, keys).
    #[test]
    fn key_joins_look_up_and_limited_orders_are_top_n() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(
            &catalog,
            &[
                (
                    "okOrdersWithUser",
                    "SELECT * FROM ORDERS O, USERS U WHERE O.USER_ID = U.USER_ID AND O.STATUS = ?",
                ),
                (
                    "bigOrdersWithUser",
                    "SELECT * FROM ORDERS O, USERS U WHERE O.USER_ID = U.USER_ID AND O.STATUS = ? \
                     ORDER BY O.TOTAL DESC, O.ORDER_ID LIMIT 5",
                ),
                (
                    "smallOrdersWithUser",
                    "SELECT * FROM ORDERS O, USERS U WHERE U.USER_ID = O.USER_ID AND O.TOTAL < ? \
                     ORDER BY O.TOTAL DESC, O.ORDER_ID LIMIT 3",
                ),
            ],
        )
        .unwrap();
        registry.validate(&plan).unwrap();
        let census = plan.operator_census();
        assert_eq!(census.get("IndexNlJoin(USERS)"), Some(&1), "plan:\n{plan}");
        assert_eq!(census.get("Scan(USERS)"), None, "plan:\n{plan}");
        assert_eq!(census.get("TopN"), Some(&1), "plan:\n{plan}");
        assert_eq!(census.get("Sort"), None, "plan:\n{plan}");
        assert_eq!(plan.len(), 3, "plan:\n{plan}");
        let engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
        let ok = [Value::text("OK")];
        let all = engine.execute_sync("okOrdersWithUser", &ok).unwrap();
        assert_eq!(all.rows().len(), 50);
        assert!(all.rows().iter().all(|r| r[1] == r[4]));
        let page = engine.execute_sync("bigOrdersWithUser", &ok).unwrap();
        let ids: Vec<&Value> = page.rows().iter().map(|r| &r[0]).collect();
        // OK orders are the multiples of 3 below 150, TOTAL = id % 40.
        assert_eq!(
            ids,
            [39, 78, 117, 36, 75]
                .map(Value::Int)
                .iter()
                .collect::<Vec<_>>()
        );
        let small = engine
            .execute_sync("smallOrdersWithUser", &[Value::Float(1.0)])
            .unwrap();
        let ids: Vec<&Value> = small.rows().iter().map(|r| &r[0]).collect();
        assert_eq!(ids, [0, 40, 80].map(Value::Int).iter().collect::<Vec<_>>());
    }

    /// A statement that de-duplicates again at routing keeps its LIMIT after
    /// that: a Sort, not a Top-N.
    #[test]
    fn a_limit_after_routing_distinct_stays_a_sort() {
        let catalog = catalog();
        let (plan, registry) = compile_workload(
            &catalog,
            &[(
                "countries",
                "SELECT DISTINCT COUNTRY FROM USERS ORDER BY COUNTRY LIMIT 1",
            )],
        )
        .unwrap();
        let census = plan.operator_census();
        assert_eq!(census.get("Sort"), Some(&1), "plan:\n{plan}");
        assert_eq!(census.get("TopN"), None, "plan:\n{plan}");
        let engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
        let rows = engine.execute_sync("countries", &[]).unwrap();
        assert_eq!(rows.rows(), [shareddb_common::tuple!["CH"]]);
    }

    /// `?N` binds the ad-hoc literal at its number: `adminUpdateItem` is
    /// called with the key first though its SET list comes first.
    #[test]
    fn numbered_parameters_bind_adhoc_literals_by_number() {
        let template =
            canonicalize("UPDATE ITEM SET I_COST = ?2, I_PUB_DATE = ?3 WHERE I_ID = ?1").unwrap();
        assert_eq!(
            template.slots,
            [2, 3, 1].map(|n| TemplateSlot::Param(n - 1))
        );
        let adhoc =
            canonicalize("update item set i_cost = 12.5, i_pub_date = 15403 where i_id = 7")
                .unwrap();
        assert_eq!(template.canonical, adhoc.canonical);
        assert_eq!(
            bind_adhoc(&template, &adhoc).unwrap(),
            [Value::Int(7), Value::Float(12.5), Value::Int(15_403)]
        );
    }

    #[test]
    fn canonicalization_extracts_literals() {
        let template =
            canonicalize("SELECT * FROM USERS WHERE USERNAME = ? AND COUNTRY = 'CH'").unwrap();
        let adhoc =
            canonicalize("select * from users where username = 'bob' and country = 'CH'").unwrap();
        assert_eq!(template.canonical, adhoc.canonical);
        let params = bind_adhoc(&template, &adhoc).unwrap();
        assert_eq!(params, vec![Value::text("bob")]);
    }

    #[test]
    fn parse_explain_strips_the_keyword_prefix() {
        assert_eq!(
            parse_explain("EXPLAIN SELECT * FROM ITEM"),
            Some((false, "SELECT * FROM ITEM"))
        );
        assert_eq!(
            parse_explain("  explain analyze  select * from item where i_id = 1"),
            Some((true, "select * from item where i_id = 1"))
        );
        // Word-bounded: identifiers starting with the keyword are untouched.
        assert_eq!(parse_explain("EXPLAINER"), None);
        assert_eq!(parse_explain("SELECT * FROM EXPLAIN_LOG"), None);
        // ANALYZE must be its own word too.
        assert_eq!(parse_explain("EXPLAIN ANALYZER"), Some((false, "ANALYZER")));
        // A bare statement name works (resolved by the server).
        assert_eq!(parse_explain("EXPLAIN getItem"), Some((false, "getItem")));
        assert_eq!(parse_explain("EXPLAIN"), Some((false, "")));
        assert_eq!(parse_explain("EXPLAIN ANALYZE"), Some((true, "")));
    }

    #[test]
    fn adhoc_literal_mismatch_is_a_different_type() {
        let template =
            canonicalize("SELECT * FROM USERS WHERE USERNAME = ? AND COUNTRY = 'CH'").unwrap();
        let adhoc =
            canonicalize("SELECT * FROM USERS WHERE USERNAME = 'bob' AND COUNTRY = 'DE'").unwrap();
        assert!(bind_adhoc(&template, &adhoc).is_err());
    }

    #[test]
    fn negative_literals_match_parameter_templates() {
        let template = canonicalize("SELECT * FROM ITEM WHERE I_ID = ?").unwrap();
        let adhoc = canonicalize("SELECT * FROM ITEM WHERE I_ID = -1").unwrap();
        assert_eq!(template.canonical, adhoc.canonical);
        assert_eq!(bind_adhoc(&template, &adhoc).unwrap(), vec![Value::Int(-1)]);
        let adhoc = canonicalize("SELECT * FROM ITEM WHERE I_ID = -2.5").unwrap();
        assert_eq!(adhoc.slots, vec![TemplateSlot::Literal(Value::Float(-2.5))]);
        // Binary subtraction is NOT folded: `A - 1` keeps its minus.
        let t = canonicalize("SELECT * FROM T WHERE A - 1 = ?").unwrap();
        assert!(t.canonical.contains("A - ?"), "{}", t.canonical);
    }

    #[test]
    fn canonical_numbers_parse_to_values() {
        let t = canonicalize("SELECT * FROM ORDERS WHERE TOTAL >= 1.5 AND ORDER_ID = 3").unwrap();
        assert_eq!(
            t.slots,
            vec![
                TemplateSlot::Literal(Value::Float(1.5)),
                TemplateSlot::Literal(Value::Int(3)),
            ]
        );
    }

    #[test]
    fn negative_literals_after_keywords_are_unary() {
        // Keywords tokenise as identifiers, but a minus after one is still a
        // sign: `WHERE -5 < A` must be the same statement type as
        // `WHERE ? < A`.
        let template = canonicalize("SELECT * FROM T WHERE ? < A").unwrap();
        let adhoc = canonicalize("SELECT * FROM T WHERE -5 < A").unwrap();
        assert_eq!(template.canonical, adhoc.canonical);
        assert_eq!(bind_adhoc(&template, &adhoc).unwrap(), vec![Value::Int(-5)]);
        // Both BETWEEN bounds fold (after the keywords BETWEEN and AND).
        let template = canonicalize("SELECT * FROM T WHERE A BETWEEN ? AND ?").unwrap();
        let adhoc = canonicalize("SELECT * FROM T WHERE A BETWEEN -2 AND -1").unwrap();
        assert_eq!(template.canonical, adhoc.canonical);
        assert_eq!(
            bind_adhoc(&template, &adhoc).unwrap(),
            vec![Value::Int(-2), Value::Int(-1)]
        );
        // After a real identifier (a column), the minus stays binary.
        let t = canonicalize("SELECT * FROM T WHERE ACCOUNT - 1 = ?").unwrap();
        assert!(t.canonical.contains("ACCOUNT - ?"), "{}", t.canonical);
    }

    #[test]
    fn escaped_quote_literals_match_their_statement_type() {
        let template = canonicalize("SELECT * FROM USERS WHERE USERNAME = ?").unwrap();
        let adhoc = canonicalize("SELECT * FROM USERS WHERE USERNAME = 'O''Brien'").unwrap();
        assert_eq!(template.canonical, adhoc.canonical);
        assert_eq!(
            bind_adhoc(&template, &adhoc).unwrap(),
            vec![Value::text("O'Brien")]
        );
        // A fixed escaped-quote literal must agree between the registered
        // template and the ad-hoc statement...
        let fixed = canonicalize("SELECT * FROM USERS WHERE USERNAME = 'O''Brien' AND COUNTRY = ?")
            .unwrap();
        let matching =
            canonicalize("select * from users where username = 'O''Brien' and country = 'IE'")
                .unwrap();
        assert_eq!(
            bind_adhoc(&fixed, &matching).unwrap(),
            vec![Value::text("IE")]
        );
        // ...and a different unescaped spelling is a different type.
        let other =
            canonicalize("SELECT * FROM USERS WHERE USERNAME = 'OBrien' AND COUNTRY = 'IE'")
                .unwrap();
        assert!(bind_adhoc(&fixed, &other).is_err());
    }

    /// Registered statements carrying signed literals and escaped-quote
    /// string literals compile and execute — the full parser → template →
    /// engine path, not just canonicalisation.
    #[test]
    fn negative_and_escaped_literals_execute_end_to_end() {
        let catalog = catalog();
        let workload: &[(&str, &str)] = &[
            ("overdrawn", "SELECT * FROM USERS WHERE ACCOUNT < -10"),
            ("obrien", "SELECT * FROM USERS WHERE USERNAME = 'O''Brien'"),
            (
                "seedUser",
                "INSERT INTO USERS VALUES (-1, 'O''Brien', 'IE', -500)",
            ),
        ];
        let (plan, registry) = compile_workload(&catalog, workload).unwrap();
        let engine = Engine::start(catalog, plan, registry, EngineConfig::default()).unwrap();
        assert_eq!(
            engine.execute_sync("overdrawn", &[]).unwrap().rows().len(),
            0
        );
        assert_eq!(
            engine
                .execute_sync("seedUser", &[])
                .unwrap()
                .rows_affected(),
            1
        );
        let outcome = engine.execute_sync("overdrawn", &[]).unwrap();
        assert_eq!(outcome.rows().len(), 1);
        assert_eq!(outcome.rows()[0][0], Value::Int(-1));
        assert_eq!(outcome.rows()[0][3], Value::Int(-500));
        let outcome = engine.execute_sync("obrien", &[]).unwrap();
        assert_eq!(outcome.rows().len(), 1);
        assert_eq!(outcome.rows()[0][1], Value::text("O'Brien"));
    }
}
