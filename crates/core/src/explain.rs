//! EXPLAIN / EXPLAIN ANALYZE over the live global plan.
//!
//! SharedDB never compiles a per-query plan, so a classical EXPLAIN ("the
//! plan this query will get") does not exist. What *does* exist — and what
//! this module renders — is the statement type's view of the always-on
//! [`GlobalPlan`]: the operator subtree under the statement's root, each node
//! annotated with its **sharing set** (which other registered statement types
//! run through the same operator). `EXPLAIN ANALYZE` additionally folds in
//! live runtime stats: per-node cycle/row/busy counters and the
//! per-statement-type cost attribution of
//! [`crate::stats::AttributionTable`], which is the only way to see who pays
//! for a shared cycle.
//!
//! Everything here is a pure function over plan + registry (+ optional
//! snapshots; the catalog only says which columns of an update's table are
//! indexed), so the server, the `plan_dump` bin and the golden-output
//! conformance tests all render through one code path.

use crate::plan::{
    ActivationTemplate, GlobalPlan, OperatorId, StatementKind, StatementRegistry, StatementSpec,
    UpdateTemplate,
};
use crate::stats::EngineStatsSnapshot;
use shareddb_common::{DataType, Expr, Schema, SortOrder, Value};
use shareddb_storage::{AccessPath, Catalog, PredicateClass};
use std::fmt::Write as _;

/// One operator of an [`ExplainTree`], annotated with its sharing set.
#[derive(Debug)]
struct ExplainNode {
    /// Operator id in the global plan.
    id: OperatorId,
    /// Operator name (e.g. `Scan(ITEM)#0`).
    name: String,
    /// Ids of the input operators.
    inputs: Vec<OperatorId>,
    /// Names of every statement type sharing this operator (reachability ∪
    /// activations over the whole registry), in registry order. Always
    /// includes the explained statement itself.
    sharing: Vec<String>,
    /// True when the explained statement has an activation template on this
    /// operator (as opposed to merely consuming its output downstream).
    activated: bool,
}

/// The annotated operator subtree of one statement type.
#[derive(Debug)]
struct ExplainTree {
    /// Statement name.
    statement: String,
    /// Root operator (the statement's result source); `None` for updates,
    /// which bypass the operator plan entirely.
    root: Option<OperatorId>,
    /// The subtree nodes in ascending id order (empty for updates).
    nodes: Vec<ExplainNode>,
}

impl ExplainTree {
    /// The node for operator `id`, if it is part of this statement's subtree.
    fn node(&self, id: OperatorId) -> Option<&ExplainNode> {
        self.nodes.iter().find(|n| n.id == id)
    }
}

/// The per-operator sharing sets of the whole plan: for each operator, the
/// ascending registry indices of every statement type whose subtree or
/// activation list touches it. An operator's **sharing factor** is the length
/// of its set — the quantity SharedDB exists to maximise.
pub fn sharing_sets(plan: &GlobalPlan, registry: &StatementRegistry) -> Vec<Vec<usize>> {
    let mut sets: Vec<Vec<usize>> = vec![Vec::new(); plan.len()];
    for (idx, spec) in registry.iter().enumerate() {
        let mut touched = vec![false; plan.len()];
        if let Some(root) = spec.root() {
            mark_subtree(plan, root, &mut touched);
        }
        for (op, _) in &spec.activations {
            touched[*op] = true;
        }
        for (op, hit) in touched.iter().enumerate() {
            if *hit {
                sets[op].push(idx);
            }
        }
    }
    sets
}

fn mark_subtree(plan: &GlobalPlan, root: OperatorId, touched: &mut [bool]) {
    if touched[root] {
        return;
    }
    touched[root] = true;
    for &input in &plan.node(root).inputs {
        mark_subtree(plan, input, touched);
    }
}

/// Builds the annotated subtree for the statement at `index`.
fn explain_statement(plan: &GlobalPlan, registry: &StatementRegistry, index: usize) -> ExplainTree {
    let spec = registry.by_index(index);
    let root = spec.root();
    let mut nodes = Vec::new();
    if let Some(root) = root {
        let sets = sharing_sets(plan, registry);
        let mut touched = vec![false; plan.len()];
        mark_subtree(plan, root, &mut touched);
        for (op, _) in &spec.activations {
            touched[*op] = true;
        }
        for node in plan.nodes() {
            if !touched[node.id] {
                continue;
            }
            nodes.push(ExplainNode {
                id: node.id,
                name: node.name.clone(),
                inputs: node.inputs.clone(),
                sharing: sets[node.id]
                    .iter()
                    .map(|&s| registry.by_index(s).name.clone())
                    .collect(),
                activated: spec.activations.iter().any(|(o, _)| *o == node.id),
            });
        }
    }
    ExplainTree {
        statement: spec.name.clone(),
        root,
        nodes,
    }
}

/// Renders the statement's annotated subtree as indented text — the body of
/// an `EXPLAIN [ANALYZE]` reply. Deterministic for a fixed plan + registry
/// (golden-tested over the SQL conformance corpus); `analyze` — an engine's
/// [`crate::Engine::stats`] — appends live counters and the
/// per-statement attributed costs under each node. An
/// `UPDATE`/`DELETE` statement shows the access path its rows are found by,
/// a query the predicate-index class each of its scan predicates lands in
/// and, beside it, the access path a cycle of such queries alone can take.
pub fn render_explain_text(
    catalog: &Catalog,
    plan: &GlobalPlan,
    registry: &StatementRegistry,
    index: usize,
    analyze: Option<&EngineStatsSnapshot>,
) -> String {
    let tree = explain_statement(plan, registry, index);
    let spec = registry.by_index(index);
    let mut out = String::new();
    match (&spec.kind, tree.root) {
        (StatementKind::Update { table, template }, _) => {
            let _ = writeln!(
                out,
                "statement {}: update on table {table} (no shared operators; applied \
                 by the storage owner of {table})",
                tree.statement
            );
            if let UpdateTemplate::Update { predicate, .. } | UpdateTemplate::Delete { predicate } =
                template
            {
                let path = template_access_path(catalog, table, predicate);
                let _ = writeln!(out, "  rows found by: {path}");
            }
        }
        (_, Some(root)) => {
            let _ = writeln!(out, "statement {}: query", tree.statement);
            let classes: Vec<(OperatorId, String)> = spec
                .activations
                .iter()
                .filter_map(|(op, template)| match template {
                    ActivationTemplate::Scan { predicate } => {
                        let node = plan.node(*op);
                        let class = template_class(&node.schema, predicate);
                        let table = node.spec.storage_table().unwrap_or_default();
                        // A scan query is served through an index only when
                        // every query of its cycle can be, and cheaply.
                        let path = template_access_path(catalog, table, predicate);
                        let when = match path.starts_with("scan") {
                            true => "",
                            false => " when the cycle allows",
                        };
                        Some((*op, format!("{class} · {path}{when}")))
                    }
                    _ => None,
                })
                .collect();
            let demands = spec
                .activations
                .iter()
                .filter_map(|(op, template)| Some((*op, describe_demand(plan, *op, template)?)));
            let group_joins = tree
                .nodes
                .iter()
                .filter_map(|node| describe_group_join(plan, registry, node));
            let notes: Vec<(OperatorId, String)> = demands.chain(group_joins).collect();
            render_node_text(&tree, root, 1, &classes, &notes, analyze, &mut out);
        }
        (_, None) => {
            let _ = writeln!(out, "statement {}: query (no root)", tree.statement);
        }
    }
    out
}

/// The template as the storage layer classifies it: both the access-path
/// chooser and the predicate index read only the top-level `column ⟨cmp⟩
/// literal` conjuncts, so each `column ⟨cmp⟩ $n` conjunct is shown to them
/// with a literal of the column's own type — which is all they need of a
/// literal — each `column LIKE $n` with a prefix pattern, the kindest a
/// parameter can be (a range of a value index, a gram of a gram index), and
/// the rest as it is.
fn with_typed_params(schema: &Schema, predicate: &Expr) -> Expr {
    let typed = |conjunct: &Expr| -> Option<Expr> {
        if let Expr::Like {
            expr,
            pattern,
            negated,
        } = conjunct
        {
            return matches!(**pattern, Expr::Param(_)).then(|| Expr::Like {
                expr: expr.clone(),
                pattern: Box::new(Expr::lit("prefix%")),
                negated: *negated,
            });
        }
        let Expr::Binary { op, left, right } = conjunct else {
            return None;
        };
        let column = match (left.as_ref(), right.as_ref()) {
            (Expr::Column(c), Expr::Param(_)) | (Expr::Param(_), Expr::Column(c)) => *c,
            _ => return None,
        };
        let literal = match schema.columns().get(column)?.data_type {
            DataType::Int => Value::Int(0),
            DataType::Float => Value::Float(0.0),
            DataType::Text => Value::text(""),
            DataType::Bool => Value::Bool(false),
            DataType::Date => Value::Date(0),
        };
        let side = |e: &Expr| match e {
            Expr::Param(_) => Expr::Literal(literal.clone()),
            other => other.clone(),
        };
        op.is_comparison()
            .then(|| side(left).binary(*op, side(right)))
    };
    let conjuncts = predicate.split_conjuncts().into_iter();
    Expr::conjunction(
        conjuncts
            .map(|c| typed(c).unwrap_or_else(|| c.clone()))
            .collect(),
    )
}

/// The access path the storage layer picks for the WHERE clause of an update
/// template or the predicate of a scan template (`pk(I_ID)`,
/// `index(SCL_CART)`, `index(AUTHOR_LNAME) range`, `index(ITEM_TITLE) grams`,
/// `scan`). A range that hangs on a pattern still to be bound says so: a
/// pattern that turns out to be no prefix is left to the scan (as one that
/// turns out to hold no gram is, on a column indexed by gram).
fn template_access_path(catalog: &Catalog, table: &str, predicate: &Expr) -> String {
    let Ok(handle) = catalog.table(table) else {
        return format!("scan (no table {table} in the catalog)");
    };
    let table = handle.read();
    let typed = with_typed_params(table.schema(), predicate);
    let path = AccessPath::choose(&table, &typed);
    let unbound =
        |c: &&Expr| matches!(c, Expr::Like { pattern, .. } if matches!(**pattern, Expr::Param(_)));
    let hangs = matches!(path, AccessPath::IndexRange { .. })
        && predicate.split_conjuncts().iter().any(unbound);
    let if_prefix = if hangs { " for a prefix pattern" } else { "" };
    format!("{}{if_prefix}", path.describe(&table))
}

/// The predicate-index class a scan template lands in every cycle
/// (`eq(I_SUBJECT)`, `range(OL_O_ID)`, `residual`).
fn template_class(schema: &Schema, predicate: &Expr) -> String {
    let name = |column: usize| &schema.columns()[column].name;
    match PredicateClass::of(&with_typed_params(schema, predicate)) {
        PredicateClass::Equality(column) => format!("eq({})", name(column)),
        PredicateClass::Range(column) => format!("range({})", name(column)),
        PredicateClass::Residual => "residual".to_string(),
    }
}

/// The row demand a template carries, as EXPLAIN shows it on the line of the
/// operator that honours it: `top 50 by [I_PUB_DATE desc, I_TITLE] for
/// TopN#9`.
fn describe_demand(
    plan: &GlobalPlan,
    op: OperatorId,
    template: &ActivationTemplate,
) -> Option<String> {
    let ActivationTemplate::Demand {
        keys,
        limit,
        consumer,
        ..
    } = template
    else {
        return None;
    };
    let schema = &plan.node(op).schema;
    let keys: Vec<String> = keys
        .iter()
        .map(|key| {
            let name = &schema.column(key.column).name;
            match key.order {
                SortOrder::Ascending => name.clone(),
                SortOrder::Descending => format!("{name} desc"),
            }
        })
        .collect();
    Some(format!(
        "top {limit} by [{}] for {}",
        keys.join(", "),
        plan.node(*consumer).name
    ))
}

/// The join a group-by node runs inside its cycle, as EXPLAIN shows it on
/// the join's line: `runs inside GroupBy#13` — `when the batch allows` when
/// some statement reads the join without the group-by, so that a batch with
/// it runs the two apart.
fn describe_group_join(
    plan: &GlobalPlan,
    registry: &StatementRegistry,
    group_by: &ExplainNode,
) -> Option<(OperatorId, String)> {
    let join = plan.group_join_of(group_by.id)?;
    let activates =
        |spec: &StatementSpec, op: OperatorId| spec.activations.iter().any(|(o, _)| *o == op);
    let apart = registry
        .iter()
        .any(|spec| activates(spec, join) && !activates(spec, group_by.id));
    let when = if apart { " when the batch allows" } else { "" };
    Some((join, format!("runs inside {}{when}", group_by.name)))
}

fn render_node_text(
    tree: &ExplainTree,
    id: OperatorId,
    depth: usize,
    classes: &[(OperatorId, String)],
    notes: &[(OperatorId, String)],
    analyze: Option<&EngineStatsSnapshot>,
    out: &mut String,
) {
    let Some(node) = tree.node(id) else { return };
    let indent = "  ".repeat(depth);
    let _ = write!(
        out,
        "{indent}{} [shared by {}: {}]",
        node.name,
        node.sharing.len(),
        node.sharing.join(", ")
    );
    if node.activated {
        out.push_str(" (activated)");
    }
    for (_, note) in notes.iter().filter(|(op, _)| *op == id) {
        let _ = write!(out, " {note}");
    }
    out.push('\n');
    for (_, class) in classes.iter().filter(|(op, _)| *op == id) {
        let _ = writeln!(out, "{indent}  predicate: {class}");
    }
    if let Some(data) = analyze {
        if let Some(op) = data.operators.get(id) {
            let _ = writeln!(
                out,
                "{indent}  · cycles={} active={} rows={} pruned={} busy={}us",
                op.cycles,
                op.active_cycles,
                op.tuples_out,
                op.rows_pruned,
                op.busy.as_micros()
            );
        }
        for entry in data.attribution.iter().filter(|e| {
            e.operator == node.name && (e.activations > 0 || e.rows > 0 || !e.busy.is_zero())
        }) {
            let _ = writeln!(
                out,
                "{indent}  · attributed {}: activations={} rows={} busy={}us",
                entry.statement,
                entry.activations,
                entry.rows,
                entry.busy.as_micros()
            );
        }
    }
    for &input in &node.inputs {
        render_node_text(tree, input, depth + 1, classes, notes, analyze, out);
    }
}

/// Renders the whole plan as a Graphviz digraph, with the subtree of the
/// statement at `index` (when given) filled and every node labelled with its
/// sharing factor. Edges point data-flow-wise, input → consumer.
pub fn render_dot(
    plan: &GlobalPlan,
    registry: &StatementRegistry,
    highlight: Option<usize>,
) -> String {
    let sets = sharing_sets(plan, registry);
    let mut touched = vec![false; plan.len()];
    if let Some(index) = highlight {
        let spec = registry.by_index(index);
        if let Some(root) = spec.root() {
            mark_subtree(plan, root, &mut touched);
        }
        for (op, _) in &spec.activations {
            touched[*op] = true;
        }
    }
    let mut out = String::from("digraph global_plan {\n  rankdir=BT;\n  node [shape=box];\n");
    for node in plan.nodes() {
        let style = if touched[node.id] {
            ", style=filled, fillcolor=lightgoldenrod"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "  op{} [label=\"{}\\nshared by {}\"{style}];",
            node.id,
            node.name.replace('"', "\\\""),
            sets[node.id].len()
        );
    }
    for node in plan.nodes() {
        for &input in &node.inputs {
            let _ = writeln!(out, "  op{input} -> op{};", node.id);
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ActivationTemplate, PlanBuilder, StatementSpec, UpdateTemplate};
    use shareddb_common::SortKey;
    use shareddb_storage::{IndexDef, IndexKind, TableDef};
    use std::time::Duration;

    fn fixture() -> (Catalog, GlobalPlan, StatementRegistry) {
        let catalog = Catalog::new();
        catalog
            .create_table(
                TableDef::new("T")
                    .column("ID", DataType::Int)
                    .column("V", DataType::Int)
                    .column("NOTE", DataType::Text)
                    .primary_key(&["ID"]),
            )
            .unwrap();
        catalog
            .create_index(IndexDef {
                name: "T_V".into(),
                table: "T".into(),
                column: "V".into(),
                kind: IndexKind::Values,
            })
            .unwrap();
        catalog
            .create_index(IndexDef {
                name: "T_NOTE".into(),
                table: "T".into(),
                column: "NOTE".into(),
                kind: IndexKind::Grams,
            })
            .unwrap();
        let mut builder = PlanBuilder::new(&catalog);
        let scan = builder.table_scan("T").unwrap();
        let sort = builder.sort(scan, vec![SortKey::asc(0)]).unwrap();
        let plan = builder.build();
        let mut registry = StatementRegistry::new();
        registry
            .register(StatementSpec::query("pointT", scan).activate(
                scan,
                ActivationTemplate::Scan {
                    predicate: Expr::col(0).eq(Expr::param(0)),
                },
            ))
            .unwrap();
        registry
            .register(
                StatementSpec::query("allT", sort)
                    .activate(
                        scan,
                        ActivationTemplate::Scan {
                            predicate: Expr::lit(true),
                        },
                    )
                    .activate(sort, ActivationTemplate::Participate),
            )
            .unwrap();
        registry
            .register(StatementSpec::update(
                "addT",
                "T",
                UpdateTemplate::Insert {
                    values: vec![Expr::lit(0i64), Expr::lit(0i64), Expr::lit("")],
                },
            ))
            .unwrap();
        let mut delete = |name: &str, predicate: Expr| {
            let template = UpdateTemplate::Delete { predicate };
            registry
                .register(StatementSpec::update(name, "T", template))
                .unwrap();
        };
        let note_is = Expr::col(2).eq(Expr::param(1));
        delete("byPk", Expr::param(0).eq(Expr::col(0)).and(note_is.clone()));
        delete(
            "byIndex",
            Expr::col(1).eq(Expr::param(0)).and(note_is.clone()),
        );
        delete("byScan", note_is.or(Expr::col(0).eq(Expr::param(0))));
        // A literal the index's order cannot be trusted with: scan.
        delete("byFloat", Expr::col(0).eq(Expr::lit(1.5f64)));
        // A pattern still to be bound, on a column indexed by gram.
        delete("byInfix", Expr::col(2).like(Expr::param(0)));
        registry.validate(&plan).unwrap();
        (catalog, plan, registry)
    }

    #[test]
    fn sharing_sets_cover_subtrees_and_activations() {
        let (_, plan, registry) = fixture();
        let sets = sharing_sets(&plan, &registry);
        // The scan is shared by both queries; the sort only by allT; the
        // update statement shares nothing.
        assert_eq!(sets[0], vec![0, 1]);
        assert_eq!(sets[1], vec![1]);
    }

    #[test]
    fn explain_tree_annotates_sharing_and_activation() {
        let (_, plan, registry) = fixture();
        let tree = explain_statement(&plan, &registry, 1);
        assert_eq!(tree.statement, "allT");
        assert_eq!(tree.nodes.len(), 2);
        let scan = tree.node(0).unwrap();
        assert_eq!(scan.sharing, vec!["pointT".to_string(), "allT".to_string()]);
        assert!(scan.activated);
        let sort = tree.node(1).unwrap();
        assert_eq!(sort.sharing, vec!["allT".to_string()]);
        assert!(sort.activated);
        assert_eq!(tree.nodes.iter().filter(|n| n.sharing.len() > 1).count(), 1);
        // From pointT's side the sort is invisible (not in its subtree).
        let point = explain_statement(&plan, &registry, 0);
        assert_eq!(point.nodes.len(), 1);
        assert!(point.node(1).is_none());
    }

    #[test]
    fn text_rendering_is_deterministic_and_marks_updates() {
        let (catalog, plan, registry) = fixture();
        let text = render_explain_text(&catalog, &plan, &registry, 1, None);
        assert!(text.starts_with("statement allT: query\n"));
        assert!(text.contains("[shared by 2: pointT, allT]"));
        assert_eq!(
            text,
            render_explain_text(&catalog, &plan, &registry, 1, None)
        );
        // A scan predicate shows its class and the path a cycle can take.
        assert!(text.contains("  predicate: residual · scan\n"), "{text}");
        let point = render_explain_text(&catalog, &plan, &registry, 0, None);
        let by_key = "  predicate: eq(ID) · pk(ID) when the cycle allows\n";
        assert!(point.contains(by_key), "{point}");
        let update = render_explain_text(&catalog, &plan, &registry, 2, None);
        assert!(update.contains("update on table T"));
        assert!(
            !update.contains("rows found by"),
            "an insert selects no rows"
        );
        // UPDATE/DELETE statements name the access path of their template.
        let paths = [
            (3, "pk(ID)"),
            (4, "index(T_V)"),
            (5, "scan"),
            (6, "scan"),
            (7, "index(T_NOTE) grams"),
        ];
        for (index, path) in paths {
            let text = render_explain_text(&catalog, &plan, &registry, index, None);
            assert!(text.contains("update on table T"));
            assert!(
                text.ends_with(&format!("  rows found by: {path}\n")),
                "{text}"
            );
        }
        let dot = render_dot(&plan, &registry, Some(1));
        assert!(dot.starts_with("digraph global_plan {"));
        assert!(dot.contains("op0 -> op1;"));
        assert!(dot.contains("fillcolor=lightgoldenrod"));
    }

    #[test]
    fn analyze_appends_runtime_and_attribution() {
        let (catalog, plan, registry) = fixture();
        let data = EngineStatsSnapshot {
            operators: vec![
                crate::stats::OperatorStatsSnapshot {
                    name: plan.node(0).name.clone(),
                    cycles: 4,
                    active_cycles: 3,
                    tuples_out: 12,
                    rows_pruned: 7,
                    busy: Duration::from_micros(90),
                },
                crate::stats::OperatorStatsSnapshot {
                    name: plan.node(1).name.clone(),
                    cycles: 4,
                    active_cycles: 1,
                    tuples_out: 12,
                    rows_pruned: 0,
                    busy: Duration::from_micros(30),
                },
            ],
            attribution: vec![crate::stats::AttributionEntry {
                operator: plan.node(0).name.clone(),
                statement: "pointT".into(),
                activations: 3,
                rows: 9,
                busy: Duration::from_micros(60),
            }],
            wall: Duration::from_secs(1),
            ..EngineStatsSnapshot::default()
        };
        let text = render_explain_text(&catalog, &plan, &registry, 0, Some(&data));
        assert!(text.contains("cycles=4 active=3 rows=12 pruned=7 busy=90us"));
        assert!(text.contains("attributed pointT: activations=3 rows=9 busy=60us"));
    }
}
