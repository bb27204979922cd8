//! Row demand: a statement's Top-N limit, carried one edge down the plan.
//!
//! A query that a Top-N `t` cuts to its first `limit` rows under sort keys
//! `K` needs, of `t`'s producer `p`, only the rows that can be among them.
//! [`push_down`] finds those `(t, p)` pairs per statement and rewrites the
//! statement's activation template at `p` into an
//! [`ActivationTemplate::Demand`] carrying `(K, limit)`; the operator at `p`
//! then emits, for that query, any sub-sequence of its output that contains
//! the query's first `limit` rows under `(K, arrival position)` — which a
//! stable cut above cannot tell from the whole (`docs/ARCHITECTURE.md`, *Row
//! demand*). No plan node moves: the plan keeps its shape, a query its path.

use crate::plan::{
    ActivationTemplate, GlobalPlan, OperatorId, OperatorSpec, StatementKind, StatementRegistry,
    StatementSpec,
};
use shareddb_common::SortKey;
use std::sync::Arc;

/// Derives the row demands of every query statement of `registry` against
/// `plan`. Idempotent: demands already there are derived again from the
/// templates under them.
pub fn push_down(plan: &GlobalPlan, registry: &mut StatementRegistry) {
    for spec in registry.statements_mut() {
        push_down_statement(plan, spec);
    }
}

/// A Top-N that cuts the statement's rows: `(t, K, limit)`.
type Cut = (OperatorId, Arc<[SortKey]>, usize);

fn push_down_statement(plan: &GlobalPlan, spec: &mut StatementSpec) {
    let StatementKind::Query { root, .. } = &spec.kind else {
        return;
    };
    let root = *root;
    for (_, template) in &mut spec.activations {
        *template = template.base().clone();
    }
    let mut cuts: Vec<Cut> = Vec::new();
    for (t, template) in &spec.activations {
        if let (OperatorSpec::TopN { keys }, ActivationTemplate::TopN { limit }) =
            (&plan.node(*t).spec, template)
        {
            cuts.push((*t, keys.as_slice().into(), *limit));
        }
    }
    for (t, keys, limit) in cuts {
        let Some(p) = producer(plan, spec, root, t, &keys) else {
            continue;
        };
        for (op, template) in &mut spec.activations {
            if *op == p {
                *template = ActivationTemplate::Demand {
                    base: Box::new(template.clone()),
                    keys: Arc::clone(&keys),
                    limit,
                    consumer: t,
                };
            }
        }
    }
}

/// The producer of `t` when it may prune for the statement under `keys`:
/// the statement participates in it exactly once, takes its rows nowhere but
/// to `t`, and the operator can rank its output before it builds it.
fn producer(
    plan: &GlobalPlan,
    spec: &StatementSpec,
    root: OperatorId,
    t: OperatorId,
    keys: &[SortKey],
) -> Option<OperatorId> {
    let &[p] = plan.node(t).inputs.as_slice() else {
        return None;
    };
    let activated = |op: OperatorId| spec.activations.iter().filter(|(o, _)| *o == op).count();
    let read_elsewhere = spec
        .activations
        .iter()
        .any(|(op, _)| *op != t && plan.node(*op).inputs.contains(&p));
    if activated(p) != 1 || p == root || read_elsewhere {
        return None;
    }
    let node = plan.node(p);
    match &node.spec {
        // The keys must be known before the look-up: all in the outer row.
        OperatorSpec::IndexNlJoin { .. } => {
            let outer_width = plan.node(node.inputs[0]).schema.len();
            keys.iter().all(|k| k.column < outer_width).then_some(p)
        }
        // Whether the activation is in partial mode is known when it is
        // bound: the operator reads no demand off a partial query.
        OperatorSpec::GroupBy { .. } => Some(p),
        _ => None,
    }
}
