//! The partitionability walker: which statement shapes can run over disjoint
//! horizontal row partitions, and how their partial results recombine.
//!
//! The analysis has one consumer: [`crate::engine::Engine`] with
//! `scan_segments > 1` splits its shared scans into row segments, runs an
//! eligible statement's plan once per segment (each a lane of the batch's
//! run, its activations rewritten by [`segment_activation`], all on the
//! batch's one snapshot) and recombines the partial results per batch
//! through [`crate::merge`]. Engine replicas
//! (`shareddb-cluster`) partition *statements*, never rows, and do not read
//! this module.

use crate::batch::{Activation, RowSlice};
use crate::merge::MergeSpec;
use crate::plan::StatementSpec;
use crate::plan::{ActivationTemplate, GlobalPlan, OperatorId, OperatorSpec, StatementKind};
use shareddb_common::agg::AggregateFunction;
use shareddb_storage::Catalog;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Partitioned ("scatter/gather") execution plan of one eligible statement
/// type: how to split its scans and how to merge the partial results.
#[derive(Debug, Clone)]
pub struct ScatterSpec {
    /// How the partial results of the partitions recombine (a grouped
    /// merge's HAVING is the engine's to fill in, per bound query).
    pub merge: MergeSpec,
    /// Per-scan partition-hash column overrides (co-partitioned join: both
    /// join inputs hash the join key). `None` = every scan hashes its
    /// table's primary key.
    pub partition_columns: Option<Arc<HashMap<OperatorId, Vec<usize>>>>,
    /// The group-by root runs in partial mode: HAVING deferred to the merge,
    /// AVG aggregates shipped as (sum, hidden count) partials
    /// ([`crate::batch::Activation::Having`]'s `partial`).
    pub partial_aggregation: bool,
    /// Scatter parameterised executions too. Heavy shapes (joins, blocking
    /// roots) win from partitioned work even when every execution carries
    /// parameters; a cheap scan/filter root with parameters runs whole — a
    /// point look-up must not become one walk of the plan per segment.
    pub scatter_with_params: bool,
}

/// Rewrites one bound activation for one row segment: a scan restricts to
/// slice `index` of `of` — hashing the walker's join-key columns when the
/// shape co-partitions a join, else the table's primary key — and a group-by
/// root switches to partial mode when the shape merges partial aggregates.
pub(crate) fn segment_activation(
    activation: &Activation,
    op: OperatorId,
    index: u32,
    of: u32,
    spec: &ScatterSpec,
) -> Activation {
    let mut rewritten = activation.clone();
    // A row demand stays: a segment's best rows contain its share of the
    // best rows overall.
    let mut base = &mut rewritten;
    while let Activation::Demand { base: inner, .. } = base {
        base = inner;
    }
    match base {
        Activation::Scan { slice, .. } => {
            let columns = spec.partition_columns.as_ref();
            let columns = columns.and_then(|m| m.get(&op).cloned());
            *slice = Some(RowSlice { index, of, columns });
        }
        Activation::Having { partial, .. } => *partial = spec.partial_aggregation,
        _ => {}
    }
    rewritten
}

/// Where a statement's tuples come from: one partitioned scan, or a
/// co-partitioned tree of hash equi-joins over scans.
enum Source {
    /// One shared table scan (partitioned by the table's primary key).
    Scan(OperatorId),
    /// A tree of hash equi-joins whose leaves are shared scans (possibly
    /// through filters), **every join keyed on one transitive equivalence
    /// class** that contains the partition key. Each leaf scan partitions by
    /// its own join-key column with the same `(index, of)`, so rows that join
    /// — directly or through the chain — always land in the same partition.
    Join(JoinTree),
}

/// Partitioning summary of a hash-equi-join tree.
struct JoinTree {
    /// Per-scan partition-hash column override (the scan's join key).
    scan_columns: HashMap<OperatorId, Vec<usize>>,
    /// Columns of the tree root's output schema that carry the partition key
    /// (the transitive join-key equivalence class).
    key_columns: Vec<usize>,
    /// At least one scan of the tree joins on its table's single-column
    /// primary key (the partitioning-key rule).
    keyed_on_pk: bool,
}

/// A shared group-by on the path between the source and the root.
struct GroupInfo {
    group_columns: Vec<usize>,
}

/// Decides whether a statement type can be scattered over partitioned scans,
/// and how its partial results merge. Conservative by construction: a shape
/// this function does not recognise is simply not partitioned.
///
/// Recognised shapes (all with identity projection and no computed columns):
///
/// * `scan → [filter*] → root`, where root is the scan/filter itself
///   (concat merge), a sort/Top-N (ordered merge), a group-by with no HAVING
///   (partial-aggregate merge, AVG shipped as sum/count partials) or a
///   DISTINCT (re-deduplicating merge);
/// * `scan ⨝ scan` equi-joins of the same form — including **multi-join
///   chains** (trees of hash equi-joins over scans) — **when every join of
///   the chain is keyed on the partitioning key**: the joins' key columns
///   form one transitive equivalence class, and at least one scan joins on
///   its table's single-column primary key. Every scan then scatters with
///   the same partition function over its own join-key column
///   (co-partitioning), which keeps every join match — direct or through the
///   chain — inside one partition. Joins not keyed on the partition class
///   run whole.
/// * a group-by **root** may carry a HAVING predicate: the group-by operators
///   run in partial mode (HAVING deferred) and the merge applies the
///   predicate to each recombined group — a partition must not filter a
///   partial group another partition may complete.
/// * a group-by *below* a sort/Top-N root (the `getBestSellers` shape) is
///   eligible when the grouping key contains the partition key — then every
///   group is complete within its partition and the per-partition Top-N
///   partials (and any local HAVING) merge exactly.
pub fn scatter_spec(
    catalog: &Catalog,
    plan: &GlobalPlan,
    spec: &StatementSpec,
) -> Option<ScatterSpec> {
    let StatementKind::Query {
        root,
        projection,
        compute,
        limit,
        // With the identity projection required below, the post-projection
        // DISTINCT equals the full-row dedup the Distinct merge performs.
        distinct: _,
    } = &spec.kind
    else {
        return None;
    };
    // Computed projections and non-identity column projections change the
    // row layout relative to the root schema the merge keys index into.
    if !compute.is_empty() {
        return None;
    }
    let width = plan.node(*root).schema.len();
    if !projection.is_empty() && *projection != (0..width).collect::<Vec<_>>() {
        return None;
    }

    let mut templates: HashMap<OperatorId, &ActivationTemplate> = HashMap::new();
    for (op, template) in &spec.activations {
        if templates.insert(*op, template.base()).is_some() {
            return None; // several activations on one operator: bail
        }
    }
    let mut visited: HashSet<OperatorId> = HashSet::new();

    // Classify the root, then walk down to the source.
    let root_node = plan.node(*root);
    let mut topn_limit: Option<usize> = None;
    let mut group: Option<GroupInfo> = None;
    // A group-by *root* has a HAVING: deferred to the merge (partial mode).
    let mut root_having = false;
    let source = match (&root_node.spec, templates.get(root)?) {
        (OperatorSpec::TableScan { .. }, _)
        | (OperatorSpec::Filter, _)
        | (OperatorSpec::HashJoin { .. }, _) => {
            find_source(catalog, plan, &templates, &mut visited, *root)?
        }
        (OperatorSpec::Sort { .. }, ActivationTemplate::Participate) => {
            visited.insert(*root);
            let (g, source) = peel_group(
                catalog,
                plan,
                &templates,
                &mut visited,
                root_node.inputs.first()?,
            )?;
            group = g;
            source
        }
        (OperatorSpec::TopN { .. }, ActivationTemplate::TopN { limit }) => {
            topn_limit = Some(*limit);
            visited.insert(*root);
            let (g, source) = peel_group(
                catalog,
                plan,
                &templates,
                &mut visited,
                root_node.inputs.first()?,
            )?;
            group = g;
            source
        }
        (OperatorSpec::GroupBy { .. }, ActivationTemplate::Having { predicate }) => {
            root_having = predicate.is_some();
            visited.insert(*root);
            find_source(
                catalog,
                plan,
                &templates,
                &mut visited,
                *root_node.inputs.first()?,
            )?
        }
        (OperatorSpec::Distinct, ActivationTemplate::Participate) => {
            visited.insert(*root);
            find_source(
                catalog,
                plan,
                &templates,
                &mut visited,
                *root_node.inputs.first()?,
            )?
        }
        // Probes bypass the partitioned scan; anything else is unknown.
        _ => return None,
    };

    // Every activated operator must lie on the recognised path — a stray
    // activation (second scan, probe, another join) breaks the shape.
    if visited.len() != spec.activations.len() {
        return None;
    }

    // Partitioning: single scans hash their primary key; join-tree scans
    // co-partition by their join-key column, and the tree must be keyed on a
    // partitioning key (at least one scan joins on its single-column primary
    // key). Per-join key-class and data-type checks live in [`join_tree`].
    let partition_columns = match &source {
        Source::Scan(_) => None,
        Source::Join(tree) => {
            if !tree.keyed_on_pk {
                return None;
            }
            Some(Arc::new(tree.scan_columns.clone()))
        }
    };

    // A group-by below the root: every group must be complete within its
    // partition, i.e. the grouping key must contain the partition key.
    if let Some(info) = &group {
        let determined = match &source {
            Source::Scan(scan) => {
                let pk = table_pk(catalog, plan, *scan)?;
                !pk.is_empty() && pk.iter().all(|c| info.group_columns.contains(c))
            }
            Source::Join(tree) => tree
                .key_columns
                .iter()
                .any(|c| info.group_columns.contains(c)),
        };
        if !determined {
            return None;
        }
    }

    let mut partial_aggregation = false;
    let merge = match &root_node.spec {
        OperatorSpec::TableScan { .. } | OperatorSpec::Filter | OperatorSpec::HashJoin { .. } => {
            MergeSpec::Concat
        }
        OperatorSpec::Sort { keys } => MergeSpec::Ordered {
            keys: keys.clone(),
            limit: *limit,
        },
        OperatorSpec::TopN { keys } => MergeSpec::Ordered {
            keys: keys.clone(),
            limit: match (topn_limit, *limit) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        },
        OperatorSpec::GroupBy {
            group_columns,
            aggregates,
        } => {
            // A LIMIT over groups would drop partial groups per partition.
            if limit.is_some() {
                return None;
            }
            // AVG partials ship as (sum, hidden count) and recombine exactly
            // at the merge. Partial mode also defers HAVING to the merge —
            // either one requires it.
            let avg_partials = aggregates
                .iter()
                .any(|a| a.function == AggregateFunction::Avg);
            partial_aggregation = avg_partials || root_having;
            MergeSpec::Grouped {
                group_width: group_columns.len(),
                functions: aggregates.iter().map(|a| a.function).collect(),
                avg_partials,
                having: None,
            }
        }
        OperatorSpec::Distinct => {
            if limit.is_some() {
                return None;
            }
            MergeSpec::Distinct
        }
        _ => return None,
    };
    // Heavy shapes — joins and blocking roots (sort / Top-N / group-by /
    // distinct) — scatter even when parameterised; a bare scan/filter root
    // with parameters runs whole.
    let scatter_with_params =
        matches!(source, Source::Join { .. }) || !matches!(merge, MergeSpec::Concat);
    Some(ScatterSpec {
        merge,
        partition_columns,
        partial_aggregation,
        scatter_with_params,
    })
}

/// The primary-key column indices of the table scanned by `scan_op`.
fn table_pk(catalog: &Catalog, plan: &GlobalPlan, scan_op: OperatorId) -> Option<Vec<usize>> {
    let OperatorSpec::TableScan { table } = &plan.node(scan_op).spec else {
        return None;
    };
    Some(catalog.table(table).ok()?.read().primary_key().to_vec())
}

/// Walks `filter* → (group-by)?` from a sort/Top-N root's input: returns the
/// group-by (if one is on the path) and the source below it. A HAVING on
/// this group-by stays local: eligibility later requires the grouping key to
/// contain the partition key, so every group is complete — and its final
/// aggregate values filterable — within its own partition.
fn peel_group(
    catalog: &Catalog,
    plan: &GlobalPlan,
    templates: &HashMap<OperatorId, &ActivationTemplate>,
    visited: &mut HashSet<OperatorId>,
    start: &OperatorId,
) -> Option<(Option<GroupInfo>, Source)> {
    let mut op = *start;
    loop {
        let node = plan.node(op);
        match (&node.spec, templates.get(&op)?) {
            (
                OperatorSpec::Filter,
                ActivationTemplate::Filter { .. } | ActivationTemplate::Participate,
            ) => {
                visited.insert(op);
                op = *node.inputs.first()?;
            }
            (OperatorSpec::GroupBy { group_columns, .. }, ActivationTemplate::Having { .. }) => {
                visited.insert(op);
                let info = GroupInfo {
                    group_columns: group_columns.clone(),
                };
                let source = find_source(catalog, plan, templates, visited, *node.inputs.first()?)?;
                return Some((Some(info), source));
            }
            _ => return Some((None, find_source(catalog, plan, templates, visited, op)?)),
        }
    }
}

/// Walks `filter* → (scan | join tree)` and returns the source.
fn find_source(
    catalog: &Catalog,
    plan: &GlobalPlan,
    templates: &HashMap<OperatorId, &ActivationTemplate>,
    visited: &mut HashSet<OperatorId>,
    start: OperatorId,
) -> Option<Source> {
    let mut op = start;
    loop {
        let node = plan.node(op);
        match (&node.spec, templates.get(&op)?) {
            (OperatorSpec::TableScan { .. }, ActivationTemplate::Scan { .. }) => {
                visited.insert(op);
                return Some(Source::Scan(op));
            }
            (
                OperatorSpec::Filter,
                ActivationTemplate::Filter { .. } | ActivationTemplate::Participate,
            ) => {
                visited.insert(op);
                op = *node.inputs.first()?;
            }
            (OperatorSpec::HashJoin { .. }, ActivationTemplate::Participate) => {
                return join_tree(catalog, plan, templates, visited, op).map(Source::Join);
            }
            _ => return None,
        }
    }
}

/// Recursively walks a tree of hash equi-joins whose leaves are
/// `filter* → scan` chains, accumulating the partitioning summary. Returns
/// `None` when the tree is not co-partitionable:
///
/// * a join over a nested join subtree must be keyed on the subtree's
///   partition-key class (its side key ∈ the subtree's key columns), so one
///   transitive equivalence class spans the whole chain;
/// * every scan hashes exactly one column — a scan reached twice (both sides
///   of one join, or two chain levels) cannot hash two key sets and bails;
/// * the partition hash is type-tagged (`hash_values` distinguishes Int from
///   Float) while SQL join equality is numeric-normalizing (`Int(5)` joins
///   `Float(5.0)`): a cross-type equi-join would scatter matching rows into
///   different partitions and silently lose the match, so all key columns
///   must share one data type.
fn join_tree(
    catalog: &Catalog,
    plan: &GlobalPlan,
    templates: &HashMap<OperatorId, &ActivationTemplate>,
    visited: &mut HashSet<OperatorId>,
    join_op: OperatorId,
) -> Option<JoinTree> {
    let node = plan.node(join_op);
    let OperatorSpec::HashJoin {
        build_key,
        probe_key,
    } = &node.spec
    else {
        return None;
    };
    visited.insert(join_op);
    let build_input = *node.inputs.first()?;
    let probe_input = *node.inputs.get(1)?;
    let build_width = plan.node(build_input).schema.len();
    let build_type = plan.node(build_input).schema.column(*build_key).data_type;
    let probe_type = plan.node(probe_input).schema.column(*probe_key).data_type;
    if build_type != probe_type {
        return None;
    }
    let mut tree = JoinTree {
        scan_columns: HashMap::new(),
        key_columns: Vec::new(),
        keyed_on_pk: false,
    };
    for (input, key, offset) in [
        (build_input, *build_key, 0usize),
        (probe_input, *probe_key, build_width),
    ] {
        match find_source(catalog, plan, templates, visited, input)? {
            Source::Scan(scan) => {
                if tree.scan_columns.insert(scan, vec![key]).is_some() {
                    return None;
                }
                tree.keyed_on_pk |= table_pk(catalog, plan, scan)? == std::slice::from_ref(&key);
                tree.key_columns.push(offset + key);
            }
            Source::Join(sub) => {
                if !sub.key_columns.contains(&key) {
                    return None;
                }
                for (scan, cols) in sub.scan_columns {
                    if tree.scan_columns.insert(scan, cols).is_some() {
                        return None;
                    }
                }
                tree.keyed_on_pk |= sub.keyed_on_pk;
                tree.key_columns
                    .extend(sub.key_columns.iter().map(|c| offset + c));
            }
        }
    }
    Some(tree)
}
