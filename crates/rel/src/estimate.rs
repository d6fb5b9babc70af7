//! Per-node row estimates for *physical* plans.
//!
//! The memo attaches logical properties (including estimated cardinality)
//! to equivalence classes, but an extracted [`RelPlan`] carries only
//! algorithms and costs. `EXPLAIN ANALYZE` wants the optimizer's estimate
//! next to each operator's actual row count, so this module recomputes
//! the estimates bottom-up over the physical tree with the same
//! selectivity model the optimizer used — by construction the numbers
//! match what the search saw.

use std::sync::Arc;

use volcano_core::cost::Cost as _;

use crate::alg::RelAlg;
use crate::catalog::{Catalog, ColType};
use crate::cost::{formulas, RelCost};
use crate::model::RelModelOptions;
use crate::ops::{AggFunc, AggSpec};
use crate::predicate::JoinPred;
use crate::props::{ColInfo, RelLogical};
use crate::selectivity::{join_selectivity_with, pred_selectivity_with};
use crate::RelPlan;

fn join(catalog: &Catalog, l: &RelLogical, r: &RelLogical, p: &JoinPred) -> RelLogical {
    let mut cols: Vec<ColInfo> = l.cols.as_ref().clone();
    cols.extend(r.cols.iter().copied());
    RelLogical {
        card: l.card * r.card * join_selectivity_with(p, l, r, catalog.feedback()),
        cols: Arc::new(cols),
        scans: l.scans.union(&r.scans),
    }
}

/// Estimated logical properties of a physical plan node, recomputed
/// bottom-up from the catalog with the optimizer's selectivity model.
pub fn estimated_logical(catalog: &Catalog, plan: &RelPlan) -> RelLogical {
    let inputs: Vec<RelLogical> = plan
        .inputs
        .iter()
        .map(|c| estimated_logical(catalog, c))
        .collect();
    logical_from_inputs(catalog, &plan.alg, &inputs)
}

fn logical_from_inputs(catalog: &Catalog, alg: &RelAlg, inputs: &[RelLogical]) -> RelLogical {
    match alg {
        RelAlg::FileScan(t) | RelAlg::IndexScan(t, _) => RelLogical::of_table(catalog, *t),
        RelAlg::FilterScan(t, pred) => {
            let base = RelLogical::of_table(catalog, *t);
            base.with_card(base.card * pred_selectivity_with(pred, &base, catalog.feedback()))
        }
        RelAlg::Filter(pred) => {
            let input = &inputs[0];
            input.with_card(input.card * pred_selectivity_with(pred, input, catalog.feedback()))
        }
        RelAlg::ProjectOp(attrs) => {
            let input = &inputs[0];
            RelLogical {
                card: input.card,
                cols: Arc::new(
                    attrs
                        .iter()
                        .map(|a| {
                            *input.col(*a).unwrap_or_else(|| {
                                panic!("projection references unknown attribute {a:?}")
                            })
                        })
                        .collect(),
                ),
                scans: input.scans.clone(),
            }
        }
        RelAlg::MergeJoin(p) | RelAlg::HybridHashJoin(p) | RelAlg::NestedLoops(p) => {
            join(catalog, &inputs[0], &inputs[1], p)
        }
        RelAlg::MultiWayHashJoin { inner, outer } => {
            let ab = join(catalog, &inputs[0], &inputs[1], inner);
            join(catalog, &ab, &inputs[2], outer)
        }
        RelAlg::MergeUnion | RelAlg::HashUnion => {
            inputs[0].set_op(&inputs[1], inputs[0].card + inputs[1].card)
        }
        RelAlg::MergeIntersect | RelAlg::HashIntersect => {
            inputs[0].set_op(&inputs[1], inputs[0].card.min(inputs[1].card))
        }
        RelAlg::MergeDifference | RelAlg::HashDifference => {
            inputs[0].set_op(&inputs[1], inputs[0].card * 0.5)
        }
        RelAlg::StreamAggregate(spec) | RelAlg::HashAggregate(spec) => {
            let input = &inputs[0];
            let groups = if spec.group_by.is_empty() {
                1.0
            } else {
                spec.group_by
                    .iter()
                    .map(|a| input.distinct(*a))
                    .product::<f64>()
                    .min(input.card)
                    .max(1.0)
            };
            let mut cols: Vec<ColInfo> = spec
                .group_by
                .iter()
                .map(|a| {
                    *input
                        .col(*a)
                        .unwrap_or_else(|| panic!("group-by references unknown attribute {a:?}"))
                })
                .collect();
            for (func, out) in &spec.aggs {
                let ty = match func {
                    AggFunc::CountStar => ColType::Int,
                    AggFunc::Avg(_) => ColType::Float,
                    AggFunc::Sum(a) | AggFunc::Min(a) | AggFunc::Max(a) => {
                        input.col(*a).map(|c| c.ty).unwrap_or(ColType::Int)
                    }
                };
                cols.push(ColInfo {
                    attr: *out,
                    ty,
                    width: 8,
                    distinct: groups,
                });
            }
            RelLogical {
                card: groups,
                cols: Arc::new(cols),
                scans: input.scans.clone(),
            }
        }
        RelAlg::PartialHashAggregate(spec, degree) => {
            // Mirrors the model's `PartialAggregate` derivation: up to
            // `degree` per-worker copies of each group, capped by the
            // input size. The degree rides on the algorithm so the
            // re-coster reproduces the search-time estimate without the
            // optimizer context.
            let input = &inputs[0];
            let d_groups = if spec.group_by.is_empty() {
                1.0
            } else {
                spec.group_by
                    .iter()
                    .map(|a| input.distinct(*a))
                    .product::<f64>()
            };
            let card = (d_groups * f64::from((*degree).max(1)))
                .min(input.card)
                .max(1.0);
            let mut cols: Vec<ColInfo> = spec
                .group_by
                .iter()
                .map(|a| {
                    *input
                        .col(*a)
                        .unwrap_or_else(|| panic!("group-by references unknown attribute {a:?}"))
                })
                .collect();
            for (func, out) in &spec.aggs {
                let ty = match func {
                    AggFunc::CountStar => ColType::Int,
                    AggFunc::Sum(a) | AggFunc::Min(a) | AggFunc::Max(a) | AggFunc::Avg(a) => {
                        input.col(*a).map(|c| c.ty).unwrap_or(ColType::Int)
                    }
                };
                cols.push(ColInfo {
                    attr: *out,
                    ty,
                    width: 8,
                    distinct: card,
                });
                if matches!(func, AggFunc::Avg(_)) {
                    cols.push(ColInfo {
                        attr: AggSpec::companion_attr(*out),
                        ty: ColType::Int,
                        width: 8,
                        distinct: card,
                    });
                }
            }
            RelLogical {
                card,
                cols: Arc::new(cols),
                scans: input.scans.clone(),
            }
        }
        RelAlg::FinalHashAggregate(spec) => {
            // The input carries the partial layout: aggregate
            // intermediates already sit at the output attribute ids.
            let input = &inputs[0];
            let groups = if spec.group_by.is_empty() {
                1.0
            } else {
                spec.group_by
                    .iter()
                    .map(|a| input.distinct(*a))
                    .product::<f64>()
                    .min(input.card)
                    .max(1.0)
            };
            let mut cols: Vec<ColInfo> = spec
                .group_by
                .iter()
                .map(|a| {
                    *input
                        .col(*a)
                        .unwrap_or_else(|| panic!("group-by references unknown attribute {a:?}"))
                })
                .collect();
            for (func, out) in &spec.aggs {
                let ty = match func {
                    AggFunc::CountStar => ColType::Int,
                    AggFunc::Avg(_) => ColType::Float,
                    AggFunc::Sum(_) | AggFunc::Min(_) | AggFunc::Max(_) => {
                        input.col(*out).map(|c| c.ty).unwrap_or(ColType::Int)
                    }
                };
                cols.push(ColInfo {
                    attr: *out,
                    ty,
                    width: 8,
                    distinct: groups,
                });
            }
            RelLogical {
                card: groups,
                cols: Arc::new(cols),
                scans: input.scans.clone(),
            }
        }
        // Enforcers manipulate no logical data: output = input.
        RelAlg::Sort(_) | RelAlg::Gather(_) => inputs[0].clone(),
    }
}

/// Estimated output rows of a physical plan node.
pub fn estimated_rows(catalog: &Catalog, plan: &RelPlan) -> f64 {
    estimated_logical(catalog, plan).card
}

/// Re-estimate the total cost of an already-extracted physical plan under
/// the *current* catalog statistics, applying the same per-algorithm
/// formulas the implementation rules used during search.
///
/// This is the plan cache's cost-drift guard: a cached template was
/// optimal under the statistics at optimization time, but after data
/// loads or stats refreshes its true cost may have drifted. Re-costing
/// the frozen tree is far cheaper than re-optimizing, and comparing the
/// result against the entry's recorded cost decides which to do.
pub fn estimated_plan_cost(
    catalog: &Catalog,
    options: &RelModelOptions,
    plan: &RelPlan,
) -> RelCost {
    plan_cost_rec(catalog, options, plan).1
}

fn plan_cost_rec(
    catalog: &Catalog,
    options: &RelModelOptions,
    plan: &RelPlan,
) -> (RelLogical, RelCost) {
    let children: Vec<(RelLogical, RelCost)> = plan
        .inputs
        .iter()
        .map(|c| plan_cost_rec(catalog, options, c))
        .collect();
    let inputs: Vec<RelLogical> = children.iter().map(|(l, _)| l.clone()).collect();
    let out = logical_from_inputs(catalog, &plan.alg, &inputs);
    let local = match &plan.alg {
        RelAlg::FileScan(_) => formulas::file_scan(&out),
        RelAlg::IndexScan(_, _) => formulas::index_scan(&out),
        RelAlg::FilterScan(t, pred) => {
            formulas::filter_scan(&RelLogical::of_table(catalog, *t), pred.len())
        }
        RelAlg::Filter(pred) => formulas::filter(&inputs[0], pred.len()),
        RelAlg::ProjectOp(_) => formulas::project(&inputs[0]),
        RelAlg::MergeJoin(_) => formulas::merge_join(&inputs[0], &inputs[1], &out),
        RelAlg::HybridHashJoin(_) => formulas::hash_join_with_memory(
            &inputs[0],
            &inputs[1],
            &out,
            options.hash_join_memory_bytes,
        ),
        RelAlg::NestedLoops(p) => {
            formulas::nested_loops(&inputs[0], &inputs[1], &out, p.pairs().len())
        }
        RelAlg::MultiWayHashJoin { inner, .. } => {
            let mid = join(catalog, &inputs[0], &inputs[1], inner);
            formulas::multiway_hash_join(&inputs[0], &inputs[1], &inputs[2], &mid, &out)
        }
        RelAlg::MergeUnion | RelAlg::MergeIntersect | RelAlg::MergeDifference => {
            formulas::merge_set_op(&inputs[0], &inputs[1], &out)
        }
        RelAlg::HashUnion | RelAlg::HashIntersect | RelAlg::HashDifference => {
            formulas::hash_set_op(&inputs[0], &inputs[1], &out)
        }
        RelAlg::StreamAggregate(_) => formulas::stream_agg(&inputs[0], &out),
        RelAlg::HashAggregate(_) => formulas::hash_agg(&inputs[0], &out),
        RelAlg::PartialHashAggregate(_, _) => formulas::partial_hash_agg(&inputs[0], &out),
        RelAlg::FinalHashAggregate(_) => formulas::final_hash_agg(&inputs[0], &out),
        RelAlg::Sort(_) => formulas::sort(&inputs[0]),
        RelAlg::Gather(n) => formulas::gather(&inputs[0], *n),
    };
    // Mirror the implementation rules exactly: a node delivering parallel
    // degree n was costed at its per-worker share during search, so the
    // re-coster must apply the same scaling or the drift guard would see
    // phantom drift on every parallel plan.
    let local = formulas::parallelize(local, plan.delivered.parallel);
    let total = children.iter().fold(local, |acc, (_, c)| acc.add(c));
    (out, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{join_on, select_one};
    use crate::model::RelModel;
    use crate::predicate::Cmp;
    use crate::{ColumnDef, QueryBuilder, RelProps};
    use volcano_core::{Optimizer, PhysicalProps, SearchOptions};

    #[test]
    fn physical_estimates_match_logical_derivation() {
        let mut c = Catalog::new();
        c.add_table(
            "emp",
            1000.0,
            vec![ColumnDef::int("id", 1000.0), ColumnDef::int("dept", 20.0)],
        );
        c.add_table("dept", 20.0, vec![ColumnDef::int("id", 20.0)]);
        let model = RelModel::with_defaults(c.clone());
        let q = QueryBuilder::new(model.catalog());
        let expr = join_on(
            select_one(q.scan("emp"), Cmp::lt(q.attr("emp", "id"), 100i64)),
            q.scan("dept"),
            q.attr("emp", "dept"),
            q.attr("dept", "id"),
        );
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&expr);
        let plan = opt.find_best_plan(root, RelProps::any(), None).unwrap();

        // Root estimate: 1000 × 1/3 (range) × 20 × 1/20 (join) = 333.3…
        let est = estimated_rows(&c, &plan);
        assert!(
            (est - 1000.0 / 3.0).abs() < 1e-6,
            "unexpected root estimate {est}"
        );
        // Every node has a positive estimate.
        fn walk(catalog: &Catalog, p: &RelPlan) {
            assert!(estimated_rows(catalog, p) > 0.0);
            for c in &p.inputs {
                walk(catalog, c);
            }
        }
        walk(&c, &plan);
    }

    #[test]
    fn recosting_matches_search_under_unchanged_stats() {
        let mut c = Catalog::new();
        c.add_table(
            "emp",
            2000.0,
            vec![
                ColumnDef::int("id", 2000.0),
                ColumnDef::int("dept", 20.0),
                ColumnDef::int("salary", 100.0),
            ],
        );
        c.add_table("dept", 20.0, vec![ColumnDef::int("id", 20.0)]);
        let model = RelModel::with_defaults(c.clone());
        let q = QueryBuilder::new(model.catalog());
        let expr = join_on(
            select_one(q.scan("emp"), Cmp::lt(q.attr("emp", "salary"), 50i64)),
            q.scan("dept"),
            q.attr("emp", "dept"),
            q.attr("dept", "id"),
        );
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&expr);
        for props in [RelProps::any(), RelProps::sorted(vec![q.attr("emp", "id")])] {
            let plan = opt.find_best_plan(root, props, None).unwrap();
            let re = estimated_plan_cost(&c, model.options(), &plan);
            assert!(
                (re.total() - plan.cost.total()).abs() < 1e-6,
                "re-cost {re:?} != search cost {:?} for plan\n{}",
                plan.cost,
                plan.explain()
            );
        }

        // After a stats change the re-cost must move in the same
        // direction as the data: 10x the rows, strictly costlier.
        let mut grown = c.clone();
        let emp = grown.table_by_name("emp").unwrap().id;
        grown.update_stats(emp, 20_000.0, &[None, None, None]);
        let plan = opt.find_best_plan(root, RelProps::any(), None).unwrap();
        let re = estimated_plan_cost(&grown, model.options(), &plan);
        assert!(re.total() > plan.cost.total() * 2.0, "{re:?}");
    }
}
