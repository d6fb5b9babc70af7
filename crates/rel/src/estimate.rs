//! Per-node estimates for *physical* plans.
//!
//! The memo attaches logical properties (including estimated cardinality)
//! to equivalence classes, but an extracted [`RelPlan`] carries only
//! algorithms and costs. `EXPLAIN ANALYZE`, the feedback harvest and the
//! plan cache's cost-drift guard want each node's estimate, so this module
//! re-derives them bottom-up over the physical tree with the model's own
//! derivation: each algorithm maps to the [`RelLogical`] constructor of
//! the logical operator it implements, the one the search derived its
//! class with, so under unchanged statistics the numbers are the ones the
//! search saw. The re-cost applies the one per-algorithm cost function the
//! search used ([`local_cost`]) to those numbers.

use volcano_core::cost::Cost as _;

use crate::alg::RelAlg;
use crate::catalog::Catalog;
use crate::cost::{local_cost, RelCost};
use crate::model::RelModelOptions;
use crate::props::{AggPhase, RelLogical};
use crate::RelPlan;

/// The estimated logical properties of a physical plan node running
/// `alg` over inputs with the properties `inputs`, under the catalog's
/// statistics and selectivity memory.
pub fn logical_from_inputs(catalog: &Catalog, alg: &RelAlg, inputs: &[RelLogical]) -> RelLogical {
    let memory = catalog.feedback();
    match alg {
        RelAlg::FileScan(t) | RelAlg::IndexScan(t, _) => RelLogical::of_table(catalog, *t),
        RelAlg::FilterScan(t, pred) => RelLogical::of_table(catalog, *t).select(pred, memory),
        RelAlg::Filter(pred) => inputs[0].select(pred, memory),
        RelAlg::ProjectOp(attrs) => inputs[0].project(attrs),
        RelAlg::MergeJoin(p) | RelAlg::HybridHashJoin(p) | RelAlg::NestedLoops(p) => {
            inputs[0].join(&inputs[1], p, memory)
        }
        RelAlg::MultiWayHashJoin { inner, outer } => inputs[0]
            .join(&inputs[1], inner, memory)
            .join(&inputs[2], outer, memory),
        RelAlg::MergeUnion | RelAlg::HashUnion => inputs[0].union(&inputs[1]),
        RelAlg::MergeIntersect | RelAlg::HashIntersect => inputs[0].intersect(&inputs[1]),
        RelAlg::MergeDifference | RelAlg::HashDifference => inputs[0].difference(&inputs[1]),
        RelAlg::StreamAggregate(spec) | RelAlg::HashAggregate(spec) => {
            inputs[0].aggregate(spec, AggPhase::Complete)
        }
        // The degree rides on the algorithm, so the estimate needs no
        // optimizer context.
        RelAlg::PartialHashAggregate(spec, degree) => {
            inputs[0].aggregate(spec, AggPhase::Partial(*degree))
        }
        RelAlg::FinalHashAggregate(spec) => inputs[0].aggregate(spec, AggPhase::Final),
        // Enforcers manipulate no logical data: output = input.
        RelAlg::Sort(_) | RelAlg::Gather(_) => inputs[0].clone(),
    }
}

/// Re-estimate the total cost of an already-extracted physical plan under
/// the *current* catalog statistics: the model's one cost function
/// ([`local_cost`]) folded over the plan, on the properties
/// [`logical_from_inputs`] re-derives.
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
    let (inputs, costs): (Vec<RelLogical>, Vec<RelCost>) = plan
        .inputs
        .iter()
        .map(|c| plan_cost_rec(catalog, options, c))
        .unzip();
    let out = logical_from_inputs(catalog, &plan.alg, &inputs);
    // What an algorithm reads besides its inputs: the stored table of a
    // fused filter-scan, the intermediate of the three-way join.
    let extra = match &plan.alg {
        RelAlg::FilterScan(t, _) => Some(RelLogical::of_table(catalog, *t)),
        RelAlg::MultiWayHashJoin { inner, .. } => {
            Some(inputs[0].join(&inputs[1], inner, catalog.feedback()))
        }
        _ => None,
    };
    let mut reads = [&out; 4];
    let n = inputs.len() + usize::from(extra.is_some());
    for (slot, l) in reads.iter_mut().zip(inputs.iter().chain(&extra)) {
        *slot = l;
    }
    let local = local_cost(
        &plan.alg,
        &reads[..n],
        &out,
        plan.delivered.parallel,
        options.hash_join_memory_bytes,
    );
    let total = costs.iter().fold(local, |acc, c| acc.add(c));
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

        // Every node has a positive estimate.
        fn walk(catalog: &Catalog, p: &RelPlan) -> RelLogical {
            let inputs: Vec<RelLogical> = p.inputs.iter().map(|c| walk(catalog, c)).collect();
            let out = logical_from_inputs(catalog, &p.alg, &inputs);
            assert!(out.card > 0.0);
            out
        }
        // Root estimate: 1000 × 1/3 (range) × 20 × 1/20 (join) = 333.3…
        let est = walk(&c, &plan).card;
        assert!(
            (est - 1000.0 / 3.0).abs() < 1e-6,
            "unexpected root estimate {est}"
        );
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
