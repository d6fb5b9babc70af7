//! EXODUS plans re-cost to their own cost.
//!
//! Figure 4 compares Volcano with EXODUS "under the same property and
//! cost functions" (§4.2). Both optimizers price an algorithm with the
//! relational model's one cost function (`volcano_rel::cost::local_cost`),
//! and the plan re-coster (`estimated_plan_cost`) folds that function over
//! an extracted plan. So each EXODUS plan, re-costed from its algorithms
//! alone, costs what EXODUS reports for it, the sorts that EXODUS folds
//! into a merge join's own cost included.

use exodus::ExodusOptimizer;
use volcano_bench::fig4_query;
use volcano_rel::{estimated_plan_cost, RelModel, RelModelOptions};

#[test]
fn exodus_plans_recost_to_their_own_cost() {
    let mut worst = 0.0f64;
    for n in 2..=7 {
        for q in 0..10 {
            let query = fig4_query(n, q);
            let model = RelModel::new(query.catalog.clone(), RelModelOptions::paper_fig4());
            let out = ExodusOptimizer::new(&model)
                .optimize(&query.expr, &[])
                .unwrap_or_else(|_| panic!("n={n} q={q}: EXODUS aborted"));
            let cost = out.cost.total();
            let recost = estimated_plan_cost(model.catalog(), model.options(), &out.plan).total();
            let gap = (recost - cost).abs() / cost.abs().max(1.0);
            assert!(
                gap <= 1e-12,
                "n={n} q={q}: re-costed {recost} != EXODUS's {cost}\n{}",
                out.plan.explain()
            );
            worst = worst.max(gap);
        }
    }
    println!("worst relative gap over 60 plans: {worst:e}");
}
