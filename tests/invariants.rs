//! Property-based invariant tests over randomly generated workloads:
//! the dynamic-programming and branch-and-bound guarantees the paper's
//! search algorithm rests on.

use proptest::prelude::*;
use volcano::core::cost::Cost;
use volcano::core::{PhysicalProps, SearchOptions};
use volcano::exodus::ExodusOptimizer;
use volcano::rel::{RelModel, RelModelOptions, RelOptimizer, RelPlan, RelProps};
use volcano_bench::{generate_query, WorkloadConfig};

fn optimize(query: &volcano_bench::GeneratedQuery, opts: SearchOptions) -> RelPlan {
    let model = RelModel::new(query.catalog.clone(), RelModelOptions::paper_fig4());
    let mut opt = RelOptimizer::new(&model, opts);
    let root = opt.insert_tree(&query.expr);
    opt.find_best_plan(root, RelProps::any(), None)
        .expect("fig4 workload always satisfiable")
}

/// Recompute a plan's total cost from its local costs; must equal the
/// reported cumulative cost.
fn recomputed_cost(plan: &RelPlan) -> f64 {
    plan.local_cost.total() + plan.inputs.iter().map(recomputed_cost).sum::<f64>()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plan cost bookkeeping is internally consistent.
    #[test]
    fn plan_costs_add_up(n in 2usize..6, seed in 0u64..1_000_000) {
        let q = generate_query(&WorkloadConfig::relations(n), seed);
        let plan = optimize(&q, SearchOptions::default());
        let recomputed = recomputed_cost(&plan);
        prop_assert!(
            (plan.cost.total() - recomputed).abs() <= 1e-6 * plan.cost.total().max(1.0),
            "reported {} vs recomputed {}", plan.cost.total(), recomputed
        );
    }

    /// Branch-and-bound pruning and failure memoization are pure
    /// optimizations: they never change the optimum.
    #[test]
    fn pruning_preserves_optimality(n in 2usize..6, seed in 0u64..1_000_000) {
        let q = generate_query(&WorkloadConfig::relations(n), seed);
        let with = optimize(&q, SearchOptions::default());
        let raw = SearchOptions {
            pruning: false,
            failure_memo: false,
            ..SearchOptions::default()
        };
        let without = optimize(&q, raw);
        prop_assert!(
            (with.cost.total() - without.cost.total()).abs()
                <= 1e-6 * with.cost.total().max(1.0),
            "pruned {} vs exhaustive {}", with.cost.total(), without.cost.total()
        );
    }

    /// Every node of a chosen plan delivers properties satisfying what
    /// its parent demanded (spot-checked via merge-join inputs: their
    /// delivered sort must cover the join keys).
    #[test]
    fn merge_join_inputs_really_sorted(n in 2usize..6, seed in 0u64..1_000_000) {
        use volcano::rel::RelAlg;
        let q = generate_query(&WorkloadConfig::relations(n), seed);
        let plan = optimize(&q, SearchOptions::default());
        for node in plan.nodes() {
            if let RelAlg::MergeJoin(p) = &node.alg {
                let k = p.pairs().len();
                prop_assert!(node.inputs[0].delivered.sort.len() >= k);
                prop_assert!(node.inputs[1].delivered.sort.len() >= k);
            }
        }
    }

    /// The exhaustive, property-driven search never loses to the greedy
    /// forward-chaining baseline.
    #[test]
    fn volcano_never_loses_to_exodus(n in 2usize..6, seed in 0u64..1_000_000) {
        let q = generate_query(&WorkloadConfig::relations(n), seed);
        let vplan = optimize(&q, SearchOptions::default());
        let model = RelModel::new(q.catalog.clone(), RelModelOptions::paper_fig4());
        if let Ok(e) = ExodusOptimizer::new(&model).optimize(&q.expr, &[]) {
            prop_assert!(
                vplan.cost.total() <= e.cost.total() + 1e-6,
                "volcano {} vs exodus {}", vplan.cost.total(), e.cost.total()
            );
        }
    }

    /// A cost limit below the optimum fails; at or above it succeeds —
    /// the branch-and-bound boundary is exact.
    #[test]
    fn cost_limit_boundary(n in 2usize..5, seed in 0u64..1_000_000) {
        use volcano::rel::RelCost;
        let q = generate_query(&WorkloadConfig::relations(n), seed);
        let best = optimize(&q, SearchOptions::default()).cost;
        let model = RelModel::new(q.catalog.clone(), RelModelOptions::paper_fig4());

        let mut opt = RelOptimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&q.expr);
        let below = RelCost::new(best.io * 0.99, best.cpu * 0.99);
        prop_assert!(opt.find_best_plan(root, RelProps::any(), Some(below)).is_err());

        let mut opt2 = RelOptimizer::new(&model, SearchOptions::default());
        let root2 = opt2.insert_tree(&q.expr);
        let above = RelCost::new(best.io * 1.01 + 1.0, best.cpu * 1.01 + 1.0);
        let plan = opt2.find_best_plan(root2, RelProps::any(), Some(above));
        prop_assert!(plan.is_ok());
        prop_assert!(plan.unwrap().cost.cheaper_or_equal(&above));
    }

    /// Requesting a sorted result must deliver one, and its cost is at
    /// least the unsorted optimum.
    #[test]
    fn sorted_goal_monotonicity(n in 2usize..5, seed in 0u64..1_000_000) {
        let q = generate_query(&WorkloadConfig::relations(n), seed);
        let model = RelModel::new(q.catalog.clone(), RelModelOptions::paper_fig4());
        let mut opt = RelOptimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&q.expr);
        let unsorted = opt.find_best_plan(root, RelProps::any(), None).unwrap();
        // Sort on the first output attribute.
        let attr = opt.memo().logical_props(opt.memo().repr(root)).cols[0].attr;
        let goal = RelProps::sorted(vec![attr]);
        let sorted = opt.find_best_plan(root, goal.clone(), None).unwrap();
        prop_assert!(sorted.delivered.satisfies(&goal));
        prop_assert!(sorted.cost.total() + 1e-9 >= unsorted.cost.total());
    }
}
