//! Greedy completion under a move limit: each goal pursues its moves in
//! promise order and stops once `k` of them have set its best plan, and
//! `find_best_plan` still returns a valid plan whose cost is an upper
//! bound on the exhaustive optimum.

use proptest::prelude::*;
use volcano_core::toy::{ToyModel, ToyOp, ToyProps};
use volcano_core::{ExprTree, Optimizer, PhysicalProps, Plan, SearchOptions};

type Tree = ExprTree<ToyModel>;

fn chain(n: usize) -> (ToyModel, Tree) {
    let mut e = Tree::leaf(ToyOp::Get("t0".into()));
    for i in 1..n {
        e = Tree::new(
            ToyOp::Join,
            vec![e, Tree::leaf(ToyOp::Get(format!("t{i}")))],
        );
    }
    (model(n), e)
}

fn greedy(k: usize) -> SearchOptions {
    SearchOptions {
        move_limit: Some(k),
        ..SearchOptions::default()
    }
}

/// Reported plan cost must equal the bottom-up sum of local costs at
/// every node — greedy or not.
fn assert_costs_consistent(p: &Plan<ToyModel>) {
    fn recompute(p: &Plan<ToyModel>) -> f64 {
        p.local_cost + p.inputs.iter().map(recompute).sum::<f64>()
    }
    let r = recompute(p);
    assert!(
        (p.cost - r).abs() <= 1e-9 * p.cost.abs().max(1.0),
        "node {:?}: reported {} != recomputed {}",
        p.alg,
        p.cost,
        r
    );
    for i in &p.inputs {
        assert_costs_consistent(i);
    }
}

/// Greedy plans must satisfy required physical properties exactly like
/// exhaustive ones: a goal ends at a *feasible* move, never at an
/// infeasible shortcut.
#[test]
fn degraded_plan_still_satisfies_sorted_goal() {
    let (model, query) = chain(6);
    let mut opt = Optimizer::new(&model, greedy(1));
    let root = opt.insert_tree(&query);
    let plan = opt.find_best_plan(root, ToyProps::sorted(), None).unwrap();
    assert!(plan.delivered.satisfies(&ToyProps::sorted()));
    assert_costs_consistent(&plan);
}

/// Greedy early breaks must not leak "in progress" cycle marks: the same
/// optimizer answers a *different* goal afterwards (a leaked mark would
/// surface as a spurious cycle failure).
#[test]
fn no_cycle_mark_leak_after_degraded_search() {
    let (model, query) = chain(6);
    let mut opt = Optimizer::new(&model, greedy(1));
    let root = opt.insert_tree(&query);
    let _ = opt.find_best_plan(root, ToyProps::any(), None).unwrap();
    let sorted = opt.find_best_plan(root, ToyProps::sorted(), None).unwrap();
    assert!(sorted.delivered.satisfies(&ToyProps::sorted()));
}

fn join_tree(n: usize) -> impl Strategy<Value = Tree> {
    (proptest::collection::vec(any::<u8>(), n - 1), Just(n)).prop_map(|(splits, n)| {
        fn build(leaves: &[usize], splits: &mut impl Iterator<Item = u8>) -> Tree {
            if leaves.len() == 1 {
                return Tree::leaf(ToyOp::Get(format!("t{}", leaves[0])));
            }
            let s = (splits.next().unwrap_or(0) as usize % (leaves.len() - 1)) + 1;
            let (l, r) = leaves.split_at(s);
            Tree::new(ToyOp::Join, vec![build(l, splits), build(r, splits)])
        }
        let leaves: Vec<usize> = (0..n).collect();
        build(&leaves, &mut splits.into_iter())
    })
}

fn model(n: usize) -> ToyModel {
    let tables: Vec<(String, u64)> = (0..n)
        .map(|i| (format!("t{i}"), 100 + 137 * i as u64))
        .collect();
    let refs: Vec<(&str, u64)> = tables.iter().map(|(s, c)| (s.as_str(), *c)).collect();
    ToyModel::with_tables(&refs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The anytime property, for any tree shape and any move limit: the
    /// greedy plan is structurally valid (costs recompute bottom-up),
    /// satisfies its goal, and never beats the exhaustive optimum.
    #[test]
    fn anytime_property(t in join_tree(5), k in 1usize..=3, sorted in any::<bool>()) {
        let goal = if sorted { ToyProps::sorted() } else { ToyProps::any() };
        let m = model(5);

        let mut base = Optimizer::new(&m, SearchOptions::default());
        let broot = base.insert_tree(&t);
        let optimum = base.find_best_plan(broot, goal, None).unwrap().cost;

        let mut opt = Optimizer::new(&m, greedy(k));
        let root = opt.insert_tree(&t);
        let plan = opt.find_best_plan(root, goal, None).unwrap();

        assert_costs_consistent(&plan);
        prop_assert!(plan.delivered.satisfies(&goal));
        prop_assert!(
            plan.cost + 1e-9 >= optimum,
            "greedy plan {} cheaper than optimum {}", plan.cost, optimum
        );
        prop_assert_eq!(opt.stats().failures_recorded, 0);
    }

    /// Greedy search is deterministic: the same query under the same move
    /// limit yields the identical plan and identical counters.
    #[test]
    fn greedy_search_is_deterministic(t in join_tree(5), k in 1usize..=3) {
        let m = model(5);
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut opt = Optimizer::new(&m, greedy(k));
            let root = opt.insert_tree(&t);
            let plan = opt.find_best_plan(root, ToyProps::any(), None).unwrap();
            runs.push((plan.compact(), plan.cost, opt.stats().clone()));
        }
        prop_assert_eq!(&runs[0].0, &runs[1].0, "plans diverged across identical runs");
        prop_assert_eq!(runs[0].1, runs[1].1);
        prop_assert!(
            runs[0].2.counters_eq(&runs[1].2),
            "stats diverged across identical runs:\n{:?}\n{:?}", runs[0].2, runs[1].2
        );
    }
}
