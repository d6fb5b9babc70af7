//! Property-based tests of the memo and the search engine's invariants,
//! using the toy model over randomly shaped join trees.

use proptest::prelude::*;
use volcano_core::cost::Limit;
use volcano_core::toy::{ToyModel, ToyOp, ToyProps};
use volcano_core::trace::{build_span_tree, CollectingTracer, TraceEvent};
use volcano_core::{ExprTree, Optimizer, PhysicalProps, Plan, SearchOptions};

type Tree = ExprTree<ToyModel>;

/// Strategy: a random binary join tree over tables t0..t{n-1}, each leaf
/// used exactly once (no repeated relations, like real join queries).
fn join_tree(n: usize) -> impl Strategy<Value = Tree> {
    // Random permutation + random shape via split points.
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

    /// Every initial tree shape of the same relations lands in the same
    /// explored memo: same group count, same optimal cost (the essence
    /// of dynamic programming over equivalence classes).
    #[test]
    fn optimum_is_shape_independent(n in 2usize..5, t1 in join_tree(4), t2 in join_tree(4)) {
        let _ = n;
        let m = model(4);
        let mut o1 = Optimizer::new(&m, SearchOptions::default());
        let r1 = o1.insert_tree(&t1);
        let c1 = o1.find_best_plan(r1, ToyProps::any(), None).unwrap().cost;
        let mut o2 = Optimizer::new(&m, SearchOptions::default());
        let r2 = o2.insert_tree(&t2);
        let c2 = o2.find_best_plan(r2, ToyProps::any(), None).unwrap().cost;
        prop_assert!((c1 - c2).abs() < 1e-9, "{c1} vs {c2}");
        prop_assert_eq!(o1.memo().num_groups(), o2.memo().num_groups());
    }

    /// Inserting the same tree twice is a no-op: full structural sharing.
    #[test]
    fn reinsertion_is_idempotent(t in join_tree(4)) {
        let m = model(4);
        let mut opt = Optimizer::new(&m, SearchOptions::default());
        let r1 = opt.insert_tree(&t);
        let before = opt.memo().num_exprs();
        let r2 = opt.insert_tree(&t);
        prop_assert_eq!(opt.memo().repr(r1), opt.memo().repr(r2));
        prop_assert_eq!(opt.memo().num_exprs(), before);
    }

    /// Exploration is confluent: exploring before or during costing gives
    /// identical memo contents.
    #[test]
    fn explore_then_optimize_matches_direct(t in join_tree(4)) {
        let m = model(4);
        let mut o1 = Optimizer::new(&m, SearchOptions::default());
        let r1 = o1.insert_tree(&t);
        o1.explore();
        let c1 = o1.find_best_plan(r1, ToyProps::any(), None).unwrap().cost;

        let mut o2 = Optimizer::new(&m, SearchOptions::default());
        let r2 = o2.insert_tree(&t);
        let c2 = o2.find_best_plan(r2, ToyProps::any(), None).unwrap().cost;
        prop_assert!((c1 - c2).abs() < 1e-9);
        prop_assert_eq!(o1.memo().num_exprs(), o2.memo().num_exprs());
    }

    /// The sorted-goal optimum is never cheaper than the unconstrained
    /// optimum, and both are stable under re-query (memo hits).
    #[test]
    fn goals_are_monotone_and_memoized(t in join_tree(3)) {
        let m = model(3);
        let mut opt = Optimizer::new(&m, SearchOptions::default());
        let root = opt.insert_tree(&t);
        let free = opt.find_best_plan(root, ToyProps::any(), None).unwrap().cost;
        let sorted = opt.find_best_plan(root, ToyProps::sorted(), None).unwrap().cost;
        prop_assert!(sorted + 1e-9 >= free);
        let hits_before = opt.stats().winner_hits;
        let free2 = opt.find_best_plan(root, ToyProps::any(), None).unwrap().cost;
        prop_assert!((free - free2).abs() < 1e-12);
        prop_assert!(opt.stats().winner_hits > hits_before, "second query must hit the memo");
    }

    /// Limit algebra laws (the branch-and-bound arithmetic).
    #[test]
    fn limit_laws(a in 0.0f64..1e6, b in 0.0f64..1e6) {
        let la = Limit::at_most(a);
        // tighten is idempotent and commutes with min.
        prop_assert_eq!(la.tighten(&b), Limit::at_most(a.min(b)));
        // spend then admit: spending the full budget leaves nothing.
        let rest = la.spend(&a);
        prop_assert!(rest.admits(&0.0));
        prop_assert!(!rest.admits(&1e-9) || a == 0.0 || rest == Limit::at_most(0.0));
        // permissiveness is a total preorder consistent with the value.
        let lb = Limit::at_most(b);
        prop_assert_eq!(la.at_least_as_permissive_as(&lb), a >= b);
        prop_assert!(Limit::<f64>::unlimited().at_least_as_permissive_as(&la));
    }

    /// The winner's reported cost is exactly the cost of the plan it
    /// hands back: recomputing bottom-up from per-node local costs
    /// reproduces `plan.cost` at every node. A drift here would mean the
    /// search compared plans on different numbers than it returns.
    #[test]
    fn winner_cost_equals_bottom_up_recomputation(t in join_tree(4), sorted in any::<bool>()) {
        fn recompute(p: &Plan<ToyModel>) -> f64 {
            p.local_cost + p.inputs.iter().map(recompute).sum::<f64>()
        }
        fn check_node(p: &Plan<ToyModel>) {
            let r = recompute(p);
            assert!(
                (p.cost - r).abs() <= 1e-9 * p.cost.abs().max(1.0),
                "node {:?}: reported {} != recomputed {}",
                p.alg, p.cost, r
            );
            for i in &p.inputs {
                check_node(i);
            }
        }
        let m = model(4);
        let mut opt = Optimizer::new(&m, SearchOptions::default());
        let root = opt.insert_tree(&t);
        let goal = if sorted { ToyProps::sorted() } else { ToyProps::any() };
        let plan = opt.find_best_plan(root, goal, None).unwrap();
        check_node(&plan);
    }

    /// The event stream and the engine's own statistics are two
    /// independent observers of the same search; each counter must equal
    /// a count of one event kind, for any tree shape and either goal.
    #[test]
    fn trace_event_counts_reconcile_with_stats(t in join_tree(4), sorted in any::<bool>()) {
        let m = model(4);
        let tracer = std::rc::Rc::new(CollectingTracer::new());
        let mut opt = Optimizer::new(&m, SearchOptions::default());
        opt.set_tracer(Box::new(tracer.clone()));
        let root = opt.insert_tree(&t);
        let goal = if sorted { ToyProps::sorted() } else { ToyProps::any() };
        let _ = opt.find_best_plan(root, goal, None).unwrap();
        let events = tracer.take();
        let s = opt.stats();
        let n = |kind: fn(&TraceEvent) -> bool| events.iter().filter(|e| kind(e)).count() as u64;
        prop_assert_eq!(n(|e| matches!(e, TraceEvent::GoalEnd { .. })), s.goals_optimized);
        prop_assert_eq!(
            n(|e| matches!(e, TraceEvent::MemoHit { .. })),
            s.winner_hits + s.failure_hits
        );
        prop_assert_eq!(
            n(|e| matches!(e, TraceEvent::MoveCosted { .. })),
            s.alg_moves + s.enforcer_moves
        );
        prop_assert_eq!(n(|e| matches!(e, TraceEvent::MovePruned { .. })), s.moves_pruned);
        prop_assert_eq!(n(|e| matches!(e, TraceEvent::MoveExcluded { .. })), s.moves_excluded);
        prop_assert_eq!(n(|e| matches!(e, TraceEvent::RuleFired { .. })), s.transform_fired);
        let substitutes: u64 = events
            .iter()
            .map(|e| match e {
                TraceEvent::RuleFired { substitutes, .. } => *substitutes,
                _ => 0,
            })
            .sum();
        prop_assert_eq!(substitutes, s.substitutes_produced);
        prop_assert_eq!(n(|e| matches!(e, TraceEvent::GoalBegin { .. })), s.goals_optimized);
        prop_assert_eq!(build_span_tree(&events).size() as u64, s.goals_optimized);
    }

    /// Cost-limit boundary on the toy model: limits strictly below the
    /// optimum fail, and at/above succeed.
    #[test]
    fn limit_boundary(t in join_tree(3)) {
        let m = model(3);
        let mut opt = Optimizer::new(&m, SearchOptions::default());
        let root = opt.insert_tree(&t);
        let best = opt.find_best_plan(root, ToyProps::any(), None).unwrap().cost;
        let mut o2 = Optimizer::new(&m, SearchOptions::default());
        let r2 = o2.insert_tree(&t);
        prop_assert!(o2.find_best_plan(r2, ToyProps::any(), Some(best * 0.999)).is_err());
        prop_assert!(o2.find_best_plan(r2, ToyProps::any(), Some(best * 1.001)).is_ok());
    }
}

// ToyProps laws required by the PhysicalProps contract.
proptest! {
    #[test]
    fn props_laws(a in any::<bool>(), b in any::<bool>()) {
        let pa = ToyProps { sorted: a };
        let pb = ToyProps { sorted: b };
        // Reflexive.
        prop_assert!(pa.satisfies(&pa));
        // Everything satisfies `any`.
        prop_assert!(pa.satisfies(&ToyProps::any()));
        // Equality implies satisfaction.
        if pa == pb {
            prop_assert!(pa.satisfies(&pb) && pb.satisfies(&pa));
        }
        // Transitivity over the two-point lattice.
        let pc = ToyProps { sorted: a && b };
        if pa.satisfies(&pb) && pb.satisfies(&pc) {
            prop_assert!(pa.satisfies(&pc));
        }
    }
}

// ---------------------------------------------------------------------
// Class merges: after any sequence of insertions and merges (each one a
// union followed by a re-canonicalization of the whole memo, repeated
// while it proves further classes equal) every stored key is canonical,
// no two live expressions share a key, and the duplicate-detection index
// holds every live expression exactly once.
// `Memo::check_invariants` exists in debug builds only.
// ---------------------------------------------------------------------

#[cfg(debug_assertions)]
mod class_merges {
    use super::*;
    use volcano_core::{GroupId, Memo, SubstExpr};

    /// Every table is empty, so every class derives cardinality 0 and the
    /// toy model lets any two classes be declared equal.
    fn empty_tables() -> ToyModel {
        ToyModel::with_tables(&[("t0", 0), ("t1", 0), ("t2", 0), ("t3", 0)])
    }

    fn get(i: u8) -> Tree {
        Tree::leaf(ToyOp::Get(format!("t{}", i % 4)))
    }

    fn join(a: GroupId, b: GroupId) -> SubstExpr<ToyModel> {
        SubstExpr::Node {
            op: ToyOp::Join,
            inputs: vec![SubstExpr::Group(a), SubstExpr::Group(b)],
        }
    }

    /// Two towers Select(Select(Get t)) over different tables: declaring
    /// the tables equal gives Select(t0)/Select(t1) one key in two
    /// *different* classes (twins), whose merge in turn makes the outer
    /// Selects twins — each pair settled by the pass after its merge.
    #[test]
    fn cascade_settles_twins_of_different_classes() {
        let m = empty_tables();
        let mut memo: Memo<ToyModel> = Memo::new();
        let tower = |t: Tree| Tree::new(ToyOp::Select, vec![Tree::new(ToyOp::Select, vec![t])]);
        let top0 = memo.insert_tree(&m, &tower(get(0)));
        let top1 = memo.insert_tree(&m, &tower(get(1)));
        let (g0, g1) = (memo.insert_tree(&m, &get(0)), memo.insert_tree(&m, &get(1)));
        memo.check_invariants();
        assert_ne!(memo.repr(top0), memo.repr(top1));

        assert!(memo.insert_subst(&m, &SubstExpr::Group(g1), g0));
        memo.check_invariants();
        assert_eq!(memo.repr(top0), memo.repr(top1));
        assert_eq!(
            memo.merge_count(),
            3,
            "tables, inner Selects, outer Selects"
        );
        assert_eq!(memo.dead_expr_count(), 2, "one Select retired per level");
        assert_eq!(memo.num_groups(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random `insert_tree` / `insert_subst` / merge sequences over a
        /// handful of leaves (so keys collide and merges cascade often),
        /// checked after every step.
        #[test]
        fn random_insertions_and_merges_keep_the_memo_consistent(
            steps in proptest::collection::vec((0u8..5, any::<u8>(), any::<u8>(), any::<u8>()), 1..40),
        ) {
            let m = empty_tables();
            let mut memo: Memo<ToyModel> = Memo::new();
            for i in 0..4 {
                memo.insert_tree(&m, &get(i));
            }
            for (kind, x, y, z) in steps {
                let ids = memo.group_ids();
                let pick = |i: u8| ids[i as usize % ids.len()];
                let (merges, exprs) = (memo.merge_count(), memo.num_exprs());
                let changed = match kind {
                    // A join of two classes lands in (or proves equal) a third.
                    0 => memo.insert_subst(&m, &join(pick(x), pick(y)), pick(z)),
                    // The same below a Select: the join gets a class of its own.
                    1 => {
                        let s = SubstExpr::Node { op: ToyOp::Select, inputs: vec![join(pick(x), pick(y))] };
                        memo.insert_subst(&m, &s, pick(z))
                    }
                    // Two classes are declared equal outright.
                    2 => memo.insert_subst(&m, &SubstExpr::Group(pick(x)), pick(y)),
                    3 => {
                        memo.insert_tree(&m, &Tree::new(ToyOp::Join, vec![get(x), get(y)]));
                        memo.num_exprs() > exprs
                    }
                    _ => {
                        memo.insert_tree(&m, &Tree::new(ToyOp::Select, vec![get(x)]));
                        memo.num_exprs() > exprs
                    }
                };
                memo.check_invariants();
                prop_assert_eq!(
                    changed,
                    memo.merge_count() > merges || memo.num_exprs() > exprs,
                    "`changed` must report exactly the structural changes"
                );
                prop_assert_eq!(memo.num_groups() as u64, memo.num_allocated_groups() as u64 - memo.merge_count());
            }
        }
    }
}
