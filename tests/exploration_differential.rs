//! The exploration fixpoint against a naive saturation loop.
//!
//! The engine fires each (rule, binding) once: a multi-level rule is
//! re-run on an expression only when a class under one of its nested
//! pattern positions changed, and then only over the bindings that
//! contain a change. The loop below knows nothing of that — it re-runs
//! every rule on every live expression, all bindings, until a whole sweep
//! leaves the memo unchanged — and is written against the public `Memo` /
//! `match_pattern` / `insert_subst` API alone. Both must reach the same
//! logical search space: same live classes, same live expressions, same
//! members per class (class and expression *numbers* differ, because the
//! two derive things in different orders).

use std::collections::{HashMap, HashSet};

use volcano_bench::workload::{generate_query, WorkloadConfig};
use volcano_core::toy::{ToyModel, ToyOp};
use volcano_core::{
    match_pattern, ExprId, ExprTree, GroupId, Memo, Model, Optimizer, RuleCtx, SearchBudget,
    SearchOptions, TripReason,
};
use volcano_rel::{RelModel, RelModelOptions};

/// Naive saturation: every rule, every live expression, every binding,
/// until nothing changes.
fn saturate<M: Model>(model: &M, memo: &mut Memo<M>) {
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < memo.num_exprs() {
            let e = ExprId::from_index(i);
            i += 1;
            for rule in model.transformations() {
                for b in match_pattern(memo, rule.pattern(), e) {
                    if !memo.is_live(e) {
                        break;
                    }
                    let ctx = RuleCtx::new(memo);
                    if !rule.condition(&b, &ctx) {
                        continue;
                    }
                    let target = memo.group_of(e);
                    for s in rule.apply(&b, &ctx) {
                        changed |= memo.insert_subst(model, &s, target);
                    }
                }
            }
        }
    }
}

fn live_exprs<M: Model>(memo: &Memo<M>) -> Vec<ExprId> {
    (0..memo.num_exprs())
        .map(ExprId::from_index)
        .filter(|&e| memo.is_live(e))
        .collect()
}

/// Assert the two memos hold the same classes with the same members, by
/// growing the class correspondence bottom-up from the leaf operators:
/// an expression of `a` whose input classes are all mapped must exist in
/// `b` under the mapped inputs, and fixes the image of its own class.
fn assert_same_search_space<M: Model>(a: &Memo<M>, b: &Memo<M>, tag: &str) {
    assert_eq!(a.num_groups(), b.num_groups(), "{tag}: live classes");
    let (live_a, live_b) = (live_exprs(a), live_exprs(b));
    assert_eq!(live_a.len(), live_b.len(), "{tag}: live expressions");
    let in_b: HashMap<(M::Op, Vec<GroupId>), GroupId> = live_b
        .iter()
        .map(|&e| {
            let (op, inputs) = b.expr(e);
            ((op.clone(), inputs.to_vec()), b.group_of(e))
        })
        .collect();
    let mut image: HashMap<GroupId, GroupId> = HashMap::new();
    let mut pending = live_a;
    loop {
        let before = pending.len();
        pending.retain(|&e| {
            let (op, inputs) = a.expr(e);
            let mapped: Option<Vec<GroupId>> =
                inputs.iter().map(|g| image.get(g).copied()).collect();
            let Some(mapped) = mapped else {
                return true;
            };
            let class = *in_b
                .get(&(op.clone(), mapped))
                .unwrap_or_else(|| panic!("{tag}: {op:?} over {inputs:?} has no counterpart"));
            let previous = image.insert(a.group_of(e), class);
            assert!(
                previous.is_none_or(|p| p == class),
                "{tag}: members of one class landed in two"
            );
            false
        });
        if pending.len() == before {
            break;
        }
    }
    assert!(pending.is_empty(), "{tag}: {} unreachable", pending.len());
    // Injective on classes, hence (equal counts, distinct keys per memo)
    // a bijection on expressions that respects class membership.
    let distinct: HashSet<GroupId> = image.values().copied().collect();
    assert_eq!(
        distinct.len(),
        image.len(),
        "{tag}: two classes share an image"
    );
    assert_eq!(image.len(), a.num_groups(), "{tag}: unmapped classes");
}

fn assert_engine_matches_naive<M: Model>(model: &M, query: &ExprTree<M>, tag: &str) {
    let mut opt = Optimizer::new(model, SearchOptions::default());
    opt.insert_tree(query);
    opt.explore();

    let mut naive: Memo<M> = Memo::new();
    naive.insert_tree(model, query);
    saturate(model, &mut naive);

    assert_same_search_space(opt.memo(), &naive, tag);
}

fn toy_chain(n: usize) -> (ToyModel, ExprTree<ToyModel>) {
    let tables: Vec<(String, u64)> = (0..n)
        .map(|i| (format!("t{i}"), 100 + 211 * i as u64))
        .collect();
    let refs: Vec<(&str, u64)> = tables.iter().map(|(s, c)| (s.as_str(), *c)).collect();
    let model = ToyModel::with_tables(&refs);
    let mut e = ExprTree::leaf(ToyOp::Get("t0".into()));
    for i in 1..n {
        e = ExprTree::new(
            ToyOp::Join,
            vec![e, ExprTree::leaf(ToyOp::Get(format!("t{i}")))],
        );
    }
    (model, e)
}

#[test]
fn toy_chains_reach_the_naive_fixpoint() {
    for n in 2..=6 {
        let (model, query) = toy_chain(n);
        assert_engine_matches_naive(&model, &query, &format!("toy chain n={n}"));
        // A selection on top exercises the toy model's other operators.
        let selected = ExprTree::new(ToyOp::Select, vec![query]);
        assert_engine_matches_naive(&model, &selected, &format!("toy select n={n}"));
    }
}

#[test]
fn fig4_queries_reach_the_naive_fixpoint() {
    for n in 2..=6 {
        for seed in 0..3u64 {
            let q = generate_query(&WorkloadConfig::relations(n), seed);
            let model = RelModel::new(q.catalog.clone(), RelModelOptions::paper_fig4());
            assert_engine_matches_naive(&model, &q.expr, &format!("fig4 n={n} seed={seed}"));
        }
    }
}

/// A budget that runs out in the middle of an install phase stamps only
/// the tasks it installed; the rest stay re-runnable, so exploring again
/// on a fresh budget completes the same search space.
#[test]
fn exploration_resumes_after_a_budget_trip_mid_install() {
    let (model, query) = toy_chain(6);
    let mut full = Optimizer::new(&model, SearchOptions::default());
    full.insert_tree(&query);
    full.explore();

    for cap in [12usize, 20, 35, 60] {
        let opts = SearchOptions {
            budget: SearchBudget::default().with_max_exprs(cap),
            ..SearchOptions::default()
        };
        let mut opt = Optimizer::new(&model, opts);
        opt.insert_tree(&query);
        opt.explore();
        assert_eq!(opt.tripped(), Some(TripReason::ExprLimit), "cap={cap}");
        assert!(
            opt.memo().num_exprs() < full.memo().num_exprs(),
            "cap={cap}"
        );

        opt.set_budget(SearchBudget::default());
        opt.explore();
        assert_eq!(opt.tripped(), None, "cap={cap}");
        assert!(!opt.stats().outcome.is_degraded(), "cap={cap}");
        assert_same_search_space(opt.memo(), full.memo(), &format!("resumed cap={cap}"));
    }
}
