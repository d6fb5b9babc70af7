//! A goal's moves are generated once per memo version: re-optimizing a
//! goal after a memoized failure reuses its move list, while the plans,
//! the statistics and the trace stay those of a search that regenerates
//! the moves every time.

use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use volcano_core::toy::{toy_disc, ToyAlg, ToyModel, ToyOp, ToyProps};
use volcano_core::trace::{CollectingTracer, TraceEvent};
use volcano_core::{
    AlgApplication, Binding, ExprTree, GoalId, ImplementationRule, Optimizer, Pattern,
    PhysicalProps, Plan, RuleCtx, SearchOptions, SearchStats,
};

type Tree = ExprTree<ToyModel>;

fn get(name: &str) -> Tree {
    Tree::leaf(ToyOp::Get(name.into()))
}

fn join(l: Tree, r: Tree) -> Tree {
    Tree::new(ToyOp::Join, vec![l, r])
}

fn model() -> ToyModel {
    ToyModel::with_tables(&[
        ("A", 1000),
        ("B", 20),
        ("C", 500),
        ("D", 3000),
        ("E", 70),
        ("F", 400),
    ])
}

fn five_way() -> Tree {
    join(
        join(join(join(get("A"), get("B")), get("C")), get("D")),
        get("E"),
    )
}

/// The statistics without the wall clock, for exact comparison.
fn counters(s: &SearchStats) -> String {
    let mut s = s.clone();
    s.elapsed = Default::default();
    format!("{s:?}")
}

fn same_plan(a: &Plan<ToyModel>, b: &Plan<ToyModel>) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// The optimal cost of `tree` for `required`, from a fresh optimizer.
fn optimum(m: &ToyModel, tree: &Tree, required: ToyProps) -> f64 {
    let mut opt = Optimizer::new(m, SearchOptions::default());
    let root = opt.insert_tree(tree);
    opt.find_best_plan(root, required, None).unwrap().cost
}

/// An implementation rule for `get` that offers no algorithm and counts
/// how often the engine asks it for applications.
struct CountingGetRule {
    pattern: Pattern<ToyModel>,
    calls: Arc<AtomicU64>,
}

impl ImplementationRule<ToyModel> for CountingGetRule {
    fn name(&self) -> &'static str {
        "counting_get"
    }

    fn pattern(&self) -> &Pattern<ToyModel> {
        &self.pattern
    }

    fn applies(
        &self,
        _b: &Binding<ToyModel>,
        _required: &ToyProps,
        _ctx: &RuleCtx<'_, ToyModel>,
    ) -> Vec<AlgApplication<ToyModel>> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        vec![]
    }

    fn cost(
        &self,
        _app: &AlgApplication<ToyModel>,
        _b: &Binding<ToyModel>,
        _ctx: &RuleCtx<'_, ToyModel>,
    ) -> f64 {
        unreachable!("the rule offers no application")
    }
}

#[test]
fn applicability_runs_once_per_goal_however_often_the_goal_is_reoptimized() {
    let mut m = model();
    let calls = Arc::new(AtomicU64::new(0));
    m.push_implementation(Box::new(CountingGetRule {
        pattern: Pattern::op_disc(
            "get",
            vec![toy_disc::GET],
            |op: &ToyOp| matches!(op, ToyOp::Get(_)),
            vec![],
        ),
        calls: Arc::clone(&calls),
    }));
    let best = optimum(&m, &five_way(), ToyProps::sorted());
    calls.store(0, Ordering::Relaxed);
    let mut opt = Optimizer::new(&m, SearchOptions::default());
    let root = opt.insert_tree(&five_way());
    // A query this small stays below the bound on kept moves, so no list
    // is dropped before its goal is asked again.
    // Too tight, then enough: the second call re-optimizes every goal the
    // first one failed, on top of the re-optimizations inside each search.
    for limit in [0.5 * best, 0.9 * best, best] {
        let _ = opt.find_best_plan(root, ToyProps::sorted(), Some(limit));
    }
    let memo = opt.memo();
    let s = opt.stats();
    // Every goal entered records a plan or a failure, so more entries
    // than winner-table rows means some goals were optimized again.
    assert!(s.goals_optimized > memo.winner_count() as u64);
    let get_goals: usize = memo
        .group_ids()
        .into_iter()
        .filter(|&g| {
            memo.group_exprs(g)
                .all(|e| matches!(memo.expr(e).0, ToyOp::Get(_)))
        })
        .map(|g| {
            (0..memo.num_goals())
                .filter(|&i| memo.winner(g, GoalId::from_index(i)).is_some())
                .count()
        })
        .sum();
    assert!(get_goals > 0);
    assert_eq!(calls.load(Ordering::Relaxed), get_goals as u64);
}

#[test]
fn new_expressions_between_searches_give_a_fresh_optimizers_plans() {
    let m = model();
    let a = five_way();
    // A sixth relation joined to `a`'s in another order: inserting it
    // grows the memo, so every move list generated for `a` is stale.
    let b = join(
        get("E"),
        join(
            join(get("D"), get("F")),
            join(get("B"), join(get("A"), get("C"))),
        ),
    );
    let best = optimum(&m, &a, ToyProps::sorted());

    for explore_only in [false, true] {
        let mut opt = Optimizer::new(&m, SearchOptions::default());
        let ra = opt.insert_tree(&a);
        assert!(opt
            .find_best_plan(ra, ToyProps::sorted(), Some(0.8 * best))
            .is_err());
        let version = opt.memo().version();
        let rb = opt.insert_tree(&b);
        assert!(opt.memo().version() > version);
        if explore_only {
            opt.explore();
        }
        let pa = opt.find_best_plan(ra, ToyProps::sorted(), None).unwrap();
        let pb = opt.find_best_plan(rb, ToyProps::any(), None).unwrap();

        let mut fresh = Optimizer::new(&m, SearchOptions::default());
        let fa = fresh.insert_tree(&a);
        let fb = fresh.insert_tree(&b);
        let qa = fresh.find_best_plan(fa, ToyProps::sorted(), None).unwrap();
        let qb = fresh.find_best_plan(fb, ToyProps::any(), None).unwrap();
        assert_eq!(pa.cost, qa.cost);
        assert_eq!(pb.cost, qb.cost);
        assert!(same_plan(&pa, &qa), "{pa:?}\nvs\n{qa:?}");
        assert!(same_plan(&pb, &qb), "{pb:?}\nvs\n{qb:?}");
    }
}

#[test]
fn reused_lists_replay_their_exclusions_to_the_tracer() {
    let m = model();
    let best = optimum(&m, &five_way(), ToyProps::sorted());
    let run = |traced: bool| {
        let tracer = Rc::new(CollectingTracer::new());
        let mut opt = Optimizer::new(&m, SearchOptions::default());
        if traced {
            opt.set_tracer(Box::new(Rc::clone(&tracer)));
        }
        let root = opt.insert_tree(&five_way());
        assert!(opt
            .find_best_plan(root, ToyProps::sorted(), Some(0.9 * best))
            .is_err());
        let plan = opt.find_best_plan(root, ToyProps::sorted(), None).unwrap();
        let rows = opt.memo().winner_count() as u64;
        (plan, opt.stats().clone(), rows, tracer.take())
    };
    let (plan, stats, rows, events) = run(true);
    let (untraced_plan, untraced_stats, _, none) = run(false);
    assert!(none.is_empty());
    assert!(same_plan(&plan, &untraced_plan));
    assert_eq!(counters(&stats), counters(&untraced_stats));
    // The sort enforcer's excluding vector removed merge joins, and some
    // goals were optimized more than once.
    assert!(stats.moves_excluded > 0);
    assert!(stats.goals_optimized > rows);
    assert!(plan.nodes().iter().any(|n| n.alg == ToyAlg::Sort));
    let excluded = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::MoveExcluded { .. }))
        .count() as u64;
    let begun = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::GoalBegin { .. }))
        .count() as u64;
    assert_eq!(excluded, stats.moves_excluded);
    assert_eq!(begun, stats.goals_optimized);
}

#[test]
fn move_limits_repeat_exactly() {
    let m = model();
    let best = optimum(&m, &five_way(), ToyProps::sorted());
    for k in [1, 2] {
        let opts = SearchOptions {
            move_limit: Some(k),
            ..SearchOptions::default()
        };
        let run = || {
            let mut opt = Optimizer::new(&m, opts.clone());
            let root = opt.insert_tree(&five_way());
            let first = opt.find_best_plan(root, ToyProps::sorted(), Some(0.9 * best));
            let second = opt.find_best_plan(root, ToyProps::sorted(), None).unwrap();
            // Failures found under a move limit are never memoized.
            assert_eq!(opt.stats().failures_recorded, 0);
            (first.map(|p| p.cost), second, counters(opt.stats()))
        };
        let (first, plan, stats) = run();
        let (first_again, plan_again, stats_again) = run();
        assert_eq!(first, first_again);
        assert!(same_plan(&plan, &plan_again));
        assert_eq!(stats, stats_again);
        assert!(plan.delivered.satisfies(&ToyProps::sorted()));
    }
}
