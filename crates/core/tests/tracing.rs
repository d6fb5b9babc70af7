//! Integration tests of the span-based tracing subsystem against real
//! searches over the toy model: span nesting mirrors the goal recursion
//! of Figure 2, the event stream reconciles exactly with `SearchStats`,
//! and the default `NullTracer` observes nothing while changing nothing.

use std::rc::Rc;

use volcano_core::toy::{ToyModel, ToyOp, ToyProps};
use volcano_core::trace::{
    build_span_tree, CollectingTracer, NullTracer, Span, TraceEvent, Tracer,
};
use volcano_core::{ExprTree, Optimizer, PhysicalProps, SearchOptions};

type Tree = ExprTree<ToyModel>;

fn get(name: &str) -> Tree {
    Tree::leaf(ToyOp::Get(name.into()))
}

fn join(l: Tree, r: Tree) -> Tree {
    Tree::new(ToyOp::Join, vec![l, r])
}

fn model3() -> ToyModel {
    ToyModel::with_tables(&[("A", 100), ("B", 200), ("C", 300)])
}

fn three_way() -> Tree {
    join(join(get("A"), get("B")), get("C"))
}

/// Walk a span tree, applying `f` to every span.
fn walk(spans: &[Span], f: &mut impl FnMut(&Span)) {
    for s in spans {
        f(s);
        walk(&s.children, f);
    }
}

#[test]
fn span_nesting_matches_goal_recursion() {
    let model = model3();
    let tracer = Rc::new(CollectingTracer::new());
    let mut opt = Optimizer::new(&model, SearchOptions::default());
    opt.set_tracer(Box::new(tracer.clone()));
    let root = opt.insert_tree(&three_way());
    let _ = opt.find_best_plan(root, ToyProps::sorted(), None).unwrap();
    let events = tracer.take();

    // Every goal entered was closed, and the engine entered exactly as
    // many goals as the stats report.
    let begins = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::GoalBegin { .. }))
        .count();
    let ends = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::GoalEnd { .. }))
        .count();
    assert_eq!(begins, ends, "every opened goal must close");
    assert_eq!(begins as u64, opt.stats().goals_optimized);

    // The reconstructed span tree has one span per goal, and its first
    // top-level span is the root group's goal.
    let tree = build_span_tree(&events);
    assert_eq!(tree.size(), begins);
    assert_eq!(tree.roots[0].group, opt.memo().repr(root));
    // A three-way join recurses at least root -> join -> leaf.
    assert!(tree.depth() >= 3, "depth {}", tree.depth());

    // Per-span bookkeeping mirrors the goal that produced it: the costed
    // moves attributed to a span are exactly the moves it pursued, and
    // every span carries an outcome.
    walk(&tree.roots, &mut |s: &Span| {
        let costed = s
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::MoveCosted { .. }))
            .count() as u64;
        assert_eq!(
            costed, s.moves,
            "span for {:?} pursued {} moves but costed {}",
            s.group, s.moves, costed
        );
        assert!(!s.outcome.is_empty());
        // Move events belong to this span's group. (MemoHit events may
        // name a *different* group: an input goal answered from the
        // winner table opens no span of its own, so its hit lands in the
        // requesting goal's span.)
        for e in &s.events {
            match e {
                TraceEvent::MoveCosted { group, .. }
                | TraceEvent::MovePruned { group, .. }
                | TraceEvent::MoveExcluded { group, .. } => assert_eq!(*group, s.group),
                _ => {}
            }
        }
    });

    // Span elapsed times are inclusive: a parent's wall-clock covers its
    // children's.
    walk(&tree.roots, &mut |s: &Span| {
        let child_sum: std::time::Duration = s.children.iter().map(|c| c.elapsed).sum();
        assert!(
            s.elapsed >= child_sum,
            "span {:?} elapsed {:?} < children {:?}",
            s.group,
            s.elapsed,
            child_sum
        );
    });
}

#[test]
fn null_tracer_is_disabled_and_observation_free() {
    assert!(!NullTracer.enabled());
    // NullTracer's event sink is a no-op; a collecting tracer attached to
    // an identical search sees plenty. Either way the search result and
    // the stats are identical: tracing is observation only.
    let run = |trace: bool| {
        let model = model3();
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let tracer = Rc::new(CollectingTracer::new());
        if trace {
            opt.set_tracer(Box::new(tracer.clone()));
        } // else: the default NullTracer stays in place
        let root = opt.insert_tree(&three_way());
        let plan = opt.find_best_plan(root, ToyProps::any(), None).unwrap();
        let s = opt.stats().clone();
        (plan.cost, s, tracer.take().len())
    };
    let (traced_cost, traced_stats, traced_events) = run(true);
    let (null_cost, null_stats, null_events) = run(false);
    assert!(traced_events > 0, "collecting tracer must see events");
    assert_eq!(null_events, 0, "a NullTracer run must add zero events");
    assert_eq!(traced_cost, null_cost);
    assert_eq!(traced_stats.goals_optimized, null_stats.goals_optimized);
    assert_eq!(traced_stats.alg_moves, null_stats.alg_moves);
    assert_eq!(traced_stats.enforcer_moves, null_stats.enforcer_moves);
    assert_eq!(traced_stats.moves_pruned, null_stats.moves_pruned);
    assert_eq!(traced_stats.transform_fired, null_stats.transform_fired);
    assert_eq!(traced_stats.exprs_created, null_stats.exprs_created);
}

/// The event stream and `SearchStats` are two independent observers of
/// the same search: each counter equals a count of one event kind.
#[test]
fn trace_events_reconcile_with_search_stats() {
    let model = model3();
    let tracer = Rc::new(CollectingTracer::new());
    let mut opt = Optimizer::new(&model, SearchOptions::default());
    opt.set_tracer(Box::new(tracer.clone()));
    let root = opt.insert_tree(&three_way());
    let _ = opt.find_best_plan(root, ToyProps::sorted(), None).unwrap();
    // A second query reuses the memo: the winner hits must show up as
    // memo-hit events too.
    let _ = opt.find_best_plan(root, ToyProps::sorted(), None).unwrap();

    let events = tracer.take();
    let s = opt.stats();
    let n = |kind: fn(&TraceEvent) -> bool| events.iter().filter(|e| kind(e)).count() as u64;
    assert_eq!(
        n(|e| matches!(e, TraceEvent::GoalEnd { .. })),
        s.goals_optimized
    );
    assert_eq!(
        n(|e| matches!(e, TraceEvent::GoalBegin { .. })),
        s.goals_optimized
    );
    assert_eq!(
        n(|e| matches!(e, TraceEvent::MemoHit { .. })),
        s.winner_hits + s.failure_hits
    );
    assert!(s.winner_hits > 0, "the second query hit no winner");
    assert_eq!(
        n(|e| matches!(e, TraceEvent::MoveCosted { .. })),
        s.alg_moves + s.enforcer_moves
    );
    assert_eq!(
        n(|e| matches!(e, TraceEvent::MovePruned { .. })),
        s.moves_pruned
    );
    assert_eq!(
        n(|e| matches!(e, TraceEvent::MoveExcluded { .. })),
        s.moves_excluded
    );
    assert_eq!(
        n(|e| matches!(e, TraceEvent::RuleFired { .. })),
        s.transform_fired
    );
    let substitutes: u64 = events
        .iter()
        .map(|e| match e {
            TraceEvent::RuleFired { substitutes, .. } => *substitutes,
            _ => 0,
        })
        .sum();
    assert_eq!(substitutes, s.substitutes_produced);
    // Every goal is one span, and the goals nest.
    let tree = build_span_tree(&events);
    assert_eq!(tree.size() as u64, s.goals_optimized);
    assert!(tree.depth() >= 2);
}
