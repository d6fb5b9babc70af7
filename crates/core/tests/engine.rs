//! Direct tests of engine machinery that the toy model alone does not
//! reach: group merging triggered by rules that prove whole classes
//! equal, tracers, heuristic move selection, and rewrite-only use.

use volcano_core::expr::SubstExpr;
use volcano_core::model::{Algorithm, Model, Operator};
use volcano_core::pattern::{Binding, Pattern};
use volcano_core::props::NoProps;
use volcano_core::rules::{
    AlgApplication, Enforcer, ImplementationRule, RuleCtx, TransformationRule,
};
use volcano_core::toy::{ToyModel, ToyOp, ToyProps};
use volcano_core::trace::{CollectingTracer, TraceEvent};
use volcano_core::{ExprTree, Optimizer, PhysicalProps, SearchOptions};

/// A minimal algebra: leaves, a unary `Wrap` (semantically the identity,
/// with an elimination rule), and a binary `Pair` with commutativity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum MOp {
    Leaf(u32),
    Wrap,
    Pair,
}

impl Operator for MOp {
    fn arity(&self) -> usize {
        match self {
            MOp::Leaf(_) => 0,
            MOp::Wrap => 1,
            MOp::Pair => 2,
        }
    }

    fn name(&self) -> &str {
        match self {
            MOp::Leaf(_) => "leaf",
            MOp::Wrap => "wrap",
            MOp::Pair => "pair",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum MAlg {
    Scan,
    Id,
    Combine,
}

impl Algorithm for MAlg {
    fn name(&self) -> &str {
        match self {
            MAlg::Scan => "scan",
            MAlg::Id => "id",
            MAlg::Combine => "combine",
        }
    }
}

/// `wrap(X) ≡ X`: the rule's substitute is a bare group reference, which
/// forces the engine to *merge* the wrap-group with its input group.
struct WrapElim {
    pattern: Pattern<MModel>,
}

impl TransformationRule<MModel> for WrapElim {
    fn name(&self) -> &'static str {
        "wrap_elim"
    }

    fn pattern(&self) -> &Pattern<MModel> {
        &self.pattern
    }

    fn apply(&self, b: &Binding<MModel>, _ctx: &RuleCtx<'_, MModel>) -> Vec<SubstExpr<MModel>> {
        vec![SubstExpr::group(b.input_group(0))]
    }
}

struct PairCommute {
    pattern: Pattern<MModel>,
}

impl TransformationRule<MModel> for PairCommute {
    fn name(&self) -> &'static str {
        "pair_commute"
    }

    fn pattern(&self) -> &Pattern<MModel> {
        &self.pattern
    }

    fn apply(&self, b: &Binding<MModel>, _ctx: &RuleCtx<'_, MModel>) -> Vec<SubstExpr<MModel>> {
        vec![SubstExpr::node(
            MOp::Pair,
            vec![
                SubstExpr::group(b.input_group(1)),
                SubstExpr::group(b.input_group(0)),
            ],
        )]
    }

    fn promise(&self, _b: &Binding<MModel>, _ctx: &RuleCtx<'_, MModel>) -> f64 {
        2.0
    }
}

struct ImplAll {
    leaf_pat: Pattern<MModel>,
    wrap_pat: Pattern<MModel>,
    pair_pat: Pattern<MModel>,
    which: u8,
}

impl ImplementationRule<MModel> for ImplAll {
    fn name(&self) -> &'static str {
        match self.which {
            0 => "leaf_to_scan",
            1 => "wrap_to_id",
            _ => "pair_to_combine",
        }
    }

    fn pattern(&self) -> &Pattern<MModel> {
        match self.which {
            0 => &self.leaf_pat,
            1 => &self.wrap_pat,
            _ => &self.pair_pat,
        }
    }

    fn applies(
        &self,
        _b: &Binding<MModel>,
        _required: &NoProps,
        _ctx: &RuleCtx<'_, MModel>,
    ) -> Vec<AlgApplication<MModel>> {
        let (alg, n) = match self.which {
            0 => (MAlg::Scan, 0),
            1 => (MAlg::Id, 1),
            _ => (MAlg::Combine, 2),
        };
        vec![AlgApplication {
            alg,
            input_props: vec![NoProps; n],
            delivers: NoProps,
        }]
    }

    fn cost(
        &self,
        _app: &AlgApplication<MModel>,
        b: &Binding<MModel>,
        ctx: &RuleCtx<'_, MModel>,
    ) -> f64 {
        match self.which {
            0 => 1.0,
            1 => 5.0, // identity costs something: elimination should win
            _ => ctx.logical_props(b.input_group(0)).0 + ctx.logical_props(b.input_group(1)).0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct MLogical(f64);

struct MModel {
    transforms: Vec<Box<dyn TransformationRule<MModel>>>,
    impls: Vec<Box<dyn ImplementationRule<MModel>>>,
    enforcers: Vec<Box<dyn Enforcer<MModel>>>,
}

impl MModel {
    fn new() -> Self {
        let wrap_pat = || {
            Pattern::op(
                "wrap",
                |op: &MOp| matches!(op, MOp::Wrap),
                vec![Pattern::Any],
            )
        };
        let pair_pat = || {
            Pattern::op(
                "pair",
                |op: &MOp| matches!(op, MOp::Pair),
                vec![Pattern::Any, Pattern::Any],
            )
        };
        let leaf_pat = || Pattern::op("leaf", |op: &MOp| matches!(op, MOp::Leaf(_)), vec![]);
        MModel {
            transforms: vec![
                Box::new(WrapElim {
                    pattern: wrap_pat(),
                }),
                Box::new(PairCommute {
                    pattern: pair_pat(),
                }),
            ],
            impls: vec![
                Box::new(ImplAll {
                    leaf_pat: leaf_pat(),
                    wrap_pat: wrap_pat(),
                    pair_pat: pair_pat(),
                    which: 0,
                }),
                Box::new(ImplAll {
                    leaf_pat: leaf_pat(),
                    wrap_pat: wrap_pat(),
                    pair_pat: pair_pat(),
                    which: 1,
                }),
                Box::new(ImplAll {
                    leaf_pat: leaf_pat(),
                    wrap_pat: wrap_pat(),
                    pair_pat: pair_pat(),
                    which: 2,
                }),
            ],
            enforcers: vec![],
        }
    }
}

impl Model for MModel {
    type Op = MOp;
    type Alg = MAlg;
    type LogicalProps = MLogical;
    type PhysProps = NoProps;
    type Cost = f64;

    fn derive_logical_props(&self, op: &MOp, inputs: &[&MLogical]) -> MLogical {
        match op {
            MOp::Leaf(n) => MLogical(*n as f64),
            MOp::Wrap => *inputs[0],
            MOp::Pair => MLogical(inputs[0].0 + inputs[1].0),
        }
    }

    fn transformations(&self) -> &[Box<dyn TransformationRule<Self>>] {
        &self.transforms
    }

    fn implementations(&self) -> &[Box<dyn ImplementationRule<Self>>] {
        &self.impls
    }

    fn enforcers(&self) -> &[Box<dyn Enforcer<Self>>] {
        &self.enforcers
    }
}

type Tree = ExprTree<MModel>;

fn leaf(n: u32) -> Tree {
    Tree::leaf(MOp::Leaf(n))
}

fn wrap(x: Tree) -> Tree {
    Tree::new(MOp::Wrap, vec![x])
}

fn pair(l: Tree, r: Tree) -> Tree {
    Tree::new(MOp::Pair, vec![l, r])
}

#[test]
fn group_reference_substitute_merges_classes() {
    // wrap(leaf) ≡ leaf: after exploration the two classes are one.
    let model = MModel::new();
    let mut opt = Optimizer::new(&model, SearchOptions::default());
    let root = opt.insert_tree(&wrap(leaf(7)));
    assert_eq!(opt.memo().num_groups(), 2);
    opt.explore();
    assert_eq!(
        opt.memo().num_groups(),
        1,
        "wrap_elim must merge the classes"
    );
    assert!(opt.memo().merge_count() >= 1);
    // The optimal plan skips the identity operator entirely.
    let plan = opt.find_best_plan(root, NoProps, None).unwrap();
    assert_eq!(plan.alg, MAlg::Scan);
    assert_eq!(plan.cost, 1.0);
}

#[test]
fn cascading_merges_retire_duplicate_expressions() {
    // pair(wrap(a), b) and pair(a, b): once wrap(a) merges with a, the
    // two pair expressions become structurally identical and one must be
    // retired as a duplicate.
    let model = MModel::new();
    let mut opt = Optimizer::new(&model, SearchOptions::default());
    let r1 = opt.insert_tree(&pair(wrap(leaf(1)), leaf(2)));
    let r2 = opt.insert_tree(&pair(leaf(1), leaf(2)));
    assert_ne!(opt.memo().repr(r1), opt.memo().repr(r2));
    opt.explore();
    assert_eq!(
        opt.memo().repr(r1),
        opt.memo().repr(r2),
        "merging wrap(a)≡a must identify the two pair classes"
    );
    assert!(opt.memo().dead_expr_count() >= 1);
    let c1 = opt.find_best_plan(r1, NoProps, None).unwrap().cost;
    let c2 = opt.find_best_plan(r2, NoProps, None).unwrap().cost;
    assert_eq!(c1, c2);
    assert_eq!(c1, 1.0 + 1.0 + 3.0); // scans + combine(1+2)
}

/// The statistics that are snapshots of the memo (and the clock) are
/// refreshed at the exit of every public entry point, not only by
/// `find_best_plan`: a rewrite-only caller reads them after `explore`.
#[test]
fn snapshot_stats_are_fresh_after_every_entry_point() {
    let model = MModel::new();
    let mut opt = Optimizer::new(&model, SearchOptions::default());
    opt.insert_tree(&pair(wrap(leaf(1)), leaf(2)));
    opt.insert_tree(&pair(leaf(1), leaf(2)));
    opt.explore();

    let (s, m) = (opt.stats(), opt.memo());
    assert_eq!(s.exprs_created, m.num_exprs());
    assert_eq!(s.groups_created, m.num_allocated_groups());
    assert_eq!(s.group_merges, m.merge_count());
    assert_eq!(s.dead_exprs, m.dead_expr_count());
    assert_eq!(s.memo_bytes, m.memory_estimate());
    assert!(s.exprs_created > 0 && s.group_merges > 0 && s.dead_exprs > 0);
    assert!(s.memo_bytes > 0 && !s.elapsed.is_zero());
}

/// Exploration runs to a fixpoint: a second `explore` and the costing
/// that follows add no expression to the memo.
#[test]
fn explore_is_idempotent() {
    let model = ToyModel::with_tables(&[("t0", 100), ("t1", 311), ("t2", 522), ("t3", 733)]);
    let mut query = ExprTree::leaf(ToyOp::Get("t0".into()));
    for t in ["t1", "t2", "t3"] {
        query = ExprTree::new(
            ToyOp::Join,
            vec![query, ExprTree::leaf(ToyOp::Get(t.into()))],
        );
    }
    let mut opt = Optimizer::new(&model, SearchOptions::default());
    let root = opt.insert_tree(&query);
    opt.explore();
    let exprs = opt.memo().num_exprs();
    opt.explore();
    assert_eq!(opt.memo().num_exprs(), exprs, "fixpoint reached once");
    let _ = opt.find_best_plan(root, ToyProps::any(), None).unwrap();
    assert_eq!(opt.memo().num_exprs(), exprs, "costing inserts nothing");
}

#[test]
fn tracer_sees_rule_firings_and_goals() {
    let model = MModel::new();
    let mut opt = Optimizer::new(&model, SearchOptions::default());
    opt.set_tracer(Box::new(CollectingTracer::new()));
    let root = opt.insert_tree(&pair(leaf(1), leaf(2)));
    let _ = opt.find_best_plan(root, NoProps, None).unwrap();
    // Replace the tracer to take ownership of the events.
    // (CollectingTracer::take works through &self, but we boxed it; use a
    // fresh optimizer with a shared tracer instead.)
    let tracer = std::sync::Arc::new(SharedTracer::default());
    let mut opt2 = Optimizer::new(&model, SearchOptions::default());
    opt2.set_tracer(Box::new(ArcTracer(tracer.clone())));
    let root2 = opt2.insert_tree(&pair(leaf(3), leaf(4)));
    let _ = opt2.find_best_plan(root2, NoProps, None).unwrap();
    let events = tracer.events.lock().unwrap();
    assert!(events.iter().any(|e| matches!(
        e,
        TraceEvent::RuleFired {
            rule: "pair_commute",
            ..
        }
    )));
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::GoalBegin { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::MoveCosted { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::GoalEnd { outcome, .. } if outcome.contains("optimal"))));
}

#[derive(Default)]
struct SharedTracer {
    events: std::sync::Mutex<Vec<TraceEvent>>,
}

struct ArcTracer(std::sync::Arc<SharedTracer>);

impl volcano_core::trace::Tracer for ArcTracer {
    fn event(&self, e: TraceEvent) {
        self.0.events.lock().unwrap().push(e);
    }
}

#[test]
fn move_limit_heuristic_still_produces_plans() {
    let model = MModel::new();
    let opts = SearchOptions {
        move_limit: Some(1),
        ..SearchOptions::default()
    };
    let mut opt = Optimizer::new(&model, opts);
    let root = opt.insert_tree(&pair(pair(leaf(1), leaf(2)), leaf(3)));
    // Each goal ends at the first move, in promise order, that yields a
    // plan: the search still finds one whenever a goal has a feasible
    // move, though optimality is no longer guaranteed.
    let plan = opt.find_best_plan(root, NoProps, None).unwrap();
    assert!(plan.cost > 0.0);
}

#[test]
fn stats_reflect_merges_and_dead_exprs() {
    let model = MModel::new();
    let mut opt = Optimizer::new(&model, SearchOptions::default());
    let root = opt.insert_tree(&pair(wrap(leaf(1)), wrap(leaf(2))));
    let _ = opt.find_best_plan(root, NoProps, None).unwrap();
    let s = opt.stats();
    assert!(
        s.group_merges >= 2,
        "two wrap eliminations: {}",
        s.group_merges
    );
    assert!(s.transform_fired >= 3);
    assert!(s.memo_bytes > 0);
    // Display smoke test.
    let text = s.to_string();
    assert!(text.contains("merges"));
}

#[test]
fn partial_results_survive_across_queries() {
    // The paper notes partial optimization results were "reinitialized
    // for each query" and flags longer-lived results as future work (§3).
    // Keeping one Optimizer instance across queries provides exactly
    // that: a second query sharing a subexpression reuses its winners.
    let model = MModel::new();
    let mut opt = Optimizer::new(&model, SearchOptions::default());
    let shared = pair(leaf(10), leaf(20));
    let q1 = pair(shared.clone(), leaf(30));
    let root1 = opt.insert_tree(&q1);
    let _ = opt.find_best_plan(root1, NoProps, None).unwrap();
    let hits_before = opt.stats().winner_hits;
    let goals_before = opt.stats().goals_optimized;

    // A *different* query over the same shared subexpression.
    let q2 = pair(leaf(40), shared);
    let root2 = opt.insert_tree(&q2);
    let p2 = opt.find_best_plan(root2, NoProps, None).unwrap();
    assert!(p2.cost > 0.0);
    assert!(
        opt.stats().winner_hits > hits_before,
        "the shared subplan must come from the memo"
    );
    // Only the new groups needed optimization.
    let new_goals = opt.stats().goals_optimized - goals_before;
    assert!(
        new_goals <= 3,
        "shared work must not be redone: {new_goals}"
    );
}
