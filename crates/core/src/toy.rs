//! A deliberately small model specification used by this crate's tests,
//! doctests, and documentation examples.
//!
//! The toy algebra has three logical operators (`get`, `select`, `join`),
//! five physical operators (file scan, filter, hash join, merge join, and
//! the *sort* enforcer) and one physical property (sortedness on an
//! abstract key). Despite its size it exercises every engine feature the
//! paper describes: transformations with multi-level patterns
//! (associativity), property-driven algorithm applicability (merge join
//! requires sorted inputs; hash join cannot deliver sorted output), the
//! sort enforcer with its excluding property vector, and cost-based choice
//! between all of them. Real model specifications live in `volcano-rel`
//! and `volcano-oodb`.

use std::collections::HashMap;

use crate::expr::SubstExpr;
use crate::ids::GroupId;
use crate::model::{Algorithm, Model, Operator};
use crate::pattern::{Binding, Pattern};
use crate::props::PhysicalProps;
use crate::rules::{
    AlgApplication, Enforcer, EnforcerApplication, ImplementationRule, RuleCtx, TransformationRule,
};

/// Logical operators of the toy algebra.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ToyOp {
    /// Scan a named stored relation.
    Get(String),
    /// A selection (predicate left abstract).
    Select,
    /// A binary join (join predicate left abstract).
    Join,
}

/// Operator discriminants for the rule-dispatch index (see
/// [`Model::op_discriminant`]). Pure variant tags, never argument values.
pub mod toy_disc {
    /// `ToyOp::Get(_)`.
    pub const GET: usize = 0;
    /// `ToyOp::Select`.
    pub const SELECT: usize = 1;
    /// `ToyOp::Join`.
    pub const JOIN: usize = 2;
}

impl ToyOp {
    /// The operator's dispatch discriminant (see [`toy_disc`]).
    pub fn discriminant(&self) -> usize {
        match self {
            ToyOp::Get(_) => toy_disc::GET,
            ToyOp::Select => toy_disc::SELECT,
            ToyOp::Join => toy_disc::JOIN,
        }
    }
}

impl Operator for ToyOp {
    fn arity(&self) -> usize {
        match self {
            ToyOp::Get(_) => 0,
            ToyOp::Select => 1,
            ToyOp::Join => 2,
        }
    }

    fn name(&self) -> &str {
        match self {
            ToyOp::Get(_) => "get",
            ToyOp::Select => "select",
            ToyOp::Join => "join",
        }
    }
}

/// Physical operators of the toy algebra.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ToyAlg {
    /// Heap-file scan of a named relation; output unsorted.
    FileScan(String),
    /// Predicate filter; preserves its input's ordering.
    Filter,
    /// Hash join: builds on the left input; output unsorted.
    HashJoin,
    /// Merge join: requires both inputs sorted; output sorted.
    MergeJoin,
    /// The sort enforcer.
    Sort,
}

impl Algorithm for ToyAlg {
    fn name(&self) -> &str {
        match self {
            ToyAlg::FileScan(_) => "file_scan",
            ToyAlg::Filter => "filter",
            ToyAlg::HashJoin => "hash_join",
            ToyAlg::MergeJoin => "merge_join",
            ToyAlg::Sort => "sort",
        }
    }
}

/// The toy physical property vector: sortedness on one abstract key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ToyProps {
    /// Is the stream sorted?
    pub sorted: bool,
}

impl ToyProps {
    /// Requirement: sorted output.
    pub fn sorted() -> Self {
        ToyProps { sorted: true }
    }
}

impl PhysicalProps for ToyProps {
    fn any() -> Self {
        ToyProps { sorted: false }
    }

    fn satisfies(&self, required: &Self) -> bool {
        !required.sorted || self.sorted
    }
}

/// Toy logical properties: an estimated cardinality.
#[derive(Debug, Clone, Copy)]
pub struct ToyLogical {
    /// Estimated number of result rows.
    pub card: f64,
}

/// Join output selectivity used by the toy cost model.
pub const JOIN_SELECTIVITY: f64 = 0.01;
/// Selection selectivity used by the toy cost model.
pub const SELECT_SELECTIVITY: f64 = 0.5;

// ---------------------------------------------------------------------
// Transformation rules.
// ---------------------------------------------------------------------

struct JoinCommute {
    pattern: Pattern<ToyModel>,
}

impl JoinCommute {
    fn new() -> Self {
        JoinCommute {
            pattern: Pattern::op_disc(
                "join",
                vec![toy_disc::JOIN],
                |op: &ToyOp| matches!(op, ToyOp::Join),
                vec![Pattern::Any, Pattern::Any],
            ),
        }
    }
}

impl TransformationRule<ToyModel> for JoinCommute {
    fn name(&self) -> &'static str {
        "join_commute"
    }

    fn pattern(&self) -> &Pattern<ToyModel> {
        &self.pattern
    }

    fn apply(
        &self,
        b: &Binding<ToyModel>,
        _ctx: &RuleCtx<'_, ToyModel>,
    ) -> Vec<SubstExpr<ToyModel>> {
        vec![SubstExpr::node(
            ToyOp::Join,
            vec![
                SubstExpr::group(b.input_group(1)),
                SubstExpr::group(b.input_group(0)),
            ],
        )]
    }
}

struct JoinAssoc {
    pattern: Pattern<ToyModel>,
}

impl JoinAssoc {
    fn new() -> Self {
        JoinAssoc {
            pattern: Pattern::op_disc(
                "join",
                vec![toy_disc::JOIN],
                |op: &ToyOp| matches!(op, ToyOp::Join),
                vec![
                    Pattern::op_disc(
                        "join",
                        vec![toy_disc::JOIN],
                        |op: &ToyOp| matches!(op, ToyOp::Join),
                        vec![Pattern::Any, Pattern::Any],
                    ),
                    Pattern::Any,
                ],
            ),
        }
    }
}

impl TransformationRule<ToyModel> for JoinAssoc {
    fn name(&self) -> &'static str {
        "join_assoc"
    }

    fn pattern(&self) -> &Pattern<ToyModel> {
        &self.pattern
    }

    fn apply(
        &self,
        b: &Binding<ToyModel>,
        _ctx: &RuleCtx<'_, ToyModel>,
    ) -> Vec<SubstExpr<ToyModel>> {
        // (A join B) join C  =>  A join (B join C): the inner join on the
        // right is the paper's Figure 3 "new equivalence class".
        let inner = b.nested(0);
        let a = inner.input_group(0);
        let bb = inner.input_group(1);
        let c = b.input_group(1);
        vec![SubstExpr::node(
            ToyOp::Join,
            vec![
                SubstExpr::group(a),
                SubstExpr::node(ToyOp::Join, vec![SubstExpr::group(bb), SubstExpr::group(c)]),
            ],
        )]
    }
}

// ---------------------------------------------------------------------
// Implementation rules.
// ---------------------------------------------------------------------

struct GetToScan {
    pattern: Pattern<ToyModel>,
}

impl GetToScan {
    fn new() -> Self {
        GetToScan {
            pattern: Pattern::op_disc(
                "get",
                vec![toy_disc::GET],
                |op: &ToyOp| matches!(op, ToyOp::Get(_)),
                vec![],
            ),
        }
    }
}

impl ImplementationRule<ToyModel> for GetToScan {
    fn name(&self) -> &'static str {
        "get_to_file_scan"
    }

    fn pattern(&self) -> &Pattern<ToyModel> {
        &self.pattern
    }

    fn applies(
        &self,
        b: &Binding<ToyModel>,
        required: &ToyProps,
        _ctx: &RuleCtx<'_, ToyModel>,
    ) -> Vec<AlgApplication<ToyModel>> {
        if required.sorted {
            // A heap scan cannot deliver sorted output; only the sort
            // enforcer can help here.
            return vec![];
        }
        let ToyOp::Get(name) = &b.op else {
            unreachable!()
        };
        vec![AlgApplication {
            alg: ToyAlg::FileScan(name.clone()),
            input_props: vec![],
            delivers: ToyProps { sorted: false },
        }]
    }

    fn cost(
        &self,
        _app: &AlgApplication<ToyModel>,
        b: &Binding<ToyModel>,
        ctx: &RuleCtx<'_, ToyModel>,
    ) -> f64 {
        ctx.memo().logical_props(ctx.memo().group_of(b.expr)).card
    }
}

struct SelectToFilter {
    pattern: Pattern<ToyModel>,
}

impl SelectToFilter {
    fn new() -> Self {
        SelectToFilter {
            pattern: Pattern::op_disc(
                "select",
                vec![toy_disc::SELECT],
                |op: &ToyOp| matches!(op, ToyOp::Select),
                vec![Pattern::Any],
            ),
        }
    }
}

impl ImplementationRule<ToyModel> for SelectToFilter {
    fn name(&self) -> &'static str {
        "select_to_filter"
    }

    fn pattern(&self) -> &Pattern<ToyModel> {
        &self.pattern
    }

    fn applies(
        &self,
        _b: &Binding<ToyModel>,
        required: &ToyProps,
        _ctx: &RuleCtx<'_, ToyModel>,
    ) -> Vec<AlgApplication<ToyModel>> {
        // Filter preserves its input's ordering, so it can deliver
        // whatever is required by requiring the same of its input.
        vec![AlgApplication {
            alg: ToyAlg::Filter,
            input_props: vec![*required],
            delivers: *required,
        }]
    }

    fn cost(
        &self,
        _app: &AlgApplication<ToyModel>,
        b: &Binding<ToyModel>,
        ctx: &RuleCtx<'_, ToyModel>,
    ) -> f64 {
        // One predicate evaluation per input row.
        ctx.logical_props(b.input_group(0)).card
    }
}

struct JoinToHash {
    pattern: Pattern<ToyModel>,
}

impl JoinToHash {
    fn new() -> Self {
        JoinToHash {
            pattern: Pattern::op_disc(
                "join",
                vec![toy_disc::JOIN],
                |op: &ToyOp| matches!(op, ToyOp::Join),
                vec![Pattern::Any, Pattern::Any],
            ),
        }
    }
}

impl ImplementationRule<ToyModel> for JoinToHash {
    fn name(&self) -> &'static str {
        "join_to_hash_join"
    }

    fn pattern(&self) -> &Pattern<ToyModel> {
        &self.pattern
    }

    fn applies(
        &self,
        _b: &Binding<ToyModel>,
        required: &ToyProps,
        _ctx: &RuleCtx<'_, ToyModel>,
    ) -> Vec<AlgApplication<ToyModel>> {
        if required.sorted {
            // "When optimizing a join expression whose result should be
            // sorted on the join attribute, hybrid hash join does not
            // qualify" (§2.2).
            return vec![];
        }
        vec![AlgApplication {
            alg: ToyAlg::HashJoin,
            input_props: vec![ToyProps::any(), ToyProps::any()],
            delivers: ToyProps { sorted: false },
        }]
    }

    fn cost(
        &self,
        _app: &AlgApplication<ToyModel>,
        b: &Binding<ToyModel>,
        ctx: &RuleCtx<'_, ToyModel>,
    ) -> f64 {
        // Build on the left (2 units/row), probe with the right (1/row):
        // asymmetric on purpose, so commutativity pays off.
        let l = ctx.logical_props(b.input_group(0)).card;
        let r = ctx.logical_props(b.input_group(1)).card;
        2.0 * l + r
    }
}

struct JoinToMerge {
    pattern: Pattern<ToyModel>,
}

impl JoinToMerge {
    fn new() -> Self {
        JoinToMerge {
            pattern: Pattern::op_disc(
                "join",
                vec![toy_disc::JOIN],
                |op: &ToyOp| matches!(op, ToyOp::Join),
                vec![Pattern::Any, Pattern::Any],
            ),
        }
    }
}

impl ImplementationRule<ToyModel> for JoinToMerge {
    fn name(&self) -> &'static str {
        "join_to_merge_join"
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
        // "Merge-join qualifies with the requirement that its inputs be
        // sorted" (§2.2), and its output is sorted whether that was
        // required or not.
        vec![AlgApplication {
            alg: ToyAlg::MergeJoin,
            input_props: vec![ToyProps::sorted(), ToyProps::sorted()],
            delivers: ToyProps::sorted(),
        }]
    }

    fn cost(
        &self,
        _app: &AlgApplication<ToyModel>,
        b: &Binding<ToyModel>,
        ctx: &RuleCtx<'_, ToyModel>,
    ) -> f64 {
        let l = ctx.logical_props(b.input_group(0)).card;
        let r = ctx.logical_props(b.input_group(1)).card;
        l + r
    }
}

// ---------------------------------------------------------------------
// Enforcers.
// ---------------------------------------------------------------------

struct SortEnforcer;

impl Enforcer<ToyModel> for SortEnforcer {
    fn name(&self) -> &'static str {
        "sort"
    }

    fn applies(
        &self,
        required: &ToyProps,
        _group: GroupId,
        _ctx: &RuleCtx<'_, ToyModel>,
    ) -> Vec<EnforcerApplication<ToyModel>> {
        if !required.sorted {
            return vec![];
        }
        vec![EnforcerApplication {
            alg: ToyAlg::Sort,
            relaxed: ToyProps::any(),
            // Merge-join "must not be considered as input to the sort"
            // (§2.2): exclude plans that could deliver sortedness
            // themselves.
            excluded: ToyProps::sorted(),
            delivers: ToyProps::sorted(),
        }]
    }

    fn cost(
        &self,
        _app: &EnforcerApplication<ToyModel>,
        group: GroupId,
        ctx: &RuleCtx<'_, ToyModel>,
    ) -> f64 {
        let card = ctx.logical_props(group).card.max(2.0);
        card * card.log2()
    }
}

/// The toy model specification.
pub struct ToyModel {
    tables: HashMap<String, f64>,
    transforms: Vec<Box<dyn TransformationRule<ToyModel>>>,
    impls: Vec<Box<dyn ImplementationRule<ToyModel>>>,
    enfs: Vec<Box<dyn Enforcer<ToyModel>>>,
}

impl ToyModel {
    /// Build a model over the named tables with their cardinalities.
    pub fn with_tables(tables: &[(&str, u64)]) -> Self {
        ToyModel {
            tables: tables
                .iter()
                .map(|(n, c)| (n.to_string(), *c as f64))
                .collect(),
            transforms: vec![Box::new(JoinCommute::new()), Box::new(JoinAssoc::new())],
            impls: vec![
                Box::new(GetToScan::new()),
                Box::new(SelectToFilter::new()),
                Box::new(JoinToHash::new()),
                Box::new(JoinToMerge::new()),
            ],
            enfs: vec![Box::new(SortEnforcer)],
        }
    }

    /// Append a custom transformation rule. Test support: inject
    /// adversarial rules (e.g. panicking condition/apply code) without
    /// defining a whole model.
    pub fn push_transformation(&mut self, rule: Box<dyn TransformationRule<ToyModel>>) {
        self.transforms.push(rule);
    }

    /// Append a custom implementation rule. Test support, like
    /// [`Self::push_transformation`]: e.g. a rule that observes how often
    /// the engine asks for applications.
    pub fn push_implementation(&mut self, rule: Box<dyn ImplementationRule<ToyModel>>) {
        self.impls.push(rule);
    }

    /// Cardinality of a named table.
    pub fn table_card(&self, name: &str) -> f64 {
        *self
            .tables
            .get(name)
            .unwrap_or_else(|| panic!("unknown toy table {name:?}"))
    }
}

impl Model for ToyModel {
    type Op = ToyOp;
    type Alg = ToyAlg;
    type LogicalProps = ToyLogical;
    type PhysProps = ToyProps;
    type Cost = f64;

    fn derive_logical_props(&self, op: &ToyOp, inputs: &[&ToyLogical]) -> ToyLogical {
        let card = match op {
            ToyOp::Get(name) => self.table_card(name),
            ToyOp::Select => inputs[0].card * SELECT_SELECTIVITY,
            ToyOp::Join => inputs[0].card * inputs[1].card * JOIN_SELECTIVITY,
        };
        ToyLogical { card }
    }

    fn assert_logical_props_consistent(&self, existing: &ToyLogical, derived: &ToyLogical) {
        debug_assert!(
            (existing.card - derived.card).abs() <= 1e-6 * existing.card.max(1.0),
            "equivalent expressions derived different cardinalities: {} vs {}",
            existing.card,
            derived.card
        );
    }

    fn op_discriminant(&self, op: &ToyOp) -> Option<usize> {
        Some(op.discriminant())
    }

    fn transformations(&self) -> &[Box<dyn TransformationRule<Self>>] {
        &self.transforms
    }

    fn implementations(&self) -> &[Box<dyn ImplementationRule<Self>>] {
        &self.impls
    }

    fn enforcers(&self) -> &[Box<dyn Enforcer<Self>>] {
        &self.enfs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::OptimizeError;
    use crate::expr::ExprTree;
    use crate::search::{Optimizer, SearchOptions};

    type Tree = ExprTree<ToyModel>;

    fn get(name: &str) -> Tree {
        Tree::leaf(ToyOp::Get(name.into()))
    }

    fn join(l: Tree, r: Tree) -> Tree {
        Tree::new(ToyOp::Join, vec![l, r])
    }

    fn select(x: Tree) -> Tree {
        Tree::new(ToyOp::Select, vec![x])
    }

    #[test]
    fn scan_costs_cardinality() {
        let model = ToyModel::with_tables(&[("R", 500)]);
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&get("R"));
        let plan = opt.find_best_plan(root, ToyProps::any(), None).unwrap();
        assert_eq!(plan.cost, 500.0);
        assert!(matches!(plan.alg, ToyAlg::FileScan(ref n) if n == "R"));
    }

    #[test]
    fn commutativity_puts_small_relation_on_build_side() {
        let model = ToyModel::with_tables(&[("BIG", 10_000), ("SMALL", 10)]);
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&join(get("BIG"), get("SMALL")));
        let plan = opt.find_best_plan(root, ToyProps::any(), None).unwrap();
        // Hash join builds on the left: the optimizer must have commuted
        // so SMALL is the build (left) input.
        assert_eq!(plan.alg, ToyAlg::HashJoin);
        assert!(matches!(plan.inputs[0].alg, ToyAlg::FileScan(ref n) if n == "SMALL"));
        // Total: scans (10_000 + 10) + hash join (2*10 + 10_000).
        assert_eq!(plan.cost, 10.0 + 10_000.0 + 2.0 * 10.0 + 10_000.0);
    }

    #[test]
    fn sorted_goal_is_satisfied_and_consistent() {
        let model = ToyModel::with_tables(&[("R", 1000), ("S", 1000)]);
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&join(get("R"), get("S")));
        let plan = opt.find_best_plan(root, ToyProps::sorted(), None).unwrap();
        assert!(plan.delivered.sorted);
        // Either merge-join (with sort enforcers below) or sort-on-top of
        // hash join; both deliver sortedness.
        assert!(matches!(plan.alg, ToyAlg::MergeJoin | ToyAlg::Sort));
    }

    #[test]
    fn merge_join_never_appears_directly_under_sort() {
        // The excluding physical property vector at work (§3).
        let model = ToyModel::with_tables(&[("R", 1000), ("S", 900)]);
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&join(get("R"), get("S")));
        let plan = opt.find_best_plan(root, ToyProps::sorted(), None).unwrap();
        for node in plan.nodes() {
            if node.alg == ToyAlg::Sort {
                assert_ne!(
                    node.inputs[0].alg,
                    ToyAlg::MergeJoin,
                    "merge-join must not be considered as input to the sort"
                );
            }
        }
    }

    #[test]
    fn sorted_goal_cost_is_min_of_both_strategies() {
        let model = ToyModel::with_tables(&[("R", 1000), ("S", 1000)]);
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&join(get("R"), get("S")));
        let plan = opt.find_best_plan(root, ToyProps::sorted(), None).unwrap();

        let scan = 1000.0;
        let sort_base = |card: f64| card * card.log2();
        // Strategy A: sort both scans, merge join.
        let a = 2.0 * scan + 2.0 * sort_base(1000.0) + (1000.0 + 1000.0);
        // Strategy B: hash join unsorted, sort the result (card 10_000).
        let b = 2.0 * scan + (2.0 * 1000.0 + 1000.0) + sort_base(10_000.0);
        assert!((plan.cost - a.min(b)).abs() < 1e-6);
    }

    #[test]
    fn three_way_join_explores_all_orders() {
        let model = ToyModel::with_tables(&[("A", 100), ("B", 200), ("C", 300)]);
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&join(join(get("A"), get("B")), get("C")));
        let _ = opt.find_best_plan(root, ToyProps::any(), None).unwrap();
        // Exhaustive exploration of 3 relations: 3 leaf groups, the three
        // pair groups {AB, BC, AC}, and the root group = 7 live groups.
        assert_eq!(opt.memo().num_groups(), 7);
        // Each pair group holds both commuted joins; the root holds
        // 3 (pairs) * 2 (commutations) = 6 join expressions.
        let root_exprs = opt.memo().group_exprs(opt.memo().repr(root));
        assert_eq!(root_exprs.count(), 6);
    }

    #[test]
    fn cost_limit_is_respected() {
        let model = ToyModel::with_tables(&[("R", 1000), ("S", 1000)]);
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&join(get("R"), get("S")));
        let err = opt
            .find_best_plan(root, ToyProps::any(), Some(10.0))
            .unwrap_err();
        assert_eq!(err, OptimizeError::LimitExceeded);
        // And a generous limit succeeds on the same optimizer instance
        // (failure memoization must not block the more permissive retry).
        let plan = opt
            .find_best_plan(root, ToyProps::any(), Some(1e12))
            .unwrap();
        assert!(plan.cost < 1e12);
    }

    #[test]
    fn select_preserves_order_requirement() {
        let model = ToyModel::with_tables(&[("R", 1000)]);
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&select(get("R")));
        let plan = opt.find_best_plan(root, ToyProps::sorted(), None).unwrap();
        assert!(plan.delivered.sorted);
        // Cheapest: sort the 1000-row scan, then filter (sort above the
        // filter would sort the same 500 rows cheaper... so the optimizer
        // picks sort(filter(scan)) or filter(sort(scan)) by cost).
        let algs: Vec<_> = plan.nodes().iter().map(|n| n.alg.clone()).collect();
        assert!(algs.contains(&ToyAlg::Sort));
        assert!(algs.contains(&ToyAlg::Filter));
    }

    #[test]
    fn pruning_does_not_change_the_answer() {
        let model = ToyModel::with_tables(&[("A", 1000), ("B", 2000), ("C", 500), ("D", 1500)]);
        let query = join(join(join(get("A"), get("B")), get("C")), get("D"));

        let mut opt1 = Optimizer::new(&model, SearchOptions::default());
        let r1 = opt1.insert_tree(&query);
        let p1 = opt1.find_best_plan(r1, ToyProps::any(), None).unwrap();

        let no_prune = SearchOptions {
            pruning: false,
            failure_memo: false,
            ..SearchOptions::default()
        };
        let mut opt2 = Optimizer::new(&model, no_prune);
        let r2 = opt2.insert_tree(&query);
        let p2 = opt2.find_best_plan(r2, ToyProps::any(), None).unwrap();

        assert!((p1.cost - p2.cost).abs() < 1e-6);
    }

    #[test]
    fn stats_are_populated() {
        let model = ToyModel::with_tables(&[("R", 1000), ("S", 100)]);
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&join(get("R"), get("S")));
        let _ = opt.find_best_plan(root, ToyProps::any(), None).unwrap();
        let s = opt.stats();
        assert!(s.goals_optimized > 0);
        assert!(s.alg_moves > 0);
        assert!(s.transform_fired > 0);
        assert!(s.winners_recorded > 0);
        assert!(s.memo_bytes > 0);
        assert!(s.exprs_created >= 4);
    }
}
