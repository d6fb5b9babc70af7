//! Implementation rules: cost-based mapping of logical operators to
//! algorithms (§2.2).
//!
//! Each rule supplies the paper's per-algorithm *applicability function*
//! (can this algorithm deliver the required physical properties, and what
//! must its inputs satisfy?). Its *cost function* is the model's one
//! [`local_cost`], applied to the classes the rule bound. `FilterScanRule`
//! is a multi-operator rule (`Select(Get)` → one physical operator); the
//! merge join and merge set-operation rules demonstrate *alternative*
//! input property vectors (§3).

use volcano_core::{
    AlgApplication, Binding, BindingChild, ImplementationRule, Pattern, PhysicalProps, RuleCtx,
};

use crate::alg::RelAlg;
use crate::cost::{local_cost, RelCost};
use crate::model::RelModel;
use crate::ops::{rel_disc, RelOp};
use crate::props::{RelLogical, RelProps, SortOrder};
use crate::rules::{join, join_join, pat};

type App = AlgApplication<RelModel>;
type Ctx<'a> = RuleCtx<'a, RelModel>;
type Bind = Binding<RelModel>;

fn out_props<'a>(ctx: &Ctx<'a>, b: &Bind) -> &'a RelLogical {
    ctx.memo().logical_props(ctx.memo().group_of(b.expr))
}

/// The logical properties of the class bound at child `i` of `b`, whether
/// a wildcard bound the class or a nested pattern one of its members.
fn child_props<'a>(ctx: &Ctx<'a>, b: &Bind, i: usize) -> &'a RelLogical {
    match &b.children[i] {
        BindingChild::Group(g) => ctx.logical_props(*g),
        BindingChild::Bound(nested) => out_props(ctx, nested),
    }
}

/// A rule's cost: [`local_cost`] of the application reading the classes
/// bound at `b`'s children (a fused filter-scan's is its stored table) and
/// producing `b`'s class, at the degree the application delivers. Only a
/// hash join reads a memory bound, and its rule passes its own.
fn app_cost(app: &App, b: &Bind, ctx: &Ctx<'_>, memory_bytes: f64) -> RelCost {
    let out = out_props(ctx, b);
    let n = b.children.len();
    let reads = [0, 1].map(|i| if i < n { child_props(ctx, b, i) } else { out });
    local_cost(
        &app.alg,
        &reads[..n],
        out,
        app.delivers.parallel,
        memory_bytes,
    )
}

/// The key orders a merge-based binary operator should try, as (left
/// keys, right keys): the declared order always, plus the order with the
/// first two keys swapped when the model asks for alternatives. This is
/// the §3 facility for binary operators where "the actual physical
/// properties of the inputs are not as important as the consistency of
/// physical properties among the inputs". With one order the given
/// orders are all that is built; orders of up to four keys never
/// allocate.
fn key_orders(
    left: SortOrder,
    right: SortOrder,
    variants: usize,
) -> impl Iterator<Item = (SortOrder, SortOrder)> {
    let swap = |o: &SortOrder| -> SortOrder {
        [o[1], o[0]]
            .into_iter()
            .chain(o[2..].iter().copied())
            .collect()
    };
    let swapped = (variants >= 2 && left.len() >= 2).then(|| (swap(&left), swap(&right)));
    std::iter::once((left, right)).chain(swapped)
}

// ---------------------------------------------------------------------
// Scans.
// ---------------------------------------------------------------------

/// `Get(t)` → `FileScan(t)`.
pub struct FileScanRule {
    pattern: Pattern<RelModel>,
}

impl FileScanRule {
    /// Construct the rule.
    pub fn new() -> Self {
        FileScanRule {
            pattern: pat::<{ rel_disc::GET }>("get", vec![]),
        }
    }
}

impl Default for FileScanRule {
    fn default() -> Self {
        Self::new()
    }
}

impl ImplementationRule<RelModel> for FileScanRule {
    fn name(&self) -> &'static str {
        "get_to_file_scan"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn applies(&self, b: &Bind, required: &RelProps, _ctx: &Ctx<'_>) -> Vec<App> {
        if required.is_sorted() {
            // A heap scan cannot deliver any ordering.
            return vec![];
        }
        let RelOp::Get(t) = &b.op else { unreachable!() };
        // A heap scan partitions naturally into page-range morsels, so it
        // delivers whatever parallel degree is required (`required` is
        // `any()` under a serial goal, `parallel(n)` below a gather).
        vec![App {
            alg: RelAlg::FileScan(*t),
            input_props: vec![],
            delivers: required.clone(),
        }]
    }

    fn cost(&self, app: &App, b: &Bind, ctx: &Ctx<'_>) -> RelCost {
        app_cost(app, b, ctx, f64::INFINITY)
    }
}

/// `Get(t)` → `IndexScan(t, attr)` for each indexed column: an access
/// path that delivers the sort order `[attr]` as a physical property, at
/// a modest cost premium over the heap scan. This is where *interesting
/// orders* enter the plan space without any enforcer.
pub struct IndexScanRule {
    pattern: Pattern<RelModel>,
    catalog: crate::Catalog,
}

impl IndexScanRule {
    /// Construct the rule over the model's catalog.
    pub fn new(catalog: crate::Catalog) -> Self {
        IndexScanRule {
            pattern: pat::<{ rel_disc::GET }>("get", vec![]),
            catalog,
        }
    }
}

impl ImplementationRule<RelModel> for IndexScanRule {
    fn name(&self) -> &'static str {
        "get_to_index_scan"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn applies(&self, b: &Bind, required: &RelProps, _ctx: &Ctx<'_>) -> Vec<App> {
        let RelOp::Get(t) = &b.op else { unreachable!() };
        self.catalog
            .table(*t)
            .columns
            .iter()
            .filter(|c| c.indexed)
            .filter_map(|c| {
                let delivers = RelProps::sorted([c.attr]);
                if !delivers.satisfies(required) {
                    return None;
                }
                Some(App {
                    alg: RelAlg::IndexScan(*t, c.attr),
                    input_props: vec![],
                    delivers,
                })
            })
            .collect()
    }

    fn cost(&self, app: &App, b: &Bind, ctx: &Ctx<'_>) -> RelCost {
        app_cost(app, b, ctx, f64::INFINITY)
    }
}

/// `Select(Get(t))` → `FilterScan(t, pred)`: a multi-operator
/// implementation rule mapping two logical operators onto one physical
/// operator.
pub struct FilterScanRule {
    pattern: Pattern<RelModel>,
}

impl FilterScanRule {
    /// Construct the rule.
    pub fn new() -> Self {
        FilterScanRule {
            pattern: pat::<{ rel_disc::SELECT }>(
                "select",
                vec![pat::<{ rel_disc::GET }>("get", vec![])],
            ),
        }
    }
}

impl Default for FilterScanRule {
    fn default() -> Self {
        Self::new()
    }
}

impl ImplementationRule<RelModel> for FilterScanRule {
    fn name(&self) -> &'static str {
        "select_get_to_filter_scan"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn applies(&self, b: &Bind, required: &RelProps, _ctx: &Ctx<'_>) -> Vec<App> {
        if required.is_sorted() {
            return vec![];
        }
        let RelOp::Select(p) = &b.op else {
            unreachable!()
        };
        let RelOp::Get(t) = &b.nested(0).op else {
            unreachable!()
        };
        // Like the plain heap scan, a fused filter-scan splits into
        // page-range morsels and can deliver any required parallel degree.
        vec![App {
            alg: RelAlg::FilterScan(*t, p.clone()),
            input_props: vec![],
            delivers: required.clone(),
        }]
    }

    fn cost(&self, app: &App, b: &Bind, ctx: &Ctx<'_>) -> RelCost {
        app_cost(app, b, ctx, f64::INFINITY)
    }
}

// ---------------------------------------------------------------------
// Filters and projections.
// ---------------------------------------------------------------------

/// `Select(X)` → `Filter`; order-preserving.
pub struct FilterRule {
    pattern: Pattern<RelModel>,
}

impl FilterRule {
    /// Construct the rule.
    pub fn new() -> Self {
        FilterRule {
            pattern: pat::<{ rel_disc::SELECT }>("select", vec![Pattern::Any]),
        }
    }
}

impl Default for FilterRule {
    fn default() -> Self {
        Self::new()
    }
}

impl ImplementationRule<RelModel> for FilterRule {
    fn name(&self) -> &'static str {
        "select_to_filter"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn applies(&self, b: &Bind, required: &RelProps, _ctx: &Ctx<'_>) -> Vec<App> {
        let RelOp::Select(p) = &b.op else {
            unreachable!()
        };
        // Filter passes tuples through unchanged: it can deliver any
        // ordering (or parallel degree) by demanding the same of its
        // input.
        vec![App {
            alg: RelAlg::Filter(p.clone()),
            input_props: vec![required.clone()],
            delivers: required.clone(),
        }]
    }

    fn cost(&self, app: &App, b: &Bind, ctx: &Ctx<'_>) -> RelCost {
        app_cost(app, b, ctx, f64::INFINITY)
    }
}

/// `Project(X)` → `ProjectOp`; order-preserving for orders over the
/// retained attributes.
pub struct ProjectRule {
    pattern: Pattern<RelModel>,
}

impl ProjectRule {
    /// Construct the rule.
    pub fn new() -> Self {
        ProjectRule {
            pattern: pat::<{ rel_disc::PROJECT }>("project", vec![Pattern::Any]),
        }
    }
}

impl Default for ProjectRule {
    fn default() -> Self {
        Self::new()
    }
}

impl ImplementationRule<RelModel> for ProjectRule {
    fn name(&self) -> &'static str {
        "project_to_project"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn applies(&self, b: &Bind, required: &RelProps, _ctx: &Ctx<'_>) -> Vec<App> {
        let RelOp::Project(attrs) = &b.op else {
            unreachable!()
        };
        // An ordering can survive projection only if its attributes are
        // retained.
        if !required.sort.iter().all(|a| attrs.contains(a)) {
            return vec![];
        }
        vec![App {
            alg: RelAlg::ProjectOp(attrs.clone()),
            input_props: vec![required.clone()],
            delivers: required.clone(),
        }]
    }

    fn cost(&self, app: &App, b: &Bind, ctx: &Ctx<'_>) -> RelCost {
        app_cost(app, b, ctx, f64::INFINITY)
    }
}

// ---------------------------------------------------------------------
// Joins.
// ---------------------------------------------------------------------

/// `Join(A, B)` → `MergeJoin`; requires consistently sorted inputs,
/// delivers the left key order.
pub struct MergeJoinRule {
    pattern: Pattern<RelModel>,
    variants: usize,
}

impl MergeJoinRule {
    /// Construct the rule; `variants >= 2` also offers the key order with
    /// the first two join attributes swapped.
    pub fn new(variants: usize) -> Self {
        MergeJoinRule {
            pattern: join(),
            variants,
        }
    }
}

impl ImplementationRule<RelModel> for MergeJoinRule {
    fn name(&self) -> &'static str {
        "join_to_merge_join"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn applies(&self, b: &Bind, required: &RelProps, _ctx: &Ctx<'_>) -> Vec<App> {
        let RelOp::Join(p) = &b.op else {
            unreachable!()
        };
        if p.is_cross() {
            return vec![];
        }
        let left = p.pairs().iter().map(|&(l, _)| l).collect();
        let right = p.pairs().iter().map(|&(_, r)| r).collect();
        key_orders(left, right, self.variants)
            .filter_map(|(left, right)| {
                // The output is sorted on the left keys AND, because the
                // keys are pairwise equal, equivalently on the right keys:
                // either may satisfy the requirement, so an order phrased
                // in terms of either side's attributes is met (attribute
                // equivalence, the classic interesting-orders subtlety).
                // One application per key order suffices when both do
                // (they share inputs and cost).
                let delivers = if required.met_by_sort(&left) {
                    left.clone()
                } else if required.met_by_sort(&right) {
                    right.clone()
                } else {
                    return None;
                };
                Some(App {
                    alg: RelAlg::MergeJoin(p.clone()),
                    input_props: vec![RelProps::sorted(left), RelProps::sorted(right)],
                    delivers: RelProps::sorted(delivers),
                })
            })
            .collect()
    }

    fn cost(&self, app: &App, b: &Bind, ctx: &Ctx<'_>) -> RelCost {
        app_cost(app, b, ctx, f64::INFINITY)
    }
}

/// `Join(A, B)` → `HybridHashJoin`; unordered output, builds on the left.
/// The cost is a function of the memory made available at optimizer
/// generation time (§4.1's memory-dependent cost ADT).
pub struct HashJoinRule {
    pattern: Pattern<RelModel>,
    memory_bytes: f64,
}

impl HashJoinRule {
    /// Construct the rule with the memory available per hash join.
    pub fn new(memory_bytes: f64) -> Self {
        HashJoinRule {
            pattern: join(),
            memory_bytes,
        }
    }
}

impl Default for HashJoinRule {
    fn default() -> Self {
        Self::new(f64::INFINITY)
    }
}

impl ImplementationRule<RelModel> for HashJoinRule {
    fn name(&self) -> &'static str {
        "join_to_hybrid_hash_join"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn applies(&self, b: &Bind, required: &RelProps, _ctx: &Ctx<'_>) -> Vec<App> {
        let RelOp::Join(p) = &b.op else {
            unreachable!()
        };
        if p.is_cross() || required.is_sorted() {
            // "When optimizing a join expression whose result should be
            // sorted on the join attribute, hybrid hash join does not
            // qualify" (§2.2).
            return vec![];
        }
        // Under a parallel requirement this is the *partitioned* parallel
        // hash join: both inputs are demanded at the same degree — the
        // build side is consumed by n workers partitioning into a shared
        // read-only table, then n workers probe their own morsels.
        // `required` is `any()` under a serial goal, so the serial
        // application is unchanged.
        vec![App {
            alg: RelAlg::HybridHashJoin(p.clone()),
            input_props: vec![required.clone(), required.clone()],
            delivers: required.clone(),
        }]
    }

    fn cost(&self, app: &App, b: &Bind, ctx: &Ctx<'_>) -> RelCost {
        // With infinite memory: in-memory build + probe, no partition
        // files (§4.2). With finite memory the overflow spills.
        app_cost(app, b, ctx, self.memory_bytes)
    }
}

/// `Join(Join(A, B), C)` → a single `MultiWayHashJoin`: the paper's §6
/// extensibility claim, made concrete — adding "a new, non-trivial
/// algorithm such as a multi-way join" is exactly one multi-operator
/// implementation rule; no other part of the optimizer changes.
///
/// The condition code restricts the rule to the cascade shape the
/// operator implements efficiently: the outer predicate's left attributes
/// must all come from `B`, so the probe cascades c → B-table → A-table.
pub struct MultiWayJoinRule {
    pattern: Pattern<RelModel>,
}

impl MultiWayJoinRule {
    /// Construct the rule.
    pub fn new() -> Self {
        MultiWayJoinRule {
            pattern: join_join(),
        }
    }
}

impl Default for MultiWayJoinRule {
    fn default() -> Self {
        Self::new()
    }
}

impl ImplementationRule<RelModel> for MultiWayJoinRule {
    fn name(&self) -> &'static str {
        "join_join_to_multiway_hash_join"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn condition(&self, b: &Bind, ctx: &Ctx<'_>) -> bool {
        let RelOp::Join(outer) = &b.op else {
            return false;
        };
        let RelOp::Join(inner) = &b.nested(0).op else {
            return false;
        };
        if inner.is_cross() || outer.is_cross() {
            return false;
        }
        // Probe cascade: every outer-left attribute must live in B.
        let b_props = ctx.logical_props(b.nested(0).input_group(1));
        outer.left_attrs().iter().all(|&a| b_props.has_attr(a))
    }

    fn applies(&self, b: &Bind, required: &RelProps, _ctx: &Ctx<'_>) -> Vec<App> {
        // The three-way probe cascade has no morsel-parallel execution
        // path, so it competes only for serial, unsorted goals.
        if required.is_sorted() || required.is_parallel() {
            return vec![];
        }
        let RelOp::Join(outer) = &b.op else {
            unreachable!()
        };
        let RelOp::Join(inner) = &b.nested(0).op else {
            unreachable!()
        };
        vec![App {
            alg: RelAlg::MultiWayHashJoin {
                inner: inner.clone(),
                outer: outer.clone(),
            },
            input_props: vec![RelProps::any(), RelProps::any(), RelProps::any()],
            delivers: RelProps::any(),
        }]
    }

    fn cost(&self, app: &App, b: &Bind, ctx: &Ctx<'_>) -> RelCost {
        let inner = b.nested(0);
        let reads = [
            ctx.logical_props(inner.input_group(0)),
            ctx.logical_props(inner.input_group(1)),
            ctx.logical_props(b.input_group(1)),
            out_props(ctx, inner),
        ];
        local_cost(
            &app.alg,
            &reads,
            out_props(ctx, b),
            app.delivers.parallel,
            f64::INFINITY,
        )
    }
}

/// `Join(A, B)` → `NestedLoops`; handles any predicate (including
/// Cartesian products) and preserves the outer order.
pub struct NestedLoopsRule {
    pattern: Pattern<RelModel>,
}

impl NestedLoopsRule {
    /// Construct the rule.
    pub fn new() -> Self {
        NestedLoopsRule { pattern: join() }
    }
}

impl Default for NestedLoopsRule {
    fn default() -> Self {
        Self::new()
    }
}

impl ImplementationRule<RelModel> for NestedLoopsRule {
    fn name(&self) -> &'static str {
        "join_to_nested_loops"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn applies(&self, b: &Bind, required: &RelProps, ctx: &Ctx<'_>) -> Vec<App> {
        // A tuple-at-a-time operator with no morsel-parallel execution
        // path: it cannot deliver a parallel degree.
        if required.is_parallel() {
            return vec![];
        }
        // Nested loops preserve the outer order, so a sort requirement can
        // be delegated to the left input — but only if those attributes
        // exist on the left.
        let lprops = ctx.logical_props(b.input_group(0));
        if !required.sort.iter().all(|&a| lprops.has_attr(a)) {
            return vec![];
        }
        let RelOp::Join(p) = &b.op else {
            unreachable!()
        };
        vec![App {
            alg: RelAlg::NestedLoops(p.clone()),
            input_props: vec![required.clone(), RelProps::any()],
            delivers: required.clone(),
        }]
    }

    fn cost(&self, app: &App, b: &Bind, ctx: &Ctx<'_>) -> RelCost {
        app_cost(app, b, ctx, f64::INFINITY)
    }
}

// ---------------------------------------------------------------------
// Set operations.
// ---------------------------------------------------------------------

/// Which logical set operation a set-operation rule implements.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum SetOpKind {
    /// `UNION`.
    Union,
    /// `INTERSECT`.
    Intersect,
    /// `EXCEPT`.
    Difference,
}

impl SetOpKind {
    fn pattern(self) -> Pattern<RelModel> {
        let inputs = vec![Pattern::Any, Pattern::Any];
        match self {
            SetOpKind::Union => pat::<{ rel_disc::UNION }>("union", inputs),
            SetOpKind::Intersect => pat::<{ rel_disc::INTERSECT }>("intersect", inputs),
            SetOpKind::Difference => pat::<{ rel_disc::DIFFERENCE }>("difference", inputs),
        }
    }

    fn merge_alg(self) -> RelAlg {
        match self {
            SetOpKind::Union => RelAlg::MergeUnion,
            SetOpKind::Intersect => RelAlg::MergeIntersect,
            SetOpKind::Difference => RelAlg::MergeDifference,
        }
    }

    fn hash_alg(self) -> RelAlg {
        match self {
            SetOpKind::Union => RelAlg::HashUnion,
            SetOpKind::Intersect => RelAlg::HashIntersect,
            SetOpKind::Difference => RelAlg::HashDifference,
        }
    }
}

/// Merge-based implementation of a set operation: "for a sort-based
/// implementation of intersection ... any sort order of the two inputs
/// will suffice as long as the two inputs are sorted in the same way"
/// (§3). The applicability function offers the identity column order and,
/// when the model asks for alternatives, the order with the first two
/// columns swapped — both inputs always consistently.
pub struct MergeSetOpRule {
    pattern: Pattern<RelModel>,
    kind: SetOpKind,
    variants: usize,
    name: &'static str,
}

impl MergeSetOpRule {
    /// Construct the rule for one set operation.
    pub fn new(kind: SetOpKind, variants: usize) -> Self {
        let name = match kind {
            SetOpKind::Union => "union_to_merge_union",
            SetOpKind::Intersect => "intersect_to_merge_intersect",
            SetOpKind::Difference => "difference_to_merge_difference",
        };
        MergeSetOpRule {
            pattern: kind.pattern(),
            kind,
            variants,
            name,
        }
    }
}

impl ImplementationRule<RelModel> for MergeSetOpRule {
    fn name(&self) -> &'static str {
        self.name
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn applies(&self, b: &Bind, required: &RelProps, ctx: &Ctx<'_>) -> Vec<App> {
        let lcols: SortOrder = ctx
            .logical_props(b.input_group(0))
            .cols
            .iter()
            .map(|c| c.attr)
            .collect();
        let rcols: SortOrder = ctx
            .logical_props(b.input_group(1))
            .cols
            .iter()
            .map(|c| c.attr)
            .collect();
        if lcols.is_empty() || lcols.len() != rcols.len() {
            return vec![];
        }
        key_orders(lcols, rcols, self.variants)
            .filter(|(left, _)| required.met_by_sort(left))
            .map(|(left, right)| App {
                alg: self.kind.merge_alg(),
                input_props: vec![RelProps::sorted(left.clone()), RelProps::sorted(right)],
                delivers: RelProps::sorted(left),
            })
            .collect()
    }

    fn cost(&self, app: &App, b: &Bind, ctx: &Ctx<'_>) -> RelCost {
        app_cost(app, b, ctx, f64::INFINITY)
    }
}

/// Hash-based implementation of a set operation; unordered output.
pub struct HashSetOpRule {
    pattern: Pattern<RelModel>,
    kind: SetOpKind,
    name: &'static str,
}

impl HashSetOpRule {
    /// Construct the rule for one set operation.
    pub fn new(kind: SetOpKind) -> Self {
        let name = match kind {
            SetOpKind::Union => "union_to_hash_union",
            SetOpKind::Intersect => "intersect_to_hash_intersect",
            SetOpKind::Difference => "difference_to_hash_difference",
        };
        HashSetOpRule {
            pattern: kind.pattern(),
            kind,
            name,
        }
    }
}

impl ImplementationRule<RelModel> for HashSetOpRule {
    fn name(&self) -> &'static str {
        self.name
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn applies(&self, _b: &Bind, required: &RelProps, _ctx: &Ctx<'_>) -> Vec<App> {
        // Set operations execute serially (no morsel-parallel path).
        if required.is_sorted() || required.is_parallel() {
            return vec![];
        }
        vec![App {
            alg: self.kind.hash_alg(),
            input_props: vec![RelProps::any(), RelProps::any()],
            delivers: RelProps::any(),
        }]
    }

    fn cost(&self, app: &App, b: &Bind, ctx: &Ctx<'_>) -> RelCost {
        app_cost(app, b, ctx, f64::INFINITY)
    }
}

// ---------------------------------------------------------------------
// Aggregation.
// ---------------------------------------------------------------------

/// `Aggregate` → `StreamAggregate`; requires input sorted on the grouping
/// attributes, delivers that order.
pub struct StreamAggRule {
    pattern: Pattern<RelModel>,
}

impl StreamAggRule {
    /// Construct the rule.
    pub fn new() -> Self {
        StreamAggRule {
            pattern: pat::<{ rel_disc::AGGREGATE }>("aggregate", vec![Pattern::Any]),
        }
    }
}

impl Default for StreamAggRule {
    fn default() -> Self {
        Self::new()
    }
}

impl ImplementationRule<RelModel> for StreamAggRule {
    fn name(&self) -> &'static str {
        "aggregate_to_stream_aggregate"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn applies(&self, b: &Bind, required: &RelProps, _ctx: &Ctx<'_>) -> Vec<App> {
        let RelOp::Aggregate(spec) = &b.op else {
            unreachable!()
        };
        let delivers = RelProps::sorted(spec.group_by.as_slice());
        if !delivers.satisfies(required) {
            return vec![];
        }
        vec![App {
            alg: RelAlg::StreamAggregate(spec.clone()),
            input_props: vec![delivers.clone()],
            delivers,
        }]
    }

    fn cost(&self, app: &App, b: &Bind, ctx: &Ctx<'_>) -> RelCost {
        app_cost(app, b, ctx, f64::INFINITY)
    }
}

/// `Aggregate` → `HashAggregate`; unordered input and output.
pub struct HashAggRule {
    pattern: Pattern<RelModel>,
}

impl HashAggRule {
    /// Construct the rule.
    pub fn new() -> Self {
        HashAggRule {
            pattern: pat::<{ rel_disc::AGGREGATE }>("aggregate", vec![Pattern::Any]),
        }
    }
}

impl Default for HashAggRule {
    fn default() -> Self {
        Self::new()
    }
}

impl ImplementationRule<RelModel> for HashAggRule {
    fn name(&self) -> &'static str {
        "aggregate_to_hash_aggregate"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn applies(&self, b: &Bind, required: &RelProps, _ctx: &Ctx<'_>) -> Vec<App> {
        // The single-phase hash aggregate is a serial pipeline breaker;
        // parallel goals are served by the partial/final split instead.
        if required.is_sorted() || required.is_parallel() {
            return vec![];
        }
        let RelOp::Aggregate(spec) = &b.op else {
            unreachable!()
        };
        vec![App {
            alg: RelAlg::HashAggregate(spec.clone()),
            input_props: vec![RelProps::any()],
            delivers: RelProps::any(),
        }]
    }

    fn cost(&self, app: &App, b: &Bind, ctx: &Ctx<'_>) -> RelCost {
        app_cost(app, b, ctx, f64::INFINITY)
    }
}

/// `PartialAggregate` → `PartialHashAggregate`: per-worker local
/// grouping. The only implementation of the partial class, and it
/// *demands* a parallel input at the model's degree — under a serial
/// requirement it does not qualify, so the only way a partial aggregate
/// reaches a serial consumer is through the gather enforcer, which is
/// exactly the `Final ← Gather(n) ← Partial ← parallel subtree` shape
/// two-phase aggregation wants.
pub struct PartialHashAggRule {
    pattern: Pattern<RelModel>,
    degree: u32,
}

impl PartialHashAggRule {
    /// Construct the rule for a model with `degree` workers.
    pub fn new(degree: u32) -> Self {
        PartialHashAggRule {
            pattern: pat::<{ rel_disc::PARTIAL_AGGREGATE }>(
                "partial_aggregate",
                vec![Pattern::Any],
            ),
            degree,
        }
    }
}

impl ImplementationRule<RelModel> for PartialHashAggRule {
    fn name(&self) -> &'static str {
        "partial_aggregate_to_partial_hash_aggregate"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn applies(&self, b: &Bind, required: &RelProps, _ctx: &Ctx<'_>) -> Vec<App> {
        let delivers = RelProps::parallel(self.degree);
        if !delivers.satisfies(required) {
            return vec![];
        }
        let RelOp::PartialAggregate(spec) = &b.op else {
            unreachable!()
        };
        vec![App {
            alg: RelAlg::PartialHashAggregate(spec.clone(), self.degree),
            input_props: vec![RelProps::parallel(self.degree)],
            delivers,
        }]
    }

    fn cost(&self, app: &App, b: &Bind, ctx: &Ctx<'_>) -> RelCost {
        app_cost(app, b, ctx, f64::INFINITY)
    }
}

/// `FinalAggregate` → `FinalHashAggregate`: serial merge of partial
/// summaries, above the gather.
pub struct FinalHashAggRule {
    pattern: Pattern<RelModel>,
}

impl FinalHashAggRule {
    /// Construct the rule.
    pub fn new() -> Self {
        FinalHashAggRule {
            pattern: pat::<{ rel_disc::FINAL_AGGREGATE }>("final_aggregate", vec![Pattern::Any]),
        }
    }
}

impl Default for FinalHashAggRule {
    fn default() -> Self {
        Self::new()
    }
}

impl ImplementationRule<RelModel> for FinalHashAggRule {
    fn name(&self) -> &'static str {
        "final_aggregate_to_final_hash_aggregate"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn applies(&self, b: &Bind, required: &RelProps, _ctx: &Ctx<'_>) -> Vec<App> {
        if required.is_sorted() || required.is_parallel() {
            return vec![];
        }
        let RelOp::FinalAggregate(spec) = &b.op else {
            unreachable!()
        };
        vec![App {
            alg: RelAlg::FinalHashAggregate(spec.clone()),
            input_props: vec![RelProps::any()],
            delivers: RelProps::any(),
        }]
    }

    fn cost(&self, app: &App, b: &Bind, ctx: &Ctx<'_>) -> RelCost {
        app_cost(app, b, ctx, f64::INFINITY)
    }
}
