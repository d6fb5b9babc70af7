//! Transformation rules: algebraic equivalences within the logical
//! algebra (§2.2).
//!
//! The join rules are the classic pair that spans the whole join-order
//! space (including bushy trees, as in the paper's experiments);
//! associativity does the careful predicate re-routing that makes the
//! rewrite correct for conjunctive equi-join predicates. The selection
//! rules push and merge predicates; the set-operation rules mirror the
//! join rules, since "optimizing the union or intersection of N sets is
//! very similar to optimizing a join of N relations" (§5).

use volcano_core::{Binding, Pattern, RuleCtx, SubstExpr, TransformationRule};

use crate::ids::AttrId;
use crate::model::RelModel;
use crate::ops::{rel_disc, RelOp};
use crate::predicate::{JoinPred, Pred};

type Subst = SubstExpr<RelModel>;

fn is_join(op: &RelOp) -> bool {
    matches!(op, RelOp::Join(_))
}

fn is_select(op: &RelOp) -> bool {
    matches!(op, RelOp::Select(_))
}

/// The join predicates of a `Join(Join(?, ?), ?)` binding: the inner
/// join's, then the outer join's.
fn join_join_preds(b: &Binding<RelModel>) -> (&JoinPred, &JoinPred) {
    let (RelOp::Join(outer), RelOp::Join(inner)) = (&b.op, &b.nested(0).op) else {
        unreachable!("the pattern binds two joins")
    };
    (inner, outer)
}

/// Would moving the outer pairs whose left endpoint satisfies `moves`
/// into a new inner join leave a Cartesian product? It would if no pair
/// moves (the new inner join is empty), or if every pair moves and the
/// old inner predicate is empty (the new outer join is). Counts and
/// allocates nothing, so a rule's condition code can reject before its
/// `apply` builds a predicate.
fn reroute_makes_cross(inner: &JoinPred, outer: &JoinPred, moves: impl Fn(AttrId) -> bool) -> bool {
    let moved = outer.pairs().iter().filter(|&&(l, _)| moves(l)).count();
    moved == 0 || (inner.is_cross() && moved == outer.pairs().len())
}

/// `A ⋈_p B  →  B ⋈_p' A` with the predicate's sides swapped.
pub struct JoinCommute {
    pattern: Pattern<RelModel>,
}

impl JoinCommute {
    /// Construct the rule.
    pub fn new() -> Self {
        JoinCommute {
            pattern: Pattern::op_disc(
                "join",
                vec![rel_disc::JOIN],
                is_join,
                vec![Pattern::Any, Pattern::Any],
            ),
        }
    }
}

impl Default for JoinCommute {
    fn default() -> Self {
        Self::new()
    }
}

impl TransformationRule<RelModel> for JoinCommute {
    fn name(&self) -> &'static str {
        "join_commute"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn apply(&self, b: &Binding<RelModel>, _ctx: &RuleCtx<'_, RelModel>) -> Vec<Subst> {
        let RelOp::Join(p) = &b.op else {
            unreachable!()
        };
        vec![Subst::node(
            RelOp::Join(p.flipped()),
            vec![
                Subst::group(b.input_group(1)),
                Subst::group(b.input_group(0)),
            ],
        )]
    }
}

/// `(A ⋈_p1 B) ⋈_p2 C  →  A ⋈_q2 (B ⋈_q1 C)`.
///
/// The outer predicate `p2` relates `A ∪ B` to `C`; its pairs whose left
/// endpoint lies in `B` become the new inner predicate `q1`, the rest
/// join `A` to the new composite, together with the old inner predicate
/// `p1` (whose right endpoints lie in `B ⊆ B ⋈ C`). The condition code
/// rejects rewrites that would introduce Cartesian products unless the
/// model allows them, so a firing always produces a substitute.
pub struct JoinAssoc {
    pattern: Pattern<RelModel>,
    allow_cross: bool,
}

impl JoinAssoc {
    /// Construct the rule; `allow_cross` admits rewrites that create
    /// Cartesian products.
    pub fn new(allow_cross: bool) -> Self {
        JoinAssoc {
            pattern: Pattern::op_disc(
                "join",
                vec![rel_disc::JOIN],
                is_join,
                vec![
                    Pattern::op_disc(
                        "join",
                        vec![rel_disc::JOIN],
                        is_join,
                        vec![Pattern::Any, Pattern::Any],
                    ),
                    Pattern::Any,
                ],
            ),
            allow_cross,
        }
    }
}

impl TransformationRule<RelModel> for JoinAssoc {
    fn name(&self) -> &'static str {
        "join_assoc"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn condition(&self, b: &Binding<RelModel>, ctx: &RuleCtx<'_, RelModel>) -> bool {
        if self.allow_cross {
            return true;
        }
        let (p1, p2) = join_join_preds(b);
        let b_props = ctx.logical_props(b.nested(0).input_group(1));
        !reroute_makes_cross(p1, p2, |l| b_props.has_attr(l))
    }

    fn apply(&self, b: &Binding<RelModel>, ctx: &RuleCtx<'_, RelModel>) -> Vec<Subst> {
        let (p1, p2) = join_join_preds(b);
        let inner = b.nested(0);
        let a = inner.input_group(0);
        let bb = inner.input_group(1);
        let c = b.input_group(1);

        let b_props = ctx.logical_props(bb);
        // Pairs of p2 whose left endpoint lives in B join B to C; the
        // rest join A to C, together with p1.
        let in_b = |l, _| b_props.has_attr(l);
        let q1 = JoinPred::cross().and_where(p2, in_b);
        let q2 = p1.and_where(p2, |l, r| !in_b(l, r));

        if !self.allow_cross && (q1.is_cross() || q2.is_cross()) {
            return vec![];
        }

        vec![Subst::node(
            RelOp::Join(q2),
            vec![
                Subst::group(a),
                Subst::node(RelOp::Join(q1), vec![Subst::group(bb), Subst::group(c)]),
            ],
        )]
    }
}

/// `(A ⋈_p1 B) ⋈_p2 C  →  (A ⋈_q1 C) ⋈_q2 B`: the *left-join exchange*
/// rule. Its condition code rejects exchanges that would introduce
/// Cartesian products, as [`JoinAssoc`]'s does. Together with
/// commutativity restricted to the bottom-most join, it enumerates
/// exactly the left-deep join orders — the Volcano way of
/// expressing Starburst's "restrict the search space to left-deep trees
/// (no composite inner)" parameter (§5): a different rule set, not a
/// different search engine.
pub struct JoinLeftExchange {
    pattern: Pattern<RelModel>,
    allow_cross: bool,
}

impl JoinLeftExchange {
    /// Construct the rule; `allow_cross` admits exchanges that create
    /// Cartesian products.
    pub fn new(allow_cross: bool) -> Self {
        JoinLeftExchange {
            pattern: Pattern::op_disc(
                "join",
                vec![rel_disc::JOIN],
                is_join,
                vec![
                    Pattern::op_disc(
                        "join",
                        vec![rel_disc::JOIN],
                        is_join,
                        vec![Pattern::Any, Pattern::Any],
                    ),
                    Pattern::Any,
                ],
            ),
            allow_cross,
        }
    }
}

impl TransformationRule<RelModel> for JoinLeftExchange {
    fn name(&self) -> &'static str {
        "join_left_exchange"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn condition(&self, b: &Binding<RelModel>, ctx: &RuleCtx<'_, RelModel>) -> bool {
        if self.allow_cross {
            return true;
        }
        let (p1, p2) = join_join_preds(b);
        let a_props = ctx.logical_props(b.nested(0).input_group(0));
        !reroute_makes_cross(p1, p2, |l| a_props.has_attr(l))
    }

    fn apply(&self, b: &Binding<RelModel>, ctx: &RuleCtx<'_, RelModel>) -> Vec<Subst> {
        let (p1, p2) = join_join_preds(b);
        let inner = b.nested(0);
        let a = inner.input_group(0);
        let bb = inner.input_group(1);
        let c = b.input_group(1);

        // p2 relates A ∪ B to C: pairs rooted in A move into the new
        // inner join (A ⋈ C); pairs rooted in B flip sides and join the
        // new composite to B.
        let a_props = ctx.logical_props(a);
        let (q1, from_b) = p2.partition(|l, _| a_props.has_attr(l));
        let q2 = p1.and(&from_b.flipped());

        if !self.allow_cross && (q1.is_cross() || q2.is_cross()) {
            return vec![];
        }

        vec![Subst::node(
            RelOp::Join(q2),
            vec![
                Subst::node(RelOp::Join(q1), vec![Subst::group(a), Subst::group(c)]),
                Subst::group(bb),
            ],
        )]
    }
}

/// Join commutativity restricted to joins whose inputs are both
/// join-free (the bottom of a left-deep tree): the companion of
/// [`JoinLeftExchange`] for left-deep-only enumeration.
pub struct BottomJoinCommute {
    pattern: Pattern<RelModel>,
}

impl BottomJoinCommute {
    /// Construct the rule.
    pub fn new() -> Self {
        BottomJoinCommute {
            pattern: Pattern::op_disc(
                "join",
                vec![rel_disc::JOIN],
                is_join,
                vec![Pattern::Any, Pattern::Any],
            ),
        }
    }
}

impl Default for BottomJoinCommute {
    fn default() -> Self {
        Self::new()
    }
}

impl TransformationRule<RelModel> for BottomJoinCommute {
    fn name(&self) -> &'static str {
        "bottom_join_commute"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn condition(&self, b: &Binding<RelModel>, ctx: &RuleCtx<'_, RelModel>) -> bool {
        // Both inputs must be join-free classes, or commuting would put a
        // composite on the right.
        let memo = ctx.memo();
        [b.input_group(0), b.input_group(1)].iter().all(|&g| {
            memo.group_exprs(g)
                .all(|e| !matches!(memo.expr(e).0, RelOp::Join(_)))
        })
    }

    fn apply(&self, b: &Binding<RelModel>, _ctx: &RuleCtx<'_, RelModel>) -> Vec<Subst> {
        let RelOp::Join(p) = &b.op else {
            unreachable!()
        };
        vec![Subst::node(
            RelOp::Join(p.flipped()),
            vec![
                Subst::group(b.input_group(1)),
                Subst::group(b.input_group(0)),
            ],
        )]
    }
}

/// `σ_p(A ⋈ B)  →  σ_rest(σ_pa(A) ⋈ σ_pb(B))`: push every conjunct that
/// mentions only one side down to that side.
pub struct SelectPushdown {
    pattern: Pattern<RelModel>,
}

impl SelectPushdown {
    /// Construct the rule.
    pub fn new() -> Self {
        SelectPushdown {
            pattern: Pattern::op_disc(
                "select",
                vec![rel_disc::SELECT],
                is_select,
                vec![Pattern::op_disc(
                    "join",
                    vec![rel_disc::JOIN],
                    is_join,
                    vec![Pattern::Any, Pattern::Any],
                )],
            ),
        }
    }
}

impl Default for SelectPushdown {
    fn default() -> Self {
        Self::new()
    }
}

impl TransformationRule<RelModel> for SelectPushdown {
    fn name(&self) -> &'static str {
        "select_pushdown"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn apply(&self, b: &Binding<RelModel>, ctx: &RuleCtx<'_, RelModel>) -> Vec<Subst> {
        let RelOp::Select(p) = &b.op else {
            unreachable!()
        };
        let join = b.nested(0);
        let RelOp::Join(jp) = &join.op else {
            unreachable!()
        };
        let (lg, rg) = (join.input_group(0), join.input_group(1));

        let lprops = ctx.logical_props(lg);
        let (pa, rest) = p.partition(|attr| lprops.has_attr(attr));
        let rprops = ctx.logical_props(rg);
        let (pb, rest) = rest.partition(|attr| rprops.has_attr(attr));
        if pa.is_empty() && pb.is_empty() {
            return vec![];
        }

        let wrap = |g, pred: Pred| {
            if pred.is_empty() {
                Subst::group(g)
            } else {
                Subst::node(RelOp::Select(pred), vec![Subst::group(g)])
            }
        };
        let new_join = Subst::node(RelOp::Join(jp.clone()), vec![wrap(lg, pa), wrap(rg, pb)]);
        let root = if rest.is_empty() {
            new_join
        } else {
            Subst::node(RelOp::Select(rest), vec![new_join])
        };
        vec![root]
    }
}

/// `σ_p(σ_q(X))  →  σ_{p ∧ q}(X)`: collapse selection cascades.
pub struct SelectMerge {
    pattern: Pattern<RelModel>,
}

impl SelectMerge {
    /// Construct the rule.
    pub fn new() -> Self {
        SelectMerge {
            pattern: Pattern::op_disc(
                "select",
                vec![rel_disc::SELECT],
                is_select,
                vec![Pattern::op_disc(
                    "select",
                    vec![rel_disc::SELECT],
                    is_select,
                    vec![Pattern::Any],
                )],
            ),
        }
    }
}

impl Default for SelectMerge {
    fn default() -> Self {
        Self::new()
    }
}

impl TransformationRule<RelModel> for SelectMerge {
    fn name(&self) -> &'static str {
        "select_merge"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn apply(&self, b: &Binding<RelModel>, _ctx: &RuleCtx<'_, RelModel>) -> Vec<Subst> {
        let RelOp::Select(p) = &b.op else {
            unreachable!()
        };
        let inner = b.nested(0);
        let RelOp::Select(q) = &inner.op else {
            unreachable!()
        };
        vec![Subst::node(
            RelOp::Select(p.and(q)),
            vec![Subst::group(inner.input_group(0))],
        )]
    }
}

/// `γ(X)  →  γ_final(γ_partial(X))`: split an aggregate into a
/// per-worker partial phase and a serial merge phase. Every supported
/// aggregate decomposes: SUM/MIN/MAX merge with themselves, COUNT(*)
/// merges by summing partial counts, and AVG ships a `(sum, count)`
/// pair (see [`crate::AggSpec::partial_attrs`]). The rewrite is only *useful*
/// under a parallel model — the partial class's sole implementation
/// demands a parallel input, so the optimizer prices it against the
/// serial single-phase plan and the gather enforcer decides placement —
/// hence the rule is registered only when `parallel_degree > 1`.
pub struct AggSplit {
    pattern: Pattern<RelModel>,
}

impl AggSplit {
    /// Construct the rule.
    pub fn new() -> Self {
        AggSplit {
            pattern: Pattern::op_disc(
                "aggregate",
                vec![rel_disc::AGGREGATE],
                |op: &RelOp| matches!(op, RelOp::Aggregate(_)),
                vec![Pattern::Any],
            ),
        }
    }
}

impl Default for AggSplit {
    fn default() -> Self {
        Self::new()
    }
}

impl TransformationRule<RelModel> for AggSplit {
    fn name(&self) -> &'static str {
        "agg_split"
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn apply(&self, b: &Binding<RelModel>, _ctx: &RuleCtx<'_, RelModel>) -> Vec<Subst> {
        let RelOp::Aggregate(spec) = &b.op else {
            unreachable!()
        };
        vec![Subst::node(
            RelOp::FinalAggregate(spec.clone()),
            vec![Subst::node(
                RelOp::PartialAggregate(spec.clone()),
                vec![Subst::group(b.input_group(0))],
            )],
        )]
    }
}

/// Commutativity for a symmetric set operation (union or intersection).
pub struct SetOpCommute {
    pattern: Pattern<RelModel>,
    op: RelOp,
    name: &'static str,
}

impl SetOpCommute {
    /// Commutativity of `UNION`.
    pub fn union() -> Self {
        SetOpCommute {
            pattern: Pattern::op_disc(
                "union",
                vec![rel_disc::UNION],
                |op: &RelOp| matches!(op, RelOp::Union),
                vec![Pattern::Any, Pattern::Any],
            ),
            op: RelOp::Union,
            name: "union_commute",
        }
    }

    /// Commutativity of `INTERSECT`.
    pub fn intersect() -> Self {
        SetOpCommute {
            pattern: Pattern::op_disc(
                "intersect",
                vec![rel_disc::INTERSECT],
                |op: &RelOp| matches!(op, RelOp::Intersect),
                vec![Pattern::Any, Pattern::Any],
            ),
            op: RelOp::Intersect,
            name: "intersect_commute",
        }
    }
}

impl TransformationRule<RelModel> for SetOpCommute {
    fn name(&self) -> &'static str {
        self.name
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn apply(&self, b: &Binding<RelModel>, _ctx: &RuleCtx<'_, RelModel>) -> Vec<Subst> {
        // NOTE: commuting a set operation is only valid when both sides
        // share one schema; the logical property derivation uses the left
        // input's attribute ids, so commuting inputs with *different*
        // attribute ids would change the nominal output schema. The
        // builder constructs set operations over union-compatible inputs;
        // positional semantics make the result equivalent.
        vec![Subst::node(
            self.op.clone(),
            vec![
                Subst::group(b.input_group(1)),
                Subst::group(b.input_group(0)),
            ],
        )]
    }
}

/// Associativity for a symmetric set operation:
/// `(A op B) op C  →  A op (B op C)`.
pub struct SetOpAssoc {
    pattern: Pattern<RelModel>,
    op: RelOp,
    name: &'static str,
}

impl SetOpAssoc {
    /// Associativity of `UNION`.
    pub fn union() -> Self {
        let m = |op: &RelOp| matches!(op, RelOp::Union);
        SetOpAssoc {
            pattern: Pattern::op_disc(
                "union",
                vec![rel_disc::UNION],
                m,
                vec![
                    Pattern::op_disc(
                        "union",
                        vec![rel_disc::UNION],
                        m,
                        vec![Pattern::Any, Pattern::Any],
                    ),
                    Pattern::Any,
                ],
            ),
            op: RelOp::Union,
            name: "union_assoc",
        }
    }

    /// Associativity of `INTERSECT`.
    pub fn intersect() -> Self {
        let m = |op: &RelOp| matches!(op, RelOp::Intersect);
        SetOpAssoc {
            pattern: Pattern::op_disc(
                "intersect",
                vec![rel_disc::INTERSECT],
                m,
                vec![
                    Pattern::op_disc(
                        "intersect",
                        vec![rel_disc::INTERSECT],
                        m,
                        vec![Pattern::Any, Pattern::Any],
                    ),
                    Pattern::Any,
                ],
            ),
            op: RelOp::Intersect,
            name: "intersect_assoc",
        }
    }
}

impl TransformationRule<RelModel> for SetOpAssoc {
    fn name(&self) -> &'static str {
        self.name
    }

    fn pattern(&self) -> &Pattern<RelModel> {
        &self.pattern
    }

    fn apply(&self, b: &Binding<RelModel>, _ctx: &RuleCtx<'_, RelModel>) -> Vec<Subst> {
        let inner = b.nested(0);
        vec![Subst::node(
            self.op.clone(),
            vec![
                Subst::group(inner.input_group(0)),
                Subst::node(
                    self.op.clone(),
                    vec![
                        Subst::group(inner.input_group(1)),
                        Subst::group(b.input_group(1)),
                    ],
                ),
            ],
        )]
    }
}
