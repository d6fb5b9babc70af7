//! Rule traits: transformations, implementations, enforcers (§2.2).
//!
//! "The algebraic rules of expression equivalence, e.g., commutativity or
//! associativity, are specified using transformation rules. The possible
//! mappings of operators to algorithms are specified using implementation
//! rules." Both kinds carry optional *condition code* "which will be
//! invoked after a pattern match has succeeded".

use crate::expr::SubstExpr;
use crate::ids::GroupId;
use crate::memo::Memo;
use crate::model::Model;
use crate::pattern::{Binding, Pattern};

/// Read-only context handed to rule condition, application, cost, and
/// promise code.
///
/// Exposes the logical properties of equivalence classes so that, e.g.,
/// "the logical properties ... can be inspected by a rule's condition code
/// to ensure that rules are only applied to expressions of the correct
/// type" (§2.2), and so cost functions can consult input cardinalities.
pub struct RuleCtx<'a, M: Model> {
    memo: &'a Memo<M>,
}

impl<'a, M: Model> RuleCtx<'a, M> {
    /// A context over `memo`. The engine builds one per matching step;
    /// public so rules can be driven by hand, outside a search.
    pub fn new(memo: &'a Memo<M>) -> Self {
        RuleCtx { memo }
    }

    /// Logical properties of an equivalence class.
    pub fn logical_props(&self, group: GroupId) -> &'a M::LogicalProps {
        self.memo.logical_props(group)
    }

    /// The underlying memo, for advanced condition code that "sometimes
    /// must inspect the internal data structures" (§6).
    pub fn memo(&self) -> &'a Memo<M> {
        self.memo
    }
}

/// An algebraic transformation rule within the logical algebra.
pub trait TransformationRule<M: Model>: Send + Sync {
    /// Rule name for traces and statistics.
    fn name(&self) -> &'static str;

    /// The pattern to match. Multi-level patterns (e.g. associativity)
    /// are supported; interior nodes quantify over all member expressions
    /// of the bound classes.
    fn pattern(&self) -> &Pattern<M>;

    /// Condition code, invoked after a pattern match has succeeded.
    fn condition(&self, _binding: &Binding<M>, _ctx: &RuleCtx<'_, M>) -> bool {
        true
    }

    /// Produce substitute expressions equivalent to the matched one. Each
    /// substitute is inserted into the matched expression's equivalence
    /// class; sub-trees that are not references to bound groups create (or
    /// rediscover) classes of their own, as in the paper's Figure 3 where
    /// associativity creates the new class `C`.
    fn apply(&self, binding: &Binding<M>, ctx: &RuleCtx<'_, M>) -> Vec<SubstExpr<M>>;

    /// Expected usefulness of pursuing this rule on this binding; moves
    /// are ordered by descending promise. The default makes all
    /// transformations equally promising.
    fn promise(&self, _binding: &Binding<M>, _ctx: &RuleCtx<'_, M>) -> f64 {
        1.0
    }
}

/// One way an algorithm can be applied to implement a bound logical
/// (sub-)expression: the output of an implementation rule's applicability
/// function.
pub struct AlgApplication<M: Model> {
    /// The chosen algorithm.
    pub alg: M::Alg,
    /// Physical property vectors the algorithm's inputs must satisfy, one
    /// per leaf group of the binding (in left-to-right order).
    pub input_props: Vec<M::PhysProps>,
    /// Physical properties the algorithm delivers when its inputs satisfy
    /// `input_props`. The engine verifies `delivers.satisfies(required)` —
    /// "generated optimizers verify that the physical properties of a
    /// chosen plan really do satisfy the physical property vector given as
    /// part of the optimization goal" (§2.2).
    pub delivers: M::PhysProps,
}

impl<M: Model> Clone for AlgApplication<M> {
    fn clone(&self) -> Self {
        AlgApplication {
            alg: self.alg.clone(),
            input_props: self.input_props.clone(),
            delivers: self.delivers.clone(),
        }
    }
}

impl<M: Model> std::fmt::Debug for AlgApplication<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlgApplication")
            .field("alg", &self.alg)
            .field("input_props", &self.input_props)
            .field("delivers", &self.delivers)
            .finish()
    }
}

/// An implementation rule: the mapping of one or more logical operators to
/// an algorithm, with its applicability and cost functions.
pub trait ImplementationRule<M: Model>: Send + Sync {
    /// Rule name for traces and statistics.
    fn name(&self) -> &'static str;

    /// The logical pattern implemented. Multi-operator patterns map
    /// several logical operators onto a single physical operator ("a join
    /// followed by a projection ... should be implemented in a single
    /// procedure", §2.2).
    fn pattern(&self) -> &Pattern<M>;

    /// Condition code, invoked after a pattern match has succeeded.
    fn condition(&self, _binding: &Binding<M>, _ctx: &RuleCtx<'_, M>) -> bool {
        true
    }

    /// The applicability function: "determines whether or not the
    /// algorithm ... can deliver the logical expression with physical
    /// properties that satisfy the physical property vector", and if so,
    /// "the physical property vectors that the algorithm's inputs must
    /// satisfy".
    ///
    /// Returning more than one application expresses *alternative* input
    /// property combinations — e.g. a sort-based intersection may accept
    /// its inputs sorted `(A,B,C)`-consistently or `(B,A,C)`-consistently
    /// (§3), and the engine will optimize the subexpressions for each
    /// alternative.
    fn applies(
        &self,
        binding: &Binding<M>,
        required: &M::PhysProps,
        ctx: &RuleCtx<'_, M>,
    ) -> Vec<AlgApplication<M>>;

    /// The algorithm's cost function: the *local* cost of running this
    /// algorithm on inputs described by the bound groups' logical
    /// properties (input plan costs are accumulated by the engine).
    fn cost(&self, app: &AlgApplication<M>, binding: &Binding<M>, ctx: &RuleCtx<'_, M>) -> M::Cost;

    /// Expected usefulness; moves are ordered by descending promise.
    /// Pursuing promising algorithm moves first finds a good complete plan
    /// early, which tightens the branch-and-bound limit (§3).
    fn promise(
        &self,
        _app: &AlgApplication<M>,
        _binding: &Binding<M>,
        _ctx: &RuleCtx<'_, M>,
    ) -> f64 {
        1.0
    }
}

/// One way an enforcer can help deliver required physical properties.
pub struct EnforcerApplication<M: Model> {
    /// The enforcer as a physical operator.
    pub alg: M::Alg,
    /// The relaxed property vector required of the enforcer's input (the
    /// enforced component removed; "the original logical expression is
    /// optimized using FindBestPlan with a suitably modified (i.e.,
    /// relaxed) physical property vector", §3).
    pub relaxed: M::PhysProps,
    /// The *excluding physical property vector* passed down when the
    /// input is optimized: plans that could satisfy this vector directly
    /// "must not be explored again" below the enforcer (merge-join must
    /// not appear as input to a sort that enforces the same order).
    pub excluded: M::PhysProps,
    /// Properties the enforcer's output delivers.
    pub delivers: M::PhysProps,
}

impl<M: Model> Clone for EnforcerApplication<M> {
    fn clone(&self) -> Self {
        EnforcerApplication {
            alg: self.alg.clone(),
            relaxed: self.relaxed.clone(),
            excluded: self.excluded.clone(),
            delivers: self.delivers.clone(),
        }
    }
}

impl<M: Model> std::fmt::Debug for EnforcerApplication<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnforcerApplication")
            .field("alg", &self.alg)
            .field("relaxed", &self.relaxed)
            .field("excluded", &self.excluded)
            .field("delivers", &self.delivers)
            .finish()
    }
}

/// An enforcer: a physical operator that performs no logical data
/// manipulation but enforces physical properties (sort, decompress,
/// exchange, assembly...). "It is possible for an enforcer to ensure two
/// properties, or to enforce one but destroy another" — applications
/// describe the full delivered vector, so both cases are expressible.
pub trait Enforcer<M: Model>: Send + Sync {
    /// Enforcer name for traces and statistics.
    fn name(&self) -> &'static str;

    /// Applicability: if this enforcer can contribute to `required`,
    /// return the possible applications (usually zero or one).
    fn applies(
        &self,
        required: &M::PhysProps,
        group: GroupId,
        ctx: &RuleCtx<'_, M>,
    ) -> Vec<EnforcerApplication<M>>;

    /// The enforcer's cost function, based on the logical properties of
    /// the group it is applied to.
    fn cost(&self, app: &EnforcerApplication<M>, group: GroupId, ctx: &RuleCtx<'_, M>) -> M::Cost;

    /// Expected usefulness; moves are ordered by descending promise.
    fn promise(
        &self,
        _app: &EnforcerApplication<M>,
        _group: GroupId,
        _ctx: &RuleCtx<'_, M>,
    ) -> f64 {
        1.0
    }
}
