//! The data-model specification trait (§2.2).
//!
//! A [`Model`] bundles every component the optimizer implementor supplies:
//! the logical and physical algebras, the three ADTs (cost, logical
//! properties, physical property vector), the rule sets, and the property
//! functions. `Optimizer<M>` is then a *generated optimizer* in the
//! paper's sense: `rustc` monomorphizes the generic search engine over the
//! concrete model, compiling the rules into the optimizer.

use std::fmt::Debug;
use std::hash::Hash;

use crate::cost::Cost;
use crate::props::PhysicalProps;
use crate::rules::{Enforcer, ImplementationRule, TransformationRule};

/// A logical operator of the model's logical algebra.
///
/// Operators "can have zero or more inputs; the number of inputs is not
/// restricted" (§2.2). `arity` is consulted when expressions are built and
/// when patterns are matched.
pub trait Operator: Clone + Eq + Hash + Debug {
    /// Number of inputs this operator consumes.
    fn arity(&self) -> usize;

    /// Stable name for tracing and plan explanation.
    fn name(&self) -> &str;
}

/// A physical algorithm or enforcer of the model's physical algebra.
///
/// Enforcers "are operators in the physical algebra that do not correspond
/// to any operator in the logical algebra" (§2.2); the engine treats both
/// uniformly as `Alg` values once chosen, which mirrors the paper's "in
/// many respects, enforcers are dealt with exactly like algorithms".
pub trait Algorithm: Clone + Eq + Hash + Debug {
    /// Stable name for tracing and plan explanation.
    fn name(&self) -> &str;
}

/// The complete model specification: the input to the optimizer generator.
pub trait Model: Sized {
    /// Logical operators (the logical algebra).
    type Op: Operator;

    /// Physical algorithms and enforcers (the physical algebra).
    type Alg: Algorithm;

    /// The ADT "logical properties": schema, expected size, type of the
    /// intermediate result, ... Derived once per equivalence class, before
    /// any optimization is performed.
    type LogicalProps: Clone + Debug;

    /// The ADT "physical property vector": sort order, partitioning,
    /// compression status, ...
    type PhysProps: PhysicalProps;

    /// The ADT "cost".
    type Cost: Cost;

    /// The property function for logical operators: derive the logical
    /// properties of `op`'s result from the logical properties of its
    /// inputs. Encapsulates selectivity estimation (§2.2).
    ///
    /// Equivalent expressions must derive equal logical properties ("the
    /// schema of an intermediate result can be determined independently of
    /// which one of many equivalent algebra expressions creates it"); the
    /// memo derives each group's properties from the first expression
    /// inserted into it and debug-asserts agreement via
    /// [`Model::assert_logical_props_consistent`].
    fn derive_logical_props(
        &self,
        op: &Self::Op,
        inputs: &[&Self::LogicalProps],
    ) -> Self::LogicalProps;

    /// Consistency check hook: called in debug builds when a second
    /// expression joins an existing group; implementations may assert that
    /// `derived` agrees with the group's existing `props` (e.g. equal
    /// estimated cardinality). The default accepts silently, because
    /// logical property types need not be `Eq`.
    fn assert_logical_props_consistent(
        &self,
        _existing: &Self::LogicalProps,
        _derived: &Self::LogicalProps,
    ) {
    }

    /// A lower bound on the total cost of **every** plan of a class with
    /// logical properties `props`, whatever its physical properties:
    /// branch-and-bound with lower bounds (Shapiro et al., "Exploiting
    /// Upper and Lower Bounds in Top-Down Query Optimization", the
    /// Columbia optimizer). With pruning on, the search fails a goal whose
    /// limit is below its class's floor without generating its moves, and
    /// charges the floors of a move's not yet optimized inputs against
    /// the limit.
    ///
    /// The contract is soundness: no plan the model's rules and enforcers
    /// can build for the class may cost less. A floor that is too high
    /// prunes the optimal plan. It must be a function of the logical
    /// properties alone, cheap (it is read once per goal and per move
    /// input), and leave room for the rounding of cost arithmetic: a
    /// floor computed in another order of summation than the plans' costs
    /// should be shaved by a relative margin. The default, [`Cost::zero`],
    /// bounds nothing and leaves the search exactly as without floors.
    fn cost_floor(&self, _props: &Self::LogicalProps) -> Self::Cost {
        Self::Cost::zero()
    }

    /// Cheap, total *discriminant* of a logical operator, used by the
    /// operator-indexed rule dispatch ([`crate::RuleIndex`]): rules whose
    /// root [`crate::OpMatcher`] declares the discriminants it accepts are
    /// tried only against expressions whose operator carries one of them.
    ///
    /// The default returns `None` — "unindexable", meaning every rule is
    /// tried against every expression exactly as before — so existing and
    /// custom models keep working unchanged. Models that override it must
    /// return the same value for operators that are `==` (the value is a
    /// pure function of the enum variant, never of operator arguments).
    fn op_discriminant(&self, _op: &Self::Op) -> Option<usize> {
        None
    }

    /// The transformation rules of the logical algebra.
    fn transformations(&self) -> &[Box<dyn TransformationRule<Self>>];

    /// The implementation rules mapping logical operators (possibly more
    /// than one at a time) to algorithms.
    fn implementations(&self) -> &[Box<dyn ImplementationRule<Self>>];

    /// The enforcers of the physical algebra.
    fn enforcers(&self) -> &[Box<dyn Enforcer<Self>>];
}
