//! # volcano-core — the Volcano optimizer generator search engine
//!
//! A from-scratch Rust implementation of the search engine described in
//! Goetz Graefe and William J. McKenna, *The Volcano Optimizer Generator:
//! Extensibility and Efficient Search*, ICDE 1993.
//!
//! The crate is completely **data-model independent**: everything the paper
//! lists as input to the optimizer generator is supplied by the *optimizer
//! implementor* through the [`Model`] trait and the rule traits:
//!
//! 1. a set of logical operators ([`Model::Op`]),
//! 2. algebraic transformation rules, possibly with condition code
//!    ([`TransformationRule`]),
//! 3. a set of algorithms and enforcers ([`Model::Alg`]),
//! 4. implementation rules, possibly with condition code
//!    ([`ImplementationRule`]),
//! 5. an ADT "cost" with arithmetic and comparison ([`Cost`]),
//! 6. an ADT "logical properties" ([`Model::LogicalProps`]),
//! 7. an ADT "physical property vector" with equality and *cover*
//!    comparisons ([`PhysicalProps`]),
//! 8. an applicability function for each algorithm and enforcer
//!    ([`ImplementationRule::applies`], [`Enforcer::applies`]),
//! 9. a cost function for each algorithm and enforcer
//!    ([`ImplementationRule::cost`], [`Enforcer::cost`]),
//! 10. a property function for each operator, algorithm, and enforcer
//!     ([`Model::derive_logical_props`], the `delivers` fields of
//!     [`AlgApplication`] / [`EnforcerApplication`]).
//!
//! In the 1993 system the model specification was translated into C source
//! code and compiled ("rule compilation" rather than interpretation, §2.1
//! design decision 4). The Rust analogue is monomorphization: an optimizer
//! is `Optimizer<M>` for a concrete `M: Model`, and `rustc` compiles the
//! rule set into the optimizer exactly as the generator did. The companion
//! crate `volcano-gen` additionally reproduces the literal
//! source-generation paradigm and an interpreted `DynamicModel`.
//!
//! ## The search algorithm
//!
//! [`Optimizer::find_best_plan`] implements Figure 2 of the paper:
//! **directed dynamic programming** — top-down, goal-oriented search where
//! a goal is a pair of an equivalence class (group) and a physical property
//! vector, with
//!
//! * a memo (hash table of expressions and equivalence classes) that
//!   detects redundant derivations and stores, per group and property
//!   combination, the best plan found *and* optimization failures,
//! * branch-and-bound pruning via cost limits that tighten as input costs
//!   accrue,
//! * "in progress" marks that break cycles among mutually inverse
//!   transformation rules,
//! * enforcers that relax the property vector for their input and pass an
//!   *excluding* property vector down so that algorithms which could have
//!   satisfied the requirement directly are not considered redundantly,
//! * move ordering by *promise*, with optional move selection — the
//!   "major heuristic placed into the hands of the optimizer implementor".
//!
//! ## Quick example
//!
//! The [`toy`] module contains a minimal relational-ish model used by the
//! crate's own tests:
//!
//! ```
//! use volcano_core::{Optimizer, SearchOptions, ExprTree, PhysicalProps};
//! use volcano_core::toy::{ToyModel, ToyOp, ToyProps};
//!
//! let model = ToyModel::with_tables(&[("R", 1000), ("S", 100)]);
//! let query = ExprTree::new(
//!     ToyOp::Join,
//!     vec![ExprTree::leaf(ToyOp::Get("R".into())), ExprTree::leaf(ToyOp::Get("S".into()))],
//! );
//! let mut opt = Optimizer::new(&model, SearchOptions::default());
//! let root = opt.insert_tree(&query);
//! let plan = opt.find_best_plan(root, ToyProps::any(), None).unwrap();
//! assert!(plan.cost > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod budget;
pub mod cost;
pub mod error;
pub mod expr;
pub mod fxhash;
pub mod ids;
mod inline;
pub mod memo;
pub mod model;
pub mod pattern;
pub mod plan;
pub mod props;
pub mod rule_index;
pub mod rules;
pub mod search;
pub mod stats;
pub mod toy;
pub mod trace;

pub use budget::{BudgetOutcome, CancelToken, SearchBudget, TripReason};
pub use cost::Cost;
pub use error::OptimizeError;
pub use expr::{ExprTree, SubstExpr};
pub use ids::{ExprId, GoalId, GroupId};
pub use memo::Memo;
pub use model::Model;
pub use pattern::{
    match_pattern, match_pattern_with, Binding, BindingChild, BindingChildren, OpMatcher, Pattern,
};
pub use plan::Plan;
pub use props::PhysicalProps;
pub use rule_index::RuleIndex;
pub use rules::{
    AlgApplication, Enforcer, EnforcerApplication, ImplementationRule, RuleCtx, TransformationRule,
};
pub use search::{Optimizer, SearchOptions};
pub use stats::SearchStats;
pub use trace::{
    build_span_tree, CollectingTracer, MetricsSnapshot, MetricsTracer, NullTracer, Span, SpanTree,
    TraceEvent, Tracer,
};
