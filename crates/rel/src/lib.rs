//! # volcano-rel — the relational model specification
//!
//! The relational data model plugged into the `volcano-core` search
//! engine: the "model specification" an optimizer implementor would feed
//! to the Volcano optimizer generator, here compiled by `rustc` into a
//! working cost-based relational optimizer.
//!
//! It provides:
//!
//! * a **catalog** with table and column statistics ([`catalog`]),
//! * the **logical algebra**: get, select, project, join, union,
//!   intersect, difference, aggregate ([`ops`]),
//! * the **physical algebra**: file scan, filtered scan (a multi-operator
//!   implementation), filter, project, merge join, hybrid hash join,
//!   nested-loops join, sort-merge and hash set operations, stream and
//!   hash aggregation, and the **sort enforcer** ([`alg`]),
//! * **physical properties**: sort order with prefix cover ([`props`]),
//! * a System-R-style **cost model** with separate I/O and CPU components
//!   and one cost function per algorithm ([`cost`]), and **selectivity
//!   estimation** ([`selectivity`]),
//! * the **rule set**: join commutativity and associativity, select
//!   push-down/merge, set-operation associativity, and one implementation
//!   rule per algorithm ([`rules`]),
//! * an ergonomic **query builder** ([`builder`]).
//!
//! The experiment configuration of the paper's §4.2 (select–join queries,
//! 1,200–7,200-record relations of 100-byte rows, hash join without
//! partition files, single-level merge sort) is the default configuration
//! of [`RelModel`].

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alg;
pub mod builder;
pub mod catalog;
pub mod cost;
pub mod estimate;
pub mod explain;
pub mod feedback;
pub mod ids;
pub mod model;
pub mod ops;
pub mod predicate;
pub mod props;
pub mod rules;
pub mod selectivity;
pub mod value;

pub use alg::RelAlg;
pub use builder::QueryBuilder;
pub use catalog::{Catalog, ColumnDef, TableDef};
pub use cost::RelCost;
pub use estimate::{estimated_plan_cost, logical_from_inputs};
pub use explain::{explain_expr, explain_plan};
pub use feedback::{
    geometric_share, join_pair_key, observations, term_key, Observation, ObservationKey,
    SelectivityMemory,
};
pub use ids::{AttrId, TableId};
pub use model::{JoinSpace, RelModel, RelModelOptions};
pub use ops::{AggFunc, AggSpec, RelOp};
pub use predicate::{Cmp, CmpOp, JoinPred, Pred};
pub use props::{AggPhase, BaseScans, RelLogical, RelProps, SortOrder};
pub use value::Value;

/// The logical expression tree type for the relational model.
pub type RelExpr = volcano_core::ExprTree<RelModel>;
/// The optimizer type for the relational model.
pub type RelOptimizer<'m> = volcano_core::Optimizer<'m, RelModel>;
/// The plan type for the relational model.
pub type RelPlan = volcano_core::Plan<RelModel>;
