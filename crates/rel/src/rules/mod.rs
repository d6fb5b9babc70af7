//! The relational rule set: transformation rules, implementation rules,
//! and enforcers.
//!
//! Rules "are translated independently from one another and are combined
//! only by the search engine when optimizing a query" (§2.1): each rule
//! here is a self-contained struct implementing one of the `volcano-core`
//! rule traits; [`crate::RelModel`] assembles the set according to its
//! options.

pub mod enforce;
pub mod implement;
pub mod transform;

pub use enforce::{GatherEnforcer, SortEnforcer};
pub use implement::*;
pub use transform::*;

use volcano_core::Pattern;

use crate::model::RelModel;
use crate::ops::rel_disc;

/// The pattern node matching the operators of discriminant `DISC`
/// ([`crate::ops::rel_disc`]), named `name`, over `inputs`. The
/// discriminant is a constant so the matcher captures nothing: building a
/// model allocates no closure.
fn pat<const DISC: usize>(name: &'static str, inputs: Vec<Pattern<RelModel>>) -> Pattern<RelModel> {
    Pattern::op_disc(
        name,
        vec![DISC],
        |op: &crate::RelOp| op.discriminant() == DISC,
        inputs,
    )
}

/// `Join(?, ?)`.
fn join() -> Pattern<RelModel> {
    pat::<{ rel_disc::JOIN }>("join", vec![Pattern::Any, Pattern::Any])
}

/// `Join(Join(?, ?), ?)`.
fn join_join() -> Pattern<RelModel> {
    pat::<{ rel_disc::JOIN }>("join", vec![join(), Pattern::Any])
}
