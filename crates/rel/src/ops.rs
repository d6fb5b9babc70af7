//! The logical algebra: operators consuming and producing bulk types.
//!
//! "The set of logical operators is declared in the model specification
//! and compiled into the optimizer during generation" (§2.2). Operator
//! values carry their arguments (table, predicate, projection list, ...)
//! and must be `Eq + Hash`: the memo keys expressions by operator value
//! plus input classes.

use std::fmt;

use volcano_core::model::Operator;

use crate::ids::{AttrId, TableId};
use crate::predicate::{JoinPred, Pred};

/// Aggregate functions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)`.
    CountStar,
    /// `SUM(attr)`.
    Sum(AttrId),
    /// `MIN(attr)`.
    Min(AttrId),
    /// `MAX(attr)`.
    Max(AttrId),
    /// `AVG(attr)`.
    Avg(AttrId),
}

impl AggFunc {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::CountStar => "count",
            AggFunc::Sum(_) => "sum",
            AggFunc::Min(_) => "min",
            AggFunc::Max(_) => "max",
            AggFunc::Avg(_) => "avg",
        }
    }
}

/// A grouping + aggregation specification.
///
/// Each aggregate is paired with a fresh output [`AttrId`] (allocated via
/// [`crate::Catalog::fresh_attr`]) so downstream operators can reference
/// aggregate results like any other attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// Grouping attributes.
    pub group_by: Vec<AttrId>,
    /// Aggregates and their output attribute ids.
    pub aggs: Vec<(AggFunc, AttrId)>,
}

/// Bit set on synthetic attribute ids in a partial aggregate's
/// intermediate schema (the AVG count companion). Catalog-allocated ids
/// stay far below this, so the companions can never collide.
pub const PARTIAL_COMPANION_BIT: u32 = 1 << 30;

impl AggSpec {
    /// The AVG count companion attribute for output attribute `out`:
    /// a partial AVG ships `(sum, count)` across the gather, and the
    /// count column needs a deterministic id distinct from every real
    /// attribute.
    pub fn companion_attr(out: AttrId) -> AttrId {
        AttrId(out.0 | PARTIAL_COMPANION_BIT)
    }

    /// The intermediate (partial-aggregate output) attribute layout:
    /// group-by attributes, then per aggregate its output attribute —
    /// with AVG contributing a second, companion column for the count.
    ///
    /// This layout is the contract between the partial and final phases
    /// in every engine: `PartialHashAggregate` produces it and
    /// `FinalHashAggregate` consumes it positionally.
    pub fn partial_attrs(&self) -> Vec<AttrId> {
        let mut out: Vec<AttrId> = self.group_by.clone();
        for (f, a) in &self.aggs {
            out.push(*a);
            if matches!(f, AggFunc::Avg(_)) {
                out.push(Self::companion_attr(*a));
            }
        }
        out
    }
}

/// The logical operators of the relational algebra.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RelOp {
    /// Scan a stored table (arity 0).
    Get(TableId),
    /// Filter rows by a conjunction (arity 1).
    Select(Pred),
    /// Keep only the listed attributes, no duplicate removal (arity 1).
    Project(Vec<AttrId>),
    /// Inner equi-join; an empty predicate is a Cartesian product
    /// (arity 2).
    Join(JoinPred),
    /// Bag union of schema-compatible inputs (arity 2).
    Union,
    /// Set intersection of schema-compatible inputs (arity 2).
    Intersect,
    /// Set difference `left \ right` (arity 2).
    Difference,
    /// Group-by + aggregation (arity 1).
    Aggregate(AggSpec),
    /// Per-worker partial aggregation: groups its input locally and
    /// emits one summary row per (worker, group) in the intermediate
    /// layout of [`AggSpec::partial_attrs`] (arity 1). Only produced by
    /// the `AggSplit` transformation under a parallel model.
    PartialAggregate(AggSpec),
    /// Merge of partial-aggregate summaries into final results: SUM and
    /// COUNT partials are summed, MIN/MAX re-minimized, AVG divides the
    /// merged `(sum, count)` pair (arity 1).
    FinalAggregate(AggSpec),
}

/// Operator discriminants for the rule-dispatch index (see
/// `volcano_core::Model::op_discriminant`). Pure variant tags — never a
/// function of operator arguments such as predicates or column lists.
pub mod rel_disc {
    /// `RelOp::Get(_)`.
    pub const GET: usize = 0;
    /// `RelOp::Select(_)`.
    pub const SELECT: usize = 1;
    /// `RelOp::Project(_)`.
    pub const PROJECT: usize = 2;
    /// `RelOp::Join(_)`.
    pub const JOIN: usize = 3;
    /// `RelOp::Union`.
    pub const UNION: usize = 4;
    /// `RelOp::Intersect`.
    pub const INTERSECT: usize = 5;
    /// `RelOp::Difference`.
    pub const DIFFERENCE: usize = 6;
    /// `RelOp::Aggregate(_)`.
    pub const AGGREGATE: usize = 7;
    /// `RelOp::PartialAggregate(_)`.
    pub const PARTIAL_AGGREGATE: usize = 8;
    /// `RelOp::FinalAggregate(_)`.
    pub const FINAL_AGGREGATE: usize = 9;
}

impl RelOp {
    /// The operator's dispatch discriminant (see [`rel_disc`]).
    pub fn discriminant(&self) -> usize {
        match self {
            RelOp::Get(_) => rel_disc::GET,
            RelOp::Select(_) => rel_disc::SELECT,
            RelOp::Project(_) => rel_disc::PROJECT,
            RelOp::Join(_) => rel_disc::JOIN,
            RelOp::Union => rel_disc::UNION,
            RelOp::Intersect => rel_disc::INTERSECT,
            RelOp::Difference => rel_disc::DIFFERENCE,
            RelOp::Aggregate(_) => rel_disc::AGGREGATE,
            RelOp::PartialAggregate(_) => rel_disc::PARTIAL_AGGREGATE,
            RelOp::FinalAggregate(_) => rel_disc::FINAL_AGGREGATE,
        }
    }
}

impl Operator for RelOp {
    fn arity(&self) -> usize {
        match self {
            RelOp::Get(_) => 0,
            RelOp::Select(_)
            | RelOp::Project(_)
            | RelOp::Aggregate(_)
            | RelOp::PartialAggregate(_)
            | RelOp::FinalAggregate(_) => 1,
            RelOp::Join(_) | RelOp::Union | RelOp::Intersect | RelOp::Difference => 2,
        }
    }

    fn name(&self) -> &str {
        match self {
            RelOp::Get(_) => "get",
            RelOp::Select(_) => "select",
            RelOp::Project(_) => "project",
            RelOp::Join(_) => "join",
            RelOp::Union => "union",
            RelOp::Intersect => "intersect",
            RelOp::Difference => "difference",
            RelOp::Aggregate(_) => "aggregate",
            RelOp::PartialAggregate(_) => "partial_aggregate",
            RelOp::FinalAggregate(_) => "final_aggregate",
        }
    }
}

impl fmt::Display for RelOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelOp::Get(t) => write!(f, "get({t:?})"),
            RelOp::Select(p) => write!(f, "select[{p}]"),
            RelOp::Project(attrs) => write!(f, "project{attrs:?}"),
            RelOp::Join(p) => write!(f, "join[{p}]"),
            RelOp::Union => write!(f, "union"),
            RelOp::Intersect => write!(f, "intersect"),
            RelOp::Difference => write!(f, "difference"),
            RelOp::Aggregate(s) => {
                write!(
                    f,
                    "aggregate[group={:?}, {} aggs]",
                    s.group_by,
                    s.aggs.len()
                )
            }
            RelOp::PartialAggregate(s) => {
                write!(
                    f,
                    "partial_aggregate[group={:?}, {} aggs]",
                    s.group_by,
                    s.aggs.len()
                )
            }
            RelOp::FinalAggregate(s) => {
                write!(
                    f,
                    "final_aggregate[group={:?}, {} aggs]",
                    s.group_by,
                    s.aggs.len()
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arities() {
        assert_eq!(RelOp::Get(TableId(0)).arity(), 0);
        assert_eq!(RelOp::Select(Pred::default()).arity(), 1);
        assert_eq!(RelOp::Join(JoinPred::cross()).arity(), 2);
        assert_eq!(RelOp::Union.arity(), 2);
        assert_eq!(
            RelOp::Aggregate(AggSpec {
                group_by: vec![],
                aggs: vec![]
            })
            .arity(),
            1
        );
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(RelOp::Get(TableId(1)).to_string(), "get(T1)");
        assert_eq!(RelOp::Union.to_string(), "union");
    }

    #[test]
    fn agg_func_names() {
        assert_eq!(AggFunc::CountStar.name(), "count");
        assert_eq!(AggFunc::Avg(AttrId(4)).name(), "avg");
    }
}
