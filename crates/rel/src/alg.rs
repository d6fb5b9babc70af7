//! The physical algebra: algorithms and enforcers.
//!
//! These mirror the operator repertoire of the Volcano execution engine
//! \[4\] and the paper's experiment configuration (§4.2): file scan, filter,
//! sort, merge join, hybrid hash join — plus the operators a production
//! system needs around them. `FilterScan` exists because "a join followed
//! by a projection ... should be implemented in a single procedure;
//! therefore, it is possible to map multiple logical operators to a single
//! physical operator" (§2.2): it implements `Select(Get(t))` in one pass.

use std::fmt;

use volcano_core::model::Algorithm;

use crate::ids::{AttrId, TableId};
use crate::ops::AggSpec;
use crate::predicate::{JoinPred, Pred};

/// Physical operators of the relational model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RelAlg {
    /// Sequential heap-file scan; output unordered.
    FileScan(TableId),
    /// Ordered scan through a clustered B+tree index on the given
    /// attribute: an access path that *delivers* a sort order.
    IndexScan(TableId, AttrId),
    /// Scan + predicate evaluation in a single pass (multi-operator
    /// implementation of `Select(Get)`).
    FilterScan(TableId, Pred),
    /// Standalone predicate filter; preserves input order.
    Filter(Pred),
    /// Column projection without duplicate removal; preserves order.
    ProjectOp(Vec<AttrId>),
    /// Merge join; requires both inputs sorted on the join attributes,
    /// delivers output sorted on the left attributes.
    MergeJoin(JoinPred),
    /// Hybrid hash join, in-memory ("presumed to proceed without
    /// partition files", §4.2); output unordered. Builds on the left.
    HybridHashJoin(JoinPred),
    /// Tuple-at-a-time nested loops; preserves the outer (left) order and
    /// handles arbitrary predicates including Cartesian products.
    NestedLoops(JoinPred),
    /// Three-way hash join implementing `Join(Join(a, b), c)` in one
    /// operator: builds hash tables on `a` and `b`, probes with `c`
    /// through the middle table. The §6 extensibility claim made
    /// concrete: "the introduction of a new, non-trivial algorithm such
    /// as a multi-way join requires one or two implementation rules in
    /// Volcano". Predicates: `inner` joins a–b, `outer` joins (a,b)–c.
    MultiWayHashJoin {
        /// The a–b equi-join predicate.
        inner: JoinPred,
        /// The (a ⋈ b)–c equi-join predicate.
        outer: JoinPred,
    },
    /// Merge-based union of two consistently sorted inputs.
    MergeUnion,
    /// Hash-based union.
    HashUnion,
    /// Merge-based intersection ("an algorithm very similar to
    /// merge-join", §3) of two consistently sorted inputs.
    MergeIntersect,
    /// Hash-based intersection.
    HashIntersect,
    /// Merge-based difference of two consistently sorted inputs.
    MergeDifference,
    /// Hash-based difference.
    HashDifference,
    /// Aggregation over an input sorted on the grouping attributes.
    StreamAggregate(AggSpec),
    /// Hash-based aggregation over unordered input.
    HashAggregate(AggSpec),
    /// Per-worker hash aggregation below a gather: each of the `u32`
    /// workers groups its own share of the input and emits partial
    /// summaries in the intermediate layout of
    /// [`AggSpec::partial_attrs`]. The degree is carried so the
    /// re-coster can reproduce the search-time cardinality without the
    /// optimizer context.
    PartialHashAggregate(AggSpec, u32),
    /// Merge of partial summaries into final aggregate results; runs
    /// serially above the gather.
    FinalHashAggregate(AggSpec),
    /// The sort **enforcer**: performs no logical data manipulation, only
    /// establishes an ordering (§2.2).
    Sort(Vec<AttrId>),
    /// The gather **enforcer**: merges the `n` partitions of a parallel
    /// subplan back into one serial stream — the paper's exchange
    /// operator, restricted to the merge direction. Like `Sort`, it
    /// performs no logical data manipulation; it only converts the
    /// parallel-degree physical property from `n` back to 1.
    Gather(u32),
}

impl Algorithm for RelAlg {
    fn name(&self) -> &str {
        RelAlg::name(self)
    }
}

impl RelAlg {
    /// The operator's name: what [`Algorithm::name`] returns, and what
    /// the vectorized engine reports for an operator it does not fuse.
    pub fn name(&self) -> &'static str {
        match self {
            RelAlg::FileScan(_) => "file_scan",
            RelAlg::IndexScan(_, _) => "index_scan",
            RelAlg::FilterScan(_, _) => "filter_scan",
            RelAlg::Filter(_) => "filter",
            RelAlg::ProjectOp(_) => "project",
            RelAlg::MergeJoin(_) => "merge_join",
            RelAlg::HybridHashJoin(_) => "hybrid_hash_join",
            RelAlg::NestedLoops(_) => "nested_loops",
            RelAlg::MultiWayHashJoin { .. } => "multiway_hash_join",
            RelAlg::MergeUnion => "merge_union",
            RelAlg::HashUnion => "hash_union",
            RelAlg::MergeIntersect => "merge_intersect",
            RelAlg::HashIntersect => "hash_intersect",
            RelAlg::MergeDifference => "merge_difference",
            RelAlg::HashDifference => "hash_difference",
            RelAlg::StreamAggregate(_) => "stream_aggregate",
            RelAlg::HashAggregate(_) => "hash_aggregate",
            RelAlg::PartialHashAggregate(_, _) => "partial_hash_aggregate",
            RelAlg::FinalHashAggregate(_) => "final_hash_aggregate",
            RelAlg::Sort(_) => "sort",
            RelAlg::Gather(_) => "gather",
        }
    }

    /// Is this one of the join algorithms?
    pub fn is_join(&self) -> bool {
        matches!(
            self,
            RelAlg::MergeJoin(_)
                | RelAlg::HybridHashJoin(_)
                | RelAlg::NestedLoops(_)
                | RelAlg::MultiWayHashJoin { .. }
        )
    }
}

impl fmt::Display for RelAlg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RelAlg::FileScan(t) => write!(f, "file_scan({t:?})"),
            RelAlg::IndexScan(t, a) => write!(f, "index_scan({t:?}, {a})"),
            RelAlg::FilterScan(t, p) => write!(f, "filter_scan({t:?}, {p})"),
            RelAlg::Filter(p) => write!(f, "filter[{p}]"),
            RelAlg::ProjectOp(attrs) => write!(f, "project{attrs:?}"),
            RelAlg::MergeJoin(p) => write!(f, "merge_join[{p}]"),
            RelAlg::HybridHashJoin(p) => write!(f, "hybrid_hash_join[{p}]"),
            RelAlg::NestedLoops(p) => write!(f, "nested_loops[{p}]"),
            RelAlg::MultiWayHashJoin { inner, outer } => {
                write!(f, "multiway_hash_join[{inner}; {outer}]")
            }
            RelAlg::Sort(attrs) => write!(f, "sort{attrs:?}"),
            RelAlg::Gather(n) => write!(f, "gather({n})"),
            other => write!(f, "{}", other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(RelAlg::MergeJoin(JoinPred::cross()).is_join());
        assert!(!RelAlg::HashUnion.is_join());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            RelAlg::HybridHashJoin(JoinPred::cross()).name(),
            "hybrid_hash_join"
        );
        assert_eq!(RelAlg::MergeUnion.name(), "merge_union");
    }
}
