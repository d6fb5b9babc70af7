//! The relational cost ADT, the cost-model constants and the one cost
//! function per algorithm.
//!
//! "The cost functions included both I/O and CPU costs" (§4.2): cost is a
//! record of the two components, as in System R \[15\], demonstrating the
//! engine's cost-as-ADT design — the search engine never looks inside,
//! it only calls the trait functions.
//!
//! [`local_cost`] maps each algorithm and enforcer to its formula. The
//! implementation rules and enforcers call it during search,
//! [`crate::estimated_plan_cost`] folds it over an extracted plan, and the
//! EXODUS baseline costs its plan records with it, so all three price an
//! algorithm the same way. The formulas themselves are private to the
//! crate, so no second mapping can grow outside it.
//!
//! Units are abstract milliseconds calibrated to early-90s hardware
//! (a SparcStation-class machine with a slow disk), which puts estimated
//! execution times for the paper's workload in the 0.1–50 s range the
//! figure shows. Absolute values are irrelevant for the reproduction;
//! *ratios* (I/O vs CPU, sort vs hash) are what shape plan choice.

use std::fmt;

use volcano_core::cost::Cost;

use crate::alg::RelAlg;
use crate::props::RelLogical;

/// Page size assumed by the cost model (bytes).
pub const PAGE_SIZE: f64 = 4096.0;
/// Milliseconds per sequential page I/O (early-90s disk, ~1.5 MB/s
/// sequential with 4 KiB pages).
pub const IO_PAGE_MS: f64 = 3.0;
/// CPU milliseconds to produce/copy one tuple.
pub const CPU_TUPLE_MS: f64 = 0.01;
/// CPU milliseconds per comparison.
pub const CPU_CMP_MS: f64 = 0.002;
/// CPU milliseconds per hash-function evaluation, bucket probe, and
/// chain chase (hashing 100-byte records on a ~12 MIPS machine is
/// several times the cost of one key comparison).
pub const CPU_HASH_MS: f64 = 0.016;
/// CPU milliseconds per predicate-term evaluation.
pub const CPU_PRED_MS: f64 = 0.004;
/// Fixed per-worker startup/coordination cost charged by the gather
/// enforcer (thread dispatch, morsel-queue setup, final drain).
pub const WORKER_STARTUP_MS: f64 = 0.5;
/// CPU milliseconds the gather enforcer spends merging one tuple from a
/// worker's output stream back into the serial stream.
pub const GATHER_TUPLE_MS: f64 = 0.002;

/// The cost record: estimated I/O and CPU milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RelCost {
    /// Estimated I/O time (ms).
    pub io: f64,
    /// Estimated CPU time (ms).
    pub cpu: f64,
}

impl RelCost {
    /// Build from components.
    pub fn new(io: f64, cpu: f64) -> Self {
        RelCost { io, cpu }
    }

    /// Pure-I/O cost.
    pub fn io(io: f64) -> Self {
        RelCost { io, cpu: 0.0 }
    }

    /// Pure-CPU cost.
    pub fn cpu(cpu: f64) -> Self {
        RelCost { io: 0.0, cpu }
    }

    /// Total estimated elapsed milliseconds (the comparison key).
    pub fn total(&self) -> f64 {
        self.io + self.cpu
    }
}

impl Cost for RelCost {
    fn zero() -> Self {
        RelCost::default()
    }

    fn add(&self, other: &Self) -> Self {
        RelCost {
            io: self.io + other.io,
            cpu: self.cpu + other.cpu,
        }
    }

    fn sub_saturating(&self, other: &Self) -> Self {
        // Budgets subtract on the comparison key; attribute the remaining
        // budget proportionally so the record stays meaningful.
        let remaining = (self.total() - other.total()).max(0.0);
        if self.total() <= 0.0 {
            return RelCost::zero();
        }
        let scale = remaining / self.total();
        RelCost {
            io: self.io * scale,
            cpu: self.cpu * scale,
        }
    }

    fn cheaper_than(&self, other: &Self) -> bool {
        self.total() < other.total()
    }
}

impl fmt::Display for RelCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}ms (io {:.2} + cpu {:.2})",
            self.total(),
            self.io,
            self.cpu
        )
    }
}

/// The local cost of running `alg` at parallel degree `degree`: the
/// model's one cost function per algorithm and enforcer (§2.2), which the
/// Volcano search, the plan re-coster and the EXODUS baseline share ("the
/// same property and cost functions", §4.2). Input plan costs are
/// accumulated by the callers.
///
/// `reads` are the logical properties the algorithm reads, in input
/// order, with two exceptions: a `FilterScan` reads its stored table, and
/// a `MultiWayHashJoin` reads its three inputs and then the intermediate
/// `a ⋈ b`. `out` is the output's. `memory_bytes` is the memory a hybrid
/// hash join may use (§4.1); no other algorithm reads it. Every cost is
/// scaled to its per-worker share at `degree`, the identity at degree 1.
pub fn local_cost(
    alg: &RelAlg,
    reads: &[&RelLogical],
    out: &RelLogical,
    degree: u32,
    memory_bytes: f64,
) -> RelCost {
    use formulas as f;
    let local = match alg {
        RelAlg::FileScan(_) => f::file_scan(out),
        RelAlg::IndexScan(_, _) => f::index_scan(out),
        RelAlg::FilterScan(_, pred) => f::filter_scan(reads[0], pred.len()),
        RelAlg::Filter(pred) => f::filter(reads[0], pred.len()),
        RelAlg::ProjectOp(_) => f::project(reads[0]),
        RelAlg::MergeJoin(_) => f::merge_join(reads[0], reads[1], out),
        RelAlg::HybridHashJoin(_) => {
            f::hash_join_with_memory(reads[0], reads[1], out, memory_bytes)
        }
        RelAlg::NestedLoops(p) => f::nested_loops(reads[0], reads[1], out, p.pairs().len()),
        RelAlg::MultiWayHashJoin { .. } => {
            f::multiway_hash_join(reads[0], reads[1], reads[2], reads[3], out)
        }
        RelAlg::MergeUnion | RelAlg::MergeIntersect | RelAlg::MergeDifference => {
            f::merge_set_op(reads[0], reads[1], out)
        }
        RelAlg::HashUnion | RelAlg::HashIntersect | RelAlg::HashDifference => {
            f::hash_set_op(reads[0], reads[1], out)
        }
        RelAlg::StreamAggregate(_) => f::stream_agg(reads[0], out),
        RelAlg::HashAggregate(_) => f::hash_agg(reads[0], out),
        RelAlg::PartialHashAggregate(_, _) => f::partial_hash_agg(reads[0], out),
        RelAlg::FinalHashAggregate(_) => f::final_hash_agg(reads[0], out),
        RelAlg::Sort(_) => f::sort(reads[0]),
        RelAlg::Gather(n) => f::gather(reads[0], *n),
    };
    f::parallelize(local, degree)
}

/// The cost formulas. Each returns the *local* cost of one algorithm;
/// [`local_cost`] is their only caller, apart from the class cost floors'
/// [`io_pages`](formulas::io_pages).
pub(crate) mod formulas {
    use super::{
        RelCost, RelLogical, CPU_CMP_MS, CPU_HASH_MS, CPU_PRED_MS, CPU_TUPLE_MS, GATHER_TUPLE_MS,
        IO_PAGE_MS, PAGE_SIZE, WORKER_STARTUP_MS,
    };
    use volcano_core::cost::Cost as _;

    /// I/O of reading every page of `l` once: a heap scan's I/O, and
    /// the least any access path to a stored table pays (the class cost
    /// floors, [`crate::props::BaseScans`]).
    pub fn io_pages(l: &RelLogical) -> f64 {
        l.pages(PAGE_SIZE) * IO_PAGE_MS
    }

    /// Sequential heap scan producing `out`.
    pub fn file_scan(out: &RelLogical) -> RelCost {
        RelCost::new(io_pages(out), out.card * CPU_TUPLE_MS)
    }

    /// Ordered scan through a clustered B+tree index: index leaf pages
    /// plus the (clustered, hence near-sequential) record fetches — a
    /// modest premium over a heap scan, bought for the delivered order.
    pub fn index_scan(out: &RelLogical) -> RelCost {
        RelCost::new(io_pages(out) * 1.25, out.card * CPU_TUPLE_MS * 1.5)
    }

    /// Fused scan + filter over a stored `table` with `terms` conjuncts.
    pub fn filter_scan(table: &RelLogical, terms: usize) -> RelCost {
        RelCost::new(
            io_pages(table),
            table.card * (CPU_TUPLE_MS + terms as f64 * CPU_PRED_MS),
        )
    }

    /// Standalone filter over `input` with `terms` conjuncts (half a
    /// tuple-cost of iterator overhead per row — what the fused
    /// filter-scan saves).
    pub fn filter(input: &RelLogical, terms: usize) -> RelCost {
        RelCost::cpu(input.card * (terms as f64 * CPU_PRED_MS + 0.5 * CPU_TUPLE_MS))
    }

    /// Column projection over `input`.
    pub fn project(input: &RelLogical) -> RelCost {
        RelCost::cpu(input.card * CPU_TUPLE_MS * 0.5)
    }

    /// Merge join of pre-sorted `l` and `r` producing `out`.
    pub fn merge_join(l: &RelLogical, r: &RelLogical, out: &RelLogical) -> RelCost {
        RelCost::cpu((l.card + r.card) * CPU_CMP_MS + out.card * CPU_TUPLE_MS)
    }

    /// In-memory hybrid hash join (no partition files, §4.2), building on
    /// `l`, probing with `r`, producing `out`.
    pub fn hash_join(l: &RelLogical, r: &RelLogical, out: &RelLogical) -> RelCost {
        RelCost::cpu(
            l.card * (CPU_HASH_MS + CPU_TUPLE_MS) + r.card * CPU_HASH_MS + out.card * CPU_TUPLE_MS,
        )
    }

    /// Hybrid hash join with a *memory-dependent* cost — the paper's
    /// point that cost may be "even a function, e.g., of the amount of
    /// available main memory" (§4.1). When the build side fits in
    /// `memory_bytes` this equals [`hash_join`]; otherwise the
    /// overflowing fraction of both inputs is written to partition files
    /// and read back.
    pub fn hash_join_with_memory(
        l: &RelLogical,
        r: &RelLogical,
        out: &RelLogical,
        memory_bytes: f64,
    ) -> RelCost {
        let base = hash_join(l, r, out);
        let build_bytes = l.card * l.row_width();
        if build_bytes <= memory_bytes {
            return base;
        }
        // Hybrid hash: the fraction that does not fit spills to
        // partition files; when the overflow factor exceeds the
        // partition fanout (one output buffer page per partition),
        // partitions must be re-partitioned recursively.
        let spill = 1.0 - (memory_bytes / build_bytes).clamp(0.0, 1.0);
        let fanout = (memory_bytes / PAGE_SIZE).max(2.0);
        let overflow = build_bytes / memory_bytes;
        let passes = overflow.log(fanout).ceil().max(1.0);
        let spilled_pages = spill * (l.pages(PAGE_SIZE) + r.pages(PAGE_SIZE));
        base.add(&RelCost::io(2.0 * passes * spilled_pages * IO_PAGE_MS))
    }

    /// Three-way hash join `(a ⋈ b) ⋈ c` in a single operator: builds on
    /// `a` and `b`, probes with `c`, and never constructs the
    /// intermediate `mid = a ⋈ b` tuples — that saved construction is
    /// its advantage over a cascade of binary hash joins.
    pub fn multiway_hash_join(
        a: &RelLogical,
        b: &RelLogical,
        c: &RelLogical,
        mid: &RelLogical,
        out: &RelLogical,
    ) -> RelCost {
        RelCost::cpu(
            (a.card + b.card) * (CPU_HASH_MS + CPU_TUPLE_MS)
                + c.card * CPU_HASH_MS
                + mid.card * CPU_HASH_MS
                + out.card * CPU_TUPLE_MS,
        )
    }

    /// Tuple-at-a-time nested loops with `terms` predicate terms.
    pub fn nested_loops(l: &RelLogical, r: &RelLogical, out: &RelLogical, terms: usize) -> RelCost {
        let t = (terms as f64).max(1.0);
        RelCost::cpu(l.card * r.card * t * CPU_PRED_MS + out.card * CPU_TUPLE_MS)
    }

    /// Merge-based set operation over consistently sorted inputs.
    pub fn merge_set_op(l: &RelLogical, r: &RelLogical, out: &RelLogical) -> RelCost {
        RelCost::cpu((l.card + r.card) * CPU_CMP_MS + out.card * CPU_TUPLE_MS)
    }

    /// Hash-based set operation.
    pub fn hash_set_op(l: &RelLogical, r: &RelLogical, out: &RelLogical) -> RelCost {
        RelCost::cpu(
            l.card * (CPU_HASH_MS + CPU_TUPLE_MS) + r.card * CPU_HASH_MS + out.card * CPU_TUPLE_MS,
        )
    }

    /// Streaming aggregation over a sorted `input`.
    pub fn stream_agg(input: &RelLogical, out: &RelLogical) -> RelCost {
        RelCost::cpu(input.card * CPU_CMP_MS + out.card * CPU_TUPLE_MS)
    }

    /// Hash aggregation over an unordered `input`.
    pub fn hash_agg(input: &RelLogical, out: &RelLogical) -> RelCost {
        RelCost::cpu(input.card * (CPU_HASH_MS + CPU_TUPLE_MS) + out.card * CPU_TUPLE_MS)
    }

    /// Per-worker partial hash aggregation: the same hash-and-update
    /// work as [`hash_agg`], producing the (larger, per-worker) partial
    /// summary set. The caller parallelizes the result, so this is the
    /// *total* work across workers.
    pub fn partial_hash_agg(input: &RelLogical, out: &RelLogical) -> RelCost {
        RelCost::cpu(input.card * (CPU_HASH_MS + CPU_TUPLE_MS) + out.card * CPU_TUPLE_MS)
    }

    /// Serial merge of partial summaries: one hash-and-merge per partial
    /// row, one output tuple per final group.
    pub fn final_hash_agg(input: &RelLogical, out: &RelLogical) -> RelCost {
        RelCost::cpu(input.card * (CPU_HASH_MS + CPU_TUPLE_MS) + out.card * CPU_TUPLE_MS)
    }

    /// Scale a local operator cost to its per-worker share under a
    /// delivered parallel degree. Both I/O and CPU divide by the degree:
    /// workers process disjoint morsels, and with `degree` outstanding
    /// page reads the I/O waits overlap. Degree 1 is the identity, so
    /// serial costing is bit-identical to the pre-parallel model.
    pub fn parallelize(cost: RelCost, degree: u32) -> RelCost {
        if degree <= 1 {
            return cost;
        }
        let d = degree as f64;
        RelCost::new(cost.io / d, cost.cpu / d)
    }

    /// The gather enforcer merging `degree` worker streams carrying
    /// `out.card` total rows back into one serial stream: per-worker
    /// startup plus a per-tuple merge charge.
    pub fn gather(out: &RelLogical, degree: u32) -> RelCost {
        RelCost::cpu(degree as f64 * WORKER_STARTUP_MS + out.card * GATHER_TUPLE_MS)
    }

    /// Sort of `input`: "sorting costs were calculated based on a
    /// single-level merge" (§4.2) — write sorted runs, read them back for
    /// one merge pass.
    pub fn sort(input: &RelLogical) -> RelCost {
        let n = input.card.max(2.0);
        RelCost::new(
            2.0 * input.pages(PAGE_SIZE) * IO_PAGE_MS,
            n * n.log2() * CPU_CMP_MS + n * CPU_TUPLE_MS,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_arithmetic() {
        let a = RelCost::new(10.0, 5.0);
        let b = RelCost::new(1.0, 2.0);
        let s = a.add(&b);
        assert_eq!(s.io, 11.0);
        assert_eq!(s.cpu, 7.0);
        assert!(b.cheaper_than(&a));
        assert!(a.cheaper_or_equal(&a));
    }

    #[test]
    fn comparison_uses_total() {
        // io-heavy vs cpu-heavy with equal totals compare as equal.
        let a = RelCost::new(10.0, 0.0);
        let b = RelCost::new(0.0, 10.0);
        assert!(!a.cheaper_than(&b));
        assert!(!b.cheaper_than(&a));
    }

    #[test]
    fn sub_saturates_and_scales() {
        let a = RelCost::new(8.0, 2.0);
        let r = a.sub_saturating(&RelCost::new(0.0, 5.0));
        assert!((r.total() - 5.0).abs() < 1e-9);
        // Proportional attribution keeps the io:cpu ratio.
        assert!((r.io / r.cpu - 4.0).abs() < 1e-9);
        let zero = a.sub_saturating(&RelCost::new(100.0, 100.0));
        assert_eq!(zero.total(), 0.0);
    }

    #[test]
    fn display_shows_components() {
        let c = RelCost::new(1.0, 2.0);
        assert!(c.to_string().contains("io 1.00"));
        assert!(c.to_string().contains("cpu 2.00"));
    }
}
