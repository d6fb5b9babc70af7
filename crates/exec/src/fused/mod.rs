//! The vectorized execution engine.
//!
//! Where the tuple engine interprets the plan one `next()` call per
//! row, this engine compiles each maximal pipelineable plan segment —
//! scans, filters, projections, hash joins, and any aggregate on top —
//! into a single [`FusedRegion`] operator at plan-compile time.
//! Inside a region there is no virtual dispatch and no adapter: each
//! pipeline is one loop per batch that decodes only the columns it
//! touches, evaluates predicate conjuncts through kernels monomorphized
//! over the column types ([`FusedPred`]), and probes join hash tables
//! directly. A region is the engine's only vectorized operator shape —
//! a lone filter over a sorted input is a region of one stage. The
//! remaining operators (sorts, set ops, merge/nested/multiway joins,
//! index scans) run on the tuple operators, with at most one adapter
//! per genuine engine boundary.
//!
//! Semantics are identical to the tuple engine by construction: the
//! monomorphized kernels defer to the generic ones in
//! [`crate::kernels`] on any unexpected column shape, and probe output
//! replicates the serial hash join's order contract. The differential
//! suite (`tests/fused_differential.rs`) pins this across batch sizes
//! and parallel degrees.

mod compile;
mod pred;
mod region;

pub use compile::{compile_fused, CompiledFused, FusedReport, PipelineInfo};
pub(crate) use compile::{compile_fused_at, compile_fused_with};
pub use pred::FusedPred;
pub(crate) use region::FusedScan;
pub use region::{FusedRegion, PipelineStats};
