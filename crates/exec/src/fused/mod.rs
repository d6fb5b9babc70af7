//! The vectorized execution engine: a region, a degree, a cursor, an
//! exchange.
//!
//! Where the tuple engine interprets the plan one `next()` call per
//! row, this engine compiles each maximal pipelineable plan segment —
//! scans, filters, projections, hash joins, and any aggregate on top —
//! into a single [`FusedRegion`] operator at plan-compile time. A
//! **region** is the engine's only vectorized operator shape (a lone
//! filter over a sorted input is a region of one stage) and `compile`
//! is its only lowering. Its **degree** is read off the plan: a
//! `gather(n)` over it, or between it and the aggregate that ends it,
//! makes it `n`; everything else is 1. Inside a region there is no
//! virtual dispatch and no adapter: one loop, the **cursor** of
//! `region`, pops a page-range morsel from the pipeline's queue,
//! decodes only the columns the pipeline touches, evaluates predicate
//! conjuncts through kernels monomorphized over the column types
//! ([`FusedPred`]), probes join hash tables (`table`) directly and
//! feeds the sink. At degree 1 the thread that pulls the region turns
//! that loop inline — one morsel, one table partition, scan order kept
//! — and at degree `n` the workers of [`crate::morsel`]'s **exchange**
//! do, which is the only place threads and channels exist. The
//! remaining operators (sorts, set ops, merge/nested/multiway joins,
//! index scans) run on the tuple operators, with at most one adapter
//! per genuine engine boundary.
//!
//! Semantics are identical to the tuple engine by construction: the
//! monomorphized kernels defer to one generic kernel on any unexpected
//! column shape, and at degree 1 probe output replicates the serial hash
//! join's order contract. The engine differential
//! (`tests/engine_differential.rs`) pins this across batch sizes,
//! morsel sizes and degrees.

mod compile;
mod pred;
mod region;
mod table;

pub(crate) use compile::compile_fused_at;
pub use compile::{compile_fused, CompiledFused, FusedReport, PipelineInfo};
pub use pred::FusedPred;
pub use region::{FusedRegion, PipelineStats};
