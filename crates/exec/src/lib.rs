//! # volcano-exec — the Volcano execution engine
//!
//! Two engines run the optimizer's physical plans. The **tuple engine**
//! is the demand-driven iterator model of the Volcano query processor
//! \[4\]: every physical operator implements `open` / `next` / `close`
//! ([`iterator::Operator`]), consuming and producing streams of tuples.
//! It implements every algorithm, is the paper-faithful reference, and
//! is the oracle the second engine is tested against. The **vectorized
//! engine** runs the same plans over columnar batches with selection
//! vectors: one lowering ([`compile_fused()`]) splits a plan into
//! pipelines, compiles each maximal run of scans, filters, projections
//! and hash joins into a single fused loop, ends it in an aggregation
//! sink where an aggregate follows, and runs whatever it does not
//! vectorize on the tuple operators behind one adapter per boundary.
//! [`database::Database::execute`] runs a plan on either.
//!
//! * [`ops`] — the algorithms the optimizer chooses among: table scan,
//!   index scan, filter, project, external sort (run formation and one
//!   merge level, §4.2), merge join, hash join, nested loops, set
//!   operations, aggregation; plus the tuple↔batch adapters. A `gather`
//!   is a region's degree in the vectorized engine ([`morsel`]); the
//!   tuple engine runs it serially.
//! * [`database`] — tables as heap files behind a buffer pool, with data
//!   generation that honours the catalog's statistics, prepared
//!   statements and the plan cache.
//! * [`compile()`] — lowers an optimized [`volcano_rel::RelPlan`] to a
//!   tuple operator tree, resolving attributes to positions.
//! * [`batch`] / [`kernels`] — columnar batches and the
//!   column-at-a-time kernels (key hashing, aggregation).
//! * [`fused`] — the vectorized lowering and its one runtime:
//!   fused-region operators with monomorphized predicate kernels,
//!   projected record decoding, partitioned join tables and terminal
//!   aggregation sinks, run by one cursor loop at the degree the plan's
//!   `gather(n)` gives the region (1 otherwise).
//! * [`morsel`] — what is about scheduling a region of degree `n`:
//!   page-range morsels, the work-stealing queue, its counters, and the
//!   exchange — the only code that starts threads — streaming results
//!   to the consumer over a bounded channel.
//! * [`analyze`] — `EXPLAIN ANALYZE` on either engine: the rows every
//!   plan node produced beside its estimate, the counts the feedback
//!   harvest reads.
//! * [`serve`] — the multi-session serving layer: sessions with their
//!   own prepared statements and `SET` state over one shared
//!   `Send + Sync` [`database::Database`], with admission control that
//!   degrades overloaded search to greedy completion (a move limit of
//!   one, never cached) instead of queueing unboundedly.
//! * [`naive`] — a direct evaluator for *logical* algebra expressions:
//!   the correctness oracle that every optimized-and-executed plan is
//!   tested against.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyze;
pub mod batch;
pub mod compile;
pub mod database;
pub mod fused;
pub mod iterator;
pub mod kernels;
pub mod morsel;
pub mod naive;
pub mod ops;
mod pipeline;
pub mod plan_cache;
pub mod serve;

pub use analyze::{execute_analyzed, Analyzed, NodeMeasurement};
pub use batch::{collect_batches, Batch, BatchOperator, BoxedBatchOperator, Column};
pub use compile::{
    compile, compile_node_at, schema_of, schema_of_at, BatchConfig, Compiled, Engine,
};
pub use database::{
    Database, ExecOptions, FeedbackStats, PrepareError, PreparedOutcome, PreparedStatement,
    SchemaSnapshot, DEFAULT_DRIFT_FACTOR, DEFAULT_PLAN_CACHE_CAPACITY, FEEDBACK_MATERIAL_RATIO,
};
pub use fused::{compile_fused, CompiledFused, FusedRegion, FusedReport};
pub use iterator::{collect, BoxedOperator, Operator};
pub use morsel::MorselStats;
pub use naive::{assert_same_rows, evaluate_logical, Evaluated};
pub use plan_cache::{rebind_plan, CacheOutcome, PlanCache, PlanCacheStats};
pub use serve::{
    Admission, AdmissionControl, AdmissionStats, Server, ServerConfig, Session, SessionError,
    SessionOutcome, Ticket, TrafficClass,
};
