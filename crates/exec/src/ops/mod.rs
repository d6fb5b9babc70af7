//! The physical operators of the execution engine.

pub mod aggregate;
pub mod batch_adapter;
pub mod external_sort;
pub mod filter;
pub mod index_scan;
pub mod joins;
pub mod project;
pub mod scan;
pub mod set_ops;

pub use aggregate::{AggMode, CompiledAgg, HashAggregate, StreamAggregate};
pub use batch_adapter::{BatchSource, TupleSource};
pub use external_sort::ExternalSort;
pub use filter::{CompiledPred, Filter};
pub use index_scan::IndexScan;
pub use joins::{HashJoin, MergeJoin, MultiWayHash, NestedLoops};
pub use project::Project;
pub use scan::TableScan;
pub use set_ops::{HashSetOp, MergeSetOp, SetOpKind};
