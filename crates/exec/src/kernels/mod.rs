//! Vectorized kernels: tight column-at-a-time loops shared by the batch
//! operators.
//!
//! Each kernel takes whole columns and produces hashed keys or
//! aggregated output, so the per-row work is a handful of machine
//! instructions with no virtual dispatch and no per-row allocation.

pub mod agg;
pub mod hash;

pub use agg::{AccState, GroupTable, SumState};
pub use hash::hash_join_keys;
