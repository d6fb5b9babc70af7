//! The repository's one benchmark: SQL in, rows out, per layer.
//!
//! `BENCHMARK.json` at the repository root declares the command,
//! workloads, metrics and bounds; `README.md` beside this package says
//! what each means and which layer should move which number.

pub mod metrics;
pub mod report;
pub mod rows;
pub mod run;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod workloads;
