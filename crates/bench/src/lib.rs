//! # volcano-bench — workloads and harnesses for the paper's evaluation
//!
//! [`workload`] generates the §4.2 experiment queries: random relational
//! select–join queries over 2–8 input relations of 1,200–7,200 records of
//! 100 bytes, with one selection per input relation and a connected join
//! graph (so exhaustive search with bushy trees is meaningful and no
//! Cartesian products are required).
//!
//! [`runner`] runs one query through both optimizers and returns the
//! measurements Figure 4 plots: optimization time, estimated execution
//! time of the produced plan, and memory consumption.
//!
//! [`ablations`] counts what each §3 search mechanism costs or saves over
//! the same query stream.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablations;
pub mod jsonv;
pub mod runner;
pub mod workload;

pub use jsonv::{parse_json, Json, JsonError};
pub use runner::{geomean, run_exodus, run_volcano, ExodusMeasurement, VolcanoMeasurement};
pub use workload::{fig4_query, generate_query, GeneratedQuery, WorkloadConfig};
