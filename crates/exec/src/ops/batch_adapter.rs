//! Adapters between tuple operators and batch operators.
//!
//! [`TupleSource`] lifts any tuple-at-a-time operator into a batch
//! source (rows are packed into columns); [`BatchSource`] lowers a batch
//! subtree back to the iterator interface (rows are materialized one at
//! a time from the current batch). Together they let the vectorized
//! lowering run a mixed plan — a fused scan/filter/project/join pipeline
//! below or above a tuple-only sort, set operation, or merge join —
//! end-to-end with identical results: the adapters reorder nothing and
//! drop nothing, they only change the unit of transfer.

use volcano_rel::value::Tuple;

use crate::batch::{Batch, BatchOperator, BoxedBatchOperator};
use crate::iterator::{BoxedOperator, Operator};

/// Tuple → batch adapter: drains a tuple operator into batches.
pub struct TupleSource {
    child: BoxedOperator,
    /// Output arity (from the plan schema, so empty inputs still
    /// produce well-formed batches).
    arity: usize,
    batch_size: usize,
    done: bool,
    /// Rows packed into batches (cumulative across re-opens).
    rows_packed: u64,
}

impl TupleSource {
    /// Lift `child` (producing `arity`-column tuples) into batches.
    pub fn new(child: BoxedOperator, arity: usize, batch_size: usize) -> Self {
        TupleSource {
            child,
            arity,
            batch_size: batch_size.max(1),
            done: false,
            rows_packed: 0,
        }
    }
}

impl BatchOperator for TupleSource {
    fn open(&mut self) {
        self.child.open();
        self.done = false;
    }

    fn next_batch(&mut self, out: &mut Batch) -> bool {
        if self.done {
            return false;
        }
        out.clear();
        if out.columns.len() != self.arity {
            out.reset_columns(self.arity);
        }
        let mut rows = 0usize;
        while rows < self.batch_size {
            match self.child.next() {
                Some(t) => {
                    out.push_row(t);
                    rows += 1;
                }
                None => {
                    self.done = true;
                    break;
                }
            }
        }
        self.rows_packed += rows as u64;
        rows > 0
    }

    fn close(&mut self) {
        self.child.close();
    }

    fn name(&self) -> &'static str {
        "tuple_to_batch"
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        vec![("rows_packed", self.rows_packed)]
    }
}

/// Batch → tuple adapter: serves rows of a batch subtree one at a time.
pub struct BatchSource {
    child: BoxedBatchOperator,
    batch: Batch,
    pos: usize,
    /// Batches unpacked into rows (cumulative across re-opens).
    batches_unpacked: u64,
}

impl BatchSource {
    /// Lower `child` to the iterator interface.
    pub fn new(child: BoxedBatchOperator) -> Self {
        BatchSource {
            child,
            batch: Batch::default(),
            pos: 0,
            batches_unpacked: 0,
        }
    }
}

impl Operator for BatchSource {
    fn open(&mut self) {
        self.child.open();
        self.batch.clear();
        self.pos = 0;
    }

    fn next(&mut self) -> Option<Tuple> {
        loop {
            if self.pos < self.batch.live_rows() {
                let t = self.batch.row_at_live(self.pos);
                self.pos += 1;
                return Some(t);
            }
            if !self.child.next_batch(&mut self.batch) {
                return None;
            }
            self.batches_unpacked += 1;
            self.pos = 0;
        }
    }

    fn close(&mut self) {
        self.child.close();
    }

    fn name(&self) -> &'static str {
        "batch_to_tuple"
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        vec![("batches_unpacked", self.batches_unpacked)]
    }
}
