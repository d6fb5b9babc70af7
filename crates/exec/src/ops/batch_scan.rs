//! Vectorized scan of a page range of a heap file, optionally with a
//! fused predicate — the source of every morsel-parallel pipeline (the
//! serial lowering scans through [`crate::fused::FusedRegion`]'s own
//! projected scan instead).
//!
//! Records are decoded *straight into typed column vectors* via the
//! storage layer's streaming [`decode_record_fields`] — the per-row
//! `Vec<Value>` the tuple scan materializes never exists here. The fused
//! predicate runs as a vectorized kernel over the freshly filled batch.

use std::sync::Arc;
use std::time::Instant;

use volcano_rel::catalog::ColType;
use volcano_store::record::decode_record_fields;
use volcano_store::{HeapFile, PageId};

use crate::batch::{Batch, BatchOperator};
use crate::kernels::apply_pred;
use crate::ops::filter::CompiledPred;

/// Page-at-a-time columnar scan over an explicit page list, producing
/// batches of a fixed size.
pub struct BatchScan {
    heap: Arc<HeapFile>,
    /// Catalog column types, used to pre-type the output columns.
    col_types: Vec<ColType>,
    /// Fused predicate (`None` = plain scan).
    pred: Option<CompiledPred>,
    batch_size: usize,
    /// The pages to scan (morsel execution swaps in one page range at a
    /// time via [`BatchScan::reset_pages`]).
    pages: Vec<PageId>,
    page_idx: usize,
    /// Raw bytes of the current page's records (reused across pages, so
    /// the steady state reads without allocating).
    arena: Vec<u8>,
    /// `(offset, len)` of each record within `arena`.
    spans: Vec<(u32, u32)>,
    record_idx: usize,
    opened: bool,
    scratch: Vec<u32>,
    /// Heap pages visited (cumulative across re-opens).
    pages_read: u64,
    /// Rows decoded before the fused predicate (cumulative).
    rows_scanned: u64,
    /// Nanoseconds in the vectorized predicate kernel (cumulative).
    pred_ns: u64,
}

impl BatchScan {
    /// A columnar scan of `pages` of `heap`, whose rows have `col_types`.
    pub fn with_pages(
        heap: Arc<HeapFile>,
        col_types: Vec<ColType>,
        pred: Option<CompiledPred>,
        batch_size: usize,
        pages: Vec<PageId>,
    ) -> Self {
        BatchScan {
            heap,
            col_types,
            pred,
            batch_size: batch_size.max(1),
            pages,
            page_idx: 0,
            arena: Vec::new(),
            spans: Vec::new(),
            record_idx: 0,
            opened: false,
            scratch: Vec::new(),
            pages_read: 0,
            rows_scanned: 0,
            pred_ns: 0,
        }
    }

    /// Swap in a new page list and rewind (used between morsels).
    pub fn reset_pages(&mut self, pages: &[PageId]) {
        self.pages.clear();
        self.pages.extend_from_slice(pages);
        self.page_idx = 0;
        self.spans.clear();
        self.record_idx = 0;
        self.opened = true;
    }
}

impl BatchOperator for BatchScan {
    fn open(&mut self) {
        self.page_idx = 0;
        self.spans.clear();
        self.record_idx = 0;
        self.opened = true;
    }

    fn next_batch(&mut self, out: &mut Batch) -> bool {
        assert!(self.opened, "next_batch() before open()");
        out.clear();
        if out.columns.len() != self.col_types.len() {
            *out = Batch::for_types(&self.col_types);
        }
        let mut rows = 0usize;
        while rows < self.batch_size {
            if self.record_idx >= self.spans.len() {
                if self.page_idx >= self.pages.len() {
                    break;
                }
                let page = self.pages[self.page_idx];
                self.page_idx += 1;
                self.pages_read += 1;
                self.heap
                    .page_records_into(page, &mut self.arena, &mut self.spans);
                self.record_idx = 0;
                continue;
            }
            let (off, len) = self.spans[self.record_idx];
            let bytes = &self.arena[off as usize..(off + len) as usize];
            self.record_idx += 1;
            // Route fields straight into the columns.
            let mut col = 0usize;
            let cols = &mut out.columns;
            decode_record_fields(bytes, |f| {
                cols[col].push_field(f);
                col += 1;
            })
            .expect("stored rows are well-formed");
            debug_assert_eq!(col, cols.len());
            rows += 1;
        }
        if rows == 0 {
            return false;
        }
        self.rows_scanned += rows as u64;
        out.set_physical_rows(rows);
        if let Some(pred) = &self.pred {
            let t0 = Instant::now();
            apply_pred(pred, out, &mut self.scratch);
            self.pred_ns += t0.elapsed().as_nanos() as u64;
        }
        true
    }

    fn close(&mut self) {
        self.arena.clear();
        self.spans.clear();
        self.opened = false;
    }

    fn name(&self) -> &'static str {
        if self.pred.is_some() {
            "batch_filter_scan"
        } else {
            "batch_file_scan"
        }
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        let mut m = vec![
            ("pages_read", self.pages_read),
            ("rows_scanned", self.rows_scanned),
        ];
        if self.pred.is_some() {
            m.push(("pred_kernel_ns", self.pred_ns));
        }
        m
    }
}
