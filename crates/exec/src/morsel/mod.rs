//! Scheduling for regions of degree `n > 1`: morsels, the work-stealing
//! queue that deals them out, the counters, and the exchange.
//!
//! A `gather(n)` node in a physical plan is the optimizer's statement
//! that dividing its subtree's work across `n` workers pays for the
//! worker startup and row-gathering overhead the cost model charges. The
//! vectorized lowering ([`crate::fused`]) turns that into the *degree* of
//! the region it compiles the subtree to; nothing else about the region
//! changes. In the style of morsel-driven parallelism (Leis et al.,
//! SIGMOD 2014) layered over Volcano's exchange model, each pipeline's
//! scan is split into page-range **morsels** ([`partition_pages`]), a
//! [`StealQueue`] hands them to the region's cursors — one inline cursor
//! at degree 1, over one morsel covering the file; one cursor per worker
//! at degree `n` — and `exchange` is the only code that starts threads:
//! scoped workers for a build phase, detached workers streaming batches
//! to the consumer over a bounded channel for the output.
//!
//! Ordering: a region of degree `n > 1` delivers rows in a
//! nondeterministic interleaving (the optimizer models this — `gather`
//! delivers no sort order, so sorts are planned above it). The *multiset*
//! of rows is identical to serial execution, which the differential
//! suite checks.

mod exchange;
mod queue;

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

pub(crate) use exchange::{scoped, Exchange};
pub use queue::StealQueue;

/// Pages per morsel when [`crate::compile::BatchConfig`] does not
/// override it. Small enough to balance skewed filters across workers,
/// large enough that a morsel amortizes queue traffic over many rows.
pub const DEFAULT_MORSEL_PAGES: usize = 4;

/// A morsel: a half-open range `[start, end)` of *page indices* into a
/// heap file's page list — the unit of work-stealing dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Morsel {
    /// Index of the first page in the range.
    pub start: usize,
    /// One past the index of the last page in the range.
    pub end: usize,
}

impl Morsel {
    /// Number of pages in the morsel.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the morsel covers no pages (never produced by
    /// [`partition_pages`]).
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// Split `n_pages` pages into morsels of `morsel_pages` pages each (the
/// last morsel takes the remainder). Invariants, property-tested by the
/// suite: morsels are contiguous, non-empty, non-overlapping, and their
/// union is exactly `0..n_pages`; zero pages yield zero morsels.
pub fn partition_pages(n_pages: usize, morsel_pages: usize) -> Vec<Morsel> {
    let step = morsel_pages.max(1);
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < n_pages {
        let end = start.saturating_add(step).min(n_pages);
        out.push(Morsel { start, end });
        start = end;
    }
    out
}

/// Shared counters for one region's morsel scheduling, aggregated
/// lock-free by its cursors. One instance spans all of the region's
/// pipelines (build and output phases alike), and survives the operator
/// for `EXPLAIN ANALYZE` / trace reporting.
#[derive(Debug, Default)]
pub struct MorselStats {
    dispatched: AtomicU64,
    stolen: AtomicU64,
    workers: AtomicU32,
    partition_merges: AtomicU64,
    merge_workers: AtomicU32,
    threads: AtomicU64,
}

impl MorselStats {
    /// Morsels handed to workers so far, across all pipelines.
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }

    /// Morsels a worker took from another worker's local queue.
    pub fn stolen(&self) -> u64 {
        self.stolen.load(Ordering::Relaxed)
    }

    /// Worker-pool degree of the region.
    pub fn workers(&self) -> u32 {
        self.workers.load(Ordering::Relaxed)
    }

    pub(crate) fn set_workers(&self, n: u32) {
        self.workers.store(n, Ordering::Relaxed);
    }

    /// Threads the exchange started for the region, over all its phases
    /// (0 at degree 1: the region runs on the thread that pulls it).
    pub fn threads(&self) -> u64 {
        self.threads.load(Ordering::Relaxed)
    }

    pub(crate) fn record_thread(&self) {
        self.threads.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one dispatch; returns the cumulative dispatch count
    /// (1-based) for chaos-injection bookkeeping.
    pub(crate) fn record_dispatch(&self, stolen: bool) -> u64 {
        if stolen {
            self.stolen.fetch_add(1, Ordering::Relaxed);
        }
        self.dispatched.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Hash-table partitions merged in parallel across all of the
    /// region's join builds (each partition is claimed and merged by
    /// exactly one merge worker).
    pub fn partition_merges(&self) -> u64 {
        self.partition_merges.load(Ordering::Relaxed)
    }

    /// Peak number of workers that participated in one build's
    /// partition-merge phase — the evidence that merging ran in
    /// parallel, not serially on one thread.
    pub fn merge_workers(&self) -> u32 {
        self.merge_workers.load(Ordering::Relaxed)
    }

    pub(crate) fn record_partition_merge(&self) {
        self.partition_merges.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_merge_workers(&self, n: u32) {
        self.merge_workers.fetch_max(n, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_every_page_once() {
        let ms = partition_pages(10, 4);
        assert_eq!(
            ms,
            vec![
                Morsel { start: 0, end: 4 },
                Morsel { start: 4, end: 8 },
                Morsel { start: 8, end: 10 },
            ]
        );
        assert!(ms.iter().all(|m| !m.is_empty()));
        assert_eq!(ms.iter().map(Morsel::len).sum::<usize>(), 10);
    }

    #[test]
    fn partition_edge_cases() {
        assert!(partition_pages(0, 4).is_empty());
        // Zero morsel size is clamped to one page per morsel.
        assert_eq!(partition_pages(3, 0).len(), 3);
        // A huge morsel size yields a single whole-table morsel and
        // must not overflow.
        assert_eq!(
            partition_pages(7, usize::MAX),
            vec![Morsel { start: 0, end: 7 }]
        );
    }
}
