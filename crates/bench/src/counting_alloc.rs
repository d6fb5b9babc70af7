//! A counting global allocator, and the optimizer's work space for one
//! Figure 4 query measured with it.
//!
//! This file is not a module of the `volcano-bench` library, which
//! installs no allocator: the `fig4` binary and the allocation test
//! include it with `#[path]` and install [`Counting`] as their
//! `#[global_allocator]`. Counts are kept per thread, so an allocation is
//! charged to the thread that makes it and a test harness's own threads
//! do not disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use volcano_bench::GeneratedQuery;
use volcano_core::{PhysicalProps, SearchOptions};
use volcano_rel::{RelModel, RelModelOptions, RelOptimizer, RelProps};

/// The system allocator, counting each thread's allocations and live
/// bytes.
pub struct Counting;

thread_local! {
    /// Allocations this thread has made; a reallocation counts as one.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated minus the bytes it has freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` since [`measure`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Charge `allocs` allocations and a change of `bytes` live bytes to
/// this thread. The cells are const-initialised and have no destructor,
/// so touching them never allocates; `try_with` skips a thread that is
/// being torn down.
fn charge(allocs: u64, bytes: i64) {
    let _ = ALLOCS.try_with(|a| a.set(a.get() + allocs));
    let _ = LIVE.try_with(|l| {
        let live = l.get() + bytes;
        l.set(live);
        let _ = PEAK.try_with(|p| p.set(p.get().max(live)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned; the counting only updates this
// thread's cells (see `charge`), which neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            charge(1, layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            charge(1, layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        charge(0, -(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            charge(1, new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// The allocations this thread has made so far.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// What one query cost the optimizer in heap, under Figure 4's
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkSpace {
    /// Allocations made by `Optimizer::explore`.
    pub explore_allocs: u64,
    /// Allocations made by `find_best_plan` after exploration: costing
    /// and plan extraction.
    pub cost_allocs: u64,
    /// Peak heap above what was live before the model was built: the
    /// model, the memo, every other table of the optimizer and the plan.
    pub peak_bytes: u64,
    /// The search's own estimate, `SearchStats::memo_bytes`.
    pub memo_bytes: u64,
}

/// Optimize `query` as Figure 4 does — exploration first, then costing —
/// and count what it allocates on this thread. Reads the counts of the
/// installed [`Counting`] allocator; without it every count is 0.
pub fn measure(query: &GeneratedQuery) -> WorkSpace {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let model = RelModel::new(query.catalog.clone(), RelModelOptions::paper_fig4());
    let mut opt = RelOptimizer::new(&model, SearchOptions::default());
    let root = opt.insert_tree(&query.expr);
    let explore_start = allocations();
    opt.explore();
    let cost_start = allocations();
    let plan = opt.find_best_plan(root, RelProps::any(), None);
    let cost_end = allocations();
    assert!(plan.is_ok(), "the benchmark queries are always satisfiable");
    WorkSpace {
        explore_allocs: cost_start - explore_start,
        cost_allocs: cost_end - cost_start,
        peak_bytes: (PEAK.with(Cell::get) - base) as u64,
        memo_bytes: opt.stats().memo_bytes as u64,
    }
}
