//! Allocation regression: the search's inner loops allocate only what
//! they keep. Optimizes ten Figure 4 queries at eight relations under a
//! counting allocator of this test binary's own, twice. Checks that the
//! counts repeat exactly, that the mean per query stays under a bound,
//! and that the memo's size estimate bounds the measured peak heap from
//! below, within a factor of six. The bound is this code's count plus
//! about 10 %; debug builds allocate more (the memo re-derives logical
//! properties to check them, `Model::assert_logical_props_consistent`),
//! so each profile has its own.

#[path = "../src/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{measure, Counting, WorkSpace};
use volcano_bench::fig4_query;

#[global_allocator]
static ALLOC: Counting = Counting;

/// Mean allocations per query (exploring plus costing) this code makes
/// on the ten queries, with about 10 % headroom.
const MAX_MEAN_ALLOCS: u64 = if cfg!(debug_assertions) {
    19_100 // 17 396 measured
} else {
    15_700 // 14 266 measured
};

#[test]
fn eight_relation_queries_allocate_repeatably_and_under_the_bound() {
    let run = || -> Vec<WorkSpace> { (0..10).map(|q| measure(&fig4_query(8, q))).collect() };
    let first = run();
    assert_eq!(first, run(), "allocation counts differ between two runs");
    let total: u64 = first.iter().map(|w| w.explore_allocs + w.cost_allocs).sum();
    let mean = total / first.len() as u64;
    println!("mean allocations per query: {mean} ({first:?})");
    assert!(
        mean <= MAX_MEAN_ALLOCS,
        "{mean} allocations per 8-relation query, more than the bound {MAX_MEAN_ALLOCS}"
    );
    // `Memo::memory_estimate` is a lower bound on the measured peak heap,
    // and not a loose one: the heap stays within six times the estimate.
    for w in &first {
        assert!(
            w.memo_bytes < w.peak_bytes && w.peak_bytes < 6 * w.memo_bytes,
            "memo estimate {} against a measured peak of {} bytes",
            w.memo_bytes,
            w.peak_bytes
        );
    }
}
