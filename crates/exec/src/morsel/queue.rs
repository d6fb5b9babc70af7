//! Work-stealing morsel dispenser.
//!
//! Morsels are dealt round-robin to the workers up front — worker `w` of
//! `n` owns morsels `w, w + n, w + 2n, …` — so in the balanced case a
//! worker only ever touches its own share (one uncontended lock per
//! morsel). When a worker drains its share it steals from the *back* of
//! a peer's — the classic deque discipline: owners consume from the
//! front (preserving page locality), thieves take from the far end
//! (taking the work the owner would reach last). There are no producers
//! after construction, so an empty sweep over every share means the
//! pipeline's work is exhausted.

use std::sync::{Arc, Mutex};

use super::{Morsel, MorselStats};

/// A fixed set of morsels dealt across per-worker shares, with stealing.
pub struct StealQueue {
    morsels: Vec<Morsel>,
    /// Per worker, the unclaimed span `front..back` of its share, counted
    /// in steps of the deal: step `k` of worker `w` is morsel `w + k·n`.
    shares: Vec<Mutex<(usize, usize)>>,
    stats: Arc<MorselStats>,
    /// Chaos injection: panic when the cumulative dispatch count (shared
    /// via `stats`, so it spans a region's earlier pipelines) hits this.
    fail_at: Option<u64>,
}

impl StealQueue {
    /// Deal `morsels` round-robin across `workers` shares.
    pub fn new(
        morsels: Vec<Morsel>,
        workers: usize,
        stats: Arc<MorselStats>,
        fail_at: Option<u64>,
    ) -> Self {
        let workers = workers.max(1);
        let shares = (0..workers)
            .map(|w| Mutex::new((0, (morsels.len() + workers - 1 - w) / workers)))
            .collect();
        StealQueue {
            morsels,
            shares,
            stats,
            fail_at,
        }
    }

    /// Number of worker shares.
    pub fn workers(&self) -> usize {
        self.shares.len()
    }

    /// Take the next morsel for `worker`: its own share first, then a
    /// steal sweep over its peers. `None` means all work is dispensed.
    ///
    /// # Panics
    ///
    /// Panics when chaos injection is armed and this dispatch is the
    /// configured one — simulating a worker dying mid-query.
    pub fn pop(&self, worker: usize) -> Option<Morsel> {
        let n = self.shares.len();
        let claim = |owner: usize, steal: bool| {
            let mut span = self.shares[owner].lock().unwrap();
            let (front, back) = &mut *span;
            if front == back {
                return None;
            }
            let step = if steal {
                *back -= 1;
                *back
            } else {
                *front += 1;
                *front - 1
            };
            Some(self.morsels[owner + step * n])
        };
        let (m, stolen) = match claim(worker, false) {
            Some(m) => (m, false),
            None => ((1..n).find_map(|k| claim((worker + k) % n, true))?, true),
        };
        let count = self.stats.record_dispatch(stolen);
        if self.fail_at == Some(count) {
            panic!("injected worker failure at morsel {count}");
        }
        Some(m)
    }
}

#[cfg(test)]
mod tests {
    use super::super::partition_pages;
    use super::*;

    #[test]
    fn every_morsel_dispensed_exactly_once() {
        let stats = Arc::new(MorselStats::default());
        let q = StealQueue::new(partition_pages(17, 2), 4, stats.clone(), None);
        let mut seen = Vec::new();
        // Worker 3 drains everything: its own queue, then steals.
        while let Some(m) = q.pop(3) {
            seen.push(m);
        }
        seen.sort_by_key(|m| m.start);
        assert_eq!(seen, partition_pages(17, 2));
        assert_eq!(stats.dispatched(), 9);
        // 9 morsels round-robined over 4 workers put 2 (indices 3 and
        // 7) in worker 3's own share; the rest were steals.
        assert_eq!(stats.stolen(), 9 - 2);
    }

    #[test]
    #[should_panic(expected = "injected worker failure at morsel 2")]
    fn chaos_injection_fires_on_the_nth_dispatch() {
        let stats = Arc::new(MorselStats::default());
        let q = StealQueue::new(partition_pages(8, 2), 1, stats, Some(2));
        assert!(q.pop(0).is_some());
        let _ = q.pop(0);
    }
}
