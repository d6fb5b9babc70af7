//! A pin/unpin buffer pool with exact LRU eviction.
//!
//! The pool caches a bounded number of pages; pinned pages cannot be
//! evicted, and a dirty page is written back when its frame is reused.
//!
//! - **Frames** are created on first use up to the capacity. Each owns
//!   one page buffer, reused for every page the frame holds, so a miss
//!   in a full pool allocates nothing.
//! - The **page table** is a `Vec` indexed by page id (disk managers
//!   hand out dense ids) holding the frame a page is cached in.
//! - The **recency queue** gets `(frame, stamp)` on every pin, and a
//!   frame's newest entry is its live one. The victim, the least
//!   recently used unpinned frame, is the oldest live unpinned entry:
//!   stale entries are dropped at the old end, and pinned frames found
//!   there wait in `held`, so no pass over the pool is needed. A hit
//!   writes only its frame and the queue's tail, where relinking a list
//!   would make threads hitting the same pages contend.
//!
//! # Concurrency
//!
//! The **pool lock** guards the frame table (page ids, pins, stamps,
//! queue, counters); a **per-frame latch** guards a frame's bytes and
//! dirty flag. [`BufferPool::with_page`] pins under the pool lock and
//! runs the caller's closure on the page in place under the latch alone,
//! so accesses to one page serialize on that page only.
//!
//! A miss picks and writes back its victim, re-points the table and
//! latches the frame under the pool lock, then releases the pool lock
//! and reads: reads of different pages overlap, and a concurrent
//! requester of the same page pins the frame and waits on its latch for
//! the one read. No path takes the pool lock while holding a latch; the
//! only latches taken under it are unpinned frames', which no one holds.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::disk::DiskManager;
use crate::page::{Page, PageId};

/// An unmapped page-table entry.
const NIL: u32 = u32::MAX;

/// The latched part of a frame: the page bytes plus the write-back flag.
#[derive(Default)]
struct PageSlot {
    page: Page,
    dirty: bool,
}

struct Frame {
    /// The page buffer; `with_page` clones the `Arc` to latch it unlocked.
    slot: Arc<Mutex<PageSlot>>,
    page: PageId,
    pins: u32,
    /// The clock at the frame's last pin: its live queue entry's stamp.
    last_used: u64,
}

#[derive(Default)]
struct PoolState {
    frames: Vec<Frame>,
    /// Page id → frame index, `NIL` when the page is not cached.
    table: Vec<u32>,
    tick: u64,
    /// `(frame, stamp)` in stamp order, oldest first.
    queue: VecDeque<(u32, u64)>,
    /// Live entries that were pinned when they reached the queue's old
    /// end, oldest first; all are older than any entry in `queue`.
    held: Vec<(u32, u64)>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PoolState {
    /// Record a pin of `f`: its newest stamp makes it most recent.
    fn stamp(&mut self, f: usize) {
        self.tick += 1;
        self.frames[f].last_used = self.tick;
        self.queue.push_back((f as u32, self.tick));
        // Compact once the queue doubles the live entries: O(1) per pin.
        if self.queue.len() > 2 * self.frames.len() + 16 {
            let frames = &self.frames;
            self.queue
                .retain(|&(f, s)| frames[f as usize].last_used == s);
        }
    }

    /// The unpinned frame with the smallest stamp, if any frame is
    /// unpinned. Costs O(1) amortized plus the frames pinned now.
    fn victim(&mut self) -> Option<usize> {
        let frames = &self.frames;
        let live = |&(f, s): &(u32, u64)| frames[f as usize].last_used == s;
        self.held.retain(live);
        if let Some(i) = self
            .held
            .iter()
            .position(|&(f, _)| frames[f as usize].pins == 0)
        {
            return Some(self.held.remove(i).0 as usize);
        }
        while let Some(entry) = self.queue.pop_front() {
            if !live(&entry) {
                continue;
            }
            if frames[entry.0 as usize].pins == 0 {
                return Some(entry.0 as usize);
            }
            self.held.push(entry);
        }
        None
    }
}

/// A fixed-capacity page cache over a [`DiskManager`].
pub struct BufferPool {
    disk: Arc<dyn DiskManager>,
    capacity: usize,
    state: Mutex<PoolState>,
}

impl BufferPool {
    /// Create a pool caching at most `capacity` pages.
    pub fn new(disk: Arc<dyn DiskManager>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            disk,
            capacity,
            state: Mutex::new(PoolState::default()),
        }
    }

    /// The underlying disk manager.
    pub fn disk(&self) -> &Arc<dyn DiskManager> {
        &self.disk
    }

    /// Allocate a fresh page on disk and cache it (empty, dirty,
    /// unpinned) in the pool.
    pub fn allocate(&self) -> PageId {
        let id = self.disk.allocate();
        let mut st = self.state.lock();
        let f = self.claim(&mut st, id);
        let mut slot = st.frames[f].slot.lock();
        slot.page.reset();
        slot.dirty = true;
        id
    }

    /// Pin a page, reading it from disk on a miss, and pass it to `f`.
    /// The pin is released when `f` returns. `f` receives the cached
    /// page *in place* under the frame latch, plus a flag it sets to
    /// mark the page dirty (schedule write-back). Mutations always land
    /// in the cached page — concurrent accesses to the same page
    /// serialize on its latch — so `f` must not mutate unless it also
    /// sets the flag. `f` must not re-enter the pool (lock order).
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&mut Page, &mut bool) -> R) -> R {
        let mut st = self.state.lock();
        let (frame, miss) = match st.table.get(id.0 as usize) {
            Some(&f) if f != NIL => {
                st.hits += 1;
                st.stamp(f as usize);
                (f as usize, false)
            }
            cached => {
                // Past the table's end: a page from before this pool, or none.
                let known = cached.is_some() || (id.0 as usize) < self.disk.num_pages();
                assert!(known, "page {id:?} was never allocated");
                st.misses += 1;
                (self.claim(&mut st, id), true)
            }
        };
        st.frames[frame].pins += 1;
        let slot = st.frames[frame].slot.clone();
        // Use, in place, under the frame latch only; the pin keeps the
        // frame from eviction. A miss latches before the pool lock goes,
        // so requesters of this page wait for the read.
        let r = {
            let latched = miss.then(|| slot.lock());
            drop(st);
            let mut guard = latched.unwrap_or_else(|| slot.lock());
            if miss {
                self.disk.read(id, &mut guard.page);
            }
            let mut dirty = false;
            let r = f(&mut guard.page, &mut dirty);
            if dirty {
                guard.dirty = true;
            }
            r
        };
        // Unpin (after the latch is released — never hold a frame latch
        // while taking the pool lock).
        self.state.lock().frames[frame].pins -= 1;
        r
    }

    /// A frame for `id`, mapped and most recent, for the caller to fill:
    /// a new one below capacity, else the least recently used unpinned
    /// frame, written back if dirty. Its latch is free (no pins), so the
    /// write-back is atomic with the table update.
    fn claim(&self, st: &mut PoolState, id: PageId) -> usize {
        let f = if st.frames.len() < self.capacity {
            st.frames.push(Frame {
                slot: Arc::default(),
                page: id,
                pins: 0,
                last_used: 0,
            });
            st.frames.len() - 1
        } else {
            let v = st
                .victim()
                .expect("buffer pool exhausted: every frame is pinned");
            let old = st.frames[v].page;
            let mut slot = st.frames[v].slot.lock();
            if slot.dirty {
                self.disk.write(old, &slot.page);
                slot.dirty = false;
            }
            drop(slot);
            st.table[old.0 as usize] = NIL;
            st.frames[v].page = id;
            st.evictions += 1;
            v
        };
        st.stamp(f);
        let i = id.0 as usize;
        if i >= st.table.len() {
            st.table.resize(i + 1, NIL);
        }
        st.table[i] = f as u32;
        f
    }

    /// (hits, misses, evictions) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        let st = self.state.lock();
        (st.hits, st.misses, st.evictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(Arc::new(MemDisk::new()), cap)
    }

    #[test]
    fn cached_page_hits() {
        let p = pool(4);
        let id = p.allocate();
        p.with_page(id, |pg, dirty| {
            pg.insert(b"x").unwrap();
            *dirty = true;
        });
        p.with_page(id, |pg, _| assert_eq!(pg.get(0), Some(&b"x"[..])));
        let (hits, misses, _) = p.stats();
        assert!(hits >= 2);
        assert_eq!(misses, 0);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let p = pool(2);
        let ids: Vec<_> = (0..4)
            .map(|i| {
                let id = p.allocate();
                p.with_page(id, |pg, dirty| {
                    pg.insert(format!("rec{i}").as_bytes()).unwrap();
                    *dirty = true;
                });
                id
            })
            .collect();
        // Earlier pages were evicted; reading them again must recover the
        // written data from disk.
        p.with_page(ids[0], |pg, _| {
            assert_eq!(pg.get(0), Some(&b"rec0"[..]));
        });
        let (_, misses, evictions) = p.stats();
        assert!(evictions >= 2, "evictions: {evictions}");
        assert!(misses >= 1);
    }

    /// A frame pinned when it is the least recent is passed over, and
    /// once unpinned it is evicted before any frame used after it.
    #[test]
    fn a_frame_pinned_at_the_old_end_is_evicted_once_unpinned() {
        let p = pool(2);
        let [a, b, c, d] = [(); 4].map(|_| p.allocate());
        p.with_page(a, |_, _| ());
        p.with_page(b, |_, _| ());
        let (pinned_tx, pinned) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let p = &p;
            let holder = s.spawn(move || {
                p.with_page(a, |_, _| {
                    pinned_tx.send(()).expect("main thread waits");
                    release_rx.recv().expect("main thread releases");
                })
            });
            pinned.recv().expect("holder pins a");
            // Using `b` leaves `a` least recent but pinned: `b` goes.
            p.with_page(b, |_, _| ());
            p.with_page(c, |_, _| ());
            release.send(()).expect("holder waits");
            holder.join().expect("holder thread");
        });
        // Unpinned, `a` is older than `c`, so it goes next.
        p.with_page(d, |_, _| ());
        let (hits, misses, _) = p.stats();
        p.with_page(c, |_, _| ());
        assert_eq!(p.stats().0, hits + 1, "c is still cached");
        p.with_page(a, |_, _| ());
        assert_eq!(p.stats().1, misses + 1, "a was evicted");
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_capacity_rejected() {
        let _ = pool(0);
    }

    /// Regression: two threads mutating the *same* page concurrently
    /// must both have their updates survive. The old clone-out /
    /// install-back `with_page` lost one of the two (last install
    /// wins); the per-frame latch serializes them in place.
    #[test]
    fn concurrent_same_page_mutations_are_not_lost() {
        let p = Arc::new(pool(4));
        let id = p.allocate();
        let threads = 4;
        let per_thread = 25;
        std::thread::scope(|s| {
            for t in 0..threads {
                let p = p.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        p.with_page(id, |pg, dirty| {
                            pg.insert(format!("t{t}-{i:02}").as_bytes()).unwrap();
                            *dirty = true;
                        });
                    }
                });
            }
        });
        let n = p.with_page(id, |pg, _| pg.records().count());
        assert_eq!(n, threads * per_thread, "lost page updates");
    }
}
