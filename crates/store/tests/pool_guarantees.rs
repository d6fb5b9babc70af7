//! Two guarantees of the buffer pool, checked exactly: a warm pool
//! reuses its frames, so a scan that misses on every page allocates
//! nothing; and concurrent requests for one uncached page share a
//! single disk read.
//!
//! Allocations are counted by this binary's own global allocator, per
//! thread, so the harness's other test threads do not disturb a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use volcano_store::{BufferPool, DiskManager, DiskStats, HeapFile, MemDisk, Page, PageId};

/// The system allocator, counting each thread's allocations.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns what `System` returned; the count is a const-initialised
// thread-local `Cell` without a destructor, which neither allocates nor
// unwinds, and `try_with` skips a thread being torn down.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A 64-page heap scanned through a 4-frame pool: after one scan has
/// created the frames, a second scan misses on every page and makes no
/// allocation at all inside its page loop.
#[test]
fn warm_scan_through_a_small_pool_allocates_nothing() {
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 4));
    let heap = HeapFile::create(pool.clone());
    let mut i = 0u32;
    while heap.num_pages() < 64 {
        heap.insert(format!("record {i:06} of the heap").as_bytes());
        i += 1;
    }
    let pages = heap.pages();
    let scan = || {
        let mut bytes = 0;
        for &page in &pages {
            heap.for_page_records(page, |r| bytes += r.len());
        }
        bytes
    };
    let warm = scan();
    let (_, misses, _) = pool.stats();
    let before = allocations();
    let bytes = scan();
    let made = allocations() - before;
    assert_eq!(bytes, warm);
    assert_eq!(pool.stats().1 - misses, 64, "every page of the scan missed");
    assert_eq!(made, 0, "allocations in a scan of 64 misses");
}

/// A disk whose reads wait until the test opens the gate.
struct GatedDisk {
    inner: MemDisk,
    open: Mutex<bool>,
    opened: Condvar,
}

impl DiskManager for GatedDisk {
    fn allocate(&self) -> PageId {
        self.inner.allocate()
    }

    fn read(&self, id: PageId, into: &mut Page) {
        let mut open = self.open.lock().expect("gate lock");
        while !*open {
            open = self.opened.wait(open).expect("gate lock");
        }
        drop(open);
        self.inner.read(id, into)
    }

    fn write(&self, id: PageId, page: &Page) {
        self.inner.write(id, page)
    }

    fn num_pages(&self) -> usize {
        self.inner.num_pages()
    }

    fn stats(&self) -> &DiskStats {
        self.inner.stats()
    }
}

/// Eight threads ask for the same uncached page while its read is held
/// back: one of them misses and reads, the other seven find the frame,
/// pin it and wait on its latch. Exactly one disk read happens, and
/// every thread sees the page's records.
#[test]
fn concurrent_requests_for_one_page_share_one_read() {
    const THREADS: u64 = 8;
    let disk = Arc::new(GatedDisk {
        inner: MemDisk::new(),
        open: Mutex::new(false),
        opened: Condvar::new(),
    });
    let pool = BufferPool::new(disk.clone(), 2);
    let page = pool.allocate();
    pool.with_page(page, |p, dirty| {
        for r in [&b"first"[..], b"second", b"third"] {
            p.insert(r).expect("room on an empty page");
        }
        *dirty = true;
    });
    // Two more pages push the written page out to disk.
    pool.allocate();
    pool.allocate();
    let (hits, misses, _) = pool.stats();
    let reads = disk.stats().reads();

    std::thread::scope(|s| {
        let readers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    pool.with_page(page, |p, _| {
                        p.records().map(|(_, r)| r.to_vec()).collect::<Vec<_>>()
                    })
                })
            })
            .collect();
        // Every requester is counted once it holds its pin; only then
        // may the one read proceed. The gate opens after the deadline
        // too, so a pool that never counts them fails instead of hanging.
        let deadline = Instant::now() + Duration::from_secs(30);
        let all_pinned = loop {
            let (h, m, _) = pool.stats();
            if (h - hits) + (m - misses) == THREADS {
                break true;
            }
            if Instant::now() > deadline {
                break false;
            }
            std::thread::yield_now();
        };
        *disk.open.lock().expect("gate lock") = true;
        disk.opened.notify_all();
        for reader in readers {
            let seen = reader.join().expect("reader thread");
            assert_eq!(seen, [&b"first"[..], b"second", b"third"]);
        }
        assert!(
            all_pinned,
            "all {THREADS} requesters pinned before the read"
        );
    });
    let (h, m, _) = pool.stats();
    assert_eq!((h - hits, m - misses), (THREADS - 1, 1));
    assert_eq!(
        disk.stats().reads() - reads,
        1,
        "one disk read for one miss"
    );
}
