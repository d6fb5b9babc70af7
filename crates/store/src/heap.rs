//! Heap files: unordered files of variable-length records, the storage
//! structure behind the cost model's `file_scan`.
//!
//! A heap file is a chain of slotted pages; inserts go to the tail page,
//! allocating a new page when full. Scans walk the chain in order, which
//! is what makes file scans sequential.
//!
//! # Concurrency
//!
//! Inserts serialize on the tail (`last`) mutex; scans take no file
//! lock. A scan concurrent with inserts sees a *prefix-consistent*
//! snapshot: every record that was fully inserted before the scan
//! reached its page is observed, appended pages become visible only
//! once populated (the record is written before the page is linked),
//! and records appended behind the scan's position may or may not be
//! seen — the usual read-committed contract for an unordered heap.
//! [`HeapFile::pages`] returns a point-in-time snapshot of the chain
//! under the same contract.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::buffer::BufferPool;
use crate::page::{PageId, NO_PAGE};

/// Address of a record: page + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordId {
    /// The page holding the record.
    pub page: PageId,
    /// The slot within the page.
    pub slot: usize,
}

/// An unordered file of records over a buffer pool.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    first: PageId,
    last: Mutex<PageId>,
    /// The page chain in scan order, maintained incrementally: pages are
    /// only ever appended (deletes never unlink a page), so the list is
    /// exact once built. Keeping it here makes [`HeapFile::pages`] and
    /// [`HeapFile::num_pages`] free of disk reads — a chain walk through
    /// an undersized buffer pool would otherwise serialize on I/O before
    /// a scan even starts, which matters for parallel scans that
    /// partition the page list across workers.
    chain: Mutex<Vec<PageId>>,
}

impl HeapFile {
    /// Create an empty heap file.
    pub fn create(pool: Arc<BufferPool>) -> Self {
        let first = pool.allocate();
        HeapFile {
            pool,
            first,
            last: Mutex::new(first),
            chain: Mutex::new(vec![first]),
        }
    }

    /// Append a record; returns its id.
    pub fn insert(&self, record: &[u8]) -> RecordId {
        let mut last = self.last.lock();
        let slot = self.pool.with_page(*last, |p, dirty| {
            let s = p.insert(record);
            if s.is_some() {
                *dirty = true;
            }
            s
        });
        if let Some(slot) = slot {
            return RecordId { page: *last, slot };
        }
        // Tail full: chain a new page. The record is written into the
        // fresh page *before* the old tail's next-pointer (and the
        // chain cache) publish it, so a concurrent chain-walking scan
        // either stops at the old tail or sees the new page already
        // populated — never a linked-but-empty tail whose record
        // appears after the scan passed it.
        let new_page = self.pool.allocate();
        let slot = self
            .pool
            .with_page(new_page, |p, dirty| {
                let s = p.insert(record);
                if s.is_some() {
                    *dirty = true;
                }
                s
            })
            .unwrap_or_else(|| panic!("record of {} bytes larger than a page", record.len()));
        self.pool.with_page(*last, |p, dirty| {
            p.set_next_page(new_page.0);
            *dirty = true;
        });
        *last = new_page;
        self.chain.lock().push(new_page);
        RecordId {
            page: new_page,
            slot,
        }
    }

    /// Read one record.
    pub fn get(&self, id: RecordId) -> Option<Vec<u8>> {
        self.pool
            .with_page(id.page, |p, _| p.get(id.slot).map(|r| r.to_vec()))
    }

    /// Delete one record.
    pub fn delete(&self, id: RecordId) -> bool {
        self.pool.with_page(id.page, |p, dirty| {
            let deleted = p.delete(id.slot);
            if deleted {
                *dirty = true;
            }
            deleted
        })
    }

    /// Sequentially scan all live records, invoking `f` per record.
    pub fn scan(&self, mut f: impl FnMut(RecordId, &[u8])) {
        let mut page = self.first;
        loop {
            let next = self.pool.with_page(page, |p, _| {
                for (slot, rec) in p.records() {
                    f(RecordId { page, slot }, rec);
                }
                p.next_page()
            });
            if next == NO_PAGE {
                break;
            }
            page = PageId(next);
        }
    }

    /// Collect all live records (convenience for tests and small scans).
    pub fn scan_all(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.scan(|_, r| out.push(r.to_vec()));
        out
    }

    /// The page ids of the chain, in scan order. Useful for demand-driven
    /// page-at-a-time scans (the execution engine's table scan). Served
    /// from the maintained chain cache — no disk reads.
    pub fn pages(&self) -> Vec<PageId> {
        self.chain.lock().clone()
    }

    /// All live records of one page (copied out; the pin is released on
    /// return).
    pub fn page_records(&self, page: PageId) -> Vec<Vec<u8>> {
        self.pool
            .with_page(page, |p, _| p.records().map(|(_, r)| r.to_vec()).collect())
    }

    /// Visit every record of `page` in slot order while the page is
    /// pinned in the pool: the caller decodes straight from page
    /// memory, with no staging copy of the record bytes.
    pub fn for_page_records(&self, page: PageId, mut f: impl FnMut(&[u8])) {
        self.pool.with_page(page, |p, _| {
            for (_, rec) in p.records() {
                f(rec);
            }
        });
    }

    /// Number of pages in the chain.
    pub fn num_pages(&self) -> usize {
        self.chain.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn heap(cap: usize) -> HeapFile {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), cap));
        HeapFile::create(pool)
    }

    #[test]
    fn insert_scan_roundtrip() {
        let h = heap(8);
        for i in 0..100 {
            h.insert(format!("record-{i:03}").as_bytes());
        }
        let all = h.scan_all();
        assert_eq!(all.len(), 100);
        assert_eq!(all[0], b"record-000");
        assert_eq!(all[99], b"record-099");
    }

    #[test]
    fn spills_across_pages() {
        let h = heap(16);
        let big = vec![42u8; 1000];
        for _ in 0..20 {
            h.insert(&big);
        }
        assert!(h.num_pages() > 1);
        assert_eq!(h.scan_all().len(), 20);
    }

    #[test]
    fn get_and_delete() {
        let h = heap(8);
        let id = h.insert(b"target");
        assert_eq!(h.get(id), Some(b"target".to_vec()));
        assert!(h.delete(id));
        assert_eq!(h.get(id), None);
        assert!(!h.delete(id));
        assert_eq!(h.scan_all().len(), 0);
    }

    #[test]
    fn works_through_tiny_buffer_pool() {
        // Pool smaller than the file forces eviction + re-read during the
        // scan.
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 2));
        let h = HeapFile::create(pool.clone());
        let big = vec![7u8; 1500];
        for _ in 0..12 {
            h.insert(&big);
        }
        assert!(h.num_pages() >= 6);
        assert_eq!(h.scan_all().len(), 12);
        let (_, misses, evictions) = pool.stats();
        assert!(misses > 0);
        assert!(evictions > 0);
    }

    /// Regression for the append-vs-scan race: writer threads hammer
    /// `insert` while reader threads repeatedly `scan` and read pages
    /// through the chain cache. Every scan must observe a
    /// prefix-consistent snapshot (no torn records, no phantom empty
    /// tail pages hiding earlier records), and once the writers finish
    /// a final scan must see every record exactly once.
    #[test]
    fn concurrent_insert_and_scan() {
        // Undersized pool: eviction + re-read race with the appenders.
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 4));
        let h = Arc::new(HeapFile::create(pool));
        let writers = 4;
        let per_writer = 200;
        std::thread::scope(|s| {
            for w in 0..writers {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..per_writer {
                        // ~40-byte records so the chain grows during the
                        // run and scans race page appends.
                        h.insert(format!("writer-{w}-record-{i:05}-{}", "x".repeat(16)).as_bytes());
                    }
                });
            }
            for _ in 0..2 {
                let h = h.clone();
                s.spawn(move || {
                    let mut last_seen = 0usize;
                    for _ in 0..50 {
                        let mut seen = 0usize;
                        h.scan(|_, rec| {
                            assert!(
                                rec.starts_with(b"writer-"),
                                "torn or corrupt record observed mid-scan"
                            );
                            seen += 1;
                        });
                        // The heap is append-only, so consecutive scans
                        // can never shrink.
                        assert!(
                            seen >= last_seen,
                            "scan went backwards: {seen} < {last_seen}"
                        );
                        last_seen = seen;
                        // Page-at-a-time path (chain-cache snapshot).
                        let mut via_pages = 0usize;
                        for page in h.pages() {
                            via_pages += h.page_records(page).len();
                        }
                        assert!(via_pages >= 1, "chain snapshot lost the first page");
                    }
                });
            }
        });
        let all = h.scan_all();
        assert_eq!(
            all.len(),
            writers * per_writer,
            "records lost or duplicated"
        );
    }
}
