//! Disk managers: where pages live when they are not in the buffer pool.
//!
//! A disk manager counts physical page reads and writes so the
//! optimizer's I/O estimates can be validated against observation.

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::page::{Page, PageId, PAGE_SIZE};

/// Physical I/O counters.
#[derive(Debug, Default)]
pub struct DiskStats {
    reads: AtomicU64,
    writes: AtomicU64,
}

impl DiskStats {
    /// Pages read from the backing store.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Pages written to the backing store.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Reset both counters.
    pub fn reset(&self) {
        self.reads.store(0, Ordering::Relaxed);
        self.writes.store(0, Ordering::Relaxed);
    }
}

/// A page-granular backing store.
pub trait DiskManager: Send + Sync {
    /// Allocate a fresh page and return its id; ids count up from 0.
    fn allocate(&self) -> PageId;
    /// Read a page into `into`, overwriting all of its bytes.
    fn read(&self, id: PageId, into: &mut Page);
    /// Write a page.
    fn write(&self, id: PageId, page: &Page);
    /// Number of pages allocated so far.
    fn num_pages(&self) -> usize;
    /// I/O counters.
    fn stats(&self) -> &DiskStats;
}

/// An in-memory "disk": deterministic, fast, counts I/O like a real one.
#[derive(Default)]
pub struct MemDisk {
    pages: Mutex<Vec<Box<[u8; PAGE_SIZE]>>>,
    stats: DiskStats,
}

impl MemDisk {
    /// An empty in-memory disk.
    pub fn new() -> Self {
        MemDisk::default()
    }
}

impl DiskManager for MemDisk {
    fn allocate(&self) -> PageId {
        let mut pages = self.pages.lock();
        pages.push(Box::new([0u8; PAGE_SIZE]));
        PageId(pages.len() as u32 - 1)
    }

    fn read(&self, id: PageId, into: &mut Page) {
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        let pages = self.pages.lock();
        *into.bytes_mut() = *pages[id.0 as usize];
    }

    fn write(&self, id: PageId, page: &Page) {
        self.stats.writes.fetch_add(1, Ordering::Relaxed);
        let mut pages = self.pages.lock();
        *pages[id.0 as usize] = *page.bytes();
    }

    fn num_pages(&self) -> usize {
        self.pages.lock().len()
    }

    fn stats(&self) -> &DiskStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(disk: &dyn DiskManager) {
        let a = disk.allocate();
        let b = disk.allocate();
        assert_ne!(a, b);
        let mut p = Page::new();
        p.insert(b"on disk").unwrap();
        disk.write(b, &p);
        let mut back = Page::new();
        disk.read(b, &mut back);
        assert_eq!(back.get(0), Some(&b"on disk"[..]));
        assert_eq!(disk.num_pages(), 2);
        assert!(disk.stats().reads() >= 1);
        assert!(disk.stats().writes() >= 1);
    }

    #[test]
    fn mem_disk_roundtrip() {
        exercise(&MemDisk::new());
    }

    #[test]
    fn stats_reset() {
        let d = MemDisk::new();
        let id = d.allocate();
        d.write(id, &Page::new());
        d.read(id, &mut Page::new());
        d.stats().reset();
        assert_eq!(d.stats().reads(), 0);
        assert_eq!(d.stats().writes(), 0);
    }
}
