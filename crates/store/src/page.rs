//! Slotted pages.
//!
//! Layout of a 4 KiB page:
//!
//! ```text
//! +--------------+-------------------+ ... free ... +---------+--------+
//! | header (8 B) | slot 0 | slot 1 |                | rec 1   | rec 0  |
//! +--------------+-------------------+ ... free ... +---------+--------+
//! ```
//!
//! * header: `slot_count: u16`, `free_end: u16` (offset one past the end
//!   of free space, i.e. start of the record heap growing downward),
//!   `next_page: u32` (heap-file chaining; `u32::MAX` = none).
//! * slot: `offset: u16`, `len: u16`; a slot with `offset == u16::MAX`
//!   is a tombstone (deleted record).

use std::fmt;

/// Page size in bytes. Matches the cost model's `PAGE_SIZE`.
pub const PAGE_SIZE: usize = 4096;

const HEADER_SIZE: usize = 8;
const SLOT_SIZE: usize = 4;
const TOMBSTONE: u16 = u16::MAX;
/// Sentinel for "no next page".
pub const NO_PAGE: u32 = u32::MAX;

/// Identifier of a page within a disk manager.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl fmt::Debug for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A slotted page of records.
#[derive(Clone)]
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// A fresh, empty page.
    pub fn new() -> Self {
        let mut p = Page {
            data: Box::new([0u8; PAGE_SIZE]),
        };
        p.reset();
        p
    }

    /// Empty this page in place, leaving the bytes of a fresh page.
    pub fn reset(&mut self) {
        self.data.fill(0);
        self.set_slot_count(0);
        self.set_free_end(PAGE_SIZE as u16);
        self.set_next_page(NO_PAGE);
    }

    /// The raw bytes.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable raw bytes (for page types with their own layout, e.g.
    /// B+tree nodes).
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    fn read_u16(&self, off: usize) -> u16 {
        u16::from_le_bytes([self.data[off], self.data[off + 1]])
    }

    fn write_u16(&mut self, off: usize, v: u16) {
        self.data[off..off + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn read_u32(&self, off: usize) -> u32 {
        u32::from_le_bytes([
            self.data[off],
            self.data[off + 1],
            self.data[off + 2],
            self.data[off + 3],
        ])
    }

    fn write_u32(&mut self, off: usize, v: u32) {
        self.data[off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of slots (live + tombstoned).
    pub fn slot_count(&self) -> usize {
        self.read_u16(0) as usize
    }

    fn set_slot_count(&mut self, v: u16) {
        self.write_u16(0, v);
    }

    fn free_end(&self) -> usize {
        self.read_u16(2) as usize
    }

    fn set_free_end(&mut self, v: u16) {
        self.write_u16(2, v);
    }

    /// Heap-file chain link ([`NO_PAGE`] = end of chain).
    pub fn next_page(&self) -> u32 {
        self.read_u32(4)
    }

    /// Set the heap-file chain link.
    pub fn set_next_page(&mut self, v: u32) {
        self.write_u32(4, v);
    }

    fn slot_offset(&self, slot: usize) -> usize {
        HEADER_SIZE + slot * SLOT_SIZE
    }

    /// Free bytes available for one more record (including its slot).
    pub fn free_space(&self) -> usize {
        let slots_end = HEADER_SIZE + self.slot_count() * SLOT_SIZE;
        self.free_end().saturating_sub(slots_end)
    }

    /// Insert a record; returns its slot number, or `None` if it does not
    /// fit. Records larger than the page payload can never be stored.
    pub fn insert(&mut self, record: &[u8]) -> Option<usize> {
        if record.len() + SLOT_SIZE > self.free_space() || record.len() > u16::MAX as usize {
            return None;
        }
        let slot = self.slot_count();
        let new_end = self.free_end() - record.len();
        self.data[new_end..new_end + record.len()].copy_from_slice(record);
        let off = self.slot_offset(slot);
        self.write_u16(off, new_end as u16);
        self.write_u16(off + 2, record.len() as u16);
        self.set_slot_count(slot as u16 + 1);
        self.set_free_end(new_end as u16);
        Some(slot)
    }

    /// Read the record in a slot (`None` for tombstones or out-of-range
    /// slots).
    pub fn get(&self, slot: usize) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let off = self.slot_offset(slot);
        let rec_off = self.read_u16(off);
        if rec_off == TOMBSTONE {
            return None;
        }
        let len = self.read_u16(off + 2) as usize;
        Some(&self.data[rec_off as usize..rec_off as usize + len])
    }

    /// Tombstone a slot; returns whether a live record was deleted. Space
    /// is not reclaimed (no compaction), as in a simple heap file.
    pub fn delete(&mut self, slot: usize) -> bool {
        if slot >= self.slot_count() {
            return false;
        }
        let off = self.slot_offset(slot);
        if self.read_u16(off) == TOMBSTONE {
            return false;
        }
        self.write_u16(off, TOMBSTONE);
        true
    }

    /// Iterate over live records as `(slot, bytes)`.
    pub fn records(&self) -> impl Iterator<Item = (usize, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get_roundtrip() {
        let mut p = Page::new();
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0), Some(&b"hello"[..]));
        assert_eq!(p.get(s1), Some(&b"world!"[..]));
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = Page::new();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // 4096 - 8 header; each record takes 104 bytes incl. slot.
        assert_eq!(n, (PAGE_SIZE - HEADER_SIZE) / 104);
        assert!(p.insert(&rec).is_none());
        // Small records may still fit afterwards.
        assert!(p.free_space() < 104);
    }

    #[test]
    fn delete_tombstones() {
        let mut p = Page::new();
        let s = p.insert(b"abc").unwrap();
        assert!(p.delete(s));
        assert!(!p.delete(s));
        assert_eq!(p.get(s), None);
        assert_eq!(p.records().count(), 0);
    }

    #[test]
    fn next_page_link() {
        let mut p = Page::new();
        assert_eq!(p.next_page(), NO_PAGE);
        p.set_next_page(42);
        assert_eq!(p.next_page(), 42);
    }

    #[test]
    fn records_iterator_skips_tombstones() {
        let mut p = Page::new();
        let a = p.insert(b"a").unwrap();
        let _b = p.insert(b"b").unwrap();
        p.delete(a);
        let live: Vec<_> = p.records().map(|(_, r)| r.to_vec()).collect();
        assert_eq!(live, vec![b"b".to_vec()]);
    }

    #[test]
    fn survives_byte_roundtrip() {
        let mut p = Page::new();
        p.insert(b"persist me").unwrap();
        // What a disk read does: overwrite a reused page's bytes.
        let mut p2 = Page::new();
        p2.insert(b"stale").unwrap();
        *p2.bytes_mut() = *p.bytes();
        assert_eq!(p2.get(0), Some(&b"persist me"[..]));
        p2.reset();
        assert_eq!(p2.bytes(), Page::new().bytes());
    }
}
