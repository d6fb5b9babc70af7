//! A B+tree index over pages: fixed-size `i64` keys mapping to record
//! ids, with duplicates allowed. Supports insertion and ordered
//! (range-)scans — exactly what an index scan needs to deliver a sort
//! order as a physical property.
//!
//! Layout (within one 4 KiB page, reusing the slotted-page machinery
//! would waste space; index pages use their own fixed layout):
//!
//! ```text
//! header: kind (1 B: 0 leaf, 1 internal), count (2 B), next_leaf (4 B)
//! leaf entries:     key (8 B) + page (4 B) + slot (2 B)   = 14 B
//! internal entries: key (8 B) + child page (4 B)          = 12 B
//!                   (child[i] covers keys <= key[i]; the last child
//!                    pointer is stored with key = i64::MAX)
//! ```

use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::buffer::BufferPool;
use crate::heap::RecordId;
use crate::page::{Page, PageId, PAGE_SIZE};

const HDR: usize = 7;
const LEAF_ENTRY: usize = 14;
const INTERNAL_ENTRY: usize = 12;
const LEAF_CAP: usize = (PAGE_SIZE - HDR) / LEAF_ENTRY;
const INTERNAL_CAP: usize = (PAGE_SIZE - HDR) / INTERNAL_ENTRY;
/// Sentinel for "no next leaf".
const NO_LEAF: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Leaf,
    Internal,
}

/// Typed view over a raw page used as a B+tree node.
struct Node {
    page: Page,
}

impl Node {
    fn new_leaf() -> Self {
        let mut n = Node { page: Page::new() };
        n.raw_mut()[0] = 0;
        n.set_count(0);
        n.set_next_leaf(NO_LEAF);
        n
    }

    fn new_internal() -> Self {
        let mut n = Node { page: Page::new() };
        n.raw_mut()[0] = 1;
        n.set_count(0);
        n.set_next_leaf(NO_LEAF);
        n
    }

    fn from_page(page: Page) -> Self {
        Node { page }
    }

    fn raw(&self) -> &[u8; PAGE_SIZE] {
        self.page.bytes()
    }

    fn raw_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        self.page.bytes_mut()
    }

    fn kind(&self) -> Kind {
        if self.raw()[0] == 0 {
            Kind::Leaf
        } else {
            Kind::Internal
        }
    }

    fn count(&self) -> usize {
        u16::from_le_bytes([self.raw()[1], self.raw()[2]]) as usize
    }

    fn set_count(&mut self, c: usize) {
        let b = (c as u16).to_le_bytes();
        self.raw_mut()[1] = b[0];
        self.raw_mut()[2] = b[1];
    }

    fn next_leaf(&self) -> u32 {
        u32::from_le_bytes([self.raw()[3], self.raw()[4], self.raw()[5], self.raw()[6]])
    }

    fn set_next_leaf(&mut self, p: u32) {
        self.raw_mut()[3..7].copy_from_slice(&p.to_le_bytes());
    }

    // ----- leaf entries -----

    fn leaf_key(&self, i: usize) -> i64 {
        let off = HDR + i * LEAF_ENTRY;
        i64::from_le_bytes(self.raw()[off..off + 8].try_into().expect("8 bytes"))
    }

    fn leaf_rid(&self, i: usize) -> RecordId {
        let off = HDR + i * LEAF_ENTRY + 8;
        let page = u32::from_le_bytes(self.raw()[off..off + 4].try_into().expect("4 bytes"));
        let slot = u16::from_le_bytes(self.raw()[off + 4..off + 6].try_into().expect("2 bytes"));
        RecordId {
            page: PageId(page),
            slot: slot as usize,
        }
    }

    fn leaf_insert_at(&mut self, i: usize, key: i64, rid: RecordId) {
        let count = self.count();
        assert!(count < LEAF_CAP);
        let start = HDR + i * LEAF_ENTRY;
        let end = HDR + count * LEAF_ENTRY;
        self.raw_mut().copy_within(start..end, start + LEAF_ENTRY);
        self.raw_mut()[start..start + 8].copy_from_slice(&key.to_le_bytes());
        self.raw_mut()[start + 8..start + 12].copy_from_slice(&rid.page.0.to_le_bytes());
        self.raw_mut()[start + 12..start + 14].copy_from_slice(&(rid.slot as u16).to_le_bytes());
        self.set_count(count + 1);
    }

    // ----- internal entries -----

    fn int_key(&self, i: usize) -> i64 {
        let off = HDR + i * INTERNAL_ENTRY;
        i64::from_le_bytes(self.raw()[off..off + 8].try_into().expect("8 bytes"))
    }

    fn int_child(&self, i: usize) -> PageId {
        let off = HDR + i * INTERNAL_ENTRY + 8;
        PageId(u32::from_le_bytes(
            self.raw()[off..off + 4].try_into().expect("4 bytes"),
        ))
    }

    fn int_insert_at(&mut self, i: usize, key: i64, child: PageId) {
        let count = self.count();
        assert!(count < INTERNAL_CAP);
        let start = HDR + i * INTERNAL_ENTRY;
        let end = HDR + count * INTERNAL_ENTRY;
        self.raw_mut()
            .copy_within(start..end, start + INTERNAL_ENTRY);
        self.raw_mut()[start..start + 8].copy_from_slice(&key.to_le_bytes());
        self.raw_mut()[start + 8..start + 12].copy_from_slice(&child.0.to_le_bytes());
        self.set_count(count + 1);
    }

    /// Position of the child covering `key`.
    fn int_child_for(&self, key: i64) -> usize {
        let n = self.count();
        for i in 0..n {
            if key <= self.int_key(i) {
                return i;
            }
        }
        n - 1
    }
}

/// A B+tree index mapping `i64` keys to [`RecordId`]s (duplicates
/// allowed).
pub struct BTree {
    pool: Arc<BufferPool>,
    root: Mutex<PageId>,
    /// Tree-level latch: an insert may restructure several pages (leaf
    /// and internal splits, root replacement), so it holds the latch
    /// exclusively; scans hold it shared for the whole descent + leaf
    /// walk and therefore always observe a structurally consistent
    /// tree. Coarse, but correct — per-node latch coupling is a later
    /// optimization. Never acquired while holding a buffer-pool frame
    /// latch (all page access goes through `with_page`, which returns
    /// before the next tree-level operation).
    latch: RwLock<()>,
}

impl BTree {
    /// Create an empty index.
    pub fn create(pool: Arc<BufferPool>) -> Self {
        let root = pool.allocate();
        let leaf = Node::new_leaf();
        pool.with_page(root, |p, dirty| {
            *p = leaf.page.clone();
            *dirty = true;
        });
        BTree {
            pool,
            root: Mutex::new(root),
            latch: RwLock::new(()),
        }
    }

    fn read(&self, id: PageId) -> Node {
        self.pool.with_page(id, |p, _| Node::from_page(p.clone()))
    }

    fn write(&self, id: PageId, node: &Node) {
        self.pool.with_page(id, |p, dirty| {
            *p = node.page.clone();
            *dirty = true;
        });
    }

    /// Insert a key → record mapping.
    pub fn insert(&self, key: i64, rid: RecordId) {
        // Exclusive: splits rewrite multiple pages and must not be
        // observed half-done (see the `latch` field docs).
        let _w = self.latch.write();
        let root_id = *self.root.lock();
        if let Some((sep, new_right)) = self.insert_rec(root_id, key, rid) {
            // Root split: create a new internal root.
            let new_root_id = self.pool.allocate();
            let mut new_root = Node::new_internal();
            new_root.int_insert_at(0, sep, root_id);
            new_root.int_insert_at(1, i64::MAX, new_right);
            self.write(new_root_id, &new_root);
            *self.root.lock() = new_root_id;
        }
    }

    /// Recursive insert; returns `(separator, new right sibling)` when
    /// the child split.
    fn insert_rec(&self, node_id: PageId, key: i64, rid: RecordId) -> Option<(i64, PageId)> {
        let mut node = self.read(node_id);
        match node.kind() {
            Kind::Leaf => {
                let n = node.count();
                let mut pos = n;
                for i in 0..n {
                    if key < node.leaf_key(i) {
                        pos = i;
                        break;
                    }
                }
                node.leaf_insert_at(pos, key, rid);
                if node.count() < LEAF_CAP {
                    self.write(node_id, &node);
                    return None;
                }
                // Split the full leaf.
                let mid = node.count() / 2;
                let mut right = Node::new_leaf();
                for i in mid..node.count() {
                    right.leaf_insert_at(i - mid, node.leaf_key(i), node.leaf_rid(i));
                }
                right.set_next_leaf(node.next_leaf());
                let right_id = self.pool.allocate();
                node.set_count(mid);
                node.set_next_leaf(right_id.0);
                let sep = node.leaf_key(mid - 1);
                self.write(node_id, &node);
                self.write(right_id, &right);
                Some((sep, right_id))
            }
            Kind::Internal => {
                let ci = node.int_child_for(key);
                let child = node.int_child(ci);
                let split = self.insert_rec(child, key, rid)?;
                let (sep, new_right) = split;
                // The child split: its old slot keeps the right half's
                // upper bound; insert the left half with the separator.
                // The left half keeps the old slot's position with the
                // separator as its upper bound; the displaced entry (now
                // at ci+1) keeps its key but must point at the new right
                // sibling.
                node.int_insert_at(ci, sep, child);
                let off = HDR + (ci + 1) * INTERNAL_ENTRY + 8;
                node.raw_mut()[off..off + 4].copy_from_slice(&new_right.0.to_le_bytes());
                if node.count() < INTERNAL_CAP {
                    self.write(node_id, &node);
                    return None;
                }
                // Split the internal node.
                let mid = node.count() / 2;
                let mut right = Node::new_internal();
                for i in mid..node.count() {
                    right.int_insert_at(i - mid, node.int_key(i), node.int_child(i));
                }
                let right_id = self.pool.allocate();
                let sep_up = node.int_key(mid - 1);
                node.set_count(mid);
                self.write(node_id, &node);
                self.write(right_id, &right);
                Some((sep_up, right_id))
            }
        }
    }

    /// Visit all entries with `key >= low` in key order; stop when `f`
    /// returns `false`.
    pub fn scan_from(&self, low: i64, mut f: impl FnMut(i64, RecordId) -> bool) {
        // Shared: excludes structural changes for the whole walk.
        // Concurrent scans proceed together. `f` must not call back
        // into a mutating method of the same tree.
        let _r = self.latch.read();
        // Descend to the leaf covering `low`.
        let mut id = *self.root.lock();
        loop {
            let node = self.read(id);
            match node.kind() {
                Kind::Internal => {
                    id = node.int_child(node.int_child_for(low));
                }
                Kind::Leaf => break,
            }
        }
        // Walk the leaf chain.
        loop {
            let node = self.read(id);
            for i in 0..node.count() {
                let k = node.leaf_key(i);
                if k < low {
                    continue;
                }
                if !f(k, node.leaf_rid(i)) {
                    return;
                }
            }
            let next = node.next_leaf();
            if next == NO_LEAF {
                return;
            }
            id = PageId(next);
        }
    }

    /// All entries in key order.
    pub fn scan_all(&self) -> Vec<(i64, RecordId)> {
        let mut out = Vec::new();
        self.scan_from(i64::MIN, |k, r| {
            out.push((k, r));
            true
        });
        out
    }

    /// Entries with keys in `[low, high]`.
    pub fn range(&self, low: i64, high: i64) -> Vec<(i64, RecordId)> {
        let mut out = Vec::new();
        self.scan_from(low, |k, r| {
            if k > high {
                false
            } else {
                out.push((k, r));
                true
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;

    fn tree() -> BTree {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
        BTree::create(pool)
    }

    fn rid(n: u32) -> RecordId {
        RecordId {
            page: PageId(n),
            slot: (n % 7) as usize,
        }
    }

    #[test]
    fn sorted_scan_small() {
        let t = tree();
        for k in [5i64, 1, 9, 3, 7] {
            t.insert(k, rid(k as u32));
        }
        let keys: Vec<i64> = t.scan_all().iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn many_keys_split_leaves_and_internals() {
        let t = tree();
        // Insert a few thousand keys in pseudo-random order: forces
        // multiple levels (leaf cap ≈ 292).
        let mut keys: Vec<i64> = (0..5000).collect();
        let mut s = 12345u64;
        for i in (1..keys.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 16) as usize % (i + 1);
            keys.swap(i, j);
        }
        for &k in &keys {
            t.insert(k, rid(k as u32));
        }
        let scanned = t.scan_all();
        assert_eq!(scanned.len(), 5000);
        for (i, &(k, r)) in scanned.iter().enumerate() {
            assert_eq!(k, i as i64, "keys in order");
            assert_eq!(r, rid(k as u32), "record ids preserved");
        }
    }

    #[test]
    fn duplicates_are_kept() {
        let t = tree();
        for i in 0..10 {
            t.insert(42, rid(i));
        }
        t.insert(41, rid(100));
        t.insert(43, rid(101));
        let hits = t.range(42, 42);
        assert_eq!(hits.len(), 10);
    }

    #[test]
    fn range_scans() {
        let t = tree();
        for k in 0..1000 {
            t.insert(k, rid(k as u32));
        }
        let r = t.range(100, 199);
        assert_eq!(r.len(), 100);
        assert_eq!(r[0].0, 100);
        assert_eq!(r[99].0, 199);
        assert!(t.range(2000, 3000).is_empty());
        // scan_from with early stop.
        let mut seen = 0;
        t.scan_from(990, |_, _| {
            seen += 1;
            seen < 5
        });
        assert_eq!(seen, 5);
    }

    /// Regression: concurrent inserters (forcing leaf/internal splits)
    /// racing ordered scans. Without the tree-level latch a scan could
    /// descend through a half-applied split and miss or duplicate
    /// keys; with it, every scan sees a consistent tree and the final
    /// scan sees every key exactly once, in order.
    #[test]
    fn concurrent_inserts_and_scans() {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 64));
        let t = Arc::new(BTree::create(pool));
        let writers = 4;
        let per_writer = 1000usize;
        std::thread::scope(|s| {
            for w in 0..writers as i64 {
                let t = t.clone();
                s.spawn(move || {
                    // Disjoint interleaved key ranges per writer.
                    for i in 0..per_writer as i64 {
                        let k = i * writers as i64 + w;
                        t.insert(k, rid(k as u32));
                    }
                });
            }
            for _ in 0..2 {
                let t = t.clone();
                s.spawn(move || {
                    for _ in 0..30 {
                        let scanned = t.scan_all();
                        // Keys must be strictly ordered (all keys are
                        // distinct here): an unordered or duplicated
                        // sequence means a torn split was observed.
                        for pair in scanned.windows(2) {
                            assert!(
                                pair[0].0 < pair[1].0,
                                "scan saw out-of-order/duplicate keys {} >= {}",
                                pair[0].0,
                                pair[1].0
                            );
                        }
                    }
                });
            }
        });
        let scanned = t.scan_all();
        assert_eq!(scanned.len(), writers * per_writer);
        for (i, &(k, r)) in scanned.iter().enumerate() {
            assert_eq!(k, i as i64);
            assert_eq!(r, rid(k as u32));
        }
    }

    #[test]
    fn negative_and_extreme_keys() {
        let t = tree();
        for k in [-5i64, 0, 5, i64::MIN + 1, 1_000_000] {
            t.insert(k, rid(1));
        }
        let keys: Vec<i64> = t.scan_all().iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![i64::MIN + 1, -5, 0, 5, 1_000_000]);
    }
}
