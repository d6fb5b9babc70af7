//! Property-based tests of the storage layer: pages, heap files and the
//! buffer pool behave like their obvious in-memory models under
//! arbitrary operation sequences, and records survive arbitrary round
//! trips.

use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use volcano_store::record::{decode_record, encode_record, Field};
use volcano_store::{BufferPool, DiskManager, HeapFile, MemDisk, Page, PageId};

fn arb_field() -> impl Strategy<Value = Field> {
    prop_oneof![
        Just(Field::Null),
        any::<bool>().prop_map(Field::Bool),
        any::<i64>().prop_map(Field::Int),
        (-1e300f64..1e300).prop_map(Field::Float),
        "[a-zA-Z0-9 _-]{0,40}".prop_map(Field::Str),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Record encoding round-trips arbitrary rows.
    #[test]
    fn record_roundtrip(row in proptest::collection::vec(arb_field(), 0..12)) {
        let bytes = encode_record(&row);
        prop_assert_eq!(decode_record(&bytes).unwrap(), row);
    }

    /// Truncating an encoded record never panics and never succeeds with
    /// wrong data of the same arity.
    #[test]
    fn record_truncation_is_detected(
        row in proptest::collection::vec(arb_field(), 1..8),
        cut in 1usize..64,
    ) {
        let bytes = encode_record(&row);
        if cut < bytes.len() {
            let truncated = &bytes[..bytes.len() - cut];
            match decode_record(truncated) {
                Err(_) => {}
                Ok(decoded) => {
                    // Decoding may stop early only if the cut removed
                    // whole trailing fields — it must never fabricate
                    // values (and the declared arity makes that
                    // impossible: fewer bytes, same field count → error).
                    prop_assert_eq!(decoded, row);
                }
            }
        }
    }

    /// A page behaves like a Vec<Option<Vec<u8>>> under insert/delete.
    #[test]
    fn page_matches_model(ops in proptest::collection::vec(
        prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..120).prop_map(Some),
            (0usize..30).prop_map(|_| None),
        ],
        1..60,
    ), delete_seed in any::<u64>()) {
        let mut page = Page::new();
        let mut model: Vec<Option<Vec<u8>>> = Vec::new();
        let mut seed = delete_seed;
        for op in ops {
            match op {
                Some(rec) => {
                    match page.insert(&rec) {
                        Some(slot) => {
                            prop_assert_eq!(slot, model.len());
                            model.push(Some(rec));
                        }
                        None => {
                            // Page full for this record size; the model
                            // is unchanged.
                        }
                    }
                }
                None if !model.is_empty() => {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let idx = (seed >> 16) as usize % model.len();
                    let expect = model[idx].is_some();
                    prop_assert_eq!(page.delete(idx), expect);
                    model[idx] = None;
                }
                None => {}
            }
        }
        // Full comparison.
        prop_assert_eq!(page.slot_count(), model.len());
        for (i, rec) in model.iter().enumerate() {
            prop_assert_eq!(page.get(i), rec.as_deref());
        }
        let live: Vec<Vec<u8>> = page.records().map(|(_, r)| r.to_vec()).collect();
        let model_live: Vec<Vec<u8>> = model.iter().flatten().cloned().collect();
        prop_assert_eq!(live, model_live);
    }

    /// Heap files preserve insertion order across pages and arbitrary
    /// buffer-pool sizes.
    #[test]
    fn heap_scan_order(
        recs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..400), 1..80),
        pool_pages in 2usize..16,
    ) {
        let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), pool_pages));
        let heap = HeapFile::create(pool);
        for r in &recs {
            heap.insert(r);
        }
        prop_assert_eq!(heap.scan_all(), recs);
    }

    /// The pool evicts exactly as a plain LRU that scans every frame for
    /// the smallest last-use stamp: the same hits, misses, evictions,
    /// disk reads and write-backs, and the same page contents, over
    /// traces of allocations, reads and dirtying writes.
    #[test]
    fn pool_matches_reference_lru(
        capacity in 1usize..7,
        ops in proptest::collection::vec((0u8..3, any::<u32>(), any::<u8>()), 1..80),
    ) {
        let disk = Arc::new(MemDisk::new());
        let pool = BufferPool::new(disk.clone(), capacity);
        let mut model = ReferenceLru::new(capacity);
        // The records each page holds, whether cached or on disk.
        let mut contents: Vec<Vec<Vec<u8>>> = Vec::new();
        for (kind, pick, byte) in ops {
            if kind == 0 || contents.is_empty() {
                let id = pool.allocate();
                prop_assert_eq!(id.0 as usize, contents.len());
                model.allocate(id.0);
                contents.push(Vec::new());
                continue;
            }
            let i = pick as usize % contents.len();
            let id = PageId(i as u32);
            let write = kind == 2 && contents[i].len() < 40;
            let record = vec![byte; 1 + byte as usize % 24];
            let seen = pool.with_page(id, |page, dirty| {
                if write {
                    page.insert(&record).expect("a page of at most 40 short records has room");
                    *dirty = true;
                }
                page.records().map(|(_, r)| r.to_vec()).collect::<Vec<_>>()
            });
            model.pin(id.0, write);
            if write {
                contents[i].push(record);
            }
            prop_assert_eq!(&seen, &contents[i]);
        }
        prop_assert_eq!(pool.stats(), (model.hits, model.misses, model.evictions));
        prop_assert_eq!(disk.stats().reads(), model.reads);
        prop_assert_eq!(disk.stats().writes(), model.writes);
    }
}

/// The buffer pool's replacement rule written the obvious way: every
/// pin and every load stamps the frame with a clock, and a full pool
/// evicts the frame with the smallest stamp, found by scanning them all.
/// Single-threaded, so no frame is pinned when a victim is chosen.
struct ReferenceLru {
    capacity: usize,
    /// Cached page → (last-use stamp, dirty).
    frames: HashMap<u32, (u64, bool)>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    reads: u64,
    writes: u64,
}

impl ReferenceLru {
    fn new(capacity: usize) -> Self {
        ReferenceLru {
            capacity,
            frames: HashMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            reads: 0,
            writes: 0,
        }
    }

    fn make_room(&mut self) {
        while self.frames.len() >= self.capacity {
            let (&victim, &(_, dirty)) = self
                .frames
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .expect("a full pool has a frame");
            self.frames.remove(&victim);
            self.evictions += 1;
            if dirty {
                self.writes += 1;
            }
        }
    }

    fn load(&mut self, page: u32, dirty: bool) {
        self.make_room();
        self.clock += 1;
        self.frames.insert(page, (self.clock, dirty));
    }

    fn allocate(&mut self, page: u32) {
        self.load(page, true);
    }

    fn pin(&mut self, page: u32, write: bool) {
        self.clock += 1;
        let clock = self.clock;
        match self.frames.get_mut(&page) {
            Some(frame) => {
                self.hits += 1;
                frame.0 = clock;
            }
            None => {
                self.misses += 1;
                self.reads += 1;
                self.load(page, false);
            }
        }
        if write {
            self.frames.get_mut(&page).expect("pinned page is cached").1 = true;
        }
    }
}
