//! # volcano-store — paged storage for the Volcano execution engine
//!
//! A small but real storage layer: fixed-size **slotted pages**
//! ([`page`]), a pluggable **disk manager** with an in-memory
//! implementation ([`disk`]), a pin/unpin **buffer pool**
//! with LRU eviction ([`buffer`]), **heap files** of variable-length
//! records ([`heap`]), and record (de)serialization ([`record`]).
//!
//! The disk manager counts physical reads and writes, which is how the
//! repository validates the optimizer's I/O estimates against observed
//! behaviour (see `volcano-exec` and the `end_to_end` example).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod btree;
pub mod buffer;
pub mod disk;
pub mod heap;
pub mod page;
pub mod record;

pub use btree::BTree;
pub use buffer::BufferPool;
pub use disk::{DiskManager, DiskStats, MemDisk};
pub use heap::{HeapFile, RecordId};
pub use page::{Page, PageId, PAGE_SIZE};
