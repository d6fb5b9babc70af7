//! The fused-pipeline runtime: one [`FusedRegion`] operator executes a
//! whole fusable plan segment as a handful of tight loops.
//!
//! A region holds *build pipelines* (each ending in a serial hash-table
//! build) and one *output pipeline*, which streams its rows or folds
//! them into an aggregation sink. Each pipeline is a source — a
//! projected page scan or an opaque batch subtree — followed by a chain
//! of [`FusedStage`]s applied batch-at-a-time with plain enum dispatch:
//! there is no `next_batch` virtual call and no adapter hop between
//! fused operators, and the scan decodes only the columns the demand
//! pass of [`crate::pipeline`] kept (via [`decode_record_projected`]).
//!
//! Semantics are bit-compatible with the tuple engine: predicate
//! narrowing matches [`crate::kernels::apply_pred`], and probe output is
//! build columns ++ probe columns in probe order with per-key
//! build-insertion order, exactly as [`crate::ops::HashJoin`] documents.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use volcano_core::fxhash::FxHashMap;
use volcano_rel::catalog::ColType;
use volcano_rel::Value;
use volcano_store::record::{decode_record_fields, decode_record_projected};
use volcano_store::{HeapFile, PageId};

use crate::batch::{Batch, BatchOperator, BoxedBatchOperator, Column};
use crate::fused::pred::FusedPred;
use crate::kernels::agg::{AggMode, GroupScratch, GroupTable};
use crate::kernels::hash_join_keys;
use crate::pipeline::{AggSink, ProbeCol, TableShape};

/// Counters of one fused pipeline, shared with the compile-time report
/// so `EXPLAIN ANALYZE` can read them after the region has executed.
#[derive(Debug, Default)]
pub struct PipelineStats {
    /// Rows the pipeline delivered to its sink.
    rows: AtomicU64,
    /// Source batches processed.
    batches: AtomicU64,
    /// Wall nanoseconds inside the pipeline's loop.
    ns: AtomicU64,
    /// Physical rows the source scan decoded, before its predicate.
    source_rows: AtomicU64,
    /// Rows that survived the scan predicate (equals [`Self::source_rows`]
    /// for an unpredicated scan).
    source_out: AtomicU64,
    /// Rows that entered a probe stage.
    probe_in: AtomicU64,
    /// Join pairs a probe stage produced.
    probe_out: AtomicU64,
}

impl PipelineStats {
    /// Rows delivered to the pipeline's sink.
    pub fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Source batches processed.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Wall nanoseconds spent inside the pipeline.
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Physical rows the source scan decoded, before its predicate.
    pub fn source_rows(&self) -> u64 {
        self.source_rows.load(Ordering::Relaxed)
    }

    /// Rows that survived the scan predicate.
    pub fn source_out(&self) -> u64 {
        self.source_out.load(Ordering::Relaxed)
    }

    /// Rows that entered a probe stage.
    pub fn probe_in(&self) -> u64 {
        self.probe_in.load(Ordering::Relaxed)
    }

    /// Join pairs a probe stage produced.
    pub fn probe_out(&self) -> u64 {
        self.probe_out.load(Ordering::Relaxed)
    }
}

/// A page scan that decodes only the kept columns, straight from pinned
/// page memory (no staging copy of the record bytes).
pub(crate) struct FusedScan {
    heap: Arc<HeapFile>,
    /// Types of the columns the scan *produces* (post-pruning).
    col_types: Vec<ColType>,
    /// Full-width keep mask; `None` decodes every column.
    keep: Option<Vec<bool>>,
    /// All produced columns are `Int`: rows take the monomorphized
    /// integer decode loop (no `Field` staging, no per-field dispatch).
    all_int: bool,
    /// Scan-level predicate, positions in the produced (pruned) space.
    pred: Option<FusedPred>,
    pages: Vec<PageId>,
    page_idx: usize,
    scratch: Vec<u32>,
    pages_read: u64,
    rows_scanned: u64,
}

impl FusedScan {
    /// A scan of `heap` producing the columns the full-width mask `keep`
    /// selects, whose types are `col_types`.
    pub(crate) fn new(
        heap: Arc<HeapFile>,
        col_types: Vec<ColType>,
        keep: Vec<bool>,
        pred: Option<FusedPred>,
    ) -> Self {
        let all_int = col_types.iter().all(|t| matches!(t, ColType::Int));
        FusedScan {
            heap,
            col_types,
            keep: Some(keep).filter(|k| !k.iter().all(|&c| c)),
            all_int,
            pred,
            pages: Vec::new(),
            page_idx: 0,
            scratch: Vec::new(),
            pages_read: 0,
            rows_scanned: 0,
        }
    }

    fn open(&mut self) {
        self.pages = self.heap.pages();
        self.page_idx = 0;
    }

    /// Scan exactly `pages` next (a morsel worker's page range).
    pub(crate) fn reset_pages(&mut self, pages: &[PageId]) {
        self.pages.clear();
        self.pages.extend_from_slice(pages);
        self.page_idx = 0;
    }

    /// Decode whole pages into `out` until at least `batch_size` rows
    /// are staged, and apply the scan predicate; `false` when the heap
    /// is exhausted. The page is the atomic decode unit — it stays
    /// pinned for exactly one pass — so a batch may exceed `batch_size`
    /// by up to one page of rows. `stats` receives the pre-/post-
    /// predicate row counts the feedback harvest reads.
    pub(crate) fn fill(
        &mut self,
        out: &mut Batch,
        batch_size: usize,
        stats: &PipelineStats,
    ) -> bool {
        out.clear();
        if out.columns.len() != self.col_types.len() {
            *out = Batch::for_types(&self.col_types);
        }
        let mut rows = 0usize;
        while rows < batch_size && self.page_idx < self.pages.len() {
            let page = self.pages[self.page_idx];
            self.page_idx += 1;
            self.pages_read += 1;
            let cols = &mut out.columns;
            let keep = self.keep.as_deref();
            let all_int = self.all_int;
            self.heap.for_page_records(page, |bytes| {
                // Nothing is read (`COUNT(*)`): the record only counts.
                if cols.is_empty() || (all_int && decode_int_row(bytes, keep, cols)) {
                    rows += 1;
                    return;
                }
                let mut col = 0usize;
                match keep {
                    Some(mask) => decode_record_projected(bytes, mask, |f| {
                        cols[col].push_field(f);
                        col += 1;
                    }),
                    None => decode_record_fields(bytes, |f| {
                        cols[col].push_field(f);
                        col += 1;
                    }),
                }
                .expect("stored rows are well-formed");
                debug_assert_eq!(col, cols.len());
                rows += 1;
            });
        }
        if rows == 0 {
            return false;
        }
        self.rows_scanned += rows as u64;
        out.set_physical_rows(rows);
        stats.source_rows.fetch_add(rows as u64, Ordering::Relaxed);
        if let Some(pred) = &self.pred {
            pred.apply(out, &mut self.scratch);
        }
        stats
            .source_out
            .fetch_add(out.live_rows() as u64, Ordering::Relaxed);
        true
    }

    fn close(&mut self) {
        self.pages.clear();
    }
}

/// Monomorphized decode of one record whose kept fields are all
/// `Int`-typed: bytes go straight into the typed column vectors — no
/// `Field` staging, no per-field closure dispatch. Returns `false`
/// (with any partial pushes rolled back) when the record holds a
/// non-`{Int, NULL}` field among those *kept* or does not line up with
/// the columns; unkept fields of any type are skipped by payload
/// width. The caller decodes rejected records generically.
fn decode_int_row(bytes: &[u8], keep: Option<&[bool]>, cols: &mut [Column]) -> bool {
    let base = match cols.first() {
        Some(c) => c.len(),
        None => return false,
    };
    if decode_int_row_inner(bytes, keep, cols) {
        return true;
    }
    for c in cols.iter_mut() {
        c.truncate(base);
    }
    false
}

fn decode_int_row_inner(bytes: &[u8], keep: Option<&[bool]>, cols: &mut [Column]) -> bool {
    if bytes.len() < 2 {
        return false;
    }
    let n = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
    // Fields past the last kept position are never walked, mirroring
    // `decode_record_projected`.
    let last = match keep {
        Some(mask) => match mask.iter().rposition(|&k| k) {
            Some(l) => l,
            None => return false,
        },
        None => n.saturating_sub(1),
    };
    let mut p = 2usize;
    let mut col = 0usize;
    for pos in 0..n.min(last + 1) {
        let Some(&tag) = bytes.get(p) else {
            return false;
        };
        p += 1;
        let kept = keep.is_none_or(|m| m.get(pos).copied().unwrap_or(false));
        match tag {
            2 => {
                let Some(raw) = bytes.get(p..p + 8) else {
                    return false;
                };
                p += 8;
                if kept {
                    let Some(Column::Int { data, valid }) = cols.get_mut(col) else {
                        return false;
                    };
                    data.push(i64::from_le_bytes(raw.try_into().unwrap()));
                    valid.push(true);
                    col += 1;
                }
            }
            0 => {
                if kept {
                    let Some(c @ Column::Int { .. }) = cols.get_mut(col) else {
                        return false;
                    };
                    c.push_null();
                    col += 1;
                }
            }
            1 if !kept => p += 1,
            3 if !kept => p += 8,
            4 if !kept => {
                let Some(raw) = bytes.get(p..p + 4) else {
                    return false;
                };
                let len = u32::from_le_bytes(raw.try_into().unwrap()) as usize;
                p += 4;
                if bytes.len() < p + len {
                    return false;
                }
                p += len;
            }
            _ => return false,
        }
    }
    col == cols.len()
}

/// A pipeline's input.
pub(crate) enum FusedSource {
    /// Projected page scan.
    Scan(FusedScan),
    /// Opaque batch subtree (a non-fusable segment feeding this
    /// pipeline — the single genuine engine boundary below it).
    Input(BoxedBatchOperator),
}

/// One fused step, applied to the pipeline's current batch in place.
pub(crate) enum FusedStage {
    /// Narrow the selection vector with monomorphized kernels.
    Filter(FusedPred),
    /// Gather a subset/permutation of columns.
    Project(Vec<usize>),
    /// Probe a built hash table; `out` maps output columns to their
    /// side, so a projection above the probe gathers nothing extra.
    Probe {
        table: usize,
        keys: Vec<usize>,
        out: Vec<ProbeCol>,
    },
}

/// One fused pipeline: source and stage chain. Its sink is positional —
/// a pipeline in [`FusedRegion::builds`] feeds the hash table of its own
/// slot index, the output pipeline streams the region's result.
pub(crate) struct FusedPipeline {
    pub(crate) source: FusedSource,
    pub(crate) stages: Vec<FusedStage>,
    pub(crate) stats: Arc<PipelineStats>,
}

/// Sentinel for "no row" in [`IntIndex`] slot heads and chain links.
const NO_ROW: u32 = u32::MAX;

/// Open-addressed hash index monomorphized for a single `Int` join key:
/// slots hold exact `i64` keys (no hash-then-verify pass), and rows
/// sharing a key chain through a flat `next` array in build-insertion
/// order. This is the fused engine's fast path for the overwhelmingly
/// common equi-join shape; any other key shape uses the generic
/// value-hash index.
struct IntIndex {
    /// Power-of-two slot array; `head == NO_ROW` marks a free slot.
    slots: Vec<IntSlot>,
    mask: u64,
    /// Occupied slots (distinct keys), for the load-factor check.
    keys_len: usize,
    /// `next[row]`: the next build row with the same key, or [`NO_ROW`].
    next: Vec<u32>,
}

#[derive(Clone, Copy)]
struct IntSlot {
    key: i64,
    /// First build row with this key ([`NO_ROW`] = slot free).
    head: u32,
    /// Last build row with this key (chain append point).
    tail: u32,
}

const FREE: IntSlot = IntSlot {
    key: 0,
    head: NO_ROW,
    tail: NO_ROW,
};

/// Fibonacci spread of the key over the full word, folded so the low
/// bits (the slot mask) see the high-entropy half.
#[inline]
fn spread(key: i64) -> u64 {
    let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

impl IntIndex {
    fn new() -> Self {
        IntIndex {
            slots: vec![FREE; 16],
            mask: 15,
            keys_len: 0,
            next: Vec::new(),
        }
    }

    /// Append build row `row` (must equal the insertion count so far)
    /// under `key`, preserving per-key insertion order.
    fn insert(&mut self, key: i64, row: u32) {
        debug_assert_eq!(row as usize, self.next.len());
        self.next.push(NO_ROW);
        if (self.keys_len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut i = (spread(key) & self.mask) as usize;
        loop {
            let s = &mut self.slots[i];
            if s.head == NO_ROW {
                *s = IntSlot {
                    key,
                    head: row,
                    tail: row,
                };
                self.keys_len += 1;
                return;
            }
            if s.key == key {
                self.next[s.tail as usize] = row;
                s.tail = row;
                return;
            }
            i = (i + 1) & self.mask as usize;
        }
    }

    /// First build row with `key`, or [`NO_ROW`]; follow [`Self::next`]
    /// for the rest of the chain.
    #[inline]
    fn head(&self, key: i64) -> u32 {
        let mut i = (spread(key) & self.mask) as usize;
        loop {
            let s = &self.slots[i];
            if s.head == NO_ROW {
                return NO_ROW;
            }
            if s.key == key {
                return s.head;
            }
            i = (i + 1) & self.mask as usize;
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.slots, vec![FREE; 0]);
        self.slots = vec![FREE; old.len() * 2];
        self.mask = (self.slots.len() - 1) as u64;
        for s in old {
            if s.head == NO_ROW {
                continue;
            }
            let mut i = (spread(s.key) & self.mask) as usize;
            while self.slots[i].head != NO_ROW {
                i = (i + 1) & self.mask as usize;
            }
            self.slots[i] = s;
        }
    }
}

/// The key index of a [`FusedTable`].
enum TableIndex {
    /// Value-hash buckets with per-pair key verification — correct for
    /// every key shape (multi-column, demoted, cross-typed).
    Generic(FxHashMap<u64, Vec<u32>>),
    /// Monomorphized single-`Int`-key index; chosen when every inserted
    /// key column arrives as a typed `Int` column.
    Int(IntIndex),
}

/// A serial hash table built by one pipeline and probed by later ones.
/// Build/probe semantics mirror [`crate::ops::HashJoin`]: NULL keys
/// never enter or match, equality is `Value` equality, bucket order is
/// build-insertion order.
pub(crate) struct FusedTable {
    cols: Vec<Column>,
    shape: TableShape,
    index: TableIndex,
    rows: u32,
}

impl FusedTable {
    fn new(shape: &TableShape) -> Self {
        let index = if shape.keys.len() == 1 {
            TableIndex::Int(IntIndex::new())
        } else {
            TableIndex::Generic(FxHashMap::default())
        };
        FusedTable {
            cols: shape.cols.iter().map(|_| Column::any()).collect(),
            shape: shape.clone(),
            index,
            rows: 0,
        }
    }

    /// Append the non-NULL-keyed live rows of `batch`, preserving order.
    fn insert_batch(&mut self, batch: &Batch, s: &mut Scratch) -> u64 {
        if batch.live_rows() == 0 {
            return 0;
        }
        if matches!(self.index, TableIndex::Int(_))
            && !matches!(batch.columns[self.shape.keys[0]], Column::Int { .. })
        {
            // The key column stopped arriving typed (demoted data):
            // re-index what was built so far under value hashing.
            self.migrate_to_generic();
        }
        match &mut self.index {
            TableIndex::Int(idx) => {
                let Column::Int { data, valid } = &batch.columns[self.shape.keys[0]] else {
                    unreachable!("migrated above")
                };
                s.keep.clear();
                let mut row = self.rows;
                for &i in batch.live_indices(&mut s.sel) {
                    if valid[i as usize] {
                        idx.insert(data[i as usize], row);
                        s.keep.push(i);
                        row += 1;
                    }
                }
            }
            TableIndex::Generic(buckets) => {
                hash_join_keys(batch, &self.shape.keys, &mut s.hashes, &mut s.sel);
                s.live.clear();
                s.live.extend_from_slice(batch.live_indices(&mut s.sel));
                s.keep.clear();
                for (pos, h) in s.hashes.iter().enumerate() {
                    if let Some(h) = *h {
                        s.keep.push(s.live[pos]);
                        buckets
                            .entry(h)
                            .or_default()
                            .push(self.rows + s.keep.len() as u32 - 1);
                    }
                }
            }
        }
        for (dst, &src) in self.cols.iter_mut().zip(&self.shape.cols) {
            dst.gather_from(&batch.columns[src], Some(&s.keep));
        }
        self.rows += s.keep.len() as u32;
        s.keep.len() as u64
    }

    /// Rebuild the index under value hashing (every stored row already
    /// has a non-NULL key, in insertion order, so re-inserting rows
    /// `0..self.rows` reproduces the generic index exactly).
    fn migrate_to_generic(&mut self) {
        let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for row in 0..self.rows {
            if let Some(h) = crate::kernels::hash::fold_value(
                0,
                &self.cols[self.shape.table_keys[0]],
                row as usize,
            ) {
                buckets.entry(h).or_default().push(row);
            }
        }
        self.index = TableIndex::Generic(buckets);
    }

    /// Does build row `b` share exactly the key of probe row `p`?
    fn keys_match(&self, b: u32, probe: &Batch, probe_keys: &[usize], p: u32) -> bool {
        self.shape
            .table_keys
            .iter()
            .zip(probe_keys)
            .all(|(&bk, &pk)| self.cols[bk].rows_eq(b as usize, &probe.columns[pk], p as usize))
    }
}

/// Reusable scratch space shared by every pipeline of a region.
#[derive(Default)]
struct Scratch {
    sel: Vec<u32>,
    live: Vec<u32>,
    keep: Vec<u32>,
    hashes: Vec<Option<u64>>,
    pairs_build: Vec<u32>,
    pairs_probe: Vec<u32>,
}

/// Run the stage chain over `cur` in place (`tmp` is swap space).
/// `stats` collects the probe in/out row counts the feedback harvest
/// reads (meaningful when the pipeline has exactly one probe stage).
fn run_stages(
    stages: &[FusedStage],
    tables: &[FusedTable],
    cur: &mut Batch,
    tmp: &mut Batch,
    s: &mut Scratch,
    stats: &PipelineStats,
) {
    for stage in stages {
        match stage {
            FusedStage::Filter(pred) => {
                pred.apply(cur, &mut s.sel);
            }
            FusedStage::Project(cols) => {
                tmp.reset_columns(cols.len());
                let sel = cur.sel.as_deref();
                for (o, &c) in cols.iter().enumerate() {
                    tmp.columns[o].gather_from(&cur.columns[c], sel);
                }
                tmp.set_physical_rows(cur.live_rows());
                std::mem::swap(cur, tmp);
            }
            FusedStage::Probe { table, keys, out } => {
                let t = &tables[*table];
                stats
                    .probe_in
                    .fetch_add(cur.live_rows() as u64, Ordering::Relaxed);
                s.pairs_build.clear();
                s.pairs_probe.clear();
                match &t.index {
                    // Monomorphized probe: exact i64 lookup, no staged
                    // hash vector, no per-pair key verification.
                    TableIndex::Int(idx) => match &cur.columns[keys[0]] {
                        Column::Int { data, valid } => {
                            for &i in cur.live_indices(&mut s.sel) {
                                let j = i as usize;
                                if !valid[j] {
                                    continue;
                                }
                                let mut b = idx.head(data[j]);
                                while b != NO_ROW {
                                    s.pairs_build.push(b);
                                    s.pairs_probe.push(i);
                                    b = idx.next[b as usize];
                                }
                            }
                        }
                        // A demoted probe column may still hold Int
                        // values; anything else can never equal an Int
                        // build key.
                        col @ Column::Any(_) => {
                            for &i in cur.live_indices(&mut s.sel) {
                                let Value::Int(k) = col.value_at(i as usize) else {
                                    continue;
                                };
                                let mut b = idx.head(k);
                                while b != NO_ROW {
                                    s.pairs_build.push(b);
                                    s.pairs_probe.push(i);
                                    b = idx.next[b as usize];
                                }
                            }
                        }
                        _ => {}
                    },
                    TableIndex::Generic(buckets) => {
                        hash_join_keys(cur, keys, &mut s.hashes, &mut s.sel);
                        s.live.clear();
                        s.live.extend_from_slice(cur.live_indices(&mut s.sel));
                        for (pos, h) in s.hashes.iter().enumerate() {
                            let Some(h) = *h else { continue };
                            let phys = s.live[pos];
                            let Some(bucket) = buckets.get(&h) else {
                                continue;
                            };
                            for &b in bucket {
                                if t.keys_match(b, cur, keys, phys) {
                                    s.pairs_build.push(b);
                                    s.pairs_probe.push(phys);
                                }
                            }
                        }
                    }
                }
                stats
                    .probe_out
                    .fetch_add(s.pairs_build.len() as u64, Ordering::Relaxed);
                tmp.reset_columns(out.len());
                for (o, pc) in out.iter().enumerate() {
                    match pc {
                        ProbeCol::Build(i) => {
                            tmp.columns[o].gather_from(&t.cols[*i], Some(&s.pairs_build))
                        }
                        ProbeCol::Probe(j) => {
                            tmp.columns[o].gather_from(&cur.columns[*j], Some(&s.pairs_probe))
                        }
                    }
                }
                tmp.set_physical_rows(s.pairs_build.len());
                std::mem::swap(cur, tmp);
            }
        }
    }
}

/// The fused-region operator: executes its build pipelines on `open`,
/// then streams the output pipeline batch by batch.
pub struct FusedRegion {
    /// Build pipelines, in table-slot order (a pipeline may probe any
    /// earlier slot, never a later one).
    builds: Vec<FusedPipeline>,
    output: FusedPipeline,
    /// What each build slot's table stores.
    table_shapes: Vec<TableShape>,
    tables: Vec<FusedTable>,
    batch_size: usize,
    tmp: Batch,
    scratch: Scratch,
    opened: bool,
    build_rows: u64,
    rows_out: u64,
    batches_out: u64,
    /// Terminal aggregation sink, if the region ends in an aggregate.
    agg: Option<AggSink>,
    agg_scratch: GroupScratch,
    /// Group table filled on the first `next_batch` of an agg region.
    agg_table: Option<GroupTable>,
    /// Groups already streamed out of [`Self::agg_table`].
    agg_emitted: usize,
    /// Rows the output pipeline delivered to the aggregation sink.
    agg_rows_in: u64,
    /// Partial groups merged (Final-phase sink only).
    agg_groups_in: u64,
}

impl FusedRegion {
    pub(crate) fn new(
        builds: Vec<FusedPipeline>,
        output: FusedPipeline,
        table_shapes: Vec<TableShape>,
        batch_size: usize,
    ) -> Self {
        debug_assert_eq!(builds.len(), table_shapes.len());
        FusedRegion {
            builds,
            output,
            table_shapes,
            tables: Vec::new(),
            batch_size: batch_size.max(1),
            tmp: Batch::default(),
            scratch: Scratch::default(),
            opened: false,
            build_rows: 0,
            rows_out: 0,
            batches_out: 0,
            agg: None,
            agg_scratch: GroupScratch::default(),
            agg_table: None,
            agg_emitted: 0,
            agg_rows_in: 0,
            agg_groups_in: 0,
        }
    }

    /// Terminate the region's output pipeline in an aggregation sink.
    pub(crate) fn with_agg(mut self, sink: AggSink) -> Self {
        self.agg = Some(sink);
        self
    }

    /// Number of pipelines (builds + output).
    pub fn pipeline_count(&self) -> usize {
        self.builds.len() + 1
    }

    /// Drain the output pipeline into the sink's group table (the
    /// aggregation is a full-input barrier, like the hash-table builds).
    fn drain_into_groups(&mut self) {
        let sink = self.agg.take().expect("agg sink present");
        let mut table = GroupTable::new(sink.group.len(), &sink.aggs);
        let mut work = Batch::default();
        let t0 = Instant::now();
        loop {
            let more = match &mut self.output.source {
                FusedSource::Scan(s) => s.fill(&mut work, self.batch_size, &self.output.stats),
                FusedSource::Input(op) => op.next_batch(&mut work),
            };
            if !more {
                break;
            }
            run_stages(
                &self.output.stages,
                &self.tables,
                &mut work,
                &mut self.tmp,
                &mut self.scratch,
                &self.output.stats,
            );
            let consumed = match sink.mode {
                AggMode::Complete | AggMode::Partial => {
                    table.accumulate(&work, &sink.group, &sink.aggs, &mut self.agg_scratch)
                }
                AggMode::Final => {
                    let n = table.merge_partial(&work, &sink.aggs, &mut self.agg_scratch);
                    self.agg_groups_in += n as u64;
                    n
                }
            };
            self.agg_rows_in += consumed as u64;
            self.output.stats.batches.fetch_add(1, Ordering::Relaxed);
            self.output
                .stats
                .rows
                .fetch_add(consumed as u64, Ordering::Relaxed);
        }
        // Grand total over an empty input still yields one row — from
        // the Complete or Final phase, never the per-worker Partial.
        if sink.group.is_empty() && sink.mode != AggMode::Partial {
            table.ensure_grand_total();
        }
        self.output
            .stats
            .ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.agg_table = Some(table);
        self.agg_emitted = 0;
        self.agg = Some(sink);
    }

    /// Stream the next batch of aggregated groups.
    fn next_agg_batch(&mut self, out: &mut Batch) -> bool {
        if self.agg_table.is_none() {
            self.drain_into_groups();
        }
        let sink = self.agg.as_ref().expect("agg sink present");
        let table = self.agg_table.as_ref().expect("drained above");
        if self.agg_emitted >= table.len() {
            return false;
        }
        let to = (self.agg_emitted + self.batch_size).min(table.len());
        table.emit(
            self.agg_emitted..to,
            &sink.aggs,
            sink.mode == AggMode::Partial,
            out,
        );
        self.agg_emitted = to;
        self.rows_out += out.live_rows() as u64;
        self.batches_out += 1;
        true
    }
}

impl BatchOperator for FusedRegion {
    fn open(&mut self) {
        self.tables = self.table_shapes.iter().map(FusedTable::new).collect();
        let mut work = Batch::default();
        for (slot, pipe) in self.builds.iter_mut().enumerate() {
            let t0 = Instant::now();
            // A build pipeline may probe earlier tables while feeding
            // its own slot; split so both borrows coexist.
            let (earlier, rest) = self.tables.split_at_mut(slot);
            let own = &mut rest[0];
            match &mut pipe.source {
                FusedSource::Scan(s) => s.open(),
                FusedSource::Input(op) => op.open(),
            }
            loop {
                let more = match &mut pipe.source {
                    FusedSource::Scan(s) => s.fill(&mut work, self.batch_size, &pipe.stats),
                    FusedSource::Input(op) => op.next_batch(&mut work),
                };
                if !more {
                    break;
                }
                pipe.stats.batches.fetch_add(1, Ordering::Relaxed);
                run_stages(
                    &pipe.stages,
                    earlier,
                    &mut work,
                    &mut self.tmp,
                    &mut self.scratch,
                    &pipe.stats,
                );
                let inserted = own.insert_batch(&work, &mut self.scratch);
                pipe.stats.rows.fetch_add(inserted, Ordering::Relaxed);
                self.build_rows += inserted;
            }
            match &mut pipe.source {
                FusedSource::Scan(s) => s.close(),
                FusedSource::Input(op) => op.close(),
            }
            pipe.stats
                .ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        match &mut self.output.source {
            FusedSource::Scan(s) => s.open(),
            FusedSource::Input(op) => op.open(),
        }
        self.agg_table = None;
        self.agg_emitted = 0;
        self.opened = true;
    }

    fn next_batch(&mut self, out: &mut Batch) -> bool {
        assert!(self.opened, "next_batch() before open()");
        if self.agg.is_some() {
            return self.next_agg_batch(out);
        }
        let t0 = Instant::now();
        let more = match &mut self.output.source {
            FusedSource::Scan(s) => s.fill(out, self.batch_size, &self.output.stats),
            FusedSource::Input(op) => op.next_batch(out),
        };
        if !more {
            self.output
                .stats
                .ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            return false;
        }
        run_stages(
            &self.output.stages,
            &self.tables,
            out,
            &mut self.tmp,
            &mut self.scratch,
            &self.output.stats,
        );
        self.output.stats.batches.fetch_add(1, Ordering::Relaxed);
        self.output
            .stats
            .rows
            .fetch_add(out.live_rows() as u64, Ordering::Relaxed);
        self.output
            .stats
            .ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.rows_out += out.live_rows() as u64;
        self.batches_out += 1;
        true
    }

    fn close(&mut self) {
        match &mut self.output.source {
            FusedSource::Scan(s) => s.close(),
            FusedSource::Input(op) => op.close(),
        }
        self.tables.clear();
        self.agg_table = None;
        self.opened = false;
    }

    fn name(&self) -> &'static str {
        "fused_region"
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        let mut m = vec![
            ("pipelines", self.pipeline_count() as u64),
            ("build_rows", self.build_rows),
            ("batches", self.batches_out),
            ("rows", self.rows_out),
        ];
        if let Some(sink) = &self.agg {
            m.push(("rows_in", self.agg_rows_in));
            if sink.mode == AggMode::Final {
                m.push(("groups_in", self.agg_groups_in));
            }
            m.push((
                "groups_out",
                self.agg_table.as_ref().map_or(0, |t| t.len()) as u64,
            ));
        }
        if let FusedSource::Scan(s) = &self.output.source {
            m.push(("pages_read", s.pages_read));
            m.push(("rows_scanned", s.rows_scanned));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_index_chains_duplicates_in_insertion_order_across_growth() {
        let mut idx = IntIndex::new();
        // 1000 inserts over 50 distinct keys force several rehashes;
        // chains must survive them untouched.
        for row in 0..1000u32 {
            idx.insert((row % 50) as i64, row);
        }
        for key in 0..50i64 {
            let mut rows = Vec::new();
            let mut r = idx.head(key);
            while r != NO_ROW {
                rows.push(r);
                r = idx.next[r as usize];
            }
            let expect: Vec<u32> = (0..1000).filter(|r| (r % 50) as i64 == key).collect();
            assert_eq!(rows, expect, "key {key}");
        }
        assert_eq!(idx.head(50), NO_ROW);
        assert_eq!(idx.head(-1), NO_ROW);
    }

    #[test]
    fn int_index_survives_colliding_and_extreme_keys() {
        let mut idx = IntIndex::new();
        // Keys congruent modulo a small power of two collide under any
        // masked hash of the low bits; linear probing must keep them
        // distinct.
        let keys = [0i64, 16, 32, 48, 64, i64::MAX, i64::MIN, -16];
        for (row, &k) in keys.iter().enumerate() {
            idx.insert(k, row as u32);
        }
        for (row, &k) in keys.iter().enumerate() {
            assert_eq!(idx.head(k), row as u32, "key {k}");
            assert_eq!(idx.next[row], NO_ROW);
        }
        assert_eq!(idx.head(17), NO_ROW);
    }

    #[test]
    fn decode_int_row_matches_generic_and_rolls_back_on_mismatch() {
        use volcano_store::record::{encode_record, Field};
        let mut cols = vec![
            Column::with_type(ColType::Int),
            Column::with_type(ColType::Int),
        ];
        let bytes = encode_record(&[Field::Int(7), Field::Null, Field::Int(-3), Field::Int(9)]);
        // Keep fields 0 and 2: Int(7), Int(-3); field 3 is never walked.
        assert!(decode_int_row(
            &bytes,
            Some(&[true, false, true, false]),
            &mut cols
        ));
        // A NULL in a kept position lands as an invalid row.
        let bytes = encode_record(&[Field::Null, Field::Bool(true), Field::Int(5), Field::Int(0)]);
        assert!(decode_int_row(
            &bytes,
            Some(&[true, false, true, false]),
            &mut cols
        ));
        let Column::Int { data, valid } = &cols[0] else {
            panic!("typed column")
        };
        assert_eq!(
            (data.as_slice(), valid.as_slice()),
            (&[7, 0][..], &[true, false][..])
        );
        let Column::Int { data, valid } = &cols[1] else {
            panic!("typed column")
        };
        assert_eq!(
            (data.as_slice(), valid.as_slice()),
            (&[-3, 5][..], &[true, true][..])
        );
        // A kept non-Int field rejects the row and rolls back the Int
        // pushed before it, leaving the columns as they were.
        let bytes = encode_record(&[Field::Int(1), Field::Str("x".into())]);
        assert!(!decode_int_row(&bytes, Some(&[true, true]), &mut cols));
        assert_eq!(cols[0].len(), 2, "partial push rolled back");
        assert_eq!(cols[1].len(), 2);
        // A record narrower than the column set is a mismatch too.
        let bytes = encode_record(&[Field::Int(1)]);
        assert!(!decode_int_row(&bytes, None, &mut cols));
        assert_eq!(cols[0].len(), 2);
    }
}
