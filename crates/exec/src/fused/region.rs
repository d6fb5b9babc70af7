//! The vectorized runtime: a region, a degree, a cursor, an exchange.
//!
//! A [`FusedRegion`] executes a whole pipelineable plan segment: *build
//! pipelines*, each ending in a hash-table build, then one *output
//! pipeline*, which streams its rows or folds them into an aggregation
//! sink. A pipeline is a source — a projected page scan or an opaque
//! batch subtree — followed by a chain of [`FusedStage`]s applied
//! batch-at-a-time with plain enum dispatch: no `next_batch` virtual
//! call and no adapter hop between fused operators, and the scan decodes
//! only the columns the demand pass of [`crate::pipeline`] kept.
//!
//! One loop runs every pipeline at every degree: a [`Cursor`] pops a
//! morsel of the scan's pages from the pipeline's queue, decodes it a
//! batch at a time, runs the stage chain and hands the batch to the
//! sink. The region's **degree** comes from the plan — `gather(n)` makes
//! it `n`, everything else is 1 — and decides only who turns that loop:
//!
//! * **Degree 1**: the thread that pulls the region, inline. One morsel
//!   covers the file and a join table has one partition, appended to
//!   directly, so rows keep scan order and matches keep per-key
//!   build-insertion order — bit-compatible with the tuple engine's
//!   [`crate::ops::HashJoin`]. No thread, no channel, no scatter pass.
//! * **Degree `n`**: `n` workers of [`crate::morsel`]'s exchange, each
//!   with a cursor of its own over the shared queue. A build phase
//!   scatters into per-worker partition buffers and merges them in
//!   parallel ([`crate::fused::table`]); the output phase streams
//!   batches to the consumer over the bounded channel.
//!
//! Which side of the exchange the aggregation sink sits on follows from
//! what it needs to see. A `Partial` sink is worker-side — each worker
//! folds its morsels into a group table of its own and ships only the
//! groups, which is the point of two-phase aggregation. A `Complete` or
//! `Final` sink has to see every row, so it sits with the one consumer
//! and drains the exchange; both sides run the same [`GroupSink`].
//!
//! Every step of a pipeline — its source, each stage, the aggregation
//! sink — names the plan nodes whose output rows it produces, in plan
//! pre-order, and adds its batch's live rows to their cells once per
//! batch ([`NodeCells`]). Every cursor of a region counts into the same
//! cells, and of a pipeline into the same [`PipelineStats`], so the rows
//! `EXPLAIN ANALYZE` and the feedback harvest read cover the whole input
//! at any degree.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use volcano_rel::catalog::ColType;
use volcano_store::record::{decode_record_fields, decode_record_projected};
use volcano_store::{HeapFile, PageId};

use crate::analyze::NodeCells;
use crate::batch::{Batch, BatchOperator, BoxedBatchOperator, Column};
use crate::compile::BatchConfig;
use crate::fused::pred::FusedPred;
use crate::fused::table::{FusedTable, JoinScratch, TablePart, PARTITIONS};
use crate::kernels::agg::{AggMode, GroupScratch, GroupTable};
use crate::morsel::{
    partition_pages, scoped, Exchange, MorselStats, StealQueue, DEFAULT_MORSEL_PAGES,
};
use crate::pipeline::{AggSink, ProbeCol, TableShape};

/// Counters of one fused pipeline, shared by every cursor that runs it
/// and with the compile-time report, so `EXPLAIN ANALYZE` can read them
/// after the region has executed.
#[derive(Debug, Default)]
pub struct PipelineStats {
    /// Rows the pipeline delivered to its sink.
    rows: AtomicU64,
    /// Source batches processed.
    batches: AtomicU64,
    /// Nanoseconds inside the pipeline's loop, summed over its cursors.
    ns: AtomicU64,
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

    /// Nanoseconds spent inside the pipeline: source, stages and sink,
    /// summed over the threads that ran it (wall time at degree 1).
    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Charge the time until the guard drops to [`Self::ns`].
    fn timed(&self) -> Timed<'_> {
        Timed(&self.ns, Instant::now())
    }
}

struct Timed<'a>(&'a AtomicU64, Instant);

impl Drop for Timed<'_> {
    fn drop(&mut self) {
        let ns = self.1.elapsed().as_nanos() as u64;
        self.0.fetch_add(ns, Ordering::Relaxed);
    }
}

/// A page scan that decodes only the kept columns, straight from pinned
/// page memory (no staging copy of the record bytes). Immutable: every
/// cursor of the pipeline reads through the same one.
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
        }
    }

    /// Decode whole pages of `pages`, advancing `at`, into `out` until
    /// at least `batch_size` rows are staged, and apply the scan
    /// predicate; `false` when `pages[*at..]` is empty. The page is the
    /// atomic decode unit — it stays pinned for exactly one pass — so a
    /// batch may exceed `batch_size` by up to one page of rows.
    fn fill(
        &self,
        pages: &[PageId],
        at: &mut usize,
        out: &mut Batch,
        batch_size: usize,
        scratch: &mut Vec<u32>,
    ) -> bool {
        out.clear();
        if out.columns.len() != self.col_types.len() {
            *out = Batch::for_types(&self.col_types);
        }
        let mut rows = 0usize;
        while rows < batch_size && *at < pages.len() {
            let page = pages[*at];
            *at += 1;
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
        out.set_physical_rows(rows);
        if let Some(pred) = &self.pred {
            pred.apply(out, scratch);
        }
        true
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
    /// Projected page scan, dealt to the pipeline's cursors as morsels.
    Scan(FusedScan),
    /// Opaque batch subtree (a non-fusable segment feeding this pipeline
    /// — the single genuine engine boundary below it), by its slot in
    /// the region's inputs. Degree 1 only: morsels are page ranges.
    Input(usize),
}

impl FusedSource {
    fn input(&self) -> Option<usize> {
        match self {
            FusedSource::Scan(_) => None,
            FusedSource::Input(slot) => Some(*slot),
        }
    }
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

/// One fused pipeline: source and stage chain, each step with the plan
/// nodes whose output is its own. Its sink is positional — a build
/// pipeline feeds the hash table of its own slot index, the output
/// pipeline streams the region's result.
pub(crate) struct FusedPipeline {
    pub(crate) source: FusedSource,
    pub(crate) nodes: Vec<usize>,
    pub(crate) stages: Vec<(FusedStage, Vec<usize>)>,
    pub(crate) stats: Arc<PipelineStats>,
}

/// A compiled region: what every thread that runs it shares, read-only.
pub(crate) struct RegionPlan {
    /// Build pipelines with what their tables store, in table-slot order
    /// (a pipeline may probe any earlier slot, never a later one).
    pub(crate) builds: Vec<(FusedPipeline, TableShape)>,
    pub(crate) output: FusedPipeline,
    /// Terminal aggregation sink, if the region ends in an aggregate.
    pub(crate) agg: Option<AggSink>,
    /// The plan's per-node row counts.
    pub(crate) cells: Arc<NodeCells>,
    /// Rows per batch (≥ 1); at degree `n` also pages per morsel and
    /// chaos injection.
    pub(crate) cfg: BatchConfig,
}

/// One run of one pipeline's source: the scanned heap's pages and the
/// queue that deals them to cursors as morsels. Both are empty over an
/// opaque input, which its one cursor pulls directly.
struct Feed {
    pages: Vec<PageId>,
    queue: StealQueue,
}

/// One pipeline being run: what all its cursors read.
struct Run<'a> {
    pipe: &'a FusedPipeline,
    feed: &'a Feed,
    /// The tables of the earlier build slots.
    tables: &'a [FusedTable],
    cells: &'a NodeCells,
    batch_size: usize,
}

/// One thread's reader of running pipelines: the unread rest of the
/// morsel it popped last, and the buffers it reuses across batches and
/// pipelines.
#[derive(Default)]
struct Cursor {
    at: usize,
    end: usize,
    /// The batch in flight of a pipeline whose sink is on this thread.
    work: Batch,
    /// What the source fills when a later stage writes a new batch: it
    /// keeps the source's columns from batch to batch.
    src: Batch,
    /// One output buffer per stage but the last that writes a new batch
    /// (a projection or a probe), indexed by stage.
    bufs: Vec<Batch>,
    sel: Vec<u32>,
    join: JoinScratch,
}

impl Cursor {
    /// The pipeline's next batch, in `out`: refill the source batch —
    /// from the rest of this cursor's morsel, else of the next one the
    /// queue deals to `worker`; or from the opaque input among `inputs` —
    /// and run the stage chain over it. `false` once the source is
    /// exhausted.
    fn next(
        &mut self,
        run: &Run<'_>,
        worker: usize,
        inputs: &mut [BoxedBatchOperator],
        out: &mut Batch,
    ) -> bool {
        let Run { pipe, feed, .. } = run;
        let stats = &*pipe.stats;
        let _t = stats.timed();
        // The last stage that writes a new batch: a projection or a probe.
        let last = pipe
            .stages
            .iter()
            .rposition(|(stage, _)| !matches!(stage, FusedStage::Filter(_)));
        let src = match last {
            Some(_) => &mut self.src,
            None => &mut *out,
        };
        let more = match &pipe.source {
            FusedSource::Scan(scan) => loop {
                let pages = &feed.pages[..self.end];
                if scan.fill(pages, &mut self.at, src, run.batch_size, &mut self.sel) {
                    break true;
                }
                let Some(m) = feed.queue.pop(worker) else {
                    break false;
                };
                // The page list was read when the morsels were cut, so
                // the range is in bounds.
                (self.at, self.end) = (m.start, m.end);
            },
            FusedSource::Input(slot) => inputs[*slot].next_batch(src),
        };
        if more {
            stats.batches.fetch_add(1, Ordering::Relaxed);
            run.cells.count(&pipe.nodes, src.live_rows());
            self.run_stages(run, last, out);
        }
        more
    }

    /// Run the stage chain over the source batch, counting each stage's
    /// output rows for its nodes. A filter selects in place; a projection
    /// or a probe writes a new batch: into `out` if it is the `last` to,
    /// else into its own buffer, so every buffer, the source's among
    /// them, keeps one shape from batch to batch. With no such stage the
    /// source filled `out` itself.
    fn run_stages(&mut self, run: &Run<'_>, last: Option<usize>, out: &mut Batch) {
        let stages = &run.pipe.stages;
        if self.bufs.len() < stages.len() {
            self.bufs.resize_with(stages.len(), Batch::default);
        }
        let Cursor {
            src,
            bufs,
            sel,
            join,
            ..
        } = self;
        let (mut cur, mut out) = match last {
            Some(_) => (src, Some(out)),
            None => (out, None),
        };
        for (i, ((stage, nodes), buf)) in stages.iter().zip(bufs).enumerate() {
            // `last` indexes a projection or a probe, never a filter.
            let into = if Some(i) == last {
                out.take().expect("one last writing stage")
            } else {
                buf
            };
            match stage {
                FusedStage::Filter(pred) => {
                    pred.apply(cur, sel);
                }
                FusedStage::Project(cols) => {
                    into.reset_columns(cols.len());
                    let sel = cur.sel.as_deref();
                    for (o, &c) in cols.iter().enumerate() {
                        into.columns[o].gather_from(&cur.columns[c], sel);
                    }
                    into.set_physical_rows(cur.live_rows());
                    cur = into;
                }
                FusedStage::Probe { table, keys, out } => {
                    run.tables[*table].probe(cur, keys, out, into, join);
                    cur = into;
                }
            }
            run.cells.count(nodes, cur.live_rows());
        }
    }

    /// Run a build pipeline dry, handing every batch to `sink`, which
    /// answers with the rows it stored.
    fn drain_build(
        &mut self,
        run: &Run<'_>,
        worker: usize,
        inputs: &mut [BoxedBatchOperator],
        mut sink: impl FnMut(&Batch, &mut JoinScratch) -> u64,
    ) {
        (self.at, self.end) = (0, 0);
        let mut work = std::mem::take(&mut self.work);
        while self.next(run, worker, inputs, &mut work) {
            let _t = run.pipe.stats.timed();
            let stored = sink(&work, &mut self.join);
            run.pipe.stats.rows.fetch_add(stored, Ordering::Relaxed);
        }
        self.work = work;
    }
}

/// The aggregation sink's state on the side of the exchange it runs on.
#[derive(Default)]
struct GroupSink {
    /// Filled by the first [`Self::deliver`].
    table: Option<GroupTable>,
    /// Groups already streamed out of [`Self::table`].
    emitted: usize,
    scratch: GroupScratch,
}

impl GroupSink {
    /// Deliver this side's next output batch. Without a `sink` here that
    /// is simply the next batch `pull` yields. With one, `pull` is first
    /// drained into the group table (the aggregation is a full-input
    /// barrier, like a hash-table build) and the groups stream out,
    /// `batch_size` at a time, counted for the sink's nodes.
    fn deliver(
        &mut self,
        sink: Option<&AggSink>,
        batch_size: usize,
        (stats, cells): (&PipelineStats, &NodeCells),
        pull: &mut dyn FnMut(&mut Batch) -> bool,
        out: &mut Batch,
    ) -> bool {
        let Some(sink) = sink else { return pull(out) };
        let table = self.table.get_or_insert_with(|| {
            let mut table = GroupTable::new(sink.group.len(), &sink.aggs);
            let mut work = Batch::default();
            while pull(&mut work) {
                let _t = stats.timed();
                match sink.mode {
                    AggMode::Complete | AggMode::Partial => {
                        table.accumulate(&work, &sink.group, &sink.aggs, &mut self.scratch)
                    }
                    AggMode::Final => table.merge_partial(&work, &sink.aggs, &mut self.scratch),
                };
            }
            // Grand total over an empty input still yields one row — from
            // the Complete or Final phase, never the per-worker Partial.
            if sink.group.is_empty() && sink.mode != AggMode::Partial {
                table.ensure_grand_total();
            }
            table
        });
        if self.emitted >= table.len() {
            return false;
        }
        let to = (self.emitted + batch_size).min(table.len());
        let partial = sink.mode == AggMode::Partial;
        table.emit(self.emitted..to, &sink.aggs, partial, out);
        cells.count(&[sink.node], to - self.emitted);
        self.emitted = to;
        true
    }
}

/// One thread's end of the output pipeline: its cursor and, if the
/// aggregation sits on its side of the exchange, the group table.
#[derive(Default)]
struct Side {
    cursor: Cursor,
    groups: GroupSink,
}

impl Side {
    /// The next batch this thread delivers from the output pipeline.
    fn next_batch(
        &mut self,
        run: &Run<'_>,
        worker: usize,
        inputs: &mut [BoxedBatchOperator],
        sink: Option<&AggSink>,
        out: &mut Batch,
    ) -> bool {
        let Side { cursor, groups } = self;
        let stats = &run.pipe.stats;
        let mut pull = |b: &mut Batch| {
            let more = cursor.next(run, worker, inputs, b);
            if more {
                stats
                    .rows
                    .fetch_add(b.live_rows() as u64, Ordering::Relaxed);
            }
            more
        };
        groups.deliver(sink, run.batch_size, (stats, run.cells), &mut pull, out)
    }
}

/// The fused-region operator: executes its build pipelines on `open`,
/// then streams the output pipeline batch by batch.
pub struct FusedRegion {
    plan: Arc<RegionPlan>,
    /// The opaque subtrees [`FusedSource::Input`] names.
    inputs: Vec<BoxedBatchOperator>,
    /// Cursors per pipeline: 1 runs them inline, `n` on the exchange.
    degree: usize,
    sched: Arc<MorselStats>,
    /// Degree 1: the built tables, the output pipeline's feed and this
    /// thread's side of it. At degree `n` the workers own tables and
    /// feed, and only `side.groups` is used, behind the exchange.
    tables: Vec<FusedTable>,
    feed: Option<Feed>,
    side: Side,
    exchange: Option<Exchange>,
}

impl FusedRegion {
    pub(crate) fn new(plan: RegionPlan, inputs: Vec<BoxedBatchOperator>, degree: usize) -> Self {
        debug_assert!(degree == 1 || inputs.is_empty());
        let sched = Arc::new(MorselStats::default());
        sched.set_workers(degree as u32);
        FusedRegion {
            plan: Arc::new(plan),
            inputs,
            degree,
            sched,
            tables: Vec::new(),
            feed: None,
            side: Side::default(),
            exchange: None,
        }
    }

    /// The region's scheduling counters (shared, live during execution).
    pub(crate) fn sched(&self) -> Arc<MorselStats> {
        self.sched.clone()
    }

    /// Cut `pipe`'s source into this run's morsels: at degree 1 one
    /// morsel covering the file, which keeps scan order (and no chaos
    /// injection — there is no worker to kill).
    fn feed(&self, pipe: &FusedPipeline) -> Feed {
        let pages = match &pipe.source {
            FusedSource::Scan(scan) => scan.heap.pages(),
            FusedSource::Input(_) => Vec::new(),
        };
        let cfg = &self.plan.cfg;
        let (morsel_pages, fail_at) = if self.degree == 1 {
            (usize::MAX, None)
        } else {
            let per_morsel = cfg.morsel_pages.unwrap_or(DEFAULT_MORSEL_PAGES);
            (per_morsel, cfg.fail_morsel)
        };
        let morsels = partition_pages(pages.len(), morsel_pages);
        let queue = StealQueue::new(morsels, self.degree, self.sched.clone(), fail_at);
        Feed { pages, queue }
    }

    /// Build the table of `run`'s pipeline on the exchange's workers:
    /// each scatters the batches of its cursor by key hash into buffers
    /// of its own, then the workers claim partitions and merge them.
    fn build_partitioned(&self, run: &Run<'_>, shape: &TableShape) -> FusedTable {
        let sched = &*self.sched;
        let buffers = scoped(self.degree, sched, |w| {
            let mut bufs = vec![Batch::default(); PARTITIONS];
            Cursor::default().drain_build(run, w, &mut [], |b, s| {
                FusedTable::scatter(shape, b, &mut bufs, s)
            });
            bufs
        });
        let next = AtomicUsize::new(0);
        let mergers = self.degree.min(PARTITIONS);
        sched.record_merge_workers(mergers as u32);
        let mut parts: Vec<(usize, TablePart)> = scoped(mergers, sched, |_| {
            let mut mine = Vec::new();
            loop {
                let p = next.fetch_add(1, Ordering::Relaxed);
                if p >= PARTITIONS {
                    break mine;
                }
                mine.push((p, TablePart::merged(shape, p, &buffers)));
                sched.record_partition_merge();
            }
        })
        .into_iter()
        .flatten()
        .collect();
        parts.sort_unstable_by_key(|(p, _)| *p);
        FusedTable::from_parts(shape, parts.into_iter().map(|(_, part)| part).collect())
    }
}

impl BatchOperator for FusedRegion {
    fn open(&mut self) {
        self.exchange = None;
        let plan = self.plan.clone();
        let batch_size = plan.cfg.batch_size;
        let mut tables: Vec<FusedTable> = Vec::with_capacity(plan.builds.len());
        for (pipe, shape) in &plan.builds {
            let input = pipe.source.input();
            if let Some(slot) = input {
                self.inputs[slot].open();
            }
            let feed = self.feed(pipe);
            let run = Run {
                pipe,
                feed: &feed,
                tables: &tables,
                cells: &plan.cells,
                batch_size,
            };
            let table = if self.degree == 1 {
                let mut table = FusedTable::new(shape);
                let (inputs, cursor) = (&mut self.inputs[..], &mut self.side.cursor);
                cursor.drain_build(&run, 0, inputs, |b, s| table.insert(b, s));
                table
            } else {
                self.build_partitioned(&run, shape)
            };
            tables.push(table);
            if let Some(slot) = input {
                self.inputs[slot].close();
            }
        }
        if let Some(slot) = plan.output.source.input() {
            self.inputs[slot].open();
        }
        let feed = self.feed(&plan.output);
        (self.side.cursor.at, self.side.cursor.end) = (0, 0);
        self.side.groups = GroupSink::default();
        if self.degree == 1 {
            self.tables = tables;
            self.feed = Some(feed);
        } else {
            let shared = Arc::new((tables, feed));
            let work = move |w: usize, emit: &mut dyn FnMut(Batch) -> bool| {
                let run = Run {
                    pipe: &plan.output,
                    feed: &shared.1,
                    tables: &shared.0,
                    cells: &plan.cells,
                    batch_size,
                };
                // Two-phase aggregation: fold every morsel into a
                // worker-local group table, then ship the partial groups
                // once the queue is dry — only summaries cross the
                // exchange.
                let sink = plan.agg.as_ref().filter(|s| s.mode == AggMode::Partial);
                let mut side = Side::default();
                let mut out = Batch::default();
                while side.next_batch(&run, w, &mut [], sink, &mut out) {
                    if out.live_rows() > 0 && !emit(std::mem::take(&mut out)) {
                        break;
                    }
                }
            };
            self.exchange = Some(Exchange::spawn(self.degree, &self.sched, work));
        }
    }

    fn next_batch(&mut self, out: &mut Batch) -> bool {
        let plan = &*self.plan;
        match &mut self.exchange {
            // Degree 1: this thread is the one worker.
            None => {
                let run = Run {
                    pipe: &plan.output,
                    feed: self.feed.as_ref().expect("next_batch() before open()"),
                    tables: &self.tables,
                    cells: &plan.cells,
                    batch_size: plan.cfg.batch_size,
                };
                let sink = plan.agg.as_ref();
                self.side.next_batch(&run, 0, &mut self.inputs, sink, out)
            }
            // Degree n: a Partial sink has run on the workers already;
            // any other sits here, draining the exchange.
            Some(exchange) => {
                let sink = plan.agg.as_ref().filter(|s| s.mode != AggMode::Partial);
                let counters = (&*plan.output.stats, &*plan.cells);
                let pull = &mut |b: &mut Batch| exchange.recv(b);
                self.side
                    .groups
                    .deliver(sink, plan.cfg.batch_size, counters, pull, out)
            }
        }
    }

    fn close(&mut self) {
        if let Some(slot) = self.plan.output.source.input() {
            self.inputs[slot].close();
        }
        self.exchange = None;
        self.tables.clear();
        self.feed = None;
        self.side.groups = GroupSink::default();
    }

    fn name(&self) -> &'static str {
        "fused_region"
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("pipelines", self.plan.builds.len() as u64 + 1),
            ("workers", u64::from(self.sched.workers())),
            ("threads", self.sched.threads()),
            ("morsels_dispatched", self.sched.dispatched()),
            ("morsels_stolen", self.sched.stolen()),
            ("partition_merges", self.sched.partition_merges()),
            ("merge_workers", u64::from(self.sched.merge_workers())),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
