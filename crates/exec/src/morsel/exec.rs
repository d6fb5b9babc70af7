//! Parallel pipeline execution: partitioned joins, workers, the gather
//! operator.
//!
//! Execution of a [`ParallelPlan`] proceeds pipeline by pipeline. Build
//! pipelines run to completion first (a hash join cannot probe an
//! unfinished table): a pool of scoped workers drains the pipeline's
//! morsel queue, each **partitioning** its rows by key hash into
//! per-worker buffers — no shared mutable state on the hot path — and a
//! second parallel pass merges each partition's buffers into the final
//! read-only [`JoinTable`]. The output pipeline then runs on detached
//! workers that stream result batches to the consumer over a bounded
//! channel, so the parallel region obeys the demand-driven
//! `open`/`next_batch`/`close` contract of every other operator (the
//! channel is Volcano's exchange in miniature: workers block when the
//! consumer falls behind).
//!
//! Worker panics (including injected chaos failures) are caught at the
//! worker boundary and surface as an error message to the consumer,
//! which re-raises on the query thread — never a deadlock, never a
//! silently truncated result.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use crossbeam::channel::{bounded, Receiver};
use volcano_core::fxhash::FxHashMap;

use crate::batch::{Batch, BatchOperator, Column};
use crate::compile::BatchConfig;
use crate::fused::{FusedPred, FusedScan, PipelineStats};
use crate::kernels::agg::{GroupScratch, GroupTable};
use crate::kernels::hash_join_keys;
use crate::pipeline::{ProbeCol, TableShape};

use super::plan::{ParallelPlan, Pipeline, Sink, Stage};
use super::{partition_pages, MorselStats, StealQueue, DEFAULT_MORSEL_PAGES};

/// Number of hash partitions per join table. A power of two well above
/// any plausible worker count, so the parallel merge pass load-balances.
const PARTITIONS: usize = 32;

/// One hash partition of a build side: compacted columns plus buckets
/// of partition-local row indices keyed by the precomputed key hash.
#[derive(Default)]
struct JoinPart {
    cols: Vec<Column>,
    buckets: FxHashMap<u64, Vec<u32>>,
}

/// An immutable partitioned hash-join table, shared by all probers.
pub(crate) struct JoinTable {
    parts: Vec<JoinPart>,
    /// Key column positions in the table (for exact-match verification).
    keys: Vec<usize>,
}

/// Per-worker partition buffer filled during the build phase.
#[derive(Default)]
struct PartBuffer {
    cols: Vec<Column>,
    /// Key hash of each buffered row (recomputing at merge would work
    /// but hashing is the build phase's hottest kernel).
    hashes: Vec<u64>,
}

/// Per-worker scratch reused across batches.
#[derive(Default)]
struct Scratch {
    hashes: Vec<Option<u64>>,
    sel: Vec<u32>,
    live: Vec<u32>,
    pred_sel: Vec<u32>,
    part_sel: Vec<Vec<u32>>,
    part_hash: Vec<Vec<u64>>,
    /// Per-partition (build rows, probe rows) match pairs.
    pairs: Vec<(Vec<u32>, Vec<u32>)>,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            part_sel: (0..PARTITIONS).map(|_| Vec::new()).collect(),
            part_hash: (0..PARTITIONS).map(|_| Vec::new()).collect(),
            pairs: (0..PARTITIONS).map(|_| (Vec::new(), Vec::new())).collect(),
            ..Scratch::default()
        }
    }
}

impl JoinTable {
    /// Probe every live row of `input` and materialize the columns
    /// `cols` names of each match into `out`. Row order interleaves
    /// partitions, which is fine: the region delivers no order.
    fn probe_into(
        &self,
        input: &Batch,
        probe_keys: &[usize],
        cols: &[ProbeCol],
        out: &mut Batch,
        s: &mut Scratch,
    ) {
        hash_join_keys(input, probe_keys, &mut s.hashes, &mut s.sel);
        s.live.clear();
        s.live.extend_from_slice(input.live_indices(&mut s.sel));
        for (pb, pp) in s.pairs.iter_mut() {
            pb.clear();
            pp.clear();
        }
        for (pos, h) in s.hashes.iter().enumerate() {
            let Some(h) = *h else { continue };
            let part = &self.parts[(h as usize) % PARTITIONS];
            let Some(bucket) = part.buckets.get(&h) else {
                continue;
            };
            let phys = s.live[pos];
            for &b in bucket {
                let matches = self.keys.iter().zip(probe_keys).all(|(&bk, &pk)| {
                    part.cols[bk].rows_eq(b as usize, &input.columns[pk], phys as usize)
                });
                if matches {
                    let (pb, pp) = &mut s.pairs[(h as usize) % PARTITIONS];
                    pb.push(b);
                    pp.push(phys);
                }
            }
        }
        out.reset_columns(cols.len());
        let mut total = 0usize;
        for (p, (pb, pp)) in s.pairs.iter().enumerate() {
            if pb.is_empty() {
                continue;
            }
            for (dst, col) in out.columns.iter_mut().zip(cols) {
                match *col {
                    ProbeCol::Build(i) => dst.gather_from(&self.parts[p].cols[i], Some(pb)),
                    ProbeCol::Probe(j) => dst.gather_from(&input.columns[j], Some(pp)),
                }
            }
            total += pb.len();
        }
        out.set_physical_rows(total);
    }
}

/// Scatter the stored columns of the live, non-NULL-keyed rows of
/// `batch` into the worker's per-partition buffers.
fn partition_batch(batch: &Batch, shape: &TableShape, locals: &mut [PartBuffer], s: &mut Scratch) {
    hash_join_keys(batch, &shape.keys, &mut s.hashes, &mut s.sel);
    s.live.clear();
    s.live.extend_from_slice(batch.live_indices(&mut s.sel));
    for (ps, ph) in s.part_sel.iter_mut().zip(s.part_hash.iter_mut()) {
        ps.clear();
        ph.clear();
    }
    for (pos, h) in s.hashes.iter().enumerate() {
        if let Some(h) = *h {
            let p = (h as usize) % PARTITIONS;
            s.part_sel[p].push(s.live[pos]);
            s.part_hash[p].push(h);
        }
    }
    for (p, buf) in locals.iter_mut().enumerate() {
        if s.part_sel[p].is_empty() {
            continue;
        }
        let stored = || shape.cols.iter().map(|&c| &batch.columns[c]);
        if buf.cols.is_empty() {
            buf.cols = stored().map(Column::empty_like).collect();
        }
        for (dst, src) in buf.cols.iter_mut().zip(stored()) {
            dst.gather_from(src, Some(&s.part_sel[p]));
        }
        buf.hashes.extend_from_slice(&s.part_hash[p]);
    }
}

/// Concatenate one partition's per-worker buffers and index it.
fn merge_partition(p: usize, worker_bufs: &[Vec<PartBuffer>]) -> JoinPart {
    let mut part = JoinPart::default();
    let mut count = 0u32;
    for bufs in worker_bufs {
        let b = &bufs[p];
        if b.hashes.is_empty() {
            continue;
        }
        if part.cols.is_empty() {
            part.cols = b.cols.iter().map(Column::empty_like).collect();
        }
        for (dst, src) in part.cols.iter_mut().zip(&b.cols) {
            dst.gather_from(src, None);
        }
        for (i, &h) in b.hashes.iter().enumerate() {
            part.buckets.entry(h).or_default().push(count + i as u32);
        }
        count += b.hashes.len() as u32;
    }
    part
}

/// Drive one worker through `pipe`: pop morsels until the queue is dry,
/// run the fused stage chain on each batch, hand non-empty results to
/// `emit`. `emit` returning `false` aborts (the consumer is gone).
fn run_pipeline(
    pipe: &Pipeline,
    tables: &[Arc<JoinTable>],
    queue: &StealQueue,
    worker: usize,
    batch_size: usize,
    emit: &mut dyn FnMut(&mut Batch) -> bool,
) {
    let pages = pipe.source.heap.pages();
    let mut scan = FusedScan::new(
        pipe.source.heap.clone(),
        pipe.source.col_types.clone(),
        pipe.source.keep.clone(),
        pipe.source.pred.as_ref().map(FusedPred::compile),
    );
    // The scan's row counters feed the serial engine's feedback harvest;
    // a worker sees only its morsels, so here they are dropped.
    let stats = PipelineStats::default();
    let mut s = Scratch::new();
    let mut cur = Batch::default();
    let mut tmp = Batch::default();
    while let Some(m) = queue.pop(worker) {
        let end = m.end.min(pages.len());
        scan.reset_pages(&pages[m.start.min(end)..end]);
        while scan.fill(&mut cur, batch_size, &stats) {
            for stage in &pipe.stages {
                if cur.live_rows() == 0 {
                    break;
                }
                match stage {
                    Stage::Filter(pred) => {
                        pred.apply(&mut cur, &mut s.pred_sel);
                    }
                    Stage::Project(positions) => {
                        tmp.reset_columns(positions.len());
                        let sel = cur.sel.as_deref();
                        for (o, &p) in positions.iter().enumerate() {
                            tmp.columns[o].gather_from(&cur.columns[p], sel);
                        }
                        tmp.set_physical_rows(cur.live_rows());
                        std::mem::swap(&mut cur, &mut tmp);
                    }
                    Stage::Probe { table, keys, out } => {
                        tables[*table].probe_into(&cur, keys, out, &mut tmp, &mut s);
                        std::mem::swap(&mut cur, &mut tmp);
                    }
                }
            }
            if cur.live_rows() > 0 && !emit(&mut cur) {
                return;
            }
        }
    }
}

/// Run one build pipeline to completion on `degree` scoped workers and
/// merge the result into an immutable [`JoinTable`].
#[allow(clippy::too_many_arguments)]
fn build_table(
    pipe: &Pipeline,
    tables: &[Arc<JoinTable>],
    shape: &TableShape,
    degree: usize,
    morsel_pages: usize,
    batch_size: usize,
    stats: &Arc<MorselStats>,
    fail_at: Option<u64>,
) -> JoinTable {
    let n_pages = pipe.source.heap.pages().len();
    let queue = StealQueue::new(
        partition_pages(n_pages, morsel_pages),
        degree,
        stats.clone(),
        fail_at,
    );
    let collected: Mutex<Vec<Vec<PartBuffer>>> = Mutex::new(Vec::new());
    // The scope join is the phase barrier: every worker is joined
    // explicitly so a panicking worker's *original* payload (e.g. an
    // injected chaos failure) reaches the consumer after the survivors
    // drain, instead of the scope's generic panic message.
    thread::scope(|sc| {
        let handles: Vec<_> = (0..degree)
            .map(|w| {
                let queue = &queue;
                let collected = &collected;
                sc.spawn(move || {
                    let mut locals: Vec<PartBuffer> =
                        (0..PARTITIONS).map(|_| PartBuffer::default()).collect();
                    let mut s = Scratch::new();
                    run_pipeline(pipe, tables, queue, w, batch_size, &mut |b| {
                        partition_batch(b, shape, &mut locals, &mut s);
                        true
                    });
                    collected.lock().unwrap().push(locals);
                })
            })
            .collect();
        let mut first_panic: Option<Box<dyn Any + Send>> = None;
        for h in handles {
            if let Err(p) = h.join() {
                first_panic.get_or_insert(p);
            }
        }
        if let Some(p) = first_panic {
            std::panic::resume_unwind(p);
        }
    });
    let worker_bufs = collected.into_inner().unwrap();
    let parts: Vec<Mutex<JoinPart>> = (0..PARTITIONS)
        .map(|_| Mutex::new(JoinPart::default()))
        .collect();
    let next = AtomicUsize::new(0);
    let merge_degree = degree.min(PARTITIONS);
    stats.record_merge_workers(merge_degree as u32);
    thread::scope(|sc| {
        for _ in 0..merge_degree {
            let next = &next;
            let parts = &parts;
            let worker_bufs = &worker_bufs;
            let stats = &stats;
            sc.spawn(move || loop {
                let p = next.fetch_add(1, Ordering::Relaxed);
                if p >= PARTITIONS {
                    break;
                }
                *parts[p].lock().unwrap() = merge_partition(p, worker_bufs);
                stats.record_partition_merge();
            });
        }
    });
    JoinTable {
        parts: parts.into_iter().map(|m| m.into_inner().unwrap()).collect(),
        keys: shape.table_keys.clone(),
    }
}

fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// The batch operator at the root of a morsel-parallel region.
///
/// `open` runs the plan's build pipelines to completion on scoped
/// workers, then spawns the output pipeline's worker pool; `next_batch`
/// receives result batches from the pool over a bounded channel, in
/// whatever order workers produce them. A worker panic is re-raised on
/// the consuming thread with the worker's message. Serial consumers
/// therefore see an ordinary [`BatchOperator`] — parallelism stays
/// encapsulated behind the gather, exactly as the exchange operator
/// encapsulates it in Volcano.
pub struct ParallelGather {
    plan: Arc<ParallelPlan>,
    degree: usize,
    batch_size: usize,
    morsel_pages: usize,
    fail_morsel: Option<u64>,
    stats: Arc<MorselStats>,
    rx: Option<Receiver<Result<Batch, String>>>,
    workers: Vec<thread::JoinHandle<()>>,
    batches_out: u64,
    rows_out: u64,
}

impl ParallelGather {
    /// A gather over `plan` with a pool of `degree` workers.
    pub fn new(plan: Arc<ParallelPlan>, degree: usize, cfg: BatchConfig) -> Self {
        let degree = degree.max(1);
        let stats = Arc::new(MorselStats::default());
        stats.set_workers(degree as u32);
        stats.set_scan_columns(plan.scan_columns());
        ParallelGather {
            plan,
            degree,
            batch_size: cfg.batch_size.max(1),
            morsel_pages: cfg.morsel_pages.unwrap_or(DEFAULT_MORSEL_PAGES).max(1),
            fail_morsel: cfg.fail_morsel,
            stats,
            rx: None,
            workers: Vec::new(),
            batches_out: 0,
            rows_out: 0,
        }
    }

    /// The region's scheduling counters (shared, live during execution).
    pub fn stats(&self) -> Arc<MorselStats> {
        self.stats.clone()
    }

    /// Tear down the worker pool: dropping the receiver first fails all
    /// pending sends, so blocked workers exit before we join them.
    fn shutdown(&mut self) {
        self.rx = None;
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl BatchOperator for ParallelGather {
    fn open(&mut self) {
        self.shutdown();
        let (output, builds) = self
            .plan
            .pipelines
            .split_last()
            .expect("a parallel plan has at least its output pipeline");
        let mut tables: Vec<Arc<JoinTable>> = Vec::new();
        for pipe in builds {
            let Sink::Build { table, shape } = &pipe.sink else {
                unreachable!("non-terminal pipelines end in a build sink")
            };
            debug_assert_eq!(*table, tables.len(), "build slots are pipeline indices");
            tables.push(Arc::new(build_table(
                pipe,
                &tables,
                shape,
                self.degree,
                self.morsel_pages,
                self.batch_size,
                &self.stats,
                self.fail_morsel,
            )));
        }
        let queue = Arc::new(StealQueue::new(
            partition_pages(output.source.heap.pages().len(), self.morsel_pages),
            self.degree,
            self.stats.clone(),
            self.fail_morsel,
        ));
        let tables = Arc::new(tables);
        let (tx, rx) = bounded::<Result<Batch, String>>(self.degree * 2);
        for w in 0..self.degree {
            let plan = self.plan.clone();
            let tables = tables.clone();
            let queue = queue.clone();
            let tx = tx.clone();
            let batch_size = self.batch_size;
            self.workers.push(thread::spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let pipe = plan.pipelines.last().expect("output pipeline");
                    match &pipe.sink {
                        // Two-phase aggregation: fold every morsel into a
                        // worker-local group table, then ship the partial
                        // groups once the queue is dry — only summaries
                        // cross the gather.
                        Sink::PartialAgg { group, aggs } => {
                            let mut table = GroupTable::new(group.len(), aggs);
                            let mut scratch = GroupScratch::default();
                            run_pipeline(pipe, &tables, &queue, w, batch_size, &mut |b| {
                                table.accumulate(b, group, aggs, &mut scratch);
                                true
                            });
                            let mut out = Batch::default();
                            let mut from = 0;
                            while from < table.len() {
                                let to = (from + batch_size).min(table.len());
                                table.emit(from..to, aggs, true, &mut out);
                                if tx.send(Ok(std::mem::take(&mut out))).is_err() {
                                    break;
                                }
                                from = to;
                            }
                        }
                        _ => {
                            run_pipeline(pipe, &tables, &queue, w, batch_size, &mut |b| {
                                tx.send(Ok(std::mem::take(b))).is_ok()
                            });
                        }
                    }
                }));
                if let Err(p) = result {
                    // Consumer gone is fine — the panic dies with us.
                    let _ = tx.send(Err(panic_message(p.as_ref())));
                }
            }));
        }
        self.rx = Some(rx);
    }

    fn next_batch(&mut self, out: &mut Batch) -> bool {
        out.clear();
        let Some(rx) = &self.rx else { return false };
        let received = rx.recv();
        match received {
            Ok(Ok(b)) => {
                self.batches_out += 1;
                self.rows_out += b.live_rows() as u64;
                *out = b;
                true
            }
            Ok(Err(msg)) => {
                self.shutdown();
                panic!("morsel worker failed: {msg}");
            }
            // Every sender dropped: the pool drained all morsels.
            Err(_) => {
                self.shutdown();
                false
            }
        }
    }

    fn close(&mut self) {
        self.shutdown();
    }

    fn name(&self) -> &'static str {
        "parallel_gather"
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("workers", u64::from(self.stats.workers())),
            ("morsels_dispatched", self.stats.dispatched()),
            ("morsels_stolen", self.stats.stolen()),
            ("partition_merges", self.stats.partition_merges()),
            ("merge_workers", u64::from(self.stats.merge_workers())),
            ("cols_decoded", u64::from(self.stats.scan_columns().0)),
            ("cols_total", u64::from(self.stats.scan_columns().1)),
            ("batches", self.batches_out),
            ("rows", self.rows_out),
        ]
    }
}

impl Drop for ParallelGather {
    fn drop(&mut self) {
        self.shutdown();
    }
}
