//! Lowering a physical plan to the vectorized engine.
//!
//! The lowering breaks the plan into maximal *regions* of pipelineable
//! operators — scans, filters, projections, hash joins, found by the
//! shared walk in [`crate::pipeline`] — and compiles each region into
//! one [`FusedRegion`] operator whose pipelines run as single loops
//! with monomorphized kernels. A region may be as small as one operator
//! (a filter directly over a sort) or span a whole multi-join query. A
//! hash aggregate above a pipelineable chain terminates the region's
//! output pipeline in an aggregation sink, so
//! `scan→filter→project→aggregate` runs as one loop (an aggregate over
//! anything else runs batch-native instead — never through a tuple
//! adapter). Every other operator (sorts, set ops, merge/nested/multiway
//! joins, index scans) runs on its tuple operator, with at most one
//! adapter per genuine engine boundary; a pipelineable chain *above*
//! such an operator still fuses, treating the fallback subtree as an
//! opaque batch input.
//!
//! Three plan-time rewrites apply inside a pipeline:
//!
//! 1. **Filter absorption** — leading filter stages merge into the scan
//!    predicate, so selection happens during page decode.
//! 2. **Scan projection pushdown** — when only filters precede the
//!    first projection, the scan decodes exactly the columns the
//!    pipeline touches (via `decode_record_projected`); skipped string
//!    payloads are never UTF-8 validated or copied.
//! 3. **Probe/project fusion** — a projection directly above a hash
//!    probe folds into the probe's output map, so join results gather
//!    only the columns the query keeps, never the full build ++ probe
//!    concatenation.
//!
//! `Gather(n)` nodes compile to the morsel-parallel executor, which
//! maps the same decomposition to its worker pipelines (and shares the
//! predicate kernels), so regions compose with work stealing unchanged.

use std::sync::Arc;

use volcano_rel::catalog::ColType;
use volcano_rel::{AggSpec, AttrId, JoinPred, Pred, RelAlg, RelPlan};

use crate::batch::BoxedBatchOperator;
use crate::compile::{
    compile_agg_spec, compile_node_at, partial_layout_aggs, schema_of_at, BatchConfig, Built,
};
use crate::database::{Database, SchemaSnapshot};
use crate::fused::pred::FusedPred;
use crate::fused::region::{
    AggSink, FusedPipeline, FusedRegion, FusedScan, FusedSource, FusedStage, PipelineStats,
    ProbeCol,
};
use crate::kernels::agg::AggMode;
use crate::ops::{BatchHashAggregate, CompiledPred};
use crate::pipeline::{decompose, BuildIR, SourceIR, StageIR};

/// What the fused compiler did to one pipeline, with live counters.
#[derive(Debug)]
pub struct PipelineInfo {
    /// Human-readable shape, e.g. `scan+filter→probe+project`.
    pub label: String,
    /// Plan operators fused into this pipeline (source + stages + build
    /// sink), counted before rewrites merge them.
    pub operators: usize,
    /// Does this pipeline feed a hash-table build?
    pub build: bool,
    /// Execution counters, shared with the running region.
    pub stats: Arc<PipelineStats>,
    /// The relational predicate the pipeline's source scan applies
    /// (original scan predicate plus any absorbed leading filters).
    /// Observed scan selectivity is `stats.source_out / stats.source_rows`.
    pub scan_pred: Option<Pred>,
    /// When the pipeline has exactly one probe stage: its join predicate
    /// and the report index of the build pipeline it probes. Observed
    /// join selectivity is `probe_out / (probe_in × build.stats.rows)`.
    pub probe_join: Option<(JoinPred, usize)>,
}

/// Compile-time report of the whole fused plan: what fused, what fell
/// back, where the engine boundaries are.
#[derive(Debug, Default)]
pub struct FusedReport {
    /// Every fused pipeline, across all regions of the plan.
    pub pipelines: Vec<PipelineInfo>,
    /// Names of plan operators that fell back to the tuple engine.
    pub fallback_ops: Vec<&'static str>,
    /// Adapter hops inserted at engine boundaries.
    pub adapters: usize,
    /// Morsel-parallel gather regions in the plan.
    pub parallel_regions: usize,
    /// Terminal aggregation sinks fused into region output pipelines.
    pub agg_sinks: usize,
}

impl FusedReport {
    /// Number of fused pipelines in the plan.
    pub fn pipelines_fused(&self) -> usize {
        self.pipelines.len()
    }

    /// Harvest selectivity observations from the per-pipeline counters
    /// (meaningful after the plan executed): scan predicates from the
    /// pre-/post-predicate source counts, single-probe joins from the
    /// probe in/out counts against the build pipeline's inserted rows.
    /// Pipelines without harvest hints contribute nothing.
    pub fn observations(&self) -> Vec<volcano_rel::Observation> {
        let mut out = Vec::new();
        for p in &self.pipelines {
            if let Some(pred) = &p.scan_pred {
                volcano_rel::pred_observations(
                    pred,
                    p.stats.source_out(),
                    p.stats.source_rows(),
                    &mut out,
                );
            }
            if let Some((join, build_idx)) = &p.probe_join {
                if let Some(b) = self.pipelines.get(*build_idx) {
                    volcano_rel::join_observations(
                        join,
                        p.stats.probe_out(),
                        b.stats.rows(),
                        p.stats.probe_in(),
                        &mut out,
                    );
                }
            }
        }
        out
    }

    /// Number of non-fusable plan segments (fallback operators).
    pub fn fallback_segments(&self) -> usize {
        self.fallback_ops.len()
    }

    /// Render the report (used by `EXPLAIN ANALYZE`). Timing lines are
    /// meaningful only after the plan has executed.
    pub fn lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "fused: {} pipeline(s), {} fallback segment(s), {} adapter(s), {} parallel region(s), {} agg sink(s)",
            self.pipelines.len(),
            self.fallback_ops.len(),
            self.adapters,
            self.parallel_regions,
            self.agg_sinks,
        )];
        if !self.fallback_ops.is_empty() {
            out.push(format!("  fallback ops: {}", self.fallback_ops.join(", ")));
        }
        for (i, p) in self.pipelines.iter().enumerate() {
            out.push(format!(
                "  pipeline {i}{}: {} · {} op(s) fused · {} rows · {} batches · {} ns",
                if p.build { " [build]" } else { "" },
                p.label,
                p.operators,
                p.stats.rows(),
                p.stats.batches(),
                p.stats.ns(),
            ));
        }
        out
    }
}

/// A plan compiled for the vectorized engine.
pub struct CompiledFused {
    /// The root batch operator.
    pub operator: BoxedBatchOperator,
    /// Output attribute ids, in column position order.
    pub schema: Vec<AttrId>,
    /// Scheduling counters of each morsel-parallel gather region in the
    /// tree (empty for serial plans); live while the plan executes, for
    /// post-run trace reporting.
    pub gathers: Vec<Arc<crate::morsel::MorselStats>>,
    /// What fused, what fell back.
    pub report: FusedReport,
}

/// Compile a plan for the vectorized engine (the current schema
/// snapshot).
pub fn compile_fused(db: &Database, plan: &RelPlan, cfg: BatchConfig) -> CompiledFused {
    compile_fused_at(db, &db.snapshot(), plan, cfg)
}

/// [`compile_fused`] against a pinned schema snapshot.
pub(crate) fn compile_fused_at(
    db: &Database,
    sch: &SchemaSnapshot,
    plan: &RelPlan,
    cfg: BatchConfig,
) -> CompiledFused {
    compile_fused_with(db, sch, plan, cfg, false)
}

/// Full-control entry point: `serial_gather` degrades every gather node
/// to a serial pass-through (the EXPLAIN ANALYZE path uses this so the
/// per-pipeline counters cover the whole input, not a worker's share).
pub(crate) fn compile_fused_with(
    db: &Database,
    sch: &SchemaSnapshot,
    plan: &RelPlan,
    cfg: BatchConfig,
    serial_gather: bool,
) -> CompiledFused {
    let mut f = Fuser {
        db,
        sch,
        cfg,
        serial_gather,
        gathers: Vec::new(),
        report: FusedReport::default(),
    };
    let (operator, schema) = f.build_batch(plan);
    CompiledFused {
        operator,
        schema,
        gathers: f.gathers,
        report: f.report,
    }
}

struct Fuser<'a> {
    db: &'a Database,
    sch: &'a SchemaSnapshot,
    cfg: BatchConfig,
    serial_gather: bool,
    gathers: Vec<Arc<crate::morsel::MorselStats>>,
    report: FusedReport,
}

impl Fuser<'_> {
    /// Compile `plan` into a [`Built`] subtree, fusing the maximal
    /// region rooted at each pipelineable node.
    fn build_tree(&mut self, plan: &RelPlan) -> Built {
        // A gather runs its subtree as morsel-driven parallel pipelines
        // when the subtree's shape supports it; otherwise (or at degree
        // 1) it degrades to a serial pass-through with identical rows.
        if let RelAlg::Gather(n) = &plan.alg {
            if *n > 1 && !self.serial_gather {
                if let Some(par) = crate::morsel::compile_parallel(self.sch, &plan.inputs[0]) {
                    let op =
                        crate::morsel::ParallelGather::new(Arc::new(par), *n as usize, self.cfg);
                    self.gathers.push(op.stats());
                    self.report.parallel_regions += 1;
                    return Built::B(Box::new(op));
                }
            }
            return self.build_tree(&plan.inputs[0]);
        }
        // Hash aggregates terminate a fused pipeline in an aggregation
        // sink (or run batch-native over a non-pipelineable child) —
        // they never fall back to the tuple engine.
        match &plan.alg {
            RelAlg::HashAggregate(spec) => {
                return self.build_aggregate(plan, spec, AggMode::Complete)
            }
            RelAlg::PartialHashAggregate(spec, _) => {
                return self.build_aggregate(plan, spec, AggMode::Partial)
            }
            RelAlg::FinalHashAggregate(spec) => {
                return self.build_aggregate(plan, spec, AggMode::Final)
            }
            _ => {}
        }
        if let Some(region) = self.build_region(plan, None) {
            return Built::B(region);
        }
        // Non-pipelineable root: compile this node on the tuple engine
        // over recursively built children; each batch child costs
        // exactly one adapter at this genuine engine boundary.
        let children: Vec<Built> = plan.inputs.iter().map(|c| self.build_tree(c)).collect();
        self.report.adapters += children.iter().filter(|c| matches!(c, Built::B(_))).count();
        self.report.fallback_ops.push(fallback_name(&plan.alg));
        let tuple_children = children.into_iter().map(Built::into_tuple).collect();
        Built::T(compile_node_at(self.db, self.sch, plan, tuple_children))
    }

    /// Compile `plan` to a batch operator (returned with its output
    /// schema); a tuple root costs one adapter.
    fn build_batch(&mut self, plan: &RelPlan) -> (BoxedBatchOperator, Vec<AttrId>) {
        let schema = schema_of_at(self.sch, plan);
        let built = self.build_tree(plan);
        if matches!(built, Built::T(_)) {
            self.report.adapters += 1;
        }
        (built.into_batch(schema.len(), self.cfg.batch_size), schema)
    }

    /// Compile a hash aggregate. When the child subtree is pipelineable,
    /// the aggregation becomes the region's terminal sink — the whole
    /// `scan→filter→project→aggregate` chain runs as one loop. When it
    /// is not (a gather, sort, or another aggregate below), the child
    /// compiles as a batch subtree and a batch-native
    /// [`BatchHashAggregate`] runs above it; either way no tuple adapter
    /// is inserted for the aggregate itself.
    fn build_aggregate(&mut self, plan: &RelPlan, spec: &AggSpec, mode: AggMode) -> Built {
        let child = &plan.inputs[0];
        let (group, aggs) = match mode {
            // A final aggregate consumes the partial row layout: group
            // keys lead, each aggregate's partial value follows.
            AggMode::Final => (
                (0..spec.group_by.len()).collect::<Vec<_>>(),
                partial_layout_aggs(spec),
            ),
            _ => compile_agg_spec(&schema_of_at(self.sch, child), spec),
        };
        let sink = AggSink {
            group: group.clone(),
            aggs: aggs.clone(),
            mode,
        };
        if let Some(region) = self.build_region(child, Some(sink)) {
            return Built::B(region);
        }
        let (input, _) = self.build_batch(child);
        Built::B(Box::new(BatchHashAggregate::new(
            input,
            group,
            aggs,
            mode,
            self.cfg.batch_size,
        )))
    }

    /// Decompose the pipelineable region rooted at `plan` and lower it,
    /// ending its output pipeline in `agg` if given. Inputs the walk
    /// cannot continue through compile as opaque batch sources — the
    /// one genuine engine boundary below their pipeline. `None`, with
    /// nothing compiled, when `plan`'s own root is not pipelineable.
    fn build_region(&mut self, plan: &RelPlan, agg: Option<AggSink>) -> Option<BoxedBatchOperator> {
        let mut builds = Vec::new();
        let sch = self.sch;
        let chain = decompose(sch, plan, &mut builds, &mut |input| {
            let (op, schema) = self.build_batch(input);
            Some(SourceIR::Input {
                op,
                arity: schema.len(),
            })
        });
        let (source, stages) = chain.ok()?;
        Some(self.lower_region(builds, source, stages, agg))
    }

    /// Lower a decomposed region to the runtime operator, registering
    /// every pipeline in the report.
    fn lower_region(
        &mut self,
        builds: Vec<BuildIR>,
        source: SourceIR,
        stages: Vec<StageIR>,
        agg: Option<AggSink>,
    ) -> BoxedBatchOperator {
        let table_shapes: Vec<(usize, Vec<usize>)> =
            builds.iter().map(|b| (b.ncols, b.keys.clone())).collect();
        // Build pipelines land in the report at `first + slot`, before
        // the output pipeline — harvest hints use those indices.
        let first = self.report.pipelines.len();
        let build_pipes: Vec<FusedPipeline> = builds
            .into_iter()
            .map(|b| {
                let hints = harvest_hints(&b.source, &b.stages, first);
                let pipe = self.lower_pipeline(b.source, b.stages, true);
                self.set_hints(hints);
                pipe
            })
            .collect();
        let hints = harvest_hints(&source, &stages, first);
        let output = self.lower_pipeline(source, stages, false);
        self.set_hints(hints);
        let mut region = FusedRegion::new(build_pipes, output, table_shapes, self.cfg.batch_size);
        if let Some(sink) = agg {
            let info = self.report.pipelines.last_mut().expect("output pipeline");
            info.label.push('→');
            info.label.push_str(match sink.mode {
                AggMode::Complete => "agg",
                AggMode::Partial => "partial_agg",
                AggMode::Final => "final_agg",
            });
            info.operators += 1;
            self.report.agg_sinks += 1;
            region = region.with_agg(sink);
        }
        Box::new(region)
    }

    /// Lower one pipeline: apply the rewrites (filter absorption, scan
    /// projection pushdown, probe/project fusion), monomorphize the
    /// kernels, and record the pipeline in the report.
    fn lower_pipeline(
        &mut self,
        source: SourceIR,
        mut stages: Vec<StageIR>,
        build: bool,
    ) -> FusedPipeline {
        // Plan operators this pipeline covers, before rewrites merge
        // them: the source, each stage, and the build sink if any.
        let operators = 1 + stages.len() + usize::from(build);
        let mut absorbed_filters = false;
        let (src, mut width) = match source {
            SourceIR::Scan {
                heap,
                mut col_types,
                mut pred,
                rel_pred: _,
            } => {
                // Rewrite 1: absorb leading filters into the scan
                // predicate (conjunct order is preserved, so the
                // narrowing matches filtering stage by stage exactly).
                let absorb = stages
                    .iter()
                    .take_while(|s| matches!(s, StageIR::Filter(..)))
                    .count();
                for stage in stages.drain(..absorb) {
                    let StageIR::Filter(cp, _) = stage else {
                        unreachable!()
                    };
                    absorbed_filters = true;
                    let mut terms = pred.map(|p| p.terms().to_vec()).unwrap_or_default();
                    terms.extend(cp.terms().iter().cloned());
                    pred = Some(CompiledPred::new(terms));
                }
                // Rewrite 2: when a projection is the first non-filter
                // stage, decode only the columns the pipeline touches.
                let keep = prune_scan(&mut col_types, &mut pred, &mut stages);
                let w = col_types.len();
                (
                    FusedSource::Scan(FusedScan::new(
                        heap,
                        col_types,
                        keep,
                        pred.map(|p| FusedPred::compile(&p)),
                    )),
                    w,
                )
            }
            SourceIR::Input { op, arity } => (FusedSource::Input(op), arity),
        };
        // Lower the remaining stages, fusing `probe → project` pairs
        // into the probe's output map (rewrite 3).
        let mut lowered: Vec<FusedStage> = Vec::new();
        let mut labels: Vec<&'static str> = Vec::new();
        let mut i = 0;
        while i < stages.len() {
            match &stages[i] {
                StageIR::Filter(cp, _) => {
                    lowered.push(FusedStage::Filter(FusedPred::compile(cp)));
                    labels.push("filter");
                }
                StageIR::Project(cols) => {
                    width = cols.len();
                    lowered.push(FusedStage::Project(cols.clone()));
                    labels.push("project");
                }
                StageIR::Probe {
                    table,
                    keys,
                    build_ncols,
                    join: _,
                } => {
                    let (out, label) = match stages.get(i + 1) {
                        Some(StageIR::Project(cols)) => {
                            let map = cols
                                .iter()
                                .map(|&c| {
                                    if c < *build_ncols {
                                        ProbeCol::Build(c)
                                    } else {
                                        ProbeCol::Probe(c - build_ncols)
                                    }
                                })
                                .collect::<Vec<_>>();
                            width = map.len();
                            i += 1; // consume the project
                            (map, "probe+project")
                        }
                        _ => {
                            let map = (0..*build_ncols)
                                .map(ProbeCol::Build)
                                .chain((0..width).map(ProbeCol::Probe))
                                .collect::<Vec<_>>();
                            width = map.len();
                            (map, "probe")
                        }
                    };
                    lowered.push(FusedStage::Probe {
                        table: *table,
                        keys: keys.clone(),
                        out,
                    });
                    labels.push(label);
                }
            }
            i += 1;
        }
        let _ = width;
        let mut label = String::new();
        label.push_str(match &src {
            FusedSource::Scan(_) if absorbed_filters => "scan+filter",
            FusedSource::Scan(_) => "scan",
            FusedSource::Input(op) => op.name(),
        });
        for l in &labels {
            label.push('→');
            label.push_str(l);
        }
        if build {
            label.push_str("→build");
        }
        let stats = Arc::new(PipelineStats::default());
        self.report.pipelines.push(PipelineInfo {
            label,
            operators,
            build,
            stats: stats.clone(),
            scan_pred: None,
            probe_join: None,
        });
        FusedPipeline {
            source: src,
            stages: lowered,
            stats,
        }
    }

    /// Attach harvest hints to the pipeline most recently registered by
    /// [`Fuser::lower_pipeline`].
    fn set_hints(&mut self, hints: (Option<Pred>, Option<(JoinPred, usize)>)) {
        let info = self.report.pipelines.last_mut().expect("pipeline pushed");
        info.scan_pred = hints.0;
        info.probe_join = hints.1;
    }
}

/// Compute a pipeline's feedback-harvest hints from its compile-time IR,
/// before lowering consumes it. Mirrors the filter-absorption rule of
/// [`Fuser::lower_pipeline`]: every leading filter of a scan-sourced
/// pipeline merges into the scan predicate, so the observed
/// `source_out / source_rows` ratio covers the original scan predicate
/// plus those filters. The probe hint is set only when the pipeline has
/// exactly one probe stage — with several, the shared in/out counters
/// would conflate the joins. `first` is the report index of the region's
/// first build pipeline; table slot `t` lands at `first + t`.
fn harvest_hints(
    source: &SourceIR,
    stages: &[StageIR],
    first: usize,
) -> (Option<Pred>, Option<(JoinPred, usize)>) {
    let scan_pred = match source {
        SourceIR::Scan { rel_pred, .. } => {
            let mut terms = rel_pred
                .as_ref()
                .map(|p| p.terms().to_vec())
                .unwrap_or_default();
            for s in stages {
                let StageIR::Filter(_, p) = s else { break };
                terms.extend(p.terms().iter().cloned());
            }
            if terms.is_empty() {
                None
            } else {
                Some(Pred::conj(terms))
            }
        }
        SourceIR::Input { .. } => None,
    };
    let mut probes = stages.iter().filter_map(|s| match s {
        StageIR::Probe { table, join, .. } => Some((join.clone(), first + table)),
        _ => None,
    });
    let probe_join = match (probes.next(), probes.next()) {
        (Some(j), None) => Some(j),
        _ => None,
    };
    (scan_pred, probe_join)
}

/// Scan projection pushdown: when every stage before the first
/// projection is a filter, restrict the scan to the union of the
/// columns used by the scan predicate, those filters, and the
/// projection — remapping all their positions into the pruned space —
/// and return the full-width keep mask for the projected decoder.
/// `None` leaves the scan untouched (no projection to push down, a
/// probe intervenes, or nothing prunable).
fn prune_scan(
    col_types: &mut Vec<ColType>,
    pred: &mut Option<CompiledPred>,
    stages: &mut Vec<StageIR>,
) -> Option<Vec<bool>> {
    let first_non_filter = stages
        .iter()
        .position(|s| !matches!(s, StageIR::Filter(..)))
        .unwrap_or(stages.len());
    let Some(StageIR::Project(project)) = stages.get(first_non_filter) else {
        return None;
    };
    let n = col_types.len();
    let mut keep = vec![false; n];
    if let Some(p) = pred {
        for &(pos, _, _) in p.terms() {
            keep[pos] = true;
        }
    }
    for s in &stages[..first_non_filter] {
        let StageIR::Filter(cp, _) = s else {
            unreachable!()
        };
        for &(pos, _, _) in cp.terms() {
            keep[pos] = true;
        }
    }
    for &c in project {
        keep[c] = true;
    }
    let kept = keep.iter().filter(|&&k| k).count();
    if kept == n {
        return None;
    }
    // Old position → pruned position.
    let mut remap = vec![usize::MAX; n];
    let mut next = 0;
    for (old, &k) in keep.iter().enumerate() {
        if k {
            remap[old] = next;
            next += 1;
        }
    }
    *col_types = col_types
        .iter()
        .zip(&keep)
        .filter(|&(_, &k)| k)
        .map(|(&t, _)| t)
        .collect();
    if let Some(p) = pred.take() {
        *pred = Some(CompiledPred::new(
            p.terms()
                .iter()
                .map(|&(pos, op, ref lit)| (remap[pos], op, lit.clone()))
                .collect(),
        ));
    }
    for s in stages[..first_non_filter].iter_mut() {
        let StageIR::Filter(cp, _) = s else {
            unreachable!()
        };
        *cp = CompiledPred::new(
            cp.terms()
                .iter()
                .map(|&(pos, op, ref lit)| (remap[pos], op, lit.clone()))
                .collect(),
        );
    }
    let StageIR::Project(project) = &mut stages[first_non_filter] else {
        unreachable!()
    };
    for c in project.iter_mut() {
        *c = remap[*c];
    }
    // An identity projection over the pruned scan is a no-op: the scan
    // now *produces* the projected schema.
    if project.len() == kept && project.iter().enumerate().all(|(i, &c)| i == c) {
        stages.remove(first_non_filter);
    }
    Some(keep)
}

/// Display name of a plan operator the fused engine does not fuse.
fn fallback_name(alg: &RelAlg) -> &'static str {
    match alg {
        RelAlg::FileScan(_) => "file_scan",
        RelAlg::IndexScan(..) => "index_scan",
        RelAlg::FilterScan(..) => "filter_scan",
        RelAlg::Filter(_) => "filter",
        RelAlg::ProjectOp(_) => "project",
        RelAlg::Gather(_) => "gather",
        RelAlg::Sort(_) => "sort",
        RelAlg::MergeJoin(_) => "merge_join",
        RelAlg::HybridHashJoin(_) => "cross_hash_join",
        RelAlg::MultiWayHashJoin { .. } => "multiway_hash_join",
        RelAlg::NestedLoops(_) => "nested_loops",
        RelAlg::HashUnion => "hash_union",
        RelAlg::HashIntersect => "hash_intersect",
        RelAlg::HashDifference => "hash_difference",
        RelAlg::MergeUnion => "merge_union",
        RelAlg::MergeIntersect => "merge_intersect",
        RelAlg::MergeDifference => "merge_difference",
        RelAlg::HashAggregate(_) => "hash_aggregate",
        RelAlg::StreamAggregate(_) => "stream_aggregate",
        RelAlg::PartialHashAggregate(..) => "partial_hash_aggregate",
        RelAlg::FinalHashAggregate(_) => "final_hash_aggregate",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcano_rel::{CmpOp, Value};

    fn int_types(n: usize) -> Vec<ColType> {
        vec![ColType::Int; n]
    }

    /// Placeholder relational predicate for stage IR under test —
    /// `prune_scan` only looks at the compiled positions.
    fn rel_true() -> Pred {
        Pred::conj(Vec::new())
    }

    #[test]
    fn prune_keeps_pred_filter_and_project_columns() {
        // Table of 6 columns; scan pred on 0, filter on 2, project 4.
        let mut types = int_types(6);
        let mut pred = Some(CompiledPred::new(vec![(0, CmpOp::Gt, Value::Int(1))]));
        let mut stages = vec![
            StageIR::Filter(
                CompiledPred::new(vec![(2, CmpOp::Lt, Value::Int(9))]),
                rel_true(),
            ),
            StageIR::Project(vec![4]),
        ];
        let keep = prune_scan(&mut types, &mut pred, &mut stages).expect("prunable");
        assert_eq!(keep, vec![true, false, true, false, true, false]);
        assert_eq!(types.len(), 3);
        assert_eq!(
            pred.as_ref().unwrap().terms(),
            &[(0, CmpOp::Gt, Value::Int(1))]
        );
        let StageIR::Filter(f, _) = &stages[0] else {
            panic!("filter survives")
        };
        assert_eq!(f.terms(), &[(1, CmpOp::Lt, Value::Int(9))]);
        let StageIR::Project(p) = &stages[1] else {
            panic!("project survives")
        };
        assert_eq!(p, &[2]);
    }

    #[test]
    fn prune_drops_identity_projection() {
        // Project [0, 2] over 4 columns, no predicates: the pruned scan
        // produces exactly the projected schema, so the stage vanishes.
        let mut types = int_types(4);
        let mut pred = None;
        let mut stages = vec![StageIR::Project(vec![0, 2])];
        let keep = prune_scan(&mut types, &mut pred, &mut stages).expect("prunable");
        assert_eq!(keep, vec![true, false, true, false]);
        assert_eq!(types.len(), 2);
        assert!(stages.is_empty(), "identity projection dropped");
    }

    #[test]
    fn prune_preserves_permuting_projection() {
        let mut types = int_types(4);
        let mut pred = None;
        let mut stages = vec![StageIR::Project(vec![3, 1])];
        prune_scan(&mut types, &mut pred, &mut stages).expect("prunable");
        let StageIR::Project(p) = &stages[0] else {
            panic!("permutation survives")
        };
        assert_eq!(p, &[1, 0], "positions remapped into pruned space");
    }

    #[test]
    fn prune_bails_without_projection_or_with_probe_first() {
        let mut types = int_types(3);
        let mut pred = None;
        let mut stages = vec![StageIR::Filter(
            CompiledPred::new(vec![(0, CmpOp::Eq, Value::Int(1))]),
            rel_true(),
        )];
        assert!(prune_scan(&mut types, &mut pred, &mut stages).is_none());
        let mut stages = vec![
            StageIR::Probe {
                table: 0,
                keys: vec![0],
                build_ncols: 2,
                join: JoinPred::eq(AttrId(0), AttrId(2)),
            },
            StageIR::Project(vec![0]),
        ];
        assert!(prune_scan(&mut types, &mut pred, &mut stages).is_none());
        assert_eq!(types.len(), 3, "untouched on bail");
    }

    #[test]
    fn prune_bails_when_everything_is_needed() {
        let mut types = int_types(2);
        let mut pred = Some(CompiledPred::new(vec![(1, CmpOp::Ne, Value::Int(0))]));
        let mut stages = vec![StageIR::Project(vec![0, 1])];
        assert!(prune_scan(&mut types, &mut pred, &mut stages).is_none());
    }
}
