//! Lowering a physical plan to the vectorized engine.
//!
//! The lowering breaks the plan into maximal *regions* of pipelineable
//! operators — scans, filters, projections, hash joins, found by the
//! shared walk in [`crate::pipeline`] — and compiles each region into
//! one [`FusedRegion`] operator whose pipelines run as single loops
//! with monomorphized kernels. A region may be as small as one operator
//! (a filter directly over a sort) or span a whole multi-join query.
//! Every aggregate — hash, stream, partial, final — terminates its
//! input's region in an aggregation sink, so
//! `scan→filter→project→aggregate` runs as one loop; over an input that
//! is not pipelineable (a sort, another aggregate) the region is that
//! opaque input feeding the sink. A stream aggregate may share
//! the hash sink because the group table emits groups in first-seen
//! order, which over key-sorted input *is* key order. Every other
//! operator (sorts, set ops, merge/nested/multiway joins, index scans)
//! runs on its tuple operator, with at most one adapter per genuine
//! engine boundary; a pipelineable chain *above* such an operator still
//! fuses, treating the fallback subtree as an opaque batch input.
//!
//! Two plan-time rewrites shape a pipeline, both in [`crate::pipeline`]:
//!
//! 1. **Column demand** (its backward pass) — every scan decodes exactly
//!    the columns its pipeline's sink, filters and probes read (via
//!    `decode_record_projected`; skipped string payloads are never UTF-8
//!    validated or copied), and every build table stores its keys plus
//!    the columns its prober gathers.
//! 2. **Probe/project fusion** — a probe carries an output map, so a
//!    join gathers only the columns read above it, never the full
//!    build ++ probe concatenation.
//!
//! Neither hides a plan node's rows. The lowering walks the plan with
//! each node's pre-order slot, and every pipeline step carries the slots
//! of the nodes whose output it produces: a scan its scan node, a filter
//! or probe its own, the aggregation sink its aggregate, and a
//! projection — kept, pruned or folded into a probe — shares the step
//! below it. The runtime adds each batch's live rows to those nodes'
//! cells ([`crate::analyze`]); a gather reads its input's count, and a
//! fallback tuple operator is measured as on the tuple engine when the
//! caller asks for every node.
//!
//! A `Gather(n)` node is not an operator of its own: it is the *degree*
//! of the region below it — or, directly under an aggregate, of the
//! region the aggregate ends — so the demand pass walks from the sink to
//! the scans across it. The same lowering serves every degree; a region
//! of degree `n` needs every pipeline to start at a scan (morsels are
//! page ranges), and a gather over anything else is a serial
//! pass-through, which is always correct: the degree is a performance
//! property, not a semantic one.

use std::sync::Arc;

use volcano_rel::{AggSpec, AttrId, RelAlg, RelPlan};

use crate::analyze::{input_slots, NodeCells};
use crate::batch::BoxedBatchOperator;
use crate::compile::{
    compile_agg_spec, compile_node_at, partial_layout_aggs, schema_of_at, BatchConfig, Built,
};
use crate::database::{Database, SchemaSnapshot};
use crate::fused::pred::FusedPred;
use crate::fused::region::{
    FusedPipeline, FusedRegion, FusedScan, FusedSource, FusedStage, PipelineStats, RegionPlan,
};
use crate::kernels::agg::AggMode;
use crate::pipeline::{AggSink, Region, SourceIR, StageIR};

/// What the fused compiler did to one pipeline, with live counters.
#[derive(Debug)]
pub struct PipelineInfo {
    /// Human-readable shape, e.g. `scan→filter→probe+project`.
    pub label: String,
    /// Plan operators fused into this pipeline (source + stages + build
    /// sink), a projection folded into a probe included.
    pub operators: usize,
    /// Does this pipeline feed a hash-table build?
    pub build: bool,
    /// Degree of the pipeline's region: the cursors that run it.
    pub degree: usize,
    /// Execution counters, shared with every cursor of the running
    /// region, so they cover the whole input at any degree.
    pub stats: Arc<PipelineStats>,
    /// Full-table-width mask of the columns the source scan decodes —
    /// what the pipeline's sink, filters and probes read. `None` when
    /// the source is an opaque input.
    pub decoded: Option<Vec<bool>>,
}

/// Compile-time report of the whole fused plan: what fused, what fell
/// back, where the engine boundaries are.
#[derive(Debug, Default)]
pub struct FusedReport {
    /// Every fused pipeline, across all regions of the plan.
    pub pipelines: Vec<PipelineInfo>,
    /// Names of plan operators that fell back to the tuple engine
    /// (never an aggregate: those are always sinks).
    pub fallback_ops: Vec<&'static str>,
    /// Adapter hops inserted at engine boundaries.
    pub adapters: usize,
    /// Regions of degree > 1 (one per `gather(n)` that took effect).
    pub parallel_regions: usize,
    /// Terminal aggregation sinks fused into region output pipelines.
    pub agg_sinks: usize,
}

impl FusedReport {
    /// Number of fused pipelines in the plan.
    pub fn pipelines_fused(&self) -> usize {
        self.pipelines.len()
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
            let cols = p.decoded.as_ref().map_or(String::new(), |keep| {
                let k = keep.iter().filter(|&&k| k).count();
                format!(" · cols {k}/{}", keep.len())
            });
            let degree = match p.degree {
                1 => String::new(),
                n => format!(" ×{n}"),
            };
            out.push(format!(
                "  pipeline {i}{}{degree}: {}{cols} · {} op(s) fused · {} rows · {} batches · {} ns",
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
    /// Scheduling counters of each region of degree > 1 in the tree
    /// (empty for serial plans); live while the plan executes, for
    /// post-run trace reporting.
    pub gathers: Vec<Arc<crate::morsel::MorselStats>>,
    /// What fused, what fell back.
    pub report: FusedReport,
    /// Output rows per plan node, in pre-order; live while the plan
    /// executes.
    pub(crate) cells: Arc<NodeCells>,
}

/// Compile a plan for the vectorized engine (the current schema
/// snapshot).
pub fn compile_fused(db: &Database, plan: &RelPlan, cfg: BatchConfig) -> CompiledFused {
    compile_fused_at(db, &db.snapshot(), plan, cfg, false)
}

/// [`compile_fused`] against a pinned schema snapshot. Fused regions
/// always count their nodes' rows; with `measure`, every fallback tuple
/// operator is measured too, so every node is.
pub(crate) fn compile_fused_at(
    db: &Database,
    sch: &SchemaSnapshot,
    plan: &RelPlan,
    cfg: BatchConfig,
    measure: bool,
) -> CompiledFused {
    let mut f = Fuser {
        db,
        sch,
        cfg,
        cells: NodeCells::new(plan),
        measure,
        gathers: Vec::new(),
        report: FusedReport::default(),
    };
    let (operator, schema) = f.build_batch(plan, 0);
    CompiledFused {
        operator,
        schema,
        gathers: f.gathers,
        report: f.report,
        cells: f.cells,
    }
}

struct Fuser<'a> {
    db: &'a Database,
    sch: &'a SchemaSnapshot,
    cfg: BatchConfig,
    cells: Arc<NodeCells>,
    measure: bool,
    gathers: Vec<Arc<crate::morsel::MorselStats>>,
    report: FusedReport,
}

/// The one input of `plan` (pre-order slot `slot`) with its slot.
fn only_input(plan: &RelPlan, slot: usize) -> (&RelPlan, usize) {
    input_slots(plan, slot).next().expect("one input")
}

impl Fuser<'_> {
    /// Compile `plan` (pre-order slot `slot`) into a [`Built`] subtree,
    /// fusing the maximal region rooted at each pipelineable node.
    fn build_tree(&mut self, plan: &RelPlan, slot: usize) -> Built {
        // A gather is the degree of the region below it. Under a partial
        // aggregate that region ends in the per-worker sink.
        if let RelAlg::Gather(n) = &plan.alg {
            let (child, at) = only_input(plan, slot);
            if *n > 1 {
                let region = match &child.alg {
                    RelAlg::PartialHashAggregate(spec, _) => {
                        let (input, below) = only_input(child, at);
                        let sink = self.agg_sink(input, spec, AggMode::Partial, at);
                        self.build_region(input, below, Some(sink), *n as usize)
                    }
                    _ => self.build_region(child, at, None, *n as usize),
                };
                if let Some(region) = region {
                    return Built::B(region);
                }
            }
            return self.build_tree(child, at);
        }
        // Every aggregate is the sink of its input's region — none ever
        // runs on the tuple engine. A stream aggregate shares the hash
        // sink: groups leave in first-seen order, which over its
        // key-sorted input is the key order it must deliver.
        let mode = match &plan.alg {
            RelAlg::HashAggregate(spec) | RelAlg::StreamAggregate(spec) => {
                Some((spec, AggMode::Complete))
            }
            RelAlg::PartialHashAggregate(spec, _) => Some((spec, AggMode::Partial)),
            RelAlg::FinalHashAggregate(spec) => Some((spec, AggMode::Final)),
            _ => None,
        };
        if let Some((spec, mode)) = mode {
            return self.build_aggregate(plan, slot, spec, mode);
        }
        if let Some(region) = self.build_region(plan, slot, None, 1) {
            return Built::B(region);
        }
        // Non-pipelineable root: compile this node on the tuple engine
        // over recursively built children; each batch child costs
        // exactly one adapter at this genuine engine boundary.
        let children: Vec<Built> = input_slots(plan, slot)
            .map(|(input, at)| self.build_tree(input, at))
            .collect();
        self.report.adapters += children.iter().filter(|c| matches!(c, Built::B(_))).count();
        self.report.fallback_ops.push(plan.alg.name());
        let tuple_children = children.into_iter().map(Built::into_tuple).collect();
        let op = compile_node_at(self.db, self.sch, plan, tuple_children);
        Built::T(match self.measure {
            true => self.cells.wrap(op, slot),
            false => op,
        })
    }

    /// Compile `plan` (pre-order slot `slot`) to a batch operator
    /// (returned with its output schema); a tuple root costs one adapter.
    fn build_batch(&mut self, plan: &RelPlan, slot: usize) -> (BoxedBatchOperator, Vec<AttrId>) {
        let schema = schema_of_at(self.sch, plan);
        let built = self.build_tree(plan, slot);
        if matches!(built, Built::T(_)) {
            self.report.adapters += 1;
        }
        (built.into_batch(schema.len(), self.cfg.batch_size), schema)
    }

    /// The sink of `spec` in `mode` over `input`'s rows, counting its
    /// groups as the output of plan node `node`.
    fn agg_sink(&self, input: &RelPlan, spec: &AggSpec, mode: AggMode, node: usize) -> AggSink {
        let (group, aggs) = match mode {
            // A final aggregate consumes the partial row layout: group
            // keys lead, each aggregate's partial value follows.
            AggMode::Final => (
                (0..spec.group_by.len()).collect::<Vec<_>>(),
                partial_layout_aggs(spec),
            ),
            _ => compile_agg_spec(&schema_of_at(self.sch, input), spec),
        };
        AggSink {
            group,
            aggs,
            mode,
            node,
        }
    }

    /// Compile an aggregate as the terminal sink of its input's region:
    /// a pipelineable input runs `scan→filter→project→aggregate` as one
    /// loop, any other input (a sort, or another aggregate) feeds the
    /// sink as the region's opaque source. A gather directly below is
    /// that region's degree, not a boundary: the sink sits on the
    /// consumer's side of the exchange and the scans decode only what it
    /// reads. (Over `gather ← partial aggregate` that lowering finds no
    /// chain, so the two-phase shape stays two regions.)
    fn build_aggregate(
        &mut self,
        plan: &RelPlan,
        slot: usize,
        spec: &AggSpec,
        mode: AggMode,
    ) -> Built {
        let (mut child, mut at) = only_input(plan, slot);
        let sink = self.agg_sink(child, spec, mode, slot);
        if let RelAlg::Gather(n) = child.alg {
            let (below, below_at) = only_input(child, at);
            if n <= 1 {
                (child, at) = (below, below_at);
            } else if let Some(region) =
                self.build_region(below, below_at, Some(sink.clone()), n as usize)
            {
                return Built::B(region);
            }
        }
        let region = self.build_region(child, at, Some(sink), 1);
        Built::B(region.expect("an aggregate's input always lowers"))
    }

    /// Decompose the pipelineable region rooted at `plan` (pre-order
    /// slot `slot`) and lower it to run at `degree`, ending its output
    /// pipeline in `agg` if given. At degree 1, inputs the walk cannot
    /// continue through compile as opaque batch sources — the one genuine
    /// engine boundary below their pipeline; at degree `n` every pipeline
    /// must start at a scan, because morsels are page ranges. `None`,
    /// with nothing compiled, when that fails, or when there is no sink
    /// and `plan`'s own root is not pipelineable.
    fn build_region(
        &mut self,
        plan: &RelPlan,
        slot: usize,
        agg: Option<AggSink>,
        degree: usize,
    ) -> Option<BoxedBatchOperator> {
        let sch = self.sch;
        let region = Region::lower(sch, plan, slot, agg, &mut |input, at| {
            if degree > 1 {
                return None;
            }
            let (op, schema) = self.build_batch(input, at);
            Some(SourceIR::Input {
                op,
                arity: schema.len(),
                nodes: Vec::new(),
            })
        })?;
        let mut inputs = Vec::new();
        let mut lower =
            |source, stages, build| self.lower_pipeline(source, stages, build, degree, &mut inputs);
        let builds = region
            .builds
            .into_iter()
            .map(|b| (lower(b.source, b.stages, true), b.table))
            .collect();
        let output = lower(region.source, region.stages, false);
        if let Some(sink) = &region.agg {
            let info = self.report.pipelines.last_mut().expect("output pipeline");
            info.label.push('→');
            info.label.push_str(match sink.mode {
                AggMode::Complete => "agg",
                AggMode::Partial => "partial_agg",
                AggMode::Final => "final_agg",
            });
            info.operators += 1;
            self.report.agg_sinks += 1;
        }
        let plan = RegionPlan {
            builds,
            output,
            agg: region.agg,
            cells: self.cells.clone(),
            cfg: BatchConfig {
                batch_size: self.cfg.batch_size.max(1),
                ..self.cfg
            },
        };
        let fused = FusedRegion::new(plan, inputs, degree);
        if degree > 1 {
            self.gathers.push(fused.sched());
            self.report.parallel_regions += 1;
        }
        Some(Box::new(fused))
    }

    /// Lower one pruned pipeline: monomorphize the kernels and record the
    /// pipeline in the report. An opaque source moves into `inputs`.
    fn lower_pipeline(
        &mut self,
        source: SourceIR,
        stages: Vec<StageIR>,
        build: bool,
        degree: usize,
        inputs: &mut Vec<BoxedBatchOperator>,
    ) -> FusedPipeline {
        // Plan operators this pipeline covers: the source, each stage
        // (plus a probe's folded projection, below), and the build sink
        // if any.
        let mut operators = 1 + stages.len() + usize::from(build);
        let mut label = String::new();
        let mut decoded = None;
        let (source, nodes) = match source {
            SourceIR::Scan {
                heap,
                col_types,
                keep,
                pred,
                nodes,
            } => {
                label.push_str("scan");
                decoded = Some(keep.clone());
                let pred = pred.map(|p| FusedPred::compile(&p));
                let scan = FusedScan::new(heap, col_types, keep, pred);
                (FusedSource::Scan(scan), nodes)
            }
            SourceIR::Input { op, nodes, .. } => {
                label.push_str(op.name());
                inputs.push(op);
                (FusedSource::Input(inputs.len() - 1), nodes)
            }
        };
        let stages = stages
            .into_iter()
            .map(|stage| {
                label.push('→');
                match stage {
                    StageIR::Filter(cp, nodes) => {
                        label.push_str("filter");
                        (FusedStage::Filter(FusedPred::compile(&cp)), nodes)
                    }
                    StageIR::Project(cols) => {
                        label.push_str("project");
                        (FusedStage::Project(cols), Vec::new())
                    }
                    StageIR::Probe {
                        table,
                        keys,
                        out,
                        projected,
                        nodes,
                    } => {
                        label.push_str(if projected { "probe+project" } else { "probe" });
                        operators += usize::from(projected);
                        (FusedStage::Probe { table, keys, out }, nodes)
                    }
                }
            })
            .collect();
        if build {
            label.push_str("→build");
        }
        let stats = Arc::new(PipelineStats::default());
        self.report.pipelines.push(PipelineInfo {
            label,
            operators,
            build,
            degree,
            stats: stats.clone(),
            decoded,
        });
        FusedPipeline {
            source,
            nodes,
            stages,
            stats,
        }
    }
}
