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
//! Three plan-time rewrites shape a pipeline:
//!
//! 1. **Filter absorption** (here) — leading filter stages merge into
//!    the scan predicate, so selection happens during page decode.
//! 2. **Column demand** ([`crate::pipeline`]'s backward pass) — every
//!    scan decodes exactly the columns its pipeline's sink, filters and
//!    probes read (via `decode_record_projected`; skipped string
//!    payloads are never UTF-8 validated or copied), and every build
//!    table stores its keys plus the columns its prober gathers.
//! 3. **Probe/project fusion** ([`crate::pipeline`]) — a probe carries an
//!    output map, so a join gathers only the columns read above it,
//!    never the full build ++ probe concatenation.
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

use volcano_rel::{AggSpec, AttrId, JoinPred, Pred, RelAlg, RelPlan};

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
use crate::ops::CompiledPred;
use crate::pipeline::{AggSink, Region, SourceIR, StageIR};

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
    /// Degree of the pipeline's region: the cursors that run it.
    pub degree: usize,
    /// Execution counters, shared with every cursor of the running
    /// region, so they cover the whole input at any degree.
    pub stats: Arc<PipelineStats>,
    /// Full-table-width mask of the columns the source scan decodes —
    /// what the pipeline's sink, filters and probes read. `None` when
    /// the source is an opaque input.
    pub decoded: Option<Vec<bool>>,
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
    let mut f = Fuser {
        db,
        sch,
        cfg,
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
    gathers: Vec<Arc<crate::morsel::MorselStats>>,
    report: FusedReport,
}

impl Fuser<'_> {
    /// Compile `plan` into a [`Built`] subtree, fusing the maximal
    /// region rooted at each pipelineable node.
    fn build_tree(&mut self, plan: &RelPlan) -> Built {
        // A gather is the degree of the region below it. Under a partial
        // aggregate that region ends in the per-worker sink.
        if let RelAlg::Gather(n) = &plan.alg {
            let child = &plan.inputs[0];
            if *n > 1 {
                let region = match &child.alg {
                    RelAlg::PartialHashAggregate(spec, _) => {
                        let sink = self.agg_sink(&child.inputs[0], spec, AggMode::Partial);
                        self.build_region(&child.inputs[0], Some(sink), *n as usize)
                    }
                    _ => self.build_region(child, None, *n as usize),
                };
                if let Some(region) = region {
                    return Built::B(region);
                }
            }
            return self.build_tree(child);
        }
        // Every aggregate is the sink of its input's region — none ever
        // runs on the tuple engine. A stream aggregate shares the hash
        // sink: groups leave in first-seen order, which over its
        // key-sorted input is the key order it must deliver.
        match &plan.alg {
            RelAlg::HashAggregate(spec) | RelAlg::StreamAggregate(spec) => {
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
        if let Some(region) = self.build_region(plan, None, 1) {
            return Built::B(region);
        }
        // Non-pipelineable root: compile this node on the tuple engine
        // over recursively built children; each batch child costs
        // exactly one adapter at this genuine engine boundary.
        let children: Vec<Built> = plan.inputs.iter().map(|c| self.build_tree(c)).collect();
        self.report.adapters += children.iter().filter(|c| matches!(c, Built::B(_))).count();
        self.report.fallback_ops.push(plan.alg.name());
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

    /// The sink of `spec` in `mode` over `input`'s rows.
    fn agg_sink(&self, input: &RelPlan, spec: &AggSpec, mode: AggMode) -> AggSink {
        let (group, aggs) = match mode {
            // A final aggregate consumes the partial row layout: group
            // keys lead, each aggregate's partial value follows.
            AggMode::Final => (
                (0..spec.group_by.len()).collect::<Vec<_>>(),
                partial_layout_aggs(spec),
            ),
            _ => compile_agg_spec(&schema_of_at(self.sch, input), spec),
        };
        AggSink { group, aggs, mode }
    }

    /// Compile an aggregate as the terminal sink of its input's region:
    /// a pipelineable input runs `scan→filter→project→aggregate` as one
    /// loop, any other input (a sort, or another aggregate) feeds the
    /// sink as the region's opaque source. A gather directly below is
    /// that region's degree, not a boundary: the sink sits on the
    /// consumer's side of the exchange and the scans decode only what it
    /// reads. (Over `gather ← partial aggregate` that lowering finds no
    /// chain, so the two-phase shape stays two regions.)
    fn build_aggregate(&mut self, plan: &RelPlan, spec: &AggSpec, mode: AggMode) -> Built {
        let mut child = &plan.inputs[0];
        let sink = self.agg_sink(child, spec, mode);
        if let RelAlg::Gather(n) = child.alg {
            let below = &child.inputs[0];
            if n <= 1 {
                child = below;
            } else if let Some(region) = self.build_region(below, Some(sink.clone()), n as usize) {
                return Built::B(region);
            }
        }
        let region = self.build_region(child, Some(sink), 1);
        Built::B(region.expect("an aggregate's input always lowers"))
    }

    /// Decompose the pipelineable region rooted at `plan` and lower it to
    /// run at `degree`, ending its output pipeline in `agg` if given. At
    /// degree 1, inputs the walk cannot continue through compile as
    /// opaque batch sources — the one genuine engine boundary below
    /// their pipeline; at degree `n` every pipeline must start at a scan,
    /// because morsels are page ranges. `None`, with nothing compiled,
    /// when that fails, or when there is no sink and `plan`'s own root is
    /// not pipelineable.
    fn build_region(
        &mut self,
        plan: &RelPlan,
        agg: Option<AggSink>,
        degree: usize,
    ) -> Option<BoxedBatchOperator> {
        let sch = self.sch;
        let region = Region::lower(sch, plan, agg, &mut |input| {
            if degree > 1 {
                return None;
            }
            let (op, schema) = self.build_batch(input);
            Some(SourceIR::Input {
                op,
                arity: schema.len(),
            })
        })?;
        // Build pipelines land in the report at `first + slot`, before
        // the output pipeline — harvest hints use those indices.
        let first = self.report.pipelines.len();
        let mut inputs = Vec::new();
        let mut lower = |source, stages, build| {
            self.lower_pipeline(source, stages, build, first, degree, &mut inputs)
        };
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

    /// Lower one pruned pipeline: absorb leading filters into the scan
    /// predicate, monomorphize the kernels, and record the pipeline in
    /// the report with its feedback-harvest hints (`first` is the report
    /// index of its region's first build pipeline; table slot `t` lands
    /// at `first + t`). An opaque source moves into `inputs`.
    fn lower_pipeline(
        &mut self,
        source: SourceIR,
        mut stages: Vec<StageIR>,
        build: bool,
        first: usize,
        degree: usize,
        inputs: &mut Vec<BoxedBatchOperator>,
    ) -> FusedPipeline {
        // The probe hint is set only when the pipeline has exactly one
        // probe stage — with several, the shared in/out counters would
        // conflate the joins.
        let mut probes = stages.iter().filter_map(|s| match s {
            StageIR::Probe { table, join, .. } => Some((join.clone(), first + table)),
            _ => None,
        });
        let probe_join = probes.next().filter(|_| probes.next().is_none());
        // Plan operators this pipeline covers, before rewrites merged
        // them: the source, each stage (plus a probe's folded
        // projection, below), and the build sink if any.
        let mut operators = 1 + stages.len() + usize::from(build);
        let mut label = String::new();
        let (mut decoded, mut scan_pred) = (None, None);
        let src = match source {
            SourceIR::Scan {
                heap,
                col_types,
                keep,
                pred,
                rel_pred,
            } => {
                // Leading filters merge into the scan predicate, so
                // selection happens during page decode. Conjunct order is
                // preserved: the narrowing matches filtering stage by
                // stage exactly, and the observed `source_out /
                // source_rows` covers the scan predicate plus the filters.
                let absorb = stages
                    .iter()
                    .take_while(|s| matches!(s, StageIR::Filter(..)))
                    .count();
                label.push_str(if absorb > 0 { "scan+filter" } else { "scan" });
                let mut terms = pred.map(|p| p.terms().to_vec()).unwrap_or_default();
                let mut rel_terms = rel_pred.map(|p| p.terms().to_vec()).unwrap_or_default();
                for stage in stages.drain(..absorb) {
                    let StageIR::Filter(cp, rel) = stage else {
                        unreachable!()
                    };
                    terms.extend_from_slice(cp.terms());
                    rel_terms.extend_from_slice(rel.terms());
                }
                scan_pred = (!rel_terms.is_empty()).then(|| Pred::conj(rel_terms));
                decoded = Some(keep.clone());
                let pred =
                    (!terms.is_empty()).then(|| FusedPred::compile(&CompiledPred::new(terms)));
                FusedSource::Scan(FusedScan::new(heap, col_types, keep, pred))
            }
            SourceIR::Input { op, .. } => {
                label.push_str(op.name());
                inputs.push(op);
                FusedSource::Input(inputs.len() - 1)
            }
        };
        let stages = stages
            .into_iter()
            .map(|stage| {
                label.push('→');
                match stage {
                    StageIR::Filter(cp, _) => {
                        label.push_str("filter");
                        FusedStage::Filter(FusedPred::compile(&cp))
                    }
                    StageIR::Project(cols) => {
                        label.push_str("project");
                        FusedStage::Project(cols)
                    }
                    StageIR::Probe {
                        table,
                        keys,
                        out,
                        projected,
                        join: _,
                    } => {
                        label.push_str(if projected { "probe+project" } else { "probe" });
                        operators += usize::from(projected);
                        FusedStage::Probe { table, keys, out }
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
            scan_pred,
            probe_join,
        });
        FusedPipeline {
            source: src,
            stages,
            stats,
        }
    }
}
