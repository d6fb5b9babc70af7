//! Lowering a gather subtree to parallel pipelines.
//!
//! A plan shape the optimizer placed under `gather(n)` consists of the
//! morsel-parallelizable operators only — scans, filters, projections,
//! and hash joins; every other implementation rule bails out of parallel
//! goals during search. Such a tree decomposes, exactly as in
//! morsel-driven designs, into *pipelines*: each hash join's build side
//! becomes its own pipeline terminating in a partitioned hash-table
//! **build sink**, and the probe sides fuse with the scans, filters and
//! projections around them into chains of [`Stage`]s. The last pipeline
//! feeds the region's output. The decomposition itself, and the demand
//! pass that narrows every scan and build table to the columns read, is
//! [`crate::pipeline::Region::lower`], shared with the serial lowering;
//! this module only maps its IR to what the workers run.
//!
//! [`compile_parallel`] returns `None` when the subtree contains any
//! other operator — the caller then degrades the gather to a serial
//! pass-through, which is always semantically correct (the degree is a
//! performance property, not a semantic one).

use std::sync::Arc;

use volcano_rel::catalog::ColType;
use volcano_rel::{RelAlg, RelPlan};
use volcano_store::HeapFile;

use crate::compile::{compile_agg_spec, schema_of_at};
use crate::database::SchemaSnapshot;
use crate::fused::FusedPred;
use crate::kernels::agg::AggMode;
use crate::ops::{CompiledAgg, CompiledPred};
use crate::pipeline::{AggSink, ProbeCol, Region, SourceIR, StageIR, TableShape};

/// The scan feeding a pipeline: a heap file whose pages are dispensed as
/// morsels; each worker decodes the columns `keep` selects straight into
/// typed columns and applies the predicate (its own
/// [`crate::fused::FusedScan`] over the morsel's pages).
pub(crate) struct ScanSpec {
    pub(crate) heap: Arc<HeapFile>,
    /// Types of the produced columns.
    pub(crate) col_types: Vec<ColType>,
    /// Full-table-width mask of the columns to decode.
    pub(crate) keep: Vec<bool>,
    /// Scan predicate over the produced columns.
    pub(crate) pred: Option<CompiledPred>,
}

/// One fused vectorized step of a pipeline, applied batch-at-a-time.
pub(crate) enum Stage {
    /// Narrow the selection vector with monomorphized predicate kernels
    /// (shared with the fused engine; falls back to the generic batch
    /// kernel on unexpected column shapes).
    Filter(FusedPred),
    /// Gather a subset/permutation of columns.
    Project(Vec<usize>),
    /// Probe the partitioned hash table built by an earlier pipeline.
    Probe {
        /// Index of the build pipeline (= its table slot).
        table: usize,
        /// Probe-side key column positions.
        keys: Vec<usize>,
        /// Which side each output column is gathered from.
        out: Vec<ProbeCol>,
    },
}

/// Where a pipeline's rows go.
pub(crate) enum Sink {
    /// Partition rows by key hash into table slot `table`.
    Build {
        /// Table slot this pipeline fills (equals its pipeline index).
        table: usize,
        /// The key and stored columns of the pipeline's batches.
        shape: TableShape,
    },
    /// Accumulate rows into a worker-local group table; each worker
    /// emits its groups as *partial* aggregate rows (the layout of
    /// [`crate::kernels::agg::partial_positions`]) once the morsel
    /// queue runs dry. The final merge happens above the gather.
    PartialAgg {
        /// Group-by column positions in the pipeline's row shape.
        group: Vec<usize>,
        /// The aggregates, resolved to input column positions.
        aggs: Vec<CompiledAgg>,
    },
    /// Rows are the parallel region's output.
    Output,
}

/// One pipeline: a morsel-driven scan, a chain of fused stages, a sink.
pub(crate) struct Pipeline {
    pub(crate) source: ScanSpec,
    pub(crate) stages: Vec<Stage>,
    pub(crate) sink: Sink,
}

/// A compiled parallel region: build pipelines in dependency order,
/// then the output pipeline. Shared read-only by all workers.
pub struct ParallelPlan {
    pub(crate) pipelines: Vec<Pipeline>,
}

impl ParallelPlan {
    /// Number of pipelines (build pipelines plus the output pipeline).
    pub fn pipeline_count(&self) -> usize {
        self.pipelines.len()
    }

    /// Columns the region's scans decode and the columns their tables
    /// have, summed over the pipelines.
    pub fn scan_columns(&self) -> (usize, usize) {
        let keeps = || self.pipelines.iter().map(|p| &p.source.keep);
        let decoded = keeps().flatten().filter(|&&k| k).count();
        (decoded, keeps().map(Vec::len).sum())
    }
}

/// Lower the subtree under a gather node to parallel pipelines, or
/// `None` if it contains an operator with no morsel-parallel form (the
/// caller falls back to serial execution).
pub fn compile_parallel(sch: &SchemaSnapshot, plan: &RelPlan) -> Option<ParallelPlan> {
    // A partial aggregate at the root of the gather subtree terminates
    // the output pipeline in a per-worker aggregation sink: workers
    // accumulate locally across all their morsels and only group
    // summaries cross the gather.
    let (chain_root, agg) = match &plan.alg {
        RelAlg::PartialHashAggregate(spec, _) => {
            let child = &plan.inputs[0];
            let (group, aggs) = compile_agg_spec(&schema_of_at(sch, child), spec);
            let mode = AggMode::Partial;
            (child, Some(AggSink { group, aggs, mode }))
        }
        _ => (plan, None),
    };
    // Morsels are page ranges of a heap file, so every pipeline must
    // start at a scan: any other input abandons the lowering.
    let region = Region::lower(sch, chain_root, agg, &mut |_| None)?;
    let mut pipelines: Vec<Pipeline> = region
        .builds
        .into_iter()
        .enumerate()
        .map(|(table, b)| {
            let shape = b.table;
            lower_chain(b.source, b.stages, Sink::Build { table, shape })
        })
        .collect();
    let sink = match region.agg {
        Some(AggSink { group, aggs, .. }) => Sink::PartialAgg { group, aggs },
        None => Sink::Output,
    };
    pipelines.push(lower_chain(region.source, region.stages, sink));
    Some(ParallelPlan { pipelines })
}

/// Map one decomposed chain to its runtime form.
fn lower_chain(source: SourceIR, stages: Vec<StageIR>, sink: Sink) -> Pipeline {
    let SourceIR::Scan {
        heap,
        col_types,
        keep,
        pred,
        ..
    } = source
    else {
        unreachable!("compile_parallel refuses opaque inputs")
    };
    let stages = stages
        .into_iter()
        .map(|s| match s {
            StageIR::Filter(pred, _) => Stage::Filter(FusedPred::compile(&pred)),
            StageIR::Project(cols) => Stage::Project(cols),
            StageIR::Probe {
                table, keys, out, ..
            } => Stage::Probe { table, keys, out },
        })
        .collect();
    Pipeline {
        source: ScanSpec {
            heap,
            col_types,
            keep,
            pred,
        },
        stages,
        sink,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcano_core::{PhysicalProps, SearchOptions};
    use volcano_rel::{Catalog, ColumnDef, RelModel, RelModelOptions, RelOptimizer, RelProps};

    use crate::compile::BatchConfig;
    use crate::database::Database;

    /// Render a pipeline the way the fused report labels its own.
    fn label(p: &Pipeline) -> String {
        let mut parts = vec!["scan"];
        parts.extend(p.stages.iter().map(|s| match s {
            Stage::Filter(_) => "filter",
            Stage::Project(_) => "project",
            Stage::Probe { .. } => "probe",
        }));
        match p.sink {
            Sink::Build { .. } => parts.push("build"),
            Sink::PartialAgg { .. } => parts.push("partial_agg"),
            Sink::Output => {}
        }
        parts.join("→")
    }

    fn gather_subtrees<'a>(plan: &'a RelPlan, out: &mut Vec<&'a RelPlan>) {
        if matches!(plan.alg, RelAlg::Gather(n) if n > 1) {
            out.push(&plan.inputs[0]);
        }
        for input in &plan.inputs {
            gather_subtrees(input, out);
        }
    }

    /// Both lowerings consume the one shared, pruned decomposition, so
    /// they must cut a gather subtree into the same pipelines with the
    /// same stages in the same order, decoding the same columns.
    #[test]
    fn parallel_and_serial_lowerings_cut_the_same_pipelines() {
        let mut c = Catalog::new();
        c.add_table(
            "emp",
            4000.0,
            vec![
                ColumnDef::int("id", 4000.0),
                ColumnDef::int("dept", 20.0),
                ColumnDef::int("salary", 100.0),
            ],
        );
        c.add_table(
            "dept",
            20.0,
            vec![ColumnDef::int("id", 20.0), ColumnDef::int("region", 4.0)],
        );
        let db = Database::in_memory(c.clone());
        db.generate(7);
        let sch = db.snapshot();
        let (mut compared, mut pruned) = (0usize, 0usize);
        for sql in [
            "SELECT emp.id FROM emp WHERE emp.salary < 50",
            "SELECT emp.id, dept.region FROM emp, dept \
             WHERE emp.dept = dept.id AND emp.salary < 50",
            "SELECT emp.dept, SUM(emp.salary) FROM emp GROUP BY emp.dept",
            "SELECT COUNT(*) FROM emp, dept WHERE emp.dept = dept.id",
        ] {
            let mut catalog = c.clone();
            let q = volcano_sql::plan_query(sql, &mut catalog).unwrap();
            let options = RelModelOptions::default().with_parallel_degree(8);
            let model = RelModel::new(catalog, options);
            let mut opt = RelOptimizer::new(&model, SearchOptions::default());
            let root = opt.insert_tree(&q.expr);
            let plan = opt.find_best_plan(root, RelProps::any(), None).unwrap();
            let mut subtrees = Vec::new();
            gather_subtrees(&plan, &mut subtrees);
            for subtree in subtrees {
                let parallel = compile_parallel(&sch, subtree).expect("morsel-parallel shape");
                let serial =
                    crate::fused::compile_fused_at(&db, &sch, subtree, BatchConfig::default());
                // The serial lowering absorbs leading filters into the
                // scan (`scan+filter`) but keeps them in the label; a
                // projection folded into a probe is no stage on either
                // side.
                let serial_labels: Vec<String> = serial
                    .report
                    .pipelines
                    .iter()
                    .map(|p| p.label.replace("+project", "").replace('+', "→"))
                    .collect();
                let parallel_labels: Vec<String> = parallel.pipelines.iter().map(label).collect();
                assert_eq!(parallel.pipeline_count(), serial_labels.len(), "{sql}");
                assert_eq!(parallel_labels, serial_labels, "{sql}");
                let serial_decoded: Vec<_> = serial
                    .report
                    .pipelines
                    .iter()
                    .map(|p| p.decoded.clone().expect("scan-sourced"))
                    .collect();
                let parallel_decoded: Vec<_> = parallel
                    .pipelines
                    .iter()
                    .map(|p| p.source.keep.clone())
                    .collect();
                assert_eq!(parallel_decoded, serial_decoded, "{sql}");
                pruned += usize::from(serial_decoded.iter().flatten().any(|&k| !k));
                compared += 1;
            }
        }
        assert!(
            compared >= 2,
            "too few gather plans to compare ({compared})"
        );
        assert!(
            pruned >= 2,
            "too few plans leave a column unread ({pruned})"
        );
    }
}
