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
//! feeds the region's output. The decomposition itself is
//! [`crate::pipeline::decompose`], shared with the serial lowering; this
//! module only maps its IR to what the workers run.
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
use crate::ops::{CompiledAgg, CompiledPred};
use crate::pipeline::{decompose, SourceIR, StageIR};

/// The scan feeding a pipeline: a heap file whose pages are dispensed as
/// morsels, decoded straight into typed columns, with an optional fused
/// predicate (mirrors [`crate::ops::BatchScan`]).
pub(crate) struct ScanSpec {
    pub(crate) heap: Arc<HeapFile>,
    pub(crate) col_types: Vec<ColType>,
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
    /// Probe the partitioned hash table built by an earlier pipeline;
    /// output columns are build ++ probe, as in the serial hash join.
    Probe {
        /// Index of the build pipeline (= its table slot).
        table: usize,
        /// Probe-side key column positions.
        keys: Vec<usize>,
    },
}

/// Where a pipeline's rows go.
pub(crate) enum Sink {
    /// Partition rows by key hash into table slot `table`.
    Build {
        /// Table slot this pipeline fills (equals its pipeline index).
        table: usize,
        /// Build-side key column positions.
        keys: Vec<usize>,
        /// Build-side column count (fixes the output shape even when
        /// the build side turns out empty).
        ncols: usize,
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
}

/// Lower the subtree under a gather node to parallel pipelines, or
/// `None` if it contains an operator with no morsel-parallel form (the
/// caller falls back to serial execution).
pub fn compile_parallel(sch: &SchemaSnapshot, plan: &RelPlan) -> Option<ParallelPlan> {
    // A partial aggregate at the root of the gather subtree terminates
    // the output pipeline in a per-worker aggregation sink: workers
    // accumulate locally across all their morsels and only group
    // summaries cross the gather.
    let (chain_root, sink) = match &plan.alg {
        RelAlg::PartialHashAggregate(spec, _) => {
            let child = &plan.inputs[0];
            let (group, aggs) = compile_agg_spec(&schema_of_at(sch, child), spec);
            (child, Sink::PartialAgg { group, aggs })
        }
        _ => (plan, Sink::Output),
    };
    // Morsels are page ranges of a heap file, so every pipeline must
    // start at a scan: any other input abandons the lowering.
    let mut builds = Vec::new();
    let (source, stages) = decompose(sch, chain_root, &mut builds, &mut |_| None).ok()?;
    let mut pipelines: Vec<Pipeline> = builds
        .into_iter()
        .enumerate()
        .map(|(table, b)| {
            let sink = Sink::Build {
                table,
                keys: b.keys,
                ncols: b.ncols,
            };
            lower_chain(b.source, b.stages, sink)
        })
        .collect();
    pipelines.push(lower_chain(source, stages, sink));
    Some(ParallelPlan { pipelines })
}

/// Map one decomposed chain to its runtime form.
fn lower_chain(source: SourceIR, stages: Vec<StageIR>, sink: Sink) -> Pipeline {
    let SourceIR::Scan {
        heap,
        col_types,
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
            StageIR::Probe { table, keys, .. } => Stage::Probe { table, keys },
        })
        .collect();
    Pipeline {
        source: ScanSpec {
            heap,
            col_types,
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

    /// Both lowerings walk a gather subtree with the one shared
    /// decomposition, so they must cut it into the same pipelines with
    /// the same stages in the same order.
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
        let mut compared = 0usize;
        for sql in [
            "SELECT emp.id FROM emp WHERE emp.salary < 50",
            "SELECT emp.id, dept.region FROM emp, dept \
             WHERE emp.dept = dept.id AND emp.salary < 50",
            "SELECT emp.dept, SUM(emp.salary) FROM emp GROUP BY emp.dept",
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
                // The serial lowering's rewrites merge stages (`+`) but
                // keep every one of them in the label.
                let serial_labels: Vec<String> = serial
                    .report
                    .pipelines
                    .iter()
                    .map(|p| p.label.replace('+', "→"))
                    .collect();
                let parallel_labels: Vec<String> = parallel.pipelines.iter().map(label).collect();
                assert_eq!(parallel.pipeline_count(), serial_labels.len(), "{sql}");
                assert_eq!(parallel_labels, serial_labels, "{sql}");
                compared += 1;
            }
        }
        assert!(
            compared >= 2,
            "too few gather plans to compare ({compared})"
        );
    }
}
