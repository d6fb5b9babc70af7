//! The one decomposition of a physical plan into pipelines.
//!
//! Scans, filters, projections and keyed hash joins are *pipelineable*:
//! a subtree of them splits, exactly as in morsel-driven designs, into
//! one build pipeline per hash join (its left input, ending in a
//! hash-table build) and a chain that continues through the probe side.
//! [`decompose`] is the only place that split is made. Both vectorized
//! lowerings consume its IR: [`crate::fused`] rewrites and monomorphizes
//! it into a [`crate::fused::FusedRegion`], [`crate::morsel`] maps it to
//! the pipelines its workers run. They differ in one decision — what to
//! do with an input whose root is not pipelineable — which is the
//! `lower_input` argument.

use std::sync::Arc;

use volcano_rel::catalog::ColType;
use volcano_rel::{JoinPred, Pred, RelAlg, RelPlan};
use volcano_store::HeapFile;

use crate::batch::BoxedBatchOperator;
use crate::compile::{compile_pred, position, schema_of_at, table_col_types, table_schema};
use crate::database::SchemaSnapshot;
use crate::ops::CompiledPred;

/// Where a pipeline's rows come from.
pub(crate) enum SourceIR {
    /// Heap scan (predicate positions index the full table schema).
    Scan {
        heap: Arc<HeapFile>,
        col_types: Vec<ColType>,
        pred: Option<CompiledPred>,
        /// The relational-level scan predicate, kept alongside the
        /// compiled one so the feedback harvest can key observed
        /// selectivities by term.
        rel_pred: Option<Pred>,
    },
    /// Opaque batch subtree of the given arity.
    Input {
        op: BoxedBatchOperator,
        arity: usize,
    },
}

/// One step of a pipeline. Positions are plain `usize`s into the row
/// shape the previous step produces; filters and probes carry their
/// relational-level predicate for the feedback harvest.
pub(crate) enum StageIR {
    Filter(CompiledPred, Pred),
    Project(Vec<usize>),
    /// Probe the table of build slot `table`; output is build columns
    /// (`build_ncols` of them) ++ probe columns.
    Probe {
        table: usize,
        keys: Vec<usize>,
        build_ncols: usize,
        join: JoinPred,
    },
}

/// A hash-join build side; its table slot is its index in the build list.
pub(crate) struct BuildIR {
    pub(crate) source: SourceIR,
    pub(crate) stages: Vec<StageIR>,
    pub(crate) keys: Vec<usize>,
    pub(crate) ncols: usize,
}

/// A pipeline's source and stage chain.
pub(crate) type Chain = (SourceIR, Vec<StageIR>);

/// Why a subtree did not decompose.
pub(crate) enum NoChain {
    /// The subtree's own root is not pipelineable; nothing was touched.
    Root,
    /// `lower_input` refused an input further down; the build list may
    /// hold pipelines of the abandoned walk.
    Input,
}

/// Decides what a non-pipelineable input becomes: `Some(source)` feeds
/// the pipeline from it, `None` abandons the decomposition.
pub(crate) type LowerInput<'a> = dyn FnMut(&RelPlan) -> Option<SourceIR> + 'a;

/// Decompose the pipelineable region rooted at `plan`. Build sides are
/// pushed onto `builds` in dependency order — a join's build pipeline
/// after every pipeline beneath it and before anything on its probe
/// side — so a build's slot is its index and a pipeline only ever
/// probes earlier slots. Returns the chain that ends at `plan`.
pub(crate) fn decompose(
    sch: &SchemaSnapshot,
    plan: &RelPlan,
    builds: &mut Vec<BuildIR>,
    lower_input: &mut LowerInput<'_>,
) -> Result<Chain, NoChain> {
    let mut input =
        |p: &RelPlan, builds: &mut Vec<BuildIR>| match decompose(sch, p, builds, lower_input) {
            Err(NoChain::Root) => lower_input(p)
                .map(|source| (source, Vec::new()))
                .ok_or(NoChain::Input),
            chain => chain,
        };
    let scan = |t, pred: Option<&Pred>| SourceIR::Scan {
        heap: sch.table(t).clone(),
        col_types: table_col_types(sch, t),
        pred: pred.map(|p| compile_pred(&table_schema(sch, t), p)),
        rel_pred: pred.cloned(),
    };
    match &plan.alg {
        RelAlg::FileScan(t) => Ok((scan(*t, None), Vec::new())),
        RelAlg::FilterScan(t, pred) => Ok((scan(*t, Some(pred)), Vec::new())),
        RelAlg::Filter(pred) => {
            let (source, mut stages) = input(&plan.inputs[0], builds)?;
            let schema = schema_of_at(sch, &plan.inputs[0]);
            stages.push(StageIR::Filter(compile_pred(&schema, pred), pred.clone()));
            Ok((source, stages))
        }
        RelAlg::ProjectOp(attrs) => {
            let (source, mut stages) = input(&plan.inputs[0], builds)?;
            let schema = schema_of_at(sch, &plan.inputs[0]);
            stages.push(StageIR::Project(
                attrs.iter().map(|&a| position(&schema, a)).collect(),
            ));
            Ok((source, stages))
        }
        // A cross product has no key to build a table on.
        RelAlg::HybridHashJoin(p) if !p.pairs().is_empty() => {
            let bschema = schema_of_at(sch, &plan.inputs[0]);
            let (source, stages) = input(&plan.inputs[0], builds)?;
            let table = builds.len();
            builds.push(BuildIR {
                source,
                stages,
                keys: p
                    .pairs()
                    .iter()
                    .map(|&(la, _)| position(&bschema, la))
                    .collect(),
                ncols: bschema.len(),
            });
            let pschema = schema_of_at(sch, &plan.inputs[1]);
            let (source, mut stages) = input(&plan.inputs[1], builds)?;
            stages.push(StageIR::Probe {
                table,
                keys: p
                    .pairs()
                    .iter()
                    .map(|&(_, ra)| position(&pschema, ra))
                    .collect(),
                build_ncols: bschema.len(),
                join: p.clone(),
            });
            Ok((source, stages))
        }
        // Gathers, sorts, aggregates, set ops, other joins, index scans.
        _ => Err(NoChain::Root),
    }
}
