//! Lower an optimized physical plan to an executable operator tree.
//!
//! Compilation walks the plan bottom-up, tracking each node's output
//! schema (a vector of attribute ids) so predicates, join keys, sort keys
//! and projections can be resolved to tuple positions. [`compile_node_at`]
//! builds a single operator over pre-built children, which the
//! EXPLAIN-ANALYZE instrumentation uses to interpose row counters at
//! every operator boundary.

use volcano_rel::catalog::ColType;
use volcano_rel::{AggSpec, AttrId, Pred, RelAlg, RelPlan, TableId};

use crate::batch::{BoxedBatchOperator, DEFAULT_BATCH_SIZE};
use crate::database::{Database, SchemaSnapshot};
use crate::iterator::BoxedOperator;
use crate::ops::{
    aggregate::CompiledAgg, AggMode, BatchSource, CompiledPred, Filter, HashAggregate, HashJoin,
    MergeJoin, NestedLoops, Project, StreamAggregate, TableScan, TupleSource,
};
use crate::ops::{HashSetOp, MergeSetOp, SetOpKind};

/// An executable operator tree plus its output schema.
pub struct Compiled {
    /// The root operator.
    pub operator: BoxedOperator,
    /// Output attribute ids, in tuple position order.
    pub schema: Vec<AttrId>,
}

/// Configuration of the vectorized executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Rows per batch.
    pub batch_size: usize,
    /// Pages per morsel for parallel pipelines under a `gather` node;
    /// `None` uses [`crate::morsel::DEFAULT_MORSEL_PAGES`].
    pub morsel_pages: Option<usize>,
    /// Fault injection for the chaos suite: panic inside the worker that
    /// is dispensed the `n`-th morsel (1-based, cumulative across the
    /// pipelines of one gather). `None` disables injection.
    pub fail_morsel: Option<u64>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            batch_size: DEFAULT_BATCH_SIZE,
            morsel_pages: None,
            fail_morsel: None,
        }
    }
}

/// Which execution engine runs a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Tuple-at-a-time Volcano iterators (`open`/`next`/`close`): the
    /// paper-faithful reference the vectorized engine is tested against.
    #[default]
    Tuple,
    /// The vectorized engine: pipelineable plan segments compiled into
    /// [`crate::fused::FusedRegion`] operators over selection-vectored
    /// batches, run at the degree a `gather(n)` gives them, everything
    /// else on the tuple operators behind adapters.
    Fused(BatchConfig),
}

impl Engine {
    /// Short lowercase name (`tuple` / `fused`) for traces and the
    /// CLI's `SET EXECUTOR` echo.
    pub fn label(&self) -> &'static str {
        match self {
            Engine::Tuple => "tuple",
            Engine::Fused(_) => "fused",
        }
    }

    /// The retired operator-per-node batch engine, nameable as a
    /// constructor only: `e2e/src/sut.rs` (frozen by BENCHMARK.json) is
    /// its one caller, and the next benchmark PR deletes both.
    #[doc(hidden)]
    #[allow(non_snake_case)]
    pub fn Batch(cfg: BatchConfig) -> Engine {
        Engine::Fused(cfg)
    }
}

impl BatchConfig {
    /// Config with a specific batch size (clamped to ≥ 1).
    pub fn with_batch_size(batch_size: usize) -> Self {
        BatchConfig {
            batch_size: batch_size.max(1),
            ..BatchConfig::default()
        }
    }

    /// Set the morsel granularity (pages per morsel, clamped to ≥ 1).
    pub fn with_morsel_pages(mut self, pages: usize) -> Self {
        self.morsel_pages = Some(pages.max(1));
        self
    }

    /// Inject a panic when the `n`-th morsel is dispensed (chaos tests).
    pub fn with_fail_morsel(mut self, n: u64) -> Self {
        self.fail_morsel = Some(n);
        self
    }
}

pub(crate) fn position(schema: &[AttrId], attr: AttrId) -> usize {
    schema
        .iter()
        .position(|&a| a == attr)
        .unwrap_or_else(|| panic!("attribute {attr:?} not in schema {schema:?}"))
}

pub(crate) fn compile_pred(schema: &[AttrId], pred: &Pred) -> CompiledPred {
    CompiledPred::new(
        pred.terms()
            .iter()
            .map(|c| (position(schema, c.attr), c.op, c.value.clone()))
            .collect(),
    )
}

pub(crate) fn table_schema(sch: &SchemaSnapshot, t: TableId) -> Vec<AttrId> {
    sch.catalog()
        .table(t)
        .columns
        .iter()
        .map(|c| c.attr)
        .collect()
}

/// The output schema of a plan node (attribute ids in position order).
pub fn schema_of(db: &Database, plan: &RelPlan) -> Vec<AttrId> {
    schema_of_at(&db.snapshot(), plan)
}

/// [`schema_of`] against a pinned schema snapshot.
pub fn schema_of_at(sch: &SchemaSnapshot, plan: &RelPlan) -> Vec<AttrId> {
    match &plan.alg {
        RelAlg::FileScan(t) | RelAlg::FilterScan(t, _) | RelAlg::IndexScan(t, _) => {
            table_schema(sch, *t)
        }
        RelAlg::Filter(_) | RelAlg::Sort(_) | RelAlg::Gather(_) => {
            schema_of_at(sch, &plan.inputs[0])
        }
        RelAlg::ProjectOp(attrs) => attrs.clone(),
        RelAlg::MergeJoin(_) | RelAlg::HybridHashJoin(_) | RelAlg::NestedLoops(_) => {
            let mut s = schema_of_at(sch, &plan.inputs[0]);
            s.extend(schema_of_at(sch, &plan.inputs[1]));
            s
        }
        RelAlg::MultiWayHashJoin { .. } => {
            let mut s = schema_of_at(sch, &plan.inputs[0]);
            s.extend(schema_of_at(sch, &plan.inputs[1]));
            s.extend(schema_of_at(sch, &plan.inputs[2]));
            s
        }
        RelAlg::HashUnion
        | RelAlg::HashIntersect
        | RelAlg::HashDifference
        | RelAlg::MergeUnion
        | RelAlg::MergeIntersect
        | RelAlg::MergeDifference => schema_of_at(sch, &plan.inputs[0]),
        RelAlg::HashAggregate(spec)
        | RelAlg::StreamAggregate(spec)
        | RelAlg::FinalHashAggregate(spec) => {
            let mut s = spec.group_by.clone();
            s.extend(spec.aggs.iter().map(|&(_, out)| out));
            s
        }
        RelAlg::PartialHashAggregate(spec, _) => spec.partial_attrs(),
    }
}

/// Resolve an aggregate spec against its *raw* input schema: group-by
/// positions and per-aggregate input positions.
pub(crate) fn compile_agg_spec(
    schema: &[AttrId],
    spec: &AggSpec,
) -> (Vec<usize>, Vec<CompiledAgg>) {
    let group = spec.group_by.iter().map(|&a| position(schema, a)).collect();
    let aggs = spec
        .aggs
        .iter()
        .map(|(f, _)| {
            use volcano_rel::AggFunc::*;
            match f {
                CountStar => CompiledAgg::CountStar,
                Sum(a) => CompiledAgg::Sum(position(schema, *a)),
                Min(a) => CompiledAgg::Min(position(schema, *a)),
                Max(a) => CompiledAgg::Max(position(schema, *a)),
                Avg(a) => CompiledAgg::Avg(position(schema, *a)),
            }
        })
        .collect();
    (group, aggs)
}

/// Resolve an aggregate spec against the *partial row layout* a final
/// aggregate consumes: group keys lead, each aggregate's partial value
/// follows (AVG's companion count column is found by the merge itself).
pub(crate) fn partial_layout_aggs(spec: &AggSpec) -> Vec<CompiledAgg> {
    let mut pos = spec.group_by.len();
    spec.aggs
        .iter()
        .map(|(f, _)| {
            use volcano_rel::AggFunc::*;
            let main = pos;
            pos += 1;
            match f {
                CountStar => CompiledAgg::CountStar,
                Sum(_) => CompiledAgg::Sum(main),
                Min(_) => CompiledAgg::Min(main),
                Max(_) => CompiledAgg::Max(main),
                Avg(_) => {
                    pos += 1;
                    CompiledAgg::Avg(main)
                }
            }
        })
        .collect()
}

/// Build the operator for `plan`'s root over pre-built `children`
/// (which must correspond to `plan.inputs`, in order), against a pinned
/// schema snapshot.
pub fn compile_node_at(
    db: &Database,
    sch: &SchemaSnapshot,
    plan: &RelPlan,
    mut children: Vec<BoxedOperator>,
) -> BoxedOperator {
    let child_schemas: Vec<Vec<AttrId>> =
        plan.inputs.iter().map(|c| schema_of_at(sch, c)).collect();
    match &plan.alg {
        RelAlg::FileScan(t) => Box::new(TableScan::new(sch.table(*t).clone())),
        RelAlg::IndexScan(t, attr) => {
            let index = sch
                .index(*t, *attr)
                .unwrap_or_else(|| panic!("no index on {t:?}.{attr:?}"))
                .clone();
            Box::new(crate::ops::IndexScan::new(sch.table(*t).clone(), index))
        }
        RelAlg::FilterScan(t, pred) => {
            let schema = table_schema(sch, *t);
            let cp = compile_pred(&schema, pred);
            Box::new(TableScan::with_pred(sch.table(*t).clone(), Some(cp)))
        }
        RelAlg::Filter(pred) => {
            let cp = compile_pred(&child_schemas[0], pred);
            Box::new(Filter::new(children.remove(0), cp))
        }
        RelAlg::ProjectOp(attrs) => {
            let positions = attrs
                .iter()
                .map(|&a| position(&child_schemas[0], a))
                .collect();
            Box::new(Project::new(children.remove(0), positions))
        }
        // The tuple engine runs everything at degree 1: a gather executes
        // its subtree serially, which produces the same rows (operators
        // are degree-agnostic; the degree only matters to the vectorized
        // engine's regions).
        RelAlg::Gather(_) => children.remove(0),
        RelAlg::Sort(attrs) => {
            let keys = attrs
                .iter()
                .map(|&a| position(&child_schemas[0], a))
                .collect();
            // External sort over the database's buffer pool: run files
            // spill through the same disk the cost model charges.
            Box::new(crate::ops::ExternalSort::new(
                children.remove(0),
                keys,
                db.pool().clone(),
                db.sort_memory_rows(),
            ))
        }
        RelAlg::MergeJoin(p) => {
            // The key *order* the optimizer chose is visible in the left
            // input's delivered sort order (its prefix is a permutation
            // of the predicate's left attributes).
            let k = p.pairs().len();
            let left_order: Vec<AttrId> = plan.inputs[0]
                .delivered
                .sort
                .iter()
                .take(k)
                .copied()
                .collect();
            assert_eq!(
                left_order.len(),
                k,
                "merge join input must be sorted on all {k} key(s)"
            );
            let mut lkeys = Vec::with_capacity(k);
            let mut rkeys = Vec::with_capacity(k);
            for la in left_order {
                let &(_, ra) = p
                    .pairs()
                    .iter()
                    .find(|&&(pl, _)| pl == la)
                    .unwrap_or_else(|| panic!("sort key {la:?} is not a join key of {p}"));
                lkeys.push(position(&child_schemas[0], la));
                rkeys.push(position(&child_schemas[1], ra));
            }
            let right = children.remove(1);
            let left = children.remove(0);
            Box::new(MergeJoin::new(left, right, lkeys, rkeys))
        }
        RelAlg::HybridHashJoin(p) => {
            let lkeys = p
                .pairs()
                .iter()
                .map(|&(la, _)| position(&child_schemas[0], la))
                .collect();
            let rkeys = p
                .pairs()
                .iter()
                .map(|&(_, ra)| position(&child_schemas[1], ra))
                .collect();
            let right = children.remove(1);
            let left = children.remove(0);
            Box::new(HashJoin::new(left, right, lkeys, rkeys))
        }
        RelAlg::MultiWayHashJoin { inner, outer } => {
            let inner_a = inner
                .pairs()
                .iter()
                .map(|&(la, _)| position(&child_schemas[0], la))
                .collect();
            let inner_b = inner
                .pairs()
                .iter()
                .map(|&(_, ra)| position(&child_schemas[1], ra))
                .collect();
            // The rule's condition guarantees the outer-left attributes
            // all live in B.
            let outer_b = outer
                .pairs()
                .iter()
                .map(|&(la, _)| position(&child_schemas[1], la))
                .collect();
            let outer_c = outer
                .pairs()
                .iter()
                .map(|&(_, ra)| position(&child_schemas[2], ra))
                .collect();
            let c = children.remove(2);
            let b = children.remove(1);
            let a = children.remove(0);
            Box::new(crate::ops::MultiWayHash::new(
                a, b, c, inner_a, inner_b, outer_b, outer_c,
            ))
        }
        RelAlg::NestedLoops(p) => {
            let pairs = p
                .pairs()
                .iter()
                .map(|&(la, ra)| {
                    (
                        position(&child_schemas[0], la),
                        position(&child_schemas[1], ra),
                    )
                })
                .collect();
            let right = children.remove(1);
            let left = children.remove(0);
            Box::new(NestedLoops::new(left, right, pairs))
        }
        RelAlg::HashUnion | RelAlg::HashIntersect | RelAlg::HashDifference => {
            let kind = match &plan.alg {
                RelAlg::HashUnion => SetOpKind::Union,
                RelAlg::HashIntersect => SetOpKind::Intersect,
                _ => SetOpKind::Difference,
            };
            let right = children.remove(1);
            let left = children.remove(0);
            Box::new(HashSetOp::new(kind, left, right))
        }
        RelAlg::MergeUnion | RelAlg::MergeIntersect | RelAlg::MergeDifference => {
            let kind = match &plan.alg {
                RelAlg::MergeUnion => SetOpKind::Union,
                RelAlg::MergeIntersect => SetOpKind::Intersect,
                _ => SetOpKind::Difference,
            };
            let right = children.remove(1);
            let left = children.remove(0);
            Box::new(MergeSetOp::new(kind, left, right))
        }
        RelAlg::HashAggregate(spec) | RelAlg::StreamAggregate(spec) => {
            let (group, aggs) = compile_agg_spec(&child_schemas[0], spec);
            let child = children.remove(0);
            match &plan.alg {
                RelAlg::StreamAggregate(_) => Box::new(StreamAggregate::new(child, group, aggs)),
                _ => Box::new(HashAggregate::new(child, group, aggs)),
            }
        }
        RelAlg::PartialHashAggregate(spec, _) => {
            let (group, aggs) = compile_agg_spec(&child_schemas[0], spec);
            Box::new(HashAggregate::with_mode(
                children.remove(0),
                group,
                aggs,
                AggMode::Partial,
            ))
        }
        RelAlg::FinalHashAggregate(spec) => {
            let group: Vec<usize> = (0..spec.group_by.len()).collect();
            let aggs = partial_layout_aggs(spec);
            Box::new(HashAggregate::with_mode(
                children.remove(0),
                group,
                aggs,
                AggMode::Final,
            ))
        }
    }
}

/// Compile a plan against a database (the current schema snapshot).
pub fn compile(db: &Database, plan: &RelPlan) -> Compiled {
    compile_at(db, &db.snapshot(), plan)
}

/// [`compile`] against a pinned schema snapshot — every scan in the
/// tree resolves against the same schema state.
pub(crate) fn compile_at(db: &Database, sch: &SchemaSnapshot, plan: &RelPlan) -> Compiled {
    let children: Vec<BoxedOperator> = plan
        .inputs
        .iter()
        .map(|c| compile_at(db, sch, c).operator)
        .collect();
    Compiled {
        operator: compile_node_at(db, sch, plan, children),
        schema: schema_of_at(sch, plan),
    }
}

/// A subtree built for the vectorized engine: natively vectorized, or a
/// tuple operator awaiting an adapter. Keeping both forms during
/// compilation lets the lowering insert at most one adapter per engine
/// boundary instead of sandwiching every operator.
pub(crate) enum Built {
    /// Natively vectorized subtree.
    B(BoxedBatchOperator),
    /// Tuple-at-a-time subtree.
    T(BoxedOperator),
}

impl Built {
    /// Coerce to a batch operator (adapting a tuple subtree).
    pub(crate) fn into_batch(self, arity: usize, batch_size: usize) -> BoxedBatchOperator {
        match self {
            Built::B(op) => op,
            Built::T(op) => Box::new(TupleSource::new(op, arity, batch_size)),
        }
    }

    /// Coerce to a tuple operator (adapting a batch subtree).
    pub(crate) fn into_tuple(self) -> BoxedOperator {
        match self {
            Built::B(op) => Box::new(BatchSource::new(op)),
            Built::T(op) => op,
        }
    }
}

pub(crate) fn table_col_types(sch: &SchemaSnapshot, t: TableId) -> Vec<ColType> {
    sch.catalog()
        .table(t)
        .columns
        .iter()
        .map(|c| c.ty)
        .collect()
}
