//! The one decomposition of a physical plan into pipelines, and the one
//! place column demand is decided.
//!
//! Scans, filters, projections and keyed hash joins are *pipelineable*:
//! a subtree of them splits, exactly as in morsel-driven designs, into
//! one build pipeline per hash join (its left input, ending in a
//! hash-table build) and a chain that continues through the probe side.
//! [`Region::lower`] is the only place that split is made, and
//! [`crate::fused`] the only consumer of its IR: it monomorphizes a
//! region into a [`crate::fused::FusedRegion`] that runs at the degree
//! the plan gives it. What to do with an input whose root is not
//! pipelineable depends on that degree — an opaque batch source at
//! degree 1, no region at all above it — which is the `lower_input`
//! argument.
//!
//! After the split, one backward pass ([`Region::prune`]) derives what
//! every pipeline has to carry from what its sink reads:
//!
//! * an [`AggSink`] demands its group and aggregate input columns —
//!   nothing at all for `COUNT(*)`; a `Final` sink and a region's plain
//!   output demand every column of the row;
//! * a build sink demands its keys plus the table columns the probing
//!   stage's output map gathers (a table has exactly one prober, in a
//!   later pipeline, so pipelines are walked last to first);
//! * walking a chain backwards, a filter adds the columns it compares, a
//!   projection translates output positions to input positions, a probe
//!   splits its demanded outputs between table and probe side and adds
//!   its keys.
//!
//! What reaches the source becomes a scan's keep mask (for
//! `decode_record_projected`; an opaque input cannot be narrowed). A
//! forward pass then renumbers every position to the narrowed row shape,
//! drops undemanded projection outputs, and removes a projection that
//! became the identity. Positions always index the *physical* batch: a
//! column only a filter needed stays in the batch, ungathered, until the
//! next projection or probe leaves it behind.
//!
//! The IR names plan nodes, not their predicates: each source, filter
//! and probe carries the pre-order slots of the nodes whose rows it
//! produces, a projection's among those of the step before it.

use std::sync::Arc;

use volcano_rel::catalog::ColType;
use volcano_rel::{Pred, RelAlg, RelPlan};
use volcano_store::HeapFile;

use crate::batch::BoxedBatchOperator;
use crate::compile::{compile_pred, position, schema_of_at, table_col_types, table_schema};
use crate::database::SchemaSnapshot;
use crate::kernels::agg::{AggMode, CompiledAgg};
use crate::ops::CompiledPred;

/// Where a pipeline's rows come from.
pub(crate) enum SourceIR {
    /// Heap scan producing the columns `keep` selects.
    Scan {
        heap: Arc<HeapFile>,
        /// Types of the produced columns.
        col_types: Vec<ColType>,
        /// Full-table-width mask of the columns to decode.
        keep: Vec<bool>,
        /// Scan predicate; positions index the produced columns.
        pred: Option<CompiledPred>,
        /// The plan nodes whose output the scan's is (module doc).
        nodes: Vec<usize>,
    },
    /// Opaque batch subtree of the given arity; its root counts its own
    /// rows, `nodes` only projections directly above it.
    Input {
        op: BoxedBatchOperator,
        arity: usize,
        nodes: Vec<usize>,
    },
}

/// Where a probe output column comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ProbeCol {
    /// Column `i` of the build table.
    Build(usize),
    /// Column `j` of the probe-side batch.
    Probe(usize),
}

/// One step of a pipeline. Positions are plain `usize`s into the batch
/// the previous step produces; filters and probes carry the plan nodes
/// whose output theirs is (module doc), projections none.
pub(crate) enum StageIR {
    Filter(CompiledPred, Vec<usize>),
    Project(Vec<usize>),
    /// Probe the table of build slot `table`; `out` maps each output
    /// column to its side, so the join gathers only what is read above.
    Probe {
        table: usize,
        keys: Vec<usize>,
        out: Vec<ProbeCol>,
        /// A projection above the join was folded into `out`.
        projected: bool,
        nodes: Vec<usize>,
    },
}

/// What a build sink takes from its pipeline's final batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TableShape {
    /// Batch positions of the key columns.
    pub(crate) keys: Vec<usize>,
    /// Batch positions of the stored columns, in table column order;
    /// every key is among them.
    pub(crate) cols: Vec<usize>,
    /// The keys as positions in the table (indices into `cols`).
    pub(crate) table_keys: Vec<usize>,
}

/// A hash-join build side; its table slot is its index in the build list.
pub(crate) struct BuildIR {
    pub(crate) source: SourceIR,
    pub(crate) stages: Vec<StageIR>,
    pub(crate) table: TableShape,
}

/// A terminal aggregation: the output pipeline folds its rows into a
/// group table instead of streaming them.
#[derive(Clone)]
pub(crate) struct AggSink {
    /// Group-by column positions in the pipeline's final batch (for the
    /// `Final` phase these are the leading partial-layout columns).
    pub(crate) group: Vec<usize>,
    /// The aggregates, resolved to input column positions.
    pub(crate) aggs: Vec<CompiledAgg>,
    /// Phase: one-shot, per-worker partial, or partial-merging final.
    pub(crate) mode: AggMode,
    /// The aggregate's plan node, whose output the groups are.
    pub(crate) node: usize,
}

/// A decomposed, pruned pipelineable region: build pipelines in
/// dependency order — a join's build after every pipeline beneath it and
/// before anything on its probe side, so a build's slot is its index and
/// a pipeline only ever probes earlier slots — then the output chain.
pub(crate) struct Region {
    pub(crate) builds: Vec<BuildIR>,
    pub(crate) source: SourceIR,
    pub(crate) stages: Vec<StageIR>,
    pub(crate) agg: Option<AggSink>,
}

/// Decides what a non-pipelineable input (and pre-order slot) becomes:
/// `Some(source)` feeds the pipeline from it, `None` abandons it.
pub(crate) type LowerInput<'a> = dyn FnMut(&RelPlan, usize) -> Option<SourceIR> + 'a;

impl Region {
    /// Decompose the pipelineable region rooted at `plan`, pre-order
    /// slot `slot`, and prune it to what is read. With `agg`, `plan` is
    /// the aggregate's *input* and the output chain ends in that sink; a
    /// root that is not pipelineable then still yields a one-source
    /// region over `lower_input(plan, slot)`. `None` when `lower_input`
    /// refused an input, or when there is no sink and `plan`'s own root
    /// is not pipelineable (nothing was lowered in that case).
    pub(crate) fn lower(
        sch: &SchemaSnapshot,
        plan: &RelPlan,
        slot: usize,
        agg: Option<AggSink>,
        lower_input: &mut LowerInput<'_>,
    ) -> Option<Region> {
        let mut builds = Vec::new();
        let (source, stages) = match decompose(sch, plan, slot, &mut builds, lower_input) {
            Ok(chain) => chain,
            Err(NoChain::Root) if agg.is_some() => (lower_input(plan, slot)?, Vec::new()),
            Err(_) => return None,
        };
        let mut region = Region {
            builds,
            source,
            stages,
            agg,
        };
        region.prune();
        Some(region)
    }

    /// The demand pass (module doc): narrow every scan, build table and
    /// stage to the columns the sinks read.
    fn prune(&mut self) {
        let mut pass = DemandPass::default();
        // Demand on each table's columns, over its build pipeline's final
        // batch; the prober adds what it gathers when its chain is walked.
        let mut tables: Vec<Vec<bool>> = self
            .builds
            .iter()
            .map(|b| {
                let mut m = vec![false; b.table.cols.len()];
                b.table.keys.iter().for_each(|&k| m[k] = true);
                m
            })
            .collect();
        let agg = &self.agg;
        let demand = |m: &mut [bool]| match agg {
            Some(sink) if sink.mode != AggMode::Final => {
                let inputs = sink.aggs.iter().filter_map(CompiledAgg::input);
                let read = sink.group.iter().copied().chain(inputs);
                read.for_each(|p| m[p] = true);
            }
            _ => m.fill(true),
        };
        let at = pass.chain(&mut self.source, &mut self.stages, demand, &mut tables);
        if let Some(sink) = &mut self.agg {
            sink.group.iter_mut().for_each(|g| *g = at[*g]);
            sink.aggs.iter_mut().for_each(|a| *a = a.map_input(at));
        }
        for slot in (0..self.builds.len()).rev() {
            let (earlier, own) = tables.split_at_mut(slot);
            let (b, own) = (&mut self.builds[slot], &own[0]);
            let demand = |m: &mut [bool]| m.copy_from_slice(own);
            let at = pass.chain(&mut b.source, &mut b.stages, demand, earlier);
            let TableShape {
                keys,
                cols,
                table_keys,
            } = &mut b.table;
            cols.retain(|&c| own[c]);
            for (tk, k) in table_keys.iter_mut().zip(keys.iter_mut()) {
                *tk = cols.iter().position(|c| c == k).expect("keys are stored");
                *k = at[*k];
            }
            cols.iter_mut().for_each(|c| *c = at[*c]);
        }
    }
}

/// Old position → position among the set entries of `keep` (meaningless
/// where `keep` is false), written over `out`.
fn ranks(keep: &[bool], out: &mut Vec<usize>) {
    let mut next = 0;
    out.clear();
    out.extend(keep.iter().map(|&k| {
        next += usize::from(k);
        next.wrapping_sub(1)
    }));
}

/// Keep the entries of `v` whose flag in `keep` is set, in order.
fn retain_flagged<T>(v: &mut Vec<T>, keep: &[bool]) {
    let mut flags = keep.iter();
    v.retain(|_| *flags.next().expect("one flag per entry"));
}

fn source_width(source: &SourceIR) -> usize {
    match source {
        SourceIR::Scan { col_types, .. } => col_types.len(),
        SourceIR::Input { arity, .. } => *arity,
    }
}

fn stage_width(stage: &StageIR, input: usize) -> usize {
    match stage {
        StageIR::Filter(..) => input,
        StageIR::Project(cols) => cols.len(),
        StageIR::Probe { out, .. } => out.len(),
    }
}

/// The buffers of the demand pass, reused by every chain of a region so
/// that pruning allocates per region, not per stage.
#[derive(Default)]
struct DemandPass {
    /// The demand masks of the chain being pruned, end to end: what the
    /// source must produce, then what each stage's output must carry.
    masks: Vec<bool>,
    /// Where each mask starts in `masks`, plus the total length.
    starts: Vec<usize>,
    /// Positions of the current *unpruned* row shape → positions in the
    /// physical batch.
    at: Vec<usize>,
    /// Positions in a table → positions among its stored columns.
    in_table: Vec<usize>,
}

impl DemandPass {
    /// Prune one chain to what its sink reads — `demand` marks that in a
    /// cleared mask over the chain's final row shape: mark what its
    /// probes gather in `tables`, narrow the source, renumber the stages
    /// in place. Returns the map from old final-row positions to
    /// positions in the final batch.
    fn chain(
        &mut self,
        source: &mut SourceIR,
        stages: &mut Vec<StageIR>,
        demand: impl FnOnce(&mut [bool]),
        tables: &mut [Vec<bool>],
    ) -> &[usize] {
        let DemandPass {
            masks,
            starts,
            at,
            in_table,
        } = self;
        starts.clear();
        starts.push(0);
        let mut width = source_width(source);
        for stage in stages.iter() {
            starts.push(starts.last().expect("seeded") + width);
            width = stage_width(stage, width);
        }
        let total = starts.last().expect("seeded") + width;
        starts.push(total);
        masks.clear();
        masks.resize(total, false);
        demand(&mut masks[total - width..]);
        // Backward: mask `i` is what stage `i`'s input must carry, mask
        // `i + 1` what is read of its output.
        for (i, stage) in stages.iter().enumerate().rev() {
            let (below, above) = masks.split_at_mut(starts[i + 1]);
            let input = &mut below[starts[i]..];
            let above = &above[..starts[i + 2] - starts[i + 1]];
            match stage {
                StageIR::Filter(pred, _) => {
                    input.copy_from_slice(above);
                    pred.terms().iter().for_each(|t| input[t.0] = true);
                }
                StageIR::Project(cols) => {
                    let read = cols.iter().zip(above).filter(|(_, &d)| d);
                    read.for_each(|(&c, _)| input[c] = true);
                }
                StageIR::Probe {
                    table, keys, out, ..
                } => {
                    keys.iter().for_each(|&k| input[k] = true);
                    for (col, _) in out.iter().zip(above).filter(|(_, &d)| d) {
                        match *col {
                            ProbeCol::Build(b) => tables[*table][b] = true,
                            ProbeCol::Probe(p) => input[p] = true,
                        }
                    }
                }
            }
        }
        // Forward.
        let read = &mut masks[..starts[1]];
        match source {
            SourceIR::Scan {
                col_types,
                keep,
                pred,
                ..
            } => {
                if let Some(p) = pred {
                    p.terms().iter().for_each(|t| read[t.0] = true);
                }
                ranks(read, at);
                if let Some(p) = pred {
                    p.remap(at);
                }
                retain_flagged(col_types, read);
                keep.copy_from_slice(read);
            }
            SourceIR::Input { arity, .. } => {
                at.clear();
                at.extend(0..*arity);
            }
        }
        let mut batch_width = source_width(source);
        let mut next = 1;
        stages.retain_mut(|stage| {
            next += 1;
            let demand = &masks[starts[next - 1]..starts[next]];
            match stage {
                StageIR::Filter(pred, _) => pred.remap(at),
                StageIR::Project(cols) => {
                    retain_flagged(cols, demand);
                    cols.iter_mut().for_each(|c| *c = at[*c]);
                    let identity =
                        cols.len() == batch_width && cols.iter().enumerate().all(|(i, &c)| i == c);
                    batch_width = cols.len();
                    ranks(demand, at);
                    return !identity;
                }
                StageIR::Probe {
                    table, keys, out, ..
                } => {
                    ranks(&tables[*table], in_table);
                    retain_flagged(out, demand);
                    for col in out.iter_mut() {
                        *col = match *col {
                            ProbeCol::Build(b) => ProbeCol::Build(in_table[b]),
                            ProbeCol::Probe(p) => ProbeCol::Probe(at[p]),
                        };
                    }
                    keys.iter_mut().for_each(|k| *k = at[*k]);
                    batch_width = out.len();
                    ranks(demand, at);
                }
            }
            true
        });
        at
    }
}

/// A pipeline's source and stage chain.
type Chain = (SourceIR, Vec<StageIR>);

/// Why a subtree did not decompose.
enum NoChain {
    /// The subtree's own root is not pipelineable; nothing was touched.
    Root,
    /// `lower_input` refused an input further down.
    Input,
}

/// The nodes of a chain's last step that counts rows: a projection keeps
/// its input's row count, so it shares the count of the step before it.
fn output_nodes<'a>(source: &'a mut SourceIR, stages: &'a mut [StageIR]) -> &'a mut Vec<usize> {
    let last = stages.iter_mut().rev().find_map(|stage| match stage {
        StageIR::Filter(_, nodes) | StageIR::Probe { nodes, .. } => Some(nodes),
        StageIR::Project(_) => None,
    });
    last.unwrap_or(match source {
        SourceIR::Scan { nodes, .. } | SourceIR::Input { nodes, .. } => nodes,
    })
}

/// Split the pipelineable region rooted at `plan`, at pre-order `slot`:
/// build sides are pushed onto `builds` in dependency order, the chain
/// that ends at `plan` is returned. Every scan decodes every column and
/// every table stores its whole row until [`Region::prune`] narrows them.
fn decompose(
    sch: &SchemaSnapshot,
    plan: &RelPlan,
    slot: usize,
    builds: &mut Vec<BuildIR>,
    lower_input: &mut LowerInput<'_>,
) -> Result<Chain, NoChain> {
    let mut input = |(p, at): (&RelPlan, usize), builds: &mut Vec<BuildIR>| {
        decompose(sch, p, at, builds, lower_input).or_else(|no| match no {
            NoChain::Root => lower_input(p, at)
                .map(|s| (s, Vec::new()))
                .ok_or(NoChain::Input),
            NoChain::Input => Err(no),
        })
    };
    let mut inputs = crate::analyze::input_slots(plan, slot);
    let scan = |t, pred: Option<&Pred>| {
        let col_types = table_col_types(sch, t);
        SourceIR::Scan {
            heap: sch.table(t).clone(),
            keep: vec![true; col_types.len()],
            col_types,
            pred: pred.map(|p| compile_pred(&table_schema(sch, t), p)),
            nodes: vec![slot],
        }
    };
    match &plan.alg {
        RelAlg::FileScan(t) => Ok((scan(*t, None), Vec::new())),
        RelAlg::FilterScan(t, pred) => Ok((scan(*t, Some(pred)), Vec::new())),
        RelAlg::Filter(pred) => {
            let (source, mut stages) = input(inputs.next().expect("one input"), builds)?;
            let schema = schema_of_at(sch, &plan.inputs[0]);
            stages.push(StageIR::Filter(compile_pred(&schema, pred), vec![slot]));
            Ok((source, stages))
        }
        RelAlg::ProjectOp(attrs) => {
            let (mut source, mut stages) = input(inputs.next().expect("one input"), builds)?;
            output_nodes(&mut source, &mut stages).push(slot);
            let schema = schema_of_at(sch, &plan.inputs[0]);
            let cols = attrs.iter().map(|&a| position(&schema, a));
            // A projection directly above a join folds into the probe's
            // output map: the join never gathers build ++ probe in full.
            match stages.last_mut() {
                Some(StageIR::Probe { out, projected, .. }) => {
                    *out = cols.map(|c| out[c]).collect();
                    *projected = true;
                }
                _ => stages.push(StageIR::Project(cols.collect())),
            }
            Ok((source, stages))
        }
        // A cross product has no key to build a table on.
        RelAlg::HybridHashJoin(p) if !p.pairs().is_empty() => {
            let bschema = schema_of_at(sch, &plan.inputs[0]);
            let (source, stages) = input(inputs.next().expect("build input"), builds)?;
            let table = builds.len();
            let keys: Vec<usize> = p
                .pairs()
                .iter()
                .map(|&(la, _)| position(&bschema, la))
                .collect();
            builds.push(BuildIR {
                source,
                stages,
                table: TableShape {
                    table_keys: keys.clone(),
                    keys,
                    cols: (0..bschema.len()).collect(),
                },
            });
            let pschema = schema_of_at(sch, &plan.inputs[1]);
            let (source, mut stages) = input(inputs.next().expect("probe input"), builds)?;
            stages.push(StageIR::Probe {
                table,
                keys: p
                    .pairs()
                    .iter()
                    .map(|&(_, ra)| position(&pschema, ra))
                    .collect(),
                out: (0..bschema.len())
                    .map(ProbeCol::Build)
                    .chain((0..pschema.len()).map(ProbeCol::Probe))
                    .collect(),
                projected: false,
                nodes: vec![slot],
            });
            Ok((source, stages))
        }
        // Gathers, sorts, aggregates, set ops, other joins, index scans.
        _ => Err(NoChain::Root),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcano_core::{PhysicalProps, SearchOptions};
    use volcano_rel::{
        AttrId, Catalog, Cmp, ColumnDef, JoinPred, RelModel, RelOptimizer, RelProps,
    };

    use crate::database::Database;

    /// Tables `t(a, b, c, d)`, `u(x, y, z)`, `v(p, q)` and hand-assembled
    /// plans over them, so every shape below is exactly the one named.
    struct Fixture {
        db: Database,
        catalog: Catalog,
        like: RelPlan,
    }

    impl Fixture {
        fn new() -> Self {
            let mut catalog = Catalog::new();
            let cols = |names: &[&str]| names.iter().map(|n| ColumnDef::int(n, 10.0)).collect();
            catalog.add_table("t", 100.0, cols(&["a", "b", "c", "d"]));
            catalog.add_table("u", 100.0, cols(&["x", "y", "z"]));
            catalog.add_table("v", 100.0, cols(&["p", "q"]));
            let db = Database::in_memory(catalog.clone());
            // Any optimized plan serves as the template for cost and group.
            let q = volcano_sql::plan_query("SELECT t.a FROM t", &mut catalog.clone()).unwrap();
            let model = RelModel::with_defaults(catalog.clone());
            let mut opt = RelOptimizer::new(&model, SearchOptions::default());
            let root = opt.insert_tree(&q.expr);
            let like = opt.find_best_plan(root, RelProps::any(), None).unwrap();
            Fixture { db, catalog, like }
        }

        fn attr(&self, table: &str, col: &str) -> AttrId {
            let t = self.catalog.table_by_name(table).unwrap();
            t.columns.iter().find(|c| c.name == col).unwrap().attr
        }

        fn node(&self, alg: RelAlg, inputs: Vec<RelPlan>) -> RelPlan {
            RelPlan {
                alg,
                inputs,
                delivered: RelProps::any(),
                ..self.like.clone()
            }
        }

        fn scan(&self, table: &str) -> RelPlan {
            let id = self.catalog.table_by_name(table).unwrap().id;
            self.node(RelAlg::FileScan(id), vec![])
        }

        fn join(&self, build: RelPlan, probe: RelPlan, on: (AttrId, AttrId)) -> RelPlan {
            let alg = RelAlg::HybridHashJoin(JoinPred::eq(on.0, on.1));
            self.node(alg, vec![build, probe])
        }

        /// Lower `plan` (under `agg`, given over `plan`'s output
        /// positions) with every input required to be pipelineable.
        fn lower(&self, plan: &RelPlan, agg: Option<AggSink>) -> Region {
            let mut opaque = |_: &RelPlan, _| None;
            Region::lower(&self.db.snapshot(), plan, 0, agg, &mut opaque).expect("pipelineable")
        }
    }

    fn agg(group: Vec<usize>, aggs: Vec<CompiledAgg>) -> Option<AggSink> {
        let (mode, node) = (AggMode::Complete, 0);
        Some(AggSink {
            group,
            aggs,
            mode,
            node,
        })
    }

    fn keep_of(source: &SourceIR) -> (&[bool], usize) {
        let SourceIR::Scan {
            keep, col_types, ..
        } = source
        else {
            panic!("scan source")
        };
        (keep, col_types.len())
    }

    #[test]
    fn scan_to_agg_decodes_group_and_aggregate_inputs_only() {
        let f = Fixture::new();
        // GROUP BY t.b, SUM(t.d).
        let r = f.lower(&f.scan("t"), agg(vec![1], vec![CompiledAgg::Sum(3)]));
        assert_eq!(keep_of(&r.source), (&[false, true, false, true][..], 2));
        assert!(r.stages.is_empty());
        let sink = r.agg.unwrap();
        assert_eq!(sink.group, [0]);
        assert!(matches!(sink.aggs[..], [CompiledAgg::Sum(1)]));
    }

    #[test]
    fn scan_filter_agg_decodes_the_filter_column_too() {
        let f = Fixture::new();
        // WHERE t.a < 5 GROUP BY t.c, COUNT(*), MAX(t.c).
        let pred = Pred::conj(vec![Cmp::lt(f.attr("t", "a"), 5)]);
        let plan = f.node(RelAlg::Filter(pred), vec![f.scan("t")]);
        let aggs = vec![CompiledAgg::CountStar, CompiledAgg::Max(2)];
        let r = f.lower(&plan, agg(vec![2], aggs));
        assert_eq!(keep_of(&r.source), (&[true, false, true, false][..], 2));
        let [StageIR::Filter(cp, _)] = &r.stages[..] else {
            panic!("the filter survives")
        };
        assert_eq!(cp.terms()[0].0, 0);
        let sink = r.agg.unwrap();
        assert_eq!(sink.group, [1]);
        assert!(matches!(
            sink.aggs[..],
            [CompiledAgg::CountStar, CompiledAgg::Max(1)]
        ));
    }

    #[test]
    fn probe_and_project_narrow_both_sides_of_a_join() {
        let f = Fixture::new();
        // SELECT t.b, u.y FROM u ⋈ t ON u.x = t.a, u the build side.
        let joined = f.join(
            f.scan("u"),
            f.scan("t"),
            (f.attr("u", "x"), f.attr("t", "a")),
        );
        let project = RelAlg::ProjectOp(vec![f.attr("t", "b"), f.attr("u", "y")]);
        let r = f.lower(&f.node(project, vec![joined]), None);
        let [build] = &r.builds[..] else {
            panic!("one build")
        };
        assert_eq!(keep_of(&build.source), (&[true, true, false][..], 2));
        let stored = TableShape {
            keys: vec![0],
            cols: vec![0, 1],
            table_keys: vec![0],
        };
        assert_eq!(build.table, stored);
        assert_eq!(keep_of(&r.source), (&[true, true, false, false][..], 2));
        let [StageIR::Probe {
            keys,
            out,
            projected: true,
            ..
        }] = &r.stages[..]
        else {
            panic!("the projection folds into the probe")
        };
        assert_eq!(keys, &[0]);
        assert_eq!(out, &[ProbeCol::Probe(1), ProbeCol::Build(1)]);
    }

    #[test]
    fn an_upper_probe_key_keeps_its_column_in_the_lower_build_table() {
        let f = Fixture::new();
        // SELECT t.b FROM v ⋈ (u ⋈ t ON u.x = t.a) ON v.p = u.y: the upper
        // probe's key `u.y` exists only in the lower join's build table.
        let lower = f.join(
            f.scan("u"),
            f.scan("t"),
            (f.attr("u", "x"), f.attr("t", "a")),
        );
        let upper = f.join(f.scan("v"), lower, (f.attr("v", "p"), f.attr("u", "y")));
        let project = RelAlg::ProjectOp(vec![f.attr("t", "b")]);
        let r = f.lower(&f.node(project, vec![upper]), None);
        let [v, u] = &r.builds[..] else {
            panic!("two builds, the upper join's first")
        };
        // `v` stores its key alone; `u` its key and the upper probe's.
        assert_eq!(keep_of(&v.source), (&[true, false][..], 1));
        assert_eq!(v.table.cols, [0]);
        assert_eq!(keep_of(&u.source), (&[true, true, false][..], 2));
        assert_eq!(
            (&u.table.keys[..], &u.table.cols[..]),
            (&[0][..], &[0, 1][..])
        );
        assert_eq!(keep_of(&r.source), (&[true, true, false, false][..], 2));
        let [StageIR::Probe {
            table: 1,
            out: lower_out,
            ..
        }, StageIR::Probe {
            table: 0,
            keys: upper_keys,
            out: upper_out,
            ..
        }] = &r.stages[..]
        else {
            panic!("two probes, the lower join's first")
        };
        assert_eq!(lower_out, &[ProbeCol::Build(1), ProbeCol::Probe(1)]);
        assert_eq!(upper_keys, &[0]);
        assert_eq!(upper_out, &[ProbeCol::Probe(1)]);
    }

    #[test]
    fn count_star_alone_decodes_nothing_and_joins_store_only_keys() {
        let f = Fixture::new();
        let count = || agg(vec![], vec![CompiledAgg::CountStar]);
        let r = f.lower(&f.scan("t"), count());
        assert_eq!(keep_of(&r.source), (&[false; 4][..], 0));
        // COUNT(*) over a join: keys only, and the probe gathers nothing.
        let joined = f.join(
            f.scan("u"),
            f.scan("t"),
            (f.attr("u", "x"), f.attr("t", "a")),
        );
        let r = f.lower(&joined, count());
        assert_eq!(keep_of(&r.builds[0].source), (&[true, false, false][..], 1));
        assert_eq!(r.builds[0].table.cols, [0]);
        assert_eq!(keep_of(&r.source), (&[true, false, false, false][..], 1));
        let [StageIR::Probe { out, .. }] = &r.stages[..] else {
            panic!("one probe")
        };
        assert!(out.is_empty());
    }

    #[test]
    fn plain_output_and_final_sinks_read_every_column() {
        let f = Fixture::new();
        let r = f.lower(&f.scan("u"), None);
        assert_eq!(keep_of(&r.source), (&[true; 3][..], 3));
        let merge = AggSink {
            group: vec![0],
            aggs: vec![CompiledAgg::Sum(1)],
            mode: AggMode::Final,
            node: 0,
        };
        let r = f.lower(&f.scan("u"), Some(merge));
        assert_eq!(keep_of(&r.source), (&[true; 3][..], 3));
    }
}
