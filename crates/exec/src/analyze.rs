//! EXPLAIN ANALYZE support: execute a plan on either engine and report,
//! per plan node in pre-order, the optimizer's estimated cardinality and
//! cost next to the rows the node actually produced — a direct check of
//! the selectivity and cost models, and the actuals the feedback harvest
//! ([`volcano_rel::observations`]) reads. Both engines count into one
//! cell per plan node: the tuple engine, and the vectorized one's
//! fallback operators, per row around each operator (with its calls,
//! wall-clock and own counters); a fused region per batch, on the step
//! that produces the node's output ([`crate::fused`]).
//!
//! The two engines count the same rows per node but in two cases. A
//! partial aggregate under a gather of degree `n`, and that gather, count
//! per-worker groups. A node below an operator that stops reading once
//! one input is exhausted (a merge join, merge intersect or merge
//! difference) counts on the vectorized engine at least the tuple
//! engine's rows and fewer than one batch more: a region counts each
//! batch it hands on whole, where the tuple engine stops at the last row
//! the operator read.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use volcano_rel::value::Tuple;
use volcano_rel::{Catalog, RelAlg, RelLogical, RelPlan};

use crate::batch::collect_batches;
use crate::compile::{compile_node_at, Engine};
use crate::database::{Database, SchemaSnapshot};
use crate::fused::FusedReport;
use crate::iterator::{collect, BoxedOperator, Operator};

/// Measurement cell of one plan node.
#[derive(Default)]
struct Cell {
    rows: AtomicU64,
    opens: AtomicU64,
    next_calls: AtomicU64,
    elapsed_ns: AtomicU64,
    /// The executable operator's name; unset for a node a fused region
    /// runs.
    operator: OnceLock<&'static str>,
    extra: Mutex<Vec<(&'static str, u64)>>,
}

/// The measurement cells of one compiled plan, one per plan node in
/// pre-order, allocated when the plan is compiled.
pub(crate) struct NodeCells(Box<[Cell]>);

impl NodeCells {
    /// One empty cell per node of `plan`.
    pub(crate) fn new(plan: &RelPlan) -> Arc<Self> {
        Arc::new(NodeCells(
            (0..plan.node_count()).map(|_| Cell::default()).collect(),
        ))
    }

    /// Add `rows` to the output of each node in `nodes` (a fused step
    /// calls this once per batch).
    pub(crate) fn count(&self, nodes: &[usize], rows: usize) {
        for &n in nodes {
            self.0[n].rows.fetch_add(rows as u64, Ordering::Relaxed);
        }
    }

    /// Per-node output rows of `plan`, in pre-order. A gather passes its
    /// input's rows — the vectorized engine runs it as the degree of the
    /// region below, which counts them — so it reads its input's count.
    pub(crate) fn rows(&self, plan: &RelPlan) -> Vec<u64> {
        fn gathers(plan: &RelPlan, slot: usize, rows: &mut [u64]) {
            for (input, at) in input_slots(plan, slot) {
                gathers(input, at, rows);
            }
            if let RelAlg::Gather(_) = plan.alg {
                rows[slot] = rows[slot + 1];
            }
        }
        let mut rows: Vec<u64> = self
            .0
            .iter()
            .map(|c| c.rows.load(Ordering::Relaxed))
            .collect();
        gathers(plan, 0, &mut rows);
        rows
    }

    /// Measure `op`, the operator of node `slot`.
    pub(crate) fn wrap(self: &Arc<Self>, op: BoxedOperator, slot: usize) -> BoxedOperator {
        let _ = self.0[slot].operator.set(op.name());
        let cells = self.clone();
        Box::new(Instrumented {
            child: op,
            cells,
            slot,
        })
    }
}

/// The pre-order slots of `plan`'s inputs, given `plan`'s own.
pub(crate) fn input_slots(plan: &RelPlan, slot: usize) -> impl Iterator<Item = (&RelPlan, usize)> {
    plan.inputs.iter().scan(slot + 1, |next, input| {
        let at = *next;
        *next += input.node_count();
        Some((input, at))
    })
}

/// Pass-through operator measuring the operator beneath it: rows
/// produced, open/next invocations, inclusive wall-clock, and — at
/// close — a snapshot of the operator's own counters
/// ([`Operator::metrics`]).
struct Instrumented {
    child: BoxedOperator,
    cells: Arc<NodeCells>,
    slot: usize,
}

impl Operator for Instrumented {
    fn open(&mut self) {
        let start = Instant::now();
        self.child.open();
        let cell = &self.cells.0[self.slot];
        cell.opens.fetch_add(1, Ordering::Relaxed);
        cell.elapsed_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn next(&mut self) -> Option<Tuple> {
        let start = Instant::now();
        let t = self.child.next();
        let cell = &self.cells.0[self.slot];
        cell.next_calls.fetch_add(1, Ordering::Relaxed);
        if t.is_some() {
            cell.rows.fetch_add(1, Ordering::Relaxed);
        }
        cell.elapsed_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        t
    }

    fn close(&mut self) {
        let start = Instant::now();
        self.child.close();
        let cell = &self.cells.0[self.slot];
        cell.elapsed_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // The operator tree is torn down after execution; capture the
        // operator's counters while they are still reachable. Operators
        // that are closed more than once just overwrite with the latest
        // (cumulative) values.
        *cell.extra.lock().expect("no thread panics holding a cell") = self.child.metrics();
    }

    fn name(&self) -> &'static str {
        self.child.name()
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        self.child.metrics()
    }
}

/// Per-node measurement, in plan pre-order. A node a fused region runs
/// has no iterator of its own: its rows are counted, its `opens`,
/// `next_calls`, `elapsed` and `extra` stay zero.
#[derive(Debug, Clone)]
pub struct NodeMeasurement {
    /// Operator description (with catalog names).
    pub description: String,
    /// Executable operator name (e.g. `hash_join`; `fused_region` for a
    /// node a fused region runs).
    pub operator: &'static str,
    /// Depth in the plan tree.
    pub depth: usize,
    /// Rows the optimizer's logical-property model predicted.
    pub est_rows: f64,
    /// Cumulative estimated cost of this subtree (`RelCost::total`).
    pub est_cost: f64,
    /// Rows actually produced by this operator.
    pub actual_rows: u64,
    /// Times `open` was invoked.
    pub opens: u64,
    /// Times `next` was invoked.
    pub next_calls: u64,
    /// Inclusive wall-clock spent in this subtree.
    pub elapsed: Duration,
    /// Operator-specific counters (e.g. `build_rows`, `runs_spilled`).
    pub extra: Vec<(&'static str, u64)>,
}

/// The result of an analyzed execution.
pub struct Analyzed {
    /// The query result.
    pub rows: Vec<Tuple>,
    /// Per-node measurements, in plan pre-order.
    pub nodes: Vec<NodeMeasurement>,
    /// On the vectorized engine, its compile report with the pipeline
    /// counters populated.
    pub fused: Option<FusedReport>,
}

fn fmt_dur(d: Duration) -> String {
    let us = d.as_nanos() as f64 / 1_000.0;
    if us < 1_000.0 {
        format!("{us:.1}us")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{:.3}s", us / 1_000_000.0)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

impl Analyzed {
    /// Per-node actual output row counts in plan pre-order — the exact
    /// vector `volcano_rel::feedback::observations` consumes (the
    /// harvest walk and the instrumentation share the same pre-order).
    pub fn actual_rows(&self) -> Vec<u64> {
        self.nodes.iter().map(|n| n.actual_rows).collect()
    }

    /// Inclusive-minus-children ("self") time for each node, derived
    /// from the pre-order depth vector.
    fn self_times(&self) -> Vec<Duration> {
        let mut out: Vec<Duration> = self.nodes.iter().map(|n| n.elapsed).collect();
        for (i, n) in self.nodes.iter().enumerate() {
            let mut j = i + 1;
            while j < self.nodes.len() && self.nodes[j].depth > n.depth {
                if self.nodes[j].depth == n.depth + 1 {
                    out[i] = out[i].saturating_sub(self.nodes[j].elapsed);
                }
                j += 1;
            }
        }
        out
    }

    /// Render an `EXPLAIN ANALYZE`-style report: one line per plan node,
    /// estimated cost and rows next to actual rows (and, for an
    /// operator of its own, calls and timings), then the vectorized
    /// engine's pipeline lines.
    pub fn report(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::new();
        for (n, self_time) in self.nodes.iter().zip(selfs) {
            let _ = write!(
                out,
                "{:indent$}{}  (cost={:.2} est {:.0} rows) (actual {} rows",
                "",
                n.description,
                n.est_cost,
                n.est_rows,
                n.actual_rows,
                indent = n.depth * 2
            );
            if n.opens > 0 {
                let _ = write!(
                    out,
                    ", {} nexts, {} total, {} self",
                    n.next_calls,
                    fmt_dur(n.elapsed),
                    fmt_dur(self_time),
                );
            }
            out.push(')');
            if !n.extra.is_empty() {
                let _ = write!(out, " [");
                for (i, (k, v)) in n.extra.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    let _ = write!(out, "{sep}{k}={v}");
                }
                let _ = write!(out, "]");
            }
            out.push('\n');
        }
        for line in self.fused.iter().flat_map(FusedReport::lines) {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Machine-readable export: the per-operator measurements as a JSON
    /// object (`{"result_rows": N, "nodes": [...]}`), nodes in plan
    /// pre-order.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"result_rows\":{},\"nodes\":[", self.rows.len());
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"operator\":\"{}\",\"description\":\"{}\",\"depth\":{},\
                 \"est_rows\":{},\"est_cost\":{},\"actual_rows\":{},\
                 \"opens\":{},\"next_calls\":{},\"elapsed_us\":{}",
                json_escape(n.operator),
                json_escape(&n.description),
                n.depth,
                finite(n.est_rows),
                finite(n.est_cost),
                n.actual_rows,
                n.opens,
                n.next_calls,
                n.elapsed.as_micros()
            );
            let _ = write!(out, ",\"metrics\":{{");
            for (j, (k, v)) in n.extra.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{}", json_escape(k), v);
            }
            let _ = write!(out, "}}}}");
        }
        out.push_str("]}");
        out
    }
}

/// The tuple operator tree of `plan` (pre-order slot `slot`), every
/// node measured into its cell.
pub(crate) fn instrument(
    db: &Database,
    sch: &SchemaSnapshot,
    plan: &RelPlan,
    slot: usize,
    cells: &Arc<NodeCells>,
) -> BoxedOperator {
    let children = input_slots(plan, slot)
        .map(|(input, at)| instrument(db, sch, input, at, cells))
        .collect();
    cells.wrap(compile_node_at(db, sch, plan, children), slot)
}

/// Read the cells and `rows`, their output rows, into measurements in
/// pre-order, each node with the estimated logical properties derived
/// from its children's ([`volcano_rel::logical_from_inputs`]), which it
/// returns.
fn measure(
    catalog: &Catalog,
    plan: &RelPlan,
    depth: usize,
    cells: &NodeCells,
    rows: &[u64],
    out: &mut Vec<NodeMeasurement>,
) -> RelLogical {
    let slot = out.len();
    let cell = &cells.0[slot];
    out.push(NodeMeasurement {
        description: volcano_rel::explain::alg_description(catalog, &plan.alg),
        operator: cell.operator.get().copied().unwrap_or("fused_region"),
        depth,
        est_rows: 0.0,
        est_cost: plan.cost.total(),
        actual_rows: rows[slot],
        opens: cell.opens.load(Ordering::Relaxed),
        next_calls: cell.next_calls.load(Ordering::Relaxed),
        elapsed: Duration::from_nanos(cell.elapsed_ns.load(Ordering::Relaxed)),
        extra: std::mem::take(&mut cell.extra.lock().expect("no thread panics holding a cell")),
    });
    let inputs: Vec<RelLogical> = plan
        .inputs
        .iter()
        .map(|input| measure(catalog, input, depth + 1, cells, rows, out))
        .collect();
    let est = volcano_rel::logical_from_inputs(catalog, &plan.alg, &inputs);
    out[slot].est_rows = est.card;
    est
}

/// Execute a plan on `engine`, measuring every plan node.
pub fn execute_analyzed(
    db: &Database,
    catalog: &Catalog,
    plan: &RelPlan,
    engine: Engine,
) -> Analyzed {
    let sch = &db.snapshot();
    let (rows, cells, fused) = match engine {
        Engine::Tuple => {
            let cells = NodeCells::new(plan);
            let mut op = instrument(db, sch, plan, 0, &cells);
            (collect(op.as_mut()), cells, None)
        }
        Engine::Fused(cfg) => {
            let compiled = crate::fused::compile_fused_at(db, sch, plan, cfg, true);
            let mut op = compiled.operator;
            let rows = collect_batches(op.as_mut());
            (rows, compiled.cells, Some(compiled.report))
        }
    };
    let mut nodes = Vec::with_capacity(plan.node_count());
    measure(catalog, plan, 0, &cells, &cells.rows(plan), &mut nodes);
    Analyzed { rows, nodes, fused }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::BatchConfig;
    use volcano_core::{PhysicalProps, SearchOptions};
    use volcano_rel::builder::{join_on, select_one};
    use volcano_rel::{Cmp, ColumnDef, QueryBuilder, RelModel, RelOptimizer, RelProps};

    #[test]
    fn analyzed_execution_counts_every_operator() {
        let mut c = Catalog::new();
        c.add_table(
            "emp",
            300.0,
            vec![ColumnDef::int("id", 300.0), ColumnDef::int("dept", 10.0)],
        );
        c.add_table("dept", 10.0, vec![ColumnDef::int("id", 10.0)]);
        let db = Database::in_memory(c.clone());
        db.generate(9);
        let model = RelModel::with_defaults(c.clone());
        let q = QueryBuilder::new(model.catalog());
        let expr = join_on(
            select_one(q.scan("emp"), Cmp::lt(q.attr("emp", "id"), 100i64)),
            q.scan("dept"),
            q.attr("emp", "dept"),
            q.attr("dept", "id"),
        );
        let mut opt = RelOptimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&expr);
        let plan = opt.find_best_plan(root, RelProps::any(), None).unwrap();

        let analyzed = execute_analyzed(&db, &c, &plan, Engine::Tuple);
        // One measurement per plan node, root first.
        assert_eq!(analyzed.nodes.len(), plan.node_count());
        assert_eq!(analyzed.nodes[0].depth, 0);
        // The root's actual row count equals the result size.
        assert_eq!(analyzed.nodes[0].actual_rows as usize, analyzed.rows.len());
        // Every node has an operator name, an estimate, and was opened.
        for n in &analyzed.nodes {
            assert!(!n.operator.is_empty(), "{n:?}");
            assert!(n.est_rows > 0.0, "{n:?}");
            assert!(n.opens >= 1, "{n:?}");
            // next is called at least once more than rows produced (the
            // final None), except operators short-circuited by parents.
            assert!(n.next_calls >= n.actual_rows, "{n:?}");
        }
        // The root's estimated cost equals the winner's total cost.
        assert!((analyzed.nodes[0].est_cost - plan.cost.total()).abs() < 1e-9);
        // Some operator surfaced its own counters (a scan always does).
        assert!(
            analyzed.nodes.iter().any(|n| !n.extra.is_empty()),
            "no operator-specific metrics were captured"
        );
        // Instrumented execution returns the same rows as the plain one.
        let plain = db.execute(&plan, &crate::ExecOptions::new(), None);
        crate::naive::assert_same_rows(analyzed.rows.clone(), plain);
        // The report shows estimates next to actuals.
        let report = analyzed.report();
        assert!(report.contains("actual"), "{report}");
        assert!(report.contains("cost="), "{report}");
        assert!(
            report.contains("dept") || report.contains("emp"),
            "{report}"
        );
        // The vectorized engine counts the same rows per node, against
        // the same estimates, and adds its pipeline lines.
        let fused = execute_analyzed(&db, &c, &plan, Engine::Fused(BatchConfig::default()));
        assert_eq!(fused.actual_rows(), analyzed.actual_rows());
        let est = |a: &Analyzed| a.nodes.iter().map(|n| n.est_rows).collect::<Vec<_>>();
        assert_eq!(est(&fused), est(&analyzed));
        assert!(fused.report().contains("pipeline 0"), "{}", fused.report());
    }

    #[test]
    fn analyzed_json_export_is_well_formed() {
        let mut c = Catalog::new();
        c.add_table("t", 50.0, vec![ColumnDef::int("a", 50.0)]);
        let db = Database::in_memory(c.clone());
        db.generate(4);
        let model = RelModel::with_defaults(c.clone());
        let q = QueryBuilder::new(model.catalog());
        let expr = q.scan("t");
        let mut opt = RelOptimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&expr);
        let plan = opt.find_best_plan(root, RelProps::any(), None).unwrap();

        let analyzed = execute_analyzed(&db, &c, &plan, Engine::Tuple);
        let json = analyzed.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"result_rows\":50"), "{json}");
        assert!(json.contains("\"operator\":\"file_scan\""), "{json}");
        assert!(json.contains("\"est_rows\":50"), "{json}");
        assert!(json.contains("\"metrics\":{"), "{json}");
        // Balanced braces/brackets (no string values contain either).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count(),
            "{json}"
        );
    }
}
