//! EXPLAIN ANALYZE support: execute a plan with per-operator
//! instrumentation — row counts, open/next invocation counts and
//! wall-clock time — and report the actuals next to the optimizer's
//! estimated cardinalities and costs, a direct check of the
//! selectivity and cost models. Per-operator seams exist on the tuple
//! engine only; the vectorized engine reports per pipeline
//! ([`execute_analyzed_fused`]).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use volcano_rel::value::Tuple;
use volcano_rel::{Catalog, RelLogical, RelPlan};

use crate::batch::collect_batches;
use crate::compile::{compile_node_at, BatchConfig};
use crate::database::Database;
use crate::iterator::{collect, BoxedOperator, Operator};

/// Shared measurement cell for one plan node.
#[derive(Default)]
struct Cell {
    rows: AtomicU64,
    opens: AtomicU64,
    next_calls: AtomicU64,
    elapsed_ns: AtomicU64,
    extra: Mutex<Vec<(&'static str, u64)>>,
}

/// Pass-through operator measuring the operator beneath it: rows
/// produced, open/next invocations, inclusive wall-clock, and — at
/// close — a snapshot of the operator's own counters
/// ([`Operator::metrics`]).
struct Instrumented {
    child: BoxedOperator,
    cell: Arc<Cell>,
}

impl Operator for Instrumented {
    fn open(&mut self) {
        let start = Instant::now();
        self.child.open();
        self.cell.opens.fetch_add(1, Ordering::Relaxed);
        self.cell
            .elapsed_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn next(&mut self) -> Option<Tuple> {
        let start = Instant::now();
        let t = self.child.next();
        self.cell.next_calls.fetch_add(1, Ordering::Relaxed);
        if t.is_some() {
            self.cell.rows.fetch_add(1, Ordering::Relaxed);
        }
        self.cell
            .elapsed_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        t
    }

    fn close(&mut self) {
        let start = Instant::now();
        self.child.close();
        self.cell
            .elapsed_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // The operator tree is torn down after execution; capture the
        // operator's counters while they are still reachable. Operators
        // that are closed more than once just overwrite with the latest
        // (cumulative) values.
        *self.cell.extra.lock().unwrap() = self.child.metrics();
    }

    fn name(&self) -> &'static str {
        self.child.name()
    }

    fn metrics(&self) -> Vec<(&'static str, u64)> {
        self.child.metrics()
    }
}

/// Per-operator measurement, in plan pre-order.
#[derive(Debug, Clone)]
pub struct NodeMeasurement {
    /// Operator description (with catalog names).
    pub description: String,
    /// Executable operator name (e.g. `hash_join`).
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
    /// Per-operator measurements, in plan pre-order.
    pub nodes: Vec<NodeMeasurement>,
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

    /// Render an `EXPLAIN ANALYZE`-style report: one line per operator,
    /// estimated cost and rows next to actual rows and timings.
    pub fn report(&self) -> String {
        let selfs = self.self_times();
        let mut out = String::new();
        for (n, self_time) in self.nodes.iter().zip(selfs) {
            let _ = write!(
                out,
                "{:indent$}{}  (cost={:.2} est {:.0} rows) (actual {} rows, {} nexts, {} total, {} self)",
                "",
                n.description,
                n.est_cost,
                n.est_rows,
                n.actual_rows,
                n.next_calls,
                fmt_dur(n.elapsed),
                fmt_dur(self_time),
                indent = n.depth * 2
            );
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

/// Build the instrumented operator tree; measurements are recorded in
/// pre-order (parent before children). Returns the operator with the
/// node's estimated logical properties, derived once from its children's
/// ([`volcano_rel::logical_from_inputs`]).
fn instrument(
    db: &Database,
    sch: &crate::database::SchemaSnapshot,
    catalog: &Catalog,
    plan: &RelPlan,
    depth: usize,
    counters: &mut Vec<(NodeMeasurement, Arc<Cell>)>,
) -> (BoxedOperator, RelLogical) {
    let cell = Arc::new(Cell::default());
    let slot = counters.len();
    counters.push((
        NodeMeasurement {
            description: volcano_rel::explain::alg_description(catalog, &plan.alg),
            operator: "",
            depth,
            est_rows: 0.0,
            est_cost: plan.cost.total(),
            actual_rows: 0,
            opens: 0,
            next_calls: 0,
            elapsed: Duration::ZERO,
            extra: Vec::new(),
        },
        cell.clone(),
    ));
    let (children, inputs): (Vec<BoxedOperator>, Vec<RelLogical>) = plan
        .inputs
        .iter()
        .map(|c| instrument(db, sch, catalog, c, depth + 1, counters))
        .unzip();
    let est = volcano_rel::logical_from_inputs(catalog, &plan.alg, &inputs);
    let op = compile_node_at(db, sch, plan, children);
    counters[slot].0.operator = op.name();
    counters[slot].0.est_rows = est.card;
    (Box::new(Instrumented { child: op, cell }), est)
}

fn drain_counters(counters: Vec<(NodeMeasurement, Arc<Cell>)>) -> Vec<NodeMeasurement> {
    counters
        .into_iter()
        .map(|(mut m, cell)| {
            m.actual_rows = cell.rows.load(Ordering::Relaxed);
            m.opens = cell.opens.load(Ordering::Relaxed);
            m.next_calls = cell.next_calls.load(Ordering::Relaxed);
            m.elapsed = Duration::from_nanos(cell.elapsed_ns.load(Ordering::Relaxed));
            m.extra = std::mem::take(&mut cell.extra.lock().unwrap());
            m
        })
        .collect()
}

/// Execute a plan with per-operator instrumentation.
pub fn execute_analyzed(db: &Database, catalog: &Catalog, plan: &RelPlan) -> Analyzed {
    let sch = db.snapshot();
    execute_analyzed_at(db, &sch, catalog, plan)
}

/// [`execute_analyzed`] against a caller-pinned schema snapshot — the
/// feedback path instruments the same snapshot the prepared execution
/// lowered on, so concurrent DDL cannot change the plan's tables
/// between planning and measurement.
pub fn execute_analyzed_at(
    db: &Database,
    sch: &crate::database::SchemaSnapshot,
    catalog: &Catalog,
    plan: &RelPlan,
) -> Analyzed {
    let mut counters = Vec::new();
    let (mut op, _) = instrument(db, sch, catalog, plan, 0, &mut counters);
    let rows = collect(op.as_mut());
    Analyzed {
        rows,
        nodes: drain_counters(counters),
    }
}

/// `EXPLAIN ANALYZE` output for the vectorized engine: the result
/// rows plus the fused compilation/execution report (pipelines fused,
/// operators per pipeline, fallback segments, adapters, per-pipeline
/// row/batch/time counters).
#[derive(Debug)]
pub struct AnalyzedFused {
    /// Result rows.
    pub rows: Vec<Tuple>,
    /// The fused report, its per-pipeline counters now populated.
    pub report: crate::fused::FusedReport,
}

/// Execute a plan on the vectorized engine and report fused-pipeline
/// metrics. A fused region is a single compiled loop — there are no
/// per-plan-node seams to instrument — so the analysis is per *pipeline*
/// (rows, batches, time), not per operator. The plan runs as it really
/// runs: every cursor of a region of degree `n` counts into its
/// pipeline's shared counters, so they cover the whole input.
pub fn execute_analyzed_fused(db: &Database, plan: &RelPlan, cfg: BatchConfig) -> AnalyzedFused {
    let sch = db.snapshot();
    let compiled = crate::fused::compile_fused_at(db, &sch, plan, cfg);
    let mut op = compiled.operator;
    let rows = collect_batches(op.as_mut());
    AnalyzedFused {
        rows,
        report: compiled.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

        let analyzed = execute_analyzed(&db, &c, &plan);
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

        let analyzed = execute_analyzed(&db, &c, &plan);
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
