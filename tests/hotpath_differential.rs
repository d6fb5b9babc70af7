//! Differential tests for the search-engine hot-path machinery.
//!
//! Exploration is a fixpoint that `find_best_plan` runs on entry, so
//! front-loading it with an explicit [`Optimizer::explore`] must produce
//! *exactly* the same plans, costs, and search statistics as
//! `find_best_plan` alone — on the toy model and on the fig4 relational
//! workload. The one difference is `explore_passes`: the explicit path
//! pays one extra, empty pass when `find_best_plan` re-enters the
//! finished fixpoint. A completeness property test additionally verifies
//! the soundness contract of the discriminant sets the operator-indexed
//! rule dispatch relies on, for both shipped models.

use proptest::prelude::*;
use volcano_bench::workload::{generate_query, WorkloadConfig};
use volcano_core::toy::{ToyModel, ToyOp, ToyProps};
use volcano_core::{ExprTree, Model, Optimizer, PhysicalProps, SearchOptions, SearchStats};
use volcano_rel::{
    explain_plan, Catalog, ColumnDef, RelModel, RelModelOptions, RelOptimizer, RelProps,
};
use volcano_sql::plan_query;

/// Assert the explicit-exploration counters equal the implicit ones,
/// except for the explicit path's one extra (empty) exploration pass.
fn assert_counters_match(tag: &str, implicit: &SearchStats, explicit: &SearchStats) {
    assert_eq!(
        explicit.explore_passes,
        implicit.explore_passes + 1,
        "{tag}: the explicit path runs exactly one extra exploration pass"
    );
    let mut explicit = explicit.clone();
    explicit.explore_passes -= 1;
    assert!(
        implicit.counters_eq(&explicit),
        "{tag}: stats diverged\nimplicit: {implicit:?}\nexplicit: {explicit:?}"
    );
}

// ---------------------------------------------------------------------
// Toy model.
// ---------------------------------------------------------------------

fn toy_chain(n: usize) -> (ToyModel, ExprTree<ToyModel>) {
    let tables: Vec<(String, u64)> = (0..n)
        .map(|i| (format!("t{i}"), 100 + 211 * i as u64))
        .collect();
    let refs: Vec<(&str, u64)> = tables.iter().map(|(s, c)| (s.as_str(), *c)).collect();
    let model = ToyModel::with_tables(&refs);
    let mut e = ExprTree::leaf(ToyOp::Get("t0".into()));
    for i in 1..n {
        e = ExprTree::new(
            ToyOp::Join,
            vec![e, ExprTree::leaf(ToyOp::Get(format!("t{i}")))],
        );
    }
    (model, e)
}

/// Optimize the toy chain, with or without an explicit exploration
/// first; return the observable outcome (plan shape, cost, counters).
fn toy_outcome(n: usize, sorted: bool, explicit: bool) -> (String, f64, SearchStats) {
    let goal = if sorted {
        ToyProps::sorted()
    } else {
        ToyProps::any()
    };
    let (model, query) = toy_chain(n);
    let mut opt = Optimizer::new(&model, SearchOptions::default());
    let root = opt.insert_tree(&query);
    if explicit {
        opt.explore();
    }
    let plan = opt.find_best_plan(root, goal, None).unwrap();
    (plan.compact(), plan.cost, opt.stats().clone())
}

#[test]
fn toy_explicit_exploration_is_observationally_identical() {
    for n in [3usize, 4, 5, 6] {
        for sorted in [false, true] {
            let (iplan, icost, istats) = toy_outcome(n, sorted, false);
            let (plan, cost, stats) = toy_outcome(n, sorted, true);
            let tag = format!("n={n} sorted={sorted}");
            assert_eq!(iplan, plan, "{tag}: plans diverged");
            assert_eq!(icost.to_bits(), cost.to_bits(), "{tag}: costs diverged");
            assert_counters_match(&tag, &istats, &stats);
        }
    }
}

// ---------------------------------------------------------------------
// Relational model: fig4 workload.
// ---------------------------------------------------------------------

/// Optimize one generated fig4 query, with or without an explicit
/// exploration first; return the explained plan (which embeds operator
/// choices and costs), the plan's cost and the counters.
fn fig4_outcome(n: usize, seed: u64, explicit: bool) -> (String, f64, SearchStats) {
    let q = generate_query(&WorkloadConfig::relations(n), seed);
    let model = RelModel::new(q.catalog.clone(), RelModelOptions::paper_fig4());
    let mut opt = RelOptimizer::new(&model, SearchOptions::default());
    let root = opt.insert_tree(&q.expr);
    if explicit {
        opt.explore();
    }
    let plan = opt.find_best_plan(root, RelProps::any(), None).unwrap();
    (
        explain_plan(&q.catalog, &plan),
        plan.cost.total(),
        opt.stats().clone(),
    )
}

#[test]
fn fig4_explicit_exploration_is_observationally_identical() {
    for n in [2usize, 3, 4, 5, 6] {
        for seed in 0..3u64 {
            let (iplan, icost, istats) = fig4_outcome(n, seed, false);
            let (plan, cost, stats) = fig4_outcome(n, seed, true);
            let tag = format!("n={n} seed={seed}");
            assert_eq!(iplan, plan, "{tag}: plans diverged");
            assert_eq!(icost.to_bits(), cost.to_bits(), "{tag}: costs diverged");
            assert_counters_match(&tag, &istats, &stats);
        }
    }
}

// ---------------------------------------------------------------------
// The SQL golden-plan queries: the operator universe for the RuleIndex
// completeness check (selections, projections, set operations, and
// aggregation on top of the joins).
// ---------------------------------------------------------------------

fn sql_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        "emp",
        2000.0,
        vec![
            ColumnDef::int("id", 2000.0),
            ColumnDef::int("dept", 20.0),
            ColumnDef::int("salary", 100.0),
        ],
    );
    c.add_table(
        "dept",
        20.0,
        vec![ColumnDef::int("id", 20.0), ColumnDef::int("region", 4.0)],
    );
    c.add_table("region", 4.0, vec![ColumnDef::int("id", 4.0)]);
    c
}

const SQL_QUERIES: &[&str] = &[
    "SELECT emp.id FROM emp WHERE emp.salary < 50 ORDER BY emp.id",
    "SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id",
    "SELECT emp.id FROM emp, dept, region \
     WHERE emp.dept = dept.id AND dept.region = region.id AND emp.salary < 50 \
     ORDER BY emp.id",
    "SELECT emp.dept, COUNT(*) FROM emp GROUP BY emp.dept ORDER BY emp.dept",
    "SELECT emp.dept FROM emp WHERE emp.salary < 50 UNION SELECT dept.id FROM dept",
];

// ---------------------------------------------------------------------
// RuleIndex completeness: for any operator the index must offer every
// rule whose root matcher accepts it (the soundness contract of
// `OpMatcher::with_discriminants` — under-declared discriminants would
// silently lose plans).
// ---------------------------------------------------------------------

/// Assert the candidate lists for `op` cover every root-matching rule.
fn assert_index_complete<M: Model>(model: &M, op: &M::Op, tag: &str) {
    let opt = Optimizer::new(model, SearchOptions::default());
    let disc = model.op_discriminant(op);
    let tcands = opt.rule_index().transform_candidates(disc);
    for (i, rule) in model.transformations().iter().enumerate() {
        if rule.pattern().root_matches(op) {
            assert!(
                tcands.contains(&i),
                "{tag}: transformation {:?} matches {op:?} but is not indexed \
                 under discriminant {disc:?} (candidates {tcands:?})",
                rule.name()
            );
        }
    }
    let icands = opt.rule_index().impl_candidates(disc);
    for (i, rule) in model.implementations().iter().enumerate() {
        if rule.pattern().root_matches(op) {
            assert!(
                icands.contains(&i),
                "{tag}: implementation {:?} matches {op:?} but is not indexed \
                 under discriminant {disc:?} (candidates {icands:?})",
                rule.name()
            );
        }
    }
}

/// Every `RelOp` variant, with representative arguments drawn from a
/// planned query so predicates and specs reference real attributes.
fn rel_ops_universe() -> (RelModel, Vec<volcano_rel::RelOp>) {
    let mut catalog = sql_catalog();
    let mut ops = Vec::new();
    for sql in SQL_QUERIES {
        let q = plan_query(sql, &mut catalog).expect("query must parse");
        collect_ops(&q.expr, &mut ops);
    }
    let model = RelModel::with_defaults(catalog);
    (model, ops)
}

fn collect_ops(e: &volcano_rel::RelExpr, out: &mut Vec<volcano_rel::RelOp>) {
    out.push(e.op.clone());
    for i in &e.inputs {
        collect_ops(i, out);
    }
}

#[test]
fn rel_rule_index_is_complete_for_all_query_operators() {
    let (model, ops) = rel_ops_universe();
    // The SQL set exercises Get, Select, Project, Join, Union, and
    // Aggregate; add the remaining set operations by hand.
    let mut ops = ops;
    ops.push(volcano_rel::RelOp::Intersect);
    ops.push(volcano_rel::RelOp::Difference);
    for op in &ops {
        assert_index_complete(&model, op, "rel");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Toy-model completeness over randomly named scans and both
    /// structural operators.
    #[test]
    fn toy_rule_index_is_complete(table in "t[0-9]{1,2}", which in 0usize..3) {
        let (model, _) = toy_chain(3);
        let op = match which {
            0 => ToyOp::Get(table),
            1 => ToyOp::Select,
            _ => ToyOp::Join,
        };
        assert_index_complete(&model, &op, "toy");
    }
}
