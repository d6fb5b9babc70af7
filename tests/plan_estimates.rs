//! Every node of a chosen plan re-derives its memo class's logical
//! properties.
//!
//! The plan cache's cost-drift guard, EXPLAIN ANALYZE and the feedback
//! harvest re-derive estimates over physical plans
//! ([`volcano::rel::logical_from_inputs`]), after the search has thrown
//! its memo away. Both go through the same per-operator constructors of
//! `RelLogical`, and the re-costed plan
//! ([`volcano::rel::estimated_plan_cost`]) goes through the search's one
//! cost function per algorithm. So under unchanged statistics each plan
//! node's estimate is its class's, with the same columns, and the plan
//! re-costs to what the search found, both to 1e-12 relative: a join
//! class multiplies its selectivities in the order of the member that
//! derived it first, so another association order may move the last bits.
//! The queries are chosen so that every algorithm appears.

use std::collections::BTreeSet;

use volcano::core::{PhysicalProps, SearchOptions};
use volcano::rel::{
    estimated_plan_cost, logical_from_inputs, Catalog, ColumnDef, RelAlg, RelExpr, RelLogical,
    RelModel, RelModelOptions, RelOptimizer, RelPlan, RelProps,
};
use volcano_bench::workload::{generate_query, WorkloadConfig};
use volcano_sql::plan_query;

/// The name of an algorithm's arm. Exhaustive, so a new algorithm must
/// be named here, and then appear in some query below.
fn arm(alg: &RelAlg) -> &'static str {
    match alg {
        RelAlg::FileScan(_) => "file_scan",
        RelAlg::IndexScan(..) => "index_scan",
        RelAlg::FilterScan(..) => "filter_scan",
        RelAlg::Filter(_) => "filter",
        RelAlg::ProjectOp(_) => "project",
        RelAlg::MergeJoin(_) => "merge_join",
        RelAlg::HybridHashJoin(_) => "hash_join",
        RelAlg::NestedLoops(_) => "nested_loops",
        RelAlg::MultiWayHashJoin { .. } => "multiway_hash_join",
        RelAlg::MergeUnion => "merge_union",
        RelAlg::MergeIntersect => "merge_intersect",
        RelAlg::MergeDifference => "merge_difference",
        RelAlg::HashUnion => "hash_union",
        RelAlg::HashIntersect => "hash_intersect",
        RelAlg::HashDifference => "hash_difference",
        RelAlg::StreamAggregate(_) => "stream_aggregate",
        RelAlg::HashAggregate(_) => "hash_aggregate",
        RelAlg::PartialHashAggregate(..) => "partial_hash_aggregate",
        RelAlg::FinalHashAggregate(_) => "final_hash_aggregate",
        RelAlg::Sort(_) => "sort",
        RelAlg::Gather(_) => "gather",
    }
}

const ALL_ARMS: [&str; 21] = [
    "file_scan",
    "index_scan",
    "filter_scan",
    "filter",
    "project",
    "merge_join",
    "hash_join",
    "nested_loops",
    "multiway_hash_join",
    "merge_union",
    "merge_intersect",
    "merge_difference",
    "hash_union",
    "hash_intersect",
    "hash_difference",
    "stream_aggregate",
    "hash_aggregate",
    "partial_hash_aggregate",
    "final_hash_aggregate",
    "sort",
    "gather",
];

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

/// Re-derive `plan` bottom-up, asserting at each node that the estimate
/// is its memo class's, and record the arms seen. Also returns whether
/// the node's column order is a join's: join commutativity puts both
/// `A ⋈ B` and `B ⋈ A` in one class, whose schema is in the order of the
/// member that derived it first, so there the columns may be permuted
/// (consumers resolve attributes by id, not position).
fn rederive(
    opt: &RelOptimizer<'_>,
    catalog: &Catalog,
    plan: &RelPlan,
    seen: &mut BTreeSet<&'static str>,
    tag: &str,
) -> (RelLogical, bool) {
    let (inputs, permuted): (Vec<RelLogical>, Vec<bool>) = plan
        .inputs
        .iter()
        .map(|c| rederive(opt, catalog, c, seen, tag))
        .unzip();
    let got = logical_from_inputs(catalog, &plan.alg, &inputs);
    let class = opt.memo().logical_props(plan.group);
    assert!(
        close(got.card, class.card),
        "{tag}: {:?} estimates {} rows, its class {}",
        plan.alg,
        got.card,
        class.card
    );
    let permuted = match &plan.alg {
        RelAlg::MergeJoin(_)
        | RelAlg::HybridHashJoin(_)
        | RelAlg::NestedLoops(_)
        | RelAlg::MultiWayHashJoin { .. } => true,
        RelAlg::ProjectOp(_)
        | RelAlg::StreamAggregate(_)
        | RelAlg::HashAggregate(_)
        | RelAlg::PartialHashAggregate(..)
        | RelAlg::FinalHashAggregate(_) => false,
        _ => permuted.first().copied().unwrap_or(false),
    };
    let attrs = |l: &RelLogical| l.cols.iter().map(|c| c.attr).collect::<Vec<_>>();
    let (mut want, mut have) = (attrs(class), attrs(&got));
    if permuted {
        want.sort();
        have.sort();
    }
    assert_eq!(have, want, "{tag}: {:?} columns", plan.alg);
    seen.insert(arm(&plan.alg));
    (got, permuted)
}

/// Optimize `expr` for `required` and check every node's estimate and
/// the re-costed plan.
fn check(
    model: &RelModel,
    expr: &RelExpr,
    required: RelProps,
    seen: &mut BTreeSet<&'static str>,
    tag: &str,
) {
    let mut opt = RelOptimizer::new(model, SearchOptions::default());
    let root = opt.insert_tree(expr);
    let plan = opt
        .find_best_plan(root, required, None)
        .unwrap_or_else(|e| panic!("{tag}: {e:?}"));
    rederive(&opt, model.catalog(), &plan, seen, tag);
    let recost = estimated_plan_cost(model.catalog(), model.options(), &plan);
    assert!(
        close(recost.total(), plan.cost.total()),
        "{tag}: re-costed {} != searched {}\n{}",
        recost.total(),
        plan.cost.total(),
        plan.explain()
    );
}

/// Tables for the SQL statements: `big` is large enough that a parallel
/// model splits its scans and aggregates, `ix` and `iy` have an index on
/// `id` (so merge-based operators read them sorted for free), and
/// the `a`–`b`–`c` chain's low-distinct keys make the three-way hash join
/// win.
fn sql_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        "emp",
        2_000.0,
        vec![
            ColumnDef::int("id", 2_000.0),
            ColumnDef::int("dept", 20.0),
            ColumnDef::int("salary", 100.0),
        ],
    );
    c.add_table(
        "dept",
        20.0,
        vec![ColumnDef::int("id", 20.0), ColumnDef::int("region", 4.0)],
    );
    c.add_table(
        "big",
        20_000.0,
        vec![
            ColumnDef::int("id", 20_000.0),
            ColumnDef::int("g", 100.0),
            ColumnDef::int("v", 1_000.0),
        ],
    );
    c.add_table(
        "ix",
        5_000.0,
        vec![
            ColumnDef::int("id", 5_000.0).indexed(),
            ColumnDef::int("v", 50.0),
        ],
    );
    c.add_table(
        "iy",
        4_000.0,
        vec![
            ColumnDef::int("id", 4_000.0).indexed(),
            ColumnDef::int("w", 40.0),
        ],
    );
    c.add_table("a", 5_000.0, vec![ColumnDef::int("x", 10.0)]);
    c.add_table(
        "b",
        5_000.0,
        vec![ColumnDef::int("x", 10.0), ColumnDef::int("y", 10.0)],
    );
    c.add_table("c", 5_000.0, vec![ColumnDef::int("y", 10.0)]);
    c
}

const SQL: [&str; 17] = [
    "SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id AND emp.salary < 30",
    "SELECT emp.id, dept.region FROM emp, dept WHERE emp.dept = dept.id ORDER BY emp.dept",
    "SELECT emp.id, dept.id FROM emp, dept WHERE dept.region = 1",
    "SELECT a.x FROM a, b, c WHERE a.x = b.x AND b.y = c.y",
    "SELECT id FROM ix ORDER BY id",
    "SELECT ix.v, iy.w FROM ix, iy WHERE ix.id = iy.id ORDER BY ix.id",
    "SELECT id FROM ix INTERSECT SELECT id FROM iy",
    "SELECT id FROM ix EXCEPT SELECT id FROM iy",
    "SELECT id, v FROM ix WHERE v < 10 ORDER BY id",
    "SELECT dept, COUNT(*), MIN(salary), AVG(salary) FROM emp GROUP BY dept",
    "SELECT dept, SUM(salary) FROM emp GROUP BY dept ORDER BY dept",
    "SELECT g, COUNT(*), SUM(v), AVG(v), MAX(v) FROM big GROUP BY g",
    "SELECT COUNT(*), AVG(v) FROM big WHERE v < 500",
    "SELECT id FROM big WHERE v < 100 ORDER BY v",
    "SELECT dept FROM emp WHERE salary < 10 UNION SELECT dept FROM emp WHERE salary >= 90",
    "SELECT dept FROM emp WHERE salary < 10 INTERSECT SELECT dept FROM emp WHERE salary >= 10",
    "SELECT dept FROM emp WHERE salary < 50 EXCEPT SELECT id FROM dept WHERE region = 2",
];

#[test]
fn every_plan_node_estimates_its_memo_class() {
    let mut seen = BTreeSet::new();
    for degree in [1, 2] {
        for n in 2..=6 {
            for seed in 0..3 {
                let q = generate_query(&WorkloadConfig::relations(n), seed);
                let model = RelModel::new(
                    q.catalog.clone(),
                    RelModelOptions::paper_fig4().with_parallel_degree(degree),
                );
                let tag = format!("fig4 n={n} seed={seed} degree={degree}");
                check(&model, &q.expr, RelProps::any(), &mut seen, &tag);
            }
        }
        for sql in SQL {
            let mut catalog = sql_catalog();
            let q = plan_query(sql, &mut catalog).unwrap_or_else(|e| panic!("{sql}: {e}"));
            let options = RelModelOptions {
                enable_multiway_join: true,
                ..RelModelOptions::default().with_parallel_degree(degree)
            };
            let model = RelModel::new(catalog, options);
            let tag = format!("{sql} degree={degree}");
            check(
                &model,
                &q.expr,
                RelProps::sorted(q.order_by.clone()),
                &mut seen,
                &tag,
            );
            // A set operation sorted on its output: merge-based.
            if sql.contains("UNION") || sql.contains("INTERSECT") || sql.contains("EXCEPT") {
                let mut opt = RelOptimizer::new(&model, SearchOptions::default());
                let root = opt.insert_tree(&q.expr);
                let first = opt.memo().logical_props(root).cols[0].attr;
                check(
                    &model,
                    &q.expr,
                    RelProps::sorted(vec![first]),
                    &mut seen,
                    &tag,
                );
            }
        }
    }
    let missing: Vec<_> = ALL_ARMS.iter().filter(|a| !seen.contains(*a)).collect();
    assert!(missing.is_empty(), "no plan used {missing:?}; saw {seen:?}");
}
