//! The full stack: SQL text → parser → logical algebra → Volcano
//! optimizer → executable plan → iterator execution over paged storage —
//! with the result checked against a naive evaluator, and the cost
//! model's I/O estimate compared to the pages the buffer pool actually
//! read.
//!
//! Run with: `cargo run --example end_to_end`

use volcano::core::{PhysicalProps, SearchOptions};
use volcano::exec::{assert_same_rows, evaluate_logical, Database, ExecOptions};
use volcano::rel::{Catalog, ColumnDef, RelModel, RelOptimizer, RelProps};
use volcano::sql::plan_query;

fn main() {
    let mut catalog = Catalog::new();
    catalog.add_table(
        "emp",
        2_000.0,
        vec![
            ColumnDef::int("id", 2_000.0),
            ColumnDef::int("dept", 40.0),
            ColumnDef::int("salary", 500.0),
            ColumnDef::str("pad", 76, 2_000.0),
        ],
    );
    catalog.add_table(
        "dept",
        40.0,
        vec![ColumnDef::int("id", 40.0), ColumnDef::int("region", 5.0)],
    );

    // Parse + lower the SQL.
    let sql = "SELECT emp.id, emp.salary, dept.region \
               FROM emp, dept \
               WHERE emp.dept = dept.id AND emp.salary < 100 \
               ORDER BY emp.salary";
    let query = plan_query(sql, &mut catalog).expect("valid SQL");
    println!("SQL:     {sql}");
    println!("algebra: {}\n", query.expr.display());

    // Create and populate the database (honours the catalog statistics),
    // with a small buffer pool so scans do real page I/O.
    let db = Database::with_pool_size(catalog.clone(), 16);
    db.generate(2026);
    db.reset_io_stats();

    // Optimize with the ORDER BY as the physical-property goal.
    let model = RelModel::with_defaults(catalog);
    let mut opt = RelOptimizer::new(&model, SearchOptions::default());
    let root = opt.insert_tree(&query.expr);
    let goal = RelProps::sorted(query.order_by.clone());
    let plan = opt.find_best_plan(root, goal.clone(), None).unwrap();
    println!("=== chosen plan (estimated {}) ===", plan.cost);
    println!("{}", plan.explain());

    // Execute (the default options run the tuple iterator engine).
    let rows = db.execute(&plan, &ExecOptions::new(), None);
    let (reads, writes) = db.io_stats();
    println!("result: {} rows", rows.len());
    println!("observed physical I/O: {reads} page reads, {writes} page writes");
    println!(
        "cost model estimated {:.0} ms of I/O at 3 ms/page ≈ {:.0} page accesses",
        plan.cost.io,
        plan.cost.io / 3.0
    );

    // The result is sorted as requested (salary is output column 1)...
    for w in rows.windows(2) {
        assert!(w[0][1] <= w[1][1], "output must be sorted by salary");
    }
    // ...and identical (as a multiset, modulo column order) to the naive
    // evaluation of the logical expression.
    let oracle = evaluate_logical(&db, &query.expr);
    assert_same_rows(rows, oracle.rows);
    println!("\nresult verified against the naive logical-algebra evaluator ✓");
    assert!(plan.delivered.satisfies(&goal));
}
