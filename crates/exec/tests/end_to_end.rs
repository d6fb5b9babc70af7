//! The strongest correctness test in the repository: generate data,
//! optimize a logical query, execute the chosen physical plan, and
//! compare the result against the naive logical-algebra oracle — whatever
//! plan the optimizer picked.

use volcano_core::{PhysicalProps, SearchOptions};
use volcano_exec::{assert_same_rows, evaluate_logical, Database, ExecOptions};
use volcano_rel::builder::{aggregate, difference, intersect, join_on, project, select_one, union};
use volcano_rel::{
    AggFunc, AggSpec, Catalog, Cmp, ColumnDef, QueryBuilder, RelExpr, RelModel, RelModelOptions,
    RelOptimizer, RelProps, Value,
};

fn small_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        "emp",
        200.0,
        vec![
            ColumnDef::int("id", 200.0),
            ColumnDef::int("dept", 10.0),
            ColumnDef::int("salary", 50.0),
        ],
    );
    c.add_table(
        "dept",
        10.0,
        vec![ColumnDef::int("id", 10.0), ColumnDef::int("region", 3.0)],
    );
    c.add_table(
        "region",
        3.0,
        vec![ColumnDef::int("id", 3.0), ColumnDef::str("name", 8, 3.0)],
    );
    c
}

/// Optimize `expr` for `props` and execute; compare with the oracle.
/// Join commutativity permutes output columns, so the executed rows are
/// re-aligned to the logical expression's schema before comparison.
fn check(db: &Database, model: &RelModel, expr: &RelExpr, props: RelProps) {
    let mut opt = RelOptimizer::new(model, SearchOptions::default());
    let root = opt.insert_tree(expr);
    let plan = opt.find_best_plan(root, props, None).expect("plan");
    let compiled = volcano_exec::compile(db, &plan);
    let phys_schema = compiled.schema.clone();
    let mut op = compiled.operator;
    let got_raw = volcano_exec::collect(op.as_mut());
    let oracle = evaluate_logical(db, expr);
    let positions: Vec<usize> = oracle
        .schema
        .iter()
        .map(|a| {
            phys_schema
                .iter()
                .position(|b| b == a)
                .unwrap_or_else(|| panic!("attr {a:?} missing from physical schema"))
        })
        .collect();
    let got: Vec<Vec<Value>> = got_raw
        .into_iter()
        .map(|t| positions.iter().map(|&i| t[i].clone()).collect())
        .collect();
    assert_same_rows(got, oracle.rows);
}

fn setup() -> (Database, RelModel) {
    let catalog = small_catalog();
    let db = Database::in_memory(catalog.clone());
    db.generate(42);
    let model = RelModel::with_defaults(catalog);
    (db, model)
}

#[test]
fn scan_and_filter() {
    let (db, model) = setup();
    let q = QueryBuilder::new(model.catalog());
    check(&db, &model, &q.scan("emp"), RelProps::any());
    check(
        &db,
        &model,
        &select_one(q.scan("emp"), Cmp::eq(q.attr("emp", "dept"), 3i64)),
        RelProps::any(),
    );
    check(
        &db,
        &model,
        &select_one(q.scan("emp"), Cmp::lt(q.attr("emp", "salary"), 25i64)),
        RelProps::any(),
    );
}

#[test]
fn two_way_join_all_strategies() {
    let (db, model) = setup();
    let q = QueryBuilder::new(model.catalog());
    let expr = join_on(
        q.scan("emp"),
        q.scan("dept"),
        q.attr("emp", "dept"),
        q.attr("dept", "id"),
    );
    // Unordered goal (hash join territory).
    check(&db, &model, &expr, RelProps::any());
    // Ordered goal (merge join or sort-on-top).
    check(
        &db,
        &model,
        &expr,
        RelProps::sorted(vec![q.attr("emp", "dept")]),
    );
}

#[test]
fn sorted_output_is_actually_sorted() {
    let (db, model) = setup();
    let q = QueryBuilder::new(model.catalog());
    let key = q.attr("emp", "salary");
    let mut opt = RelOptimizer::new(&model, SearchOptions::default());
    let root = opt.insert_tree(&q.scan("emp"));
    let plan = opt
        .find_best_plan(root, RelProps::sorted(vec![key]), None)
        .unwrap();
    let rows = db.execute(&plan, &ExecOptions::new(), None);
    assert_eq!(rows.len(), 200);
    // salary is column 2.
    for w in rows.windows(2) {
        assert!(w[0][2] <= w[1][2], "output not sorted");
    }
}

#[test]
fn three_way_join_with_selections() {
    let (db, model) = setup();
    let q = QueryBuilder::new(model.catalog());
    let expr = join_on(
        join_on(
            select_one(q.scan("emp"), Cmp::lt(q.attr("emp", "salary"), 30i64)),
            q.scan("dept"),
            q.attr("emp", "dept"),
            q.attr("dept", "id"),
        ),
        q.scan("region"),
        q.attr("dept", "region"),
        q.attr("region", "id"),
    );
    check(&db, &model, &expr, RelProps::any());
}

#[test]
fn projection() {
    let (db, model) = setup();
    let q = QueryBuilder::new(model.catalog());
    let expr = project(
        q.scan("emp"),
        vec![q.attr("emp", "dept"), q.attr("emp", "id")],
    );
    check(&db, &model, &expr, RelProps::any());
}

#[test]
fn set_operations() {
    let mut c = Catalog::new();
    c.add_table("r", 80.0, vec![ColumnDef::int("x", 10.0)]);
    c.add_table("s", 60.0, vec![ColumnDef::int("x", 10.0)]);
    let db = Database::in_memory(c.clone());
    db.generate(7);
    let model = RelModel::with_defaults(c);
    let q = QueryBuilder::new(model.catalog());
    check(
        &db,
        &model,
        &union(q.scan("r"), q.scan("s")),
        RelProps::any(),
    );
    check(
        &db,
        &model,
        &intersect(q.scan("r"), q.scan("s")),
        RelProps::any(),
    );
    check(
        &db,
        &model,
        &difference(q.scan("r"), q.scan("s")),
        RelProps::any(),
    );
    // Sorted goals exercise the merge variants.
    let x = q.attr("r", "x");
    check(
        &db,
        &model,
        &intersect(q.scan("r"), q.scan("s")),
        RelProps::sorted(vec![x]),
    );
}

#[test]
fn aggregation_both_strategies() {
    let (db, model) = setup();
    let q = QueryBuilder::new(model.catalog());
    let mut cat2 = model.catalog().clone();
    let dept = q.attr("emp", "dept");
    let salary = q.attr("emp", "salary");
    let spec = AggSpec {
        group_by: vec![dept],
        aggs: vec![
            (AggFunc::CountStar, cat2.fresh_attr()),
            (AggFunc::Sum(salary), cat2.fresh_attr()),
            (AggFunc::Min(salary), cat2.fresh_attr()),
            (AggFunc::Max(salary), cat2.fresh_attr()),
            (AggFunc::Avg(salary), cat2.fresh_attr()),
        ],
    };
    let expr = aggregate(q.scan("emp"), spec.clone());
    check(&db, &model, &expr, RelProps::any());
    // Sorted goal forces the stream-aggregate path.
    check(&db, &model, &expr, RelProps::sorted(vec![dept]));
}

#[test]
fn grand_total_on_empty_table() {
    let mut c = Catalog::new();
    c.add_table("empty", 5.0, vec![ColumnDef::int("x", 5.0)]);
    let x = c.attr("empty", "x");
    let count_out = c.fresh_attr();
    let sum_out = c.fresh_attr();
    // NOTE: the table is registered with card 5 but never populated.
    let db = Database::in_memory(c.clone());
    let model = RelModel::with_defaults(c);
    let q = QueryBuilder::new(model.catalog());
    let expr = aggregate(
        q.scan("empty"),
        AggSpec {
            group_by: vec![],
            aggs: vec![(AggFunc::CountStar, count_out), (AggFunc::Sum(x), sum_out)],
        },
    );
    check(&db, &model, &expr, RelProps::any());
    let got = {
        let mut opt = RelOptimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&expr);
        let plan = opt.find_best_plan(root, RelProps::any(), None).unwrap();
        db.execute(&plan, &ExecOptions::new(), None)
    };
    assert_eq!(got, vec![vec![Value::Int(0), Value::Null]]);
}

#[test]
fn random_queries_match_oracle() {
    use volcano_bench::{generate_query, WorkloadConfig};
    for n in 2..=4usize {
        for seed in 0..5u64 {
            let mut cfg = WorkloadConfig::relations(n);
            cfg.min_card = 30;
            cfg.max_card = 120;
            let gq = generate_query(&cfg, 1000 * n as u64 + seed);
            let db = Database::in_memory(gq.catalog.clone());
            db.generate(seed);
            let model = RelModel::new(gq.catalog.clone(), RelModelOptions::default());
            check(&db, &model, &gq.expr, RelProps::any());
        }
    }
}

#[test]
fn io_counters_reflect_scans() {
    let mut c = Catalog::new();
    c.add_table(
        "big",
        2000.0,
        vec![
            ColumnDef::int("x", 100.0),
            ColumnDef::str("pad", 92, 2000.0),
        ],
    );
    let db = volcano_exec::Database::with_pool_size(c.clone(), 8);
    db.generate(1);
    db.reset_io_stats();
    let model = RelModel::with_defaults(c);
    let q = QueryBuilder::new(model.catalog());
    let mut opt = RelOptimizer::new(&model, SearchOptions::default());
    let root = opt.insert_tree(&q.scan("big"));
    let plan = opt.find_best_plan(root, RelProps::any(), None).unwrap();
    let rows = db.execute(&plan, &ExecOptions::new(), None);
    assert_eq!(rows.len(), 2000);
    let (reads, _) = db.io_stats();
    // ~100 bytes per row, 4 KiB pages → ≈ 40 rows/page → ≈ 50+ pages.
    // With a tiny 8-page pool the scan must read most pages from disk.
    assert!(reads >= 40, "expected a real scan, saw {reads} page reads");
}

#[test]
fn external_sort_spills_through_the_full_pipeline() {
    let catalog = small_catalog();
    let db = Database::with_pool_size(catalog.clone(), 8);
    db.generate(42);
    // Force run spilling: only 32 tuples in memory per sort.
    db.set_sort_memory_rows(32);
    db.reset_io_stats();
    let model = RelModel::with_defaults(catalog);
    let q = QueryBuilder::new(model.catalog());
    let key = q.attr("emp", "salary");
    let mut opt = RelOptimizer::new(&model, SearchOptions::default());
    let root = opt.insert_tree(&q.scan("emp"));
    let plan = opt
        .find_best_plan(root, RelProps::sorted(vec![key]), None)
        .unwrap();
    let rows = db.execute(&plan, &ExecOptions::new(), None);
    assert_eq!(rows.len(), 200);
    for w in rows.windows(2) {
        assert!(w[0][2] <= w[1][2], "spilled sort output must be ordered");
    }
    let (reads, writes) = db.io_stats();
    // Run-file pages evicted from the small pool prove the spill went
    // through the disk; merge reads may still be absorbed by the cache.
    assert!(
        writes > 0,
        "run files must hit the disk (reads {reads}, writes {writes})"
    );
}
