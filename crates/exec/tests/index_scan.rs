//! Indexes as order-delivering access paths: the optimizer picks index
//! scans when the order pays, execution honours it, and merge joins run
//! without any sort operator at all.

use volcano_core::{PhysicalProps, SearchOptions};
use volcano_exec::{assert_same_rows, evaluate_logical, Database, ExecOptions};
use volcano_rel::builder::join_on;
use volcano_rel::{
    Catalog, ColumnDef, QueryBuilder, RelAlg, RelModel, RelOptimizer, RelPlan, RelProps,
};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        "orders",
        3_000.0,
        vec![
            ColumnDef::int("id", 3_000.0),
            ColumnDef::int("cust", 100.0).indexed(),
        ],
    );
    c.add_table(
        "customers",
        2_500.0,
        vec![
            ColumnDef::int("id", 100.0).indexed(),
            ColumnDef::int("region", 10.0),
        ],
    );
    c
}

fn optimize(model: &RelModel, expr: &volcano_rel::RelExpr, props: RelProps) -> RelPlan {
    let mut opt = RelOptimizer::new(model, SearchOptions::default());
    let root = opt.insert_tree(expr);
    opt.find_best_plan(root, props, None).unwrap()
}

#[test]
fn order_by_indexed_column_uses_index_scan_without_sort() {
    let model = RelModel::with_defaults(catalog());
    let q = QueryBuilder::new(model.catalog());
    let cust = q.attr("orders", "cust");
    let plan = optimize(&model, &q.scan("orders"), RelProps::sorted(vec![cust]));
    assert!(
        matches!(plan.alg, RelAlg::IndexScan(_, _)),
        "index scan should deliver the order directly:\n{}",
        plan.explain()
    );
    assert_eq!(plan.count_algs(|a| matches!(a, RelAlg::Sort(_))), 0);
}

#[test]
fn unordered_goal_still_prefers_heap_scan() {
    // Without an order to exploit, the cheaper heap scan wins.
    let model = RelModel::with_defaults(catalog());
    let q = QueryBuilder::new(model.catalog());
    let plan = optimize(&model, &q.scan("orders"), RelProps::any());
    assert!(
        matches!(plan.alg, RelAlg::FileScan(_)),
        "{}",
        plan.explain()
    );
}

#[test]
fn merge_join_over_two_indexes_needs_no_sorts() {
    let model = RelModel::with_defaults(catalog());
    let q = QueryBuilder::new(model.catalog());
    let cust = q.attr("orders", "cust");
    let expr = join_on(
        q.scan("orders"),
        q.scan("customers"),
        cust,
        q.attr("customers", "id"),
    );
    // Require the join result sorted by customer: both inputs can come
    // pre-sorted from their indexes, so the whole plan is sort-free.
    let plan = optimize(&model, &expr, RelProps::sorted(vec![cust]));
    assert!(
        matches!(plan.alg, RelAlg::MergeJoin(_)),
        "expected a merge join over index scans:\n{}",
        plan.explain()
    );
    assert_eq!(
        plan.count_algs(|a| matches!(a, RelAlg::Sort(_))),
        0,
        "no sorts anywhere:\n{}",
        plan.explain()
    );
    assert_eq!(plan.count_algs(|a| matches!(a, RelAlg::IndexScan(_, _))), 2);
}

#[test]
fn index_plans_execute_correctly_and_in_order() {
    let cat = catalog();
    let db = Database::in_memory(cat.clone());
    db.generate(11);
    let model = RelModel::with_defaults(cat);
    let q = QueryBuilder::new(model.catalog());
    let cust = q.attr("orders", "cust");
    let expr = join_on(
        q.scan("orders"),
        q.scan("customers"),
        cust,
        q.attr("customers", "id"),
    );
    let plan = optimize(&model, &expr, RelProps::sorted(vec![cust]));

    let compiled = volcano_exec::compile(&db, &plan);
    let phys = compiled.schema.clone();
    let mut op = compiled.operator;
    let rows = volcano_exec::collect(op.as_mut());
    // Sorted on orders.cust (position in physical schema).
    let pos = phys.iter().position(|&a| a == cust).unwrap();
    for w in rows.windows(2) {
        assert!(w[0][pos] <= w[1][pos], "join output must be index-ordered");
    }
    // And identical to the oracle.
    let oracle = evaluate_logical(&db, &expr);
    let positions: Vec<usize> = oracle
        .schema
        .iter()
        .map(|a| phys.iter().position(|b| b == a).unwrap())
        .collect();
    let aligned: Vec<_> = rows
        .into_iter()
        .map(|t| positions.iter().map(|&i| t[i].clone()).collect::<Vec<_>>())
        .collect();
    assert_same_rows(aligned, oracle.rows);
}

#[test]
fn index_scan_skips_deleted_rows() {
    let mut c = Catalog::new();
    c.add_table("t", 10.0, vec![ColumnDef::int("k", 10.0).indexed()]);
    let t = c.table_by_name("t").unwrap().id;
    let k = c.attr("t", "k");
    let db = Database::in_memory(c.clone());
    for i in 0..10 {
        db.insert(t, vec![volcano_rel::Value::Int(i)]);
    }
    // Delete some rows straight from the heap (dangling index entries).
    let mut rids = Vec::new();
    db.table(t).scan(|rid, _| rids.push(rid));
    db.table(t).delete(rids[3]);
    db.table(t).delete(rids[7]);

    let model = RelModel::with_defaults(c);
    let q = QueryBuilder::new(model.catalog());
    let plan = optimize(&model, &q.scan("t"), RelProps::sorted(vec![k]));
    let rows = db.execute(&plan, &ExecOptions::new(), None);
    assert_eq!(rows.len(), 8, "deleted rows must not resurface");
}
