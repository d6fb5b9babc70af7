//! Greedy completion end to end: optimize the paper's fig4 8-relation
//! join chain under a move limit, then actually *execute* the greedy plan
//! on both engines and compare its rows against the logical-algebra
//! oracle.

use volcano_core::{PhysicalProps, SearchOptions};
use volcano_exec::{
    assert_same_rows, evaluate_logical, schema_of, BatchConfig, Database, Engine, ExecOptions,
};
use volcano_rel::builder::join;
use volcano_rel::{
    Catalog, ColumnDef, JoinPred, QueryBuilder, RelExpr, RelModel, RelModelOptions, RelOptimizer,
    RelProps, Value,
};

/// Tiny cardinalities with sparse join keys so the naive oracle stays
/// cheap (an n-way chain join yields a few dozen rows, not millions);
/// 8 relations still gives a search space where greedy completion skips
/// most moves, since goal counts are data-independent.
fn chain_catalog(n: usize) -> Catalog {
    let mut c = Catalog::new();
    for i in 0..n {
        c.add_table(
            &format!("t{i}"),
            8.0 + i as f64,
            vec![ColumnDef::int("a", 6.0), ColumnDef::int("b", 6.0)],
        );
    }
    c
}

fn chain_query(model: &RelModel, n: usize) -> RelExpr {
    let q = QueryBuilder::new(model.catalog());
    let mut e = q.scan("t0");
    for i in 1..n {
        e = join(
            e,
            q.scan(&format!("t{i}")),
            JoinPred::eq(
                q.attr(&format!("t{}", i - 1), "b"),
                q.attr(&format!("t{i}"), "a"),
            ),
        );
    }
    e
}

/// Execute `plan` on the tuple and the fused engine and compare each
/// against the oracle rows for `expr` (realigning columns, since join
/// commutativity permutes the schema).
fn execute_and_check(db: &Database, expr: &RelExpr, plan: &volcano_rel::RelPlan) {
    let phys_schema = schema_of(db, plan);
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
    for engine in [Engine::Tuple, Engine::Fused(BatchConfig::default())] {
        let got: Vec<Vec<Value>> = db
            .execute(plan, &ExecOptions::new().with_executor(engine), None)
            .into_iter()
            .map(|t| positions.iter().map(|&i| t[i].clone()).collect())
            .collect();
        assert_same_rows(got, oracle.rows.clone());
    }
}

fn setup(n: usize) -> (Database, RelModel) {
    let catalog = chain_catalog(n);
    let db = Database::in_memory(catalog.clone());
    db.generate(42);
    let model = RelModel::new(catalog, RelModelOptions::paper_fig4());
    (db, model)
}

/// Greedy completion on the 8-relation chain: at every move limit the
/// plan runs on both engines and produces exactly the oracle's rows.
#[test]
fn degraded_plan_executes_correctly() {
    let n = 8;
    let (db, model) = setup(n);
    let expr = chain_query(&model, n);
    for k in [1, 2] {
        let opts = SearchOptions {
            move_limit: Some(k),
            ..SearchOptions::default()
        };
        let mut opt = RelOptimizer::new(&model, opts);
        let root = opt.insert_tree(&expr);
        let plan = opt.find_best_plan(root, RelProps::any(), None).unwrap();
        execute_and_check(&db, &expr, &plan);
    }
}

/// The greedy plan's cost is an upper bound: never cheaper than the
/// exhaustive optimum on the same query (checked on a 6-relation chain,
/// where the exhaustive baseline is still fast).
#[test]
fn degraded_cost_upper_bounds_exhaustive_optimum() {
    let n = 6;
    let (db, model) = setup(n);
    let expr = chain_query(&model, n);

    let mut exhaustive = RelOptimizer::new(&model, SearchOptions::default());
    let eroot = exhaustive.insert_tree(&expr);
    let best = exhaustive
        .find_best_plan(eroot, RelProps::any(), None)
        .unwrap();

    let opts = SearchOptions {
        move_limit: Some(1),
        ..SearchOptions::default()
    };
    let mut greedy = RelOptimizer::new(&model, opts);
    let groot = greedy.insert_tree(&expr);
    let plan = greedy.find_best_plan(groot, RelProps::any(), None).unwrap();

    assert!(
        greedy.stats().goals_optimized < exhaustive.stats().goals_optimized,
        "greedy completion must skip goals"
    );
    assert!(
        plan.cost.total() + 1e-6 >= best.cost.total(),
        "greedy plan ({}) beat the exhaustive optimum ({})",
        plan.cost,
        best.cost
    );
    // Both are valid executable plans over the same data.
    execute_and_check(&db, &expr, &plan);
    execute_and_check(&db, &expr, &best);
}
