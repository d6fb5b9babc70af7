//! Invalidation property tests: prepared executions interleaved with
//! DDL, data loads, and statistics refreshes.
//!
//! A seeded random schedule of operations runs against one database,
//! and after every step the suite re-checks the cache's safety
//! contract:
//!
//! * **(a) no stale plan over dropped objects** — once a table is
//!   dropped, executing a prepared statement that references it fails
//!   at lowering (name resolution), *before* any cache probe, so a
//!   cached template can never be served for it;
//! * **(b) cold-cache oracle equality** — every successful prepared
//!   execution returns exactly what a from-scratch parse → lower →
//!   optimize → execute under the *current* catalog returns;
//! * **(c) epoch monotonicity** — the stats epoch never decreases, and
//!   strictly increases across inserts, drops, and stats refreshes;
//!   cache counters always reconcile (`hits + misses + invalidations
//!   == lookups`).

mod common;

use common::testkit::{run_prepared, run_tuple};
use proptest::prelude::*;
use volcano_core::SearchOptions;
use volcano_exec::{Database, Engine};
use volcano_rel::value::Tuple;
use volcano_rel::{Catalog, ColumnDef, RelModel, RelOptimizer, RelProps, Value};
use volcano_sql::{lower_with_params, parse};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        "emp",
        300.0,
        vec![
            ColumnDef::int("id", 300.0),
            ColumnDef::int("dept", 10.0),
            ColumnDef::int("salary", 50.0),
        ],
    );
    c.add_table("dept", 10.0, vec![ColumnDef::int("id", 10.0)]);
    c
}

/// The prepared workload: statements over emp alone, the join, and
/// dept alone (the last keeps working after `DROP TABLE emp`).
const STATEMENTS: &[&str] = &[
    "SELECT emp.id FROM emp WHERE emp.salary < $0 ORDER BY emp.id",
    "SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id AND emp.salary < $0",
    "SELECT dept.id FROM dept WHERE dept.id < $0 ORDER BY dept.id",
    "SELECT emp.dept, COUNT(*) FROM emp GROUP BY emp.dept ORDER BY emp.dept",
];

/// Does a statement reference `emp` (and so must fail once it drops)?
const TOUCHES_EMP: [bool; 4] = [true, true, false, true];

fn oracle_rows(db: &Database, sql: &str, params: &[Value]) -> Result<Vec<Tuple>, String> {
    let ast = parse(sql).map_err(|e| e.to_string())?;
    let mut catalog = (*db.catalog()).clone();
    let q = lower_with_params(&ast, &mut catalog, params).map_err(|e| e.to_string())?;
    let model = RelModel::with_defaults(catalog.clone());
    let mut opt = RelOptimizer::new(&model, SearchOptions::default());
    let root = opt.insert_tree(&q.expr);
    let plan = opt
        .find_best_plan(root, RelProps::sorted(q.order_by.clone()), None)
        .map_err(|e| e.to_string())?;
    Ok(run_tuple(db, &plan))
}

fn sorted_copy(rows: &[Tuple]) -> Vec<Tuple> {
    let mut s = rows.to_vec();
    s.sort();
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("CACHE_FUZZ_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .map(|n: u32| (n / 4).max(8))
            .unwrap_or(48)
    ))]
    #[test]
    fn interleaved_ddl_never_serves_a_stale_plan(
        ops in proptest::collection::vec((0u8..6, 0i64..50), 6..24)
    ) {
        let db = Database::in_memory(catalog());
        db.generate(17);
        let stmts: Vec<_> = STATEMENTS
            .iter()
            .map(|sql| (sql, db.prepare(sql).expect("prepare")))
            .collect();
        let emp = db.catalog().table_by_name("emp").unwrap().id;
        let mut emp_dropped = false;
        let mut last_epoch = db.epoch();
        let mut next_row = 100_000i64;

        for (op, arg) in ops {
            match op {
                // Execute one of the prepared statements.
                0..=2 => {
                    let idx = (arg as usize) % stmts.len();
                    let (sql, stmt) = &stmts[idx];
                    let params: Vec<Value> = (0..stmt.param_count())
                        .map(|_| Value::Int(arg))
                        .collect();
                    let got = run_prepared(&db, stmt, &params, Engine::Tuple).map(|o| o.rows);
                    if emp_dropped && TOUCHES_EMP[idx] {
                        // (a) dropped object: must fail at lowering, not
                        // serve a cached plan.
                        prop_assert!(
                            got.is_err(),
                            "{sql}: executed over a dropped table"
                        );
                    } else {
                        let got = got.expect("prepared execution");
                        // (b) equality with the cold oracle under the
                        // *current* catalog.
                        let want = oracle_rows(&db, sql, &params).expect("oracle");
                        prop_assert_eq!(
                            sorted_copy(&got),
                            sorted_copy(&want),
                            "{} with {:?} diverged from cold oracle",
                            sql,
                            params
                        );
                    }
                }
                // Load more rows (bumps the epoch per insert).
                3 => {
                    if !emp_dropped {
                        for i in 0..5 {
                            db.insert(
                                emp,
                                vec![
                                    Value::Int(next_row + i),
                                    Value::Int(arg % 10),
                                    Value::Int(arg),
                                ],
                            );
                        }
                        next_row += 5;
                        prop_assert!(db.epoch() > last_epoch, "inserts must bump the epoch");
                    }
                }
                // Refresh statistics from the stored data.
                4 => {
                    let before = db.epoch();
                    db.refresh_stats();
                    prop_assert!(db.epoch() > before, "refresh_stats must bump the epoch");
                }
                // Drop the emp table (at most once per schedule).
                _ => {
                    if !emp_dropped && arg < 10 {
                        let before = db.epoch();
                        prop_assert!(db.drop_table("emp"));
                        prop_assert!(db.epoch() > before, "DDL must bump the epoch");
                        prop_assert_eq!(db.plan_cache().len(), 0, "drop must clear the cache");
                        emp_dropped = true;
                    }
                }
            }
            // (c) epochs are monotone and counters reconcile, always.
            prop_assert!(db.epoch() >= last_epoch);
            last_epoch = db.epoch();
            let s = db.plan_cache().stats();
            prop_assert_eq!(s.lookups, s.hits + s.misses + s.invalidations);
        }
    }
}

/// Growing a table 10× and refreshing stats must trip the cost-drift
/// guard: the cached template re-estimates far above its recorded cost
/// and the next execution re-optimizes instead of serving it.
#[test]
fn stats_growth_forces_reoptimization() {
    let db = Database::in_memory(catalog());
    db.generate(3);
    let stmt = db
        .prepare("SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id AND emp.salary < $0")
        .unwrap();
    let cold = run_prepared(&db, &stmt, &[Value::Int(25)], Engine::Tuple).unwrap();
    assert_eq!(cold.cache, "miss");

    let emp = db.catalog().table_by_name("emp").unwrap().id;
    for i in 0..3000 {
        db.insert(
            emp,
            vec![Value::Int(1000 + i), Value::Int(i % 10), Value::Int(i % 50)],
        );
    }
    db.refresh_stats();
    assert!(db.catalog().table(emp).card > 3000.0);

    let after = run_prepared(&db, &stmt, &[Value::Int(25)], Engine::Tuple).unwrap();
    assert_eq!(
        after.cache, "invalidated",
        "10x data growth must re-optimize, not serve the stale template"
    );
    assert!(after.search.is_some());
    // The re-optimized entry is current again: next execution hits.
    let warm = run_prepared(&db, &stmt, &[Value::Int(25)], Engine::Tuple).unwrap();
    assert_eq!(warm.cache, "hit");
    assert!(warm.search.is_none());
    let s = db.plan_cache().stats();
    assert_eq!(s.invalidations, 1);
    assert_eq!(s.lookups, s.hits + s.misses + s.invalidations);
}

/// Regression: executing a prepared statement whose table was dropped
/// after `PREPARE` must return a clean [`PrepareError::Lower`] — it
/// used to reach the executor and panic on the missing heap file. The
/// same contract holds one level up, through a serving-layer session.
#[test]
fn stale_prepared_statement_after_drop_errors_cleanly() {
    use volcano_exec::{PrepareError, Server, ServerConfig, SessionError, TrafficClass};

    let db = Database::in_memory(catalog());
    db.generate(23);
    let stmt = db
        .prepare("SELECT emp.id FROM emp WHERE emp.salary < $0")
        .unwrap();
    // Warm the cache so a stale template exists when the table goes.
    run_prepared(&db, &stmt, &[Value::Int(25)], Engine::Tuple).unwrap();
    assert!(db.drop_table("emp"));

    let err = run_prepared(&db, &stmt, &[Value::Int(25)], Engine::Tuple).unwrap_err();
    assert!(
        matches!(err, PrepareError::Lower(_)),
        "expected a lowering error, got {err}"
    );
    // No cache probe happened for the failed execution.
    let s = db.plan_cache().stats();
    assert_eq!(s.lookups, s.hits + s.misses + s.invalidations);

    // Session path: EXECUTE over a statement prepared before the drop.
    let server = Server::new(Database::in_memory(catalog()), ServerConfig::default());
    server.db().generate(23);
    let mut session = server.session(TrafficClass::Interactive);
    session
        .prepare("q", "SELECT emp.id FROM emp WHERE emp.salary < $0")
        .unwrap();
    session.execute("q", &[Value::Int(25)]).unwrap();
    assert!(server.db().drop_table("emp"));
    let err = session.execute("q", &[Value::Int(25)]).unwrap_err();
    assert!(
        matches!(err, SessionError::Prepare(PrepareError::Lower(_))),
        "expected a lowering error through the session, got {err}"
    );
    // Statements over surviving tables keep working in the same session.
    session
        .prepare("d", "SELECT dept.id FROM dept WHERE dept.id < $0")
        .unwrap();
    session.execute("d", &[Value::Int(5)]).unwrap();
}

/// A stats refresh that does not change the numbers keeps cached plans
/// servable: the drift guard revalidates them in place (a hit), and the
/// entry is restamped so later lookups skip the re-estimate.
#[test]
fn unchanged_stats_revalidate_without_reoptimizing() {
    let db = Database::in_memory(catalog());
    db.generate(5);
    // Align the catalog's estimates with the data before caching, so
    // the later refresh is a true no-op.
    db.refresh_stats();
    let stmt = db
        .prepare("SELECT emp.id FROM emp WHERE emp.salary < $0 ORDER BY emp.id")
        .unwrap();
    run_prepared(&db, &stmt, &[Value::Int(30)], Engine::Tuple).unwrap();
    db.refresh_stats();
    let out = run_prepared(&db, &stmt, &[Value::Int(12)], Engine::Tuple).unwrap();
    assert_eq!(out.cache, "hit", "unchanged stats must not invalidate");
    assert!(out.search.is_none());
    assert_eq!(db.plan_cache().stats().invalidations, 0);
}
