//! Concurrency stress test for the plan cache.
//!
//! Worker threads hammer `execute_prepared_opts` on a small set of
//! overlapping query shapes (so they race on the same cache entries and
//! shards) while a chaos thread continuously bumps the stats epoch and
//! flips cache capacity — driving the hit / revalidate / invalidate
//! paths concurrently. The suite must finish without panics or
//! deadlocks, every execution must return the correct rows, and the
//! cache counters must reconcile exactly:
//! `hits + misses + invalidations == lookups`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use volcano_exec::{Database, ExecOptions};
use volcano_rel::value::Tuple;
use volcano_rel::{Catalog, ColumnDef, Value};

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        "emp",
        500.0,
        vec![
            ColumnDef::int("id", 500.0),
            ColumnDef::int("dept", 10.0),
            ColumnDef::int("salary", 50.0),
        ],
    );
    c.add_table("dept", 10.0, vec![ColumnDef::int("id", 10.0)]);
    c
}

const SHAPES: &[&str] = &[
    "SELECT emp.id FROM emp WHERE emp.salary < $0 ORDER BY emp.id",
    "SELECT emp.id FROM emp WHERE emp.salary >= $0",
    "SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id AND emp.salary < $0",
    "SELECT emp.dept, COUNT(*) FROM emp GROUP BY emp.dept ORDER BY emp.dept",
    "SELECT dept.id FROM dept WHERE dept.id < $0 ORDER BY dept.id",
    "SELECT emp.id FROM emp WHERE emp.dept = $0 ORDER BY emp.id",
];

const THREADS: usize = 4;
const ITERS_PER_THREAD: usize = 120;

#[test]
fn concurrent_prepared_executions_reconcile() {
    let db = Database::in_memory(catalog());
    db.generate(23);
    let stmts: Vec<_> = SHAPES
        .iter()
        .map(|s| db.prepare(s).expect("prepare"))
        .collect();

    // Golden answers per (shape, param), computed single-threaded up
    // front. Statistics never change in this test (the chaos thread
    // bumps the raw epoch only), so plans may be re-optimized but the
    // answers must not move.
    let param_space: Vec<i64> = vec![5, 20, 45];
    let mut golden: Vec<Vec<Vec<Tuple>>> = Vec::new();
    for stmt in &stmts {
        let mut per_param = Vec::new();
        for p in &param_space {
            let params: Vec<Value> = (0..stmt.param_count()).map(|_| Value::Int(*p)).collect();
            let mut rows = db
                .execute_prepared_opts(stmt, &params, &ExecOptions::new(), None)
                .expect("golden run")
                .rows;
            rows.sort();
            per_param.push(rows);
        }
        golden.push(per_param);
    }
    db.plan_cache().clear();

    let stop = AtomicBool::new(false);
    let executions = AtomicU64::new(0);
    let baseline = db.plan_cache().stats();

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let db = &db;
            let stmts = &stmts;
            let golden = &golden;
            let param_space = &param_space;
            let executions = &executions;
            scope.spawn(move || {
                // Cheap deterministic per-thread sequence; overlapping
                // shapes across threads is the point.
                for i in 0..ITERS_PER_THREAD {
                    let s = (i * 7 + t * 3) % stmts.len();
                    let p = (i + t) % param_space.len();
                    let stmt = &stmts[s];
                    let params: Vec<Value> = (0..stmt.param_count())
                        .map(|_| Value::Int(param_space[p]))
                        .collect();
                    let mut rows = db
                        .execute_prepared_opts(stmt, &params, &ExecOptions::new(), None)
                        .expect("concurrent execution")
                        .rows;
                    rows.sort();
                    assert_eq!(
                        rows, golden[s][p],
                        "thread {t} iter {i}: shape {s} param {p} returned wrong rows"
                    );
                    executions.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Chaos thread: epoch bumps force constant re-validation;
        // capacity flips force eviction churn.
        let db = &db;
        let stop = &stop;
        scope.spawn(move || {
            let mut cap = 64usize;
            while !stop.load(Ordering::Relaxed) {
                db.bump_epoch();
                cap = if cap == 64 { 8 } else { 64 };
                db.set_plan_cache_capacity(cap);
                std::thread::yield_now();
            }
        });
        // Watch the execution counter, then stop the chaos thread so
        // the scope's implicit join can't deadlock on it.
        while executions.load(Ordering::Relaxed) < (THREADS * ITERS_PER_THREAD) as u64 {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    let total = THREADS as u64 * ITERS_PER_THREAD as u64;
    assert_eq!(executions.load(Ordering::Relaxed), total);

    // Counters reconcile exactly: every execution performed exactly one
    // lookup, and every lookup resolved to exactly one of the three
    // outcomes. No counts were lost to races.
    let s = db.plan_cache().stats();
    let lookups = s.lookups - baseline.lookups;
    let hits = s.hits - baseline.hits;
    let misses = s.misses - baseline.misses;
    let invalidations = s.invalidations - baseline.invalidations;
    assert_eq!(lookups, total, "one lookup per execution");
    assert_eq!(
        hits + misses + invalidations,
        lookups,
        "counters must reconcile: {s:?}"
    );
    // The workload genuinely exercised contention: some warm hits and
    // at least one miss per shape must have happened.
    assert!(misses >= SHAPES.len() as u64, "{s:?}");
    assert!(hits > 0, "{s:?}");
}
