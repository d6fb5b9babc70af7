//! Chaos and stress tests for morsel-driven parallel execution.
//!
//! Two failure axes:
//!
//! 1. **Injected worker death.** `BatchConfig::with_fail_morsel(n)`
//!    makes the worker dispensed the `n`-th morsel panic mid-query. The
//!    query must fail with a clean, attributable panic — never a
//!    deadlock, never a silently truncated result — and the same
//!    database must answer the next (uninjected) query correctly: a
//!    dead worker poisons nothing.
//!
//! 2. **Concurrent parallel executions under cache chaos.** Four
//!    threads hammer prepared statements through the parallel
//!    vectorized engine while a chaos thread bumps the stats epoch, forcing
//!    constant plan re-validation. Every execution must return the
//!    correct rows and the plan-cache counters must reconcile exactly:
//!    `hits + misses + invalidations == lookups`.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use common::testkit::{
    assert_same_multiset, run_fused, run_prepared, run_tuple, sorted_copy, sql_cases, DiffCase,
};
use volcano_exec::{BatchConfig, Database, Engine};
use volcano_rel::value::Tuple;
use volcano_rel::{RelAlg, RelModelOptions, RelPlan, Value};

fn has_gather(plan: &RelPlan) -> bool {
    matches!(plan.alg, RelAlg::Gather(_)) || plan.inputs.iter().any(has_gather)
}

/// Golden cases whose plans actually contain a gather at degree 4 —
/// injection into a serial plan would test nothing.
fn gather_cases() -> Vec<DiffCase> {
    let cases: Vec<DiffCase> = sql_cases(RelModelOptions::default().with_parallel_degree(4))
        .into_iter()
        .filter(|c| has_gather(&c.plan))
        .collect();
    assert!(
        !cases.is_empty(),
        "no golden query produced a gather plan at degree 4"
    );
    cases
}

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[test]
fn injected_worker_panic_fails_cleanly_and_poisons_nothing() {
    for case in gather_cases() {
        let DiffCase { db, plan, tag, .. } = &case;
        let expected = run_tuple(db, plan);
        // Several injection points: the very first morsel (dies during
        // a build pipeline if the gather has one), and later ones (dies
        // mid-probe / mid-scan).
        for fail_at in [1u64, 2, 5] {
            let cfg = BatchConfig::default().with_fail_morsel(fail_at);
            let result = catch_unwind(AssertUnwindSafe(|| run_fused(db, plan, cfg)));
            let payload = match result {
                Err(p) => p,
                Ok(rows) => {
                    // Fewer morsels than the injection point: the query
                    // legitimately completes, and completely.
                    assert_same_multiset(
                        &expected,
                        &rows,
                        &format!("{tag}: fail_at={fail_at} (not reached)"),
                    );
                    continue;
                }
            };
            let msg = panic_text(payload);
            assert!(
                msg.contains("injected worker failure") || msg.contains("morsel worker failed"),
                "{tag}: fail_at={fail_at}: unexpected panic: {msg}"
            );
            // The failure is repeatable, not a race artifact.
            let again = catch_unwind(AssertUnwindSafe(|| run_fused(db, plan, cfg)));
            assert!(
                again.is_err(),
                "{tag}: fail_at={fail_at}: injection did not reproduce"
            );
            // And the database is unharmed: the next clean run over the
            // same buffer pool and heap files is complete and correct.
            let rows = run_fused(db, plan, BatchConfig::default());
            assert_same_multiset(&expected, &rows, &format!("{tag}: after fail_at={fail_at}"));
        }
    }
}

/// An injection point past the total morsel count never fires: the
/// query completes normally with the injection armed.
#[test]
fn unreached_injection_is_inert() {
    for case in gather_cases() {
        let DiffCase { db, plan, tag, .. } = &case;
        let expected = run_tuple(db, plan);
        let cfg = BatchConfig::default().with_fail_morsel(u64::MAX);
        let rows = run_fused(db, plan, cfg);
        assert_same_multiset(&expected, &rows, &format!("{tag}: fail_at=MAX"));
    }
}

const THREADS: usize = 4;
const ITERS_PER_THREAD: usize = 40;

const SHAPES: &[&str] = &[
    "SELECT emp.id FROM emp WHERE emp.salary < $0 ORDER BY emp.id",
    "SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id AND emp.salary < $0",
    "SELECT emp.id FROM emp, dept, region \
     WHERE emp.dept = dept.id AND dept.region = region.id AND emp.salary < $0",
    "SELECT emp.dept, COUNT(*) FROM emp GROUP BY emp.dept ORDER BY emp.dept",
];

#[test]
fn concurrent_parallel_executions_reconcile_under_epoch_chaos() {
    let db = Database::in_memory(common::testkit::diff_catalog());
    db.generate(23);
    db.set_parallel_degree(4);
    let engine = Engine::Fused(BatchConfig::default());
    let stmts: Vec<_> = SHAPES
        .iter()
        .map(|s| db.prepare(s).expect("prepare"))
        .collect();

    // Golden answers per (shape, param), single-threaded, canonical
    // order. Statistics never change (the chaos thread bumps the raw
    // epoch only), so replans may pick new plans but answers must not
    // move.
    let param_space: Vec<i64> = vec![5, 20, 45];
    let mut golden: Vec<Vec<Vec<Tuple>>> = Vec::new();
    for stmt in &stmts {
        let mut per_param = Vec::new();
        for p in &param_space {
            let params: Vec<Value> = (0..stmt.param_count()).map(|_| Value::Int(*p)).collect();
            let rows = run_prepared(&db, stmt, &params, engine)
                .expect("golden run")
                .rows;
            per_param.push(sorted_copy(&rows));
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
                for i in 0..ITERS_PER_THREAD {
                    let s = (i * 7 + t * 3) % stmts.len();
                    let p = (i + t) % param_space.len();
                    let stmt = &stmts[s];
                    let params: Vec<Value> = (0..stmt.param_count())
                        .map(|_| Value::Int(param_space[p]))
                        .collect();
                    let rows = run_prepared(db, stmt, &params, engine)
                        .expect("concurrent parallel execution")
                        .rows;
                    assert_eq!(
                        sorted_copy(&rows),
                        golden[s][p],
                        "thread {t} iter {i}: shape {s} param {p} returned wrong rows"
                    );
                    executions.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Chaos thread: epoch bumps force constant re-validation of
        // cached parallel plans while their worker pools are running.
        let db = &db;
        let stop = &stop;
        scope.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                db.bump_epoch();
                std::thread::yield_now();
            }
        });
        while executions.load(Ordering::Relaxed) < (THREADS * ITERS_PER_THREAD) as u64 {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });

    let total = THREADS as u64 * ITERS_PER_THREAD as u64;
    assert_eq!(executions.load(Ordering::Relaxed), total);

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
    assert!(misses >= SHAPES.len() as u64, "{s:?}");
}
