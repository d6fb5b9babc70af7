//! Concurrent multi-session serving stress suite.
//!
//! `threads × sessions` workers hammer one shared [`Database`] through
//! serving-layer [`Session`]s with a mixed PREPARE / EXECUTE / INSERT /
//! one-shot-query workload while a chaos thread bumps the stats epoch,
//! refreshes statistics, and drops a table mid-run. The suite asserts
//! the system-wide ledgers reconcile *exactly* — not approximately:
//!
//! * plan-cache counters: `hits + misses + invalidations == lookups`,
//!   and `lookups` equals the number of executions that reached the
//!   cache probe (successful executions; a lowering failure over the
//!   dropped table probes nothing);
//! * the stats epoch advances by exactly one per insert, explicit bump,
//!   stats refresh, and drop — concurrent bumps are never lost;
//! * admission: `admitted_full + admitted_degraded` equals the number
//!   of admissions requested (a worker that finds every ticket held
//!   proceeds degraded rather than waiting);
//! * a query over a never-mutated table returns the identical rows in
//!   every one of its thousands of concurrent executions.
//!
//! Set `VOLCANO_THREADS` to scale the worker count (CI runs 1 and 8).

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::testkit::diff_catalog;
use volcano_exec::{
    Database, PrepareError, Server, ServerConfig, Session, SessionError, TrafficClass,
};
use volcano_rel::value::Tuple;
use volcano_rel::Value;

fn assert_send_sync<T: Send + Sync>() {}

/// The tentpole's compile-time claim: the database and the whole
/// serving layer can be shared freely across threads.
#[test]
fn database_and_serving_layer_are_send_and_sync() {
    assert_send_sync::<Database>();
    assert_send_sync::<Server>();
    assert_send_sync::<Session>();
    assert_send_sync::<volcano_exec::AdmissionControl>();
}

fn worker_count() -> usize {
    std::env::var("VOLCANO_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .map(|n: usize| n.clamp(1, 16))
        .unwrap_or(4)
}

/// Per-worker tallies the final reconciliation sums up.
#[derive(Default)]
struct WorkerLedger {
    /// Admissions this worker requested (every EXECUTE / one-shot).
    admissions: u64,
    /// Executions that returned rows (and so probed the plan cache).
    successes: u64,
    /// Rows inserted into `emp` (each bumps the epoch once).
    inserts: u64,
}

const REGION_SQL: &str = "SELECT region.id FROM region ORDER BY region.id";
const DEPT_SQL: &str = "SELECT dept.id FROM dept, region \
     WHERE dept.region = region.id ORDER BY dept.id";
const STATIC_SQL: &str = "SELECT dept.id, dept.region FROM dept ORDER BY dept.id";
const EMP_SQL: &str = "SELECT emp.id FROM emp WHERE emp.salary < $0";
const AGG_SQL: &str = "SELECT emp.dept, COUNT(*) FROM emp GROUP BY emp.dept ORDER BY emp.dept";

#[test]
fn sessions_under_ddl_chaos_reconcile_exactly() {
    let workers = worker_count();
    let iters = 80usize;

    let db = Arc::new(Database::in_memory(diff_catalog()));
    db.generate(29);
    let emp = db.catalog().table_by_name("emp").unwrap().id;
    // Tickets below the worker count so traffic really gets degraded
    // admissions under load.
    let server = Server::over(
        db.clone(),
        ServerConfig {
            max_concurrent: 2.min(workers),
        },
    );

    // The oracle for the never-mutated table, computed single-threaded:
    // uncontended, it holds a ticket and runs the full search.
    let static_rows: Vec<Tuple> = {
        let s = server.session(TrafficClass::Interactive);
        let out = s.query(STATIC_SQL).expect("static oracle");
        assert!(!out.degraded, "the oracle ran uncontended");
        out.rows()
    };
    let epoch_start = db.epoch();
    let mut base_admissions = 1u64; // the oracle query above

    // Warm one shape so hit/invalidated paths are exercised from the
    // first concurrent iteration.
    {
        let mut s = server.session(TrafficClass::Interactive);
        s.prepare("warm", EMP_SQL).unwrap();
        assert!(!s.execute("warm", &[Value::Int(40)]).unwrap().degraded);
        base_admissions += 1;
    }
    let base_successes = base_admissions;

    let region_dropped = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));

    let (ledgers, chaos_events) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let mut session = server.session(TrafficClass::Interactive);
            let db = db.clone();
            let region_dropped = region_dropped.clone();
            let static_rows = static_rows.clone();
            handles.push(scope.spawn(move || {
                let mut ledger = WorkerLedger::default();
                session.prepare("emp", EMP_SQL).unwrap();
                session.prepare("static", STATIC_SQL).unwrap();
                session.prepare("region", REGION_SQL).unwrap();
                let run =
                    |session: &Session, name: &str, params: &[Value], ledger: &mut WorkerLedger| {
                        ledger.admissions += 1;
                        match session.execute(name, params) {
                            Ok(out) => {
                                ledger.successes += 1;
                                Some(out)
                            }
                            Err(SessionError::Prepare(PrepareError::Lower(_))) => {
                                // Only the dropped table may fail, and only
                                // once the chaos thread started dropping it.
                                assert!(
                                    region_dropped.load(Ordering::Acquire),
                                    "lowering failed before any drop happened"
                                );
                                None
                            }
                            Err(e) => panic!("worker {w}: unexpected error: {e}"),
                        }
                    };
                for i in 0..iters {
                    match i % 8 {
                        // Statements over the growing table: parameters
                        // vary so rebinding is exercised.
                        0..=2 => {
                            run(&session, "emp", &[Value::Int((i % 90) as i64)], &mut ledger);
                        }
                        // The static table: rows must be identical on
                        // every execution, concurrent DDL or not.
                        3 => {
                            if let Some(out) = run(&session, "static", &[], &mut ledger) {
                                assert_eq!(
                                    out.rows(),
                                    static_rows,
                                    "worker {w}: static query diverged mid-chaos"
                                );
                            }
                        }
                        // The sacrificial table (dropped mid-run).
                        4 => {
                            run(&session, "region", &[], &mut ledger);
                        }
                        // Re-PREPARE over the same name, then one-shot
                        // queries (anonymous prepare + execute).
                        5 => {
                            session.prepare("emp", EMP_SQL).unwrap();
                            ledger.admissions += 1;
                            match session.query(if i % 2 == 0 { AGG_SQL } else { DEPT_SQL }) {
                                Ok(_) => ledger.successes += 1,
                                Err(SessionError::Prepare(PrepareError::Lower(_))) => {
                                    assert!(region_dropped.load(Ordering::Acquire));
                                }
                                Err(e) => panic!("worker {w}: unexpected error: {e}"),
                            }
                        }
                        // Grow emp: each insert bumps the epoch once.
                        6 => {
                            for k in 0..3 {
                                db.insert(
                                    emp,
                                    vec![
                                        Value::Int(1_000_000 + (w * iters + i * 3 + k) as i64),
                                        Value::Int((i % 20) as i64),
                                        Value::Int((i % 100) as i64),
                                    ],
                                );
                                ledger.inserts += 1;
                            }
                        }
                        // Refresh statistics from a worker, too (tallied
                        // below as `worker_refreshes`).
                        _ => {
                            db.refresh_stats();
                            ledger.admissions += 1;
                            match session.execute("emp", &[Value::Int(50)]) {
                                Ok(_) => ledger.successes += 1,
                                Err(SessionError::Prepare(PrepareError::Lower(_))) => {
                                    assert!(region_dropped.load(Ordering::Acquire));
                                }
                                Err(e) => panic!("worker {w}: unexpected error: {e}"),
                            }
                        }
                    }
                }
                ledger
            }));
        }

        // DDL chaos: explicit epoch bumps, stats refreshes, and one
        // mid-run DROP TABLE. Event counts are fixed so the final
        // epoch arithmetic is exact.
        let chaos = {
            let db = db.clone();
            let region_dropped = region_dropped.clone();
            let done = done.clone();
            scope.spawn(move || {
                let mut bumps = 0u64;
                let mut refreshes = 0u64;
                for round in 0..40 {
                    if done.load(Ordering::Acquire) && round >= 10 {
                        break;
                    }
                    db.bump_epoch();
                    bumps += 1;
                    if round % 5 == 4 {
                        db.refresh_stats();
                        refreshes += 1;
                    }
                    if round == 8 {
                        // Announce first: a worker observing the failure
                        // must find the flag already set.
                        region_dropped.store(true, Ordering::Release);
                        assert!(db.drop_table("region"), "region existed");
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                (bumps, refreshes)
            })
        };

        let ledgers: Vec<WorkerLedger> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        done.store(true, Ordering::Release);
        (ledgers, chaos.join().unwrap())
    });

    let (chaos_bumps, chaos_refreshes) = chaos_events;
    let total_admissions: u64 = base_admissions + ledgers.iter().map(|l| l.admissions).sum::<u64>();
    let total_successes: u64 = base_successes + ledgers.iter().map(|l| l.successes).sum::<u64>();
    let total_inserts: u64 = ledgers.iter().map(|l| l.inserts).sum();
    // Workers refresh stats on every `i % 8 == 7` iteration.
    let worker_refreshes = (workers * (iters / 8)) as u64;

    // (1) Plan-cache counters reconcile exactly: every success probed
    // the cache exactly once; nothing else did.
    let s = db.plan_cache().stats();
    assert_eq!(
        s.lookups,
        s.hits + s.misses + s.invalidations,
        "cache counters do not reconcile"
    );
    assert_eq!(
        s.lookups, total_successes,
        "lookups diverged from successful executions"
    );

    // (2) No lost epoch bumps: inserts + refreshes + explicit bumps +
    // the drop, each exactly once. Feedback is off in this suite, so
    // its epoch-bump term must be exactly zero.
    assert_eq!(db.feedback_stats().epoch_bumps, 0, "feedback is off");
    let expected_epoch =
        epoch_start + total_inserts + worker_refreshes + chaos_refreshes + chaos_bumps + 1; // the drop
    assert_eq!(
        db.epoch(),
        expected_epoch,
        "epoch bumps were lost or double-counted"
    );

    // (3) Admission ledger: every request was admitted exactly once,
    // full or degraded.
    let a = server.admission().stats();
    assert_eq!(
        a.admitted_full + a.admitted_degraded,
        total_admissions,
        "admissions do not reconcile"
    );
    assert_eq!(a.in_flight, 0, "tickets leaked");
    assert!(
        a.peak_in_flight <= 2.min(workers),
        "ticket cap exceeded: {}",
        a.peak_in_flight
    );
    // With more workers than tickets, traffic must actually have been
    // degraded at least once.
    if workers >= 4 {
        assert!(
            a.admitted_degraded > 0,
            "no degradation despite {workers} workers on {} tickets",
            2.min(workers)
        );
    }

    // (4) The dropped table is gone; survivors still answer.
    let survivor = server.session(TrafficClass::Interactive);
    assert!(matches!(
        survivor.query(REGION_SQL),
        Err(SessionError::Prepare(PrepareError::Lower(_)))
    ));
    assert_eq!(survivor.query(STATIC_SQL).unwrap().rows(), static_rows);
}

/// Adaptive feedback under chaos: every worker session runs with
/// `SET FEEDBACK ON` (on a rotating engine) while a chaos thread bumps
/// epochs and refreshes statistics, racing the feedback merges on the
/// same copy-on-write catalog. The ledgers must still reconcile
/// *exactly*:
///
/// * the epoch advances by exactly one per insert, refresh, explicit
///   bump, and material feedback merge — the database's own
///   `epoch_bumps` counter closes the arithmetic, so a torn or lost
///   feedback write shows up as an off-by-n here;
/// * plan-cache counters reconcile (`lookups == successes`,
///   `hits + misses + invalidations == lookups`), and live entries
///   equal `insertions - evictions` — feedback-driven invalidations
///   never leak entries;
/// * every selectivity-memory cell is a valid merge result: selectivity
///   finite in (0, 1], observation count ≥ 1.
#[test]
fn feedback_under_chaos_reconciles_exactly() {
    use volcano_exec::{BatchConfig, Engine};

    let workers = worker_count();
    let iters = 60usize;

    let db = Arc::new(Database::in_memory(diff_catalog()));
    db.generate(31);
    let emp = db.catalog().table_by_name("emp").unwrap().id;
    let server = Server::over(
        db.clone(),
        ServerConfig {
            max_concurrent: 2.min(workers),
        },
    );
    let epoch_start = db.epoch();
    let done = Arc::new(AtomicBool::new(false));

    let (ledgers, chaos_events) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for w in 0..workers {
            let mut session = server.session(TrafficClass::Interactive);
            session.set_executor(match w % 2 {
                0 => Engine::Tuple,
                _ => Engine::Fused(BatchConfig::default()),
            });
            session.set_feedback(true);
            let db = db.clone();
            handles.push(scope.spawn(move || {
                let mut ledger = WorkerLedger::default();
                session.prepare("emp", EMP_SQL).unwrap();
                for i in 0..iters {
                    match i % 6 {
                        // Executions with varying parameters: every one
                        // harvests observations into the shared memory.
                        0..=3 => {
                            ledger.admissions += 1;
                            session
                                .execute("emp", &[Value::Int((i % 90) as i64)])
                                .unwrap_or_else(|e| panic!("worker {w}: {e}"));
                            ledger.successes += 1;
                        }
                        // Join one-shots exercise join-key observations.
                        4 => {
                            ledger.admissions += 1;
                            session
                                .query(DEPT_SQL)
                                .unwrap_or_else(|e| panic!("worker {w}: {e}"));
                            ledger.successes += 1;
                        }
                        // Grow emp: races the feedback snapshot swaps.
                        _ => {
                            db.insert(
                                emp,
                                vec![
                                    Value::Int(2_000_000 + (w * iters + i) as i64),
                                    Value::Int((i % 20) as i64),
                                    Value::Int((i % 100) as i64),
                                ],
                            );
                            ledger.inserts += 1;
                        }
                    }
                }
                ledger
            }));
        }

        let chaos = {
            let db = db.clone();
            let done = done.clone();
            scope.spawn(move || {
                let mut bumps = 0u64;
                let mut refreshes = 0u64;
                for round in 0..40 {
                    if done.load(Ordering::Acquire) && round >= 10 {
                        break;
                    }
                    db.bump_epoch();
                    bumps += 1;
                    if round % 4 == 3 {
                        db.refresh_stats();
                        refreshes += 1;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                (bumps, refreshes)
            })
        };

        let ledgers: Vec<WorkerLedger> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        done.store(true, Ordering::Release);
        (ledgers, chaos.join().unwrap())
    });

    let (chaos_bumps, chaos_refreshes) = chaos_events;
    let total_admissions: u64 = ledgers.iter().map(|l| l.admissions).sum();
    let total_successes: u64 = ledgers.iter().map(|l| l.successes).sum();
    let total_inserts: u64 = ledgers.iter().map(|l| l.inserts).sum();

    // (1) Cache counters reconcile; feedback-driven invalidations do
    // not leak entries.
    let s = db.plan_cache().stats();
    assert_eq!(s.lookups, s.hits + s.misses + s.invalidations);
    assert_eq!(s.lookups, total_successes);
    assert_eq!(
        db.plan_cache().len() as u64,
        s.insertions - s.evictions,
        "evicted entries leaked"
    );

    // (2) Exact epoch arithmetic, feedback bumps included: the
    // database's own counter must close the ledger to the bump.
    let fb = db.feedback_stats();
    let expected_epoch =
        epoch_start + total_inserts + chaos_refreshes + chaos_bumps + fb.epoch_bumps;
    assert_eq!(
        db.epoch(),
        expected_epoch,
        "epoch bumps were lost or double-counted (feedback bumps: {})",
        fb.epoch_bumps
    );

    // (3) Feedback really ran, and no merge was torn: every cell is a
    // valid smoothed selectivity.
    assert!(fb.applications > 0, "no feedback was applied");
    assert!(fb.applications <= total_successes);
    assert!(fb.observations >= fb.applications);
    let snap = db.snapshot();
    let memory = snap.catalog().feedback();
    assert_eq!(memory.len() as u64, fb.cells);
    assert!(fb.cells > 0, "memory stayed empty");
    for (key, cell) in memory.iter() {
        assert!(
            cell.sel.is_finite() && cell.sel > 0.0 && cell.sel <= 1.0,
            "torn selectivity cell {key:?}: {cell:?}"
        );
        assert!(cell.n >= 1, "cell {key:?} merged zero observations");
    }

    // (4) Admission ledger still closes.
    let a = server.admission().stats();
    assert_eq!(a.admitted_full + a.admitted_degraded, total_admissions);
    assert_eq!(a.in_flight, 0, "tickets leaked");
}

const JOIN3_SQL: &str = "SELECT emp.id FROM emp, dept, region \
     WHERE emp.dept = dept.id AND dept.region = region.id AND emp.salary < 50";

/// An admission with no ticket free optimizes greedily: the
/// outcome says so, nothing enters the plan cache, and the rows are the
/// logical-algebra oracle's. The next full-quality execution of the same
/// statement misses again and caches its plan.
#[test]
fn degraded_admission_is_never_cached_and_returns_the_oracle_rows() {
    let db = Arc::new(Database::in_memory(diff_catalog()));
    db.generate(29);
    let server = Server::over(db.clone(), ServerConfig { max_concurrent: 1 });
    let mut session = server.session(TrafficClass::Interactive);
    session.prepare("q", JOIN3_SQL).unwrap();

    let held = server.admission().admit();
    assert!(!held.degraded());
    let degraded = session.execute("q", &[]).unwrap();
    drop(held);
    assert!(degraded.degraded);
    assert_eq!(degraded.outcome.cache, "miss");
    assert_eq!(db.plan_cache().stats().insertions, 0);
    assert_eq!(db.plan_cache().len(), 0);

    let mut catalog = (*db.catalog()).clone();
    let q = volcano_sql::plan_query(JOIN3_SQL, &mut catalog).unwrap();
    let oracle = volcano_exec::evaluate_logical(&db, &q.expr);
    assert_eq!(oracle.schema.len(), 1);
    assert!(!oracle.rows.is_empty(), "vacuous query");
    volcano_exec::assert_same_rows(degraded.outcome.rows, oracle.rows.clone());

    let full = session.execute("q", &[]).unwrap();
    assert!(!full.degraded);
    assert_eq!(full.outcome.cache, "miss");
    assert_eq!(db.plan_cache().stats().insertions, 1);
    volcano_exec::assert_same_rows(full.outcome.rows, oracle.rows);
}
