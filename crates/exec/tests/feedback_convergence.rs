//! Convergence suite for feedback-driven adaptive re-optimization.
//!
//! The scenario the optimizer paper's static cost model cannot win: a
//! Zipf-skewed `status` column whose catalog statistics claim 100
//! evenly-likely values. The equality predicate on the hot key is
//! estimated at 1% selectivity but actually passes the majority of the
//! table, so the first optimization caches a plan built for a tiny join
//! input. With `SET FEEDBACK ON`, executing that plan harvests the
//! *actual* per-term selectivity into the catalog's memory, bumps the
//! stats epoch (the merge is material), and the next cache probe
//! re-costs the entry under observed statistics — the drift guard trips,
//! the entry is evicted, and re-optimization under the memory-aware
//! model lands on the oracle plan.
//!
//! The oracle is computed by *forced-stats* optimization: a fresh
//! database whose selectivity memory is primed directly with the true
//! hot-key fraction, so its very first plan is what a clairvoyant
//! optimizer would pick. Convergence must happen within K = 5
//! executions on both engines (tuple, vectorized), results must stay
//! the same multiset throughout, and with feedback OFF the plan must
//! never move — the ablation that pins "feedback off reproduces today's
//! behaviour bit-identically" at the executor level.

mod common;

use std::sync::Mutex;

use common::testkit::{
    assert_same_multiset, converges_within, optimize_plan, sorted_copy, zipf_keys,
};
use volcano_core::trace::{TraceEvent, Tracer};
use volcano_core::PhysicalProps;
use volcano_exec::{execute_analyzed, BatchConfig, Database, Engine, ExecOptions};
use volcano_rel::value::Tuple;
use volcano_rel::{
    explain_plan, Catalog, Cmp, CmpOp, ColumnDef, Observation, RelModel, RelPlan, RelProps, Value,
};

/// The convergence bar: the oracle plan must be reached within this
/// many executions of the prepared statement.
const K: usize = 5;

/// Rows in `emp`; matches the catalog's claimed cardinality so the
/// predicate selectivity is the only statistic the estimates get wrong.
const EMP_ROWS: usize = 2000;

/// The parameterized probe query: an equality on the skewed column
/// feeding a join. The `$0` slot is what the selectivity memory keys
/// on, so observations generalize across bound values.
const SQL: &str = "SELECT emp.id FROM emp, dept \
                   WHERE emp.dept = dept.id AND emp.status = $0 \
                   ORDER BY emp.id";

/// Statistics claim uniform: `status` spreads over 100 distinct values,
/// `dept` is a 1000-row dimension table.
fn feedback_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        "emp",
        EMP_ROWS as f64,
        vec![
            ColumnDef::int("id", EMP_ROWS as f64),
            ColumnDef::int("status", 100.0),
            ColumnDef::int("dept", 20.0),
        ],
    );
    c.add_table(
        "dept",
        1000.0,
        vec![ColumnDef::int("id", 1000.0), ColumnDef::int("region", 4.0)],
    );
    c
}

/// A populated database plus the *true* selectivity of `status = 0`:
/// `status` is drawn Zipf(2.0) over 100 keys, so the hot key absorbs
/// ~60% of the rows where the catalog claims 1%.
fn populated_db() -> (Database, f64) {
    let catalog = feedback_catalog();
    let emp = catalog.table_by_name("emp").unwrap().id;
    let dept = catalog.table_by_name("dept").unwrap().id;
    let db = Database::in_memory(catalog);
    let status = zipf_keys(EMP_ROWS, 100, 2.0, 42);
    let hot = status.iter().filter(|&&s| s == 0).count();
    for (i, &s) in status.iter().enumerate() {
        db.insert(
            emp,
            vec![
                Value::Int(i as i64),
                Value::Int(s),
                Value::Int((i % 20) as i64),
            ],
        );
    }
    for i in 0..1000i64 {
        db.insert(dept, vec![Value::Int(i), Value::Int(i % 4)]);
    }
    let sel = hot as f64 / EMP_ROWS as f64;
    assert!(sel > 0.5, "Zipf(2.0) hot key must dominate, got {sel}");
    (db, sel)
}

fn engines() -> [Engine; 2] {
    [Engine::Tuple, Engine::Fused(BatchConfig::default())]
}

fn explain(db: &Database, plan: &RelPlan) -> String {
    explain_plan(db.snapshot().catalog(), plan)
}

/// The oracle plan for `SQL` bound to the hot key, by forced-stats
/// optimization: prime a fresh database's selectivity memory with the
/// true hot-key fraction and take the first plan it produces.
fn oracle_explain(engine: Engine, true_sel: f64) -> String {
    let (db, _) = populated_db();
    let catalog = db.snapshot().catalog().clone();
    let status = catalog.table_by_name("emp").unwrap().columns[1].attr;
    let key = volcano_rel::term_key(&Cmp::with_param(status, CmpOp::Eq, 0i64, 0));
    db.apply_feedback(&[Observation {
        key,
        observed: true_sel,
        estimated: 0.01,
    }]);
    let stmt = db.prepare(SQL).unwrap();
    let opts = ExecOptions::new().with_executor(engine);
    let out = db
        .execute_prepared_opts(&stmt, &[Value::Int(0)], &opts, None)
        .unwrap();
    explain(&db, &out.plan)
}

/// Collects [`TraceEvent::FeedbackApplied`] payloads and plan-cache
/// lookup outcomes.
#[derive(Default)]
struct FeedbackTracer {
    applied: Mutex<Vec<(u64, bool)>>,
    lookups: Mutex<Vec<&'static str>>,
}

impl Tracer for FeedbackTracer {
    fn event(&self, e: TraceEvent) {
        match e {
            TraceEvent::FeedbackApplied {
                observations,
                epoch_bumped,
            } => self
                .applied
                .lock()
                .unwrap()
                .push((observations, epoch_bumped)),
            TraceEvent::PlanCacheLookup { outcome, .. } => {
                self.lookups.lock().unwrap().push(outcome)
            }
            _ => {}
        }
    }

    fn enabled(&self) -> bool {
        true
    }
}

/// The harness: execute the prepared statement under `engine` with
/// feedback on, asserting (1) the first plan differs from the oracle,
/// (2) the oracle plan is reached within K executions, (3) the row
/// multiset never changes, (4) the trace shows feedback being applied
/// and the cache being invalidated (not silently re-missed).
fn assert_converges(engine: Engine) {
    let (db, true_sel) = populated_db();
    let oracle = oracle_explain(engine, true_sel);
    let stmt = db.prepare(SQL).unwrap();
    let opts = ExecOptions::new().with_executor(engine).with_feedback(true);
    let tracer = FeedbackTracer::default();
    let tag = format!("engine {}", engine.label());

    let first = db
        .execute_prepared_opts(&stmt, &[Value::Int(0)], &opts, Some(&tracer))
        .unwrap();
    let wrong = explain(&db, &first.plan);
    assert_ne!(
        wrong, oracle,
        "{tag}: static estimates must pick a different plan than the oracle \
         or this suite tests nothing"
    );
    let expected: Vec<Tuple> = sorted_copy(&first.rows);
    assert!(!expected.is_empty(), "{tag}: hot key must produce rows");

    let converged = converges_within(K, |i| {
        let out = db
            .execute_prepared_opts(&stmt, &[Value::Int(0)], &opts, Some(&tracer))
            .unwrap();
        assert_same_multiset(&expected, &out.rows, &format!("{tag} execution {i}"));
        explain(&db, &out.plan) == oracle
    });
    assert!(
        converged.is_some(),
        "{tag}: did not converge to the oracle plan within {K} executions;\n\
         wrong plan:\n{wrong}\noracle plan:\n{oracle}"
    );

    let applied = tracer.applied.lock().unwrap();
    assert!(
        applied.iter().all(|&(n, _)| n > 0),
        "{tag}: every feedback application must carry observations: {applied:?}"
    );
    assert!(
        applied.iter().any(|&(_, bumped)| bumped),
        "{tag}: a material merge must bump the epoch: {applied:?}"
    );
    let lookups = tracer.lookups.lock().unwrap();
    assert!(
        lookups.contains(&"invalidated"),
        "{tag}: convergence must go through drift invalidation, got {lookups:?}"
    );
    let stats = db.feedback_stats();
    assert!(stats.cells > 0 && stats.epoch_bumps > 0);
}

#[test]
fn tuple_engine_converges_to_the_oracle_plan() {
    assert_converges(Engine::Tuple);
}

#[test]
fn fused_engine_converges_to_the_oracle_plan() {
    assert_converges(Engine::Fused(BatchConfig::default()));
}

/// Ablation: with feedback OFF (the default), the same workload never
/// moves the plan, never touches the selectivity memory, and never
/// bumps the epoch — executor-level proof that feedback off reproduces
/// the static optimizer's behaviour bit-identically. (The estimator
/// identity itself — empty memory ≡ static formulas to the bit — is
/// pinned by the property suite in `volcano-rel`.)
#[test]
fn feedback_off_never_moves_the_plan() {
    for engine in engines() {
        let (db, _) = populated_db();
        let stmt = db.prepare(SQL).unwrap();
        let opts = ExecOptions::new().with_executor(engine);
        let epoch = db.epoch();
        let first = db
            .execute_prepared_opts(&stmt, &[Value::Int(0)], &opts, None)
            .unwrap();
        let baseline = explain(&db, &first.plan);
        for i in 0..K {
            let out = db
                .execute_prepared_opts(&stmt, &[Value::Int(0)], &opts, None)
                .unwrap();
            assert_eq!(out.cache, "hit", "engine {} exec {i}", engine.label());
            assert_eq!(
                explain(&db, &out.plan),
                baseline,
                "engine {} exec {i}: plan moved with feedback off",
                engine.label()
            );
        }
        assert_eq!(db.epoch(), epoch, "feedback off must not bump the epoch");
        let stats = db.feedback_stats();
        assert_eq!(
            (stats.observations, stats.applications, stats.cells),
            (0, 0, 0),
            "feedback off must leave the memory untouched"
        );
    }
}

/// The first feedback-ON execution plans under an *empty* memory, so
/// its plan is identical to the feedback-OFF plan — turning the switch
/// on changes nothing until an observation has actually been merged.
#[test]
fn first_feedback_execution_plans_like_feedback_off() {
    for engine in engines() {
        let (db_off, _) = populated_db();
        let (db_on, _) = populated_db();
        let opts = ExecOptions::new().with_executor(engine);
        let off = db_off
            .execute_prepared_opts(&db_off.prepare(SQL).unwrap(), &[Value::Int(0)], &opts, None)
            .unwrap();
        let opts = opts.with_feedback(true);
        let on = db_on
            .execute_prepared_opts(&db_on.prepare(SQL).unwrap(), &[Value::Int(0)], &opts, None)
            .unwrap();
        assert_eq!(
            explain(&db_off, &off.plan),
            explain(&db_on, &on.plan),
            "engine {}: empty memory must plan bit-identically",
            engine.label()
        );
        assert_same_multiset(&off.rows, &on.rows, engine.label());
    }
}

/// Both engines learn the same: for one plan, the observations the
/// harvest reads off a vectorized run equal those of a tuple run — for
/// this suite's statement, and for a 3-way star join whose two join
/// pairs run as two probes of one pipeline.
#[test]
fn both_engines_harvest_the_same_observations() {
    let learn = |db: &Database, plan: &RelPlan| {
        let catalog = db.catalog();
        engines().map(|engine| {
            let nodes = execute_analyzed(db, &catalog, plan, engine).actual_rows();
            volcano_rel::observations(&catalog, plan, &nodes)
        })
    };
    let (db, _) = populated_db();
    let stmt = db.prepare(SQL).unwrap();
    let out = db
        .execute_prepared_opts(&stmt, &[Value::Int(0)], &ExecOptions::new(), None)
        .unwrap();
    let [tuple, fused] = learn(&db, &out.plan);
    assert_eq!(tuple.len(), 2, "the status term and the join pair");
    assert_eq!(tuple, fused);

    let mut star = Catalog::new();
    let int = ColumnDef::int;
    let fact = vec![int("a", 50.0), int("b", 40.0), int("v", 100.0)];
    star.add_table("fact", 5000.0, fact);
    star.add_table("dim1", 50.0, vec![int("id", 50.0), int("x", 5.0)]);
    star.add_table("dim2", 40.0, vec![int("id", 40.0), int("y", 4.0)]);
    let db = Database::in_memory(star.clone());
    db.generate(5);
    let sql = "SELECT dim1.x, dim2.y FROM fact, dim1, dim2 \
               WHERE fact.a = dim1.id AND fact.b = dim2.id AND fact.v < 10";
    let q = volcano_sql::plan_query(sql, &mut star).unwrap();
    let plan = optimize_plan(
        &RelModel::with_defaults(star),
        &q.expr,
        RelProps::any(),
        sql,
    );
    let [tuple, fused] = learn(&db, &plan);
    assert_eq!(tuple.len(), 3, "the scan term and both join pairs");
    assert_eq!(tuple, fused);
}
