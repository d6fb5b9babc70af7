//! Adaptive-feedback convergence benchmark.
//!
//! Measures the two numbers that justify feedback-driven
//! re-optimization: how many executions a repeatedly-wrong cached plan
//! needs before the drift guard re-optimizes it onto the oracle plan,
//! and how much faster the converged plan actually runs.
//!
//! The workload is the canonical estimate-killer: an equality predicate
//! on a Zipf-distributed column whose catalog statistics claim
//! uniformity. The static estimate prices the predicate at well under
//! 1% selectivity when the hot key really passes the majority of the
//! table, so the first plan is built for a tiny join input (nested
//! loops / wrong build side / early sort). With feedback ON, executing
//! the plan merges the observed selectivity into the catalog's memory,
//! bumps the stats epoch, and the next cache probe trips the drift
//! guard and re-optimizes under observed statistics.
//!
//! The oracle plan is computed by *forced-stats* optimization (a fresh
//! database whose memory is primed with the true selectivity), and both
//! measurements are verified: wrong and converged executions must
//! return identical row multisets.
//!
//! Usage:
//!   feedback [--rows N] [--reps R] [--smoke] [--json PATH] [--no-json]
//!
//! `--smoke` shrinks the table and repetitions and marks the export
//! `"smoke":true`, which exempts it from `check_schema`'s gates
//! (convergence within 5 executions, ≥ 2× improvement) — debug-build
//! CI runs are not representative of the latency ratio.

use std::time::Instant;

use volcano_exec::{BatchConfig, Database, Engine, ExecOptions};
use volcano_rel::value::Tuple;
use volcano_rel::{explain_plan, Catalog, Cmp, CmpOp, ColumnDef, Observation, RelPlan, Value};

struct Args {
    rows: usize,
    reps: usize,
    smoke: bool,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        rows: 40_000,
        reps: 30,
        smoke: false,
        json: Some("BENCH_feedback.json".to_string()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rows" => args.rows = it.next().expect("--rows N").parse().expect("number"),
            "--reps" => args.reps = it.next().expect("--reps R").parse().expect("number"),
            "--smoke" => {
                args.smoke = true;
                args.rows = 4_000;
                args.reps = 3;
            }
            "--json" => args.json = Some(it.next().expect("--json PATH")),
            "--no-json" => args.json = None,
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

/// Deterministic LCG (no rand dependency).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn unit(&mut self) -> f64 {
        (self.next() % (1 << 24)) as f64 / (1 << 24) as f64
    }
}

/// Zipf(s) keys over `0..n_keys` via inverse-CDF sampling.
fn zipf_keys(n: usize, n_keys: usize, s: f64, seed: u64) -> Vec<i64> {
    let mut mass = 0.0;
    let cdf: Vec<f64> = (1..=n_keys)
        .map(|rank| {
            mass += 1.0 / (rank as f64).powf(s);
            mass
        })
        .collect();
    let total = *cdf.last().unwrap();
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| {
            let u = rng.unit() * total;
            cdf.partition_point(|&c| c < u) as i64
        })
        .collect()
}

/// The parameterized probe: skewed equality feeding a join, with a sort
/// goal so misestimated cardinalities hurt twice (join sizing and sort
/// placement).
const SQL: &str = "SELECT emp.id FROM emp, dept \
                   WHERE emp.dept = dept.id AND emp.status = $0 \
                   ORDER BY emp.id";

/// Statistics claim `status` is unique (distinct = cardinality — say,
/// collected back when it really was a key), so the equality estimates
/// a single row and the optimizer picks nested loops with `dept` as
/// the rescanned inner. The data draws it Zipf(2.0) over 1000 values:
/// the hot key really passes ~60% of the table, and every one of those
/// rows rescans the inner — the catastrophic wrong plan that feedback
/// exists to fix.
fn build_catalog(rows: usize) -> Catalog {
    let rows_f = rows as f64;
    let mut c = Catalog::new();
    c.add_table(
        "emp",
        rows_f,
        vec![
            ColumnDef::int("id", rows_f),
            ColumnDef::int("status", rows_f),
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

/// A populated database plus the true hot-key selectivity.
fn populated_db(rows: usize) -> (Database, f64) {
    let catalog = build_catalog(rows);
    let emp = catalog.table_by_name("emp").unwrap().id;
    let dept = catalog.table_by_name("dept").unwrap().id;
    let db = Database::in_memory(catalog);
    let status = zipf_keys(rows, 1000, 2.0, 42);
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
    (db, hot as f64 / rows as f64)
}

fn explain(db: &Database, plan: &RelPlan) -> String {
    explain_plan(db.snapshot().catalog(), plan)
}

/// The oracle plan by forced-stats optimization.
fn oracle_explain(rows: usize, engine: Engine, true_sel: f64) -> String {
    let (db, _) = populated_db(rows);
    let status = db.catalog().table_by_name("emp").unwrap().columns[1].attr;
    let key = volcano_rel::term_key(&Cmp::with_param(status, CmpOp::Eq, 0i64, 0));
    db.apply_feedback(&[Observation {
        key,
        observed: true_sel,
        estimated: 1.0 / rows as f64,
    }]);
    let stmt = db.prepare(SQL).expect("oracle prepare");
    let out = db
        .execute_prepared_opts(
            &stmt,
            &[Value::Int(0)],
            &ExecOptions::new().with_executor(engine),
            None,
        )
        .expect("oracle execution");
    explain(&db, &out.plan)
}

fn sorted_copy(rows: &[Tuple]) -> Vec<Tuple> {
    let mut s = rows.to_vec();
    s.sort();
    s
}

struct EngineResult {
    engine: &'static str,
    executions_to_converge: usize,
    wrong_ms: f64,
    converged_ms: f64,
    improvement: f64,
}

fn run_engine(rows: usize, reps: usize, engine: Engine) -> EngineResult {
    let (db, true_sel) = populated_db(rows);
    let oracle = oracle_explain(rows, engine, true_sel);
    let opts = ExecOptions::new().with_executor(engine);
    let params = [Value::Int(0)];

    // Phase 1: wrong-plan latency, feedback OFF — the cached plan never
    // moves, so every repetition runs the misestimated plan.
    let stmt = db.prepare(SQL).expect("prepare");
    let wrong_out = db
        .execute_prepared_opts(&stmt, &params, &opts, None)
        .expect("wrong-plan execution");
    let wrong_explain = explain(&db, &wrong_out.plan);
    assert_ne!(
        wrong_explain,
        oracle,
        "{}: the misestimate failed to produce a wrong plan",
        engine.label()
    );
    if std::env::var("FEEDBACK_BENCH_VERBOSE").is_ok() {
        eprintln!(
            "== {} wrong ==\n{wrong_explain}== oracle ==\n{oracle}",
            engine.label()
        );
    }
    let expected = sorted_copy(&wrong_out.rows);
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(
            db.execute_prepared_opts(&stmt, &params, &opts, None)
                .expect("wrong-plan rep"),
        );
    }
    let wrong_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;

    // Phase 2: turn feedback on and count executions until the served
    // plan equals the oracle (the wrong plan is already cached, as in a
    // live system that has been serving it).
    db.set_feedback_enabled(true);
    let mut executions = 0usize;
    loop {
        executions += 1;
        let out = db
            .execute_prepared_opts(&stmt, &params, &opts, None)
            .expect("convergence execution");
        assert_eq!(
            sorted_copy(&out.rows),
            expected,
            "{}: plan change altered results",
            engine.label()
        );
        if explain(&db, &out.plan) == oracle {
            break;
        }
        assert!(
            executions < 25,
            "{}: no convergence after {executions} executions",
            engine.label()
        );
    }

    // Phase 3: converged-plan latency (feedback still on — steady
    // state; observations now agree with memory, so no further bumps).
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(
            db.execute_prepared_opts(&stmt, &params, &opts, None)
                .expect("converged rep"),
        );
    }
    let converged_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;

    EngineResult {
        engine: engine.label(),
        executions_to_converge: executions,
        wrong_ms,
        converged_ms,
        improvement: wrong_ms / converged_ms.max(1e-9),
    }
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    println!("adaptive-feedback convergence benchmark");
    println!(
        "emp rows {}, {} reps per mode{}\n",
        args.rows,
        args.reps,
        if args.smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<8} {:>12} {:>12} {:>14} {:>12}",
        "engine", "converge", "wrong ms", "converged ms", "improvement"
    );

    let engines = [Engine::Tuple, Engine::Fused(BatchConfig::default())];
    let mut results = Vec::new();
    for engine in engines {
        let r = run_engine(args.rows, args.reps, engine);
        println!(
            "{:<8} {:>12} {:>12.3} {:>14.3} {:>11.2}x",
            r.engine, r.executions_to_converge, r.wrong_ms, r.converged_ms, r.improvement
        );
        results.push(r);
    }

    let max_converge = results
        .iter()
        .map(|r| r.executions_to_converge)
        .max()
        .unwrap();
    let g = geomean(&results.iter().map(|r| r.improvement).collect::<Vec<_>>());
    println!("\nmax executions to converge: {max_converge}");
    println!("geomean improvement: {g:.2}x");

    if let Some(path) = &args.json {
        let engines_json = results
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "{{\"engine\":\"{}\",\"executions_to_converge\":{},",
                        "\"wrong_ms\":{},\"converged_ms\":{},\"improvement_ratio\":{}}}"
                    ),
                    r.engine, r.executions_to_converge, r.wrong_ms, r.converged_ms, r.improvement
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let json = format!(
            concat!(
                "{{\"benchmark\":\"feedback\",\"rows\":{},\"reps\":{},",
                "\"smoke\":{},\"engines\":[{}],",
                "\"max_executions_to_converge\":{},\"geomean_improvement\":{}}}\n"
            ),
            args.rows, args.reps, args.smoke, engines_json, max_converge, g
        );
        std::fs::write(path, json).expect("write json");
        println!("JSON written to {path}");
    }
    println!(
        "total harness time: {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
