//! Cold-vs-warm plan cache benchmark.
//!
//! Measures end-to-end prepared-statement serving latency with the plan
//! cache disabled (every execution pays parse-free lowering plus a full
//! memo search) against warm-cache serving (lowering plus parameter
//! re-binding of the cached template — `find_best_plan` is never
//! called). The delta is the optimization work the cache removes from
//! the serving path. Workloads fall in two classes:
//!
//! * **headline** — wide join shapes (5 and 7 tables), where
//!   join-order search dominates serving cost. Their speedups form the
//!   headline geometric mean, which CI gates at ≥ 5.0× on full runs
//!   (see `check_schema`).
//! * **short** — shapes of up to three tables whose optimization is
//!   already cheap; the cache can only win small there. Reported
//!   separately and excluded from the headline geomean: they measure
//!   the serving path's fixed overhead, not the cached search.
//!
//! Every workload is verified each run: warm and cold executions must
//! return identical row multisets, and the warm path must report a
//! cache hit with no search statistics.
//!
//! Usage:
//!   plan_cache [--card N] [--reps R] [--smoke] [--json PATH] [--no-json]
//!
//! `--smoke` shrinks cardinalities and repetitions and marks the export
//! `"smoke":true`, which exempts it from `check_schema`'s ≥ 5× geomean
//! gate (debug-build CI runs are not representative).

use std::time::Instant;

use volcano_exec::{Database, ExecOptions};
use volcano_rel::value::Tuple;
use volcano_rel::{Catalog, ColumnDef, Value};

struct Args {
    card: usize,
    reps: usize,
    smoke: bool,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        card: 1_000,
        reps: 50,
        smoke: false,
        json: Some("BENCH_cache.json".to_string()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--card" => args.card = it.next().expect("--card N").parse().expect("number"),
            "--reps" => args.reps = it.next().expect("--reps R").parse().expect("number"),
            "--smoke" => {
                args.smoke = true;
                args.card = 200;
                args.reps = 5;
            }
            "--json" => args.json = Some(it.next().expect("--json PATH")),
            "--no-json" => args.json = None,
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A star-schema catalog: one fact table and six dimensions, so the
/// widest workload optimizes a seven-way join. Join-order search cost
/// grows steeply with width while the (filtered) execution stays cheap,
/// which is exactly the regime where a plan cache pays: short queries
/// whose serving time is dominated by optimization.
fn catalog(card: usize) -> Catalog {
    let card_f = card as f64;
    let mut c = Catalog::new();
    c.add_table(
        "fact",
        card_f,
        vec![
            ColumnDef::int("id", card_f),
            ColumnDef::int("d1", 50.0),
            ColumnDef::int("d2", 40.0),
            ColumnDef::int("d3", 30.0),
            ColumnDef::int("d4", 20.0),
            ColumnDef::int("d5", 15.0),
            ColumnDef::int("d6", 10.0),
            ColumnDef::int("v", 100.0),
        ],
    );
    for (name, dcard) in [
        ("dim1", 50.0),
        ("dim2", 40.0),
        ("dim3", 30.0),
        ("dim4", 20.0),
        ("dim5", 15.0),
        ("dim6", 10.0),
    ] {
        c.add_table(
            name,
            dcard,
            vec![ColumnDef::int("id", dcard), ColumnDef::int("attr", 5.0)],
        );
    }
    c
}

struct Workload {
    name: &'static str,
    /// "headline" (join-order-bound, gated) or "short".
    class: &'static str,
    sql: &'static str,
    /// Parameter values cycled across repetitions (distinct bindings,
    /// same shape — the cache must serve all of them from one entry).
    params: &'static [i64],
}

const WORKLOADS: &[Workload] = &[
    Workload {
        name: "select_1tab",
        class: "short",
        sql: "SELECT fact.id FROM fact WHERE fact.v < $0 ORDER BY fact.id",
        params: &[3, 7, 11],
    },
    Workload {
        name: "join_2way",
        class: "short",
        sql: "SELECT fact.id FROM fact, dim1 \
              WHERE fact.d1 = dim1.id AND fact.v < $0",
        params: &[3, 7, 11],
    },
    Workload {
        name: "join_3way",
        class: "short",
        sql: "SELECT fact.id FROM fact, dim1, dim2 \
              WHERE fact.d1 = dim1.id AND fact.d2 = dim2.id AND fact.v < $0 \
              ORDER BY fact.id",
        params: &[3, 7, 11],
    },
    Workload {
        name: "join_5way",
        class: "headline",
        sql: "SELECT fact.id FROM fact, dim1, dim2, dim3, dim4 \
              WHERE fact.d1 = dim1.id AND fact.d2 = dim2.id \
              AND fact.d3 = dim3.id AND fact.d4 = dim4.id AND fact.v < $0",
        params: &[3, 7, 11],
    },
    Workload {
        name: "join_7way",
        class: "headline",
        sql: "SELECT fact.id FROM fact, dim1, dim2, dim3, dim4, dim5, dim6 \
              WHERE fact.d1 = dim1.id AND fact.d2 = dim2.id \
              AND fact.d3 = dim3.id AND fact.d4 = dim4.id \
              AND fact.d5 = dim5.id AND fact.d6 = dim6.id AND fact.v < $0",
        params: &[3, 7, 11],
    },
    Workload {
        name: "agg_group",
        class: "short",
        sql: "SELECT fact.d1, COUNT(*) FROM fact, dim1 \
              WHERE fact.d1 = dim1.id AND fact.v < $0 \
              GROUP BY fact.d1 ORDER BY fact.d1",
        params: &[3, 7, 11],
    },
];

struct WorkloadResult {
    name: &'static str,
    class: &'static str,
    rows: usize,
    cold_ms: f64,
    warm_ms: f64,
    speedup: f64,
}

fn sorted_copy(rows: &[Tuple]) -> Vec<Tuple> {
    let mut s = rows.to_vec();
    s.sort();
    s
}

fn run_workload(db: &Database, w: &Workload, reps: usize) -> WorkloadResult {
    let stmt = db.prepare(w.sql).expect("workload must prepare");
    let bind = |i: usize| vec![Value::Int(w.params[i % w.params.len()])];
    let opts = ExecOptions::new();
    let run = |i: usize| db.execute_prepared_opts(&stmt, &bind(i), &opts, None);

    // Correctness first: warm and cold must agree, and warm must be a
    // genuine hit that skipped the optimizer.
    db.set_plan_cache_enabled(false);
    let cold_rows = run(0).expect("cold run").rows;
    db.set_plan_cache_enabled(true);
    run(0).expect("warming run");
    let warm = run(0).expect("warm run");
    assert_eq!(warm.cache, "hit", "{}: warm run missed the cache", w.name);
    assert!(
        warm.search.is_none(),
        "{}: warm run invoked the optimizer",
        w.name
    );
    assert_eq!(
        sorted_copy(&cold_rows),
        sorted_copy(&warm.rows),
        "{}: cold and warm executions disagree",
        w.name
    );
    let rows = cold_rows.len();
    drop((cold_rows, warm));

    db.set_plan_cache_enabled(false);
    let t = Instant::now();
    for i in 0..reps {
        std::hint::black_box(run(i).expect("cold"));
    }
    let cold_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;

    db.set_plan_cache_enabled(true);
    run(0).expect("rewarm");
    let t = Instant::now();
    for i in 0..reps {
        std::hint::black_box(run(i).expect("warm"));
    }
    let warm_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;

    WorkloadResult {
        name: w.name,
        class: w.class,
        rows,
        cold_ms,
        warm_ms,
        speedup: cold_ms / warm_ms.max(1e-9),
    }
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    println!("cold-vs-warm plan cache benchmark");
    println!(
        "fact card {}, {} reps per mode{}\n",
        args.card,
        args.reps,
        if args.smoke { " (smoke)" } else { "" }
    );
    println!(
        "{:<14} {:>8} {:>8} {:>10} {:>10} {:>9}",
        "workload", "class", "rows", "cold ms", "warm ms", "speedup"
    );

    let db = Database::in_memory(catalog(args.card));
    db.generate(42);

    let mut results = Vec::new();
    for w in WORKLOADS {
        let r = run_workload(&db, w, args.reps);
        println!(
            "{:<14} {:>8} {:>8} {:>10.3} {:>10.3} {:>8.2}x",
            r.name, r.class, r.rows, r.cold_ms, r.warm_ms, r.speedup
        );
        results.push(r);
    }

    let headline: Vec<&WorkloadResult> = results.iter().filter(|r| r.class == "headline").collect();
    let short: Vec<&WorkloadResult> = results.iter().filter(|r| r.class == "short").collect();
    let g = geomean(&headline.iter().map(|r| r.speedup).collect::<Vec<_>>());
    println!("\nheadline geomean speedup: {g:.2}x (short workloads excluded)");
    let stats = db.plan_cache().stats();
    println!("cache counters: {}", stats.to_json());
    assert_eq!(
        stats.lookups,
        stats.hits + stats.misses + stats.invalidations,
        "cache counters failed to reconcile"
    );

    if let Some(path) = &args.json {
        let render = |rs: &[&WorkloadResult]| -> String {
            rs.iter()
                .map(|r| {
                    format!(
                        concat!(
                            "{{\"name\":\"{}\",\"class\":\"{}\",\"rows\":{},",
                            "\"cold_ms\":{},\"warm_ms\":{},\"speedup\":{}}}"
                        ),
                        r.name, r.class, r.rows, r.cold_ms, r.warm_ms, r.speedup
                    )
                })
                .collect::<Vec<_>>()
                .join(",")
        };
        let json = format!(
            concat!(
                "{{\"benchmark\":\"plan_cache\",\"card\":{},\"reps\":{},",
                "\"smoke\":{},\"workloads\":[{}],\"short_workloads\":[{}],",
                "\"geomean_speedup\":{},\"cache_stats\":{}}}\n"
            ),
            args.card,
            args.reps,
            args.smoke,
            render(&headline),
            render(&short),
            g,
            stats.to_json()
        );
        std::fs::write(path, json).expect("write json");
        println!("JSON written to {path}");
    }
    println!(
        "total harness time: {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
