//! Concurrent multi-session serving benchmark.
//!
//! Measures how prepared-statement throughput scales with the number of
//! concurrent sessions: a sweep over {1, 2, 4, 8} session threads, each
//! running the same mixed prepared workload (parameterized scans plus a
//! hash join) against one shared [`Database`] through the serving
//! layer's [`volcano_exec::Session`]s.
//!
//! The database sits on a [`LatencyDisk`]: every page read carries a
//! fixed simulated latency, and the buffer pool is deliberately smaller
//! than the tables, so executions miss continuously. That is the regime
//! a concurrent serving layer exists for — I/O-latency-bound executions
//! whose reads overlap across sessions (the buffer pool releases its
//! lock across misses precisely to allow this) — and it keeps the
//! measurement meaningful on single-core CI runners, where a CPU-bound
//! sweep would show no scaling at all.
//!
//! Every session execution is verified (expected row count per
//! parameter, computed once serially) and the plan-cache counters must
//! reconcile at the end, or the harness panics.
//!
//! Usage:
//!   serve [--card N] [--ops K] [--latency-us U] [--smoke]
//!         [--json PATH] [--no-json]
//!
//! `--smoke` shrinks cardinalities/latency and marks the export
//! `"smoke":true`, which exempts it from the ≥ 2.0× scaling gate
//! (debug-build CI runs are not representative).

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use volcano_exec::{Database, Server, ServerConfig, TrafficClass};
use volcano_rel::{Catalog, ColumnDef, Value};
use volcano_store::{DiskManager, LatencyDisk, MemDisk};

/// The sweep; the first entry must be 1 (the single-session baseline)
/// and the last is the gated headline.
const SESSIONS: [usize; 4] = [1, 2, 4, 8];

/// Buffer-pool pages: smaller than the tables, so executions miss
/// continuously and pay the simulated read latency.
const POOL_PAGES: usize = 128;

struct Args {
    card: usize,
    ops: usize,
    latency_us: u64,
    smoke: bool,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        card: 20_000,
        ops: 40,
        latency_us: 300,
        smoke: false,
        json: Some("BENCH_serve.json".to_string()),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--card" => args.card = it.next().expect("--card N").parse().expect("number"),
            "--ops" => args.ops = it.next().expect("--ops K").parse().expect("number"),
            "--latency-us" => {
                args.latency_us = it.next().expect("--latency-us U").parse().expect("number")
            }
            "--smoke" => {
                args.smoke = true;
                args.card = 1_500;
                args.ops = 8;
                args.latency_us = 50;
            }
            "--json" => args.json = Some(it.next().expect("--json PATH")),
            "--no-json" => args.json = None,
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

fn catalog(card: usize) -> Catalog {
    let card_f = card as f64;
    let mut c = Catalog::new();
    c.add_table(
        "t",
        card_f,
        vec![
            ColumnDef::int("a", card_f),
            ColumnDef::int("b", 1000.0),
            ColumnDef::int("c", 100.0),
        ],
    );
    c.add_table(
        "fact",
        card_f,
        vec![
            ColumnDef::int("k", card_f / 8.0),
            ColumnDef::int("v", 1000.0),
        ],
    );
    c.add_table(
        "dim",
        card_f / 8.0,
        vec![
            ColumnDef::int("id", card_f / 8.0),
            ColumnDef::int("r", 10.0),
        ],
    );
    c
}

const SCAN_SQL: &str = "SELECT t.a FROM t WHERE t.c < $0";
const JOIN_SQL: &str = "SELECT fact.v, dim.r FROM fact, dim WHERE fact.k = dim.id";

/// The per-session operation mix: mostly parameterized scans (cycling
/// selectivities) with a join every fourth op.
fn op_param(i: usize) -> Option<i64> {
    if i % 4 == 3 {
        None // join
    } else {
        Some(10 + ((i * 13) % 60) as i64) // scan, param in [10, 70)
    }
}

struct Point {
    sessions: usize,
    wall_ms: f64,
    plans_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
    degraded: u64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[idx.clamp(1, sorted.len()) - 1]
}

fn run_point(
    server: &Server,
    sessions: usize,
    ops: usize,
    oracle: &HashMap<i64, usize>,
    join_rows: usize,
) -> Point {
    let degraded_before = server.admission().stats().admitted_degraded;
    let barrier = Arc::new(Barrier::new(sessions + 1));
    let (wall, mut latencies) = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for s in 0..sessions {
            let barrier = barrier.clone();
            let mut session = server.session(TrafficClass::Interactive);
            handles.push(scope.spawn(move || {
                session.prepare("scan", SCAN_SQL).expect("prepare scan");
                session.prepare("join", JOIN_SQL).expect("prepare join");
                barrier.wait();
                let mut lat = Vec::with_capacity(ops);
                for i in 0..ops {
                    // Offset the mix per session so sessions are not in
                    // page-access lockstep.
                    let op = i + s;
                    let t = Instant::now();
                    let out = match op_param(op) {
                        Some(p) => session.execute("scan", &[Value::Int(p)]),
                        None => session.execute("join", &[]),
                    }
                    .expect("prepared execution");
                    lat.push(t.elapsed().as_secs_f64() * 1e3);
                    let want = match op_param(op) {
                        Some(p) => oracle[&p],
                        None => join_rows,
                    };
                    assert_eq!(
                        out.outcome.rows.len(),
                        want,
                        "session {s}: wrong row count at op {i}"
                    );
                }
                lat
            }));
        }
        barrier.wait();
        let t = Instant::now();
        let latencies: Vec<f64> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("session thread"))
            .collect();
        (t.elapsed().as_secs_f64(), latencies)
    });
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let total_ops = (sessions * ops) as f64;
    Point {
        sessions,
        wall_ms: wall * 1e3,
        plans_per_sec: total_ops / wall.max(1e-9),
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        degraded: server.admission().stats().admitted_degraded - degraded_before,
    }
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    println!("concurrent multi-session serving benchmark");
    println!(
        "card {}, {} ops/session, read latency {} us, pool {} pages{}\n",
        args.card,
        args.ops,
        args.latency_us,
        POOL_PAGES,
        if args.smoke { " (smoke)" } else { "" }
    );

    // I/O-latency-bound setup: simulated read latency under a pool too
    // small for the tables. The latency wrapper sleeps outside any
    // lock, so concurrent sessions genuinely overlap their misses.
    let disk: Arc<dyn DiskManager> = Arc::new(LatencyDisk::new(
        Arc::new(MemDisk::new()),
        Duration::from_micros(args.latency_us),
    ));
    let db = Arc::new(Database::with_disk(catalog(args.card), disk, POOL_PAGES));
    db.generate(42);
    // Tickets for the whole sweep: admission never degrades here (the
    // sweep never exceeds the ticket count), it only meters; the
    // degraded column in the export proves it stayed at zero.
    let server = Server::over(
        db.clone(),
        ServerConfig {
            max_concurrent: *SESSIONS.iter().max().expect("sweep non-empty"),
            ..ServerConfig::default()
        },
    );

    // Oracle row counts per scan parameter (and the join), computed
    // once on a private session. This also warms the plan cache, so
    // the timed sweep measures serving, not first-touch optimization.
    let mut oracle_session = server.session(TrafficClass::Background);
    oracle_session.prepare("scan", SCAN_SQL).expect("prepare");
    oracle_session.prepare("join", JOIN_SQL).expect("prepare");
    let mut oracle = HashMap::new();
    for i in 0..(args.ops + SESSIONS[SESSIONS.len() - 1]) {
        if let Some(p) = op_param(i) {
            oracle.entry(p).or_insert_with(|| {
                oracle_session
                    .execute("scan", &[Value::Int(p)])
                    .expect("oracle scan")
                    .outcome
                    .rows
                    .len()
            });
        }
    }
    let join_rows = oracle_session
        .execute("join", &[])
        .expect("oracle join")
        .outcome
        .rows
        .len();

    println!(
        "{:>8} {:>9} {:>13} {:>8} {:>8} {:>9}",
        "sessions", "wall ms", "plans/sec", "p50 ms", "p99 ms", "degraded"
    );
    let mut points = Vec::new();
    for sessions in SESSIONS {
        let p = run_point(&server, sessions, args.ops, &oracle, join_rows);
        println!(
            "{:>8} {:>9.1} {:>13.1} {:>8.2} {:>8.2} {:>9}",
            p.sessions, p.wall_ms, p.plans_per_sec, p.p50_ms, p.p99_ms, p.degraded
        );
        points.push(p);
    }

    // The ledger must reconcile after the whole sweep, or the numbers
    // above measured a broken cache.
    let s = db.plan_cache().stats();
    assert_eq!(
        s.lookups,
        s.hits + s.misses + s.invalidations,
        "plan cache counters do not reconcile"
    );

    let scaling_8 = points[points.len() - 1].plans_per_sec / points[0].plans_per_sec.max(1e-9);
    println!(
        "\nthroughput scaling 1 -> {} sessions: {:.2}x",
        SESSIONS[SESSIONS.len() - 1],
        scaling_8
    );

    if let Some(path) = &args.json {
        let points_json: Vec<String> = points
            .iter()
            .map(|p| {
                format!(
                    concat!(
                        "{{\"sessions\":{},\"wall_ms\":{},\"plans_per_sec\":{},",
                        "\"p50_ms\":{},\"p99_ms\":{},\"degraded\":{}}}"
                    ),
                    p.sessions, p.wall_ms, p.plans_per_sec, p.p50_ms, p.p99_ms, p.degraded
                )
            })
            .collect();
        let json = format!(
            concat!(
                "{{\"benchmark\":\"serve\",\"card\":{},\"ops_per_session\":{},",
                "\"latency_us\":{},\"pool_pages\":{},\"smoke\":{},",
                "\"points\":[{}],\"scaling_8\":{}}}\n"
            ),
            args.card,
            args.ops,
            args.latency_us,
            POOL_PAGES,
            args.smoke,
            points_json.join(","),
            scaling_8
        );
        std::fs::write(path, json).expect("write json");
        println!("JSON written to {path}");
    }
    println!(
        "total harness time: {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
