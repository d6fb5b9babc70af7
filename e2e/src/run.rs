//! Set-up, the timed loop and the metric arithmetic of each workload.
//!
//! Every workload times whole *cycles* of a fixed, seeded operation
//! list and stops at the first cycle boundary after `--seconds`, so the
//! mix of operations behind each number does not depend on how fast
//! they ran. Exact counts are reported for one cycle.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use crate::metrics::Metrics;
use crate::rows::{Digest, Rng};
use crate::stats::{mean, median, percentile, tail_quantile};
use crate::sut::{
    self, Client, Counters, Db, OptCase, OtherEngine, Reply, SearchCounters, Searched, Service,
    Stmt, Table,
};
use crate::trace::Trace;
use crate::workloads::{self, Scale, ServeOp, Statement};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Where to dump the raw spans of a traced run.
    pub spans: Option<PathBuf>,
}

impl RunArgs {
    /// The share of `--seconds` each segment measures for.
    fn segment_seconds(&self) -> f64 {
        self.seconds / self.scale.segments as f64
    }
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Sizes and counts for the run record, in print order.
    pub facts: Vec<(&'static str, String)>,
}

/// Set this variable to make the first expected answer wrong: the
/// tests' proof that a wrong result is reported and fails the run.
pub const CORRUPT_ORACLE_ENV: &str = "E2E_CORRUPT_ORACLE";

/// Failed operations: counted, and the first few explained on stderr.
#[derive(Default)]
struct Failures(u64);

impl Failures {
    fn record(&mut self, what: impl FnOnce() -> String) {
        if self.0 < 5 {
            eprintln!("FAILED: {}", what());
        }
        self.0 += 1;
    }
}

/// Run `f`, turning a panic into an error, and time it.
fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> (f64, Result<T, String>) {
    let started = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f));
    let seconds = started.elapsed().as_secs_f64();
    let out = out.unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("opaque payload");
        Err(format!("panic: {msg}"))
    });
    (seconds, out)
}

/// What one segment of a run measured: one set-up, and the cycles
/// timed on what it built.
///
/// A run is a few segments, each on a database of its own, and reports
/// the median of the segments' statistics. Where a table lands in
/// physical memory moves a scan-bound operation by several percent for
/// the life of that table, and a burst of noise from a neighbour lasts
/// seconds; a median over segments votes both out, which no amount of
/// repetition on one database does.
struct Segment {
    setup_seconds: f64,
    latencies_ms: Vec<f64>,
    busy_seconds: f64,
}

impl Segment {
    fn new(setup_seconds: f64) -> Segment {
        Segment {
            setup_seconds,
            // Reserved once, so that growing never holds two copies:
            // `peak_rss_mb` should read the program, not this vector.
            latencies_ms: Vec::with_capacity(1 << 20),
            busy_seconds: 0.0,
        }
    }

    fn record(&mut self, seconds: f64) {
        self.busy_seconds += seconds;
        self.latencies_ms.push(seconds * 1e3);
    }
}

/// The result of a run whose set-up failed.
fn not_set_up(mut failures: Failures, error: String) -> RunResult {
    failures.record(|| format!("set-up: {error}"));
    RunResult {
        attempted: 1,
        failed: failures.0,
        metrics: Metrics::default(),
        facts: Vec::new(),
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics every workload reports from an untraced run:
/// each the median over the run's segments. The tail percentile is the
/// highest that leaves ten samples beyond it over the whole run.
fn end_to_end(
    metrics: &mut Metrics,
    facts: &mut Vec<(&'static str, String)>,
    segments: &mut [Segment],
) {
    let n: usize = segments.iter().map(|s| s.latencies_ms.len()).sum();
    let tail_q = tail_quantile(n, 0.95);
    for s in segments.iter_mut() {
        s.latencies_ms.sort_by(f64::total_cmp);
    }
    let over_segments =
        |f: &dyn Fn(&Segment) -> f64| median(&mut segments.iter().map(f).collect::<Vec<f64>>());
    let p50 = over_segments(&|s| percentile(&s.latencies_ms, 0.5));
    let tail = over_segments(&|s| percentile(&s.latencies_ms, tail_q));
    let rate = over_segments(&|s| s.latencies_ms.len() as f64 / s.busy_seconds);
    let setup = over_segments(&|s| s.setup_seconds);
    metrics.set("op_ms_p50", p50, n);
    metrics.set("op_ms_p95", tail, n);
    metrics.set("ops_per_s", rate, n);
    metrics.set("setup_s", setup, segments.len());
    metrics.set("peak_rss_mb", peak_rss_mb(), 1);
    facts.push(("segments", segments.len().to_string()));
    facts.push(("tail_percentile", tail_q.to_string()));
    facts.push(("timed_ops", n.to_string()));
}

/// Coverage and overhead of the traced path against the product path
/// timed over the same operations, and the raw spans on request.
fn trace_quality(metrics: &mut Metrics, trace: &Trace, product_seconds: f64, args: &RunArgs) {
    let layers: f64 = trace
        .self_times()
        .iter()
        .filter(|(name, _)| **name != "op")
        .map(|(_, s)| s)
        .sum();
    let ops = trace.spans().iter().filter(|s| s.name == "op").count();
    metrics.set("trace.coverage", layers / product_seconds, ops);
    metrics.set(
        "trace.overhead_share",
        trace.total("op") / product_seconds - 1.0,
        ops,
    );
    if let Some(path) = &args.spans {
        let written = std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .and_then(|mut f| {
                trace.write_jsonl(&mut f)?;
                std::io::Write::flush(&mut f)
            });
        if let Err(e) = written {
            eprintln!("cannot write spans to {}: {e}", path.display());
        }
    }
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    // The median of an equal mix of six statements falls between two
    // of them and jumps with any noise. Tripling one mid-cost statement
    // (join_3way; scan_project) puts the median, and its neighbourhood,
    // inside that statement's latencies; p95 lands inside the costliest.
    let weights_star = [1, 1, 3, 1, 1, 1];
    match args.workload.as_str() {
        "fig4_optimize" => Ok(run_optimize(args)),
        "star_cold" => Ok(run_sql(
            args,
            &SqlSpec {
                tables: workloads::star_tables,
                statements: workloads::star_statements(weights_star),
                pool_pages: None,
                cold: true,
                roofline: false,
                other_engines: false,
            },
        )),
        "star_warm" => Ok(run_sql(
            args,
            &SqlSpec {
                tables: workloads::star_tables,
                statements: workloads::star_statements(weights_star),
                pool_pages: None,
                cold: false,
                roofline: false,
                other_engines: false,
            },
        )),
        "analytic_fit" | "analytic_spill" => Ok(run_sql(
            args,
            &SqlSpec {
                tables: workloads::analytic_tables,
                statements: workloads::analytic_statements([3, 1, 1, 1, 1, 1]),
                pool_pages: Some(if args.workload == "analytic_fit" {
                    args.scale.fit_pool_pages
                } else {
                    args.scale.spill_pool_pages
                }),
                cold: false,
                roofline: true,
                // Only the workload whose pages all fit pays for the
                // tuple engine.
                other_engines: args.workload == "analytic_fit",
            },
        )),
        "serve_mixed" => Ok(run_serve(args)),
        other => Err(format!("unknown workload {other:?}")),
    }
}

// ---------------------------------------------------------------------
// fig4_optimize: the optimizer alone.

/// Generate the queries and build their models, then optimize one query
/// of each relation count. Every operation builds its optimizer and
/// memo from nothing, so there is no cache a full sweep would warm; this
/// finishes the lazy set-up (code pages, allocator arenas).
///
/// Returns the queries and the seeded order a sweep visits them in.
fn setup_optimize(args: &RunArgs) -> Result<(Vec<OptCase>, Vec<usize>), String> {
    let per_level = args.scale.fig4_per_level;
    let cases = OptCase::generate(args.seed, 2..=args.scale.fig4_max_relations, per_level);
    for case in cases.iter().step_by(per_level) {
        timed(|| case.optimize()).1?;
    }
    let mut order: Vec<usize> = (0..cases.len()).collect();
    Rng::new(args.seed ^ 0xf194).shuffle(&mut order);
    Ok((cases, order))
}

fn run_optimize(args: &RunArgs) -> RunResult {
    let mut failures = Failures::default();
    let mut segments = Vec::new();
    let mut by_level: HashMap<usize, Vec<f64>> = HashMap::new();
    let mut sweeps = 0u64;
    let mut trace = Trace::default();
    // The first search of each query: what every later search of it, on
    // either path and in any segment, must reproduce.
    let mut reference: Vec<Option<Searched>> = Vec::new();
    let mut relations = Vec::new();
    for _ in 0..args.scale.segments {
        let (setup_seconds, built) = timed(|| setup_optimize(args));
        let (cases, order) = match built {
            Ok(state) => state,
            Err(e) => return not_set_up(failures, e),
        };
        reference.resize_with(cases.len(), || None);
        relations = cases.iter().map(|c| c.relations).collect();

        let mut segment = Segment::new(setup_seconds);
        let started = Instant::now();
        loop {
            for &i in &order {
                let (seconds, found) = timed(|| cases[i].optimize());
                segment.record(seconds);
                by_level
                    .entry(cases[i].relations)
                    .or_default()
                    .push(seconds * 1e3);
                let mut check = |found: Result<Searched, String>, path: &str| match found {
                    Ok(f) => match &reference[i] {
                        None => reference[i] = Some(f),
                        Some(r) if f.same_search(r) => {}
                        Some(_) => failures.record(|| {
                            format!(
                                "query {i} ({path}): cost or counters differ from its first search"
                            )
                        }),
                    },
                    Err(e) => failures.record(|| format!("query {i} ({path}): {e}")),
                };
                check(found, "product");
                if args.trace {
                    trace.next_op();
                    check(timed(|| cases[i].optimize_traced(&mut trace)).1, "traced");
                }
            }
            sweeps += 1;
            if started.elapsed().as_secs_f64() >= args.segment_seconds() {
                break;
            }
        }
        segments.push(segment);
    }

    let queries = reference.len();
    let mut metrics = Metrics::default();
    let mut facts = vec![
        ("queries_per_sweep", queries.to_string()),
        ("sweeps", sweeps.to_string()),
        (
            "relations",
            format!("2..={}", args.scale.fig4_max_relations),
        ),
    ];
    let ops: usize = segments.iter().map(|s| s.latencies_ms.len()).sum();
    let attempted = ops as u64 * if args.trace { 2 } else { 1 };
    if !args.trace {
        end_to_end(&mut metrics, &mut facts, &mut segments);
    } else {
        // Exact counts of one sweep.
        let mut sum = SearchCounters::default();
        let mut cost_sum = 0.0;
        let mut top_memo = Vec::new();
        for (found, &relations) in reference.iter().zip(&relations) {
            let Some(found) = found else { continue };
            let c = found.counters();
            sum.add(&c);
            cost_sum += found.cost();
            if relations == args.scale.fig4_max_relations {
                top_memo.push(c.memo_bytes as f64);
            }
        }
        search_counts(&mut metrics, &sum, queries);
        // Named for the paper's widest level; a smoke run stops lower.
        metrics.set("core.memo_bytes.r8", mean(&top_memo), top_memo.len());
        metrics.set("rel.plan_cost_checksum", cost_sum, queries);
        let own = trace.self_times();
        let search_seconds: f64 = [
            "core.optimizer_new",
            "core.insert_tree",
            "core.find_best_plan",
        ]
        .iter()
        .filter_map(|n| own.get(n))
        .sum();
        metrics.set("core.optimize_ms", search_seconds * 1e3 / ops as f64, ops);
        metrics.set(
            "core.moves_per_s",
            (sum.moves_costed * sweeps) as f64 / trace.total("core.find_best_plan"),
            ops,
        );
        for (level, ms) in &mut by_level {
            metrics.set(format!("core.optimize_ms.r{level}"), median(ms), ms.len());
        }
        let busy = segments.iter().map(|s| s.busy_seconds).sum();
        trace_quality(&mut metrics, &trace, busy, args);
    }
    RunResult {
        attempted,
        failed: failures.0,
        metrics,
        facts,
    }
}

/// The exact search counts of one cycle and the two useful-work ratios.
fn search_counts(metrics: &mut Metrics, c: &SearchCounters, searches: usize) {
    let n = searches;
    metrics.set("core.transform_fired", c.transform_fired as f64, n);
    metrics.set(
        "core.substitutes_produced",
        c.substitutes_produced as f64,
        n,
    );
    metrics.set("core.exprs_created", c.exprs_created as f64, n);
    metrics.set("core.dead_exprs", c.dead_exprs as f64, n);
    metrics.set("core.group_merges", c.group_merges as f64, n);
    metrics.set("core.goals_optimized", c.goals_optimized as f64, n);
    metrics.set("core.moves_costed", c.moves_costed as f64, n);
    metrics.set("core.moves_pruned", c.moves_pruned as f64, n);
    // Goal lookups the winner table answered, of all goal lookups.
    metrics.set(
        "core.winner_hit_share",
        c.winner_hits as f64 / (c.winner_hits + c.failure_hits + c.goals_optimized) as f64,
        n,
    );
    // Live expressions the rules added, per substitute they produced.
    metrics.set(
        "core.expr_keep_share",
        c.exprs_created
            .saturating_sub(c.dead_exprs + c.initial_exprs) as f64
            / c.substitutes_produced as f64,
        n,
    );
}

// ---------------------------------------------------------------------
// The single-session SQL workloads.

struct SqlSpec {
    tables: fn(u64, &Scale) -> Vec<Table>,
    statements: Vec<Statement>,
    pool_pages: Option<usize>,
    /// SQL text in with the plan cache bypassed; otherwise prepared and
    /// served from the warm cache.
    cold: bool,
    /// When traced, also measure the scan against its roofline.
    roofline: bool,
    /// When traced, also run the statements on the other engines.
    other_engines: bool,
}

struct SqlState {
    tables: Vec<Table>,
    db: Db,
    prepared: Vec<Stmt>,
    /// Statement text per (statement, constant).
    texts: Vec<Vec<String>>,
}

impl SqlState {
    /// One operation through the product's entry points.
    fn product(&self, spec: &SqlSpec, s: usize, c: usize) -> Result<Reply, String> {
        if spec.cold {
            self.db.query_text(&self.texts[s][c])
        } else {
            let stmt = &spec.statements[s];
            self.db
                .execute(&self.prepared[s], &stmt.params(stmt.consts[c]))
        }
    }
}

/// Catalog, data, load, statement preparation and one warm-up execution
/// of every (statement, constant): everything `setup_s` covers.
fn setup_sql(args: &RunArgs, spec: &SqlSpec) -> Result<SqlState, String> {
    let tables = (spec.tables)(args.seed, &args.scale);
    let db = Db::load(&tables, spec.pool_pages);
    let prepared = spec
        .statements
        .iter()
        .map(|s| db.prepare(s.sql))
        .collect::<Result<Vec<_>, _>>()?;
    let texts = spec
        .statements
        .iter()
        .map(|s| s.consts.iter().map(|&c| s.text(c)).collect())
        .collect();
    let state = SqlState {
        tables,
        db,
        prepared,
        texts,
    };
    for (s, stmt) in spec.statements.iter().enumerate() {
        for c in 0..stmt.consts.len() {
            state.product(spec, s, c)?;
        }
    }
    Ok(state)
}

/// Compare a reply's rows with the statement's reference answer: as a
/// multiset, and in order when the statement has an ORDER BY.
fn matches_reference(
    stmt: &Statement,
    tables: &[Table],
    constant: i64,
    reply: Reply,
) -> Result<Digest, String> {
    let mut expected = (stmt.reference)(tables, constant);
    let mut got = reply.into_rows()?;
    let digest = Digest::of(&expected);
    if !stmt.ordered {
        expected.sort_unstable();
        got.sort_unstable();
    }
    if got == expected {
        Ok(digest)
    } else {
        Err(format!(
            "{} with constant {constant}: {} rows returned, {} expected, or their values differ",
            stmt.name,
            got.len(),
            expected.len()
        ))
    }
}

/// The layer-side tallies of a traced SQL run.
#[derive(Default)]
struct SqlLayers {
    trace: Trace,
    /// Statement of each traced operation, by operation id - 1.
    traced_stmt: Vec<usize>,
    /// Storage and cache counters over the product path of the last
    /// cycle, and the searches the traced path ran in it.
    last_cycle: (Counters, SearchCounters, usize),
}

fn run_sql(args: &RunArgs, spec: &SqlSpec) -> RunResult {
    let mut failures = Failures::default();
    let statements = &spec.statements;
    let cycle = workloads::cycle(statements, args.seed);
    let mut attempted = 0u64;
    let mut expected: Vec<Vec<Digest>> = Vec::new();
    let mut segments = Vec::new();
    let mut by_stmt: Vec<Vec<f64>> = vec![Vec::new(); statements.len()];
    let mut cycles = 0u64;
    let mut layers = SqlLayers::default();
    let mut cost_checksum: Option<f64> = None;
    let mut last_state = None;
    for index in 0..args.scale.segments {
        drop(last_state.take());
        let (setup_seconds, built) = timed(|| setup_sql(args, spec));
        let state = match built {
            Ok(state) => state,
            Err(e) => return not_set_up(failures, e),
        };
        let db = &state.db;

        // Correctness before speed: every (statement, constant) against
        // the reference answer, on the first database. The digests
        // recorded here are what each timed operation is checked against,
        // on every database: the same seed builds the same tables.
        if index == 0 {
            for (s, stmt) in statements.iter().enumerate() {
                let mut per_const = Vec::new();
                for (c, &constant) in stmt.consts.iter().enumerate() {
                    attempted += 1;
                    let checked = timed(|| {
                        matches_reference(stmt, &state.tables, constant, state.product(spec, s, c)?)
                    });
                    per_const.push(checked.1.unwrap_or_else(|e| {
                        failures.record(|| e);
                        Digest::default()
                    }));
                }
                expected.push(per_const);
            }
            if std::env::var_os(CORRUPT_ORACLE_ENV).is_some() {
                expected[0][0].checksum ^= 1;
            }
        }

        let mut segment = Segment::new(setup_seconds);
        let started = Instant::now();
        loop {
            let mut cycle_counters = Counters::default();
            let mut cycle_search = SearchCounters::default();
            let mut cycle_searches = 0usize;
            let mut cycle_cost = 0.0;
            for &(s, c) in &cycle {
                let stmt = &statements[s];
                let before = args.trace.then(|| db.counters());
                let (seconds, reply) = timed(|| state.product(spec, s, c));
                if let Some(before) = before {
                    cycle_counters.add(&db.counters().since(&before));
                }
                segment.record(seconds);
                if args.trace {
                    by_stmt[s].push(seconds * 1e3);
                }
                attempted += 1;
                let mut check = |reply: Result<Reply, String>, path: &str| -> Option<Reply> {
                    let verdict = reply.and_then(|r| {
                        if r.digest()? != expected[s][c] {
                            return Err("row count or checksum differs from the reference".into());
                        }
                        if spec.cold == r.search.is_none() || spec.cold == r.cache_hit {
                            return Err(format!(
                                "expected a {} execution, got cache_hit={} searched={}",
                                if spec.cold { "cold" } else { "cached" },
                                r.cache_hit,
                                r.search.is_some()
                            ));
                        }
                        Ok(r)
                    });
                    verdict
                        .map_err(|e| failures.record(|| format!("{} ({path}): {e}", stmt.name)))
                        .ok()
                };
                if let Some(r) = check(reply, "product") {
                    cycle_cost += r.plan_cost;
                }
                if args.trace {
                    attempted += 1;
                    layers.trace.next_op();
                    layers.traced_stmt.push(s);
                    let text = &state.texts[s][c];
                    let prepared = (!spec.cold).then(|| &state.prepared[s]);
                    let params = if spec.cold {
                        Vec::new()
                    } else {
                        stmt.params(stmt.consts[c])
                    };
                    let reply =
                        timed(|| db.traced(text, prepared, &params, spec.cold, &mut layers.trace))
                            .1;
                    if let Some(found) = check(reply, "traced").and_then(|r| r.search) {
                        cycle_search.add(&found);
                        cycle_searches += 1;
                    }
                }
            }
            cycles += 1;
            layers.last_cycle = (cycle_counters, cycle_search, cycle_searches);
            // Plans are chosen by a deterministic search over fixed
            // statistics: the cycle's cost sum must not move.
            match cost_checksum {
                None => cost_checksum = Some(cycle_cost),
                Some(first) if first.to_bits() != cycle_cost.to_bits() => failures.record(|| {
                    format!("plan cost checksum moved between cycles: {first} then {cycle_cost}")
                }),
                Some(_) => {}
            }
            if started.elapsed().as_secs_f64() >= args.segment_seconds() {
                break;
            }
        }
        segments.push(segment);
        last_state = Some(state);
    }
    let state = last_state.expect("a run has at least one segment");

    let mut metrics = Metrics::default();
    let mut facts = vec![
        ("ops_per_cycle", cycle.len().to_string()),
        ("cycles", cycles.to_string()),
        (
            "pool_pages",
            spec.pool_pages
                .unwrap_or(sut::DEFAULT_POOL_PAGES)
                .to_string(),
        ),
        ("rows", table_sizes(&state.tables)),
        ("constants", format!("{:?}", statements[0].consts)),
    ];
    if !args.trace {
        end_to_end(&mut metrics, &mut facts, &mut segments);
    } else {
        let ops: usize = segments.iter().map(|s| s.latencies_ms.len()).sum();
        let busy: f64 = segments.iter().map(|s| s.busy_seconds).sum();
        let per_cycle = cycle.len() as f64;
        let own = layers.trace.self_times();
        let per_op = |names: &[&str], scale: f64| {
            names.iter().filter_map(|n| own.get(n)).sum::<f64>() * scale / ops as f64
        };
        for (metric, span) in [
            ("sql.parse_us", "sql.parse"),
            ("sql.parameterize_us", "sql.parameterize"),
            ("sql.bind_lower_us", "sql.bind_lower"),
            ("sql.shape_key_us", "sql.shape_key"),
            ("plan_cache.lookup_us", "plan_cache.lookup"),
            ("plan_cache.rebind_us", "plan_cache.rebind"),
            ("rel.model_build_us", "rel.model_build"),
            ("exec.compile_us", "exec.compile"),
        ] {
            metrics.set(metric, per_op(&[span], 1e6), ops);
        }
        metrics.set(
            "core.optimize_ms",
            per_op(
                &[
                    "core.optimize",
                    "core.optimizer_new",
                    "core.insert_tree",
                    "core.find_best_plan",
                ],
                1e3,
            ),
            ops,
        );
        metrics.set("exec.fused.drain_ms", per_op(&["exec.drain"], 1e3), ops);
        metrics.set(
            "exec.materialize_ms",
            per_op(&["exec.materialize"], 1e3),
            ops,
        );

        let (counters, search, searches) = &layers.last_cycle;
        if *searches > 0 {
            search_counts(&mut metrics, search, *searches);
            metrics.set(
                "core.moves_per_s",
                search.moves_costed as f64 * cycles as f64
                    / layers.trace.total("core.find_best_plan"),
                ops,
            );
        }
        metrics.set(
            "rel.plan_cost_checksum",
            cost_checksum.unwrap_or(0.0),
            cycle.len(),
        );
        let load = (state.db.load_seconds, state.db.load_rows);
        storage_and_cache(&mut metrics, counters, per_cycle, load);
        for (stmt, ms) in statements.iter().zip(&mut by_stmt) {
            metrics.set(format!("stmt.{}.ms_p50", stmt.name), median(ms), ms.len());
        }
        trace_quality(&mut metrics, &layers.trace, busy, args);
        if spec.roofline {
            analytic_probes(
                &mut metrics,
                &mut facts,
                &state,
                spec,
                &expected,
                &layers,
                &mut failures,
            );
        }
    }
    RunResult {
        attempted,
        failed: failures.0,
        metrics,
        facts,
    }
}

fn table_sizes(tables: &[Table]) -> String {
    let sizes: Vec<String> = tables
        .iter()
        .map(|t| format!("{}={}", t.name, t.rows.len()))
        .collect();
    sizes.join(",")
}

/// Plan-cache and storage metrics from counter deltas over `ops`
/// product-path operations, and the per-row cost of the load
/// (`(seconds, rows)`).
fn storage_and_cache(metrics: &mut Metrics, counters: &Counters, ops: f64, load: (f64, u64)) {
    let n = ops as usize;
    metrics.set(
        "plan_cache.hit_share",
        counters.cache_hits as f64 / counters.cache_lookups as f64,
        counters.cache_lookups as usize,
    );
    metrics.set(
        "plan_cache.invalidations",
        counters.cache_invalidations as f64,
        n,
    );
    let pool_requests = counters.pool_hits + counters.pool_misses;
    metrics.set(
        "store.pool_hit_share",
        counters.pool_hits as f64 / pool_requests as f64,
        pool_requests as usize,
    );
    metrics.set(
        "store.pool_misses_per_op",
        counters.pool_misses as f64 / ops,
        n,
    );
    metrics.set(
        "store.pool_evictions_per_op",
        counters.pool_evictions as f64 / ops,
        n,
    );
    metrics.set(
        "store.page_reads_per_op",
        counters.page_reads as f64 / ops,
        n,
    );
    metrics.set(
        "store.insert_us",
        load.0 * 1e6 / load.1 as f64,
        load.1 as usize,
    );
}

/// Layer metrics only the analytic workloads have: scan speed against
/// the hand-written roofline, and the same statements on the engines
/// no end-to-end number uses.
fn analytic_probes(
    metrics: &mut Metrics,
    facts: &mut Vec<(&'static str, String)>,
    state: &SqlState,
    spec: &SqlSpec,
    expected: &[Vec<Digest>],
    layers: &SqlLayers,
    failures: &mut Failures,
) {
    const REPS: usize = 3;
    let db = &state.db;
    let sales_rows = state.tables[0].rows.len() as f64;
    facts.push(("sales_pages", db.table_pages("sales").to_string()));

    // `scan_project` is statement 0 and reads columns a, b (1 and 2).
    let mut drains: HashMap<u32, f64> = HashMap::new();
    for span in layers
        .trace
        .spans()
        .iter()
        .filter(|s| s.name == "exec.drain")
    {
        if layers.traced_stmt[span.op as usize - 1] == 0 {
            *drains.entry(span.op).or_default() += (span.end_ns - span.start_ns) as f64 * 1e-9;
        }
    }
    let mut drains: Vec<f64> = drains.into_values().collect();
    let engine_rate = sales_rows / median(&mut drains);
    let mut raw: Vec<f64> = (0..REPS)
        .map(|_| {
            let started = Instant::now();
            let scanned = std::hint::black_box(db.raw_scan("sales", &[1, 2]));
            let seconds = started.elapsed().as_secs_f64();
            if scanned != expected[0][0] {
                failures.record(|| "the roofline scan disagrees with the reference".into());
            }
            seconds
        })
        .collect();
    let raw_rate = sales_rows / median(&mut raw);
    metrics.set("exec.scan_mrows_per_s", engine_rate / 1e6, drains.len());
    metrics.set("exec.scan_roofline_share", engine_rate / raw_rate, REPS);
    facts.push(("roofline_mrows_per_s", format!("{}", raw_rate / 1e6)));

    // One pass over the six statements per engine: the sum of each
    // statement's median execution, in ms.
    if !spec.other_engines {
        return;
    }
    let nproc = nproc();
    for (metric, engine, degree) in [
        ("exec.tuple.execute_ms", OtherEngine::Tuple, 1),
        ("exec.batch.execute_ms", OtherEngine::Batch, 1),
        ("exec.fused_par.execute_ms", OtherEngine::Fused, nproc),
    ] {
        db.set_parallel_degree(degree);
        let mut total_ms = 0.0;
        for (s, stmt) in spec.statements.iter().enumerate() {
            let params = stmt.params(stmt.consts[0]);
            // The first execution plans under the new degree; it is the
            // warm-up of the timed ones.
            let mut ms: Vec<f64> = (0..=REPS)
                .map(|_| {
                    let (seconds, reply) =
                        timed(|| db.execute_on(&state.prepared[s], &params, engine));
                    match reply.and_then(|r| r.digest()) {
                        Ok(d) if d == expected[s][0] => {}
                        Ok(_) => {
                            failures.record(|| format!("{} on {engine:?}: wrong rows", stmt.name))
                        }
                        Err(e) => failures.record(|| format!("{} on {engine:?}: {e}", stmt.name)),
                    }
                    seconds * 1e3
                })
                .skip(1)
                .collect();
            total_ms += median(&mut ms);
        }
        metrics.set(metric, total_ms, REPS * spec.statements.len());
    }
    facts.push(("fused_par_degree", nproc.to_string()));
}

// ---------------------------------------------------------------------
// serve_mixed: concurrent sessions on one server.

const CLASS_NAMES: [&str; 5] = ["warm", "scan", "cold", "count", "insert"];

fn class_of(op: ServeOp) -> usize {
    match op {
        ServeOp::Warm { .. } => 0,
        ServeOp::Scan => 1,
        ServeOp::Cold { .. } => 2,
        ServeOp::Count => 3,
        ServeOp::Insert => 4,
    }
}

struct ServeState {
    tables: Vec<Table>,
    service: Service,
    star: Vec<Stmt>,
    scan: Stmt,
    count: Stmt,
}

/// The statements, texts and expected digests of the serving workload.
struct ServeInputs<'a> {
    star: &'a [Statement],
    scan: &'a Statement,
    cold_texts: Vec<String>,
    /// Expected digests: star[statement][constant], scan, cold[constant].
    star_expected: Vec<Vec<Digest>>,
    scan_expected: Digest,
    cold_expected: Vec<Digest>,
    initial_events: i64,
}

/// What the serving clients share while they run.
struct ServeShared<'a> {
    state: &'a ServeState,
    inputs: &'a ServeInputs<'a>,
    next_event: AtomicI64,
}

/// One timed operation of a serving client.
struct Sample {
    class: usize,
    stmt: usize,
    ms: f64,
    spans_on: bool,
}

#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    degraded: u64,
    failures: Vec<String>,
    trace: Trace,
}

impl ServeShared<'_> {
    fn perform(&self, client: &Client, op: ServeOp) -> Result<Option<Reply>, String> {
        let inputs = self.inputs;
        match op {
            ServeOp::Warm { stmt, constant } => {
                let s = &inputs.star[stmt];
                let reply =
                    client.execute(&self.state.star[stmt], &s.params(s.consts[constant]))?;
                if reply.digest()? != inputs.star_expected[stmt][constant] {
                    return Err(format!("{}: wrong rows", s.name));
                }
                Ok(Some(reply))
            }
            ServeOp::Scan => {
                let scan = inputs.scan;
                let reply = client.execute(&self.state.scan, &scan.params(scan.consts[0]))?;
                if reply.digest()? != inputs.scan_expected {
                    return Err("scan over big: wrong rows".into());
                }
                Ok(Some(reply))
            }
            ServeOp::Cold { constant } => {
                let reply = client.query_text(&inputs.cold_texts[constant])?;
                if reply.digest()? != inputs.cold_expected[constant] {
                    return Err("cold join_5way: wrong rows".into());
                }
                if reply.cache_hit || reply.search.is_none() {
                    return Err("cold join_5way was served from the plan cache".into());
                }
                Ok(Some(reply))
            }
            ServeOp::Count => {
                let reply = client.execute(&self.state.count, &[])?;
                let rows = reply.into_rows()?;
                let inserted_by_now = self.next_event.load(Ordering::SeqCst);
                match rows.as_slice() {
                    [row]
                        if row.len() == 1
                            && (inputs.initial_events..=inserted_by_now).contains(&row[0]) =>
                    {
                        Ok(None)
                    }
                    _ => Err(format!(
                        "COUNT(*) over events returned {rows:?}, outside {}..={inserted_by_now}",
                        inputs.initial_events
                    )),
                }
            }
            ServeOp::Insert => {
                let id = self.next_event.fetch_add(1, Ordering::SeqCst);
                self.state.service.db().insert("events", &[id, id % 10]);
                Ok(None)
            }
        }
    }

    /// One round of a client's sequence; `spans_on` also records a span
    /// per operation, which is all the tracing this workload has.
    fn round(&self, client: &Client, ops: &[ServeOp], spans_on: bool, log: &mut ClientLog) {
        for &op in ops {
            let class = class_of(op);
            let (seconds, reply) = if spans_on {
                log.trace.next_op();
                let mut out = None;
                log.trace.span(CLASS_NAMES[class], |_| {
                    out = Some(timed(|| self.perform(client, op)))
                });
                out.expect("the span ran")
            } else {
                timed(|| self.perform(client, op))
            };
            match reply {
                Ok(reply) => log.degraded += reply.is_some_and(|r| r.degraded) as u64,
                Err(e) => log.failures.push(e),
            }
            log.samples.push(Sample {
                class,
                stmt: match op {
                    ServeOp::Warm { stmt, .. } => stmt,
                    _ => 0,
                },
                ms: seconds * 1e3,
                spans_on,
            });
        }
    }
}

fn setup_serve(
    args: &RunArgs,
    star: &[Statement],
    scan: &Statement,
    sessions: usize,
) -> Result<(ServeState, Vec<Client>), String> {
    let tables = workloads::serve_tables(args.seed, &args.scale);
    let db = Db::load(&tables, None);
    let star_stmts = star
        .iter()
        .map(|s| db.prepare(s.sql))
        .collect::<Result<Vec<_>, _>>()?;
    let scan_stmt = db.prepare(scan.sql)?;
    let count = db.prepare(workloads::EVENTS_COUNT_SQL)?;
    let service = Service::new(db);
    let clients: Vec<Client> = (0..sessions).map(|_| service.client()).collect();
    // Warm the shared plan cache through a session, as a client would.
    for (s, stmt) in star.iter().zip(&star_stmts) {
        for &c in &s.consts {
            clients[0].execute(stmt, &s.params(c))?;
        }
    }
    clients[0].execute(&scan_stmt, &scan.params(scan.consts[0]))?;
    clients[0].execute(&count, &[])?;
    let state = ServeState {
        tables,
        service,
        star: star_stmts,
        scan: scan_stmt,
        count,
    };
    Ok((state, clients))
}

/// Correctness before speed, through the first client's sessions:
/// every statement and constant against its reference answer.
fn verify_serve<'a>(
    args: &RunArgs,
    star: &'a [Statement],
    scan: &'a Statement,
    state: &ServeState,
    first: &Client,
    attempted: &mut u64,
    failures: &mut Failures,
) -> ServeInputs<'a> {
    let mut verify = |stmt: &Statement, constant: i64, reply: Result<Reply, String>| -> Digest {
        *attempted += 1;
        reply
            .and_then(|r| matches_reference(stmt, &state.tables, constant, r))
            .unwrap_or_else(|e| {
                failures.record(|| e);
                Digest::default()
            })
    };
    let mut star_expected: Vec<Vec<Digest>> = star
        .iter()
        .zip(&state.star)
        .map(|(s, prepared)| {
            s.consts
                .iter()
                .map(|&c| verify(s, c, timed(|| first.execute(prepared, &s.params(c))).1))
                .collect()
        })
        .collect();
    let scan_expected = verify(
        scan,
        scan.consts[0],
        timed(|| first.execute(&state.scan, &scan.params(scan.consts[0]))).1,
    );
    let join5 = &star[3];
    let cold_texts: Vec<String> = join5.consts.iter().map(|&c| join5.text(c)).collect();
    let cold_expected: Vec<Digest> = join5
        .consts
        .iter()
        .zip(&cold_texts)
        .map(|(&c, text)| verify(join5, c, timed(|| first.query_text(text)).1))
        .collect();
    if std::env::var_os(CORRUPT_ORACLE_ENV).is_some() {
        star_expected[0][0].checksum ^= 1;
    }
    ServeInputs {
        star,
        scan,
        cold_texts,
        star_expected,
        scan_expected,
        cold_expected,
        initial_events: args.scale.event_rows as i64,
    }
}

fn run_serve(args: &RunArgs) -> RunResult {
    let sessions = nproc().min(4) as usize;
    let star = workloads::star_statements([1; 6]);
    let scan = workloads::big_scan_statement();
    let sequences: Vec<Vec<ServeOp>> = (0..sessions)
        .map(|client| workloads::serve_sequence(args.seed, client, args.scale.serve_round_ops))
        .collect();
    let mut failures = Failures::default();
    let mut attempted = 0u64;
    let mut inputs: Option<ServeInputs> = None;
    let mut segments = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut degraded = 0;
    let mut spanned_seconds = 0.0;
    let mut counters = Counters::default();
    let mut rounds = 0;
    let mut inserted = 0;
    let mut facts = Vec::new();
    let mut scaling = (0.0, 0.0);
    let mut load = (0.0, 0);
    for index in 0..args.scale.segments {
        let (setup_seconds, built) = timed(|| setup_serve(args, &star, &scan, sessions));
        let (state, clients) = match built {
            Ok(built) => built,
            Err(e) => return not_set_up(failures, e),
        };
        let inputs = inputs.get_or_insert_with(|| {
            verify_serve(
                args,
                &star,
                &scan,
                &state,
                &clients[0],
                &mut attempted,
                &mut failures,
            )
        });
        let shared = ServeShared {
            state: &state,
            inputs,
            next_event: AtomicI64::new(inputs.initial_events),
        };

        let counters_before = state.service.db().counters();
        let barrier = Barrier::new(sessions + 1);
        let stop = AtomicBool::new(false);
        let mut round_seconds = Vec::new();
        let mut logs: Vec<(Client, ClientLog)> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .into_iter()
                .zip(&sequences)
                .map(|(client, ops)| {
                    let (shared, barrier, stop) = (&shared, &barrier, &stop);
                    scope.spawn(move || {
                        let mut log = ClientLog::default();
                        let mut round = 0u64;
                        loop {
                            barrier.wait();
                            if stop.load(Ordering::SeqCst) {
                                break;
                            }
                            // A traced run records spans on every other
                            // round, so one process yields both sides of
                            // the overhead comparison.
                            shared.round(&client, ops, args.trace && round % 2 == 1, &mut log);
                            round += 1;
                            barrier.wait();
                        }
                        (client, log)
                    })
                })
                .collect();
            let started = Instant::now();
            loop {
                barrier.wait();
                let round_started = Instant::now();
                barrier.wait();
                round_seconds.push(round_started.elapsed().as_secs_f64());
                // A traced run needs both kinds of round.
                let enough = round_seconds.len() >= if args.trace { 2 } else { 1 };
                if enough && started.elapsed().as_secs_f64() >= args.segment_seconds() {
                    stop.store(true, Ordering::SeqCst);
                    barrier.wait();
                    break;
                }
            }
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .expect("a serving client panicked outside an operation")
                })
                .collect()
        });
        counters.add(&state.service.db().counters().since(&counters_before));
        rounds += round_seconds.len();
        inserted += shared.next_event.load(Ordering::SeqCst) - inputs.initial_events;

        // Throughput is operations over the rounds' wall time: the
        // sessions run side by side.
        let mut segment = Segment::new(setup_seconds);
        segment.busy_seconds = round_seconds.iter().sum();
        for (_, log) in &mut logs {
            segment
                .latencies_ms
                .extend(log.samples.iter().map(|s| s.ms));
            degraded += log.degraded;
            spanned_seconds += CLASS_NAMES.iter().map(|n| log.trace.total(n)).sum::<f64>();
            for e in log.failures.drain(..) {
                failures.record(|| e);
            }
            samples.append(&mut log.samples);
        }
        attempted += segment.latencies_ms.len() as u64;

        load = (
            state.service.db().load_seconds,
            state.service.db().load_rows,
        );
        if index + 1 == args.scale.segments {
            facts.push(("rows", table_sizes(&state.tables)));
            if args.trace {
                // Scaling: the first client's sequence alone, against
                // all sessions together on the same database.
                let together = segment.latencies_ms.len() as f64 / segment.busy_seconds;
                let (client, _) = &logs[0];
                let mut alone_log = ClientLog::default();
                let alone_started = Instant::now();
                while alone_log.samples.len() < 2 * sequences[0].len()
                    || alone_started.elapsed().as_secs_f64() < args.segment_seconds() / 2.0
                {
                    shared.round(client, &sequences[0], false, &mut alone_log);
                }
                let alone = alone_log.samples.len() as f64 / alone_started.elapsed().as_secs_f64();
                attempted += alone_log.samples.len() as u64;
                for e in alone_log.failures {
                    failures.record(|| e);
                }
                scaling = (together, alone);
            }
        }
        segments.push(segment);
    }

    let mut metrics = Metrics::default();
    facts.extend([
        ("sessions", sessions.to_string()),
        (
            "ops_per_round",
            (sessions * args.scale.serve_round_ops).to_string(),
        ),
        ("rounds", rounds.to_string()),
        ("pool_pages", sut::DEFAULT_POOL_PAGES.to_string()),
        ("events_inserted", inserted.to_string()),
        ("constants", format!("{:?}", star[0].consts)),
    ]);
    if !args.trace {
        end_to_end(&mut metrics, &mut facts, &mut segments);
    } else {
        let (together, alone) = scaling;
        let ops = samples.len();
        let class_p50 = |class: usize, scale: f64| {
            let mut ms: Vec<f64> = samples
                .iter()
                .filter(|s| s.class == class)
                .map(|s| s.ms * scale)
                .collect();
            (median(&mut ms), ms.len())
        };
        for (metric, class, scale) in [
            ("serve.warm_ms_p50", 0, 1.0),
            ("serve.scan_ms_p50", 1, 1.0),
            ("serve.cold_ms_p50", 2, 1.0),
            ("serve.insert_us_p50", 4, 1e3),
        ] {
            let (p50, n) = class_p50(class, scale);
            metrics.set(metric, p50, n);
        }
        for (i, stmt) in star.iter().enumerate() {
            let mut ms: Vec<f64> = samples
                .iter()
                .filter(|s| s.class == 0 && s.stmt == i)
                .map(|s| s.ms)
                .collect();
            metrics.set(
                format!("stmt.{}.ms_p50", stmt.name),
                median(&mut ms),
                ms.len(),
            );
        }
        metrics.set("serve.degraded_share", degraded as f64 / ops as f64, ops);
        storage_and_cache(&mut metrics, &counters, ops as f64, load);

        // Rounds with a span per operation against rounds without.
        let p50_of = |spans_on: bool| {
            let mut ms: Vec<f64> = samples
                .iter()
                .filter(|s| s.spans_on == spans_on)
                .map(|s| s.ms)
                .collect();
            median(&mut ms)
        };
        metrics.set(
            "trace.overhead_share",
            p50_of(true) / p50_of(false) - 1.0,
            ops,
        );
        // The only spans are whole operations, so they cover all of the
        // time the rounds that recorded them spent in operations.
        let timed_in_spans: f64 = samples
            .iter()
            .filter(|s| s.spans_on)
            .map(|s| s.ms * 1e-3)
            .sum();
        metrics.set("trace.coverage", spanned_seconds / timed_in_spans, ops);
        metrics.set("serve.scaling", together / alone, ops);
        facts.push(("scaling_base_ops_per_s", alone.to_string()));
        facts.push(("scaling_sessions_ops_per_s", together.to_string()));
    }
    RunResult {
        attempted,
        failed: failures.0,
        metrics,
        facts,
    }
}
