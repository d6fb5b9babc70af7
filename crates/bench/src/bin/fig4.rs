//! Regenerate Figure 4 of the paper: *Exhaustive Optimization
//! Performance* — average optimization time and average estimated
//! execution time per query, for select–join queries over 2–8 input
//! relations, EXODUS baseline vs. Volcano optimizer generator.
//!
//! Usage:
//!   cargo run -p volcano-bench --release --bin fig4 [-- --queries N] [--max-rel M] [--csv PATH]
//!
//! Defaults match the paper: 50 queries per complexity level, 2–8 input
//! relations. Output: one table row per complexity level plus a CSV, then
//! the §3 ablation table over the same queries
//! (`volcano_bench::ablations`), then the "Work space" table: the heap the
//! Volcano search allocates and holds per query, counted by this binary's
//! allocator (`counting_alloc.rs`). Past the paper's 8 relations
//! (`--max-rel` 9 and up) only Volcano's columns and the work-space table
//! continue: EXODUS and the ablation rows stop at 8.

use std::fmt::Write as _;
use std::time::Instant;

use volcano_bench::{ablations, fig4_query, geomean, run_exodus, run_volcano};
use volcano_core::{PhysicalProps, SearchOptions, SearchStats};
use volcano_rel::{RelModelOptions, RelProps};

#[path = "../counting_alloc.rs"]
mod counting_alloc;

#[global_allocator]
static ALLOC: counting_alloc::Counting = counting_alloc::Counting;

/// The paper's largest level. EXODUS aborts every query past it under
/// the default budget, and the ablation rows cost several Volcano
/// searches each, so both stop here.
const PAPER_MAX_REL: usize = 8;

struct Args {
    queries: usize,
    max_rel: usize,
    csv: Option<String>,
    json: Option<String>,
    exodus_budget: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        queries: 50,
        max_rel: 8,
        csv: Some("fig4.csv".to_string()),
        json: Some("BENCH_fig4.json".to_string()),
        exodus_budget: 16 << 20,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--queries" => args.queries = it.next().expect("--queries N").parse().expect("number"),
            "--max-rel" => args.max_rel = it.next().expect("--max-rel M").parse().expect("number"),
            "--csv" => args.csv = Some(it.next().expect("--csv PATH")),
            "--no-csv" => args.csv = None,
            "--json" => args.json = Some(it.next().expect("--json PATH")),
            "--no-json" => args.json = None,
            "--exodus-budget-mb" => {
                args.exodus_budget = it
                    .next()
                    .expect("--exodus-budget-mb N")
                    .parse::<usize>()
                    .expect("number")
                    << 20
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    args
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// JSON has no NaN/Infinity literal; absent aggregates export as 0.
fn j(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// The "Work space" table: per level, the mean allocations per query
/// while exploring and while costing, the mean and maximum peak heap per
/// query, and the `memo_bytes` estimate beside them. A pass of its own,
/// so the figure's statistics are those of plain `find_best_plan` runs.
fn work_space_report(queries: usize, max_rel: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\nWork space: Volcano's heap per query over the same queries, counted by fig4's allocator"
    );
    let _ = writeln!(
        out,
        "{:>4} | {:>12} {:>12} {:>12} | {:>13} {:>12} | {:>15}",
        "rels",
        "allocs expl",
        "allocs cost",
        "allocs total",
        "peak KB mean",
        "peak KB max",
        "memo KB (est.)"
    );
    for n in 2..=max_rel {
        let ws: Vec<_> = (0..queries)
            .map(|q| counting_alloc::measure(&fig4_query(n, q)))
            .collect();
        let per_query = |f: fn(&counting_alloc::WorkSpace) -> u64| {
            ws.iter().map(f).sum::<u64>() as f64 / ws.len().max(1) as f64
        };
        let (explore, cost) = (
            per_query(|w| w.explore_allocs),
            per_query(|w| w.cost_allocs),
        );
        let max_peak = ws.iter().map(|w| w.peak_bytes).max().unwrap_or(0);
        let _ = writeln!(
            out,
            "{:>4} | {:>12.0} {:>12.0} {:>12.0} | {:>13.0} {:>12.0} | {:>15.0}",
            n,
            explore,
            cost,
            explore + cost,
            per_query(|w| w.peak_bytes) / 1024.0,
            max_peak as f64 / 1024.0,
            per_query(|w| w.memo_bytes) / 1024.0
        );
    }
    out
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    let mut csv = String::from(
        "relations,queries,volcano_opt_s,exodus_opt_s,volcano_exec_ms,exodus_exec_ms,\
         volcano_memo_kb,exodus_mesh_kb,exodus_aborts,time_ratio,exec_ratio\n",
    );
    let mut json_levels: Vec<String> = Vec::new();

    println!("Figure 4 reproduction: exhaustive optimization performance");
    println!(
        "{} queries per complexity level, relations of 1,200-7,200 x 100-byte records,",
        args.queries
    );
    println!("one selection per relation, bushy plans, exhaustive search.\n");
    println!(
        "{:>4} | {:>12} {:>12} {:>7} | {:>12} {:>12} {:>7} | {:>9} {:>9} {:>7}",
        "rels",
        "volcano opt",
        "exodus opt",
        "ratio",
        "volcano exec",
        "exodus exec",
        "ratio",
        "memo KB",
        "mesh KB",
        "aborts"
    );

    for n in 2..=args.max_rel {
        let mut v_opt = Vec::new();
        let mut e_opt = Vec::new();
        let mut v_exec = Vec::new();
        let mut e_exec = Vec::new();
        let mut v_mem = Vec::new();
        let mut e_mem = Vec::new();
        let mut aborts = 0usize;
        let mut level_stats = SearchStats::default();

        for q in 0..args.queries {
            let query = fig4_query(n, q);
            let v = run_volcano(
                &query,
                RelModelOptions::paper_fig4(),
                SearchOptions::default(),
                |_| RelProps::any(),
            );
            level_stats.merge(&v.stats);
            v_opt.push(v.opt_seconds);
            v_mem.push(v.stats.memo_bytes as f64);
            if n > PAPER_MAX_REL {
                continue;
            }
            let e = run_exodus(&query, args.exodus_budget);
            e_mem.push(e.mesh_bytes as f64);
            e_opt.push(e.opt_seconds);
            match e.est_exec_ms {
                Some(ec) => {
                    // Plan quality compared only on queries both complete,
                    // as in the paper.
                    v_exec.push(v.est_exec_ms);
                    e_exec.push(ec);
                }
                None => aborts += 1,
            }
        }

        let vo = mean(&v_opt);
        let eo = mean(&e_opt);
        // Estimated execution: geometric means over the queries both
        // optimizers completed; none if EXODUS aborted every query.
        let exec = (!v_exec.is_empty()).then(|| (geomean(&v_exec), geomean(&e_exec)));
        let vm = mean(&v_mem) / 1024.0;
        let em = mean(&e_mem) / 1024.0;
        let exec_cols = match exec {
            Some((ve, ee)) => format!("{:>10.1}ms {:>10.1}ms {:>6.2}x", ve, ee, ee / ve),
            None => format!("{:>12} {:>12} {:>7}", "—", "—", "—"),
        };
        let ran_exodus = !e_opt.is_empty();
        let (opt_cols, mesh_cols) = if ran_exodus {
            (
                format!("{:>10.4}s {:>6.1}x", eo, eo / vo),
                format!("{:>9.0} {:>7}", em, aborts),
            )
        } else {
            (
                format!("{:>11} {:>7}", "—", "—"),
                format!("{:>9} {:>7}", "—", "—"),
            )
        };
        println!("{n:>4} | {vo:>10.4}s {opt_cols} | {exec_cols} | {vm:>9.0} {mesh_cols}");
        let (ve, ee) = exec.unzip();
        let field = |x: Option<f64>| x.map_or(String::new(), |x| x.to_string());
        // Levels past EXODUS's leave its fields empty.
        let exodus = |x: f64| field(ran_exodus.then_some(x));
        let _ = writeln!(
            csv,
            "{n},{},{vo},{},{},{},{vm},{},{},{},{}",
            args.queries,
            exodus(eo),
            field(ve),
            field(ee),
            exodus(em),
            exodus(aborts as f64),
            exodus(eo / vo),
            field(exec.map(|(ve, ee)| ee / ve))
        );
        json_levels.push(format!(
            concat!(
                "{{\"relations\":{},\"queries\":{},",
                "\"volcano_opt_s\":{},\"exodus_opt_s\":{},",
                "\"volcano_exec_ms\":{},\"exodus_exec_ms\":{},",
                "\"volcano_memo_kb\":{},\"exodus_mesh_kb\":{},",
                "\"exodus_aborts\":{},\"search\":{}}}"
            ),
            n,
            args.queries,
            j(vo),
            j(eo),
            ve.unwrap_or(0.0),
            ee.unwrap_or(0.0),
            j(vm),
            j(em),
            aborts,
            level_stats.to_json()
        ));
    }

    if let Some(path) = &args.csv {
        std::fs::write(path, csv).expect("write csv");
        println!("\nCSV written to {path}");
    }
    if let Some(path) = &args.json {
        // Search statistics are summed across a level's queries; the
        // harness-level aggregates mirror the printed table.
        let json = format!(
            "{{\"benchmark\":\"fig4\",\"queries_per_level\":{},\"levels\":[{}]}}\n",
            args.queries,
            json_levels.join(",")
        );
        std::fs::write(path, json).expect("write json");
        println!("JSON written to {path}");
    }
    print!(
        "{}",
        ablations::report(args.queries, args.max_rel.min(PAPER_MAX_REL))
    );
    print!("{}", work_space_report(args.queries, args.max_rel));
    println!(
        "total harness time: {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
