//! Schema sanity for the benchmark JSON exports. The `BENCH_*.json`
//! files are hand-serialized, so CI runs this checker over them after
//! each harness run: parse, dispatch on the `benchmark` tag, and verify
//! required fields, types, and basic invariants (non-empty sweeps,
//! anytime cost ratios ≥ 1, exhaustive baselines).
//!
//! Usage: `check_schema FILE...` — exits non-zero on the first violation.

use std::process::ExitCode;

use volcano_bench::{parse_json, Json};

fn fail(path: &str, msg: &str) -> ExitCode {
    eprintln!("{path}: schema violation: {msg}");
    ExitCode::FAILURE
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_num)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

/// The keys every `SearchStats::to_json` export carries.
const SEARCH_STAT_KEYS: [&str; 20] = [
    "groups_created",
    "exprs_created",
    "group_merges",
    "dead_exprs",
    "transform_matches",
    "transform_fired",
    "substitutes_produced",
    "explore_passes",
    "goals_optimized",
    "winner_hits",
    "failure_hits",
    "alg_moves",
    "enforcer_moves",
    "moves_pruned",
    "moves_excluded",
    "winners_recorded",
    "failures_recorded",
    "greedy_goals",
    "elapsed_us",
    "memo_bytes",
];

fn check_search_stats(v: &Json) -> Result<(), String> {
    for key in SEARCH_STAT_KEYS {
        let x = num(v, key)?;
        if x < 0.0 {
            return Err(format!("search.{key} is negative ({x})"));
        }
    }
    let outcome = v
        .get("outcome")
        .and_then(Json::as_str)
        .ok_or("missing search.outcome")?;
    if outcome != "exhaustive" && !outcome.starts_with("degraded:") {
        return Err(format!("unrecognized search.outcome {outcome:?}"));
    }
    Ok(())
}

fn check_fig4(v: &Json) -> Result<(), String> {
    num(v, "queries_per_level")?;
    let levels = v
        .get("levels")
        .and_then(Json::as_arr)
        .ok_or("missing levels array")?;
    if levels.is_empty() {
        return Err("levels array is empty".to_string());
    }
    for (i, level) in levels.iter().enumerate() {
        let ctx = |e: String| format!("levels[{i}]: {e}");
        let rels = num(level, "relations").map_err(ctx)?;
        if rels < 2.0 {
            return Err(format!("levels[{i}]: relations {rels} < 2"));
        }
        for key in [
            "queries",
            "volcano_opt_s",
            "exodus_opt_s",
            "volcano_exec_ms",
            "exodus_exec_ms",
            "volcano_memo_kb",
            "exodus_mesh_kb",
            "exodus_aborts",
        ] {
            let x = num(level, key).map_err(ctx)?;
            if x < 0.0 {
                return Err(format!("levels[{i}]: {key} is negative ({x})"));
            }
        }
        let search = level
            .get("search")
            .ok_or(format!("levels[{i}]: missing search"))?;
        check_search_stats(search).map_err(ctx)?;
    }
    Ok(())
}

fn check_sweep(v: &Json, name: &str, axis_key: &str) -> Result<(), String> {
    let sweep = v
        .get(name)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing {name} array"))?;
    if sweep.is_empty() {
        return Err(format!("{name} array is empty"));
    }
    let queries = num(v, "queries")?;
    for (i, pt) in sweep.iter().enumerate() {
        let ctx = |e: String| format!("{name}[{i}]: {e}");
        num(pt, axis_key).map_err(ctx)?;
        let degraded = num(pt, "degraded").map_err(ctx)?;
        if degraded > queries {
            return Err(format!(
                "{name}[{i}]: degraded {degraded} exceeds query count {queries}"
            ));
        }
        for key in ["mean_cost_ratio", "max_cost_ratio"] {
            let r = num(pt, key).map_err(ctx)?;
            // The anytime guarantee: budgeted plans never beat the
            // exhaustive optimum.
            if r < 1.0 - 1e-9 {
                return Err(format!("{name}[{i}]: {key} {r} < 1 violates anytime bound"));
            }
        }
        let s = num(pt, "mean_opt_s").map_err(ctx)?;
        if s < 0.0 {
            return Err(format!("{name}[{i}]: mean_opt_s is negative"));
        }
    }
    Ok(())
}

fn check_budget(v: &Json) -> Result<(), String> {
    num(v, "queries")?;
    let rels = num(v, "relations")?;
    if rels < 2.0 {
        return Err(format!("relations {rels} < 2"));
    }
    check_sweep(v, "goal_sweep", "fraction")?;
    check_sweep(v, "deadline_sweep", "deadline_ms")?;
    Ok(())
}

fn check_feedback(v: &Json) -> Result<(), String> {
    for key in ["rows", "reps"] {
        let x = num(v, key)?;
        if x < 1.0 {
            return Err(format!("{key} {x} < 1"));
        }
    }
    let smoke = match v.get("smoke") {
        Some(&Json::Bool(b)) => b,
        _ => return Err("missing or non-boolean field \"smoke\"".to_string()),
    };
    let engines = v
        .get("engines")
        .and_then(Json::as_arr)
        .ok_or_else(|| "missing engines array".to_string())?;
    let mut seen = (false, false);
    for (i, e) in engines.iter().enumerate() {
        let ctx = |err: String| format!("engines[{i}]: {err}");
        match e.get("engine").and_then(Json::as_str) {
            Some("tuple") => seen.0 = true,
            Some("fused") => seen.1 = true,
            other => return Err(format!("engines[{i}]: unknown engine {other:?}")),
        }
        let k = num(e, "executions_to_converge").map_err(ctx)?;
        if k < 1.0 {
            return Err(format!("engines[{i}]: executions_to_converge {k} < 1"));
        }
        // The acceptance gate, per engine: a repeatedly-wrong cached
        // plan must be re-optimized onto the oracle plan within 5
        // executions.
        if !smoke && k > 5.0 {
            return Err(format!(
                "engines[{i}]: executions_to_converge {k} > 5 on a full run \
                 (adaptive re-optimization regression)"
            ));
        }
        for key in ["wrong_ms", "converged_ms", "improvement_ratio"] {
            let x = num(e, key).map_err(ctx)?;
            if x <= 0.0 {
                return Err(format!("engines[{i}]: {key} {x} <= 0"));
            }
        }
    }
    if seen != (true, true) {
        return Err("engines must cover tuple and fused".to_string());
    }
    let k = num(v, "max_executions_to_converge")?;
    if !smoke && k > 5.0 {
        return Err(format!("max_executions_to_converge {k} > 5 on a full run"));
    }
    let g = num(v, "geomean_improvement")?;
    if g <= 0.0 {
        return Err(format!("geomean_improvement {g} <= 0"));
    }
    // The latency gate: on a full run, the converged plan must run at
    // least 2x faster than the misestimated plan it replaced (geomean
    // across engines). Smoke runs (tiny tables, debug builds) are
    // exempt.
    if !smoke && g < 2.0 {
        return Err(format!(
            "geomean_improvement {g:.2} < 2.0 on a full run \
             (feedback stopped paying for itself)"
        ));
    }
    Ok(())
}

fn check_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let v = parse_json(&text).map_err(|e| e.to_string())?;
    match v.get("benchmark").and_then(Json::as_str) {
        Some("fig4") => check_fig4(&v),
        Some("budget") => check_budget(&v),
        Some("feedback") => check_feedback(&v),
        Some(other) => Err(format!("unknown benchmark tag {other:?}")),
        None => Err("missing \"benchmark\" tag".to_string()),
    }
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: check_schema FILE...");
        return ExitCode::FAILURE;
    }
    for path in &paths {
        match check_file(path) {
            Ok(()) => println!("{path}: ok"),
            Err(e) => return fail(path, &e),
        }
    }
    ExitCode::SUCCESS
}
