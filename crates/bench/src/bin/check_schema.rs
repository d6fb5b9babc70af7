//! Schema sanity for the `fig4` harness's JSON export. The file is
//! hand-serialized, so CI runs this checker over a small `fig4` run:
//! parse, check the `benchmark` tag, and verify required fields, types,
//! and basic invariants (a non-empty level sweep, non-negative
//! measurements).
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
    "goals_floored",
    "moves_excluded",
    "winners_recorded",
    "failures_recorded",
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

fn check_file(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let v = parse_json(&text).map_err(|e| e.to_string())?;
    match v.get("benchmark").and_then(Json::as_str) {
        Some("fig4") => check_fig4(&v),
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
