//! Differential fuzz suite for the plan cache.
//!
//! Seeded random parameterized queries are executed two ways — through
//! `prepare` / `execute_prepared_opts` (plan cache on) and through a cold
//! parse → lower → optimize → execute oracle that never touches the
//! cache — under both the tuple and the vectorized engine. All
//! four paths must produce identical row *multisets*, and the identical
//! row *sequence* whenever the query carries an ORDER BY.
//!
//! Each query runs with several independently drawn parameter vectors,
//! so after the first (miss) every execution of a shape must be a warm
//! hit that skips the optimizer entirely (`search: None` — the
//! acceptance check for "warm-cache execution never calls
//! `find_best_plan`").
//!
//! The generator mixes explicit `$n` placeholders with plain literals:
//! the oracle lowers literals as literals while the prepared path
//! auto-parameterizes them, so the suite also differentially tests
//! constant extraction.
//!
//! Case count defaults to 200 and is capped via `CACHE_FUZZ_CASES`
//! (CI sets a smaller value). Failures are *shrunk* by a greedy
//! structural minimizer (the vendored proptest shim does not shrink):
//! predicates, joins, the ORDER BY, and parameter magnitudes are
//! removed or reduced while the failure reproduces, and the minimal
//! SQL + parameter vectors are printed.

mod common;

use common::testkit::{diff_catalog as catalog, run_prepared, run_tuple, sorted_copy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use volcano_core::SearchOptions;
use volcano_exec::{BatchConfig, Database, Engine};
use volcano_rel::value::Tuple;
use volcano_rel::{RelModel, RelOptimizer, RelProps, Value};
use volcano_sql::{lower_with_params, parse};

/// Columns the generator may filter on: (qualified name, table depth
/// needed, value range for parameter draws).
const FILTER_COLS: &[(&str, usize, i64)] = &[
    ("emp.id", 1, 2000),
    ("emp.dept", 1, 20),
    ("emp.salary", 1, 100),
    ("dept.id", 2, 20),
    ("dept.region", 2, 4),
    ("region.id", 3, 4),
];

const OPS: &[&str] = &["<", "<=", "=", ">", ">=", "!="];

/// One filter predicate: index into [`FILTER_COLS`], operator index,
/// and the bound — either an explicit parameter slot or an inline
/// literal (auto-parameterized by `prepare`, kept literal by the
/// oracle).
#[derive(Debug, Clone, PartialEq)]
struct FilterSpec {
    col: usize,
    op: usize,
    literal: bool,
}

/// A generated query plus the parameter vectors to run it with. Values
/// are stored positionally for *all* filters; literal filters splice
/// theirs into the SQL text instead of the parameter vector.
#[derive(Debug, Clone, PartialEq)]
struct Case {
    /// 1 = emp; 2 = emp ⋈ dept; 3 = emp ⋈ dept ⋈ region.
    tables: usize,
    filters: Vec<FilterSpec>,
    order_by: bool,
    /// One value per filter, per run.
    value_sets: Vec<Vec<i64>>,
}

impl Case {
    /// Render to SQL, splicing literal filter values from `values`.
    /// Explicit filters get `$0..` slots in filter order.
    fn sql(&self, values: &[i64]) -> String {
        let mut from = vec!["emp"];
        let mut joins: Vec<String> = Vec::new();
        if self.tables >= 2 {
            from.push("dept");
            joins.push("emp.dept = dept.id".to_string());
        }
        if self.tables >= 3 {
            from.push("region");
            joins.push("dept.region = region.id".to_string());
        }
        let mut conds = joins;
        let mut slot = 0;
        for (f, v) in self.filters.iter().zip(values) {
            let (col, _, _) = FILTER_COLS[f.col];
            let op = OPS[f.op];
            if f.literal {
                conds.push(format!("{col} {op} {v}"));
            } else {
                conds.push(format!("{col} {op} ${slot}"));
                slot += 1;
            }
        }
        let mut sql = format!("SELECT emp.id FROM {}", from.join(", "));
        if !conds.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&conds.join(" AND "));
        }
        if self.order_by {
            sql.push_str(" ORDER BY emp.id");
        }
        sql
    }

    /// The user-supplied parameter vector for one run: values of the
    /// non-literal filters, in filter order.
    fn user_params(&self, values: &[i64]) -> Vec<Value> {
        self.filters
            .iter()
            .zip(values)
            .filter(|(f, _)| !f.literal)
            .map(|(_, v)| Value::Int(*v))
            .collect()
    }
}

fn random_case(rng: &mut StdRng) -> Case {
    let tables = rng.gen_range(1usize..=3);
    let n_filters = rng.gen_range(0usize..=3);
    let eligible: Vec<usize> = FILTER_COLS
        .iter()
        .enumerate()
        .filter(|(_, (_, depth, _))| *depth <= tables)
        .map(|(i, _)| i)
        .collect();
    let filters: Vec<FilterSpec> = (0..n_filters)
        .map(|_| FilterSpec {
            col: eligible[rng.gen_range(0..eligible.len())],
            op: rng.gen_range(0..OPS.len()),
            literal: rng.gen_bool(0.3),
        })
        .collect();
    let runs = rng.gen_range(2usize..=3);
    let value_sets = (0..runs)
        .map(|_| {
            filters
                .iter()
                .map(|f| rng.gen_range(0..FILTER_COLS[f.col].2))
                .collect()
        })
        .collect();
    Case {
        tables,
        filters,
        order_by: rng.gen_bool(0.5),
        value_sets,
    }
}

/// The cold, cache-free oracle: parse the literal SQL, lower with the
/// user parameters, optimize from scratch, run the tuple engine.
fn oracle_rows(db: &Database, sql: &str, params: &[Value]) -> Result<Vec<Tuple>, String> {
    let ast = parse(sql).map_err(|e| format!("oracle parse: {e}"))?;
    let mut catalog = (*db.catalog()).clone();
    let q =
        lower_with_params(&ast, &mut catalog, params).map_err(|e| format!("oracle lower: {e}"))?;
    let model = RelModel::with_defaults(catalog.clone());
    let mut opt = RelOptimizer::new(&model, SearchOptions::default());
    let root = opt.insert_tree(&q.expr);
    let plan = opt
        .find_best_plan(root, RelProps::sorted(q.order_by.clone()), None)
        .map_err(|e| format!("oracle optimize: {e}"))?;
    Ok(run_tuple(db, &plan))
}

/// Run every parameter vector of a case through the cached path (both
/// engines) and the oracle; `Err` describes the first divergence.
fn run_case(db: &Database, case: &Case) -> Result<(), String> {
    // Shapes from earlier cases may still be cached; use this case's
    // first run to learn whether its shape is already warm.
    let sql = case.sql(&case.value_sets[0]);
    let stmt = db
        .prepare(&sql)
        .map_err(|e| format!("prepare failed: {e}"))?;
    for (run, values) in case.value_sets.iter().enumerate() {
        // Literal filters are baked into the oracle's SQL text but are
        // auto-parameterized slots in the prepared template.
        let run_sql = case.sql(values);
        let params = case.user_params(values);
        let want = oracle_rows(db, &run_sql, &params)?;
        // Re-prepare per run: literal splices change the text, but the
        // shape must be identical, so runs after the first must hit.
        let stmt = if run == 0 {
            stmt.clone()
        } else {
            db.prepare(&run_sql)
                .map_err(|e| format!("re-prepare failed: {e}"))?
        };
        let tuple = run_prepared(db, &stmt, &params, Engine::Tuple)
            .map_err(|e| format!("run {run}: prepared (tuple) failed: {e}"))?;
        let fused = run_prepared(db, &stmt, &params, Engine::Fused(BatchConfig::default()))
            .map_err(|e| format!("run {run}: prepared (vectorized) failed: {e}"))?;
        if run > 0 {
            for (engine, out) in [("tuple", &tuple), ("vectorized", &fused)] {
                if out.cache != "hit" || out.search.is_some() {
                    return Err(format!(
                        "run {run} ({engine}): expected a warm hit with no search, got {} (searched: {})",
                        out.cache,
                        out.search.is_some()
                    ));
                }
            }
        }
        if case.order_by {
            if tuple.rows != want {
                return Err(format!(
                    "run {run}: tuple engine ordered rows diverge from oracle"
                ));
            }
            if fused.rows != want {
                return Err(format!(
                    "run {run}: vectorized engine ordered rows diverge from oracle"
                ));
            }
        } else {
            let want = sorted_copy(&want);
            if sorted_copy(&tuple.rows) != want {
                return Err(format!(
                    "run {run}: tuple engine multiset diverges from oracle"
                ));
            }
            if sorted_copy(&fused.rows) != want {
                return Err(format!(
                    "run {run}: vectorized engine multiset diverges from oracle"
                ));
            }
        }
    }
    Ok(())
}

/// Greedy structural shrinking: repeatedly try the simplest reductions
/// and keep any that still fail, until none do.
fn shrink(db: &Database, case: &Case) -> Case {
    let mut best = case.clone();
    loop {
        let mut candidates: Vec<Case> = Vec::new();
        // Drop one filter.
        for i in 0..best.filters.len() {
            let mut c = best.clone();
            c.filters.remove(i);
            for vs in &mut c.value_sets {
                vs.remove(i);
            }
            candidates.push(c);
        }
        // Drop a join level (only if no filter needs it).
        if best.tables > 1 {
            let mut c = best.clone();
            c.tables -= 1;
            if c.filters.iter().all(|f| FILTER_COLS[f.col].1 <= c.tables) {
                candidates.push(c);
            }
        }
        // Drop the ORDER BY.
        if best.order_by {
            let mut c = best.clone();
            c.order_by = false;
            candidates.push(c);
        }
        // Keep only the first failing run.
        if best.value_sets.len() > 1 {
            for keep in 0..best.value_sets.len() {
                let mut c = best.clone();
                c.value_sets = vec![best.value_sets[keep].clone()];
                candidates.push(c);
            }
        }
        // Halve parameter magnitudes.
        if best.value_sets.iter().flatten().any(|v| *v > 1) {
            let mut c = best.clone();
            for vs in &mut c.value_sets {
                for v in vs.iter_mut() {
                    *v /= 2;
                }
            }
            candidates.push(c);
        }
        match candidates
            .into_iter()
            .find(|c| *c != best && run_case(db, c).is_err())
        {
            Some(simpler) => best = simpler,
            None => return best,
        }
    }
}

fn fuzz_cases() -> usize {
    std::env::var("CACHE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

#[test]
fn cached_execution_is_indistinguishable_from_cold_planning() {
    let db = Database::in_memory(catalog());
    db.generate(42);
    let cases = fuzz_cases();
    let mut rng = StdRng::seed_from_u64(0xCAC4E);
    for i in 0..cases {
        let case = random_case(&mut rng);
        if let Err(msg) = run_case(&db, &case) {
            let minimal = shrink(&db, &case);
            let err = run_case(&db, &minimal).expect_err("shrunk case must still fail");
            panic!(
                "case {i}/{cases} failed: {msg}\n\
                 minimal reproduction:\n  sql: {}\n  runs: {:?}\n  error: {err}",
                minimal.sql(&minimal.value_sets[0]),
                minimal
                    .value_sets
                    .iter()
                    .map(|vs| minimal.user_params(vs))
                    .collect::<Vec<_>>(),
            );
        }
    }
    // The run must have exercised the cache for real: every case does
    // at least one warm execution per engine.
    let stats = db.plan_cache().stats();
    assert!(stats.hits > cases as u64, "{stats:?}");
    assert_eq!(
        stats.lookups,
        stats.hits + stats.misses + stats.invalidations
    );
}

/// The same differential, pinned to a handful of hand-written queries
/// that cover every operator family the generator can emit — a fast,
/// deterministic floor under the randomized sweep.
#[test]
fn pinned_shapes_agree_across_all_paths() {
    let db = Database::in_memory(catalog());
    db.generate(7);
    let pinned = [
        Case {
            tables: 1,
            filters: vec![],
            order_by: true,
            value_sets: vec![vec![], vec![]],
        },
        Case {
            tables: 1,
            filters: vec![
                FilterSpec {
                    col: 2,
                    op: 0,
                    literal: false,
                },
                FilterSpec {
                    col: 1,
                    op: 2,
                    literal: true,
                },
            ],
            order_by: true,
            value_sets: vec![vec![50, 3], vec![10, 7], vec![99, 0]],
        },
        Case {
            tables: 3,
            filters: vec![
                FilterSpec {
                    col: 2,
                    op: 0,
                    literal: false,
                },
                FilterSpec {
                    col: 4,
                    op: 2,
                    literal: false,
                },
            ],
            order_by: false,
            value_sets: vec![vec![60, 2], vec![30, 1]],
        },
    ];
    for (i, case) in pinned.iter().enumerate() {
        if let Err(msg) = run_case(&db, case) {
            panic!(
                "pinned case {i} failed: {msg}\nsql: {}",
                case.sql(&case.value_sets[0])
            );
        }
    }
}
