//! Integration test of the `volcano` CLI binary: script in, plans and
//! rows out.

use std::io::Write as _;
use std::process::{Command, Stdio};

fn run_script(script: &str) -> (String, String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_volcano"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn volcano CLI");
    child
        .stdin
        .as_mut()
        .expect("stdin")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("wait");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn full_session() {
    let (stdout, stderr, ok) = run_script(
        "CREATE TABLE emp (id INT, dept INT DISTINCT 10) CARD 500;\
         CREATE TABLE dept (id INT DISTINCT 10) CARD 10;\
         GENERATE SEED 1;\
         EXPLAIN SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id;\
         SELECT dept, COUNT(*) FROM emp GROUP BY dept;",
    );
    assert!(ok, "CLI failed: {stderr}");
    assert!(stdout.contains("created table emp"), "{stdout}");
    assert!(stdout.contains("physical plan"), "{stdout}");
    assert!(
        stdout.contains("hybrid_hash_join") || stdout.contains("merge_join"),
        "{stdout}"
    );
    assert!(stdout.contains("(10 rows)"), "{stdout}");
}

#[test]
fn order_by_output_is_sorted() {
    let (stdout, _, ok) = run_script(
        "CREATE TABLE t (x INT DISTINCT 50) CARD 100;\
         GENERATE SEED 2;\
         SELECT x FROM t WHERE x < 10 ORDER BY x;",
    );
    assert!(ok);
    let values: Vec<i64> = stdout
        .lines()
        .filter(|l| !l.starts_with('(') && !l.starts_with("generated") && !l.starts_with("created"))
        .filter_map(|l| l.trim().parse().ok())
        .collect();
    assert!(!values.is_empty());
    for w in values.windows(2) {
        assert!(w[0] <= w[1], "output not sorted: {values:?}");
    }
}

#[test]
fn parse_errors_exit_nonzero() {
    let (_, stderr, ok) = run_script("SELECT FROM FROM;");
    assert!(!ok);
    assert!(stderr.contains("parse error"), "{stderr}");
}

#[test]
fn semantic_errors_exit_nonzero() {
    let (_, stderr, ok) =
        run_script("CREATE TABLE t (x INT) CARD 10; GENERATE; SELECT ghost FROM t;");
    assert!(!ok);
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn indexed_column_enables_sort_free_order_by() {
    let (stdout, stderr, ok) = run_script(
        "CREATE TABLE t (k INT DISTINCT 20 INDEXED, v INT) CARD 200;\
         GENERATE SEED 1;\
         EXPLAIN SELECT * FROM t ORDER BY k;",
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("index_scan"), "{stdout}");
    assert!(!stdout.contains("sort["), "no sort needed: {stdout}");
}

#[test]
fn explain_analyze_reports_actual_rows() {
    let (stdout, stderr, ok) = run_script(
        "CREATE TABLE t (x INT DISTINCT 10) CARD 100;\
         GENERATE SEED 4;\
         EXPLAIN ANALYZE SELECT * FROM t WHERE x < 5;",
    );
    assert!(ok, "{stderr}");
    assert!(stdout.contains("-- analyze"), "{stdout}");
    assert!(stdout.contains("actual"), "{stdout}");
}

#[test]
fn cost_limit_catches_unreasonable_queries() {
    // §3: "the user interface may permit users to set their own limits
    // to 'catch' unreasonable queries".
    let (_, stderr, ok) = run_script(
        "CREATE TABLE a (x INT DISTINCT 5) CARD 50000;\
         CREATE TABLE b (x INT DISTINCT 5) CARD 50000;\
         GENERATE SEED 1;\
         SET COST LIMIT 1;\
         SELECT COUNT(*) FROM a, b WHERE a.x = b.x;",
    );
    assert!(!ok);
    assert!(stderr.contains("cost limit"), "{stderr}");

    // Turning the limit off lets the same query plan again (we only
    // EXPLAIN to keep the test fast — execution of the cross-heavy join
    // is the expensive part).
    let (stdout, stderr2, ok2) = run_script(
        "CREATE TABLE a (x INT DISTINCT 5) CARD 50000;\
         CREATE TABLE b (x INT DISTINCT 5) CARD 50000;\
         GENERATE SEED 1;\
         SET COST LIMIT 1;\
         SET COST LIMIT OFF;\
         EXPLAIN SELECT COUNT(*) FROM a, b WHERE a.x = b.x;",
    );
    assert!(ok2, "{stderr2}");
    assert!(stdout.contains("cost limit off"), "{stdout}");
}

/// The `actual_rows` of every node in the `-- json --` export, in plan
/// pre-order.
fn json_actual_rows(stdout: &str) -> Vec<u64> {
    let json = stdout
        .lines()
        .skip_while(|l| *l != "-- json --")
        .nth(1)
        .unwrap_or_else(|| panic!("no json export in:\n{stdout}"));
    json.split("\"actual_rows\":")
        .skip(1)
        .map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("a row count")
        })
        .collect()
}

/// The `observations` counter of the last `-- json --` export.
fn json_observations(stdout: &str) -> u64 {
    let json = stdout
        .lines()
        .rfind(|l| l.starts_with("{\"analyze\""))
        .unwrap();
    let rest = json.split("\"observations\":").nth(1).unwrap();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap()
}

/// `SET EXECUTOR FUSED` selects the one vectorized engine: same rows as
/// the tuple engine and the same per-node EXPLAIN ANALYZE — estimated
/// and actual rows per plan node, the JSON export with the tuple run's
/// `actual_rows` — followed by its pipeline lines. `BATCH`, its retired
/// spelling, is a parse error that shows the usage.
#[test]
fn set_executor_selects_one_vectorized_engine() {
    let script = |setting: &str| {
        format!(
            "CREATE TABLE t (x INT DISTINCT 50, y INT DISTINCT 5) CARD 300;\
             CREATE TABLE d (id INT DISTINCT 50, r INT DISTINCT 4) CARD 50;\
             GENERATE SEED 3;\
             {setting}\
             SELECT x FROM t WHERE y < 2 ORDER BY x;\
             EXPLAIN ANALYZE SELECT t.x, d.r FROM t, d WHERE t.x = d.id AND t.y < 2;"
        )
    };
    let rows = |stdout: &str| -> Vec<String> {
        stdout
            .lines()
            .filter(|l| l.trim().parse::<i64>().is_ok())
            .map(str::to_string)
            .collect()
    };
    let (tuple, stderr, ok) = run_script(&script("SET EXECUTOR TUPLE;"));
    assert!(ok, "{stderr}");
    assert!(tuple.contains("executor: tuple"), "{tuple}");
    assert!(!rows(&tuple).is_empty(), "{tuple}");
    let (out, stderr, ok) = run_script(&script("SET EXECUTOR FUSED 64;"));
    assert!(ok, "{stderr}");
    assert!(
        out.contains("executor: fused (batch size 64, parallel degree 1)"),
        "{out}"
    );
    assert_eq!(rows(&tuple), rows(&out));
    assert!(out.contains("fused: 2 pipeline(s)"), "{out}");
    // One line per plan node with its estimate and its actual rows.
    let node_lines = |stdout: &str| -> Vec<String> {
        let lines = stdout.lines().filter(|l| l.contains(" rows) (actual "));
        lines
            .map(|l| l.split(" (actual ").next().unwrap().to_string())
            .collect()
    };
    assert!(node_lines(&out).len() >= 4, "{out}");
    assert_eq!(node_lines(&out), node_lines(&tuple));
    let actual = json_actual_rows(&out);
    assert_eq!(actual, json_actual_rows(&tuple), "{out}");
    assert!(actual.iter().all(|&n| n > 0), "{out}");

    let (_, stderr, ok) = run_script("SET EXECUTOR BATCH 64;");
    assert!(!ok);
    assert!(stderr.contains("parse error"), "{stderr}");
    assert!(
        stderr.contains("SET EXECUTOR <TUPLE|FUSED [n] [PARALLEL k]>"),
        "{stderr}"
    );
}

/// Both engines learn the same from the same plan: a 3-way star join
/// executed with feedback on harvests one observation per scan term and
/// per join pair, on the tuple engine and on the vectorized one.
#[test]
fn both_engines_harvest_every_node_of_a_star_join() {
    let script = |setting: &str| {
        format!(
            "CREATE TABLE fact (a INT DISTINCT 50, b INT DISTINCT 40, v INT DISTINCT 100) CARD 5000;\
             CREATE TABLE dim1 (id INT DISTINCT 50, x INT DISTINCT 5) CARD 50;\
             CREATE TABLE dim2 (id INT DISTINCT 40, y INT DISTINCT 4) CARD 40;\
             GENERATE SEED 5;\
             {setting}\
             SET FEEDBACK ON;\
             PREPARE q AS SELECT dim1.x, dim2.y FROM fact, dim1, dim2 \
               WHERE fact.a = dim1.id AND fact.b = dim2.id AND fact.v < 10;\
             EXECUTE q;\
             EXPLAIN ANALYZE SELECT COUNT(*) FROM dim1;"
        )
    };
    let (tuple, stderr, ok) = run_script(&script("SET EXECUTOR TUPLE;"));
    assert!(ok, "{stderr}");
    let (fused, stderr, ok) = run_script(&script("SET EXECUTOR FUSED;"));
    assert!(ok, "{stderr}");
    assert_eq!(json_observations(&tuple), 3, "{tuple}");
    assert_eq!(json_observations(&fused), 3, "{fused}");
}

/// A plain `SELECT` runs with the session's `SET FEEDBACK` and is
/// planned against the database's catalog, so what it observes reaches
/// the selectivity memory the next plan is estimated with. The
/// EXPLAIN ANALYZE JSON reports the feedback counters, and never
/// reports feedback as disabled in a session that turned it on.
#[test]
fn select_harvests_feedback_into_the_database_catalog() {
    let (out, stderr, ok) = run_script(
        "CREATE TABLE t (x INT DISTINCT 50, y INT DISTINCT 5) CARD 300;\
         GENERATE SEED 3;\
         SET FEEDBACK ON;\
         SELECT x FROM t WHERE y < 2;\
         EXPLAIN ANALYZE SELECT x FROM t WHERE y < 2;",
    );
    assert!(ok, "{stderr}");
    assert_eq!(json_observations(&out), 1, "{out}");
    assert!(!out.contains("\"enabled\":false"), "{out}");
    // The estimate now is the observed selectivity: est equals actual.
    let line = out
        .lines()
        .find(|l| l.contains("filter_scan") && l.contains("(actual "))
        .unwrap_or_else(|| panic!("no analyzed filter scan in:\n{out}"));
    let est = line
        .split(" est ")
        .nth(1)
        .unwrap()
        .split(' ')
        .next()
        .unwrap();
    let actual = line
        .split("(actual ")
        .nth(1)
        .unwrap()
        .split(' ')
        .next()
        .unwrap();
    assert_eq!(est, actual, "{out}");
}

/// EXPLAIN ANALYZE on the vectorized engine says how many of a table's
/// columns each scan decoded: an aggregate reads its keys and inputs, a
/// bare `COUNT(*)` nothing at all, and neither leaves the engine.
#[test]
fn explain_analyze_reports_decoded_columns_per_scan() {
    let (out, stderr, ok) = run_script(
        "CREATE TABLE t (x INT DISTINCT 50, y INT DISTINCT 5, z INT DISTINCT 9) CARD 300;\
         GENERATE SEED 3;\
         SET EXECUTOR FUSED 64;\
         EXPLAIN ANALYZE SELECT y, SUM(z) FROM t GROUP BY y;\
         EXPLAIN ANALYZE SELECT COUNT(*) FROM t;",
    );
    assert!(ok, "{stderr}");
    for golden in [
        "pipeline 0: scan→agg · cols 2/3 · 2 op(s) fused · 300 rows",
        "pipeline 0: scan→agg · cols 0/3 · 2 op(s) fused · 300 rows",
    ] {
        assert!(out.contains(golden), "missing {golden:?} in:\n{out}");
    }
    assert_eq!(
        out.matches("0 fallback segment(s), 0 adapter(s)").count(),
        2
    );
    assert_eq!(out.matches("1 agg sink(s)").count(), 2, "{out}");
}

/// EXPLAIN ANALYZE reports the plan as it really runs: under
/// `PARALLEL 2` a gather makes its region one of degree 2, whose
/// pipelines are listed like any other — marked `×2`, with counters that
/// cover the whole table — and a gather directly under an aggregate does
/// not stop the scan from being pruned.
#[test]
fn explain_analyze_lists_the_pipelines_of_a_parallel_region() {
    let (out, stderr, ok) = run_script(
        "CREATE TABLE t (x INT DISTINCT 50, y INT DISTINCT 5, z INT DISTINCT 9) CARD 20000;\
         CREATE TABLE d (id INT DISTINCT 50, r INT DISTINCT 4) CARD 50;\
         GENERATE SEED 3;\
         SET EXECUTOR FUSED PARALLEL 2;\
         EXPLAIN ANALYZE SELECT COUNT(*) FROM t;\
         EXPLAIN ANALYZE SELECT t.z FROM t, d WHERE t.x = d.id AND t.y < 2;",
    );
    assert!(ok, "{stderr}");
    assert!(out.contains("parallel degree 2"), "{out}");
    // Each placed gather shows in the physical plan and in the analyze
    // lines, its per-node rows.
    assert_eq!(out.matches("gather(2)  (cost ").count(), 2, "{out}");
    assert_eq!(out.matches("gather(2)  (cost=").count(), 2, "{out}");
    assert_eq!(out.matches("1 parallel region(s)").count(), 2, "{out}");
    for golden in [
        "pipeline 0 ×2: scan→agg · cols 0/3 · 2 op(s) fused · 20000 rows",
        "pipeline 0 [build] ×2: scan→build · cols 1/2 · 2 op(s) fused · 50 rows",
        "pipeline 1 ×2: scan→probe+project · cols 3/3 · 3 op(s) fused",
    ] {
        assert!(out.contains(golden), "missing {golden:?} in:\n{out}");
    }
}
