//! The paper's §3 search mechanisms as exact counts over Figure 4's own
//! query stream; `fig4` prints [`report`] after the figure. Rows: A no
//! pruning, B no failure memo, C a sorted goal, F the left-deep space; E
//! compares one key order with two; a 7-relation chain repeats the rows
//! and adds greedy completion. A and B stay exhaustive, and every run
//! asserts they keep each plan cost bit for bit.

use std::fmt::Write as _;

use volcano_core::{PhysicalProps, SearchOptions, SearchStats};
use volcano_rel::builder::{intersect, join, select_one};
use volcano_rel::{
    Catalog, Cmp, ColumnDef, JoinPred, JoinSpace, QueryBuilder, RelExpr, RelLogical,
    RelModelOptions, RelProps,
};

use crate::runner::{geomean, run_volcano};
use crate::workload::{fig4_query, GeneratedQuery};

/// One configuration: the search space, the mechanisms and the goal.
#[derive(Clone)]
struct Ablation {
    label: &'static str,
    model: RelModelOptions,
    search: SearchOptions,
    /// The goal, from the root's logical properties.
    goal: fn(&RelLogical) -> RelProps,
    /// Searches the first row's space for its goal, exhaustively, so it
    /// must find the first row's plan cost.
    exhaustive: bool,
}

/// Figure 4's configuration, labelled `label` and then `change`d.
fn ablation(label: &'static str, change: fn(&mut Ablation)) -> Ablation {
    let mut a = Ablation {
        label,
        model: RelModelOptions::paper_fig4(),
        search: SearchOptions::default(),
        goal: |_| RelProps::any(),
        exhaustive: true,
    };
    change(&mut a);
    a
}

fn ablations() -> Vec<Ablation> {
    vec![
        ablation("default", |_| {}),
        ablation("A pruning: false", |a| a.search.pruning = false),
        ablation("B failure_memo: false", |a| a.search.failure_memo = false),
        ablation("C goal sorted on column 0", |a| {
            a.goal = |root| RelProps::sorted(vec![root.cols[0].attr]);
            a.exhaustive = false;
        }),
        ablation("F JoinSpace::LeftDeep", |a| {
            (a.model.join_space, a.exhaustive) = (JoinSpace::LeftDeep, false)
        }),
    ]
}

/// One row's totals over a list of queries.
struct Row {
    label: &'static str,
    stats: SearchStats,
    /// Estimated plan cost of each query, in query order.
    costs: Vec<f64>,
    seconds: f64,
}

fn run_rows(ablations: &[Ablation], queries: &[GeneratedQuery]) -> Vec<Row> {
    let run = |a: &Ablation| {
        let mut row = Row {
            label: a.label,
            stats: SearchStats::default(),
            costs: vec![],
            seconds: 0.0,
        };
        for query in queries {
            let v = run_volcano(query, a.model.clone(), a.search.clone(), a.goal);
            row.stats.merge(&v.stats);
            row.costs.push(v.est_exec_ms);
            row.seconds += v.opt_seconds;
        }
        row
    };
    let rows: Vec<Row> = ablations.iter().map(run).collect();
    for (a, row) in ablations.iter().zip(&rows) {
        let same = row.costs == rows[0].costs;
        assert!(!a.exhaustive || same, "{} changed a plan cost", a.label);
    }
    rows
}

fn fig4_rows(n: usize, queries: usize) -> Vec<Row> {
    let stream: Vec<GeneratedQuery> = (0..queries).map(|q| fig4_query(n, q)).collect();
    run_rows(&ablations(), &stream)
}

/// A query over `tables` (name, rows), each with the two integer columns
/// `cols` (name, distinct values).
fn hand_query(
    tables: &[(String, f64)],
    cols: [(&str, f64); 2],
    build: impl FnOnce(&QueryBuilder<'_>) -> RelExpr,
) -> GeneratedQuery {
    let mut catalog = Catalog::new();
    for (name, card) in tables {
        let cols = cols.iter().map(|&(c, d)| ColumnDef::int(c, d)).collect();
        catalog.add_table(name, *card, cols);
    }
    let expr = build(&QueryBuilder::new(&catalog));
    let num_relations = tables.len();
    GeneratedQuery {
        catalog,
        expr,
        num_relations,
    }
}

/// The chain `t0 ⋈ … ⋈ t6` on `k`, with a range selection on each scan.
fn chain_query() -> GeneratedQuery {
    let tables: Vec<_> = (0..7).map(|i| (format!("t{i}"), 5_000.0)).collect();
    hand_query(&tables, [("id", 5_000.0), ("k", 500.0)], |q| {
        let leaf = |t: &str| select_one(q.scan(t), Cmp::lt(q.attr(t, "id"), 500_000i64));
        tables.windows(2).fold(leaf("t0"), |e, w| {
            let pred = JoinPred::eq(q.attr(&w[0].0, "k"), q.attr(&w[1].0, "k"));
            join(e, leaf(&w[1].0), pred)
        })
    })
}

/// Row E's queries: intersections of `n` tables, and a join on two
/// low-distinct keys whose output is far larger than its inputs.
fn order_cases() -> Vec<(&'static str, GeneratedQuery)> {
    let intersection = |n: usize| {
        let tables: Vec<_> = (0..n)
            .map(|i| (format!("s{i}"), 3_000.0 + 500.0 * i as f64))
            .collect();
        hand_query(&tables, [("a", 400.0), ("b", 50.0)], |q| {
            (1..n).fold(q.scan("s0"), |e, i| intersect(e, q.scan(&tables[i].0)))
        })
    };
    let tables = [("l".to_string(), 5_000.0), ("r".to_string(), 5_000.0)];
    let join_query = hand_query(&tables, [("a", 5.0), ("b", 2.0)], |q| {
        let keys = ["a", "b"].map(|k| (q.attr("l", k), q.attr("r", k)));
        join(q.scan("l"), q.scan("r"), JoinPred::on(keys.to_vec()))
    });
    let sizes = [("∩2", 2), ("∩4", 4), ("∩6", 6)];
    let mut cases: Vec<_> = sizes.map(|(case, n)| (case, intersection(n))).into();
    cases.push(("⋈ab", join_query));
    cases
}

/// The column headings after the 4-wide first column.
const COLUMNS: &str = " row                            exprs     goals     moves    pruned  failures   winners      cost        ms";

fn write_rows(out: &mut String, level: &str, rows: &[Row]) {
    for row in rows {
        let (s, n) = (&row.stats, row.costs.len() as f64);
        let counts = [
            s.exprs_created as u64,
            s.goals_optimized,
            s.total_moves(),
            s.moves_pruned,
            s.failures_recorded,
            s.winners_recorded,
        ];
        let _ = write!(out, "{level:>4} {:<26}", row.label);
        for count in counts {
            let _ = write!(out, "{:>10.1}", count as f64 / n);
        }
        let _ = writeln!(
            out,
            "{:>10.1}{:>10.3}",
            geomean(&row.costs),
            row.seconds * 1e3 / n
        );
    }
}

/// The ablation table over Figure 4's first `queries` queries at every
/// level from 2 to `max_rel` relations, then row E and the chain.
pub fn report(queries: usize, max_rel: usize) -> String {
    let mut out = format!(
        "\nAblations (paper §3): per-query means of exact search counts over the\n\
         same queries; cost is the geometric mean of the estimated plan cost\n\
         (ms of estimated execution); the ms column is this machine's search\n\
         time, reported and not claimed. A and B search exhaustively and\n\
         return the default's plan cost on every query (asserted).\n\nrels{COLUMNS}\n",
    );
    for n in 2..=max_rel {
        write_rows(&mut out, &n.to_string(), &fig4_rows(n, queries));
    }
    let _ = writeln!(
        out,
        "\nE, alternative input orders (§3): ∩n intersects n tables, ⋈ab joins\n\
         on keys (a, b); the goal is sorted on (b, a).\n   E{COLUMNS}"
    );
    let orders =
        [("1 key order", 1), ("2 key orders", 2)].map(|(label, sort_order_variants)| Ablation {
            label,
            model: RelModelOptions {
                sort_order_variants,
                ..RelModelOptions::default()
            },
            search: SearchOptions::default(),
            goal: |root| RelProps::sorted(vec![root.cols[1].attr, root.cols[0].attr]),
            exhaustive: false,
        });
    for (case, query) in order_cases() {
        let rows = run_rows(&orders, &[query]);
        write_rows(&mut out, case, &rows);
        let _ = writeln!(
            out,
            "{case:>4} cost ratio {:.2}x",
            rows[0].costs[0] / rows[1].costs[0]
        );
    }
    let _ = writeln!(
        out,
        "\nThe 7-relation chain t0 ⋈ … ⋈ t6 on k (5 000 rows each), one query;\n\
         the last row ends each goal once 3 moves, in promise order, have\n\
         set its best plan (greedy completion, a heuristic).\n    {COLUMNS}"
    );
    let mut chain = ablations();
    chain.push(ablation("greedy (move_limit 3)", |a| {
        (a.search.move_limit, a.exhaustive) = (Some(3), false)
    }));
    write_rows(&mut out, "", &run_rows(&chain, &[chain_query()]));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_counts_repeat_and_exhaustive_rows_keep_every_plan_cost() {
        let bits = |costs: &[f64]| costs.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        for n in 2..=5 {
            let (first, second) = (fig4_rows(n, 3), fig4_rows(n, 3));
            for (a, b) in first.iter().zip(&second) {
                assert!(a.stats.counters_eq(&b.stats), "{} at {n}", a.label);
                let exhaustive = a.label.starts_with(['A', 'B']);
                assert!(!exhaustive || bits(&a.costs) == bits(&first[0].costs));
            }
        }
    }
}
