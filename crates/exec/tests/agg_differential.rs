//! Differential tests for vectorized two-phase parallel aggregation.
//!
//! Every aggregate query shape (grouped and grand-total, each aggregate
//! function, NULL-bearing inputs) runs through the engine differential's
//! oracle (`testkit::assert_differential`) across the parallel-degree
//! ladder {1, 2, 4, 8} and batch sizes {1, default (1 024), 4 096}, over skewed
//! and high-cardinality group distributions, with the naive evaluator
//! checking the tuple engine. Whatever the configuration, the row
//! *multiset* and the per-node row counts must be identical: integer sums
//! accumulate exactly (i64 with checked overflow promotion), so even
//! `SUM`/`AVG` results are bit-identical between the serial plan and
//! the two-phase parallel plan that splits them into per-worker
//! partials merged above the gather.
//!
//! The property tests pin the algebra that makes two-phase aggregation
//! correct: partial states merge associatively — any partition of the
//! input into worker chunks, merged in any order, must equal the
//! one-shot aggregation.
//!
//! `VOLCANO_THREADS=<n>` pins the sweep to one degree (used by the CI
//! serial and 8-way legs).

mod common;

use common::testkit::{
    assert_differential, batch_configs, high_cardinality_rows, mixed_db, mixed_query,
    optimize_plan, run_tuple, skewed_rows, thread_counts, Lcg, MIXED_AGG_QUERIES,
};
use proptest::prelude::*;
use volcano_exec::kernels::agg::{CompiledAgg, GroupScratch, GroupTable};
use volcano_exec::{Batch, BatchConfig, Column, Database};
use volcano_rel::catalog::ColType;
use volcano_rel::value::Tuple;
use volcano_rel::{
    explain_plan, Catalog, ColumnDef, RelAlg, RelExpr, RelModel, RelModelOptions, RelPlan,
    RelProps, Value,
};
use volcano_sql::plan_query;

/// Aggregate query list: one per function, a multi-aggregate row, a
/// grand total, and a sorted grouping (sort above the final merge).
const AGG_QUERIES: &[&str] = &[
    "SELECT cust, COUNT(*) FROM sales GROUP BY cust",
    "SELECT cust, SUM(amount) FROM sales GROUP BY cust",
    "SELECT cust, MIN(amount), MAX(amount) FROM sales GROUP BY cust",
    "SELECT cust, AVG(amount) FROM sales GROUP BY cust",
    "SELECT cust, COUNT(*), SUM(amount), MIN(amount), MAX(amount), AVG(amount) \
     FROM sales GROUP BY cust",
    "SELECT COUNT(*), SUM(amount), AVG(amount) FROM sales",
    "SELECT cust, SUM(amount) FROM sales GROUP BY cust ORDER BY cust",
];

/// The `sales` catalog. The statistics claim a large table so the cost
/// model favours two-phase parallel plans at degree > 1; the actual
/// heap holds whatever rows the test inserts (statistics are estimates,
/// not a contract).
fn sales_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        "sales",
        1_000_000.0,
        vec![
            ColumnDef::int("cust", 100.0),
            ColumnDef::int("amount", 10_000.0),
        ],
    );
    c
}

fn make_db(rows: &[(Option<i64>, Option<i64>)]) -> Database {
    let catalog = sales_catalog();
    let table = catalog.table_by_name("sales").unwrap().id;
    let db = Database::in_memory(catalog);
    let as_value = |x: Option<i64>| x.map(Value::Int).unwrap_or(Value::Null);
    for &(k, v) in rows {
        db.insert(table, vec![as_value(k), as_value(v)]);
    }
    db
}

/// Does the plan split the aggregation: a final merge above a gather
/// above a per-worker partial aggregation?
fn is_two_phase(plan: &RelPlan) -> bool {
    fn walk(p: &RelPlan) -> bool {
        if let RelAlg::Gather(_) = p.alg {
            return matches!(p.inputs[0].alg, RelAlg::PartialHashAggregate(..));
        }
        p.inputs.iter().any(walk)
    }
    matches!(plan.alg, RelAlg::FinalHashAggregate(_)) || plan.inputs.iter().any(walk)
}

/// `sql` over [`sales_catalog`]: its logical expression and its plan
/// optimized at `degree`, with the statement's ORDER BY as the goal.
fn sales_query(sql: &str, degree: u32) -> (RelExpr, RelPlan) {
    let mut catalog = sales_catalog();
    let q = plan_query(sql, &mut catalog).expect("query must parse");
    let options = RelModelOptions::default().with_parallel_degree(degree);
    let model = RelModel::new(catalog.clone(), options);
    let plan = optimize_plan(&model, &q.expr, RelProps::sorted(q.order_by.clone()), sql);
    (q.expr, plan)
}

/// Optimize `sql` at `degree` and run it through the oracle at batch
/// sizes {1, default, 4 × default}, comparing multisets (hash aggregates hand
/// on their groups in no shared order) and checking the tuple engine
/// against the naive evaluator. Integer columns make the comparison
/// exact even for SUM/AVG under parallelism.
fn assert_agg_agrees(db: &Database, sql: &str, degree: u32) {
    let (expr, plan) = sales_query(sql, degree);
    // Grouped queries must split under a parallel model. Grand totals
    // (no group keys) may legitimately stay single-phase: with one
    // output row, the optimizer is free to price a stream aggregate
    // directly above the gather instead.
    if degree > 1 && sql.contains("GROUP BY") {
        assert!(
            is_two_phase(&plan),
            "{sql} deg={degree}: expected a two-phase parallel aggregation, got\n{}",
            explain_plan(&sales_catalog(), &plan)
        );
    }
    let sizes = [
        BatchConfig::with_batch_size(1),
        BatchConfig::default(),
        BatchConfig::with_batch_size(4_096),
    ];
    let tag = format!("{sql}: deg={degree}");
    assert_differential(db, &plan, &tag, &sizes, false, Some(&expr));
}

#[test]
fn skewed_groups_agree_across_engines_and_degrees() {
    let db = make_db(&skewed_rows(4_000, 7));
    for degree in thread_counts() {
        for sql in AGG_QUERIES {
            assert_agg_agrees(&db, sql, degree);
        }
    }
}

#[test]
fn high_cardinality_groups_agree_across_engines_and_degrees() {
    let db = make_db(&high_cardinality_rows(3_000, 11));
    for degree in thread_counts() {
        for sql in AGG_QUERIES {
            assert_agg_agrees(&db, sql, degree);
        }
    }
}

#[test]
fn empty_input_grand_total_yields_one_row_everywhere() {
    let db = make_db(&[]);
    for degree in thread_counts() {
        for sql in [
            "SELECT COUNT(*), SUM(amount), AVG(amount) FROM sales",
            "SELECT cust, COUNT(*) FROM sales GROUP BY cust",
        ] {
            assert_agg_agrees(&db, sql, degree);
        }
    }
    // The grand total over no rows is exactly one row on the oracle.
    let (expr, plan) = sales_query("SELECT COUNT(*), SUM(amount) FROM sales", 1);
    assert_eq!(
        run_tuple(&db, &plan),
        vec![vec![Value::Int(0), Value::Null]],
        "grand total over empty input"
    );
    // A grand total is a stream aggregate (no keys, nothing to sort);
    // its vectorized sink must return that one row too.
    fn streams(p: &RelPlan) -> bool {
        matches!(p.alg, RelAlg::StreamAggregate(_)) || p.inputs.iter().any(streams)
    }
    assert!(streams(&plan), "expected a stream aggregate");
    let tag = "grand total over no rows";
    assert_differential(&db, &plan, tag, &batch_configs(), true, Some(&expr));
}

/// Aggregates over string, float and NULL-bearing columns read only
/// their group keys and inputs — a bare `COUNT(*)` reads nothing — in
/// the serial sink and in the per-worker partial sinks alike: every
/// degree and batch size must return the tuple engine's multiset.
#[test]
fn mixed_type_aggregates_agree_across_engines_and_degrees() {
    let db = mixed_db();
    let mut parallel = 0usize;
    for degree in thread_counts() {
        for sql in MIXED_AGG_QUERIES {
            let (expr, plan) = mixed_query(sql, degree);
            parallel += usize::from(is_two_phase(&plan));
            assert!(!run_tuple(&db, &plan).is_empty(), "{sql}: vacuous case");
            let tag = format!("{sql}: deg={degree}");
            assert_differential(&db, &plan, &tag, &batch_configs(), false, Some(&expr));
        }
    }
    if thread_counts().iter().any(|&n| n > 1) {
        assert!(parallel > 0, "no mixed aggregate ran two-phase");
    }
}

/// Integer sums must be exact past 2^53 — and identical under
/// parallelism, because per-worker partials are exact i64 sums.
#[test]
fn huge_integer_sums_are_exact_at_every_degree() {
    let base = 1i64 << 53;
    let rows: Vec<(Option<i64>, Option<i64>)> =
        (0..64).map(|i| (Some(i % 4), Some(base + i))).collect();
    let db = make_db(&rows);
    for degree in thread_counts() {
        assert_agg_agrees(
            &db,
            "SELECT cust, SUM(amount) FROM sales GROUP BY cust",
            degree,
        );
    }
    // The values themselves stay exact integers (no float rounding):
    // group 0 sums 16 terms of ~2^53, far past f64's exact range.
    let (_, plan) = sales_query("SELECT cust, SUM(amount) FROM sales GROUP BY cust", 1);
    for row in run_tuple(&db, &plan) {
        let Value::Int(k) = row[0] else {
            panic!("integer group key")
        };
        let exact: i64 = (0..64).filter(|i| i % 4 == k).map(|i| base + i).sum();
        assert_eq!(row[1], Value::Int(exact), "group {k} must sum exactly");
    }
}

// ---------------------------------------------------------------------
// Property tests: partial/final merge algebra.
// ---------------------------------------------------------------------

const PROP_AGGS: [CompiledAgg; 5] = [
    CompiledAgg::CountStar,
    CompiledAgg::Sum(1),
    CompiledAgg::Min(1),
    CompiledAgg::Max(1),
    CompiledAgg::Avg(1),
];

fn rows_to_batch(rows: &[(i64, Option<i64>)]) -> Batch {
    let mut k = Column::with_type(ColType::Int);
    let mut v = Column::with_type(ColType::Int);
    for &(key, val) in rows {
        k.push_value(Value::Int(key));
        match val {
            Some(x) => v.push_value(Value::Int(x)),
            None => v.push_null(),
        }
    }
    let mut b = Batch::with_columns(0);
    b.columns = vec![k, v];
    b.set_physical_rows(rows.len());
    b
}

fn emitted_rows(table: &GroupTable, partial: bool) -> Vec<Tuple> {
    let mut out = Batch::default();
    table.emit(0..table.len(), &PROP_AGGS, partial, &mut out);
    let mut rows: Vec<Tuple> = (0..out.live_rows()).map(|i| out.row_at_live(i)).collect();
    rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
    rows
}

/// One-shot aggregation of `rows`.
fn complete_rows(rows: &[(i64, Option<i64>)]) -> Vec<Tuple> {
    let mut scratch = GroupScratch::default();
    let mut t = GroupTable::new(1, &PROP_AGGS);
    if !rows.is_empty() {
        t.accumulate(&rows_to_batch(rows), &[0], &PROP_AGGS, &mut scratch);
    }
    emitted_rows(&t, false)
}

/// Two-phase aggregation: partition `rows` by `assign`, aggregate each
/// chunk separately, and merge the partial outputs in `order`.
fn two_phase_rows(
    rows: &[(i64, Option<i64>)],
    assign: &[usize],
    order: &[usize],
    workers: usize,
) -> Vec<Tuple> {
    let mut scratch = GroupScratch::default();
    let mut partials: Vec<Batch> = Vec::new();
    for w in 0..workers {
        let chunk: Vec<(i64, Option<i64>)> = rows
            .iter()
            .zip(assign)
            .filter(|&(_, &a)| a % workers == w)
            .map(|(&r, _)| r)
            .collect();
        let mut t = GroupTable::new(1, &PROP_AGGS);
        if !chunk.is_empty() {
            t.accumulate(&rows_to_batch(&chunk), &[0], &PROP_AGGS, &mut scratch);
        }
        let mut out = Batch::default();
        t.emit(0..t.len(), &PROP_AGGS, true, &mut out);
        partials.push(out);
    }
    let mut fin = GroupTable::new(1, &PROP_AGGS);
    for &w in order {
        let p = &partials[w % workers];
        if p.live_rows() > 0 {
            fin.merge_partial(p, &PROP_AGGS, &mut scratch);
        }
    }
    emitted_rows(&fin, false)
}

/// Decode a generated `(key, value, null_marker)` triple: a marker of 0
/// makes the value NULL (≈ one in eight rows).
fn decode_rows(raw: &[(i64, i64, u8)]) -> Vec<(i64, Option<i64>)> {
    raw.iter()
        .map(|&(k, v, n)| (k, if n == 0 { None } else { Some(v) }))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Any partition of the input across workers, merged in any order,
    /// equals the one-shot aggregation — the associativity and
    /// commutativity two-phase parallel aggregation relies on. Exact on
    /// integers: per-worker sums are precise i64 partials.
    #[test]
    fn partial_final_merge_is_partition_invariant(
        raw in proptest::collection::vec((-5i64..5, -10_000i64..10_000, 0u8..8), 0..120),
        assign_seed in any::<u64>(),
        workers in 1usize..5,
    ) {
        let rows = decode_rows(&raw);
        let assign: Vec<usize> = {
            let mut rng = Lcg(assign_seed);
            rows.iter().map(|_| rng.next() as usize).collect()
        };
        let expect = complete_rows(&rows);
        let forward: Vec<usize> = (0..workers).collect();
        let reverse: Vec<usize> = (0..workers).rev().collect();
        prop_assert_eq!(&two_phase_rows(&rows, &assign, &forward, workers), &expect);
        prop_assert_eq!(&two_phase_rows(&rows, &assign, &reverse, workers), &expect);
    }

    /// Merging a stream of partials one batch at a time equals merging
    /// them grouped — the final aggregate cannot care how the gather
    /// interleaves worker outputs.
    #[test]
    fn merge_is_associative_over_partial_batches(
        raw_chunks in proptest::collection::vec(
            proptest::collection::vec((-3i64..3, -100i64..100, 0u8..8), 0..30),
            1..5,
        ),
    ) {
        let mut scratch = GroupScratch::default();
        let chunks: Vec<Vec<(i64, Option<i64>)>> =
            raw_chunks.iter().map(|c| decode_rows(c)).collect();
        let all: Vec<(i64, Option<i64>)> = chunks.iter().flatten().copied().collect();
        let expect = complete_rows(&all);

        let mut fin = GroupTable::new(1, &PROP_AGGS);
        for chunk in &chunks {
            let mut w = GroupTable::new(1, &PROP_AGGS);
            if !chunk.is_empty() {
                w.accumulate(&rows_to_batch(chunk), &[0], &PROP_AGGS, &mut scratch);
            }
            // Deliver this worker's groups in several small batches.
            let total = w.len();
            let mut from = 0;
            while from < total {
                let to = (from + 7).min(total);
                let mut out = Batch::default();
                w.emit(from..to, &PROP_AGGS, true, &mut out);
                fin.merge_partial(&out, &PROP_AGGS, &mut scratch);
                from = to;
            }
        }
        prop_assert_eq!(&emitted_rows(&fin, false), &expect);
    }
}
