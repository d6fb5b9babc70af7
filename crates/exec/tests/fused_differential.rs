//! Differential tests for the vectorized engine.
//!
//! Every golden SQL query and fig4-style generated plan is executed on
//! both engines — tuple (the oracle) and vectorized — across batch
//! sizes {1, 4, default, 1024} and the parallel-degree ladder
//! (`VOLCANO_THREADS` pins one degree per CI leg); a debug build sweeps
//! only degrees {1, 2} and batch sizes {1, default}, and CI runs the
//! full sweep in release. Batch size 1 is the
//! degenerate case whose behaviour must collapse to tuple-at-a-time
//! semantics. Whatever the configuration, the vectorized engine must
//! produce the identical row *multiset*; at degree 1 the exact sequence
//! must match the tuple engine, and under a sort goal the delivered
//! order must hold at every degree (only sort-key ties may reorder
//! under parallelism).
//!
//! The fallback-coverage tests pin the engine-boundary discipline:
//! non-pipelineable operators (sort, set ops) execute correctly through
//! at most one adapter per genuine engine boundary, with the
//! pipelineable segments around them still fused — down to regions of
//! a single operator sitting directly on such an input. Aggregates —
//! hash and stream alike — never fall back: each is the aggregation
//! sink of its input's region, over an opaque source where that input
//! is not pipelineable.

mod common;

use common::testkit::{
    assert_same_multiset, assert_same_node_rows, diff_catalog, fig4_inputs, mixed_db, mixed_plan,
    optimize_plan, run_analyzed, run_tuple, sql_cases, swept_batch_configs, swept_degrees,
    MIXED_AGG_QUERIES, MIXED_SCAN_QUERIES, SQL_QUERIES,
};
use volcano_core::PhysicalProps;
use volcano_exec::{
    collect_batches, compile_fused, schema_of, BatchConfig, Database, Engine, ExecOptions,
};
use volcano_rel::value::Tuple;
use volcano_rel::{
    AggFunc, AggSpec, AttrId, Cmp, ColumnDef, JoinPred, Pred, RelAlg, RelModel, RelModelOptions,
    RelPlan, RelProps,
};
use volcano_sql::plan_query;

/// Assert `rows` are non-decreasing on the given key column positions.
fn assert_sorted_on(rows: &[Tuple], key_positions: &[usize], tag: &str) {
    for pair in rows.windows(2) {
        let a: Vec<_> = key_positions.iter().map(|&p| &pair[0][p]).collect();
        let b: Vec<_> = key_positions.iter().map(|&p| &pair[1][p]).collect();
        assert!(
            a <= b,
            "{tag}: output violates the delivered sort order ({a:?} before {b:?})"
        );
    }
}

/// Run `plan` on both engines at every batch size and assert the
/// cross-engine discipline holds: the same rows, and the same output
/// rows counted for every plan node.
fn assert_engines_agree(db: &Database, plan: &RelPlan, tag: &str, degree: u32) {
    let (tuple_rows, tuple_nodes) = run_analyzed(db, plan, Engine::Tuple);
    let key_positions: Vec<usize> = {
        let schema = schema_of(db, plan);
        plan.delivered
            .sort
            .iter()
            .map(|a| {
                schema
                    .iter()
                    .position(|s| s == a)
                    .unwrap_or_else(|| panic!("{tag}: sort key {a:?} missing from output schema"))
            })
            .collect()
    };
    for cfg in swept_batch_configs() {
        let (fused_rows, fused_nodes) = run_analyzed(db, plan, Engine::Fused(cfg));
        let mtag = format!("{tag}: deg={degree} batch={}", cfg.batch_size);
        assert_same_multiset(&tuple_rows, &fused_rows, &mtag);
        assert_same_node_rows(plan, &tuple_nodes, &fused_nodes, &mtag);
        if !key_positions.is_empty() {
            assert_sorted_on(&fused_rows, &key_positions, &mtag);
        }
        if degree == 1 {
            assert_eq!(
                tuple_rows, fused_rows,
                "{mtag}: serial vectorized execution must be sequence-identical to the tuple engine"
            );
        }
    }
}

fn options(degree: u32) -> RelModelOptions {
    RelModelOptions::default().with_parallel_degree(degree)
}

#[test]
fn sql_golden_queries_agree_on_both_engines() {
    for degree in swept_degrees() {
        for case in sql_cases(options(degree)) {
            assert_engines_agree(&case.db, &case.plan, &case.tag, degree);
        }
    }
}

#[test]
fn fig4_plans_agree_on_both_engines() {
    for input in fig4_inputs(&[2, 3], 0..2, false) {
        for degree in swept_degrees() {
            let model = RelModel::new(
                input.catalog.clone(),
                RelModelOptions::paper_fig4().with_parallel_degree(degree),
            );
            let tag = format!("{} deg={degree}", input.tag);
            let plan = optimize_plan(&model, &input.expr, input.goal.clone(), &tag);
            assert_engines_agree(&input.db, &plan, &tag, degree);
        }
    }
}

/// Sorted goals: the vectorized engine must deliver the sort order at
/// every degree — parallelism and fusion may never leak through the sort.
#[test]
fn fig4_sorted_goals_preserve_order_on_fused() {
    for input in fig4_inputs(&[2], 0..2, true) {
        for degree in swept_degrees() {
            let model = RelModel::new(
                input.catalog.clone(),
                RelModelOptions::paper_fig4().with_parallel_degree(degree),
            );
            let tag = format!("{} deg={degree}", input.tag);
            let plan = optimize_plan(&model, &input.expr, input.goal.clone(), &tag);
            assert!(
                !plan.delivered.sort.is_empty(),
                "{tag}: expected a sort-delivering plan"
            );
            assert_engines_agree(&input.db, &plan, &tag, degree);
        }
    }
}

// ---------------------------------------------------------------------
// Serial plans (the model's default degree 1), compared whatever degree
// `VOLCANO_THREADS` pins for the suites above.
// ---------------------------------------------------------------------

#[test]
fn serial_sql_golden_queries_agree() {
    for sql in SQL_QUERIES {
        let mut catalog = diff_catalog();
        let q = plan_query(sql, &mut catalog).expect("query must parse");
        let model = RelModel::with_defaults(catalog.clone());
        let goal = RelProps::sorted(q.order_by.clone());
        let plan = optimize_plan(&model, &q.expr, goal, sql);
        let db = Database::in_memory(catalog);
        db.generate(42);
        assert_engines_agree(&db, &plan, sql, 1);
    }
}

#[test]
fn serial_fig4_plans_agree() {
    for input in fig4_inputs(&[2, 3], 0..3, false) {
        let model = RelModel::new(input.catalog.clone(), RelModelOptions::paper_fig4());
        let plan = optimize_plan(&model, &input.expr, input.goal.clone(), &input.tag);
        assert_engines_agree(&input.db, &plan, &input.tag, 1);
    }
}

/// The same fig4 workload, but demanding a sorted result: the root plan
/// carries a sort property, so the engines must agree on exact row
/// order (not just the multiset).
#[test]
fn serial_fig4_sorted_goal_agrees() {
    for input in fig4_inputs(&[2], 0..2, true) {
        let model = RelModel::new(input.catalog.clone(), RelModelOptions::paper_fig4());
        let plan = optimize_plan(&model, &input.expr, input.goal.clone(), &input.tag);
        assert!(
            !plan.delivered.sort.is_empty(),
            "{}: expected a sort-delivering plan",
            input.tag
        );
        assert_engines_agree(&input.db, &plan, &input.tag, 1);
    }
}

// ---------------------------------------------------------------------
// One-operator regions: a filter, projection, hash join or hash
// aggregate sitting *directly on* an input the vectorized lowering does
// not pipeline. The optimizer rarely produces these shapes, so the
// plans are assembled by hand.
// ---------------------------------------------------------------------

/// A hand-assembled plan node; costs and group are carried over from
/// `like` (execution reads neither).
fn node(like: &RelPlan, alg: RelAlg, inputs: Vec<RelPlan>, delivered: RelProps) -> RelPlan {
    RelPlan {
        alg,
        delivered,
        inputs,
        ..like.clone()
    }
}

#[test]
fn single_operator_regions_over_opaque_inputs_agree() {
    let mut catalog = diff_catalog();
    catalog.add_table(
        "ix",
        500.0,
        vec![
            ColumnDef::int("k", 500.0).indexed(),
            ColumnDef::int("v", 10.0),
        ],
    );
    let attr = |t: &str, c: &str| {
        let table = catalog.table_by_name(t).unwrap();
        table.columns.iter().find(|col| col.name == c).unwrap().attr
    };
    let table = |t: &str| catalog.table_by_name(t).unwrap().id;
    let (emp_id, emp_dept, emp_salary) = (
        attr("emp", "id"),
        attr("emp", "dept"),
        attr("emp", "salary"),
    );
    let (dept_id, dept_region) = (attr("dept", "id"), attr("dept", "region"));
    let (ix_k, ix_v) = (attr("ix", "k"), attr("ix", "v"));
    let db = Database::in_memory(catalog.clone());
    db.generate(42);

    // Any optimized plan serves as the template for cost and group.
    let model = RelModel::with_defaults(catalog.clone());
    let like = {
        let q = plan_query("SELECT emp.id FROM emp", &mut catalog.clone()).unwrap();
        optimize_plan(&model, &q.expr, RelProps::any(), "template")
    };
    let scan = |t: &str| node(&like, RelAlg::FileScan(table(t)), vec![], RelProps::any());
    let sort = |input: RelPlan, keys: Vec<AttrId>| {
        node(
            &like,
            RelAlg::Sort(keys.as_slice().into()),
            vec![input],
            RelProps::sorted(keys),
        )
    };

    // The four non-pipelineable inputs, each with: the attribute a
    // filter and an aggregate read, a projection of its schema, and a
    // join key into `dept` (emp-shaped inputs) or `region`.
    struct Opaque {
        name: &'static str,
        plan: RelPlan,
        value: AttrId,
        project: Vec<AttrId>,
        join: (AttrId, &'static str, AttrId),
    }
    let region_id = attr("region", "id");
    let opaque = vec![
        Opaque {
            name: "sort",
            plan: sort(scan("emp"), vec![emp_salary]),
            value: emp_salary,
            project: vec![emp_salary, emp_id],
            join: (emp_dept, "dept", dept_id),
        },
        Opaque {
            name: "merge_join",
            plan: node(
                &like,
                RelAlg::MergeJoin(JoinPred::eq(emp_dept, dept_id)),
                vec![
                    sort(scan("emp"), vec![emp_dept]),
                    sort(scan("dept"), vec![dept_id]),
                ],
                RelProps::sorted(vec![emp_dept]),
            ),
            value: emp_dept,
            project: vec![emp_dept, dept_region, emp_id],
            join: (dept_region, "region", region_id),
        },
        Opaque {
            name: "index_scan",
            plan: node(
                &like,
                RelAlg::IndexScan(table("ix"), ix_k),
                vec![],
                RelProps::sorted(vec![ix_k]),
            ),
            value: ix_k,
            project: vec![ix_k],
            join: (ix_v, "region", region_id),
        },
        Opaque {
            name: "hash_union",
            plan: node(
                &like,
                RelAlg::HashUnion,
                vec![
                    node(
                        &like,
                        RelAlg::ProjectOp(vec![emp_dept]),
                        vec![scan("emp")],
                        RelProps::any(),
                    ),
                    node(
                        &like,
                        RelAlg::ProjectOp(vec![dept_id]),
                        vec![scan("dept")],
                        RelProps::any(),
                    ),
                ],
                RelProps::any(),
            ),
            value: emp_dept,
            project: vec![emp_dept],
            join: (emp_dept, "dept", dept_id),
        },
    ];

    for o in opaque {
        let order = o.plan.delivered.clone();
        let (key, other, other_key) = o.join;
        let spec = AggSpec {
            group_by: vec![o.value],
            aggs: vec![
                (AggFunc::CountStar, AttrId(9_000)),
                (AggFunc::Sum(o.value), AttrId(9_001)),
            ],
        };
        let shapes = [
            // A filter keeps its input's order.
            (
                "filter",
                node(
                    &like,
                    RelAlg::Filter(Pred::single(Cmp::lt(o.value, 12i64))),
                    vec![o.plan.clone()],
                    order.clone(),
                ),
            ),
            // So does a projection that keeps the leading sort key.
            (
                "project",
                node(
                    &like,
                    RelAlg::ProjectOp(o.project.clone()),
                    vec![o.plan.clone()],
                    order.clone(),
                ),
            ),
            (
                "join_build",
                node(
                    &like,
                    RelAlg::HybridHashJoin(JoinPred::eq(key, other_key)),
                    vec![o.plan.clone(), scan(other)],
                    RelProps::any(),
                ),
            ),
            (
                "join_probe",
                node(
                    &like,
                    RelAlg::HybridHashJoin(JoinPred::eq(other_key, key)),
                    vec![scan(other), o.plan.clone()],
                    RelProps::any(),
                ),
            ),
            // A stream aggregate reads its input in key order and must
            // hand the groups on in that order: the vectorized sink
            // emits groups first-seen, which is the same thing.
            (
                "stream_aggregate",
                node(
                    &like,
                    RelAlg::StreamAggregate(spec.clone()),
                    vec![sort(o.plan.clone(), vec![o.value])],
                    RelProps::sorted(vec![o.value]),
                ),
            ),
            // Groups come out in table order, which the engines need
            // not share: a sort above pins the sequence.
            (
                "aggregate",
                sort(
                    node(
                        &like,
                        RelAlg::HashAggregate(spec),
                        vec![o.plan.clone()],
                        RelProps::any(),
                    ),
                    vec![o.value],
                ),
            ),
        ];
        for (shape, plan) in shapes {
            let tag = format!("{shape} over {}", o.name);
            let compiled = compile_fused(&db, &plan, BatchConfig::default());
            let report = &compiled.report;
            assert!(
                report.fallback_segments() >= 1,
                "{tag}: the input must run on the tuple operators"
            );
            // The operator above the input is a region of its own, fed
            // through the one adapter at the boundary — the aggregate as
            // that region's sink, straight over the opaque source.
            let sourced = if shape.ends_with("aggregate") {
                assert_eq!(report.agg_sinks, 1, "{tag}: the aggregate is a sink");
                assert!(
                    !report
                        .fallback_ops
                        .iter()
                        .any(|op| op.contains("aggregate")),
                    "{tag}: no aggregate runs on the tuple engine"
                );
                "tuple_to_batch→agg"
            } else {
                // No `→stage` required: an identity projection over the
                // input is pruned away, leaving the source alone.
                "tuple_to_batch"
            };
            assert!(
                report
                    .pipelines
                    .iter()
                    .any(|p| p.label.starts_with(sourced)),
                "{tag}: expected a pipeline sourced from the opaque input, got {:?}",
                report
                    .pipelines
                    .iter()
                    .map(|p| &p.label)
                    .collect::<Vec<_>>()
            );
            assert!(!run_tuple(&db, &plan).is_empty(), "{tag}: vacuous case");
            assert_engines_agree(&db, &plan, &tag, 1);
        }
    }
}

/// Fallback coverage: the golden list contains sorts, an aggregate, and
/// a union. Sorts and unions are not fusable — each must execute
/// correctly on the fused engine, the fusable segments beneath/around
/// them must still fuse, and the adapter count must stay within one
/// adapter per engine boundary (a fallback operator has at most two
/// boundary edges below/above it in these unary/binary plans, plus one
/// possible boundary at the root). Hash aggregates terminate a fused
/// pipeline in an aggregation sink instead of falling back: the golden
/// aggregate query must produce an agg sink and zero adapters.
#[test]
fn fallback_operators_fuse_around_with_bounded_adapters() {
    let mut fallbacks_seen = Vec::new();
    let mut agg_sinks_seen = 0usize;
    for case in sql_cases(options(1)) {
        let compiled = compile_fused(&case.db, &case.plan, BatchConfig::default());
        let report = &compiled.report;
        let mut op = compiled.operator;
        let rows = collect_batches(op.as_mut());
        assert_eq!(
            run_tuple(&case.db, &case.plan),
            rows,
            "{}: fused execution through fallbacks diverged",
            case.tag
        );
        assert!(
            report.adapters <= 2 * report.fallback_segments() + 1,
            "{}: {} adapters for {} fallback segment(s) — more than one \
             adapter per engine boundary",
            case.tag,
            report.adapters,
            report.fallback_segments()
        );
        if report.fallback_segments() > 0 {
            assert!(
                report.pipelines_fused() >= 1,
                "{}: fusable segments under the fallback must still fuse",
                case.tag
            );
        }
        // Adapters around an agg sink can only come from *other*
        // fallback segments (e.g. a sort above it) — never from the
        // aggregate itself.
        if report.agg_sinks > 0 && report.fallback_segments() == 0 {
            assert_eq!(
                report.adapters, 0,
                "{}: a fused terminal aggregate must report 0 adapters",
                case.tag
            );
        }
        agg_sinks_seen += report.agg_sinks;
        fallbacks_seen.extend(report.fallback_ops.iter().copied());
    }
    // The golden list must actually exercise the fallback families —
    // and aggregates must never be among them.
    for family in ["sort", "union"] {
        assert!(
            fallbacks_seen.iter().any(|op| op.contains(family)),
            "golden queries produced no {family} fallback (saw {fallbacks_seen:?})"
        );
    }
    assert!(
        !fallbacks_seen.iter().any(|op| op.contains("aggregate")),
        "aggregates must not fall back to the tuple engine (saw {fallbacks_seen:?})"
    );
    assert!(
        agg_sinks_seen >= 1,
        "golden queries produced no fused aggregation sink"
    );
}

/// A fully fusable pipeline plan must compile to zero fallback segments
/// and zero adapters: one region, straight from the heap file to the
/// consumer.
#[test]
fn fusable_plans_compile_adapter_free() {
    // Join + filter + projection, no ORDER BY: every operator fuses.
    let sql = "SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id";
    let case = sql_cases(options(1))
        .into_iter()
        .zip(SQL_QUERIES)
        .find(|(_, q)| **q == sql)
        .map(|(c, _)| c)
        .expect("golden join query present");
    let compiled = compile_fused(&case.db, &case.plan, BatchConfig::default());
    assert_eq!(
        compiled.report.fallback_segments(),
        0,
        "join pipeline must fuse completely: {:?}",
        compiled.report.fallback_ops
    );
    assert_eq!(compiled.report.adapters, 0, "no engine boundary expected");
    assert!(
        compiled.report.pipelines_fused() >= 2,
        "expected a build pipeline and an output pipeline"
    );
    let mut op = compiled.operator;
    let rows = collect_batches(op.as_mut());
    assert_eq!(run_tuple(&case.db, &case.plan), rows, "{sql}");
}

/// The prepared-statement / plan-cache path inherits the fused engine:
/// a cache hit re-binds the cached plan and executes it fused, with no
/// optimizer involvement, producing the same rows as the tuple engine.
#[test]
fn plan_cache_hit_executes_on_fused_engine() {
    let case = &sql_cases(options(1))[1]; // the join query
    let db = &case.db;
    let stmt = db
        .prepare("SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id")
        .unwrap();
    let opts = ExecOptions::new().with_executor(Engine::Fused(BatchConfig::default()));
    let cold = db.execute_prepared_opts(&stmt, &[], &opts, None).unwrap();
    assert_eq!(cold.cache, "miss");
    let warm = db.execute_prepared_opts(&stmt, &[], &opts, None).unwrap();
    assert_eq!(warm.cache, "hit");
    assert!(
        warm.search.is_none(),
        "a cache hit must not re-run the optimizer"
    );
    let oracle = db
        .execute_prepared_opts(&stmt, &[], &ExecOptions::new(), None)
        .unwrap();
    assert_eq!(oracle.rows, cold.rows, "fused cold run diverged");
    assert_eq!(oracle.rows, warm.rows, "fused cache-hit run diverged");
}

/// Greedy (move-limited) optimizations still execute on the fused engine
/// — admission control degrading search quality must never change what
/// the chosen engine computes.
#[test]
fn degraded_search_executes_on_fused_engine() {
    let case = &sql_cases(options(1))[2]; // the 3-way join
    let db = &case.db;
    let stmt = db
        .prepare(
            "SELECT emp.id FROM emp, dept, region \
             WHERE emp.dept = dept.id AND dept.region = region.id AND emp.salary < 50 \
             ORDER BY emp.id",
        )
        .unwrap();
    let greedy = ExecOptions::new()
        .with_move_limit(1)
        .with_cache_bypass(true);
    let run = |opts: &ExecOptions| db.execute_prepared_opts(&stmt, &[], opts, None).unwrap();
    let degraded = run(&greedy
        .clone()
        .with_executor(Engine::Fused(BatchConfig::default())));
    let exhaustive = run(&ExecOptions::new().with_cache_bypass(true));
    let goals = |o: &volcano_exec::PreparedOutcome| {
        o.search
            .as_ref()
            .expect("bypass always optimizes")
            .goals_optimized
    };
    assert!(
        goals(&degraded) < goals(&exhaustive),
        "a move limit of one must cut the search on a 3-way join"
    );
    let oracle = run(&greedy);
    // Same (greedy) plan on both engines: identical rows, and the
    // ORDER BY makes the sequence deterministic.
    assert_eq!(oracle.rows, degraded.rows, "degraded fused run diverged");
    assert!(!degraded.rows.is_empty(), "query should return rows");
}

/// Column demand: over tables with string, float and NULL-bearing
/// columns, statements that leave the first, a middle or the last
/// column unread must decode fewer columns than the table has and
/// still return the tuple engine's exact rows at every batch size.
#[test]
fn unread_columns_of_every_type_are_pruned_without_changing_rows() {
    let db = mixed_db();
    for sql in MIXED_SCAN_QUERIES.iter().chain(MIXED_AGG_QUERIES) {
        let plan = mixed_plan(sql, 1);
        let report = compile_fused(&db, &plan, BatchConfig::default()).report;
        let masks: Vec<_> = report.pipelines.iter().flat_map(|p| &p.decoded).collect();
        // (A scan feeding a tuple operator has to produce whole rows.)
        assert!(
            !report.fallback_ops.is_empty() || masks.iter().any(|keep| keep.iter().any(|&k| !k)),
            "{sql}: some scan must skip a column, got {masks:?}"
        );
        assert!(!run_tuple(&db, &plan).is_empty(), "{sql}: vacuous case");
        // The engines' hash aggregates need not share a group order:
        // only a delivered sort pins the sequence there.
        let exact = !MIXED_AGG_QUERIES.contains(sql) || !plan.delivered.sort.is_empty();
        assert_engines_agree(&db, &plan, sql, if exact { 1 } else { 0 });
    }
    // `COUNT(*)` alone reads nothing: the scan still counts the rows.
    let plan = mixed_plan("SELECT COUNT(*) FROM mix", 1);
    let report = compile_fused(&db, &plan, BatchConfig::default()).report;
    assert_eq!(report.pipelines[0].decoded, Some(vec![false; 5]));
    assert_eq!(
        run_tuple(&db, &plan),
        vec![vec![volcano_rel::Value::Int(3_000)]]
    );
}

/// The six statement shapes of the `analytic_*` benchmark workloads stay
/// on the vectorized engine: nothing falls back but `filter_sort`'s
/// sort (one adapter on each side of it), and every scan is narrowed to
/// the columns its statement reads.
#[test]
fn analytic_statement_shapes_stay_vectorized_and_pruned() {
    let mut catalog = volcano_rel::Catalog::new();
    let mut sales: Vec<ColumnDef> = ["id", "a", "b", "c", "d", "k", "g", "q"]
        .iter()
        .map(|n| ColumnDef::int(n, 100.0))
        .collect();
    sales.push(ColumnDef::str("note", 16, 1_000.0));
    catalog.add_table("sales", 200_000.0, sales);
    catalog.add_table(
        "dim",
        20_000.0,
        vec![ColumnDef::int("id", 20_000.0), ColumnDef::int("r", 10.0)],
    );
    let db = Database::in_memory(catalog.clone());
    // (statement, fallback operators, adapters, columns decoded per scan)
    let shapes: [(&str, &[&str], usize, &[usize]); 6] = [
        ("SELECT sales.a, sales.b FROM sales", &[], 0, &[2]),
        ("SELECT sales.a FROM sales WHERE sales.c < 2", &[], 0, &[2]),
        (
            "SELECT sales.b, dim.r FROM sales, dim WHERE sales.k = dim.id",
            &[],
            0,
            &[2, 2],
        ),
        (
            "SELECT sales.g, SUM(sales.q) FROM sales GROUP BY sales.g",
            &[],
            0,
            &[2],
        ),
        ("SELECT COUNT(*), SUM(sales.q) FROM sales", &[], 0, &[1]),
        (
            "SELECT sales.id, sales.b FROM sales WHERE sales.c < 2 ORDER BY sales.id",
            &["sort"],
            2,
            &[3],
        ),
    ];
    for (sql, fallbacks, adapters, decoded) in shapes {
        let q = plan_query(sql, &mut catalog.clone()).unwrap();
        let model = RelModel::with_defaults(catalog.clone());
        let goal = RelProps::sorted(q.order_by.clone());
        let plan = optimize_plan(&model, &q.expr, goal, sql);
        let report = compile_fused(&db, &plan, BatchConfig::default()).report;
        assert_eq!(report.fallback_ops, fallbacks, "{sql}");
        assert_eq!(report.adapters, adapters, "{sql}");
        let counts: Vec<usize> = report
            .pipelines
            .iter()
            .flat_map(|p| &p.decoded)
            .map(|keep| keep.iter().filter(|&&k| k).count())
            .collect();
        assert_eq!(counts, decoded, "{sql}: columns decoded per scan");
    }
}
