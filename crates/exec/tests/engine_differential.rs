//! The engine differential: the vectorized engine against the tuple
//! engine, serial and parallel, through the one oracle
//! (`testkit::assert_differential`).
//!
//! Three sweeps optimize their queries at every degree of
//! `testkit::swept_degrees` (degree 1 always; `VOLCANO_THREADS` adds the
//! one degree a CI leg pins, or the ladder {2, 4, 8} with it unset) and
//! run each plan through the oracle under `sweep_at(degree)`: every
//! batch size at the default morsel size and, at degree > 1, every
//! morsel size at the default batch size. The sweeps are the golden SQL
//! statements (also checked against the naive evaluator), the fig4
//! select–join queries of 2 and 3 relations over seeds 0..3, and fig4
//! queries of 2 relations under a sort goal over seeds 0..2. Whatever
//! the configuration, the vectorized engine must return the tuple
//! engine's multiset and per-node row counts, the exact sequence at
//! degree 1, and the delivered order at every degree (only sort-key
//! ties may reorder under parallelism). A debug build sweeps degrees
//! {1, 2} and batch sizes {1, default}; CI runs the full sweep in
//! release.
//!
//! Hand-assembled plans pin the shapes the optimizer rarely produces:
//! one-operator regions over inputs the vectorized lowering does not
//! pipeline, regions under operators that stop reading early, and
//! gathers placed by hand. The compile-report tests pin the engine
//! boundary (at most one adapter per boundary; aggregates are sinks,
//! never fallbacks), column pruning, the morsel counters and the
//! exchange, which a region of degree 1 never reaches.

mod common;

use std::collections::HashMap;

use common::testkit::{
    assert_differential, assert_same_multiset, diff_catalog, fig4_inputs, mixed_db, mixed_query,
    optimize_plan, run_tuple, sql_cases, sweep_at, swept_batch_configs, swept_degrees,
    ParallelInput, MIXED_AGG_QUERIES, MIXED_SCAN_QUERIES, SQL_QUERIES,
};
use volcano_core::PhysicalProps;
use volcano_exec::{
    collect_batches, compile_fused, execute_analyzed, BatchConfig, Database, Engine, ExecOptions,
};
use volcano_rel::{
    AggFunc, AggSpec, AttrId, Catalog, Cmp, ColumnDef, JoinPred, Pred, RelAlg, RelModel,
    RelModelOptions, RelPlan, RelProps,
};
use volcano_sql::plan_query;

fn options(degree: u32) -> RelModelOptions {
    RelModelOptions::default().with_parallel_degree(degree)
}

#[test]
fn sql_golden_queries_agree_at_every_degree() {
    for degree in swept_degrees() {
        for case in sql_cases(options(degree)) {
            let tag = format!("{} deg={degree}", case.tag);
            let (configs, sequence) = (sweep_at(degree), degree == 1);
            assert_differential(
                &case.db,
                &case.plan,
                &tag,
                &configs,
                sequence,
                Some(&case.expr),
            );
        }
    }
}

/// Optimize each input at every swept degree and run it through the
/// oracle. The database is generated once per query and shared across
/// the degrees: only the plan (its gathers) changes with the degree.
fn sweep_fig4(inputs: Vec<ParallelInput>) {
    for input in inputs {
        for degree in swept_degrees() {
            let options = RelModelOptions::paper_fig4().with_parallel_degree(degree);
            let model = RelModel::new(input.catalog.clone(), options);
            let tag = format!("{} deg={degree}", input.tag);
            let plan = optimize_plan(&model, &input.expr, input.goal.clone(), &tag);
            assert!(
                input.goal.sort.is_empty() || !plan.delivered.sort.is_empty(),
                "{tag}: expected a sort-delivering plan"
            );
            let (configs, sequence) = (sweep_at(degree), degree == 1);
            assert_differential(&input.db, &plan, &tag, &configs, sequence, None);
        }
    }
}

#[test]
fn fig4_plans_agree_at_every_degree() {
    sweep_fig4(fig4_inputs(&[2, 3], 0..3, false));
}

/// Sorted goals: the gather's interleaving and the batching must be
/// invisible through the sort above them.
#[test]
fn fig4_sorted_goals_keep_their_order_at_every_degree() {
    sweep_fig4(fig4_inputs(&[2], 0..2, true));
}

/// At degree > 1 with default options the optimizer must actually emit
/// gather plans for at least one golden query — otherwise the sweeps
/// above test nothing but serial execution.
#[test]
fn parallel_degree_produces_gather_plans() {
    fn has_gather(plan: &RelPlan) -> bool {
        matches!(plan.alg, RelAlg::Gather(_)) || plan.inputs.iter().any(has_gather)
    }
    let cases = sql_cases(options(8));
    let n = cases.iter().filter(|c| has_gather(&c.plan)).count();
    assert!(
        n >= 1,
        "expected at least one gather plan among {} golden queries at degree 8",
        cases.len()
    );
    // And degree 1 must stay bit-identical serial: no gather anywhere.
    for case in sql_cases(options(1)) {
        assert!(
            !has_gather(&case.plan),
            "{}: degree 1 must never emit a gather",
            case.tag
        );
    }
}

// ---------------------------------------------------------------------
// Hand-assembled plans.
// ---------------------------------------------------------------------

/// The golden database, with an indexed table `ix(k, v)` beside it, and
/// hand-assembled plans over it, so every shape below is exactly the one
/// named.
struct Hand {
    db: Database,
    catalog: Catalog,
    like: RelPlan,
}

impl Hand {
    fn new() -> Self {
        let mut catalog = diff_catalog();
        catalog.add_table(
            "ix",
            500.0,
            vec![
                ColumnDef::int("k", 500.0).indexed(),
                ColumnDef::int("v", 10.0),
            ],
        );
        let db = Database::in_memory(catalog.clone());
        db.generate(42);
        // Any optimized plan serves as the template for cost and group
        // (execution reads neither).
        let q = plan_query("SELECT emp.id FROM emp", &mut catalog.clone()).unwrap();
        let model = RelModel::with_defaults(catalog.clone());
        let like = optimize_plan(&model, &q.expr, RelProps::any(), "template");
        Hand { db, catalog, like }
    }

    fn attr(&self, table: &str, col: &str) -> AttrId {
        let t = self.catalog.table_by_name(table).unwrap();
        t.columns.iter().find(|c| c.name == col).unwrap().attr
    }

    fn node(&self, alg: RelAlg, inputs: Vec<RelPlan>) -> RelPlan {
        self.delivering(alg, inputs, RelProps::any())
    }

    fn delivering(&self, alg: RelAlg, inputs: Vec<RelPlan>, delivered: RelProps) -> RelPlan {
        RelPlan {
            alg,
            inputs,
            delivered,
            ..self.like.clone()
        }
    }

    fn scan(&self, table: &str) -> RelPlan {
        let id = self.catalog.table_by_name(table).unwrap().id;
        self.node(RelAlg::FileScan(id), vec![])
    }

    fn sort(&self, input: RelPlan, keys: Vec<AttrId>) -> RelPlan {
        let alg = RelAlg::Sort(keys.as_slice().into());
        self.delivering(alg, vec![input], RelProps::sorted(keys))
    }

    /// `build ⋈ probe` on `build.0 = probe.0`.
    fn join(&self, build: (&str, &str), probe: (&str, &str)) -> RelPlan {
        let on = JoinPred::eq(self.attr(build.0, build.1), self.attr(probe.0, probe.1));
        let inputs = vec![self.scan(build.0), self.scan(probe.0)];
        self.node(RelAlg::HybridHashJoin(on), inputs)
    }

    /// `COUNT(*), SUM(value)` grouped by `group_by`.
    fn agg(&self, group_by: Vec<AttrId>, value: AttrId) -> AggSpec {
        AggSpec {
            group_by,
            aggs: vec![
                (AggFunc::CountStar, AttrId(9_000)),
                (AggFunc::Sum(value), AttrId(9_001)),
            ],
        }
    }
}

/// `input` under a hand-placed `gather(degree)`.
fn gathered(input: RelPlan, degree: u32) -> RelPlan {
    RelPlan {
        alg: RelAlg::Gather(degree),
        delivered: PhysicalProps::any(),
        inputs: vec![input.clone()],
        ..input
    }
}

/// One-operator regions: a filter, projection, hash join or aggregate
/// sitting *directly on* an input the vectorized lowering does not
/// pipeline, fed through the one adapter at the boundary.
#[test]
fn single_operator_regions_over_opaque_inputs_agree() {
    let h = Hand::new();
    let (emp_id, emp_dept, emp_salary) = (
        h.attr("emp", "id"),
        h.attr("emp", "dept"),
        h.attr("emp", "salary"),
    );
    let (dept_id, dept_region) = (h.attr("dept", "id"), h.attr("dept", "region"));
    let (ix_k, ix_v, region_id) = (h.attr("ix", "k"), h.attr("ix", "v"), h.attr("region", "id"));
    let ix = h.catalog.table_by_name("ix").unwrap().id;

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
    let project =
        |attr: AttrId, table: &str| h.node(RelAlg::ProjectOp(vec![attr]), vec![h.scan(table)]);
    let opaque = vec![
        Opaque {
            name: "sort",
            plan: h.sort(h.scan("emp"), vec![emp_salary]),
            value: emp_salary,
            project: vec![emp_salary, emp_id],
            join: (emp_dept, "dept", dept_id),
        },
        Opaque {
            name: "merge_join",
            plan: h.delivering(
                RelAlg::MergeJoin(JoinPred::eq(emp_dept, dept_id)),
                vec![
                    h.sort(h.scan("emp"), vec![emp_dept]),
                    h.sort(h.scan("dept"), vec![dept_id]),
                ],
                RelProps::sorted(vec![emp_dept]),
            ),
            value: emp_dept,
            project: vec![emp_dept, dept_region, emp_id],
            join: (dept_region, "region", region_id),
        },
        Opaque {
            name: "index_scan",
            plan: h.delivering(
                RelAlg::IndexScan(ix, ix_k),
                vec![],
                RelProps::sorted(vec![ix_k]),
            ),
            value: ix_k,
            project: vec![ix_k],
            join: (ix_v, "region", region_id),
        },
        Opaque {
            name: "hash_union",
            plan: h.node(
                RelAlg::HashUnion,
                vec![project(emp_dept, "emp"), project(dept_id, "dept")],
            ),
            value: emp_dept,
            project: vec![emp_dept],
            join: (emp_dept, "dept", dept_id),
        },
    ];

    for o in opaque {
        let order = o.plan.delivered.clone();
        let (key, other, other_key) = o.join;
        let spec = h.agg(vec![o.value], o.value);
        let shapes = [
            // A filter keeps its input's order.
            (
                "filter",
                h.delivering(
                    RelAlg::Filter(Pred::single(Cmp::lt(o.value, 12i64))),
                    vec![o.plan.clone()],
                    order.clone(),
                ),
            ),
            // So does a projection that keeps the leading sort key.
            (
                "project",
                h.delivering(
                    RelAlg::ProjectOp(o.project.clone()),
                    vec![o.plan.clone()],
                    order.clone(),
                ),
            ),
            (
                "join_build",
                h.node(
                    RelAlg::HybridHashJoin(JoinPred::eq(key, other_key)),
                    vec![o.plan.clone(), h.scan(other)],
                ),
            ),
            (
                "join_probe",
                h.node(
                    RelAlg::HybridHashJoin(JoinPred::eq(other_key, key)),
                    vec![h.scan(other), o.plan.clone()],
                ),
            ),
            // A stream aggregate reads its input in key order and must
            // hand the groups on in that order: the vectorized sink
            // emits groups first-seen, which is the same thing.
            (
                "stream_aggregate",
                h.delivering(
                    RelAlg::StreamAggregate(spec.clone()),
                    vec![h.sort(o.plan.clone(), vec![o.value])],
                    RelProps::sorted(vec![o.value]),
                ),
            ),
            // Groups come out in table order, which the engines need
            // not share: a sort above pins the sequence.
            (
                "aggregate",
                h.sort(
                    h.node(RelAlg::HashAggregate(spec), vec![o.plan.clone()]),
                    vec![o.value],
                ),
            ),
        ];
        for (shape, plan) in shapes {
            let tag = format!("{shape} over {}", o.name);
            let report = compile_fused(&h.db, &plan, BatchConfig::default()).report;
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
            assert!(!run_tuple(&h.db, &plan).is_empty(), "{tag}: vacuous case");
            assert_differential(&h.db, &plan, &tag, &sweep_at(1), true, None);
        }
    }
}

/// A merge join and a merge intersect stop reading once one input is
/// exhausted, part-way into the batch a region below them handed on:
/// the regions' nodes count up to one batch more than the tuple engine,
/// which stops at the row, and the oracle holds them to that bound.
#[test]
fn regions_under_operators_that_stop_early_agree() {
    let h = Hand::new();
    let (emp_dept, emp_salary) = (h.attr("emp", "dept"), h.attr("emp", "salary"));
    let (dept_id, dept_region) = (h.attr("dept", "id"), h.attr("dept", "region"));
    // A region over each sort: the dept side keeps a few low ids, so it
    // runs out long before the emp side.
    let filtered = |table: &str, key: AttrId, pred: Cmp| {
        let sort = h.sort(h.scan(table), vec![key]);
        let alg = RelAlg::Filter(Pred::single(pred));
        h.delivering(alg, vec![sort], RelProps::sorted(vec![key]))
    };
    let emp = filtered("emp", emp_dept, Cmp::lt(emp_salary, 50i64));
    let dept = filtered("dept", dept_id, Cmp::lt(dept_region, 1i64));
    let sorted_on = |attr| RelProps::sorted(vec![attr]);
    let projected = |input: RelPlan, attr| {
        h.delivering(RelAlg::ProjectOp(vec![attr]), vec![input], sorted_on(attr))
    };
    let plans = [
        (
            "merge_join",
            h.delivering(
                RelAlg::MergeJoin(JoinPred::eq(emp_dept, dept_id)),
                vec![emp.clone(), dept.clone()],
                sorted_on(emp_dept),
            ),
        ),
        (
            "merge_intersect",
            h.delivering(
                RelAlg::MergeIntersect,
                vec![projected(emp, emp_dept), projected(dept, dept_id)],
                sorted_on(emp_dept),
            ),
        ),
    ];
    for (name, plan) in plans {
        let report = compile_fused(&h.db, &plan, BatchConfig::default()).report;
        let over_sorts = report.pipelines.iter();
        let over_sorts = over_sorts.filter(|p| p.label.starts_with("tuple_to_batch→"));
        assert_eq!(over_sorts.count(), 2, "{name}: a region over each sort");
        // The tuple engine's emp sort hands on only part of its rows.
        let nodes = execute_analyzed(&h.db, &h.catalog, &plan, Engine::Tuple).actual_rows();
        // The emp sort: the last node of the first input but its scan.
        let sort = plan.inputs[0].node_count() - 1;
        assert!(0 < nodes[sort] && nodes[sort] < 2_000, "{name}: {nodes:?}");
        assert_differential(&h.db, &plan, name, &sweep_at(1), true, None);
    }
}

/// The pipelineable shapes of the test above, here over scans and under
/// a hand-placed `gather(n)`, plus the shapes in which the gather sits
/// directly under an aggregate and is that region's degree: each
/// compiles to exactly one region of degree `n` (a serial one at
/// `n = 1`) and agrees with the tuple engine at every batch size.
#[test]
fn hand_placed_gathers_agree_at_every_degree_and_batch_size() {
    let h = Hand::new();
    let (emp_id, emp_dept, emp_salary) = (
        h.attr("emp", "id"),
        h.attr("emp", "dept"),
        h.attr("emp", "salary"),
    );
    let count = AggSpec {
        group_by: vec![],
        aggs: vec![(AggFunc::CountStar, AttrId(9_000))],
    };
    let filter = RelAlg::Filter(Pred::single(Cmp::lt(emp_salary, 12i64)));
    let project = RelAlg::ProjectOp(vec![emp_salary, emp_id]);
    let emp_dept_join = h.join(("dept", "id"), ("emp", "dept"));
    // (name, the chain under the gather, the aggregate over it and the
    // label its one pruned pipeline must have).
    let shapes = [
        ("filter", h.node(filter, vec![h.scan("emp")]), None),
        ("project", h.node(project, vec![h.scan("emp")]), None),
        ("join_build", h.join(("emp", "dept"), ("dept", "id")), None),
        ("join_probe", emp_dept_join.clone(), None),
        // The optimizer's grand-total plan at degree 2: the gather is the
        // aggregate's degree, so the scan decodes nothing.
        (
            "stream_aggregate",
            h.scan("emp"),
            Some((RelAlg::StreamAggregate(count.clone()), "scan→agg")),
        ),
        (
            "aggregate",
            h.scan("emp"),
            Some((
                RelAlg::HashAggregate(h.agg(vec![emp_dept], emp_salary)),
                "scan→agg",
            )),
        ),
        (
            "count_over_join",
            emp_dept_join,
            Some((RelAlg::HashAggregate(count), "scan→probe→agg")),
        ),
    ];
    for (shape, chain, over) in &shapes {
        for degree in [1u32, 2, 8] {
            let plan = match over {
                Some((agg, _)) => h.node(agg.clone(), vec![gathered(chain.clone(), degree)]),
                None => gathered(chain.clone(), degree),
            };
            let tag = format!("{shape}: gather({degree})");
            let report = compile_fused(&h.db, &plan, BatchConfig::default()).report;
            assert_eq!(report.fallback_segments(), 0, "{tag}");
            assert_eq!(
                report.parallel_regions,
                usize::from(degree > 1),
                "{tag}: one region, of the gather's degree"
            );
            for p in &report.pipelines {
                assert_eq!(p.degree, degree as usize, "{tag}: {}", p.label);
            }
            if let Some((_, label)) = over {
                let p = report.pipelines.last().unwrap();
                assert_eq!(&p.label, label, "{tag}: the sink ends the scan's region");
                let keep = p.decoded.as_ref().expect("scan-sourced");
                assert!(keep.iter().any(|&k| !k), "{tag}: demand crosses the gather");
            }
            assert!(!run_tuple(&h.db, &plan).is_empty(), "{tag}: vacuous case");
            let configs = swept_batch_configs().into_iter();
            let configs: Vec<_> = configs.map(|c| c.with_morsel_pages(2)).collect();
            // A hash aggregate's groups come out in no shared order.
            let sequence = degree == 1 && over.is_none();
            assert_differential(&h.db, &plan, &tag, &configs, sequence, None);
        }
    }
}

// ---------------------------------------------------------------------
// Column demand over string, float and NULL-bearing columns.
// ---------------------------------------------------------------------

/// Statements that leave the first, a middle or the last column unread
/// must decode fewer columns than the table has and still return the
/// tuple engine's exact rows at every batch size, and the naive
/// evaluator's multiset.
#[test]
fn unread_columns_of_every_type_are_pruned_without_changing_rows() {
    let db = mixed_db();
    for sql in MIXED_SCAN_QUERIES.iter().chain(MIXED_AGG_QUERIES) {
        let (expr, plan) = mixed_query(sql, 1);
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
        let sequence = !MIXED_AGG_QUERIES.contains(sql) || !plan.delivered.sort.is_empty();
        assert_differential(&db, &plan, sql, &sweep_at(1), sequence, Some(&expr));
    }
    // `COUNT(*)` alone reads nothing: the scan still counts the rows.
    let (_, plan) = mixed_query("SELECT COUNT(*) FROM mix", 1);
    let report = compile_fused(&db, &plan, BatchConfig::default()).report;
    assert_eq!(report.pipelines[0].decoded, Some(vec![false; 5]));
    assert_eq!(
        run_tuple(&db, &plan),
        vec![vec![volcano_rel::Value::Int(3_000)]]
    );
}

/// Morsel workers decode only what their pipeline reads: each mixed-type
/// statement, run under a `gather(n)`, must compile to a parallel region
/// and agree with both oracles at every batch size, with strings, floats
/// and NULLs among the columns skipped and kept.
#[test]
fn workers_prune_unread_columns_of_every_type() {
    let db = mixed_db();
    for degree in swept_degrees().into_iter().filter(|&n| n > 1) {
        for sql in MIXED_SCAN_QUERIES {
            let (expr, plan) = mixed_query(sql, 1);
            let plan = gathered(plan, degree);
            let tag = format!("{sql}: gather({degree})");
            let compiled = compile_fused(&db, &plan, BatchConfig::default());
            assert_eq!(
                compiled.report.parallel_regions, 1,
                "{tag}: must run on the workers"
            );
            for p in &compiled.report.pipelines {
                let keep = p.decoded.as_ref().expect("scan-sourced");
                let decoded = keep.iter().filter(|&&k| k).count();
                assert_eq!(p.degree, degree as usize, "{tag}: {}", p.label);
                assert!(
                    0 < decoded && decoded < keep.len(),
                    "{tag}: {} cols {decoded}/{}",
                    p.label,
                    keep.len()
                );
            }
            let configs = swept_batch_configs().into_iter();
            let configs: Vec<_> = configs.map(|c| c.with_morsel_pages(2)).collect();
            assert_differential(&db, &plan, &tag, &configs, false, Some(&expr));
        }
    }
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

// ---------------------------------------------------------------------
// The engine boundary.
// ---------------------------------------------------------------------

/// Fallback coverage: the golden list contains sorts, an aggregate, and
/// a union. Sorts and unions are not fusable — the fusable segments
/// beneath/around them must still fuse, and the adapter count must stay
/// within one adapter per engine boundary (a fallback operator has at
/// most two boundary edges below/above it in these unary/binary plans,
/// plus one possible boundary at the root). Hash aggregates terminate a
/// fused pipeline in an aggregation sink instead of falling back: the
/// golden aggregate query must produce an agg sink and zero adapters.
#[test]
fn fallback_operators_fuse_around_with_bounded_adapters() {
    let mut fallbacks_seen = Vec::new();
    let mut agg_sinks_seen = 0usize;
    for case in sql_cases(options(1)) {
        // (The golden sweep runs these plans through the oracle.)
        let report = &compile_fused(&case.db, &case.plan, BatchConfig::default()).report;
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
/// consumer. (The golden sweep runs it through the oracle.)
#[test]
fn fusable_plans_compile_adapter_free() {
    // Join + filter + projection, no ORDER BY: every operator fuses.
    let case = &sql_cases(options(1))[1];
    assert_eq!(
        case.tag,
        "SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id"
    );
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

// ---------------------------------------------------------------------
// Parallel regions: the merge phase, the morsel report, the exchange.
// ---------------------------------------------------------------------

/// A hash-join build under a gather merges its 32 hash partitions on a
/// pool of workers, not serially on one thread. The
/// [`volcano_exec::MorselStats`] counters are the evidence:
/// `merge_workers` records the pool size of the merge phase and
/// `partition_merges` counts every partition merged through the
/// claim-a-partition loop.
#[test]
fn hash_join_partition_merge_runs_in_parallel() {
    fn join_under_gather(plan: &RelPlan, under: bool) -> bool {
        let under = under || matches!(plan.alg, RelAlg::Gather(n) if n > 1);
        (under && matches!(plan.alg, RelAlg::HybridHashJoin(_)))
            || plan.inputs.iter().any(|c| join_under_gather(c, under))
    }

    let degree = 8;
    let mut builds_checked = 0usize;
    for case in sql_cases(options(degree)) {
        if !join_under_gather(&case.plan, false) {
            continue;
        }
        let oracle = run_tuple(&case.db, &case.plan);
        let compiled = compile_fused(&case.db, &case.plan, BatchConfig::default());
        let mut op = compiled.operator;
        let rows = collect_batches(op.as_mut());
        assert_same_multiset(&oracle, &rows, &case.tag);
        for g in &compiled.gathers {
            if g.merge_workers() == 0 {
                // A gather whose region contains no join build has no
                // merge phase.
                continue;
            }
            assert_eq!(
                g.merge_workers(),
                degree,
                "{}: merge phase must use the full worker pool",
                case.tag
            );
            assert!(
                g.partition_merges() >= 32,
                "{}: every one of the 32 hash partitions must be merged \
                 through the parallel claim loop (got {})",
                case.tag,
                g.partition_merges()
            );
            builds_checked += 1;
        }
    }
    assert!(
        builds_checked > 0,
        "no parallel hash-join build appeared among the golden queries at degree 8"
    );
}

/// A traced *prepared* execution reports its parallel regions: one
/// `MorselPhase` per gather, beside the one `PlanCacheLookup`.
#[test]
fn traced_prepared_execution_reports_morsel_phases() {
    use volcano_core::trace::{CollectingTracer, TraceEvent};

    fn gathers(plan: &RelPlan) -> usize {
        usize::from(matches!(plan.alg, RelAlg::Gather(n) if n > 1))
            + plan.inputs.iter().map(gathers).sum::<usize>()
    }

    let db = Database::in_memory(diff_catalog());
    db.generate(42);
    db.set_parallel_degree(4);
    let opts = ExecOptions::new().with_executor(Engine::Fused(BatchConfig::default()));
    let mut parallel_plans = 0usize;
    for sql in SQL_QUERIES {
        let stmt = db.prepare(sql).expect("prepare");
        let tracer = CollectingTracer::new();
        let out = db
            .execute_prepared_opts(&stmt, &[], &opts, Some(&tracer))
            .expect("execute");
        let events = tracer.take();
        let lookups = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::PlanCacheLookup { .. }))
            .count();
        assert_eq!(lookups, 1, "{sql}: one cache probe per execution");
        let workers: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::MorselPhase { workers, .. } => Some(*workers),
                _ => None,
            })
            .collect();
        assert_eq!(
            workers.len(),
            gathers(&out.plan),
            "{sql}: one MorselPhase per parallel region"
        );
        assert!(workers.iter().all(|&w| w == 4), "{sql}: {workers:?}");
        parallel_plans += usize::from(!workers.is_empty());
    }
    assert!(
        parallel_plans >= 1,
        "no golden query planned a gather at degree 4"
    );
}

/// A region of degree 2 appears in the report like any other: every
/// cursor counts into its pipeline's shared counters and the plan's
/// per-node cells, so they cover the whole table (not one worker's
/// share), every node counts the rows it counts serially, and the
/// feedback harvest reads the same observations as from the serial plan.
#[test]
fn parallel_regions_report_whole_input_counters_and_serial_observations() {
    let h = Hand::new();
    // region ⋈ dept builds first, then dept ⋈ (emp WHERE salary < 50).
    let cheap = Pred::single(Cmp::lt(h.attr("emp", "salary"), 50i64));
    let emp = h.catalog.table_by_name("emp").unwrap().id;
    let on = JoinPred::eq(h.attr("dept", "id"), h.attr("emp", "dept"));
    let inputs = vec![
        h.join(("region", "id"), ("dept", "region")),
        h.node(RelAlg::FilterScan(emp, cheap), vec![]),
    ];
    let serial = h.node(RelAlg::HybridHashJoin(on), inputs);
    let run = |plan: &RelPlan| {
        let engine = Engine::Fused(BatchConfig::default().with_morsel_pages(1));
        execute_analyzed(&h.db, &h.catalog, plan, engine)
    };
    let (serial_run, gathered_plan) = (run(&serial), gathered(serial.clone(), 2));
    let parallel_run = run(&gathered_plan);
    assert_same_multiset(&serial_run.rows, &parallel_run.rows, "three-way join");
    let (serial_report, report) = (
        serial_run.fused.as_ref().unwrap(),
        parallel_run.fused.as_ref().unwrap(),
    );
    let regions = (serial_report.parallel_regions, report.parallel_regions);
    assert_eq!(regions, (0, 1));
    assert_eq!(report.pipelines.len(), 3, "two builds and the output");
    for (s, p) in serial_report.pipelines.iter().zip(&report.pipelines) {
        assert_eq!((s.degree, p.degree), (1, 2), "{}", p.label);
        assert_eq!(s.label, p.label);
        assert!(p.stats.rows() > 0, "{}: {:?}", p.label, p.stats);
        assert_eq!(s.stats.rows(), p.stats.rows(), "{}", p.label);
    }
    // The gather shares its region's output count; below it, every node
    // counts what it counts serially.
    let (actuals, serial_actuals) = (parallel_run.actual_rows(), serial_run.actual_rows());
    assert_eq!(actuals[0], actuals[1], "the gather passes its input");
    assert_eq!(actuals[1..], serial_actuals[..]);
    assert!(serial_actuals.iter().all(|&n| n > 0), "{serial_actuals:?}");
    let observations = volcano_rel::observations(&h.catalog, &gathered_plan, &actuals);
    assert_eq!(observations.len(), 3, "a scan predicate and both joins");
    let serial_observations = volcano_rel::observations(&h.catalog, &serial, &serial_actuals);
    assert_eq!(observations, serial_observations);
}

/// Threads and channels belong to the exchange, and a region of degree 1
/// never goes there: a serial join + aggregate runs every pipeline on
/// the calling thread through one morsel each, while the same plan under
/// a gather starts workers for every phase.
#[test]
fn a_degree_1_region_never_reaches_the_exchange() {
    let h = Hand::new();
    let agg = h.agg(vec![h.attr("emp", "dept")], h.attr("emp", "salary"));
    let agg = RelAlg::HashAggregate(agg);
    let joined = h.join(("dept", "id"), ("emp", "dept"));
    let metrics = |plan: RelPlan| -> HashMap<&str, u64> {
        let cfg = BatchConfig::default().with_morsel_pages(1);
        let mut op = compile_fused(&h.db, &plan, cfg).operator;
        assert!(!collect_batches(op.as_mut()).is_empty());
        op.metrics().into_iter().collect()
    };
    let serial = metrics(h.node(agg.clone(), vec![joined.clone()]));
    assert_eq!(serial["pipelines"], 2);
    assert_eq!(serial["workers"], 1);
    assert_eq!(serial["threads"], 0, "{serial:?}");
    // One morsel per pipeline covers its file; nothing to steal or merge.
    assert_eq!(serial["morsels_dispatched"], 2);
    for idle in ["morsels_stolen", "partition_merges", "merge_workers"] {
        assert_eq!(serial[idle], 0, "{idle}: {serial:?}");
    }
    let parallel = metrics(h.node(agg, vec![gathered(joined, 2)]));
    assert_eq!(parallel["workers"], 2);
    // Scatter, merge and output phases, two workers each.
    assert_eq!(parallel["threads"], 6, "{parallel:?}");
    assert_eq!(parallel["partition_merges"], 32);
    assert!(parallel["morsels_dispatched"] > 2, "{parallel:?}");
}
