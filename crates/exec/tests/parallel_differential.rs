//! Differential tests for morsel-driven parallel execution.
//!
//! The same golden SQL queries and fig4-style generated plans as the
//! serial vectorized differential, but optimized at parallel degrees
//! {1, 2, 4, 8} (so gather plans appear when the optimizer judges them
//! cheaper) and executed at morsel granularities of one page, the
//! engine default, and one whole-table morsel. Whatever the degree and
//! granularity, the parallel vectorized engine must produce the identical
//! row *multiset* as the serial tuple engine — with the exact sequence
//! at degree 1, and the delivered sort order intact at every degree
//! (the sort sits above the gather, so parallelism must never leak
//! through it; only the relative order of sort-key *ties* may differ).
//!
//! `VOLCANO_THREADS=<n>` pins the sweep to one degree (used by the CI
//! serial and 8-way legs). A debug build with it unset sweeps only
//! degrees {1, 2} and batch sizes {1, default}; CI runs the full sweep
//! in release.

mod common;

use std::collections::HashMap;

use common::testkit::{
    assert_same_multiset, assert_same_node_rows, diff_catalog, fig4_inputs, mixed_db, mixed_plan,
    morsel_sizes, optimize_plan, run_analyzed, run_fused, run_tuple, sql_cases,
    swept_batch_configs, swept_degrees, MIXED_SCAN_QUERIES,
};
use volcano_core::PhysicalProps;
use volcano_exec::{
    collect_batches, compile_fused, execute_analyzed, schema_of, BatchConfig, Database, Engine,
};
use volcano_rel::value::Tuple;
use volcano_rel::{
    AggFunc, AggSpec, AttrId, Catalog, Cmp, JoinPred, Pred, RelAlg, RelModel, RelModelOptions,
    RelPlan, RelProps,
};

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

/// Execute `plan` under the tuple engine (the serial oracle) and the
/// vectorized engine at every morsel granularity; assert the multisets
/// always agree, every plan node counts the same output rows (but a
/// partial aggregate's per-worker groups), the sequence agrees at
/// degree 1, and the delivered sort order holds at every degree.
fn assert_parallel_agrees(db: &Database, plan: &RelPlan, tag: &str, degree: u32) {
    // The tuple engine executes a gather as a serial pass-through, so
    // the same (possibly parallel) plan serves as its own oracle.
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
    // A degree-1 plan contains no gather, so the morsel granularity is
    // inert: one serial run covers it.
    let sweep: &[Option<usize>] = if degree == 1 {
        &[None]
    } else {
        &morsel_sizes()
    };
    for &morsel in sweep {
        let cfg = match morsel {
            Some(pages) => BatchConfig::default().with_morsel_pages(pages),
            None => BatchConfig::default(),
        };
        let (rows, nodes) = run_analyzed(db, plan, Engine::Fused(cfg));
        let mtag = format!("{tag}: deg={degree} morsel={morsel:?}");
        assert_same_multiset(&tuple_rows, &rows, &mtag);
        assert_same_node_rows(plan, &tuple_nodes, &nodes, &mtag);
        if !key_positions.is_empty() {
            assert_sorted_on(&rows, &key_positions, &mtag);
        }
        if degree == 1 {
            assert_eq!(
                tuple_rows, rows,
                "{mtag}: serial execution must be sequence-identical to the tuple engine"
            );
        }
    }
}

fn options(degree: u32) -> RelModelOptions {
    RelModelOptions::default().with_parallel_degree(degree)
}

fn fig4_options(degree: u32) -> RelModelOptions {
    RelModelOptions::paper_fig4().with_parallel_degree(degree)
}

#[test]
fn sql_golden_queries_agree_at_every_degree() {
    for degree in swept_degrees() {
        for case in sql_cases(options(degree)) {
            assert_parallel_agrees(&case.db, &case.plan, &case.tag, degree);
        }
    }
}

#[test]
fn fig4_plans_agree_at_every_degree() {
    // The database is generated once per query and shared across the
    // degree sweep — only the optimization (and hence the plan's
    // gather placement) changes with the degree.
    for input in fig4_inputs(&[2, 3], 0..2, false) {
        for degree in swept_degrees() {
            let model = RelModel::new(input.catalog.clone(), fig4_options(degree));
            let tag = format!("{} deg={degree}", input.tag);
            let plan = optimize_plan(&model, &input.expr, input.goal.clone(), &tag);
            assert_parallel_agrees(&input.db, &plan, &tag, degree);
        }
    }
}

/// Sorted goals: the gather's nondeterministic interleaving must be
/// invisible through the sort above it.
#[test]
fn fig4_sorted_goals_preserve_order_at_every_degree() {
    for input in fig4_inputs(&[2], 0..2, true) {
        for degree in swept_degrees() {
            let model = RelModel::new(input.catalog.clone(), fig4_options(degree));
            let tag = format!("{} deg={degree}", input.tag);
            let plan = optimize_plan(&model, &input.expr, input.goal.clone(), &tag);
            assert!(
                !plan.delivered.sort.is_empty(),
                "{tag}: expected a sort-delivering plan"
            );
            assert_parallel_agrees(&input.db, &plan, &tag, degree);
        }
    }
}

/// At degree > 1 with default options the optimizer must actually emit
/// gather plans for at least one golden query — otherwise this suite
/// silently tests nothing but serial execution.
#[test]
fn parallel_degree_produces_gather_plans() {
    use volcano_rel::RelAlg;
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

/// Satellite proof for the parallel partition merge: a hash-join build
/// under a gather merges its 32 hash partitions on a pool of workers,
/// not serially on one thread. The [`volcano_exec::MorselStats`]
/// counters are the evidence: `merge_workers` records the pool size of
/// the merge phase and `partition_merges` counts every partition merged
/// through the claim-a-partition loop.
#[test]
fn hash_join_partition_merge_runs_in_parallel() {
    use volcano_exec::{collect_batches, compile_fused};
    use volcano_rel::RelAlg;

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
/// `MorselPhase` per gather, beside the one `PlanCacheLookup`. (The
/// prepared path used to drop the tracer before execution, so only
/// plan-level executions ever reported morsel scheduling.)
#[test]
fn traced_prepared_execution_reports_morsel_phases() {
    use common::testkit::{diff_catalog, SQL_QUERIES};
    use volcano_core::trace::{CollectingTracer, TraceEvent};
    use volcano_exec::{Engine, ExecOptions};
    use volcano_rel::RelAlg;

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

/// Morsel workers decode only what their pipeline reads: each mixed-type
/// statement, run under a `gather(n)`, must compile to a parallel region
/// and return the tuple engine's multiset at every batch size, with
/// strings, floats and NULLs among the columns skipped and kept.
#[test]
fn workers_prune_unread_columns_of_every_type() {
    let db = mixed_db();
    for degree in swept_degrees().into_iter().filter(|&n| n > 1) {
        for sql in MIXED_SCAN_QUERIES {
            let plan = gathered(mixed_plan(sql, 1), degree);
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
            let tuple_rows = run_tuple(&db, &plan);
            for cfg in swept_batch_configs() {
                let rows = run_fused(&db, &plan, cfg.with_morsel_pages(2));
                assert_same_multiset(
                    &tuple_rows,
                    &rows,
                    &format!("{tag} batch={}", cfg.batch_size),
                );
            }
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

/// The golden database and hand-assembled plans over it, so every shape
/// below is exactly the one named (the optimizer rarely places a gather
/// over tables this small).
struct Hand {
    db: Database,
    catalog: Catalog,
    like: RelPlan,
}

impl Hand {
    fn new() -> Self {
        let catalog = diff_catalog();
        let db = Database::in_memory(catalog.clone());
        db.generate(42);
        // Any optimized plan serves as the template for cost and group.
        let q = volcano_sql::plan_query("SELECT emp.id FROM emp", &mut catalog.clone()).unwrap();
        let model = RelModel::with_defaults(catalog.clone());
        let like = optimize_plan(&model, &q.expr, RelProps::any(), "template");
        Hand { db, catalog, like }
    }

    fn attr(&self, table: &str, col: &str) -> AttrId {
        let t = self.catalog.table_by_name(table).unwrap();
        t.columns.iter().find(|c| c.name == col).unwrap().attr
    }

    fn node(&self, alg: RelAlg, inputs: Vec<RelPlan>) -> RelPlan {
        RelPlan {
            alg,
            inputs,
            delivered: RelProps::any(),
            ..self.like.clone()
        }
    }

    fn scan(&self, table: &str) -> RelPlan {
        let id = self.catalog.table_by_name(table).unwrap().id;
        self.node(RelAlg::FileScan(id), vec![])
    }

    /// `build ⋈ probe` on `build.0 = probe.0`.
    fn join(&self, build: (&str, &str), probe: (&str, &str)) -> RelPlan {
        let on = JoinPred::eq(self.attr(build.0, build.1), self.attr(probe.0, probe.1));
        let inputs = vec![self.scan(build.0), self.scan(probe.0)];
        self.node(RelAlg::HybridHashJoin(on), inputs)
    }

    /// `COUNT(*), SUM(emp.salary)` grouped by `group_by`.
    fn agg(&self, group_by: Vec<AttrId>) -> AggSpec {
        let sum = AggFunc::Sum(self.attr("emp", "salary"));
        AggSpec {
            group_by,
            aggs: vec![(AggFunc::CountStar, AttrId(9_000)), (sum, AttrId(9_001))],
        }
    }
}

/// The pipelineable shapes of `fused_differential`'s
/// `single_operator_regions_over_opaque_inputs_agree`, here over scans
/// and under a hand-placed `gather(n)`, plus the shapes in which the
/// gather sits directly under an aggregate and is that region's degree:
/// each compiles to exactly one region of degree `n` (a serial one at
/// `n = 1`) and returns the tuple engine's multiset at every batch size.
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
            Some((RelAlg::HashAggregate(h.agg(vec![emp_dept])), "scan→agg")),
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
            let tuple_rows = run_tuple(&h.db, &plan);
            assert!(!tuple_rows.is_empty(), "{tag}: vacuous case");
            for cfg in swept_batch_configs() {
                let rows = run_fused(&h.db, &plan, cfg.with_morsel_pages(2));
                let btag = format!("{tag} batch={}", cfg.batch_size);
                assert_same_multiset(&tuple_rows, &rows, &btag);
            }
        }
    }
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
    let agg = RelAlg::HashAggregate(h.agg(vec![h.attr("emp", "dept")]));
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
