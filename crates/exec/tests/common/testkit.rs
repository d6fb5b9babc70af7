//! The differential/concurrency test kit.
//!
//! Its centre is the executor's one differential oracle,
//! [`assert_differential`]: `engine_differential` and `agg_differential`
//! hand it a plan and the vectorized configurations to run it under.
//! Given the query's logical expression it also checks the tuple engine
//! against [`evaluate_logical`], which shares no operator code with
//! either engine. Only cases small enough for its nested-loop joins pass
//! one (the golden SQL statements, the mixed-type fixtures, the
//! aggregate tables): a 3-relation fig4 query would pair 7 200² rows per
//! join, so fig4 stays engine against engine. Around the oracle: the
//! golden catalog and queries, the fig4 case builder, the axes (degrees,
//! batch and morsel sizes) and the data generators the concurrency and
//! feedback suites share.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use volcano_bench::workload::{generate_query, WorkloadConfig};
use volcano_core::{PhysicalProps, SearchOptions};
use volcano_exec::{
    evaluate_logical, execute_analyzed, schema_of, BatchConfig, Database, Engine, ExecOptions,
    PrepareError, PreparedOutcome, PreparedStatement,
};
use volcano_rel::value::Tuple;
use volcano_rel::{
    Catalog, ColumnDef, RelAlg, RelExpr, RelModel, RelModelOptions, RelOptimizer, RelPlan,
    RelProps, Value,
};
use volcano_sql::plan_query;

/// The golden three-table catalog (emp ⋈ dept ⋈ region) shared by the
/// SQL-level differential suites.
pub fn diff_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        "emp",
        2000.0,
        vec![
            ColumnDef::int("id", 2000.0),
            ColumnDef::int("dept", 20.0),
            ColumnDef::int("salary", 100.0),
        ],
    );
    c.add_table(
        "dept",
        20.0,
        vec![ColumnDef::int("id", 20.0), ColumnDef::int("region", 4.0)],
    );
    c.add_table("region", 4.0, vec![ColumnDef::int("id", 4.0)]);
    c
}

/// The golden SQL query list: one representative per operator family
/// (filter+sort, join, 3-way join, aggregate, union).
pub const SQL_QUERIES: &[&str] = &[
    "SELECT emp.id FROM emp WHERE emp.salary < 50 ORDER BY emp.id",
    "SELECT emp.id FROM emp, dept WHERE emp.dept = dept.id",
    "SELECT emp.id FROM emp, dept, region \
     WHERE emp.dept = dept.id AND dept.region = region.id AND emp.salary < 50 \
     ORDER BY emp.id",
    "SELECT emp.dept, COUNT(*) FROM emp GROUP BY emp.dept ORDER BY emp.dept",
    "SELECT emp.dept FROM emp WHERE emp.salary < 50 UNION SELECT dept.id FROM dept",
];

/// Execute `plan` on the tuple engine — the oracle of every suite.
pub fn run_tuple(db: &Database, plan: &RelPlan) -> Vec<Tuple> {
    db.execute(plan, &ExecOptions::new(), None)
}

/// Execute `plan` on the vectorized engine under `cfg`.
pub fn run_fused(db: &Database, plan: &RelPlan, cfg: BatchConfig) -> Vec<Tuple> {
    let opts = ExecOptions::new().with_executor(Engine::Fused(cfg));
    db.execute(plan, &opts, None)
}

/// One prepared execution through the plan cache on `engine`.
pub fn run_prepared(
    db: &Database,
    stmt: &PreparedStatement,
    params: &[Value],
    engine: Engine,
) -> Result<PreparedOutcome, PrepareError> {
    db.execute_prepared_opts(
        stmt,
        params,
        &ExecOptions::new().with_executor(engine),
        None,
    )
}

/// A copy of `rows` in canonical (sorted) order, for multiset
/// comparison.
pub fn sorted_copy(rows: &[Tuple]) -> Vec<Tuple> {
    let mut s = rows.to_vec();
    s.sort();
    s
}

/// Assert two row sets are the same multiset (order-insensitive).
pub fn assert_same_multiset(expected: &[Tuple], actual: &[Tuple], tag: &str) {
    assert_eq!(
        sorted_copy(expected),
        sorted_copy(actual),
        "{tag}: row multisets diverged"
    );
}

// ---------------------------------------------------------------------
// The differential oracle.
// ---------------------------------------------------------------------

/// The vectorized configurations a plan optimized at `degree` runs
/// under: every [`swept_batch_configs`] size at the default morsel size
/// and, at degree > 1, every [`morsel_sizes`] granularity at the default
/// batch size (the default pair runs once). A degree-1 plan has no
/// gather, so the morsel size is inert there.
pub fn sweep_at(degree: u32) -> Vec<BatchConfig> {
    let mut configs = swept_batch_configs();
    if degree > 1 {
        let morsels = morsel_sizes().into_iter().flatten();
        configs.extend(morsels.map(|pages| BatchConfig::default().with_morsel_pages(pages)));
    }
    configs
}

/// The differential oracle. Runs `plan` on the tuple engine once and on
/// the vectorized engine under each of `configs`, all with every plan
/// node measured, and asserts for each vectorized run:
///
/// * the tuple engine's rows: the same sequence if `sequence` (a plan
///   of degree 1 without a hash aggregate), else the same multiset;
/// * the plan's delivered sort order (the tuple run's too);
/// * the tuple engine's output rows per plan node ([`assert_node_rows`]).
///
/// With `logical`, the query's logical expression, it also asserts the
/// tuple engine's multiset equals [`evaluate_logical`]'s.
///
/// One result at most is alive at a time, and none is copied: of the
/// tuple engine's rows the oracle keeps one 64-bit hash each, compared
/// in order or, for a multiset, sorted in place once. Only on a mismatch
/// does it run the tuple engine again, to name the first differing row.
pub fn assert_differential(
    db: &Database,
    plan: &RelPlan,
    tag: &str,
    configs: &[BatchConfig],
    sequence: bool,
    logical: Option<&RelExpr>,
) {
    let catalog = db.catalog();
    let schema = schema_of(db, plan);
    let keys: Vec<usize> = plan
        .delivered
        .sort
        .iter()
        .map(|a| {
            schema
                .iter()
                .position(|s| s == a)
                .unwrap_or_else(|| panic!("{tag}: sort key {a:?} missing from output schema"))
        })
        .collect();
    let (mut expected, tuple_nodes) = {
        let tuple = execute_analyzed(db, &catalog, plan, Engine::Tuple);
        assert_sorted_on(&tuple.rows, &keys, &format!("{tag}: tuple"));
        (row_hashes(&tuple.rows), tuple.actual_rows())
    };
    let mut sorted = false;
    for &cfg in configs {
        let what = format!(
            "{tag}: batch={} morsel={:?}",
            cfg.batch_size, cfg.morsel_pages
        );
        let run = execute_analyzed(db, &catalog, plan, Engine::Fused(cfg));
        assert_node_rows(
            plan,
            &tuple_nodes,
            &run.actual_rows(),
            cfg.batch_size,
            &what,
        );
        assert_sorted_on(&run.rows, &keys, &what);
        let mut hashes = row_hashes(&run.rows);
        if !sequence {
            if !sorted {
                expected.sort_unstable();
                sorted = true;
            }
            hashes.sort_unstable();
        }
        if hashes != expected {
            report_difference(db, plan, run.rows, sequence, &what);
        }
    }
    if let Some(expr) = logical {
        if !sorted {
            expected.sort_unstable();
        }
        let naive = evaluate_logical(db, expr);
        let positions: Vec<usize> = schema
            .iter()
            .map(|a| naive.schema.iter().position(|b| b == a).unwrap())
            .collect();
        let rows: Vec<Tuple> = naive
            .rows
            .into_iter()
            .map(|t| positions.iter().map(|&i| t[i].clone()).collect())
            .collect();
        let mut hashes = row_hashes(&rows);
        hashes.sort_unstable();
        if hashes != expected {
            report_difference(db, plan, rows, false, &format!("{tag}: naive evaluator"));
        }
    }
}

/// One 64-bit hash per row, in order: what the oracle keeps of a result
/// once it is read, a few bytes a row where the row takes hundreds.
fn row_hashes(rows: &[Tuple]) -> Vec<u64> {
    rows.iter()
        .map(|row| {
            let mut h = DefaultHasher::new();
            row.hash(&mut h);
            h.finish()
        })
        .collect()
}

/// Panic naming the first row at which `actual` departs from the tuple
/// engine's rows (both sorted unless `sequence`), run again for it.
fn report_difference(
    db: &Database,
    plan: &RelPlan,
    mut actual: Vec<Tuple>,
    sequence: bool,
    what: &str,
) -> ! {
    let mut expected = run_tuple(db, plan);
    if !sequence {
        expected.sort_unstable();
        actual.sort_unstable();
    }
    let shorter = expected.len().min(actual.len());
    let i = (0..shorter)
        .find(|&i| expected[i] != actual[i])
        .unwrap_or(shorter);
    panic!(
        "{what}: row {i} reads {:?} where the tuple engine's reads {:?} ({} rows against {})",
        actual.get(i),
        expected.get(i),
        actual.len(),
        expected.len()
    );
}

/// Assert `rows` are non-decreasing on the columns at `keys`.
fn assert_sorted_on(rows: &[Tuple], keys: &[usize], what: &str) {
    fn key<'a>(row: &'a Tuple, keys: &'a [usize]) -> impl Iterator<Item = &'a Value> {
        keys.iter().map(move |&k| &row[k])
    }
    if let Some(pair) = rows
        .windows(2)
        .find(|p| key(&p[0], keys).gt(key(&p[1], keys)))
    {
        panic!(
            "{what}: output violates the delivered sort order ({:?} before {:?})",
            key(&pair[0], keys).collect::<Vec<_>>(),
            key(&pair[1], keys).collect::<Vec<_>>()
        );
    }
}

/// Assert a vectorized run counted each plan node's output rows as the
/// tuple run did, but a partial aggregate under a gather of degree > 1
/// and that gather (per-worker groups: not compared), and a node below
/// a merge join, intersect or difference, which stops reading early: at
/// least the tuple engine's rows and fewer than one batch more.
fn assert_node_rows(plan: &RelPlan, tuple: &[u64], fused: &[u64], batch: usize, what: &str) {
    /// Per node: `None` if not compared, else how far above the tuple
    /// engine's count it may read (0: not at all).
    fn slack(
        plan: &RelPlan,
        under_gather: bool,
        early: u64,
        batch: u64,
        out: &mut Vec<Option<u64>>,
    ) {
        let gather = matches!(plan.alg, RelAlg::Gather(n) if n > 1);
        let partial = |p: &RelPlan| matches!(p.alg, RelAlg::PartialHashAggregate(..));
        let per_worker = (under_gather && partial(plan)) || (gather && partial(&plan.inputs[0]));
        out.push((!per_worker).then_some(early));
        let stops = matches!(
            plan.alg,
            RelAlg::MergeJoin(_) | RelAlg::MergeIntersect | RelAlg::MergeDifference
        );
        for input in &plan.inputs {
            slack(input, gather, if stops { batch } else { early }, batch, out);
        }
    }
    let mut slacks = Vec::new();
    slack(plan, false, 0, batch as u64, &mut slacks);
    assert_eq!(tuple.len(), slacks.len(), "{what}: one count per plan node");
    assert_eq!(fused.len(), slacks.len(), "{what}: one count per plan node");
    for (i, ((&t, &f), slack)) in tuple.iter().zip(fused).zip(slacks).enumerate() {
        assert!(
            slack.is_none_or(|s| t <= f && f - t < s.max(1)),
            "{what}: node {i} counted {f} rows, the tuple engine {t} ({tuple:?} vs {fused:?})\n{}",
            plan.explain()
        );
    }
}

/// Optimize `expr` under `goal` with the one serial search.
pub fn optimize_plan(model: &RelModel, expr: &RelExpr, goal: RelProps, tag: &str) -> RelPlan {
    let mut opt = RelOptimizer::new(model, SearchOptions::default());
    let root = opt.insert_tree(expr);
    opt.find_best_plan(root, goal, None)
        .unwrap_or_else(|e| panic!("{tag}: optimization failed: {e}"))
}

/// One ready-to-execute differential case: a populated database, the
/// query's logical expression, the optimized plan, and a tag for
/// failure messages.
pub struct DiffCase {
    pub db: Database,
    pub expr: RelExpr,
    pub plan: RelPlan,
    pub tag: String,
}

/// Build every golden SQL query into a [`DiffCase`], optimized with
/// `options` (e.g. a parallel degree) and goal = the query's ORDER BY.
pub fn sql_cases(options: RelModelOptions) -> Vec<DiffCase> {
    SQL_QUERIES
        .iter()
        .map(|sql| {
            let mut catalog = diff_catalog();
            let q = plan_query(sql, &mut catalog).expect("query must parse");
            let model = RelModel::new(catalog.clone(), options.clone());
            let plan = optimize_plan(&model, &q.expr, RelProps::sorted(q.order_by.clone()), sql);
            let db = Database::in_memory(catalog);
            db.generate(42);
            DiffCase {
                db,
                expr: q.expr,
                plan,
                tag: (*sql).to_string(),
            }
        })
        .collect()
}

/// A generated query plus its populated database, *before* any
/// optimization — for suites that sweep one query across several model
/// configurations (e.g. parallel degrees). Generating the data once and
/// re-optimizing per configuration is far cheaper than rebuilding the
/// whole case each time.
pub struct ParallelInput {
    pub catalog: Catalog,
    pub expr: RelExpr,
    pub db: Database,
    pub tag: String,
    /// The goal to optimize under: `ORDER BY` on t0's first column when
    /// the suite demands a sort-delivering plan, else "any".
    pub goal: RelProps,
}

/// Build fig4-style generated select–join queries (paper §4.2 workload)
/// into [`ParallelInput`]s, for `n`-relation queries over the given
/// seeds. When `sorted` is set the goal demands order on the first
/// column of t0, so every optimized plan delivers a sort property.
pub fn fig4_inputs(
    relations: &[usize],
    seeds: std::ops::Range<u64>,
    sorted: bool,
) -> Vec<ParallelInput> {
    let mut inputs = Vec::new();
    for &n in relations {
        for seed in seeds.clone() {
            let q = generate_query(&WorkloadConfig::relations(n), seed);
            let goal = if sorted {
                let table = q.catalog.table_by_name("t0").unwrap();
                RelProps::sorted(vec![table.columns[0].attr])
            } else {
                RelProps::any()
            };
            let db = Database::in_memory(q.catalog.clone());
            db.generate(seed);
            inputs.push(ParallelInput {
                catalog: q.catalog,
                expr: q.expr,
                db,
                tag: format!("fig4 n={n} seed={seed} sorted={sorted}"),
                goal,
            });
        }
    }
    inputs
}

/// The parallel degrees a concurrency suite should sweep. Honouring
/// `VOLCANO_THREADS` lets CI pin a single degree per leg (serial and
/// heavily parallel legs catch different bugs); unset, the full
/// {1, 2, 4, 8} ladder runs.
pub fn thread_counts() -> Vec<u32> {
    match std::env::var("VOLCANO_THREADS") {
        Ok(v) => {
            let n: u32 = v
                .parse()
                .unwrap_or_else(|_| panic!("VOLCANO_THREADS must be an integer, got {v:?}"));
            vec![n.max(1)]
        }
        Err(_) => vec![1, 2, 4, 8],
    }
}

/// The degrees the engine differential sweeps: degree 1 always, and
/// [`thread_counts`], cut to {1, 2} in a debug build with
/// `VOLCANO_THREADS` unset. The full ladder runs in release (CI's
/// "every degree" step and its pinned legs).
pub fn swept_degrees() -> Vec<u32> {
    let mut degrees = thread_counts();
    if cfg!(debug_assertions) && std::env::var("VOLCANO_THREADS").is_err() {
        degrees.retain(|&n| n <= 2);
    }
    if !degrees.contains(&1) {
        degrees.insert(0, 1);
    }
    degrees
}

/// The batch sizes the engine differential sweeps: [`batch_configs`],
/// cut to {1, default} in a debug build. The full set runs in release.
pub fn swept_batch_configs() -> Vec<BatchConfig> {
    let [one, four, default, wide] = batch_configs();
    if cfg!(debug_assertions) {
        vec![one, default]
    } else {
        vec![one, four, default, wide]
    }
}

/// The morsel granularities a parallel suite should sweep: one page per
/// morsel (maximal scheduling pressure), the engine default, and one
/// morsel spanning the whole table (degenerates to at most one busy
/// worker per pipeline).
pub fn morsel_sizes() -> [Option<usize>; 3] {
    [Some(1), None, Some(usize::MAX)]
}

// ---------------------------------------------------------------------
// Deterministic data generators (skew, Zipf, correlation).
// ---------------------------------------------------------------------

/// A deterministic LCG (Knuth MMIX constants) so datasets are stable
/// without pulling in rand.
pub struct Lcg(pub u64);

impl Lcg {
    /// The next pseudo-random 31-bit-ish value.
    pub fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// A uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() % (1 << 24)) as f64 / (1 << 24) as f64
    }
}

/// Skewed groups: ~80% of rows land on one hot key, the rest spread
/// over a small tail; a sprinkle of NULL keys and NULL values.
pub fn skewed_rows(n: usize, seed: u64) -> Vec<(Option<i64>, Option<i64>)> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|_| {
            let k = match rng.next() % 10 {
                0..=7 => Some(0),
                8 => Some((rng.next() % 50) as i64),
                _ => None,
            };
            let v = if rng.next().is_multiple_of(11) {
                None
            } else {
                Some((rng.next() % 2_000) as i64 - 1_000)
            };
            (k, v)
        })
        .collect()
}

/// High-cardinality groups: most keys appear exactly once, so nearly
/// every row opens a fresh group and a final aggregate merge sees
/// almost as many partial rows as there were inputs.
pub fn high_cardinality_rows(n: usize, seed: u64) -> Vec<(Option<i64>, Option<i64>)> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|i| {
            (
                Some(i as i64),
                Some((rng.next() % 1_000_000) as i64 - 500_000),
            )
        })
        .collect()
}

/// A Zipf(s) sampler over keys `0..n_keys` (key 0 most frequent): the
/// canonical "estimates assume uniform, data is anything but" workload
/// for the adaptive-feedback suites. Precomputes the CDF once.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler with exponent `s` over `n_keys` ranks.
    pub fn new(n_keys: usize, s: f64) -> Self {
        assert!(n_keys > 0, "Zipf needs at least one key");
        let mut mass = 0.0;
        let cdf: Vec<f64> = (1..=n_keys)
            .map(|rank| {
                mass += 1.0 / (rank as f64).powf(s);
                mass
            })
            .collect();
        let total = *cdf.last().unwrap();
        Zipf {
            cdf: cdf.into_iter().map(|c| c / total).collect(),
        }
    }

    /// Draw one key in `0..n_keys`.
    pub fn sample(&self, rng: &mut Lcg) -> i64 {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u) as i64
    }
}

/// `n` keys drawn Zipf(`s`) over `0..n_keys`: with s ≳ 1.3 the top rank
/// absorbs most of the mass, so a uniform `1/distinct` estimate is
/// wrong by an order of magnitude for the hot key.
pub fn zipf_keys(n: usize, n_keys: usize, s: f64, seed: u64) -> Vec<i64> {
    let zipf = Zipf::new(n_keys, s);
    let mut rng = Lcg(seed);
    (0..n).map(|_| zipf.sample(&mut rng)).collect()
}

/// Pairs whose second column is a noisy function of the first
/// (`b = a % groups` with `noise`-probability uniform escape): the
/// correlated-column workload where independence-assuming conjunct
/// estimates multiply into nonsense.
pub fn correlated_pairs(n: usize, groups: i64, noise: f64, seed: u64) -> Vec<(i64, i64)> {
    assert!(groups > 0);
    let mut rng = Lcg(seed);
    (0..n)
        .map(|i| {
            let a = i as i64;
            let b = if rng.unit() < noise {
                (rng.next() % (groups as u64)) as i64
            } else {
                a % groups
            };
            (a, b)
        })
        .collect()
}

/// Run `attempt(i)` for executions `1..=k`; `Some(i)` is the first
/// execution where it reports convergence, `None` if `k` executions
/// never converge. The adaptive-feedback acceptance bar is
/// `converges_within(5, ...)` returning `Some(_)`.
pub fn converges_within(k: usize, mut attempt: impl FnMut(usize) -> bool) -> Option<usize> {
    (1..=k).find(|&i| attempt(i))
}

// ---------------------------------------------------------------------
// Mixed-type fixture (column pruning).
// ---------------------------------------------------------------------

/// `mix(s STR, k INT, f FLOAT, g INT, note STR)` and
/// `grp(id INT, label STR, w FLOAT)`: strings first and last, a float in
/// the middle, NULLs in `k`, `f` and `note` — so whichever columns a
/// query leaves unread, the decoder has to step over every field type
/// at the start, in the middle and at the end of the record. The
/// statistics claim a large `mix` so parallel models choose gathers.
pub fn mixed_catalog() -> Catalog {
    let float = |name: &str, distinct: f64| ColumnDef {
        ty: volcano_rel::catalog::ColType::Float,
        ..ColumnDef::int(name, distinct)
    };
    let mut c = Catalog::new();
    c.add_table(
        "mix",
        1_000_000.0,
        vec![
            ColumnDef::str("s", 6, 7.0),
            ColumnDef::int("k", 13.0),
            float("f", 40.0),
            ColumnDef::int("g", 8.0),
            ColumnDef::str("note", 12, 50.0),
        ],
    );
    c.add_table(
        "grp",
        8.0,
        vec![
            ColumnDef::int("id", 8.0),
            ColumnDef::str("label", 8, 8.0),
            float("w", 8.0),
        ],
    );
    c
}

/// [`mixed_catalog`] populated: 3 000 `mix` rows (several pages), every
/// float a multiple of 0.25 so sums are exact in any order.
pub fn mixed_db() -> Database {
    let catalog = mixed_catalog();
    let (mix, grp) = (
        catalog.table_by_name("mix").unwrap().id,
        catalog.table_by_name("grp").unwrap().id,
    );
    let db = Database::in_memory(catalog);
    let mut rng = Lcg(17);
    let or_null = |null: bool, v: Value| if null { Value::Null } else { v };
    for i in 0..3_000i64 {
        let r = rng.next() as i64;
        db.insert(
            mix,
            vec![
                Value::str(format!("s{}", r % 7)),
                or_null(r % 11 == 0, Value::Int(r % 13)),
                or_null(r % 17 == 0, Value::float((r % 40) as f64 * 0.25)),
                Value::Int(i % 8),
                or_null(r % 5 == 0, Value::str(format!("note-{:03}", r % 50))),
            ],
        );
    }
    for id in 0..8i64 {
        db.insert(
            grp,
            vec![
                Value::Int(id),
                Value::str(format!("g{}", id % 3)),
                Value::float(id as f64 * 0.5),
            ],
        );
    }
    db
}

/// Scan / filter / project / join statements over the mixed tables,
/// each leaving columns unread at the first, a middle and the last
/// position of some record.
pub const MIXED_SCAN_QUERIES: &[&str] = &[
    "SELECT mix.k, mix.g FROM mix WHERE mix.g < 5",
    "SELECT mix.s, mix.note FROM mix WHERE mix.k < 6",
    "SELECT mix.f FROM mix",
    "SELECT mix.note, mix.s FROM mix WHERE mix.f < 3.0",
    "SELECT mix.note, grp.w FROM mix, grp WHERE mix.g = grp.id",
    "SELECT grp.label, mix.f FROM mix, grp WHERE mix.k = grp.id AND mix.g < 6",
];

/// Aggregates over the mixed tables: string and NULL-bearing group
/// keys, float sums, string extrema, a bare `COUNT(*)` (nothing is
/// decoded), and aggregates above a filter and a join.
pub const MIXED_AGG_QUERIES: &[&str] = &[
    "SELECT mix.s, COUNT(*), SUM(mix.f) FROM mix GROUP BY mix.s",
    "SELECT mix.k, MIN(mix.note), MAX(mix.f) FROM mix GROUP BY mix.k",
    "SELECT COUNT(*) FROM mix",
    "SELECT COUNT(*), AVG(mix.g), MAX(mix.note) FROM mix WHERE mix.f < 3.0",
    "SELECT grp.label, COUNT(*), SUM(mix.k) FROM mix, grp WHERE mix.g = grp.id GROUP BY grp.label",
    "SELECT mix.g, SUM(mix.k) FROM mix GROUP BY mix.g ORDER BY mix.g",
];

/// `sql` over [`mixed_catalog`]: its logical expression, and its plan
/// optimized at parallel `degree` with the statement's ORDER BY as the
/// goal.
pub fn mixed_query(sql: &str, degree: u32) -> (RelExpr, RelPlan) {
    let mut catalog = mixed_catalog();
    let q = plan_query(sql, &mut catalog).expect("query must parse");
    let options = RelModelOptions::default().with_parallel_degree(degree);
    let model = RelModel::new(catalog, options);
    let plan = optimize_plan(&model, &q.expr, RelProps::sorted(q.order_by.clone()), sql);
    (q.expr, plan)
}

/// The batch-size axis: degenerate single-row batches, a size that
/// splits every page, the engine default (1 024 rows), and a batch four
/// times the default.
pub fn batch_configs() -> [BatchConfig; 4] {
    [
        BatchConfig::with_batch_size(1),
        BatchConfig::with_batch_size(4),
        BatchConfig::default(),
        BatchConfig::with_batch_size(4_096),
    ]
}
