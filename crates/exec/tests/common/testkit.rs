//! The differential/concurrency test kit.
//!
//! Every cross-engine suite (`fused_differential`, `cache_differential`,
//! `parallel_differential`, ...) compares engines over the same golden
//! catalog and query list, with the same multiset/order discipline:
//! row *multisets* must always match, and the row *sequence* must match
//! whenever the plan delivers a sort property. This module is the single
//! home for that machinery so new engines (and new axes, like parallel
//! degree) extend the matrix instead of copying it.

use volcano_bench::workload::{generate_query, WorkloadConfig};
use volcano_core::{PhysicalProps, SearchOptions};
use volcano_exec::{
    execute_analyzed, BatchConfig, Database, Engine, ExecOptions, PrepareError, PreparedOutcome,
    PreparedStatement,
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

/// Execute `plan` on `engine` with every plan node measured: the rows,
/// and each node's output rows in plan pre-order.
pub fn run_analyzed(db: &Database, plan: &RelPlan, engine: Engine) -> (Vec<Tuple>, Vec<u64>) {
    let analyzed = execute_analyzed(db, &db.catalog(), plan, engine);
    let nodes = analyzed.actual_rows();
    (analyzed.rows, nodes)
}

/// Assert a vectorized run counted each plan node's output rows exactly
/// as the tuple run did — except a partial aggregate under a gather of
/// degree > 1 and that gather: their groups are per worker.
pub fn assert_same_node_rows(plan: &RelPlan, tuple: &[u64], fused: &[u64], tag: &str) {
    fn per_worker(plan: &RelPlan, under_gather: bool, out: &mut Vec<bool>) {
        let gather = matches!(plan.alg, RelAlg::Gather(n) if n > 1);
        let partial = |p: &RelPlan| matches!(p.alg, RelAlg::PartialHashAggregate(..));
        out.push((under_gather && partial(plan)) || (gather && partial(&plan.inputs[0])));
        for input in &plan.inputs {
            per_worker(input, gather, out);
        }
    }
    let mut skip = Vec::new();
    per_worker(plan, false, &mut skip);
    assert_eq!(tuple.len(), skip.len(), "{tag}: one count per plan node");
    assert_eq!(fused.len(), skip.len(), "{tag}: one count per plan node");
    for (i, ((t, f), skip)) in tuple.iter().zip(fused).zip(skip).enumerate() {
        assert!(
            skip || t == f,
            "{tag}: node {i} counted {f} rows, the tuple engine {t} ({tuple:?} vs {fused:?})\n{}",
            plan.explain()
        );
    }
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

/// Optimize `expr` under `goal` with the one serial search.
pub fn optimize_plan(model: &RelModel, expr: &RelExpr, goal: RelProps, tag: &str) -> RelPlan {
    let mut opt = RelOptimizer::new(model, SearchOptions::default());
    let root = opt.insert_tree(expr);
    opt.find_best_plan(root, goal, None)
        .unwrap_or_else(|e| panic!("{tag}: optimization failed: {e}"))
}

/// One ready-to-execute differential case: a populated database, the
/// optimized plan, and a tag for failure messages.
pub struct DiffCase {
    pub db: Database,
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

/// The degrees `fused_differential` and `parallel_differential` sweep:
/// [`thread_counts`], cut to {1, 2} in a debug build with
/// `VOLCANO_THREADS` unset. The full ladder runs in release (CI's
/// "every degree" step and its pinned legs).
pub fn swept_degrees() -> Vec<u32> {
    let all = thread_counts();
    if cfg!(debug_assertions) && std::env::var("VOLCANO_THREADS").is_err() {
        all.into_iter().filter(|&n| n <= 2).collect()
    } else {
        all
    }
}

/// The batch sizes `fused_differential` and `parallel_differential`
/// sweep: [`batch_configs`], cut to {1, default} in a debug build. The
/// full set runs in release.
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

/// Optimize `sql` over [`mixed_catalog`] at parallel `degree`, with the
/// statement's ORDER BY as the goal.
pub fn mixed_plan(sql: &str, degree: u32) -> RelPlan {
    let mut catalog = mixed_catalog();
    let q = plan_query(sql, &mut catalog).expect("query must parse");
    let options = RelModelOptions::default().with_parallel_degree(degree);
    let model = RelModel::new(catalog, options);
    optimize_plan(&model, &q.expr, RelProps::sorted(q.order_by.clone()), sql)
}

/// The batch-size axis: degenerate single-row batches, a size that
/// splits every page, the engine default, and an explicit large batch.
pub fn batch_configs() -> [BatchConfig; 4] {
    [
        BatchConfig::with_batch_size(1),
        BatchConfig::with_batch_size(4),
        BatchConfig::default(),
        BatchConfig::with_batch_size(1024),
    ]
}
