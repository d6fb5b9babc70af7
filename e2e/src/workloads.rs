//! The workloads' inputs: seeded tables, the statements run over them,
//! and a reference answer for every statement, computed here from the
//! generated rows and never by the program under test.

use std::collections::{BTreeMap, HashMap};

use crate::rows::{Rng, Row};
use crate::sut::{Column, Table};

/// The six workloads, in the order `--all` runs them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "fig4_optimize",
        "the paper's 4.2 experiment: random 2-8 relation select-join queries through FindBestPlan alone, so core search is all of the work",
    ),
    (
        "star_cold",
        "SQL text in, rows out with the plan cache bypassed: parse, lower, search, compile and execute all run, and search dominates the wide joins",
    ),
    (
        "star_warm",
        "the same statements prepared and served from a warm plan cache: search does nothing, so a search optimisation predicts no change here",
    ),
    (
        "analytic_fit",
        "execution-bound scans, join, aggregates and sort over 200000 rows with every page in the buffer pool: exec and row materialisation dominate",
    ),
    (
        "analytic_spill",
        "the same data and statements with a 128-page pool (about 3% of the table): the difference from analytic_fit is the storage layer's share",
    ),
    (
        "serve_mixed",
        "concurrent closed-loop sessions mixing cached reads, scans, cold joins and inserts that bump the stats epoch: contention on cache, schema lock and pool",
    ),
];

/// Input sizes. `full` is what every reported number is measured at;
/// `smoke` only proves the harness runs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
    pub fact_rows: usize,
    pub sales_rows: usize,
    pub dim_rows: usize,
    pub big_rows: usize,
    pub event_rows: usize,
    /// Queries per relation count, and the largest relation count.
    pub fig4_per_level: usize,
    pub fig4_max_relations: usize,
    /// Operations each serving client runs per round.
    pub serve_round_ops: usize,
    /// Set-ups per run, each followed by its share of the timed
    /// seconds; every end-to-end metric is the median over them.
    pub segments: usize,
    /// Pool pages of `analytic_spill`, the legacy harnesses' setting.
    pub spill_pool_pages: usize,
    /// Pool pages of `analytic_fit`: more than the tables occupy.
    pub fit_pool_pages: usize,
}

impl Scale {
    pub const fn full() -> Scale {
        Scale {
            smoke: false,
            fact_rows: 1_000,
            sales_rows: 200_000,
            dim_rows: 20_000,
            big_rows: 50_000,
            event_rows: 1_000,
            fig4_per_level: 72,
            fig4_max_relations: 8,
            serve_round_ops: 400,
            segments: 3,
            spill_pool_pages: 128,
            fit_pool_pages: 16_384,
        }
    }

    pub const fn smoke() -> Scale {
        Scale {
            smoke: true,
            fact_rows: 100,
            sales_rows: 2_000,
            dim_rows: 200,
            big_rows: 1_000,
            event_rows: 50,
            fig4_per_level: 2,
            fig4_max_relations: 5,
            serve_round_ops: 50,
            segments: 1,
            spill_pool_pages: 8,
            fit_pool_pages: 1_024,
        }
    }
}

// ---------------------------------------------------------------------
// Tables.

fn int(name: &'static str, distinct: u64) -> Column {
    Column {
        name,
        distinct,
        text_width: None,
    }
}

fn table_rows<'a>(tables: &'a [Table], name: &str) -> &'a [Row] {
    &tables
        .iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("no table {name}"))
        .rows
}

/// A column of `n` values in which each of `0..distinct` appears equally
/// often (to within one), in an order the generator fixes. The seed
/// moves rows around; it does not move a predicate's selectivity or a
/// join's fan-out, so result sizes are the same for every seed.
fn even_column(rng: &mut Rng, n: usize, distinct: u64) -> Vec<i64> {
    let mut values: Vec<i64> = (0..n as u64).map(|i| (i % distinct) as i64).collect();
    rng.shuffle(&mut values);
    values
}

/// Rows from columns.
fn zip_rows(columns: Vec<Vec<i64>>) -> Vec<Row> {
    (0..columns[0].len())
        .map(|i| columns.iter().map(|c| c[i]).collect())
        .collect()
}

/// Distinct values of the fact table's six dimension keys; dimension
/// `k` has that many rows.
const DIM_CARDS: [u64; 6] = [50, 40, 30, 20, 15, 10];
const DIM_NAMES: [&str; 6] = ["dim1", "dim2", "dim3", "dim4", "dim5", "dim6"];
const FACT_V: usize = 7;

/// The star schema of the legacy plan-cache harness: `fact(id, d1..d6,
/// v)` and six dimensions `dimK(id, attr)`.
pub fn star_tables(seed: u64, scale: &Scale) -> Vec<Table> {
    let mut rng = Rng::new(seed);
    let n = scale.fact_rows;
    let mut fact_columns = vec![even_column(&mut rng, n, n as u64)];
    for d in DIM_CARDS {
        fact_columns.push(even_column(&mut rng, n, d));
    }
    fact_columns.push(even_column(&mut rng, n, 100));
    let n = n as u64;
    let fact = Table {
        name: "fact",
        columns: vec![
            int("id", n),
            int("d1", 50),
            int("d2", 40),
            int("d3", 30),
            int("d4", 20),
            int("d5", 15),
            int("d6", 10),
            int("v", 100),
        ],
        rows: zip_rows(fact_columns),
    };
    let mut tables = vec![fact];
    for (name, card) in DIM_NAMES.iter().zip(DIM_CARDS) {
        let rows = card as usize;
        tables.push(Table {
            name,
            columns: vec![int("id", card), int("attr", 5)],
            rows: zip_rows(vec![
                even_column(&mut rng, rows, card),
                even_column(&mut rng, rows, 5),
            ]),
        });
    }
    tables
}

const SALES_B: usize = 2;
const SALES_C: usize = 3;
const SALES_K: usize = 5;
const SALES_G: usize = 6;
const SALES_Q: usize = 7;

/// `sales`: eight integer columns and one text column; `dim`: the
/// table its foreign key `k` joins to.
pub fn analytic_tables(seed: u64, scale: &Scale) -> Vec<Table> {
    let mut rng = Rng::new(seed);
    let rows = scale.sales_rows;
    let n = rows as u64;
    let dims = scale.dim_rows as u64;
    // `id` ascends, so ORDER BY id has one answer.
    let mut sales_columns = vec![(0..n as i64).collect()];
    for distinct in [n, 1_000, 100, 10, dims, 100, 50, 1_000] {
        sales_columns.push(even_column(&mut rng, rows, distinct));
    }
    let sales = Table {
        name: "sales",
        columns: vec![
            int("id", n),
            int("a", n),
            int("b", 1_000),
            int("c", 100),
            int("d", 10),
            int("k", dims),
            int("g", 100),
            int("q", 50),
            Column {
                name: "note",
                distinct: 1_000,
                text_width: Some(16),
            },
        ],
        rows: zip_rows(sales_columns),
    };
    let dim = Table {
        name: "dim",
        columns: vec![int("id", dims), int("r", 10)],
        rows: zip_rows(vec![
            even_column(&mut rng, scale.dim_rows, dims),
            even_column(&mut rng, scale.dim_rows, 10),
        ]),
    };
    vec![sales, dim]
}

/// The serving workload's database: the star schema, a static table
/// big enough that a scan is not free, and `events`, which grows.
pub fn serve_tables(seed: u64, scale: &Scale) -> Vec<Table> {
    let mut tables = star_tables(seed, scale);
    let mut rng = Rng::new(seed ^ 0x5e57e);
    let n = scale.big_rows;
    tables.push(Table {
        name: "big",
        columns: vec![int("a", n as u64), int("c", 100), int("d", 10)],
        rows: zip_rows(vec![
            even_column(&mut rng, n, n as u64),
            even_column(&mut rng, n, 100),
            even_column(&mut rng, n, 10),
        ]),
    });
    tables.push(Table {
        name: "events",
        columns: vec![int("id", scale.event_rows as u64), int("kind", 10)],
        rows: zip_rows(vec![
            (0..scale.event_rows as i64).collect(),
            even_column(&mut rng, scale.event_rows, 10),
        ]),
    });
    tables
}

// ---------------------------------------------------------------------
// Statements and their reference answers.

pub struct Statement {
    pub name: &'static str,
    /// `$0` stands for the constant, when the statement takes one.
    pub sql: &'static str,
    /// The constants an execution rotates through (one entry, ignored,
    /// for a statement without `$0`).
    pub consts: Vec<i64>,
    /// Times the statement appears per constant in one cycle.
    pub weight: usize,
    /// The statement has an ORDER BY that fixes the row order.
    pub ordered: bool,
    /// The expected rows, in order when `ordered`.
    pub reference: fn(&[Table], i64) -> Vec<Row>,
}

impl Statement {
    pub fn takes_constant(&self) -> bool {
        self.sql.contains("$0")
    }

    /// The statement as a user would type it for one constant.
    pub fn text(&self, constant: i64) -> String {
        self.sql.replace("$0", &constant.to_string())
    }

    pub fn params(&self, constant: i64) -> Vec<i64> {
        if self.takes_constant() {
            vec![constant]
        } else {
            Vec::new()
        }
    }
}

/// Fact ids with `v < bound`, once per combination of matching rows in
/// the first `dims` dimensions (a hash join per dimension), in fact
/// order.
fn star_join(tables: &[Table], dims: usize, bound: i64) -> Vec<(i64, i64)> {
    let matches: Vec<HashMap<i64, usize>> = DIM_NAMES[..dims]
        .iter()
        .map(|name| {
            let mut by_id = HashMap::new();
            for row in table_rows(tables, name) {
                *by_id.entry(row[0]).or_insert(0) += 1;
            }
            by_id
        })
        .collect();
    let mut out = Vec::new();
    for row in table_rows(tables, "fact") {
        if row[FACT_V] >= bound {
            continue;
        }
        let copies: usize = matches
            .iter()
            .enumerate()
            .map(|(k, by_id)| by_id.get(&row[1 + k]).copied().unwrap_or(0))
            .product();
        out.extend(std::iter::repeat_n((row[0], row[1]), copies));
    }
    out
}

fn star_ids(tables: &[Table], dims: usize, bound: i64, ordered: bool) -> Vec<Row> {
    let mut ids: Vec<i64> = star_join(tables, dims, bound)
        .into_iter()
        .map(|(id, _)| id)
        .collect();
    if ordered {
        ids.sort_unstable();
    }
    ids.into_iter().map(|id| vec![id]).collect()
}

fn ref_agg_group(t: &[Table], bound: i64) -> Vec<Row> {
    let mut groups = BTreeMap::new();
    for (_, d1) in star_join(t, 1, bound) {
        *groups.entry(d1).or_insert(0i64) += 1;
    }
    groups.into_iter().map(|(d1, n)| vec![d1, n]).collect()
}

pub const JOIN_5WAY_SQL: &str = "SELECT fact.id FROM fact, dim1, dim2, dim3, dim4 \
     WHERE fact.d1 = dim1.id AND fact.d2 = dim2.id \
     AND fact.d3 = dim3.id AND fact.d4 = dim4.id AND fact.v < $0";

/// The six statements of the legacy plan-cache harness, each rotating
/// through that harness's three bounds on `fact.v` (3 %, 7 % and 11 % of
/// the fact table qualify).
pub fn star_statements(weights: [usize; 6]) -> Vec<Statement> {
    let consts = vec![3, 7, 11];
    let stmt = |i: usize, name, sql, ordered, reference| Statement {
        name,
        sql,
        consts: consts.clone(),
        weight: weights[i],
        ordered,
        reference,
    };
    vec![
        stmt(
            0,
            "select_1tab",
            "SELECT fact.id FROM fact WHERE fact.v < $0 ORDER BY fact.id",
            true,
            |t, bound| star_ids(t, 0, bound, true),
        ),
        stmt(
            1,
            "join_2way",
            "SELECT fact.id FROM fact, dim1 WHERE fact.d1 = dim1.id AND fact.v < $0",
            false,
            |t, bound| star_ids(t, 1, bound, false),
        ),
        stmt(
            2,
            "join_3way",
            "SELECT fact.id FROM fact, dim1, dim2 \
             WHERE fact.d1 = dim1.id AND fact.d2 = dim2.id AND fact.v < $0 \
             ORDER BY fact.id",
            true,
            |t, bound| star_ids(t, 2, bound, true),
        ),
        stmt(3, "join_5way", JOIN_5WAY_SQL, false, |t, bound| {
            star_ids(t, 4, bound, false)
        }),
        stmt(
            4,
            "join_7way",
            "SELECT fact.id FROM fact, dim1, dim2, dim3, dim4, dim5, dim6 \
             WHERE fact.d1 = dim1.id AND fact.d2 = dim2.id \
             AND fact.d3 = dim3.id AND fact.d4 = dim4.id \
             AND fact.d5 = dim5.id AND fact.d6 = dim6.id AND fact.v < $0",
            false,
            |t, bound| star_ids(t, 6, bound, false),
        ),
        stmt(
            5,
            "agg_group",
            "SELECT fact.d1, COUNT(*) FROM fact, dim1 \
             WHERE fact.d1 = dim1.id AND fact.v < $0 \
             GROUP BY fact.d1 ORDER BY fact.d1",
            true,
            ref_agg_group,
        ),
    ]
}

fn ref_scan_project(t: &[Table], _: i64) -> Vec<Row> {
    table_rows(t, "sales")
        .iter()
        .map(|r| vec![r[1], r[SALES_B]])
        .collect()
}
fn ref_scan_filter(t: &[Table], bound: i64) -> Vec<Row> {
    table_rows(t, "sales")
        .iter()
        .filter(|r| r[SALES_C] < bound)
        .map(|r| vec![r[1]])
        .collect()
}
fn ref_hash_join(t: &[Table], _: i64) -> Vec<Row> {
    let mut by_id: HashMap<i64, Vec<i64>> = HashMap::new();
    for d in table_rows(t, "dim") {
        by_id.entry(d[0]).or_default().push(d[1]);
    }
    let mut out = Vec::new();
    for s in table_rows(t, "sales") {
        for &r in by_id.get(&s[SALES_K]).into_iter().flatten() {
            out.push(vec![s[SALES_B], r]);
        }
    }
    out
}
fn ref_group_sum(t: &[Table], _: i64) -> Vec<Row> {
    let mut groups = BTreeMap::new();
    for s in table_rows(t, "sales") {
        *groups.entry(s[SALES_G]).or_insert(0i64) += s[SALES_Q];
    }
    groups.into_iter().map(|(g, sum)| vec![g, sum]).collect()
}
fn ref_grand_total(t: &[Table], _: i64) -> Vec<Row> {
    let sales = table_rows(t, "sales");
    vec![vec![
        sales.len() as i64,
        sales.iter().map(|s| s[SALES_Q]).sum(),
    ]]
}
fn ref_filter_sort(t: &[Table], bound: i64) -> Vec<Row> {
    // `sales` is generated in id order.
    table_rows(t, "sales")
        .iter()
        .filter(|r| r[SALES_C] < bound)
        .map(|r| vec![r[0], r[SALES_B]])
        .collect()
}

/// Six execution-bound statements over `sales` and `dim`.
pub fn analytic_statements(weights: [usize; 6]) -> Vec<Statement> {
    let stmt = |i: usize, name, sql, constant: i64, ordered, reference| Statement {
        name,
        sql,
        consts: vec![constant],
        weight: weights[i],
        ordered,
        reference,
    };
    vec![
        stmt(
            0,
            "scan_project",
            "SELECT sales.a, sales.b FROM sales",
            0,
            false,
            ref_scan_project,
        ),
        stmt(
            1,
            "scan_filter_2pct",
            "SELECT sales.a FROM sales WHERE sales.c < $0",
            2,
            false,
            ref_scan_filter,
        ),
        stmt(
            2,
            "hash_join_large_build",
            "SELECT sales.b, dim.r FROM sales, dim WHERE sales.k = dim.id",
            0,
            false,
            ref_hash_join,
        ),
        stmt(
            3,
            "group_sum_100",
            "SELECT sales.g, SUM(sales.q) FROM sales GROUP BY sales.g",
            0,
            false,
            ref_group_sum,
        ),
        stmt(
            4,
            "grand_total",
            "SELECT COUNT(*), SUM(sales.q) FROM sales",
            0,
            false,
            ref_grand_total,
        ),
        stmt(
            5,
            "filter_sort",
            "SELECT sales.id, sales.b FROM sales WHERE sales.c < $0 ORDER BY sales.id",
            10,
            true,
            ref_filter_sort,
        ),
    ]
}

fn ref_big_scan(t: &[Table], bound: i64) -> Vec<Row> {
    table_rows(t, "big")
        .iter()
        .filter(|r| r[1] < bound)
        .map(|r| vec![r[0]])
        .collect()
}

/// The serving workload's scan over the static `big` table.
pub fn big_scan_statement() -> Statement {
    Statement {
        name: "scan_filter_2pct",
        sql: "SELECT big.a FROM big WHERE big.c < $0",
        consts: vec![2],
        weight: 1,
        ordered: false,
        reference: ref_big_scan,
    }
}

pub const EVENTS_COUNT_SQL: &str = "SELECT COUNT(*) FROM events";

/// One cycle of a single-session workload: every (statement, constant)
/// pair `weight` times, in an order the seed fixes.
pub fn cycle(statements: &[Statement], seed: u64) -> Vec<(usize, usize)> {
    let mut ops = Vec::new();
    for (s, stmt) in statements.iter().enumerate() {
        for c in 0..stmt.consts.len() {
            ops.extend(std::iter::repeat_n((s, c), stmt.weight));
        }
    }
    Rng::new(seed ^ 0xc1c1e).shuffle(&mut ops);
    ops
}

/// What one serving client does in one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOp {
    /// A prepared star statement served from the plan cache.
    Warm { stmt: usize, constant: usize },
    /// The prepared 2 % scan over `big`.
    Scan,
    /// The five-way join as SQL text, plan cache bypassed.
    Cold { constant: usize },
    /// `COUNT(*)` over the growing `events` table.
    Count,
    /// One row inserted into `events`.
    Insert,
}

/// A client's operations for one round: 70 % warm hits, 18 % scans, 8 %
/// cold five-way joins, 2 % counts and 2 % inserts. The shares are exact
/// for every client and seed; the seed fixes the order.
pub fn serve_sequence(seed: u64, client: usize, len: usize) -> Vec<ServeOp> {
    let mut ops = Vec::with_capacity(len);
    for i in 0..len {
        // Position within each block of 50 decides the class, so any
        // multiple of 50 operations holds the stated shares exactly.
        ops.push(match i % 50 {
            0..35 => ServeOp::Warm {
                stmt: i % 6,
                constant: (i / 6) % 3,
            },
            35..44 => ServeOp::Scan,
            44..48 => ServeOp::Cold { constant: i % 3 },
            48 => ServeOp::Count,
            _ => ServeOp::Insert,
        });
    }
    Rng::new(seed ^ (0x5e9 + client as u64)).shuffle(&mut ops);
    ops
}
