//! The adapter to the program under test.
//!
//! Every call into the `volcano_*` crates lives in this file; workloads,
//! timing, statistics and output name no product type. When the product
//! collapses its `execute_*` entry points or its `Engine` enum, the
//! benchmark's companion change is a diff of this one file.
//!
//! Two paths exist for every SQL operation. The *product* path
//! ([`Db::query_text`], [`Db::execute`], [`Client`]) goes through the
//! entry points a user calls and is the only source of end-to-end
//! numbers. The *traced* path ([`Db::traced`]) walks the same flow —
//! `Database::execute_prepared_opts` — step by step through the layers'
//! public functions with a span around each call.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use volcano_bench::{generate_query, WorkloadConfig};
use volcano_core::{PhysicalProps, SearchOptions, SearchStats};
use volcano_exec::plan_cache::{drift_validation, CacheEntry, Validation};
use volcano_exec::{
    compile_fused, rebind_plan, Batch, BatchConfig, CacheOutcome, Database, Engine, ExecOptions,
    PreparedOutcome, PreparedStatement, Server, ServerConfig, Session, TrafficClass,
};
use volcano_rel::value::Tuple;
use volcano_rel::{
    Catalog, ColumnDef, RelExpr, RelModel, RelModelOptions, RelOptimizer, RelPlan, RelProps,
    TableId, Value,
};
use volcano_sql::{lower_with_params, parameterize, parse, shape_key, ParamQuery};

pub use volcano_bench::jsonv::{parse_json, Json};

use crate::rows::{mix, Digest, Row};
use crate::trace::Trace;

/// The engine every end-to-end number is measured on.
pub const ENGINE: &str = "fused";
/// Parallel degree of the end-to-end engine.
pub const DEGREE: u32 = 1;

fn engine() -> Engine {
    Engine::Fused(BatchConfig::default())
}

/// Rows per batch of the end-to-end engine.
pub fn batch_size() -> usize {
    BatchConfig::default().batch_size
}

/// Buffer-pool pages of a database opened without an explicit size.
pub const DEFAULT_POOL_PAGES: usize = 4096;

// ---------------------------------------------------------------------
// Tables and results.

#[derive(Clone)]
pub struct Column {
    pub name: &'static str,
    /// Distinct values, as declared to the optimizer's statistics.
    pub distinct: u64,
    /// `Some(width)` stores the integer as text padded to `width` bytes.
    pub text_width: Option<u32>,
}

pub struct Table {
    pub name: &'static str,
    pub columns: Vec<Column>,
    pub rows: Vec<Row>,
}

fn stored_row(columns: &[Column], row: &[i64]) -> Tuple {
    columns
        .iter()
        .zip(row)
        .map(|(c, &v)| match c.text_width {
            None => Value::Int(v),
            Some(w) => Value::Str(format!("v{v:_<width$}", width = w as usize - 1)),
        })
        .collect()
}

fn int_params(params: &[i64]) -> Vec<Value> {
    params.iter().map(|&p| Value::Int(p)).collect()
}

/// What one execution returned, with the evidence the workloads check.
pub struct Reply {
    rows: Vec<Tuple>,
    /// The plan came from the plan cache.
    pub cache_hit: bool,
    /// Counters of the search this execution ran; `None` when it ran
    /// none. Only the traced path knows `initial_exprs`.
    pub search: Option<SearchCounters>,
    /// Admission control degraded this execution's search.
    pub degraded: bool,
    /// Estimated cost of the executed plan.
    pub plan_cost: f64,
}

impl Reply {
    fn of(outcome: PreparedOutcome, degraded: bool) -> Reply {
        Reply {
            cache_hit: outcome.cache == "hit",
            search: outcome.search.as_ref().map(|s| counters_of(s, 0)),
            degraded,
            plan_cost: outcome.cost.total(),
            rows: outcome.rows,
        }
    }

    fn ints(row: &Tuple) -> Result<impl Iterator<Item = i64> + '_, String> {
        if let Some(v) = row.iter().find(|v| !matches!(v, Value::Int(_))) {
            return Err(format!("non-integer value {v:?} in a result row"));
        }
        Ok(row.iter().filter_map(Value::as_int))
    }

    pub fn digest(&self) -> Result<Digest, String> {
        let mut d = Digest::default();
        for row in &self.rows {
            d.add_row(Self::ints(row)?);
        }
        Ok(d)
    }

    pub fn into_rows(self) -> Result<Vec<Row>, String> {
        self.rows
            .iter()
            .map(|r| Ok(Self::ints(r)?.collect()))
            .collect()
    }
}

/// Monotone counters of the storage layer and the plan cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_evictions: u64,
    pub page_reads: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub cache_invalidations: u64,
}

impl Counters {
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
            pool_evictions: self.pool_evictions - earlier.pool_evictions,
            page_reads: self.page_reads - earlier.page_reads,
            cache_lookups: self.cache_lookups - earlier.cache_lookups,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_invalidations: self.cache_invalidations - earlier.cache_invalidations,
        }
    }

    pub fn add(&mut self, other: &Counters) {
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
        self.pool_evictions += other.pool_evictions;
        self.page_reads += other.page_reads;
        self.cache_lookups += other.cache_lookups;
        self.cache_hits += other.cache_hits;
        self.cache_invalidations += other.cache_invalidations;
    }
}

// ---------------------------------------------------------------------
// One database, single session.

pub struct Db {
    db: Arc<Database>,
    tables: HashMap<&'static str, (TableId, Vec<Column>)>,
    /// Seconds spent inside `Database::insert` while loading, and the
    /// rows loaded.
    pub load_seconds: f64,
    pub load_rows: u64,
}

/// A prepared statement: the product's handle for the product path and
/// the parameterized shape the traced path lowers from.
pub struct Stmt {
    prepared: PreparedStatement,
    param: ParamQuery,
}

/// Which engine executes a plan, for the per-engine layer metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OtherEngine {
    Tuple,
    Batch,
    /// The fused engine; combine with [`Db::set_parallel_degree`].
    Fused,
}

impl Db {
    /// Build the catalog from the tables' own shape and load every row
    /// through `Database::insert`. `pool_pages` of `None` is the
    /// product's default pool.
    pub fn load(tables: &[Table], pool_pages: Option<usize>) -> Db {
        let mut catalog = Catalog::new();
        let mut ids = Vec::new();
        for t in tables {
            let columns = t
                .columns
                .iter()
                .map(|c| match c.text_width {
                    None => ColumnDef::int(c.name, c.distinct as f64),
                    Some(w) => ColumnDef::str(c.name, w, c.distinct as f64),
                })
                .collect();
            ids.push(catalog.add_table(t.name, t.rows.len() as f64, columns));
        }
        let db = match pool_pages {
            Some(pages) => Database::with_pool_size(catalog, pages),
            None => Database::in_memory(catalog),
        };
        let mut load_rows = 0;
        let started = Instant::now();
        for (t, &id) in tables.iter().zip(&ids) {
            for row in &t.rows {
                db.insert(id, stored_row(&t.columns, row));
            }
            load_rows += t.rows.len() as u64;
        }
        let load_seconds = started.elapsed().as_secs_f64();
        Db {
            db: Arc::new(db),
            tables: tables
                .iter()
                .zip(ids)
                .map(|(t, id)| (t.name, (id, t.columns.clone())))
                .collect(),
            load_seconds,
            load_rows,
        }
    }

    pub fn prepare(&self, sql: &str) -> Result<Stmt, String> {
        let prepared = self.db.prepare(sql).map_err(|e| e.to_string())?;
        let param = parameterize(&parse(sql).map_err(|e| e.to_string())?);
        Ok(Stmt { prepared, param })
    }

    fn options(bypass_cache: bool) -> ExecOptions {
        ExecOptions::new()
            .with_executor(engine())
            .with_cache_bypass(bypass_cache)
    }

    /// Product path, prepared: `Database::execute_prepared_opts` through
    /// the plan cache.
    pub fn execute(&self, stmt: &Stmt, params: &[i64]) -> Result<Reply, String> {
        self.db
            .execute_prepared_opts(
                &stmt.prepared,
                &int_params(params),
                &Self::options(false),
                None,
            )
            .map(|o| Reply::of(o, false))
            .map_err(|e| e.to_string())
    }

    /// Product path, SQL text in: `Database::prepare` then a cache-bypassing
    /// execution, which is what a one-shot query costs.
    pub fn query_text(&self, sql: &str) -> Result<Reply, String> {
        let prepared = self.db.prepare(sql).map_err(|e| e.to_string())?;
        self.db
            .execute_prepared_opts(&prepared, &[], &Self::options(true), None)
            .map(|o| Reply::of(o, false))
            .map_err(|e| e.to_string())
    }

    /// The same statement on another engine (layer metrics only).
    pub fn execute_on(
        &self,
        stmt: &Stmt,
        params: &[i64],
        engine: OtherEngine,
    ) -> Result<Reply, String> {
        let engine = match engine {
            OtherEngine::Tuple => Engine::Tuple,
            OtherEngine::Batch => Engine::Batch(BatchConfig::default()),
            OtherEngine::Fused => self::engine(),
        };
        let opts = ExecOptions::new().with_executor(engine);
        self.db
            .execute_prepared_opts(&stmt.prepared, &int_params(params), &opts, None)
            .map(|o| Reply::of(o, false))
            .map_err(|e| e.to_string())
    }

    /// Offer the optimizer `degree` workers (clears the plan cache).
    pub fn set_parallel_degree(&self, degree: u32) {
        self.db.set_parallel_degree(degree);
    }

    pub fn insert(&self, table: &str, row: &[i64]) {
        let (id, columns) = &self.tables[table];
        self.db.insert(*id, stored_row(columns, row));
    }

    pub fn table_pages(&self, table: &str) -> usize {
        self.db.table(self.tables[table].0).num_pages()
    }

    pub fn counters(&self) -> Counters {
        let (pool_hits, pool_misses, pool_evictions) = self.db.pool().stats();
        let cache = self.db.plan_cache().stats();
        Counters {
            pool_hits,
            pool_misses,
            pool_evictions,
            page_reads: self.db.io_stats().0,
            cache_lookups: cache.lookups,
            cache_hits: cache.hits,
            cache_invalidations: cache.invalidations,
        }
    }

    /// The scan roofline: a hand-written loop over the table's pages
    /// that decodes the integer columns `cols` (ascending) straight
    /// from record bytes and folds them into a checksum. It pins pages
    /// through the same buffer pool as the engine, builds no batch and
    /// no tuple.
    pub fn raw_scan(&self, table: &str, cols: &[usize]) -> Digest {
        let heap = self.db.table(self.tables[table].0);
        let mut digest = Digest::default();
        let mut picked = vec![0i64; cols.len()];
        for page in heap.pages() {
            heap.for_page_records(page, |rec| {
                let mut at = 2; // u16 field count
                let mut want = 0;
                let mut field = 0;
                while want < cols.len() {
                    let tag = rec[at];
                    at += 1;
                    let len = match tag {
                        0 => 0,
                        1 => 1,
                        2 | 3 => 8,
                        _ => 4 + u32::from_le_bytes(rec[at..at + 4].try_into().unwrap()) as usize,
                    };
                    if field == cols[want] {
                        assert_eq!(tag, 2, "raw_scan reads integer columns");
                        picked[want] = i64::from_le_bytes(rec[at..at + 8].try_into().unwrap());
                        want += 1;
                    }
                    at += len;
                    field += 1;
                }
                digest.add_row(picked.iter().copied());
            });
        }
        digest
    }

    /// Traced path: the flow of `Database::execute_prepared_opts` through
    /// the layers' public functions, one span per call. `sql` is parsed
    /// and parameterized when no prepared statement is given.
    pub fn traced(
        &self,
        sql: &str,
        stmt: Option<&Stmt>,
        params: &[i64],
        bypass_cache: bool,
        t: &mut Trace,
    ) -> Result<Reply, String> {
        t.span("op", |t| {
            let parsed;
            let param = match stmt {
                Some(s) => &s.param,
                None => {
                    let ast = t
                        .span("sql.parse", |_| parse(sql))
                        .map_err(|e| e.to_string())?;
                    parsed = t.span("sql.parameterize", |_| parameterize(&ast));
                    &parsed
                }
            };
            let snap = self.db.snapshot();
            let (full, catalog, q) = t.span("sql.bind_lower", |_| {
                let full = param.bind(&int_params(params)).map_err(|e| e.to_string())?;
                let mut catalog = snap.catalog().clone();
                let q = lower_with_params(&param.shape, &mut catalog, &full)
                    .map_err(|e| e.to_string())?;
                Ok::<_, String>((full, catalog, q))
            })?;
            let goal = RelProps::sorted(q.order_by.clone());
            let shape = t.span("sql.shape_key", |_| shape_key(&q.expr, &q.order_by));

            let mut cache_hit = false;
            let mut searched = None;
            let mut cached: Option<CacheEntry> = None;
            let epoch = self.db.epoch();
            if !bypass_cache {
                let drift = self.db.drift_factor();
                let options = self.db.model_options();
                let outcome = t.span("plan_cache.lookup", |_| {
                    self.db.plan_cache().lookup(shape, &goal, |entry| {
                        if entry.epoch == epoch {
                            Validation::Valid
                        } else {
                            drift_validation(entry, snap.catalog(), &options, &full, epoch, drift)
                        }
                    })
                });
                if let CacheOutcome::Hit(entry) = outcome {
                    cache_hit = true;
                    cached = Some(entry);
                }
            }
            let (plan, plan_cost) = match cached {
                Some(entry) => (
                    t.span("plan_cache.rebind", |_| rebind_plan(&entry.plan, &full)),
                    entry.cost.total(),
                ),
                None => {
                    let found = t.span("core.optimize", |t| {
                        let model = t.span("rel.model_build", |_| {
                            RelModel::new(catalog.clone(), self.db.model_options())
                        });
                        search(&model, &q.expr, goal.clone(), t)
                    })?;
                    searched = Some(found.counters());
                    let plan = found.plan;
                    if !bypass_cache {
                        let entry = CacheEntry {
                            plan: plan.clone(),
                            cost: plan.cost,
                            epoch,
                        };
                        self.db.plan_cache().insert(shape, goal, entry);
                    }
                    let cost = plan.cost.total();
                    (plan, cost)
                }
            };

            let compiled = t.span("exec.compile", |_| {
                compile_fused(&self.db, &plan, BatchConfig::default())
            });
            // `collect_batches`, with the operator's work and the row
            // materialisation under separate spans.
            let rows = t.span("exec.execute", |t| {
                let mut op = compiled.operator;
                let mut out = Vec::new();
                let mut batch = Batch::default();
                t.span("exec.drain", |_| op.open());
                while t.span("exec.drain", |_| op.next_batch(&mut batch)) {
                    t.span("exec.materialize", |_| {
                        for i in 0..batch.live_rows() {
                            out.push(batch.row_at_live(i));
                        }
                    });
                }
                op.close();
                out
            });
            Ok(Reply {
                rows,
                cache_hit,
                search: searched,
                degraded: false,
                plan_cost,
            })
        })
    }
}

// ---------------------------------------------------------------------
// The optimizer alone (the paper's §4.2 experiment).

/// Exact counters of one search, by the benchmark's metric names.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchCounters {
    pub transform_fired: u64,
    pub substitutes_produced: u64,
    pub exprs_created: u64,
    pub dead_exprs: u64,
    pub group_merges: u64,
    pub goals_optimized: u64,
    pub moves_costed: u64,
    pub moves_pruned: u64,
    pub winner_hits: u64,
    pub failure_hits: u64,
    pub memo_bytes: u64,
    /// Expressions the query tree itself put into the memo.
    pub initial_exprs: u64,
}

impl SearchCounters {
    pub fn add(&mut self, o: &SearchCounters) {
        self.transform_fired += o.transform_fired;
        self.substitutes_produced += o.substitutes_produced;
        self.exprs_created += o.exprs_created;
        self.dead_exprs += o.dead_exprs;
        self.group_merges += o.group_merges;
        self.goals_optimized += o.goals_optimized;
        self.moves_costed += o.moves_costed;
        self.moves_pruned += o.moves_pruned;
        self.winner_hits += o.winner_hits;
        self.failure_hits += o.failure_hits;
        self.memo_bytes += o.memo_bytes;
        self.initial_exprs += o.initial_exprs;
    }
}

/// The result of one search.
pub struct Searched {
    plan: RelPlan,
    stats: SearchStats,
    initial_exprs: u64,
}

impl Searched {
    pub fn cost(&self) -> f64 {
        self.plan.cost.total()
    }

    /// Same winner cost, bit for bit, and the same search counters.
    pub fn same_search(&self, other: &Searched) -> bool {
        self.cost().to_bits() == other.cost().to_bits() && self.stats.counters_eq(&other.stats)
    }

    pub fn counters(&self) -> SearchCounters {
        counters_of(&self.stats, self.initial_exprs)
    }
}

fn counters_of(s: &SearchStats, initial_exprs: u64) -> SearchCounters {
    SearchCounters {
        transform_fired: s.transform_fired,
        substitutes_produced: s.substitutes_produced,
        exprs_created: s.exprs_created as u64,
        dead_exprs: s.dead_exprs,
        group_merges: s.group_merges,
        goals_optimized: s.goals_optimized,
        moves_costed: s.total_moves(),
        moves_pruned: s.moves_pruned,
        winner_hits: s.winner_hits,
        failure_hits: s.failure_hits,
        memo_bytes: s.memo_bytes as u64,
        initial_exprs,
    }
}

/// Fresh optimizer, `insert_tree`, `find_best_plan`: one span each.
fn search(
    model: &RelModel,
    expr: &RelExpr,
    goal: RelProps,
    t: &mut Trace,
) -> Result<Searched, String> {
    let mut opt = t.span("core.optimizer_new", |_| {
        RelOptimizer::new(model, SearchOptions::default())
    });
    let root = t.span("core.insert_tree", |_| opt.insert_tree(expr));
    let plan = t
        .span("core.find_best_plan", |_| {
            opt.find_best_plan(root, goal, None)
        })
        .map_err(|e| e.to_string())?;
    Ok(Searched {
        plan,
        stats: opt.stats().clone(),
        initial_exprs: expr.node_count() as u64,
    })
}

/// One generated select–join query with the model it is optimized under.
pub struct OptCase {
    model: RelModel,
    expr: RelExpr,
    pub relations: usize,
}

impl OptCase {
    /// `per_level` random queries for each relation count in `levels`,
    /// from the repository's §4.2 generator, under the paper's model
    /// configuration.
    ///
    /// Every join edge shares the hub's attribute
    /// (`shared_attr_probability` 1 instead of the generator's 0.8). At
    /// 0.8 the number of hub edges varies by draw and search time at one
    /// level by 0.44 of its mean, which no affordable number of queries
    /// averages out across seeds; at 1 the topology, the generator's
    /// most expensive, is a property of the level and the seed varies
    /// cardinalities, selections and join columns.
    pub fn generate(
        seed: u64,
        levels: std::ops::RangeInclusive<usize>,
        per_level: usize,
    ) -> Vec<OptCase> {
        let mut cases = Vec::new();
        for n in levels {
            for q in 0..per_level {
                let query_seed = mix(seed ^ mix((n * 1000 + q) as u64));
                let config = WorkloadConfig {
                    shared_attr_probability: 1.0,
                    ..WorkloadConfig::relations(n)
                };
                let query = generate_query(&config, query_seed);
                cases.push(OptCase {
                    model: RelModel::new(query.catalog, RelModelOptions::paper_fig4()),
                    expr: query.expr,
                    relations: n,
                });
            }
        }
        cases
    }

    /// Product path: the optimizer's three public calls, nothing else.
    pub fn optimize(&self) -> Result<Searched, String> {
        let mut opt = RelOptimizer::new(&self.model, SearchOptions::default());
        let root = opt.insert_tree(&self.expr);
        let plan = opt
            .find_best_plan(root, RelProps::any(), None)
            .map_err(|e| e.to_string())?;
        Ok(Searched {
            plan,
            stats: opt.stats().clone(),
            initial_exprs: self.expr.node_count() as u64,
        })
    }

    pub fn optimize_traced(&self, t: &mut Trace) -> Result<Searched, String> {
        t.span("op", |t| {
            search(&self.model, &self.expr, RelProps::any(), t)
        })
    }
}

// ---------------------------------------------------------------------
// Many sessions on one server.

pub struct Service {
    server: Server,
    db: Db,
}

/// One closed-loop client: a session that uses the shared plan cache
/// and one that bypasses it for SQL-text queries.
pub struct Client {
    warm: Session,
    cold: Session,
}

impl Service {
    pub fn new(db: Db) -> Service {
        Service {
            server: Server::over(db.db.clone(), ServerConfig::default()),
            db,
        }
    }

    pub fn db(&self) -> &Db {
        &self.db
    }

    pub fn client(&self) -> Client {
        let mut warm = self.server.session(TrafficClass::Interactive);
        warm.set_executor(engine());
        let mut cold = self.server.session(TrafficClass::Interactive);
        cold.set_executor(engine());
        cold.set_plan_cache(false);
        Client { warm, cold }
    }
}

impl Client {
    /// `Session::run` on a prepared statement, through admission control
    /// and the shared plan cache.
    pub fn execute(&self, stmt: &Stmt, params: &[i64]) -> Result<Reply, String> {
        self.warm
            .run(&stmt.prepared, &int_params(params), None)
            .map(|o| Reply::of(o.outcome, o.degraded))
            .map_err(|e| e.to_string())
    }

    /// `Session::query`: SQL text in, plan cache bypassed.
    pub fn query_text(&self, sql: &str) -> Result<Reply, String> {
        self.cold
            .query(sql)
            .map(|o| Reply::of(o.outcome, o.degraded))
            .map_err(|e| e.to_string())
    }
}
