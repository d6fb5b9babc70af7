//! Tables as heap files behind a buffer pool.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use volcano_core::trace::{TraceEvent, Tracer};
use volcano_core::{SearchOptions, SearchStats};
use volcano_rel::catalog::ColType;
use volcano_rel::value::Tuple;
use volcano_rel::{
    AttrId, Catalog, Observation, RelCost, RelModel, RelModelOptions, RelOptimizer, RelPlan,
    RelProps, TableId, Value,
};
use volcano_sql::{
    lower_with_params, parameterize, parse, shape_key, AstQuery, BindError, LowerError, ParamQuery,
    ParseError,
};
use volcano_store::record::{decode_record, encode_record, Field};
use volcano_store::{BTree, BufferPool, DiskManager, HeapFile, MemDisk};

use crate::batch::collect_batches;
use crate::compile::Engine;
use crate::iterator::collect;
use crate::plan_cache::{drift_validation, rebind_plan, CacheEntry, CacheOutcome, PlanCache};

fn value_to_field(v: &Value) -> Field {
    match v {
        Value::Null => Field::Null,
        Value::Bool(b) => Field::Bool(*b),
        Value::Int(i) => Field::Int(*i),
        Value::Float(x) => Field::Float(x.get()),
        Value::Str(s) => Field::Str(s.clone()),
    }
}

fn field_to_value(f: Field) -> Value {
    match f {
        Field::Null => Value::Null,
        Field::Bool(b) => Value::Bool(b),
        Field::Int(i) => Value::Int(i),
        Field::Float(x) => Value::float(x),
        Field::Str(s) => Value::Str(s),
    }
}

/// Encode a row of values for storage.
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let fields: Vec<Field> = row.iter().map(value_to_field).collect();
    encode_record(&fields)
}

/// Decode a stored row.
pub fn decode_row(bytes: &[u8]) -> Tuple {
    decode_record(bytes)
        .expect("stored rows are well-formed")
        .into_iter()
        .map(field_to_value)
        .collect()
}

/// Default plan-cache entry capacity.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// Default cost-drift tolerance: a stale entry whose re-estimated cost
/// exceeds its recorded cost by more than this factor is re-optimized.
pub const DEFAULT_DRIFT_FACTOR: f64 = 2.0;

/// Materiality threshold for feedback-triggered epoch bumps: merging an
/// execution's observations bumps the stats epoch (forcing cached plans
/// to re-justify themselves under the observed statistics) only when
/// some memory cell moved by at least this ratio. Immaterial drift —
/// re-observing what the memory already says — must not invalidate
/// anything, or every execution would de-cache its own plan.
pub const FEEDBACK_MATERIAL_RATIO: f64 = 1.5;

/// Counters of the adaptive-feedback loop (see
/// [`Database::feedback_stats`]); rendered in `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeedbackStats {
    /// Selectivity observations merged into the memory so far.
    pub observations: u64,
    /// Executions that harvested at least one observation.
    pub applications: u64,
    /// Stats-epoch bumps triggered by material memory movement.
    pub epoch_bumps: u64,
    /// Memory cells currently populated in the catalog.
    pub cells: u64,
}

impl FeedbackStats {
    /// Render as a JSON object (the CLI's `EXPLAIN ANALYZE` embeds it).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"observations\":{},\"applications\":{},\"epoch_bumps\":{},\"cells\":{}}}",
            self.observations, self.applications, self.epoch_bumps, self.cells
        )
    }
}

/// A statement prepared against a [`Database`]: the parameterized query
/// shape plus the constants extracted from its text. Cheap to clone;
/// holds no plan — plans live in the shared [`PlanCache`].
#[derive(Debug, Clone)]
pub struct PreparedStatement {
    param: ParamQuery,
}

impl PreparedStatement {
    /// Number of `$n` values the caller must supply per execution.
    pub fn param_count(&self) -> usize {
        self.param.auto_base as usize
    }
}

/// Why preparing or executing a prepared statement failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PrepareError {
    /// The statement text did not parse.
    Parse(ParseError),
    /// The statement did not lower against the current catalog (unknown
    /// table/column — including tables dropped since `prepare`).
    Lower(LowerError),
    /// The parameter vector had the wrong arity.
    Bind(BindError),
    /// Optimization found no plan (cost limit, empty search space).
    Plan(String),
}

impl fmt::Display for PrepareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrepareError::Parse(e) => write!(f, "{e}"),
            PrepareError::Lower(e) => write!(f, "{e}"),
            PrepareError::Bind(e) => write!(f, "{e}"),
            PrepareError::Plan(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PrepareError {}

/// The result of one prepared execution, with enough evidence to audit
/// the cache's behaviour: whether the plan came from the cache, and the
/// search statistics when (and only when) an optimization actually ran.
#[derive(Debug)]
pub struct PreparedOutcome {
    /// Result rows.
    pub rows: Vec<Tuple>,
    /// `hit`, `miss`, `invalidated`, or `bypass` (cache disabled).
    pub cache: &'static str,
    /// Search statistics of the optimization this execution ran;
    /// `None` exactly when the plan was served from the cache.
    pub search: Option<SearchStats>,
    /// Estimated cost of the executed plan.
    pub cost: RelCost,
    /// The physical plan this execution ran (re-bound to this
    /// execution's parameters when served from the cache) — the
    /// convergence harness compares plan identity across executions.
    pub plan: RelPlan,
}

/// Per-execution controls for prepared execution — what a serving-tier
/// session varies call by call without touching database-wide state.
#[derive(Debug, Clone, Default)]
pub struct ExecOptions {
    /// Which engine executes the plan (tuple or vectorized).
    pub engine: Engine,
    /// The [`SearchOptions::move_limit`] this execution optimizes under
    /// when it has to optimize (admission control degrades overloaded
    /// traffic to greedy search). `None` = exhaustive. A plan found under
    /// a move limit is never inserted into the plan cache: it is an upper
    /// bound chosen under pressure, and caching it would serve the
    /// pessimized plan to unpressured executions too.
    pub move_limit: Option<usize>,
    /// Bypass the plan cache for this execution only (a session-level
    /// `SET PLAN_CACHE OFF`): the cache is neither probed nor filled,
    /// and nothing in it is cleared.
    pub bypass_cache: bool,
    /// Harvest observed selectivities from this execution and merge them
    /// into the catalog's memory (a session-level `SET FEEDBACK ON`).
    /// Off by default: feedback changes plans, so it is strictly opt-in.
    pub feedback: bool,
}

impl ExecOptions {
    /// Tuple-engine execution, exhaustive search, cache on — the
    /// defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Skip the plan cache for this execution.
    pub fn with_cache_bypass(mut self, bypass: bool) -> Self {
        self.bypass_cache = bypass;
        self
    }

    /// Execute on `engine`.
    pub fn with_executor(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Optimize greedily, under a move limit of `k`.
    pub fn with_move_limit(mut self, k: usize) -> Self {
        self.move_limit = Some(k);
        self
    }

    /// Harvest and merge observed selectivities from this execution.
    pub fn with_feedback(mut self, on: bool) -> Self {
        self.feedback = on;
        self
    }
}

/// An immutable snapshot of the database's schema objects: the catalog
/// plus the heap files and indexes backing each table.
///
/// The [`Database`] keeps the current snapshot behind a readers–writer
/// lock and replaces it wholesale on DDL (copy-on-write). A query pins
/// one snapshot for its entire lower → plan → compile → execute flow,
/// so it never observes a half-applied schema change: queries never
/// block each other, DDL excludes only the instant of the swap, and a
/// table dropped mid-query stays alive (via the `Arc`s below) until the
/// last query over it finishes — MVCC-lite for metadata.
pub struct SchemaSnapshot {
    catalog: Arc<Catalog>,
    tables: HashMap<TableId, Arc<HeapFile>>,
    /// B+tree per indexed (table, column).
    indexes: HashMap<(TableId, AttrId), Arc<BTree>>,
}

impl SchemaSnapshot {
    /// The catalog as of this snapshot.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The heap file backing a table. Panics if the table was dropped
    /// as of this snapshot (plans are compiled against the same
    /// snapshot they were lowered on, so a well-formed plan never hits
    /// this).
    pub fn table(&self, id: TableId) -> &Arc<HeapFile> {
        self.tables.get(&id).unwrap_or_else(|| {
            panic!(
                "table {:?} ({}) was dropped",
                id,
                self.catalog.table(id).name
            )
        })
    }

    /// Whether the table still has storage (not dropped).
    pub fn has_table(&self, id: TableId) -> bool {
        self.tables.contains_key(&id)
    }

    /// The B+tree index on `(table, attr)`, if one exists.
    pub fn index(&self, table: TableId, attr: AttrId) -> Option<&Arc<BTree>> {
        self.indexes.get(&(table, attr))
    }
}

/// A database instance: a catalog plus stored tables and their indexes.
///
/// `Database` is `Send + Sync`: any number of threads may plan and
/// execute queries concurrently. Schema state lives in a copy-on-write
/// [`SchemaSnapshot`] behind a readers–writer lock (queries read,
/// DDL swaps); everything else is atomics, the internally-sharded
/// [`PlanCache`], and the internally-locked storage layer.
pub struct Database {
    /// Current schema snapshot; see [`SchemaSnapshot`] for the
    /// concurrency contract. Lock order: this lock is never held while
    /// touching the buffer pool or plan cache — readers clone the `Arc`
    /// out and release immediately, writers swap a fully-built
    /// replacement.
    schema: RwLock<Arc<SchemaSnapshot>>,
    pool: Arc<BufferPool>,
    /// Tuples an external sort may hold in memory before spilling runs.
    sort_memory_rows: AtomicUsize,
    /// Monotone counter bumped by every statistics-relevant change:
    /// data loads, DDL, stats refreshes. Cached plans record the epoch
    /// they were optimized under.
    stats_epoch: AtomicU64,
    /// The cross-query plan cache.
    plan_cache: PlanCache,
    /// Worker-pool degree the optimizer's gather enforcer may offer
    /// (morsel-driven vectorized execution); `1` = serial planning.
    parallel_degree: AtomicU32,
    /// Selectivity observations merged into the memory.
    feedback_observations: AtomicU64,
    /// Executions that harvested at least one observation.
    feedback_applications: AtomicU64,
    /// Epoch bumps triggered by material feedback.
    feedback_epoch_bumps: AtomicU64,
}

impl Database {
    /// Create an in-memory database for a catalog (empty tables).
    pub fn in_memory(catalog: Catalog) -> Self {
        Self::with_pool_size(catalog, 4096)
    }

    /// Create an in-memory database with a specific buffer-pool capacity
    /// (pages).
    pub fn with_pool_size(catalog: Catalog, pool_pages: usize) -> Self {
        let disk: Arc<dyn DiskManager> = Arc::new(MemDisk::new());
        Self::with_disk(catalog, disk, pool_pages)
    }

    /// Create a database over an arbitrary disk manager.
    pub fn with_disk(catalog: Catalog, disk: Arc<dyn DiskManager>, pool_pages: usize) -> Self {
        let pool = Arc::new(BufferPool::new(disk, pool_pages));
        let tables: HashMap<TableId, Arc<HeapFile>> = catalog
            .tables()
            .iter()
            .map(|t| (t.id, Arc::new(HeapFile::create(pool.clone()))))
            .collect();
        let mut indexes = HashMap::new();
        for t in catalog.tables() {
            for c in &t.columns {
                if c.indexed {
                    indexes.insert((t.id, c.attr), Arc::new(BTree::create(pool.clone())));
                }
            }
        }
        Database {
            schema: RwLock::new(Arc::new(SchemaSnapshot {
                catalog: Arc::new(catalog),
                tables,
                indexes,
            })),
            pool,
            sort_memory_rows: AtomicUsize::new(1 << 20),
            stats_epoch: AtomicU64::new(0),
            plan_cache: PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY),
            parallel_degree: AtomicU32::new(1),
            feedback_observations: AtomicU64::new(0),
            feedback_applications: AtomicU64::new(0),
            feedback_epoch_bumps: AtomicU64::new(0),
        }
    }

    /// The worker-pool degree offered to the optimizer (1 = serial).
    pub fn parallel_degree(&self) -> u32 {
        self.parallel_degree.load(Ordering::Acquire)
    }

    /// Set the parallel degree (clamped to ≥ 1). Clears the plan cache:
    /// cached plans embed gather placements decided under the old
    /// degree, and the cost model changes with it.
    pub fn set_parallel_degree(&self, degree: u32) {
        self.parallel_degree.store(degree.max(1), Ordering::Release);
        self.plan_cache.clear();
    }

    /// The model options this database optimizes under — the default
    /// configuration plus the current parallel degree. Every path that
    /// builds a [`RelModel`] (optimization, drift validation) must use
    /// this so cached-plan re-costing sees the same cost model that
    /// planned the entry.
    pub fn model_options(&self) -> RelModelOptions {
        RelModelOptions::default().with_parallel_degree(self.parallel_degree())
    }

    /// Restrict external sorts to `rows` in-memory tuples (forces run
    /// spilling for larger inputs).
    pub fn set_sort_memory_rows(&self, rows: usize) {
        self.sort_memory_rows.store(rows.max(2), Ordering::Release);
    }

    /// The external-sort in-memory budget, in tuples.
    pub fn sort_memory_rows(&self) -> usize {
        self.sort_memory_rows.load(Ordering::Acquire)
    }

    /// The buffer pool (run files of external sorts allocate here).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The current schema snapshot. Callers doing multi-step work
    /// (lower, compile, execute) should take one snapshot and use it
    /// throughout, so concurrent DDL cannot pull the schema out from
    /// under them.
    pub fn snapshot(&self) -> Arc<SchemaSnapshot> {
        self.schema.read().clone()
    }

    /// The B+tree index on `(table, attr)` in the current snapshot, if
    /// one exists.
    pub fn index(&self, table: TableId, attr: AttrId) -> Option<Arc<BTree>> {
        self.snapshot().index(table, attr).cloned()
    }

    /// The catalog as of the current snapshot.
    pub fn catalog(&self) -> Arc<Catalog> {
        self.schema.read().catalog.clone()
    }

    /// The heap file backing a table in the current snapshot. Panics if
    /// the table was dropped; see [`SchemaSnapshot::table`].
    pub fn table(&self, id: TableId) -> Arc<HeapFile> {
        self.snapshot().table(id).clone()
    }

    /// Insert a row (typed per the table's schema; not validated beyond
    /// field count). Indexed columns must hold integers.
    pub fn insert(&self, table: TableId, row: Vec<Value>) {
        let snap = self.snapshot();
        let meta = snap.catalog.table(table);
        assert_eq!(
            row.len(),
            meta.columns.len(),
            "row arity mismatch for table {:?}",
            table
        );
        let rid = snap.table(table).insert(&encode_row(&row));
        for (pos, c) in meta.columns.iter().enumerate() {
            if c.indexed {
                let Value::Int(key) = row[pos] else {
                    panic!("indexed column {} must be an integer", c.name)
                };
                snap.index(table, c.attr)
                    .expect("declared index exists")
                    .insert(key, rid);
            }
        }
        // Data changed: cached plans must re-justify themselves.
        self.bump_epoch();
    }

    /// Populate every table with synthetic rows honouring its statistics:
    /// `card` rows; integer columns uniform in `0..distinct`; strings
    /// cycling over `distinct` values. Deterministic per `seed`.
    pub fn generate(&self, seed: u64) {
        use rand_like::Lcg;
        let snap = self.snapshot();
        for t in snap.catalog.tables() {
            // Dropped tables keep their catalog slot (ids are positional)
            // but have no heap file any more.
            if !snap.has_table(t.id) {
                continue;
            }
            let mut rng = Lcg::new(seed ^ (t.id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for _ in 0..t.card as u64 {
                let row: Vec<Value> = t
                    .columns
                    .iter()
                    .map(|c| {
                        let d = c.distinct.max(1.0) as u64;
                        match c.ty {
                            ColType::Int => Value::Int((rng.next() % d) as i64),
                            ColType::Float => Value::float((rng.next() % d) as f64),
                            ColType::Bool => Value::Bool(rng.next().is_multiple_of(2)),
                            ColType::Str => {
                                // Honour the declared average width so
                                // on-page sizes match the statistics the
                                // cost model sees.
                                let mut v = format!("v{}", rng.next() % d);
                                while v.len() < c.width as usize {
                                    v.push('_');
                                }
                                Value::Str(v)
                            }
                        }
                    })
                    .collect();
                self.insert(t.id, row);
            }
        }
    }

    /// Execute an optimized physical plan on `opts.engine`, returning
    /// all result tuples (`opts.move_limit` and `opts.bypass_cache` concern
    /// planning and do not apply). Both engines produce the same
    /// multiset of rows, in the same order for serial plans; a plan with
    /// `gather(n>1)` regions delivers a nondeterministic interleaving on
    /// the vectorized engine. `tracer` receives what
    /// [`Database::execute_prepared_opts`] reports about execution.
    pub fn execute(
        &self,
        plan: &RelPlan,
        opts: &ExecOptions,
        tracer: Option<&dyn Tracer>,
    ) -> Vec<Tuple> {
        self.run_at(&self.snapshot(), plan, opts.engine, opts.feedback, tracer)
    }

    // -----------------------------------------------------------------
    // Prepared statements and the plan cache.

    /// The current stats epoch.
    pub fn epoch(&self) -> u64 {
        self.stats_epoch.load(Ordering::Acquire)
    }

    /// Bump the stats epoch (data loads, DDL, stats refreshes call this
    /// internally; exposed for tests and external loaders). Returns the
    /// new value.
    pub fn bump_epoch(&self) -> u64 {
        self.stats_epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The plan cache (counters, capacity, clearing).
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// Resize the plan cache (existing entries trim lazily).
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        self.plan_cache.set_capacity(capacity);
    }

    /// The cost-drift tolerance factor: [`DEFAULT_DRIFT_FACTOR`].
    pub fn drift_factor(&self) -> f64 {
        DEFAULT_DRIFT_FACTOR
    }

    // -----------------------------------------------------------------
    // Adaptive feedback: executed plans report observed selectivities,
    // the catalog's memory merges them, and material movement bumps the
    // stats epoch so the drift guard re-judges cached plans under the
    // observed statistics.

    /// The adaptive-feedback counters.
    pub fn feedback_stats(&self) -> FeedbackStats {
        FeedbackStats {
            observations: self.feedback_observations.load(Ordering::Acquire),
            applications: self.feedback_applications.load(Ordering::Acquire),
            epoch_bumps: self.feedback_epoch_bumps.load(Ordering::Acquire),
            cells: self.snapshot().catalog.feedback().len() as u64,
        }
    }

    /// Merge harvested observations into the catalog's selectivity
    /// memory (copy-on-write snapshot swap, like every other catalog
    /// mutation). Returns whether the merge was *material* — some cell
    /// moved by at least [`FEEDBACK_MATERIAL_RATIO`] relative to its
    /// prior (or, for a fresh cell, to the harvest-time estimate) — in
    /// which case the stats epoch was bumped so cached plans re-justify
    /// themselves under the observed statistics.
    pub fn apply_feedback(&self, observations: &[Observation]) -> bool {
        if observations.is_empty() {
            return false;
        }
        let floor = volcano_rel::selectivity::MIN_SELECTIVITY;
        let mut material = false;
        {
            let mut guard = self.schema.write();
            let mut catalog = (*guard.catalog).clone();
            let memory = catalog.feedback_mut();
            for o in observations {
                let prior = memory
                    .lookup(&o.key)
                    .unwrap_or_else(|| o.estimated.clamp(floor, 1.0));
                memory.observe(o.key, o.observed);
                if let Some(new) = memory.lookup(&o.key) {
                    let ratio = if new > prior {
                        new / prior
                    } else {
                        prior / new
                    };
                    if ratio >= FEEDBACK_MATERIAL_RATIO {
                        material = true;
                    }
                }
            }
            *guard = Arc::new(SchemaSnapshot {
                catalog: Arc::new(catalog),
                tables: guard.tables.clone(),
                indexes: guard.indexes.clone(),
            });
        }
        self.feedback_observations
            .fetch_add(observations.len() as u64, Ordering::AcqRel);
        self.feedback_applications.fetch_add(1, Ordering::AcqRel);
        if material {
            self.feedback_epoch_bumps.fetch_add(1, Ordering::AcqRel);
            self.bump_epoch();
        }
        material
    }

    /// Prepare a SQL statement: parse, then auto-parameterize every
    /// WHERE-clause literal (explicit `$n` placeholders keep their
    /// slots). Name resolution happens at execution time, so preparing
    /// does not pin the catalog.
    pub fn prepare(&self, sql: &str) -> Result<PreparedStatement, PrepareError> {
        Ok(self.prepare_ast(&parse(sql).map_err(PrepareError::Parse)?))
    }

    /// Prepare an already-parsed query (the CLI's `PREPARE name AS ...`).
    pub fn prepare_ast(&self, ast: &AstQuery) -> PreparedStatement {
        PreparedStatement {
            param: parameterize(ast),
        }
    }

    /// Execute a prepared statement through the plan cache.
    ///
    /// The flow per execution: bind the full parameter vector, lower the
    /// shape (cheap — no search), compute the shape key, and probe the
    /// cache. A valid entry is re-bound to the new constants and executed
    /// with **no optimizer involvement**; the returned outcome carries
    /// `search: None` as evidence. A miss (or an entry killed by the
    /// epoch/drift guard) optimizes as usual and caches the result.
    /// `opts` carries the per-execution controls (engine, move limit,
    /// cache bypass, feedback).
    ///
    /// `tracer` receives one [`TraceEvent::PlanCacheLookup`] per call,
    /// one [`TraceEvent::MorselPhase`] per morsel-parallel gather region
    /// of the executed plan (after execution completes; workers
    /// aggregate their counters lock-free while running), and one
    /// [`TraceEvent::FeedbackApplied`] when feedback is on.
    ///
    /// The whole flow runs against one schema snapshot, so concurrent
    /// DDL cannot make it panic half-way: a statement whose table was
    /// dropped fails cleanly at lowering, and a drop landing *after* the
    /// snapshot executes against the pre-drop data.
    pub fn execute_prepared_opts(
        &self,
        stmt: &PreparedStatement,
        params: &[Value],
        opts: &ExecOptions,
        tracer: Option<&dyn Tracer>,
    ) -> Result<PreparedOutcome, PrepareError> {
        let snap = self.snapshot();
        let full = stmt.param.bind(params).map_err(PrepareError::Bind)?;
        // Lowering re-resolves names against the snapshot's catalog: a
        // shape over a dropped table fails here, before any cache probe,
        // so a stale plan can never be served for it.
        let mut catalog = (*snap.catalog).clone();
        let q = lower_with_params(&stmt.param.shape, &mut catalog, &full)
            .map_err(PrepareError::Lower)?;
        let goal = RelProps::sorted(q.order_by.clone());
        let shape = shape_key(&q.expr, &q.order_by);

        if opts.bypass_cache {
            if let Some(t) = tracer {
                t.event(TraceEvent::PlanCacheLookup {
                    shape,
                    outcome: "bypass",
                });
            }
            let (plan, stats) = self.optimize(&catalog, &q.expr, goal, opts.move_limit)?;
            return Ok(PreparedOutcome {
                rows: self.run_at(&snap, &plan, opts.engine, opts.feedback, tracer),
                cache: "bypass",
                cost: plan.cost,
                search: Some(stats),
                plan,
            });
        }

        let epoch = self.epoch();
        let drift = self.drift_factor();
        let options = self.model_options();
        let outcome = self.plan_cache.lookup(shape, &goal, |entry| {
            if entry.epoch == epoch {
                crate::plan_cache::Validation::Valid
            } else {
                drift_validation(entry, &snap.catalog, &options, &full, epoch, drift)
            }
        });
        if let Some(t) = tracer {
            t.event(TraceEvent::PlanCacheLookup {
                shape,
                outcome: outcome.label(),
            });
        }
        match outcome {
            CacheOutcome::Hit(entry) => {
                let plan = rebind_plan(&entry.plan, &full);
                Ok(PreparedOutcome {
                    rows: self.run_at(&snap, &plan, opts.engine, opts.feedback, tracer),
                    cache: "hit",
                    cost: entry.cost,
                    search: None,
                    plan,
                })
            }
            CacheOutcome::Miss | CacheOutcome::Invalidated => {
                let label = outcome.label();
                let (plan, stats) =
                    self.optimize(&catalog, &q.expr, goal.clone(), opts.move_limit)?;
                // A greedy plan is an under-pressure upper bound; caching
                // it would pessimize every later execution of this shape.
                // Let the next unpressured execution optimize and cache
                // properly.
                if opts.move_limit.is_none() {
                    self.plan_cache.insert(
                        shape,
                        goal,
                        CacheEntry {
                            plan: plan.clone(),
                            cost: plan.cost,
                            epoch,
                        },
                    );
                }
                Ok(PreparedOutcome {
                    rows: self.run_at(&snap, &plan, opts.engine, opts.feedback, tracer),
                    cache: label,
                    cost: plan.cost,
                    search: Some(stats),
                    plan,
                })
            }
        }
    }

    fn optimize(
        &self,
        catalog: &Catalog,
        expr: &volcano_rel::RelExpr,
        goal: RelProps,
        move_limit: Option<usize>,
    ) -> Result<(RelPlan, SearchStats), PrepareError> {
        let model = RelModel::new(catalog.clone(), self.model_options());
        let search = SearchOptions {
            move_limit,
            ..SearchOptions::default()
        };
        let mut opt = RelOptimizer::new(&model, search);
        let root = opt.insert_tree(expr);
        let plan = opt
            .find_best_plan(root, goal, None)
            .map_err(|e| PrepareError::Plan(e.to_string()))?;
        Ok((plan, opt.stats().clone()))
    }

    /// Execute `plan` against a pinned snapshot (the one it was lowered
    /// on). With `feedback`, the observed selectivities are harvested
    /// from the per-node rows and merged into the catalog's memory.
    fn run_at(
        &self,
        snap: &Arc<SchemaSnapshot>,
        plan: &RelPlan,
        engine: Engine,
        feedback: bool,
        tracer: Option<&dyn Tracer>,
    ) -> Vec<Tuple> {
        // With feedback on, every plan node counts its output rows, on
        // either engine, and one harvest reads them.
        let (rows, cells) = match engine {
            Engine::Tuple if feedback => {
                let cells = crate::analyze::NodeCells::new(plan);
                let mut op = crate::analyze::instrument(self, snap, plan, 0, &cells);
                (collect(op.as_mut()), Some(cells))
            }
            Engine::Tuple => {
                let mut op = crate::compile::compile_at(self, snap, plan).operator;
                (collect(op.as_mut()), None)
            }
            Engine::Fused(cfg) => {
                let compiled = crate::fused::compile_fused_at(self, snap, plan, cfg, feedback);
                let mut op = compiled.operator;
                let rows = collect_batches(op.as_mut());
                if let Some(t) = tracer.filter(|t| t.enabled()) {
                    for g in &compiled.gathers {
                        t.event(TraceEvent::MorselPhase {
                            workers: g.workers(),
                            morsels: g.dispatched(),
                            steals: g.stolen(),
                        });
                    }
                }
                (rows, feedback.then_some(compiled.cells))
            }
        };
        if let Some(cells) = cells {
            let actuals = cells.rows(plan);
            let observations = volcano_rel::observations(&snap.catalog, plan, &actuals);
            let epoch_bumped = self.apply_feedback(&observations);
            if let Some(t) = tracer {
                t.event(TraceEvent::FeedbackApplied {
                    observations: observations.len() as u64,
                    epoch_bumped,
                });
            }
        }
        rows
    }

    /// Drop a table: unregister it from the catalog (SQL over it fails
    /// from now on), release its heap file and indexes, clear the plan
    /// cache, and bump the stats epoch. Returns `false` if no such table.
    ///
    /// Takes `&self`: the schema lock serializes DDL against other DDL
    /// and against the instant a query pins its snapshot. In-flight
    /// queries that already pinned a snapshot keep the dropped table's
    /// storage alive (via its `Arc`) and finish normally.
    pub fn drop_table(&self, name: &str) -> bool {
        let mut guard = self.schema.write();
        let mut catalog = (*guard.catalog).clone();
        let Some(id) = catalog.drop_table(name) else {
            return false;
        };
        let mut tables = guard.tables.clone();
        let mut indexes = guard.indexes.clone();
        tables.remove(&id);
        indexes.retain(|(t, _), _| *t != id);
        *guard = Arc::new(SchemaSnapshot {
            catalog: Arc::new(catalog),
            tables,
            indexes,
        });
        drop(guard);
        self.plan_cache.clear();
        self.bump_epoch();
        true
    }

    /// Recompute catalog statistics (row counts and per-column distinct
    /// estimates) from the stored data, then bump the stats epoch so
    /// cached plans are re-judged under the new numbers.
    ///
    /// The table scans run against a pinned snapshot *without* holding
    /// the schema lock (queries keep flowing); the write lock is taken
    /// only to swap in the recomputed catalog, skipping tables dropped
    /// in the meantime.
    pub fn refresh_stats(&self) {
        use std::collections::HashSet;
        let snap = self.snapshot();
        let mut computed: Vec<(TableId, f64, Vec<Option<f64>>)> = Vec::new();
        for t in snap.catalog.tables() {
            if !snap.has_table(t.id) {
                continue;
            }
            // One pass over the heap, decoding each record in place: the
            // only state is the row count and one exact distinct set per
            // column.
            let mut rows = 0u64;
            let mut distinct: Vec<HashSet<Value>> = vec![HashSet::new(); t.columns.len()];
            snap.table(t.id).scan(|_, rec| {
                rows += 1;
                for (set, v) in distinct.iter_mut().zip(decode_row(rec)) {
                    set.insert(v);
                }
            });
            let estimates: Vec<Option<f64>> =
                distinct.iter().map(|s| Some(s.len() as f64)).collect();
            computed.push((t.id, rows as f64, estimates));
        }
        {
            let mut guard = self.schema.write();
            let mut catalog = (*guard.catalog).clone();
            for (id, card, estimates) in computed {
                if guard.tables.contains_key(&id) {
                    catalog.update_stats(id, card, &estimates);
                }
            }
            *guard = Arc::new(SchemaSnapshot {
                catalog: Arc::new(catalog),
                tables: guard.tables.clone(),
                indexes: guard.indexes.clone(),
            });
        }
        self.bump_epoch();
    }

    /// Physical page reads/writes observed so far.
    pub fn io_stats(&self) -> (u64, u64) {
        let s = self.pool.disk().stats();
        (s.reads(), s.writes())
    }

    /// Reset the physical I/O counters (e.g. after loading data).
    pub fn reset_io_stats(&self) {
        self.pool.disk().stats().reset();
    }
}

/// A tiny deterministic generator so data generation does not depend on
/// the `rand` crate from a library crate.
mod rand_like {
    /// 64-bit LCG (Knuth constants).
    pub struct Lcg(u64);

    impl Lcg {
        pub fn new(seed: u64) -> Self {
            Lcg(seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407))
        }

        pub fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 16
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::BatchConfig;
    use volcano_rel::ColumnDef;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "t",
            100.0,
            vec![ColumnDef::int("a", 10.0), ColumnDef::str("s", 8, 5.0)],
        );
        c
    }

    /// One prepared execution under the default options.
    fn run(
        db: &Database,
        stmt: &PreparedStatement,
        params: &[Value],
    ) -> Result<PreparedOutcome, PrepareError> {
        db.execute_prepared_opts(stmt, params, &ExecOptions::new(), None)
    }

    #[test]
    fn row_roundtrip() {
        let row = vec![Value::Int(3), Value::Str("x".into())];
        assert_eq!(decode_row(&encode_row(&row)), row);
    }

    #[test]
    fn generate_honours_stats() {
        let c = catalog();
        let id = c.table_by_name("t").unwrap().id;
        let db = Database::in_memory(c);
        db.generate(7);
        let rows: Vec<Tuple> = db
            .table(id)
            .scan_all()
            .iter()
            .map(|b| decode_row(b))
            .collect();
        assert_eq!(rows.len(), 100);
        for r in &rows {
            match &r[0] {
                Value::Int(i) => assert!((0..10).contains(i)),
                other => panic!("expected int, got {other:?}"),
            }
        }
        // Generation is deterministic.
        let db2 = Database::in_memory(catalog());
        db2.generate(7);
        let rows2: Vec<Tuple> = db2
            .table(id)
            .scan_all()
            .iter()
            .map(|b| decode_row(b))
            .collect();
        assert_eq!(rows, rows2);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked() {
        let c = catalog();
        let id = c.table_by_name("t").unwrap().id;
        let db = Database::in_memory(c);
        db.insert(id, vec![Value::Int(1)]);
    }

    #[test]
    fn warm_prepared_execution_skips_the_optimizer() {
        let db = Database::in_memory(catalog());
        db.generate(11);
        let epoch = db.epoch(); // generate() bumps per insert
        assert!(epoch > 0);
        let stmt = db.prepare("SELECT a FROM t WHERE a < 4").unwrap();
        // Auto-parameterized: the literal 4 became a slot with a default.
        assert_eq!(stmt.param_count(), 0);
        let cold = run(&db, &stmt, &[]).unwrap();
        assert_eq!(cold.cache, "miss");
        assert!(cold.search.is_some(), "cold run must optimize");
        let warm = run(&db, &stmt, &[]).unwrap();
        assert_eq!(warm.cache, "hit");
        assert!(warm.search.is_none(), "warm run must not optimize");
        assert_eq!(cold.rows, warm.rows);
        let s = db.plan_cache().stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.lookups, s.hits + s.misses + s.invalidations);
    }

    #[test]
    fn lookups_emit_trace_events() {
        use volcano_core::trace::CollectingTracer;
        let db = Database::in_memory(catalog());
        db.generate(13);
        let stmt = db.prepare("SELECT a FROM t WHERE a < 4").unwrap();
        let tracer = CollectingTracer::new();
        db.execute_prepared_opts(&stmt, &[], &ExecOptions::new(), Some(&tracer))
            .unwrap();
        db.execute_prepared_opts(&stmt, &[], &ExecOptions::new(), Some(&tracer))
            .unwrap();
        let lookups: Vec<(u64, &'static str)> = tracer
            .take()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::PlanCacheLookup { shape, outcome } => Some((shape, outcome)),
                _ => None,
            })
            .collect();
        assert_eq!(lookups.len(), 2);
        assert_eq!(lookups[0].1, "miss");
        assert_eq!(lookups[1].1, "hit");
        // Both lookups probed the same canonical shape.
        assert_eq!(lookups[0].0, lookups[1].0);
    }

    #[test]
    fn explicit_params_rebind_without_reoptimizing() {
        let db = Database::in_memory(catalog());
        db.generate(3);
        let stmt = db.prepare("SELECT a FROM t WHERE a < $0").unwrap();
        assert_eq!(stmt.param_count(), 1);
        let oracle = |bound: i64| {
            let mut rows = run(&db, &stmt, &[Value::Int(bound)]).unwrap().rows;
            rows.sort();
            rows
        };
        let lt4 = oracle(4);
        let lt9 = oracle(9);
        assert!(lt4.len() < lt9.len(), "selectivity must track the binding");
        for r in &lt4 {
            assert!(lt9.contains(r));
        }
        // First call missed, both later calls hit with different bindings.
        let s = db.plan_cache().stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn epoch_mismatch_revalidates_or_reoptimizes() {
        let db = Database::in_memory(catalog());
        db.generate(5);
        let stmt = db.prepare("SELECT a FROM t WHERE a < 6").unwrap();
        run(&db, &stmt, &[]).unwrap();
        let before = db.epoch();
        db.bump_epoch();
        assert_eq!(db.epoch(), before + 1);
        // Stats unchanged: the drift guard revalidates in place, still a hit.
        let out = run(&db, &stmt, &[]).unwrap();
        assert_eq!(out.cache, "hit");
        assert!(out.search.is_none());
        // Ten times the rows: the re-cost drifts past the tolerance, so
        // the entry re-optimizes.
        let id = db.catalog().table_by_name("t").unwrap().id;
        let rows = db.snapshot().table(id).scan_all().len();
        for i in 0..9 * rows as i64 {
            db.insert(id, vec![Value::Int(i % 10), Value::Str("s".into())]);
        }
        db.refresh_stats();
        let out = run(&db, &stmt, &[]).unwrap();
        assert_eq!(out.cache, "invalidated");
        assert!(out.search.is_some());
        let s = db.plan_cache().stats();
        assert_eq!(s.lookups, s.hits + s.misses + s.invalidations);
    }

    #[test]
    fn dropping_a_table_unplans_it() {
        let db = Database::in_memory(catalog());
        db.generate(2);
        let stmt = db.prepare("SELECT a FROM t WHERE a < 5").unwrap();
        run(&db, &stmt, &[]).unwrap();
        assert_eq!(db.plan_cache().len(), 1);
        assert!(db.drop_table("t"));
        assert!(!db.drop_table("t"));
        assert_eq!(db.plan_cache().len(), 0);
        // Lowering now fails before any cache probe.
        let err = run(&db, &stmt, &[]).unwrap_err();
        assert!(matches!(err, PrepareError::Lower(_)), "{err}");
        assert_eq!(db.plan_cache().stats().lookups, 1);
    }

    #[test]
    fn refresh_stats_measures_the_data() {
        let db = Database::in_memory(catalog());
        let id = db.catalog().table_by_name("t").unwrap().id;
        for i in 0..30 {
            db.insert(id, vec![Value::Int(i % 3), Value::Str("s".into())]);
        }
        let before = db.epoch();
        db.refresh_stats();
        assert!(db.epoch() > before);
        let cat = db.catalog();
        let t = cat.table(id);
        assert_eq!(t.card, 30.0);
        assert_eq!(t.columns[0].distinct, 3.0);
        assert_eq!(t.columns[1].distinct, 1.0);
    }

    /// A table spanning many pages, with repeated values in every column:
    /// the streamed pass counts every row once and keeps distinct counts
    /// exact across page boundaries.
    #[test]
    fn refresh_stats_is_exact_over_a_multi_page_table() {
        let db = Database::in_memory(catalog());
        let id = db.catalog().table_by_name("t").unwrap().id;
        let mut rows = Vec::new();
        for i in 0..4_000i64 {
            let row = vec![Value::Int(i % 37), Value::Str(format!("v{}", i % 11))];
            db.insert(id, row.clone());
            rows.push(row);
        }
        assert!(db.snapshot().table(id).pages().len() > 1);
        db.refresh_stats();
        let cat = db.catalog();
        let t = cat.table(id);
        assert_eq!(t.card, rows.len() as f64);
        for (c, col) in t.columns.iter().enumerate() {
            let want: std::collections::HashSet<&Value> = rows.iter().map(|r| &r[c]).collect();
            assert_eq!(col.distinct, want.len() as f64, "column {}", col.name);
        }
    }

    #[test]
    fn feedback_is_off_by_default_and_harvests_when_on() {
        let db = Database::in_memory(catalog());
        db.generate(11);
        let stmt = db.prepare("SELECT a FROM t WHERE a < 4").unwrap();
        run(&db, &stmt, &[]).unwrap();
        let s = db.feedback_stats();
        assert_eq!((s.observations, s.applications, s.cells), (0, 0, 0));
        let opts = ExecOptions::new().with_feedback(true);
        let out = db.execute_prepared_opts(&stmt, &[], &opts, None).unwrap();
        assert!(!out.rows.is_empty());
        let s = db.feedback_stats();
        assert!(s.observations > 0, "{s:?}");
        assert_eq!(s.applications, 1, "{s:?}");
        assert!(s.cells > 0, "{s:?}");
        let json = s.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"applications\":1"), "{json}");
    }

    #[test]
    fn immaterial_feedback_does_not_bump_the_epoch() {
        use volcano_rel::Cmp;
        let db = Database::in_memory(catalog());
        let key = volcano_rel::term_key(&Cmp::eq(AttrId(0), 1i64));
        // First merge agrees with its own estimate: immaterial.
        let obs = [volcano_rel::Observation {
            key,
            observed: 0.01,
            estimated: 0.01,
        }];
        let before = db.epoch();
        assert!(!db.apply_feedback(&obs));
        assert_eq!(db.epoch(), before);
        // A wildly different observation is material and bumps.
        let obs = [volcano_rel::Observation {
            key,
            observed: 0.9,
            estimated: 0.01,
        }];
        assert!(db.apply_feedback(&obs));
        assert_eq!(db.epoch(), before + 1);
        assert_eq!(db.feedback_stats().epoch_bumps, 1);
    }

    /// `emp.dept = 3` over 20 departments is estimated at 1/20; the
    /// harvest judges the observed selectivity against that estimate,
    /// so a first execution that confirms it invalidates no cached plan.
    #[test]
    fn a_confirmed_estimate_does_not_bump_the_epoch() {
        let mut c = Catalog::new();
        let cols = vec![ColumnDef::int("id", 2000.0), ColumnDef::int("dept", 20.0)];
        c.add_table("emp", 2000.0, cols);
        for engine in [Engine::Tuple, Engine::Fused(BatchConfig::default())] {
            let db = Database::in_memory(c.clone());
            db.generate(7);
            let stmt = db
                .prepare("SELECT emp.id FROM emp WHERE emp.dept = 3")
                .unwrap();
            let epoch = db.epoch();
            let opts = ExecOptions::new().with_executor(engine).with_feedback(true);
            let out = db.execute_prepared_opts(&stmt, &[], &opts, None).unwrap();
            let rows = out.rows.len();
            assert!((67..150).contains(&rows), "{rows} rows, estimated 100");
            let s = db.feedback_stats();
            assert_eq!((s.observations, s.epoch_bumps), (1, 0), "{s:?}");
            assert_eq!(db.epoch(), epoch, "{}", engine.label());
        }
    }
}
