//! The declared metrics: the same names, units and bounds as
//! `BENCHMARK.json` (a test compares the two).

use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// End-to-end: the share of the parent's median a change may lose.
    pub bound: f64,
    /// Per-layer: whether the value must repeat exactly for one seed.
    pub exact: Exact,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exact {
    /// A time, or a ratio of times.
    No,
    /// A count the program makes the same way on every run.
    Always,
    /// A count that repeats only while one session runs at a time.
    SingleSession,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
    exact: Exact,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better,
        bound,
        exact,
    }
}

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> MetricDef {
    def(name, unit, lower, bound, Exact::No)
}

const fn layer(name: &'static str, unit: &'static str, lower: bool) -> MetricDef {
    def(name, unit, lower, 0.0, Exact::No)
}

const fn count(name: &'static str, unit: &'static str, lower: bool) -> MetricDef {
    def(name, unit, lower, 0.0, Exact::Always)
}

const fn count1(name: &'static str, unit: &'static str, lower: bool) -> MetricDef {
    def(name, unit, lower, 0.0, Exact::SingleSession)
}

/// What a user of the system sees, from the untraced run.
pub const END_TO_END: &[MetricDef] = &[
    e2e("op_ms_p50", "ms", true, 0.25),
    e2e("op_ms_p95", "ms", true, 0.25),
    e2e("ops_per_s", "1/s", false, 0.25),
    e2e("setup_s", "s", true, 0.25),
    e2e("peak_rss_mb", "MB", true, 0.10),
];

/// Single layers, from the traced run. Times are means per operation
/// over the workload's mix unless the name says otherwise; a metric a
/// workload does not exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    layer("sql.parse_us", "us", true),
    layer("sql.parameterize_us", "us", true),
    layer("sql.bind_lower_us", "us", true),
    layer("sql.shape_key_us", "us", true),
    layer("plan_cache.lookup_us", "us", true),
    layer("plan_cache.rebind_us", "us", true),
    count1("plan_cache.hit_share", "share", false),
    count1("plan_cache.invalidations", "count", true),
    layer("core.optimize_ms", "ms", true),
    layer("core.optimize_ms.r2", "ms", true),
    layer("core.optimize_ms.r3", "ms", true),
    layer("core.optimize_ms.r4", "ms", true),
    layer("core.optimize_ms.r5", "ms", true),
    layer("core.optimize_ms.r6", "ms", true),
    layer("core.optimize_ms.r7", "ms", true),
    layer("core.optimize_ms.r8", "ms", true),
    layer("core.moves_per_s", "1/s", false),
    count("core.transform_fired", "count", true),
    count("core.substitutes_produced", "count", true),
    count("core.exprs_created", "count", true),
    count("core.dead_exprs", "count", true),
    count("core.group_merges", "count", true),
    count("core.goals_optimized", "count", true),
    count("core.moves_costed", "count", true),
    count("core.moves_pruned", "count", false),
    count("core.winner_hit_share", "share", false),
    count("core.expr_keep_share", "share", false),
    count("core.memo_bytes.r8", "bytes", true),
    layer("rel.model_build_us", "us", true),
    count("rel.plan_cost_checksum", "cost", true),
    layer("exec.compile_us", "us", true),
    layer("exec.fused.drain_ms", "ms", true),
    layer("exec.materialize_ms", "ms", true),
    layer("exec.scan_mrows_per_s", "Mrows/s", false),
    layer("exec.scan_roofline_share", "share", false),
    layer("exec.tuple.execute_ms", "ms", true),
    layer("exec.batch.execute_ms", "ms", true),
    layer("exec.fused_par.execute_ms", "ms", true),
    count1("store.pool_hit_share", "share", false),
    count1("store.pool_misses_per_op", "count", true),
    count1("store.pool_evictions_per_op", "count", true),
    count1("store.page_reads_per_op", "count", true),
    layer("store.insert_us", "us", true),
    layer("serve.warm_ms_p50", "ms", true),
    layer("serve.scan_ms_p50", "ms", true),
    layer("serve.cold_ms_p50", "ms", true),
    layer("serve.insert_us_p50", "us", true),
    layer("serve.degraded_share", "share", true),
    layer("serve.scaling", "share", false),
    layer("stmt.select_1tab.ms_p50", "ms", true),
    layer("stmt.join_2way.ms_p50", "ms", true),
    layer("stmt.join_3way.ms_p50", "ms", true),
    layer("stmt.join_5way.ms_p50", "ms", true),
    layer("stmt.join_7way.ms_p50", "ms", true),
    layer("stmt.agg_group.ms_p50", "ms", true),
    layer("stmt.scan_project.ms_p50", "ms", true),
    layer("stmt.scan_filter_2pct.ms_p50", "ms", true),
    layer("stmt.hash_join_large_build.ms_p50", "ms", true),
    layer("stmt.group_sum_100.ms_p50", "ms", true),
    layer("stmt.grand_total.ms_p50", "ms", true),
    layer("stmt.filter_sort.ms_p50", "ms", true),
    layer("trace.coverage", "share", false),
    layer("trace.overhead_share", "share", true),
];

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub n: usize,
}

/// Values by metric name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, Measured>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, n: usize) {
        let name = name.into();
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric {name}"
        );
        // JSON has no NaN or infinity; a ratio over nothing reads 0, and
        // so does the -0.0 an empty sum is.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.0.insert(name, Measured { value, n });
    }

    /// The value of a declared metric: as measured, or 0 when this
    /// workload does not exercise it.
    pub fn get(&self, name: &str) -> Measured {
        self.0
            .get(name)
            .copied()
            .unwrap_or(Measured { value: 0.0, n: 0 })
    }
}
