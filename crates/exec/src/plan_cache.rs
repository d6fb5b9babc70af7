//! A bounded, sharded cross-query plan cache.
//!
//! Optimization is the expensive step of serving a query: the memo search
//! explores every join order and access path each time, even when the
//! same query — up to its literal constants — ran a moment ago. The
//! cache keys optimized physical plans by the query's canonical *shape*
//! ([`volcano_sql::shape_key`]) plus its delivery goal, and serves later
//! executions by re-binding the stored template's parameter slots to the
//! new constants, skipping `find_best_plan` entirely.
//!
//! ## Soundness
//!
//! A served plan must be one the optimizer *could* have produced for the
//! current query. Two mechanisms protect that contract:
//!
//! * **Parameter-tagged predicates** ([`volcano_rel::Cmp::with_param`])
//!   make a predicate's identity include its slot number, so two
//!   comparisons that happen to share a value today never collapse into
//!   one term of a conjunction — re-binding a template always produces
//!   exactly the predicate structure direct lowering would have.
//! * **Epoch validation**: every entry records the database's stats
//!   epoch at optimization time. DDL, data loads, and stats refreshes
//!   bump the epoch; a lookup that finds a stale entry re-estimates the
//!   template under current statistics (the *cost-drift guard*) and
//!   either revalidates it or forces re-optimization.
//!
//! Cached plans remain *templates optimized under their first-seen
//! parameter values*: a parameter change alone never re-optimizes, which
//! is the standard prepared-statement trade-off.
//!
//! Counters satisfy `hits + misses + invalidations == lookups` by
//! construction — [`PlanCache::lookup`] increments exactly one of the
//! three per call — and the concurrency stress test holds the invariant
//! under parallel load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use volcano_rel::{estimated_plan_cost, Catalog, RelAlg, RelCost, RelModelOptions, RelPlan};
use volcano_rel::{RelProps, Value};

/// Number of independently locked shards. A small fixed power of two:
/// enough that threads hammering different shapes rarely contend, small
/// enough that draining counters stays trivial.
const SHARDS: usize = 8;

/// One cached plan: a parameter-tagged physical template plus the
/// evidence needed to decide whether it is still trustworthy.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// The optimized physical plan, predicates carrying parameter slots.
    pub plan: RelPlan,
    /// The optimizer's estimated cost when the entry was (re)validated.
    pub cost: RelCost,
    /// Stats epoch the entry was optimized or last revalidated under.
    pub epoch: u64,
}

/// What a lookup found.
#[derive(Debug, Clone)]
pub enum CacheOutcome {
    /// A valid entry: execute the (re-bound) template, skip optimization.
    Hit(CacheEntry),
    /// No entry for this shape and goal.
    Miss,
    /// An entry existed but failed validation and was removed.
    Invalidated,
}

impl CacheOutcome {
    /// The outcome label used in trace events and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            CacheOutcome::Hit(_) => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Invalidated => "invalidated",
        }
    }
}

/// Verdict of the caller-supplied validation closure.
#[derive(Debug, Clone, Copy)]
pub enum Validation {
    /// The entry is current: serve it unchanged.
    Valid,
    /// The entry is stale but its re-estimated cost is tolerable:
    /// serve it and stamp it with the new epoch and cost.
    Revalidate {
        /// The epoch to stamp on the entry.
        epoch: u64,
        /// The re-estimated cost under current statistics.
        cost: RelCost,
    },
    /// The entry has drifted beyond tolerance: drop it and re-optimize.
    Stale,
}

/// Monotone counters describing cache behaviour. They keep two exact
/// ledgers. Per lookup: `lookups == hits + misses + invalidations`.
/// Per entry: `len == insertions - evictions` — every entry that leaves
/// the cache, for whatever reason, is counted in `evictions` exactly
/// once, under the lock of the shard it leaves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups performed (`hits + misses + invalidations`).
    pub lookups: u64,
    /// Lookups served from the cache (including revalidations).
    pub hits: u64,
    /// Lookups that found no entry.
    pub misses: u64,
    /// Lookups that found an entry and discarded it as stale.
    pub invalidations: u64,
    /// Entries inserted (a replacing insert counts: the entry it
    /// displaces is an eviction).
    pub insertions: u64,
    /// Entries that left the cache: trimmed to stay within capacity,
    /// displaced by a replacing insert, discarded by a stale lookup, or
    /// dropped by [`PlanCache::clear`].
    pub evictions: u64,
}

impl PlanCacheStats {
    /// Machine-readable form, matching the style of
    /// `volcano_core::SearchStats::to_json`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"lookups\":{},\"hits\":{},\"misses\":{},\"invalidations\":{},\"insertions\":{},\"evictions\":{}}}",
            self.lookups, self.hits, self.misses, self.invalidations, self.insertions, self.evictions
        )
    }
}

#[derive(Default)]
struct Shard {
    /// Entries keyed by `(shape, goal)`, stamped with a recency tick.
    entries: HashMap<(u64, RelProps), (CacheEntry, u64)>,
    /// Shard-local logical clock for LRU stamps.
    tick: u64,
}

/// The sharded, bounded plan cache. All methods take `&self`; shards are
/// individually locked and counters are atomics, so concurrent serving
/// threads proceed without a global lock.
pub struct PlanCache {
    shards: [Mutex<Shard>; SHARDS],
    /// Total entry capacity (split evenly across shards).
    capacity: AtomicUsize,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity.load(Ordering::Relaxed))
            .field("stats", &self.stats())
            .finish()
    }
}

impl PlanCache {
    /// A cache holding at most `capacity` entries (minimum one per
    /// shard).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            capacity: AtomicUsize::new(capacity.max(SHARDS)),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, shape: u64) -> &Mutex<Shard> {
        &self.shards[(shape as usize) % SHARDS]
    }

    fn per_shard_capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed).div_ceil(SHARDS)
    }

    /// Change the total entry capacity; existing entries are trimmed on
    /// the next insert into an over-full shard. Counters are preserved.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity.max(SHARDS), Ordering::Relaxed);
    }

    /// The total entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Look up `(shape, goal)`. A present entry is judged by `validate`
    /// — typically an epoch comparison plus the cost-drift guard — and
    /// served, restamped, or discarded accordingly. Exactly one of the
    /// hit/miss/invalidation counters is incremented per call, so the
    /// reconciliation invariant holds by construction.
    pub fn lookup(
        &self,
        shape: u64,
        goal: &RelProps,
        validate: impl FnOnce(&CacheEntry) -> Validation,
    ) -> CacheOutcome {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(shape).lock().expect("plan-cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        let key = (shape, goal.clone());
        match shard.entries.get_mut(&key) {
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                CacheOutcome::Miss
            }
            Some((entry, stamp)) => match validate(entry) {
                Validation::Valid => {
                    *stamp = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    CacheOutcome::Hit(entry.clone())
                }
                Validation::Revalidate { epoch, cost } => {
                    entry.epoch = epoch;
                    entry.cost = cost;
                    *stamp = tick;
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    CacheOutcome::Hit(entry.clone())
                }
                Validation::Stale => {
                    shard.entries.remove(&key);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                    CacheOutcome::Invalidated
                }
            },
        }
    }

    /// Insert (or replace) the entry for `(shape, goal)`, evicting the
    /// least-recently-used entries of the shard if it is over capacity.
    pub fn insert(&self, shape: u64, goal: RelProps, entry: CacheEntry) {
        let cap = self.per_shard_capacity();
        let mut shard = self.shard(shape).lock().expect("plan-cache shard poisoned");
        shard.tick += 1;
        let tick = shard.tick;
        if shard.entries.insert((shape, goal), (entry, tick)).is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        self.insertions.fetch_add(1, Ordering::Relaxed);
        while shard.entries.len() > cap {
            let victim = shard
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
                .expect("non-empty over-capacity shard");
            shard.entries.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drop every entry (DDL, or `SET PLAN_CACHE OFF`). Counters are
    /// preserved; the dropped entries count as evictions, not as
    /// invalidations, which are per-lookup discards only.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("plan-cache shard poisoned");
            let dropped = shard.entries.len() as u64;
            shard.entries.clear();
            self.evictions.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Number of currently cached entries.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("plan-cache shard poisoned").entries.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Re-bind a cached plan template to fresh parameter values: every
/// predicate term tagged with slot `i` takes `params[i]`; untagged terms
/// and all other algorithm arguments are untouched. Panics if the
/// template references a slot past `params` (the serving layer binds the
/// full vector before looking up).
pub fn rebind_plan(plan: &RelPlan, params: &[Value]) -> RelPlan {
    plan.map_algs(&mut |alg| match alg {
        RelAlg::FilterScan(t, p) => RelAlg::FilterScan(*t, p.rebound(params)),
        RelAlg::Filter(p) => RelAlg::Filter(p.rebound(params)),
        other => other.clone(),
    })
}

/// The cost-drift guard: decide a stale entry's fate by re-estimating the
/// re-bound template under current statistics. Within `drift_factor` of
/// the recorded cost the entry is revalidated at `epoch`; beyond it the
/// entry is declared stale and the caller re-optimizes.
pub fn drift_validation(
    entry: &CacheEntry,
    catalog: &Catalog,
    options: &RelModelOptions,
    params: &[Value],
    epoch: u64,
    drift_factor: f64,
) -> Validation {
    let rebound = rebind_plan(&entry.plan, params);
    let cost = estimated_plan_cost(catalog, options, &rebound);
    if cost.total() <= entry.cost.total() * drift_factor {
        Validation::Revalidate { epoch, cost }
    } else {
        Validation::Stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcano_core::cost::Cost as _;
    use volcano_core::PhysicalProps;
    use volcano_rel::{AttrId, CmpOp, Pred, TableId};

    fn dummy_plan() -> RelPlan {
        use volcano_core::ids::GroupId;
        RelPlan {
            alg: RelAlg::FilterScan(
                TableId(0),
                Pred::conj(vec![volcano_rel::Cmp::with_param(
                    AttrId(0),
                    CmpOp::Lt,
                    7i64,
                    0,
                )]),
            ),
            delivered: RelProps::any(),
            local_cost: RelCost::zero(),
            cost: RelCost::new(1.0, 1.0),
            group: GroupId::from_index(0),
            inputs: vec![],
        }
    }

    fn entry(epoch: u64) -> CacheEntry {
        CacheEntry {
            plan: dummy_plan(),
            cost: RelCost::new(1.0, 1.0),
            epoch,
        }
    }

    #[test]
    fn counters_reconcile() {
        let cache = PlanCache::new(16);
        assert!(matches!(
            cache.lookup(1, &RelProps::any(), |_| Validation::Valid),
            CacheOutcome::Miss
        ));
        cache.insert(1, RelProps::any(), entry(0));
        assert!(matches!(
            cache.lookup(1, &RelProps::any(), |_| Validation::Valid),
            CacheOutcome::Hit(_)
        ));
        assert!(matches!(
            cache.lookup(1, &RelProps::any(), |_| Validation::Stale),
            CacheOutcome::Invalidated
        ));
        // The entry is gone after invalidation.
        assert!(matches!(
            cache.lookup(1, &RelProps::any(), |_| Validation::Valid),
            CacheOutcome::Miss
        ));
        let s = cache.stats();
        assert_eq!(s.lookups, 4);
        assert_eq!(s.hits + s.misses + s.invalidations, s.lookups);
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
    }

    #[test]
    fn goal_is_part_of_the_key() {
        let cache = PlanCache::new(16);
        cache.insert(9, RelProps::any(), entry(0));
        assert!(matches!(
            cache.lookup(9, &RelProps::sorted(vec![AttrId(1)]), |_| {
                Validation::Valid
            }),
            CacheOutcome::Miss
        ));
    }

    #[test]
    fn revalidation_restamps_epoch_and_cost() {
        let cache = PlanCache::new(16);
        cache.insert(2, RelProps::any(), entry(0));
        let new_cost = RelCost::new(3.0, 0.0);
        let CacheOutcome::Hit(e) = cache.lookup(2, &RelProps::any(), |_| Validation::Revalidate {
            epoch: 5,
            cost: new_cost,
        }) else {
            panic!("expected hit")
        };
        assert_eq!(e.epoch, 5);
        assert_eq!(e.cost, new_cost);
        // The stored entry was updated, not just the returned copy.
        let CacheOutcome::Hit(e) = cache.lookup(2, &RelProps::any(), |got| {
            assert_eq!(got.epoch, 5);
            Validation::Valid
        }) else {
            panic!("expected hit")
        };
        assert_eq!(e.epoch, 5);
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let cache = PlanCache::new(SHARDS); // one entry per shard
        let shard0 = |i: u64| i * SHARDS as u64; // all map to shard 0
        cache.insert(shard0(1), RelProps::any(), entry(0));
        cache.insert(shard0(2), RelProps::any(), entry(0));
        // Capacity 1 in shard 0: the older entry is evicted.
        assert!(matches!(
            cache.lookup(shard0(1), &RelProps::any(), |_| Validation::Valid),
            CacheOutcome::Miss
        ));
        assert!(matches!(
            cache.lookup(shard0(2), &RelProps::any(), |_| Validation::Valid),
            CacheOutcome::Hit(_)
        ));
        assert_eq!(cache.stats().evictions, 1);
        // Shrinking and growing capacity takes effect on later inserts.
        cache.set_capacity(SHARDS * 4);
        for i in 3..7 {
            cache.insert(shard0(i), RelProps::any(), entry(0));
        }
        assert_eq!(cache.len(), 4);
    }

    /// `len == insertions - evictions` after every way an entry can leave.
    #[test]
    fn entry_ledger_counts_every_departure_once() {
        let cache = PlanCache::new(SHARDS); // one entry per shard
        let balanced = |cache: &PlanCache, what: &str| {
            let s = cache.stats();
            assert_eq!(cache.len() as u64, s.insertions - s.evictions, "{what}");
            s
        };
        cache.insert(1, RelProps::any(), entry(0));
        cache.insert(2, RelProps::any(), entry(0));
        assert_eq!(balanced(&cache, "fresh inserts").evictions, 0);
        // Replace: the displaced entry leaves.
        cache.insert(1, RelProps::any(), entry(1));
        assert_eq!(cache.len(), 2);
        assert_eq!(balanced(&cache, "replace").evictions, 1);
        // Stale lookup: one invalidation, one departure.
        cache.lookup(2, &RelProps::any(), |_| Validation::Stale);
        let s = balanced(&cache, "stale");
        assert_eq!((cache.len(), s.evictions, s.invalidations), (1, 2, 1));
        // Capacity: shard 1 holds one entry, the older one goes.
        cache.insert(1 + SHARDS as u64, RelProps::any(), entry(0));
        assert_eq!(balanced(&cache, "evict").evictions, 3);
        // Clear drops what is left.
        cache.insert(3, RelProps::any(), entry(0));
        cache.clear();
        let s = balanced(&cache, "clear");
        assert_eq!((cache.len(), s.insertions, s.evictions), (0, 5, 5));
        assert_eq!(s.lookups, s.hits + s.misses + s.invalidations);
    }

    #[test]
    fn rebinding_replaces_only_tagged_slots() {
        let plan = dummy_plan();
        let rebound = rebind_plan(&plan, &[Value::Int(99)]);
        let RelAlg::FilterScan(_, p) = &rebound.alg else {
            panic!()
        };
        assert_eq!(p.terms()[0].value, Value::Int(99));
        assert_eq!(p.terms()[0].param, Some(0));
        // Costs and structure are untouched.
        assert_eq!(rebound.cost, plan.cost);
        assert_eq!(rebound.node_count(), plan.node_count());
    }
}
