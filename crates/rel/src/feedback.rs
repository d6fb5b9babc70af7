//! Per-predicate / per-join-key selectivity memory — the feedback half
//! of adaptive re-optimization.
//!
//! The paper treats cardinality estimation as an input to the search;
//! this module closes the loop the paper leaves open: executed plans
//! report their per-operator *actual* cardinalities (EXPLAIN ANALYZE
//! already measures them), [`observations`] converts those actuals into
//! per-term and per-join-pair selectivity observations, and a
//! [`SelectivityMemory`] stored in the [`Catalog`] merges them with
//! exponential smoothing so one outlier execution cannot poison the
//! memory. The selectivity estimators
//! ([`crate::selectivity::pred_selectivity_with`] and friends) consult
//! the memory first and fall back to the System R formulas, so search,
//! plan-cache drift re-costing, and EXPLAIN estimates all become
//! memory-aware through one code path — and with an *empty* memory they
//! are bit-identical to the static formulas.
//!
//! ## Keying
//!
//! Memory cells are keyed per comparison *term* and per join *pair*,
//! never per predicate or per plan node. The memo's logical properties
//! must be derivation-invariant (equivalent expressions derive equal
//! cardinalities to within 1e-6 — see [`crate::props`]), and term/pair
//! multisets are exactly what survives `SelectMerge`, selection
//! push-down, and join commutativity/associativity: any placement of
//! the same terms multiplies the same memory cells. Term keys mirror
//! the value-blind hashing of `volcano_sql::shape_key` — a
//! parameter-tagged term hashes its slot, not its current binding — so
//! every execution of a prepared shape feeds the same cell.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use volcano_core::fxhash::FxHasher;

use crate::alg::RelAlg;
use crate::catalog::Catalog;
use crate::estimate::logical_from_inputs;
use crate::ids::AttrId;
use crate::predicate::{Cmp, JoinPred, Pred};
use crate::props::RelLogical;
use crate::selectivity::{cmp_selectivity_with, join_selectivity_with, MIN_SELECTIVITY};
use crate::RelPlan;

/// Observations are exact running means for the first `WARMUP`
/// observations, then exponentially smoothed with `alpha = 1/WARMUP`.
/// Within the warm-up the merge is exactly order-insensitive; beyond it
/// recent executions dominate (adaptivity) while any single outlier
/// moves the cell by at most `1/WARMUP` of the gap.
pub const SMOOTHING_WARMUP: u64 = 8;

/// What a selectivity observation is about.
///
/// The payload is a stable 64-bit key (unseeded [`FxHasher`], so it is
/// deterministic across runs and platforms) rather than the term
/// itself: the memory never needs to enumerate its subjects, only to
/// answer point lookups, and a fixed-width key keeps the catalog clone
/// cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObservationKey {
    /// One comparison term of a selection predicate (see [`term_key`]).
    Term(u64),
    /// One equi-join pair (see [`join_pair_key`]).
    Join(u64),
}

/// The memory key of one comparison term: attribute, operator, and
/// either the parameter slot (value-blind, like the plan cache's shape
/// key) or the literal value.
pub fn term_key(cmp: &Cmp) -> ObservationKey {
    let mut h = FxHasher::default();
    cmp.attr.hash(&mut h);
    h.write_u8(cmp.op as u8);
    match cmp.param {
        Some(slot) => {
            h.write_u8(1);
            h.write_u32(slot);
        }
        None => {
            h.write_u8(0);
            cmp.value.hash(&mut h);
        }
    }
    ObservationKey::Term(h.finish())
}

/// The memory key of one equi-join pair, canonicalized so that
/// `emp.dept = dept.id` and `dept.id = emp.dept` (join commutativity)
/// address the same cell.
pub fn join_pair_key(l: AttrId, r: AttrId) -> ObservationKey {
    let (a, b) = if l <= r { (l, r) } else { (r, l) };
    let mut h = FxHasher::default();
    a.hash(&mut h);
    b.hash(&mut h);
    ObservationKey::Join(h.finish())
}

/// The per-key share of a total observed selectivity `s` distributed
/// over `k` terms or pairs: the geometric share `s^(1/k)`, so the
/// product over all keys reproduces `s` exactly. Distributing evenly
/// (rather than attributing everything to one term) keeps derivation
/// invariance: however a rewrite regroups the terms, the product of
/// their cells is the same.
pub fn geometric_share(s: f64, k: usize) -> f64 {
    let s = if s.is_finite() {
        s.clamp(0.0, 1.0)
    } else {
        0.0
    };
    match k {
        0 | 1 => s,
        _ => s.powf(1.0 / k as f64),
    }
}

/// One smoothed cell of the memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelEntry {
    /// Smoothed observed selectivity, in `[0, 1]`.
    pub sel: f64,
    /// Observations merged into this cell.
    pub n: u64,
}

/// One selectivity observation harvested from an executed plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Which term or join pair the observation is about.
    pub key: ObservationKey,
    /// Observed selectivity (actual output / actual input), in `[0, 1]`.
    pub observed: f64,
    /// What the plan's estimator gives the same key at harvest time —
    /// the materiality baseline for deciding whether the memory moved
    /// enough to invalidate cached plans.
    pub estimated: f64,
}

/// The catalog's per-term / per-join-pair selectivity memory.
///
/// Empty by default (and after `Catalog::clone` it is cloned along, so
/// a copy-on-write catalog swap publishes a consistent memory
/// atomically). Lookups clamp to `[MIN_SELECTIVITY, 1]`, mirroring the
/// static estimators.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SelectivityMemory {
    cells: HashMap<ObservationKey, SelEntry>,
}

impl SelectivityMemory {
    /// An empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge one observation into the cell for `key`. Non-finite
    /// observations are ignored; everything else is clamped to `[0, 1]`
    /// first, so exact-zero and exact-total selectivities are ordinary
    /// observations (no division happens here at all).
    pub fn observe(&mut self, key: ObservationKey, observed: f64) {
        if !observed.is_finite() {
            return;
        }
        let observed = observed.clamp(0.0, 1.0);
        let cell = self.cells.entry(key).or_insert(SelEntry { sel: 0.0, n: 0 });
        cell.n += 1;
        // Running mean while n <= WARMUP (alpha = 1/n), exponential
        // smoothing with alpha = 1/WARMUP afterwards.
        let alpha = 1.0 / cell.n.min(SMOOTHING_WARMUP) as f64;
        cell.sel += alpha * (observed - cell.sel);
    }

    /// The smoothed selectivity for `key`, clamped to
    /// `[MIN_SELECTIVITY, 1]`; `None` if nothing was ever observed.
    pub fn lookup(&self, key: &ObservationKey) -> Option<f64> {
        self.cells
            .get(key)
            .map(|c| c.sel.clamp(MIN_SELECTIVITY, 1.0))
    }

    /// The raw cell for `key` (un-clamped smoothed value + count).
    pub fn entry(&self, key: &ObservationKey) -> Option<SelEntry> {
        self.cells.get(key).copied()
    }

    /// Iterate over all cells.
    pub fn iter(&self) -> impl Iterator<Item = (&ObservationKey, &SelEntry)> {
        self.cells.iter()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the memory holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Harvest per-term / per-join-pair selectivity observations from an
/// executed physical plan.
///
/// `actuals` are the per-node actual output row counts in plan
/// *pre-order* (parent before children, children left to right) —
/// exactly the order EXPLAIN ANALYZE measures, on either engine. Nodes
/// whose actual inputs are zero are skipped (nothing was observed, and
/// zero denominators are meaningless); so are operators whose output is
/// not a selectivity statement about a memorized key (projections,
/// aggregates, set operations, multi-way joins).
///
/// Observed selectivities:
/// * `Filter(p)` — output / input rows, one geometric share per term.
/// * `FilterScan(t, p)` — output / catalog cardinality of `t` (the scan
///   consumes the stored table, whose cardinality the catalog tracks).
/// * binary joins — output / (left actual × right actual), one
///   geometric share per equi-join pair; cross products are skipped.
/// * `Sort` / `Gather` enforcers pass their input through untouched.
///
/// Each observation's `estimated` is the selectivity the plan's own
/// estimator gives its key over the node's estimated inputs
/// ([`logical_from_inputs`]), so materiality is judged against the
/// estimate the plan was chosen with.
pub fn observations(catalog: &Catalog, plan: &RelPlan, actuals: &[u64]) -> Vec<Observation> {
    let mut out = Vec::new();
    harvest(catalog, plan, actuals, 0, &mut out);
    out
}

/// Recursive harvest; returns the number of pre-order slots the subtree
/// occupies and its estimated properties. Out-of-range indexes (a
/// truncated `actuals`) harvest nothing but still size the tree
/// correctly.
fn harvest(
    catalog: &Catalog,
    plan: &RelPlan,
    actuals: &[u64],
    idx: usize,
    out: &mut Vec<Observation>,
) -> (usize, RelLogical) {
    // Pre-order: children start right after this node, each offset by
    // the sizes of its elder siblings.
    let mut child_rows = Vec::with_capacity(plan.inputs.len());
    let mut inputs = Vec::with_capacity(plan.inputs.len());
    let mut consumed = 1;
    for c in &plan.inputs {
        child_rows.push(actuals.get(idx + consumed).copied());
        let (size, logical) = harvest(catalog, c, actuals, idx + consumed, out);
        consumed += size;
        inputs.push(logical);
    }
    let memory = catalog.feedback();
    if let Some(&rows_out) = actuals.get(idx) {
        match &plan.alg {
            RelAlg::Filter(pred) => {
                if let Some(rows_in) = child_rows[0] {
                    harvest_pred(pred, &inputs[0], memory, rows_out, rows_in, out);
                }
            }
            RelAlg::FilterScan(t, pred) => {
                let table = RelLogical::of_table(catalog, *t);
                let rows_in = table.card.round() as u64;
                harvest_pred(pred, &table, memory, rows_out, rows_in, out);
            }
            RelAlg::MergeJoin(p) | RelAlg::HybridHashJoin(p) | RelAlg::NestedLoops(p) => {
                if let [Some(l), Some(r)] = child_rows[..] {
                    let sides = (&inputs[0], &inputs[1]);
                    harvest_join(p, sides, memory, rows_out, (l, r), out);
                }
            }
            // Everything else either passes rows through (enforcers), or
            // its output cardinality is not a statement about a memorized
            // selectivity key.
            _ => {}
        }
    }
    (consumed, logical_from_inputs(catalog, &plan.alg, &inputs))
}

fn harvest_pred(
    pred: &Pred,
    input: &RelLogical,
    memory: &SelectivityMemory,
    rows_out: u64,
    rows_in: u64,
    out: &mut Vec<Observation>,
) {
    let terms = pred.terms();
    if terms.is_empty() || rows_in == 0 {
        return;
    }
    let total = (rows_out as f64 / rows_in as f64).clamp(0.0, 1.0);
    let share = geometric_share(total, terms.len());
    for term in terms {
        out.push(Observation {
            key: term_key(term),
            observed: share,
            estimated: cmp_selectivity_with(term, input, memory),
        });
    }
}

fn harvest_join(
    pred: &JoinPred,
    (left, right): (&RelLogical, &RelLogical),
    memory: &SelectivityMemory,
    rows_out: u64,
    (l, r): (u64, u64),
    out: &mut Vec<Observation>,
) {
    let pairs = pred.pairs();
    if pairs.is_empty() || l == 0 || r == 0 {
        return;
    }
    let cross = l as f64 * r as f64;
    let total = (rows_out as f64 / cross).clamp(0.0, 1.0);
    let share = geometric_share(total, pairs.len());
    for &(a, b) in pairs {
        out.push(Observation {
            key: join_pair_key(a, b),
            observed: share,
            estimated: join_selectivity_with(&JoinPred::eq(a, b), left, right, memory),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::CmpOp;

    fn k(i: u64) -> ObservationKey {
        ObservationKey::Term(i)
    }

    #[test]
    fn warmup_is_an_exact_running_mean() {
        let obs = [0.1, 0.9, 0.5, 0.3];
        let mut fwd = SelectivityMemory::new();
        let mut rev = SelectivityMemory::new();
        for &o in &obs {
            fwd.observe(k(1), o);
        }
        for &o in obs.iter().rev() {
            rev.observe(k(1), o);
        }
        let mean = obs.iter().sum::<f64>() / obs.len() as f64;
        assert!((fwd.lookup(&k(1)).unwrap() - mean).abs() < 1e-12);
        assert!((fwd.lookup(&k(1)).unwrap() - rev.lookup(&k(1)).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn smoothing_bounds_outliers() {
        let mut m = SelectivityMemory::new();
        for _ in 0..100 {
            m.observe(k(2), 0.5);
        }
        m.observe(k(2), 1.0); // one outlier
        let s = m.lookup(&k(2)).unwrap();
        // The outlier moves the cell by at most 1/WARMUP of the gap.
        assert!(s <= 0.5 + 0.5 / SMOOTHING_WARMUP as f64 + 1e-12);
        assert!(s > 0.5);
    }

    #[test]
    fn extreme_observations_are_safe() {
        let mut m = SelectivityMemory::new();
        m.observe(k(3), 0.0);
        m.observe(k(3), 1.0);
        m.observe(k(3), f64::NAN); // ignored
        m.observe(k(3), f64::INFINITY); // ignored
        let s = m.lookup(&k(3)).unwrap();
        assert!(s.is_finite());
        assert!((MIN_SELECTIVITY..=1.0).contains(&s));
        assert_eq!(m.entry(&k(3)).unwrap().n, 2);
    }

    #[test]
    fn zero_observation_lookup_is_clamped() {
        let mut m = SelectivityMemory::new();
        m.observe(k(4), 0.0);
        assert_eq!(m.lookup(&k(4)), Some(MIN_SELECTIVITY));
    }

    #[test]
    fn term_keys_are_value_sensitive_but_slot_blind() {
        use crate::ids::AttrId;
        let lit5 = Cmp::eq(AttrId(1), 5i64);
        let lit6 = Cmp::eq(AttrId(1), 6i64);
        assert_ne!(term_key(&lit5), term_key(&lit6));
        // A parameterized term keys on its slot, not its binding.
        let p5 = Cmp::with_param(AttrId(1), CmpOp::Eq, 5i64, 0);
        let p6 = Cmp::with_param(AttrId(1), CmpOp::Eq, 6i64, 0);
        assert_eq!(term_key(&p5), term_key(&p6));
        assert_ne!(term_key(&p5), term_key(&lit5));
    }

    #[test]
    fn join_keys_are_commutative() {
        use crate::ids::AttrId;
        assert_eq!(
            join_pair_key(AttrId(1), AttrId(9)),
            join_pair_key(AttrId(9), AttrId(1))
        );
        assert_ne!(
            join_pair_key(AttrId(1), AttrId(9)),
            join_pair_key(AttrId(1), AttrId(8))
        );
    }

    #[test]
    fn geometric_share_reproduces_the_product() {
        for &(s, kk) in &[(0.25, 2usize), (0.5, 3), (1e-6, 4), (0.0, 3), (1.0, 5)] {
            let share = geometric_share(s, kk);
            assert!((0.0..=1.0).contains(&share));
            let product = share.powi(kk as i32);
            assert!((product - s).abs() < 1e-9, "s={s} k={kk} got {product}");
        }
        assert_eq!(geometric_share(0.7, 1), 0.7);
        assert_eq!(geometric_share(f64::NAN, 2), 0.0);
    }

    /// `emp(id, dept)` with 2 000 rows and 20 departments, `dept(id)`
    /// with 20, and a plan node template to assemble plans by hand.
    fn emp_dept() -> (Catalog, RelPlan) {
        use crate::{ColumnDef, QueryBuilder, RelModel, RelProps};
        use volcano_core::{Optimizer, PhysicalProps, SearchOptions};
        let mut c = Catalog::new();
        let cols = vec![ColumnDef::int("id", 2000.0), ColumnDef::int("dept", 20.0)];
        c.add_table("emp", 2000.0, cols);
        c.add_table("dept", 20.0, vec![ColumnDef::int("id", 20.0)]);
        let model = RelModel::with_defaults(c.clone());
        let mut opt = Optimizer::new(&model, SearchOptions::default());
        let root = opt.insert_tree(&QueryBuilder::new(&c).scan("dept"));
        let like = opt.find_best_plan(root, RelProps::any(), None).unwrap();
        (c, like)
    }

    fn node(like: &RelPlan, alg: RelAlg, inputs: Vec<RelPlan>) -> RelPlan {
        RelPlan {
            alg,
            inputs,
            ..like.clone()
        }
    }

    /// `emp.dept = 3` is estimated at 1/20 of 2 000 rows, 100; 113 came
    /// back. The baseline is the plan's own 1/20, not a fixed guess, so
    /// an estimate that was right is not a surprise.
    #[test]
    fn a_term_is_judged_against_the_plans_own_estimate() {
        let (c, like) = emp_dept();
        let q = crate::QueryBuilder::new(&c);
        let emp = c.table_by_name("emp").unwrap().id;
        let pred = Pred::single(Cmp::eq(q.attr("emp", "dept"), 3i64));
        let plan = node(&like, RelAlg::FilterScan(emp, pred), vec![]);
        let [o] = observations(&c, &plan, &[113])[..] else {
            panic!("one term")
        };
        assert!((o.estimated - 1.0 / 20.0).abs() < 1e-12, "{o:?}");
        assert!((o.observed - 113.0 / 2000.0).abs() < 1e-12, "{o:?}");
        assert!(o.observed / o.estimated < 1.5, "not material: {o:?}");
    }

    /// A join pair's baseline is System R's `1/max(d_l, d_r)` over the
    /// join's estimated inputs, so a fresh cell that observes 100× that
    /// is material (it used to be its own baseline, never material).
    #[test]
    fn a_join_pair_is_judged_against_the_plans_own_estimate() {
        let (c, like) = emp_dept();
        let q = crate::QueryBuilder::new(&c);
        let scan = |t: &str| {
            node(
                &like,
                RelAlg::FileScan(c.table_by_name(t).unwrap().id),
                vec![],
            )
        };
        let on = JoinPred::eq(q.attr("dept", "id"), q.attr("emp", "dept"));
        let plan = node(
            &like,
            RelAlg::HybridHashJoin(on),
            vec![scan("dept"), scan("emp")],
        );
        // Every emp row matched every dept row: selectivity 1.
        let [o] = observations(&c, &plan, &[40_000, 20, 2000])[..] else {
            panic!("one pair")
        };
        assert!((o.estimated - 1.0 / 20.0).abs() < 1e-12, "{o:?}");
        assert_eq!(o.observed, 1.0);
        // With the pair observed, the plan's estimate is the memory's.
        let mut observed = c.clone();
        observed.feedback_mut().observe(o.key, 0.5);
        let [o] = observations(&observed, &plan, &[40_000, 20, 2000])[..] else {
            panic!("one pair")
        };
        assert_eq!(o.estimated, 0.5);
    }
}
