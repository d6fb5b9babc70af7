//! Property tests for the selectivity-memory algebra (ISSUE 10).
//!
//! The memory sits underneath every cardinality estimate the optimizer
//! makes, so its invariants are load-bearing: merging must be
//! order-insensitive (within the warm-up, exactly; beyond it, bounded by
//! the observation range), lookups must stay inside `[MIN_SELECTIVITY, 1]`
//! for any observation stream including exact-zero and exact-total
//! selectivities, and with an *empty* memory the `_with` estimators must
//! be bit-identical to System R's closed-form formulas — that is the
//! feedback-off ablation guarantee.

use std::sync::Arc;

use proptest::prelude::*;

use volcano_rel::catalog::ColType;
use volcano_rel::feedback::{geometric_share, term_key, SelectivityMemory, SMOOTHING_WARMUP};
use volcano_rel::props::ColInfo;
use volcano_rel::selectivity::{
    cmp_selectivity, cmp_selectivity_with, join_selectivity_with, pred_selectivity_with,
    MIN_SELECTIVITY,
};
use volcano_rel::{AttrId, Cmp, CmpOp, JoinPred, Pred, RelLogical};

fn key(i: u64) -> volcano_rel::ObservationKey {
    volcano_rel::ObservationKey::Term(i)
}

fn logical(cols: Vec<(u32, f64)>, card: f64) -> RelLogical {
    RelLogical {
        card,
        cols: Arc::new(
            cols.into_iter()
                .map(|(i, d)| ColInfo {
                    attr: AttrId(i),
                    ty: ColType::Int,
                    width: 8,
                    distinct: d,
                })
                .collect(),
        ),
        scans: Default::default(),
    }
}

fn cmp_op(i: u8) -> CmpOp {
    match i % 6 {
        0 => CmpOp::Eq,
        1 => CmpOp::Ne,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        _ => CmpOp::Ge,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Within the warm-up window the merge is an exact running mean, so
    /// any permutation of the observations lands on the same value.
    #[test]
    fn warmup_merge_is_order_insensitive(
        mut obs in proptest::collection::vec(0.0f64..=1.0, 1..=SMOOTHING_WARMUP as usize),
        seed in 0u64..1000,
    ) {
        let mut fwd = SelectivityMemory::new();
        for &o in &obs {
            fwd.observe(key(1), o);
        }
        // Deterministic shuffle driven by the seed.
        let n = obs.len();
        for i in 0..n {
            let j = ((seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64)) % n as u64) as usize;
            obs.swap(i, j);
        }
        let mut shuf = SelectivityMemory::new();
        for &o in &obs {
            shuf.observe(key(1), o);
        }
        let (a, b) = (fwd.lookup(&key(1)).unwrap(), shuf.lookup(&key(1)).unwrap());
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    /// Beyond the warm-up the smoothed value is always bracketed by the
    /// extremes of what was observed (clamped at the floor).
    #[test]
    fn smoothed_value_is_bracketed_by_observations(
        obs in proptest::collection::vec(0.0f64..=1.0, 1..64),
    ) {
        let mut m = SelectivityMemory::new();
        for &o in &obs {
            m.observe(key(2), o);
        }
        let s = m.lookup(&key(2)).unwrap();
        let lo = obs.iter().cloned().fold(f64::INFINITY, f64::min).max(MIN_SELECTIVITY);
        let hi = obs.iter().cloned().fold(0.0, f64::max).max(MIN_SELECTIVITY);
        prop_assert!(s >= lo - 1e-12 && s <= hi + 1e-12, "{s} outside [{lo}, {hi}]");
        prop_assert!((MIN_SELECTIVITY..=1.0).contains(&s));
        prop_assert_eq!(m.entry(&key(2)).unwrap().n, obs.len() as u64);
    }

    /// Exact-zero and exact-total observations — and garbage like NaN —
    /// never produce a non-finite or out-of-range lookup.
    #[test]
    fn extreme_observations_never_divide_by_zero(
        picks in proptest::collection::vec(0usize..4, 1..32),
    ) {
        let menu = [0.0, 1.0, f64::NAN, f64::INFINITY];
        let mut m = SelectivityMemory::new();
        for &p in &picks {
            m.observe(key(3), menu[p]);
        }
        if let Some(s) = m.lookup(&key(3)) {
            prop_assert!(s.is_finite());
            prop_assert!((MIN_SELECTIVITY..=1.0).contains(&s));
        }
    }

    /// `share(s, k)^k` reproduces `s` and each share stays in `[0, 1]`.
    #[test]
    fn geometric_share_roundtrips(s in 0.0f64..=1.0, k in 1usize..6) {
        let share = geometric_share(s, k);
        prop_assert!((0.0..=1.0).contains(&share));
        prop_assert!((share.powi(k as i32) - s).abs() < 1e-9);
    }

    /// Feedback-off ablation: with an empty memory the `_with` estimators
    /// are bit-identical (exact f64 equality) to System R's closed forms
    /// (`1/distinct`, `1 - 1/distinct`, `1/3` per term, their product for
    /// a conjunction, `1/max(d_l, d_r)` per join pair), for arbitrary
    /// predicates and statistics.
    #[test]
    fn empty_memory_is_bit_identical_to_static(
        distincts in proptest::collection::vec(1.0f64..1e6, 2..5),
        ops in proptest::collection::vec(0u8..6, 1..4),
        values in proptest::collection::vec(-1000i64..1000, 1..4),
        card in 1.0f64..1e7,
    ) {
        let cols: Vec<(u32, f64)> = distincts.iter().enumerate()
            .map(|(i, &d)| (i as u32, d)).collect();
        let input = logical(cols.clone(), card);
        let empty = SelectivityMemory::new();
        let clamp = |s: f64| s.clamp(MIN_SELECTIVITY, 1.0);
        let system_r = |t: &Cmp| {
            let d = distincts[t.attr.0 as usize];
            clamp(match t.op {
                CmpOp::Eq => 1.0 / d,
                CmpOp::Ne => 1.0 - 1.0 / d,
                _ => 1.0 / 3.0,
            })
        };
        let terms: Vec<Cmp> = ops.iter().zip(&values).enumerate()
            .map(|(i, (&op, &v))| Cmp::new(AttrId((i % distincts.len()) as u32), cmp_op(op), v))
            .collect();
        for t in &terms {
            prop_assert_eq!(system_r(t).to_bits(), cmp_selectivity(t, &input).to_bits());
            prop_assert_eq!(
                system_r(t).to_bits(),
                cmp_selectivity_with(t, &input, &empty).to_bits()
            );
        }
        let pred = Pred::conj(terms);
        let product = clamp(pred.terms().iter().map(system_r).product());
        prop_assert_eq!(
            product.to_bits(),
            pred_selectivity_with(&pred, &input, &empty).to_bits()
        );
        let right = logical(vec![(100, distincts[1])], card);
        let jp = JoinPred::eq(AttrId(0), AttrId(100));
        prop_assert_eq!(
            clamp(1.0 / distincts[0].max(distincts[1])).to_bits(),
            join_selectivity_with(&jp, &input, &right, &empty).to_bits()
        );
    }

    /// A primed memory steers the estimate: the `_with` estimator reports
    /// the observed selectivity (clamped), not the System R formula.
    #[test]
    fn primed_memory_overrides_the_formula(
        observed in 0.0f64..=1.0,
        distinct in 2.0f64..1e4,
    ) {
        let input = logical(vec![(1, distinct)], 1e5);
        let cmp = Cmp::eq(AttrId(1), 7i64);
        let mut m = SelectivityMemory::new();
        m.observe(term_key(&cmp), observed);
        let got = cmp_selectivity_with(&cmp, &input, &m);
        prop_assert!((got - observed.max(MIN_SELECTIVITY)).abs() < 1e-12);
    }
}

/// A parameterized term's memory cell is shared across bindings: observing
/// under one binding steers the estimate under another (value-blind slot
/// keying, mirroring the plan cache's shape key).
#[test]
fn param_terms_share_one_cell_across_bindings() {
    let input = logical(vec![(1, 100.0)], 1000.0);
    let bound_5 = Cmp::with_param(AttrId(1), CmpOp::Eq, 5i64, 0);
    let bound_9 = Cmp::with_param(AttrId(1), CmpOp::Eq, 9i64, 0);
    let mut m = SelectivityMemory::new();
    m.observe(term_key(&bound_5), 0.8);
    assert!((cmp_selectivity_with(&bound_9, &input, &m) - 0.8).abs() < 1e-12);
    // A literal term with the same attr/op does NOT share the cell.
    let lit = Cmp::eq(AttrId(1), 5i64);
    assert!((cmp_selectivity_with(&lit, &input, &m) - 0.01).abs() < 1e-12);
}
