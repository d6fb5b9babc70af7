//! Selectivity estimation.
//!
//! "The logical property functions also encapsulate selectivity
//! estimation" (§2.2). The estimators are the System R classics \[15\]:
//! `1/distinct` for equality with a literal, `1/3` for range predicates,
//! `1/max(d_left, d_right)` per equi-join pair.
//!
//! Each estimator consults the selectivity memory ([`crate::feedback`])
//! first, per term or join pair, and falls back to its formula; with an
//! empty memory it is the formula exactly. All consume *base-table*
//! distinct counts (see [`crate::props`] for why that keeps logical
//! properties derivation-invariant) and clamp to `[MIN_SELECTIVITY, 1]`.

use crate::feedback::{join_pair_key, term_key, SelectivityMemory};
use crate::predicate::{Cmp, CmpOp, JoinPred, Pred};
use crate::props::RelLogical;

/// Lower clamp so estimates never reach zero (a zero-cardinality estimate
/// would make every downstream operator look free).
pub const MIN_SELECTIVITY: f64 = 1e-9;
/// Default selectivity of range predicates (System R's 1/3).
pub const RANGE_SELECTIVITY: f64 = 1.0 / 3.0;

fn clamp(s: f64) -> f64 {
    s.clamp(MIN_SELECTIVITY, 1.0)
}

/// Selectivity of one comparison given the input's statistics.
pub fn cmp_selectivity(cmp: &Cmp, input: &RelLogical) -> f64 {
    let distinct = input.distinct(cmp.attr).max(1.0);
    let s = match cmp.op {
        CmpOp::Eq => 1.0 / distinct,
        CmpOp::Ne => 1.0 - 1.0 / distinct,
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => RANGE_SELECTIVITY,
    };
    clamp(s)
}

/// [`cmp_selectivity`], consulting the selectivity memory first: an
/// observed value for this term's key wins over the System R formula.
/// With an empty memory every lookup misses and the result is the exact
/// same floating-point expression as the static estimator.
pub fn cmp_selectivity_with(cmp: &Cmp, input: &RelLogical, memory: &SelectivityMemory) -> f64 {
    match memory.lookup(&term_key(cmp)) {
        Some(s) => clamp(s),
        None => cmp_selectivity(cmp, input),
    }
}

/// Selectivity of a conjunction (independence assumption), with
/// per-term memory lookups (see [`cmp_selectivity_with`]): terms without
/// observations keep their static estimates inside the same product.
pub fn pred_selectivity_with(pred: &Pred, input: &RelLogical, memory: &SelectivityMemory) -> f64 {
    clamp(
        pred.terms()
            .iter()
            .map(|c| cmp_selectivity_with(c, input, memory))
            .product(),
    )
}

/// Selectivity of an equi-join predicate (independence across pairs),
/// with per-pair memory lookups: a pair without an observation keeps
/// System R's `1/max(d_l, d_r)` inside the same product. A Cartesian
/// product has selectivity 1.
pub fn join_selectivity_with(
    pred: &JoinPred,
    left: &RelLogical,
    right: &RelLogical,
    memory: &SelectivityMemory,
) -> f64 {
    clamp(
        pred.pairs()
            .iter()
            .map(|&(l, r)| match memory.lookup(&join_pair_key(l, r)) {
                Some(s) => clamp(s),
                None => {
                    let dl = left.distinct(l).max(1.0);
                    let dr = right.distinct(r).max(1.0);
                    1.0 / dl.max(dr)
                }
            })
            .product(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ColType;
    use crate::ids::AttrId;
    use crate::props::ColInfo;
    use std::sync::Arc;

    /// With nothing observed every estimator is System R's formula.
    fn none() -> SelectivityMemory {
        SelectivityMemory::new()
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

    #[test]
    fn equality_uses_distinct() {
        let l = logical(vec![(1, 100.0)], 1000.0);
        let s = cmp_selectivity_with(&Cmp::eq(AttrId(1), 5i64), &l, &none());
        assert!((s - 0.01).abs() < 1e-12);
    }

    #[test]
    fn range_is_one_third() {
        let l = logical(vec![(1, 100.0)], 1000.0);
        let s = cmp_selectivity_with(&Cmp::lt(AttrId(1), 5i64), &l, &none());
        assert!((s - RANGE_SELECTIVITY).abs() < 1e-12);
    }

    #[test]
    fn ne_is_complement() {
        let l = logical(vec![(1, 4.0)], 1000.0);
        let s = cmp_selectivity_with(&Cmp::new(AttrId(1), CmpOp::Ne, 5i64), &l, &none());
        assert!((s - 0.75).abs() < 1e-12);
    }

    #[test]
    fn conjunction_multiplies() {
        let l = logical(vec![(1, 10.0), (2, 10.0)], 1000.0);
        let p = Pred::conj(vec![Cmp::eq(AttrId(1), 1i64), Cmp::eq(AttrId(2), 2i64)]);
        assert!((pred_selectivity_with(&p, &l, &none()) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn join_uses_max_distinct() {
        let l = logical(vec![(1, 50.0)], 1000.0);
        let r = logical(vec![(10, 200.0)], 500.0);
        let p = JoinPred::eq(AttrId(1), AttrId(10));
        assert!((join_selectivity_with(&p, &l, &r, &none()) - 1.0 / 200.0).abs() < 1e-12);
    }

    #[test]
    fn cross_product_selectivity_is_one() {
        let l = logical(vec![(1, 50.0)], 1000.0);
        let r = logical(vec![(10, 200.0)], 500.0);
        assert_eq!(
            join_selectivity_with(&JoinPred::cross(), &l, &r, &none()),
            1.0
        );
    }

    #[test]
    fn selectivities_are_clamped() {
        let l = logical(vec![(1, 1e12)], 1e12);
        let p = Pred::conj(
            (0..40)
                .map(|_| Cmp::eq(AttrId(1), 1i64))
                .collect::<Vec<_>>(),
        );
        // Dedup collapses identical terms, so craft distinct values.
        let p2 = Pred::conj(
            (0..40)
                .map(|i| Cmp::eq(AttrId(1), i as i64))
                .collect::<Vec<_>>(),
        );
        assert!(pred_selectivity_with(&p, &l, &none()) >= MIN_SELECTIVITY);
        assert!(pred_selectivity_with(&p2, &l, &none()) >= MIN_SELECTIVITY);
    }
}
