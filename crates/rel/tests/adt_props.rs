//! Property-based tests of the relational ADTs: the laws the search
//! engine depends on (cost monoid, property-vector cover order,
//! predicate canonicalization, selectivity bounds).

use proptest::prelude::*;
use volcano_core::cost::Cost;
use volcano_core::props::PhysicalProps;
use volcano_rel::{AttrId, Cmp, CmpOp, JoinPred, Pred, RelCost, RelProps, Value};

fn arb_cost() -> impl Strategy<Value = RelCost> {
    (0.0f64..1e9, 0.0f64..1e9).prop_map(|(io, cpu)| RelCost::new(io, cpu))
}

fn arb_sort() -> impl Strategy<Value = RelProps> {
    proptest::collection::vec(0u32..8, 0..5).prop_map(|v| {
        let mut seen = Vec::new();
        for a in v {
            if !seen.contains(&AttrId(a)) {
                seen.push(AttrId(a));
            }
        }
        RelProps::sorted(seen)
    })
}

fn arb_cmp() -> impl Strategy<Value = Cmp> {
    (
        0u32..6,
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge)
        ],
        any::<i32>(),
    )
        .prop_map(|(a, op, v)| Cmp::new(AttrId(a), op, Value::Int(v as i64)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// RelCost is a commutative monoid under add, with a total preorder.
    #[test]
    fn cost_monoid_laws(a in arb_cost(), b in arb_cost(), c in arb_cost()) {
        let ab = a.add(&b);
        let ba = b.add(&a);
        prop_assert!((ab.total() - ba.total()).abs() < 1e-6);
        let abc1 = a.add(&b).add(&c);
        let abc2 = a.add(&b.add(&c));
        prop_assert!((abc1.total() - abc2.total()).abs() < 1e-6);
        prop_assert_eq!(a.add(&RelCost::zero()).total(), a.total());
        // Monotone: adding never makes things cheaper.
        prop_assert!(a.cheaper_or_equal(&ab));
        // Totality of comparison.
        prop_assert!(a.cheaper_or_equal(&b) || b.cheaper_or_equal(&a));
    }

    /// sub_saturating is the budget inverse of add on the comparison key.
    #[test]
    fn cost_sub_laws(a in arb_cost(), b in arb_cost()) {
        let r = a.add(&b).sub_saturating(&b);
        prop_assert!((r.total() - a.total()).abs() <= 1e-6 * a.total().max(1.0));
        let z = a.sub_saturating(&a.add(&b));
        prop_assert!(z.total() <= 1e-9);
    }

    /// Prefix cover is a partial order with the empty vector as bottom.
    #[test]
    fn props_cover_laws(a in arb_sort(), b in arb_sort(), c in arb_sort()) {
        prop_assert!(a.satisfies(&a));
        prop_assert!(a.satisfies(&RelProps::any()));
        if a.satisfies(&b) && b.satisfies(&c) {
            prop_assert!(a.satisfies(&c));
        }
        if a.satisfies(&b) && b.satisfies(&a) {
            prop_assert_eq!(a.clone(), b.clone());
        }
        // Cover respects extension: a longer vector satisfies each of its
        // own prefixes.
        for k in 0..=a.sort.len() {
            prop_assert!(a.satisfies(&RelProps::sorted(a.sort[..k].to_vec())));
        }
    }

    /// Predicate canonicalization: `conj` is order-insensitive and
    /// idempotent, `and` is associative and commutative as a set.
    #[test]
    fn pred_canonicalization(mut terms in proptest::collection::vec(arb_cmp(), 0..6)) {
        let p1 = Pred::conj(terms.clone());
        terms.reverse();
        let p2 = Pred::conj(terms.clone());
        prop_assert_eq!(&p1, &p2);
        prop_assert_eq!(Pred::conj(p1.terms().to_vec()), p1.clone());
        let (x, y) = p1.partition(|a| a.0 % 2 == 0);
        prop_assert_eq!(x.and(&y), p1);
    }

    /// JoinPred flip is an involution and partition is a partition.
    #[test]
    fn join_pred_laws(pairs in proptest::collection::vec((0u32..6, 6u32..12), 0..5)) {
        let p = JoinPred::on(pairs.iter().map(|&(l, r)| (AttrId(l), AttrId(r))).collect());
        prop_assert_eq!(p.flipped().flipped(), p.clone());
        let (a, b) = p.partition(|l, _| l.0 % 2 == 0);
        prop_assert_eq!(a.and(&b), p.clone());
        prop_assert_eq!(p.left_attrs().len(), p.pairs().len());
    }
}

mod selectivity_bounds {
    use super::*;
    use std::sync::Arc;
    use volcano_rel::catalog::ColType;
    use volcano_rel::props::{ColInfo, RelLogical};
    use volcano_rel::selectivity::{join_selectivity_with, pred_selectivity_with};
    use volcano_rel::SelectivityMemory;

    fn logical(distinct: Vec<f64>, card: f64) -> RelLogical {
        RelLogical {
            card,
            cols: Arc::new(
                distinct
                    .into_iter()
                    .enumerate()
                    .map(|(i, d)| ColInfo {
                        attr: AttrId(i as u32),
                        ty: ColType::Int,
                        width: 8,
                        distinct: d,
                    })
                    .collect(),
            ),
            scans: Default::default(),
        }
    }

    proptest! {
        /// Selectivities are always in (0, 1].
        #[test]
        fn selectivities_bounded(
            distincts in proptest::collection::vec(1.0f64..1e6, 3..6),
            terms in proptest::collection::vec(super::arb_cmp(), 0..6),
        ) {
            let n = distincts.len();
            let l = logical(distincts.clone(), 1e5);
            let terms: Vec<Cmp> = terms
                .into_iter()
                .map(|mut c| { c.attr = AttrId(c.attr.0 % n as u32); c })
                .collect();
            let empty = SelectivityMemory::new();
            let s = pred_selectivity_with(&Pred::conj(terms), &l, &empty);
            prop_assert!(s > 0.0 && s <= 1.0);

            let r = logical(distincts, 1e5);
            let jp = JoinPred::eq(AttrId(0), AttrId(1));
            let js = join_selectivity_with(&jp, &l, &r, &empty);
            prop_assert!(js > 0.0 && js <= 1.0);
        }
    }
}
