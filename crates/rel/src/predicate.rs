//! Selection and join predicates.
//!
//! Predicates appear *inside* logical operators, so they must be cheap to
//! clone, `Eq`, and `Hash` — the memo keys expressions by operator value.
//! Selections carry a conjunction of simple comparisons; joins carry a set
//! of equality pairs (kept sorted for canonical hashing), which is what
//! the associativity rule needs to split and recombine predicates
//! correctly.

use std::fmt;
use std::sync::Arc;

use crate::ids::AttrId;
use crate::value::Value;

/// Comparison operators in selection predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
}

impl CmpOp {
    /// Evaluate against a comparison result.
    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// One comparison: `attr op literal`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cmp {
    /// The attribute compared.
    pub attr: AttrId,
    /// The comparison operator.
    pub op: CmpOp,
    /// The literal compared against.
    pub value: Value,
    /// Prepared-statement parameter slot this literal was bound from.
    /// Identity (`Eq`/`Hash`) includes the slot, so two conjuncts that
    /// momentarily carry equal values but come from distinct parameters
    /// (`a < $0 AND a < $1` with both bound to 5) never collapse under
    /// [`Pred::conj`]'s dedup — rebinding a cached plan by slot stays
    /// structurally exact. `None` for ordinary literals.
    pub param: Option<u32>,
}

impl Cmp {
    /// Build a comparison.
    pub fn new(attr: AttrId, op: CmpOp, value: impl Into<Value>) -> Self {
        Cmp {
            attr,
            op,
            value: value.into(),
            param: None,
        }
    }

    /// Build a comparison whose literal is bound from parameter `slot`.
    pub fn with_param(attr: AttrId, op: CmpOp, value: impl Into<Value>, slot: u32) -> Self {
        Cmp {
            attr,
            op,
            value: value.into(),
            param: Some(slot),
        }
    }

    /// `attr = value`.
    pub fn eq(attr: AttrId, value: impl Into<Value>) -> Self {
        Cmp::new(attr, CmpOp::Eq, value)
    }

    /// `attr < value`.
    pub fn lt(attr: AttrId, value: impl Into<Value>) -> Self {
        Cmp::new(attr, CmpOp::Lt, value)
    }

    /// The same comparison with the literal replaced by the value of its
    /// parameter slot in `params` (identity for unparameterized terms).
    pub fn rebound(&self, params: &[Value]) -> Cmp {
        match self.param {
            Some(slot) => Cmp {
                value: params
                    .get(slot as usize)
                    .unwrap_or_else(|| panic!("parameter ${slot} not bound"))
                    .clone(),
                ..self.clone()
            },
            None => self.clone(),
        }
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.param {
            Some(slot) => write!(
                f,
                "{} {} ${}={}",
                self.attr,
                self.op.symbol(),
                slot,
                self.value
            ),
            None => write!(f, "{} {} {}", self.attr, self.op.symbol(), self.value),
        }
    }
}

/// A conjunction of comparisons (the selection predicate).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Pred {
    /// The conjuncts; kept sorted by attribute for canonical hashing.
    terms: Vec<Cmp>,
}

impl Pred {
    /// A conjunction of the given comparisons.
    ///
    /// The parameter slot sorts *before* the literal value so that a
    /// parameterized conjunction keeps the same term order (and hence the
    /// same canonical shape) no matter which values the slots are bound
    /// to — a cached plan template rebound to fresh parameters is
    /// term-for-term identical to re-lowering under those parameters.
    pub fn conj(mut terms: Vec<Cmp>) -> Self {
        terms.sort_by(|a, b| {
            (a.attr, a.op as u8)
                .cmp(&(b.attr, b.op as u8))
                .then_with(|| a.param.cmp(&b.param))
                .then_with(|| a.value.cmp(&b.value))
        });
        terms.dedup();
        Pred { terms }
    }

    /// A single-comparison predicate.
    pub fn single(c: Cmp) -> Self {
        Pred::conj(vec![c])
    }

    /// The conjuncts.
    pub fn terms(&self) -> &[Cmp] {
        &self.terms
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Is the predicate trivially true?
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// All attributes referenced.
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut v: Vec<AttrId> = self.terms.iter().map(|c| c.attr).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Split into the conjuncts whose attribute satisfies `pred` and the
    /// rest — the workhorse of selection push-down.
    pub fn partition(&self, pred: impl Fn(AttrId) -> bool) -> (Pred, Pred) {
        let (yes, no): (Vec<Cmp>, Vec<Cmp>) =
            self.terms.iter().cloned().partition(|c| pred(c.attr));
        (Pred::conj(yes), Pred::conj(no))
    }

    /// Conjoin two predicates.
    pub fn and(&self, other: &Pred) -> Pred {
        let mut terms = self.terms.clone();
        terms.extend(other.terms.iter().cloned());
        Pred::conj(terms)
    }

    /// The predicate with every parameterized term rebound to the value
    /// of its slot in `params` (plan-template rebinding for prepared
    /// statements). Panics if a referenced slot is out of range.
    pub fn rebound(&self, params: &[Value]) -> Pred {
        Pred::conj(self.terms.iter().map(|c| c.rebound(params)).collect())
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "true");
        }
        let parts: Vec<String> = self.terms.iter().map(Cmp::to_string).collect();
        write!(f, "{}", parts.join(" AND "))
    }
}

/// An equi-join predicate: a set of attribute equality pairs
/// `left.a = right.b`, kept sorted for canonical hashing. An empty set is
/// a Cartesian product.
///
/// The pairs are shared (`Arc`), so cloning a join operator or algorithm
/// copies no pairs: commutativity and associativity re-clone the same
/// predicate into every expression, binding and plan that holds it. Each
/// derived predicate is sorted in a stack buffer and built in one
/// allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct JoinPred {
    pairs: Arc<[(AttrId, AttrId)]>,
}

/// Pairs this many or fewer are sorted on the stack.
const INLINE_PAIRS: usize = 8;

impl JoinPred {
    /// Build from equality pairs `(left attr, right attr)`.
    pub fn on(pairs: Vec<(AttrId, AttrId)>) -> Self {
        JoinPred::from_pairs(pairs)
    }

    /// The canonical (sorted, de-duplicated) predicate over `pairs`.
    fn from_pairs(pairs: impl IntoIterator<Item = (AttrId, AttrId)>) -> Self {
        let zero = (AttrId(0), AttrId(0));
        let mut buf = [zero; INLINE_PAIRS];
        let mut spill = Vec::new();
        let mut n = 0;
        for pair in pairs {
            if n < INLINE_PAIRS {
                buf[n] = pair;
            } else {
                if spill.is_empty() {
                    spill.extend_from_slice(&buf);
                }
                spill.push(pair);
            }
            n += 1;
        }
        let all = if n <= INLINE_PAIRS {
            &mut buf[..n]
        } else {
            &mut spill[..]
        };
        all.sort_unstable();
        let mut kept = 0;
        for i in 0..all.len() {
            if kept == 0 || all[i] != all[kept - 1] {
                all[kept] = all[i];
                kept += 1;
            }
        }
        if kept == 0 {
            // An empty `Arc` slice is a shared constant: no allocation.
            return JoinPred::cross();
        }
        JoinPred {
            pairs: Arc::from(&all[..kept]),
        }
    }

    /// A single equality pair.
    pub fn eq(l: AttrId, r: AttrId) -> Self {
        JoinPred::from_pairs([(l, r)])
    }

    /// The Cartesian product (no predicate).
    pub fn cross() -> Self {
        JoinPred::default()
    }

    /// The equality pairs.
    pub fn pairs(&self) -> &[(AttrId, AttrId)] {
        &self.pairs
    }

    /// Is this a Cartesian product?
    pub fn is_cross(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Left-side attributes, in pair order (the natural delivered sort
    /// order of a merge join).
    pub fn left_attrs(&self) -> Vec<AttrId> {
        self.pairs.iter().map(|&(l, _)| l).collect()
    }

    /// Right-side attributes, in pair order.
    pub fn right_attrs(&self) -> Vec<AttrId> {
        self.pairs.iter().map(|&(_, r)| r).collect()
    }

    /// Swap the sides (for join commutativity).
    pub fn flipped(&self) -> JoinPred {
        JoinPred::from_pairs(self.pairs.iter().map(|&(l, r)| (r, l)))
    }

    /// Split the pairs by a predicate on *both* endpoints' membership:
    /// `classify(l, r)` returns `true` to keep the pair in the first
    /// result. Used by the join-reordering rules to re-route predicates.
    pub fn partition(&self, classify: impl Fn(AttrId, AttrId) -> bool) -> (JoinPred, JoinPred) {
        let cross = JoinPred::cross();
        (
            cross.and_where(self, &classify),
            cross.and_where(self, |l, r| !classify(l, r)),
        )
    }

    /// Merge two predicates into one.
    pub fn and(&self, other: &JoinPred) -> JoinPred {
        self.and_where(other, |_, _| true)
    }

    /// This predicate and the pairs of `other` that `keep(l, r)` accepts,
    /// in one allocation: associativity's new outer predicate without
    /// building the part of the split it then merges away.
    pub(crate) fn and_where(
        &self,
        other: &JoinPred,
        keep: impl Fn(AttrId, AttrId) -> bool,
    ) -> JoinPred {
        let kept = other.pairs.iter().copied().filter(|&(l, r)| keep(l, r));
        JoinPred::from_pairs(self.pairs.iter().copied().chain(kept))
    }

    /// All attributes referenced on either side.
    pub fn attrs(&self) -> Vec<AttrId> {
        let mut v: Vec<AttrId> = self.pairs.iter().flat_map(|&(l, r)| [l, r]).collect();
        v.sort();
        v.dedup();
        v
    }
}

impl fmt::Display for JoinPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.pairs.is_empty() {
            return write!(f, "cross");
        }
        let parts: Vec<String> = self
            .pairs
            .iter()
            .map(|(l, r)| format!("{l} = {r}"))
            .collect();
        write!(f, "{}", parts.join(" AND "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    #[test]
    fn cmp_op_eval() {
        use std::cmp::Ordering::*;
        assert!(CmpOp::Eq.eval(Equal));
        assert!(!CmpOp::Eq.eval(Less));
        assert!(CmpOp::Le.eval(Equal));
        assert!(CmpOp::Le.eval(Less));
        assert!(CmpOp::Ne.eval(Greater));
        assert!(CmpOp::Ge.eval(Greater));
        assert!(!CmpOp::Gt.eval(Equal));
        assert!(CmpOp::Lt.eval(Less));
    }

    #[test]
    fn pred_canonical_order_makes_equal_hashes() {
        let p1 = Pred::conj(vec![Cmp::eq(a(2), 5i64), Cmp::lt(a(1), 9i64)]);
        let p2 = Pred::conj(vec![Cmp::lt(a(1), 9i64), Cmp::eq(a(2), 5i64)]);
        assert_eq!(p1, p2);
    }

    #[test]
    fn pred_partition_splits_by_attr() {
        let p = Pred::conj(vec![Cmp::eq(a(1), 1i64), Cmp::eq(a(5), 2i64)]);
        let (lo, hi) = p.partition(|x| x.0 < 3);
        assert_eq!(lo.attrs(), vec![a(1)]);
        assert_eq!(hi.attrs(), vec![a(5)]);
    }

    #[test]
    fn join_pred_flip_roundtrip() {
        let p = JoinPred::on(vec![(a(1), a(10)), (a(2), a(11))]);
        assert_eq!(p.flipped().flipped(), p);
        assert_eq!(p.left_attrs(), vec![a(1), a(2)]);
        assert_eq!(p.flipped().left_attrs(), vec![a(10), a(11)]);
    }

    #[test]
    fn join_pred_canonical_form_survives_spilling() {
        let many: Vec<_> = (0..20)
            .rev()
            .map(|i| (a(i % 11), a(100 + i % 11)))
            .collect();
        let p = JoinPred::on(many);
        let want: Vec<_> = (0..11).map(|i| (a(i), a(100 + i))).collect();
        assert_eq!(p.pairs(), &want[..]);
        assert_eq!(p.and(&p), p);
        let (lo, hi) = p.partition(|l, _| l.0 < 3);
        assert_eq!((lo.pairs().len(), hi.pairs().len()), (3, 8));
        assert_eq!(lo.and(&hi), p);
        // Cloning shares the pairs.
        assert!(std::ptr::eq(p.pairs(), p.clone().pairs()));
    }

    #[test]
    fn join_pred_cross_detection() {
        assert!(JoinPred::cross().is_cross());
        assert!(!JoinPred::eq(a(0), a(1)).is_cross());
    }

    #[test]
    fn distinct_param_slots_never_dedup() {
        // `a < $0 AND a < $1` with both slots bound to 5: value-identical
        // terms from distinct parameters must survive as two conjuncts,
        // else rebinding to unequal values would be unsound.
        let p = Pred::conj(vec![
            Cmp::with_param(a(1), CmpOp::Lt, 5i64, 0),
            Cmp::with_param(a(1), CmpOp::Lt, 5i64, 1),
        ]);
        assert_eq!(p.len(), 2);
        // Identical slot + value still dedups.
        let q = Pred::conj(vec![
            Cmp::with_param(a(1), CmpOp::Lt, 5i64, 0),
            Cmp::with_param(a(1), CmpOp::Lt, 5i64, 0),
        ]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn rebinding_is_order_stable() {
        // The term order (hence shape) must not depend on bound values.
        let mk = |v0: i64, v1: i64| {
            Pred::conj(vec![
                Cmp::with_param(a(1), CmpOp::Lt, v0, 0),
                Cmp::with_param(a(1), CmpOp::Lt, v1, 1),
            ])
        };
        let p = mk(2, 9);
        let rebound = p.rebound(&[Value::Int(9), Value::Int(2)]);
        assert_eq!(rebound, mk(9, 2));
        assert_eq!(rebound.terms()[0].param, Some(0));
        assert_eq!(rebound.terms()[1].param, Some(1));
        // Unparameterized terms pass through untouched.
        let plain = Pred::single(Cmp::eq(a(2), 7i64));
        assert_eq!(plain.rebound(&[]), plain);
    }

    #[test]
    fn display_forms() {
        let p = Pred::conj(vec![Cmp::eq(a(1), 5i64)]);
        assert_eq!(p.to_string(), "a1 = 5");
        assert_eq!(Pred::default().to_string(), "true");
        assert_eq!(JoinPred::eq(a(1), a(2)).to_string(), "a1 = a2");
        assert_eq!(JoinPred::cross().to_string(), "cross");
    }
}
