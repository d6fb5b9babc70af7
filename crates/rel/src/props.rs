//! Logical and physical properties of relational intermediate results.
//!
//! Logical properties (schema, estimated cardinality, widths, distinct
//! counts) "can be derived from the logical algebra expression" and attach
//! to equivalence classes; physical properties (sort order) "depend on
//! algorithms" and attach to plans (§2.2).
//!
//! **Derivation invariance.** Logical properties must be a function of the
//! equivalence class, not of the particular member expression they were
//! derived from. The estimation scheme here is chosen to guarantee that:
//! per-column distinct counts stay at their base-table values, and
//! cardinality is `(product of base cardinalities) × (product of all
//! selection selectivities) × (product of all join selectivities)` — every
//! factor commutes, and the transformation rules preserve the *multiset*
//! of predicates, so any derivation order yields the same estimate (this
//! is debug-asserted on every duplicate derivation).
//!
//! **One derivation per operator.** Each logical operator's property
//! function is a [`RelLogical`] constructor here: [`RelLogical::of_table`],
//! [`select`](RelLogical::select), [`project`](RelLogical::project),
//! [`join`](RelLogical::join), [`union`](RelLogical::union),
//! [`intersect`](RelLogical::intersect),
//! [`difference`](RelLogical::difference) and
//! [`aggregate`](RelLogical::aggregate). The search derives each class
//! through them ([`crate::RelModel`]'s `derive_logical_props`), and so
//! does every re-derivation over a physical plan ([`crate::estimate`]:
//! the plan cache's cost-drift guard, EXPLAIN ANALYZE, the feedback
//! harvest), so the estimates cannot drift apart.

use std::sync::Arc;

use volcano_core::props::PhysicalProps;

use crate::catalog::{Catalog, ColType};
use crate::cost::formulas;
use crate::feedback::SelectivityMemory;
use crate::ids::{AttrId, TableId};
use crate::ops::{AggFunc, AggSpec};
use crate::predicate::{JoinPred, Pred};
use crate::selectivity::{join_selectivity_with, pred_selectivity_with};

/// Which phase of an aggregation a class holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggPhase {
    /// The whole aggregation in one operator.
    Complete,
    /// The per-worker phase of a split aggregation at this parallel
    /// degree: partial results, AVG as a (sum, count) pair.
    Partial(u32),
    /// The phase that merges the partial results into the final ones.
    Final,
}

/// Statistics for one output column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ColInfo {
    /// The attribute's global id.
    pub attr: AttrId,
    /// Data type.
    pub ty: ColType,
    /// Average width in bytes.
    pub width: u32,
    /// Distinct values (base-table estimate; see module docs).
    pub distinct: f64,
}

/// Logical properties of an equivalence class.
#[derive(Debug, Clone)]
pub struct RelLogical {
    /// Estimated output cardinality (rows).
    pub card: f64,
    /// Output schema with per-column statistics, in output order.
    pub cols: Arc<Vec<ColInfo>>,
    /// The stored tables every plan of the class reads, whatever its
    /// algorithms: the class's cost floor.
    pub scans: BaseScans,
}

/// The stored tables under a class, ascending by id, each with the I/O of
/// one heap scan of it (the cost model's `formulas::io_pages`), and that
/// I/O summed in table-id order. Every access path reads each of them
/// whole at least once (a file scan or filter scan reads the heap, an
/// index scan 1.25× the heap's pages, a `d`-way parallel scan a `d`-th per
/// worker), so the sum bounds every plan of the class from below; the
/// model divides it by its parallel degree ([`crate::RelModel`]'s
/// `cost_floor`). Derived once per class, shared by cloning.
#[derive(Debug, Clone, Default)]
pub struct BaseScans {
    tables: Arc<[(TableId, f64)]>,
    io: f64,
}

impl BaseScans {
    /// One stored table whose heap scan costs `io`.
    pub(crate) fn table(t: TableId, io: f64) -> Self {
        BaseScans {
            tables: Arc::new([(t, io)]),
            io,
        }
    }

    /// The tables of both, each once.
    pub(crate) fn union(&self, other: &BaseScans) -> BaseScans {
        let (a, b) = (&self.tables[..], &other.tables[..]);
        let mut tables = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            tables.push(if x.0 <= y.0 { x } else { y });
            i += usize::from(x.0 <= y.0);
            j += usize::from(y.0 <= x.0);
        }
        tables.extend_from_slice(&a[i..]);
        tables.extend_from_slice(&b[j..]);
        let io = tables.iter().fold(0.0, |sum, (_, io)| sum + io);
        BaseScans {
            tables: tables.into(),
            io,
        }
    }

    /// The heap-scan I/O of every table, summed in table-id order.
    pub fn io(&self) -> f64 {
        self.io
    }

    /// The tables, ascending by id.
    pub(crate) fn tables(&self) -> impl Iterator<Item = TableId> + '_ {
        self.tables.iter().map(|(t, _)| *t)
    }
}

impl RelLogical {
    /// The properties of stored table `t`: its catalog statistics, and
    /// itself as the one base table.
    pub fn of_table(catalog: &Catalog, t: TableId) -> RelLogical {
        let table = catalog.table(t);
        let mut get = RelLogical {
            card: table.card,
            cols: Arc::new(
                table
                    .columns
                    .iter()
                    .map(|c| ColInfo {
                        attr: c.attr,
                        ty: c.ty,
                        width: c.width,
                        distinct: c.distinct,
                    })
                    .collect(),
            ),
            scans: BaseScans::default(),
        };
        get.scans = BaseScans::table(t, formulas::io_pages(&get));
        get
    }

    /// A selection of this class by `pred`: the schema unchanged, the
    /// cardinality scaled by the predicate's selectivity (observed in
    /// `memory`, else System R's).
    pub fn select(&self, pred: &Pred, memory: &SelectivityMemory) -> RelLogical {
        RelLogical {
            card: self.card * pred_selectivity_with(pred, self, memory),
            cols: self.cols.clone(),
            scans: self.scans.clone(),
        }
    }

    /// A projection of this class onto `attrs`, in that order.
    pub fn project(&self, attrs: &[AttrId]) -> RelLogical {
        RelLogical {
            card: self.card,
            cols: Arc::new(
                attrs
                    .iter()
                    .map(|a| {
                        *self.col(*a).unwrap_or_else(|| {
                            panic!("projection references unknown attribute {a:?}")
                        })
                    })
                    .collect(),
            ),
            scans: self.scans.clone(),
        }
    }

    /// The join of this class (outer, its columns first) with `right` on
    /// `pred`: the product of the cardinalities and the predicate's
    /// selectivity (observed in `memory`, else System R's).
    pub fn join(
        &self,
        right: &RelLogical,
        pred: &JoinPred,
        memory: &SelectivityMemory,
    ) -> RelLogical {
        let mut cols = Vec::with_capacity(self.cols.len() + right.cols.len());
        cols.extend(self.cols.iter().chain(right.cols.iter()).copied());
        RelLogical {
            card: self.card * right.card * join_selectivity_with(pred, self, right, memory),
            cols: Arc::new(cols),
            scans: self.scans.union(&right.scans),
        }
    }

    /// A set operation of `card` rows over this class and `right`:
    /// positional, so this class's schema, and both inputs' base tables.
    fn set_op(&self, right: &RelLogical, card: f64) -> RelLogical {
        RelLogical {
            card,
            cols: self.cols.clone(),
            scans: self.scans.union(&right.scans),
        }
    }

    /// The union (bag semantics) of this class and `right`.
    pub fn union(&self, right: &RelLogical) -> RelLogical {
        self.set_op(right, self.card + right.card)
    }

    /// The intersection of this class and `right`. Containment, as for
    /// equi-joins: the smaller input lies in the larger. `min` is
    /// associative, so every association of an n-ary intersection
    /// derives the same cardinality.
    pub fn intersect(&self, right: &RelLogical) -> RelLogical {
        self.set_op(right, self.card.min(right.card))
    }

    /// This class minus `right`: half of this class survives.
    pub fn difference(&self, right: &RelLogical) -> RelLogical {
        self.set_op(right, self.card * 0.5)
    }

    /// The `phase` of aggregating this class by `spec`: the group-by
    /// columns, then one column per aggregate at its output id.
    ///
    /// The group count is the product of the grouping columns' distinct
    /// counts, capped by the input's cardinality. A partial phase keeps
    /// up to one copy of each group per worker, so its count is that
    /// product times the degree, capped the same way; the final phase
    /// over it then derives min(D, min(D·n, card)) = min(D, card) groups,
    /// the complete phase's count, so the split is derivation-invariant.
    pub fn aggregate(&self, spec: &AggSpec, phase: AggPhase) -> RelLogical {
        let copies = match phase {
            AggPhase::Partial(degree) => f64::from(degree.max(1)),
            AggPhase::Complete | AggPhase::Final => 1.0,
        };
        let groups = spec
            .group_by
            .iter()
            .map(|a| self.distinct(*a))
            .product::<f64>();
        let card = (groups * copies).min(self.card).max(1.0);
        let ty_of = |a: AttrId| self.col(a).map(|c| c.ty).unwrap_or(ColType::Int);
        let mut cols: Vec<ColInfo> = spec
            .group_by
            .iter()
            .map(|a| {
                *self
                    .col(*a)
                    .unwrap_or_else(|| panic!("group-by references unknown attribute {a:?}"))
            })
            .collect();
        for (func, out) in &spec.aggs {
            let ty = match (func, phase) {
                (AggFunc::CountStar, _) => ColType::Int,
                // A partial AVG ships its running sum, typed as the column
                // it sums; see below for its count.
                (AggFunc::Avg(a), AggPhase::Partial(_)) => ty_of(*a),
                (AggFunc::Avg(_), _) => ColType::Float,
                // The final phase reads the partial layout, whose
                // intermediates sit at the output attribute ids.
                (AggFunc::Sum(_) | AggFunc::Min(_) | AggFunc::Max(_), AggPhase::Final) => {
                    ty_of(*out)
                }
                (AggFunc::Sum(a) | AggFunc::Min(a) | AggFunc::Max(a), _) => ty_of(*a),
            };
            cols.push(ColInfo {
                attr: *out,
                ty,
                width: 8,
                distinct: card,
            });
            if let (AggFunc::Avg(_), AggPhase::Partial(_)) = (func, phase) {
                // AVG ships a (sum, count) pair across the gather.
                cols.push(ColInfo {
                    attr: AggSpec::companion_attr(*out),
                    ty: ColType::Int,
                    width: 8,
                    distinct: card,
                });
            }
        }
        RelLogical {
            card,
            cols: Arc::new(cols),
            scans: self.scans.clone(),
        }
    }

    /// Average output row width in bytes.
    pub fn row_width(&self) -> f64 {
        self.cols.iter().map(|c| c.width as f64).sum()
    }

    /// Estimated size in pages of the given size.
    pub fn pages(&self, page_size: f64) -> f64 {
        (self.card * self.row_width() / page_size).max(1.0)
    }

    /// Does the schema contain this attribute?
    pub fn has_attr(&self, a: AttrId) -> bool {
        self.cols.iter().any(|c| c.attr == a)
    }

    /// Statistics of a column, if present.
    pub fn col(&self, a: AttrId) -> Option<&ColInfo> {
        self.cols.iter().find(|c| c.attr == a)
    }

    /// Position of an attribute in the output schema (needed when a plan
    /// is lowered to executable operators).
    pub fn position(&self, a: AttrId) -> Option<usize> {
        self.cols.iter().position(|c| c.attr == a)
    }

    /// Distinct-value estimate for an attribute (1.0 if unknown).
    pub fn distinct(&self, a: AttrId) -> f64 {
        self.col(a).map(|c| c.distinct).unwrap_or(1.0)
    }
}

/// How many attributes a [`SortOrder`] holds in place.
const INLINE: usize = 4;

/// A sort order, major attribute first: what [`RelProps::sort`] and the
/// sort enforcer ([`crate::RelAlg::Sort`]) hold.
///
/// Up to four attributes are stored in place, so building, cloning and
/// dropping such an order never allocates; a longer order is shared, so
/// cloning it is a reference-count increment. It dereferences to its
/// attributes, and compares, hashes and prints exactly as that slice (and
/// so as a `Vec<AttrId>` of the same attributes): goal interning, EXPLAIN
/// and plan output do not see the representation.
#[derive(Clone)]
pub struct SortOrder(Order);

#[derive(Clone)]
enum Order {
    /// The first `len` slots are the order; the rest are filler.
    Inline(u8, [AttrId; INLINE]),
    Shared(Arc<[AttrId]>),
}

impl SortOrder {
    /// The empty order: no requirement.
    pub const fn empty() -> Self {
        SortOrder(Order::Inline(0, [AttrId(0); INLINE]))
    }
}

impl std::ops::Deref for SortOrder {
    type Target = [AttrId];

    fn deref(&self) -> &[AttrId] {
        match &self.0 {
            Order::Inline(len, slots) => &slots[..usize::from(*len)],
            Order::Shared(attrs) => attrs,
        }
    }
}

impl FromIterator<AttrId> for SortOrder {
    /// Collects in place while the order fits, and spills to a shared
    /// slice only past four attributes.
    fn from_iter<I: IntoIterator<Item = AttrId>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut slots = [AttrId(0); INLINE];
        let mut len = 0;
        while let Some(a) = iter.next() {
            if len == INLINE {
                let spilled: Vec<AttrId> = slots.into_iter().chain([a]).chain(iter).collect();
                return SortOrder(Order::Shared(spilled.into()));
            }
            slots[len] = a;
            len += 1;
        }
        SortOrder(Order::Inline(len as u8, slots))
    }
}

impl From<&[AttrId]> for SortOrder {
    fn from(attrs: &[AttrId]) -> Self {
        attrs.iter().copied().collect()
    }
}

impl From<Vec<AttrId>> for SortOrder {
    fn from(attrs: Vec<AttrId>) -> Self {
        attrs.into_iter().collect()
    }
}

impl<const N: usize> From<[AttrId; N]> for SortOrder {
    fn from(attrs: [AttrId; N]) -> Self {
        attrs.into_iter().collect()
    }
}

impl PartialEq for SortOrder {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SortOrder {}

impl std::hash::Hash for SortOrder {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl std::fmt::Debug for SortOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// The relational physical property vector: an ordering requirement and
/// a parallel degree.
///
/// `sort` lists attributes major-to-minor. The empty order is the "no
/// requirement" vector. The cover comparison is prefix-based: a stream
/// sorted on `(A, B)` satisfies a requirement of "sorted on `(A)`" but not
/// vice versa.
///
/// `parallel` is the number of independent partitions the stream is split
/// across. `1` means a single serial stream (the default); `n > 1` means
/// the intermediate result is produced by `n` workers over disjoint
/// morsels. The cover comparison is *exact*: a serial stream does not
/// satisfy a parallel requirement (someone must split it) and a parallel
/// stream does not satisfy a serial one (someone — the Gather enforcer —
/// must merge it). Parallelism thus follows the paper's exchange-operator
/// doctrine: it is a physical property chosen by the optimizer and
/// realized by an enforcer, invisible to the logical algebra.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RelProps {
    /// Required/delivered sort order, major attribute first.
    pub sort: SortOrder,
    /// Required/delivered parallel degree (1 = serial).
    pub parallel: u32,
}

impl Default for RelProps {
    fn default() -> Self {
        RelProps::any()
    }
}

impl RelProps {
    /// A sort requirement (serial, like all sorted streams here).
    pub fn sorted(attrs: impl Into<SortOrder>) -> Self {
        RelProps {
            sort: attrs.into(),
            parallel: 1,
        }
    }

    /// A parallel-partitioning requirement: `n` workers over disjoint
    /// morsels, no ordering.
    pub fn parallel(n: u32) -> Self {
        RelProps {
            sort: SortOrder::empty(),
            parallel: n.max(1),
        }
    }

    /// Is a sort requirement present?
    pub fn is_sorted(&self) -> bool {
        !self.sort.is_empty()
    }

    /// Is this a parallel (degree > 1) property vector?
    pub fn is_parallel(&self) -> bool {
        self.parallel > 1
    }

    /// Would a serial stream sorted on `attrs` satisfy this requirement?
    /// The answer of `RelProps::sorted(attrs).satisfies(self)`, without
    /// building the vector.
    pub(crate) fn met_by_sort(&self, attrs: &[AttrId]) -> bool {
        self.parallel == 1 && attrs.starts_with(&self.sort)
    }
}

impl PhysicalProps for RelProps {
    fn any() -> Self {
        RelProps {
            sort: SortOrder::empty(),
            parallel: 1,
        }
    }

    fn satisfies(&self, required: &Self) -> bool {
        self.parallel == required.parallel && self.sort.starts_with(&required.sort)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RelAlg;

    fn a(i: u32) -> AttrId {
        AttrId(i)
    }

    fn logical(cols: Vec<(u32, f64)>, card: f64) -> RelLogical {
        RelLogical {
            card,
            cols: Arc::new(
                cols.into_iter()
                    .map(|(i, d)| ColInfo {
                        attr: a(i),
                        ty: ColType::Int,
                        width: 8,
                        distinct: d,
                    })
                    .collect(),
            ),
            scans: BaseScans::default(),
        }
    }

    #[test]
    fn prefix_cover() {
        let ab = RelProps::sorted(vec![a(1), a(2)]);
        let just_a = RelProps::sorted(vec![a(1)]);
        let ba = RelProps::sorted(vec![a(2), a(1)]);
        assert!(ab.satisfies(&just_a));
        assert!(!just_a.satisfies(&ab));
        assert!(!ab.satisfies(&ba));
        assert!(ab.satisfies(&RelProps::any()));
        assert!(ab.satisfies(&ab));
        for required in [&ab, &just_a, &ba, &RelProps::any(), &RelProps::parallel(2)] {
            for attrs in [&ab.sort, &just_a.sort, &ba.sort, &SortOrder::empty()] {
                let sorted = RelProps::sorted(attrs.clone());
                assert_eq!(required.met_by_sort(attrs), sorted.satisfies(required));
            }
        }
    }

    fn hash_of<T: std::hash::Hash + ?Sized>(x: &T) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        BuildHasherDefault::<DefaultHasher>::default().hash_one(x)
    }

    /// Orders of every length from empty to well past the inline
    /// capacity, descending and ascending.
    fn orders() -> Vec<Vec<AttrId>> {
        (0..=7)
            .flat_map(|n| [(0..n).map(|i| a(10 - i)).collect(), (0..n).map(a).collect()])
            .collect()
    }

    #[test]
    fn sort_orders_equal_hash_and_print_as_their_attributes() {
        for attrs in orders() {
            let built = [
                SortOrder::from(attrs.clone()),
                SortOrder::from(attrs.as_slice()),
                attrs.iter().copied().collect(),
            ];
            for o in &built {
                assert_eq!(&o[..], &attrs[..]);
                assert_eq!(o, &built[0]);
                // Hashing as the slice: a `Vec` of the same attributes
                // hashes the same, so goal interning does not change.
                assert_eq!(hash_of(o), hash_of(&attrs));
                assert_eq!(format!("{o:?}"), format!("{attrs:?}"));
                let props = RelProps::sorted(o.clone());
                assert_eq!(
                    format!("{props:?}"),
                    format!("{:?}", RelProps::sorted(attrs.clone()))
                );
                assert_eq!(hash_of(&props), hash_of(&RelProps::sorted(attrs.clone())));
            }
            // A clone is equal whether it copied the order or shared it.
            assert_eq!(built[0].clone(), built[0]);
        }
        assert_eq!(
            SortOrder::from([a(1), a(2)]),
            SortOrder::from(vec![a(1), a(2)])
        );
        assert_ne!(SortOrder::from([a(1), a(2)]), SortOrder::from([a(2), a(1)]));
        assert_eq!(format!("{:?}", SortOrder::empty()), "[]");
        assert_eq!(
            format!("{:?}", RelAlg::Sort(SortOrder::from([a(3), a(4)]))),
            format!("Sort({:?})", vec![a(3), a(4)])
        );
    }

    #[test]
    fn satisfies_and_met_by_sort_are_prefix_cover_at_every_length() {
        let orders = orders();
        for req in &orders {
            for have in &orders {
                let expected = have.starts_with(req);
                let (r, h) = (
                    RelProps::sorted(req.clone()),
                    RelProps::sorted(have.clone()),
                );
                assert_eq!(h.satisfies(&r), expected, "{have:?} for {req:?}");
                assert_eq!(r.met_by_sort(have), expected, "{have:?} for {req:?}");
                assert!(!h.satisfies(&RelProps::parallel(2)));
            }
        }
    }

    #[test]
    fn any_is_no_requirement() {
        assert!(RelProps::any().is_any());
        assert!(!RelProps::sorted(vec![a(1)]).is_any());
        assert!(!RelProps::parallel(4).is_any());
    }

    #[test]
    fn parallel_cover_is_exact() {
        let serial = RelProps::any();
        let par4 = RelProps::parallel(4);
        let par8 = RelProps::parallel(8);
        assert!(par4.satisfies(&par4));
        assert!(!par4.satisfies(&serial), "a split stream must be gathered");
        assert!(!serial.satisfies(&par4), "a serial stream must be split");
        assert!(!par4.satisfies(&par8));
        assert_eq!(RelProps::parallel(1), serial);
    }

    #[test]
    fn logical_accessors() {
        let l = logical(vec![(1, 10.0), (2, 5.0)], 100.0);
        assert_eq!(l.row_width(), 16.0);
        assert!(l.has_attr(a(2)));
        assert!(!l.has_attr(a(3)));
        assert_eq!(l.position(a(2)), Some(1));
        assert_eq!(l.distinct(a(1)), 10.0);
        assert_eq!(l.distinct(a(9)), 1.0);
    }

    #[test]
    fn base_scans_union_each_table_once_in_id_order() {
        let t = |i, io| BaseScans::table(TableId(i), io);
        let ab = t(2, 3.0).union(&t(1, 0.1));
        assert_eq!(ab.tables().collect::<Vec<_>>(), [TableId(1), TableId(2)]);
        assert_eq!(ab.io(), 0.1 + 3.0);
        let abcd = t(4, 7.0).union(&t(3, 5.0)).union(&ab).union(&ab);
        let ids: Vec<_> = abcd.tables().map(|t| t.0).collect();
        assert_eq!(ids, [1, 2, 3, 4]);
        // Summed in id order whatever the order of the unions.
        assert_eq!(abcd.io(), ((0.1 + 3.0) + 5.0) + 7.0);
        let overlap = t(1, 0.1)
            .union(&t(3, 5.0))
            .union(&t(3, 5.0).union(&t(4, 7.0)));
        assert_eq!(overlap.tables().map(|t| t.0).collect::<Vec<_>>(), [1, 3, 4]);
        assert_eq!(BaseScans::default().union(&ab).io(), ab.io());
    }

    #[test]
    fn pages_round_up_to_one() {
        let l = logical(vec![(1, 10.0)], 10.0);
        assert_eq!(l.pages(4096.0), 1.0);
        let big = logical(vec![(1, 10.0)], 10_000.0);
        assert!((big.pages(4096.0) - 10_000.0 * 8.0 / 4096.0).abs() < 1e-9);
    }
}
