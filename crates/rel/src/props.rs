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

use std::sync::Arc;

use volcano_core::props::PhysicalProps;

use crate::catalog::ColType;
use crate::ids::AttrId;

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
}

impl RelLogical {
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
    pub sort: Vec<AttrId>,
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
    pub fn sorted(attrs: Vec<AttrId>) -> Self {
        RelProps {
            sort: attrs,
            parallel: 1,
        }
    }

    /// A parallel-partitioning requirement: `n` workers over disjoint
    /// morsels, no ordering.
    pub fn parallel(n: u32) -> Self {
        RelProps {
            sort: Vec::new(),
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
    /// The answer of `RelProps::sorted(attrs.to_vec()).satisfies(self)`,
    /// without building the vector.
    pub(crate) fn met_by_sort(&self, attrs: &[AttrId]) -> bool {
        self.parallel == 1 && attrs.starts_with(&self.sort)
    }
}

impl PhysicalProps for RelProps {
    fn any() -> Self {
        RelProps {
            sort: Vec::new(),
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
            for attrs in [&ab.sort, &just_a.sort, &ba.sort, &Vec::new()] {
                let sorted = RelProps::sorted(attrs.clone());
                assert_eq!(required.met_by_sort(attrs), sorted.satisfies(required));
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
    fn pages_round_up_to_one() {
        let l = logical(vec![(1, 10.0)], 10.0);
        assert_eq!(l.pages(4096.0), 1.0);
        let big = logical(vec![(1, 10.0)], 10_000.0);
        assert!((big.pages(4096.0) - 10_000.0 * 8.0 / 4096.0).abs() < 1e-9);
    }
}
