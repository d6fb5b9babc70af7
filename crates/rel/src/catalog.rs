//! The catalog: stored tables, columns, and their statistics.
//!
//! "The set of algorithms, their capabilities and their costs represents
//! the data formats and physical storage structures used by the database
//! system" (§2.2) — the catalog supplies the statistics those capability
//! and cost functions consume: cardinalities, column widths, and distinct
//! value counts for selectivity estimation.

use std::collections::HashMap;

use crate::feedback::SelectivityMemory;
use crate::ids::{AttrId, TableId};

/// Column data types (deliberately small; what the execution engine
/// supports).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// Variable-length string.
    Str,
    /// Boolean.
    Bool,
}

/// Definition of one column when creating a table.
#[derive(Debug, Clone)]
pub struct ColumnDef {
    /// Column name, unique within its table.
    pub name: String,
    /// Data type.
    pub ty: ColType,
    /// Average stored width in bytes (statistics input).
    pub width: u32,
    /// Estimated number of distinct values (statistics input).
    pub distinct: f64,
    /// Maintain a clustered-order B+tree index on this column (integer
    /// columns only); an index scan can then *deliver* the sort order as
    /// a physical property.
    pub indexed: bool,
}

impl ColumnDef {
    /// An integer column with the given distinct-value count.
    pub fn int(name: &str, distinct: f64) -> Self {
        ColumnDef {
            name: name.to_string(),
            ty: ColType::Int,
            width: 8,
            distinct,
            indexed: false,
        }
    }

    /// A string column with the given width and distinct-value count.
    pub fn str(name: &str, width: u32, distinct: f64) -> Self {
        ColumnDef {
            name: name.to_string(),
            ty: ColType::Str,
            width,
            distinct,
            indexed: false,
        }
    }

    /// Mark the column as indexed (integer columns only).
    pub fn indexed(mut self) -> Self {
        assert_eq!(self.ty, ColType::Int, "only integer columns are indexable");
        self.indexed = true;
        self
    }
}

/// A column registered in the catalog.
#[derive(Debug, Clone)]
pub struct Column {
    /// Globally unique attribute id.
    pub attr: AttrId,
    /// Column name.
    pub name: String,
    /// Data type.
    pub ty: ColType,
    /// Average width in bytes.
    pub width: u32,
    /// Estimated distinct values.
    pub distinct: f64,
    /// Is a B+tree index maintained on this column?
    pub indexed: bool,
}

/// A table registered in the catalog.
#[derive(Debug, Clone)]
pub struct TableDef {
    /// Table id.
    pub id: TableId,
    /// Table name.
    pub name: String,
    /// Estimated row count.
    pub card: f64,
    /// Columns in declaration order.
    pub columns: Vec<Column>,
}

impl TableDef {
    /// Total average row width in bytes.
    pub fn row_width(&self) -> u32 {
        self.columns.iter().map(|c| c.width).sum()
    }

    /// Find a column by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|c| c.name == name)
    }
}

/// The catalog of stored tables.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: Vec<TableDef>,
    by_name: HashMap<String, TableId>,
    next_attr: u32,
    feedback: SelectivityMemory,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table; returns its id. Panics on duplicate names.
    pub fn add_table(&mut self, name: &str, card: f64, columns: Vec<ColumnDef>) -> TableId {
        assert!(
            !self.by_name.contains_key(name),
            "duplicate table name {name:?}"
        );
        let id = TableId(self.tables.len() as u32);
        let columns = columns
            .into_iter()
            .map(|c| {
                let attr = AttrId(self.next_attr);
                self.next_attr += 1;
                Column {
                    attr,
                    name: c.name,
                    ty: c.ty,
                    width: c.width,
                    // A column cannot have more distinct values than rows.
                    distinct: c.distinct.min(card).max(1.0),
                    indexed: c.indexed,
                }
            })
            .collect();
        self.tables.push(TableDef {
            id,
            name: name.to_string(),
            card,
            columns,
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Unregister a table by name, returning its id. The [`TableDef`]
    /// stays in the id-indexed slot (ids are positional, so later tables
    /// keep theirs), but name resolution — and therefore SQL lowering —
    /// can no longer reach it.
    pub fn drop_table(&mut self, name: &str) -> Option<TableId> {
        self.by_name.remove(name)
    }

    /// Is the table id still reachable by name (i.e. not dropped)?
    pub fn is_live(&self, id: TableId) -> bool {
        self.tables
            .get(id.index())
            .is_some_and(|t| self.by_name.contains_key(&t.name))
    }

    /// Replace a table's statistics: row count and per-column
    /// distinct-value estimates (`None` entries keep the old estimate).
    /// Panics if `distinct` does not match the column count.
    pub fn update_stats(&mut self, id: TableId, card: f64, distinct: &[Option<f64>]) {
        let t = &mut self.tables[id.index()];
        assert_eq!(
            distinct.len(),
            t.columns.len(),
            "distinct estimates for {} columns, table {:?} has {}",
            distinct.len(),
            t.name,
            t.columns.len()
        );
        t.card = card;
        for (col, d) in t.columns.iter_mut().zip(distinct) {
            if let Some(d) = d {
                col.distinct = d.min(card).max(1.0);
            } else {
                col.distinct = col.distinct.min(card).max(1.0);
            }
        }
    }

    /// Allocate a fresh attribute id outside any stored table (used for
    /// aggregate result columns).
    pub fn fresh_attr(&mut self) -> AttrId {
        let attr = AttrId(self.next_attr);
        self.next_attr += 1;
        attr
    }

    /// Look up a table by id.
    pub fn table(&self, id: TableId) -> &TableDef {
        &self.tables[id.index()]
    }

    /// Look up a table by name.
    pub fn table_by_name(&self, name: &str) -> Option<&TableDef> {
        self.by_name.get(name).map(|&id| self.table(id))
    }

    /// The attribute id of `table.column`; panics if absent.
    pub fn attr(&self, table: &str, column: &str) -> AttrId {
        self.table_by_name(table)
            .unwrap_or_else(|| panic!("unknown table {table:?}"))
            .column(column)
            .unwrap_or_else(|| panic!("unknown column {table}.{column}"))
            .attr
    }

    /// All registered tables.
    pub fn tables(&self) -> &[TableDef] {
        &self.tables
    }

    /// The catalog's selectivity memory (observed per-term / per-join-pair
    /// selectivities harvested from executed plans). Empty by default, in
    /// which case every estimator falls back to the System R formulas
    /// bit-identically.
    pub fn feedback(&self) -> &SelectivityMemory {
        &self.feedback
    }

    /// Mutable access to the selectivity memory (feedback application).
    pub fn feedback_mut(&mut self) -> &mut SelectivityMemory {
        &mut self.feedback
    }

    /// Resolve an attribute id back to `(table, column)` names, for
    /// explain output. Linear scan; not used during search.
    pub fn attr_name(&self, attr: AttrId) -> Option<(String, String)> {
        for t in &self.tables {
            for c in &t.columns {
                if c.attr == attr {
                    return Some((t.name.clone(), c.name.clone()));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            "emp",
            1000.0,
            vec![
                ColumnDef::int("id", 1000.0),
                ColumnDef::int("dept", 50.0),
                ColumnDef::str("name", 20, 900.0),
            ],
        );
        c.add_table("dept", 50.0, vec![ColumnDef::int("id", 50.0)]);
        c
    }

    #[test]
    fn attrs_are_globally_unique() {
        let c = sample();
        let e = c.table_by_name("emp").unwrap();
        let d = c.table_by_name("dept").unwrap();
        let mut all: Vec<_> = e
            .columns
            .iter()
            .chain(d.columns.iter())
            .map(|c| c.attr)
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn distinct_capped_at_cardinality() {
        let mut c = Catalog::new();
        c.add_table("t", 10.0, vec![ColumnDef::int("x", 1000.0)]);
        assert_eq!(c.table_by_name("t").unwrap().columns[0].distinct, 10.0);
    }

    #[test]
    fn drop_table_keeps_ids_stable() {
        let mut c = sample();
        let emp = c.table_by_name("emp").unwrap().id;
        let dept = c.table_by_name("dept").unwrap().id;
        assert!(c.is_live(emp));
        assert_eq!(c.drop_table("emp"), Some(emp));
        assert_eq!(c.drop_table("emp"), None);
        assert!(c.table_by_name("emp").is_none());
        assert!(!c.is_live(emp));
        // The id-indexed slot survives so later ids keep resolving.
        assert_eq!(c.table(dept).name, "dept");
        assert!(c.is_live(dept));
    }

    #[test]
    fn update_stats_recaps_distinct() {
        let mut c = sample();
        let emp = c.table_by_name("emp").unwrap().id;
        c.update_stats(emp, 10.0, &[None, Some(500.0), None]);
        let t = c.table(emp);
        assert_eq!(t.card, 10.0);
        // Both the explicit estimate and the untouched ones re-cap at the
        // new cardinality.
        assert_eq!(t.columns[0].distinct, 10.0);
        assert_eq!(t.columns[1].distinct, 10.0);
        c.update_stats(emp, 2000.0, &[Some(1500.0), None, None]);
        assert_eq!(c.table(emp).columns[0].distinct, 1500.0);
    }

    #[test]
    fn lookup_and_reverse_lookup() {
        let c = sample();
        let a = c.attr("emp", "dept");
        assert_eq!(c.attr_name(a), Some(("emp".into(), "dept".into())));
        assert!(c.attr_name(AttrId(999)).is_none());
    }

    #[test]
    fn row_width_sums_columns() {
        let c = sample();
        assert_eq!(c.table_by_name("emp").unwrap().row_width(), 8 + 8 + 20);
    }

    #[test]
    #[should_panic(expected = "duplicate table")]
    fn duplicate_table_rejected() {
        let mut c = sample();
        c.add_table("emp", 1.0, vec![]);
    }

    #[test]
    fn fresh_attr_does_not_collide() {
        let mut c = sample();
        let f = c.fresh_attr();
        assert!(c.attr_name(f).is_none());
        assert!(f.0 >= 4);
    }
}
