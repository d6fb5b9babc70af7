//! Columnar batches: the unit of work of the vectorized execution
//! engine.
//!
//! Where the tuple engine moves one `Vec<Value>` per `next` call, the
//! vectorized engine moves a [`Batch`]: one typed column vector per attribute
//! plus an optional *selection vector* naming the rows that are still
//! live. Operators amortize their per-call overhead (virtual dispatch,
//! bounds checks, branch mispredictions) over a configurable number of
//! rows, and the caller-supplied output batch is recycled call after
//! call, so steady-state execution allocates nothing per row.
//!
//! Columns are typed ([`Column::Int`], [`Column::Float`], …) with a
//! validity mask for SQL NULL; a column whose values do not fit one type
//! degrades to [`Column::Any`], which keeps the engine total over every
//! plan while letting the overwhelmingly common homogeneous case run on
//! primitive slices.

use volcano_rel::catalog::ColType;
use volcano_rel::value::Tuple;
use volcano_rel::Value;
use volcano_store::record::Field;

/// Default number of rows per batch.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// A typed column vector with a validity mask, or an untyped fallback.
///
/// Invariant: in the typed variants `data.len() == valid.len()`;
/// `valid[i] == false` means row `i` is SQL NULL (its `data` slot holds
/// an arbitrary placeholder).
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int {
        /// Values (placeholder where invalid).
        data: Vec<i64>,
        /// Validity mask: `false` = NULL.
        valid: Vec<bool>,
    },
    /// 64-bit floats (finite; NaN is banned by [`Value`]).
    Float {
        /// Values (placeholder where invalid).
        data: Vec<f64>,
        /// Validity mask: `false` = NULL.
        valid: Vec<bool>,
    },
    /// Booleans.
    Bool {
        /// Values (placeholder where invalid).
        data: Vec<bool>,
        /// Validity mask: `false` = NULL.
        valid: Vec<bool>,
    },
    /// UTF-8 strings.
    Str {
        /// Values (placeholder where invalid).
        data: Vec<String>,
        /// Validity mask: `false` = NULL.
        valid: Vec<bool>,
    },
    /// Heterogeneous fallback: plain values, NULL included inline.
    Any(Vec<Value>),
}

impl Column {
    /// An empty column typed for a catalog column type.
    pub fn with_type(ty: ColType) -> Self {
        match ty {
            ColType::Int => Column::Int {
                data: Vec::new(),
                valid: Vec::new(),
            },
            ColType::Float => Column::Float {
                data: Vec::new(),
                valid: Vec::new(),
            },
            ColType::Bool => Column::Bool {
                data: Vec::new(),
                valid: Vec::new(),
            },
            ColType::Str => Column::Str {
                data: Vec::new(),
                valid: Vec::new(),
            },
        }
    }

    /// An empty untyped column (used where no type is known up front;
    /// the first pushed value specializes it).
    pub fn any() -> Self {
        Column::Any(Vec::new())
    }

    /// Number of physical rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { data, .. } => data.len(),
            Column::Float { data, .. } => data.len(),
            Column::Bool { data, .. } => data.len(),
            Column::Str { data, .. } => data.len(),
            Column::Any(v) => v.len(),
        }
    }

    /// Is the column empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove all rows, keeping the variant and the allocated capacity
    /// (this is what makes batch reuse allocation-free).
    pub fn clear(&mut self) {
        match self {
            Column::Int { data, valid } => {
                data.clear();
                valid.clear();
            }
            Column::Float { data, valid } => {
                data.clear();
                valid.clear();
            }
            Column::Bool { data, valid } => {
                data.clear();
                valid.clear();
            }
            Column::Str { data, valid } => {
                data.clear();
                valid.clear();
            }
            Column::Any(v) => v.clear(),
        }
    }

    /// The value at row `i` (clones strings).
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            Column::Int { data, valid } => {
                if valid[i] {
                    Value::Int(data[i])
                } else {
                    Value::Null
                }
            }
            Column::Float { data, valid } => {
                if valid[i] {
                    Value::float(data[i])
                } else {
                    Value::Null
                }
            }
            Column::Bool { data, valid } => {
                if valid[i] {
                    Value::Bool(data[i])
                } else {
                    Value::Null
                }
            }
            Column::Str { data, valid } => {
                if valid[i] {
                    Value::Str(data[i].clone())
                } else {
                    Value::Null
                }
            }
            Column::Any(v) => v[i].clone(),
        }
    }

    /// Push the value at each physical row of `live` onto the matching
    /// row of `rows` (the row-materialization kernel).
    pub fn append_to_rows(&self, live: &[u32], rows: &mut [Tuple]) {
        macro_rules! typed {
            ($data:ident, $valid:ident, $make:expr) => {
                for (row, &i) in rows.iter_mut().zip(live) {
                    let i = i as usize;
                    row.push(if $valid[i] {
                        $make(&$data[i])
                    } else {
                        Value::Null
                    });
                }
            };
        }
        match self {
            Column::Int { data, valid } => typed!(data, valid, |x: &i64| Value::Int(*x)),
            Column::Float { data, valid } => typed!(data, valid, |x: &f64| Value::float(*x)),
            Column::Bool { data, valid } => typed!(data, valid, |x: &bool| Value::Bool(*x)),
            Column::Str { data, valid } => typed!(data, valid, |x: &String| Value::Str(x.clone())),
            Column::Any(v) => {
                for (row, &i) in rows.iter_mut().zip(live) {
                    row.push(v[i as usize].clone());
                }
            }
        }
    }

    /// Rebuild `self` as [`Column::Any`] holding its current values.
    fn demote(&mut self) {
        if matches!(self, Column::Any(_)) {
            return;
        }
        let vals: Vec<Value> = (0..self.len()).map(|i| self.value_at(i)).collect();
        *self = Column::Any(vals);
    }

    /// Append a value, specializing an empty untyped column to the
    /// value's type and demoting to [`Column::Any`] on a type clash.
    pub fn push_value(&mut self, v: Value) {
        // An empty untyped column takes the type of its first value.
        if let Column::Any(vals) = self {
            if vals.is_empty() {
                match &v {
                    Value::Int(_) => *self = Column::with_type(ColType::Int),
                    Value::Float(_) => *self = Column::with_type(ColType::Float),
                    Value::Bool(_) => *self = Column::with_type(ColType::Bool),
                    Value::Str(_) => *self = Column::with_type(ColType::Str),
                    Value::Null => {}
                }
            }
        }
        match (&mut *self, v) {
            (Column::Int { data, valid }, Value::Int(i)) => {
                data.push(i);
                valid.push(true);
            }
            (Column::Float { data, valid }, Value::Float(x)) => {
                data.push(x.get());
                valid.push(true);
            }
            (Column::Bool { data, valid }, Value::Bool(b)) => {
                data.push(b);
                valid.push(true);
            }
            (Column::Str { data, valid }, Value::Str(s)) => {
                data.push(s);
                valid.push(true);
            }
            (col, Value::Null) if !matches!(col, Column::Any(_)) => col.push_null(),
            (Column::Any(vals), v) => vals.push(v),
            (col, v) => {
                col.demote();
                let Column::Any(vals) = col else {
                    unreachable!()
                };
                vals.push(v);
            }
        }
    }

    /// Append a stored field (the scan path; avoids building a `Value`
    /// for the typed cases).
    pub fn push_field(&mut self, f: Field) {
        match (&mut *self, f) {
            (Column::Int { data, valid }, Field::Int(i)) => {
                data.push(i);
                valid.push(true);
            }
            (Column::Float { data, valid }, Field::Float(x)) => {
                data.push(x);
                valid.push(true);
            }
            (Column::Bool { data, valid }, Field::Bool(b)) => {
                data.push(b);
                valid.push(true);
            }
            (Column::Str { data, valid }, Field::Str(s)) => {
                data.push(s);
                valid.push(true);
            }
            (col, Field::Null) if !matches!(col, Column::Any(_)) => col.push_null(),
            (col, f) => col.push_value(match f {
                Field::Null => Value::Null,
                Field::Bool(b) => Value::Bool(b),
                Field::Int(i) => Value::Int(i),
                Field::Float(x) => Value::float(x),
                Field::Str(s) => Value::Str(s),
            }),
        }
    }

    /// Append a NULL row.
    pub fn push_null(&mut self) {
        match self {
            Column::Int { data, valid } => {
                data.push(0);
                valid.push(false);
            }
            Column::Float { data, valid } => {
                data.push(0.0);
                valid.push(false);
            }
            Column::Bool { data, valid } => {
                data.push(false);
                valid.push(false);
            }
            Column::Str { data, valid } => {
                data.push(String::new());
                valid.push(false);
            }
            Column::Any(v) => v.push(Value::Null),
        }
    }

    /// Shorten the column to its first `len` rows (no-op when already
    /// shorter). Lets a speculative decoder roll back partial pushes.
    pub fn truncate(&mut self, len: usize) {
        match self {
            Column::Int { data, valid } => {
                data.truncate(len);
                valid.truncate(len);
            }
            Column::Float { data, valid } => {
                data.truncate(len);
                valid.truncate(len);
            }
            Column::Bool { data, valid } => {
                data.truncate(len);
                valid.truncate(len);
            }
            Column::Str { data, valid } => {
                data.truncate(len);
                valid.truncate(len);
            }
            Column::Any(v) => v.truncate(len),
        }
    }

    /// Append the rows of `src` named by `sel` (or all rows when `sel`
    /// is `None`) — the column-at-a-time gather kernel.
    pub fn gather_from(&mut self, src: &Column, sel: Option<&[u32]>) {
        // Fast paths: same-variant typed gathers run on primitive slices.
        macro_rules! typed_gather {
            ($d:ident, $v:ident, $sd:ident, $sv:ident) => {
                match sel {
                    None => {
                        $d.extend_from_slice($sd);
                        $v.extend_from_slice($sv);
                    }
                    Some(idx) => {
                        $d.reserve(idx.len());
                        $v.reserve(idx.len());
                        for &i in idx {
                            $d.push($sd[i as usize].clone());
                            $v.push($sv[i as usize]);
                        }
                    }
                }
            };
        }
        match (&mut *self, src) {
            (
                Column::Int { data, valid },
                Column::Int {
                    data: sd,
                    valid: sv,
                },
            ) => typed_gather!(data, valid, sd, sv),
            (
                Column::Float { data, valid },
                Column::Float {
                    data: sd,
                    valid: sv,
                },
            ) => typed_gather!(data, valid, sd, sv),
            (
                Column::Bool { data, valid },
                Column::Bool {
                    data: sd,
                    valid: sv,
                },
            ) => typed_gather!(data, valid, sd, sv),
            (
                Column::Str { data, valid },
                Column::Str {
                    data: sd,
                    valid: sv,
                },
            ) => typed_gather!(data, valid, sd, sv),
            // A fresh (empty) destination adopts a *typed* source's
            // variant. An `Any` source must NOT take these arms: its
            // `empty_like` is another empty `Any`, so re-dispatching
            // would recurse forever — it goes value-wise below instead.
            (dst, src) if dst.is_empty() && !matches!(src, Column::Any(_)) => {
                *dst = src.empty_like();
                dst.gather_from(src, sel);
            }
            // Mismatched variants: go value-wise through the fallback.
            (dst, src) => {
                dst.demote();
                let Column::Any(vals) = dst else {
                    unreachable!()
                };
                match sel {
                    None => vals.extend((0..src.len()).map(|i| src.value_at(i))),
                    Some(idx) => vals.extend(idx.iter().map(|&i| src.value_at(i as usize))),
                }
            }
        }
    }

    /// An empty column of the same variant.
    pub fn empty_like(&self) -> Column {
        match self {
            Column::Int { .. } => Column::with_type(ColType::Int),
            Column::Float { .. } => Column::with_type(ColType::Float),
            Column::Bool { .. } => Column::with_type(ColType::Bool),
            Column::Str { .. } => Column::with_type(ColType::Str),
            Column::Any(_) => Column::any(),
        }
    }

    /// Value equality of row `a` of `self` and row `b` of `other`,
    /// matching [`Value`]'s `Eq` (so `Int(1) != Float(1.0)`, exactly as
    /// the tuple engine's hash tables behave). NULL equals nothing.
    pub fn rows_eq(&self, a: usize, other: &Column, b: usize) -> bool {
        match (self, other) {
            (
                Column::Int {
                    data: da,
                    valid: va,
                },
                Column::Int {
                    data: db,
                    valid: vb,
                },
            ) => va[a] && vb[b] && da[a] == db[b],
            (
                Column::Bool {
                    data: da,
                    valid: va,
                },
                Column::Bool {
                    data: db,
                    valid: vb,
                },
            ) => va[a] && vb[b] && da[a] == db[b],
            (
                Column::Str {
                    data: da,
                    valid: va,
                },
                Column::Str {
                    data: db,
                    valid: vb,
                },
            ) => va[a] && vb[b] && da[a] == db[b],
            (
                Column::Float {
                    data: da,
                    valid: va,
                },
                Column::Float {
                    data: db,
                    valid: vb,
                },
            ) => {
                // F64's Eq: bitwise except both zeros compare equal.
                va[a] && vb[b] && (da[a] == db[b] || (da[a] == 0.0 && db[b] == 0.0))
            }
            (a_col, b_col) => {
                let x = a_col.value_at(a);
                let y = b_col.value_at(b);
                !x.is_null() && !y.is_null() && x == y
            }
        }
    }
}

/// A batch: one column per attribute, plus an optional selection vector
/// of live physical row indices (ascending). `sel == None` means every
/// physical row is live.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// The columns, in schema position order.
    pub columns: Vec<Column>,
    /// Live physical rows (ascending indices); `None` = all rows.
    pub sel: Option<Vec<u32>>,
    rows: usize,
    /// The buffer of the selection [`Batch::clear`] last dropped, empty,
    /// for [`Batch::take_spare_sel`] to hand out again.
    spare_sel: Vec<u32>,
}

impl Batch {
    /// An empty batch with `n` untyped columns.
    pub fn with_columns(n: usize) -> Self {
        Batch {
            columns: (0..n).map(|_| Column::any()).collect(),
            ..Batch::default()
        }
    }

    /// An empty batch typed from catalog column types.
    pub fn for_types(types: &[ColType]) -> Self {
        Batch {
            columns: types.iter().map(|&t| Column::with_type(t)).collect(),
            ..Batch::default()
        }
    }

    /// Number of physical rows (before selection).
    pub fn physical_rows(&self) -> usize {
        self.rows
    }

    /// Record the physical row count after pushing into the columns
    /// directly. Panics if the columns disagree.
    pub fn set_physical_rows(&mut self, rows: usize) {
        debug_assert!(self.columns.iter().all(|c| c.len() == rows));
        self.rows = rows;
    }

    /// Number of live rows (after selection).
    pub fn live_rows(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.rows,
        }
    }

    /// Remove all rows and the selection, keeping column variants and
    /// capacity, the selection's too.
    pub fn clear(&mut self) {
        for c in &mut self.columns {
            c.clear();
        }
        if let Some(mut sel) = self.sel.take() {
            sel.clear();
            self.spare_sel = sel;
        }
        self.rows = 0;
    }

    /// An empty selection buffer with the capacity of the selection the
    /// last [`Batch::clear`] removed, so a predicate that selects a fresh
    /// batch allocates nothing once the first batch has grown it.
    pub(crate) fn take_spare_sel(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.spare_sel)
    }

    /// Reset to exactly `n` cleared columns (reusing existing ones).
    pub fn reset_columns(&mut self, n: usize) {
        self.clear();
        if self.columns.len() > n {
            self.columns.truncate(n);
        }
        while self.columns.len() < n {
            self.columns.push(Column::any());
        }
    }

    /// Append one row of values (the adapter path).
    pub fn push_row(&mut self, row: Tuple) {
        debug_assert_eq!(row.len(), self.columns.len());
        for (c, v) in self.columns.iter_mut().zip(row) {
            c.push_value(v);
        }
        self.rows += 1;
    }

    /// Materialize the live row at live-position `i` as a tuple.
    pub fn row_at_live(&self, i: usize) -> Tuple {
        let phys = match &self.sel {
            Some(s) => s[i] as usize,
            None => i,
        };
        self.columns.iter().map(|c| c.value_at(phys)).collect()
    }

    /// The live physical indices, materialized into `scratch` when the
    /// batch has no selection vector.
    pub fn live_indices<'a>(&'a self, scratch: &'a mut Vec<u32>) -> &'a [u32] {
        match &self.sel {
            Some(s) => s.as_slice(),
            None => {
                scratch.clear();
                scratch.extend(0..self.rows as u32);
                scratch.as_slice()
            }
        }
    }
}

/// A vectorized operator: one node of a batch-executable plan.
///
/// Contract: `open` before the first `next_batch`; `next_batch` fills
/// the caller-supplied `out` (clearing it first) and returns `false` at
/// end of stream, after which it keeps returning `false`; `close`
/// releases resources. A returned batch may have zero live rows.
/// Re-opening after `close` restarts the stream.
pub trait BatchOperator: Send {
    /// Prepare to produce batches.
    fn open(&mut self);

    /// Fill `out` with the next batch; `false` at end of stream.
    fn next_batch(&mut self, out: &mut Batch) -> bool;

    /// Release resources.
    fn close(&mut self);

    /// Short algorithm name for diagnostics (e.g. `"batch_hash_join"`).
    fn name(&self) -> &'static str {
        "batch_operator"
    }

    /// Operator-specific counters for `EXPLAIN ANALYZE`, as in
    /// [`crate::iterator::Operator::metrics`].
    fn metrics(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// A boxed batch operator tree.
pub type BoxedBatchOperator = Box<dyn BatchOperator>;

/// Drain a batch operator into row tuples (opens and closes it). Each
/// batch's rows are reserved at once (`extend` over an exact-size
/// iterator) and filled a column at a time, so the column variant is
/// matched once per batch, not once per value.
pub fn collect_batches(op: &mut dyn BatchOperator) -> Vec<Tuple> {
    op.open();
    let mut out: Vec<Tuple> = Vec::new();
    let mut batch = Batch::default();
    let mut scratch = Vec::new();
    while op.next_batch(&mut batch) {
        let live = batch.live_indices(&mut scratch);
        let base = out.len();
        let width = batch.columns.len();
        out.extend(live.iter().map(|_| Vec::with_capacity(width)));
        for col in &batch.columns {
            col.append_to_rows(live, &mut out[base..]);
        }
    }
    op.close();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_push_and_read_back() {
        let mut c = Column::with_type(ColType::Int);
        c.push_value(Value::Int(1));
        c.push_null();
        c.push_value(Value::Int(3));
        assert_eq!(c.len(), 3);
        assert_eq!(c.value_at(0), Value::Int(1));
        assert_eq!(c.value_at(1), Value::Null);
        assert_eq!(c.value_at(2), Value::Int(3));
    }

    #[test]
    fn untyped_column_specializes_on_first_value() {
        let mut c = Column::any();
        c.push_value(Value::str("a"));
        assert!(matches!(c, Column::Str { .. }));
        c.push_value(Value::Null);
        assert_eq!(c.value_at(1), Value::Null);
    }

    #[test]
    fn type_clash_demotes_to_any() {
        let mut c = Column::with_type(ColType::Int);
        c.push_value(Value::Int(1));
        c.push_value(Value::str("oops"));
        assert!(matches!(c, Column::Any(_)));
        assert_eq!(c.value_at(0), Value::Int(1));
        assert_eq!(c.value_at(1), Value::str("oops"));
    }

    #[test]
    fn gather_typed_and_mixed() {
        let mut src = Column::with_type(ColType::Int);
        for i in 0..10 {
            src.push_value(Value::Int(i));
        }
        let mut dst = Column::with_type(ColType::Int);
        dst.gather_from(&src, Some(&[1, 3, 5]));
        assert_eq!(dst.len(), 3);
        assert_eq!(dst.value_at(2), Value::Int(5));
        // Full gather.
        let mut all = Column::with_type(ColType::Int);
        all.gather_from(&src, None);
        assert_eq!(all.len(), 10);
        // Mixed-variant gather falls back to values.
        let mut any = Column::any();
        any.push_value(Value::str("x"));
        any.gather_from(&src, Some(&[0]));
        assert_eq!(any.value_at(1), Value::Int(0));
    }

    #[test]
    fn rows_eq_matches_value_semantics() {
        let mut ints = Column::with_type(ColType::Int);
        ints.push_value(Value::Int(1));
        ints.push_null();
        let mut floats = Column::with_type(ColType::Float);
        floats.push_value(Value::float(1.0));
        // Int(1) != Float(1.0), as in the tuple engine's hash tables.
        assert!(!ints.rows_eq(0, &floats, 0));
        assert!(ints.rows_eq(0, &ints, 0));
        // NULL joins nothing, not even NULL.
        assert!(!ints.rows_eq(1, &ints, 1));
    }

    #[test]
    fn batch_push_rows_and_selection() {
        let mut b = Batch::with_columns(2);
        b.push_row(vec![Value::Int(1), Value::str("a")]);
        b.push_row(vec![Value::Int(2), Value::str("b")]);
        b.push_row(vec![Value::Int(3), Value::str("c")]);
        assert_eq!(b.physical_rows(), 3);
        assert_eq!(b.live_rows(), 3);
        b.sel = Some(vec![0, 2]);
        assert_eq!(b.live_rows(), 2);
        assert_eq!(b.row_at_live(1), vec![Value::Int(3), Value::str("c")]);
        b.clear();
        assert_eq!(b.live_rows(), 0);
        assert!(b.sel.is_none());
        // Capacity-preserving clear keeps the specialized variants.
        assert!(matches!(b.columns[0], Column::Int { .. }));
    }

    /// Gathering from an untyped (`Any`) source into an empty
    /// destination must go value-wise, not re-dispatch on an `Any`
    /// `empty_like` (which used to recurse forever). An adapter column
    /// whose first row is NULL stays `Any`, so this shape occurs on any
    /// projection above a tuple fallback emitting a NULL first.
    #[test]
    fn gather_from_any_source_into_empty_destination() {
        let mut src = Column::any();
        src.push_value(Value::Null);
        src.push_value(Value::Int(7));
        for mut dst in [Column::any(), Column::with_type(ColType::Int)] {
            dst.gather_from(&src, None);
            assert_eq!(dst.value_at(0), Value::Null);
            assert_eq!(dst.value_at(1), Value::Int(7));
            let mut sel_dst = Column::any();
            sel_dst.gather_from(&src, Some(&[1]));
            assert_eq!(sel_dst.len(), 1);
            assert_eq!(sel_dst.value_at(0), Value::Int(7));
        }
    }
}
