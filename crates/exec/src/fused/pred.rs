//! Monomorphized predicate kernels for the fused engine.
//!
//! A [`FusedPred`] compiles each conjunct of a [`CompiledPred`] into a
//! closure specialized *at plan-compile time* over the (column variant ×
//! literal type × comparison operator) combination the plan says it will
//! see: the hot loop is a primitive comparison over a typed slice with
//! the operator inlined — no `CmpOp` dispatch, no `Value`
//! materialization, no per-row branching beyond the validity mask. A
//! conjunct whose column arrives in an unexpected variant at runtime
//! (demoted to [`Column::Any`], or a cross-typed comparison such as an
//! `Int` column against a `Float` literal) falls back to the generic
//! [`filter_term`] kernel, which keeps semantics identical to the tuple
//! engine's [`CompiledPred::eval`] by construction — in particular, a
//! comparison involving NULL rejects the row.

use volcano_rel::{CmpOp, Value};

use crate::batch::{Batch, Column};
use crate::ops::CompiledPred;

/// A monomorphized conjunct kernel: narrow `sel` by comparing one column
/// against the captured literal, pushing survivors into `out`.
type Kernel = Box<dyn Fn(&Column, &[u32], &mut Vec<u32>) + Send + Sync>;

struct FusedTerm {
    pos: usize,
    kernel: Kernel,
}

/// A conjunction compiled to per-conjunct monomorphized kernels.
pub struct FusedPred {
    terms: Vec<FusedTerm>,
}

impl FusedPred {
    /// Specialize every conjunct of `pred`.
    pub fn compile(pred: &CompiledPred) -> Self {
        FusedPred {
            terms: pred
                .terms()
                .iter()
                .map(|&(pos, op, ref lit)| FusedTerm {
                    pos,
                    kernel: compile_term(op, lit.clone()),
                })
                .collect(),
        }
    }

    /// Number of conjuncts.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Trivially true?
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Apply the conjunction to `batch`, replacing its selection vector
    /// with the surviving rows, conjunct by conjunct in plan order.
    /// Returns the surviving count.
    pub fn apply(&self, batch: &mut Batch, scratch: &mut Vec<u32>) -> usize {
        for term in &self.terms {
            if batch.live_rows() == 0 {
                break;
            }
            match batch.sel.take() {
                Some(sel) => {
                    (term.kernel)(&batch.columns[term.pos], &sel, scratch);
                    batch.sel = Some(std::mem::take(scratch));
                    *scratch = sel; // recycle the old allocation
                }
                None => {
                    // Every row is live: list them in `scratch`, select
                    // into the buffer of the batch's last selection.
                    scratch.clear();
                    scratch.extend(0..batch.physical_rows() as u32);
                    let mut sel = batch.take_spare_sel();
                    (term.kernel)(&batch.columns[term.pos], scratch, &mut sel);
                    batch.sel = Some(sel);
                }
            }
        }
        batch.live_rows()
    }
}

/// Monomorphize one `<col> <op> <lit>` conjunct.
fn compile_term(op: CmpOp, lit: Value) -> Kernel {
    match lit {
        Value::Int(l) => int_term(op, l),
        Value::Float(l) => float_term(op, l.get()),
        Value::Str(l) => str_term(op, l),
        Value::Bool(l) => bool_term(op, l),
        // SQL comparison with NULL is unknown: rejects every row.
        Value::Null => Box::new(|_, _, out| out.clear()),
    }
}

/// Expand one specialized kernel per comparison operator: `$cmp` is a
/// distinct closure type per arm, so the inner loop is monomorphized
/// with the comparison inlined.
macro_rules! per_op {
    ($op:expr, $k:ident) => {
        match $op {
            CmpOp::Eq => $k!(|a, b| a == b),
            CmpOp::Ne => $k!(|a, b| a != b),
            CmpOp::Lt => $k!(|a, b| a < b),
            CmpOp::Le => $k!(|a, b| a <= b),
            CmpOp::Gt => $k!(|a, b| a > b),
            CmpOp::Ge => $k!(|a, b| a >= b),
        }
    };
}

fn int_term(op: CmpOp, l: i64) -> Kernel {
    macro_rules! k {
        ($cmp:expr) => {
            Box::new(
                move |col: &Column, sel: &[u32], out: &mut Vec<u32>| match col {
                    Column::Int { data, valid } => {
                        out.clear();
                        out.reserve(sel.len());
                        let cmp = $cmp;
                        for &i in sel {
                            let j = i as usize;
                            if valid[j] && cmp(data[j], l) {
                                out.push(i);
                            }
                        }
                    }
                    other => filter_term(other, op, &Value::Int(l), sel, out),
                },
            )
        };
    }
    per_op!(op, k)
}

fn float_term(op: CmpOp, l: f64) -> Kernel {
    // Direct f64 operators agree with `partial_cmp` because `Value`
    // bans NaN; both zeros already compare equal under either.
    macro_rules! k {
        ($cmp:expr) => {
            Box::new(
                move |col: &Column, sel: &[u32], out: &mut Vec<u32>| match col {
                    Column::Float { data, valid } => {
                        out.clear();
                        out.reserve(sel.len());
                        let cmp = $cmp;
                        for &i in sel {
                            let j = i as usize;
                            if valid[j] && cmp(data[j], l) {
                                out.push(i);
                            }
                        }
                    }
                    other => filter_term(other, op, &Value::float(l), sel, out),
                },
            )
        };
    }
    per_op!(op, k)
}

fn str_term(op: CmpOp, l: String) -> Kernel {
    let fallback_lit = Value::Str(l.clone());
    macro_rules! k {
        ($cmp:expr) => {
            Box::new(
                move |col: &Column, sel: &[u32], out: &mut Vec<u32>| match col {
                    Column::Str { data, valid } => {
                        out.clear();
                        out.reserve(sel.len());
                        let cmp = $cmp;
                        let l = l.as_str();
                        for &i in sel {
                            let j = i as usize;
                            if valid[j] && cmp(data[j].as_str(), l) {
                                out.push(i);
                            }
                        }
                    }
                    other => filter_term(other, op, &fallback_lit, sel, out),
                },
            )
        };
    }
    per_op!(op, k)
}

fn bool_term(op: CmpOp, l: bool) -> Kernel {
    macro_rules! k {
        ($cmp:expr) => {
            Box::new(
                move |col: &Column, sel: &[u32], out: &mut Vec<u32>| match col {
                    Column::Bool { data, valid } => {
                        out.clear();
                        out.reserve(sel.len());
                        let cmp = $cmp;
                        for &i in sel {
                            let j = i as usize;
                            if valid[j] && cmp(data[j], l) {
                                out.push(i);
                            }
                        }
                    }
                    other => filter_term(other, op, &Value::Bool(l), sel, out),
                },
            )
        };
    }
    per_op!(op, k)
}

/// Narrow one selection vector by `column <op> literal`, appending the
/// surviving indices to `out`: the fallback of the monomorphized kernels,
/// for columns that arrive demoted or cross-typed at runtime. Typed
/// column × literal pairs run on primitive slices; anything else goes
/// through [`Value::sql_cmp`] per row.
fn filter_term(col: &Column, op: CmpOp, lit: &Value, sel: &[u32], out: &mut Vec<u32>) {
    out.clear();
    out.reserve(sel.len());
    match (col, lit) {
        (Column::Int { data, valid }, Value::Int(l)) => {
            for &i in sel {
                let i = i as usize;
                if valid[i] && op.eval(data[i].cmp(l)) {
                    out.push(i as u32);
                }
            }
        }
        (Column::Int { data, valid }, Value::Float(l)) => {
            let l = l.get();
            for &i in sel {
                let i = i as usize;
                if valid[i] {
                    if let Some(ord) = (data[i] as f64).partial_cmp(&l) {
                        if op.eval(ord) {
                            out.push(i as u32);
                        }
                    }
                }
            }
        }
        (Column::Float { data, valid }, Value::Int(l)) => {
            let l = *l as f64;
            for &i in sel {
                let i = i as usize;
                if valid[i] {
                    if let Some(ord) = data[i].partial_cmp(&l) {
                        if op.eval(ord) {
                            out.push(i as u32);
                        }
                    }
                }
            }
        }
        (Column::Float { data, valid }, Value::Float(l)) => {
            let l = l.get();
            for &i in sel {
                let i = i as usize;
                if valid[i] {
                    if let Some(ord) = data[i].partial_cmp(&l) {
                        if op.eval(ord) {
                            out.push(i as u32);
                        }
                    }
                }
            }
        }
        (Column::Str { data, valid }, Value::Str(l)) => {
            for &i in sel {
                let i = i as usize;
                if valid[i] && op.eval(data[i].as_str().cmp(l.as_str())) {
                    out.push(i as u32);
                }
            }
        }
        (Column::Bool { data, valid }, Value::Bool(l)) => {
            for &i in sel {
                let i = i as usize;
                if valid[i] && op.eval(data[i].cmp(l)) {
                    out.push(i as u32);
                }
            }
        }
        // NULL literal: SQL comparison with NULL is unknown — rejects
        // every row, exactly as `sql_cmp` returning `None` does.
        (_, Value::Null) => {}
        // Mixed or demoted columns: per-row values through sql_cmp.
        (col, lit) => {
            for &i in sel {
                let v = col.value_at(i as usize);
                if v.sql_cmp(lit).map(|ord| op.eval(ord)).unwrap_or(false) {
                    out.push(i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcano_rel::catalog::ColType;
    use volcano_rel::value::Tuple;

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];

    /// A batch with one column per storage shape: typed Int, typed
    /// Float, typed Str, typed Bool, and a demoted Any mixing types.
    fn mixed_batch() -> Batch {
        let mut b = Batch::with_columns(0);
        let mut ints = Column::with_type(ColType::Int);
        let mut floats = Column::with_type(ColType::Float);
        let mut strs = Column::with_type(ColType::Str);
        let mut bools = Column::with_type(ColType::Bool);
        let mut any = Column::any();
        any.push_value(Value::str("force-any"));
        // Row 0 of every column (the `any` column got its row above).
        ints.push_null();
        floats.push_null();
        strs.push_null();
        bools.push_null();
        for i in 0..40i64 {
            if i % 7 == 0 {
                ints.push_null();
                floats.push_null();
                strs.push_null();
                bools.push_null();
                any.push_value(Value::Null);
            } else {
                ints.push_value(Value::Int(i - 20));
                floats.push_value(Value::float((i as f64) / 4.0 - 5.0));
                strs.push_value(Value::Str(format!("s{:02}", i % 10)));
                bools.push_value(Value::Bool(i % 2 == 0));
                if i % 3 == 0 {
                    any.push_value(Value::Int(i));
                } else {
                    any.push_value(Value::Str(format!("v{i}")));
                }
            }
        }
        let mut head = Column::any();
        head.push_value(Value::Null); // column 0 placeholder, unused
        for _ in 1..41 {
            head.push_value(Value::Null);
        }
        b.columns = vec![head, ints, floats, strs, bools, any];
        b.set_physical_rows(41);
        b
    }

    /// The tuple engine's verdict, the oracle: the live rows of `batch`
    /// that [`CompiledPred::eval`] accepts, one materialized row at a
    /// time.
    fn row_wise(pred: &CompiledPred, batch: &Batch) -> Vec<u32> {
        let mut scratch = Vec::new();
        batch
            .live_indices(&mut scratch)
            .iter()
            .copied()
            .filter(|&i| {
                let row: Tuple = batch
                    .columns
                    .iter()
                    .map(|c| c.value_at(i as usize))
                    .collect();
                pred.eval(&row)
            })
            .collect()
    }

    #[test]
    fn fused_matches_row_wise_eval_on_every_shape() {
        let cases: Vec<(usize, Value)> = vec![
            (1, Value::Int(3)),
            (1, Value::float(2.5)),
            (2, Value::float(-1.25)),
            (2, Value::Int(0)),
            (3, Value::str("s04")),
            (4, Value::Bool(true)),
            (5, Value::Int(9)),
            (5, Value::str("v11")),
            (1, Value::Null),
        ];
        for (pos, lit) in cases {
            for &op in &OPS {
                let pred = CompiledPred::new(vec![(pos, op, lit.clone())]);
                let fused = FusedPred::compile(&pred);
                let mut got = mixed_batch();
                let expect = row_wise(&pred, &got);
                let n_got = fused.apply(&mut got, &mut Vec::new());
                assert_eq!(n_got, expect.len(), "pos={pos} op={op:?} lit={lit:?}");
                assert_eq!(got.sel, Some(expect), "pos={pos} op={op:?} lit={lit:?}");
            }
        }
    }

    #[test]
    fn conjunction_narrows_in_order_and_matches_row_wise_eval() {
        let pred = CompiledPred::new(vec![
            (1, CmpOp::Gt, Value::Int(-10)),
            (2, CmpOp::Lt, Value::float(3.0)),
            (4, CmpOp::Eq, Value::Bool(true)),
        ]);
        let fused = FusedPred::compile(&pred);
        let mut got = mixed_batch();
        let expect = row_wise(&pred, &got);
        fused.apply(&mut got, &mut Vec::new());
        assert_eq!(got.sel, Some(expect));
        assert!(got.live_rows() > 0, "test predicate should keep some rows");
    }

    #[test]
    fn respects_existing_selection_vector() {
        let pred = CompiledPred::new(vec![(1, CmpOp::Ge, Value::Int(0))]);
        let fused = FusedPred::compile(&pred);
        let mut b = mixed_batch();
        b.sel = Some((0..41).step_by(2).collect());
        let expect = row_wise(&pred, &b);
        fused.apply(&mut b, &mut Vec::new());
        assert_eq!(b.sel, Some(expect));
    }

    fn int_col(vals: &[Option<i64>]) -> Column {
        let mut c = Column::with_type(ColType::Int);
        for v in vals {
            match v {
                Some(i) => c.push_value(Value::Int(*i)),
                None => c.push_null(),
            }
        }
        c
    }

    #[test]
    fn kernel_matches_scalar_semantics() {
        let col = int_col(&[Some(1), None, Some(5), Some(10), Some(-3)]);
        let lits = [Value::Int(5), Value::float(4.5), Value::Null];
        let sel: Vec<u32> = (0..col.len() as u32).collect();
        let mut out = Vec::new();
        for lit in &lits {
            for &op in &OPS {
                filter_term(&col, op, lit, &sel, &mut out);
                let expect: Vec<u32> = sel
                    .iter()
                    .copied()
                    .filter(|&i| {
                        let v = col.value_at(i as usize);
                        v.sql_cmp(lit).map(|ord| op.eval(ord)).unwrap_or(false)
                    })
                    .collect();
                assert_eq!(out, expect, "op={op:?} lit={lit:?}");
            }
        }
    }
}
