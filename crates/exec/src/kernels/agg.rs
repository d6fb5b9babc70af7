//! Vectorized grouped aggregation: the shared accumulator state machine
//! and the columnar group table behind every aggregate in every engine.
//!
//! Every aggregate shares this module so results agree bit-for-bit: the
//! tuple [`HashAggregate`](crate::ops::HashAggregate), the vectorized
//! engine's terminal aggregation sink, and the morsel workers' partial
//! sinks. The contract has three parts:
//!
//! * **Exact integer sums.** [`SumState`] accumulates `Int` inputs in
//!   `i64` with checked overflow, promoting to `f64` only when the exact
//!   sum no longer fits — `SUM` over integers is precise past 2^53 and
//!   identical regardless of accumulation order, which is what makes
//!   two-phase parallel aggregation deterministic on integer columns.
//!
//! * **Decomposable partials.** Every aggregate splits into a partial
//!   form computed per worker and a final merge: `COUNT` sums partial
//!   counts, `SUM`/`MIN`/`MAX` fold partial values with the same
//!   accumulator, and `AVG` carries a `(sum, count)` pair — the partial
//!   row layout appends a companion count column directly after the
//!   average's sum column (see [`partial_positions`]).
//!
//! * **SQL grouping semantics.** `GROUP BY` places all NULLs of a key in
//!   one group (unlike joins, where NULL matches nothing), so the group
//!   hash folds a NULL tag instead of poisoning the row, and key
//!   equality treats NULL = NULL as a match.

use std::ops::Range;

use volcano_core::fxhash::FxHashMap;
use volcano_rel::value::Tuple;
use volcano_rel::Value;

use super::hash::{fold_value, mix};
use crate::batch::{Batch, Column};

/// Hash tag folded for a NULL group-key value (joins poison the row
/// instead; grouping must keep it).
const TAG_NULL_GROUP: u64 = 0x6e11;

/// An aggregate compiled to input column positions.
#[derive(Debug, Clone, Copy)]
pub enum CompiledAgg {
    /// `COUNT(*)`.
    CountStar,
    /// `SUM(col at position)`.
    Sum(usize),
    /// `MIN(col at position)`.
    Min(usize),
    /// `MAX(col at position)`.
    Max(usize),
    /// `AVG(col at position)`.
    Avg(usize),
}

impl CompiledAgg {
    /// The input column position (`None` for `COUNT(*)`).
    pub fn input(&self) -> Option<usize> {
        match *self {
            CompiledAgg::CountStar => None,
            CompiledAgg::Sum(p)
            | CompiledAgg::Min(p)
            | CompiledAgg::Max(p)
            | CompiledAgg::Avg(p) => Some(p),
        }
    }

    /// The same aggregate reading position `at[p]` instead of `p`.
    pub fn map_input(self, at: &[usize]) -> Self {
        match self {
            CompiledAgg::CountStar => self,
            CompiledAgg::Sum(p) => CompiledAgg::Sum(at[p]),
            CompiledAgg::Min(p) => CompiledAgg::Min(at[p]),
            CompiledAgg::Max(p) => CompiledAgg::Max(at[p]),
            CompiledAgg::Avg(p) => CompiledAgg::Avg(at[p]),
        }
    }
}

/// Which phase of a (possibly split) aggregation an operator computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    /// One-shot: raw input in, final values out.
    Complete,
    /// Per-worker: raw input in, partial rows out (no grand-total row).
    Partial,
    /// Merge: partial rows in, final values out.
    Final,
}

/// Exact integer summation with checked overflow promotion to `f64`.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumState {
    int: i64,
    float: f64,
    promoted: bool,
    seen: bool,
}

impl SumState {
    /// Add an exact integer term.
    #[inline]
    pub fn add_i64(&mut self, x: i64) {
        self.seen = true;
        if self.promoted {
            self.float += x as f64;
        } else if let Some(s) = self.int.checked_add(x) {
            self.int = s;
        } else {
            self.promote();
            self.float += x as f64;
        }
    }

    /// Add a float term (the sum is float from here on).
    #[inline]
    pub fn add_f64(&mut self, x: f64) {
        self.seen = true;
        if !self.promoted {
            self.promote();
        }
        self.float += x;
    }

    fn promote(&mut self) {
        self.promoted = true;
        self.float += self.int as f64;
        self.int = 0;
    }

    /// Fold a value in; `true` if it was numeric (NULLs and strings are
    /// skipped, matching SQL aggregate semantics).
    #[inline]
    pub fn add_value(&mut self, v: &Value) -> bool {
        match v {
            Value::Int(x) => {
                self.add_i64(*x);
                true
            }
            Value::Float(x) => {
                self.add_f64(x.get());
                true
            }
            _ => false,
        }
    }

    /// The sum as a value: NULL if nothing was added, exact `Int` while
    /// every term was an integer and the total fits `i64`, else `Float`.
    pub fn value(&self) -> Value {
        if !self.seen {
            Value::Null
        } else if self.promoted {
            Value::float(self.float)
        } else {
            Value::Int(self.int)
        }
    }

    /// The sum as `f64` (for the AVG division).
    pub fn total_f64(&self) -> f64 {
        if self.promoted {
            self.float
        } else {
            self.int as f64
        }
    }
}

/// Running accumulator for one aggregate, usable in any phase.
#[derive(Debug, Clone)]
pub enum AccState {
    /// `COUNT(*)` row count.
    Count(i64),
    /// `SUM` total.
    Sum(SumState),
    /// `MIN` best-so-far.
    Min(Option<Value>),
    /// `MAX` best-so-far.
    Max(Option<Value>),
    /// `AVG` as a decomposable `(sum, count)` pair.
    Avg(SumState, i64),
}

#[inline]
fn best_update(cur: &mut Option<Value>, v: &Value, want_smaller: bool) {
    if v.is_null() {
        return;
    }
    let better = match cur {
        Some(c) => {
            if want_smaller {
                v < c
            } else {
                v > c
            }
        }
        None => true,
    };
    if better {
        *cur = Some(v.clone());
    }
}

impl AccState {
    /// The empty accumulator for `agg`.
    pub fn new_for(agg: &CompiledAgg) -> AccState {
        match agg {
            CompiledAgg::CountStar => AccState::Count(0),
            CompiledAgg::Sum(_) => AccState::Sum(SumState::default()),
            CompiledAgg::Min(_) => AccState::Min(None),
            CompiledAgg::Max(_) => AccState::Max(None),
            CompiledAgg::Avg(_) => AccState::Avg(SumState::default(), 0),
        }
    }

    /// Fold one raw input value (for `Count`, the value is ignored — the
    /// call itself counts the row).
    #[inline]
    pub fn accumulate(&mut self, v: &Value) {
        match self {
            AccState::Count(c) => *c += 1,
            AccState::Sum(s) => {
                s.add_value(v);
            }
            AccState::Min(m) => best_update(m, v, true),
            AccState::Max(m) => best_update(m, v, false),
            AccState::Avg(s, n) => {
                if s.add_value(v) {
                    *n += 1;
                }
            }
        }
    }

    /// Fold one *partial* row in the final phase: `main` is the
    /// aggregate's partial column, `companion` the AVG count column.
    #[inline]
    pub fn merge(&mut self, main: &Value, companion: Option<&Value>) {
        match self {
            AccState::Count(c) => {
                if let Value::Int(x) = main {
                    *c += x;
                }
            }
            AccState::Sum(s) => {
                s.add_value(main);
            }
            AccState::Min(m) => best_update(m, main, true),
            AccState::Max(m) => best_update(m, main, false),
            AccState::Avg(s, n) => {
                s.add_value(main);
                if let Some(Value::Int(x)) = companion {
                    *n += x;
                }
            }
        }
    }

    /// The final value of this accumulator.
    pub fn finish(&self) -> Value {
        match self {
            AccState::Count(c) => Value::Int(*c),
            AccState::Sum(s) => s.value(),
            AccState::Min(m) | AccState::Max(m) => m.clone().unwrap_or(Value::Null),
            AccState::Avg(s, n) => {
                if *n > 0 {
                    Value::float(s.total_f64() / *n as f64)
                } else {
                    Value::Null
                }
            }
        }
    }

    /// Append the partial representation (one value, or two for AVG).
    pub fn push_partial(&self, row: &mut Tuple) {
        match self {
            AccState::Count(c) => row.push(Value::Int(*c)),
            AccState::Sum(s) => row.push(s.value()),
            AccState::Min(m) | AccState::Max(m) => row.push(m.clone().unwrap_or(Value::Null)),
            AccState::Avg(s, n) => {
                row.push(s.value());
                row.push(Value::Int(*n));
            }
        }
    }
}

/// Partial-row column positions for each aggregate: `(main, companion)`
/// where the companion is AVG's count column. The partial layout is the
/// group key columns followed by these, in aggregate order.
pub fn partial_positions(ngroup: usize, aggs: &[CompiledAgg]) -> Vec<(usize, Option<usize>)> {
    let mut pos = ngroup;
    aggs.iter()
        .map(|a| {
            let main = pos;
            let comp = if matches!(a, CompiledAgg::Avg(_)) {
                pos += 2;
                Some(main + 1)
            } else {
                pos += 1;
                None
            };
            (main, comp)
        })
        .collect()
}

/// Total column count of the partial row layout.
pub fn partial_arity(ngroup: usize, aggs: &[CompiledAgg]) -> usize {
    ngroup
        + aggs
            .iter()
            .map(|a| {
                if matches!(a, CompiledAgg::Avg(_)) {
                    2
                } else {
                    1
                }
            })
            .sum::<usize>()
}

#[inline]
fn col_is_null(col: &Column, i: usize) -> bool {
    match col {
        Column::Int { valid, .. }
        | Column::Float { valid, .. }
        | Column::Bool { valid, .. }
        | Column::Str { valid, .. } => !valid[i],
        Column::Any(vals) => vals[i].is_null(),
    }
}

/// Reusable per-batch scratch for [`GroupTable`].
#[derive(Debug, Default)]
pub struct GroupScratch {
    sel: Vec<u32>,
    group_of: Vec<u32>,
}

/// Columnar grouped-aggregation hash table.
///
/// Group keys are stored in columns (one per key), accumulators in a
/// flat row-major `groups × aggs` vector, and a hash → group-ids index
/// resolves each input row with exact NULL-aware key equality. Batches
/// are folded with typed column-at-a-time loops: `Int`/`Float` columns
/// take a direct-slice fast path, everything else falls back to
/// [`Column::value_at`].
#[derive(Debug)]
pub struct GroupTable {
    key_cols: Vec<Column>,
    template: Vec<AccState>,
    states: Vec<AccState>,
    buckets: FxHashMap<u64, Vec<u32>>,
    groups: usize,
}

impl GroupTable {
    /// An empty table grouping on `nkeys` key columns for `aggs`.
    pub fn new(nkeys: usize, aggs: &[CompiledAgg]) -> Self {
        GroupTable {
            key_cols: (0..nkeys).map(|_| Column::any()).collect(),
            template: aggs.iter().map(AccState::new_for).collect(),
            states: Vec::new(),
            buckets: FxHashMap::default(),
            groups: 0,
        }
    }

    /// Number of distinct groups seen so far.
    pub fn len(&self) -> usize {
        self.groups
    }

    /// `true` if no group exists yet.
    pub fn is_empty(&self) -> bool {
        self.groups == 0
    }

    /// Grand total over an empty input still yields one row: if nothing
    /// was grouped and there are no keys, materialize the empty group.
    pub fn ensure_grand_total(&mut self) {
        if self.groups == 0 && self.key_cols.is_empty() {
            self.states.extend(self.template.iter().cloned());
            self.buckets.entry(0).or_default().push(0);
            self.groups = 1;
        }
    }

    fn keys_match(&self, g: usize, batch: &Batch, keys: &[usize], r: usize) -> bool {
        keys.iter().enumerate().all(|(k, &p)| {
            let kc = &self.key_cols[k];
            let bc = &batch.columns[p];
            // GROUP BY: NULL groups with NULL (rows_eq rejects NULLs).
            (col_is_null(kc, g) && col_is_null(bc, r)) || kc.rows_eq(g, bc, r)
        })
    }

    /// Map every live row of `batch` to its group id (creating groups as
    /// needed), filling `group_of` parallel to `live`.
    fn assign_groups(
        &mut self,
        batch: &Batch,
        keys: &[usize],
        live: &[u32],
        group_of: &mut Vec<u32>,
    ) {
        group_of.clear();
        if keys.is_empty() {
            // Grand total: every row belongs to the one group (which an
            // empty batch must not create — see `ensure_grand_total`).
            if !live.is_empty() {
                self.ensure_grand_total();
            }
            group_of.resize(live.len(), 0);
            return;
        }
        group_of.reserve(live.len());
        for &r in live {
            let r = r as usize;
            let mut h = 0u64;
            for &p in keys {
                h = fold_value(h, &batch.columns[p], r).unwrap_or_else(|| mix(h, TAG_NULL_GROUP));
            }
            let found = self.buckets.get(&h).and_then(|cands| {
                cands
                    .iter()
                    .copied()
                    .find(|&g| self.keys_match(g as usize, batch, keys, r))
            });
            let gid = match found {
                Some(g) => g,
                None => {
                    let g = self.groups as u32;
                    self.groups += 1;
                    for (k, &p) in keys.iter().enumerate() {
                        self.key_cols[k].push_value(batch.columns[p].value_at(r));
                    }
                    self.states.extend(self.template.iter().cloned());
                    self.buckets.entry(h).or_default().push(g);
                    g
                }
            };
            group_of.push(gid);
        }
    }

    /// Fold a batch of *raw* input rows (Complete / Partial phases).
    /// Returns the number of live rows consumed.
    pub fn accumulate(
        &mut self,
        batch: &Batch,
        keys: &[usize],
        aggs: &[CompiledAgg],
        scratch: &mut GroupScratch,
    ) -> usize {
        let GroupScratch { sel, group_of } = scratch;
        let live = batch.live_indices(sel);
        self.assign_groups(batch, keys, live, group_of);
        let naggs = self.template.len();
        for (j, agg) in aggs.iter().enumerate() {
            match *agg {
                CompiledAgg::CountStar => {
                    for &g in group_of.iter() {
                        if let AccState::Count(c) = &mut self.states[g as usize * naggs + j] {
                            *c += 1;
                        }
                    }
                }
                CompiledAgg::Sum(p) => match &batch.columns[p] {
                    Column::Int { data, valid } => {
                        for (k, &r) in live.iter().enumerate() {
                            let r = r as usize;
                            if valid[r] {
                                if let AccState::Sum(s) =
                                    &mut self.states[group_of[k] as usize * naggs + j]
                                {
                                    s.add_i64(data[r]);
                                }
                            }
                        }
                    }
                    Column::Float { data, valid } => {
                        for (k, &r) in live.iter().enumerate() {
                            let r = r as usize;
                            if valid[r] {
                                if let AccState::Sum(s) =
                                    &mut self.states[group_of[k] as usize * naggs + j]
                                {
                                    s.add_f64(data[r]);
                                }
                            }
                        }
                    }
                    col => {
                        for (k, &r) in live.iter().enumerate() {
                            self.states[group_of[k] as usize * naggs + j]
                                .accumulate(&col.value_at(r as usize));
                        }
                    }
                },
                CompiledAgg::Avg(p) => match &batch.columns[p] {
                    Column::Int { data, valid } => {
                        for (k, &r) in live.iter().enumerate() {
                            let r = r as usize;
                            if valid[r] {
                                if let AccState::Avg(s, n) =
                                    &mut self.states[group_of[k] as usize * naggs + j]
                                {
                                    s.add_i64(data[r]);
                                    *n += 1;
                                }
                            }
                        }
                    }
                    Column::Float { data, valid } => {
                        for (k, &r) in live.iter().enumerate() {
                            let r = r as usize;
                            if valid[r] {
                                if let AccState::Avg(s, n) =
                                    &mut self.states[group_of[k] as usize * naggs + j]
                                {
                                    s.add_f64(data[r]);
                                    *n += 1;
                                }
                            }
                        }
                    }
                    col => {
                        for (k, &r) in live.iter().enumerate() {
                            self.states[group_of[k] as usize * naggs + j]
                                .accumulate(&col.value_at(r as usize));
                        }
                    }
                },
                CompiledAgg::Min(p) | CompiledAgg::Max(p) => {
                    let want_smaller = matches!(agg, CompiledAgg::Min(_));
                    match &batch.columns[p] {
                        Column::Int { data, valid } => {
                            for (k, &r) in live.iter().enumerate() {
                                let r = r as usize;
                                if !valid[r] {
                                    continue;
                                }
                                let x = data[r];
                                let st = &mut self.states[group_of[k] as usize * naggs + j];
                                let cur = match st {
                                    AccState::Min(c) | AccState::Max(c) => c,
                                    _ => continue,
                                };
                                match cur {
                                    Some(Value::Int(m)) => {
                                        if (want_smaller && x < *m) || (!want_smaller && x > *m) {
                                            *m = x;
                                        }
                                    }
                                    None => *cur = Some(Value::Int(x)),
                                    _ => best_update(cur, &Value::Int(x), want_smaller),
                                }
                            }
                        }
                        col => {
                            for (k, &r) in live.iter().enumerate() {
                                self.states[group_of[k] as usize * naggs + j]
                                    .accumulate(&col.value_at(r as usize));
                            }
                        }
                    }
                }
            }
        }
        live.len()
    }

    /// Fold a batch of *partial* rows (Final phase): group keys are the
    /// leading columns, aggregate partials follow per
    /// [`partial_positions`]. Returns the number of live rows consumed.
    pub fn merge_partial(
        &mut self,
        batch: &Batch,
        aggs: &[CompiledAgg],
        scratch: &mut GroupScratch,
    ) -> usize {
        let nkeys = self.key_cols.len();
        let key_positions: Vec<usize> = (0..nkeys).collect();
        let positions = partial_positions(nkeys, aggs);
        let GroupScratch { sel, group_of } = scratch;
        let live = batch.live_indices(sel);
        self.assign_groups(batch, &key_positions, live, group_of);
        let naggs = self.template.len();
        for (k, &r) in live.iter().enumerate() {
            let r = r as usize;
            let base = group_of[k] as usize * naggs;
            for (j, (main, comp)) in positions.iter().enumerate() {
                let mv = batch.columns[*main].value_at(r);
                let cv = comp.map(|c| batch.columns[c].value_at(r));
                self.states[base + j].merge(&mv, cv.as_ref());
            }
        }
        live.len()
    }

    /// Materialize groups `range` into `out`: final values, or the
    /// partial row layout when `partial` is set.
    pub fn emit(&self, range: Range<usize>, aggs: &[CompiledAgg], partial: bool, out: &mut Batch) {
        let arity = if partial {
            partial_arity(self.key_cols.len(), aggs)
        } else {
            self.key_cols.len() + aggs.len()
        };
        out.clear();
        if out.columns.len() != arity {
            out.reset_columns(arity);
        }
        let naggs = aggs.len();
        for g in range {
            let mut row: Tuple = Vec::with_capacity(arity);
            for kc in &self.key_cols {
                row.push(kc.value_at(g));
            }
            for j in 0..naggs {
                let st = &self.states[g * naggs + j];
                if partial {
                    st.push_partial(&mut row);
                } else {
                    row.push(st.finish());
                }
            }
            out.push_row(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcano_rel::catalog::ColType;

    #[test]
    fn integer_sum_is_exact_past_2_53() {
        // 2^53 + 1 is not representable in f64; the old float
        // accumulator silently lost the +1.
        let mut s = SumState::default();
        s.add_i64(1i64 << 53);
        s.add_i64(1);
        assert_eq!(s.value(), Value::Int((1i64 << 53) + 1));
    }

    #[test]
    fn integer_sum_promotes_on_overflow() {
        let mut s = SumState::default();
        s.add_i64(i64::MAX);
        s.add_i64(i64::MAX);
        let Value::Float(f) = s.value() else {
            panic!("expected float after promotion, got {:?}", s.value());
        };
        let expect = i64::MAX as f64 * 2.0;
        assert!((f.get() - expect).abs() <= expect.abs() * 1e-12);
    }

    #[test]
    fn sum_goes_float_once_any_term_is_float() {
        let mut s = SumState::default();
        s.add_i64(2);
        s.add_f64(0.5);
        assert_eq!(s.value(), Value::float(2.5));
    }

    #[test]
    fn null_group_keys_group_together() {
        let mut col = Column::with_type(ColType::Int);
        col.push_value(Value::Int(1));
        col.push_null();
        col.push_null();
        let mut vals = Column::with_type(ColType::Int);
        vals.push_value(Value::Int(10));
        vals.push_value(Value::Int(20));
        vals.push_value(Value::Int(30));
        let mut b = Batch::with_columns(0);
        b.columns = vec![col, vals];
        b.set_physical_rows(3);

        let aggs = [CompiledAgg::Sum(1)];
        let mut t = GroupTable::new(1, &aggs);
        let mut scratch = GroupScratch::default();
        t.accumulate(&b, &[0], &aggs, &mut scratch);
        assert_eq!(t.len(), 2, "both NULL keys fall in one group");

        let mut out = Batch::default();
        t.emit(0..t.len(), &aggs, false, &mut out);
        let mut rows: Vec<Tuple> = (0..out.live_rows()).map(|i| out.row_at_live(i)).collect();
        rows.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(
            rows,
            vec![
                vec![Value::Null, Value::Int(50)],
                vec![Value::Int(1), Value::Int(10)],
            ]
        );
    }

    #[test]
    fn partial_then_final_matches_complete() {
        // Split rows across two "workers", merge the partials, and
        // check the result equals a one-shot aggregation.
        let aggs = [
            CompiledAgg::CountStar,
            CompiledAgg::Sum(1),
            CompiledAgg::Min(1),
            CompiledAgg::Max(1),
            CompiledAgg::Avg(1),
        ];
        let make = |rows: &[(i64, Option<i64>)]| {
            let mut k = Column::with_type(ColType::Int);
            let mut v = Column::with_type(ColType::Int);
            for &(key, val) in rows {
                k.push_value(Value::Int(key));
                match val {
                    Some(x) => v.push_value(Value::Int(x)),
                    None => v.push_null(),
                }
            }
            let mut b = Batch::with_columns(0);
            b.columns = vec![k, v];
            b.set_physical_rows(rows.len());
            b
        };
        let part1 = make(&[(1, Some(3)), (2, Some(7)), (1, None)]);
        let part2 = make(&[(2, Some(-1)), (1, Some(40)), (3, Some(0))]);

        let mut scratch = GroupScratch::default();
        let mut complete = GroupTable::new(1, &aggs);
        complete.accumulate(&part1, &[0], &aggs, &mut scratch);
        complete.accumulate(&part2, &[0], &aggs, &mut scratch);
        let mut expect = Batch::default();
        complete.emit(0..complete.len(), &aggs, false, &mut expect);
        let mut expect: Vec<Tuple> = (0..expect.live_rows())
            .map(|i| expect.row_at_live(i))
            .collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());

        let mut fin = GroupTable::new(1, &aggs);
        for part in [&part1, &part2] {
            let mut w = GroupTable::new(1, &aggs);
            w.accumulate(part, &[0], &aggs, &mut scratch);
            let mut pb = Batch::default();
            w.emit(0..w.len(), &aggs, true, &mut pb);
            fin.merge_partial(&pb, &aggs, &mut scratch);
        }
        let mut got = Batch::default();
        fin.emit(0..fin.len(), &aggs, false, &mut got);
        let mut got: Vec<Tuple> = (0..got.live_rows()).map(|i| got.row_at_live(i)).collect();
        got.sort_by(|a, b| a.partial_cmp(b).unwrap());

        assert_eq!(got, expect);
    }

    #[test]
    fn grand_total_over_empty_input() {
        let aggs = [CompiledAgg::CountStar, CompiledAgg::Sum(0)];
        let mut t = GroupTable::new(0, &aggs);
        t.ensure_grand_total();
        let mut out = Batch::default();
        t.emit(0..t.len(), &aggs, false, &mut out);
        assert_eq!(out.live_rows(), 1);
        assert_eq!(out.row_at_live(0), vec![Value::Int(0), Value::Null]);
    }
}
