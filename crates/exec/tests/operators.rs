//! Direct unit tests of individual execution operators, fed from an
//! in-memory source — duplicate-key joins, sort-run boundaries and group
//! boundaries.

use std::sync::Arc;

use volcano_exec::iterator::collect;
use volcano_exec::ops::{
    aggregate::CompiledAgg, ExternalSort, HashAggregate, HashJoin, MergeJoin, MergeSetOp,
    NestedLoops, SetOpKind, StreamAggregate,
};
use volcano_exec::Operator;
use volcano_rel::value::Tuple;
use volcano_rel::Value;
use volcano_store::{BufferPool, MemDisk};

/// A restartable in-memory source.
struct Rows {
    rows: Vec<Tuple>,
    idx: usize,
}

impl Rows {
    fn new(rows: Vec<Vec<i64>>) -> Box<Self> {
        Box::new(Rows {
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(Value::Int).collect())
                .collect(),
            idx: 0,
        })
    }
}

impl Operator for Rows {
    fn open(&mut self) {
        self.idx = 0;
    }

    fn next(&mut self) -> Option<Tuple> {
        let t = self.rows.get(self.idx).cloned();
        if t.is_some() {
            self.idx += 1;
        }
        t
    }

    fn close(&mut self) {}
}

fn ints(rows: Vec<Vec<i64>>) -> Vec<Tuple> {
    rows.into_iter()
        .map(|r| r.into_iter().map(Value::Int).collect())
        .collect()
}

#[test]
fn merge_join_handles_duplicate_groups() {
    // Left keys: 1,2,2,3; right keys: 2,2,3,4 → 2x2 + 1 = 5 matches.
    let left = Rows::new(vec![vec![1, 10], vec![2, 20], vec![2, 21], vec![3, 30]]);
    let right = Rows::new(vec![vec![2, 200], vec![2, 201], vec![3, 300], vec![4, 400]]);
    let mut j = MergeJoin::new(left, right, vec![0], vec![0]);
    let out = collect(&mut j);
    assert_eq!(out.len(), 5);
    assert_eq!(
        out,
        ints(vec![
            vec![2, 20, 2, 200],
            vec![2, 20, 2, 201],
            vec![2, 21, 2, 200],
            vec![2, 21, 2, 201],
            vec![3, 30, 3, 300],
        ])
    );
}

#[test]
fn merge_join_empty_sides() {
    let mut j = MergeJoin::new(
        Rows::new(vec![]),
        Rows::new(vec![vec![1]]),
        vec![0],
        vec![0],
    );
    assert!(collect(&mut j).is_empty());
    let mut j = MergeJoin::new(
        Rows::new(vec![vec![1]]),
        Rows::new(vec![]),
        vec![0],
        vec![0],
    );
    assert!(collect(&mut j).is_empty());
}

#[test]
fn hash_join_skips_null_keys() {
    let left: Box<Rows> = Rows::new(vec![vec![1, 10]]);
    // Manually inject a NULL-keyed row on the right.
    let mut right = Rows::new(vec![vec![1, 100]]);
    right.rows.push(vec![Value::Null, Value::Int(999)]);
    let mut j = HashJoin::new(left, right, vec![0], vec![0]);
    let out = collect(&mut j);
    assert_eq!(out, ints(vec![vec![1, 10, 1, 100]]));
}

#[test]
fn nested_loops_cross_product_preserves_outer_order() {
    let left = Rows::new(vec![vec![3], vec![1], vec![2]]);
    let right = Rows::new(vec![vec![7], vec![8]]);
    let mut j = NestedLoops::new(left, right, vec![]);
    let out = collect(&mut j);
    assert_eq!(out.len(), 6);
    // Outer order 3,1,2 preserved.
    assert_eq!(out[0][0], Value::Int(3));
    assert_eq!(out[2][0], Value::Int(1));
    assert_eq!(out[4][0], Value::Int(2));
}

/// The sort every plan runs: an [`ExternalSort`] holding at most
/// `memory_rows` rows, spilling its runs through a small pool.
fn external_sort(rows: Vec<Vec<i64>>, keys: Vec<usize>, memory_rows: usize) -> ExternalSort {
    let pool = Arc::new(BufferPool::new(Arc::new(MemDisk::new()), 8));
    ExternalSort::new(Rows::new(rows), keys, pool, memory_rows)
}

fn runs_spilled(s: &ExternalSort) -> u64 {
    let metrics = s.metrics();
    let (_, n) = metrics.iter().find(|(k, _)| *k == "runs_spilled").unwrap();
    *n
}

#[test]
fn sort_merges_across_run_boundaries() {
    let mut rows: Vec<Vec<i64>> = (0..5000).map(|i| vec![(i * 7919) % 1000, i]).collect();
    rows.reverse();
    let mut expect = ints(rows.clone());
    // 256 rows per run: the input spills into 20 runs, merged in one level.
    let mut s = external_sort(rows, vec![0], 256);
    let mut out = collect(&mut s);
    assert_eq!(runs_spilled(&s), 20);
    for w in out.windows(2) {
        assert!(w[0][0] <= w[1][0]);
    }
    // The same rows come back, however ties on the key were broken.
    out.sort();
    expect.sort();
    assert_eq!(out, expect);
}

#[test]
fn sort_on_two_keys() {
    // Every first key recurs in every run of 8 rows, so the merge must
    // order rows with equal first keys that come from different runs.
    let rows: Vec<Vec<i64>> = (0..40).map(|i| vec![i % 3, 40 - i]).collect();
    let mut expect = rows.clone();
    expect.sort();
    let mut s = external_sort(rows, vec![0, 1], 8);
    let out = collect(&mut s);
    assert_eq!(runs_spilled(&s), 5);
    assert_eq!(out, ints(expect));
}

#[test]
fn stream_aggregate_group_boundaries() {
    let rows = vec![vec![1, 10], vec![1, 20], vec![2, 5], vec![3, 1], vec![3, 2]];
    let mut a = StreamAggregate::new(
        Rows::new(rows),
        vec![0],
        vec![CompiledAgg::CountStar, CompiledAgg::Sum(1)],
    );
    let out = collect(&mut a);
    assert_eq!(out.len(), 3);
    assert_eq!(out[0][0], Value::Int(1));
    assert_eq!(out[0][1], Value::Int(2));
    // Integer SUM stays exact (Value::Int), not float.
    assert_eq!(out[0][2], Value::Int(30));
    assert_eq!(out[2][0], Value::Int(3));
    assert_eq!(out[2][2], Value::Int(3));
}

#[test]
fn hash_and_stream_aggregate_agree() {
    let rows: Vec<Vec<i64>> = (0..200).map(|i| vec![i % 7, i]).collect();
    let mut sorted_rows = rows.clone();
    sorted_rows.sort();
    let aggs = vec![
        CompiledAgg::CountStar,
        CompiledAgg::Sum(1),
        CompiledAgg::Min(1),
        CompiledAgg::Max(1),
        CompiledAgg::Avg(1),
    ];
    let mut h = HashAggregate::new(Rows::new(rows), vec![0], aggs.clone());
    let mut s = StreamAggregate::new(Rows::new(sorted_rows), vec![0], aggs);
    let mut hout = collect(&mut h);
    let mut sout = collect(&mut s);
    hout.sort();
    sout.sort();
    assert_eq!(hout, sout);
}

#[test]
fn merge_set_ops_on_sorted_streams() {
    let l = vec![vec![1], vec![2], vec![2], vec![3], vec![5]];
    let r = vec![vec![2], vec![3], vec![4]];

    let mut u = MergeSetOp::new(SetOpKind::Union, Rows::new(l.clone()), Rows::new(r.clone()));
    let out = collect(&mut u);
    assert_eq!(out.len(), 8, "bag union keeps duplicates");
    for w in out.windows(2) {
        assert!(w[0] <= w[1], "merge union preserves order");
    }

    let mut i = MergeSetOp::new(
        SetOpKind::Intersect,
        Rows::new(l.clone()),
        Rows::new(r.clone()),
    );
    assert_eq!(collect(&mut i), ints(vec![vec![2], vec![3]]));

    let mut d = MergeSetOp::new(SetOpKind::Difference, Rows::new(l), Rows::new(r));
    assert_eq!(collect(&mut d), ints(vec![vec![1], vec![5]]));
}
