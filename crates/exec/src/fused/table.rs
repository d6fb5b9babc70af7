//! The one hash-join table: [`FusedTable`], partitioned by key hash.
//!
//! A region of degree 1 builds a table of **one** partition by appending
//! straight into it — no hashing to route, no copy — so rows keep their
//! arrival order and a probe emits matches in probe order with per-key
//! build-insertion order, exactly as [`crate::ops::HashJoin`] documents.
//! A region of degree `n > 1` builds [`PARTITIONS`] partitions: every
//! worker [scatters](FusedTable::scatter) its batches by key hash into
//! buffers of its own (no shared mutable state on the hot path), and a
//! second parallel pass [merges](TablePart::merged) each partition's
//! buffers through the same insert a one-partition build uses. Either
//! way a partition indexes its keys with the exact-`i64` [`IntIndex`]
//! while its one key column arrives typed, and with value-hash buckets
//! otherwise.
//!
//! Semantics are the tuple hash join's: NULL keys never enter or match,
//! equality is `Value` equality.

use volcano_core::fxhash::FxHashMap;
use volcano_rel::Value;

use crate::batch::{Batch, Column};
use crate::kernels::hash_join_keys;
use crate::pipeline::{ProbeCol, TableShape};

/// Hash partitions of a table built by more than one worker: a power of
/// two well above any plausible degree, so the parallel merge pass
/// load-balances.
pub(crate) const PARTITIONS: usize = 32;

/// Sentinel for "no row" in [`IntIndex`] slot heads and chain links.
const NO_ROW: u32 = u32::MAX;

/// Open-addressed hash index monomorphized for a single `Int` join key:
/// slots hold exact `i64` keys (no hash-then-verify pass), and rows
/// sharing a key chain through a flat `next` array in build-insertion
/// order. This is the fast path for the overwhelmingly common equi-join
/// shape; any other key shape uses the generic value-hash index.
struct IntIndex {
    /// Power-of-two slot array; `head == NO_ROW` marks a free slot.
    slots: Vec<IntSlot>,
    mask: u64,
    /// Occupied slots (distinct keys), for the load-factor check.
    keys_len: usize,
    /// `next[row]`: the next build row with the same key, or [`NO_ROW`].
    next: Vec<u32>,
}

#[derive(Clone, Copy)]
struct IntSlot {
    key: i64,
    /// First build row with this key ([`NO_ROW`] = slot free).
    head: u32,
    /// Last build row with this key (chain append point).
    tail: u32,
}

const FREE: IntSlot = IntSlot {
    key: 0,
    head: NO_ROW,
    tail: NO_ROW,
};

/// Fibonacci spread of the key over the full word, folded so the low
/// bits (the slot mask) see the high-entropy half.
#[inline]
fn spread(key: i64) -> u64 {
    let h = (key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

impl IntIndex {
    fn new() -> Self {
        IntIndex {
            slots: vec![FREE; 16],
            mask: 15,
            keys_len: 0,
            next: Vec::new(),
        }
    }

    /// Append build row `row` (must equal the insertion count so far)
    /// under `key`, preserving per-key insertion order.
    fn insert(&mut self, key: i64, row: u32) {
        debug_assert_eq!(row as usize, self.next.len());
        self.next.push(NO_ROW);
        if (self.keys_len + 1) * 4 > self.slots.len() * 3 {
            self.grow();
        }
        let mut i = (spread(key) & self.mask) as usize;
        loop {
            let s = &mut self.slots[i];
            if s.head == NO_ROW {
                *s = IntSlot {
                    key,
                    head: row,
                    tail: row,
                };
                self.keys_len += 1;
                return;
            }
            if s.key == key {
                self.next[s.tail as usize] = row;
                s.tail = row;
                return;
            }
            i = (i + 1) & self.mask as usize;
        }
    }

    /// First build row with `key`, or [`NO_ROW`]; follow [`Self::next`]
    /// for the rest of the chain.
    #[inline]
    fn head(&self, key: i64) -> u32 {
        let mut i = (spread(key) & self.mask) as usize;
        loop {
            let s = &self.slots[i];
            if s.head == NO_ROW {
                return NO_ROW;
            }
            if s.key == key {
                return s.head;
            }
            i = (i + 1) & self.mask as usize;
        }
    }

    /// Append to `pairs` every build row keyed `key`, paired with probe
    /// row `probe`.
    #[inline]
    fn matches(&self, key: i64, probe: u32, pairs: &mut Pairs) {
        let mut b = self.head(key);
        while b != NO_ROW {
            pairs.build.push(b);
            pairs.probe.push(probe);
            b = self.next[b as usize];
        }
    }

    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.slots, vec![FREE; 0]);
        self.slots = vec![FREE; old.len() * 2];
        self.mask = (self.slots.len() - 1) as u64;
        for s in old {
            if s.head == NO_ROW {
                continue;
            }
            let mut i = (spread(s.key) & self.mask) as usize;
            while self.slots[i].head != NO_ROW {
                i = (i + 1) & self.mask as usize;
            }
            self.slots[i] = s;
        }
    }
}

/// The key index of a [`TablePart`].
enum TableIndex {
    /// Value-hash buckets with per-pair key verification — correct for
    /// every key shape (multi-column, demoted, cross-typed).
    Generic(FxHashMap<u64, Vec<u32>>),
    /// Monomorphized single-`Int`-key index; kept while every inserted
    /// key column arrives as a typed `Int` column.
    Int(IntIndex),
}

/// Matching (build row, probe row) pairs of one partition.
#[derive(Default)]
struct Pairs {
    build: Vec<u32>,
    probe: Vec<u32>,
}

/// Reusable scratch for building and probing tables, one per thread.
#[derive(Default)]
pub(crate) struct JoinScratch {
    sel: Vec<u32>,
    keep: Vec<u32>,
    hashes: Vec<Option<u64>>,
    pairs: Pairs,
    /// Per partition, the non-NULL-keyed live rows routed to it and their
    /// key hashes. Sized by the first table of more than one partition;
    /// a thread that only meets one-partition `Int` tables never fills it.
    routed: Vec<(Vec<u32>, Vec<u64>)>,
}

/// The partition of `parts` a key hash belongs to, taken from the hash's
/// high bits: the multiplicative hash leaves its low bits as regular as
/// the keys (every multiple of 32 has the same five low bits).
fn partition_of(h: u64, parts: usize) -> usize {
    ((u128::from(h) * parts as u128) >> 64) as usize
}

/// Hash the key columns of `batch`'s live rows and list, per partition,
/// the rows whose key is not NULL, with their hashes.
fn route(batch: &Batch, keys: &[usize], parts: usize, s: &mut JoinScratch) {
    hash_join_keys(batch, keys, &mut s.hashes, &mut s.sel);
    s.routed.resize_with(parts, Default::default);
    for (rows, hashes) in &mut s.routed {
        rows.clear();
        hashes.clear();
    }
    for (&row, h) in batch.live_indices(&mut s.sel).iter().zip(&s.hashes) {
        if let Some(h) = *h {
            let (rows, hashes) = &mut s.routed[partition_of(h, parts)];
            rows.push(row);
            hashes.push(h);
        }
    }
}

/// One hash partition of a join table: the stored columns of its rows,
/// in insertion order, and an index from key to rows.
pub(crate) struct TablePart {
    cols: Vec<Column>,
    index: TableIndex,
    rows: u32,
}

impl TablePart {
    fn new(shape: &TableShape) -> Self {
        let index = if shape.keys.len() == 1 {
            TableIndex::Int(IntIndex::new())
        } else {
            TableIndex::Generic(FxHashMap::default())
        };
        TablePart {
            cols: shape.cols.iter().map(|_| Column::any()).collect(),
            index,
            rows: 0,
        }
    }

    /// Append the non-NULL-keyed live rows of `batch`, preserving order;
    /// `shape` says where `batch` holds the keys and the stored columns.
    fn insert(&mut self, batch: &Batch, shape: &TableShape, s: &mut JoinScratch) -> u64 {
        if batch.live_rows() == 0 {
            return 0;
        }
        if matches!(self.index, TableIndex::Int(_))
            && !matches!(batch.columns[shape.keys[0]], Column::Int { .. })
        {
            // The key column stopped arriving typed (demoted data):
            // re-index what was built so far under value hashing.
            self.migrate_to_generic(shape.table_keys[0]);
        }
        s.keep.clear();
        match &mut self.index {
            TableIndex::Int(idx) => {
                let Column::Int { data, valid } = &batch.columns[shape.keys[0]] else {
                    unreachable!("migrated above")
                };
                let mut row = self.rows;
                for &i in batch.live_indices(&mut s.sel) {
                    if valid[i as usize] {
                        idx.insert(data[i as usize], row);
                        s.keep.push(i);
                        row += 1;
                    }
                }
            }
            TableIndex::Generic(buckets) => {
                hash_join_keys(batch, &shape.keys, &mut s.hashes, &mut s.sel);
                for (&i, h) in batch.live_indices(&mut s.sel).iter().zip(&s.hashes) {
                    if let Some(h) = *h {
                        let row = self.rows + s.keep.len() as u32;
                        buckets.entry(h).or_default().push(row);
                        s.keep.push(i);
                    }
                }
            }
        }
        // Every physical row kept, in order: copy whole columns.
        let sel = (s.keep.len() != batch.physical_rows()).then_some(&s.keep[..]);
        for (dst, &src) in self.cols.iter_mut().zip(&shape.cols) {
            dst.gather_from(&batch.columns[src], sel);
        }
        self.rows += s.keep.len() as u32;
        s.keep.len() as u64
    }

    /// Rebuild the index under value hashing (every stored row already
    /// has a non-NULL key, in insertion order, so re-inserting rows
    /// `0..self.rows` reproduces the generic index exactly).
    fn migrate_to_generic(&mut self, table_key: usize) {
        let mut buckets: FxHashMap<u64, Vec<u32>> = FxHashMap::default();
        for row in 0..self.rows {
            if let Some(h) =
                crate::kernels::hash::fold_value(0, &self.cols[table_key], row as usize)
            {
                buckets.entry(h).or_default().push(row);
            }
        }
        self.index = TableIndex::Generic(buckets);
    }

    /// Build partition `p` of a table from every worker's buffer for it,
    /// in worker order.
    pub(crate) fn merged(shape: &TableShape, p: usize, workers: &[Vec<Batch>]) -> Self {
        // A buffer already holds exactly the stored columns, in table
        // column order.
        let stored = TableShape {
            keys: shape.table_keys.clone(),
            cols: (0..shape.cols.len()).collect(),
            table_keys: shape.table_keys.clone(),
        };
        let mut part = TablePart::new(shape);
        let mut s = JoinScratch::default();
        for bufs in workers {
            part.insert(&bufs[p], &stored, &mut s);
        }
        part
    }

    /// Append to `pairs` the matches of the probe rows `rows` (physical
    /// indices into `probe`; `hashes` runs parallel to them and is read
    /// by the generic index only).
    fn matches(
        &self,
        table_keys: &[usize],
        probe: &Batch,
        keys: &[usize],
        rows: &[u32],
        hashes: &[u64],
        pairs: &mut Pairs,
    ) {
        match &self.index {
            // Monomorphized probe: exact i64 lookup, no per-pair key
            // verification.
            TableIndex::Int(idx) => match &probe.columns[keys[0]] {
                Column::Int { data, valid } => {
                    for &i in rows {
                        if valid[i as usize] {
                            idx.matches(data[i as usize], i, pairs);
                        }
                    }
                }
                // A demoted probe column may still hold Int values;
                // anything else can never equal an Int build key.
                col @ Column::Any(_) => {
                    for &i in rows {
                        if let Value::Int(k) = col.value_at(i as usize) {
                            idx.matches(k, i, pairs);
                        }
                    }
                }
                _ => {}
            },
            TableIndex::Generic(buckets) => {
                for (&i, h) in rows.iter().zip(hashes) {
                    let Some(bucket) = buckets.get(h) else {
                        continue;
                    };
                    for &b in bucket {
                        let same = table_keys.iter().zip(keys).all(|(&bk, &pk)| {
                            self.cols[bk].rows_eq(b as usize, &probe.columns[pk], i as usize)
                        });
                        if same {
                            pairs.build.push(b);
                            pairs.probe.push(i);
                        }
                    }
                }
            }
        }
    }
}

/// A hash table built by one pipeline and probed by later ones.
pub(crate) struct FusedTable {
    shape: TableShape,
    parts: Vec<TablePart>,
}

impl FusedTable {
    /// An empty table of one partition, for [`Self::insert`].
    pub(crate) fn new(shape: &TableShape) -> Self {
        Self::from_parts(shape, vec![TablePart::new(shape)])
    }

    /// A table over partitions built elsewhere, in partition order.
    pub(crate) fn from_parts(shape: &TableShape, parts: Vec<TablePart>) -> Self {
        FusedTable {
            shape: shape.clone(),
            parts,
        }
    }

    /// Append `batch` to a one-partition table; returns the rows stored.
    pub(crate) fn insert(&mut self, batch: &Batch, s: &mut JoinScratch) -> u64 {
        let [part] = &mut self.parts[..] else {
            unreachable!("a partitioned table is scattered and merged, not appended to")
        };
        part.insert(batch, &self.shape, s)
    }

    /// Scatter the stored columns of `batch`'s live, non-NULL-keyed rows
    /// into one worker's per-partition buffers; returns the rows stored.
    pub(crate) fn scatter(
        shape: &TableShape,
        batch: &Batch,
        bufs: &mut [Batch],
        s: &mut JoinScratch,
    ) -> u64 {
        route(batch, &shape.keys, bufs.len(), s);
        let mut stored = 0;
        for (buf, (rows, _)) in bufs.iter_mut().zip(&s.routed) {
            if rows.is_empty() {
                continue;
            }
            if buf.columns.is_empty() {
                buf.reset_columns(shape.cols.len());
            }
            for (dst, &src) in buf.columns.iter_mut().zip(&shape.cols) {
                dst.gather_from(&batch.columns[src], Some(rows));
            }
            buf.set_physical_rows(buf.physical_rows() + rows.len());
            stored += rows.len() as u64;
        }
        stored
    }

    /// Probe every live row of `probe` and materialize the columns `out`
    /// names of each match into `into`. One partition emits matches in
    /// probe order; several emit them partition by partition, which is
    /// fine: a region of degree `n` delivers no order.
    pub(crate) fn probe(
        &self,
        probe: &Batch,
        keys: &[usize],
        out: &[ProbeCol],
        into: &mut Batch,
        s: &mut JoinScratch,
    ) {
        into.reset_columns(out.len());
        let table_keys = &self.shape.table_keys[..];
        let mut emitted = 0;
        let mut emit = |part: &TablePart, pairs: &mut Pairs| {
            for (dst, col) in into.columns.iter_mut().zip(out) {
                match *col {
                    ProbeCol::Build(i) => dst.gather_from(&part.cols[i], Some(&pairs.build)),
                    ProbeCol::Probe(j) => dst.gather_from(&probe.columns[j], Some(&pairs.probe)),
                }
            }
            emitted += pairs.build.len();
            pairs.build.clear();
            pairs.probe.clear();
        };
        match &self.parts[..] {
            // One partition of exact keys: nothing to hash, nothing to
            // route.
            [part @ TablePart {
                index: TableIndex::Int(_),
                ..
            }] => {
                let rows = probe.live_indices(&mut s.sel);
                part.matches(table_keys, probe, keys, rows, &[], &mut s.pairs);
                emit(part, &mut s.pairs);
            }
            parts => {
                route(probe, keys, parts.len(), s);
                for (part, (rows, hashes)) in parts.iter().zip(&s.routed) {
                    if rows.is_empty() {
                        continue;
                    }
                    part.matches(table_keys, probe, keys, rows, hashes, &mut s.pairs);
                    if !s.pairs.build.is_empty() {
                        emit(part, &mut s.pairs);
                    }
                }
            }
        }
        into.set_physical_rows(emitted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use volcano_rel::value::Tuple;

    fn batch(rows: &[Vec<Value>]) -> Batch {
        let mut b = Batch::with_columns(rows[0].len());
        rows.iter().for_each(|r| b.push_row(r.clone()));
        b
    }

    fn int(v: i64) -> Value {
        Value::Int(v)
    }

    fn text(v: &str) -> Value {
        Value::Str(v.into())
    }

    /// `(key, key2, payload)` build rows: 200 rows over 40 keys, every
    /// seventh key NULL; `key2` is a string.
    fn build_rows(from: i64) -> Vec<Vec<Value>> {
        (from..from + 200)
            .map(|i| {
                let k = if i % 7 == 0 { Value::Null } else { int(i % 40) };
                vec![k, text(&format!("s{}", i % 3)), int(i)]
            })
            .collect()
    }

    /// `(key, key2)` probe rows: keys 0..60 (a third of them miss),
    /// NULLs, and every `key2`.
    fn probe_rows() -> Vec<Vec<Value>> {
        let mut rows: Vec<_> = (0..60)
            .map(|i| vec![int(i), text(&format!("s{}", i % 3))])
            .collect();
        rows.push(vec![Value::Null, text("s0")]);
        rows.push(vec![int(3), Value::Null]);
        rows
    }

    fn shape(keys: &[usize]) -> TableShape {
        TableShape {
            keys: keys.to_vec(),
            cols: vec![0, 1, 2],
            table_keys: keys.to_vec(),
        }
    }

    /// Build over `batches` the way a region of degree 1 does.
    fn appended(shape: &TableShape, batches: &[Batch]) -> FusedTable {
        let mut table = FusedTable::new(shape);
        let mut s = JoinScratch::default();
        for b in batches {
            table.insert(b, &mut s);
        }
        table
    }

    /// Build over `batches` the way a region of degree 2 does: batches
    /// alternate between two workers' buffers, then every partition is
    /// merged.
    fn partitioned(shape: &TableShape, batches: &[Batch]) -> FusedTable {
        let mut workers = vec![vec![Batch::default(); PARTITIONS]; 2];
        let mut s = JoinScratch::default();
        for (i, b) in batches.iter().enumerate() {
            FusedTable::scatter(shape, b, &mut workers[i % 2], &mut s);
        }
        let parts = (0..PARTITIONS).map(|p| TablePart::merged(shape, p, &workers));
        FusedTable::from_parts(shape, parts.collect())
    }

    /// Every match of `probe` as build row ++ probe row, in emit order.
    fn matches(table: &FusedTable, probe: &Batch, keys: &[usize]) -> Vec<Tuple> {
        let out: Vec<ProbeCol> = (0..3)
            .map(ProbeCol::Build)
            .chain((0..probe.columns.len()).map(ProbeCol::Probe))
            .collect();
        let mut into = Batch::default();
        table.probe(probe, keys, &out, &mut into, &mut JoinScratch::default());
        (0..into.live_rows()).map(|i| into.row_at_live(i)).collect()
    }

    fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
        rows.sort();
        rows
    }

    #[test]
    fn one_and_many_partitions_yield_the_same_matches_for_every_key_shape() {
        let typed = [batch(&build_rows(0)), batch(&build_rows(200))];
        // The same rows with the key column demoted to `Column::Any`.
        let mut demoted = typed.clone();
        for b in &mut demoted {
            b.columns[0].gather_from(&Column::Any(vec![text("x")]), None);
            b.columns[0].truncate(200);
            assert!(matches!(b.columns[0], Column::Any(_)));
        }
        let probe = batch(&probe_rows());
        let mut selective = probe.clone();
        selective.sel = Some((0..probe.physical_rows() as u32).step_by(2).collect());
        for (what, batches, keys) in [
            ("single Int key", &typed, &[0usize][..]),
            ("multi-column key", &typed, &[0, 1][..]),
            ("demoted key", &demoted, &[0][..]),
        ] {
            let shape = shape(keys);
            let one = appended(&shape, batches);
            let many = partitioned(&shape, batches);
            assert_eq!((one.parts.len(), many.parts.len()), (1, PARTITIONS));
            for probe in [&probe, &selective] {
                let expect = matches(&one, probe, keys);
                assert!(!expect.is_empty(), "{what}");
                // NULL never joins, on either side.
                assert!(expect.iter().all(|r| !r[0].is_null() && !r[3].is_null()));
                assert_eq!(
                    sorted(matches(&many, probe, keys)),
                    sorted(expect),
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn keys_that_share_their_low_bits_spread_over_the_partitions() {
        let shape = shape(&[0]);
        let rows: Vec<Vec<Value>> = (0..256)
            .map(|k| vec![int(k * 32), int(k), int(k)])
            .collect();
        let mut workers = vec![Batch::default(); PARTITIONS];
        FusedTable::scatter(
            &shape,
            &batch(&rows),
            &mut workers,
            &mut JoinScratch::default(),
        );
        let used = workers.iter().filter(|b| b.live_rows() > 0).count();
        assert!(
            used >= PARTITIONS / 2,
            "{used} of {PARTITIONS} partitions used"
        );
    }

    #[test]
    fn one_partition_emits_probe_order_with_per_key_insertion_order() {
        let shape = shape(&[0]);
        let table = appended(&shape, &[batch(&build_rows(0)), batch(&build_rows(200))]);
        let probe = batch(&[vec![int(5), text("a")], vec![int(2), text("b")]]);
        let got = matches(&table, &probe, &[0]);
        let payloads = |key: i64| -> Vec<Value> {
            (0..400)
                .filter(|i| i % 7 != 0 && i % 40 == key)
                .map(int)
                .collect()
        };
        let expect: Vec<Value> = payloads(5).into_iter().chain(payloads(2)).collect();
        assert_eq!(got.iter().map(|r| r[2].clone()).collect::<Vec<_>>(), expect);
    }

    #[test]
    fn a_key_column_that_stops_arriving_typed_migrates_every_partition() {
        let shape = shape(&[0]);
        let typed = batch(&build_rows(0));
        // A later batch whose key column holds one string: it arrives
        // demoted, and every partition its rows reach migrates.
        let mut rows = build_rows(200);
        rows[1][0] = text("k");
        let mixed = batch(&rows);
        assert!(matches!(mixed.columns[0], Column::Any(_)));
        let mut reached = vec![Batch::default(); PARTITIONS];
        FusedTable::scatter(&shape, &mixed, &mut reached, &mut JoinScratch::default());
        let batches = [typed, mixed];
        let probe = batch(&[vec![int(3), text("a")], vec![text("k"), text("b")]]);
        let one = appended(&shape, &batches);
        let many = partitioned(&shape, &batches);
        assert!(matches!(one.parts[0].index, TableIndex::Generic(_)));
        assert!(reached.iter().any(|b| b.live_rows() > 0));
        for (part, buf) in many.parts.iter().zip(&reached) {
            let generic = matches!(part.index, TableIndex::Generic(_));
            assert_eq!(generic, buf.live_rows() > 0);
        }
        let expect = matches(&one, &probe, &[0]);
        // Rows from before and after the migration, and the string key.
        let payloads: Vec<&Value> = expect.iter().map(|r| &r[2]).collect();
        assert!(payloads.contains(&&int(3)) && payloads.contains(&&int(243)));
        assert!(payloads.contains(&&int(201)));
        assert_eq!(sorted(matches(&many, &probe, &[0])), sorted(expect));
    }

    #[test]
    fn int_index_chains_duplicates_in_insertion_order_across_growth() {
        let mut idx = IntIndex::new();
        // 1000 inserts over 50 distinct keys force several rehashes;
        // chains must survive them untouched.
        for row in 0..1000u32 {
            idx.insert((row % 50) as i64, row);
        }
        for key in 0..50i64 {
            let mut rows = Vec::new();
            let mut r = idx.head(key);
            while r != NO_ROW {
                rows.push(r);
                r = idx.next[r as usize];
            }
            let expect: Vec<u32> = (0..1000).filter(|r| (r % 50) as i64 == key).collect();
            assert_eq!(rows, expect, "key {key}");
        }
        assert_eq!(idx.head(50), NO_ROW);
        assert_eq!(idx.head(-1), NO_ROW);
    }

    #[test]
    fn int_index_survives_colliding_and_extreme_keys() {
        let mut idx = IntIndex::new();
        // Keys congruent modulo a small power of two collide under any
        // masked hash of the low bits; linear probing must keep them
        // distinct.
        let keys = [0i64, 16, 32, 48, 64, i64::MAX, i64::MIN, -16];
        for (row, &k) in keys.iter().enumerate() {
            idx.insert(k, row as u32);
        }
        for (row, &k) in keys.iter().enumerate() {
            assert_eq!(idx.head(k), row as u32, "key {k}");
            assert_eq!(idx.next[row], NO_ROW);
        }
        assert_eq!(idx.head(17), NO_ROW);
    }
}
