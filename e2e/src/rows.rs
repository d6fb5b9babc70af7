//! Rows as the benchmark sees them, and the digest results are checked by.

/// A result or table row. Every column the workloads store or select
/// is an integer; text columns are filler rendered from an integer.
pub type Row = Vec<i64>;

/// Row count plus an order-insensitive checksum of a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub rows: u64,
    pub checksum: u64,
}

impl Digest {
    pub fn add_row(&mut self, values: impl Iterator<Item = i64>) {
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for v in values {
            h = mix(h ^ v as u64);
        }
        self.rows += 1;
        // Wrapping addition commutes, so the checksum ignores row order.
        self.checksum = self.checksum.wrapping_add(h);
    }

    pub fn of(rows: &[Row]) -> Digest {
        let mut d = Digest::default();
        for r in rows {
            d.add_row(r.iter().copied());
        }
        d
    }
}

/// SplitMix64's finalizer: the one bit mixer behind the checksum and
/// the seeded generators.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded generator (SplitMix64), so inputs depend on nothing
/// but `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}
