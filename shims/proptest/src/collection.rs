//! Collection strategies (`proptest::collection::vec`).

use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// Inclusive bounds for a generated collection's length.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    min: usize,
    max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// A strategy producing vectors of `element` values with a length in
/// `size`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// Strategy returned by [`vec()`].
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = if self.size.min == self.size.max {
            self.size.min
        } else {
            self.size.min + rng.below((self.size.max - self.size.min + 1) as u64) as usize
        };
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::any;

    #[test]
    fn vec_lengths_respect_bounds() {
        let mut rng = TestRng::from_seed(5);
        let s = vec(any::<u8>(), 2..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
        }
        let fixed = vec(any::<u8>(), 3usize);
        assert_eq!(fixed.generate(&mut rng).len(), 3);
    }
}
