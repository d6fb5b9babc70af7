//! A small vector that keeps its first `N` elements in place.
//!
//! The search's inner loops gather a handful of ids per step — the
//! expressions a pattern match has bound so far, a memo probe's
//! canonical input classes, a costed move's leaf classes and input goals
//! — and throw them away at the end of the step. Every operator of the
//! shipped models has at most two inputs, so these lists almost always
//! fit in a few stack slots; past `N` the list moves to the heap, so a
//! wider operator costs one allocation instead of a panic.

use std::ops::Deref;

/// Up to `N` `Copy` elements in place, the rest on the heap.
pub(crate) enum InlineVec<T: Copy, const N: usize> {
    /// The first `len` slots of the array are the elements.
    Inline(usize, [T; N]),
    /// Spilled: the elements, all of them, on the heap.
    Heap(Vec<T>),
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// An empty vector; `fill` only initialises the unused slots.
    pub(crate) fn new(fill: T) -> Self {
        InlineVec::Inline(0, [fill; N])
    }

    pub(crate) fn push(&mut self, x: T) {
        match self {
            InlineVec::Inline(len, buf) if *len < N => {
                buf[*len] = x;
                *len += 1;
            }
            InlineVec::Inline(len, buf) => {
                let mut heap = Vec::with_capacity(2 * N + 1);
                heap.extend_from_slice(&buf[..*len]);
                heap.push(x);
                *self = InlineVec::Heap(heap);
            }
            InlineVec::Heap(heap) => heap.push(x),
        }
    }

    pub(crate) fn pop(&mut self) -> Option<T> {
        match self {
            InlineVec::Inline(0, _) => None,
            InlineVec::Inline(len, buf) => {
                *len -= 1;
                Some(buf[*len])
            }
            InlineVec::Heap(heap) => heap.pop(),
        }
    }
}

impl<T: Copy, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            InlineVec::Inline(len, buf) => &buf[..*len],
            InlineVec::Heap(heap) => heap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spills_past_the_inline_slots_and_keeps_order() {
        let mut v: InlineVec<u32, 2> = InlineVec::new(0);
        assert!(v.is_empty());
        for i in 1..=5 {
            v.push(i);
            assert_eq!(&v[..], &(1..=i).collect::<Vec<_>>()[..]);
        }
        assert!(matches!(v, InlineVec::Heap(_)));
        assert_eq!(v.pop(), Some(5));
        assert_eq!(&v[..], &[1, 2, 3, 4]);

        let mut w: InlineVec<u32, 2> = InlineVec::new(0);
        w.push(7);
        w.push(8);
        assert!(matches!(w, InlineVec::Inline(2, _)));
        assert_eq!((w.pop(), w.pop(), w.pop()), (Some(8), Some(7), None));
    }
}
