//! The sentinel-extended key of the sort layer.
//!
//! [`crate::Sorter::sort_pairs`] pads every node to exactly `h` slots
//! before a kernel runs. [`Key`] gives the padding an order:
//! `NegInf < Val(x) < PosInf`, so `PosInf` padding sorts after every real
//! key and drops off the tail of the sorted buffer.

/// Sentinel-extended key: `NegInf < Val(x) < PosInf`.
// No caller pads with `NegInf`. The variant stays for speed: with only
// two variants the derived order compiles to a slower comparison, and
// `sort_unstable` on `Key<(u32, u32)>` (the protocol's stage sort) took
// about 1.5x as long (rustc 1.95, x86-64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key<T> {
    /// Sorts before every real key.
    NegInf,
    /// A real key.
    Val(T),
    /// Sorts after every real key (node padding).
    PosInf,
}

impl<T> Key<T> {
    /// The real key, or `None` for a sentinel.
    #[inline]
    pub fn val(self) -> Option<T> {
        match self {
            Key::Val(x) => Some(x),
            _ => None,
        }
    }
}
