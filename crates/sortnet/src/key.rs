//! The sentinel-extended key of the kernel-level sort interface.
//!
//! The pair entry [`crate::Sorter::sort_pairs`] hands the kernels 4-byte
//! ranks padded with `u32::MAX` (see [`mod@crate::sorter`]). [`Key`]
//! serves the callers that pad a buffer of real keys themselves — the
//! hidden per-node `ExecCtx::sort` adapter and the tests that pin the
//! rank path against a kernel run on the keys. It gives the padding an
//! order, `NegInf < Val(x) < PosInf`, so `PosInf` padding sorts after
//! every real key and drops off the tail of the sorted buffer.

/// Sentinel-extended key: `NegInf < Val(x) < PosInf`.
// No caller pads with `NegInf`. The variant stays for speed: with only
// two variants the derived order compiles to a slower comparison, and
// `sort_unstable` on `Key<(u32, u32)>` took about 1.5x as long (rustc
// 1.95, x86-64). Only the adapter's and the tests' sorts run on `Key`.
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
