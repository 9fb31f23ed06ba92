//! The sentinel-extended sort key shared by the mesh sorters.
//!
//! Both sorters pad every node to exactly `h` slots, and columnsort's
//! shift phase pads the matrix at both ends. [`Key`] gives the padding
//! an order: `NegInf < Val(x) < PosInf`, so `PosInf` padding sorts after
//! every real key and drops off the tail when the buffers are unpacked.

/// Sentinel-extended key: `NegInf < Val(x) < PosInf`.
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
