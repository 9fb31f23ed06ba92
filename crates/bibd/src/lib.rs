//! The explicit `(q^d, q)`-Balanced Incomplete Block Design of
//! Pietracaprina–Preparata \[PP93a\] and the balanced subgraph selection of
//! the Appendix of Pietracaprina–Pucci–Sibeyn (TR-93-059 / SPAA 1994).
//!
//! # The design
//!
//! A `(m, q)`-BIBD (Definition 1 of the paper) is a bipartite graph
//! `G = (W, U; E)` with `|U| = m`, every input (node of `W`) of degree
//! exactly `q`, and every pair of outputs (nodes of `U`) sharing exactly
//! one common input neighbor (`λ = 1`).
//!
//! The explicit construction works over the finite field `F_q`
//! (`q` a prime power):
//!
//! - **Outputs** are the `q^d` points of the affine space `F_q^d`,
//!   encoded as base-`q` digit strings.
//! - **Inputs** are the *lines* of `F_q^d` in normalized form: a pair
//!   `Φ(h, A, B)` with `h ∈ [0, d)`, `A ∈ [0, q^{d-1})`, `B ∈ [0, q^h)`,
//!   standing for the point `a` (digits of `A` with a 0 inserted at
//!   position `h`) and direction `b` (digits of `B` below position `h`,
//!   a 1 at position `h`, zeros above).
//! - Input `Φ(h, A, B)` is adjacent to the `q` outputs `a + x·b`,
//!   `x ∈ F_q` — the `q` points of the line.
//!
//! Two distinct points determine exactly one line, giving `λ = 1`; each
//! output lies on `(q^d - 1)/(q - 1)` lines. The total number of inputs is
//! `f(d) = q^{d-1} (q^d - 1)/(q - 1)`.
//!
//! # Input ordering and the prefix property
//!
//! Inputs are numbered *B-major within blocks of equal `h`*:
//! `index(Φ(h, A, B)) = offset(h) + B·q^{d-1} + A` where
//! `offset(h) = q^{d-1}·(q^h - 1)/(q - 1)`. Under this ordering the
//! Appendix's balanced selection `V1 ∪ V2 ∪ V3` of `m` inputs is exactly
//! the prefix `[0, m)`: a [`BibdSubgraph`] is simply the design restricted
//! to the first `m` inputs, and Theorem 5 guarantees output degrees in
//! `{⌊qm/q^d⌋, ⌈qm/q^d⌉}`.
//!
//! # O(d) memory map
//!
//! Because exactly one input per `(h, B)` pair passes through any given
//! output, the *rank* of input `v = Φ(h, A, B)` among the selected inputs
//! adjacent to any of its outputs is the closed form
//! `(q^h - 1)/(q - 1) + B` — computable in `O(d)` time with no tables.
//! This is the "constant internal storage" memory-map representation the
//! paper inherits from \[PP93a\].

//!
//! # Example
//!
//! ```
//! use prasim_bibd::{Bibd, BibdSubgraph};
//!
//! // The (3², 3)-BIBD: 9 points of F_3², 12 lines.
//! let bibd = Bibd::new(3, 2).unwrap();
//! assert_eq!(bibd.num_inputs(), 12);
//! assert_eq!(bibd.neighbors(0).len(), 3); // every line has q points
//!
//! // The balanced 8-input subgraph (Theorem 5): all output degrees
//! // are ⌊24/9⌋ = 2 or ⌈24/9⌉ = 3.
//! let sg = BibdSubgraph::new(3, 2, 8).unwrap();
//! for u in 0..sg.num_outputs() {
//!     assert!((2..=3).contains(&sg.output_degree(u)));
//! }
//! ```

#![forbid(unsafe_code)]

pub mod design;
pub mod subgraph;
pub mod verify;

pub use design::Bibd;
pub use subgraph::BibdSubgraph;

/// Number of inputs of the full `(q^s, q)`-BIBD:
/// `f(s) = q^{s-1} · (q^s - 1)/(q - 1)`.
///
/// Returns `None` on overflow.
pub fn input_count(q: u64, s: u32) -> Option<u64> {
    if s == 0 {
        return Some(0);
    }
    let qs = q.checked_pow(s)?;
    let qs1 = q.checked_pow(s - 1)?;
    qs1.checked_mul((qs - 1) / (q - 1))
}

/// Smallest `s ≥ 1` with `f(s) ≥ m` (the paper picks the smallest BIBD
/// with at least the required number of inputs).
///
/// Returns `None` if no `s ≤ 64` satisfies the bound without overflow.
pub fn min_degree_for_inputs(q: u64, m: u64) -> Option<u32> {
    for s in 1..=64u32 {
        match input_count(q, s) {
            Some(f) if f >= m => return Some(s),
            Some(_) => continue,
            None => return None,
        }
    }
    None
}

/// Errors from BIBD construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BibdError {
    /// `q` is not a prime power supported by `prasim-gf`.
    BadOrder(prasim_gf::GfError),
    /// The dimension `d` is 0 (a design needs `d ≥ 1`).
    ZeroDimension,
    /// Requested parameters overflow `u64`.
    Overflow { q: u64, d: u32 },
    /// Subgraph requested more inputs than the full design has.
    TooManyInputs { requested: u64, available: u64 },
}

impl std::fmt::Display for BibdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BibdError::BadOrder(e) => write!(f, "invalid field order: {e}"),
            BibdError::ZeroDimension => write!(f, "d = 0: a BIBD needs d ≥ 1"),
            BibdError::Overflow { q, d } => write!(f, "BIBD({q}^{d}) overflows u64"),
            BibdError::TooManyInputs {
                requested,
                available,
            } => write!(
                f,
                "subgraph requested {requested} inputs but the design has only {available}"
            ),
        }
    }
}

impl std::error::Error for BibdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BibdError::BadOrder(e) => Some(e),
            _ => None,
        }
    }
}
