//! Finite-field arithmetic for the BIBD constructions of `prasim`.
//!
//! The explicit Balanced Incomplete Block Design of Pietracaprina–Preparata
//! (used at every level of the Hierarchical Memory Organization Scheme) is
//! defined over the finite field `F_q` for an arbitrary prime power
//! `q = p^e`. This crate provides:
//!
//! - prime / prime-power recognition ([`primes`]),
//! - dense polynomial arithmetic over prime fields ([`poly`]),
//! - a complete field implementation [`Gf`] for any prime power `q`
//!   (realistically `q ≤ 2^16`; the simulation only ever uses tiny `q`,
//!   typically 3), with exp/log tables for O(1) multiplication and
//!   inversion ([`field`]).
//!
//! Field elements are represented as `u64` values in `[0, q)`. For prime
//! fields these are the usual residues; for extension fields `GF(p^e)` the
//! value encodes the coefficient vector of the residue polynomial in base
//! `p` (coefficient of `x^i` is the `i`-th base-`p` digit). This encoding
//! makes *addition* digit-wise mod `p` and keeps elements `Copy`.
//!
//! # Example
//!
//! ```
//! use prasim_gf::Gf;
//!
//! let f9 = Gf::new(9).unwrap(); // GF(3^2)
//! let a = 5; // x + 2 in base-3 encoding (digits 2,1)
//! let b = 7; // 2x + 1
//! let c = f9.mul(a, b);
//! assert_eq!(f9.div(c, b), a);
//! assert_eq!(f9.add(a, f9.neg(a)), 0);
//! ```

#![forbid(unsafe_code)]

pub mod field;
pub mod poly;
pub mod primes;

pub use field::Gf;
pub use primes::{is_prime, prime_power};

/// Errors produced when constructing a finite field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GfError {
    /// The requested order is not a prime power (or is 0/1).
    NotPrimePower(u64),
    /// The requested order exceeds the supported table size.
    TooLarge(u64),
}

impl std::fmt::Display for GfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GfError::NotPrimePower(q) => write!(f, "{q} is not a prime power"),
            GfError::TooLarge(q) => write!(f, "field order {q} exceeds supported maximum"),
        }
    }
}

impl std::error::Error for GfError {}
