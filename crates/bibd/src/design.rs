//! The full `(q^d, q)`-BIBD construction.

use crate::{input_count, BibdError};
use prasim_gf::Gf;

/// A decoded input `Φ(h, A, B)` — a normalized line of `F_q^d`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Phi {
    /// Position of the pivot coordinate (`0 ≤ h < d`).
    pub h: u32,
    /// Base point selector, `A ∈ [0, q^{d-1})`.
    pub a: u64,
    /// Direction selector, `B ∈ [0, q^h)`.
    pub b: u64,
}

/// The explicit `(q^d, q)`-BIBD over `F_q^d`. See the crate docs for the
/// construction.
///
/// Outputs are integers in `[0, q^d)` (base-`q` encodings of points of
/// `F_q^d`); inputs are integers in `[0, f(d))` under the B-major block
/// ordering.
#[derive(Debug, Clone)]
pub struct Bibd {
    gf: Gf,
    q: u64,
    d: u32,
    num_outputs: u64,
    num_inputs: u64,
}

impl Bibd {
    /// Builds the `(q^d, q)`-BIBD. `q` must be a prime power and
    /// `d ≥ 1`; the input count `f(d)` must fit in `u64`.
    pub fn new(q: u64, d: u32) -> Result<Self, BibdError> {
        if d == 0 {
            return Err(BibdError::ZeroDimension);
        }
        let gf = Gf::new(q).map_err(BibdError::BadOrder)?;
        let num_outputs = q.checked_pow(d).ok_or(BibdError::Overflow { q, d })?;
        let num_inputs = input_count(q, d).ok_or(BibdError::Overflow { q, d })?;
        Ok(Bibd {
            gf,
            q,
            d,
            num_outputs,
            num_inputs,
        })
    }

    /// Field order `q` (the input degree).
    #[inline]
    pub fn q(&self) -> u64 {
        self.q
    }

    /// Dimension `d` (outputs are points of `F_q^d`).
    #[inline]
    pub fn d(&self) -> u32 {
        self.d
    }

    /// Number of outputs, `q^d`.
    #[inline]
    pub fn num_outputs(&self) -> u64 {
        self.num_outputs
    }

    /// Number of inputs, `f(d) = q^{d-1}(q^d-1)/(q-1)`.
    #[inline]
    pub fn num_inputs(&self) -> u64 {
        self.num_inputs
    }

    /// Degree of every output in the full design: `(q^d - 1)/(q - 1)`.
    #[inline]
    pub fn full_output_degree(&self) -> u64 {
        (self.num_outputs - 1) / (self.q - 1)
    }

    /// The underlying field.
    #[inline]
    pub fn field(&self) -> &Gf {
        &self.gf
    }

    /// Start index of block `h` in the input ordering:
    /// `offset(h) = q^{d-1}·(q^h - 1)/(q - 1)`.
    #[inline]
    pub fn block_offset(&self, h: u32) -> u64 {
        debug_assert!(h <= self.d);
        let qd1 = self.num_outputs / self.q; // q^{d-1}
        qd1 * ((self.q.pow(h) - 1) / (self.q - 1))
    }

    /// Decodes an input index into its `Φ(h, A, B)` representation.
    ///
    /// # Panics
    /// Panics (debug) if `v` is out of range.
    pub fn decode_input(&self, v: u64) -> Phi {
        debug_assert!(v < self.num_inputs, "input {v} out of range");
        let qd1 = self.num_outputs / self.q; // q^{d-1}
                                             // Block h has size q^{d-1} * q^h; find h by subtraction (d is tiny).
        let mut h = 0u32;
        let mut rem = v;
        let mut block = qd1;
        while rem >= block {
            rem -= block;
            block *= self.q;
            h += 1;
        }
        // Within the block, the ordering is B-major: index = B*q^{d-1} + A.
        Phi {
            h,
            a: rem % qd1,
            b: rem / qd1,
        }
    }

    /// Encodes `Φ(h, A, B)` back to its input index.
    pub fn encode_input(&self, phi: Phi) -> u64 {
        let qd1 = self.num_outputs / self.q;
        debug_assert!(phi.h < self.d);
        debug_assert!(phi.a < qd1);
        debug_assert!(phi.b < self.q.pow(phi.h));
        self.block_offset(phi.h) + phi.b * qd1 + phi.a
    }

    /// The `q` outputs adjacent to input `v`: the points `a + x·b` for
    /// every `x ∈ F_q`, in order of `x`. Runs in `O(q·d)` field ops.
    pub fn neighbors(&self, v: u64) -> Vec<u64> {
        let mut out = vec![0; self.q as usize];
        self.neighbors_into(v, &mut out);
        out
    }

    /// [`Self::neighbors`] written into `out` without allocating.
    ///
    /// # Panics
    /// Panics if `out.len() != q`.
    pub fn neighbors_into(&self, v: u64, out: &mut [u64]) {
        assert_eq!(out.len() as u64, self.q, "a line has q points");
        let phi = self.decode_input(v);
        for (x, u) in out.iter_mut().enumerate() {
            *u = self.point(phi, x as u64);
        }
    }

    /// The point `a + x·b` of line `phi`, `x ∈ F_q` — the one place the
    /// design evaluates a line. `b` has `B`'s digits below the pivot `h`,
    /// a 1 at `h` and 0 above; `a` has `A`'s digits with a 0 inserted at
    /// `h`. So the digits above the pivot are `A`'s, the pivot digit is
    /// `x`, and only the `h` digits below it need field arithmetic.
    /// O(h) field ops, no allocation.
    pub fn point(&self, phi: Phi, x: u64) -> u64 {
        debug_assert!(x < self.q);
        let q = self.q;
        let qh = q.pow(phi.h);
        let mut enc = phi.a / qh * qh * q + x * qh;
        let (mut a, mut b, mut place) = (phi.a, phi.b, 1u64);
        for _ in 0..phi.h {
            enc += self.gf.add(a % q, self.gf.mul(x, b % q)) * place;
            a /= q;
            b /= q;
            place *= q;
        }
        enc
    }

    /// The `x ∈ F_q` such that output `u` is the point `a + x·b` of line
    /// `v`, or `None` if `u` is not on the line. By construction this is
    /// simply the `h`-th digit of `u`, validated against the line.
    pub fn edge_parameter(&self, v: u64, u: u64) -> Option<u64> {
        let phi = self.decode_input(v);
        let x = self.digit(u, phi.h);
        if self.point(phi, x) == u {
            Some(x)
        } else {
            None
        }
    }

    /// All inputs adjacent to output `u` in the full design — one line per
    /// `(h, B)` pair, `(q^d - 1)/(q - 1)` in total, in increasing input
    /// order. Runs in `O(deg · d)`.
    pub fn inputs_of_output(&self, u: u64) -> Vec<u64> {
        debug_assert!(u < self.num_outputs);
        let mut out = Vec::with_capacity(self.full_output_degree() as usize);
        for h in 0..self.d {
            let count_b = self.q.pow(h);
            for b in 0..count_b {
                out.push(self.encode_input(self.line_through(u, h, b)));
            }
        }
        out
    }

    /// The unique line `Φ(h, A, B)` with pivot `h` and direction selector
    /// `B` passing through output `u`: take `x = u_h` and `a = u - x·b`.
    pub fn line_through(&self, u: u64, h: u32, b: u64) -> Phi {
        debug_assert!(u < self.num_outputs);
        debug_assert!(h < self.d);
        debug_assert!(b < self.q.pow(h));
        let q = self.q;
        let x = self.digit(u, h);
        // a_j = u_j - x * b_j; b has digits of B below h, 1 at h, 0 above.
        let mut a_enc = 0u64; // A = digits of a, skipping position h
        let mut mult = 1u64;
        let mut bv = b;
        for j in 0..self.d {
            let bj = if j < h {
                let digit = bv % q;
                bv /= q;
                digit
            } else if j == h {
                1
            } else {
                0
            };
            let aj = self.gf.sub(self.digit(u, j), self.gf.mul(x, bj));
            if j != h {
                a_enc += aj * mult;
                mult *= q;
            } else {
                debug_assert_eq!(aj, 0, "pivot digit of a must vanish");
            }
        }
        Phi { h, a: a_enc, b }
    }

    /// Base-`q` digit `i` of an output encoding.
    #[inline]
    pub fn digit(&self, u: u64, i: u32) -> u64 {
        (u / self.q.pow(i)) % self.q
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        let b = Bibd::new(3, 2).unwrap();
        assert_eq!(b.num_outputs(), 9);
        assert_eq!(b.num_inputs(), 3 * 4); // q^{d-1} (q^d-1)/(q-1) = 3*4
        assert_eq!(b.full_output_degree(), 4);

        let b = Bibd::new(3, 3).unwrap();
        assert_eq!(b.num_outputs(), 27);
        assert_eq!(b.num_inputs(), 9 * 13);
        assert_eq!(b.full_output_degree(), 13);

        let b = Bibd::new(4, 2).unwrap();
        assert_eq!(b.num_outputs(), 16);
        assert_eq!(b.num_inputs(), 4 * 5);
        assert_eq!(b.full_output_degree(), 5);
    }

    #[test]
    fn encode_decode_roundtrip() {
        for &(q, d) in &[(2u64, 3u32), (3, 2), (3, 3), (4, 2), (5, 2), (8, 2), (9, 2)] {
            let bibd = Bibd::new(q, d).unwrap();
            for v in 0..bibd.num_inputs() {
                let phi = bibd.decode_input(v);
                assert!(phi.h < d);
                assert!(phi.a < q.pow(d - 1));
                assert!(phi.b < q.pow(phi.h));
                assert_eq!(bibd.encode_input(phi), v, "roundtrip failed for {v}");
            }
        }
    }

    #[test]
    fn input_degree_is_q_and_neighbors_distinct() {
        for &(q, d) in &[(2u64, 2u32), (3, 2), (3, 3), (4, 2), (5, 2), (7, 2), (9, 2)] {
            let bibd = Bibd::new(q, d).unwrap();
            for v in 0..bibd.num_inputs() {
                let nb = bibd.neighbors(v);
                assert_eq!(nb.len(), q as usize);
                let mut sorted = nb.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), q as usize, "repeated neighbor for input {v}");
                for &u in &nb {
                    assert!(u < bibd.num_outputs());
                }
            }
        }
    }

    #[test]
    fn inputs_of_output_inverts_neighbors() {
        for &(q, d) in &[(3u64, 2u32), (3, 3), (4, 2), (5, 2)] {
            let bibd = Bibd::new(q, d).unwrap();
            for u in 0..bibd.num_outputs() {
                let ins = bibd.inputs_of_output(u);
                assert_eq!(ins.len() as u64, bibd.full_output_degree());
                // Sorted and unique by construction of the enumeration.
                for w in ins.windows(2) {
                    assert!(w[0] < w[1]);
                }
                for &v in &ins {
                    assert!(
                        bibd.neighbors(v).contains(&u),
                        "claimed line {v} does not pass through {u}"
                    );
                }
            }
            // Double counting: sum of output degrees == q * inputs.
            let total: u64 = (0..bibd.num_outputs())
                .map(|u| bibd.inputs_of_output(u).len() as u64)
                .sum();
            assert_eq!(total, bibd.num_inputs() * q);
        }
    }

    #[test]
    fn lambda_is_one_small() {
        // Exhaustive λ = 1 check for small designs.
        for &(q, d) in &[(2u64, 2u32), (3, 2), (4, 2), (2, 3), (5, 2)] {
            let bibd = Bibd::new(q, d).unwrap();
            let n_out = bibd.num_outputs();
            for u1 in 0..n_out {
                for u2 in (u1 + 1)..n_out {
                    let i1 = bibd.inputs_of_output(u1);
                    let i2 = bibd.inputs_of_output(u2);
                    let common = i1.iter().filter(|v| i2.contains(v)).count();
                    assert_eq!(common, 1, "λ != 1 for outputs {u1}, {u2} in ({q},{d})");
                }
            }
        }
    }

    #[test]
    fn edge_parameter_consistency() {
        let bibd = Bibd::new(3, 3).unwrap();
        for v in 0..bibd.num_inputs() {
            for (x, &u) in bibd.neighbors(v).iter().enumerate() {
                assert_eq!(bibd.edge_parameter(v, u), Some(x as u64));
            }
        }
        // Non-adjacent pair.
        let nb = bibd.neighbors(0);
        let non = (0..bibd.num_outputs()).find(|u| !nb.contains(u)).unwrap();
        assert_eq!(bibd.edge_parameter(0, non), None);
    }

    /// The digit-vector evaluation of a line (`a + x·b` coordinate by
    /// coordinate), the textbook form [`Bibd::point`] shortcuts.
    fn point_by_digit_vectors(bibd: &Bibd, phi: Phi, x: u64) -> u64 {
        let (q, d, h) = (bibd.q(), bibd.d() as usize, phi.h as usize);
        let (mut a_dig, mut b_dig) = (vec![0u64; d], vec![0u64; d]);
        let mut av = phi.a;
        for (_, slot) in a_dig.iter_mut().enumerate().filter(|&(j, _)| j != h) {
            *slot = av % q;
            av /= q;
        }
        let mut bv = phi.b;
        for slot in b_dig.iter_mut().take(h) {
            *slot = bv % q;
            bv /= q;
        }
        b_dig[h] = 1;
        let gf = bibd.field();
        (0..d)
            .rev()
            .fold(0, |enc, j| enc * q + gf.add(a_dig[j], gf.mul(x, b_dig[j])))
    }

    #[test]
    fn point_matches_digit_vector_evaluation() {
        for &(q, d) in &[
            (2u64, 3u32),
            (3, 2),
            (3, 3),
            (3, 5),
            (4, 3),
            (5, 2),
            (7, 2),
            (8, 2),
            (9, 2),
        ] {
            let bibd = Bibd::new(q, d).unwrap();
            let mut into = vec![0; q as usize];
            for v in 0..bibd.num_inputs() {
                let phi = bibd.decode_input(v);
                bibd.neighbors_into(v, &mut into);
                for x in 0..q {
                    let want = point_by_digit_vectors(&bibd, phi, x);
                    assert_eq!(bibd.point(phi, x), want, "({q},{d}) input {v}, x = {x}");
                    assert_eq!(into[x as usize], want);
                }
            }
        }
    }

    #[test]
    fn d1_design_is_single_line() {
        // d = 1: one input (the only line), q outputs.
        let bibd = Bibd::new(5, 1).unwrap();
        assert_eq!(bibd.num_inputs(), 1);
        assert_eq!(bibd.num_outputs(), 5);
        let nb = bibd.neighbors(0);
        let mut sorted = nb.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }
}
