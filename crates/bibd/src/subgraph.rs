//! Balanced subgraphs of the full BIBD (Appendix of the paper).
//!
//! Given a target input count `m ≤ f(d)`, the Appendix selects the inputs
//! `V1 ∪ V2 ∪ V3`, which under this crate's input ordering is exactly the
//! prefix `[0, m)`. Theorem 5 guarantees that the resulting output degrees
//! are as balanced as possible: `ρ(u) ∈ {⌊qm/q^d⌋, ⌈qm/q^d⌉}`.

use crate::design::{Bibd, Phi};
use crate::BibdError;

/// A subgraph of a `(q^d, q)`-BIBD keeping all `q^d` outputs and the first
/// `m` inputs (the Appendix's `V1 ∪ V2 ∪ V3` selection).
#[derive(Debug, Clone)]
pub struct BibdSubgraph {
    bibd: Bibd,
    m: u64,
    /// Largest `l` with `q^{d-1}(q^l-1)/(q-1) ≤ m` (Eq. 11); `l = d` means
    /// the subgraph is the full design.
    l: u32,
    /// Number of complete `B`-slices selected in block `l` (Eq. 11).
    w: u64,
    /// Number of `A` values selected in slice `(h=l, B=w)` (Eq. 11).
    z: u64,
}

impl BibdSubgraph {
    /// Builds the balanced `m`-input subgraph of the `(q^d, q)`-BIBD.
    pub fn new(q: u64, d: u32, m: u64) -> Result<Self, BibdError> {
        let bibd = Bibd::new(q, d)?;
        Self::from_design(bibd, m)
    }

    /// Like [`Self::new`] but reusing an existing design.
    pub fn from_design(bibd: Bibd, m: u64) -> Result<Self, BibdError> {
        if m > bibd.num_inputs() {
            return Err(BibdError::TooManyInputs {
                requested: m,
                available: bibd.num_inputs(),
            });
        }
        let q = bibd.q();
        let qd1 = bibd.num_outputs() / q; // q^{d-1}
                                          // Find l: the block index in which input m-1 falls (or d if all
                                          // blocks are complete). block_offset(l) <= m < block_offset(l+1).
        let mut l = 0u32;
        while l < bibd.d() && bibd.block_offset(l + 1) <= m {
            l += 1;
        }
        let rem = m - bibd.block_offset(l);
        let (w, z) = (rem / qd1, rem % qd1);
        debug_assert!(l == bibd.d() || w < q.pow(l));
        debug_assert!(l < bibd.d() || (w == 0 && z == 0));
        Ok(BibdSubgraph { bibd, m, l, w, z })
    }

    /// The underlying full design.
    #[inline]
    pub fn design(&self) -> &Bibd {
        &self.bibd
    }

    /// Number of selected inputs.
    #[inline]
    pub fn num_inputs(&self) -> u64 {
        self.m
    }

    /// Number of outputs, `q^d`.
    #[inline]
    pub fn num_outputs(&self) -> u64 {
        self.bibd.num_outputs()
    }

    /// Input degree `q`.
    #[inline]
    pub fn q(&self) -> u64 {
        self.bibd.q()
    }

    /// The Eq.-11 decomposition `(l, w, z)` of `m`.
    #[inline]
    pub fn decomposition(&self) -> (u32, u64, u64) {
        (self.l, self.w, self.z)
    }

    /// Whether input `v` is selected (inputs are the prefix `[0, m)`).
    #[inline]
    pub fn contains_input(&self, v: u64) -> bool {
        v < self.m
    }

    /// The `q` outputs adjacent to selected input `v`, in edge-parameter
    /// order. O(q·d).
    pub fn neighbors(&self, v: u64) -> Vec<u64> {
        debug_assert!(self.contains_input(v));
        self.bibd.neighbors(v)
    }

    /// [`Self::neighbors`] written into `out` (`out.len() == q`) without
    /// allocating.
    pub fn neighbors_into(&self, v: u64, out: &mut [u64]) {
        debug_assert!(self.contains_input(v));
        self.bibd.neighbors_into(v, out);
    }

    /// Theoretical lower/upper output-degree bounds of Theorem 5:
    /// `(⌊qm/q^d⌋, ⌈qm/q^d⌉)`.
    pub fn degree_bounds(&self) -> (u64, u64) {
        let q = self.q();
        let lo = q * self.m / self.num_outputs();
        let hi = (q * self.m).div_ceil(self.num_outputs());
        (lo, hi)
    }

    /// Exact degree of output `u` in the subgraph, computed in O(d) by the
    /// closed form of Theorem 5's proof: `(q^l - 1)/(q - 1) + w`, plus one
    /// if `u` is adjacent to one of the `z` inputs of `V3`.
    pub fn output_degree(&self, u: u64) -> u64 {
        let q = self.q();
        let base = (q.pow(self.l) - 1) / (q - 1) + self.w;
        if self.l < self.bibd.d() && self.z > 0 {
            // The unique line with pivot l and direction w through u is in
            // V3 iff its A-value is below z.
            let phi = self.bibd.line_through(u, self.l, self.w);
            if phi.a < self.z {
                return base + 1;
            }
        }
        base
    }

    /// Rank of selected input `v` among the selected inputs adjacent to
    /// any of its neighboring outputs, in increasing input order.
    ///
    /// Because exactly one input per `(h, B)` slice passes through a given
    /// output, the rank is independent of *which* neighbor and equals
    /// `(q^h - 1)/(q - 1) + B` — O(d), no tables. This is the key to the
    /// paper's space-efficient memory map.
    pub fn rank_of_input(&self, v: u64) -> u64 {
        debug_assert!(self.contains_input(v));
        self.rank_of_line(self.bibd.decode_input(v))
    }

    /// [`Self::rank_of_input`] for an input already decoded with
    /// [`Bibd::decode_input`].
    #[inline]
    pub fn rank_of_line(&self, phi: Phi) -> u64 {
        let q = self.q();
        (q.pow(phi.h) - 1) / (q - 1) + phi.b
    }

    /// All selected inputs adjacent to output `u`, in increasing input
    /// order (so position in this list == [`Self::rank_of_input`]).
    /// O(deg·d).
    pub fn inputs_of_output(&self, u: u64) -> Vec<u64> {
        let q = self.q();
        let mut out = Vec::new();
        let full_blocks = self.l.min(self.bibd.d());
        for h in 0..full_blocks {
            for b in 0..q.pow(h) {
                out.push(self.bibd.encode_input(self.bibd.line_through(u, h, b)));
            }
        }
        if self.l < self.bibd.d() {
            for b in 0..self.w {
                out.push(self.bibd.encode_input(self.bibd.line_through(u, self.l, b)));
            }
            if self.z > 0 {
                let phi = self.bibd.line_through(u, self.l, self.w);
                if phi.a < self.z {
                    out.push(self.bibd.encode_input(phi));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_subgraph(q: u64, d: u32, m: u64) {
        let sg = BibdSubgraph::new(q, d, m).unwrap();
        let (lo, hi) = sg.degree_bounds();
        let mut degree_sum = 0u64;
        for u in 0..sg.num_outputs() {
            let deg = sg.output_degree(u);
            assert!(
                deg == lo || deg == hi,
                "({q},{d},m={m}): output {u} degree {deg} outside [{lo},{hi}]"
            );
            let ins = sg.inputs_of_output(u);
            assert_eq!(
                ins.len() as u64,
                deg,
                "enumeration disagrees with closed form"
            );
            // Sorted, selected, adjacent, and ranks match positions.
            let mut into = vec![0; q as usize];
            for (pos, &v) in ins.iter().enumerate() {
                assert!(sg.contains_input(v));
                assert!(sg.neighbors(v).contains(&u));
                sg.neighbors_into(v, &mut into);
                assert_eq!(into, sg.neighbors(v));
                assert_eq!(
                    sg.rank_of_input(v),
                    pos as u64,
                    "({q},{d},m={m}): rank mismatch for input {v} at output {u}"
                );
            }
            for w in ins.windows(2) {
                assert!(w[0] < w[1]);
            }
            degree_sum += deg;
        }
        // Double counting.
        assert_eq!(degree_sum, q * m);
    }

    #[test]
    fn balanced_degrees_sweep_q3_d2() {
        let full = crate::input_count(3, 2).unwrap(); // 12
        for m in 1..=full {
            check_subgraph(3, 2, m);
        }
    }

    #[test]
    fn balanced_degrees_sweep_q3_d3() {
        let full = crate::input_count(3, 3).unwrap(); // 117
        for m in (1..=full).step_by(7) {
            check_subgraph(3, 3, m);
        }
        check_subgraph(3, 3, full);
    }

    #[test]
    fn balanced_degrees_other_orders() {
        for &(q, d) in &[(2u64, 3u32), (4, 2), (5, 2), (7, 2), (8, 2), (9, 2)] {
            let full = crate::input_count(q, d).unwrap();
            for m in [1, 2, full / 3, full / 2, full - 1, full] {
                if m >= 1 {
                    check_subgraph(q, d, m);
                }
            }
        }
    }

    #[test]
    fn full_subgraph_matches_design() {
        let full = crate::input_count(3, 3).unwrap();
        let sg = BibdSubgraph::new(3, 3, full).unwrap();
        assert_eq!(sg.decomposition().0, 3); // l = d
        let bibd = Bibd::new(3, 3).unwrap();
        for u in 0..sg.num_outputs() {
            assert_eq!(sg.inputs_of_output(u), bibd.inputs_of_output(u));
            assert_eq!(sg.output_degree(u), bibd.full_output_degree());
        }
    }

    #[test]
    fn too_many_inputs_rejected() {
        let full = crate::input_count(3, 2).unwrap();
        assert!(matches!(
            BibdSubgraph::new(3, 2, full + 1),
            Err(BibdError::TooManyInputs { .. })
        ));
    }

    #[test]
    fn decomposition_matches_eq11() {
        // m = q^{d-1}((q^l-1)/(q-1) + w) + z
        for &(q, d) in &[(3u64, 3u32), (4, 2), (5, 2)] {
            let full = crate::input_count(q, d).unwrap();
            let qd1 = q.pow(d - 1);
            for m in 1..=full {
                let sg = BibdSubgraph::new(q, d, m).unwrap();
                let (l, w, z) = sg.decomposition();
                assert_eq!(qd1 * ((q.pow(l) - 1) / (q - 1) + w) + z, m);
                if l < d {
                    assert!(w < q.pow(l));
                    assert!(z < qd1);
                }
            }
        }
    }
}
