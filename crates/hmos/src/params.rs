//! HMOS level parameters: the `d_i` recursion and the module counts of
//! Section 3.1, with the validity constraints of Section 3.3.
//!
//! Given the redundancy base `q` (a prime power ≥ 3), the number of
//! levels `k ≥ 1`, the mesh size `n` (a perfect square) and a requested
//! shared-memory size, the parameters are
//!
//! - `d_1 = d` where `f(d) = q^{d-1}(q^d-1)/(q-1)` is the smallest input
//!   count ≥ the requested memory (the achieved memory is exactly `f(d)`,
//!   giving `α = log_n f(d)`);
//! - `d_{i+1} = ⌈d_i/2⌉ + 1`;
//! - `|U_0| = f(d)` variables and `|U_i| = q^{d_i}` level-`i` modules;
//! - level-`i` modules have `q^{k-i}` pages each, so level `i` needs
//!   `q^{k-i}·|U_i| ≤ n` mesh nodes (the `t_i ≥ 1` constraint, equivalent
//!   to the paper's `α < 2(1 - (k-1)/log_q n)` in the regime it studies).

use prasim_gf::prime_power;

/// The most replication levels a scheme may have. A copy's page path
/// (one page instance per level) is stored inline, in
/// [`crate::scheme::Instances`], so resolving copies never allocates.
pub const MAX_LEVELS: u32 = 8;

/// Errors from parameter derivation.
#[derive(Debug, Clone, PartialEq)]
pub enum HmosError {
    /// `q` must be a prime power ≥ 3 (the hierarchical majority rule
    /// needs `⌊q/2⌋ + 2 ≤ q`).
    BadQ(u64),
    /// `k` must be in `1..=`[`MAX_LEVELS`], and the `q^k` copies of a
    /// variable must be countable in a `u64`.
    BadK(u32),
    /// `d` must be at least 1.
    BadD(u32),
    /// `n` must be a perfect square (square mesh).
    NotSquare(u64),
    /// The requested memory size overflows the construction.
    MemoryTooLarge(u64),
    /// Level `level` needs more submeshes than the mesh has nodes
    /// (`t_level < 1`); reduce memory (α), `k`, or grow the mesh.
    LevelTooCrowded {
        /// The offending level.
        level: u32,
        /// Pages the level must host.
        pages: u64,
        /// Mesh nodes available.
        nodes: u64,
    },
}

impl std::fmt::Display for HmosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HmosError::BadQ(q) => write!(f, "q = {q} must be a prime power ≥ 3"),
            HmosError::BadK(k) => write!(
                f,
                "k = {k} must be in 1..={MAX_LEVELS}, with q^k copies per variable fitting in u64"
            ),
            HmosError::BadD(d) => write!(f, "d = {d} must be ≥ 1"),
            HmosError::NotSquare(n) => write!(f, "mesh size {n} is not a perfect square"),
            HmosError::MemoryTooLarge(m) => write!(f, "memory size {m} overflows the construction"),
            HmosError::LevelTooCrowded {
                level,
                pages,
                nodes,
            } => write!(
                f,
                "level {level} needs {pages} pages but the mesh has only {nodes} nodes \
                 (α too large for this n, q, k)"
            ),
        }
    }
}

impl std::error::Error for HmosError {}

/// Checks the redundancy base: a prime power ≥ 3.
fn check_q(q: u64) -> Result<(), HmosError> {
    match prime_power(q) {
        Some(_) if q >= 3 => Ok(()),
        _ => Err(HmosError::BadQ(q)),
    }
}

/// Derived HMOS parameters. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct HmosParams {
    /// Redundancy base (prime power ≥ 3).
    pub q: u64,
    /// Number of replication levels.
    pub k: u32,
    /// Mesh nodes (perfect square).
    pub n: u64,
    /// `d_i` for `i = 1..=k` (`d[0]` is `d_1`).
    pub d: Vec<u32>,
    /// Number of variables `|U_0| = f(d_1)` (≥ the requested memory).
    pub num_variables: u64,
    /// Module counts `|U_i| = q^{d_i}` for `i = 1..=k` (`m[0]` is `|U_1|`).
    pub m: Vec<u64>,
}

impl HmosParams {
    /// Derives parameters for a memory of at least `mem_request` cells.
    pub fn new(q: u64, k: u32, n: u64, mem_request: u64) -> Result<Self, HmosError> {
        // `q` first: the degree search below divides by `q - 1`.
        check_q(q)?;
        let d1 = prasim_bibd::min_degree_for_inputs(q, mem_request.max(1))
            .ok_or(HmosError::MemoryTooLarge(mem_request))?;
        Self::with_d(q, k, n, d1)
    }

    /// Derives parameters for an explicit `d_1 = d` (memory `f(d)`).
    pub fn with_d(q: u64, k: u32, n: u64, d1: u32) -> Result<Self, HmosError> {
        check_q(q)?;
        if !(1..=MAX_LEVELS).contains(&k) || q.checked_pow(k).is_none() {
            return Err(HmosError::BadK(k));
        }
        if d1 < 1 {
            return Err(HmosError::BadD(d1));
        }
        let side = (n as f64).sqrt().round() as u64;
        if side * side != n || n == 0 {
            return Err(HmosError::NotSquare(n));
        }
        let num_variables =
            prasim_bibd::input_count(q, d1).ok_or(HmosError::MemoryTooLarge(u64::MAX))?;

        let mut d = Vec::with_capacity(k as usize);
        let mut m = Vec::with_capacity(k as usize);
        let mut di = d1;
        for i in 1..=k {
            d.push(di);
            let mi = q
                .checked_pow(di)
                .ok_or(HmosError::MemoryTooLarge(num_variables))?;
            m.push(mi);
            // Only the top tessellation is a hard constraint (one
            // submesh per level-k module); lower levels may share nodes
            // when crowded (see `prasim-hmos::scheme` and
            // [`HmosParams::crowded_levels`]), matching the graceful
            // degradation of a real machine when `t_i < 1`.
            let pages = q
                .checked_pow(k - i)
                .and_then(|pages_per_module| mi.checked_mul(pages_per_module))
                .ok_or(HmosError::MemoryTooLarge(num_variables))?;
            if i == k && pages > n {
                return Err(HmosError::LevelTooCrowded {
                    level: i,
                    pages,
                    nodes: n,
                });
            }
            di = di.div_ceil(2) + 1;
        }
        Ok(HmosParams {
            q,
            k,
            n,
            d,
            num_variables,
            m,
        })
    }

    /// Redundancy: copies per variable, `q^k`.
    pub fn redundancy(&self) -> u64 {
        self.q.pow(self.k)
    }

    /// The achieved memory exponent `α = log_n |U_0|`.
    pub fn alpha(&self) -> f64 {
        (self.num_variables as f64).ln() / (self.n as f64).ln()
    }

    /// Module count at level `i` (`0` = variables).
    pub fn modules_at(&self, level: u32) -> u64 {
        if level == 0 {
            self.num_variables
        } else {
            self.m[level as usize - 1]
        }
    }

    /// Total page count at level `i ∈ [1, k]`: `q^{k-i}·|U_i|`.
    pub fn pages_at(&self, level: u32) -> u64 {
        debug_assert!((1..=self.k).contains(&level));
        self.m[level as usize - 1] * self.q.pow(self.k - level)
    }

    /// Majority threshold `⌊q/2⌋ + 1` (Definition 2).
    pub fn majority(&self) -> u64 {
        self.q / 2 + 1
    }

    /// Extensive-access threshold `⌊q/2⌋ + 2` (Section 3.2).
    pub fn extensive(&self) -> u64 {
        self.q / 2 + 2
    }

    /// Levels whose total page count exceeds the mesh (`t_i < 1`): the
    /// scheme still builds (pages share nodes, copies stack in slots),
    /// but the paper's `α < 2(1 - (k-1)/log_q n)` regime is violated and
    /// the protocol's congestion bounds degrade accordingly.
    pub fn crowded_levels(&self) -> Vec<u32> {
        (1..=self.k)
            .filter(|&i| self.pages_at(i) > self.n)
            .collect()
    }

    /// The paper's Eq. (1) constant: `|U_i| = c·n^{α/2^i}` with
    /// `c ∈ [q/2, q^3]`. Returns the realized `c` for each level.
    pub fn eq1_constants(&self) -> Vec<f64> {
        let alpha = self.alpha();
        (1..=self.k)
            .map(|i| {
                let expect = (self.n as f64).powf(alpha / 2f64.powi(i as i32));
                self.m[i as usize - 1] as f64 / expect
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derives_textbook_parameters() {
        // q=3, n=1024, d=5: f(5) = 81·121 = 9801 variables.
        let p = HmosParams::with_d(3, 2, 1024, 5).unwrap();
        assert_eq!(p.num_variables, 9801);
        assert_eq!(p.d, vec![5, 4]); // d2 = ceil(5/2)+1 = 4
        assert_eq!(p.m, vec![243, 81]);
        assert_eq!(p.redundancy(), 9);
        assert_eq!(p.pages_at(1), 729);
        assert_eq!(p.pages_at(2), 81);
        assert!((p.alpha() - 1.3258).abs() < 1e-3);
    }

    #[test]
    fn d_sequence_reaches_fixed_point() {
        // d_{i+1} = ceil(d_i/2)+1 has fixed point 3 (and 2 from below).
        let p = HmosParams::with_d(3, 4, 65536, 6).unwrap();
        assert_eq!(p.d, vec![6, 4, 3, 3]);
    }

    #[test]
    fn memory_request_rounds_up() {
        let p = HmosParams::new(3, 2, 1024, 5000).unwrap();
        assert_eq!(p.d[0], 5); // f(4)=1080 < 5000 ≤ f(5)=9801
        assert_eq!(p.num_variables, 9801);
    }

    #[test]
    fn rejects_bad_q() {
        assert!(matches!(
            HmosParams::with_d(2, 2, 1024, 4),
            Err(HmosError::BadQ(2))
        ));
        assert!(matches!(
            HmosParams::with_d(6, 2, 1024, 4),
            Err(HmosError::BadQ(6))
        ));
        assert!(HmosParams::with_d(4, 2, 1024, 4).is_ok());
        assert!(HmosParams::with_d(5, 1, 1024, 3).is_ok());
    }

    #[test]
    fn rejects_bad_k_with_a_typed_error() {
        assert_eq!(HmosParams::with_d(3, 0, 1024, 4), Err(HmosError::BadK(0)));
        assert_eq!(
            HmosParams::with_d(3, MAX_LEVELS + 1, 1024, 4),
            Err(HmosError::BadK(MAX_LEVELS + 1))
        );
        assert_eq!(
            HmosParams::with_d(3, u32::MAX, 1024, 4),
            Err(HmosError::BadK(u32::MAX))
        );
        // q^k overflows u64: 65536^8 = 2^128.
        assert_eq!(
            HmosParams::with_d(65536, MAX_LEVELS, 1 << 40, 1),
            Err(HmosError::BadK(MAX_LEVELS))
        );
        // Large q at a legal k: the per-level page counts overflow into
        // a typed error, not a panic.
        assert!(HmosParams::with_d(65536, 4, 1 << 40, 1).is_err());
        assert!(HmosParams::with_d(3, MAX_LEVELS, 1 << 20, 1).is_ok());
    }

    #[test]
    fn rejects_non_square_mesh() {
        assert!(matches!(
            HmosParams::with_d(3, 2, 1000, 4),
            Err(HmosError::NotSquare(1000))
        ));
    }

    #[test]
    fn crowded_levels_flagged_but_allowed() {
        // n=1024, k=2, d=6: level 1 needs 3^6·3 = 2187 pages > 1024 —
        // allowed (pages share nodes) but reported as crowded.
        let p = HmosParams::with_d(3, 2, 1024, 6).unwrap();
        assert_eq!(p.crowded_levels(), vec![1]);
        let ok = HmosParams::with_d(3, 2, 1024, 5).unwrap();
        assert!(ok.crowded_levels().is_empty());
    }

    #[test]
    fn rejects_crowded_top_level() {
        // The top tessellation (one submesh per level-k module) is hard:
        // n = 16 cannot host 27 level-2 modules.
        let err = HmosParams::with_d(3, 2, 16, 4).unwrap_err();
        assert!(matches!(err, HmosError::LevelTooCrowded { level: 2, .. }));
    }

    #[test]
    fn eq1_constants_within_paper_range() {
        for (n, d, k) in [(1024u64, 5u32, 2u32), (4096, 6, 2), (4096, 5, 3)] {
            let p = match HmosParams::with_d(3, k, n, d) {
                Ok(p) => p,
                Err(_) => continue,
            };
            for (i, &c) in p.eq1_constants().iter().enumerate() {
                assert!(
                    (3.0 / 2.0 / 3.0..=27.0 * 3.0).contains(&c),
                    "n={n} d={d} level {}: c = {c}",
                    i + 1
                );
            }
        }
    }

    #[test]
    fn thresholds() {
        let p = HmosParams::with_d(3, 2, 1024, 4).unwrap();
        assert_eq!(p.majority(), 2);
        assert_eq!(p.extensive(), 3);
        let p5 = HmosParams::with_d(5, 1, 1024, 3).unwrap();
        assert_eq!(p5.majority(), 3);
        assert_eq!(p5.extensive(), 4);
    }

    #[test]
    fn alpha_monotone_in_d() {
        let a1 = HmosParams::with_d(3, 2, 4096, 4).unwrap().alpha();
        let a2 = HmosParams::with_d(3, 2, 4096, 5).unwrap().alpha();
        let a3 = HmosParams::with_d(3, 2, 4096, 6).unwrap().alpha();
        assert!(a1 < a2 && a2 < a3);
    }
}
