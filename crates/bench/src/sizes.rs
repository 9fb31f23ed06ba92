//! The problem sizes `reproduce` runs its tables at. The `reproduce`
//! binary hands them to the table builders, and the `route_costs`
//! generator enumerates the simulator configurations they imply, so the
//! committed route-cost table follows any change made here.

use prasim_bibd::input_count;

/// T1's and T5's `(n, d)` series at `q = 3`, `k = 2`: `d` grows with
/// `n`, holding `α ≈ 1.33–1.42`. T2 and T17 route and sort on the same
/// meshes. `full` adds n = 65536.
pub fn t1_sizes(quick: bool, full: bool) -> Vec<(u64, u32)> {
    let mut sizes = if quick {
        vec![(256, 4), (1024, 5)]
    } else {
        vec![(256, 4), (1024, 5), (4096, 6), (16384, 7)]
    };
    if full {
        sizes.push((65536, 8));
    }
    sizes
}

/// T2's mesh sizes.
pub fn t2_ns(quick: bool) -> Vec<u64> {
    if quick {
        vec![256, 1024]
    } else {
        vec![256, 1024, 4096, 16384]
    }
}

/// T3's mesh sizes.
pub fn t3_ns(quick: bool) -> Vec<u64> {
    if quick {
        vec![1024]
    } else {
        vec![1024, 4096, 16384]
    }
}

/// T4's and T15's `(n, d)` at `q = 3`, `k = 2`.
pub fn t4_size(quick: bool) -> (u64, u32) {
    if quick {
        (1024, 5)
    } else {
        (4096, 6)
    }
}

/// T9's `(n, d)` at `q = 3`; `k` sweeps [`T9_KS`].
pub fn t9_size(quick: bool) -> (u64, u32) {
    (if quick { 1024 } else { 4096 }, 5)
}

/// T9's level counts.
pub const T9_KS: [u32; 3] = [1, 2, 3];

/// T10's mesh size and requested memory (`prasim simulate`'s defaults).
pub const T10_SIZE: (u64, u64) = (1024, 9000);

/// T11's mesh size and requested memory.
pub const T11_SIZE: (u64, u64) = (256, 100);

/// T12's and T13's `(n, d)` at `q = 3`, `k = 2`.
pub const T12_SIZE: (u64, u32) = (1024, 5);

/// T14's mesh size; `q` sweeps [`T14_QS`] at `k = 2`.
pub fn t14_n(quick: bool) -> u64 {
    if quick {
        1024
    } else {
        4096
    }
}

/// T14's redundancy bases.
pub const T14_QS: [u64; 3] = [3, 4, 5];

/// T14's `d` for base `q` on `n` nodes: the largest `d ≥ 2` whose memory
/// `f(d)` stays within `n^1.3` (2 if none does), so memory sizes are
/// comparable across `q`.
pub fn t14_degree(q: u64, n: u64) -> u32 {
    let target_mem = (n as f64).powf(1.3) as u64;
    let mut d = 2;
    while input_count(q, d + 1).is_some_and(|f| f <= target_mem) {
        d += 1;
    }
    d
}
