//! Instance-specific lower bounds for routing times.
//!
//! Any routing algorithm on the mesh is limited by three quantities:
//! the longest source–destination distance, the receiver bandwidth
//! (a node absorbs at most 4 packets per step, less on borders), and the
//! bisection: packets crossing the middle column (or row) share `rows`
//! (resp. `cols`) links per direction. Benches report measured times
//! next to these floors, so "who wins" claims are grounded.

use crate::problem::RoutingInstance;

/// Lower bounds for a specific instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerBounds {
    /// Longest source–destination Manhattan distance.
    pub distance: u64,
    /// Receiver serialization: `max_dest_load / degree(dest)` (border and
    /// corner nodes have fewer links). Only packets that move count: a
    /// self-addressed packet is absorbed when the run starts and uses no
    /// link.
    pub receiver: u64,
    /// Vertical bisection: packets crossing the middle column, divided by
    /// the `rows` wires crossing it per direction.
    pub bisection_v: u64,
    /// Horizontal bisection.
    pub bisection_h: u64,
}

impl LowerBounds {
    /// The strongest of the bounds.
    pub fn best(&self) -> u64 {
        self.distance
            .max(self.receiver)
            .max(self.bisection_v)
            .max(self.bisection_h)
    }
}

/// Computes all lower bounds for an instance.
pub fn lower_bounds(inst: &RoutingInstance) -> LowerBounds {
    let shape = inst.shape;
    let mut distance = 0u64;
    let mut cross_v = 0u64; // packets crossing between column halves
    let mut cross_h = 0u64;
    let mut per_dest = std::collections::HashMap::new();
    let mid_c = shape.cols / 2;
    let mid_r = shape.rows / 2;
    for &(s, d) in &inst.pairs {
        let (sc, dc) = (shape.coord(s), shape.coord(d));
        distance = distance.max(sc.manhattan(dc) as u64);
        if (sc.c < mid_c) != (dc.c < mid_c) {
            cross_v += 1;
        }
        if (sc.r < mid_r) != (dc.r < mid_r) {
            cross_h += 1;
        }
        if s != d {
            *per_dest.entry(d).or_insert(0u64) += 1;
        }
    }
    let receiver = per_dest
        .iter()
        .map(|(&d, &cnt)| {
            let deg = shape.neighbors(shape.coord(d)).len() as u64;
            cnt.div_ceil(deg)
        })
        .max()
        .unwrap_or(0);
    LowerBounds {
        distance,
        receiver,
        // Each direction across the cut has `rows` (resp. `cols`) wires;
        // one packet per wire per step.
        bisection_v: cross_v.div_ceil(shape.rows.max(1) as u64),
        bisection_h: cross_h.div_ceil(shape.cols.max(1) as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::route_flat;
    use crate::greedy::route_greedy;
    use prasim_exec::ExecCtx;
    use prasim_mesh::topology::MeshShape;

    #[test]
    fn self_addressed_packets_need_no_receiver_time() {
        // A 1×1 mesh has no links; every packet is already home.
        let one = RoutingInstance {
            shape: MeshShape::square(1),
            pairs: vec![(0, 0); 5],
        };
        assert_eq!(lower_bounds(&one).best(), 0);
        // On 2×2 (two links per node), four packets stay home on node 0
        // and three arrive there from elsewhere: only the three need
        // node 0's links.
        let mut pairs = vec![(0, 0); 4];
        pairs.extend([(1, 0), (2, 0), (3, 0)]);
        let two = RoutingInstance {
            shape: MeshShape::square(2),
            pairs,
        };
        let lb = lower_bounds(&two);
        assert_eq!(lb.receiver, 2);
        assert_eq!(lb.distance, 2);
    }

    #[test]
    fn permutation_bounds_dominated_by_distance() {
        let shape = MeshShape::square(16);
        let inst = RoutingInstance::bit_reversal(shape);
        let lb = lower_bounds(&inst);
        assert!(lb.distance >= 15, "bit reversal moves corner packets far");
        assert!(lb.receiver <= 1);
    }

    #[test]
    fn all_to_one_bound_is_receiver_limited() {
        let shape = MeshShape::square(8);
        let pairs: Vec<(u32, u32)> = (0..64).map(|s| (s, 0)).collect();
        let inst = RoutingInstance { shape, pairs };
        let lb = lower_bounds(&inst);
        // Node 0 is a corner: 2 links, 64 packets → ≥ 32 steps.
        assert_eq!(lb.receiver, 32);
        assert_eq!(lb.best(), 32);
    }

    #[test]
    fn transpose_saturates_bisection() {
        // Send everything from the left half to the right half.
        let shape = MeshShape::square(8);
        let pairs: Vec<(u32, u32)> = (0..64u32)
            .filter(|&s| shape.coord(s).c < 4)
            .map(|s| {
                let c = shape.coord(s);
                (
                    s,
                    shape.index(prasim_mesh::topology::Coord { r: c.r, c: c.c + 4 }),
                )
            })
            .collect();
        let inst = RoutingInstance { shape, pairs };
        let lb = lower_bounds(&inst);
        assert_eq!(lb.bisection_v, 4); // 32 packets / 8 rows
    }

    #[test]
    fn measured_times_respect_lower_bounds() {
        let shape = MeshShape::square(8);
        for seed in [1u64, 2, 3] {
            let inst = RoutingInstance::random(shape, 2, seed);
            let lb = lower_bounds(&inst);
            let g = route_greedy(&inst, 1_000_000, &mut ExecCtx::default()).unwrap();
            assert!(
                g.total_steps >= lb.distance,
                "greedy beat the distance bound"
            );
            let f = route_flat(&inst, 1_000_000, &mut ExecCtx::default()).unwrap();
            assert!(
                f.total_steps >= lb.best().min(f.total_steps),
                "flat beat a lower bound"
            );
            assert!(f.total_steps >= lb.receiver);
        }
    }
}
