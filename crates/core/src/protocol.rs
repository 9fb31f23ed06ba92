//! The access protocol (Section 3.3): `k+1` staged routings that take
//! each request packet through smaller and smaller submeshes to its copy,
//! plus the memory access itself and the (charged) return trip.
//!
//! Stage `i` (`k+1 ≥ i ≥ 2`) runs independently inside every level-`i`
//! submesh (the whole mesh acts as the level-`(k+1)` submesh): packets
//! are sorted by their destination level-`(i-1)` page, ranked, and routed
//! to spread positions (`rank mod t_{i-1}`) inside that page's submesh.
//! Stage 1 is the same loop's last pass, without a sort: it routes each
//! packet inside its level-1 page to the node holding its copy. The
//! sorts physically permute the packets (as on the real machine), so the
//! engine runs start from the post-sort positions. A stage groups the
//! live packets by one sort of unique `(submesh, packet)` pairs; the
//! order — ascending submesh, then packet — is part of the charged
//! cost, since shearsort's phase count depends on the key order within
//! a node.
//!
//! The return trip retraces the recorded path; as in the paper, its cost
//! is dominated by the forward trip, and we charge it as equal to the
//! forward routing steps (DESIGN.md §4).

use crate::culling::Selection;
use crate::pram::Op;
use prasim_exec::ExecCtx;
use prasim_fault::{CopyFaultKind, FaultPlan};
use prasim_hmos::{CopyCell, CopyReport, Hmos, QuorumRead, TargetSpec};
use prasim_mesh::engine::{EngineError, Packet};
use prasim_mesh::region::Rect;
use prasim_mesh::topology::Coord;
use prasim_sortnet::rank::rank_sorted;
use prasim_sortnet::shearsort::SortCost;
use prasim_sortnet::snake::{snake_coord, snake_index};
use std::collections::HashMap;

/// A memory cell: `(value, timestamp)`; absent cells read as `(0, 0)`.
pub type Cell = (u64, u64);

/// How a processor's read result is assembled from the copies its
/// packets reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPolicy {
    /// The freshest timestamp among the reached copies wins. Exact on a
    /// fault-free machine (any two target sets intersect, so the
    /// intersection carries the latest write), but a corrupted copy with
    /// a forged timestamp silently wins the race.
    #[default]
    Freshest,
    /// Definition 2's hierarchical majority over `T_v`: a `(ts, value)`
    /// pair counts only when the leaves supporting it contain a full
    /// target set, so no small coalition of corrupt, stale, or missing
    /// copies can forge or suppress a result undetected. Requires
    /// full-copy access ([`crate::culling::select_all`]).
    HierarchicalMajority,
}

/// Per-call knobs of [`access_protocol`]. Execution resources — engines,
/// the stage sorter, analytic-vs-measured charging — live on
/// the [`ExecCtx`] the protocol borrows; `RunOptions` carries only the
/// per-step semantics: the clock, budgets, read policy, and faults.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions<'a> {
    /// Timestamp assigned to this step's writes (the PRAM step number).
    pub clock: u64,
    /// Step budget per routing phase.
    pub max_engine_steps: u64,
    /// Read-resolution policy.
    pub policy: ReadPolicy,
    /// Fault scenario in force, if any: machine faults become per-step
    /// engine masks, cell faults overlay the memory accesses.
    pub faults: Option<&'a FaultPlan>,
}

impl RunOptions<'static> {
    /// Fault-free freshest-read options with a generous engine budget.
    pub fn new(clock: u64) -> Self {
        RunOptions {
            clock,
            max_engine_steps: 100_000_000,
            policy: ReadPolicy::Freshest,
            faults: None,
        }
    }
}

impl<'a> RunOptions<'a> {
    /// Sets the read policy.
    pub fn with_policy(mut self, policy: ReadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Installs a fault plan (note the lifetime narrows to the plan's).
    pub fn with_faults<'b>(self, faults: &'b FaultPlan) -> RunOptions<'b> {
        RunOptions {
            clock: self.clock,
            max_engine_steps: self.max_engine_steps,
            policy: self.policy,
            faults: Some(faults),
        }
    }
}

/// Per-stage protocol measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageReport {
    /// Stage number (`k+1` down to `1`).
    pub stage: u32,
    /// Sorting/ranking steps charged (max over the parallel submeshes).
    pub sort_steps: u64,
    /// Packet-routing steps of the stage's engine run.
    pub route_steps: u64,
    /// Maximum packets held by one node after the stage — the measured
    /// `δ_{i-1}` of Eq. (5).
    pub max_node_load: u64,
}

/// Full protocol measurements.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProtocolReport {
    /// One entry per stage, ordered `k+1, k, …, 1`.
    pub stages: Vec<StageReport>,
    /// Steps to serve the accesses at the destinations (max per-node
    /// packets — the measured `δ_0` of Eq. (6)).
    pub access_steps: u64,
    /// Charged return-trip steps (= forward routing steps).
    pub return_steps: u64,
    /// Grand total.
    pub total_steps: u64,
    /// Largest engine queue observed (buffer-space certificate).
    pub max_queue: usize,
    /// Packets lost to machine faults (dead nodes, severed regions,
    /// lossy links) across all routing phases; 0 on a healthy mesh.
    pub dropped: u64,
}

/// Result of executing one PRAM step's accesses.
#[derive(Debug, Clone)]
pub struct AccessResult {
    /// Protocol measurements.
    pub report: ProtocolReport,
    /// Per processor: the value read (None for writers, idle processors,
    /// and unrecoverable reads). Resolution follows the
    /// [`ReadPolicy`] in force.
    pub reads: Vec<Option<u64>>,
    /// Per processor: how its read resolved (None for writers and idle
    /// processors). Freshest reads report as clean `Value`s.
    pub outcomes: Vec<Option<QuorumRead>>,
    /// Per processor: whether its write installed a full target set of
    /// `T_v` (None for readers and idle processors). An uncommitted
    /// write may or may not be visible to later majority reads.
    pub write_committed: Vec<Option<bool>>,
}

/// Executes the access protocol for one PRAM step.
///
/// `memory[node]` maps slots to cells. `ops[p]` and `selected.of(p)`
/// give processor `p`'s operation and selected copies; `selected` must
/// hold one stripe per entry of `ops`, idle processors included. `run`
/// carries the clock, budgets, read policy, and fault scenario; `ctx`
/// provides the pooled engines, the stage sorter, and the cost ledger
/// the sort charges flow through.
pub fn access_protocol(
    hmos: &Hmos,
    memory: &mut [HashMap<u64, Cell>],
    ops: &[Option<Op>],
    selected: &Selection,
    run: &RunOptions<'_>,
    ctx: &mut ExecCtx,
) -> Result<AccessResult, EngineError> {
    let shape = hmos.shape();
    let params = hmos.params();
    let k = params.k;
    let full = Rect::full(shape);
    let clock = run.clock;

    // Machine faults in force this step, if any.
    let mask = run
        .faults
        .map(|f| f.mask_at(shape, clock))
        .filter(|m| !m.is_empty());

    // One packet per selected copy, processor-major with leaves
    // ascending: processor `p`'s packets form one contiguous run of ids
    // and start on node `p`. `alive` is cleared when a packet is injected
    // and set again when it is delivered, so a packet a machine fault
    // swallowed stays dead.
    debug_assert_eq!(selected.processors(), ops.len(), "one stripe per processor");
    let (mut cur, copies): (Vec<u32>, Vec<&CopyCell>) = (0..ops.len())
        .flat_map(|p| selected.of(p).map(move |(_, cell)| (p as u32, cell)))
        .unzip();
    let mut alive = vec![true; copies.len()];

    let mut report = ProtocolReport::default();
    // Live packets as (level-`stage` submesh, packet id); u32::MAX is
    // the whole mesh, the level-(k+1) submesh.
    let mut groups: Vec<(u32, u32)> = Vec::with_capacity(copies.len());
    // Packets per node after a stage: the measured δ_{stage-1}.
    let mut load = vec![0u64; shape.nodes() as usize];

    for stage in (1..=k + 1).rev() {
        let mut engine = match &mask {
            Some(m) => ctx.engine(shape).with_faults(m.clone()),
            None => ctx.engine(shape),
        };
        let mut max_sort = SortCost::default();
        if stage == 1 {
            // Deliver each packet, inside its level-1 page, to the node
            // holding its copy; no sort needed.
            for (id, live) in alive.iter_mut().enumerate().filter(|(_, live)| **live) {
                *live = false;
                engine.inject(
                    shape.coord(cur[id]),
                    Packet {
                        id: id as u64,
                        dest: copies[id].node,
                        bounds: hmos.pages(1)[copies[id].instances[0] as usize].rect,
                        tag: id as u64,
                    },
                );
            }
        } else {
            // Spread into the destination level-(stage-1) pages, each
            // level-`stage` submesh on its own, in ascending submesh
            // then packet order.
            groups.clear();
            groups.extend(
                (0..copies.len() as u32)
                    .filter(|&id| alive[id as usize])
                    .map(|id| {
                        let submesh = if stage == k + 1 {
                            u32::MAX
                        } else {
                            copies[id as usize].instances[stage as usize - 1]
                        };
                        (submesh, id)
                    }),
            );
            groups.sort_unstable();
            for group in groups.chunk_by(|a, b| a.0 == b.0) {
                let rect = match group[0].0 {
                    u32::MAX => full,
                    submesh => hmos.pages(stage)[submesh as usize].rect,
                };
                // Sort (dest child page, pkt id) by the packets' positions
                // in the submesh, then rank within child pages.
                let sorted = ctx.sort_pairs(
                    group.iter().map(|&(_, id)| {
                        let c = shape.coord(cur[id as usize]);
                        debug_assert!(rect.contains(c), "packet escaped its submesh");
                        let pos = snake_index(rect.cols, c.r - rect.r0, c.c - rect.c0);
                        let child = copies[id as usize].instances[stage as usize - 2];
                        (pos, (child, id))
                    }),
                    rect.rows,
                    rect.cols,
                );
                let (ranks, rank_cost) = rank_sorted(&sorted, |&(child, _)| child);
                let mut cost = sorted.cost;
                cost.add(rank_cost);
                if ctx.ledger().value(&cost) > ctx.ledger().value(&max_sort) {
                    max_sort = cost;
                }
                // Post-sort positions + spread destinations; inject.
                for ((pos, &(child, id)), &rank) in sorted.placed().zip(&ranks) {
                    let (lr, lc) = snake_coord(rect.cols, pos);
                    let at = Coord {
                        r: rect.r0 + lr,
                        c: rect.c0 + lc,
                    };
                    let child_rect = hmos.pages(stage - 1)[child as usize].rect;
                    let dest = child_rect.coord_at((rank % child_rect.area()) as u32);
                    cur[id as usize] = shape.index(at);
                    alive[id as usize] = false;
                    engine.inject(
                        at,
                        Packet {
                            id: id as u64,
                            dest,
                            bounds: rect,
                            tag: id as u64,
                        },
                    );
                }
            }
        }
        let stats = engine.run(run.max_engine_steps)?;
        report.max_queue = report.max_queue.max(stats.max_queue);
        report.dropped += stats.dropped;
        let mut max_node_load = 0;
        for (node, pkt) in engine.drain_delivered() {
            cur[pkt.tag as usize] = node;
            alive[pkt.tag as usize] = true;
            load[node as usize] += 1;
            max_node_load = max_node_load.max(load[node as usize]);
        }
        ctx.recycle(engine);
        load.fill(0);
        let sort_steps = match stage {
            1 => 0,
            _ => ctx.ledger_mut().charge(&max_sort),
        };
        report.stages.push(StageReport {
            stage,
            sort_steps,
            route_steps: stats.steps,
            max_node_load,
        });
        report.total_steps += sort_steps + stats.steps;
    }
    // Serving the accesses takes as many steps as the busiest copy node
    // holds packets (δ_0). The return trip retraces the recorded path;
    // it is charged as the forward routing steps (the paper notes the
    // forward part dominates).
    report.access_steps = report.stages.last().map_or(0, |s| s.max_node_load);
    report.return_steps = report.stages.iter().map(|s| s.route_steps).sum();
    report.total_steps += report.access_steps + report.return_steps;

    // Perform each processor's accesses and resolve its result in one
    // pass over its run of packets. Cell faults overlay the memory: a
    // corrupt cell answers reads with forged garbage and loses writes;
    // a frozen cell keeps its stale contents and loses writes.
    let spec = TargetSpec { q: params.q, k };
    let mut reads: Vec<Option<u64>> = vec![None; ops.len()];
    let mut outcomes: Vec<Option<QuorumRead>> = vec![None; ops.len()];
    let mut write_committed: Vec<Option<bool>> = vec![None; ops.len()];
    let mut replies: Vec<CopyReport> = Vec::new();
    let mut written: Vec<u64> = Vec::new(); // installed leaves
    let mut id = 0; // the running packet id
    for (p, op) in ops.iter().enumerate() {
        let mut freshest: Option<(u64, u64)> = None; // (ts, value)
        replies.clear();
        written.clear();
        for (leaf, copy) in selected.of(p) {
            let live = alive[id];
            id += 1;
            if !live {
                continue;
            }
            let node = shape.index(copy.node);
            let fault = run
                .faults
                .and_then(|f| f.cell_fault(node, copy.slot, clock));
            match op {
                Some(Op::Read { .. }) => {
                    let (value, ts) = match fault {
                        Some(CopyFaultKind::Corrupt) => run
                            .faults
                            .expect("fault came from a plan")
                            .garbage_for(node, copy.slot),
                        _ => memory[node as usize]
                            .get(&copy.slot)
                            .copied()
                            .unwrap_or((0, 0)),
                    };
                    match run.policy {
                        ReadPolicy::Freshest => {
                            if freshest.is_none_or(|(best, _)| ts > best) {
                                freshest = Some((ts, value));
                            }
                        }
                        ReadPolicy::HierarchicalMajority => {
                            replies.push(CopyReport { leaf, ts, value })
                        }
                    }
                }
                Some(Op::Write { value, .. }) => {
                    if fault.is_none() {
                        memory[node as usize].insert(copy.slot, (*value, clock));
                        written.push(leaf);
                    }
                }
                None => unreachable!("packet for an idle processor"),
            }
        }
        match op {
            Some(Op::Read { .. }) => {
                let outcome = match run.policy {
                    ReadPolicy::Freshest => match freshest {
                        Some((ts, value)) => QuorumRead::Value { ts, value },
                        None => QuorumRead::Unrecoverable, // every packet lost
                    },
                    ReadPolicy::HierarchicalMajority => spec.resolve_majority(&mut replies),
                };
                reads[p] = outcome.value();
                outcomes[p] = Some(outcome);
            }
            Some(Op::Write { .. }) => write_committed[p] = Some(spec.is_target(&mut written)),
            None => {}
        }
    }
    Ok(AccessResult {
        report,
        reads,
        outcomes,
        write_committed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::culling::{cull_with, select_all};
    use crate::pram::PramStep;
    use crate::workload;
    use prasim_hmos::HmosParams;

    fn hmos() -> Hmos {
        Hmos::new(HmosParams::with_d(3, 2, 1024, 4).unwrap()).unwrap()
    }

    fn fresh_memory(n: u64) -> Vec<HashMap<u64, Cell>> {
        vec![HashMap::new(); n as usize]
    }

    #[test]
    fn write_then_read_roundtrip() {
        let h = hmos();
        let mut memory = fresh_memory(1024);
        let vars = workload::random_distinct(1024, h.num_variables(), 2);

        let wstep = workload::write_step(&vars, 5000);
        let sel = cull_with(
            &h,
            &vars.iter().map(|&v| Some(v)).collect::<Vec<_>>(),
            1.0,
            &mut ExecCtx::default(),
        );
        let res = access_protocol(
            &h,
            &mut memory,
            &wstep.ops,
            &sel.selected,
            &RunOptions::new(1),
            &mut ExecCtx::default(),
        )
        .unwrap();
        assert!(res.reads.iter().all(Option::is_none));

        let rstep = workload::read_step(&vars);
        let res = access_protocol(
            &h,
            &mut memory,
            &rstep.ops,
            &sel.selected,
            &RunOptions::new(2),
            &mut ExecCtx::default(),
        )
        .unwrap();
        for (p, read) in res.reads.iter().enumerate() {
            assert_eq!(*read, Some(5000 + p as u64), "processor {p}");
        }
    }

    #[test]
    fn unwritten_variables_read_zero() {
        let h = hmos();
        let mut memory = fresh_memory(1024);
        let vars = workload::random_distinct(64, h.num_variables(), 4);
        let mut reqs: Vec<Option<u64>> = vars.iter().copied().map(Some).collect();
        reqs.resize(1024, None);
        let sel = cull_with(&h, &reqs, 1.0, &mut ExecCtx::default());
        let mut step = workload::read_step(&vars);
        step.ops.resize(1024, None);
        let res = access_protocol(
            &h,
            &mut memory,
            &step.ops,
            &sel.selected,
            &RunOptions::new(1),
            &mut ExecCtx::default(),
        )
        .unwrap();
        for p in 0..64 {
            assert_eq!(res.reads[p], Some(0));
        }
        assert!(res.reads[64..].iter().all(Option::is_none));
    }

    #[test]
    fn report_has_all_stages() {
        let h = hmos();
        let mut memory = fresh_memory(1024);
        let vars = workload::random_distinct(256, h.num_variables(), 6);
        let mut reqs: Vec<Option<u64>> = vars.iter().copied().map(Some).collect();
        reqs.resize(1024, None);
        let sel = cull_with(&h, &reqs, 1.0, &mut ExecCtx::default());
        let mut step = workload::read_step(&vars);
        step.ops.resize(1024, None);
        let res = access_protocol(
            &h,
            &mut memory,
            &step.ops,
            &sel.selected,
            &RunOptions::new(1),
            &mut ExecCtx::default(),
        )
        .unwrap();
        // k = 2: stages 3, 2, 1.
        let stages: Vec<u32> = res.report.stages.iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec![3, 2, 1]);
        assert!(res.report.total_steps > 0);
        assert_eq!(
            res.report.total_steps,
            res.report
                .stages
                .iter()
                .map(|s| s.sort_steps + s.route_steps)
                .sum::<u64>()
                + res.report.access_steps
                + res.report.return_steps
        );
    }

    #[test]
    fn freshest_timestamp_wins() {
        // Write v twice with different target sets (different clocks);
        // a read must return the later value even when its target set
        // overlaps both.
        let h = hmos();
        let mut memory = fresh_memory(1024);
        let v = 123u64;
        let reqs = {
            let mut r: Vec<Option<u64>> = vec![None; 1024];
            r[0] = Some(v);
            r
        };
        let sel = cull_with(&h, &reqs, 1.0, &mut ExecCtx::default());
        let mut wstep = PramStep {
            ops: vec![None; 1024],
        };
        wstep.ops[0] = Some(Op::Write { var: v, value: 111 });
        access_protocol(
            &h,
            &mut memory,
            &wstep.ops,
            &sel.selected,
            &RunOptions::new(1),
            &mut ExecCtx::default(),
        )
        .unwrap();
        wstep.ops[0] = Some(Op::Write { var: v, value: 222 });
        access_protocol(
            &h,
            &mut memory,
            &wstep.ops,
            &sel.selected,
            &RunOptions::new(2),
            &mut ExecCtx::default(),
        )
        .unwrap();
        let mut rstep = PramStep {
            ops: vec![None; 1024],
        };
        rstep.ops[0] = Some(Op::Read { var: v });
        let res = access_protocol(
            &h,
            &mut memory,
            &rstep.ops,
            &sel.selected,
            &RunOptions::new(3),
            &mut ExecCtx::default(),
        )
        .unwrap();
        assert_eq!(res.reads[0], Some(222));
    }

    #[test]
    fn quorum_roundtrip_certifies_and_commits() {
        let h = hmos();
        let mut memory = fresh_memory(1024);
        let vars = workload::random_distinct(512, h.num_variables(), 2);
        let mut reqs: Vec<Option<u64>> = vars.iter().copied().map(Some).collect();
        reqs.resize(1024, None);
        let sel = select_all(&h, &reqs);

        let mut wstep = workload::write_step(&vars, 9000);
        wstep.ops.resize(1024, None);
        let opts = RunOptions::new(1).with_policy(ReadPolicy::HierarchicalMajority);
        let res = access_protocol(
            &h,
            &mut memory,
            &wstep.ops,
            &sel.selected,
            &opts,
            &mut ExecCtx::default(),
        )
        .unwrap();
        for p in 0..512 {
            assert_eq!(res.write_committed[p], Some(true), "processor {p}");
        }

        let mut rstep = workload::read_step(&vars);
        rstep.ops.resize(1024, None);
        let opts = RunOptions::new(2).with_policy(ReadPolicy::HierarchicalMajority);
        let res = access_protocol(
            &h,
            &mut memory,
            &rstep.ops,
            &sel.selected,
            &opts,
            &mut ExecCtx::default(),
        )
        .unwrap();
        for p in 0..512 {
            assert_eq!(res.reads[p], Some(9000 + p as u64), "processor {p}");
            assert!(matches!(res.outcomes[p], Some(QuorumRead::Value { .. })));
        }
        assert_eq!(res.report.dropped, 0);
    }

    #[test]
    fn corruption_fools_freshest_but_not_the_majority() {
        use prasim_fault::{CopyFaultKind, FaultPlan};

        let h = hmos();
        let spec = TargetSpec { q: 3, k: 2 };
        let mut memory = fresh_memory(1024);
        let v = 77u64;
        let reqs = {
            let mut r: Vec<Option<u64>> = vec![None; 1024];
            r[0] = Some(v);
            r
        };
        let all = select_all(&h, &reqs);
        let mut wstep = PramStep {
            ops: vec![None; 1024],
        };
        wstep.ops[0] = Some(Op::Write { var: v, value: 555 });
        let opts = RunOptions::new(1).with_policy(ReadPolicy::HierarchicalMajority);
        access_protocol(
            &h,
            &mut memory,
            &wstep.ops,
            &all.selected,
            &opts,
            &mut ExecCtx::default(),
        )
        .unwrap();

        // Corrupt fewer copies than the tolerance bound ⌈q/2⌉^k = 4.
        let mut plan = FaultPlan::new(5);
        let f = spec.fault_tolerance() - 1;
        plan.fault_variable_copies(&h, v, f, CopyFaultKind::Corrupt, 0);

        let mut rstep = PramStep {
            ops: vec![None; 1024],
        };
        rstep.ops[0] = Some(Op::Read { var: v });

        // Freshest over the same full copy set: the forged timestamps win.
        let fresh = RunOptions::new(2).with_faults(&plan);
        let res = access_protocol(
            &h,
            &mut memory,
            &rstep.ops,
            &all.selected,
            &fresh,
            &mut ExecCtx::default(),
        )
        .unwrap();
        assert_ne!(
            res.reads[0],
            Some(555),
            "forged ts must fool the freshest rule"
        );

        // The hierarchical majority recovers the value and flags the
        // anomaly (the forged timestamps were seen but not certified).
        let quorum = RunOptions::new(2)
            .with_policy(ReadPolicy::HierarchicalMajority)
            .with_faults(&plan);
        let res = access_protocol(
            &h,
            &mut memory,
            &rstep.ops,
            &all.selected,
            &quorum,
            &mut ExecCtx::default(),
        )
        .unwrap();
        assert_eq!(res.reads[0], Some(555));
        assert!(matches!(
            res.outcomes[0],
            Some(QuorumRead::Tainted { value: 555, .. })
        ));
    }

    #[test]
    fn above_tolerance_corruption_never_certifies_a_wrong_value() {
        use prasim_fault::{CopyFaultKind, FaultPlan};

        let h = hmos();
        let spec = TargetSpec { q: 3, k: 2 };
        let mut memory = fresh_memory(1024);
        let v = 99u64;
        let reqs = {
            let mut r: Vec<Option<u64>> = vec![None; 1024];
            r[0] = Some(v);
            r
        };
        let all = select_all(&h, &reqs);
        let mut wstep = PramStep {
            ops: vec![None; 1024],
        };
        wstep.ops[0] = Some(Op::Write { var: v, value: 321 });
        let opts = RunOptions::new(1).with_policy(ReadPolicy::HierarchicalMajority);
        access_protocol(
            &h,
            &mut memory,
            &wstep.ops,
            &all.selected,
            &opts,
            &mut ExecCtx::default(),
        )
        .unwrap();

        let mut rstep = PramStep {
            ops: vec![None; 1024],
        };
        rstep.ops[0] = Some(Op::Read { var: v });
        for extra in 0..=2u64 {
            let mut plan = FaultPlan::new(40 + extra);
            plan.fault_variable_copies(
                &h,
                v,
                spec.fault_tolerance() + extra,
                CopyFaultKind::Corrupt,
                0,
            );
            let quorum = RunOptions::new(2)
                .with_policy(ReadPolicy::HierarchicalMajority)
                .with_faults(&plan);
            let res = access_protocol(
                &h,
                &mut memory,
                &rstep.ops,
                &all.selected,
                &quorum,
                &mut ExecCtx::default(),
            )
            .unwrap();
            // Either the healthy leaves still contain a target set (the
            // true value certifies) or the read fails *detectably* —
            // the distinct garbage can never collude into a quorum.
            match res.outcomes[0] {
                Some(QuorumRead::Value { value, .. }) | Some(QuorumRead::Tainted { value, .. }) => {
                    assert_eq!(value, 321, "certified value must be the written one")
                }
                Some(QuorumRead::Unrecoverable) => assert_eq!(res.reads[0], None),
                None => panic!("read op must resolve"),
            }
        }
    }

    /// The stage report of a faulted step with 512 requests on the
    /// n = 1024, q = 3, k = 2 machine: the per-stage sort steps, route
    /// steps and δ are the same for both steps, `dropped` is not (the
    /// lossy link draws per step).
    fn faulted_report(dropped: u64) -> ProtocolReport {
        let stage = |stage, sort_steps, route_steps, max_node_load| StageReport {
            stage,
            sort_steps,
            route_steps,
            max_node_load,
        };
        ProtocolReport {
            stages: vec![
                stage(3, 2824, 281, 6),
                stage(2, 470, 137, 11),
                stage(1, 0, 35, 12),
            ],
            access_steps: 12,
            return_steps: 453,
            total_steps: 4212,
            max_queue: 90,
            dropped,
        }
    }

    #[test]
    fn faulted_quorum_step_report_is_pinned() {
        use prasim_fault::FaultPlan;
        use prasim_mesh::topology::Dir;

        // Recorded values: the stages' grouping and ordering, and which
        // packets count as lost, must reproduce them exactly.
        let h = hmos();
        let mut memory = fresh_memory(1024);
        let vars = workload::random_distinct(512, h.num_variables(), 11);
        let mut reqs: Vec<Option<u64>> = vars.iter().copied().map(Some).collect();
        reqs.resize(1024, None);
        let sel = select_all(&h, &reqs);
        let mut plan = FaultPlan::new(17);
        for (r, c) in [(3, 3), (9, 22), (21, 8), (27, 27)] {
            plan.kill_node(Coord::new(r, c));
        }
        plan.random_dead_nodes(h.shape(), 24, 0);
        plan.sever_link(Coord::new(16, 16), Dir::East);
        plan.lossy_link(Coord::new(8, 24), Dir::South, 300);
        let quorum = |clock| {
            RunOptions::new(clock)
                .with_policy(ReadPolicy::HierarchicalMajority)
                .with_faults(&plan)
        };

        let mut wstep = workload::write_step(&vars, 9000);
        wstep.ops.resize(1024, None);
        let res = access_protocol(
            &h,
            &mut memory,
            &wstep.ops,
            &sel.selected,
            &quorum(1),
            &mut ExecCtx::default(),
        )
        .unwrap();
        assert_eq!(res.report, faulted_report(558));
        for p in 0..1024 {
            let expect = match p {
                219 | 461 => Some(false),
                _ if p < 512 => Some(true),
                _ => None,
            };
            assert_eq!(res.write_committed[p], expect, "processor {p}");
        }

        let mut rstep = workload::read_step(&vars);
        rstep.ops.resize(1024, None);
        let res = access_protocol(
            &h,
            &mut memory,
            &rstep.ops,
            &sel.selected,
            &quorum(2),
            &mut ExecCtx::default(),
        )
        .unwrap();
        assert_eq!(res.report, faulted_report(560));
        for p in 0..1024 {
            let expect = match p {
                219 | 461 => Some(QuorumRead::Unrecoverable),
                _ if p < 512 => Some(QuorumRead::Value {
                    ts: 1,
                    value: 9000 + p as u64,
                }),
                _ => None,
            };
            assert_eq!(res.outcomes[p], expect, "processor {p}");
            assert_eq!(res.reads[p], expect.and_then(|o| o.value()));
        }

        // Freshest reads over the same lossy routes: every surviving
        // copy set still carries the write's timestamp.
        let fresh = RunOptions::new(3).with_faults(&plan);
        let res = access_protocol(
            &h,
            &mut memory,
            &rstep.ops,
            &sel.selected,
            &fresh,
            &mut ExecCtx::default(),
        )
        .unwrap();
        assert_eq!(res.report, faulted_report(556));
        for p in 0..512 {
            assert_eq!(res.reads[p], Some(9000 + p as u64), "processor {p}");
        }
    }
}
