//! The access protocol (Section 3.3): `k+1` staged routings that take
//! each request packet through smaller and smaller submeshes to its copy,
//! plus the memory access itself and the (charged) return trip.
//!
//! Stage `i` (`k+1 ≥ i ≥ 2`) runs independently inside every level-`i`
//! submesh (the whole mesh acts as the level-`(k+1)` submesh): packets
//! are sorted by their destination level-`(i-1)` page, ranked, and routed
//! to spread positions (`rank mod t_{i-1}`) inside that page's submesh.
//! Stage 1 delivers each packet to the processor holding its copy. The
//! sorts physically permute the packets (as on the real machine), so the
//! engine runs start from the post-sort positions.
//!
//! The return trip retraces the recorded path; as in the paper, its cost
//! is dominated by the forward trip, and we charge it as equal to the
//! forward routing steps (DESIGN.md §4).

use crate::culling::SelectedCopy;
use crate::pram::Op;
use prasim_exec::ExecCtx;
use prasim_fault::{CopyFaultKind, FaultPlan};
use prasim_hmos::{CopyReport, Hmos, QuorumRead, TargetSpec};
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

/// Per-call knobs of [`access_protocol`]. Execution resources — worker
/// threads, the stage sorter, analytic-vs-measured charging — live on
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

struct Pkt {
    proc: u32,
    copy: u32,
    cur: u32,    // current node index
    alive: bool, // false once a machine fault swallowed the packet
}

/// Executes the access protocol for one PRAM step.
///
/// `memory[node]` maps slots to cells. `ops[p]` / `selected[p]` give
/// processor `p`'s operation and selected copy set; `run` carries the
/// clock, budgets, read policy, and fault scenario; `ctx` provides the
/// pooled engines, the stage sorter, and the cost ledger the sort
/// charges flow through.
pub fn access_protocol(
    hmos: &Hmos,
    memory: &mut [HashMap<u64, Cell>],
    ops: &[Option<Op>],
    selected: &[Vec<SelectedCopy>],
    run: &RunOptions<'_>,
    ctx: &mut ExecCtx,
) -> Result<AccessResult, EngineError> {
    let shape = hmos.shape();
    let k = hmos.params().k;
    let full = Rect::full(shape);
    let clock = run.clock;

    // Machine faults in force this step, if any.
    let mask = run
        .faults
        .map(|f| f.mask_at(shape, clock))
        .filter(|m| !m.is_empty());

    // Flatten packets.
    let mut pkts: Vec<Pkt> = Vec::new();
    for (p, sel) in selected.iter().enumerate() {
        for (ci, _copy) in sel.iter().enumerate() {
            pkts.push(Pkt {
                proc: p as u32,
                copy: ci as u32,
                cur: p as u32, // processor p sits on node p
                alive: true,
            });
        }
    }
    let copy_of = |pkt: &Pkt| -> &SelectedCopy { &selected[pkt.proc as usize][pkt.copy as usize] };

    let mut report = ProtocolReport::default();

    // Stages k+1 down to 2: spread into the destination level-(i-1) pages.
    for stage in (2..=k + 1).rev() {
        // Group packets by their containing level-`stage` submesh.
        // Key: page-instance id at level `stage` (u32::MAX = whole mesh).
        let mut groups: HashMap<u32, Vec<usize>> = HashMap::new();
        for (id, pkt) in pkts.iter().enumerate() {
            if !pkt.alive {
                continue;
            }
            let key = if stage == k + 1 {
                u32::MAX
            } else {
                copy_of(pkt).instances[stage as usize - 1]
            };
            groups.entry(key).or_default().push(id);
        }

        let mut max_sort = SortCost::default();
        let mut engine = match &mask {
            Some(m) => ctx.engine(shape).with_faults(m.clone()),
            None => ctx.engine(shape),
        };
        let mut in_stage = vec![false; pkts.len()];
        let mut group_keys: Vec<u32> = groups.keys().copied().collect();
        group_keys.sort_unstable(); // deterministic order
        for gk in group_keys {
            let rect = if gk == u32::MAX {
                full
            } else {
                hmos.pages(stage)[gk as usize].rect
            };
            // Sort (dest child page, pkt id) by the packets' positions in
            // the group's submesh, then rank within child pages.
            let sorted = ctx.sort_pairs(
                groups[&gk].iter().map(|&id| {
                    let pkt = &pkts[id];
                    let c = shape.coord(pkt.cur);
                    debug_assert!(rect.contains(c), "packet escaped its submesh");
                    let pos = snake_index(rect.cols, c.r - rect.r0, c.c - rect.c0);
                    let child = copy_of(pkt).instances[stage as usize - 2];
                    (pos, (child, id as u32))
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
                pkts[id as usize].cur = shape.index(at);
                in_stage[id as usize] = true;
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
        let stats = engine.run(run.max_engine_steps)?;
        report.max_queue = report.max_queue.max(stats.max_queue);
        report.dropped += stats.dropped;
        // Update positions and measure δ_{stage-1}.
        let mut per_node: HashMap<u32, u64> = HashMap::new();
        for (node, pkt) in engine.drain_delivered() {
            in_stage[pkt.tag as usize] = false;
            pkts[pkt.tag as usize].cur = node;
            *per_node.entry(node).or_insert(0) += 1;
        }
        ctx.recycle(engine);
        // Anything injected but not delivered was swallowed by a fault.
        for (id, lost) in in_stage.into_iter().enumerate() {
            if lost {
                pkts[id].alive = false;
            }
        }
        let max_node_load = per_node.values().copied().max().unwrap_or(0);
        let sort_steps = ctx.ledger_mut().charge(&max_sort);
        report.stages.push(StageReport {
            stage,
            sort_steps,
            route_steps: stats.steps,
            max_node_load,
        });
        report.total_steps += sort_steps + stats.steps;
    }

    // Stage 1: deliver to the copy-holding processors.
    {
        let mut engine = match &mask {
            Some(m) => ctx.engine(shape).with_faults(m.clone()),
            None => ctx.engine(shape),
        };
        let mut in_stage = vec![false; pkts.len()];
        for (id, pkt) in pkts.iter().enumerate() {
            if !pkt.alive {
                continue;
            }
            let copy = copy_of(pkt);
            let rect = hmos.pages(1)[copy.instances[0] as usize].rect;
            let at = shape.coord(pkt.cur);
            in_stage[id] = true;
            engine.inject(
                at,
                Packet {
                    id: id as u64,
                    dest: shape.coord(copy.node),
                    bounds: rect,
                    tag: id as u64,
                },
            );
        }
        let stats = engine.run(run.max_engine_steps)?;
        report.max_queue = report.max_queue.max(stats.max_queue);
        report.dropped += stats.dropped;
        let mut per_node: HashMap<u32, u64> = HashMap::new();
        for (node, pkt) in engine.drain_delivered() {
            in_stage[pkt.tag as usize] = false;
            pkts[pkt.tag as usize].cur = node;
            *per_node.entry(node).or_insert(0) += 1;
        }
        ctx.recycle(engine);
        for (id, lost) in in_stage.into_iter().enumerate() {
            if lost {
                pkts[id].alive = false;
            }
        }
        let max_node_load = per_node.values().copied().max().unwrap_or(0);
        report.stages.push(StageReport {
            stage: 1,
            sort_steps: 0,
            route_steps: stats.steps,
            max_node_load,
        });
        report.total_steps += stats.steps;
        report.access_steps = max_node_load;
        report.total_steps += max_node_load;
    }

    // Perform the accesses. Cell faults overlay the memory: a corrupt
    // cell answers reads with forged garbage and loses writes; a frozen
    // cell keeps its stale contents and loses writes.
    let mut read_acc: Vec<Option<(u64, u64)>> = vec![None; ops.len()]; // (ts, value)
    let mut replies: Vec<Vec<CopyReport>> = vec![Vec::new(); ops.len()];
    let mut written: Vec<Vec<u64>> = vec![Vec::new(); ops.len()]; // installed leaves
    for pkt in &pkts {
        if !pkt.alive {
            continue;
        }
        let copy = copy_of(pkt);
        debug_assert_eq!(pkt.cur, copy.node, "packet not at its copy");
        let fault = run
            .faults
            .and_then(|f| f.cell_fault(copy.node, copy.slot, clock));
        match ops[pkt.proc as usize] {
            Some(Op::Read { .. }) => {
                let (value, ts) = match fault {
                    Some(CopyFaultKind::Corrupt) => run
                        .faults
                        .expect("fault came from a plan")
                        .garbage_for(copy.node, copy.slot),
                    _ => memory[copy.node as usize]
                        .get(&copy.slot)
                        .copied()
                        .unwrap_or((0, 0)),
                };
                match run.policy {
                    ReadPolicy::Freshest => {
                        let best = &mut read_acc[pkt.proc as usize];
                        if best.is_none_or(|(bts, _)| ts > bts) {
                            *best = Some((ts, value));
                        }
                    }
                    ReadPolicy::HierarchicalMajority => {
                        replies[pkt.proc as usize].push(CopyReport {
                            leaf: copy.leaf,
                            ts,
                            value,
                        });
                    }
                }
            }
            Some(Op::Write { value, .. }) => {
                if fault.is_none() {
                    memory[copy.node as usize].insert(copy.slot, (value, clock));
                    written[pkt.proc as usize].push(copy.leaf);
                }
            }
            None => unreachable!("packet for an idle processor"),
        }
    }

    // Return trip: retraces the recorded path; charged as the forward
    // routing steps (the paper notes the forward part dominates).
    report.return_steps = report.stages.iter().map(|s| s.route_steps).sum();
    report.total_steps += report.return_steps;

    // Resolve per-processor results.
    let params = hmos.params();
    let spec = TargetSpec {
        q: params.q,
        k: params.k,
    };
    let mut reads: Vec<Option<u64>> = vec![None; ops.len()];
    let mut outcomes: Vec<Option<QuorumRead>> = vec![None; ops.len()];
    let mut write_committed: Vec<Option<bool>> = vec![None; ops.len()];
    for (p, op) in ops.iter().enumerate() {
        match op {
            Some(Op::Read { .. }) => {
                let outcome = match run.policy {
                    ReadPolicy::Freshest => match read_acc[p] {
                        Some((ts, value)) => QuorumRead::Value { ts, value },
                        None => QuorumRead::Unrecoverable, // every packet lost
                    },
                    ReadPolicy::HierarchicalMajority => spec.resolve_majority(&replies[p]),
                };
                reads[p] = outcome.value();
                outcomes[p] = Some(outcome);
            }
            Some(Op::Write { .. }) => {
                write_committed[p] = Some(spec.is_target(&written[p]));
            }
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
}
