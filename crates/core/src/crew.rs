//! CREW front-end: concurrent reads by request combining.
//!
//! The paper's machine simulates EREW steps (distinct variables). Many
//! PRAM algorithms (pointer jumping, broadcasting) want CREW. The
//! classic reduction combines duplicate reads before the EREW step and
//! fans the value back out afterwards, all with the same mesh
//! primitives:
//!
//! 1. **Combine**: sort the read requests by variable; the rank-0
//!    request of each segment is the *representative*.
//! 2. **EREW step**: representatives (and all writers) execute a normal
//!    step of the simulator.
//! 3. **Fan-out**: re-sort the requests by variable with the
//!    representative carrying the value; a segmented broadcast copies it
//!    to every duplicate, and each request packet routes back to its
//!    origin processor.
//!
//! Costs of the extra sorts, the broadcast sweep and the return routing
//! are measured like every other phase.

use crate::pram::{Op, PramStep};
use crate::sim::{PramMeshSim, SimError, StepReport};
use prasim_mesh::engine::Packet;
use prasim_mesh::region::Rect;
use prasim_sortnet::broadcast::segmented_broadcast;
use prasim_sortnet::snake::{snake_coord, snake_pos};

/// Measurements of one CREW step.
#[derive(Debug, Clone)]
pub struct CrewReport {
    /// Steps of the combining sort (phase 1).
    pub combine_steps: u64,
    /// The inner EREW step's report.
    pub erew: StepReport,
    /// Steps of the fan-out (re-sort + broadcast sweep + return routing).
    pub fanout_steps: u64,
    /// Grand total.
    pub total_steps: u64,
    /// Per-processor read results (duplicates resolved).
    pub reads: Vec<Option<u64>>,
}

/// Executes a PRAM step in which *reads may share variables* (CREW).
/// Writes must still be exclusive, and no variable may be both read and
/// written within the step.
pub fn step_crew(sim: &mut PramMeshSim, step: &PramStep) -> Result<CrewReport, SimError> {
    let n = sim.config().n;
    if step.ops.len() > n as usize {
        return Err(SimError::TooManyOps {
            ops: step.ops.len(),
            n,
        });
    }
    // Validate: exclusive writes, read/write disjoint, vars in range.
    let mut write_vars = std::collections::HashSet::new();
    let mut read_vars = std::collections::HashSet::new();
    for op in step.ops.iter().flatten() {
        let v = op.var();
        if v >= sim.num_variables() {
            return Err(SimError::InvalidStep { var: v });
        }
        match op {
            Op::Write { .. } => {
                if !write_vars.insert(v) {
                    return Err(SimError::InvalidStep { var: v });
                }
            }
            Op::Read { .. } => {
                read_vars.insert(v);
            }
        }
    }
    if let Some(&v) = write_vars.intersection(&read_vars).next() {
        return Err(SimError::InvalidStep { var: v });
    }

    let shape = sim.hmos().shape();
    let full = Rect::full(shape);

    // ---- Phase 1: combine (sort read requests by variable). ----
    let sort1 = sim.exec().sort_pairs(
        step.ops.iter().enumerate().filter_map(|(p, op)| match op {
            Some(Op::Read { var }) => Some((snake_pos(shape, p as u32), (*var, p as u32))),
            _ => None,
        }),
        shape.rows,
        shape.cols,
    );
    // Representatives: first requester of each contiguous segment.
    let mut representative: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
    for &(var, p) in &sort1.keys {
        representative.entry(var).or_insert(p);
    }

    // ---- Phase 2: the EREW step. ----
    let mut erew = PramStep {
        ops: vec![None; n as usize],
    };
    for (p, op) in step.ops.iter().enumerate() {
        match op {
            Some(Op::Write { var, value }) => {
                erew.ops[p] = Some(Op::Write {
                    var: *var,
                    value: *value,
                })
            }
            Some(Op::Read { var }) if representative[var] == p as u32 => {
                erew.ops[p] = Some(Op::Read { var: *var });
            }
            Some(Op::Read { .. }) => {}
            None => {}
        }
    }
    let erew_report = sim.step(&erew)?;

    // ---- Phase 3: fan-out. ----
    // Re-sort the requests; representatives carry the value.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct FanItem {
        var: u64,
        is_rep: bool, // representatives sort first within the segment
        proc: u32,
        value: u64, // meaningful when carrying
        carrying: bool,
    }
    let mut sort2 = sim.exec().sort_pairs(
        step.ops.iter().enumerate().filter_map(|(p, op)| {
            let Some(Op::Read { var }) = op else {
                return None;
            };
            let is_rep = representative[var] == p as u32;
            let item = FanItem {
                var: *var,
                is_rep: !is_rep, // false sorts first: rep leads its segment
                proc: p as u32,
                value: if is_rep {
                    erew_report.reads[p].unwrap_or(0)
                } else {
                    0
                },
                carrying: is_rep,
            };
            Some((snake_pos(shape, p as u32), item))
        }),
        shape.rows,
        shape.cols,
    );
    let bcast = segmented_broadcast(
        &mut sort2,
        |it| it.var,
        |it| if it.carrying { Some(it.value) } else { None },
        |it, v| {
            it.value = v;
            it.carrying = true;
        },
    );
    // Return routing: each request packet travels from its sorted
    // position back to its origin processor. Values ride in a side
    // table indexed by packet id (tags stay small). The engine comes
    // from the simulator's execution context, so it carries the
    // configured thread count (a bare `Engine::new` here used to ignore
    // it).
    let mut engine = sim.exec().engine(shape);
    let mut results: Vec<Option<u64>> = vec![None; step.ops.len()];
    let mut payloads: Vec<(u32, u64)> = Vec::new();
    for (pos, it) in sort2.placed() {
        let (r, c) = snake_coord(shape.cols, pos);
        debug_assert!(it.carrying, "request left without a value");
        let id = payloads.len() as u64;
        payloads.push((it.proc, it.value));
        engine.inject(
            prasim_mesh::topology::Coord { r, c },
            Packet {
                id,
                dest: shape.coord(it.proc),
                bounds: full,
                tag: id,
            },
        );
    }
    let stats = engine
        .run(sim.config().max_engine_steps)
        .map_err(SimError::Engine)?;
    for (_node, pkt) in engine.drain_delivered() {
        let (proc, value) = payloads[pkt.tag as usize];
        results[proc as usize] = Some(value);
    }
    sim.exec().recycle(engine);
    // Writers and idle processors report None; representatives keep
    // their own results too (their packet also returned).
    for (p, op) in step.ops.iter().enumerate() {
        if !matches!(op, Some(Op::Read { .. })) {
            results[p] = None;
        }
    }

    let ledger = sim.exec().ledger_mut();
    let combine_steps = ledger.charge(&sort1.cost);
    let fanout_steps = ledger.charge(&sort2.cost) + ledger.charge(&bcast) + stats.steps;
    Ok(CrewReport {
        combine_steps,
        total_steps: combine_steps + erew_report.total_steps + fanout_steps,
        erew: erew_report,
        fanout_steps,
        reads: results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimConfig;
    use prasim_exec::ExecCtx;

    fn sim() -> PramMeshSim {
        PramMeshSim::new(SimConfig::new(256, 100)).unwrap()
    }

    #[test]
    fn concurrent_reads_all_get_the_value() {
        let mut s = sim();
        s.step(&PramStep::writes(&[42], &[777])).unwrap();
        // All 256 processors read variable 42.
        let step = PramStep::reads(&vec![42u64; 256]);
        let r = step_crew(&mut s, &step).unwrap();
        for p in 0..256 {
            assert_eq!(r.reads[p], Some(777), "processor {p}");
        }
        assert!(r.combine_steps > 0 && r.fanout_steps > 0);
    }

    #[test]
    fn analytic_context_charges_the_combining_sort_analytically() {
        let config = SimConfig::new(256, 100).with_analytic_sort(true);
        let mut s = PramMeshSim::new(config).unwrap();
        let r = step_crew(&mut s, &PramStep::reads(&vec![42u64; 256])).unwrap();
        // The combining sort, repeated on a measured context.
        let shape = s.hmos().shape();
        let sorted = ExecCtx::new(1, config.sorter, false).sort_pairs(
            (0..256u32).map(|p| (snake_pos(shape, p), (42u64, p))),
            shape.rows,
            shape.cols,
        );
        assert_ne!(sorted.cost.analytic_steps, sorted.cost.steps);
        assert_eq!(r.combine_steps, sorted.cost.analytic_steps);
    }

    #[test]
    fn mixed_duplicates_and_writes() {
        let mut s = sim();
        s.step(&PramStep::writes(&[1, 2, 3], &[10, 20, 30]))
            .unwrap();
        let mut step = PramStep {
            ops: vec![None; 256],
        };
        for p in 0..100 {
            step.ops[p] = Some(Op::Read {
                var: (p % 3 + 1) as u64,
            });
        }
        step.ops[200] = Some(Op::Write { var: 50, value: 5 });
        step.ops[201] = Some(Op::Write { var: 51, value: 6 });
        let r = step_crew(&mut s, &step).unwrap();
        for p in 0..100 {
            assert_eq!(r.reads[p], Some(((p % 3) as u64 + 1) * 10), "p={p}");
        }
        assert_eq!(r.reads[200], None);
        assert_eq!(s.oracle_read(50), 5);
    }

    #[test]
    fn erew_steps_unaffected() {
        // Without duplicates, step_crew equals a plain step (plus the
        // combining overhead).
        let mut s = sim();
        let vars: Vec<u64> = (0..100).collect();
        s.step(&PramStep::writes(&vars, &vars)).unwrap();
        let r = step_crew(&mut s, &PramStep::reads(&vars)).unwrap();
        for (p, &v) in vars.iter().enumerate() {
            assert_eq!(r.reads[p], Some(v));
        }
    }

    #[test]
    fn rejects_read_write_conflicts_and_double_writes() {
        let mut s = sim();
        let mut step = PramStep { ops: vec![None; 4] };
        step.ops[0] = Some(Op::Read { var: 9 });
        step.ops[1] = Some(Op::Write { var: 9, value: 1 });
        assert!(matches!(
            step_crew(&mut s, &step),
            Err(SimError::InvalidStep { var: 9 })
        ));
        step.ops[0] = Some(Op::Write { var: 9, value: 2 });
        assert!(matches!(
            step_crew(&mut s, &step),
            Err(SimError::InvalidStep { var: 9 })
        ));
    }

    #[test]
    fn pointer_jumping_list_ranking() {
        // The canonical CREW algorithm: rank a 32-element linked list by
        // pointer jumping (log rounds). succ[j] in var 2j, dist in 2j+1
        // (the machine has 117 variables; 2m ≤ 117).
        let m = 32u64;
        let mut s = sim();
        // List: j -> j+1, terminal m-1 points to itself with dist 0.
        let succ_vars: Vec<u64> = (0..m).map(|j| 2 * j).collect();
        let dist_vars: Vec<u64> = (0..m).map(|j| 2 * j + 1).collect();
        let succ0: Vec<u64> = (0..m).map(|j| if j + 1 < m { j + 1 } else { j }).collect();
        let dist0: Vec<u64> = (0..m).map(|j| u64::from(j + 1 < m)).collect();
        s.step(&PramStep::writes(&succ_vars, &succ0)).unwrap();
        s.step(&PramStep::writes(&dist_vars, &dist0)).unwrap();

        let mut succ = succ0;
        let mut dist = dist0;
        for _ in 0..6 {
            // log2(32) + 1 rounds
            // Read succ[succ[j]] and dist[succ[j]] (concurrent reads!).
            let read_succ = PramStep::reads(&succ.iter().map(|&sj| 2 * sj).collect::<Vec<_>>());
            let rs = step_crew(&mut s, &read_succ).unwrap();
            let read_dist = PramStep::reads(&succ.iter().map(|&sj| 2 * sj + 1).collect::<Vec<_>>());
            let rd = step_crew(&mut s, &read_dist).unwrap();
            // Local update + write back.
            for j in 0..m as usize {
                dist[j] += rd.reads[j].unwrap();
                succ[j] = rs.reads[j].unwrap();
            }
            s.step(&PramStep::writes(&succ_vars, &succ)).unwrap();
            s.step(&PramStep::writes(&dist_vars, &dist)).unwrap();
        }
        for j in 0..m {
            assert_eq!(dist[j as usize], m - 1 - j, "rank of node {j}");
        }
    }
}
