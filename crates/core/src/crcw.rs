//! CRCW front-end: concurrent writes by combining.
//!
//! On top of the CREW front-end ([`crate::crew`]), concurrent *writes*
//! to the same variable are resolved by a combining operator — the
//! standard COMBINING-CRCW reduction: sort the write requests by
//! variable, reduce each segment with the operator (a segmented scan,
//! same cost shape as ranking), and let the segment leader issue the
//! single surviving write. Reads see the *pre-step* memory, so a step
//! that reads and writes the same variable executes as a read phase
//! followed by a write phase.

use crate::crew::{step_crew, CrewReport};
use crate::pram::{Op, PramStep};
use crate::sim::{PramMeshSim, SimError};
use prasim_sortnet::snake::snake_pos;

/// How concurrent writes to one variable combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteCombine {
    /// The lowest-numbered processor wins (ARBITRARY/PRIORITY CRCW).
    Priority,
    /// The maximum value wins.
    Max,
    /// The minimum value wins.
    Min,
    /// Values are summed (COMBINING CRCW).
    Sum,
}

impl WriteCombine {
    fn fold(self, acc: u64, value: u64) -> u64 {
        match self {
            WriteCombine::Priority => acc,
            WriteCombine::Max => acc.max(value),
            WriteCombine::Min => acc.min(value),
            WriteCombine::Sum => acc.wrapping_add(value),
        }
    }
}

/// Measurements of one CRCW step.
#[derive(Debug, Clone)]
pub struct CrcwReport {
    /// Steps of the write-combining sort + segmented reduction.
    pub combine_steps: u64,
    /// The CREW phases executed (one, or read-then-write on overlap).
    pub phases: Vec<CrewReport>,
    /// Grand total.
    pub total_steps: u64,
    /// Per-processor read results.
    pub reads: Vec<Option<u64>>,
}

/// Executes a fully concurrent (CRCW) PRAM step: reads may share
/// variables, writes may share variables (combined by `combine`), and a
/// variable may be both read and written (reads see the old value).
pub fn step_crcw(
    sim: &mut PramMeshSim,
    step: &PramStep,
    combine: WriteCombine,
) -> Result<CrcwReport, SimError> {
    let n = sim.config().n;
    if step.ops.len() > n as usize {
        return Err(SimError::TooManyOps {
            ops: step.ops.len(),
            n,
        });
    }
    for op in step.ops.iter().flatten() {
        if op.var() >= sim.num_variables() {
            return Err(SimError::InvalidStep { var: op.var() });
        }
    }
    let shape = sim.hmos().shape();

    // ---- Combine writes: sort (var, proc, value), reduce segments. ----
    let sorted = sim.exec().sort_pairs(
        step.ops.iter().enumerate().filter_map(|(p, op)| match op {
            Some(Op::Write { var, value }) => {
                Some((snake_pos(shape, p as u32), (*var, p as u32, *value)))
            }
            _ => None,
        }),
        shape.rows,
        shape.cols,
    );
    // Segmented reduce along the snake order; leader = first writer.
    let mut combined: std::collections::HashMap<u64, (u32, u64)> = std::collections::HashMap::new();
    for &(var, p, value) in &sorted.keys {
        combined
            .entry(var)
            .and_modify(|e| e.1 = combine.fold(e.1, value))
            .or_insert((p, value));
    }
    // The reduction sweep costs one segmented scan (charged like rank).
    let combine_steps =
        sorted.cost.steps + 2 * sorted.h as u64 * (shape.rows as u64 + shape.cols as u64);

    // ---- Build the CREW phase(s). ----
    let read_vars: std::collections::HashSet<u64> = step
        .ops
        .iter()
        .flatten()
        .filter(|o| !o.is_write())
        .map(|o| o.var())
        .collect();
    let overlap = combined.keys().any(|v| read_vars.contains(v));

    let mut reads_step = PramStep {
        ops: vec![None; step.ops.len()],
    };
    for (p, op) in step.ops.iter().enumerate() {
        if let Some(Op::Read { var }) = op {
            reads_step.ops[p] = Some(Op::Read { var: *var });
        }
    }
    let mut writes_step = PramStep {
        ops: vec![None; step.ops.len().max(1)],
    };
    for (&var, &(leader, value)) in &combined {
        if writes_step.ops.len() <= leader as usize {
            writes_step.ops.resize(leader as usize + 1, None);
        }
        writes_step.ops[leader as usize] = Some(Op::Write { var, value });
    }

    let mut phases = Vec::new();
    let reads;
    if overlap {
        // Read phase first (sees old values), then the writes.
        let r = step_crew(sim, &reads_step)?;
        reads = r.reads.clone();
        phases.push(r);
        phases.push(step_crew(sim, &writes_step)?);
    } else {
        // Merge: every processor still has at most one op.
        let mut merged = reads_step;
        for (p, op) in writes_step.ops.iter().enumerate() {
            if let Some(op) = op {
                debug_assert!(merged.ops[p].is_none(), "leader already has an op");
                merged.ops[p] = Some(*op);
            }
        }
        let r = step_crew(sim, &merged)?;
        reads = r.reads.clone();
        phases.push(r);
    }

    let total_steps = combine_steps + phases.iter().map(|p| p.total_steps).sum::<u64>();
    Ok(CrcwReport {
        combine_steps,
        phases,
        total_steps,
        reads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimConfig;

    fn sim() -> PramMeshSim {
        PramMeshSim::new(SimConfig::new(256, 100)).unwrap()
    }

    fn all_write(var: u64, values: impl Iterator<Item = u64>) -> PramStep {
        PramStep {
            ops: values.map(|v| Some(Op::Write { var, value: v })).collect(),
        }
    }

    #[test]
    fn max_combining() {
        let mut s = sim();
        let step = all_write(7, (0..256).map(|p| (p * 37) % 101));
        step_crcw(&mut s, &step, WriteCombine::Max).unwrap();
        assert_eq!(s.oracle_read(7), 100);
    }

    #[test]
    fn sum_combining() {
        let mut s = sim();
        let step = all_write(9, (1..=100).chain(std::iter::repeat_n(0, 156)));
        step_crcw(&mut s, &step, WriteCombine::Sum).unwrap();
        assert_eq!(s.oracle_read(9), 5050);
    }

    #[test]
    fn priority_combining_lowest_processor_wins() {
        let mut s = sim();
        let step = all_write(11, (0..256).map(|p| 1000 + p));
        step_crcw(&mut s, &step, WriteCombine::Priority).unwrap();
        // The combining order is the sorted (var, proc) order, so the
        // lowest processor's value survives.
        assert_eq!(s.oracle_read(11), 1000);
    }

    #[test]
    fn read_write_same_variable_reads_old_value() {
        let mut s = sim();
        s.step(&PramStep::writes(&[5], &[111])).unwrap();
        let mut step = PramStep {
            ops: vec![None; 256],
        };
        for p in 0..100 {
            step.ops[p] = Some(Op::Read { var: 5 });
        }
        for p in 100..200 {
            step.ops[p] = Some(Op::Write {
                var: 5,
                value: p as u64,
            });
        }
        let r = step_crcw(&mut s, &step, WriteCombine::Max).unwrap();
        assert_eq!(r.phases.len(), 2, "overlap must split into two phases");
        for p in 0..100 {
            assert_eq!(r.reads[p], Some(111), "reads must see the old value");
        }
        assert_eq!(s.oracle_read(5), 199);
    }

    #[test]
    fn disjoint_reads_and_writes_merge_into_one_phase() {
        let mut s = sim();
        s.step(&PramStep::writes(&[1], &[42])).unwrap();
        let mut step = PramStep {
            ops: vec![None; 256],
        };
        for p in 0..50 {
            step.ops[p] = Some(Op::Read { var: 1 });
        }
        for p in 50..90 {
            step.ops[p] = Some(Op::Write {
                var: 2,
                value: p as u64,
            });
        }
        let r = step_crcw(&mut s, &step, WriteCombine::Min).unwrap();
        assert_eq!(r.phases.len(), 1);
        for p in 0..50 {
            assert_eq!(r.reads[p], Some(42));
        }
        assert_eq!(s.oracle_read(2), 50);
    }

    #[test]
    fn parallel_or_in_constant_steps() {
        // The classic CRCW trick: n processors OR their bits into one
        // cell in O(1) PRAM steps.
        let mut s = sim();
        let step = PramStep {
            ops: (0..256u64)
                .map(|p| {
                    Some(Op::Write {
                        var: 0,
                        value: u64::from(p == 137), // one processor has a 1
                    })
                })
                .collect(),
        };
        let r = step_crcw(&mut s, &step, WriteCombine::Max).unwrap();
        assert_eq!(r.phases.len(), 1);
        assert_eq!(s.oracle_read(0), 1);
    }
}
