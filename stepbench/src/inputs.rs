//! Seeded inputs: the PRAM steps and fault plans every workload feeds
//! the simulator, plus the ideal-memory model the outputs are checked
//! against. The simulator receives only `PramStep`s and `FaultPlan`s.

use prasim::core::pram::{Op, PramStep};
use prasim::fault::FaultPlan;
use prasim::hmos::{Hmos, QuorumRead};
use std::collections::HashMap;

/// Distinct variable sets a run cycles through; step pair `i` (a write
/// step, then a read step) touches set `i % VAR_SETS`. A simulator
/// completes the cycle in 16 steps, so after that its memory, and with
/// it the peak RSS, stops growing however many steps the host's speed
/// allows. (With 32 sets, quorum runs ended mid-cycle and peak RSS
/// spread 13% between seeds.)
pub const VAR_SETS: u64 = 8;

/// SplitMix64, so inputs depend on nothing but the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// Partial Fisher–Yates: `count` distinct values of `0..range`.
    pub fn distinct(&mut self, count: u64, range: u64) -> Vec<u64> {
        let mut pool: Vec<u64> = (0..range).collect();
        for i in 0..count as usize {
            let j = i + self.below(range - i as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(count as usize);
        pool
    }
}

/// The step sequence of a run: even steps write a fresh variable set
/// (one distinct variable per processor), odd steps read the same set
/// back under a different processor assignment.
pub struct Inputs {
    seed: u64,
    sets: Vec<Vec<u64>>,
}

impl Inputs {
    pub fn new(seed: u64, processors: u64, num_variables: u64) -> Self {
        let sets = (0..VAR_SETS)
            .map(|i| Rng::new(seed, 1 + i).distinct(processors, num_variables))
            .collect();
        Inputs { seed, sets }
    }

    /// Step `s` of the run.
    pub fn step(&self, s: u64) -> PramStep {
        let vars = &self.sets[((s / 2) % VAR_SETS) as usize];
        if s.is_multiple_of(2) {
            let values: Vec<u64> = vars.iter().map(|&v| self.value(s, v)).collect();
            PramStep::writes(vars, &values)
        } else {
            let mut order = vars.clone();
            let mut rng = Rng::new(self.seed, 0x5EAD ^ s);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            PramStep::reads(&order)
        }
    }

    fn value(&self, s: u64, var: u64) -> u64 {
        let mut rng = Rng::new(self.seed ^ var.rotate_left(20), 0x7A1 ^ s);
        rng.next() >> 1 | 1
    }
}

/// Seed of the quorum workload's fault plan. The faulty machine is part
/// of the workload, and `--seed` varies only the traffic. (Dead-node
/// placement alone moved the mean T_sim between 10 042 and 12 590 over
/// five seeds.)
const FAULT_SEED: u64 = 0xFA17;

/// The quorum workload's static faults, what `prasim simulate --policy
/// quorum --dead 4` injects: 4 dead nodes. Packets routed to or through
/// them detour, and copies on them are lost, yet every read and write
/// still reaches a target set. No copy is corrupt: a corrupt copy leaves
/// its subtree of `T_v` one lost packet from failing, and with 1 or 2
/// corrupt copies per variable a few reads per step came back
/// unrecoverable. (With 16 dead nodes, detours made a step's routing
/// cost depend so much on its traffic that mean T_sim spread 8% between
/// seeds; with 4, 0.3%.)
pub fn quorum_faults(hmos: &Hmos) -> FaultPlan {
    let mut plan = FaultPlan::new(FAULT_SEED);
    plan.random_dead_nodes(hmos.shape(), 4, 0);
    plan
}

/// Every value each variable has been written, for checking read
/// outputs independently of the simulator's own trace checker.
#[derive(Default)]
pub struct Model {
    history: HashMap<u64, Vec<u64>>,
}

/// Read results checked against the model.
#[derive(Default, Clone, Copy)]
pub struct ReadCheck {
    /// The variable's latest written value (0 if never written).
    pub latest: u64,
    /// An older written value: admissible only after a write that did
    /// not commit under faults.
    pub stale: u64,
    /// Unrecoverable, and reported as such.
    pub unrecoverable: u64,
    /// A value never written to the variable, or a missing value the
    /// simulator did not flag as unrecoverable.
    pub wrong: u64,
}

impl Model {
    /// Checks one step's read values, then records its writes (EREW: a
    /// step's reads never observe its own writes).
    pub fn apply(
        &mut self,
        step: &PramStep,
        reads: &[Option<u64>],
        outcomes: &[Option<QuorumRead>],
    ) -> ReadCheck {
        let mut check = ReadCheck::default();
        for (p, op) in step.ops.iter().enumerate() {
            let Some(Op::Read { var }) = op else { continue };
            let history = self.history.get(var).map(Vec::as_slice).unwrap_or(&[]);
            let latest = history.last().copied().unwrap_or(0);
            match (reads[p], outcomes[p]) {
                (Some(v), _) if v == latest => check.latest += 1,
                (Some(v), _) if history.contains(&v) => check.stale += 1,
                (None, Some(QuorumRead::Unrecoverable)) => check.unrecoverable += 1,
                _ => check.wrong += 1,
            }
        }
        for op in step.ops.iter().flatten() {
            if let Op::Write { var, value } = op {
                self.history.entry(*var).or_default().push(*value);
            }
        }
        check
    }
}
