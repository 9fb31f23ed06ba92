//! The simulator facade: configure once, then feed PRAM steps.

use crate::culling::{cull_with, select_all, CullingReport};
use crate::pram::{Op, PramStep};
use crate::protocol::{access_protocol, Cell, ProtocolReport, ReadPolicy, RunOptions};
use prasim_exec::ExecCtx;
use prasim_fault::{FaultPlan, ReadOutcome, ReadRecord, TraceChecker, TraceReport, WriteRecord};
use prasim_hmos::{CopyAddr, Hmos, HmosError, HmosParams, QuorumRead};
use prasim_mesh::engine::EngineError;
use std::collections::HashMap;

/// Configuration of a PRAM-on-mesh simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Mesh nodes = PRAM processors (perfect square).
    pub n: u64,
    /// Redundancy base (prime power ≥ 3); the paper's minimum, 3, is the
    /// default and optimal choice.
    pub q: u64,
    /// HMOS levels (redundancy is `q^k`).
    pub k: u32,
    /// Requested shared-memory size; rounded up to the next valid
    /// `f(d)`.
    pub memory: u64,
    /// Multiplier on the culling marking bound (1.0 = the paper's).
    pub culling_slack: f64,
    /// Step budget per routing phase (safety against runaway runs).
    pub max_engine_steps: u64,
    /// Charge the paper's analytic sort bound instead of the measured
    /// shearsort steps (DESIGN.md §4).
    pub analytic_sort: bool,
    /// How reads are resolved from the reached copies. The default
    /// ([`ReadPolicy::Freshest`]) is the fault-free fast path; switch to
    /// [`ReadPolicy::HierarchicalMajority`] to read via Definition 2's
    /// quorum over all `q^k` copies (required for fault tolerance).
    pub read_policy: ReadPolicy,
    // Ignored, and always 1: kept only so stepbench compiles (its traced
    // mirror passes it to `ExecCtx::new`); goes with the benchmark change
    // of ROADMAP item 1.
    #[doc(hidden)]
    pub threads: usize,
    /// The step-simulated mesh sorter CULLING and the access protocol
    /// run on. Defaults to [`prasim_sortnet::Sorter::default`]
    /// (columnsort).
    pub sorter: prasim_sortnet::Sorter,
}

impl SimConfig {
    /// The default configuration: `q = 3`, `k = 2`, generous engine
    /// budget, the default sorter.
    pub fn new(n: u64, memory: u64) -> Self {
        SimConfig {
            n,
            q: 3,
            k: 2,
            memory,
            culling_slack: 1.0,
            max_engine_steps: 100_000_000,
            analytic_sort: false,
            read_policy: ReadPolicy::Freshest,
            threads: 1,
            sorter: prasim_sortnet::Sorter::default(),
        }
    }

    // Ignores its argument: kept only so stepbench compiles; goes with
    // the benchmark change of ROADMAP item 1.
    #[doc(hidden)]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Selects the mesh sorter (`shearsort` or `columnsort`).
    pub fn with_sorter(mut self, sorter: prasim_sortnet::Sorter) -> Self {
        self.sorter = sorter;
        self
    }

    /// Sets the read-resolution policy.
    pub fn with_read_policy(mut self, policy: ReadPolicy) -> Self {
        self.read_policy = policy;
        self
    }

    /// Charges the paper's analytic sort bound instead of the measured
    /// shearsort steps.
    pub fn with_analytic_sort(mut self, analytic: bool) -> Self {
        self.analytic_sort = analytic;
        self
    }

    /// Sets the number of levels `k`.
    pub fn with_k(mut self, k: u32) -> Self {
        self.k = k;
        self
    }

    /// Sets the redundancy base `q`.
    pub fn with_q(mut self, q: u64) -> Self {
        self.q = q;
        self
    }

    /// Sets the culling slack factor.
    pub fn with_culling_slack(mut self, slack: f64) -> Self {
        self.culling_slack = slack;
        self
    }
}

/// Errors from simulation.
#[derive(Debug)]
pub enum SimError {
    /// Parameter derivation / scheme construction failed.
    Hmos(HmosError),
    /// A routing phase exceeded the engine budget.
    Engine(EngineError),
    /// The step violates EREW or addresses a missing variable.
    InvalidStep {
        /// The offending variable.
        var: u64,
    },
    /// More operations than processors.
    TooManyOps {
        /// Operations supplied.
        ops: usize,
        /// Processors available.
        n: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Hmos(e) => write!(f, "{e}"),
            SimError::Engine(e) => write!(f, "{e}"),
            SimError::InvalidStep { var } => {
                write!(
                    f,
                    "invalid PRAM step (variable {var}: duplicate or out of range)"
                )
            }
            SimError::TooManyOps { ops, n } => {
                write!(
                    f,
                    "step has {ops} operations but the machine has {n} processors"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<HmosError> for SimError {
    fn from(e: HmosError) -> Self {
        SimError::Hmos(e)
    }
}

impl From<EngineError> for SimError {
    fn from(e: EngineError) -> Self {
        SimError::Engine(e)
    }
}

/// Everything measured while simulating one PRAM step.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Copy-selection statistics (`T_culling`).
    pub culling: CullingReport,
    /// Access-protocol statistics (`T_protocol`).
    pub protocol: ProtocolReport,
    /// Per-processor read results (None for writers, idle processors,
    /// and unrecoverable reads).
    pub reads: Vec<Option<u64>>,
    /// Per-processor read resolutions (None for writers / idle
    /// processors); distinguishes clean, tainted, and unrecoverable
    /// reads under fault injection.
    pub outcomes: Vec<Option<QuorumRead>>,
    /// `T_sim` = culling + protocol steps.
    pub total_steps: u64,
}

/// The deterministic PRAM-on-mesh simulator.
///
/// ```
/// use prasim_core::{PramMeshSim, SimConfig, PramStep};
///
/// // 64 processors (8×8 mesh), 12 shared variables, q = 3, k = 2.
/// let mut sim = PramMeshSim::new(SimConfig::new(64, 12)).unwrap();
/// let vars: Vec<u64> = (0..12).collect();
/// let report = sim.step(&PramStep::writes(&vars, &vars)).unwrap();
/// assert!(report.total_steps > 0);
/// let report = sim.step(&PramStep::reads(&vars)).unwrap();
/// assert_eq!(report.reads[7], Some(7));
/// ```
#[derive(Debug)]
pub struct PramMeshSim {
    config: SimConfig,
    hmos: Hmos,
    memory: Vec<HashMap<u64, Cell>>,
    clock: u64,
    fault_plan: Option<FaultPlan>,
    checker: TraceChecker,
    exec: ExecCtx,
}

impl PramMeshSim {
    /// Builds the simulator: derives HMOS parameters, constructs the
    /// replication graphs and the page tessellations, and builds the
    /// execution context (engine pool, sorter resources, cost ledger)
    /// every step borrows.
    pub fn new(config: SimConfig) -> Result<Self, SimError> {
        let params = HmosParams::new(config.q, config.k, config.n, config.memory)?;
        let hmos = Hmos::new(params)?;
        let exec = ExecCtx::new(1, config.sorter, config.analytic_sort);
        Ok(PramMeshSim {
            memory: vec![HashMap::new(); config.n as usize],
            hmos,
            config,
            clock: 0,
            fault_plan: None,
            checker: TraceChecker::new(),
            exec,
        })
    }

    /// The simulation's execution context (pooled engines, sorter
    /// resources, cost ledger).
    pub fn exec(&mut self) -> &mut ExecCtx {
        &mut self.exec
    }

    /// Installs a fault scenario; subsequent steps run against it. The
    /// plan's per-step activation thresholds are compared against this
    /// simulator's [`PramMeshSim::clock`].
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Builder form of [`PramMeshSim::set_fault_plan`].
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// The installed fault scenario, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// The consistency verdict over every step simulated so far: each
    /// read and write is replayed against an ideal EREW PRAM memory, so
    /// this reports exactly how the machine degraded under faults
    /// (`silent_wrong_reads` must stay 0 for the run to be trustworthy).
    pub fn trace_report(&self) -> TraceReport {
        self.checker.report()
    }

    /// The underlying memory organization scheme.
    pub fn hmos(&self) -> &Hmos {
        &self.hmos
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of addressable shared variables (`≥ config.memory`).
    pub fn num_variables(&self) -> u64 {
        self.hmos.num_variables()
    }

    /// PRAM steps simulated so far.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Simulates one PRAM step: CULLING, then the staged access protocol.
    pub fn step(&mut self, step: &PramStep) -> Result<StepReport, SimError> {
        if step.ops.len() > self.config.n as usize {
            return Err(SimError::TooManyOps {
                ops: step.ops.len(),
                n: self.config.n,
            });
        }
        step.validate(self.num_variables())
            .map_err(|var| SimError::InvalidStep { var })?;

        let mut ops = step.ops.clone();
        ops.resize(self.config.n as usize, None);
        let requests: Vec<Option<u64>> = ops.iter().map(|o| o.map(|op| op.var())).collect();

        // Freshest reads use the culled minimal target sets; majority
        // reads must see every copy so the quorum can out-vote faults.
        let culled = match self.config.read_policy {
            ReadPolicy::Freshest => cull_with(
                &self.hmos,
                &requests,
                self.config.culling_slack,
                &mut self.exec,
            ),
            ReadPolicy::HierarchicalMajority => select_all(&self.hmos, &requests),
        };
        self.clock += 1;
        let run = RunOptions {
            clock: self.clock,
            max_engine_steps: self.config.max_engine_steps,
            policy: self.config.read_policy,
            faults: self.fault_plan.as_ref(),
        };
        let mut access = access_protocol(
            &self.hmos,
            &mut self.memory,
            &ops,
            &culled.selected,
            &run,
            &mut self.exec,
        )?;

        // Feed the consistency checker before truncating.
        let mut read_recs = Vec::new();
        let mut write_recs = Vec::new();
        for (p, op) in ops.iter().enumerate() {
            match op {
                Some(Op::Read { var }) => {
                    let outcome = match access.outcomes[p] {
                        Some(QuorumRead::Value { value, .. }) => ReadOutcome::Value(value),
                        Some(QuorumRead::Tainted { value, .. }) => ReadOutcome::Tainted(value),
                        _ => ReadOutcome::Unrecoverable,
                    };
                    read_recs.push(ReadRecord {
                        proc: p as u32,
                        var: *var,
                        outcome,
                    });
                }
                Some(Op::Write { var, value }) => write_recs.push(WriteRecord {
                    proc: p as u32,
                    var: *var,
                    value: *value,
                    committed: access.write_committed[p].unwrap_or(false),
                }),
                None => {}
            }
        }
        self.checker.record_step(&read_recs, &write_recs);

        // Report reads aligned with the caller's ops (the tail we padded
        // with idle processors is dropped).
        access.reads.truncate(step.ops.len());
        access.outcomes.truncate(step.ops.len());

        let total_steps = culled.report.total_steps + access.report.total_steps;
        Ok(StepReport {
            culling: culled.report,
            protocol: access.report,
            reads: access.reads,
            outcomes: access.outcomes,
            total_steps,
        })
    }

    /// Oracle read bypassing the protocol: scans *all* `q^k` copies of
    /// the variable and returns the freshest value. Used by tests to
    /// check that the machine behaves like an ideal shared memory.
    pub fn oracle_read(&self, var: u64) -> u64 {
        let shape = self.hmos.shape();
        let mut best = (0u64, 0u64); // (ts, value)
        for addr in self.hmos.copies_of(var) {
            let rc = self.hmos.resolve(&addr);
            let node = shape.index(rc.node) as usize;
            if let Some(&(value, ts)) = self.memory[node].get(&rc.slot) {
                if ts >= best.0 {
                    best = (ts, value);
                }
            }
        }
        best.1
    }

    /// Bytes-free structural sanity check used by tests: every copy of
    /// `var` resolves inside the mesh.
    pub fn check_variable(&self, var: u64) -> bool {
        self.hmos.copies_of(var).all(|addr: CopyAddr| {
            let rc = self.hmos.resolve(&addr);
            self.hmos.shape().contains(rc.node)
        })
    }
}

/// The paper's Eq. (8) bound on the simulation time, with unit constants:
/// `T_sim = q^k·√n·(k + n^{(α-1)/2^{k+1}} + q^{(k+1)/2}·Σ_{i=2}^k
/// q^{-i/2}·n^{(2α-3)/2^{i+1}})`.
pub fn eq8_bound(q: u64, k: u32, n: u64, alpha: f64) -> f64 {
    let qf = q as f64;
    let nf = n as f64;
    let qk = qf.powi(k as i32);
    let mut sum = 0.0;
    for i in 2..=k {
        sum += qf.powf(-(i as f64) / 2.0) * nf.powf((2.0 * alpha - 3.0) / 2f64.powi(i as i32 + 1));
    }
    qk * nf.sqrt()
        * (k as f64
            + nf.powf((alpha - 1.0) / 2f64.powi(k as i32 + 1))
            + qf.powf((k as f64 + 1.0) / 2.0) * sum)
}

/// Theorem 1/4's headline exponent for a given `α` (constant-redundancy
/// regimes): `1/2 + (α-1)/16` for `3/2 ≤ α ≤ 5/3` (k = 3), and
/// `1/2 + (2α-3)/8` for `5/3 ≤ α ≤ 2` (k = 3); for `α ≤ 3/2` the theorem
/// gives `1/2 + ε` for any `ε > 0` (we report the `k = 2` value
/// `1/2 + (α-1)/8` from Eq. (9) as the concrete finite-k exponent).
pub fn theorem1_exponent(alpha: f64) -> f64 {
    if alpha <= 1.5 {
        0.5 + (alpha - 1.0) / 8.0
    } else if alpha <= 5.0 / 3.0 {
        0.5 + (alpha - 1.0) / 16.0
    } else {
        0.5 + (2.0 * alpha - 3.0) / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn sim(n: u64, memory: u64) -> PramMeshSim {
        PramMeshSim::new(SimConfig::new(n, memory)).unwrap()
    }

    #[test]
    fn construction_reports_config() {
        let s = sim(1024, 1000);
        assert_eq!(s.num_variables(), 1080); // f(4) for q=3
        assert_eq!(s.config().k, 2);
        assert!(s.check_variable(0));
        assert!(s.check_variable(1079));
    }

    #[test]
    fn write_read_full_machine() {
        let mut s = sim(1024, 1080);
        let vars = workload::random_distinct(1024, s.num_variables(), 11);
        let w = s.step(&PramStep::writes(&vars, &vars)).unwrap();
        assert!(w.reads.iter().all(Option::is_none));
        let r = s.step(&PramStep::reads(&vars)).unwrap();
        for (p, &v) in vars.iter().enumerate() {
            assert_eq!(r.reads[p], Some(v), "processor {p} variable {v}");
        }
        assert!(r.total_steps >= r.protocol.total_steps);
    }

    #[test]
    fn oracle_agrees_with_protocol() {
        let mut s = sim(1024, 1080);
        let vars = workload::random_distinct(200, s.num_variables(), 13);
        let values: Vec<u64> = vars.iter().map(|v| v * 3 + 1).collect();
        s.step(&PramStep::writes(&vars, &values)).unwrap();
        for (i, &v) in vars.iter().enumerate() {
            assert_eq!(s.oracle_read(v), values[i]);
        }
    }

    #[test]
    fn overwrite_visibility_across_different_step_shapes() {
        // Write v among many, overwrite it alone, read among many:
        // different steps cull differently, but the majority intersection
        // must expose the latest write.
        let mut s = sim(1024, 1080);
        let vars = workload::random_distinct(500, s.num_variables(), 17);
        s.step(&PramStep::writes(&vars, &vec![1; 500])).unwrap();
        s.step(&PramStep::writes(&[vars[250]], &[99])).unwrap();
        let r = s.step(&PramStep::reads(&vars)).unwrap();
        assert_eq!(r.reads[250], Some(99));
        assert_eq!(r.reads[0], Some(1));
    }

    #[test]
    fn rejects_invalid_steps() {
        // n = 256 only admits d = 3 (117 variables) at k = 2: larger d
        // makes level-2 submeshes too small for their child pages.
        let mut s = sim(256, 100);
        assert!(matches!(
            s.step(&PramStep::reads(&[5, 5])),
            Err(SimError::InvalidStep { var: 5 })
        ));
        let too_big = s.num_variables();
        assert!(matches!(
            s.step(&PramStep::reads(&[too_big])),
            Err(SimError::InvalidStep { .. })
        ));
        let many: Vec<u64> = (0..257).collect();
        assert!(matches!(
            s.step(&PramStep::reads(&many)),
            Err(SimError::TooManyOps { .. })
        ));
    }

    #[test]
    fn eq8_bound_sane() {
        // At α = 1.5, k = 2, q = 3 the bound is Θ(n^{1/2 + 1/16}) modulo
        // constants; it must grow superlinearly in √n and be finite.
        let b1 = eq8_bound(3, 2, 1024, 1.5);
        let b2 = eq8_bound(3, 2, 4096, 1.5);
        assert!(b1 > 0.0 && b2 > 2.0 * b1);
        // Monotone within each regime branch (across branches the
        // optimal k changes, so the envelope is not monotone).
        assert!(theorem1_exponent(1.2) < theorem1_exponent(1.4));
        assert!(theorem1_exponent(1.55) < theorem1_exponent(1.65));
        assert!(theorem1_exponent(1.8) < theorem1_exponent(2.0));
        assert!((theorem1_exponent(2.0) - 0.625).abs() < 1e-12);
    }

    #[test]
    fn quorum_policy_matches_freshest_when_fault_free() {
        let mut s = PramMeshSim::new(
            SimConfig::new(1024, 1080).with_read_policy(ReadPolicy::HierarchicalMajority),
        )
        .unwrap();
        let vars = workload::random_distinct(300, s.num_variables(), 31);
        let values: Vec<u64> = vars.iter().map(|v| v + 7).collect();
        s.step(&PramStep::writes(&vars, &values)).unwrap();
        let r = s.step(&PramStep::reads(&vars)).unwrap();
        for (p, &val) in values.iter().enumerate() {
            assert_eq!(r.reads[p], Some(val), "processor {p}");
        }
        let t = s.trace_report();
        assert!(t.is_consistent() && t.fully_recovered(), "{t:?}");
        assert_eq!(t.committed_writes, 300);
        assert_eq!(t.correct_reads, 300);
    }

    #[test]
    fn dead_nodes_degrade_gracefully_under_quorum() {
        use prasim_fault::FaultPlan;

        let mut s = PramMeshSim::new(
            SimConfig::new(1024, 1080).with_read_policy(ReadPolicy::HierarchicalMajority),
        )
        .unwrap();
        let shape = s.hmos().shape();
        let mut plan = FaultPlan::new(1234);
        plan.random_dead_nodes(shape, 20, 0);
        s.set_fault_plan(plan);

        let vars = workload::random_distinct(200, s.num_variables(), 41);
        let values: Vec<u64> = vars.iter().map(|v| v * 2 + 1).collect();
        s.step(&PramStep::writes(&vars, &values)).unwrap();
        let r = s.step(&PramStep::reads(&vars)).unwrap();
        let t = s.trace_report();
        // Graceful degradation: losses are allowed, lies are not.
        assert!(t.is_consistent(), "{t:?}");
        assert_eq!(t.silent_wrong_reads, 0);
        // 20 dead nodes in 1024 should leave the vast majority readable.
        assert!(t.correct_reads + t.tainted_reads > 150, "{t:?}");
        assert!(r.protocol.dropped > 0, "dead nodes must swallow packets");
    }

    #[test]
    fn checker_catches_freshest_silent_wrong_reads() {
        use prasim_fault::{CopyFaultKind, FaultPlan};

        // Default (freshest) policy: corrupt copies with forged
        // timestamps silently win the read, and only the trace checker
        // notices. Corrupting all but 3 of the 9 copies guarantees every
        // culled 4-copy target set touches a corrupt cell.
        let mut s = sim(1024, 1080);
        let v = 50u64;
        let qk = s.hmos().params().redundancy();
        let mut plan = FaultPlan::new(7);
        plan.fault_variable_copies(s.hmos(), v, qk - 3, CopyFaultKind::Corrupt, 0);
        s.set_fault_plan(plan);
        s.step(&PramStep::writes(&[v], &[42])).unwrap();
        let r = s.step(&PramStep::reads(&[v])).unwrap();
        assert_ne!(r.reads[0], Some(42), "freshest rule must be fooled");
        let t = s.trace_report();
        assert_eq!(t.silent_wrong_reads, 1);
        assert!(!t.is_consistent());
    }

    #[test]
    fn mixed_step_reads_see_previous_writes_only() {
        let mut s = sim(1024, 1080);
        let vars = workload::random_distinct(100, s.num_variables(), 23);
        s.step(&PramStep::writes(&vars, &vec![7; 100])).unwrap();
        let m = workload::mixed_step(&vars, 1000);
        let r = s.step(&m).unwrap();
        // Odd processors read; they must see the value from step 1 (7),
        // not this step's writes (different variables by EREW).
        for p in (1..100).step_by(2) {
            assert_eq!(r.reads[p], Some(7));
        }
    }
}
