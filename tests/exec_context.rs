//! Execution-context equivalence and isolation.
//!
//! The tentpole guarantee of the `prasim-exec` layer: a long-lived
//! [`ExecCtx`] — recycled engines, warm route memo, reused scratch
//! arenas — is a pure wall-clock optimization.
//! Every observable of a simulation step (reads, outcomes, culling and
//! protocol step counts, trace reports) must be byte-identical to a run
//! that rebuilds the whole context from scratch at every step boundary,
//! at every worker-thread count, with and without injected faults.
//!
//! Contexts must also be isolated: two simulations running concurrently
//! on separate OS threads with different sorters and mesh shapes own
//! separate route memos and engine pools, so neither contends with nor
//! cross-pollinates the other.

use prasim::core::{Op, PramMeshSim, PramStep, SimConfig};
use prasim::exec::ExecCtx;
use prasim::fault::FaultPlan;
use prasim::sortnet::Sorter;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ProgramSpec {
    steps: Vec<Vec<(u64, Option<u64>)>>, // (var, Some(value)=write / None=read)
}

fn program(num_vars: u64, max_steps: usize, max_ops: usize) -> impl Strategy<Value = ProgramSpec> {
    let step = prop::collection::vec(
        (0..num_vars, prop::option::of(0u64..1_000_000)),
        1..=max_ops,
    );
    prop::collection::vec(step, 1..=max_steps).prop_map(|steps| ProgramSpec { steps })
}

/// Lowers a program spec onto a `n`-processor machine: one op per
/// processor, duplicate variables dropped, deterministic scatter.
fn lower(spec: &ProgramSpec, n: usize) -> Vec<PramStep> {
    spec.steps
        .iter()
        .map(|raw| {
            let mut seen = std::collections::HashSet::new();
            let mut step = PramStep { ops: vec![None; n] };
            for (i, &(var, write)) in raw.iter().filter(|(v, _)| seen.insert(*v)).enumerate() {
                let p = (i * 37 + 11) % n;
                step.ops[p] = Some(match write {
                    Some(value) => Op::Write { var, value },
                    None => Op::Read { var },
                });
            }
            step
        })
        .collect()
}

/// Runs `steps` and returns a byte-exact transcript of everything a
/// step observes: the full debug rendering of each report plus the
/// final trace report.
fn transcript(sim: &mut PramMeshSim, steps: &[PramStep], fresh_per_step: bool) -> Vec<String> {
    let mut out = Vec::new();
    for step in steps {
        if fresh_per_step {
            // Every step starts from a new context: engines, memo and
            // arenas rebuilt from nothing.
            let c = sim.exec();
            *c = ExecCtx::new(c.threads(), c.sorter(), c.ledger().analytic());
        }
        let report = sim.step(step).unwrap();
        out.push(format!("{report:?}"));
    }
    out.push(format!("{:?}", sim.trace_report()));
    out
}

fn config(n: u64, threads: usize) -> SimConfig {
    SimConfig::new(n, 117).with_threads(threads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Reused context ≡ fresh context, across thread counts and shapes.
    #[test]
    fn reused_context_is_byte_identical(
        spec in program(117, 4, 48),
        threads in prop::sample::select(&[1usize, 2, 3, 7]),
        n in prop::sample::select(&[256u64, 1024]),
    ) {
        let steps = lower(&spec, n as usize);
        let mut reused = PramMeshSim::new(config(n, threads)).unwrap();
        let mut fresh = PramMeshSim::new(config(n, threads)).unwrap();
        let a = transcript(&mut reused, &steps, false);
        let b = transcript(&mut fresh, &steps, true);
        prop_assert_eq!(a, b);
    }

    /// Same equivalence under an active fault plan.
    #[test]
    fn reused_context_is_byte_identical_under_faults(
        spec in program(117, 3, 32),
        threads in prop::sample::select(&[1usize, 2, 7]),
    ) {
        let steps = lower(&spec, 256);
        let build = || {
            let mut sim = PramMeshSim::new(config(256, threads)).unwrap();
            let shape = sim.hmos().shape();
            let mut plan = FaultPlan::new(0xEC5);
            plan.random_dead_nodes(shape, 6, 0);
            sim.set_fault_plan(plan);
            sim
        };
        let a = transcript(&mut build(), &steps, false);
        let b = transcript(&mut build(), &steps, true);
        prop_assert_eq!(a, b);
    }
}

/// One fixed workload per (n, sorter), returning the transcript.
fn run_workload(n: u64, sorter: Sorter) -> Vec<String> {
    let mut sim = PramMeshSim::new(SimConfig::new(n, 200).with_sorter(sorter)).unwrap();
    let vars: Vec<u64> = (0..150).map(|i| (i * 7 + 3) % 200).collect();
    let mut seen = std::collections::HashSet::new();
    let vars: Vec<u64> = vars.into_iter().filter(|v| seen.insert(*v)).collect();
    let values: Vec<u64> = vars.iter().map(|v| v * 13 + 1).collect();
    let mut out = Vec::new();
    out.push(format!(
        "{:?}",
        sim.step(&PramStep::writes(&vars, &values)).unwrap()
    ));
    out.push(format!("{:?}", sim.step(&PramStep::reads(&vars)).unwrap()));
    out.push(format!("{:?}", sim.trace_report()));
    out
}

/// Two simulations on separate OS threads — different sorters, different
/// mesh shapes, each with its own context — must produce exactly what
/// they produce when run alone. A shared/global route memo or engine
/// pool would either contend (deadlock, poisoned locks) or
/// cross-pollinate (one sorter's permutation measurements leaking into
/// the other's cost model); per-context state shows neither.
#[test]
fn concurrent_simulations_do_not_share_context_state() {
    let solo_a = run_workload(1024, Sorter::Columnsort);
    let solo_b = run_workload(256, Sorter::Shearsort);

    for _ in 0..3 {
        let ta = std::thread::spawn(|| run_workload(1024, Sorter::Columnsort));
        let tb = std::thread::spawn(|| run_workload(256, Sorter::Shearsort));
        let a = ta.join().expect("columnsort sim panicked");
        let b = tb.join().expect("shearsort sim panicked");
        assert_eq!(a, solo_a, "concurrent run changed the columnsort sim");
        assert_eq!(b, solo_b, "concurrent run changed the shearsort sim");
    }
}
