//! End-to-end integration tests: the simulated machine must behave like
//! an ideal EREW shared memory across configurations, workloads and
//! multi-step programs, while respecting the paper's structural bounds.

use prasim::core::baseline::{BaselineScheme, FlatHmosSim, MehlhornVishkinSim, SingleCopySim};
use prasim::core::{workload, PramMeshSim, PramStep, SimConfig};
use prasim::sortnet::Sorter;

fn roundtrip(mut sim: PramMeshSim, active: u64, seed: u64) {
    let vars = workload::random_distinct(active, sim.num_variables(), seed);
    let values: Vec<u64> = vars.iter().map(|v| v ^ 0xABCD).collect();
    let w = sim.step(&PramStep::writes(&vars, &values)).unwrap();
    assert!(w.culling.theorem3_holds(), "{:?}", w.culling);
    let r = sim.step(&PramStep::reads(&vars)).unwrap();
    for (p, &v) in vars.iter().enumerate() {
        assert_eq!(r.reads[p], Some(v ^ 0xABCD), "processor {p} variable {v}");
    }
}

#[test]
fn roundtrip_default_config() {
    roundtrip(
        PramMeshSim::new(SimConfig::new(1024, 9000)).unwrap(),
        1024,
        1,
    );
}

#[test]
fn roundtrip_k1() {
    roundtrip(
        PramMeshSim::new(SimConfig::new(1024, 9000).with_k(1)).unwrap(),
        1024,
        2,
    );
}

#[test]
fn roundtrip_k3() {
    // k = 3 on a 64×64 mesh: redundancy 27.
    roundtrip(
        PramMeshSim::new(SimConfig::new(4096, 9000).with_k(3)).unwrap(),
        2048,
        3,
    );
}

#[test]
fn roundtrip_q4() {
    // q = 4 (an extension-field order, GF(2²)): redundancy 16.
    roundtrip(
        PramMeshSim::new(SimConfig::new(1024, 300).with_q(4)).unwrap(),
        256,
        4,
    );
}

#[test]
fn roundtrip_q5() {
    roundtrip(
        PramMeshSim::new(SimConfig::new(1024, 600).with_q(5)).unwrap(),
        512,
        5,
    );
}

#[test]
fn roundtrip_small_mesh() {
    // n = 256 admits at most d = 3 (117 variables) at k = 2.
    roundtrip(PramMeshSim::new(SimConfig::new(256, 100)).unwrap(), 117, 6);
}

#[test]
fn adversarial_workloads_respect_theorem3() {
    let mut sim = PramMeshSim::new(SimConfig::new(1024, 9000)).unwrap();
    for first in [0u64, 7, 40] {
        let vars = workload::multi_module_adversary(sim.hmos(), 1024, first);
        let r = sim.step(&PramStep::reads(&vars)).unwrap();
        assert!(
            r.culling.theorem3_holds(),
            "module {first}: {:?}",
            r.culling
        );
    }
    for stride in [1u64, 27, 81] {
        let vars = workload::strided(1024, sim.num_variables(), stride);
        let r = sim.step(&PramStep::reads(&vars)).unwrap();
        assert!(r.culling.theorem3_holds(), "stride {stride}");
    }
}

#[test]
fn multi_step_program_counter() {
    // A shared counter incremented by different processors across steps —
    // every increment must be visible to the next reader.
    let mut sim = PramMeshSim::new(SimConfig::new(256, 100)).unwrap();
    let ctr = 77u64;
    let mut expect = 0u64;
    for round in 0..12u64 {
        let reader = (round * 37 % 256) as usize;
        let mut read = PramStep {
            ops: vec![None; 256],
        };
        read.ops[reader] = Some(prasim::core::Op::Read { var: ctr });
        let r = sim.step(&read).unwrap();
        assert_eq!(r.reads[reader], Some(expect), "round {round}");

        let writer = (round * 91 % 256) as usize;
        expect += round + 1;
        let mut write = PramStep {
            ops: vec![None; 256],
        };
        write.ops[writer] = Some(prasim::core::Op::Write {
            var: ctr,
            value: expect,
        });
        sim.step(&write).unwrap();
    }
}

#[test]
fn all_schemes_agree_on_read_values() {
    // The HMOS machine, the single-copy scheme, MV and the flat ablation
    // are all implementations of the same shared memory: identical
    // results on identical programs.
    let n = 1024u64;
    let mut hm = PramMeshSim::new(SimConfig::new(n, 9000)).unwrap();
    let nv = hm.num_variables();
    let mut sc = SingleCopySim::new(n, nv, Sorter::default()).unwrap();
    let mut mv = MehlhornVishkinSim::new(n, nv, 3, Sorter::default()).unwrap();
    let mut fh = FlatHmosSim::new(3, 2, n, 9000, Sorter::default()).unwrap();

    let vars = workload::random_distinct(700, nv, 99);
    let vals: Vec<u64> = vars.iter().map(|v| v * 7 + 3).collect();
    let wstep = PramStep::writes(&vars, &vals);
    let rstep = PramStep::reads(&vars);
    hm.step(&wstep).unwrap();
    sc.step(&wstep).unwrap();
    mv.step(&wstep).unwrap();
    fh.step(&wstep).unwrap();
    let a = hm.step(&rstep).unwrap().reads;
    let b = sc.step(&rstep).unwrap().reads;
    let c = mv.step(&rstep).unwrap().reads;
    let d = fh.step(&rstep).unwrap().reads;
    assert_eq!(a, b);
    assert_eq!(a, c);
    assert_eq!(a, d);
}

#[test]
fn slowdown_stays_near_sqrt_n_for_small_alpha() {
    // With α ≈ 1 the step time is c·√n for a constant dominated by the
    // sorting passes (k iterations × q^k keys/node × shearsort phases —
    // roughly k·q^k·log n ≈ 400–600 at this size). The growth *rate* is
    // what Theorem 1 claims; experiment T1 fits the exponent. Here we
    // only pin the constant to a sane band.
    let mut sim = PramMeshSim::new(SimConfig::new(1024, 1100)).unwrap();
    let vars = workload::random_distinct(1024, sim.num_variables(), 5);
    let r = sim.step(&PramStep::reads(&vars)).unwrap();
    let sqrt_n = (1024f64).sqrt();
    let slowdown = r.total_steps as f64 / sqrt_n;
    assert!(
        slowdown < 700.0,
        "slowdown {slowdown:.1}×√n looks unreasonably large"
    );
}

#[test]
fn idle_heavy_steps_work() {
    let mut sim = PramMeshSim::new(SimConfig::new(1024, 9000)).unwrap();
    // Only 3 active processors scattered across the mesh.
    let mut step = PramStep {
        ops: vec![None; 1024],
    };
    step.ops[0] = Some(prasim::core::Op::Write { var: 10, value: 1 });
    step.ops[512] = Some(prasim::core::Op::Write { var: 20, value: 2 });
    step.ops[1023] = Some(prasim::core::Op::Write { var: 30, value: 3 });
    sim.step(&step).unwrap();
    let mut read = PramStep {
        ops: vec![None; 1024],
    };
    read.ops[100] = Some(prasim::core::Op::Read { var: 10 });
    read.ops[200] = Some(prasim::core::Op::Read { var: 20 });
    read.ops[300] = Some(prasim::core::Op::Read { var: 30 });
    let r = sim.step(&read).unwrap();
    assert_eq!(r.reads[100], Some(1));
    assert_eq!(r.reads[200], Some(2));
    assert_eq!(r.reads[300], Some(3));
}

#[test]
fn crowded_configuration_shares_nodes_correctly() {
    // n = 1024, d = 6: level 1 needs 2187 pages > 1024 nodes, so pages
    // share nodes (slot-namespaced). The machine must stay a correct
    // shared memory.
    let mut sim = PramMeshSim::new(SimConfig::new(1024, 80_000)).unwrap();
    assert_eq!(sim.hmos().params().crowded_levels(), vec![1]);
    let vars = workload::random_distinct(1024, sim.num_variables(), 77);
    let values: Vec<u64> = vars.iter().map(|v| v + 5).collect();
    sim.step(&PramStep::writes(&vars, &values)).unwrap();
    let r = sim.step(&PramStep::reads(&vars)).unwrap();
    for (p, &v) in vars.iter().enumerate() {
        assert_eq!(r.reads[p], Some(v + 5), "crowded config, processor {p}");
    }
}

#[test]
fn engine_budget_exhaustion_surfaces_as_error() {
    use prasim::core::sim::SimError;
    let mut config = SimConfig::new(1024, 9000);
    config.max_engine_steps = 1; // absurd budget
    let mut sim = PramMeshSim::new(config).unwrap();
    let vars = workload::random_distinct(1024, sim.num_variables(), 3);
    match sim.step(&PramStep::reads(&vars)) {
        Err(SimError::Engine(_)) => {}
        other => panic!("expected engine budget error, got {other:?}"),
    }
}

#[test]
fn analytic_sort_mode_changes_costs_not_values() {
    let mut measured = PramMeshSim::new(SimConfig::new(1024, 9000)).unwrap();
    let mut analytic =
        PramMeshSim::new(SimConfig::new(1024, 9000).with_analytic_sort(true)).unwrap();
    let vars = workload::random_distinct(1024, measured.num_variables(), 21);
    let values: Vec<u64> = vars.iter().map(|v| v * 2).collect();
    measured.step(&PramStep::writes(&vars, &values)).unwrap();
    analytic.step(&PramStep::writes(&vars, &values)).unwrap();
    let rm = measured.step(&PramStep::reads(&vars)).unwrap();
    let ra = analytic.step(&PramStep::reads(&vars)).unwrap();
    assert_eq!(rm.reads, ra.reads, "accounting must not affect semantics");
    assert_ne!(
        rm.total_steps, ra.total_steps,
        "the two accountings should differ at this size"
    );
    assert!(
        ra.total_steps < rm.total_steps,
        "analytic drops the log factor"
    );
}
