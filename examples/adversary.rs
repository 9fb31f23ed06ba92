//! The worst-case story of Section 1: an adversary that aims every
//! request at a single memory module destroys the no-replication scheme,
//! degrades Mehlhorn–Vishkin writes, and is absorbed by the HMOS with
//! CULLING (Theorem 3 caps every page's load).
//!
//! ```sh
//! cargo run --release --example adversary
//! ```

use prasim::core::baseline::{BaselineScheme, FlatHmosSim, MehlhornVishkinSim, SingleCopySim};
use prasim::core::{workload, PramMeshSim, PramStep, SimConfig};
use prasim::sortnet::Sorter;

fn main() {
    let n = 1024u64;
    let mut sim = PramMeshSim::new(SimConfig::new(n, 9000)).expect("valid configuration");
    let num_vars = sim.num_variables();
    // The single-copy scheme has no structural constraints, so give it
    // the large memory (n² variables) its worst case needs.
    let mut single = SingleCopySim::new(n, n * n, Sorter::default()).unwrap();
    let mut mv = MehlhornVishkinSim::new(n, num_vars, 3, Sorter::default()).unwrap();
    let mut flat = FlatHmosSim::new(3, 2, n, 9000, Sorter::default()).unwrap();

    println!("n = {n}, memory = {num_vars} variables\n");
    println!(
        "{:<18} {:>14} {:>14} {:>10}",
        "scheme", "uniform steps", "adversary", "ratio"
    );

    // Uniform workload.
    let uniform = workload::random_distinct(n, num_vars, 7);
    // Adversary per scheme:
    // - single-copy: all variables homed on node 0 (var ≡ 0 mod n);
    // - HMOS schemes: variables concentrated in as few level-1 modules as
    //   possible.
    let single_uniform = workload::random_distinct(n, n * n, 7);
    let single_adv: Vec<u64> = (0..n).map(|i| i * n).collect();
    let hmos_adv = workload::multi_module_adversary(sim.hmos(), n, 0);

    let su = single
        .step(&PramStep::reads(&single_uniform))
        .unwrap()
        .total_steps;
    let sa = single
        .step(&PramStep::reads(&single_adv))
        .unwrap()
        .total_steps;
    println!(
        "{:<18} {:>14} {:>14} {:>9.1}x",
        single.name(),
        su,
        sa,
        sa as f64 / su as f64
    );

    let mu = mv.step(&PramStep::reads(&uniform)).unwrap().total_steps;
    let ma = mv.step(&PramStep::reads(&hmos_adv)).unwrap().total_steps;
    println!(
        "{:<18} {:>14} {:>14} {:>9.1}x",
        mv.name(),
        mu,
        ma,
        ma as f64 / mu as f64
    );
    // MV's weak spot is writes (write-all):
    let mw = mv
        .step(&PramStep::writes(&uniform, &uniform))
        .unwrap()
        .total_steps;
    println!(
        "{:<18} {:>14}   (write step: {} steps, c× amplification)",
        "", "", mw
    );

    let fu = flat.step(&PramStep::reads(&uniform)).unwrap().total_steps;
    let fa = flat.step(&PramStep::reads(&hmos_adv)).unwrap().total_steps;
    println!(
        "{:<18} {:>14} {:>14} {:>9.1}x",
        flat.name(),
        fu,
        fa,
        fa as f64 / fu as f64
    );

    let hu = sim.step(&PramStep::reads(&uniform)).unwrap();
    let ha = sim.step(&PramStep::reads(&hmos_adv)).unwrap();
    println!(
        "{:<18} {:>14} {:>14} {:>9.1}x",
        "hmos+culling",
        hu.total_steps,
        ha.total_steps,
        ha.total_steps as f64 / hu.total_steps as f64
    );

    println!("\nTheorem 3 certificate for the adversarial step:");
    for it in &ha.culling.iterations {
        println!(
            "  level {}: max page load {} ≤ bound {} ({})",
            it.level,
            it.max_page_load,
            it.theorem3_bound,
            if it.max_page_load <= it.theorem3_bound {
                "ok"
            } else {
                "VIOLATED"
            }
        );
    }
    assert!(ha.culling.theorem3_holds());
}
