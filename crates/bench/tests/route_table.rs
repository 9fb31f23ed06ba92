//! The committed route-cost table covers the simulator's own runs: the
//! steps of `prasim simulate` at its defaults and write/read steps at
//! stepbench's n = 4096, memory 40 000 sort only on shapes the table
//! holds, so no route is measured and the context's route memo stays
//! empty. A configuration that drops out of the `route_costs`
//! generator's key set fails here.

use prasim_core::{workload, PramMeshSim, ReadPolicy, SimConfig};

/// Runs a write step and a read step, the `i`-th on the variables of
/// `random_distinct` seeded `seeds[i]`, and asserts nothing was measured.
fn assert_no_route_measured(config: SimConfig, seeds: [u64; 2]) {
    let mut sim = PramMeshSim::new(config).expect("valid sim");
    let (n, nv) = (config.n, sim.num_variables());
    let vars = seeds.map(|seed| workload::random_distinct(n.min(nv), nv, seed));
    sim.step(&workload::write_step(&vars[0], 0)).unwrap();
    sim.step(&workload::read_step(&vars[1])).unwrap();
    let measured = sim.exec().route_memo().len();
    assert_eq!(measured, 0, "n = {n}: {measured} shapes measured");
}

#[test]
fn simulate_defaults_hit_the_table() {
    // `prasim simulate`: --n 1024 --memory 9000 --steps 2 --seed 42.
    assert_no_route_measured(SimConfig::new(1024, 9000), [42, 43]);
}

#[test]
fn stepbench_configuration_hits_the_table() {
    for policy in [ReadPolicy::Freshest, ReadPolicy::HierarchicalMajority] {
        let config = SimConfig::new(4096, 40_000).with_read_policy(policy);
        assert_no_route_measured(config, [1, 1]);
    }
}
