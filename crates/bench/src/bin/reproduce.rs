//! Regenerates every experiment table (T1–T18) of EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p prasim-bench --bin reproduce            # standard sizes
//! cargo run --release -p prasim-bench --bin reproduce -- quick   # CI-sized
//! cargo run --release -p prasim-bench --bin reproduce -- full    # adds n = 65536 points
//! cargo run --release -p prasim-bench --bin reproduce -- T4 T6   # selected tables
//! cargo run --release -p prasim-bench --bin reproduce -- quick T12 --threads 8
//! cargo run --release -p prasim-bench --bin reproduce -- T2 --sorter shearsort
//! ```
//!
//! `--threads N` (a positive integer) shards every mesh engine across
//! N workers (default: available parallelism). The tables are
//! byte-identical for every value — the CI determinism matrix diffs
//! selected tables across `--threads 1/2/8` to prove it; only the
//! wall-clock columns of T16/T18 vary.
//!
//! `--sorter shearsort|columnsort` selects the mesh sorter behind every
//! sort phase (default: columnsort). The CI sorter matrix regenerates
//! T2/T17 under both and diffs each against its committed golden.
//!
//! Both flags are parsed once here and passed to the table builders as
//! plain arguments. Any other argument — an unknown flag, a flag
//! without its value, a malformed value, an unknown table id — exits
//! with status 2 and a usage message before any table runs.
//!
//! Whenever T17 runs, its data is also written to `BENCH_sorters.json`
//! (machine-readable step counts per sorter per `n`); T18 likewise
//! writes `BENCH_exec.json` (context-reuse throughput data). Standard
//! and full runs write them into the working directory, where the
//! committed copies live; quick runs write them under
//! `target/reproduce-quick/`, so a CI-sized run never overwrites them.

use prasim_bench::tables::{self, Table};
use prasim_sortnet::Sorter;
use std::path::Path;

const USAGE: &str = "usage: reproduce [quick|full] [T1..T18]... [--threads N] \
                     [--sorter shearsort|columnsort]";

/// Where quick runs write their JSON artifacts, relative to the
/// working directory.
const QUICK_DIR: &str = "target/reproduce-quick";

/// The parsed command line.
struct Args {
    quick: bool,
    full: bool,
    /// Selected table ids, upper-cased; empty selects every table.
    selected: Vec<String>,
    threads: usize,
    sorter: Sorter,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        full: false,
        selected: Vec::new(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        sorter: Sorter::default(),
    };
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threads" => {
                let v = value(&mut it, &a)?;
                args.threads =
                    v.parse().ok().filter(|&t| t > 0).ok_or_else(|| {
                        format!("--threads expects a positive integer, got `{v}`")
                    })?;
            }
            "--sorter" => args.sorter = value(&mut it, &a)?.parse()?,
            "quick" => args.quick = true,
            "full" => args.full = true,
            id if is_table_id(id) => args.selected.push(id.to_ascii_uppercase()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// The value following `flag`.
fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

/// Whether `id` names one of T1–T18 (case-insensitive).
fn is_table_id(id: &str) -> bool {
    (1..=18).any(|i| id.eq_ignore_ascii_case(&format!("T{i}")))
}

/// Writes a table's JSON artifact (see the module docs for where).
fn write_artifact(quick: bool, name: &str, json: &str) {
    let dir = Path::new(if quick { QUICK_DIR } else { "." });
    let path = dir.join(name);
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, json))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("reproduce: {e}\n{USAGE}");
        std::process::exit(2)
    });
    let Args {
        quick,
        full,
        selected,
        threads,
        sorter,
    } = args;
    let want = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);

    // α ≈ 1.33–1.42 series: d grows with n.
    let mut t1_sizes: Vec<(u64, u32)> = if quick {
        vec![(256, 4), (1024, 5)]
    } else {
        vec![(256, 4), (1024, 5), (4096, 6), (16384, 7)]
    };
    if full {
        t1_sizes.push((65536, 8));
    }
    let t2_ns: Vec<u64> = if quick {
        vec![256, 1024]
    } else {
        vec![256, 1024, 4096, 16384]
    };
    let t3_ns: Vec<u64> = if quick {
        vec![1024]
    } else {
        vec![1024, 4096, 16384]
    };

    let mut out: Vec<Table> = Vec::new();
    if want("T1") {
        out.push(tables::t1_slowdown(&t1_sizes, 2, false, threads, sorter));
        out.push(tables::t1_slowdown(&t1_sizes, 2, true, threads, sorter));
    }
    if want("T2") {
        out.push(tables::t2_routing(&t2_ns, &[1, 2, 4], threads, sorter));
    }
    if want("T3") {
        out.push(tables::t3_hierarchical(&t3_ns, 1, threads, sorter));
    }
    if want("T4") {
        let (n, d) = if quick { (1024, 5) } else { (4096, 6) };
        out.push(tables::t4_culling_bounds(n, d, 2, threads, sorter));
    }
    if want("T5") {
        out.push(tables::t5_culling_time(&t1_sizes, 2, threads, sorter));
    }
    if want("T6") {
        out.push(tables::t6_bibd_balance());
    }
    if want("T7") {
        out.push(tables::t7_strong_expansion(if quick { 200 } else { 2000 }));
    }
    if want("T8") {
        out.push(tables::t8_structure(&[
            (1024, 5, 2),
            (4096, 6, 2),
            (4096, 5, 3),
        ]));
    }
    if want("T9") {
        let n = if quick { 1024 } else { 4096 };
        let d = 5;
        out.push(tables::t9_redundancy(n, d, &[1, 2, 3], threads, sorter));
    }
    if want("T10") {
        out.push(tables::t10_baselines(1024, threads, sorter));
    }
    if want("T11") {
        out.push(tables::t11_consistency(
            if quick { 10 } else { 40 },
            threads,
            sorter,
        ));
    }
    if want("T12") {
        // Fixed seed: the fault sweep is byte-identical across runs.
        out.push(tables::t12_fault_sweep(1024, 5, 0xFA17, threads, sorter));
    }
    if want("T13") {
        out.push(tables::t13_slack_ablation(1024, 5, threads, sorter));
    }
    if want("T14") {
        out.push(tables::t14_q_sweep(
            if quick { 1024 } else { 4096 },
            threads,
            sorter,
        ));
    }
    if want("T15") {
        let (n, d) = if quick { (1024, 5) } else { (4096, 6) };
        out.push(tables::t15_stage_deltas(n, d, 2, threads, sorter));
    }
    if want("T16") {
        // Wall-clock columns vary run to run; everything else in the
        // table is part of the determinism contract.
        let (n, ppn) = if quick { (1024, 8) } else { (4096, 16) };
        out.push(tables::t16_parallel_speedup(n, ppn, &[1, 2, 4, 8]));
    }
    if want("T17") {
        // Same sizes in quick and standard: the columnsort crossover sits
        // between n = 4096 and 16384, so the win must be visible in CI too.
        let mut t17_ns: Vec<u64> = vec![256, 1024, 4096, 16384];
        if full {
            t17_ns.push(65536);
        }
        let (table, json) = tables::t17_sorters(&t17_ns, threads);
        out.push(table);
        write_artifact(quick, "BENCH_sorters.json", &json);
    }
    if want("T18") {
        // Context reuse: same workload as T16, run as repeated steps with
        // a fresh ExecCtx per step vs one warm context. Wall-clock columns
        // vary run to run; steps/delivered/queue are deterministic.
        let (n, ppn, reps) = if quick { (1024, 8, 6) } else { (4096, 16, 8) };
        let (table, json) = tables::t18_context_reuse(n, ppn, reps, threads, sorter);
        out.push(table);
        write_artifact(quick, "BENCH_exec.json", &json);
    }

    println!("# prasim — reproduced results\n");
    println!(
        "mode: {}\n",
        if full {
            "full"
        } else if quick {
            "quick"
        } else {
            "standard"
        }
    );
    for t in &out {
        println!("{}", t.render());
    }
}
