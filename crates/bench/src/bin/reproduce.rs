//! Regenerates every experiment table (T1–T15 and T17) of EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p prasim-bench --bin reproduce            # standard sizes
//! cargo run --release -p prasim-bench --bin reproduce -- quick   # CI-sized
//! cargo run --release -p prasim-bench --bin reproduce -- full    # adds n = 65536 points
//! cargo run --release -p prasim-bench --bin reproduce -- T4 T6   # selected tables
//! cargo run --release -p prasim-bench --bin reproduce -- T2 --sorter shearsort
//! ```
//!
//! `--sorter shearsort|columnsort` selects the mesh sorter behind every
//! sort phase (default: columnsort). The CI sorter matrix regenerates
//! T2/T17 under both and diffs each against its committed golden. The
//! flag is parsed once here and passed to the table builders as a plain
//! argument; every table is byte-deterministic.
//!
//! Any other argument — an unknown flag, a flag without its value, a
//! malformed value, an unknown or retired table id (T16, T18, T19) —
//! exits with status 2 and a usage message before any table runs.
//!
//! Whenever T17 runs, its data is also written to `BENCH_sorters.json`
//! (machine-readable step counts per sorter per `n`). Standard and full
//! runs write it into the working directory, where the committed copy
//! lives; quick runs write it under `target/reproduce-quick/`, so a
//! CI-sized run never overwrites it.

use prasim_bench::sizes::{self, T10_SIZE, T11_SIZE, T12_SIZE, T9_KS};
use prasim_bench::tables::{self, Table};
use prasim_sortnet::Sorter;
use std::path::Path;

const USAGE: &str = "usage: reproduce [quick|full] [T1..T15|T17]... \
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
    sorter: Sorter,
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        full: false,
        selected: Vec::new(),
        sorter: Sorter::default(),
    };
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
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

/// Whether `id` names one of T1–T15 or T17 (case-insensitive); T16 is
/// retired, its last rows recorded in EXPERIMENTS.md.
fn is_table_id(id: &str) -> bool {
    (1..=17)
        .filter(|&i| i != 16)
        .any(|i| id.eq_ignore_ascii_case(&format!("T{i}")))
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
        sorter,
    } = args;
    let want = |id: &str| selected.is_empty() || selected.iter().any(|s| s == id);

    let t1_sizes = sizes::t1_sizes(quick, full);

    let mut out: Vec<Table> = Vec::new();
    if want("T1") {
        out.push(tables::t1_slowdown(&t1_sizes, 2, false, sorter));
        out.push(tables::t1_slowdown(&t1_sizes, 2, true, sorter));
    }
    if want("T2") {
        let ns = sizes::t2_ns(quick);
        out.push(tables::t2_routing(&ns, &[1, 2, 4], sorter));
    }
    if want("T3") {
        let ns = sizes::t3_ns(quick);
        out.push(tables::t3_hierarchical(&ns, 1, sorter));
    }
    if want("T4") {
        let (n, d) = sizes::t4_size(quick);
        out.push(tables::t4_culling_bounds(n, d, 2, sorter));
    }
    if want("T5") {
        out.push(tables::t5_culling_time(&t1_sizes, 2, sorter));
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
        let (n, d) = sizes::t9_size(quick);
        out.push(tables::t9_redundancy(n, d, &T9_KS, sorter));
    }
    if want("T10") {
        let (n, memory) = T10_SIZE;
        out.push(tables::t10_baselines(n, memory, sorter));
    }
    if want("T11") {
        let (n, memory) = T11_SIZE;
        let programs = if quick { 10 } else { 40 };
        out.push(tables::t11_consistency(programs, n, memory, sorter));
    }
    if want("T12") {
        // Fixed seed: the fault sweep is byte-identical across runs.
        let (n, d) = T12_SIZE;
        out.push(tables::t12_fault_sweep(n, d, 0xFA17, sorter));
    }
    if want("T13") {
        let (n, d) = T12_SIZE;
        out.push(tables::t13_slack_ablation(n, d, sorter));
    }
    if want("T14") {
        out.push(tables::t14_q_sweep(sizes::t14_n(quick), sorter));
    }
    if want("T15") {
        let (n, d) = sizes::t4_size(quick);
        out.push(tables::t15_stage_deltas(n, d, 2, sorter));
    }
    if want("T17") {
        // Same sizes in quick and standard: the columnsort crossover sits
        // between n = 4096 and 16384, so the win must be visible in CI too.
        let mut t17_ns: Vec<u64> = vec![256, 1024, 4096, 16384];
        if full {
            t17_ns.push(65536);
        }
        let (table, json) = tables::t17_sorters(&t17_ns);
        out.push(table);
        write_artifact(quick, "BENCH_sorters.json", &json);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_modes_tables_and_sorter() {
        let args = |words: &[&str]| parse_args(words.iter().map(|w| w.to_string()));
        let a = args(&["quick", "t12", "--sorter", "shearsort"]).unwrap();
        assert!(a.quick && !a.full);
        assert_eq!(a.selected, ["T12"]);
        assert_eq!(a.sorter, Sorter::Shearsort);
        assert_eq!(args(&[]).unwrap().sorter, Sorter::default());
        for bad in [&["--threads", "1"][..], &["T16"], &["T18"], &["--sorter"]] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
