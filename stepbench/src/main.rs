//! Whole-PRAM-step benchmark for prasim.
//!
//! ```text
//! stepbench --workload rw-4k|quorum-4k|fresh-4k --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs q = 3, k = 2, memory request 40 000 (88 452
//! variables) on n = 4096 with columnsort. Even steps write one distinct
//! random variable per processor, odd steps read the same variables
//! back. Inputs come from `--seed` only.
//!
//! - `--trace 0` measures through the public simulator API only
//!   (`PramMeshSim::new`, `step`, `trace_report`) and reports the
//!   end-to-end metrics.
//! - `--trace 1` runs the untraced simulator step for step beside a
//!   traced simulator built from the layers' public functions, requires
//!   both to produce the same per-step digest, and reports per-layer
//!   metrics from the spans. The spans are written as JSON lines next
//!   to the binary (`stepbench-spans/`).
//!
//! Every run checks its outputs; a run that fails the check exits 1
//! without printing metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod hostclock;
mod inputs;
mod stats;
mod traced;

use hostclock::{HostClock, Timed};
use inputs::{quorum_faults, Inputs, Model, ReadCheck, Rng};
use prasim::core::culling::select_all;
use prasim::core::pram::PramStep;
use prasim::core::{PramMeshSim, ReadPolicy, SimConfig};
use prasim::exec::ExecCtx;
use prasim::fault::{FaultPlan, TraceReport};
use prasim::mesh::{MeshShape, Packet, Rect};
use prasim::sortnet::Sorter;
use stats::{median, tail, StepDigest};
use std::time::Instant;
use traced::{TracedSim, TracedStep, Tracer};

/// Processors (= mesh nodes) of every workload.
const N: u64 = 4096;
/// Requested shared memory; rounds up to 88 452 variables.
const MEMORY: u64 = 40_000;
/// Count metrics cover the run's first `PREFIX` PRAM steps, so they
/// repeat exactly for a seed whatever the host speed.
const PREFIX: u64 = 16;
/// `PramMeshSim::new` calls timed per run for `setup_s`.
const SETUP_SAMPLES: usize = 21;
/// Engine threads of every workload. On a 2-vCPU shared host, 2-thread
/// steps wait at each barrier for the slower vCPU and could not be timed
/// steadily; the `mesh.*.t2` probes still measure the 2-thread engine.
const THREADS: usize = 1;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Cold-start simulators, the last of which runs on with warm steps.
    Rw,
    /// As `Rw`, under hierarchical-majority reads and static faults.
    Quorum,
    /// Fresh simulators, each running one write and one read step.
    Fresh,
}

struct Workload {
    name: &'static str,
    kind: Kind,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "rw-4k",
        kind: Kind::Rw,
    },
    Workload {
        name: "quorum-4k",
        kind: Kind::Quorum,
    },
    Workload {
        name: "fresh-4k",
        kind: Kind::Fresh,
    },
];

impl Workload {
    fn config(&self) -> SimConfig {
        let policy = match self.kind {
            Kind::Quorum => ReadPolicy::HierarchicalMajority,
            Kind::Rw | Kind::Fresh => ReadPolicy::Freshest,
        };
        SimConfig::new(N, MEMORY)
            .with_q(3)
            .with_k(2)
            .with_sorter(Sorter::Columnsort)
            .with_threads(THREADS)
            .with_read_policy(policy)
    }

    /// Fresh simulators every run starts with, so the cold first step is
    /// a median too. The first of them is also the process's first step.
    /// `rw-4k` takes more: with 7, its `first_step_s` spread up to 11%
    /// between runs. `quorum-4k`'s slower steps keep 7, which leaves it
    /// warm steps.
    fn cold_sims(&self) -> usize {
        match self.kind {
            Kind::Rw => 13,
            Kind::Quorum | Kind::Fresh => 7,
        }
    }

    /// Steps simulator `sim` of the run takes before it is dropped: a
    /// write and a read step, except that the last of the cold-start
    /// simulators of a one-simulator workload runs on until the run
    /// length has passed.
    fn steps_per_sim(&self, sim: usize) -> u64 {
        match self.kind {
            Kind::Rw | Kind::Quorum if sim + 1 == self.cold_sims() => u64::MAX,
            _ => 2,
        }
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or(format!(
        "unknown workload `{name}` (rw-4k|quorum-4k|fresh-4k)"
    ))?;
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stepbench: {e}");
            std::process::exit(2);
        }
    };
    // The library reads these as process defaults; a benchmark
    // configures the simulator through `SimConfig` alone.
    for var in ["PRASIM_THREADS", "PRASIM_SORTER"] {
        if std::env::var_os(var).is_some() {
            eprintln!("stepbench: refusing to run with {var} set; unset it");
            std::process::exit(2);
        }
    }
    let result = if args.trace {
        traced_run(&args)
    } else {
        plain_run(&args)
    };
    let out = match result.and_then(Output::check) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("stepbench: FAILED: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", provenance(&args));
    for note in &out.notes {
        println!("{note}");
    }
    println!("{}", out.json());
}

fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "provenance: {{\"commit\":\"{}\",\"rustc\":\"{}\",\"nproc\":{nproc},\"workload\":\"{}\",\
         \"threads\":{},\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        env!("STEPBENCH_COMMIT"),
        env!("STEPBENCH_RUSTC"),
        args.workload.name,
        THREADS,
        args.seed,
        args.seconds,
        args.trace
    )
}

/// A finished run: what the last stdout line reports.
struct Output {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Output {
    fn check(self) -> Result<Self, String> {
        match self.metrics.iter().find(|m| !m.1.is_finite()) {
            Some((name, v, _)) => Err(format!("metric {name} is {v}")),
            None => Ok(self),
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":true,\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Correctness and failure accounting over every step of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    /// Operations in steps that returned `Err`.
    err_ops: u64,
    errors: Vec<String>,
    model: ReadCheck,
    trace: TraceReport,
}

impl Tally {
    /// Counts one step's operations and checks its reads against the model.
    fn step_done(
        &mut self,
        model: &mut Model,
        step: &PramStep,
        reads: &[Option<u64>],
        outcomes: &[Option<prasim::hmos::QuorumRead>],
    ) {
        self.attempted += step.active() as u64;
        let c = model.apply(step, reads, outcomes);
        self.model.latest += c.latest;
        self.model.stale += c.stale;
        self.model.unrecoverable += c.unrecoverable;
        self.model.wrong += c.wrong;
    }

    /// Counts every operation of a step that returned `Err` as failed.
    fn step_failed(&mut self, step: &PramStep, s: u64, e: impl std::fmt::Display) {
        self.attempted += step.active() as u64;
        self.err_ops += step.active() as u64;
        self.errors.push(format!("step {s}: {e}"));
    }

    fn add_trace(&mut self, t: TraceReport) {
        let s = &mut self.trace;
        s.steps += t.steps;
        s.reads += t.reads;
        s.writes += t.writes;
        s.committed_writes += t.committed_writes;
        s.partial_writes += t.partial_writes;
        s.correct_reads += t.correct_reads;
        s.tainted_reads += t.tainted_reads;
        s.unrecoverable_reads += t.unrecoverable_reads;
        s.silent_wrong_reads += t.silent_wrong_reads;
        s.erew_violations += t.erew_violations;
    }

    fn failed(&self) -> u64 {
        let t = &self.trace;
        t.unrecoverable_reads + t.silent_wrong_reads + t.partial_writes + self.err_ops
    }

    /// The correctness gate. Fault-free workloads must read back exactly
    /// what was written; the quorum workload may lose reads but never
    /// return a wrong value.
    fn gate(&self, w: &Workload) -> Result<(), String> {
        let (t, m) = (&self.trace, &self.model);
        if t.silent_wrong_reads > 0 || m.wrong > 0 {
            return Err(format!(
                "wrong reads: {} silent-wrong by the trace checker, {} by the benchmark's model",
                t.silent_wrong_reads, m.wrong
            ));
        }
        if w.kind != Kind::Quorum {
            if let Some(e) = self.errors.first() {
                return Err(format!("step failed: {e}"));
            }
            if t.correct_reads != t.reads || t.erew_violations > 0 || m.latest != t.reads {
                return Err(format!(
                    "fault-free run degraded: {t:?}, model latest {} of {}",
                    m.latest, t.reads
                ));
            }
        }
        Ok(())
    }

    fn notes(&self) -> Vec<String> {
        let t = &self.trace;
        let mut notes = vec![format!(
            "gate: passed; trace: {} steps, {} reads ({} correct, {} tainted, {} unrecoverable, \
             {} silent-wrong), {} writes ({} partial), {} EREW violations, {} ops in failed steps",
            t.steps,
            t.reads,
            t.correct_reads,
            t.tainted_reads,
            t.unrecoverable_reads,
            t.silent_wrong_reads,
            t.writes,
            t.partial_writes,
            t.erew_violations,
            self.err_ops
        )];
        notes.extend(self.errors.iter().map(|e| format!("step error: {e}")));
        notes
    }
}

/// Per-run inputs, built once the first simulator exists.
struct RunInputs {
    inputs: Inputs,
    faults: Option<FaultPlan>,
}

impl RunInputs {
    fn new(w: &Workload, seed: u64, hmos: &prasim::hmos::Hmos) -> Self {
        let inputs = Inputs::new(seed, N, hmos.num_variables());
        let faults = (w.kind == Kind::Quorum).then(|| quorum_faults(hmos));
        RunInputs { inputs, faults }
    }
}

/// Whether the step loop continues: until the run length has passed,
/// and at least the counted prefix plus enough warm samples for a tail.
fn more(start: Instant, seconds: f64, steps: u64, warm: usize, min_warm: usize) -> bool {
    steps < PREFIX || warm < min_warm || start.elapsed().as_secs_f64() < seconds
}

/// `PramMeshSim::new` timed `SETUP_SAMPLES` times.
fn setup_samples(cfg: SimConfig, clock: &mut HostClock) -> Result<Vec<Timed>, String> {
    (0..SETUP_SAMPLES)
        .map(|_| {
            let (sim, t) = clock.time(|| PramMeshSim::new(cfg));
            sim.map_err(|e| e.to_string())?;
            Ok(t)
        })
        .collect()
}

/// Medians of rescaled and of raw wall times.
fn medians(samples: &[Timed]) -> (f64, f64) {
    let norm: Vec<f64> = samples.iter().map(|t| t.norm()).collect();
    let wall: Vec<f64> = samples.iter().map(|t| t.wall).collect();
    (median(&norm), median(&wall))
}

/// VmHWM of this process in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

/// End-to-end run: public simulator API only.
fn plain_run(args: &Args) -> Result<Output, String> {
    let w = args.workload;
    let cfg = w.config();
    let mut clock = HostClock::new();
    let setup = setup_samples(cfg, &mut clock)?;
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let (mut first, mut warm, mut sim_runs) = (Vec::new(), Vec::new(), Vec::new());
    let mut prefix_sim_steps = Vec::new();
    let mut run_inputs: Option<RunInputs> = None;
    // Fresh workloads need a tail over their second steps; one-simulator
    // workloads get it from the run length.
    let min_warm = stats::TAIL_BEYOND + 1;

    let start = Instant::now();
    let mut s = 0u64;
    let mut sims = 0;
    while sims < w.cold_sims() || more(start, args.seconds, s, warm.len(), min_warm) {
        let (sim, t) = clock.time(|| PramMeshSim::new(cfg));
        let mut sim = sim.map_err(|e| e.to_string())?;
        let mut sim_run = t;
        let ri = run_inputs.get_or_insert_with(|| RunInputs::new(w, args.seed, sim.hmos()));
        if let Some(plan) = &ri.faults {
            sim.set_fault_plan(plan.clone());
        }
        let mut model = Model::default();
        for j in 0..w.steps_per_sim(sims) {
            // Steps 0 and 1 always run: `sim_run_s` spans both.
            if j >= 2 && !more(start, args.seconds, s, warm.len(), min_warm) {
                break;
            }
            let step = ri.inputs.step(s);
            let (result, t) = clock.time(|| sim.step(&step));
            (if j == 0 { &mut first } else { &mut warm }).push(t);
            if j < 2 {
                let norm = sim_run.norm() + t.norm();
                sim_run.wall += t.wall;
                sim_run.factor = norm / sim_run.wall;
            }
            if j == 1 {
                sim_runs.push(sim_run);
            }
            match result {
                Ok(r) => {
                    tally.step_done(&mut model, &step, &r.reads, &r.outcomes);
                    let d = StepDigest::new(
                        &r.culling,
                        &r.protocol,
                        &r.reads,
                        &r.outcomes,
                        r.total_steps,
                    );
                    notes.push(format!("step {s}: {}", d.line));
                    if s < PREFIX {
                        prefix_sim_steps.push(r.total_steps as f64);
                    }
                }
                Err(e) => tally.step_failed(&step, s, e),
            }
            s += 1;
        }
        tally.add_trace(sim.trace_report());
        sims += 1;
    }
    tally.gate(w)?;

    let warm_norm: Vec<f64> = warm.iter().map(|t| t.norm()).collect();
    let warm_wall: Vec<f64> = warm.iter().map(|t| t.wall).collect();
    let (tail_s, pct) = tail(&warm_norm).ok_or("too few warm steps for a tail")?;
    let steps_per_s = match w.kind {
        Kind::Fresh => 2.0 * sim_runs.len() as f64 / sim_runs.iter().map(|t| t.norm()).sum::<f64>(),
        Kind::Rw | Kind::Quorum => warm.len() as f64 / warm_norm.iter().sum::<f64>(),
    };
    let (setup_s, setup_wall) = medians(&setup);
    let (first_s, first_wall) = medians(&first);
    let (run_s, run_wall) = medians(&sim_runs);
    let mut all_notes = tally.notes();
    all_notes.push(format!(
        "samples: setup {}, first steps {}, warm steps {}, simulator runs {}; step_s.tail is \
         p{pct:.1} of {} warm steps ({} beyond it)",
        setup.len(),
        first.len(),
        warm.len(),
        sim_runs.len(),
        warm.len(),
        stats::TAIL_BEYOND
    ));
    all_notes.push(format!(
        "raw wall medians (s): setup_s {setup_wall}, first_step_s {first_wall}, step_s.p50 {}, \
         step_s.tail {}, sim_run_s {run_wall}",
        median(&warm_wall),
        tail(&warm_wall).map_or(f64::NAN, |t| t.0),
    ));
    let ms: Vec<String> = warm
        .iter()
        .map(|t| format!("{:.1}/{:.1}", t.norm() * 1e3, t.wall * 1e3))
        .collect();
    all_notes.push(format!("warm steps, rescaled/wall (ms): {}", ms.join(" ")));
    all_notes.extend(notes);
    let failed = tally.failed();
    Ok(Output {
        attempted: tally.attempted,
        failed,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("first_step_s", first_s, "s"),
            ("step_s.p50", median(&warm_norm), "s"),
            ("step_s.tail", tail_s, "s"),
            ("pram_steps_per_s", steps_per_s, "1/s"),
            ("sim_run_s", run_s, "s"),
            (
                "sim_steps_per_pram_step",
                prefix_sim_steps.iter().sum::<f64>() / prefix_sim_steps.len() as f64,
                "steps",
            ),
            (
                "ok_op_frac",
                1.0 - failed as f64 / tally.attempted as f64,
                "ratio",
            ),
            ("peak_rss_mb", peak_rss_mb()?, "MiB"),
        ],
        notes: all_notes,
    })
}

/// One step of the traced run, with the layer counters read around it.
struct Record {
    /// First step of its simulator.
    first: bool,
    /// Rescaled wall time of the untraced simulator's step.
    untraced_s: f64,
    /// Rescales the traced step's span durations to the reference host.
    factor: f64,
    step: TracedStep,
    engines_created: u64,
    engines_reused: u64,
    workers_spawned: u64,
    ledger_charges: u64,
    charged_steps: u64,
    trace: TraceReport,
    memo_entries: usize,
}

/// Per-layer run: the untraced simulator and the traced simulator step
/// for step, digests compared, spans kept.
fn traced_run(args: &Args) -> Result<Output, String> {
    let w = args.workload;
    let cfg = w.config();
    let mut clock = HostClock::new();
    let mut tracer = Tracer::new();
    let mut tally = Tally::default();
    let mut records: Vec<Record> = Vec::new();
    let mut run_inputs: Option<RunInputs> = None;
    let mut last_requests: Vec<Option<u64>> = Vec::new();
    let mut digests = Vec::new();

    let start = Instant::now();
    let mut s = 0u64;
    let mut sims = 0;
    let mut tsim_last = None;
    while sims < w.cold_sims() || more(start, args.seconds, s, 0, 0) {
        let mut sim = PramMeshSim::new(cfg).map_err(|e| e.to_string())?;
        let mut tsim = TracedSim::new(cfg, &mut tracer).map_err(|e| e.to_string())?;
        let ri = run_inputs.get_or_insert_with(|| RunInputs::new(w, args.seed, sim.hmos()));
        if let Some(plan) = &ri.faults {
            sim.set_fault_plan(plan.clone());
            tsim.set_fault_plan(plan.clone());
        }
        let mut model = Model::default();
        for j in 0..w.steps_per_sim(sims) {
            if j >= 2 && !more(start, args.seconds, s, 0, 0) {
                break;
            }
            let step = ri.inputs.step(s);
            let before = LayerCounters::read(&mut tsim);
            // Alternate which side runs first, so neither always finds
            // the caches the other left behind.
            let ((u, untraced), (t, traced)) = if s.is_multiple_of(2) {
                let u = clock.time(|| sim.step(&step));
                (u, clock.time(|| tsim.step(&step, s, &mut tracer)))
            } else {
                let t = clock.time(|| tsim.step(&step, s, &mut tracer));
                (clock.time(|| sim.step(&step)), t)
            };
            let (u, t) = match (u, t) {
                (Ok(u), Ok(t)) => (u, t),
                (Err(a), Err(b)) if a.to_string() == b.to_string() => {
                    tally.step_failed(&step, s, a);
                    s += 1;
                    continue;
                }
                (u, t) => {
                    return Err(format!(
                        "step {s}: untraced {:?} but traced {:?}",
                        u.err().map(|e| e.to_string()),
                        t.err().map(|e| e.to_string())
                    ))
                }
            };
            let du = StepDigest::new(
                &u.culling,
                &u.protocol,
                &u.reads,
                &u.outcomes,
                u.total_steps,
            );
            let dt = StepDigest::new(
                &t.culling,
                &t.protocol,
                &t.reads,
                &t.outcomes,
                t.total_steps,
            );
            if du.hash != dt.hash {
                return Err(format!(
                    "step {s}: traced digest differs\n  untraced {}\n  traced   {}",
                    du.line, dt.line
                ));
            }
            tally.step_done(&mut model, &step, &u.reads, &u.outcomes);
            digests.push(format!("step {s}: {}", du.line));
            let after = LayerCounters::read(&mut tsim);
            if args.workload.kind != Kind::Quorum {
                last_requests = step.ops.iter().map(|o| o.map(|op| op.var())).collect();
            }
            records.push(Record {
                first: j == 0,
                untraced_s: untraced.norm(),
                factor: traced.factor,
                engines_created: after.engines_created - before.engines_created,
                engines_reused: after.engines_reused - before.engines_reused,
                workers_spawned: after.workers_spawned - before.workers_spawned,
                ledger_charges: after.ledger_charges - before.ledger_charges,
                charged_steps: after.charged_steps - before.charged_steps,
                trace: trace_delta(tsim.trace_report(), before.trace),
                memo_entries: tsim.exec().route_memo().len(),
                step: t,
            });
            s += 1;
        }
        if sim.trace_report() != tsim.trace_report() {
            return Err("traced and untraced trace reports differ".into());
        }
        tally.add_trace(sim.trace_report());
        tsim_last = Some(tsim);
        sims += 1;
    }
    tally.gate(w)?;

    let probes = Probes::run(
        args.seed,
        &mut clock,
        &mut tracer,
        cfg,
        tsim_last.as_ref(),
        &last_requests,
    )?;
    let spans_path = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("stepbench-spans")
        .join(format!("{}-seed{}.jsonl", w.name, args.seed));
    tracer
        .write_jsonl(&spans_path)
        .map_err(|e| format!("writing spans: {e}"))?;

    let mut notes = tally.notes();
    notes.push(format!(
        "traced digests equal untraced digests for all {} steps; {} spans written to {}",
        records.len(),
        tracer.spans.len(),
        spans_path.display()
    ));
    let metrics = layer_metrics(&records, &tracer, &probes, &mut notes)?;
    notes.extend(digests);
    Ok(Output {
        attempted: tally.attempted,
        failed: tally.failed(),
        metrics,
        notes,
    })
}

/// Cumulative layer counters of a traced simulator.
struct LayerCounters {
    engines_created: u64,
    engines_reused: u64,
    workers_spawned: u64,
    ledger_charges: u64,
    charged_steps: u64,
    trace: TraceReport,
}

impl LayerCounters {
    fn read(tsim: &mut TracedSim) -> Self {
        let trace = tsim.trace_report();
        let exec = tsim.exec();
        LayerCounters {
            engines_created: exec.engine_pool().created(),
            engines_reused: exec.engine_pool().reused(),
            workers_spawned: exec.worker_pool().spawned() as u64,
            ledger_charges: exec.ledger().charges(),
            charged_steps: exec.ledger().charged_steps(),
            trace,
        }
    }
}

fn trace_delta(a: TraceReport, b: TraceReport) -> TraceReport {
    TraceReport {
        steps: a.steps - b.steps,
        reads: a.reads - b.reads,
        writes: a.writes - b.writes,
        committed_writes: a.committed_writes - b.committed_writes,
        partial_writes: a.partial_writes - b.partial_writes,
        correct_reads: a.correct_reads - b.correct_reads,
        tainted_reads: a.tainted_reads - b.tainted_reads,
        unrecoverable_reads: a.unrecoverable_reads - b.unrecoverable_reads,
        silent_wrong_reads: a.silent_wrong_reads - b.silent_wrong_reads,
        erew_violations: a.erew_violations - b.erew_violations,
    }
}

/// Layer probes run after the traced steps: construction, a sort shaped
/// like CULLING's level-1 sort, and a random h-relation on the engine.
struct Probes {
    hmos_build_s: f64,
    ctx_new_s: f64,
    select_all_s: Option<f64>,
    sort_cold_s: f64,
    sort_warm_s: f64,
    /// `(threads, run seconds, hops per second)`.
    engine: Vec<(usize, f64, f64)>,
}

/// Keys each node holds in CULLING's level-1 sort: a minimal level-0
/// target set has `((q+1)/2)^k = 4` copies at q = 3, k = 2.
const SORT_H: usize = 4;
const PROBE_REPS: usize = 5;

impl Probes {
    fn run(
        seed: u64,
        clock: &mut HostClock,
        tracer: &mut Tracer,
        cfg: SimConfig,
        tsim: Option<&TracedSim>,
        requests: &[Option<u64>],
    ) -> Result<Self, String> {
        let (mut hmos_s, mut ctx_s) = (Vec::new(), Vec::new());
        for _ in 0..SETUP_SAMPLES {
            let first = tracer.spans.len();
            let (sim, t) = clock.time(|| TracedSim::new(cfg, tracer));
            sim.map_err(|e| e.to_string())?;
            for id in first..tracer.spans.len() {
                let d = tracer.duration(id) * t.factor;
                match tracer.spans[id].name {
                    "hmos" => hmos_s.push(d),
                    "exec" => ctx_s.push(d),
                    _ => {}
                }
            }
        }

        let select_all_s = match (tsim, requests.is_empty()) {
            (Some(tsim), false) => {
                let samples: Vec<f64> = (0..PROBE_REPS)
                    .map(|_| {
                        let (_, t) = clock.time(|| {
                            tracer.span("probe.select_all", None, None, || {
                                select_all(tsim.hmos(), requests)
                            })
                        });
                        t.norm()
                    })
                    .collect();
                Some(median(&samples))
            }
            _ => None,
        };

        let shape = MeshShape::square_of(N).ok_or("n is not a square")?;
        let mut rng = Rng::new(seed, 0x5027);
        let template: Vec<Vec<(u32, u32, u16)>> = (0..N)
            .map(|_| {
                (0..SORT_H)
                    .map(|_| {
                        (
                            rng.below(1 << 20) as u32,
                            rng.next() as u32,
                            rng.below(9) as u16,
                        )
                    })
                    .collect()
            })
            .collect();
        let mut sorted_ok = true;
        let mut sort_once = |ctx: &mut ExecCtx, tracer: &mut Tracer, name| {
            let mut items = template.clone();
            let (_, t) = clock.time(|| {
                tracer.span(name, None, None, || {
                    ctx.sort(&mut items, shape.rows, shape.cols, SORT_H)
                })
            });
            let flat: Vec<_> = items.iter().flatten().collect();
            sorted_ok &= flat.len() == N as usize * SORT_H && flat.windows(2).all(|p| p[0] <= p[1]);
            t.norm()
        };
        let mut cold = Vec::new();
        let mut ctx = ExecCtx::new(1, Sorter::Columnsort, false);
        for _ in 0..3 {
            ctx = ExecCtx::new(1, Sorter::Columnsort, false);
            cold.push(sort_once(&mut ctx, tracer, "probe.sort_cold"));
        }
        let warm: Vec<f64> = (0..PROBE_REPS)
            .map(|_| sort_once(&mut ctx, tracer, "probe.sort_warm"))
            .collect();
        if !sorted_ok {
            return Err("sort probe produced unsorted output".into());
        }

        let mut engine = Vec::new();
        for threads in [1, 2] {
            let mut ctx = ExecCtx::new(threads, Sorter::Columnsort, false);
            let mut samples = Vec::new();
            for rep in 0..=PROBE_REPS {
                let mut eng = ctx.engine(shape);
                let packets = (N as usize * SORT_H) as u64;
                eng.reserve(packets as usize);
                let mut rng = Rng::new(seed ^ rep as u64, 0xE61E);
                for id in 0..packets {
                    let src = shape.coord((id / SORT_H as u64) as u32);
                    let dest = shape.coord(rng.below(N) as u32);
                    eng.inject(
                        src,
                        Packet {
                            id,
                            dest,
                            bounds: Rect::full(shape),
                            tag: id,
                        },
                    );
                }
                let ((run, _), t) = clock
                    .time(|| tracer.span("probe.engine_run", None, None, || eng.run(u64::MAX)));
                let stats = run.map_err(|e| e.to_string())?;
                let delivered_ok = eng
                    .drain_delivered()
                    .all(|(node, p)| node == shape.index(p.dest));
                if stats.delivered != packets || !delivered_ok {
                    return Err(format!(
                        "engine probe delivered {} of {packets}",
                        stats.delivered
                    ));
                }
                // The first run builds the engine; time the recycled ones.
                if rep > 0 {
                    samples.push((t.norm(), stats.total_hops as f64));
                }
                ctx.recycle(eng);
            }
            let run_s = median(&samples.iter().map(|s| s.0).collect::<Vec<_>>());
            let hops = samples[0].1;
            engine.push((threads, run_s, hops / run_s));
        }

        Ok(Probes {
            hmos_build_s: median(&hmos_s),
            ctx_new_s: median(&ctx_s),
            select_all_s,
            sort_cold_s: median(&cold),
            sort_warm_s: median(&warm),
            engine,
        })
    }
}

fn layer_metrics(
    records: &[Record],
    tracer: &Tracer,
    probes: &Probes,
    notes: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let (first, warm): (Vec<&Record>, Vec<&Record>) = records.iter().partition(|r| r.first);
    if warm.is_empty() {
        return Err("no warm steps".into());
    }
    let times = |rs: &[&Record], f: &dyn Fn(&Record) -> f64| {
        median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    // Span durations of a step, rescaled by the step's host factor.
    let culling_s = |r: &Record| tracer.duration(r.step.culling_span) * r.factor;
    let protocol_s = |r: &Record| tracer.duration(r.step.protocol_span) * r.factor;
    let checker_s = |r: &Record| tracer.duration(r.step.checker_span) * r.factor;
    let step_s = |r: &Record| tracer.duration(r.step.step_span) * r.factor;
    let self_s = |r: &Record| step_s(r) - culling_s(r) - protocol_s(r) - checker_s(r);

    // Span accounting over the warm steps: the children and the step's
    // self time add up to the step span.
    let total = |f: &dyn Fn(&Record) -> f64| warm.iter().map(|r| f(r)).sum::<f64>();
    let (ts, tc, tp, tf, tself) = (
        total(&step_s),
        total(&culling_s),
        total(&protocol_s),
        total(&checker_s),
        total(&self_s),
    );
    notes.push(format!(
        "span accounting over {} warm steps: sim.step {ts:.4} s = culling {tc:.4} ({:.1}%) + \
         protocol {tp:.4} ({:.1}%) + fault.checker {tf:.4} ({:.1}%) + sim self {tself:.4} ({:.1}%)",
        warm.len(),
        100.0 * tc / ts,
        100.0 * tp / ts,
        100.0 * tf / ts,
        100.0 * tself / ts
    ));
    if ((tc + tp + tf + tself) - ts).abs() > 1e-6 * ts.max(1.0) {
        return Err("layer self times do not account for the step span".into());
    }

    // Counts over the run's first PREFIX steps.
    let prefix: Vec<&Record> = records.iter().take(PREFIX as usize).collect();
    let mean =
        |f: &dyn Fn(&Record) -> f64| prefix.iter().map(|r| f(r)).sum::<f64>() / prefix.len() as f64;
    let sum = |f: &dyn Fn(&Record) -> u64| prefix.iter().map(|r| f(r)).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&Record) -> f64| prefix.iter().map(|r| f(r)).fold(0.0, f64::max);
    let prefix_warm: Vec<&Record> = prefix.iter().filter(|r| !r.first).copied().collect();
    let warm_mean = |f: &dyn Fn(&Record) -> usize| {
        prefix_warm.iter().map(|r| f(r)).sum::<usize>() as f64 / prefix_warm.len().max(1) as f64
    };
    let cold = first[0];
    let untraced_p50 = times(&warm, &|r| r.untraced_s);
    let traced_p50 = times(&warm, &step_s);
    let engine = |t: usize| {
        probes
            .engine
            .iter()
            .find(|e| e.0 == t)
            .copied()
            .unwrap_or_default()
    };

    Ok(vec![
        ("culling.first_s", times(&first, &culling_s), "s"),
        ("culling.warm_s", times(&warm, &culling_s), "s"),
        (
            "culling.select_all_s",
            probes
                .select_all_s
                .unwrap_or_else(|| times(&warm, &culling_s)),
            "s",
        ),
        (
            "culling.sim_steps",
            mean(&|r| r.step.culling.total_steps as f64),
            "steps",
        ),
        (
            "culling.sort_steps",
            mean(&|r| {
                r.step
                    .culling
                    .iterations
                    .iter()
                    .map(|i| i.sort_steps)
                    .sum::<u64>() as f64
            }),
            "steps",
        ),
        (
            "culling.fallbacks",
            mean(&|r| {
                r.step
                    .culling
                    .iterations
                    .iter()
                    .map(|i| i.fallbacks)
                    .sum::<u64>() as f64
            }),
            "count",
        ),
        (
            "culling.page_load_ratio",
            max(&|r| {
                r.step
                    .culling
                    .iterations
                    .iter()
                    .map(|i| i.max_page_load as f64 / i.theorem3_bound as f64)
                    .fold(0.0, f64::max)
            }),
            "ratio",
        ),
        ("protocol.first_s", times(&first, &protocol_s), "s"),
        ("protocol.warm_s", times(&warm, &protocol_s), "s"),
        (
            "protocol.sort_steps",
            mean(&|r| {
                r.step
                    .protocol
                    .stages
                    .iter()
                    .map(|s| s.sort_steps)
                    .sum::<u64>() as f64
            }),
            "steps",
        ),
        (
            "protocol.route_steps",
            mean(&|r| {
                r.step
                    .protocol
                    .stages
                    .iter()
                    .map(|s| s.route_steps)
                    .sum::<u64>() as f64
            }),
            "steps",
        ),
        (
            "protocol.access_steps",
            mean(&|r| r.step.protocol.access_steps as f64),
            "steps",
        ),
        (
            "protocol.max_node_load",
            max(&|r| {
                r.step
                    .protocol
                    .stages
                    .iter()
                    .map(|s| s.max_node_load)
                    .max()
                    .unwrap_or(0) as f64
            }),
            "count",
        ),
        (
            "protocol.max_queue",
            max(&|r| r.step.protocol.max_queue as f64),
            "count",
        ),
        (
            "protocol.dropped",
            mean(&|r| r.step.protocol.dropped as f64),
            "count",
        ),
        (
            "sortnet.memo_misses.first",
            (cold.step.memo_culling + cold.step.memo_protocol) as f64,
            "count",
        ),
        (
            "sortnet.memo_misses.first.culling",
            cold.step.memo_culling as f64,
            "count",
        ),
        (
            "sortnet.memo_misses.first.protocol",
            cold.step.memo_protocol as f64,
            "count",
        ),
        (
            "sortnet.memo_misses.warm",
            warm_mean(&|r| r.step.memo_culling + r.step.memo_protocol),
            "count",
        ),
        (
            "sortnet.memo_misses.warm.culling",
            warm_mean(&|r| r.step.memo_culling),
            "count",
        ),
        (
            "sortnet.memo_misses.warm.protocol",
            warm_mean(&|r| r.step.memo_protocol),
            "count",
        ),
        (
            "sortnet.memo_entries",
            prefix.last().map_or(0, |r| r.memo_entries) as f64,
            "count",
        ),
        ("sortnet.sort_cold_s", probes.sort_cold_s, "s"),
        ("sortnet.sort_warm_s", probes.sort_warm_s, "s"),
        ("mesh.engines_created", sum(&|r| r.engines_created), "count"),
        ("mesh.engines_reused", sum(&|r| r.engines_reused), "count"),
        ("mesh.workers_spawned", sum(&|r| r.workers_spawned), "count"),
        ("mesh.run_s.t1", engine(1).1, "s"),
        ("mesh.run_s.t2", engine(2).1, "s"),
        ("mesh.hops_per_s.t1", engine(1).2, "1/s"),
        ("mesh.hops_per_s.t2", engine(2).2, "1/s"),
        ("hmos.build_s", probes.hmos_build_s, "s"),
        ("exec.ctx_new_s", probes.ctx_new_s, "s"),
        (
            "exec.ledger_charges",
            mean(&|r| r.ledger_charges as f64),
            "count",
        ),
        (
            "exec.charged_steps",
            mean(&|r| r.charged_steps as f64),
            "steps",
        ),
        (
            "fault.checker_s",
            times(&records.iter().collect::<Vec<_>>(), &checker_s),
            "s",
        ),
        (
            "fault.reads.correct",
            sum(&|r| r.trace.correct_reads),
            "count",
        ),
        (
            "fault.reads.tainted",
            sum(&|r| r.trace.tainted_reads),
            "count",
        ),
        (
            "fault.reads.unrecoverable",
            sum(&|r| r.trace.unrecoverable_reads),
            "count",
        ),
        (
            "fault.reads.silent_wrong",
            sum(&|r| r.trace.silent_wrong_reads),
            "count",
        ),
        (
            "fault.writes.partial",
            sum(&|r| r.trace.partial_writes),
            "count",
        ),
        ("sim.step_self_s", times(&warm, &self_s), "s"),
        (
            "trace.overhead_frac",
            traced_p50 / untraced_p50 - 1.0,
            "ratio",
        ),
    ])
}
