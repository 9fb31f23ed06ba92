//! The traced simulator: the same simulation as `PramMeshSim`, composed
//! from the layers' public functions in exactly the order
//! `PramMeshSim::new` and `PramMeshSim::step` call them, with a span
//! around each call. Spans stay in memory until the run ends.

use prasim::core::culling::{cull_with, select_all, CullingReport};
use prasim::core::pram::{Op, PramStep};
use prasim::core::protocol::{access_protocol, Cell, ProtocolReport, ReadPolicy, RunOptions};
use prasim::core::sim::{SimConfig, SimError};
use prasim::exec::ExecCtx;
use prasim::fault::{FaultPlan, ReadOutcome, ReadRecord, TraceChecker, TraceReport, WriteRecord};
use prasim::hmos::{Hmos, HmosParams, QuorumRead};
use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: `start`/`end` in seconds since the tracer's origin.
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub step: Option<u64>,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &'static str, parent: Option<usize>, step: Option<u64>) -> usize {
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: f64::NAN,
            parent,
            step,
        });
        self.spans.len() - 1
    }

    pub fn exit(&mut self, id: usize) {
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
    }

    pub fn duration(&self, id: usize) -> f64 {
        self.spans[id].end - self.spans[id].start
    }

    /// Times `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        step: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let id = self.enter(name, parent, step);
        let r = f();
        self.exit(id);
        (r, id)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".into(), |p| p.to_string());
            let step = s.step.map_or("null".into(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"step\":{step}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Span ids and layer counters of one traced PRAM step.
pub struct TracedStep {
    pub culling: CullingReport,
    pub protocol: ProtocolReport,
    pub reads: Vec<Option<u64>>,
    pub outcomes: Vec<Option<QuorumRead>>,
    pub total_steps: u64,
    pub step_span: usize,
    pub culling_span: usize,
    pub protocol_span: usize,
    pub checker_span: usize,
    /// Route-memo growth during CULLING and during the protocol.
    pub memo_culling: usize,
    pub memo_protocol: usize,
}

/// `PramMeshSim` rebuilt from public parts, so each layer call can be
/// timed. Must stay call-for-call identical to the simulator.
pub struct TracedSim {
    config: SimConfig,
    hmos: Hmos,
    memory: Vec<HashMap<u64, Cell>>,
    clock: u64,
    fault_plan: Option<FaultPlan>,
    checker: TraceChecker,
    exec: ExecCtx,
}

impl TracedSim {
    /// `PramMeshSim::new`, with `hmos` and `exec` spans under a
    /// `sim.new` span.
    pub fn new(config: SimConfig, tracer: &mut Tracer) -> Result<Self, SimError> {
        let root = tracer.enter("sim.new", None, None);
        let (hmos, _) = tracer.span("hmos", Some(root), None, || {
            HmosParams::new(config.q, config.k, config.n, config.memory).and_then(Hmos::new)
        });
        let hmos = hmos?;
        let (exec, _) = tracer.span("exec", Some(root), None, || {
            ExecCtx::new(config.threads, config.sorter, config.analytic_sort)
        });
        let sim = TracedSim {
            memory: vec![HashMap::new(); config.n as usize],
            hmos,
            config,
            clock: 0,
            fault_plan: None,
            checker: TraceChecker::new(),
            exec,
        };
        tracer.exit(root);
        Ok(sim)
    }

    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    pub fn hmos(&self) -> &Hmos {
        &self.hmos
    }

    pub fn exec(&mut self) -> &mut ExecCtx {
        &mut self.exec
    }

    pub fn trace_report(&self) -> TraceReport {
        self.checker.report()
    }

    /// `PramMeshSim::step` under a `sim.step` span with `culling`,
    /// `protocol` and `fault.checker` children.
    pub fn step(
        &mut self,
        step: &PramStep,
        id: u64,
        tracer: &mut Tracer,
    ) -> Result<TracedStep, SimError> {
        let root = tracer.enter("sim.step", None, Some(id));
        let result = self.step_inner(step, id, root, tracer);
        tracer.exit(root);
        result
    }

    fn step_inner(
        &mut self,
        step: &PramStep,
        id: u64,
        root: usize,
        tracer: &mut Tracer,
    ) -> Result<TracedStep, SimError> {
        let n = self.config.n;
        if step.ops.len() > n as usize {
            return Err(SimError::TooManyOps {
                ops: step.ops.len(),
                n,
            });
        }
        step.validate(self.hmos.num_variables())
            .map_err(|var| SimError::InvalidStep { var })?;

        let mut ops = step.ops.clone();
        ops.resize(n as usize, None);
        let requests: Vec<Option<u64>> = ops.iter().map(|o| o.map(|op| op.var())).collect();

        self.exec.maybe_renew();

        let memo0 = self.exec.route_memo().len();
        let (culled, culling_span) = {
            let (hmos, exec, cfg) = (&self.hmos, &mut self.exec, &self.config);
            tracer.span("culling", Some(root), Some(id), || match cfg.read_policy {
                ReadPolicy::Freshest => cull_with(hmos, &requests, cfg.culling_slack, exec),
                ReadPolicy::HierarchicalMajority => select_all(hmos, &requests),
            })
        };
        let memo1 = self.exec.route_memo().len();
        self.clock += 1;
        let run = RunOptions {
            clock: self.clock,
            max_engine_steps: self.config.max_engine_steps,
            policy: self.config.read_policy,
            faults: self.fault_plan.as_ref(),
        };
        let (access, protocol_span) = {
            let (hmos, memory, exec) = (&self.hmos, &mut self.memory, &mut self.exec);
            tracer.span("protocol", Some(root), Some(id), || {
                access_protocol(hmos, memory, &ops, &culled.selected, &run, exec)
            })
        };
        let mut access = access?;
        let memo2 = self.exec.route_memo().len();

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
        let checker = &mut self.checker;
        let ((), checker_span) = tracer.span("fault.checker", Some(root), Some(id), || {
            checker.record_step(&read_recs, &write_recs)
        });

        access.reads.truncate(step.ops.len());
        access.outcomes.truncate(step.ops.len());

        let total_steps = culled.report.total_steps + access.report.total_steps;
        Ok(TracedStep {
            culling: culled.report,
            protocol: access.report,
            reads: access.reads,
            outcomes: access.outcomes,
            total_steps,
            step_span: root,
            culling_span,
            protocol_span,
            checker_span,
            memo_culling: memo1 - memo0,
            memo_protocol: memo2 - memo1,
        })
    }
}
