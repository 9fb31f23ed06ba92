//! Order statistics over timing samples, and the per-step digest that
//! pins a step's simulated outputs.

use prasim::core::culling::CullingReport;
use prasim::core::protocol::ProtocolReport;
use prasim::hmos::QuorumRead;

/// Median of the samples (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Samples a tail percentile is allowed to leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: `(value, percentile)`. Needs more than `TAIL_BEYOND` samples.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND - 1;
    Some((v[rank], 100.0 * (rank + 1) as f64 / n as f64))
}

/// FNV-1a over a stream of words.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// The simulated outcome of one PRAM step, as `PramMeshSim::step`
/// reports it: costs per phase and every processor's read.
pub struct StepDigest {
    pub line: String,
    pub hash: u64,
}

impl StepDigest {
    pub fn new(
        culling: &CullingReport,
        protocol: &ProtocolReport,
        reads: &[Option<u64>],
        outcomes: &[Option<QuorumRead>],
        total_steps: u64,
    ) -> Self {
        let mut d = Digest::new();
        d.word(total_steps);
        d.word(culling.total_steps);
        for it in &culling.iterations {
            for w in [
                u64::from(it.level),
                it.mark_bound,
                it.theorem3_bound,
                it.max_page_load,
                it.sort_steps,
                it.fallbacks,
            ] {
                d.word(w);
            }
        }
        for st in &protocol.stages {
            for w in [
                u64::from(st.stage),
                st.sort_steps,
                st.route_steps,
                st.max_node_load,
            ] {
                d.word(w);
            }
        }
        for w in [
            protocol.access_steps,
            protocol.return_steps,
            protocol.total_steps,
            protocol.max_queue as u64,
            protocol.dropped,
        ] {
            d.word(w);
        }
        let (mut read_count, mut unrecoverable, mut tainted) = (0u64, 0u64, 0u64);
        for (r, o) in reads.iter().zip(outcomes) {
            d.word(r.map_or(u64::MAX, |v| v ^ 0x5A5A));
            d.word(match o {
                None => 0,
                Some(QuorumRead::Value { ts, value }) => 1 ^ ts.rotate_left(7) ^ value,
                Some(QuorumRead::Tainted { ts, value }) => 2 ^ ts.rotate_left(7) ^ value,
                Some(QuorumRead::Unrecoverable) => 3,
            });
            read_count += u64::from(o.is_some());
            unrecoverable += u64::from(matches!(o, Some(QuorumRead::Unrecoverable)));
            tainted += u64::from(matches!(o, Some(QuorumRead::Tainted { .. })));
        }
        let stages: Vec<String> = protocol
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{}:{}/{}/{}",
                    s.stage, s.sort_steps, s.route_steps, s.max_node_load
                )
            })
            .collect();
        let hash = d.value();
        let line = format!(
            "total={total_steps} culling={} protocol={} stages(sort/route/δ)={} access={} \
             dropped={} reads={read_count} tainted={tainted} unrecoverable={unrecoverable} \
             digest={hash:016x}",
            culling.total_steps,
            protocol.total_steps,
            stages.join(","),
            protocol.access_steps,
            protocol.dropped,
        );
        StepDigest { line, hash }
    }
}
