//! Host-speed normalization.
//!
//! On the shared 2-vCPU host the benchmark was tuned on, the same warm
//! step took 220 ms or 380 ms depending on what neighbouring machines
//! were doing. The host switched between the two speeds every few
//! seconds. Thread CPU time matched wall time, so the time was not
//! stolen; the host itself ran slower. The share of fast phases in a
//! 40-second run ranged from 12% to 67%, so raw per-run medians moved by
//! up to 35% between runs of the same code.
//!
//! Every timed call is therefore bracketed by a fixed reference kernel,
//! a sort and a hash-map pass like the simulator's own work. The call's
//! wall time is rescaled to a host on which the kernel takes exactly
//! [`REF_SECONDS`], using the mean of the kernel runs just before and just
//! after the call. On that host, the rescaled medians of fast-phase and
//! slow-phase steps then agreed within 2.5%. The kernel is benchmark
//! code, so it is identical on both sides of any comparison of the
//! program.

use crate::inputs::Rng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on the host that reported times are
/// rescaled to.
pub const REF_SECONDS: f64 = 0.010;

const SORT_KEYS: usize = 1 << 17;
const MAP_KEYS: usize = 1 << 15;

/// A timed call: wall seconds, and the factor that rescales them to the
/// reference host.
#[derive(Clone, Copy)]
pub struct Timed {
    pub wall: f64,
    pub factor: f64,
}

impl Timed {
    /// Wall seconds rescaled to the reference host.
    pub fn norm(self) -> f64 {
        self.wall * self.factor
    }
}

/// Times calls against the reference kernel.
pub struct HostClock {
    template: Vec<(u32, u32, u16)>,
    buf: Vec<(u32, u32, u16)>,
    keys: Vec<u64>,
    last: f64,
}

impl HostClock {
    pub fn new() -> Self {
        let mut rng = Rng::new(0x4EF, 0);
        let template: Vec<(u32, u32, u16)> = (0..SORT_KEYS)
            .map(|_| (rng.next() as u32, rng.next() as u32, rng.below(9) as u16))
            .collect();
        let keys = (0..2 * MAP_KEYS).map(|_| rng.next()).collect();
        let mut clock = HostClock {
            buf: template.clone(),
            template,
            keys,
            last: 0.0,
        };
        clock.kernel();
        clock.last = clock.kernel();
        clock
    }

    /// One run of the reference kernel, in wall seconds.
    fn kernel(&mut self) -> f64 {
        self.buf.copy_from_slice(&self.template);
        let t = Instant::now();
        black_box(&mut self.buf).sort_unstable();
        let (inserts, probes) = self.keys.split_at(MAP_KEYS);
        let mut map = HashMap::with_capacity(MAP_KEYS);
        for (i, &k) in inserts.iter().enumerate() {
            map.insert(k, i as u64);
        }
        let hits: u64 = probes
            .iter()
            .chain(inserts)
            .filter_map(|k| map.get(k))
            .sum();
        black_box(hits);
        t.elapsed().as_secs_f64()
    }

    /// Runs `f` between two kernel runs.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Timed) {
        let before = self.last;
        let t = Instant::now();
        let r = f();
        let wall = t.elapsed().as_secs_f64();
        self.last = self.kernel();
        let factor = 2.0 * REF_SECONDS / (before + self.last);
        (r, Timed { wall, factor })
    }
}
