//! Offline, dependency-free stand-in for the [`criterion`] crate.
//!
//! The build environment has no network access, so the workspace ships this
//! minimal harness covering the subset of criterion the benches use:
//! `Criterion::benchmark_group`, `sample_size`, `bench_function`,
//! `Bencher::iter`/`iter_batched`, `black_box`, `BatchSize` and the
//! `criterion_group!`/`criterion_main!` macros.
//!
//! Measurements are wall-clock medians over a handful of samples, printed as
//! one line per benchmark — good enough to compare orders of magnitude and
//! keep `cargo bench` runnable, with none of criterion's statistics.
//!
//! Like real criterion, `cargo bench -- --test` switches to **test
//! mode**: every benchmark routine runs exactly once, unmeasured, so CI
//! can smoke-test that the benches still compile and execute without
//! paying for timing samples.
//!
//! [`criterion`]: https://docs.rs/criterion

#![forbid(unsafe_code)]

use std::time::Instant;

/// Opaque value barrier — defers to `std::hint::black_box`.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// How `iter_batched` amortises setup; only a hint here.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Top-level harness handle passed to every benchmark function.
pub struct Criterion {
    test_mode: bool,
}

impl Default for Criterion {
    /// Reads the harness CLI: `--test` (anywhere in the arguments, as
    /// `cargo bench -- --test` passes it) selects run-once test mode.
    fn default() -> Self {
        Criterion {
            test_mode: std::env::args().any(|a| a == "--test"),
        }
    }
}

impl Criterion {
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let test_mode = self.test_mode;
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 10,
            test_mode,
        }
    }
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    _criterion: &'c mut Criterion,
    name: String,
    sample_size: usize,
    test_mode: bool,
}

impl BenchmarkGroup<'_> {
    /// Sets how many timed samples each benchmark takes (min 2).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Runs one benchmark and prints its median sample time; in
    /// `--test` mode, runs the routine once and reports success.
    pub fn bench_function<F>(&mut self, id: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        if self.test_mode {
            let mut b = Bencher {
                elapsed_ns: 0,
                iters: 0,
            };
            f(&mut b);
            println!("Testing {}/{}: ok", self.name, id);
            return self;
        }
        let mut samples: Vec<u128> = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                elapsed_ns: 0,
                iters: 0,
            };
            f(&mut b);
            if b.iters > 0 {
                samples.push(b.elapsed_ns / b.iters as u128);
            }
        }
        samples.sort_unstable();
        let median = samples.get(samples.len() / 2).copied().unwrap_or(0);
        println!(
            "{}/{}: median {} ns/iter ({} samples)",
            self.name,
            id,
            median,
            samples.len()
        );
        self
    }

    pub fn finish(self) {}
}

/// Timing context handed to the closure of `bench_function`.
pub struct Bencher {
    elapsed_ns: u128,
    iters: u64,
}

impl Bencher {
    /// Times repeated calls of `routine`.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let start = Instant::now();
        black_box(routine());
        self.elapsed_ns += start.elapsed().as_nanos();
        self.iters += 1;
    }

    /// Times `routine` on fresh inputs from `setup`; setup time is excluded.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let input = setup();
        let start = Instant::now();
        black_box(routine(input));
        self.elapsed_ns += start.elapsed().as_nanos();
        self.iters += 1;
    }
}

/// Bundles benchmark functions into one callable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Emits `main` running the given groups in order.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_counts() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        let mut calls = 0u64;
        g.sample_size(3).bench_function("iter", |b| {
            b.iter(|| {
                calls += 1;
                black_box(calls)
            })
        });
        g.bench_function("batched", |b| {
            b.iter_batched(|| 7u64, |x| x * 2, BatchSize::SmallInput)
        });
        g.finish();
        assert_eq!(calls, 3);
    }
}
