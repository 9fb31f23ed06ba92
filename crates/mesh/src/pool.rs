//! Persistent execution pools: parked worker threads and reusable
//! engines.
//!
//! The sharded engine ([`crate::engine`]) runs each synchronous step as
//! a band-parallel compute/apply pair. Spawning and joining an OS thread
//! per band per `run` call — the original `std::thread::scope` layout —
//! costs a thread launch for every routing phase of every PRAM step.
//! [`WorkerPool`] spawns its threads once and parks them between runs:
//! a run publishes one lifetime-erased job (the band closure), wakes the
//! workers, executes the coordinator on the calling thread, and returns
//! only after every worker has finished, so the borrowed band state can
//! never escape. The band protocol itself (barriers, handoff queues,
//! fold order) is untouched, which keeps results byte-identical for
//! every thread count.
//!
//! [`EnginePool`] is the companion allocator: engines keyed by mesh
//! shape, checked out, reset and recycled so the per-node queue buffers
//! survive across the `k+1` protocol stages, CULLING, the baselines and
//! columnsort's permutation measurements instead of being reallocated
//! per step. Both pools are owned by an execution context
//! (`prasim-exec`); there is no process-wide pool. A multi-threaded
//! engine outside any context builds its own [`WorkerPool`] on its first
//! sharded run and drops it with itself.

use crate::engine::Engine;
use crate::topology::MeshShape;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The job closure: called once per participating worker with the
/// worker's index in `0..active`.
type Task = dyn Fn(usize) + Sync;

/// Poison-tolerant lock: pool state stays consistent across unwinds
/// (worker panics are caught and re-raised by the submitter), so a
/// poisoned mutex only records that a panic happened somewhere.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One published job. The raw pointer erases the borrow lifetime; the
/// submitting [`WorkerPool::run`] call does not return until every
/// participant has finished, so the pointee outlives every dereference.
struct Job {
    task: *const Task,
    active: usize,
}

// SAFETY: the pointee is `Sync` (shared references may cross threads)
// and outlives the job (see `Job` docs); the pointer itself is plain
// data.
unsafe impl Send for Job {}

struct PoolState {
    job: Option<Job>,
    /// Bumped once per published job; workers use it to take each job
    /// exactly once.
    epoch: u64,
    /// Participants that have not yet finished the current job.
    remaining: usize,
    /// Set when a worker's task panicked; rethrown by the submitter.
    panicked: bool,
    spawned: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here between jobs.
    job_cv: Condvar,
    /// The submitter parks here until `remaining == 0`.
    done_cv: Condvar,
}

/// A persistent pool of parked worker threads, spawned lazily up to the
/// largest band count ever requested and reused across every engine run.
pub struct WorkerPool {
    shared: Arc<Shared>,
    /// Serializes submitters: one job in flight at a time.
    submit: Mutex<()>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("spawned", &self.spawned())
            .finish()
    }
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// An empty pool; threads are spawned on first use and grow to the
    /// largest `active` count ever passed to [`WorkerPool::run`].
    pub fn new() -> Self {
        WorkerPool {
            shared: Arc::new(Shared {
                state: Mutex::new(PoolState {
                    job: None,
                    epoch: 0,
                    remaining: 0,
                    panicked: false,
                    spawned: 0,
                    shutdown: false,
                }),
                job_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            submit: Mutex::new(()),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Worker threads spawned so far (high-water mark of `active`).
    pub fn spawned(&self) -> usize {
        lock(&self.shared.state).spawned
    }

    /// Runs `worker(0..active)` on pool threads while `coordinator`
    /// executes on the calling thread, returning the coordinator's
    /// result. The two sides are expected to interlock through their own
    /// barriers (the engine's step frame); this call returns only after
    /// every worker has finished, so `worker` may freely borrow from the
    /// caller's stack.
    pub fn run<R>(
        &self,
        active: usize,
        worker: &(dyn Fn(usize) + Sync),
        coordinator: impl FnOnce() -> R,
    ) -> R {
        assert!(active >= 1, "a job needs at least one worker");
        let _guard = self.submit.lock().unwrap_or_else(|e| e.into_inner());
        self.ensure(active);
        // SAFETY: only erases the borrow lifetime (layouts are
        // identical); `Job` documents why the pointee outlives its use.
        let task: *const Task =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), *const Task>(worker) };
        {
            let mut st = lock(&self.shared.state);
            st.job = Some(Job { task, active });
            st.remaining = active;
            st.epoch += 1;
            self.shared.job_cv.notify_all();
        }
        // Completion guard: runs even if the coordinator unwinds, so no
        // worker can still hold the borrow once this frame is gone.
        struct Finish<'a>(&'a Shared);
        impl Drop for Finish<'_> {
            fn drop(&mut self) {
                let mut st = lock(&self.0.state);
                while st.remaining > 0 {
                    st = self.0.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                st.job = None;
            }
        }
        let finish = Finish(&self.shared);
        let out = coordinator();
        drop(finish);
        let mut st = lock(&self.shared.state);
        if std::mem::take(&mut st.panicked) {
            drop(st);
            panic!("engine worker thread panicked");
        }
        out
    }

    /// Spawns workers up to `active`. Only called under the submit lock.
    fn ensure(&self, active: usize) {
        let spawned = lock(&self.shared.state).spawned;
        if spawned >= active {
            return;
        }
        let mut handles = lock(&self.handles);
        for index in spawned..active {
            let shared = Arc::clone(&self.shared);
            handles.push(std::thread::spawn(move || worker_loop(&shared, index)));
        }
        lock(&self.shared.state).spawned = active;
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = lock(&self.shared.state);
            st.shutdown = true;
        }
        self.shared.job_cv.notify_all();
        for h in lock(&self.handles).drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen = 0u64;
    loop {
        let task = {
            let mut st = lock(&shared.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    if let Some(job) = st.job.as_ref().filter(|j| index < j.active) {
                        break job.task;
                    }
                }
                st = shared.job_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: the submitter does not return from `run` until
        // `remaining` hits 0, so the pointee is alive for this call.
        let task = unsafe { &*task };
        if catch_unwind(AssertUnwindSafe(|| task(index))).is_err() {
            lock(&shared.state).panicked = true;
        }
        let mut st = lock(&shared.state);
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

/// Reusable engines keyed by mesh shape. Checking out resets the engine
/// (queues cleared, capacity kept) so repeated protocol stages on the
/// same submesh skip the per-node buffer allocation entirely.
#[derive(Debug, Default)]
pub struct EnginePool {
    free: HashMap<MeshShape, Vec<Engine>>,
    created: u64,
    reused: u64,
    /// Worker-thread count and worker pool installed on every checked-out
    /// engine; `None` leaves engines at their [`Engine::new`] defaults.
    config: Option<(usize, Arc<WorkerPool>)>,
}

impl EnginePool {
    /// An empty pool handing out engines with their default threads.
    pub fn new() -> Self {
        EnginePool::default()
    }

    /// Makes every later checkout run on `threads` workers borrowed from
    /// `workers` (an execution context's configuration). Pooled engines
    /// are kept; the configuration is installed at checkout.
    pub fn configure(&mut self, threads: usize, workers: Arc<WorkerPool>) {
        self.config = Some((threads, workers));
    }

    /// A reset engine on `shape`: recycled if one is available, freshly
    /// built otherwise, with the pool's thread configuration installed.
    /// The caller configures faults/trace per use (the reset clears
    /// both).
    pub fn checkout(&mut self, shape: MeshShape) -> Engine {
        let mut engine = match self.free.get_mut(&shape).and_then(Vec::pop) {
            Some(mut engine) => {
                self.reused += 1;
                engine.reset();
                engine
            }
            None => {
                self.created += 1;
                Engine::new(shape)
            }
        };
        if let Some((threads, workers)) = &self.config {
            engine.set_threads(*threads);
            engine.set_pool(Arc::clone(workers));
        }
        engine
    }

    /// Returns an engine to the pool for later reuse.
    pub fn recycle(&mut self, engine: Engine) {
        self.free.entry(engine.shape()).or_default().push(engine);
    }

    /// Engines built from scratch so far.
    pub fn created(&self) -> u64 {
        self.created
    }

    /// Checkouts served by recycling.
    pub fn reused(&self) -> u64 {
        self.reused
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

    #[test]
    fn pool_runs_all_workers_and_reuses_threads() {
        let pool = WorkerPool::new();
        let hits = AtomicUsize::new(0);
        for round in 0..5 {
            let barrier = Barrier::new(4);
            let r = pool.run(
                3,
                &|_i| {
                    hits.fetch_add(1, Ordering::SeqCst);
                    barrier.wait();
                },
                || {
                    barrier.wait();
                    round
                },
            );
            assert_eq!(r, round);
        }
        assert_eq!(hits.load(Ordering::SeqCst), 15);
        assert_eq!(pool.spawned(), 3, "threads spawned once, reused after");
    }

    #[test]
    fn pool_grows_to_largest_request() {
        let pool = WorkerPool::new();
        pool.run(2, &|_| {}, || {});
        pool.run(7, &|_| {}, || {});
        pool.run(1, &|_| {}, || {});
        assert_eq!(pool.spawned(), 7);
    }

    #[test]
    fn worker_panic_is_propagated_not_deadlocked() {
        let pool = WorkerPool::new();
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, &|i| assert!(i != 1, "boom"), || {});
        }));
        assert!(r.is_err());
        // The pool survives and serves the next job.
        pool.run(2, &|_| {}, || {});
    }

    #[test]
    fn engine_pool_recycles_by_shape() {
        let mut pool = EnginePool::new();
        let a = pool.checkout(MeshShape::square(4));
        let b = pool.checkout(MeshShape::square(4));
        pool.recycle(a);
        pool.recycle(b);
        assert_eq!(pool.created(), 2);
        let _c = pool.checkout(MeshShape::square(4));
        assert_eq!(pool.reused(), 1);
        let _d = pool.checkout(MeshShape { rows: 2, cols: 8 });
        assert_eq!(pool.created(), 3, "different shape is a fresh engine");
    }
}
