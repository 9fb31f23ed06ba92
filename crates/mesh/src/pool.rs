//! Shape-keyed engine reuse.
//!
//! [`EnginePool`] hands out engines keyed by mesh shape, checked out,
//! reset and recycled, so the per-node queue buffers survive across the
//! `k+1` protocol stages, CULLING, the baselines and columnsort's
//! permutation measurements instead of being reallocated per step. An
//! execution context (`prasim-exec`) owns one; there is no process-wide
//! pool. Worker threads are not pooled: a sharded engine spawns its band
//! workers for one run and joins them before the run returns.

use crate::engine::Engine;
use crate::topology::MeshShape;
use std::collections::HashMap;

/// Reusable engines keyed by mesh shape. Checking out resets the engine
/// (queues cleared, capacity kept) so repeated protocol stages on the
/// same submesh skip the per-node buffer allocation entirely.
#[derive(Debug, Default)]
pub struct EnginePool {
    free: HashMap<MeshShape, Vec<Engine>>,
    created: u64,
    reused: u64,
    /// Worker-thread count installed on every checked-out engine; `None`
    /// leaves engines at their [`Engine::new`] default.
    threads: Option<usize>,
}

impl EnginePool {
    /// An empty pool handing out engines with their default threads.
    pub fn new() -> Self {
        EnginePool::default()
    }

    /// Makes every later checkout run on `threads` workers (an execution
    /// context's configuration). Pooled engines are kept; the thread
    /// count is installed at checkout.
    pub fn configure(&mut self, threads: usize) {
        self.threads = Some(threads);
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
        if let Some(threads) = self.threads {
            engine.set_threads(threads);
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
