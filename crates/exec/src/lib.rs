//! The shared execution-context layer.
//!
//! Every stage of the PRAM simulation — the `k+1` access-protocol
//! stages, CULLING, the CREW/CRCW front-ends, the baselines, the
//! `(l1,l2)`-routing layers and columnsort's permutation measurements —
//! runs packets on the store-and-forward engine and sorts through the
//! pluggable sorter. Before this layer, each of those call sites
//! re-threaded the cross-cutting knobs (`threads`, `sorter`, `analytic`)
//! by hand, rebuilt `Engine`s per stage and shared one process-global
//! columnsort route memo.
//!
//! [`ExecCtx`] consolidates that state into one value built per
//! simulation. Besides its thread count and sorter it owns three things:
//!
//! - an [`EnginePool`] keyed by submesh shape, so repeated stages reuse
//!   engines and their per-node queue buffers; every checkout carries
//!   the context's thread count;
//! - the columnsort [`RouteMemo`] for the route costs the committed
//!   table lacks, moved off globals so concurrent simulations neither
//!   contend nor cross-pollinate;
//! - a [`CostLedger`] that decides analytic-vs-measured charging in one
//!   place (the only caller of [`SortCost::charged`]).
//!
//! A context owns no threads: a multi-threaded engine spawns its band
//! workers for one run and joins them before the run returns.
//!
//! Every sort goes through [`ExecCtx::sort_pairs`]: the caller hands
//! over `(snake position, key)` pairs for a submesh and gets a
//! [`Sorted`] back (keys in order, the `h` the sorter derived, the
//! cost). No caller builds per-node buffers or works out `h` itself.
//!
//! The context is the only way to configure a run: there is no
//! process-wide thread count, sorter or context mode, and no library
//! crate reads the environment. [`ExecCtx::default`] is 1 thread and
//! [`Sorter::default`]; the CLIs parse `--threads`/`--sorter` once and
//! pass them to [`ExecCtx::new`] (or `SimConfig`). Reusing one context
//! across steps only moves wall clock: a simulation that swaps in a
//! fresh [`ExecCtx::new`] before every step produces byte-identical
//! output. No process-wide state backs a context.

#![forbid(unsafe_code)]

use prasim_mesh::engine::Engine;
use prasim_mesh::pool::EnginePool;
use prasim_mesh::topology::MeshShape;
use prasim_sortnet::columnsort::RouteMemo;
use prasim_sortnet::key::Key;
use prasim_sortnet::shearsort::SortCost;
use prasim_sortnet::sorter::{Sorted, Sorter};

/// The single place analytic-vs-measured cost charging is decided.
///
/// Call sites hand their [`SortCost`] here instead of picking a field
/// with `SortCost::charged(analytic)` themselves: [`CostLedger::value`]
/// converts without recording (for comparisons), [`CostLedger::charge`]
/// converts and accumulates into the running totals.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostLedger {
    analytic: bool,
    charged_steps: u64,
    charges: u64,
}

impl CostLedger {
    /// A ledger charging measured steps (`analytic = false`) or the
    /// paper's analytic bounds (`analytic = true`).
    pub fn new(analytic: bool) -> Self {
        CostLedger {
            analytic,
            charged_steps: 0,
            charges: 0,
        }
    }

    /// Whether the ledger charges the paper's analytic bounds.
    pub fn analytic(&self) -> bool {
        self.analytic
    }

    /// The steps this cost is worth under the ledger's mode, without
    /// recording it (e.g. candidate comparison before committing).
    #[inline]
    pub fn value(&self, cost: &SortCost) -> u64 {
        cost.charged(self.analytic)
    }

    /// Records the cost and returns its charged steps.
    #[inline]
    pub fn charge(&mut self, cost: &SortCost) -> u64 {
        let v = self.value(cost);
        self.charged_steps += v;
        self.charges += 1;
        v
    }

    /// Total steps charged so far.
    pub fn charged_steps(&self) -> u64 {
        self.charged_steps
    }

    /// Number of costs recorded so far.
    pub fn charges(&self) -> u64 {
        self.charges
    }
}

/// The per-simulation execution context: engine pool, sorter resources
/// and cost ledger, owned together and
/// borrowed (`&mut ExecCtx`) by every execution layer instead of
/// drilling individual knobs.
#[derive(Debug)]
pub struct ExecCtx {
    threads: usize,
    sorter: Sorter,
    engines: EnginePool,
    ledger: CostLedger,
    memo: RouteMemo,
}

impl Default for ExecCtx {
    /// One worker thread, the default sorter, measured charging.
    fn default() -> Self {
        Self::new(1, Sorter::default(), false)
    }
}

impl ExecCtx {
    /// A context with explicit knobs and an empty engine pool.
    pub fn new(threads: usize, sorter: Sorter, analytic: bool) -> Self {
        let threads = threads.max(1);
        // Every engine the pool hands out — including the ones columnsort
        // checks out for its route measurements — runs on the context's
        // thread count.
        let mut engines = EnginePool::new();
        engines.configure(threads);
        ExecCtx {
            threads,
            sorter,
            engines,
            ledger: CostLedger::new(analytic),
            memo: RouteMemo::new(),
        }
    }

    /// The configured engine worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured sorter.
    pub fn sorter(&self) -> Sorter {
        self.sorter
    }

    /// The cost ledger.
    pub fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    /// The cost ledger, mutably (charge through this).
    pub fn ledger_mut(&mut self) -> &mut CostLedger {
        &mut self.ledger
    }

    /// The engine pool (for direct checkout/recycle bookkeeping). Its
    /// engines carry the context's thread count.
    pub fn engine_pool(&mut self) -> &mut EnginePool {
        &mut self.engines
    }

    /// The columnsort route memo: the shapes this context measured
    /// because the committed route-cost table lacks them.
    pub fn route_memo(&self) -> &RouteMemo {
        &self.memo
    }

    /// Checks out an engine on `shape`, configured with the context's
    /// thread count. Return it with
    /// [`ExecCtx::recycle`] when the stage is done.
    pub fn engine(&mut self, shape: MeshShape) -> Engine {
        self.engines.checkout(shape)
    }

    /// Returns an engine to the context's pool.
    pub fn recycle(&mut self, engine: Engine) {
        self.engines.recycle(engine);
    }

    /// Sorts `(snake position, key)` pairs on a `rows × cols` submesh
    /// with the context's sorter and execution resources (the
    /// [`Sorter::sort_pairs`] contract: `h = max(1, most keys on one
    /// node)`, sorted key `j` on snake position `j / h`). The cost is
    /// *returned*, not charged — stages decide what to charge through
    /// [`ExecCtx::ledger_mut`].
    pub fn sort_pairs<T: Ord + Copy>(
        &mut self,
        pairs: impl IntoIterator<Item = (u32, T)>,
        rows: u32,
        cols: u32,
    ) -> Sorted<T> {
        self.sorter
            .sort_pairs(pairs, rows, cols, &mut self.engines, &mut self.memo)
    }

    // Per-node buffers padded to an explicit `h` and run through the
    // kernel dispatch; kept only for the sort probe in
    // stepbench/src/main.rs, its one caller.
    #[doc(hidden)]
    pub fn sort<T: Ord + Copy>(
        &mut self,
        items: &mut [Vec<T>],
        rows: u32,
        cols: u32,
        h: usize,
    ) -> SortCost {
        let mut buf = Vec::with_capacity(items.len() * h);
        for v in items.iter_mut() {
            let pad = h
                .checked_sub(v.len())
                .expect("a node holds more than h keys");
            buf.extend(v.drain(..).map(Key::Val));
            buf.extend(std::iter::repeat_n(Key::PosInf, pad));
        }
        let cost =
            self.sorter
                .sort_with(&mut buf, rows, cols, h, &mut self.engines, &mut self.memo);
        for (v, node) in items.iter_mut().zip(buf.chunks(h)) {
            v.extend(node.iter().filter_map(|k| k.val()));
        }
        cost
    }

    // Kept only for stepbench/src/traced.rs, its one caller.
    #[doc(hidden)]
    pub fn maybe_renew(&mut self) {}

    // Kept only for stepbench/src/main.rs, its one caller: a context
    // owns no worker threads, so the count it reads is always 0.
    #[doc(hidden)]
    pub fn worker_pool(&self) -> NoWorkers {
        NoWorkers
    }
}

// The value `ExecCtx::worker_pool` returns; see there.
#[doc(hidden)]
#[derive(Debug, Clone, Copy)]
pub struct NoWorkers;

impl NoWorkers {
    #[doc(hidden)]
    pub fn spawned(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_is_the_charging_authority() {
        let cost = SortCost {
            steps: 120,
            analytic_steps: 48,
            phases: 3,
        };
        let mut measured = CostLedger::new(false);
        assert_eq!(measured.value(&cost), 120);
        assert_eq!(measured.charge(&cost), 120);
        assert_eq!(measured.charged_steps(), 120);
        assert_eq!(measured.charges(), 1);

        let mut analytic = CostLedger::new(true);
        assert_eq!(analytic.charge(&cost), 48);
        assert_eq!(analytic.charge(&cost), 48);
        assert_eq!(analytic.charged_steps(), 96);
        assert_eq!(analytic.charges(), 2);
    }

    #[test]
    fn engines_are_pooled_and_configured() {
        let mut ctx = ExecCtx::new(3, Sorter::Shearsort, false);
        let shape = MeshShape::square(4);
        let a = ctx.engine(shape);
        assert_eq!(a.threads(), 3);
        ctx.recycle(a);
        let b = ctx.engine(shape);
        assert_eq!(ctx.engine_pool().reused(), 1);
        ctx.recycle(b);
    }

    #[test]
    fn sort_uses_context_resources() {
        // 12×20 is not in the committed route-cost table, so the first
        // sort measures its routes into the context's memo.
        let mut ctx = ExecCtx::new(1, Sorter::Columnsort, false);
        let pairs = || (0..240u32).map(|p| (p, 239 - p as u64));
        let s1 = ctx.sort_pairs(pairs(), 12, 20);
        assert_eq!(s1.keys, (0..240u64).collect::<Vec<_>>());
        assert_eq!(ctx.route_memo().len(), 1, "columnsort fills the memo");
        let s2 = ctx.sort_pairs(pairs(), 12, 20);
        assert_eq!(s1.cost, s2.cost, "memoized repeat sorts charge identically");
        assert_eq!(ctx.route_memo().len(), 1, "the repeat hits the memo");
    }

    #[test]
    fn nested_adapter_matches_pair_entry() {
        let mut ctx = ExecCtx::new(1, Sorter::Columnsort, false);
        let mut items: Vec<Vec<u64>> = (0..64u64).map(|x| vec![(x * 37) % 64, x / 3]).collect();
        let pairs: Vec<(u32, u64)> = items
            .iter()
            .enumerate()
            .flat_map(|(p, v)| v.iter().map(move |&k| (p as u32, k)))
            .collect();
        let sorted = ctx.sort_pairs(pairs, 8, 8);
        let cost = ctx.sort(&mut items, 8, 8, 2);
        assert_eq!(cost, sorted.cost);
        assert_eq!(items.concat(), sorted.keys);
        assert!(items.iter().all(|v| v.len() == 2), "balanced h per node");
    }
}
