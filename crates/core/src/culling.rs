//! Procedure CULLING (Section 3.2): shrink each variable's copy set from
//! a minimal level-0 target set to a minimal (level-k) target set while
//! bounding the number of selected copies per level-`i` page.
//!
//! Iteration `i` marks, in every level-`i` page, at most
//! `2·q^k·n^{1-1/2^i}` of the currently selected copies (we mark the
//! first ones in mesh-sorted order — the paper says "arbitrary"); a
//! variable whose marked copies contain a level-`i` target set keeps one,
//! otherwise it completes its set with unmarked copies from its previous
//! selection (the `S_v` branch). Theorem 3 then bounds the post-iteration
//! page loads by `4·q^k·n^{1-1/2^i}`.
//!
//! The paper executes the marking with a parallel sort-and-rank of the
//! copies by destination page; we do exactly that (the configured mesh
//! sorter + segmented rank on the full mesh) so the reported culling
//! time is a *measured* quantity with the Eq. (2) shape `O(k·q^k·√n)`.

use prasim_exec::ExecCtx;
use prasim_hmos::{CopyCell, Hmos, TargetSpec};
use prasim_mesh::topology::MeshShape;
use prasim_routing::problem::SplitMix64;
use prasim_sortnet::rank::rank_sorted;
use prasim_sortnet::snake::snake_pos;

/// CULLING's choice for a whole step, as the access protocol reads it.
///
/// Processor `p`'s variable has its `q^k` copies resolved in the stripe
/// `p·q^k..(p+1)·q^k`, in leaf order, beside a mask of the chosen
/// leaves. An idle processor's stripe chooses nothing. Callers hold one
/// stripe per processor of the step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    width: usize,
    cells: Vec<CopyCell>,
    chosen: Vec<bool>,
}

impl Selection {
    /// Number of processors (stripes) covered.
    pub fn processors(&self) -> usize {
        self.cells.len() / self.width
    }

    /// Processor `p`'s chosen copies, leaves ascending, as `(leaf,
    /// cell)`; `leaf` indexes `T_v` (see
    /// [`prasim_hmos::CopyAddr::leaf_index`]).
    pub fn of(&self, p: usize) -> impl Iterator<Item = (u64, &CopyCell)> + '_ {
        let stripe = p * self.width..(p + 1) * self.width;
        (0..)
            .zip(&self.cells[stripe.clone()])
            .zip(&self.chosen[stripe])
            .filter_map(|(copy, &chosen)| chosen.then_some(copy))
    }
}

/// The cells of every requested variable's copies, resolved once:
/// processor `p`'s leaf `j` sits at `p·q^k + j` (idle processors' cells
/// are left at the default and never read).
fn resolve_requests(hmos: &Hmos, requests: &[Option<u64>]) -> Vec<CopyCell> {
    let qk = hmos.params().redundancy() as usize;
    let mut cells = Vec::with_capacity(requests.len() * qk);
    for req in requests {
        match *req {
            Some(v) => hmos.resolve_all(v, &mut cells),
            None => cells.resize(cells.len() + qk, CopyCell::default()),
        }
    }
    cells
}

/// Per-iteration culling statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CullIteration {
    /// The level `i` of this iteration.
    pub level: u32,
    /// Marking bound `⌈slack · 2·q^k·n^{1-1/2^i}⌉` used.
    pub mark_bound: u64,
    /// Theorem 3 bound `4·q^k·n^{1-1/2^i}` on post-iteration page loads.
    pub theorem3_bound: u64,
    /// Maximum copies of `∪C_v^i` observed in any level-`i` page after
    /// the iteration.
    pub max_page_load: u64,
    /// Sort + rank steps charged to this iteration.
    pub sort_steps: u64,
    /// Variables that could not complete within their marked copies and
    /// took the `S_v` branch.
    pub fallbacks: u64,
}

/// Complete culling statistics.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CullingReport {
    /// One entry per level `1..=k`.
    pub iterations: Vec<CullIteration>,
    /// Total simulated steps (sorts, ranks, and the `O(q^k)` local work
    /// per iteration).
    pub total_steps: u64,
}

impl CullingReport {
    /// Whether every iteration respected Theorem 3.
    pub fn theorem3_holds(&self) -> bool {
        self.iterations
            .iter()
            .all(|it| it.max_page_load <= it.theorem3_bound)
    }
}

/// Result of culling a request set.
#[derive(Debug, Clone)]
pub struct CullingOutcome {
    /// Per processor: the selected copies of its variable (none when
    /// idle). Each active processor's selection is a target set.
    pub selected: Selection,
    /// Statistics and cost.
    pub report: CullingReport,
}

/// Selects *all* `q^k` copies of every requested variable — the
/// full-copy access required by hierarchical-majority reads
/// ([`crate::protocol::ReadPolicy::HierarchicalMajority`]), where the
/// quorum must be able to out-vote faulty copies rather than trust a
/// minimal target set. No marking or sorting happens (there is no choice
/// to make), so the charged cost is only the `O(q^k)` local enumeration;
/// the routing phases then carry the full `q^k`-fold load.
pub fn select_all(hmos: &Hmos, requests: &[Option<u64>]) -> CullingOutcome {
    let qk = hmos.params().redundancy();
    let chosen = requests
        .iter()
        .flat_map(|req| std::iter::repeat_n(req.is_some(), qk as usize))
        .collect();
    CullingOutcome {
        selected: Selection {
            width: qk as usize,
            cells: resolve_requests(hmos, requests),
            chosen,
        },
        report: CullingReport {
            iterations: Vec::new(),
            total_steps: qk,
        },
    }
}

/// Runs CULLING for the requested variables (`requests[p]` is processor
/// `p`'s variable). `slack` scales the marking bound (1.0 = the paper's
/// constant; smaller values stress the fallback path — used by the
/// ablation benches). The marking sorts run on the context's sorter and
/// pooled resources; the per-iteration sort/rank costs are charged
/// through the context's [`prasim_exec::CostLedger`].
pub fn cull_with(
    hmos: &Hmos,
    requests: &[Option<u64>],
    slack: f64,
    ctx: &mut ExecCtx,
) -> CullingOutcome {
    let params = hmos.params();
    let (q, k, n) = (params.q, params.k, params.n);
    let qk = params.redundancy();
    let spec = TargetSpec { q, k };
    let shape: MeshShape = hmos.shape();

    let cells = resolve_requests(hmos, requests);
    let stripe = |p: usize| p * qk as usize..(p + 1) * qk as usize;

    // The current selections C_v^i, one `q^k`-wide leaf-mask stripe per
    // processor. C^0: a minimal level-0 target set with a per-variable
    // pseudo-random preference, so initial choices spread over the
    // copies (any minimal set is admissible).
    let mut in_c = vec![false; cells.len()];
    let mut prefs = vec![0u64; qk as usize];
    for (p, req) in requests.iter().enumerate() {
        if let Some(v) = req {
            let mut rng = SplitMix64(v.wrapping_mul(0x9E3779B97F4A7C15));
            prefs.fill_with(|| rng.next_u64() >> 8);
            let leaves = spec
                .extract_minimal(0, |_| true, |l| prefs[l as usize])
                .expect("full copy tree always contains a level-0 target set");
            let c = &mut in_c[stripe(p)];
            for l in leaves {
                c[l as usize] = true;
            }
        }
    }
    let mut marked = vec![false; cells.len()];

    let mut report = CullingReport::default();

    for i in 1..=k {
        let exponent = 1.0 - 0.5f64.powi(i as i32);
        let base_bound = 2.0 * qk as f64 * (n as f64).powf(exponent);
        let mark_bound = (slack * base_bound).ceil().max(1.0) as u64;
        let theorem3_bound = (4.0 * qk as f64 * (n as f64).powf(exponent)).ceil() as u64;
        let page_of = |at: usize| cells[at].instances[i as usize - 1];

        // --- Parallel sort of all selected copies by level-i page. ---
        // Key: (page instance, processor, leaf); processor p holds the
        // keys for its variable's current selection.
        let sorted = ctx.sort_pairs(
            (0..requests.len()).flat_map(|p| {
                let pos = snake_pos(shape, p as u32);
                stripe(p)
                    .filter(|&at| in_c[at])
                    .map(move |at| (pos, (page_of(at), p as u32, (at % qk as usize) as u16)))
            }),
            shape.rows,
            shape.cols,
        );
        let (ranks, rank_cost) = rank_sorted(&sorted, |&(page, _, _)| page);

        // --- Marking: the first `mark_bound` copies of each page. ---
        marked.fill(false);
        for (&(_page, p, leaf), &rank) in sorted.keys.iter().zip(&ranks) {
            if rank < mark_bound {
                marked[p as usize * qk as usize + leaf as usize] = true;
            }
        }

        // --- Per-variable extraction of a minimal level-i target set. ---
        let mut fallbacks = 0u64;
        for p in (0..requests.len()).filter(|&p| requests[p].is_some()) {
            let (c, mk) = (&in_c[stripe(p)], &marked[stripe(p)]);
            let next = spec
                .extract_minimal(i, |l| c[l as usize] && mk[l as usize], |_| 0)
                .unwrap_or_else(|| {
                    fallbacks += 1;
                    spec.extract_minimal(i, |l| c[l as usize], |l| u64::from(mk[l as usize]))
                        .expect("C^{i-1} is a level-(i-1) target set, hence a level-i target set")
                });
            let c = &mut in_c[stripe(p)];
            c.fill(false);
            for l in next {
                c[l as usize] = true;
            }
        }

        // --- Post-iteration page loads (Theorem 3 verification). ---
        let mut loads = vec![0u64; hmos.pages(i).len()];
        for at in (0..in_c.len()).filter(|&at| in_c[at]) {
            loads[page_of(at) as usize] += 1;
        }
        let max_page_load = loads.iter().copied().max().unwrap_or(0);

        let ledger = ctx.ledger_mut();
        let sort_steps = ledger.charge(&sorted.cost) + ledger.charge(&rank_cost) + qk; // + O(q^k) local
        report.total_steps += sort_steps;
        report.iterations.push(CullIteration {
            level: i,
            mark_bound,
            theorem3_bound,
            max_page_load,
            sort_steps,
            fallbacks,
        });
    }

    // C^k: minimal level-k target sets.
    let selected = Selection {
        width: qk as usize,
        cells,
        chosen: in_c,
    };
    CullingOutcome { selected, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use prasim_hmos::{CopyAddr, HmosParams};

    fn hmos() -> Hmos {
        Hmos::new(HmosParams::with_d(3, 2, 1024, 4).unwrap()).unwrap()
    }

    fn full_requests(h: &Hmos, n: usize, seed: u64) -> Vec<Option<u64>> {
        workload::random_distinct(n as u64, h.num_variables(), seed)
            .into_iter()
            .map(Some)
            .collect()
    }

    fn leaves(sel: &Selection, p: usize) -> Vec<u64> {
        sel.of(p).map(|(leaf, _)| leaf).collect()
    }

    #[test]
    fn selections_are_minimal_target_sets() {
        let h = hmos();
        let reqs = full_requests(&h, 1024, 3);
        let out = cull_with(&h, &reqs, 1.0, &mut ExecCtx::default());
        let spec = TargetSpec { q: 3, k: 2 };
        assert_eq!(out.selected.processors(), reqs.len());
        for p in 0..reqs.len() {
            let mut leaves = leaves(&out.selected, p);
            assert_eq!(leaves.len() as u64, spec.minimal_size(2)); // 2^2 = 4
            assert!(spec.is_target(&mut leaves));
        }
    }

    #[test]
    fn theorem3_bound_holds_random() {
        let h = hmos();
        let reqs = full_requests(&h, 1024, 7);
        let out = cull_with(&h, &reqs, 1.0, &mut ExecCtx::default());
        assert!(out.report.theorem3_holds(), "{:?}", out.report);
        assert_eq!(out.report.iterations.len(), 2);
    }

    #[test]
    fn theorem3_bound_holds_adversarial() {
        let h = hmos();
        let vars = workload::multi_module_adversary(&h, 1024, 0);
        let reqs: Vec<Option<u64>> = vars.into_iter().map(Some).collect();
        let out = cull_with(&h, &reqs, 1.0, &mut ExecCtx::default());
        assert!(out.report.theorem3_holds(), "{:?}", out.report);
    }

    #[test]
    fn tight_slack_forces_fallbacks_but_stays_correct() {
        let h = hmos();
        let vars = workload::multi_module_adversary(&h, 1024, 0);
        let reqs: Vec<Option<u64>> = vars.into_iter().map(Some).collect();
        // Absurdly tight marking bound: every variable has to fall back;
        // selections must still be valid minimal target sets.
        let out = cull_with(&h, &reqs, 0.001, &mut ExecCtx::default());
        let spec = TargetSpec { q: 3, k: 2 };
        assert_eq!(out.selected.processors(), reqs.len());
        for p in 0..reqs.len() {
            let mut leaves = leaves(&out.selected, p);
            assert_eq!(leaves.len() as u64, spec.minimal_size(2));
            assert!(spec.is_target(&mut leaves));
        }
        let total_fallbacks: u64 = out.report.iterations.iter().map(|i| i.fallbacks).sum();
        assert!(total_fallbacks > 0);
    }

    #[test]
    fn selections_resolve_like_hmos_and_skip_idle_processors() {
        let h = hmos();
        let mut reqs = full_requests(&h, 1024, 9);
        reqs[5] = None;
        reqs[900] = None;
        let culled = cull_with(&h, &reqs, 1.0, &mut ExecCtx::default());
        let all = select_all(&h, &reqs);
        assert_eq!(culled.selected.processors(), reqs.len());
        assert_eq!(all.selected.processors(), reqs.len());
        for (p, req) in reqs.iter().enumerate() {
            let Some(var) = *req else {
                assert_eq!(culled.selected.of(p).count(), 0, "idle processor {p}");
                assert_eq!(all.selected.of(p).count(), 0, "idle processor {p}");
                continue;
            };
            let chosen = leaves(&culled.selected, p);
            assert_eq!(chosen.len(), 4, "processor {p}");
            assert!(chosen.windows(2).all(|w| w[0] < w[1]), "processor {p}");
            assert_eq!(leaves(&all.selected, p), (0..9).collect::<Vec<_>>());
            for (leaf, cell) in culled.selected.of(p).chain(all.selected.of(p)) {
                let want = h.resolve(&CopyAddr::from_leaf_index(var, 3, 2, leaf));
                assert_eq!(
                    (cell.node, cell.slot, cell.instances),
                    (want.node, want.slot, want.instances),
                    "processor {p}, leaf {leaf}"
                );
            }
        }
    }

    #[test]
    fn culling_cost_has_sqrt_n_shape() {
        // Cost per level should scale ~√n: same request count, meshes of
        // 1024 vs 4096 nodes (d = 5 keeps both configurations valid).
        let h_small = Hmos::new(HmosParams::with_d(3, 2, 1024, 5).unwrap()).unwrap();
        let h_big = Hmos::new(HmosParams::with_d(3, 2, 4096, 5).unwrap()).unwrap();
        let vars = workload::random_distinct(1024, h_small.num_variables(), 1);
        let r_small: Vec<Option<u64>> = vars.iter().copied().map(Some).collect();
        let mut r_big = r_small.clone();
        r_big.resize(4096, None);
        let c_small = cull_with(&h_small, &r_small, 1.0, &mut ExecCtx::default())
            .report
            .total_steps;
        let c_big = cull_with(&h_big, &r_big, 1.0, &mut ExecCtx::default())
            .report
            .total_steps;
        let ratio = c_big as f64 / c_small as f64;
        // √(4096/1024) = 2; shearsort's log factor pushes it a bit above.
        assert!(ratio > 1.3 && ratio < 4.5, "ratio = {ratio}");
    }

    #[test]
    fn deterministic() {
        let h = hmos();
        let reqs = full_requests(&h, 512, 42);
        let a = cull_with(&h, &reqs, 1.0, &mut ExecCtx::default());
        let b = cull_with(&h, &reqs, 1.0, &mut ExecCtx::default());
        assert_eq!(a.selected, b.selected);
        assert_eq!(a.report, b.report);
    }
}
