//! The HMOS proper: replication graphs, physical page tree, copy
//! addressing and the O(d)-per-step memory map.
//!
//! The scheme materializes the *page tree*: one physical instance per
//! level-`i` page (a copy of a level-`i` module living inside a concrete
//! level-`(i+1)` page), each with its submesh rectangle from the nested
//! tessellations. Copies of variables themselves are **not**
//! materialized — there are `q^k·n^α` of them; a copy's physical address
//! is computed on demand from the BIBD closed forms: one copy with
//! [`Hmos::resolve`], all `q^k` copies of a variable with
//! [`Hmos::resolve_all`].

use std::ops::Deref;

use crate::params::{HmosError, HmosParams, MAX_LEVELS};
use prasim_bibd::BibdSubgraph;
use prasim_mesh::region::{Rect, Tessellation};
use prasim_mesh::topology::{Coord, MeshShape};

/// A copy of variable `variable`: leaf of the copy tree `T_v`, identified
/// by the per-level branch choices.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CopyAddr {
    /// The variable (level-0 module id).
    pub variable: u64,
    /// `choices[j] ∈ [0, q)`: which of the `q` level-`(j+1)` pages of the
    /// level-`j` module on the path is taken.
    pub choices: Vec<u8>,
}

impl CopyAddr {
    /// Encodes the choices as a leaf index in `[0, q^k)` (base-`q`
    /// digits, `choices[0]` least significant).
    pub fn leaf_index(&self, q: u64) -> u64 {
        self.choices
            .iter()
            .rev()
            .fold(0u64, |acc, &c| acc * q + c as u64)
    }

    /// Inverse of [`Self::leaf_index`].
    pub fn from_leaf_index(variable: u64, q: u64, k: u32, mut leaf: u64) -> Self {
        let mut choices = Vec::with_capacity(k as usize);
        for _ in 0..k {
            choices.push((leaf % q) as u8);
            leaf /= q;
        }
        CopyAddr { variable, choices }
    }
}

/// Page-instance indices at levels `1..=k`, stored inline (`k ≤`
/// [`MAX_LEVELS`]); derefs to the `k`-long slice, whose entry `i-1`
/// indexes [`Hmos::pages`]`(i)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Instances {
    len: u8,
    ids: [u32; MAX_LEVELS as usize],
}

impl Deref for Instances {
    type Target = [u32];
    #[inline]
    fn deref(&self) -> &[u32] {
        &self.ids[..self.len as usize]
    }
}

/// A copy's physical cell and page path — what [`Hmos::resolve_all`]
/// writes for each leaf of `T_v`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CopyCell {
    /// The mesh node storing the copy.
    pub node: Coord,
    /// The memory slot within that node. Together with the node this
    /// uniquely identifies the copy cell: distinct copies of distinct
    /// variables never collide.
    pub slot: u64,
    /// The page instance holding the copy at each level `1..=k`.
    pub instances: Instances,
}

/// A fully resolved copy: module path, page instances and physical
/// address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedCopy {
    /// The copy address this resolution came from.
    pub addr: CopyAddr,
    /// Module ids along the path, `l_1 .. l_k`.
    pub modules: Vec<u64>,
    /// Page-instance indices at levels `1..=k` (`instances[i-1]` indexes
    /// [`Hmos::pages`]` (i)`).
    pub instances: Instances,
    /// The mesh node storing the copy.
    pub node: Coord,
    /// The memory slot within that node (see [`CopyCell::slot`]).
    pub slot: u64,
}

/// A physical page instance: one copy of a module, with its submesh.
#[derive(Debug, Clone)]
pub struct PageInstance {
    /// The module whose contents this page replicates.
    pub module: u64,
    /// The submesh storing this page.
    pub rect: Rect,
    /// For level ≥ 2: child page-instance index (one level down) per
    /// rank; empty at level 1.
    pub children: Vec<u32>,
}

/// The Hierarchical Memory Organization Scheme bound to a mesh.
#[derive(Debug, Clone)]
pub struct Hmos {
    params: HmosParams,
    shape: MeshShape,
    /// `graphs[j]` distributes level-`j` modules into level-`(j+1)`
    /// modules (`j = 0` distributes the variables).
    graphs: Vec<BibdSubgraph>,
    /// `levels[i-1]`: the level-`i` page instances. At level `k` there is
    /// exactly one instance per module, with instance index == module id.
    levels: Vec<Vec<PageInstance>>,
}

impl Hmos {
    /// Builds the full scheme: BIBD subgraphs per level and the nested
    /// tessellations of the page tree.
    pub fn new(params: HmosParams) -> Result<Self, HmosError> {
        if !(1..=MAX_LEVELS).contains(&params.k) {
            return Err(HmosError::BadK(params.k));
        }
        let shape = MeshShape::square_of(params.n).ok_or(HmosError::NotSquare(params.n))?;
        let k = params.k as usize;
        let mut graphs = Vec::with_capacity(k);
        for j in 0..k {
            let sg = BibdSubgraph::new(params.q, params.d[j], params.modules_at(j as u32))
                .map_err(|_| HmosError::MemoryTooLarge(params.num_variables))?;
            graphs.push(sg);
        }

        // Top tessellation: one submesh per level-k module.
        let mk = params.m[k - 1];
        let top = Tessellation::new(Rect::full(shape), mk).ok_or(HmosError::LevelTooCrowded {
            level: params.k,
            pages: mk,
            nodes: params.n,
        })?;
        let mut levels: Vec<Vec<PageInstance>> = vec![Vec::new(); k];
        levels[k - 1] = top
            .parts
            .iter()
            .enumerate()
            .map(|(module, &rect)| PageInstance {
                module: module as u64,
                rect,
                children: Vec::new(),
            })
            .collect();

        // Descend: split each level-(i+1) page into the pages of its
        // module's assigned level-i modules.
        for child_level in (1..k).rev() {
            // parent level = child_level + 1 (1-based); its graph is
            // graphs[child_level] (U_{child_level} -> U_{child_level+1}).
            let graph = &graphs[child_level];
            let mut children_acc: Vec<Vec<PageInstance>> = Vec::new();
            for parent in levels[child_level].iter() {
                let inputs = graph.inputs_of_output(parent.module);
                // When the parent submesh has fewer nodes than pages to
                // host (integer-granularity edge of the `t_i ≥ 1`
                // constraint), pages share nodes round-robin — storage
                // stays collision-free because slots are namespaced per
                // page instance.
                let pieces = (inputs.len() as u64).min(parent.rect.area());
                let parts = parent
                    .rect
                    .split(pieces)
                    .expect("1 ≤ pieces ≤ area split cannot fail");
                children_acc.push(
                    inputs
                        .into_iter()
                        .enumerate()
                        .map(|(r, module)| PageInstance {
                            module,
                            rect: parts[r % parts.len()],
                            children: Vec::new(),
                        })
                        .collect(),
                );
            }
            // Flatten, wiring parent.children.
            let mut flat = Vec::new();
            for (parent, kids) in levels[child_level].iter_mut().zip(children_acc) {
                parent.children = (flat.len() as u32..(flat.len() + kids.len()) as u32).collect();
                flat.extend(kids);
            }
            levels[child_level - 1] = flat;
        }

        Ok(Hmos {
            params,
            shape,
            graphs,
            levels,
        })
    }

    /// The derived parameters.
    #[inline]
    pub fn params(&self) -> &HmosParams {
        &self.params
    }

    /// The mesh shape.
    #[inline]
    pub fn shape(&self) -> MeshShape {
        self.shape
    }

    /// The replication graph from level `j` to level `j+1`
    /// (`j = 0` places the variables).
    pub fn graph(&self, j: u32) -> &BibdSubgraph {
        &self.graphs[j as usize]
    }

    /// The page instances at level `i ∈ [1, k]`.
    pub fn pages(&self, i: u32) -> &[PageInstance] {
        &self.levels[i as usize - 1]
    }

    /// Number of variables.
    #[inline]
    pub fn num_variables(&self) -> u64 {
        self.params.num_variables
    }

    /// Resolves a copy address to its module path, page instances, and
    /// physical `(node, slot)` cell. O(k·q·d) — the constant-storage
    /// memory map of the paper. To resolve every copy of a variable, use
    /// [`Hmos::resolve_all`], which shares the tree's prefixes.
    pub fn resolve(&self, addr: &CopyAddr) -> ResolvedCopy {
        let k = self.params.k as usize;
        debug_assert_eq!(addr.choices.len(), k);
        debug_assert!(addr.variable < self.num_variables());
        // Module path bottom-up, with each module's rank among the
        // inputs of its parent (`ranks[0]`: the variable's).
        let mut line = vec![0; self.params.q as usize];
        let mut modules = Vec::with_capacity(k);
        let mut ranks = [0u64; MAX_LEVELS as usize];
        let mut cur = addr.variable;
        for (j, &choice) in addr.choices.iter().enumerate() {
            ranks[j] = self.graphs[j].rank_of_input(cur);
            self.graphs[j].neighbors_into(cur, &mut line);
            cur = line[choice as usize];
            modules.push(cur);
        }
        let cell = self.cell(cur, &ranks[..k]);
        ResolvedCopy {
            addr: addr.clone(),
            modules,
            instances: cell.instances,
            node: cell.node,
            slot: cell.slot,
        }
    }

    /// Appends the cells of all `q^k` copies of `variable` to `out`, in
    /// leaf order: the cell of leaf `j` (see [`CopyAddr::leaf_index`])
    /// lands at `out[len + j]`, where `len` is `out.len()` on entry.
    /// Equal, leaf for leaf, to [`Hmos::resolve`] on
    /// [`Hmos::copies_of`], but it walks `T_v` top-down once: one BIBD
    /// line decode per inner node and one point per edge (`q + q²` for
    /// `k = 2`, not `k·q^k`), and the variable's rank is computed once.
    /// Allocates nothing once `out` has the capacity.
    pub fn resolve_all(&self, variable: u64, out: &mut Vec<CopyCell>) {
        debug_assert!(variable < self.num_variables());
        let base = out.len();
        out.resize(
            base + self.params.redundancy() as usize,
            CopyCell::default(),
        );
        let mut ranks = [0u64; MAX_LEVELS as usize];
        self.walk(0, variable, 0, 1, &mut ranks, &mut out[base..]);
    }

    /// [`Hmos::resolve_all`]'s walk below `module`, the level-`level`
    /// module of the path (`level = 0`: the variable). `prefix` encodes
    /// the choices above it, and its children's leaves step by `stride`
    /// (`q^level`). `ranks[j]` holds the rank of the path's level-`j`
    /// module among its parent's inputs.
    fn walk(
        &self,
        level: usize,
        module: u64,
        prefix: usize,
        stride: usize,
        ranks: &mut [u64; MAX_LEVELS as usize],
        out: &mut [CopyCell],
    ) {
        let k = self.params.k as usize;
        let graph = &self.graphs[level];
        let line = graph.design().decode_input(module);
        ranks[level] = graph.rank_of_line(line);
        for x in 0..self.params.q {
            let child = graph.design().point(line, x);
            let leaf = prefix + x as usize * stride;
            if level + 1 == k {
                out[leaf] = self.cell(child, &ranks[..k]);
            } else {
                let next = stride * self.params.q as usize;
                self.walk(level + 1, child, leaf, next, ranks, out);
            }
        }
    }

    /// The cell of the copy whose level-`k` module is `top` and whose
    /// path's level-`j` module has rank `ranks[j]` among its parent's
    /// inputs.
    fn cell(&self, top: u64, ranks: &[u64]) -> CopyCell {
        let k = ranks.len();
        let mut instances = Instances {
            len: k as u8,
            ids: [0; MAX_LEVELS as usize],
        };
        // Page instances top-down.
        let mut inst = top as u32; // level-k instance == module
        instances.ids[k - 1] = inst;
        for lvl in (1..k).rev() {
            // child l_lvl sits at rank `ranks[lvl]` inside its parent
            // page (graphs[lvl]: U_lvl -> U_{lvl+1}).
            inst = self.levels[lvl][inst as usize].children[ranks[lvl] as usize];
            instances.ids[lvl - 1] = inst;
        }
        // Physical cell inside the level-1 page. The slot is namespaced
        // by the page instance so that pages sharing nodes (crowded
        // tessellations) can never collide in storage.
        let rect = self.levels[0][inst as usize].rect;
        let t = rect.area();
        CopyCell {
            node: rect.coord_at((ranks[0] % t) as u32),
            slot: ((inst as u64) << 24) | (ranks[0] / t),
            instances,
        }
    }

    /// All `q^k` copy addresses of a variable.
    pub fn copies_of(&self, variable: u64) -> impl Iterator<Item = CopyAddr> + '_ {
        let q = self.params.q;
        let k = self.params.k;
        (0..q.pow(k)).map(move |leaf| CopyAddr::from_leaf_index(variable, q, k, leaf))
    }

    /// Largest number of copies stored by any single processor — the
    /// realized constant in the paper's "each processor stores
    /// `Θ(q^k·n^{α-1})` copies" claim, and the storage term of the
    /// Eq. (6) bound on `δ_0`.
    pub fn max_copies_per_node(&self) -> u64 {
        let mut per = vec![0u64; self.shape.nodes() as usize];
        for p in &self.levels[0] {
            let deg = self.graphs[0].output_degree(p.module);
            let t = p.rect.area();
            let (base, extra) = (deg / t, deg % t);
            for (li, c) in p.rect.coords().enumerate() {
                per[self.shape.index(c) as usize] += base + u64::from((li as u64) < extra);
            }
        }
        per.into_iter().max().unwrap_or(0)
    }

    /// Submesh sizes `t_i` realized at level `i ∈ [1, k]`: `(min, max)`
    /// node counts over the level's page instances (Eq. 4 check).
    pub fn level_extents(&self, i: u32) -> (u64, u64) {
        let mut lo = u64::MAX;
        let mut hi = 0;
        for p in self.pages(i) {
            lo = lo.min(p.rect.area());
            hi = hi.max(p.rect.area());
        }
        (lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_hmos(k: u32) -> Hmos {
        // q=3, n=1024, d=4: 1080 variables, m = [81, 27(for k=2)] ...
        let p = HmosParams::with_d(3, k, 1024, 4).unwrap();
        Hmos::new(p).unwrap()
    }

    #[test]
    fn builds_and_counts_pages() {
        let h = small_hmos(2);
        // d = [4, 3]: m = [81, 27]. Level-2: 27 instances; level-1:
        // 81 modules × q^{k-1}=3 pages = 243 instances.
        assert_eq!(h.pages(2).len(), 27);
        assert_eq!(h.pages(1).len(), 243);
        assert_eq!(h.params().pages_at(1), 243);
    }

    #[test]
    fn page_rects_partition_by_level() {
        let h = small_hmos(2);
        for lvl in 1..=2u32 {
            let total: u64 = h.pages(lvl).iter().map(|p| p.rect.area()).sum();
            assert_eq!(total, 1024, "level {lvl} pages must tile the mesh");
            // Disjointness via coverage counting.
            let mut seen = vec![false; 1024];
            for p in h.pages(lvl) {
                for c in p.rect.coords() {
                    let idx = h.shape().index(c) as usize;
                    assert!(!seen[idx], "level {lvl} overlap at {c:?}");
                    seen[idx] = true;
                }
            }
        }
    }

    #[test]
    fn level1_nested_in_level2() {
        let h = small_hmos(2);
        for (pi, parent) in h.pages(2).iter().enumerate() {
            for &ci in &parent.children {
                let child = &h.pages(1)[ci as usize];
                assert!(
                    parent.rect.contains_rect(&child.rect),
                    "child {ci} of level-2 page {pi} escapes parent"
                );
                // The child's module must be an input of the parent's.
                assert!(h.graph(1).neighbors(child.module).contains(&parent.module));
            }
        }
    }

    #[test]
    fn resolve_roundtrips_all_copies_of_sampled_variables() {
        let h = small_hmos(2);
        for v in (0..h.num_variables()).step_by(97) {
            let mut cells = std::collections::HashSet::new();
            let copies: Vec<_> = h.copies_of(v).collect();
            assert_eq!(copies.len(), 9);
            for addr in copies {
                let rc = h.resolve(&addr);
                assert_eq!(rc.modules.len(), 2);
                // Path consistency: l_1 neighbors v, l_2 neighbors l_1.
                assert!(h.graph(0).neighbors(v).contains(&rc.modules[0]));
                assert!(h.graph(1).neighbors(rc.modules[0]).contains(&rc.modules[1]));
                // The node lies in the level-1 page's rect, which lies in
                // the level-2 page's rect.
                let p1 = &h.pages(1)[rc.instances[0] as usize];
                let p2 = &h.pages(2)[rc.instances[1] as usize];
                assert_eq!(p1.module, rc.modules[0]);
                assert_eq!(p2.module, rc.modules[1]);
                assert!(p1.rect.contains(rc.node));
                assert!(p2.rect.contains_rect(&p1.rect));
                // Distinct copies of v land on distinct cells.
                assert!(cells.insert((rc.node, rc.slot)), "copy cell collision");
            }
        }
    }

    #[test]
    fn distinct_variables_never_collide_in_cells() {
        let h = small_hmos(2);
        let mut cells = std::collections::HashSet::new();
        for v in (0..h.num_variables()).step_by(13) {
            for addr in h.copies_of(v) {
                let rc = h.resolve(&addr);
                assert!(
                    cells.insert((rc.node, rc.slot)),
                    "cell collision for variable {v}"
                );
            }
        }
    }

    #[test]
    fn leaf_index_roundtrip() {
        for leaf in 0..27u64 {
            let addr = CopyAddr::from_leaf_index(5, 3, 3, leaf);
            assert_eq!(addr.leaf_index(3), leaf);
        }
    }

    #[test]
    fn k1_scheme_works() {
        let h = small_hmos(1);
        assert_eq!(h.pages(1).len(), 81);
        let addr = CopyAddr {
            variable: 7,
            choices: vec![1],
        };
        let rc = h.resolve(&addr);
        assert_eq!(rc.modules.len(), 1);
        assert!(h.pages(1)[rc.instances[0] as usize].rect.contains(rc.node));
    }

    #[test]
    fn level_extents_match_eq4_theta() {
        let h = small_hmos(2);
        // t_2 = n/m_2 = 1024/27 ≈ 37.9; t_1 ≈ t_2/p_2.
        let (lo2, hi2) = h.level_extents(2);
        assert!(lo2 >= 30 && hi2 <= 45, "t_2 in [{lo2},{hi2}]");
        let (lo1, hi1) = h.level_extents(1);
        assert!(lo1 >= 1 && hi1 <= 8, "t_1 in [{lo1},{hi1}]");
    }

    #[test]
    fn copy_slots_are_dense_per_page() {
        // Every cell (node, slot) used by some copy of the page's module
        // contents is hit exactly once across all inputs of the module.
        let h = small_hmos(2);
        let page = &h.pages(1)[0];
        let module = page.module;
        let inputs = h.graph(0).inputs_of_output(module);
        let t = page.rect.area();
        let mut seen = std::collections::HashSet::new();
        for v in inputs {
            let r = h.graph(0).rank_of_input(v);
            let node = page.rect.coord_at((r % t) as u32);
            let slot = r / t;
            assert!(seen.insert((node, slot)));
        }
    }
}
