//! BMSSP — bounded multi-source shortest paths (Duan, Mao, Mao, Shu, Yin;
//! arXiv:2504.17033), the first deterministic `o(m log n)` comparison-
//! addition SSSP algorithm.
//!
//! Structure of the implementation, mirroring the paper:
//!
//! 1. **Constant-degree transform** (`transform`): each vertex becomes a
//!    zero-weight directed cycle with one slot per incident arc, so every
//!    slot has in/out degree O(1). Applied adaptively — graphs whose max
//!    degree is already ≤ [`DEGREE_CAP`] run untransformed.
//! 2. **Recursion** `BMSSP(l, B, S)` (`Solver::run`): solves shortest
//!    paths from the source set `S` restricted to distances `< B`, either
//!    completely (returns `B' = B`) or up to a budget of `k·2^{lt}`
//!    settled vertices (returns a smaller frontier bound `B'`); the
//!    returned set `U` is complete below `B'`.
//! 3. **FindPivots** (`Solver::find_pivots`): `k` rounds of bounded
//!    Bellman-Ford from `S`, then a BFS forest over tight edges; only
//!    roots of trees with ≥ `k` vertices survive as pivots, shrinking the
//!    recursive source sets.
//! 4. **Partial-order pull structure** ([`crate::pull::PullStructure`]):
//!    feeds each recursive call a batch of smallest-key sources plus a
//!    strict separating bound.
//! 5. **Base case** (`l = 0`, `Solver::base_case`): truncated Dijkstra
//!    on the monotone [`RadixHeap`], settling at most `k + |S|` vertices.
//!
//! Documented deviations from the paper's pseudocode (all correctness-
//! preserving, see DESIGN.md "Baseline algorithms"):
//! * `pull` extends batches over whole key tie-groups so its separating
//!   bound is strict; the base case therefore accepts multi-vertex `S`
//!   (the paper's is singleton).
//! * Relaxation uses `≤` when deciding to (re-)insert a vertex into the
//!   pull structure — load-bearing: a vertex whose distance was written
//!   by a truncated base case but not settled there is re-discovered at
//!   the parent level through the tight (equal) relaxation — but strict
//!   `<` for distance/parent commits, so zero-weight cycles can never
//!   produce a parent loop.
//!
//! Distances are bitwise identical to binary-heap Dijkstra: every
//! distance is the min over the same `f32` relaxation candidates
//! (zero-weight transform arcs add `+0.0`, a bitwise no-op on
//! non-negative values), and value-equal non-negative floats are
//! bit-equal.

use crate::pull::PullStructure;
use crate::radix_heap::{weight_to_key, RadixHeap};
use g500_graph::{Csr, ShortestPaths, VertexId, Weight, INF_WEIGHT, NO_PARENT};
use std::collections::{HashSet, VecDeque};

/// Degree threshold above which the constant-degree transform kicks in.
pub const DEGREE_CAP: usize = 16;

/// The transformed constant-degree graph: per-incident-arc slots joined by
/// zero-weight cycles, in flat CSR form, plus the slot ↔ original-vertex
/// maps needed to read answers back out.
struct Transformed {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    weights: Vec<Weight>,
    /// Original vertex owning each slot.
    orig_of: Vec<u32>,
    /// First slot of each original vertex.
    slot_base: Vec<u32>,
}

impl Transformed {
    fn num_slots(&self) -> usize {
        self.orig_of.len()
    }

    #[inline]
    fn arcs_of(&self, u: usize) -> (&[u32], &[Weight]) {
        let (lo, hi) = (self.offsets[u], self.offsets[u + 1]);
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }
}

/// Identity "transform" for graphs already within the degree cap: slots
/// are the vertices themselves.
fn identity(graph: &Csr) -> Transformed {
    let n = graph.num_vertices();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets = Vec::with_capacity(graph.num_arcs());
    let mut weights = Vec::with_capacity(graph.num_arcs());
    offsets.push(0);
    for u in 0..n {
        targets.extend(graph.neighbors(u).iter().map(|&v| v as u32));
        weights.extend_from_slice(graph.edge_weights(u));
        offsets.push(targets.len());
    }
    Transformed {
        offsets,
        targets,
        weights,
        orig_of: (0..n as u32).collect(),
        slot_base: (0..n as u32).collect(),
    }
}

/// The constant-degree transform: vertex `u` with `d` incident arcs
/// becomes `max(1, d)` slots on a zero-weight directed cycle; each in-arc
/// enters its own slot and each out-arc leaves from its own slot, so every
/// slot touches ≤ 1 real arc + 2 cycle arcs. Distances at every slot of
/// `u` equal the original distance of `u`.
fn transform(graph: &Csr) -> Transformed {
    let n = graph.num_vertices();
    let mut in_deg = vec![0usize; n];
    for u in 0..n {
        for &v in graph.neighbors(u) {
            in_deg[v as usize] += 1;
        }
    }
    let mut slot_base = Vec::with_capacity(n);
    let mut orig_of = Vec::new();
    for (u, &din) in in_deg.iter().enumerate() {
        slot_base.push(orig_of.len() as u32);
        let slots = (din + graph.degree(u)).max(1);
        orig_of.extend(std::iter::repeat_n(u as u32, slots));
    }
    let n_slots = orig_of.len();

    // Out-arc j of u leaves from slot `base + in_deg[u] + j`; the i-th arc
    // to arrive at v enters slot `base(v) + i` (tracked by `in_seen`).
    let mut adj: Vec<Vec<(u32, Weight)>> = vec![Vec::new(); n_slots];
    let mut in_seen = vec![0u32; n];
    for u in 0..n {
        let vs = graph.neighbors(u);
        let ws = graph.edge_weights(u);
        for (j, (&v, &w)) in vs.iter().zip(ws).enumerate() {
            let from = slot_base[u] as usize + in_deg[u] + j;
            let to = slot_base[v as usize] + in_seen[v as usize];
            in_seen[v as usize] += 1;
            adj[from].push((to, w));
        }
    }
    for u in 0..n {
        let base = slot_base[u] as usize;
        let slots = (in_deg[u] + graph.degree(u)).max(1);
        if slots > 1 {
            for i in 0..slots {
                let next = base as u32 + ((i + 1) % slots) as u32;
                adj[base + i].push((next, 0.0));
            }
        }
    }

    let mut offsets = Vec::with_capacity(n_slots + 1);
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    offsets.push(0);
    for slot in adj {
        for (v, w) in slot {
            targets.push(v);
            weights.push(w);
        }
        offsets.push(targets.len());
    }
    Transformed {
        offsets,
        targets,
        weights,
        orig_of,
        slot_base,
    }
}

/// Recursion state over one transformed graph.
struct Solver {
    g: Transformed,
    /// Tentative distance per slot.
    dhat: Vec<Weight>,
    /// Best distance per *original* vertex ever committed through a real
    /// (inter-vertex) arc; pairs with `parent_orig`.
    best_orig: Vec<Weight>,
    parent_orig: Vec<u64>,
    /// Paper parameter `k = ⌊log^{1/3} n⌋`.
    k: usize,
    /// Paper parameter `t = ⌊log^{2/3} n⌋`.
    t: usize,
    /// Slot is *complete*: its distance is final and its out-arcs have
    /// been relaxed with that final value (set at base-case settle time).
    /// Complete slots are never re-inserted into any pull structure or
    /// heap — without this, tight (equal-key) relaxations through the
    /// transform's zero-weight cycles reschedule complete slots over and
    /// over, and the rework compounds per level into quadratic blowup.
    settled: Vec<bool>,
    /// Epoch-stamped scratch for [`Self::find_pivots`] (one slot each):
    /// membership marks replace per-call hash sets. `find_pivots` never
    /// recurses, so one shared scratch is safe; epochs make clears O(1).
    fp_w_mark: Vec<u32>,
    fp_next_mark: Vec<u32>,
    fp_root_mark: Vec<u32>,
    fp_epoch: u32,
    fp_round_epoch: u32,
    fp_root_epoch: u32,
}

impl Solver {
    /// Relax arc `(u, v, w)`. Commits distance (and, across a real arc,
    /// parent) on strict improvement; returns the candidate key whenever
    /// `d̂[u] + w ≤ d̂[v]` so the caller can (re-)insert `v` — the paper's
    /// `≤` rule.
    #[inline]
    fn try_relax(&mut self, u: usize, v: usize, w: Weight) -> Option<u64> {
        let nd = self.dhat[u] + w;
        if nd > self.dhat[v] {
            return None;
        }
        if nd < self.dhat[v] {
            self.dhat[v] = nd;
            // A complete slot's distance is supposed to be final; if a
            // strict improvement lands anyway, make it schedulable again
            // rather than silently freezing a stale value.
            self.settled[v] = false;
        } else if self.settled[v] {
            // Tight relaxation into a complete slot: its value is final
            // and its out-arcs were already relaxed at settle time, so
            // there is nothing to reschedule.
            return None;
        }
        let (ou, ov) = (self.g.orig_of[u], self.g.orig_of[v]);
        if ou != ov && nd < self.best_orig[ov as usize] {
            self.best_orig[ov as usize] = nd;
            self.parent_orig[ov as usize] = ou as u64;
        }
        Some(weight_to_key(nd))
    }

    /// FindPivots (paper Algorithm 1): `k` rounds of Bellman-Ford from
    /// `S` bounded by `B`, collecting the relaxed set `W`; early-return
    /// `(S, W)` when `|W| > k·|S|`, else keep as pivots only the `S`-roots
    /// of tight-edge BFS trees spanning ≥ `k` vertices.
    fn find_pivots(&mut self, bkey: u64, s: &[u32]) -> (Vec<u32>, Vec<u32>) {
        self.fp_epoch += 1;
        let ep = self.fp_epoch;
        let mut w_all: Vec<u32> = s.to_vec();
        for &x in s {
            self.fp_w_mark[x as usize] = ep;
        }
        let mut w_prev: Vec<u32> = s.to_vec();
        for _ in 0..self.k {
            self.fp_round_epoch += 1;
            let rep = self.fp_round_epoch;
            let mut w_next: Vec<u32> = Vec::new();
            for &wu in &w_prev {
                let u = wu as usize;
                let (lo, hi) = (self.g.offsets[u], self.g.offsets[u + 1]);
                for a in lo..hi {
                    let (v, w) = (self.g.targets[a], self.g.weights[a]);
                    if let Some(key) = self.try_relax(u, v as usize, w) {
                        if key < bkey && self.fp_next_mark[v as usize] != rep {
                            self.fp_next_mark[v as usize] = rep;
                            w_next.push(v);
                        }
                    }
                }
            }
            for &v in &w_next {
                if self.fp_w_mark[v as usize] != ep {
                    self.fp_w_mark[v as usize] = ep;
                    w_all.push(v);
                }
            }
            if w_all.len() > self.k * s.len() {
                return (s.to_vec(), w_all);
            }
            w_prev = w_next;
        }

        // Tight-edge forest: every vertex gets in-degree ≤ 1 over arcs with
        // d̂[v] == d̂[u] + w inside W — *including* S vertices, which may be
        // claimed as children of an earlier root's tree. (Seeding every S
        // vertex as its own root would shatter a tight chain that lies
        // wholly inside S into singleton trees, no tree would reach size
        // `k`, and the chain's root would never be selected as a pivot —
        // breaking the pivot-coverage lemma.) Roots are processed in S
        // order with full BFS exhaustion per root; first assignment wins,
        // which keeps the forest acyclic through zero-weight tight cycles.
        self.fp_root_epoch += 1;
        let rep = self.fp_root_epoch;
        let mut tree_size: Vec<usize> = vec![0; s.len()];
        let mut queue: VecDeque<u32> = VecDeque::new();
        for (si, &start) in s.iter().enumerate() {
            if self.fp_root_mark[start as usize] == rep {
                continue; // already a child in an earlier root's tree
            }
            self.fp_root_mark[start as usize] = rep;
            tree_size[si] = 1;
            queue.push_back(start);
            while let Some(u) = queue.pop_front() {
                let (vs, ws) = self.g.arcs_of(u as usize);
                for (&v, &w) in vs.iter().zip(ws) {
                    if self.fp_w_mark[v as usize] == ep
                        && self.fp_root_mark[v as usize] != rep
                        && (self.dhat[u as usize] + w).to_bits() == self.dhat[v as usize].to_bits()
                    {
                        self.fp_root_mark[v as usize] = rep;
                        tree_size[si] += 1;
                        queue.push_back(v);
                    }
                }
            }
        }
        let pivots: Vec<u32> = s
            .iter()
            .enumerate()
            .filter(|&(si, _)| tree_size[si] >= self.k)
            .map(|(_, &x)| x)
            .collect();
        (pivots, w_all)
    }

    /// Base case (paper Algorithm 2, generalized to multi-source `S`):
    /// truncated Dijkstra on the monotone radix heap, settling at most
    /// `k + |S|` vertices below `B` — extended through the trailing key
    /// tie-group, so with `U` the settled set the returned bound `B'`
    /// satisfies `max settled key < B'`: either `B` itself (heap drained:
    /// complete) or the smallest fresh key left in the heap. The strict
    /// gap is what guarantees progress at the parent level even on
    /// zero-weight tie plateaus (the paper's singleton variant with
    /// `U = {u : d̂[u] < max d̂}` returns an empty `U` there, and the
    /// parent would re-prepend the same source forever).
    ///
    /// Discarding the peeked boundary entry is safe: every vertex with
    /// true distance `< B'` was settled before it, and its own key will
    /// be regenerated by the parent's `≤`-relaxation out of `U`.
    fn base_case(&mut self, bkey: u64, s: &[u32]) -> (u64, Vec<u32>) {
        let floor = s
            .iter()
            .map(|&x| weight_to_key(self.dhat[x as usize]))
            .min()
            .unwrap_or(0);
        let mut heap: RadixHeap<u32> = RadixHeap::with_floor(floor);
        for &x in s {
            heap.push(weight_to_key(self.dhat[x as usize]), x);
        }
        let limit = self.k + s.len();
        let mut settled: Vec<u32> = Vec::new();
        let mut last_key = 0u64;
        let mut bound = bkey;
        while let Some((key, u)) = heap.pop_min() {
            if key > weight_to_key(self.dhat[u as usize]) || self.settled[u as usize] {
                continue; // stale, duplicate, or already complete elsewhere
            }
            if settled.len() >= limit && key > last_key {
                bound = key;
                break;
            }
            self.settled[u as usize] = true;
            settled.push(u);
            last_key = key;
            let (lo, hi) = (self.g.offsets[u as usize], self.g.offsets[u as usize + 1]);
            for a in lo..hi {
                let (v, w) = (self.g.targets[a], self.g.weights[a]);
                if let Some(k) = self.try_relax(u as usize, v as usize, w) {
                    if k < bkey {
                        heap.push(k, v);
                    }
                }
            }
        }
        (bound, settled)
    }

    /// BMSSP(l, B, S) (paper Algorithm 3). Returns `(B', U)`: `U` is the
    /// set of vertices settled with final distance `< B'`; `B' = B` iff
    /// the call ran to completion within its `k·2^{lt}` budget.
    fn run(&mut self, l: usize, bkey: u64, s: Vec<u32>) -> (u64, Vec<u32>) {
        if l == 0 {
            return self.base_case(bkey, &s);
        }
        let (pivots, w_all) = self.find_pivots(bkey, &s);
        let m = 1usize << ((l - 1) * self.t).min(40);
        let mut d = PullStructure::new(m, bkey);
        for &p in &pivots {
            if !self.settled[p as usize] {
                d.insert(p, weight_to_key(self.dhat[p as usize]));
            }
        }
        let budget = (self.k as u64).saturating_mul(1u64 << ((l * self.t).min(62)));
        let mut u_all: Vec<u32> = Vec::new();
        let mut u_set: HashSet<u32> = HashSet::new();
        let mut last_sep = bkey;
        while (u_all.len() as u64) < budget && !d.is_empty() {
            let (s_i, b_i) = d.pull();
            let (b_sep, u_i) = self.run(l - 1, b_i, s_i.clone());
            last_sep = b_sep;
            for &u in &u_i {
                if u_set.insert(u) {
                    u_all.push(u);
                }
            }
            // Relax out of the completed set; ≥ B_i keys re-enter D, keys
            // in [B', B_i) were produced below the pulled range and are
            // batch-prepended together with the unfinished sources.
            let mut prepend: Vec<(u32, u64)> = Vec::new();
            for &uu in &u_i {
                let u = uu as usize;
                let (lo, hi) = (self.g.offsets[u], self.g.offsets[u + 1]);
                for a in lo..hi {
                    let (v, w) = (self.g.targets[a], self.g.weights[a]);
                    if let Some(key) = self.try_relax(u, v as usize, w) {
                        if key >= b_i && key < bkey {
                            d.insert(v, key);
                        } else if key >= b_sep && key < b_i {
                            prepend.push((v, key));
                        }
                        // keys < b_sep belong to vertices the recursive
                        // call already completed: nothing to re-insert
                    }
                }
            }
            for &x in &s_i {
                let key = weight_to_key(self.dhat[x as usize]);
                if key >= b_sep && key < b_i && !self.settled[x as usize] {
                    prepend.push((x, key));
                }
            }
            d.batch_prepend(prepend);
        }
        let bprime = if d.is_empty() { bkey } else { last_sep };
        for &x in &w_all {
            if weight_to_key(self.dhat[x as usize]) < bprime && u_set.insert(x) {
                u_all.push(x);
            }
        }
        (bprime, u_all)
    }
}

/// Exact single-source shortest paths via the BMSSP recursion; same
/// `(dist, parent)` contract as [`crate::dijkstra()`], distances bitwise
/// equal to it.
pub fn bmssp(graph: &Csr, root: VertexId) -> ShortestPaths {
    let n = graph.num_vertices();
    let mut sp = ShortestPaths::with_root(n, root);
    if n == 0 {
        return sp;
    }
    let max_deg = (0..n).map(|u| graph.degree(u)).max().unwrap_or(0);
    let g = if max_deg <= DEGREE_CAP {
        identity(graph)
    } else {
        transform(graph)
    };
    let n_slots = g.num_slots();
    let lg = ((n_slots.max(2)) as f64).log2();
    let k = (lg.powf(1.0 / 3.0).floor() as usize).max(1);
    let t = (lg.powf(2.0 / 3.0).floor() as usize).max(1);
    let top_l = ((lg / t as f64).ceil() as usize).max(1);

    let root_slot = g.slot_base[root as usize];
    let mut solver = Solver {
        dhat: vec![INF_WEIGHT; n_slots],
        best_orig: vec![INF_WEIGHT; n],
        parent_orig: vec![NO_PARENT; n],
        g,
        k,
        t,
        settled: vec![false; n_slots],
        fp_w_mark: vec![0; n_slots],
        fp_next_mark: vec![0; n_slots],
        fp_root_mark: vec![0; n_slots],
        fp_epoch: 0,
        fp_round_epoch: 0,
        fp_root_epoch: 0,
    };
    solver.dhat[root_slot as usize] = 0.0;
    solver.best_orig[root as usize] = 0.0;
    let (_bound, _u) = solver.run(top_l, crate::radix_heap::INF_KEY, vec![root_slot]);

    for v in 0..n {
        if v as u64 == root {
            continue;
        }
        sp.dist[v] = solver.best_orig[v];
        sp.parent[v] = solver.parent_orig[v];
        debug_assert_eq!(
            solver.best_orig[v].to_bits(),
            solver.dhat[solver.g.slot_base[v] as usize].to_bits(),
            "slot-0 and per-vertex distances disagree at {v}"
        );
    }
    sp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra;
    use g500_graph::{Directedness, EdgeList, WEdge};

    fn csr(edges: &[(u64, u64, f32)], n: usize) -> Csr {
        let el = EdgeList::from_edges(edges.iter().map(|&(u, v, w)| WEdge::new(u, v, w)));
        Csr::from_edges(n, &el, Directedness::Undirected)
    }

    fn assert_bitwise_eq(g: &Csr, root: u64, ctx: &str) {
        let a = dijkstra(g, root);
        let b = bmssp(g, root);
        for v in 0..g.num_vertices() {
            assert_eq!(
                a.dist[v].to_bits(),
                b.dist[v].to_bits(),
                "{ctx}: vertex {v} dijkstra={} bmssp={}",
                a.dist[v],
                b.dist[v]
            );
        }
    }

    #[test]
    fn tiny_path_and_unreachable() {
        let g = csr(&[(0, 1, 1.5), (1, 2, 2.5)], 5);
        let sp = bmssp(&g, 0);
        assert_eq!(sp.dist[..3], [0.0, 1.5, 4.0]);
        assert_eq!(sp.dist[3], INF_WEIGHT);
        assert_eq!(sp.parent[2], 1);
        assert_eq!(sp.parent[3], NO_PARENT);
    }

    #[test]
    fn zero_weight_edges_no_parent_cycle() {
        let g = csr(&[(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.0), (2, 3, 1.0)], 4);
        let sp = bmssp(&g, 0);
        assert_eq!(sp.dist, vec![0.0, 0.0, 0.0, 1.0]);
        // walk parents from every vertex; must reach the root
        for mut v in 0..4usize {
            for _ in 0..=4 {
                if v == 0 {
                    break;
                }
                v = sp.parent[v] as usize;
            }
            assert_eq!(v, 0, "parent chain does not reach root");
        }
    }

    #[test]
    fn high_degree_star_takes_transform_path() {
        // star center has degree 40 > DEGREE_CAP: exercises the
        // constant-degree transform
        let mut edges = Vec::new();
        for leaf in 1..41u64 {
            edges.push((0, leaf, leaf as f32 * 0.25));
        }
        let g = csr(&edges, 41);
        assert_bitwise_eq(&g, 0, "star-40");
        let sp = bmssp(&g, 0);
        assert_eq!(sp.dist[40], 10.0);
        assert_eq!(sp.parent[40], 0);
    }

    #[test]
    fn random_graphs_match_dijkstra_bitwise() {
        for seed in 0..8 {
            let el = g500_gen::simple::erdos_renyi(120, 700, seed);
            let g = Csr::from_edges(120, &el, Directedness::Undirected);
            assert_bitwise_eq(&g, seed % 120, &format!("er seed {seed}"));
        }
    }

    #[test]
    fn sparse_long_paths_match() {
        let el = g500_gen::simple::path(400, 1.0);
        let g = Csr::from_edges(400, &el, Directedness::Undirected);
        assert_bitwise_eq(&g, 0, "path-400");
        let el = g500_gen::simple::grid2d(17, 13);
        let g = Csr::from_edges(17 * 13, &el, Directedness::Undirected);
        assert_bitwise_eq(&g, 5, "grid 17x13");
    }

    #[test]
    fn parent_edges_are_tight() {
        let el = g500_gen::simple::erdos_renyi(80, 400, 99);
        let g = Csr::from_edges(80, &el, Directedness::Undirected);
        let sp = bmssp(&g, 0);
        for v in 1..80 {
            if sp.dist[v].is_finite() {
                let p = sp.parent[v] as usize;
                let tight = g
                    .arcs(p)
                    .any(|(t, w)| t == v as u64 && sp.dist[p] + w == sp.dist[v]);
                assert!(tight, "no tight tree edge {p}->{v}");
            }
        }
    }

    #[test]
    fn single_vertex_graph() {
        let g = csr(&[], 1);
        let sp = bmssp(&g, 0);
        assert_eq!(sp.dist, vec![0.0]);
        assert_eq!(sp.parent, vec![0]);
    }
}
