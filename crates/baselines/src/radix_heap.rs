//! Monotone radix heap over `u64` keys, and the Dijkstra built on it.
//!
//! A radix heap is the classic monotone priority queue: it exploits the
//! fact that Dijkstra never inserts a key smaller than the last extracted
//! minimum. Entries live in 65 buckets indexed by the position of the
//! highest bit in which the key differs from the last extracted minimum
//! (`last`); extraction scans at most 65 buckets and redistributes one
//! bucket's entries into strictly lower buckets, so every entry moves at
//! most 64 times over its lifetime — `O(m + n·64)` total for Dijkstra
//! against the binary heap's `O(m log n)`.
//!
//! Distances in this workspace are non-negative `f32` ([`Weight`]); IEEE-754
//! orders non-negative floats identically to their bit patterns, so
//! [`weight_to_key`] embeds them order-preservingly into the `u64` key
//! space. Unreachable is the shared sentinel [`INF_KEY`]`= u64::MAX / 4`
//! (matching the exemplar convention): far above every finite distance key
//! (finite `f32` bits fit in 32 bits) with headroom so that key arithmetic
//! can never wrap past it — `tests/cross_impl.rs` pins this contract for
//! every baseline.

use g500_graph::{Csr, ShortestPaths, VertexId, Weight, INF_WEIGHT};

/// Shared "unreachable" sentinel in the `u64` distance-key domain.
///
/// `u64::MAX / 4` leaves two bits of headroom: `INF_KEY + INF_KEY` still
/// fits in a `u64`, so even a (buggy) relaxation through an unreached
/// vertex saturates instead of wrapping below a finite key and silently
/// "reaching" the vertex. All baselines share one sentinel so mixed-oracle
/// comparisons can never pass on overflow.
pub const INF_KEY: u64 = u64::MAX / 4;

/// Embed a non-negative weight into the monotone `u64` key domain.
///
/// Finite distances map to their IEEE-754 bit pattern (order-preserving
/// for non-negative floats); `INF_WEIGHT` maps to [`INF_KEY`].
#[inline]
pub fn weight_to_key(w: Weight) -> u64 {
    debug_assert!(w >= 0.0, "negative weights are not orderable via bits");
    if w.is_finite() {
        w.to_bits() as u64
    } else {
        INF_KEY
    }
}

/// Inverse of [`weight_to_key`]: keys at or above [`INF_KEY`] read back as
/// `INF_WEIGHT`.
#[inline]
pub fn key_to_weight(k: u64) -> Weight {
    if k >= INF_KEY {
        INF_WEIGHT
    } else {
        f32::from_bits(k as u32)
    }
}

/// A monotone radix heap: `pop_min` keys never decrease, and every `push`
/// key must be `>= ` the last popped key (the monotonicity precondition —
/// violated pushes panic in debug builds and corrupt the order in release,
/// exactly like pushing a NaN into a `BinaryHeap`).
#[derive(Clone, Debug)]
pub struct RadixHeap<T> {
    /// `buckets[0]` holds keys equal to `last`; `buckets[i]` (1 ≤ i ≤ 64)
    /// holds keys whose highest bit differing from `last` is bit `i - 1`.
    buckets: Vec<Vec<(u64, T)>>,
    /// The last extracted minimum (initially the floor passed to `new`).
    last: u64,
    len: usize,
}

impl<T> RadixHeap<T> {
    /// Empty heap with monotone floor `0`.
    pub fn new() -> Self {
        Self::with_floor(0)
    }

    /// Empty heap whose first pushes must be `>= floor`.
    pub fn with_floor(floor: u64) -> Self {
        Self {
            buckets: (0..65).map(|_| Vec::new()).collect(),
            last: floor,
            len: 0,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The last extracted minimum (the current monotone floor).
    #[inline]
    pub fn last(&self) -> u64 {
        self.last
    }

    /// Bucket index of `key` relative to `last`: `0` for equality, else
    /// one past the highest differing bit position.
    #[inline]
    fn bucket_of(&self, key: u64) -> usize {
        debug_assert!(key >= self.last, "monotonicity violated: {key} < last");
        (64 - (key ^ self.last).leading_zeros()) as usize
    }

    /// Insert `value` with `key`; `key` must be `>= self.last()`.
    pub fn push(&mut self, key: u64, value: T) {
        let b = self.bucket_of(key);
        self.buckets[b].push((key, value));
        self.len += 1;
    }

    /// Remove and return an entry with the minimum key.
    ///
    /// Ties are served LIFO within the minimum bucket; Dijkstra's
    /// correctness (and bitwise distance agreement) does not depend on the
    /// tie order, only on keys being extracted in non-decreasing order.
    pub fn pop_min(&mut self) -> Option<(u64, T)> {
        if self.len == 0 {
            return None;
        }
        if self.buckets[0].is_empty() {
            // Find the lowest non-empty bucket, advance `last` to its
            // minimum key, and redistribute: every entry lands in a
            // strictly lower bucket (they agree with the new `last` on all
            // bits above the old bucket's index), the minimum itself in
            // bucket 0.
            let i = self
                .buckets
                .iter()
                .position(|b| !b.is_empty())
                .expect("len > 0 but all buckets empty");
            let drained = std::mem::take(&mut self.buckets[i]);
            self.last = drained.iter().map(|&(k, _)| k).min().expect("non-empty");
            for (k, v) in drained {
                let b = self.bucket_of(k);
                debug_assert!(b < i, "redistribution must strictly descend");
                self.buckets[b].push((k, v));
            }
        }
        self.len -= 1;
        self.buckets[0].pop()
    }
}

impl<T> Default for RadixHeap<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Exact single-source shortest paths on a monotone radix heap with lazy
/// deletion — same algorithm and same lazy-insertion discipline as
/// [`crate::dijkstra()`], different priority queue. Distances are bitwise
/// identical to the binary-heap oracle: both settle every vertex at the
/// minimum over the same relaxation candidates, and value-equal
/// non-negative floats are bit-equal.
pub fn dijkstra_radix_heap(graph: &Csr, root: VertexId) -> ShortestPaths {
    let n = graph.num_vertices();
    let mut sp = ShortestPaths::with_root(n, root);
    let mut heap: RadixHeap<u32> = RadixHeap::new();
    heap.push(0, root as u32);
    let mut settled = vec![false; n];

    while let Some((key, u)) = heap.pop_min() {
        let u_idx = u as usize;
        if settled[u_idx] {
            continue; // lazy deletion: stale heap entry
        }
        settled[u_idx] = true;
        let d = key_to_weight(key);
        debug_assert_eq!(
            key,
            weight_to_key(sp.dist[u_idx]),
            "radix pop fresher than dist array"
        );
        let vs = graph.neighbors(u_idx);
        let ws = graph.edge_weights(u_idx);
        for (&v, &w) in vs.iter().zip(ws) {
            let v_idx = v as usize;
            let nd = d + w;
            if nd < sp.dist[v_idx] {
                sp.dist[v_idx] = nd;
                sp.parent[v_idx] = u as u64;
                // nd >= d = key floor: the monotone push precondition holds
                heap.push(weight_to_key(nd), v as u32);
            }
        }
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

    #[test]
    fn key_embedding_is_monotone_and_invertible() {
        let ws = [0.0f32, 1e-30, 0.001, 0.5, 0.999, 1.0, 7.25, 1e30];
        for pair in ws.windows(2) {
            assert!(weight_to_key(pair[0]) < weight_to_key(pair[1]));
        }
        for &w in &ws {
            assert_eq!(key_to_weight(weight_to_key(w)).to_bits(), w.to_bits());
        }
        assert_eq!(weight_to_key(INF_WEIGHT), INF_KEY);
        assert_eq!(key_to_weight(INF_KEY), INF_WEIGHT);
        // headroom: the sentinel cannot be reached by adding finite keys
        assert!(weight_to_key(f32::MAX) < INF_KEY);
        assert!(INF_KEY.checked_add(INF_KEY).is_some());
    }

    #[test]
    fn heap_pops_sorted_under_monotone_pushes() {
        let mut h = RadixHeap::new();
        for k in [5u64, 1, 9, 1, 7, 0, 1 << 40, 3] {
            h.push(k, k);
        }
        let mut out = Vec::new();
        while let Some((k, v)) = h.pop_min() {
            assert_eq!(k, v);
            out.push(k);
        }
        assert_eq!(out, vec![0, 1, 1, 3, 5, 7, 9, 1 << 40]);
        assert!(h.is_empty());
    }

    #[test]
    fn interleaved_pushes_respect_floor() {
        let mut h = RadixHeap::new();
        h.push(2, 0);
        h.push(10, 1);
        assert_eq!(h.pop_min().map(|(k, _)| k), Some(2));
        // after popping 2 the floor is 2: pushing 3 is legal and it must
        // come out before 10
        h.push(3, 2);
        assert_eq!(h.pop_min().map(|(k, _)| k), Some(3));
        assert_eq!(h.pop_min().map(|(k, _)| k), Some(10));
        assert_eq!(h.pop_min().map(|(k, _)| k), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "monotonicity violated")]
    fn non_monotone_push_panics_in_debug() {
        let mut h = RadixHeap::new();
        h.push(10, 0);
        assert_eq!(h.pop_min().map(|(k, _)| k), Some(10));
        h.push(9, 1);
    }

    #[test]
    fn matches_binary_heap_dijkstra_bitwise() {
        for seed in 0..6 {
            let el = g500_gen::simple::erdos_renyi(90, 500, seed);
            let g = Csr::from_edges(90, &el, Directedness::Undirected);
            let a = dijkstra(&g, 3);
            let b = dijkstra_radix_heap(&g, 3);
            for v in 0..90 {
                assert_eq!(
                    a.dist[v].to_bits(),
                    b.dist[v].to_bits(),
                    "seed {seed} vertex {v}"
                );
            }
        }
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let g = csr(&[(0, 1, 1.0)], 4);
        let sp = dijkstra_radix_heap(&g, 0);
        assert_eq!(sp.dist[2], INF_WEIGHT);
        assert_eq!(sp.reached_count(), 2);
    }

    #[test]
    fn zero_weight_edges() {
        let g = csr(&[(0, 1, 0.0), (1, 2, 0.0)], 3);
        let sp = dijkstra_radix_heap(&g, 0);
        assert_eq!(sp.dist, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn parent_tree_edges_are_tight() {
        let el = g500_gen::simple::erdos_renyi(60, 300, 17);
        let g = Csr::from_edges(60, &el, Directedness::Undirected);
        let sp = dijkstra_radix_heap(&g, 0);
        for v in 1..60 {
            if sp.dist[v].is_finite() {
                let p = sp.parent[v] as usize;
                let tight = g
                    .arcs(p)
                    .any(|(t, w)| t == v as u64 && sp.dist[p] + w == sp.dist[v]);
                assert!(tight, "no tight tree edge {p}->{v}");
            }
        }
    }
}
