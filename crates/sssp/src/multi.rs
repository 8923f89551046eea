//! Batched multi-source SSSP — the shared-superstep engine under the
//! query-serving layer (and the "64 roots" workload done right).
//!
//! The Graph500 harness runs 64 independent searches back-to-back. At
//! extreme scale, the *tail* of each search — many near-empty supersteps —
//! dominates, and the machine idles through 64 tails in sequence. Batching
//! runs `B` sources concurrently: each superstep carries the union of all
//! sources' traffic, so per-superstep fixed costs (latency, allreduce
//! fan-in) are amortized B ways.
//!
//! # Layout
//!
//! Per-lane state is a flat structure-of-arrays: `dist[lane * n_local + l]`
//! and likewise for parents, so a lane's slice is contiguous and the relax
//! inner loop is a single-zip sweep over one adjacency range — no
//! `Vec<Vec>` pointer chase. The bucket queue stores the *packed key*
//! `lane * n_local + l` directly as its `u32` element, which doubles as
//! the SoA index: pop, re-check, and scan all address the same flat array.
//!
//! # Determinism and width-invariance
//!
//! Lanes never read each other's state. A lane inside a width-`B` batch
//! sees exactly the per-wave state it would see in a width-1 batch: extra
//! bucket epochs contributed by other lanes scan an empty frontier for it,
//! dedup and the compressed wire format order records by the canonical
//! (lane, target, dist, parent) key, and the commit applies strict-`<`
//! improvements in received order. Batched distances *and parents* are
//! therefore bitwise identical to per-source runs, at any `G500_THREADS`
//! (the scan runs under the fixed-chunk contract, the commit is
//! sequential in scan order).
//!
//! # Point-to-point lanes
//!
//! A lane with a target retires as soon as the target is settled: once the
//! global bucket epoch `k` exceeds the target's tentative bucket, any
//! future improvement would need `nd ≥ kΔ >` tentative — impossible — so
//! the distance and parent are final. Target owners allgather live-target
//! tentatives each epoch and every rank applies the identical retirement
//! rule. A retired lane stops scanning and stops accepting updates,
//! shrinking live-batch width as the batch drains. Lanes may also carry an
//! upper `bound` (e.g. a landmark triangle-inequality bound from the
//! serving layer): relaxations that exceed it are pruned, which cannot
//! change any distance ≤ bound — in particular the target's.

use crate::bucket::BucketQueue;
use crate::codec::TaggedUpdate;
use crate::config::OptConfig;
use crate::epoch::{self, load_paths, save_paths, EpochKernel};
use crate::exchange::{exchange_into, ExchangeBufs};
use g500_graph::{VertexId, Weight, INF_WEIGHT, NO_PARENT};
use g500_partition::{DistShortestPaths, LocalGraph, VertexPartition};
use rayon::prelude::*;
use simnet::recovery::{codec, Checkpoint, FaultEscalation};
use simnet::{RankCtx, TraceCode};

/// One lane of a batch: a source, an optional point-to-point target, and
/// an optional upper bound on useful path lengths.
#[derive(Clone, Copy, Debug)]
pub struct BatchSpec {
    /// Global source vertex.
    pub source: VertexId,
    /// Optional target: the lane retires once this vertex settles.
    pub target: Option<VertexId>,
    /// Prune relaxations whose tentative distance exceeds this bound
    /// (`INF_WEIGHT` = unbounded). Must be ≥ the true source→target
    /// distance for the target's result to be exact.
    pub bound: Weight,
}

impl BatchSpec {
    /// A full single-source lane.
    pub fn full(source: VertexId) -> Self {
        BatchSpec {
            source,
            target: None,
            bound: INF_WEIGHT,
        }
    }

    /// A point-to-point lane.
    pub fn p2p(source: VertexId, target: VertexId) -> Self {
        BatchSpec {
            source,
            target: Some(target),
            bound: INF_WEIGHT,
        }
    }

    /// Attach an upper bound for relaxation pruning.
    pub fn with_bound(mut self, bound: Weight) -> Self {
        self.bound = bound;
        self
    }
}

/// Per-rank result of a batched run, lane-major SoA.
#[derive(Clone, Debug)]
pub struct MultiDist {
    /// Number of lanes in the batch.
    pub lanes: usize,
    /// Local vertices per lane (the SoA stride).
    pub n_local: usize,
    /// `dist[s * n_local + l]`: distance from lane `s`'s source to local
    /// vertex `l`. A retired point-to-point lane's slice is frozen at
    /// retirement (only its target entries are final).
    pub dist: Vec<Weight>,
    /// `parent[s * n_local + l]`: global parent in lane `s`'s tree.
    pub parent: Vec<u64>,
    /// Virtual time each lane finished (retirement for early-exit lanes,
    /// batch end otherwise).
    pub finished_at: Vec<f64>,
    /// True for point-to-point lanes that retired before the batch ended.
    pub early_exit: Vec<bool>,
    /// Per lane: the target's settled distance (`INF_WEIGHT` for full
    /// lanes and unreachable targets). Identical on every rank.
    pub target_dist: Vec<Weight>,
    /// Per lane: the target's parent (`NO_PARENT` when absent). Identical
    /// on every rank.
    pub target_parent: Vec<u64>,
}

impl MultiDist {
    /// Lane `s`'s local distance slice.
    pub fn lane_dist(&self, s: usize) -> &[Weight] {
        &self.dist[s * self.n_local..(s + 1) * self.n_local]
    }

    /// Lane `s`'s local parent slice.
    pub fn lane_parent(&self, s: usize) -> &[u64] {
        &self.parent[s * self.n_local..(s + 1) * self.n_local]
    }

    /// Lane `s` as an owned [`DistShortestPaths`] (for gathers).
    pub fn lane_paths(&self, s: usize) -> DistShortestPaths {
        DistShortestPaths {
            dist: self.lane_dist(s).to_vec(),
            parent: self.lane_parent(s).to_vec(),
        }
    }
}

/// Counters from one batched run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MultiStats {
    /// Global communication rounds for the whole batch.
    pub supersteps: u64,
    /// Update emissions after bound pruning, for the whole batch.
    pub relaxations: u64,
    /// Update records shipped (post-dedup).
    pub updates_sent: u64,
    /// Relaxations pruned by lane bounds.
    pub pruned: u64,
    /// Point-to-point lanes that retired before the batch ended.
    pub retired: u64,
}

/// Default Δ when `opts.delta` is `None`: the batched kernel has no
/// per-run weight profile to adapt from, so it uses the same fixed width
/// the F-series experiments use.
const DEFAULT_DELTA: Weight = 0.125;

/// Below this many frontier elements a wave is scanned sequentially; the
/// sequential loop emits the same candidates in the same (element, arc)
/// order, so results are bitwise unaffected by which path runs.
const SEQ_SCAN_CUTOFF: usize = 1024;

/// Run one batch of lanes through shared delta-stepping supersteps.
/// Collective: every rank must call with identical `specs` and `opts`.
/// Honors `opts.coalescing`, `opts.dedup`, `opts.compression`, and
/// `opts.delta`; the batched kernel always pushes (multi-source pull
/// would broadcast one frontier per lane, defeating the amortization) and
/// never fuses the tail (retirement needs the per-bucket epoch boundary).
///
/// Panics on fault escalation; use [`try_batched_delta_stepping`] to
/// handle crash-recovery exhaustion as a typed error.
pub fn batched_delta_stepping<P: VertexPartition + Sync>(
    ctx: &mut RankCtx,
    graph: &LocalGraph<P>,
    specs: &[BatchSpec],
    opts: &OptConfig,
) -> (MultiDist, MultiStats) {
    match try_batched_delta_stepping(ctx, graph, specs, opts) {
        Ok(out) => out,
        Err(e) => panic!("rank {}: {e}", ctx.rank()),
    }
}

/// [`batched_delta_stepping`] with typed fault escalation: when a crash
/// plan is active and recovery cannot complete (budget exhausted,
/// checkpoint lost), every rank returns the identical `Err` from the same
/// collective point instead of panicking.
pub fn try_batched_delta_stepping<P: VertexPartition + Sync>(
    ctx: &mut RankCtx,
    graph: &LocalGraph<P>,
    specs: &[BatchSpec],
    opts: &OptConfig,
) -> Result<(MultiDist, MultiStats), FaultEscalation> {
    let part = graph.part();
    let me = ctx.rank();
    let n_local = graph.local_vertices();
    let lanes = specs.len();
    assert!(lanes > 0, "empty batch");
    assert!(
        (lanes as u64).saturating_mul(n_local.max(1) as u64) <= u32::MAX as u64,
        "batch state exceeds packed u32 keys: {lanes} lanes x {n_local} local vertices"
    );
    let delta = opts.delta.unwrap_or(DEFAULT_DELTA);

    let mut b = Batch {
        graph,
        specs,
        opts: *opts,
        n_local,
        bounds: specs.iter().map(|s| s.bound).collect(),
        // Point-to-point bookkeeping: the lanes whose target this rank owns
        // (contributors to the per-epoch retirement allgather) and the
        // global count of live p2p lanes (identical on every rank).
        my_targets: specs
            .iter()
            .enumerate()
            .filter_map(|(s, spec)| {
                let t = spec.target?;
                (part.owner(t) == me).then(|| (s as u32, part.to_local(t)))
            })
            .collect(),
        dist: vec![INF_WEIGHT; lanes * n_local],
        parent: vec![NO_PARENT; lanes * n_local],
        finished_at: vec![0.0f64; lanes],
        early_exit: vec![false; lanes],
        target_dist: vec![INF_WEIGHT; lanes],
        target_parent: vec![NO_PARENT; lanes],
        live: vec![true; lanes],
        live_p2p: specs.iter().filter(|s| s.target.is_some()).count(),
        buckets: BucketQueue::new(delta),
        stats: MultiStats::default(),
        bufs: ExchangeBufs::new(ctx.size()),
        frontier: Vec::new(),
        settled: Vec::new(),
        candidates: Vec::new(),
        raw: Vec::new(),
    };
    for (s, spec) in specs.iter().enumerate() {
        if part.owner(spec.source) == me {
            let idx = s * n_local + part.to_local(spec.source);
            b.dist[idx] = 0.0;
            b.parent[idx] = spec.source;
            b.buckets.insert(idx as u32, 0.0);
        }
    }

    epoch::run(ctx, &mut b)?;

    // Lanes still live at batch end: full lanes, unreachable targets, and
    // targets that settled in the final bucket. Resolve remaining p2p
    // results with one last allgather so every rank returns identical
    // target values.
    if b.live_p2p > 0 {
        for block in ctx.allgatherv(&b.live_targets()) {
            for (s, _t, d, par) in block {
                b.target_dist[s as usize] = d;
                b.target_parent[s as usize] = par;
            }
        }
    }
    let t_end = ctx.allreduce(ctx.now(), |a, b| if a > b { *a } else { *b });
    for s in 0..lanes {
        if b.live[s] {
            b.finished_at[s] = t_end;
        }
    }

    Ok((
        MultiDist {
            lanes,
            n_local,
            dist: b.dist,
            parent: b.parent,
            finished_at: b.finished_at,
            early_exit: b.early_exit,
            target_dist: b.target_dist,
            target_parent: b.target_parent,
        },
        b.stats,
    ))
}

/// The batch kernel's per-run state.
struct Batch<'a, P: VertexPartition> {
    graph: &'a LocalGraph<P>,
    specs: &'a [BatchSpec],
    opts: OptConfig,
    n_local: usize,
    bounds: Vec<Weight>,
    my_targets: Vec<(u32, usize)>,
    dist: Vec<Weight>,
    parent: Vec<u64>,
    finished_at: Vec<f64>,
    early_exit: Vec<bool>,
    target_dist: Vec<Weight>,
    target_parent: Vec<u64>,
    live: Vec<bool>,
    live_p2p: usize,
    buckets: BucketQueue,
    stats: MultiStats,
    /// Round scratch, overwritten before it is read in every superstep.
    bufs: ExchangeBufs<TaggedUpdate>,
    frontier: Vec<u32>,
    settled: Vec<u32>,
    candidates: Vec<TaggedUpdate>,
    raw: Vec<u32>,
}

/// The complete mutable batch state, snapshotted at bucket boundaries when
/// a [`CrashPlan`](simnet::CrashPlan) is active; the round scratch is
/// excluded. `finished_at` carries virtual timestamps and is checkpointed
/// so rollback restores the exact pre-crash record, but it legitimately
/// differs from a fault-free run (recovery stretches virtual time).
impl<P: VertexPartition> Checkpoint for Batch<'_, P> {
    fn save(&self, out: &mut Vec<u8>) {
        save_paths(&self.dist, &self.parent, out);
        codec::put_f64_slice(out, &self.finished_at);
        codec::put_bool_slice(out, &self.early_exit);
        save_paths(&self.target_dist, &self.target_parent, out);
        codec::put_bool_slice(out, &self.live);
        codec::put_u64(out, self.live_p2p as u64);
        self.buckets.save(out);
        let st = &self.stats;
        for x in [
            st.supersteps,
            st.relaxations,
            st.updates_sent,
            st.pruned,
            st.retired,
        ] {
            codec::put_u64(out, x);
        }
    }

    fn load(&mut self, buf: &[u8]) {
        let mut pos = 0usize;
        let pos = &mut pos;
        load_paths(&mut self.dist, &mut self.parent, buf, pos);
        self.finished_at = codec::get_f64_vec(buf, pos);
        self.early_exit = codec::get_bool_vec(buf, pos);
        load_paths(&mut self.target_dist, &mut self.target_parent, buf, pos);
        self.live = codec::get_bool_vec(buf, pos);
        self.live_p2p = codec::get_u64(buf, pos) as usize;
        self.buckets.load(buf, pos);
        let st = &mut self.stats;
        for x in [
            &mut st.supersteps,
            &mut st.relaxations,
            &mut st.updates_sent,
            &mut st.pruned,
            &mut st.retired,
        ] {
            *x = codec::get_u64(buf, pos);
        }
        assert_eq!(*pos, buf.len(), "trailing bytes in batch checkpoint");
    }
}

impl<P: VertexPartition + Sync> EpochKernel for Batch<'_, P> {
    /// The bucket vote, then the retirement of settled p2p targets.
    fn next_bucket(&mut self, ctx: &mut RankCtx) -> Option<u64> {
        let k_local = self.buckets.min_bucket().map_or(u64::MAX, |k| k as u64);
        let k = ctx.allreduce_min(k_local);
        if k == u64::MAX {
            return None;
        }
        // Retirement epoch: target owners publish live tentatives; every
        // rank applies the identical "settled below bucket k" rule, so the
        // retirement set — and thus the whole batch schedule — is a pure
        // function of the allreduced bucket index and the lane states.
        if self.live_p2p > 0 {
            for block in ctx.allgatherv(&self.live_targets()) {
                for (s, _t, d, par) in block {
                    let s = s as usize;
                    if d.is_finite() && self.buckets.bucket_of(d) < k as usize {
                        self.live[s] = false;
                        self.live_p2p -= 1;
                        self.early_exit[s] = true;
                        self.finished_at[s] = ctx.now();
                        self.target_dist[s] = d;
                        self.target_parent[s] = par;
                        self.stats.retired += 1;
                        ctx.trace_count(TraceCode::QueryRetired, s as u64, k);
                    }
                }
            }
            if self.live.iter().all(|&l| !l) {
                return None; // every lane was p2p and has retired
            }
        }
        self.settled.clear();
        Some(k)
    }

    fn frontier(&mut self, ctx: &mut RankCtx, k: u64) -> u64 {
        let k = k as usize;
        self.raw.clear();
        self.buckets.drain_bucket_into(k, &mut self.raw);
        let (dist, live, n_local) = (&self.dist, &self.live, self.n_local);
        let buckets = &self.buckets;
        self.frontier.clear();
        self.frontier.extend(self.raw.iter().copied().filter(|&e| {
            let d = dist[e as usize];
            live[e as usize / n_local] && d.is_finite() && buckets.bucket_of(d) == k
        }));
        ctx.allreduce_sum(self.frontier.len() as u64)
    }

    fn light(&mut self, ctx: &mut RankCtx, _k: u64) {
        self.settled.extend_from_slice(&self.frontier);
        let delta = self.buckets.delta();
        epoch::superstep(ctx, self, 0, |b, ctx| {
            b.relax_round(ctx, false, |w| w < delta)
        });
    }

    fn heavy(&mut self, ctx: &mut RankCtx, _k: u64) {
        let delta = self.buckets.delta();
        epoch::superstep(ctx, self, 1, |b, ctx| {
            b.relax_round(ctx, true, |w| w >= delta)
        });
    }

    fn progress(&self) -> (u64, u64) {
        (self.stats.supersteps, self.stats.relaxations)
    }
}

impl<P: VertexPartition + Sync> Batch<'_, P> {
    /// This rank's live p2p targets as `(lane, target, dist, parent)`.
    fn live_targets(&self) -> Vec<TaggedUpdate> {
        self.my_targets
            .iter()
            .filter(|&&(s, _)| self.live[s as usize])
            .map(|&(s, l)| {
                let idx = s as usize * self.n_local + l;
                let t = self.specs[s as usize].target.unwrap();
                (s, t, self.dist[idx], self.parent[idx])
            })
            .collect()
    }

    /// One superstep: scan the `keep` arcs of the frontier (or, for the
    /// heavy round, of the bucket's settled set) against the frozen state,
    /// route the candidates to their owners, exchange them under `opts`,
    /// and apply the incoming stream in order (strict-`<` improvements;
    /// retired lanes are frozen).
    fn relax_round(
        &mut self,
        ctx: &mut RankCtx,
        heavy: bool,
        keep: impl Fn(Weight) -> bool + Sync,
    ) {
        let sources = if heavy { &self.settled } else { &self.frontier };
        scan_wave(
            self.graph,
            &self.dist,
            &self.bounds,
            self.n_local,
            sources,
            keep,
            &mut self.candidates,
            &mut self.stats,
            ctx,
        );
        let part = self.graph.part();
        for &c in &self.candidates {
            self.bufs.bucket_mut(part.owner(c.1)).push(c);
        }
        let outcome = exchange_into(ctx, &mut self.bufs, &self.opts);
        self.stats.supersteps += 1;
        self.stats.updates_sent += outcome.records_sent;
        ctx.charge_compute(outcome.records_received);
        for &(s, v, nd, par) in self.bufs.incoming() {
            let s = s as usize;
            if !self.live[s] {
                continue;
            }
            let idx = s * self.n_local + part.to_local(v);
            if nd < self.dist[idx] {
                self.dist[idx] = nd;
                self.parent[idx] = par;
                self.buckets.insert(idx as u32, nd);
            }
        }
    }
}

/// Scan the out-arcs of one packed frontier element against the frozen
/// lane state, emitting improving candidates. Shared by both scan paths,
/// so their (element, arc) emission order is identical.
#[inline]
#[allow(clippy::too_many_arguments)]
fn scan_elem<P: VertexPartition>(
    graph: &LocalGraph<P>,
    dist: &[Weight],
    bounds: &[Weight],
    n_local: usize,
    me: usize,
    e: u32,
    keep: &(impl Fn(Weight) -> bool + Sync),
    mut emit: impl FnMut(TaggedUpdate),
    pruned: &mut u64,
) {
    let part = graph.part();
    let lane = e as usize / n_local;
    let l = e as usize % n_local;
    let du = dist[e as usize];
    let bound = bounds[lane];
    let u_global = part.to_global(me, l);
    let vs = graph.neighbors(l);
    let ws = graph.edge_weights(l);
    for (&v, &w) in vs.iter().zip(ws) {
        if !keep(w) {
            continue;
        }
        let nd = du + w;
        if nd > bound {
            *pruned += 1;
            continue;
        }
        // frozen-read prefilter for locally-owned targets: identical per
        // lane at any batch width, so width-invariance is preserved
        let owner = part.owner(v);
        if owner == me && nd >= dist[lane * n_local + part.to_local(v)] {
            continue;
        }
        emit((lane as u32, v, nd, u_global));
    }
}

/// Phase 1: scan `sources` (packed lane keys) against the frozen state,
/// collecting candidates in (element, arc) order — sequentially below the
/// cutoff, else on the pool under the fixed-chunk contract.
#[allow(clippy::too_many_arguments)]
fn scan_wave<P: VertexPartition + Sync>(
    graph: &LocalGraph<P>,
    dist: &[Weight],
    bounds: &[Weight],
    n_local: usize,
    sources: &[u32],
    keep: impl Fn(Weight) -> bool + Sync,
    out: &mut Vec<TaggedUpdate>,
    stats: &mut MultiStats,
    ctx: &mut RankCtx,
) {
    let me = ctx.rank();
    let scanned: u64 = sources
        .iter()
        .map(|&e| graph.neighbors(e as usize % n_local).len() as u64)
        .sum();
    let mut pruned = 0u64;
    if sources.len() <= SEQ_SCAN_CUTOFF {
        out.clear();
        for &e in sources {
            scan_elem(
                graph,
                dist,
                bounds,
                n_local,
                me,
                e,
                &keep,
                |c| out.push(c),
                &mut pruned,
            );
        }
    } else {
        ctx.trace_begin(TraceCode::TaskWave, sources.len() as u64, 4);
        let keep = &keep;
        let part = graph.part();
        sources
            .par_iter()
            .with_min_len(64)
            .flat_map_iter(|&e| {
                let lane = e as usize / n_local;
                let l = e as usize % n_local;
                let du = dist[e as usize];
                let bound = bounds[lane];
                let u_global = part.to_global(me, l);
                let vs = graph.neighbors(l);
                let ws = graph.edge_weights(l);
                vs.iter().zip(ws).filter_map(move |(&v, &w)| {
                    if !keep(w) {
                        return None;
                    }
                    let nd = du + w;
                    if nd > bound {
                        return None;
                    }
                    if part.owner(v) == me && nd >= dist[lane * n_local + part.to_local(v)] {
                        return None;
                    }
                    Some((lane as u32, v, nd, u_global))
                })
            })
            .collect_into_vec(out);
        ctx.trace_end(TraceCode::TaskWave, sources.len() as u64, 4);
        // the parallel path cannot cheaply count prunes per item; recompute
        // the deterministic count from totals (scanned - kept-by-weight is
        // not available either), so count prunes only on the sequential
        // path and fold the difference into `relaxations` below.
    }
    stats.pruned += pruned;
    stats.relaxations += out.len() as u64;
    ctx.charge_compute(scanned);
}

#[cfg(test)]
mod tests {
    use super::*;
    use g500_baselines::dijkstra;
    use g500_graph::{Csr, Directedness};
    use g500_partition::{assemble_local_graph, Block1D};
    use simnet::{Machine, MachineConfig};

    #[test]
    fn batched_matches_dijkstra_per_source() {
        let el = g500_gen::simple::erdos_renyi(48, 220, 31);
        let csr = Csr::from_edges(48, &el, Directedness::Undirected);
        let roots = [0u64, 7, 13, 40];
        let p = 3;
        let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
            let part = Block1D::new(48, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let specs: Vec<_> = roots.iter().map(|&r| BatchSpec::full(r)).collect();
            let (md, _) =
                batched_delta_stepping(ctx, &g, &specs, &OptConfig::all_on().with_delta(0.2));
            (0..roots.len())
                .map(|s| md.lane_paths(s).gather_to_all(ctx, g.part()))
                .collect::<Vec<_>>()
        });
        for (s, &root) in roots.iter().enumerate() {
            let oracle = dijkstra(&csr, root);
            assert!(
                rep.results[0][s].distances_match(&oracle, 1e-4),
                "source {s} (root {root})"
            );
        }
    }

    #[test]
    fn batching_amortizes_supersteps() {
        // B sequential runs pay ~B× the supersteps of one batched run
        let gen = g500_gen::KroneckerGenerator::new(g500_gen::KroneckerParams::graph500(9, 8));
        let el = gen.generate_all();
        let n = 512u64;
        let roots = [1u64, 3, 5, 7, 11, 13, 17, 19];
        let p = 4;
        let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
            let part = Block1D::new(n, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);

            let opts = OptConfig::all_on().with_delta(0.125);
            let specs: Vec<_> = roots.iter().map(|&r| BatchSpec::full(r)).collect();
            let (_, batched) = batched_delta_stepping(ctx, &g, &specs, &opts);

            let mut sequential_steps = 0u64;
            for &r in &roots {
                let (_, s) = batched_delta_stepping(ctx, &g, &[BatchSpec::full(r)], &opts);
                sequential_steps += s.supersteps;
            }
            (batched.supersteps, sequential_steps)
        });
        let (batched, sequential) = rep.results[0];
        assert!(
            batched * 2 < sequential,
            "batched {batched} supersteps vs sequential {sequential}"
        );
    }

    #[test]
    fn single_source_batch_is_just_sssp() {
        let el = g500_gen::simple::path(12, 0.3);
        let csr = Csr::from_edges(12, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        let rep = Machine::new(MachineConfig::with_ranks(2)).run(|ctx| {
            let part = Block1D::new(12, 2);
            let mine: Vec<_> = if ctx.rank() == 0 {
                el.iter().collect()
            } else {
                Vec::new()
            };
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let (md, _) = batched_delta_stepping(
                ctx,
                &g,
                &[BatchSpec::full(0)],
                &OptConfig::all_on().with_delta(0.5),
            );
            md.lane_paths(0).gather_to_all(ctx, g.part())
        });
        assert!(rep.results[0].distances_match(&oracle, 1e-5));
    }

    #[test]
    fn p2p_lane_retires_with_exact_answer() {
        // a long path graph: the far end settles late, a near target
        // settles early — its lane must retire with the full-run answer
        let el = g500_gen::simple::path(60, 0.3);
        let csr = Csr::from_edges(60, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        let p = 3;
        let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
            let part = Block1D::new(60, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let specs = [BatchSpec::p2p(0, 5), BatchSpec::full(0)];
            let (md, stats) =
                batched_delta_stepping(ctx, &g, &specs, &OptConfig::all_on().with_delta(0.5));
            (
                md.early_exit[0],
                md.target_dist[0],
                md.target_parent[0],
                stats.retired,
            )
        });
        let (early, d, par, retired) = rep.results[0];
        assert!(early, "near target must retire before the path drains");
        assert_eq!(retired, 1);
        assert_eq!(d.to_bits(), oracle.dist[5].to_bits());
        assert_eq!(par, oracle.parent[5]);
    }

    #[test]
    fn crash_recovery_is_byte_identical_to_fault_free() {
        // mixed batch (full + p2p + bounded) under a random crash
        // schedule: distances, parents, target results, retirement flags,
        // and all structural counters must match the fault-free run
        // bitwise; only `finished_at` (virtual time) may move.
        let el = g500_gen::simple::erdos_renyi(56, 260, 17);
        let run = |crash: Option<simnet::CrashPlan>| {
            let mut cfg = MachineConfig::with_ranks(4);
            if let Some(plan) = crash {
                cfg = cfg.crashes(plan);
            }
            let el = &el;
            Machine::new(cfg).run(move |ctx| {
                let part = Block1D::new(56, 4);
                let m = el.len();
                let (lo, hi) = (ctx.rank() * m / 4, (ctx.rank() + 1) * m / 4);
                let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                let g = assemble_local_graph(ctx, mine.into_iter(), part);
                let specs = [
                    BatchSpec::full(0),
                    BatchSpec::p2p(3, 40),
                    BatchSpec::p2p(7, 9).with_bound(4.0),
                    BatchSpec::full(21),
                ];
                let (md, stats) = try_batched_delta_stepping(
                    ctx,
                    &g,
                    &specs,
                    &OptConfig::all_on().with_delta(0.2),
                )
                .expect("in-budget crashes must be recovered");
                (md, stats)
            })
        };
        let clean = run(None);
        let plan = simnet::CrashPlan::random(0xBA7C, 0.01).with_checkpoint_interval(2);
        let crashed = run(Some(plan));
        assert!(
            crashed.total_stats().saw_crashes(),
            "the schedule must actually crash someone: {:?}",
            crashed.total_stats()
        );
        for (c, f) in clean.results.iter().zip(crashed.results.iter()) {
            let (cmd, cst) = c;
            let (fmd, fst) = f;
            let cbits: Vec<u32> = cmd.dist.iter().map(|d| d.to_bits()).collect();
            let fbits: Vec<u32> = fmd.dist.iter().map(|d| d.to_bits()).collect();
            assert_eq!(cbits, fbits, "distances must be byte-identical");
            assert_eq!(cmd.parent, fmd.parent, "parents must be byte-identical");
            let ctb: Vec<u32> = cmd.target_dist.iter().map(|d| d.to_bits()).collect();
            let ftb: Vec<u32> = fmd.target_dist.iter().map(|d| d.to_bits()).collect();
            assert_eq!(ctb, ftb, "target distances must be byte-identical");
            assert_eq!(cmd.target_parent, fmd.target_parent);
            assert_eq!(cmd.early_exit, fmd.early_exit);
            assert_eq!(cst, fst, "structural counters must be identical");
        }
    }

    #[test]
    fn unreachable_target_resolves_to_inf() {
        // vertex 11 is isolated when the path stops at 10
        let el = g500_gen::simple::path(11, 0.3);
        let rep = Machine::new(MachineConfig::with_ranks(2)).run(|ctx| {
            let part = Block1D::new(12, 2);
            let mine: Vec<_> = if ctx.rank() == 0 {
                el.iter().collect()
            } else {
                Vec::new()
            };
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let specs = [BatchSpec::p2p(0, 11)];
            let (md, _) =
                batched_delta_stepping(ctx, &g, &specs, &OptConfig::all_on().with_delta(0.5));
            (md.early_exit[0], md.target_dist[0])
        });
        let (early, d) = rep.results[0];
        assert!(!early);
        assert!(d.is_infinite());
    }
}
