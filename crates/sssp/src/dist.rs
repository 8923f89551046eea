//! The headline kernel: distributed delta-stepping with the extreme-scale
//! optimization stack.
//!
//! Bulk-synchronous structure, one bucket at a time:
//!
//! ```text
//! loop:
//!     (k, residue, relaxed) ← one allreduce of local minimum bucket
//!                             index, queue size and relaxation count
//!     if k = ∞: done
//!     if fusion is on, the residue is tiny and most work is done: finish
//!         in one fused Bellman-Ford tail instead of dribbling through
//!         buckets, and stop
//!     repeat                                   (light-edge inner loop)
//!         frontier ← live entries of local bucket k
//!         agree on direction (push / pull) from global frontier density
//!         push: relax light out-edges, exchange updates, apply
//!         pull: broadcast frontier, scan local unsettled adjacency
//!     until bucket k is globally empty
//!     relax heavy edges of everything bucket k settled, exchange once
//! ```
//!
//! Every optimization is toggleable via [`OptConfig`]; with everything off
//! this degenerates to the plain textbook distributed delta-stepping that
//! the ablation experiments measure against.

use crate::bucket::BucketQueue;
use crate::codec::Update;
use crate::config::{Direction, OptConfig};
use crate::delta::suggest_delta;
use crate::epoch::{self, load_paths, save_paths, EpochKernel};
use crate::exchange::{exchange_into, ExchangeBufs};
use g500_graph::{VertexId, Weight};
use g500_partition::{DistShortestPaths, LocalGraph, VertexPartition};
use rayon::prelude::*;
use simnet::recovery::{codec, Checkpoint, FaultEscalation};
use simnet::{RankCtx, TraceCode};
use std::collections::HashMap;

/// Per-vertex result of the parallel pull scan: relaxation count, and (if
/// the vertex improved) its final `(dist, parent)` plus every strict-
/// improvement distance along the way (each must reach the bucket queue —
/// stale entries drive the superstep count).
type PullScan = (u64, Option<(f32, u64, Vec<f32>)>);

/// Per-chunk result of the parallel heavy-phase scan: relaxation count and
/// the improving candidates `(target_global, new_dist, parent_global,
/// owner_rank)` in (source, arc) order.
type HeavyScan = (u64, Vec<(u64, f32, u64, usize)>);

/// Counters one run of the distributed kernel produces (per rank; counts
/// like `supersteps` are identical on every rank by construction).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SsspRunStats {
    /// Global communication rounds (inner light iterations + heavy phases
    /// + fused-tail rounds).
    pub supersteps: u64,
    /// Buckets processed.
    pub buckets: u64,
    /// Local edge relaxations performed.
    pub relaxations: u64,
    /// Update records shipped by this rank (post-dedup).
    pub updates_sent: u64,
    /// Update records offered before dedup.
    pub updates_offered: u64,
    /// Inner iterations that ran in push mode.
    pub push_iterations: u64,
    /// Inner iterations that ran in pull mode.
    pub pull_iterations: u64,
    /// Whether the fused Bellman-Ford tail was taken.
    pub tail_fused: bool,
    /// Virtual seconds from kernel start to finish on this rank.
    pub sim_time_s: f64,
    /// Virtual compute seconds inside the kernel.
    pub compute_s: f64,
    /// Virtual communication seconds inside the kernel.
    pub comm_s: f64,
}

impl SsspRunStats {
    /// Render as a JSON object (hand-rolled: the workspace has no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"supersteps\":{},\"buckets\":{},\"relaxations\":{},\"updates_sent\":{},\
             \"updates_offered\":{},\"push_iterations\":{},\"pull_iterations\":{},\
             \"tail_fused\":{},\"sim_time_s\":{},\"compute_s\":{},\"comm_s\":{}}}",
            self.supersteps,
            self.buckets,
            self.relaxations,
            self.updates_sent,
            self.updates_offered,
            self.push_iterations,
            self.pull_iterations,
            self.tail_fused,
            json_f64(self.sim_time_s),
            json_f64(self.compute_s),
            json_f64(self.comm_s)
        )
    }
}

/// `f64` → JSON number (`null` when non-finite).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Fuse the tail once the global live queue drops below this many entries
/// per rank (and most of the relaxation work is done).
const TAIL_THRESHOLD: u64 = 64;

/// Hybrid direction: pull when the frontier's arcs exceed `1/PULL_RATIO` of
/// the arcs still unsettled.
const PULL_RATIO: f64 = 16.0;

/// Working state threaded through the phases.
struct Kernel<'a, P: VertexPartition> {
    graph: &'a LocalGraph<P>,
    opts: OptConfig,
    delta: Weight,
    sp: DistShortestPaths,
    buckets: BucketQueue,
    /// Generation stamps: `frontier_seen[v] == frontier_epoch` means v is
    /// already in the current inner iteration's frontier.
    frontier_seen: Vec<u64>,
    frontier_epoch: u64,
    /// `settled_seen[v] == settled_epoch` means v is already in the current
    /// bucket's settled list.
    settled_seen: Vec<u64>,
    settled_epoch: u64,
    /// Arcs of local vertices that have not yet entered any frontier —
    /// the denominator of the pull heuristic (an upper bound on remaining
    /// pull work).
    unsettled_arcs: u64,
    unsettled_mark: Vec<bool>,
    stats: SsspRunStats,
    /// The current light round's frontier and its agreed global
    /// `(frontier arcs, unsettled arcs)`, which pick the direction.
    frontier: Vec<u32>,
    density: (u64, u64),
    /// Everything the current bucket settled, for its heavy round.
    settled: Vec<u32>,
    /// Superstep scratch arenas, reused across the whole run: the exchange
    /// buckets/incoming buffer and the two parallel-scan result buffers.
    /// Every superstep used to reallocate all of these from nothing.
    xbufs: ExchangeBufs<Update>,
    pull_scratch: Vec<PullScan>,
    heavy_scratch: Vec<HeavyScan>,
}

/// Everything live across a superstep boundary is checkpointed; the round
/// and scratch buffers (`frontier`, `settled`, `xbufs`, `pull_scratch`,
/// `heavy_scratch`) are excluded on purpose — each is overwritten before
/// it is read. Time fields of the stats are included so rollback is exact,
/// even though crash runs legitimately report different virtual times
/// than fault-free runs.
impl<P: VertexPartition> Checkpoint for Kernel<'_, P> {
    fn save(&self, out: &mut Vec<u8>) {
        save_paths(&self.sp.dist, &self.sp.parent, out);
        self.buckets.save(out);
        codec::put_u64_slice(out, &self.frontier_seen);
        codec::put_u64(out, self.frontier_epoch);
        codec::put_u64_slice(out, &self.settled_seen);
        codec::put_u64(out, self.settled_epoch);
        codec::put_u64(out, self.unsettled_arcs);
        codec::put_bool_slice(out, &self.unsettled_mark);
        let st = &self.stats;
        for x in [
            st.supersteps,
            st.buckets,
            st.relaxations,
            st.updates_sent,
            st.updates_offered,
            st.push_iterations,
            st.pull_iterations,
            st.tail_fused as u64,
        ] {
            codec::put_u64(out, x);
        }
        for x in [st.sim_time_s, st.compute_s, st.comm_s] {
            codec::put_f64(out, x);
        }
    }

    fn load(&mut self, buf: &[u8]) {
        let mut pos = 0;
        let pos = &mut pos;
        load_paths(&mut self.sp.dist, &mut self.sp.parent, buf, pos);
        self.buckets.load(buf, pos);
        self.frontier_seen = codec::get_u64_vec(buf, pos);
        self.frontier_epoch = codec::get_u64(buf, pos);
        self.settled_seen = codec::get_u64_vec(buf, pos);
        self.settled_epoch = codec::get_u64(buf, pos);
        self.unsettled_arcs = codec::get_u64(buf, pos);
        self.unsettled_mark = codec::get_bool_vec(buf, pos);
        let st = &mut self.stats;
        for x in [
            &mut st.supersteps,
            &mut st.buckets,
            &mut st.relaxations,
            &mut st.updates_sent,
            &mut st.updates_offered,
            &mut st.push_iterations,
            &mut st.pull_iterations,
        ] {
            *x = codec::get_u64(buf, pos);
        }
        st.tail_fused = codec::get_u64(buf, pos) != 0;
        for x in [&mut st.sim_time_s, &mut st.compute_s, &mut st.comm_s] {
            *x = codec::get_f64(buf, pos);
        }
        assert_eq!(*pos, buf.len(), "trailing bytes in kernel checkpoint");
    }
}

/// Run the distributed kernel from `root`. Collective: all ranks call with
/// identical `opts`. Returns this rank's slice of the result and the run
/// statistics.
///
/// Panics on an unmasked fault; [`try_distributed_delta_stepping`] is the
/// typed-error variant for crash-injected machines.
pub fn distributed_delta_stepping<P: VertexPartition>(
    ctx: &mut RankCtx,
    graph: &LocalGraph<P>,
    root: VertexId,
    opts: &OptConfig,
) -> (DistShortestPaths, SsspRunStats) {
    match try_distributed_delta_stepping(ctx, graph, root, opts) {
        Ok(out) => out,
        Err(e) => panic!("rank {}: {e}", ctx.rank()),
    }
}

/// [`distributed_delta_stepping`] with crash recovery surfaced as a typed
/// error: under a [`simnet::CrashPlan`] the kernel checkpoints at bucket
/// boundaries, probes for crashes every superstep, and rolls back and
/// replays on an agreed verdict; a crash schedule the budget cannot absorb
/// comes back as `Err` — identically on every rank, from the same
/// collective point.
pub fn try_distributed_delta_stepping<P: VertexPartition>(
    ctx: &mut RankCtx,
    graph: &LocalGraph<P>,
    root: VertexId,
    opts: &OptConfig,
) -> Result<(DistShortestPaths, SsspRunStats), FaultEscalation> {
    let n_local = graph.local_vertices();
    let start_now = ctx.now();
    let start_stats = ctx.stats().clone();

    // Δ selection. The statistics allreduce runs unconditionally so the
    // collective schedule does not depend on the option (and it is cheap).
    let local_w: f64 = (0..n_local)
        .flat_map(|l| graph.arcs(l).map(|(_, w)| w as f64))
        .sum();
    let (sum_w, arcs, verts) = ctx.allreduce(
        (local_w, graph.local_arcs() as u64, n_local as u64),
        |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2),
    );
    let delta = opts.delta.unwrap_or_else(|| {
        let avg_degree = arcs as f64 / verts.max(1) as f64;
        let mean_w = if arcs == 0 { 0.5 } else { sum_w / arcs as f64 };
        suggest_delta(avg_degree, mean_w)
    });

    let mut k = Kernel {
        graph,
        opts: *opts,
        delta,
        sp: DistShortestPaths::unreached(n_local),
        buckets: BucketQueue::new(delta),
        frontier_seen: vec![0; n_local],
        frontier_epoch: 0,
        settled_seen: vec![0; n_local],
        settled_epoch: 0,
        unsettled_arcs: graph.local_arcs() as u64,
        unsettled_mark: vec![false; n_local],
        stats: SsspRunStats::default(),
        frontier: Vec::new(),
        density: (0, 0),
        settled: Vec::new(),
        xbufs: ExchangeBufs::new(ctx.size()),
        pull_scratch: Vec::new(),
        heavy_scratch: Vec::new(),
    };

    let part = graph.part();
    if part.owner(root) == ctx.rank() {
        let l = part.to_local(root);
        k.sp.dist[l] = 0.0;
        k.sp.parent[l] = root;
        k.buckets.insert(l as u32, 0.0);
    }

    epoch::run(ctx, &mut k)?;

    k.stats.sim_time_s = ctx.now() - start_now;
    k.stats.compute_s = ctx.stats().compute_s - start_stats.compute_s;
    k.stats.comm_s = ctx.stats().comm_s - start_stats.comm_s;
    Ok((k.sp, k.stats))
}

impl<P: VertexPartition> EpochKernel for Kernel<'_, P> {
    /// One vote per bucket: the next bucket index, and the live residue
    /// and relaxation total that gate the fused tail.
    fn next_bucket(&mut self, ctx: &mut RankCtx) -> Option<u64> {
        let k_local = self.buckets.min_bucket().map_or(u64::MAX, |k| k as u64);
        let (k, active, relaxed) = ctx.allreduce(
            (k_local, self.buckets.len() as u64, self.stats.relaxations),
            |a, b| (a.0.min(b.0), a.1 + b.1, a.2 + b.2),
        );
        if k == u64::MAX {
            return None;
        }
        // Two conditions gate the fusion: the live residue is tiny AND
        // most of the relaxation work is already behind us. The second
        // guard matters: right after bucket 0 the queue is also tiny
        // (the search has barely started), and fusing there would run
        // an unbucketed Bellman-Ford over the entire graph. Before the
        // first bucket nothing is relaxed yet, so the vote never fuses.
        let bulk_done = relaxed * 2 > self.graph.global_arcs();
        if self.opts.bucket_fusion && active < TAIL_THRESHOLD * ctx.size() as u64 && bulk_done {
            // The tail drains every bucket, so the search is over. It runs
            // outside every bucket span: its rounds carry flavor 2 and the
            // per-bucket counters exclude it.
            self.fused_tail(ctx);
            self.stats.tail_fused = true;
            return None;
        }
        self.stats.buckets += 1;
        self.settled_epoch += 1;
        self.settled.clear();
        Some(k)
    }

    fn frontier(&mut self, ctx: &mut RankCtx, k: u64) -> u64 {
        self.frontier = self.collect_frontier(k as usize);
        let f_arcs_local: u64 = self
            .frontier
            .iter()
            .map(|&v| self.graph.degree(v as usize) as u64)
            .sum();
        let (f_size, f_arcs, unsettled) = ctx.allreduce(
            (
                self.frontier.len() as u64,
                f_arcs_local,
                self.unsettled_arcs,
            ),
            |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2),
        );
        self.density = (f_arcs, unsettled);
        f_size
    }

    /// One light round, push or pull by the agreed frontier density.
    fn light(&mut self, ctx: &mut RankCtx, k: u64) {
        epoch::superstep(ctx, self, 0, |s, ctx| {
            let frontier = std::mem::take(&mut s.frontier);
            for &v in &frontier {
                if s.settled_seen[v as usize] != s.settled_epoch {
                    s.settled_seen[v as usize] = s.settled_epoch;
                    s.settled.push(v);
                }
            }
            let (f_arcs, unsettled) = s.density;
            let use_pull = match s.opts.direction {
                Direction::Push => false,
                Direction::Pull => true,
                Direction::Hybrid => f_arcs as f64 * PULL_RATIO > unsettled as f64,
            };
            if use_pull {
                s.stats.pull_iterations += 1;
                s.pull_iteration(ctx, k as usize, &frontier);
            } else {
                s.stats.push_iterations += 1;
                s.push_iteration(ctx, k as usize, frontier);
            }
            s.stats.supersteps += 1;
        });
    }

    /// The heavy round: always push, once per settled vertex.
    fn heavy(&mut self, ctx: &mut RankCtx, k: u64) {
        epoch::superstep(ctx, self, 1, |s, ctx| {
            ctx.trace_count(TraceCode::Settled, s.settled.len() as u64, k);
            let settled = std::mem::take(&mut s.settled);
            s.heavy_phase(ctx, &settled);
            s.settled = settled;
            s.stats.supersteps += 1;
        });
    }

    fn progress(&self) -> (u64, u64) {
        (self.stats.supersteps, self.stats.relaxations)
    }
}

impl<P: VertexPartition> Kernel<'_, P> {
    /// Drain the live, deduplicated frontier of bucket `k`.
    fn collect_frontier(&mut self, k: usize) -> Vec<u32> {
        self.frontier_epoch += 1;
        let mut out = Vec::new();
        for v in self.buckets.take_bucket(k) {
            let d = self.sp.dist[v as usize];
            if d.is_finite()
                && self.buckets.bucket_of(d) == k
                && self.frontier_seen[v as usize] != self.frontier_epoch
            {
                self.frontier_seen[v as usize] = self.frontier_epoch;
                out.push(v);
            }
        }
        for &v in &out {
            if !self.unsettled_mark[v as usize] {
                self.unsettled_mark[v as usize] = true;
                self.unsettled_arcs = self
                    .unsettled_arcs
                    .saturating_sub(self.graph.degree(v as usize) as u64);
            }
        }
        out
    }

    /// Apply one incoming/locally-generated update. Returns `Some(local)`
    /// if it improved the vertex.
    fn apply(&mut self, v_global: u64, nd: Weight, parent: u64) -> Option<u32> {
        let l = self.graph.part().to_local(v_global);
        if nd < self.sp.dist[l] {
            self.sp.dist[l] = nd;
            self.sp.parent[l] = parent;
            self.buckets.insert(l as u32, nd);
            Some(l as u32)
        } else {
            None
        }
    }

    /// Ship the updates staged in `xbufs`, apply the incoming ones, and
    /// keep the buffers for the next superstep.
    fn exchange_and_apply(&mut self, ctx: &mut RankCtx, mut xbufs: ExchangeBufs<Update>) {
        let outcome = exchange_into(ctx, &mut xbufs, &self.opts);
        self.stats.updates_sent += outcome.records_sent;
        self.stats.updates_offered += outcome.records_offered;
        ctx.charge_compute(xbufs.incoming().len() as u64);
        for &(v, nd, parent) in xbufs.incoming() {
            self.apply(v, nd, parent);
        }
        self.xbufs = xbufs;
    }

    /// One push-mode light iteration over `frontier`. Cascaded vertices
    /// (local improvements that stay in bucket `k` when fusion is on) are
    /// processed within this superstep and recorded in `settled` so the
    /// heavy phase covers them too.
    fn push_iteration(&mut self, ctx: &mut RankCtx, k: usize, frontier: Vec<u32>) {
        let me = ctx.rank();
        let delta = self.delta;
        let cascade = self.opts.bucket_fusion;
        let graph = self.graph;
        let mut xbufs = std::mem::take(&mut self.xbufs);
        let mut stack = frontier;
        let mut relaxed = 0u64;

        while let Some(u) = stack.pop() {
            let du = self.sp.dist[u as usize];
            let u_global = graph.part().to_global(me, u as usize);
            let vs = graph.neighbors(u as usize);
            let ws = graph.edge_weights(u as usize);
            for (&v, &w) in vs.iter().zip(ws) {
                if w >= delta {
                    continue;
                }
                relaxed += 1;
                let nd = du + w;
                let owner = graph.part().owner(v);
                if owner == me {
                    let l = graph.part().to_local(v);
                    if nd < self.sp.dist[l] {
                        self.sp.dist[l] = nd;
                        self.sp.parent[l] = u_global;
                        if cascade && (nd / delta) as usize == k {
                            // process within this superstep; it settles in
                            // bucket k, so the heavy phase must see it
                            if self.settled_seen[l] != self.settled_epoch {
                                self.settled_seen[l] = self.settled_epoch;
                                self.settled.push(l as u32);
                            }
                            stack.push(l as u32);
                        } else {
                            self.buckets.insert(l as u32, nd);
                        }
                    }
                } else {
                    xbufs.bucket_mut(owner).push((v, nd, u_global));
                }
            }
        }
        self.stats.relaxations += relaxed;
        ctx.charge_compute(relaxed);

        self.exchange_and_apply(ctx, xbufs);
    }

    /// One pull-mode light iteration: broadcast the frontier, scan local
    /// unsettled adjacency. All improvements are local — zero point-to-point
    /// update traffic.
    fn pull_iteration(&mut self, ctx: &mut RankCtx, k: usize, frontier: &[u32]) {
        let me = ctx.rank();
        let delta = self.delta;
        let graph = self.graph;
        let mine: Vec<(u64, f32)> = frontier
            .iter()
            .map(|&v| {
                (
                    graph.part().to_global(me, v as usize),
                    self.sp.dist[v as usize],
                )
            })
            .collect();
        let blocks = ctx.allgatherv(&mine);
        // Min-merge the per-rank frontier blocks in the (possibly fuzzed)
        // delivery order — the min makes the merge order-free.
        let order = ctx.delivery_order(blocks.len());
        let mut fmap: HashMap<u64, f32> = HashMap::new();
        for s in order {
            for &(v, d) in &blocks[s] {
                fmap.entry(v).and_modify(|e| *e = e.min(d)).or_insert(d);
            }
        }
        ctx.charge_compute(fmap.len() as u64);

        let bucket_floor = k as f32 * delta;
        let n_local = graph.local_vertices();
        ctx.trace_begin(TraceCode::TaskWave, n_local as u64, 0);
        // Parallel scan: each local vertex reads only the frozen frontier
        // map and its *own* distance slot, so vertices are independent. The
        // per-vertex improvement chain (running best + every strict-
        // improvement event, which must all reach the bucket queue — stale
        // entries drive the superstep count) is replayed sequentially in
        // `l` order below, reproducing the sequential schedule bitwise at
        // any thread count.
        let dist = &self.sp.dist;
        let mut per_l = std::mem::take(&mut self.pull_scratch);
        (0..n_local)
            .into_par_iter()
            .with_min_len(256)
            .map(|l| {
                if dist[l] < bucket_floor {
                    return (0, None); // settled in an earlier bucket
                }
                let mut scanned = 0u64;
                let mut dl = dist[l];
                let mut pl = u64::MAX;
                let mut events: Vec<f32> = Vec::new();
                let ts = graph.neighbors(l);
                let ws = graph.edge_weights(l);
                for (&t, &w) in ts.iter().zip(ws) {
                    scanned += 1;
                    if w >= delta {
                        continue;
                    }
                    if let Some(&fd) = fmap.get(&t) {
                        let cand = fd + w;
                        if cand < dl {
                            dl = cand;
                            pl = t;
                            events.push(cand);
                        }
                    }
                }
                let upd = (!events.is_empty()).then_some((dl, pl, events));
                (scanned, upd)
            })
            .collect_into_vec(&mut per_l);

        let mut scanned = 0u64;
        for (l, (s, upd)) in per_l.iter_mut().enumerate() {
            scanned += *s;
            if let Some((dl, pl, events)) = upd.take() {
                self.sp.dist[l] = dl;
                self.sp.parent[l] = pl;
                for cand in events {
                    self.buckets.insert(l as u32, cand);
                }
            }
        }
        self.pull_scratch = per_l;
        self.stats.relaxations += scanned;
        ctx.charge_compute(scanned);
        ctx.trace_end(TraceCode::TaskWave, n_local as u64, 0);
    }

    /// Heavy-edge phase: one push pass over the bucket's settled set.
    fn heavy_phase(&mut self, ctx: &mut RankCtx, settled: &[u32]) {
        let me = ctx.rank();
        let delta = self.delta;
        let graph = self.graph;
        let mut xbufs = std::mem::take(&mut self.xbufs);
        // Parallel candidate scan. Distances of settled vertices cannot
        // change during this phase (for settled u, du < (k+1)δ, and any
        // heavy relaxation delivers nd = du' + w ≥ kδ + δ, which `apply`
        // rejects against dist < (k+1)δ), so the scan reads a frozen view.
        // Candidates are re-walked sequentially in (source, arc) order
        // below, so local applies and per-destination buffers are byte-
        // identical to the sequential schedule at any thread count.
        ctx.trace_begin(TraceCode::TaskWave, settled.len() as u64, 1);
        let dist = &self.sp.dist;
        let mut per_chunk = std::mem::take(&mut self.heavy_scratch);
        settled
            .par_chunks(256)
            .map(|chunk| {
                let mut relaxed = 0u64;
                let mut cands: Vec<(u64, f32, u64, usize)> = Vec::new();
                for &u in chunk {
                    let du = dist[u as usize];
                    let u_global = graph.part().to_global(me, u as usize);
                    let vs = graph.neighbors(u as usize);
                    let ws = graph.edge_weights(u as usize);
                    for (&v, &w) in vs.iter().zip(ws) {
                        if w < delta {
                            continue;
                        }
                        relaxed += 1;
                        cands.push((v, du + w, u_global, graph.part().owner(v)));
                    }
                }
                (relaxed, cands)
            })
            .collect_into_vec(&mut per_chunk);

        let mut relaxed = 0u64;
        for (r, cands) in per_chunk.iter_mut() {
            relaxed += *r;
            for (v, nd, u_global, owner) in cands.drain(..) {
                if owner == me {
                    self.apply(v, nd, u_global);
                } else {
                    xbufs.bucket_mut(owner).push((v, nd, u_global));
                }
            }
        }
        self.heavy_scratch = per_chunk;
        self.stats.relaxations += relaxed;
        ctx.charge_compute(relaxed);
        ctx.trace_end(TraceCode::TaskWave, settled.len() as u64, 1);

        self.exchange_and_apply(ctx, xbufs);
    }

    /// Fused Bellman-Ford tail: once the global residue is tiny, bucket
    /// discipline only adds synchronization — drain everything and relax to
    /// fixpoint, all edge classes at once.
    fn fused_tail(&mut self, ctx: &mut RankCtx) {
        self.frontier_epoch += 1;
        let mut frontier: Vec<u32> = Vec::new();
        for v in self.buckets.drain_all() {
            if self.sp.dist[v as usize].is_finite()
                && self.frontier_seen[v as usize] != self.frontier_epoch
            {
                self.frontier_seen[v as usize] = self.frontier_epoch;
                frontier.push(v);
            }
        }

        loop {
            let (next, remaining) =
                epoch::superstep(ctx, self, 2, move |s, ctx| s.tail_round(ctx, frontier));
            if remaining == 0 {
                break;
            }
            frontier = next;
        }
        // Buckets were drained; `drain_all` plus direct dist writes keep the
        // queue empty, so the caller ends the search without another vote.
    }

    /// One round-synchronous Bellman-Ford round of the fused tail over
    /// `frontier`, all edge classes at once. Returns the next round's
    /// frontier and its agreed global size.
    fn tail_round(&mut self, ctx: &mut RankCtx, mut stack: Vec<u32>) -> (Vec<u32>, u64) {
        let me = ctx.rank();
        let graph = self.graph;
        let mut next: Vec<u32> = Vec::new();
        let mut relaxed = 0u64;
        self.frontier_epoch += 1;
        while let Some(u) = stack.pop() {
            let du = self.sp.dist[u as usize];
            let u_global = graph.part().to_global(me, u as usize);
            let vs = graph.neighbors(u as usize);
            let ws = graph.edge_weights(u as usize);
            for (&v, &w) in vs.iter().zip(ws) {
                relaxed += 1;
                let nd = du + w;
                let owner = graph.part().owner(v);
                if owner == me {
                    let l = graph.part().to_local(v);
                    if nd < self.sp.dist[l] {
                        self.sp.dist[l] = nd;
                        self.sp.parent[l] = u_global;
                        // round-synchronous: defer to the next round.
                        // (an in-round LIFO cascade is label-correcting
                        // with worst-case re-relaxation blowup)
                        if self.frontier_seen[l] != self.frontier_epoch {
                            self.frontier_seen[l] = self.frontier_epoch;
                            next.push(l as u32);
                        }
                    }
                } else {
                    self.xbufs.bucket_mut(owner).push((v, nd, u_global));
                }
            }
        }
        self.stats.relaxations += relaxed;
        ctx.charge_compute(relaxed);

        let outcome = exchange_into(ctx, &mut self.xbufs, &self.opts);
        self.stats.updates_sent += outcome.records_sent;
        self.stats.updates_offered += outcome.records_offered;
        self.stats.supersteps += 1;
        ctx.charge_compute(self.xbufs.incoming().len() as u64);
        for &(v, nd, parent) in self.xbufs.incoming() {
            let l = graph.part().to_local(v);
            if nd < self.sp.dist[l] {
                self.sp.dist[l] = nd;
                self.sp.parent[l] = parent;
                if self.frontier_seen[l] != self.frontier_epoch {
                    self.frontier_seen[l] = self.frontier_epoch;
                    next.push(l as u32);
                }
            }
        }
        let remaining = ctx.allreduce_sum(next.len() as u64);
        (next, remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g500_baselines::dijkstra;
    use g500_graph::{Csr, Directedness, EdgeList, ShortestPaths};
    use g500_partition::{assemble_local_graph, Block1D};
    use simnet::{Machine, MachineConfig};

    fn run_dist(
        el: &EdgeList,
        n: u64,
        p: usize,
        root: u64,
        opts: OptConfig,
    ) -> (ShortestPaths, SsspRunStats) {
        let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
            let part = Block1D::new(n, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let (sp, stats) = distributed_delta_stepping(ctx, &g, root, &opts);
            (sp.gather_to_all(ctx, g.part()), stats)
        });
        rep.results.into_iter().next().expect("at least one rank")
    }

    fn exact(el: &EdgeList, n: usize, root: u64) -> ShortestPaths {
        let csr = Csr::from_edges(n, el, Directedness::Undirected);
        dijkstra(&csr, root)
    }

    #[test]
    fn all_on_matches_dijkstra_random() {
        let el = g500_gen::simple::erdos_renyi(64, 320, 13);
        let oracle = exact(&el, 64, 3);
        for p in [1, 2, 4] {
            let (sp, _) = run_dist(&el, 64, p, 3, OptConfig::all_on());
            assert!(sp.distances_match(&oracle, 1e-4), "p={p}");
        }
    }

    #[test]
    fn all_off_matches_dijkstra_random() {
        let el = g500_gen::simple::erdos_renyi(48, 200, 17);
        let oracle = exact(&el, 48, 0);
        let (sp, _) = run_dist(&el, 48, 3, 0, OptConfig::all_off());
        assert!(sp.distances_match(&oracle, 1e-4));
    }

    #[test]
    fn every_single_knob_off_still_exact() {
        let el = g500_gen::simple::erdos_renyi(56, 280, 23);
        let oracle = exact(&el, 56, 7);
        let configs = [
            OptConfig::all_on().without_coalescing(),
            OptConfig::all_on().without_dedup(),
            OptConfig::all_on().without_compression(),
            OptConfig::all_on().without_fusion(),
            OptConfig::all_on().with_direction(Direction::Push),
            OptConfig::all_on().with_direction(Direction::Pull),
        ];
        for (i, opts) in configs.into_iter().enumerate() {
            let (sp, _) = run_dist(&el, 56, 3, 7, opts);
            assert!(sp.distances_match(&oracle, 1e-4), "config {i}");
        }
    }

    #[test]
    fn kronecker_exactness() {
        let gen = g500_gen::KroneckerGenerator::new(g500_gen::KroneckerParams::graph500(8, 42));
        let el = gen.generate_all();
        let oracle = exact(&el, 256, 5);
        let (sp, stats) = run_dist(&el, 256, 4, 5, OptConfig::all_on());
        assert!(sp.distances_match(&oracle, 1e-4));
        assert!(stats.relaxations > 0);
        assert!(stats.supersteps > 0);
    }

    #[test]
    fn fixed_delta_values_all_exact() {
        let el = g500_gen::simple::erdos_renyi(40, 180, 29);
        let oracle = exact(&el, 40, 1);
        for delta in [0.02f32, 0.1, 0.5, 10.0] {
            let (sp, _) = run_dist(&el, 40, 2, 1, OptConfig::all_on().with_delta(delta));
            assert!(sp.distances_match(&oracle, 1e-4), "delta {delta}");
        }
    }

    #[test]
    fn disconnected_root_touches_only_component() {
        let el = g500_gen::simple::path(6, 0.4); // vertices 6..9 isolated
        let (sp, _) = run_dist(&el, 10, 2, 0, OptConfig::all_on());
        assert_eq!(sp.reached_count(), 6);
        assert!(sp.dist[7].is_infinite());
    }

    #[test]
    fn fusion_reduces_supersteps_on_paths() {
        // a long path is the worst case for bucket discipline; the fused
        // tail + cascade should cut the superstep count substantially
        let el = g500_gen::simple::path(64, 0.09);
        let (_, with) = run_dist(&el, 64, 2, 0, OptConfig::all_on());
        let (_, without) = run_dist(&el, 64, 2, 0, OptConfig::all_on().without_fusion());
        assert!(
            with.supersteps < without.supersteps,
            "fusion {} vs plain {}",
            with.supersteps,
            without.supersteps
        );
    }

    #[test]
    fn dedup_reduces_shipped_updates() {
        let gen = g500_gen::KroneckerGenerator::new(g500_gen::KroneckerParams::graph500(9, 4));
        let el = gen.generate_all();
        let (_, with) = run_dist(&el, 512, 4, 0, OptConfig::all_on());
        let (_, without) = run_dist(&el, 512, 4, 0, OptConfig::all_on().without_dedup());
        assert!(
            with.updates_sent <= without.updates_sent,
            "dedup shipped more: {} vs {}",
            with.updates_sent,
            without.updates_sent
        );
    }

    #[test]
    fn hybrid_uses_both_directions_on_dense_graph() {
        let el = g500_gen::simple::complete(40, 0.5);
        let (sp, stats) = run_dist(&el, 40, 2, 0, OptConfig::all_on());
        assert_eq!(sp.reached_count(), 40);
        assert!(stats.pull_iterations + stats.push_iterations > 0);
    }

    #[test]
    fn root_on_last_rank() {
        let el = g500_gen::simple::cycle(15, 0.2);
        let oracle = exact(&el, 15, 14);
        let (sp, _) = run_dist(&el, 15, 4, 14, OptConfig::all_on());
        assert!(sp.distances_match(&oracle, 1e-4));
    }

    #[test]
    fn crash_recovery_is_byte_identical_to_fault_free() {
        let el = g500_gen::simple::erdos_renyi(64, 320, 13);
        let run = |crash: Option<simnet::CrashPlan>| {
            let mut cfg = MachineConfig::with_ranks(4);
            if let Some(plan) = crash {
                cfg = cfg.crashes(plan);
            }
            let el = &el;
            Machine::new(cfg).run(move |ctx| {
                let part = Block1D::new(64, 4);
                let m = el.len();
                let (lo, hi) = (ctx.rank() * m / 4, (ctx.rank() + 1) * m / 4);
                let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                let g = assemble_local_graph(ctx, mine.into_iter(), part);
                let (sp, stats) = try_distributed_delta_stepping(ctx, &g, 3, &OptConfig::all_on())
                    .expect("in-budget crashes must be recovered");
                (sp.gather_to_all(ctx, g.part()), stats)
            })
        };
        let clean = run(None);
        let plan = simnet::CrashPlan::random(0xD1E, 0.01).with_checkpoint_interval(2);
        let crashed = run(Some(plan));
        assert!(
            crashed.total_stats().saw_crashes(),
            "the schedule must actually crash someone: {:?}",
            crashed.total_stats()
        );
        for (c, f) in clean.results.iter().zip(crashed.results.iter()) {
            let (csp, cst) = c;
            let (fsp, fst) = f;
            let cbits: Vec<u32> = csp.dist.iter().map(|d| d.to_bits()).collect();
            let fbits: Vec<u32> = fsp.dist.iter().map(|d| d.to_bits()).collect();
            assert_eq!(cbits, fbits, "distances must be byte-identical");
            assert_eq!(csp.parent, fsp.parent, "parents must be byte-identical");
            // structural counters are identical; only virtual time moves
            let strip = |s: &SsspRunStats| {
                let mut s = s.clone();
                s.sim_time_s = 0.0;
                s.compute_s = 0.0;
                s.comm_s = 0.0;
                s
            };
            assert_eq!(strip(cst), strip(fst));
        }
    }
}
