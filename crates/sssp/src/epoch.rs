//! The bucket-epoch driver shared by the delta-stepping kernels.
//!
//! The 1D, 2D and batched kernels run the same bulk-synchronous loop:
//!
//! ```text
//! loop:
//!     k ← next_bucket()        (vote; None ends the search)
//!     repeat                   (light rounds to a fixpoint)
//!         size ← frontier(k)   (drain bucket k, agree on its global size)
//!         if size = 0: break
//!         light(k)
//!     heavy(k)                 (one heavy round over what bucket k settled)
//! ```
//!
//! [`run`] owns that loop, the crash-recovery protocol around it (epoch-0
//! checkpoint after the sources are inserted, a probe plus periodic
//! checkpoint at every bucket boundary, a probe before every light round)
//! and the `Bucket` trace span with its counters. [`superstep`] owns the
//! `Superstep` span and its counters. A kernel supplies the four steps and
//! its checkpointable state through [`EpochKernel`]; it never touches
//! [`Recovery`] or the bucket and superstep trace codes itself.

use g500_graph::Weight;
use simnet::recovery::{codec, Checkpoint, FaultEscalation, Recovery};
use simnet::{RankCtx, TraceCode};

/// One delta-stepping kernel as seen by the driver. Each method is
/// collective: every rank calls it at the same point with the same `k`.
pub(crate) trait EpochKernel: Checkpoint {
    /// Vote on the next bucket index and run whatever the kernel does
    /// before an epoch. `None` ends the search.
    fn next_bucket(&mut self, ctx: &mut RankCtx) -> Option<u64>;
    /// Drain bucket `k` into the next light round's frontier and return
    /// the agreed global frontier size; 0 ends the light rounds.
    fn frontier(&mut self, ctx: &mut RankCtx, k: u64) -> u64;
    /// One light round over the frontier [`EpochKernel::frontier`] drained.
    fn light(&mut self, ctx: &mut RankCtx, k: u64);
    /// The heavy round over everything bucket `k` settled.
    fn heavy(&mut self, ctx: &mut RankCtx, k: u64);
    /// Supersteps completed and relaxations performed so far.
    fn progress(&self) -> (u64, u64);
}

/// Run `kernel`'s bucket epochs to the end of the search. Under a
/// [`CrashPlan`](simnet::CrashPlan) the state is checkpointed at bucket
/// boundaries and rolled back on an agreed crash verdict; a crash schedule
/// the budget cannot absorb returns `Err` on every rank from the same
/// collective point.
pub(crate) fn run<K: EpochKernel>(
    ctx: &mut RankCtx,
    kernel: &mut K,
) -> Result<(), FaultEscalation> {
    // The epoch-0 checkpoint captures the source insertion, so a rollback
    // all the way back restarts the search rather than losing it.
    let mut rec = Recovery::begin(ctx, kernel);
    'epoch: loop {
        if let Some(r) = rec.as_mut() {
            // Bucket boundary: crash probe + periodic checkpoint. On a
            // restore the rolled-back state re-enters the loop here.
            if r.bucket_boundary(ctx, kernel)? {
                continue 'epoch;
            }
        }
        let Some(k) = kernel.next_bucket(ctx) else {
            break;
        };
        ctx.trace_begin(TraceCode::Bucket, k, 0);
        let start = ctx
            .trace_enabled()
            .then(|| (ctx.stats().compute_s, ctx.stats().comm_s));
        let mut frontier = 0u64;
        loop {
            if let Some(r) = rec.as_mut() {
                // A mid-bucket crash rolls back to the last bucket-boundary
                // checkpoint: close the open span and restart the epoch.
                if r.probe(ctx, kernel)? {
                    ctx.trace_end(TraceCode::Bucket, k, 0);
                    continue 'epoch;
                }
            }
            let size = kernel.frontier(ctx, k);
            if size == 0 {
                break;
            }
            frontier += size;
            kernel.light(ctx, k);
        }
        kernel.heavy(ctx, k);
        if let Some((c0, m0)) = start {
            let dc = ctx.stats().compute_s - c0;
            let dm = ctx.stats().comm_s - m0;
            ctx.trace_count(TraceCode::BucketFrontier, frontier, k);
            ctx.trace_count_f64(TraceCode::BucketCompute, dc, k);
            ctx.trace_count_f64(TraceCode::BucketComm, dm, k);
        }
        ctx.trace_end(TraceCode::Bucket, k, 0);
    }
    if let Some(r) = rec {
        r.finish(ctx);
    }
    Ok(())
}

/// Run one superstep of `kernel` inside a `Superstep` span (`a` = the
/// superstep index it starts at, `b` = `flavor`: 0 light, 1 heavy, 2 fused
/// tail) and, when tracing, emit its compute, communication and relaxation
/// counters.
pub(crate) fn superstep<K: EpochKernel, R>(
    ctx: &mut RankCtx,
    kernel: &mut K,
    flavor: u64,
    body: impl FnOnce(&mut K, &mut RankCtx) -> R,
) -> R {
    let (step, relaxed) = kernel.progress();
    let start = ctx
        .trace_enabled()
        .then(|| (ctx.stats().compute_s, ctx.stats().comm_s));
    ctx.trace_begin(TraceCode::Superstep, step, flavor);
    let out = body(kernel, ctx);
    ctx.trace_end(TraceCode::Superstep, step, flavor);
    if let Some((c0, m0)) = start {
        let dc = ctx.stats().compute_s - c0;
        let dm = ctx.stats().comm_s - m0;
        let dr = kernel.progress().1 - relaxed;
        ctx.trace_count_f64(TraceCode::SuperstepCompute, dc, flavor);
        ctx.trace_count_f64(TraceCode::SuperstepComm, dm, flavor);
        ctx.trace_count(TraceCode::Relaxations, dr, flavor);
    }
    out
}

/// Append a distance/parent pair to a checkpoint. Distances go as raw bit
/// patterns, so infinities and the bitwise identity of every distance
/// survive the round trip.
pub(crate) fn save_paths(dist: &[Weight], parent: &[u64], out: &mut Vec<u8>) {
    let bits: Vec<u32> = dist.iter().map(|d| d.to_bits()).collect();
    codec::put_u32_slice(out, &bits);
    codec::put_u64_slice(out, parent);
}

/// Restore a distance/parent pair written by [`save_paths`].
pub(crate) fn load_paths(
    dist: &mut Vec<Weight>,
    parent: &mut Vec<u64>,
    buf: &[u8],
    pos: &mut usize,
) {
    *dist = codec::get_u32_vec(buf, pos)
        .into_iter()
        .map(Weight::from_bits)
        .collect();
    *parent = codec::get_u64_vec(buf, pos);
}
