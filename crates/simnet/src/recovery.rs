//! Crash recovery: superstep-boundary checkpoints, deterministic failure
//! detection, and restore-and-replay.
//!
//! The paper's record runs hold 40M cores for hours; at that scale process
//! death is a *when*, not an *if*. This module extends the fault model of
//! [`crate::fault`] from lossy links to dying ranks, recovered with the
//! classic coordinated checkpoint/rollback discipline:
//!
//! * **Checkpoints** are taken at superstep boundaries (collectively
//!   consistent points of the kernel loop), every
//!   [`CrashPlan::checkpoint_interval`] supersteps. Each rank encodes its
//!   mutable kernel state through the [`Checkpoint`] trait, keeps the bytes
//!   locally, and ships a replica to its *buddy* rank `(r + 1) % p` — the
//!   in-memory equivalent of buddy-node checkpointing.
//! * **Detection** is deterministic: at every probe point each rank draws
//!   its seeded [`CrashLottery`], then all
//!   ranks run an *agreement round* (an OR-allreduce of the crash bitmask)
//!   so every survivor adopts the identical verdict. Survivors charge the
//!   plan's `detect_timeout_s` of virtual wait — the timeout-at-the-next-
//!   collective failure-detector model.
//! * **Restore-and-replay**: on a crash verdict every rank rolls back to
//!   the last checkpoint (the crashed rank's copy is re-shipped by its
//!   buddy after `respawn_s`), redundancy is re-established, and the loop
//!   replays. The crash lottery's draw counter is *never* rolled back, so
//!   a crash window fires exactly once and replay terminates.
//!
//! ## Determinism contract
//!
//! Under any crash schedule within [`CrashPlan::recovery_budget`], the
//! final kernel state is **byte-identical** to the fault-free run at any
//! `G500_THREADS` and under either scheduler mode: rollback restores exact
//! state (bucket queues are snapshotted verbatim, stale entries included),
//! replay re-executes the identical deterministic supersteps, and only
//! virtual time, recovery trace spans, and the crash/checkpoint counters
//! in [`crate::NetStats`] move.
//!
//! ## Escalation
//!
//! Faults the machinery cannot mask become a typed [`FaultEscalation`]:
//! a retry-budget-exhausted link (carried out of the transport by panic
//! payload and surfaced as `Err` by [`Machine::try_run`]), an exhausted
//! recovery budget, or a checkpoint lost because a rank and its buddy died
//! in the same window. Recovery errors are *agreement-backed*: every rank
//! computes the identical verdict from the identical mask, so every rank
//! returns the same `Err` from the same collective point — which is what
//! lets the query engine retry or shed a window in lockstep instead of
//! deadlocking.
//!
//! [`Machine::try_run`]: crate::machine::Machine::try_run

use crate::fault::{CrashLottery, CrashPlan};
use crate::rank::{RankCtx, Tag, TrafficClass};
use crate::trace::TraceCode;
use crate::transport::TransportError;

/// Tags at or above this value (and below the subcomm space at `1 << 52`)
/// are reserved for recovery traffic: checkpoint replication and restore
/// re-shipment. Disjoint from user tags (`< 1 << 48`) and from global
/// collective tags (bit 48 set, bit 49 clear for any realistic sequence
/// count).
pub const TAG_RECOVERY_BASE: Tag = 1 << 49;

/// A fault the masking layers could not absorb, escalated as a typed error
/// instead of a raw panic so drivers and the query engine can degrade
/// gracefully.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEscalation {
    /// The reliable transport gave up on a link (retry budget exhausted or
    /// an undecodable payload). Fail-stop for the whole job: peers may be
    /// mid-collective, so no consistent recovery point exists.
    Transport(TransportError),
    /// More rank crashes than the recovery budget allows. Returned
    /// identically by every rank from the agreement round.
    RecoveryBudgetExhausted {
        /// The plan's recovery budget.
        budget: u32,
        /// Crashes counted so far (including the ones in this verdict).
        crashes: u32,
        /// Superstep epoch at which the budget died.
        epoch: u64,
    },
    /// A rank and the buddy holding its checkpoint died in the same
    /// window, so the snapshot is unrecoverable. (With one rank there is
    /// no buddy and any crash is immediately fatal.)
    CheckpointLost {
        /// The crashed rank whose state is gone.
        rank: usize,
        /// The buddy that held its replica.
        buddy: usize,
    },
}

impl std::fmt::Display for FaultEscalation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Delegates to TransportError so the historical diagnosable
            // message text ("retry budget exhausted on link ...") survives
            // the move from panic to typed error.
            FaultEscalation::Transport(e) => write!(f, "{e}"),
            FaultEscalation::RecoveryBudgetExhausted {
                budget,
                crashes,
                epoch,
            } => write!(
                f,
                "recovery budget exhausted: {crashes} rank crash(es) exceed budget {budget} \
                 at superstep epoch {epoch}"
            ),
            FaultEscalation::CheckpointLost { rank, buddy } => write!(
                f,
                "checkpoint lost: rank {rank} and its checkpoint buddy {buddy} crashed in \
                 the same window"
            ),
        }
    }
}

impl std::error::Error for FaultEscalation {}

/// Kernel state that can be snapshotted and rolled back. Implementations
/// must round-trip exactly: `load(save(x))` restores byte-identical state,
/// including "cosmetic" internals like stale bucket-queue entries, because
/// replay determinism is defined as bitwise equality with the fault-free
/// run.
pub trait Checkpoint {
    /// Append this state's complete encoding to `out`.
    fn save(&self, out: &mut Vec<u8>);
    /// Replace this state from an encoding produced by [`Checkpoint::save`].
    fn load(&mut self, buf: &[u8]);
}

/// Little-endian length-prefixed primitives for [`Checkpoint`]
/// implementations (and their round-trip property tests). Decoders panic
/// on malformed input: a corrupt checkpoint is a logic error inside the
/// simulator, not a recoverable condition.
pub mod codec {
    /// Append a `u64`.
    pub fn put_u64(out: &mut Vec<u8>, x: u64) {
        out.extend_from_slice(&x.to_le_bytes());
    }

    /// Read a `u64` at `*pos`, advancing it.
    pub fn get_u64(buf: &[u8], pos: &mut usize) -> u64 {
        let x = u64::from_le_bytes(
            buf[*pos..*pos + 8]
                .try_into()
                .expect("checkpoint truncated"),
        );
        *pos += 8;
        x
    }

    /// Append an `f64` as its bit pattern (NaN-exact).
    pub fn put_f64(out: &mut Vec<u8>, x: f64) {
        put_u64(out, x.to_bits());
    }

    /// Read an `f64` bit pattern at `*pos`, advancing it.
    pub fn get_f64(buf: &[u8], pos: &mut usize) -> f64 {
        f64::from_bits(get_u64(buf, pos))
    }

    /// Append a length-prefixed `u64` slice.
    pub fn put_u64_slice(out: &mut Vec<u8>, xs: &[u64]) {
        put_u64(out, xs.len() as u64);
        for &x in xs {
            put_u64(out, x);
        }
    }

    /// Read a length-prefixed `u64` vector.
    pub fn get_u64_vec(buf: &[u8], pos: &mut usize) -> Vec<u64> {
        let n = get_u64(buf, pos) as usize;
        (0..n).map(|_| get_u64(buf, pos)).collect()
    }

    /// Append a length-prefixed `u32` slice.
    pub fn put_u32_slice(out: &mut Vec<u8>, xs: &[u32]) {
        put_u64(out, xs.len() as u64);
        for &x in xs {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Read a length-prefixed `u32` vector.
    pub fn get_u32_vec(buf: &[u8], pos: &mut usize) -> Vec<u32> {
        let n = get_u64(buf, pos) as usize;
        (0..n)
            .map(|_| {
                let x = u32::from_le_bytes(
                    buf[*pos..*pos + 4]
                        .try_into()
                        .expect("checkpoint truncated"),
                );
                *pos += 4;
                x
            })
            .collect()
    }

    /// Append a length-prefixed `f64` slice (bit patterns).
    pub fn put_f64_slice(out: &mut Vec<u8>, xs: &[f64]) {
        put_u64(out, xs.len() as u64);
        for &x in xs {
            put_f64(out, x);
        }
    }

    /// Read a length-prefixed `f64` vector.
    pub fn get_f64_vec(buf: &[u8], pos: &mut usize) -> Vec<f64> {
        let n = get_u64(buf, pos) as usize;
        (0..n).map(|_| get_f64(buf, pos)).collect()
    }

    /// Append a length-prefixed bool slice (one byte each; checkpoints are
    /// transient in-memory objects, simplicity beats bit-packing).
    pub fn put_bool_slice(out: &mut Vec<u8>, xs: &[bool]) {
        put_u64(out, xs.len() as u64);
        out.extend(xs.iter().map(|&b| b as u8));
    }

    /// Read a length-prefixed bool vector.
    pub fn get_bool_vec(buf: &[u8], pos: &mut usize) -> Vec<bool> {
        let n = get_u64(buf, pos) as usize;
        let v = buf[*pos..*pos + n].iter().map(|&b| b != 0).collect();
        *pos += n;
        v
    }
}

/// Per-rank crash machinery that outlives individual kernel runs (the
/// query engine runs many windows against one [`RankCtx`]): the lottery's
/// monotone draw stream, the job-wide restore budget, and the recovery tag
/// namespace. Lives inside `RankCtx`; updated only at collectively
/// consistent points, so its fields agree across ranks wherever agreement
/// matters (`restores_used`, `recovery_seq`).
pub(crate) struct CrashState {
    pub(crate) plan: CrashPlan,
    pub(crate) lottery: CrashLottery,
    /// Crashes recovered so far across the whole job (agreed verdicts, so
    /// identical on every rank).
    pub(crate) restores_used: u32,
    /// Monotone namespace counter for recovery-traffic tags.
    pub(crate) recovery_seq: u64,
}

impl CrashState {
    pub(crate) fn new(plan: CrashPlan, rank: usize) -> Self {
        CrashState {
            plan,
            lottery: CrashLottery::for_rank(&plan, rank),
            restores_used: 0,
            recovery_seq: 0,
        }
    }
}

/// One kernel run's checkpoint/restore driver. Obtained from
/// [`Recovery::begin`] at kernel entry (`None` when the machine has no
/// crash plan — the fault-free path stays zero-cost); the kernel then
/// calls [`Recovery::bucket_boundary`] at the top of its outer bucket loop
/// and optionally [`Recovery::probe`] at inner superstep boundaries. Both
/// return `Ok(true)` when a crash was recovered and the caller must
/// restart its outer loop from the restored state.
pub struct Recovery {
    interval: u64,
    /// Supersteps completed (successful probes) since kernel entry.
    epoch: u64,
    /// Epoch of the checkpoint currently held.
    ckpt_epoch: u64,
    /// This rank's own snapshot at `ckpt_epoch`.
    my_ckpt: Vec<u8>,
    /// The snapshot of rank `(me - 1 + p) % p`, held as its buddy.
    buddy_ckpt: Vec<u8>,
    /// Pre-crash epoch the current replay must re-reach (closes the
    /// `Replay` trace span).
    replay_until: Option<u64>,
}

impl Recovery {
    /// Start recovery for one kernel run: `None` when the machine has no
    /// active [`CrashPlan`], otherwise takes the epoch-0 checkpoint of
    /// `state` and returns the driver.
    pub fn begin(ctx: &mut RankCtx, state: &dyn Checkpoint) -> Option<Recovery> {
        ctx.crash_interval().map(|interval| {
            let mut rec = Recovery {
                interval,
                epoch: 0,
                ckpt_epoch: 0,
                my_ckpt: Vec::new(),
                buddy_ckpt: Vec::new(),
                replay_until: None,
            };
            rec.take_checkpoint(ctx, state);
            rec
        })
    }

    /// Superstep-boundary hook for the outer bucket loop: runs a crash
    /// probe, and — when no crash fired — takes a periodic checkpoint.
    /// `Ok(true)` means a restore happened and the caller must re-enter
    /// its outer loop against the rolled-back state.
    pub fn bucket_boundary(
        &mut self,
        ctx: &mut RankCtx,
        state: &mut dyn Checkpoint,
    ) -> Result<bool, FaultEscalation> {
        let restored = self.probe(ctx, state)?;
        if !restored && self.epoch - self.ckpt_epoch >= self.interval {
            self.take_checkpoint(ctx, state);
        }
        Ok(restored)
    }

    /// Crash probe at any collectively consistent point: every rank draws
    /// its lottery, the verdict is agreed by an OR-allreduce of the crash
    /// bitmask, and on a crash all ranks roll `state` back to the last
    /// checkpoint. Returns `Ok(true)` after a restore.
    pub fn probe(
        &mut self,
        ctx: &mut RankCtx,
        state: &mut dyn Checkpoint,
    ) -> Result<bool, FaultEscalation> {
        let p = ctx.size();
        let me = ctx.rank();
        let i_die = ctx.crash_draw();
        // Agreement round: one OR-allreduce word per 64 ranks. Every rank
        // computes the verdict from the identical mask.
        let words = p.div_ceil(64);
        let mut mask = vec![0u64; words];
        if i_die {
            mask[me / 64] |= 1 << (me % 64);
        }
        for w in mask.iter_mut() {
            *w = ctx.allreduce(*w, |a, b| *a | *b);
        }
        let crashed: Vec<usize> = (0..p)
            .filter(|r| (mask[r / 64] >> (r % 64)) & 1 == 1)
            .collect();
        if crashed.is_empty() {
            self.epoch += 1;
            self.close_replay(ctx);
            return Ok(false);
        }
        self.recover(ctx, state, &crashed)?;
        Ok(true)
    }

    /// Close the replay span once the pre-crash epoch is re-reached.
    fn close_replay(&mut self, ctx: &mut RankCtx) {
        if let Some(t) = self.replay_until {
            if self.epoch >= t {
                ctx.trace_end(TraceCode::Replay, t, self.epoch);
                self.replay_until = None;
            }
        }
    }

    /// Finish the kernel run, closing a replay span left open by a crash
    /// near the end of the loop.
    pub fn finish(mut self, ctx: &mut RankCtx) {
        if let Some(t) = self.replay_until.take() {
            ctx.trace_end(TraceCode::Replay, t, self.epoch);
        }
    }

    /// Encode `state`, keep it, and replicate it to the buddy rank.
    fn take_checkpoint(&mut self, ctx: &mut RankCtx, state: &dyn Checkpoint) {
        let mut buf = Vec::new();
        state.save(&mut buf);
        let bytes = buf.len() as u64;
        ctx.trace_begin(TraceCode::CheckpointWrite, bytes, self.epoch);
        // Encoding cost: modeled as one op per word serialized.
        ctx.charge_compute(bytes / 8 + 1);
        self.my_ckpt = buf;
        self.ckpt_epoch = self.epoch;
        self.replicate(ctx);
        let s = ctx.stats_mut();
        s.checkpoints += 1;
        s.checkpoint_bytes += bytes;
        ctx.trace_end(TraceCode::CheckpointWrite, bytes, self.epoch);
    }

    /// Ship `my_ckpt` to the buddy `(me + 1) % p` and collect the
    /// predecessor's replica. Eager sends, so the ring cannot deadlock.
    fn replicate(&mut self, ctx: &mut RankCtx) {
        let p = ctx.size();
        let me = ctx.rank();
        if p == 1 {
            return;
        }
        let tag = TAG_RECOVERY_BASE | (ctx.next_recovery_seq() << 1);
        let buddy = (me + 1) % p;
        let pred = (me + p - 1) % p;
        ctx.send_bytes_class(buddy, tag, self.my_ckpt.clone(), TrafficClass::Collective);
        self.buddy_ckpt = ctx.recv_bytes_class(pred, tag);
    }

    /// Execute an agreed crash verdict: budget and buddy-loss checks (the
    /// same `Err` on every rank, by construction), detection/respawn time,
    /// checkpoint re-shipment to the respawned ranks, rollback, and
    /// re-replication.
    fn recover(
        &mut self,
        ctx: &mut RankCtx,
        state: &mut dyn Checkpoint,
        crashed: &[usize],
    ) -> Result<(), FaultEscalation> {
        let p = ctx.size();
        let me = ctx.rank();
        let plan = ctx.crash_plan();
        let used = ctx.add_restores(crashed.len() as u32);
        if used > plan.recovery_budget {
            return Err(FaultEscalation::RecoveryBudgetExhausted {
                budget: plan.recovery_budget,
                crashes: used,
                epoch: self.epoch,
            });
        }
        for &c in crashed {
            let buddy = (c + 1) % p;
            if buddy == c || crashed.contains(&buddy) {
                return Err(FaultEscalation::CheckpointLost { rank: c, buddy });
            }
        }
        let pre_epoch = self.epoch;
        ctx.trace_begin(TraceCode::Restore, crashed.len() as u64, self.ckpt_epoch);
        // The failure detector: every rank spends the timeout discovering
        // the death at its next collective.
        ctx.charge_wait(plan.detect_timeout_s);
        if crashed.contains(&me) {
            // Simulated memory loss + respawn: this rank's own snapshot and
            // the replica it held for its predecessor are gone.
            ctx.charge_wait(plan.respawn_s);
            self.my_ckpt.clear();
            self.buddy_ckpt.clear();
            ctx.stats_mut().crashes += 1;
        }
        // Buddies re-ship the snapshots of the respawned ranks.
        let tag = TAG_RECOVERY_BASE | (ctx.next_recovery_seq() << 1) | 1;
        for &c in crashed {
            let buddy = (c + 1) % p;
            if me == buddy {
                ctx.send_bytes_class(c, tag, self.buddy_ckpt.clone(), TrafficClass::Collective);
            }
            if me == c {
                self.my_ckpt = ctx.recv_bytes_class(buddy, tag);
            }
        }
        // Coordinated rollback: every rank re-enters the checkpoint epoch.
        state.load(&self.my_ckpt);
        let replayed = pre_epoch - self.ckpt_epoch;
        self.epoch = self.ckpt_epoch;
        let s = ctx.stats_mut();
        s.restores += 1;
        s.replayed_supersteps += replayed;
        // Redundancy for the respawned ranks' predecessors was lost with
        // their memory; a fresh replication round restores it everywhere.
        self.replicate(ctx);
        ctx.trace_end(TraceCode::Restore, crashed.len() as u64, self.ckpt_epoch);
        match self.replay_until {
            Some(t) => self.replay_until = Some(t.max(pre_epoch)),
            None if pre_epoch > self.epoch => {
                ctx.trace_begin(TraceCode::Replay, replayed, self.epoch);
                self.replay_until = Some(pre_epoch);
            }
            None => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CrashPlan;
    use crate::machine::{Machine, MachineConfig};

    /// A little iterative SPMD kernel with checkpointable state: `step`
    /// must be part of the snapshot so rollback rewinds the loop itself.
    struct IterState {
        step: u64,
        vals: Vec<u64>,
    }

    impl Checkpoint for IterState {
        fn save(&self, out: &mut Vec<u8>) {
            codec::put_u64(out, self.step);
            codec::put_u64_slice(out, &self.vals);
        }
        fn load(&mut self, buf: &[u8]) {
            let mut pos = 0;
            self.step = codec::get_u64(buf, &mut pos);
            self.vals = codec::get_u64_vec(buf, &mut pos);
        }
    }

    fn iter_prog(ctx: &mut RankCtx) -> Result<Vec<u64>, FaultEscalation> {
        let mut st = IterState {
            step: 0,
            vals: vec![ctx.rank() as u64 + 1; 4],
        };
        let mut rec = Recovery::begin(ctx, &st);
        while st.step < 12 {
            if let Some(r) = rec.as_mut() {
                if r.bucket_boundary(ctx, &mut st)? {
                    continue; // rolled back; st.step rewound with the state
                }
            }
            let total = ctx.allreduce_sum(st.vals[0]);
            for v in st.vals.iter_mut() {
                *v = v.wrapping_mul(31).wrapping_add(total);
            }
            st.step += 1;
        }
        if let Some(r) = rec {
            r.finish(ctx);
        }
        Ok(st.vals)
    }

    #[test]
    fn forced_crash_recovers_to_fault_free_state() {
        let clean = Machine::new(MachineConfig::with_ranks(4)).run(iter_prog);
        let plan = CrashPlan::none()
            .with_forced(1, 5)
            .with_checkpoint_interval(3);
        let crashed = Machine::new(MachineConfig::with_ranks(4).crashes(plan)).run(iter_prog);
        for r in 0..4 {
            assert_eq!(
                clean.results[r], crashed.results[r],
                "rank {r}: recovery must reproduce fault-free values"
            );
        }
        let total = crashed.total_stats();
        assert_eq!(total.crashes, 1, "exactly the forced crash fires");
        assert_eq!(total.restores, 4, "all ranks roll back together");
        assert!(total.replayed_supersteps > 0, "the rollback loses work");
        assert!(total.checkpoints >= 4, "epoch-0 checkpoints at minimum");
        assert!(total.checkpoint_bytes > 0);
        assert!(
            crashed.sim_time_s > clean.sim_time_s,
            "detection, respawn, and replay must cost virtual time"
        );
    }

    #[test]
    fn crash_recovery_is_scheduler_invariant() {
        let plan = CrashPlan::random(0xC0FFEE, 0.02).with_checkpoint_interval(2);
        let threads = Machine::new(MachineConfig::with_ranks(4).crashes(plan)).run(iter_prog);
        let canon = Machine::new(MachineConfig::with_ranks(4).crashes(plan).deterministic(0))
            .run(iter_prog);
        assert_eq!(threads.results, canon.results);
        assert_eq!(
            threads.stats, canon.stats,
            "crash schedule and recovery counters must not depend on the scheduler"
        );
        assert_eq!(threads.sim_time_s.to_bits(), canon.sim_time_s.to_bits());
    }

    #[test]
    fn budget_exhaustion_returns_identical_error_on_every_rank() {
        let plan = CrashPlan::none()
            .with_forced(0, 2)
            .with_forced(2, 6)
            .with_recovery_budget(1)
            .with_checkpoint_interval(2);
        let rep = Machine::new(MachineConfig::with_ranks(4).crashes(plan)).run(iter_prog);
        let expect = &rep.results[0];
        assert!(
            matches!(
                expect,
                Err(FaultEscalation::RecoveryBudgetExhausted {
                    budget: 1,
                    crashes: 2,
                    ..
                })
            ),
            "got {expect:?}"
        );
        for r in rep.results.iter() {
            assert_eq!(r, expect, "agreement must make the verdict identical");
        }
    }

    #[test]
    fn buddy_loss_is_detected_as_checkpoint_lost() {
        // ranks 1 and 2 die in the same window: rank 2 holds rank 1's
        // replica, so rank 1's state is unrecoverable
        let plan = CrashPlan::none().with_forced(1, 3).with_forced(2, 3);
        let rep = Machine::new(MachineConfig::with_ranks(4).crashes(plan)).run(iter_prog);
        for r in rep.results.iter() {
            assert_eq!(
                r,
                &Err(FaultEscalation::CheckpointLost { rank: 1, buddy: 2 })
            );
        }
    }

    #[test]
    fn single_rank_crash_is_immediately_fatal() {
        let plan = CrashPlan::none().with_forced(0, 1);
        let rep = Machine::new(MachineConfig::with_ranks(1).crashes(plan)).run(iter_prog);
        assert_eq!(
            rep.results[0],
            Err(FaultEscalation::CheckpointLost { rank: 0, buddy: 0 })
        );
    }

    #[test]
    fn escalation_display_keeps_transport_text() {
        let e = FaultEscalation::Transport(TransportError::RetryBudgetExhausted {
            src: 0,
            dst: 1,
            tag: 0x10,
            seq: 3,
            retries: 16,
        });
        let msg = format!("{e}");
        assert!(
            msg.contains("retry budget exhausted on link 0 -> 1"),
            "{msg}"
        );
        let b = FaultEscalation::RecoveryBudgetExhausted {
            budget: 2,
            crashes: 3,
            epoch: 7,
        };
        assert!(format!("{b}").contains("recovery budget exhausted"));
        let l = FaultEscalation::CheckpointLost { rank: 1, buddy: 2 };
        assert!(format!("{l}").contains("checkpoint lost"));
    }

    #[test]
    fn codec_round_trips() {
        let mut buf = Vec::new();
        codec::put_u64(&mut buf, 42);
        codec::put_f64(&mut buf, f64::INFINITY);
        codec::put_u64_slice(&mut buf, &[1, 2, 3]);
        codec::put_u32_slice(&mut buf, &[7, 8]);
        codec::put_f64_slice(&mut buf, &[0.5, -1.25]);
        codec::put_bool_slice(&mut buf, &[true, false, true]);
        let mut pos = 0;
        assert_eq!(codec::get_u64(&buf, &mut pos), 42);
        assert_eq!(codec::get_f64(&buf, &mut pos), f64::INFINITY);
        assert_eq!(codec::get_u64_vec(&buf, &mut pos), vec![1, 2, 3]);
        assert_eq!(codec::get_u32_vec(&buf, &mut pos), vec![7, 8]);
        assert_eq!(codec::get_f64_vec(&buf, &mut pos), vec![0.5, -1.25]);
        assert_eq!(codec::get_bool_vec(&buf, &mut pos), vec![true, false, true]);
        assert_eq!(pos, buf.len());
    }
}
