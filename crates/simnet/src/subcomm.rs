//! Sub-communicators (the `MPI_Comm_split` of the simulated machine).
//!
//! 2D-partitioned graph kernels communicate within process-grid *rows* and
//! *columns*; that requires collectives scoped to a subset of ranks. A
//! [`SubComm`] is created collectively by [`RankCtx::split`]: ranks passing
//! the same `color` form one group, ordered by `(key, global rank)`.
//!
//! Collectives on a subgroup run the very same schedules as the global ones
//! (recursive-doubling allreduce, Bruck allgatherv, direct all-to-all; see
//! [`crate::collectives`]): the schedule code takes the group's membership
//! table to translate sub-ranks to global ranks, and a tag base from a
//! per-communicator namespace so concurrent subgroups never collide.

use crate::collectives::Group;
use crate::rank::{RankCtx, Tag};
use crate::trace::TraceCode;
use crate::wire::Wire;

/// Tags at or above this value are reserved for sub-communicator traffic
/// (disjoint from both user tags and global-collective tags).
const TAG_SUBCOMM_BASE: Tag = 1 << 52;

/// A subgroup of ranks with its own rank numbering and collective tag space.
#[derive(Clone, Debug)]
pub struct SubComm {
    /// Global rank of each member, ordered by (key, global rank).
    members: Vec<usize>,
    /// This rank's index within `members`.
    me: usize,
    /// Namespace id, identical on all members of this communicator.
    comm_id: u64,
    /// Per-communicator collective sequence counter.
    seq: u64,
}

impl RankCtx {
    /// Collectively split the job into subgroups by `color`; within a
    /// group, ranks are ordered by `(key, global rank)`. Every rank must
    /// call; returns this rank's group.
    pub fn split(&mut self, color: u64, key: u64) -> SubComm {
        let me = self.rank();
        let triples = self.allgatherv(&[(color, key, me as u64)]);
        let comm_id = self.next_subcomm_id();
        let mut mine: Vec<(u64, u64)> = Vec::new();
        for block in triples {
            for (c, k, r) in block {
                if c == color {
                    mine.push((k, r));
                }
            }
        }
        mine.sort_unstable();
        let members: Vec<usize> = mine.iter().map(|&(_, r)| r as usize).collect();
        let my_index = members
            .iter()
            .position(|&r| r == me)
            .expect("caller is a member of its own color group");
        // Groups born from the same split share a namespace safely: their
        // member sets are disjoint, so their messages can never meet.
        SubComm {
            members,
            me: my_index,
            comm_id,
            seq: 0,
        }
    }
}

impl SubComm {
    /// This rank's index within the subgroup.
    pub fn rank(&self) -> usize {
        self.me
    }

    /// Subgroup size.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Global rank of subgroup member `i`.
    pub fn global_rank(&self, i: usize) -> usize {
        self.members[i]
    }

    /// Run one subgroup collective: the shared schedule over this group's
    /// member table, in this invocation's tag namespace. Spans carry the
    /// sequence number and the communicator id; the collective counts once.
    fn collective<R>(
        &mut self,
        ctx: &mut RankCtx,
        code: TraceCode,
        schedule: impl FnOnce(&Group<'_>, &mut RankCtx) -> R,
    ) -> R {
        ctx.trace_begin(code, self.seq, self.comm_id);
        // seq wraps at 2^16: safe because rank skew within one communicator
        // is bounded by a single collective, so a wrapped tag can never
        // still be in flight.
        let tag_base = TAG_SUBCOMM_BASE | (self.comm_id << 32) | ((self.seq & 0xFFFF) << 16);
        let out = schedule(&Group::table(&self.members, self.me, tag_base), ctx);
        self.seq += 1;
        ctx.bump_collective();
        ctx.trace_end(code, self.seq, self.comm_id);
        out
    }

    /// Allreduce within the subgroup (recursive doubling, bitwise-identical
    /// result on every member).
    pub fn allreduce<T: Wire>(
        &mut self,
        ctx: &mut RankCtx,
        value: T,
        combine: impl Fn(&T, &T) -> T,
    ) -> T {
        self.collective(ctx, TraceCode::Allreduce, |g, ctx| {
            g.allreduce(ctx, value, combine)
        })
    }

    /// Subgroup sum of `u64`.
    pub fn allreduce_sum(&mut self, ctx: &mut RankCtx, v: u64) -> u64 {
        self.allreduce(ctx, v, |a, b| a + b)
    }

    /// Subgroup barrier.
    pub fn barrier(&mut self, ctx: &mut RankCtx) {
        ctx.trace_begin(TraceCode::Barrier, self.seq, self.comm_id);
        self.allreduce(ctx, 0u8, |_, _| 0u8);
        ctx.bump_barrier();
        ctx.trace_end(TraceCode::Barrier, self.seq, self.comm_id);
    }

    /// Allgather within the subgroup (Bruck), blocks indexed by sub-rank.
    pub fn allgatherv<T: Wire + Clone>(&mut self, ctx: &mut RankCtx, mine: &[T]) -> Vec<Vec<T>> {
        self.collective(ctx, TraceCode::Allgatherv, |g, ctx| g.allgatherv(ctx, mine))
    }

    /// Personalised all-to-all within the subgroup.
    pub fn alltoallv<T: Wire>(&mut self, ctx: &mut RankCtx, out: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.collective(ctx, TraceCode::Alltoallv, |g, ctx| g.alltoallv(ctx, out))
    }
}

#[cfg(test)]
mod tests {
    use crate::collectives::tests::{doubling, f64_input, ragged_block, xor_rot};
    use crate::fault::FaultPlan;
    use crate::machine::{Machine, MachineConfig};

    #[test]
    fn split_forms_correct_groups() {
        let rep = Machine::new(MachineConfig::with_ranks(6)).run(|ctx| {
            // rows of a 2x3 grid: color = rank / 3
            let row = ctx.split(ctx.rank() as u64 / 3, ctx.rank() as u64);
            (row.rank(), row.size(), row.global_rank(0))
        });
        assert_eq!(rep.results[0], (0, 3, 0));
        assert_eq!(rep.results[2], (2, 3, 0));
        assert_eq!(rep.results[3], (0, 3, 3));
        assert_eq!(rep.results[5], (2, 3, 3));
    }

    #[test]
    fn key_controls_ordering() {
        let rep = Machine::new(MachineConfig::with_ranks(4)).run(|ctx| {
            // reverse order by key
            let g = ctx.split(0, 100 - ctx.rank() as u64);
            g.rank()
        });
        assert_eq!(rep.results, vec![3, 2, 1, 0]);
    }

    #[test]
    fn subgroup_allreduce_is_scoped() {
        let rep = Machine::new(MachineConfig::with_ranks(6)).run(|ctx| {
            let color = (ctx.rank() % 2) as u64; // evens vs odds
            let mut g = ctx.split(color, ctx.rank() as u64);
            g.allreduce_sum(ctx, ctx.rank() as u64)
        });
        // evens: 0+2+4 = 6; odds: 1+3+5 = 9
        assert_eq!(rep.results, vec![6, 9, 6, 9, 6, 9]);
    }

    #[test]
    fn concurrent_subgroup_collectives_do_not_cross() {
        // rows and columns of a 2x2 grid, used alternately
        let rep = Machine::new(MachineConfig::with_ranks(4)).run(|ctx| {
            let r = ctx.rank();
            let mut row = ctx.split((r / 2) as u64, r as u64);
            let mut col = ctx.split((r % 2) as u64, r as u64);
            let a = row.allreduce_sum(ctx, r as u64 + 1);
            let b = col.allreduce_sum(ctx, r as u64 + 1);
            let c = row.allreduce_sum(ctx, 10);
            (a, b, c)
        });
        // rows {0,1} {2,3}: sums 3, 7; cols {0,2} {1,3}: sums 4, 6
        assert_eq!(
            rep.results,
            vec![(3, 4, 20), (3, 6, 20), (7, 4, 20), (7, 6, 20)]
        );
    }

    #[test]
    fn subgroup_allgatherv_and_alltoallv() {
        let rep = Machine::new(MachineConfig::with_ranks(6)).run(|ctx| {
            let color = (ctx.rank() / 3) as u64;
            let mut g = ctx.split(color, ctx.rank() as u64);
            let gathered = g.allgatherv(ctx, &[ctx.rank() as u64]);
            let out: Vec<Vec<u64>> = (0..g.size())
                .map(|d| vec![(ctx.rank() * 10 + d) as u64])
                .collect();
            let exchanged = g.alltoallv(ctx, out);
            (gathered, exchanged)
        });
        let (gathered, exchanged) = &rep.results[4]; // rank 4 = group 1, sub-rank 1
        assert_eq!(gathered.concat(), vec![3, 4, 5]);
        assert_eq!(exchanged.concat(), vec![31, 41, 51]);
    }

    #[test]
    fn singleton_groups_work() {
        let rep = Machine::new(MachineConfig::with_ranks(3)).run(|ctx| {
            let mut g = ctx.split(ctx.rank() as u64, 0); // everyone alone
            assert_eq!(g.size(), 1);
            g.barrier(ctx);
            g.allreduce_sum(ctx, 42)
        });
        assert_eq!(rep.results, vec![42, 42, 42]);
    }

    /// Sub-communicators of sizes 1..=6 carved out of a 21-rank job, in
    /// reverse key order so sub-ranks differ from global ranks: the
    /// allreduce is bitwise identical on every member and evaluates the
    /// same tree as the global schedule; the allgatherv returns ragged,
    /// empty and large blocks in sub-rank order; fuzzed delivery over
    /// lossy links changes nothing.
    #[test]
    fn subgroup_schedules_match_the_global_ones() {
        let job = |ctx: &mut crate::RankCtx| {
            let r = ctx.rank();
            // group c holds ranks c(c+1)/2 .. (c+1)(c+2)/2: c + 1 members
            let color = (0..6).rfind(|c| c * (c + 1) / 2 <= r).expect("r < 21");
            let mut g = ctx.split(color as u64, u64::MAX - r as u64);
            let me = g.rank();
            let sum = g.allreduce(ctx, f64_input(me), |a, b| a + b).to_bits();
            let x = g.allreduce(ctx, me as u64 + 1, xor_rot);
            let blocks = g.allgatherv(ctx, &ragged_block(me));
            g.barrier(ctx);
            (g.size(), sum, x, blocks)
        };
        let clean = Machine::new(MachineConfig::with_ranks(21)).run(job);
        for (size, sum, x, blocks) in &clean.results {
            let f: Vec<f64> = (0..*size).map(f64_input).collect();
            let v: Vec<u64> = (1..=*size as u64).collect();
            assert_eq!(*sum, doubling(&f, |a, b| a + b).to_bits());
            assert_eq!(*x, doubling(&v, xor_rot));
            let expect: Vec<_> = (0..*size).map(ragged_block).collect();
            assert_eq!(blocks, &expect);
        }
        let lossy = FaultPlan::none()
            .with_seed(3)
            .with_drop(0.1)
            .with_duplicate(0.05)
            .with_corrupt(0.05);
        let fuzzed =
            Machine::new(MachineConfig::with_ranks(21).deterministic(5).faults(lossy)).run(job);
        assert_eq!(fuzzed.results, clean.results);
    }
}
