//! Collective operations built from point-to-point messages.
//!
//! Every collective is implemented as an explicit message schedule over
//! [`RankCtx`] sends/receives — the same layering as a real MPI — so its
//! virtual-time cost *emerges* from the LogGP model rather than being a
//! formula: a barrier on 64 ranks costs log₂(64) = 6 message rounds
//! because that is what the recursive-doubling allreduce below actually
//! does.
//!
//! Each schedule is written once, against a [`Group`]: a member table
//! (group index → global rank) plus the tag namespace of one invocation.
//! The global collectives run it over the identity table; a
//! [`SubComm`](crate::SubComm) runs the same code over its own table.
//!
//! Tag discipline: each collective invocation claims a fresh sequence number
//! from the rank-local counter. SPMD programs call collectives in the same
//! order on every rank, so sequence numbers agree globally and back-to-back
//! collectives can never confuse each other's messages even when some ranks
//! run far ahead.

use crate::rank::{RankCtx, Tag, TrafficClass, TAG_COLLECTIVE_BASE};
use crate::trace::TraceCode;
use crate::transport::TransportError;
use crate::wire::{decode_vec_checked, encode_slice, DecodeError, Wire};

/// The ranks one collective invocation runs over, and its tag namespace.
pub(crate) struct Group<'m> {
    /// Global rank of each member in group order; `None` is the identity
    /// table of the whole job.
    members: Option<&'m [usize]>,
    /// This rank's index in the group.
    me: usize,
    /// Number of members.
    size: usize,
    /// Tag of round 0; round `r` is tagged `tag_base | r`.
    tag_base: Tag,
}

impl<'m> Group<'m> {
    /// A group over the members in `members` (global ranks, in group
    /// order), where this rank is member `me`.
    pub(crate) fn table(members: &'m [usize], me: usize, tag_base: Tag) -> Self {
        Group {
            members: Some(members),
            me,
            size: members.len(),
            tag_base,
        }
    }

    fn global(&self, i: usize) -> usize {
        self.members.map_or(i, |m| m[i])
    }

    fn tag(&self, round: u64) -> Tag {
        debug_assert!(round < 1 << 12, "collective round overflow");
        self.tag_base | round
    }

    fn send_bytes(&self, ctx: &mut RankCtx, to: usize, round: u64, payload: Vec<u8>) {
        ctx.send_bytes_class(
            self.global(to),
            self.tag(round),
            payload,
            TrafficClass::Collective,
        );
    }

    fn send<T: Wire>(&self, ctx: &mut RankCtx, to: usize, round: u64, items: &[T]) {
        self.send_bytes(ctx, to, round, encode_slice(items));
    }

    fn recv_bytes(&self, ctx: &mut RankCtx, from: usize, round: u64) -> Vec<u8> {
        ctx.recv_bytes_class(self.global(from), self.tag(round))
    }

    fn recv<T: Wire>(&self, ctx: &mut RankCtx, from: usize, round: u64) -> Vec<T> {
        let buf = self.recv_bytes(ctx, from, round);
        decode_vec_checked(&buf).unwrap_or_else(|e| self.bad_payload(ctx, from, round, e))
    }

    fn recv_one<T: Wire>(&self, ctx: &mut RankCtx, from: usize, round: u64) -> T {
        let mut v: Vec<T> = self.recv(ctx, from, round);
        assert_eq!(v.len(), 1, "expected exactly one record");
        v.pop().expect("length checked")
    }

    fn bad_payload(&self, ctx: &RankCtx, from: usize, round: u64, e: DecodeError) -> ! {
        panic!(
            "rank {}: collective payload type mismatch: {}",
            ctx.rank(),
            TransportError::Decode {
                src: self.global(from),
                dst: ctx.rank(),
                tag: self.tag(round),
                len: e.len,
                elem_size: e.elem_size,
            }
        )
    }

    /// Recursive-doubling allreduce: ⌈log₂ p⌉ rounds at a power of two.
    /// Otherwise, with `q` the largest power of two below `p`, members
    /// `q..p` first fold their value into member `r − q` and get the
    /// result back at the end: ⌊log₂ p⌋ + 2 rounds, of which only
    /// ⌈log₂ p⌉ lie on the latency-critical path.
    ///
    /// Determinism: every combine is `combine(lower block, upper block)`,
    /// so all members evaluate the same expression tree and get bitwise
    /// identical results (f64 sums included). At a power of two that tree
    /// is the binomial reduction tree.
    pub(crate) fn allreduce<T: Wire>(
        &self,
        ctx: &mut RankCtx,
        value: T,
        combine: impl Fn(&T, &T) -> T,
    ) -> T {
        let (p, me) = (self.size, self.me);
        let q = 1usize << p.ilog2();
        let fold_out = 1 + u64::from(q.ilog2());
        if me >= q {
            self.send(ctx, me - q, 0, &[value]);
            return self.recv_one(ctx, me - q, fold_out);
        }
        let mut acc = value;
        if me + q < p {
            let upper: T = self.recv_one(ctx, me + q, 0);
            acc = combine(&acc, &upper);
        }
        let mut step = 1;
        let mut round = 1;
        while step < q {
            let partner = me ^ step;
            self.send(ctx, partner, round, std::slice::from_ref(&acc));
            let other: T = self.recv_one(ctx, partner, round);
            acc = if me < partner {
                combine(&acc, &other)
            } else {
                combine(&other, &acc)
            };
            step <<= 1;
            round += 1;
        }
        if me + q < p {
            self.send(ctx, me + q, fold_out, std::slice::from_ref(&acc));
        }
        acc
    }

    /// Bruck allgather of variably-sized blocks, returned indexed by group
    /// rank: ⌈log₂ p⌉ rounds. Member `r` holds the blocks of `r, r+1, …`
    /// (mod p); in the round of step `s` it ships the first `min(s, p−s)`
    /// of them to `r − s` in one message and receives as many from
    /// `r + s`. Each block travels once per rank it reaches, so the bytes
    /// moved equal the ring schedule's.
    pub(crate) fn allgatherv<T: Wire + Clone>(&self, ctx: &mut RankCtx, mine: &[T]) -> Vec<Vec<T>> {
        let (p, me) = (self.size, self.me);
        // held[j] is the block of member (me + j) % p
        let mut held: Vec<Vec<T>> = Vec::with_capacity(p);
        held.push(mine.to_vec());
        let mut step = 1;
        let mut round = 0;
        while step < p {
            let n = step.min(p - step);
            self.send_bytes(ctx, (me + p - step) % p, round, encode_blocks(&held[..n]));
            let from = (me + step) % p;
            let buf = self.recv_bytes(ctx, from, round);
            if let Err(e) = decode_blocks(&buf, n, &mut held) {
                self.bad_payload(ctx, from, round, e);
            }
            step <<= 1;
            round += 1;
        }
        held.rotate_right(me);
        held
    }

    /// Personalised all-to-all: `out[d]` goes to member `d`; returns the
    /// blocks received, indexed by source (own block moved across directly,
    /// free of network charge). One round.
    pub(crate) fn alltoallv<T: Wire>(&self, ctx: &mut RankCtx, out: Vec<Vec<T>>) -> Vec<Vec<T>> {
        let (p, me) = (self.size, self.me);
        assert_eq!(out.len(), p, "alltoallv needs one buffer per member");
        let mut own = None;
        for (d, buf) in out.into_iter().enumerate() {
            if d == me {
                own = Some(buf);
            } else {
                self.send(ctx, d, 0, &buf);
            }
        }
        (0..p)
            .map(|s| {
                if s == me {
                    own.take().expect("own block set above")
                } else {
                    self.recv(ctx, s, 0)
                }
            })
            .collect()
    }
}

/// One Bruck round's payload: a `u64` item count per block, then every
/// block's items back to back.
fn encode_blocks<T: Wire>(blocks: &[Vec<T>]) -> Vec<u8> {
    let items: usize = blocks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(blocks.len() * u64::SIZE + items * T::SIZE);
    for b in blocks {
        (b.len() as u64).write(&mut out);
    }
    for it in blocks.iter().flatten() {
        it.write(&mut out);
    }
    out
}

/// Decode the `n` blocks of an [`encode_blocks`] payload onto `out`.
fn decode_blocks<T: Wire>(buf: &[u8], n: usize, out: &mut Vec<Vec<T>>) -> Result<(), DecodeError> {
    let err = DecodeError {
        len: buf.len(),
        elem_size: T::SIZE,
    };
    let mut pos = 0;
    let mut lens = Vec::with_capacity(n);
    for _ in 0..n {
        lens.push(u64::read(buf, &mut pos).ok_or(err)? as usize);
    }
    for len in lens {
        if len.saturating_mul(T::SIZE) > buf.len() - pos {
            return Err(err);
        }
        let mut block = Vec::with_capacity(len);
        for _ in 0..len {
            block.push(T::read(buf, &mut pos).ok_or(err)?);
        }
        out.push(block);
    }
    if pos == buf.len() {
        Ok(())
    } else {
        Err(err)
    }
}

impl RankCtx {
    /// Run one global collective: open its span, run `schedule` over the
    /// whole job in this invocation's tag namespace, then advance the
    /// sequence number and count the collective once ([`crate::NetStats`]
    /// documents that convention). Composite collectives (barrier =
    /// allreduce, reduce_scatter = alltoallv + local reduce) nest their
    /// building blocks' spans inside their own, so summary totals are
    /// *inclusive* virtual time.
    fn collective<R>(
        &mut self,
        code: TraceCode,
        schedule: impl FnOnce(&Group, &mut Self) -> R,
    ) -> R {
        let seq = self.coll_seq;
        self.trace_begin(code, seq, 0);
        let world = Group {
            members: None,
            me: self.rank(),
            size: self.size(),
            tag_base: TAG_COLLECTIVE_BASE | (seq << 12),
        };
        let out = schedule(&world, self);
        self.coll_seq += 1;
        self.bump_collective();
        self.trace_end(code, self.coll_seq, 0);
        out
    }

    /// Broadcast `value` from rank 0 to everyone via a binomial tree.
    pub fn bcast<T: Wire>(&mut self, value: Option<T>) -> T {
        self.collective(TraceCode::Bcast, |g, ctx| {
            let (p, me) = (g.size, g.me);
            let mut have: Option<T> = if me == 0 {
                Some(value.expect("rank 0 must supply the broadcast value"))
            } else {
                None
            };
            let mut step = p.next_power_of_two();
            let mut round = 0;
            while step >= 1 {
                if let Some(v) = &have {
                    if me.is_multiple_of(step * 2) && me + step < p {
                        g.send(ctx, me + step, round, std::slice::from_ref(v));
                    }
                } else if me % (step * 2) == step {
                    have = Some(g.recv_one(ctx, me - step, round));
                }
                step >>= 1;
                round += 1;
            }
            have.expect("broadcast tree reached every rank")
        })
    }

    /// Allreduce: combine every rank's `value` with the associative
    /// `combine`; every rank gets the bitwise-identical result. Recursive
    /// doubling: log₂ p rounds when p is a power of two, otherwise
    /// ⌊log₂ p⌋ butterfly rounds plus two fold rounds.
    pub fn allreduce<T: Wire>(&mut self, value: T, combine: impl Fn(&T, &T) -> T) -> T {
        self.collective(TraceCode::Allreduce, |g, ctx| {
            g.allreduce(ctx, value, combine)
        })
    }

    /// Allreduce sum of `u64`.
    pub fn allreduce_sum(&mut self, v: u64) -> u64 {
        self.allreduce(v, |a, b| a + b)
    }

    /// Allreduce sum of `f64`.
    pub fn allreduce_sum_f64(&mut self, v: f64) -> f64 {
        self.allreduce(v, |a, b| a + b)
    }

    /// Allreduce min of `u64`.
    pub fn allreduce_min(&mut self, v: u64) -> u64 {
        self.allreduce(v, |a, b| *a.min(b))
    }

    /// Allreduce max of `u64`.
    pub fn allreduce_max(&mut self, v: u64) -> u64 {
        self.allreduce(v, |a, b| *a.max(b))
    }

    /// Allreduce logical-and (consensus "everyone done?" check).
    pub fn allreduce_and(&mut self, v: bool) -> bool {
        self.allreduce(v as u64, |a, b| a & b) == 1
    }

    /// Barrier: no payload, everyone leaves only after everyone entered.
    pub fn barrier(&mut self) {
        let seq = self.coll_seq;
        self.trace_begin(TraceCode::Barrier, seq, 0);
        self.allreduce(0u8, |_, _| 0u8);
        self.bump_barrier();
        self.trace_end(TraceCode::Barrier, self.coll_seq, 0);
    }

    /// Allgather: every rank contributes a variably-sized block of `T`s;
    /// returns all blocks indexed by rank. Bruck schedule: ⌈log₂ p⌉
    /// rounds.
    pub fn allgatherv<T: Wire + Clone>(&mut self, mine: &[T]) -> Vec<Vec<T>> {
        self.collective(TraceCode::Allgatherv, |g, ctx| g.allgatherv(ctx, mine))
    }

    /// Personalised all-to-all: `out[d]` is delivered to rank `d`; returns
    /// the blocks received, indexed by source rank (own block moved across
    /// directly, free of network charge).
    pub fn alltoallv<T: Wire>(&mut self, out: Vec<Vec<T>>) -> Vec<Vec<T>> {
        self.collective(TraceCode::Alltoallv, |g, ctx| g.alltoallv(ctx, out))
    }

    /// Gather all ranks' single value at rank 0 (others return `None`).
    pub fn gather_to_root<T: Wire>(&mut self, value: T) -> Option<Vec<T>> {
        self.collective(TraceCode::GatherToRoot, |g, ctx| {
            if g.me != 0 {
                g.send(ctx, 0, 0, &[value]);
                return None;
            }
            let mut all = Vec::with_capacity(g.size);
            all.push(value);
            for s in 1..g.size {
                all.push(g.recv_one(ctx, s, 0));
            }
            Some(all)
        })
    }

    /// Exclusive prefix scan: rank `r` receives
    /// `v₀ ⊕ … ⊕ v_{r−1}` (the identity on rank 0). `combine` must be an
    /// **associative** monoid operation with `identity` as its unit (it
    /// need not be commutative — rank order is preserved). The classic use
    /// is assigning disjoint global id ranges from local counts.
    /// Hillis–Steele schedule: ⌈log₂ p⌉ rounds.
    pub fn exscan<T: Wire>(&mut self, value: T, identity: T, combine: impl Fn(&T, &T) -> T) -> T {
        self.collective(TraceCode::Exscan, |g, ctx| {
            let (p, me) = (g.size, g.me);
            // acc = inclusive scan of my prefix; result = exclusive part
            let mut acc = value;
            let mut result = identity;
            let mut round = 0;
            let mut step = 1;
            while step < p {
                if me + step < p {
                    g.send(ctx, me + step, round, std::slice::from_ref(&acc));
                }
                if me >= step {
                    let got: T = g.recv_one(ctx, me - step, round);
                    result = combine(&got, &result);
                    acc = combine(&got, &acc);
                }
                step <<= 1;
                round += 1;
            }
            result
        })
    }

    /// Exclusive prefix sum of `u64` (id-range assignment).
    pub fn exscan_sum(&mut self, v: u64) -> u64 {
        self.exscan(v, 0, |a, b| a + b)
    }

    /// Reduce-scatter: element-wise reduce `p` same-length blocks across
    /// ranks, then hand rank `r` the `r`-th reduced block. Implemented as
    /// an all-to-all of per-destination blocks followed by a local reduce —
    /// the "pairwise exchange" schedule, whose traffic (each rank ships
    /// p−1 blocks) is what a real implementation pays.
    pub fn reduce_scatter<T: Wire>(
        &mut self,
        blocks: Vec<Vec<T>>,
        combine: impl Fn(&T, &T) -> T,
    ) -> Vec<T> {
        assert_eq!(blocks.len(), self.size(), "one block per destination rank");
        self.collective(TraceCode::ReduceScatter, |_, ctx| {
            let received = ctx.alltoallv(blocks);
            let mut it = received.into_iter();
            let mut acc = it.next().expect("p >= 1 blocks");
            for block in it {
                assert_eq!(block.len(), acc.len(), "reduce_scatter blocks must align");
                for (a, b) in acc.iter_mut().zip(&block) {
                    *a = combine(a, b);
                }
            }
            acc
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use crate::cost::LogGP;
    use crate::fault::FaultPlan;
    use crate::machine::{Machine, MachineConfig};

    /// Every collective is exercised at both power-of-two and ragged rank
    /// counts — the fold rounds and the Bruck wrap-around have edge cases.
    const SIZES: [usize; 5] = [1, 2, 3, 5, 8];

    /// Combine that is sensitive to the evaluation tree: neither
    /// commutative nor associative, so two ranks agree only if they
    /// evaluated the same expression.
    pub(crate) fn xor_rot(a: &u64, b: &u64) -> u64 {
        a.rotate_left(7) ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// The binomial reduction tree the reduce-to-root + bcast allreduce
    /// used to evaluate: block `[i, i+2s)` = combine(`[i, i+s)`, `[i+s, i+2s)`).
    pub(crate) fn binomial<T: Copy>(vals: &[T], combine: impl Fn(&T, &T) -> T) -> T {
        let mut v = vals.to_vec();
        let mut step = 1;
        while step < v.len() {
            for i in (0..v.len()).step_by(2 * step) {
                if i + step < v.len() {
                    v[i] = combine(&v[i], &v[i + step]);
                }
            }
            step *= 2;
        }
        v[0]
    }

    /// The recursive-doubling tree: fold members `q..p` into `0..p−q`,
    /// then the binomial tree over the power of two `q`.
    pub(crate) fn doubling<T: Copy>(vals: &[T], combine: impl Fn(&T, &T) -> T) -> T {
        let q = 1 << vals.len().ilog2();
        let mut v = vals[..q].to_vec();
        for (i, hi) in vals[q..].iter().enumerate() {
            v[i] = combine(&v[i], hi);
        }
        binomial(&v, combine)
    }

    /// Rounding-sensitive f64 inputs: mixed magnitudes.
    pub(crate) fn f64_input(r: usize) -> f64 {
        (r as f64 + 0.1).powi(3) * if r.is_multiple_of(3) { 1e12 } else { 1e-3 }
    }

    #[test]
    fn allreduce_sum_and_min_max() {
        for p in SIZES {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let me = ctx.rank() as u64;
                (
                    ctx.allreduce_sum(me + 1),
                    ctx.allreduce_min(me + 10),
                    ctx.allreduce_max(me + 10),
                )
            });
            let expect_sum: u64 = (1..=p as u64).sum();
            for r in rep.results {
                assert_eq!(r, (expect_sum, 10, 9 + p as u64), "p={p}");
            }
        }
    }

    #[test]
    fn allreduce_and_consensus() {
        let rep = Machine::new(MachineConfig::with_ranks(4))
            .run(|ctx| (ctx.allreduce_and(true), ctx.allreduce_and(ctx.rank() != 2)));
        for r in rep.results {
            assert_eq!(r, (true, false));
        }
    }

    #[test]
    fn allreduce_f64() {
        let rep = Machine::new(MachineConfig::with_ranks(5))
            .run(|ctx| ctx.allreduce_sum_f64(0.5 * (ctx.rank() as f64 + 1.0)));
        for r in rep.results {
            assert!((r - 7.5).abs() < 1e-12);
        }
    }

    #[test]
    fn allreduce_is_bitwise_identical_on_every_rank() {
        for p in 1..=17 {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let r = ctx.rank();
                let sum = ctx.allreduce_sum_f64(f64_input(r));
                (sum.to_bits(), ctx.allreduce(r as u64 + 1, xor_rot))
            });
            let f: Vec<f64> = (0..p).map(f64_input).collect();
            let x: Vec<u64> = (1..=p as u64).collect();
            let expect = (doubling(&f, |a, b| a + b).to_bits(), doubling(&x, xor_rot));
            for (r, got) in rep.results.iter().enumerate() {
                assert_eq!(*got, expect, "p={p} rank {r}");
            }
        }
    }

    #[test]
    fn power_of_two_allreduce_keeps_the_binomial_tree() {
        for p in [1, 2, 4, 8, 16] {
            let rep = Machine::new(MachineConfig::with_ranks(p))
                .run(|ctx| ctx.allreduce_sum_f64(f64_input(ctx.rank())).to_bits());
            let f: Vec<f64> = (0..p).map(f64_input).collect();
            let old = binomial(&f, |a, b| a + b).to_bits();
            assert!(rep.results.iter().all(|&b| b == old), "p={p}");
        }
    }

    #[test]
    fn bcast_from_root() {
        for p in SIZES {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let v = if ctx.rank() == 0 { Some(1234u64) } else { None };
                ctx.bcast(v)
            });
            assert!(rep.results.iter().all(|&v| v == 1234), "p={p}");
        }
    }

    #[test]
    fn allgatherv_variable_blocks() {
        for p in SIZES {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let me = ctx.rank() as u64;
                // rank r contributes r+1 copies of r
                let mine: Vec<u64> = vec![me; ctx.rank() + 1];
                ctx.allgatherv(&mine)
            });
            for blocks in rep.results {
                assert_eq!(blocks.len(), p);
                for (r, b) in blocks.iter().enumerate() {
                    assert_eq!(b, &vec![r as u64; r + 1], "p={p} block {r}");
                }
            }
        }
    }

    /// Rank `r`'s block: empty for every third rank, large for rank 1,
    /// ragged otherwise.
    pub(crate) fn ragged_block(r: usize) -> Vec<(u32, u64)> {
        let len = match r {
            _ if r % 3 == 2 => 0,
            1 => 5000,
            _ => r * 7 + 1,
        };
        (0..len)
            .map(|i| (r as u32, i as u64 * 31 + r as u64))
            .collect()
    }

    #[test]
    fn allgatherv_empty_ragged_and_large_blocks_in_rank_order() {
        for p in 1..=17 {
            let rep = Machine::new(MachineConfig::with_ranks(p))
                .run(|ctx| ctx.allgatherv(&ragged_block(ctx.rank())));
            let expect: Vec<_> = (0..p).map(ragged_block).collect();
            for blocks in rep.results {
                assert_eq!(blocks, expect, "p={p}");
            }
        }
    }

    #[test]
    fn allgatherv_keeps_zero_sized_records() {
        let rep = Machine::new(MachineConfig::with_ranks(5))
            .run(|ctx| ctx.allgatherv(&vec![(); ctx.rank()]));
        for blocks in rep.results {
            let lens: Vec<usize> = blocks.iter().map(Vec::len).collect();
            assert_eq!(lens, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn schedules_survive_fuzzed_delivery_and_lossy_links() {
        let job = |ctx: &mut crate::RankCtx| {
            let r = ctx.rank();
            let sum = ctx.allreduce_sum_f64(f64_input(r)).to_bits();
            let x = ctx.allreduce(r as u64, xor_rot);
            let blocks = ctx.allgatherv(&ragged_block(r));
            ctx.barrier();
            (sum, x, blocks)
        };
        for p in [3, 6, 8] {
            let clean = Machine::new(MachineConfig::with_ranks(p)).run(job);
            let lossy = FaultPlan::none()
                .with_seed(7)
                .with_drop(0.1)
                .with_duplicate(0.05)
                .with_corrupt(0.05)
                .with_reorder(0.1);
            for cfg in [
                MachineConfig::with_ranks(p).deterministic(11),
                MachineConfig::with_ranks(p).deterministic(12).faults(lossy),
                MachineConfig::with_ranks(p).faults(lossy),
            ] {
                let rep = Machine::new(cfg).run(job);
                assert_eq!(rep.results, clean.results, "p={p}");
            }
        }
    }

    /// Virtual time of one collective on an idle crossbar under `loggp`
    /// (the slowest rank's clock; every rank starts at 0).
    fn idle_time(p: usize, loggp: LogGP, allgather: bool) -> f64 {
        let cfg = MachineConfig::with_ranks(p).loggp(loggp);
        Machine::new(cfg)
            .run(move |ctx| {
                if allgather {
                    ctx.allgatherv(&[ctx.rank() as u64]);
                } else {
                    ctx.allreduce_sum(1);
                }
                ctx.now()
            })
            .results
            .into_iter()
            .fold(0.0, f64::max)
    }

    #[test]
    fn collective_rounds_on_an_idle_crossbar() {
        let (lat, ovh) = (1e-6, 0.25e-6);
        // bandwidth is free, so every message costs the same
        let latency_only = LogGP {
            latency: lat,
            overhead: 0.0,
            per_byte: 0.0,
        };
        let overhead_only = LogGP {
            latency: 0.0,
            overhead: ovh,
            per_byte: 0.0,
        };
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b;
        for p in [2usize, 6, 16, 64] {
            let ceil_log = p.next_power_of_two().ilog2() as f64;
            let fold = if p.is_power_of_two() { 0.0 } else { 2.0 };
            // Latency-critical path: ⌈log₂ p⌉ hops for both schedules (the
            // fold-in overlaps the first butterfly round of the ranks
            // without a fold partner).
            for allgather in [false, true] {
                let t = idle_time(p, latency_only, allgather);
                assert!(close(t, ceil_log * lat), "p={p} gather={allgather}: {t}");
            }
            // Per-rank rounds, each one send and one receive overhead:
            // Bruck runs ⌈log₂ p⌉; the allreduce runs ⌊log₂ p⌋ butterfly
            // rounds plus the two fold rounds when p is not a power of two.
            let t = idle_time(p, overhead_only, true);
            assert!(close(t, ceil_log * 2.0 * ovh), "p={p} allgatherv: {t}");
            let rounds = p.ilog2() as f64 + fold;
            let t = idle_time(p, overhead_only, false);
            assert!(close(t, rounds * 2.0 * ovh), "p={p} allreduce: {t}");
        }
        // With both costs on, a power-of-two allreduce is log₂ p full rounds.
        let both = LogGP {
            latency: lat,
            overhead: ovh,
            per_byte: 0.0,
        };
        let t = idle_time(64, both, false);
        assert!(close(t, 6.0 * (lat + 2.0 * ovh)), "64-rank allreduce: {t}");
    }

    #[test]
    fn alltoallv_personalized_exchange() {
        for p in SIZES {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let me = ctx.rank() as u64;
                // message to rank d encodes (me, d)
                let out: Vec<Vec<(u64, u64)>> =
                    (0..ctx.size()).map(|d| vec![(me, d as u64)]).collect();
                ctx.alltoallv(out)
            });
            for (r, blocks) in rep.results.iter().enumerate() {
                for (s, b) in blocks.iter().enumerate() {
                    assert_eq!(b, &vec![(s as u64, r as u64)], "p={p}");
                }
            }
        }
    }

    #[test]
    fn gather_to_root_collects_in_rank_order() {
        let rep = Machine::new(MachineConfig::with_ranks(5))
            .run(|ctx| ctx.gather_to_root(ctx.rank() as u64 * 2));
        assert_eq!(rep.results[0], Some(vec![0, 2, 4, 6, 8]));
        assert!(rep.results[1..].iter().all(|r| r.is_none()));
    }

    #[test]
    fn barrier_counts_and_back_to_back_collectives() {
        let rep = Machine::new(MachineConfig::with_ranks(4)).run(|ctx| {
            // back-to-back collectives with skewed ranks must not cross-talk
            if ctx.rank() == 0 {
                ctx.charge_compute(5_000_000);
            }
            let a = ctx.allreduce_sum(1);
            ctx.barrier();
            let b = ctx.allreduce_sum(2);
            (a, b)
        });
        for r in &rep.results {
            assert_eq!(*r, (4, 8));
        }
        assert!(rep.stats.iter().all(|s| s.barriers == 1));
        // each allreduce counts once, the barrier's inner allreduce too
        assert!(rep.stats.iter().all(|s| s.collectives == 3));
    }

    #[test]
    fn exscan_assigns_disjoint_ranges() {
        for p in SIZES {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let count = (ctx.rank() as u64 + 1) * 10; // rank r owns 10(r+1) items
                ctx.exscan_sum(count)
            });
            let mut expect = 0u64;
            for (r, &start) in rep.results.iter().enumerate() {
                assert_eq!(start, expect, "p={p} rank {r}");
                expect += (r as u64 + 1) * 10;
            }
        }
    }

    #[test]
    fn exscan_non_commutative_monoid() {
        // 2x2 matrix product: associative, non-commutative, identity I —
        // verifies the scan preserves rank order, not just totals
        type M = (u64, u64, u64, u64);
        fn mul(a: &M, b: &M) -> M {
            (
                a.0 * b.0 + a.1 * b.2,
                a.0 * b.1 + a.1 * b.3,
                a.2 * b.0 + a.3 * b.2,
                a.2 * b.1 + a.3 * b.3,
            )
        }
        let ident: M = (1, 0, 0, 1);
        let rep = Machine::new(MachineConfig::with_ranks(5)).run(|ctx| {
            let r = ctx.rank() as u64;
            let mine: M = (1, r + 1, 0, 1); // upper-triangular shear by r+1
            ctx.exscan(mine, ident, mul)
        });
        // sequential reference
        let mut expect = Vec::new();
        let mut acc = ident;
        for r in 0..5u64 {
            expect.push(acc);
            acc = mul(&acc, &(1, r + 1, 0, 1));
        }
        assert_eq!(rep.results, expect);
    }

    #[test]
    fn reduce_scatter_elementwise() {
        for p in SIZES {
            let rep = Machine::new(MachineConfig::with_ranks(p)).run(|ctx| {
                let me = ctx.rank() as u64;
                // block for rank d: [me + d, me + d] (len 2)
                let blocks: Vec<Vec<u64>> = (0..ctx.size() as u64)
                    .map(|d| vec![me + d, me * d])
                    .collect();
                ctx.reduce_scatter(blocks, |a, b| a + b)
            });
            let sum_r: u64 = (0..p as u64).sum();
            for (r, block) in rep.results.iter().enumerate() {
                let r = r as u64;
                assert_eq!(block[0], sum_r + r * p as u64, "p={p}");
                assert_eq!(block[1], sum_r * r, "p={p}");
            }
        }
    }

    #[test]
    fn collective_traffic_is_metered() {
        let rep = Machine::new(MachineConfig::with_ranks(8)).run(|ctx| ctx.allreduce_sum(1));
        let total = rep.total_stats();
        assert!(total.coll_msgs > 0);
        assert!(total.coll_bytes > 0);
        assert_eq!(total.user_msgs, 0);
        // sim time should reflect at least a couple of message latencies
        assert!(rep.sim_time_s > 1e-6);
    }
}
