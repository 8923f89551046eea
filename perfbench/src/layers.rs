//! Layer calls shared by the workloads: output checks, the host-side
//! Dijkstra baseline, the collective timing loop and seed derivation.

use graph500::graph::{Csr, Directedness, EdgeList, ShortestPaths, VertexId};
use graph500::simnet::{Machine, MachineConfig};
use graph500::validate::{validate_sssp, SsspResult};
use std::time::Instant;

/// Allreduce calls in the collective timing loop.
const ALLREDUCE_REPS: u32 = 1000;
/// Alltoallv calls in the collective timing loop.
const ALLTOALLV_REPS: u32 = 300;
/// `u64` records each rank sends to each peer per alltoallv.
const ALLTOALLV_RECORDS: usize = 64;

/// Seed of instance `i` of a run with workload seed `seed` (SplitMix64 of
/// both), so a run's instances are distinct graphs and every workload that
/// shares a seed shares its graphs and roots.
pub fn instance_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Check one shortest-path tree with the Graph500 validator against the
/// benchmark's own edge list. Returns whether it passed and its traversed
/// edge count.
pub fn check_tree(n: u64, el: &EdgeList, root: VertexId, sp: &ShortestPaths) -> (bool, u64) {
    let rep = validate_sssp(
        n,
        el,
        &SsspResult {
            root,
            dist: sp.dist.clone(),
            parent: sp.parent.clone(),
        },
    );
    if !rep.ok {
        eprintln!("check FAILED for root {root}: {:?}", rep.errors);
    }
    (rep.ok, rep.traversed_edges)
}

/// The undirected host CSR the Dijkstra baseline runs on.
pub fn host_csr(n: u64, el: &EdgeList) -> Csr {
    Csr::from_edges(n as usize, el, Directedness::Undirected)
}

/// Host microseconds per `allreduce` and per `alltoallv` at `ranks` ranks,
/// from a timed loop of `RankCtx` calls on a fresh machine (rank 0's clock,
/// after a barrier lines the ranks up).
pub fn collective_host_us(ranks: usize) -> (f64, f64) {
    let rep = Machine::new(MachineConfig::with_ranks(ranks)).run(|ctx| {
        let p = ctx.size();
        ctx.barrier();
        let t = Instant::now();
        let mut acc = 0u64;
        for i in 0..ALLREDUCE_REPS {
            acc = acc.wrapping_add(ctx.allreduce(i as u64, |a, b| *a.max(b)));
        }
        let allreduce_us = t.elapsed().as_secs_f64() * 1e6 / ALLREDUCE_REPS as f64;
        ctx.barrier();
        let t = Instant::now();
        for i in 0..ALLTOALLV_REPS {
            let out = vec![vec![i as u64; ALLTOALLV_RECORDS]; p];
            acc = acc.wrapping_add(ctx.alltoallv(out).len() as u64);
        }
        let alltoallv_us = t.elapsed().as_secs_f64() * 1e6 / ALLTOALLV_REPS as f64;
        std::hint::black_box(acc);
        (allreduce_us, alltoallv_us)
    });
    rep.results[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_seeds_differ_and_repeat() {
        assert_eq!(instance_seed(1, 0), instance_seed(1, 0));
        assert_ne!(instance_seed(1, 0), instance_seed(1, 1));
        assert_ne!(instance_seed(1, 0), instance_seed(2, 0));
    }

    #[test]
    fn collective_loop_times_both() {
        let (ar, a2a) = collective_host_us(2);
        assert!(ar > 0.0 && a2a > 0.0);
    }
}
