//! Property-based tests on the workspace's core invariants: every SSSP
//! implementation equals Dijkstra on arbitrary random graphs; codecs
//! round-trip arbitrary data; partitions are bijections for arbitrary
//! shapes; the generator is splittable at arbitrary cut points; the
//! bucket queue pops in monotone bucket order.
//!
//! Cases come from the in-repo seeded generator in `tests/common` (the
//! workspace builds offline, with no proptest); every run is deterministic
//! and failures print a replay seed.

mod common;

use common::{arb_graph, for_cases};
use graph500::baselines::{bellman_ford, dijkstra, near_far};
use graph500::gen::{KroneckerGenerator, KroneckerParams};
use graph500::graph::{compress, BitMixPermutation, Csr, Directedness, EdgeList, WEdge};
use graph500::partition::{
    assemble_local_graph, Block1D, Cyclic1D, HybridPartition, VertexPartition,
};
use graph500::simnet::{wire, Machine, MachineConfig};
use graph500::sssp::codec::{decode_updates, dedup_min, encode_updates, Update};
use graph500::sssp::{
    batched_delta_stepping, delta_stepping, distributed_delta_stepping, BatchSpec, BucketQueue,
    OptConfig,
};

fn to_el(edges: &[(u64, u64, f32)]) -> EdgeList {
    EdgeList::from_edges(edges.iter().map(|&(u, v, w)| WEdge::new(u, v, w)))
}

#[test]
fn all_sssp_algorithms_equal_dijkstra() {
    for_cases(0xA11A, 64, |rng| {
        let (n, edges) = arb_graph(rng);
        let root = rng.range(0, n);
        let delta = rng.f32(0.01, 2.0);
        let el = to_el(&edges);
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, root);
        assert!(delta_stepping(&csr, root, delta).distances_match(&oracle, 1e-4));
        assert!(near_far(&csr, root, delta).distances_match(&oracle, 1e-4));
        assert!(bellman_ford(&csr, root).distances_match(&oracle, 1e-4));
    });
}

#[test]
fn distributed_delta_equals_dijkstra() {
    for_cases(0xD157, 32, |rng| {
        let (n, edges) = arb_graph(rng);
        let root = rng.range(0, n);
        let p = rng.usize(1, 5);
        let el = to_el(&edges);
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, root);
        let got = Machine::new(MachineConfig::with_ranks(p))
            .run(|ctx| {
                let part = Block1D::new(n, p);
                let m = el.len();
                let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
                let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                let g = assemble_local_graph(ctx, mine.into_iter(), part);
                let (sp, _) = distributed_delta_stepping(ctx, &g, root, &OptConfig::all_on());
                sp.gather_to_all(ctx, g.part())
            })
            .results
            .pop()
            .expect("rank");
        assert!(got.distances_match(&oracle, 1e-4));
    });
}

#[test]
fn varint_roundtrip() {
    for_cases(0x7A21, 256, |rng| {
        // stress every length class: mask to a random bit width
        let width = rng.range(1, 65) as u32;
        let v = rng.next_u64() >> (64 - width);
        let mut buf = Vec::new();
        compress::write_varint(&mut buf, v);
        let mut pos = 0;
        assert_eq!(compress::read_varint(&buf, &mut pos), Some(v));
        assert_eq!(pos, buf.len());
    });
}

#[test]
fn update_codec_roundtrip() {
    for_cases(0x0DEC, 64, |rng| {
        let m = rng.usize(0, 200);
        let mut ups: Vec<Update> = (0..m)
            .map(|_| (rng.next_u64(), rng.f32(0.0, 100.0), rng.next_u64()))
            .collect();
        ups.sort_unstable_by_key(|u| u.0);
        let enc = encode_updates(&ups, true);
        assert_eq!(decode_updates(&enc), Some(ups));
    });
}

#[test]
fn dedup_min_keeps_true_minimum() {
    for_cases(0xDED0, 64, |rng| {
        let m = rng.usize(1, 100);
        let ups: Vec<Update> = (0..m)
            .map(|_| (rng.range(0, 20), rng.f32(0.0, 10.0), rng.next_u64()))
            .collect();
        let mut work = ups.clone();
        dedup_min(&mut work);
        // unique targets, and each carries the true min over the input
        for w in work.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        for &(t, d, _) in &work {
            let true_min = ups
                .iter()
                .filter(|u| u.0 == t)
                .map(|u| u.1)
                .fold(f32::INFINITY, f32::min);
            assert_eq!(d, true_min);
        }
    });
}

#[test]
fn bucket_queue_pops_monotone_buckets() {
    // satellite property: min_bucket() over an arbitrary insert stream is
    // non-decreasing (for items not re-inserted below the current bucket),
    // every inserted vertex comes out exactly once, and each comes out of
    // the bucket its priority maps to.
    for_cases(0xB0CE, 64, |rng| {
        let delta = rng.f32(0.05, 1.5);
        let m = rng.usize(1, 300);
        let items: Vec<(u32, f32)> = (0..m as u32).map(|v| (v, rng.f32(0.0, 40.0))).collect();
        let mut q = BucketQueue::new(delta);
        for &(v, d) in &items {
            q.insert(v, d);
        }
        assert_eq!(q.len(), m);
        let mut last = 0usize;
        let mut seen = vec![false; m];
        while let Some(k) = q.min_bucket() {
            assert!(k >= last, "bucket order went backwards: {k} after {last}");
            last = k;
            for v in q.take_bucket(k) {
                let (_, d) = items[v as usize];
                assert_eq!(
                    q.bucket_of(d),
                    k,
                    "vertex {v} (d={d}) popped from bucket {k}"
                );
                assert!(!seen[v as usize], "vertex {v} popped twice");
                seen[v as usize] = true;
            }
        }
        assert!(q.is_empty());
        assert!(seen.iter().all(|&s| s), "some vertex never popped");
    });
}

#[test]
fn radix_heap_pops_in_monotone_key_order() {
    // arbitrary interleavings of monotone pushes and pops match a sorted
    // model: keys come out non-decreasing and nothing is lost
    use graph500::baselines::RadixHeap;
    for_cases(0x4AD1, 64, |rng| {
        let mut heap: RadixHeap<u64> = RadixHeap::new();
        let mut pending: Vec<u64> = Vec::new();
        let mut popped: Vec<u64> = Vec::new();
        let mut floor = 0u64;
        for _ in 0..rng.usize(1, 200) {
            if rng.range(0, 3) < 2 || heap.is_empty() {
                // push: any key >= the monotone floor, with a bias toward
                // keys near the floor and occasional far-away bits
                let spread = 1u64 << rng.range(1, 50);
                let key = floor.saturating_add(rng.range(0, spread));
                heap.push(key, key);
                pending.push(key);
            } else {
                let (k, v) = heap.pop_min().expect("non-empty");
                assert_eq!(k, v, "payload must ride with its key");
                floor = k;
                popped.push(k);
            }
        }
        while let Some((k, _)) = heap.pop_min() {
            popped.push(k);
        }
        // monotone: the full pop sequence never decreases
        for w in popped.windows(2) {
            assert!(w[0] <= w[1], "pop order went backwards");
        }
        // conservation: the popped multiset is exactly the pushed multiset
        pending.sort_unstable();
        let mut sorted_popped = popped.clone();
        sorted_popped.sort_unstable();
        assert_eq!(sorted_popped, pending);
    });
}

#[test]
fn radix_dijkstra_and_bmssp_bitwise_equal_dijkstra() {
    // the new baselines must agree with the binary-heap oracle to the bit
    // on arbitrary random multigraphs (self-loops, duplicate edges, any
    // root) — not just within tolerance
    use graph500::baselines::{bmssp, dijkstra_radix_heap};
    for_cases(0xB1D6, 64, |rng| {
        let (n, edges) = arb_graph(rng);
        let root = rng.range(0, n);
        let csr = Csr::from_edges(n as usize, &to_el(&edges), Directedness::Undirected);
        let oracle = dijkstra(&csr, root);
        let radix = dijkstra_radix_heap(&csr, root);
        let bm = bmssp(&csr, root);
        for v in 0..n as usize {
            assert_eq!(
                oracle.dist[v].to_bits(),
                radix.dist[v].to_bits(),
                "radix heap at vertex {v}"
            );
            assert_eq!(
                oracle.dist[v].to_bits(),
                bm.dist[v].to_bits(),
                "bmssp at vertex {v}"
            );
        }
    });
}

#[test]
fn bucket_queue_radix_layout_matches_naive_model() {
    // the radix occupancy index must be observationally identical to the
    // old linear-scan layout: same min_bucket, same bucket contents in the
    // same order, over arbitrary op streams (including far-away sparse
    // buckets that cross bitmap words)
    for_cases(0xBADC, 64, |rng| {
        let delta = rng.f32(0.05, 1.5);
        let mut q = BucketQueue::new(delta);
        let mut model: Vec<Vec<u32>> = Vec::new();
        let mut scan_from = 0usize; // the old layout's cursor
        for i in 0..rng.usize(1, 250) {
            let d = if rng.range(0, 20) == 0 {
                rng.f32(100.0, 5000.0) // sparse far bucket
            } else {
                rng.f32(0.0, 30.0)
            };
            q.insert(i as u32, d);
            let k = q.bucket_of(d);
            if k >= model.len() {
                model.resize_with(k + 1, Vec::new);
            }
            model[k].push(i as u32);
            scan_from = scan_from.min(k);
            if rng.range(0, 3) == 0 {
                let got = q.min_bucket();
                let want = (scan_from..model.len()).find(|&k| !model[k].is_empty());
                assert_eq!(got, want, "min_bucket diverged from linear scan");
                if let Some(k) = got {
                    scan_from = k;
                    assert_eq!(q.bucket_len(k), model[k].len());
                    assert_eq!(
                        q.take_bucket(k),
                        std::mem::take(&mut model[k]),
                        "bucket {k} contents/order diverged"
                    );
                }
            }
        }
        let expect: Vec<u32> = model[scan_from.min(model.len())..]
            .iter()
            .flatten()
            .copied()
            .collect();
        assert_eq!(q.drain_all(), expect, "drain_all diverged");
        assert!(q.is_empty());
    });
}

#[test]
fn bucket_queue_reinsert_lowers_bucket() {
    // delta-stepping relies on re-inserting a settled-lower vertex into an
    // earlier (but not-yet-passed) bucket; the queue must serve the lower
    // copy in its proper bucket.
    let mut q = BucketQueue::new(0.5);
    q.insert(0, 2.4); // bucket 4
    q.insert(1, 0.2); // bucket 0
    assert_eq!(q.min_bucket(), Some(0));
    assert_eq!(q.take_bucket(0), vec![1]);
    q.insert(0, 0.9); // improved: bucket 1
    assert_eq!(q.min_bucket(), Some(1));
    assert_eq!(q.take_bucket(1), vec![0]);
}

#[test]
fn wire_tuple_roundtrip() {
    for_cases(0x3172, 64, |rng| {
        let m = rng.usize(0, 100);
        let recs: Vec<(u64, f32, u32)> = (0..m)
            .map(|_| {
                (
                    rng.next_u64(),
                    f32::from_bits(rng.next_u64() as u32),
                    rng.next_u64() as u32,
                )
            })
            .collect();
        let buf = wire::encode_slice(&recs);
        let back = wire::decode_vec::<(u64, f32, u32)>(&buf);
        assert!(back.is_some());
        let back = back.expect("checked");
        assert_eq!(back.len(), recs.len());
        for (a, b) in recs.iter().zip(&back) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits());
            assert_eq!(a.2, b.2);
        }
    });
}

#[test]
fn partitions_are_bijections() {
    for_cases(0xB17E, 64, |rng| {
        let n = rng.range(0, 3000);
        let p = rng.usize(1, 17);
        let hubs = rng.range(0, 100).min(n);
        fn check<P: VertexPartition>(part: &P, n: u64) {
            let total: usize = (0..part.num_ranks()).map(|r| part.local_count(r)).sum();
            assert_eq!(total as u64, n);
            for v in (0..n).step_by(7) {
                let r = part.owner(v);
                let l = part.to_local(v);
                assert_eq!(part.to_global(r, l), v);
            }
        }
        check(&Block1D::new(n, p), n);
        check(&Cyclic1D::new(n, p), n);
        check(&HybridPartition::new(n, p, hubs), n);
    });
}

#[test]
fn bitmix_permutation_is_invertible() {
    for_cases(0xB177, 128, |rng| {
        let scale = rng.range(1, 40) as u32;
        let seed = rng.next_u64();
        let p = BitMixPermutation::new(scale, seed);
        let v = rng.next_u64() & (p.domain() - 1);
        let s = p.apply(v);
        assert!(s < p.domain());
        assert_eq!(p.invert(s), v);
    });
}

#[test]
fn multi_source_equals_dijkstra_per_source() {
    for_cases(0x3504, 16, |rng| {
        let (n, edges) = arb_graph(rng);
        let p = rng.usize(1, 4);
        let el = to_el(&edges);
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let roots: Vec<u64> = vec![0, n / 2, n - 1];
        let results = Machine::new(MachineConfig::with_ranks(p))
            .run(|ctx| {
                let part = Block1D::new(n, p);
                let m = el.len();
                let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
                let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                let g = assemble_local_graph(ctx, mine.into_iter(), part);
                let specs: Vec<BatchSpec> = roots.iter().map(|&r| BatchSpec::full(r)).collect();
                let opts = OptConfig::all_on().with_delta(0.25);
                let (md, _) = batched_delta_stepping(ctx, &g, &specs, &opts);
                (0..roots.len())
                    .map(|s| md.lane_paths(s).gather_to_all(ctx, g.part()))
                    .collect::<Vec<_>>()
            })
            .results
            .pop()
            .expect("rank");
        for (s, &root) in roots.iter().enumerate() {
            let oracle = dijkstra(&csr, root);
            assert!(results[s].distances_match(&oracle, 1e-4), "source {s}");
        }
    });
}

#[test]
fn bfs_levels_equal_unit_weight_distances() {
    for_cases(0xBF51, 16, |rng| {
        let (n, edges) = arb_graph(rng);
        // replace all weights with 1.0: BFS levels == shortest distances
        let unit: Vec<(u64, u64, f32)> = edges.iter().map(|&(u, v, _)| (u, v, 1.0)).collect();
        let el = to_el(&unit);
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let oracle = dijkstra(&csr, 0);
        let dir = match rng.range(0, 3) {
            0 => graph500::sssp::Direction::Push,
            1 => graph500::sssp::Direction::Pull,
            _ => graph500::sssp::Direction::Hybrid,
        };
        let p = 3;
        let (level, parent) = Machine::new(MachineConfig::with_ranks(p))
            .run(|ctx| {
                let part = Block1D::new(n, p);
                let m = el.len();
                let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
                let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
                let g = assemble_local_graph(ctx, mine.into_iter(), part);
                let (res, _) = graph500::sssp::distributed_bfs(ctx, &g, 0, dir);
                res.gather_to_all(ctx, g.part())
            })
            .results
            .pop()
            .expect("rank");
        for v in 0..n as usize {
            if oracle.dist[v].is_finite() {
                assert_eq!(level[v], oracle.dist[v] as i64, "vertex {v}");
            } else {
                assert_eq!(level[v], -1, "vertex {v}");
                assert_eq!(parent[v], u64::MAX);
            }
        }
    });
}

#[test]
fn generator_blocks_are_independent() {
    for_cases(0x6E4B, 32, |rng| {
        let scale = rng.range(4, 10) as u32;
        let seed = rng.next_u64();
        let gen = KroneckerGenerator::new(KroneckerParams::graph500(scale, seed));
        let m = gen.params().num_edges();
        let cut = ((m as f64 * rng.f64_unit()) as u64).min(m);
        let window = 64.min(m - cut);
        let from_block = gen.edge_block(cut..cut + window);
        for i in 0..window {
            assert_eq!(from_block.get(i as usize), gen.edge(cut + i));
        }
    });
}

// ---- reliable transport framing (fault-injection tentpole) ----

#[test]
fn frame_roundtrip_arbitrary_payloads() {
    use graph500::simnet::transport::Frame;
    for_cases(0xF4A3, 128, |rng| {
        let len = rng.usize(0, 300);
        let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let f = Frame {
            src: rng.next_u64() as u32,
            dst: rng.next_u64() as u32,
            tag: rng.next_u64(),
            seq: rng.next_u64(),
            payload,
        };
        let enc = f.encode();
        assert_eq!(Frame::decode(&enc).expect("round-trip"), f);
    });
}

#[test]
fn burst_corruption_is_always_detected() {
    // the fault injector flips a burst of 1–32 contiguous bits; CRC32
    // detects every burst of ≤ 32 bits, so detection is a guarantee here,
    // not a probability — any seed that slips a corrupt frame past the
    // check is a real bug
    use graph500::simnet::transport::{corrupt_burst, Frame};
    for_cases(0xC0DE, 512, |rng| {
        let len = rng.usize(0, 200);
        let payload: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let f = Frame {
            src: 3,
            dst: 1,
            tag: 0x42,
            seq: rng.next_u64(),
            payload,
        };
        let enc = f.encode();
        let mut bad = enc.clone();
        corrupt_burst(&mut bad, rng.next_u64());
        assert_ne!(bad, enc, "corruption must flip at least one bit");
        assert!(
            Frame::decode(&bad).is_err(),
            "undetected burst corruption of a {}-byte frame",
            enc.len()
        );
    });
}

#[test]
fn crc_differs_for_any_single_bit_flip() {
    use graph500::simnet::transport::crc32;
    for_cases(0xCC32, 64, |rng| {
        let len = rng.usize(1, 128);
        let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let base = crc32(&buf);
        let bit = rng.usize(0, len * 8);
        let mut flipped = buf.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(crc32(&flipped), base, "bit {bit} of {len} bytes");
    });
}

#[test]
fn reassembler_is_order_and_duplicate_insensitive() {
    use graph500::simnet::transport::{Frame, Reassembler};
    for_cases(0x5EA5, 128, |rng| {
        let k = rng.usize(1, 12);
        let base_seq = rng.next_u64() >> 1; // headroom for +k
        let chunks: Vec<Vec<u8>> = (0..k)
            .map(|_| {
                let l = rng.usize(0, 40);
                (0..l).map(|_| rng.next_u64() as u8).collect()
            })
            .collect();
        // arrival schedule: every fragment at least once, plus random
        // duplicates, in a seeded shuffle
        let mut arrivals: Vec<usize> = (0..k).collect();
        for _ in 0..rng.usize(0, 2 * k) {
            arrivals.push(rng.usize(0, k));
        }
        for i in (1..arrivals.len()).rev() {
            let j = rng.usize(0, i + 1);
            arrivals.swap(i, j);
        }
        let mut r = Reassembler::new(base_seq);
        for &i in &arrivals {
            let _ = r.offer(Frame {
                src: 0,
                dst: 1,
                tag: 7,
                seq: base_seq + i as u64,
                payload: chunks[i].clone(),
            });
        }
        assert!(r.is_complete(base_seq + k as u64));
        let expect: Vec<u8> = chunks.concat();
        assert_eq!(r.into_payload(), expect);
    });
}

// ---- virtual-time tracing (observability tentpole) ----

use graph500::simnet::trace::TraceCode;
use graph500::simnet::{TraceBuf, TraceEvent, TraceKind};

/// Every valid `TraceCode`, recovered through the public decoder.
fn all_trace_codes() -> Vec<TraceCode> {
    (0u16..512).filter_map(TraceCode::from_u16).collect()
}

fn arb_event(rng: &mut common::Rng, codes: &[TraceCode], t_s: f64) -> TraceEvent {
    let code = codes[rng.usize(0, codes.len())];
    let kind = if code.is_span() {
        if rng.range(0, 2) == 0 {
            TraceKind::Begin
        } else {
            TraceKind::End
        }
    } else {
        TraceKind::Count
    };
    TraceEvent {
        t_s,
        kind,
        code,
        a: rng.next_u64(),
        b: rng.next_u64(),
    }
}

#[test]
fn trace_event_codec_roundtrip() {
    let codes = all_trace_codes();
    for_cases(0x7AC3, 128, |rng| {
        let n = rng.usize(0, 60);
        let mut buf = TraceBuf::new(rng.usize(0, 1000));
        let mut t = 0.0f64;
        for _ in 0..n {
            t += rng.f64_unit() * 1e-3;
            let e = arb_event(rng, &codes, t);
            buf.record(e.t_s, e.kind, e.code, e.a, e.b);
        }
        let enc = buf.encode();
        let back = TraceBuf::decode(&enc).expect("self-produced encoding decodes");
        assert_eq!(back.rank, buf.rank);
        assert_eq!(back.events.len(), buf.events.len());
        for (a, b) in buf.events.iter().zip(&back.events) {
            assert_eq!(a.t_s.to_bits(), b.t_s.to_bits());
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.code, b.code);
            assert_eq!(a.a, b.a);
            assert_eq!(a.b, b.b);
        }
    });
}

#[test]
fn merged_trace_timestamps_are_monotone_per_rank() {
    use graph500::simnet::Trace;
    let codes = all_trace_codes();
    for_cases(0x70E0, 64, |rng| {
        let ranks = rng.usize(1, 6);
        let bufs: Vec<TraceBuf> = (0..ranks)
            .map(|r| {
                let mut b = TraceBuf::new(r);
                // per-rank virtual clocks only move forward
                let mut t = 0.0f64;
                for _ in 0..rng.usize(0, 40) {
                    t += rng.f64_unit() * 1e-4;
                    let e = arb_event(rng, &codes, t);
                    b.record(e.t_s, e.kind, e.code, e.a, e.b);
                }
                b
            })
            .collect();
        let merged = Trace::merge(bufs);
        // global order is non-decreasing in time, and within a rank the
        // original (monotone) order is preserved
        let mut last_t = 0.0f64;
        let mut last_per_rank: Vec<f64> = vec![0.0; ranks];
        for (rank, ev) in &merged.events {
            assert!(ev.t_s >= last_t, "merge broke global time order");
            last_t = ev.t_s;
            assert!(
                ev.t_s >= last_per_rank[*rank as usize],
                "merge broke rank {rank}'s clock order"
            );
            last_per_rank[*rank as usize] = ev.t_s;
        }
    });
}

#[test]
fn traced_runs_have_balanced_spans() {
    // On a real (fuzz-scheduled) traced run, every span Begin has a
    // matching End on the same rank and nesting never goes negative.
    for_cases(0x5BA1, 8, |rng| {
        let (n, edges) = arb_graph(rng);
        let root = rng.range(0, n);
        let p = rng.usize(1, 5);
        let sched_seed = rng.next_u64();
        let el = to_el(&edges);
        let report = Machine::new(
            MachineConfig::with_ranks(p)
                .deterministic(sched_seed)
                .traced(true),
        )
        .run(|ctx| {
            let part = Block1D::new(n, p);
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine: Vec<_> = (lo..hi).map(|i| el.get(i)).collect();
            let g = assemble_local_graph(ctx, mine.into_iter(), part);
            let (sp, _) = distributed_delta_stepping(ctx, &g, root, &OptConfig::all_on());
            sp.gather_to_all(ctx, g.part())
        });
        for buf in &report.traces {
            let mut depth: std::collections::HashMap<TraceCode, i64> =
                std::collections::HashMap::new();
            for ev in &buf.events {
                match ev.kind {
                    TraceKind::Begin => *depth.entry(ev.code).or_insert(0) += 1,
                    TraceKind::End => {
                        let d = depth.entry(ev.code).or_insert(0);
                        *d -= 1;
                        assert!(
                            *d >= 0,
                            "rank {}: End without Begin for {:?}",
                            buf.rank,
                            ev.code
                        );
                    }
                    TraceKind::Count => {}
                }
            }
            for (code, d) in depth {
                assert_eq!(d, 0, "rank {}: unbalanced span {:?}", buf.rank, code);
            }
        }
    });
}

#[test]
fn tagged_codec_roundtrips_arbitrary_updates() {
    use graph500::sssp::codec::{decode_tagged, dedup_min_tagged, encode_tagged, TaggedUpdate};
    for_cases(0x7A66, 128, |rng| {
        let n = rng.usize(0, 200);
        let mut updates: Vec<TaggedUpdate> = (0..n)
            .map(|_| {
                (
                    rng.range(0, 8) as u32,
                    rng.range(0, 1 << 20),
                    rng.f32(0.0, 100.0),
                    rng.next_u64() >> rng.range(0, 60),
                )
            })
            .collect();
        // the encoder canonicalizes unsorted input, and decode inverts it
        let enc = encode_tagged(&updates, false);
        let dec = decode_tagged(&enc).expect("well-formed buffer");
        let mut canon = updates.clone();
        canon.sort_unstable_by(|a, b| {
            (a.0, a.1)
                .cmp(&(b.0, b.1))
                .then(a.2.total_cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });
        assert_eq!(dec, canon);

        // dedup survivors are a pure function of the update SET
        let mut rev = updates.clone();
        rev.reverse();
        dedup_min_tagged(&mut updates);
        dedup_min_tagged(&mut rev);
        assert_eq!(updates, rev, "dedup depended on emission order");
    });
}

#[test]
fn landmark_bound_never_below_true_distance() {
    use graph500::sssp::triangle_bound;
    for_cases(0x1A4D, 48, |rng| {
        let (n, edges) = arb_graph(rng);
        let el = to_el(&edges);
        let csr = Csr::from_edges(n as usize, &el, Directedness::Undirected);
        let landmarks: Vec<u64> = (0..rng.usize(1, 5)).map(|_| rng.range(0, n)).collect();
        let from_l: Vec<_> = landmarks.iter().map(|&l| dijkstra(&csr, l)).collect();
        let s = rng.range(0, n);
        let t = rng.range(0, n);
        let ls: Vec<f32> = from_l.iter().map(|d| d.dist[s as usize]).collect();
        let lt: Vec<f32> = from_l.iter().map(|d| d.dist[t as usize]).collect();
        let bound = triangle_bound(&ls, &lt);
        let true_d = dijkstra(&csr, s).dist[t as usize];
        if bound.is_finite() {
            assert!(
                true_d <= bound,
                "bound {bound} below true distance {true_d} (s={s}, t={t})"
            );
        }
    });
}

#[test]
fn lru_invariants_hold_under_random_ops() {
    use graph500::sssp::Lru;
    for_cases(0x14C8, 64, |rng| {
        let cap = rng.usize(1, 6);
        let mut lru: Lru<u64, u64> = Lru::new(cap);
        let mut last_value: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut last_inserted = None;
        for i in 0..rng.usize(1, 64) {
            let k = rng.range(0, 8);
            if rng.range(0, 2) == 0 {
                let v = i as u64;
                lru.insert(k, v);
                last_value.insert(k, v);
                last_inserted = Some(k);
            } else if let Some(&v) = lru.get(&k) {
                // a hit always returns the most recently inserted value
                assert_eq!(Some(&v), last_value.get(&k));
            }
            assert!(lru.len() <= cap, "capacity exceeded");
            if let Some(k) = last_inserted {
                assert!(lru.keys().any(|&ek| ek == k), "most recent insert evicted");
            }
        }
    });
}

#[test]
fn checkpoint_codec_roundtrips_arbitrary_state() {
    // The recovery codec must round-trip any state a kernel checkpoint can
    // hold — including NaN/∞ payloads in the f64 lanes (times), empty
    // slices, and interleavings of every primitive — and consume the
    // buffer exactly (a length mismatch is how `Checkpoint::load` detects
    // a codec drift).
    use graph500::simnet::recovery::codec;
    for_cases(0xC8EC, 96, |rng| {
        let mut u64s = Vec::new();
        let mut f64s = Vec::new();
        let mut u64_slices = Vec::new();
        let mut u32_slices = Vec::new();
        let mut f64_slices = Vec::new();
        let mut bool_slices = Vec::new();
        let mut ops = Vec::new();
        let mut buf = Vec::new();
        for _ in 0..rng.usize(1, 24) {
            match rng.range(0, 6) {
                0 => {
                    let x = rng.next_u64();
                    codec::put_u64(&mut buf, x);
                    u64s.push(x);
                    ops.push(0);
                }
                1 => {
                    let x = match rng.range(0, 8) {
                        0 => f64::NAN,
                        1 => f64::INFINITY,
                        2 => 0.0,
                        _ => rng.f64_unit() * 1e9 - 5e8,
                    };
                    codec::put_f64(&mut buf, x);
                    f64s.push(x);
                    ops.push(1);
                }
                2 => {
                    let xs: Vec<u64> = (0..rng.usize(0, 40)).map(|_| rng.next_u64()).collect();
                    codec::put_u64_slice(&mut buf, &xs);
                    u64_slices.push(xs);
                    ops.push(2);
                }
                3 => {
                    let xs: Vec<u32> = (0..rng.usize(0, 40))
                        .map(|_| rng.next_u64() as u32)
                        .collect();
                    codec::put_u32_slice(&mut buf, &xs);
                    u32_slices.push(xs);
                    ops.push(3);
                }
                4 => {
                    let xs: Vec<f64> = (0..rng.usize(0, 40)).map(|_| rng.f64_unit()).collect();
                    codec::put_f64_slice(&mut buf, &xs);
                    f64_slices.push(xs);
                    ops.push(4);
                }
                _ => {
                    let xs: Vec<bool> = (0..rng.usize(0, 40))
                        .map(|_| rng.range(0, 2) == 0)
                        .collect();
                    codec::put_bool_slice(&mut buf, &xs);
                    bool_slices.push(xs);
                    ops.push(5);
                }
            }
        }
        let mut pos = 0usize;
        let (mut iu, mut ifl, mut ius, mut i32s, mut ifs, mut ibs) = (0, 0, 0, 0, 0, 0);
        for op in &ops {
            match op {
                0 => {
                    assert_eq!(codec::get_u64(&buf, &mut pos), u64s[iu]);
                    iu += 1;
                }
                1 => {
                    let got = codec::get_f64(&buf, &mut pos);
                    assert_eq!(got.to_bits(), f64s[ifl].to_bits(), "f64 not bitwise");
                    ifl += 1;
                }
                2 => {
                    assert_eq!(codec::get_u64_vec(&buf, &mut pos), u64_slices[ius]);
                    ius += 1;
                }
                3 => {
                    assert_eq!(codec::get_u32_vec(&buf, &mut pos), u32_slices[i32s]);
                    i32s += 1;
                }
                4 => {
                    let got = codec::get_f64_vec(&buf, &mut pos);
                    let want = &f64_slices[ifs];
                    assert_eq!(got.len(), want.len());
                    for (a, b) in got.iter().zip(want) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                    ifs += 1;
                }
                _ => {
                    assert_eq!(codec::get_bool_vec(&buf, &mut pos), bool_slices[ibs]);
                    ibs += 1;
                }
            }
        }
        assert_eq!(pos, buf.len(), "codec under- or over-consumed the buffer");
    });
}
