//! The `serve-*` workload: the query-serving path of `g500 serve`, driven
//! through the public `QueryEngine` calls with one `serve` call per
//! admission window, so each window gets a host span.
//!
//! The path mirrors `try_run_query_serving_benchmark` step for step (the
//! cross-check tests hold it to the same QPS, percentiles and cache hits)
//! with `keep_paths` on, which only copies answers out. After the serving
//! phase every full answer is gathered and validated, and every
//! point-to-point answer is compared with radix-heap Dijkstra on the host.

use crate::heap::{peak_above, reset_peak};
use crate::layers::{check_tree, host_csr, instance_seed};
use crate::report::{mean, median, percentile, ratio, MIB};
use crate::spans::{rank_max, Span, SpanLog, NO_GROUP};
use crate::trace_stats::{analyze, TraceStats};
use crate::Outcome;
use graph500::baselines::dijkstra_radix_heap;
use graph500::gen::{KroneckerGenerator, KroneckerParams};
use graph500::graph::{EdgeList, ShortestPaths, VertexId};
use graph500::partition::{assemble_local_graph, Block1D};
use graph500::rayon::pool_stats;
use graph500::simnet::{FaultEscalation, Machine, NetStats, TraceCode};
use graph500::sssp::{
    try_distributed_delta_stepping, Query, QueryEngine, QueryOutcome, ServeConfig, ServeStats,
};
use graph500::{synth_queries, ServeBenchConfig, Trace};
use std::collections::HashMap;
use std::time::Instant;

/// Solo roots the traced run pushes through the 1D kernel on the serving
/// graph, for the kernel rows.
const PROBE_ROOTS: usize = 4;

/// A serving workload: `instances` graphs, a stream of `queries` each.
#[derive(Clone, Copy, Debug)]
pub struct Serve {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Simulated ranks.
    pub ranks: usize,
    /// Graphs (and streams) per run.
    pub instances: usize,
    /// Queries per stream.
    pub queries: usize,
}

/// What one serving instance produced, from rank 0 unless noted.
pub struct Served {
    /// Vertex count.
    pub n: u64,
    /// Queries in the stream.
    pub queries: Vec<Query>,
    /// Outcomes in stream order.
    pub outcomes: Vec<QueryOutcome>,
    /// Virtual seconds of the serving phase (as the serving report).
    pub serve_sim_s: f64,
    /// Host seconds from instance start to the end of landmark precompute.
    pub setup_s: f64,
    /// Host seconds of the serving phase.
    pub serve_host_s: f64,
    /// Host seconds of the generator.
    pub gen_s: f64,
    /// Engine counters summed over ranks (control counters from rank 0).
    pub stats: ServeStats,
    /// Gathered full answers: (stream index, tree).
    pub trees: Vec<(usize, ShortestPaths)>,
    /// Per window: host seconds (rank 0) and virtual seconds.
    pub windows: Vec<(f64, f64)>,
    /// Virtual seconds of build and of landmark precompute (max over ranks).
    pub build_sim_s: f64,
    /// See `build_sim_s`.
    pub landmarks_sim_s: f64,
    /// Traffic of the serving phase, summed over ranks.
    pub serve_net: NetStats,
    /// Host seconds of the whole simulated machine.
    pub wall_s: f64,
    /// Per window: peak heap bytes while it was served, above what was
    /// live when the instance started (the checks' gather comes after).
    pub window_heap: Vec<usize>,
    /// The program's virtual-time trace when traced.
    pub trace: Option<Trace>,
    /// Host spans of every rank.
    pub spans: Vec<Span>,
    /// The edge list the stream was drawn from.
    pub el: EdgeList,
}

/// Per-rank result of the serving machine.
struct RankOut {
    outcomes: Vec<QueryOutcome>,
    serve_sim_s: f64,
    setup_s: f64,
    serve_host_s: f64,
    stats: ServeStats,
    trees: Vec<(usize, ShortestPaths)>,
    windows: Vec<(f64, f64)>,
    build_sim_s: f64,
    landmarks_sim_s: f64,
    serve_net: NetStats,
    window_heap: Vec<usize>,
    spans: Vec<Span>,
}

/// The engine configuration the serving driver derives from `cfg`.
pub fn engine_config(cfg: &ServeBenchConfig, keep_paths: bool) -> ServeConfig {
    ServeConfig {
        batch_width: cfg.batch_width,
        opts: cfg.opts,
        num_landmarks: cfg.num_landmarks,
        lru_capacity: cfg.lru_capacity,
        keep_paths,
        deadline_s: cfg.deadline_s,
    }
}

impl Serve {
    /// The serving configuration of one instance: window 16, 4 landmarks,
    /// LRU capacity 8, half point-to-point, a 64-source pool.
    pub fn config(&self, seed: u64) -> ServeBenchConfig {
        let mut cfg = ServeBenchConfig::new(self.scale, self.ranks);
        cfg.seed = seed;
        cfg.num_queries = self.queries;
        cfg.batch_width = 16;
        cfg.num_landmarks = 4;
        cfg.lru_capacity = 8;
        cfg.p2p_permille = 500;
        cfg.source_pool = 64;
        cfg
    }

    /// One end-to-end pass over every instance, tracing off. Throughput
    /// on the virtual clock pools every query of the pass; latency
    /// percentiles, which one slow graph would otherwise dominate, and the
    /// host-clock metrics are medians over the instances. The peak heap is
    /// the median over every admission window of the pass: the peak of one
    /// instance is that of its worst window, which moves with the graph and
    /// with how the rank threads interleave, and swings by a quarter (the
    /// largest over instances) or a tenth (their median) between seeds.
    pub fn e2e_pass(&self, seed: u64) -> Outcome {
        let mut out = Outcome::default();
        let (mut sim_s, mut edges, mut queries) = (0.0, 0u64, 0usize);
        let (mut p50, mut p95) = (Vec::new(), Vec::new());
        let (mut teps_host, mut qps_host, mut setup, mut run, mut heap) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for i in 0..self.instances {
            let cfg = self.config(instance_seed(seed, i));
            out.attempted += cfg.num_queries as u64;
            let t0 = Instant::now();
            match run_instance(&cfg) {
                Ok(s) => {
                    let chk = check(&s);
                    out.failed += chk.failed;
                    edges += chk.edges;
                    sim_s += s.serve_sim_s;
                    queries += s.outcomes.len();
                    let lat: Vec<f64> = s.outcomes.iter().map(|o| o.latency_s).collect();
                    p50.push(percentile(&lat, 50.0));
                    p95.push(percentile(&lat, 95.0));
                    teps_host.push(chk.edges as f64 / s.serve_host_s);
                    qps_host.push(s.outcomes.len() as f64 / s.serve_host_s);
                    setup.push(s.setup_s);
                    run.push(t0.elapsed().as_secs_f64());
                    heap.extend(s.window_heap.iter().map(|&b| b as f64 / MIB));
                }
                Err(e) => {
                    eprintln!("serve: {e}");
                    out.failed += cfg.num_queries as u64;
                }
            }
        }
        if queries == 0 {
            return out;
        }
        let m = &mut out.metrics;
        m.set("teps_sim", edges as f64 / sim_s, "edges/s");
        m.set("teps_host", median(&teps_host), "edges/s");
        m.set("setup_s", median(&setup), "s");
        m.set("run_s", median(&run), "s");
        m.set("qps_sim", queries as f64 / sim_s, "queries/s");
        m.set("qps_host", median(&qps_host), "queries/s");
        m.set("latency_sim_p50_ms", median(&p50) * 1e3, "ms");
        m.set("latency_sim_p95_ms", median(&p95) * 1e3, "ms");
        m.set("peak_heap_mb", median(&heap), "MiB");
        out
    }

    /// One traced pass over instance 0: the serving path untraced and
    /// traced (tracing overhead, virtual rows, window and landmark spans),
    /// the checks, and a solo-kernel probe on the same graph.
    pub fn traced_pass(&self, seed: u64, spans: &mut Vec<Span>) -> Outcome {
        let mut out = Outcome::default();
        let cfg = self.config(instance_seed(seed, 0));
        let q = cfg.num_queries as f64;
        out.attempted += 2 * cfg.num_queries as u64;
        let plain = run_instance(&cfg);
        let pool0 = pool_stats();
        let traced = run_instance(&cfg.clone().traced(true));
        let pool1 = pool_stats();
        let (plain, s) = match (plain, traced) {
            (Ok(p), Ok(t)) => (p, t),
            (p, t) => {
                for e in [p.err(), t.err()].into_iter().flatten() {
                    eprintln!("serve: {e}");
                }
                out.failed = out.attempted;
                return out;
            }
        };
        let chk_plain = check(&plain);
        let chk = check(&s);
        out.failed += chk_plain.failed + chk.failed;
        let ts = s
            .trace
            .as_ref()
            .map(|t| analyze(t, Some(TraceCode::QueryBatch)))
            .unwrap_or_default();
        let probe = match self.kernel_probe(&cfg, &s) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("kernel probe: {e}");
                out.attempted += PROBE_ROOTS as u64;
                out.failed += PROBE_ROOTS as u64;
                return out;
            }
        };
        out.attempted += probe.roots as u64;
        out.failed += probe.failed;
        let r = probe.roots.max(1) as f64;
        let st = &s.stats;
        let lanes = st.lanes_run.max(1) as f64;

        let m = &mut out.metrics;
        m.set("gen.host_s", s.gen_s, "s");
        m.set("build.host_s", rank_max(&s.spans, "build", NO_GROUP), "s");
        m.set("build.sim_s", s.build_sim_s, "s");
        m.set("gather.host_s_per_root", mean(&probe.gather_s), "s");
        m.set("kernel.host_s_per_root", mean(&probe.kernel_s), "s");
        m.set("kernel.sim_s_per_root", mean(&probe.sim_s), "s");
        m.set(
            "kernel.supersteps_per_root",
            probe.supersteps as f64 / r,
            "count",
        );
        m.set(
            "kernel.relax_per_edge",
            ratio(probe.trace.relaxations as f64, probe.edges as f64),
            "ratio",
        );
        m.set("kernel.push_iters_per_root", probe.push as f64 / r, "count");
        m.set("kernel.pull_iters_per_root", probe.pull as f64 / r, "count");
        m.set("kernel.fused_root_share", probe.fused as f64 / r, "ratio");
        let (compute, comm, wait) = probe.trace.superstep_shares();
        m.set("kernel.compute_share", compute, "ratio");
        m.set("kernel.comm_share", comm, "ratio");
        m.set("kernel.wait_share", wait, "ratio");
        m.set(
            "exchange.sim_share",
            ts.share_of(TraceCode::Exchange),
            "ratio",
        );
        m.set(
            "exchange.updates_per_root",
            ts.updates_sent as f64 / q,
            "count",
        );
        m.set(
            "exchange.dedup_ratio",
            ratio(ts.updates_sent as f64, ts.updates_offered as f64),
            "ratio",
        );
        m.set(
            "coll.count_per_root",
            ts.collectives as f64 / self.ranks as f64 / q,
            "count",
        );
        m.set(
            "net.msgs_per_root",
            s.serve_net.total_msgs() as f64 / q,
            "count",
        );
        m.set(
            "net.bytes_per_edge",
            ratio(s.serve_net.total_bytes() as f64, chk.edges as f64),
            "bytes/edge",
        );
        m.set(
            "coll.allreduce.sim_share",
            ts.share_of(TraceCode::Allreduce),
            "ratio",
        );
        m.set(
            "coll.alltoallv.sim_share",
            ts.share_of(TraceCode::Alltoallv),
            "ratio",
        );
        m.set(
            "coll.allgatherv.sim_share",
            ts.share_of(TraceCode::Allgatherv),
            "ratio",
        );
        let (allreduce_us, alltoallv_us) = crate::layers::collective_host_us(self.ranks);
        m.set("coll.allreduce.host_us", allreduce_us, "us");
        m.set("coll.alltoallv.host_us", alltoallv_us, "us");
        m.set("validate.host_s_per_root", mean(&chk.validate_s), "s");
        m.set(
            "baseline.dijkstra_host_s_per_root",
            mean(&chk.dijkstra_s),
            "s",
        );
        m.set(
            "pool.steals_per_root",
            (pool1.steals - pool0.steals) as f64 / q,
            "count",
        );
        m.set(
            "pool.parks_per_root",
            (pool1.parks - pool0.parks) as f64 / q,
            "count",
        );
        m.set(
            "landmarks.host_s",
            rank_max(&s.spans, "landmarks", NO_GROUP),
            "s",
        );
        m.set("landmarks.sim_s", s.landmarks_sim_s, "s");
        let win_host: Vec<f64> = s.windows.iter().map(|w| w.0).collect();
        let win_sim: Vec<f64> = s.windows.iter().map(|w| w.1).collect();
        m.set("window.host_s_p50", median(&win_host), "s");
        m.set("window.sim_s_p50", median(&win_sim), "s");
        m.set(
            "serve.cache_hit_ratio",
            ratio(st.cache_hits as f64, st.queries as f64),
            "ratio",
        );
        m.set(
            "serve.early_exit_ratio",
            ratio(st.early_exits as f64, st.queries as f64),
            "ratio",
        );
        m.set(
            "serve.pruned_ratio",
            ratio(st.pruned as f64, (st.relaxations + st.pruned) as f64),
            "ratio",
        );
        m.set(
            "serve.supersteps_per_window",
            ratio(st.supersteps as f64, st.batches as f64),
            "count",
        );
        m.set(
            "serve.relax_per_lane",
            st.relaxations as f64 / lanes,
            "count",
        );
        m.set(
            "serve.updates_per_lane",
            st.updates_sent as f64 / lanes,
            "count",
        );
        m.set(
            "trace.overhead_ratio",
            ratio(s.wall_s, plain.wall_s),
            "ratio",
        );

        let mut all = s.spans;
        crate::spans::merge(&mut all, chk.spans);
        crate::spans::merge(&mut all, probe.spans);
        *spans = all;
        out
    }

    /// Run the first full-query sources of the stream as solo roots through
    /// the 1D kernel on the same block-partitioned graph, traced, and check
    /// each gathered tree.
    fn kernel_probe(&self, cfg: &ServeBenchConfig, s: &Served) -> Result<Probe, FaultEscalation> {
        let mut roots: Vec<VertexId> = Vec::new();
        for q in s.queries.iter().filter(|q| q.target.is_none()) {
            if roots.len() < PROBE_ROOTS && !roots.contains(&q.source) {
                roots.push(q.source);
            }
        }
        let gen = generator(cfg);
        let n = gen.params().num_vertices();
        let m = gen.params().num_edges();
        let p = cfg.machine.ranks;
        let opts = cfg.opts;
        let rep = Machine::new(cfg.machine.traced(true)).try_run(|ctx| {
            let rank = ctx.rank();
            let mut log = SpanLog::new(rank as u32, true);
            let (lo, hi) = (rank as u64 * m / p as u64, (rank as u64 + 1) * m / p as u64);
            let mine = gen.edge_block(lo..hi);
            let g = assemble_local_graph(ctx, mine.iter(), Block1D::new(n, p));
            let mut runs = Vec::new();
            for (i, &root) in roots.iter().enumerate() {
                let i = i as u64;
                log.begin("probe-root", i);
                let (res, _) = log.time("kernel", i, || {
                    try_distributed_delta_stepping(ctx, &g, root, &opts)
                });
                let (sp, stats) = res?;
                let sim = ctx.allreduce(stats.sim_time_s, |a, b| a.max(*b));
                let (tree, _) = log.time("gather", i, || sp.gather_to_all(ctx, g.part()));
                log.end();
                runs.push((sim, stats, (rank == 0).then_some(tree)));
            }
            Ok((log.into_spans(), runs))
        })?;
        let mut probe = Probe {
            roots: roots.len(),
            trace: analyze(&Trace::merge(rep.traces), None),
            ..Probe::default()
        };
        let mut results = rep.results.into_iter();
        let mut spans = Vec::new();
        for (rank, res) in results.by_ref().enumerate() {
            let (sp, runs) = res?;
            crate::spans::merge(&mut spans, sp);
            if rank != 0 {
                continue;
            }
            for (i, (sim, stats, tree)) in runs.into_iter().enumerate() {
                probe.sim_s.push(sim);
                probe.supersteps += stats.supersteps;
                probe.push += stats.push_iterations;
                probe.pull += stats.pull_iterations;
                probe.fused += stats.tail_fused as u64;
                let (ok, edges) = tree.map_or((false, 0), |t| check_tree(n, &s.el, roots[i], &t));
                probe.failed += !ok as u64;
                probe.edges += edges;
            }
        }
        let groups = 0..roots.len() as u64;
        probe.kernel_s = groups
            .clone()
            .map(|i| rank_max(&spans, "kernel", i))
            .collect();
        probe.gather_s = groups.map(|i| rank_max(&spans, "gather", i)).collect();
        probe.spans = spans;
        Ok(probe)
    }
}

/// Solo-kernel probe results.
#[derive(Default)]
struct Probe {
    roots: usize,
    failed: u64,
    sim_s: Vec<f64>,
    kernel_s: Vec<f64>,
    gather_s: Vec<f64>,
    supersteps: u64,
    push: u64,
    pull: u64,
    fused: u64,
    edges: u64,
    trace: TraceStats,
    spans: Vec<Span>,
}

fn generator(cfg: &ServeBenchConfig) -> KroneckerGenerator {
    KroneckerGenerator::new(KroneckerParams {
        scale: cfg.scale,
        edgefactor: cfg.edgefactor,
        ..KroneckerParams::graph500(cfg.scale, cfg.seed)
    })
}

/// Run one serving instance: generate, synthesize the stream, build,
/// precompute landmarks, serve window by window, gather full answers.
pub fn run_instance(cfg: &ServeBenchConfig) -> Result<Served, FaultEscalation> {
    let heap_base = reset_peak();
    let start = crate::spans::now();
    let traced = cfg.machine.trace.enabled;
    let mut host = SpanLog::new(crate::spans::HOST, traced);
    let gen = generator(cfg);
    let n = gen.params().num_vertices();
    let m = gen.params().num_edges();
    let p = cfg.machine.ranks;
    let (el, gen_s) = host.time("gen", NO_GROUP, || gen.generate_all());
    let (queries, _) = host.time("synth-queries", NO_GROUP, || synth_queries(&el, n, cfg));
    let engine_cfg = engine_config(cfg, true);
    let width = cfg.batch_width.max(1);
    let queries_ref = &queries;

    let rep = Machine::new(cfg.machine).try_run(|ctx| -> Result<RankOut, FaultEscalation> {
        let rank = ctx.rank();
        let mut log = SpanLog::new(rank as u32, traced);
        let (lo, hi) = (rank as u64 * m / p as u64, (rank as u64 + 1) * m / p as u64);
        // the same build the serving driver runs, virtual charges included
        let (g, _) = log.time("build", NO_GROUP, || {
            ctx.trace_begin(TraceCode::Build, hi - lo, 0);
            ctx.charge_compute(hi - lo);
            let mine = gen.edge_block(lo..hi);
            let g = assemble_local_graph(ctx, mine.iter(), Block1D::new(n, p));
            ctx.trace_end(TraceCode::Build, hi - lo, 0);
            g
        });
        let v_build = ctx.now();
        let (engine, _) = log.time("landmarks", NO_GROUP, || {
            QueryEngine::try_new(ctx, &g, engine_cfg.clone())
        });
        let mut engine = engine?;
        let v_landmarks = ctx.now() - v_build;
        let setup_s = crate::spans::now() - start;
        let t0 = ctx.allreduce(ctx.now(), |a, b| if a > b { *a } else { *b });
        let h0 = crate::spans::now();
        let net0 = ctx.stats().clone();
        let mut outcomes = Vec::with_capacity(queries_ref.len());
        let mut windows = Vec::new();
        let mut window_heap = Vec::new();
        for (wi, window) in queries_ref.chunks(width).enumerate() {
            let v = ctx.now();
            // one global counter: rank 0 restarts the peak for every window,
            // and its list is the one reported
            if rank == 0 {
                reset_peak();
            }
            let (o, dt) = log.time("window", wi as u64, || engine.serve(ctx, window));
            windows.push((dt, ctx.now() - v));
            window_heap.push(peak_above(heap_base));
            outcomes.extend(o);
        }
        let t1 = ctx.allreduce(ctx.now(), |a, b| if a > b { *a } else { *b });
        let serve_host_s = crate::spans::now() - h0;
        let serve_net = net_delta(ctx.stats(), &net0);
        let mut trees = Vec::new();
        for (qi, o) in outcomes.iter_mut().enumerate() {
            if let Some(local) = o.paths.take() {
                let (tree, _) =
                    log.time("gather", qi as u64, || local.gather_to_all(ctx, g.part()));
                if rank == 0 {
                    trees.push((qi, tree));
                }
            }
        }
        Ok(RankOut {
            outcomes,
            serve_sim_s: t1 - t0,
            setup_s,
            serve_host_s,
            stats: engine.stats().clone(),
            trees,
            windows,
            build_sim_s: v_build,
            landmarks_sim_s: v_landmarks,
            serve_net,
            window_heap,
            spans: log.into_spans(),
        })
    })?;

    let wall_s = rep.wall_time_s;
    let trace = (!rep.traces.is_empty()).then(|| Trace::merge(rep.traces));
    let mut spans = host.into_spans();
    let ranks: Vec<RankOut> = rep.results.into_iter().collect::<Result<_, _>>()?;
    // control counters are identical on every rank; work counters are summed
    let mut stats = ranks[0].stats.clone();
    stats.relaxations = ranks.iter().map(|r| r.stats.relaxations).sum();
    stats.updates_sent = ranks.iter().map(|r| r.stats.updates_sent).sum();
    stats.pruned = ranks.iter().map(|r| r.stats.pruned).sum();
    let mut net = NetStats::default();
    let (mut build_sim_s, mut landmarks_sim_s): (f64, f64) = (0.0, 0.0);
    for r in &ranks {
        net.merge(&r.serve_net);
        build_sim_s = build_sim_s.max(r.build_sim_s);
        landmarks_sim_s = landmarks_sim_s.max(r.landmarks_sim_s);
    }
    let mut ranks = ranks.into_iter();
    let r0 = ranks.next().expect("a machine has at least one rank");
    for r in ranks {
        crate::spans::merge(&mut spans, r.spans);
    }
    crate::spans::merge(&mut spans, r0.spans);
    Ok(Served {
        n,
        queries,
        outcomes: r0.outcomes,
        serve_sim_s: r0.serve_sim_s,
        setup_s: r0.setup_s,
        serve_host_s: r0.serve_host_s,
        gen_s,
        stats,
        trees: r0.trees,
        windows: r0.windows,
        build_sim_s,
        landmarks_sim_s,
        serve_net: net,
        wall_s,
        window_heap: r0.window_heap,
        trace,
        spans,
        el,
    })
}

/// `after - before` for the traffic counters the per-layer rows use.
fn net_delta(after: &NetStats, before: &NetStats) -> NetStats {
    NetStats {
        user_msgs: after.user_msgs - before.user_msgs,
        user_bytes: after.user_bytes - before.user_bytes,
        coll_msgs: after.coll_msgs - before.coll_msgs,
        coll_bytes: after.coll_bytes - before.coll_bytes,
        barriers: after.barriers - before.barriers,
        collectives: after.collectives - before.collectives,
        ..NetStats::default()
    }
}

/// Outcome of checking one serving instance.
pub struct Check {
    /// Queries shed or answered wrongly.
    pub failed: u64,
    /// Traversed input edges of the delivered full answers.
    pub edges: u64,
    /// Host seconds of each full answer's validation.
    pub validate_s: Vec<f64>,
    /// Host seconds of each Dijkstra run (one per distinct p2p source).
    pub dijkstra_s: Vec<f64>,
    /// Host spans of the checks.
    pub spans: Vec<Span>,
}

/// Check every answer: shed queries fail; full answers must pass the
/// Graph500 validator; point-to-point answers must equal radix-heap
/// Dijkstra's distance exactly.
pub fn check(s: &Served) -> Check {
    let mut log = SpanLog::new(crate::spans::HOST, s.trace.is_some());
    let n = s.n;
    let mut failed = 0u64;
    let mut edges = 0u64;
    let mut validate_s = Vec::new();
    let mut dijkstra_s = Vec::new();
    let mut tree_of: HashMap<usize, &ShortestPaths> = HashMap::new();
    for (qi, t) in &s.trees {
        tree_of.insert(*qi, t);
    }
    let csr = host_csr(n, &s.el);
    let mut oracle: HashMap<VertexId, ShortestPaths> = HashMap::new();
    for (qi, (q, o)) in s.queries.iter().zip(&s.outcomes).enumerate() {
        if o.shed || o.query != *q {
            failed += 1;
            continue;
        }
        match q.target {
            None => match tree_of.get(&qi) {
                Some(tree) => {
                    let ((ok, trav), dt) = log.time("validate", qi as u64, || {
                        check_tree(n, &s.el, q.source, tree)
                    });
                    validate_s.push(dt);
                    failed += !ok as u64;
                    edges += trav;
                }
                None => failed += 1,
            },
            Some(t) => {
                let sp = oracle.entry(q.source).or_insert_with(|| {
                    let (sp, dt) = log.time("dijkstra", qi as u64, || {
                        dijkstra_radix_heap(&csr, q.source)
                    });
                    dijkstra_s.push(dt);
                    sp
                });
                let want = sp.dist[t as usize];
                let ok = o
                    .dist
                    .is_some_and(|d| d == want || (d.is_infinite() && want.is_infinite()));
                if !ok {
                    eprintln!(
                        "check FAILED for query {qi} ({} -> {t}): got {:?}, want {want}",
                        q.source, o.dist
                    );
                }
                failed += !ok as u64;
            }
        }
    }
    if s.outcomes.len() != s.queries.len() {
        failed += s.queries.len().abs_diff(s.outcomes.len()) as u64;
    }
    Check {
        failed,
        edges,
        validate_s,
        dijkstra_s,
        spans: log.into_spans(),
    }
}
