//! The `kernel3-*` workloads: Graph500 SSSP (kernel 3) through the public
//! driver entry point `try_run_sssp_benchmark`, the call `g500 sssp` makes.
//!
//! One pass runs every instance of the run (a graph and its roots, both
//! from the instance seed) through the driver with the default stack,
//! validation off and `keep_paths` on, then checks every root's tree with
//! `validate_sssp` against the benchmark's own `generate_all` edge list.

use crate::heap::peak_during;
use crate::layers::{check_tree, collective_host_us, host_csr, instance_seed};
use crate::report::{max, mean, median, percentile, ratio, MIB};
use crate::serve::engine_config;
use crate::spans::{rank_max, Span, SpanLog, NO_GROUP};
use crate::trace_stats::analyze;
use crate::Outcome;
use graph500::baselines::dijkstra_radix_heap;
use graph500::gen::{KroneckerGenerator, KroneckerParams};
use graph500::graph::{EdgeList, VertexId};
use graph500::partition::{assemble_local_graph, Block1D};
use graph500::simnet::{FaultEscalation, Machine, MachineConfig, TraceCode};
use graph500::sssp::{try_distributed_delta_stepping, QueryEngine};
use graph500::validate::TepsSummary;
use graph500::{try_run_sssp_benchmark, BenchmarkConfig, BenchmarkReport};
use std::time::Instant;

/// A `kernel3` workload: `instances` graphs of scale `scale`, `roots`
/// searches each, on `ranks` simulated ranks.
#[derive(Clone, Copy, Debug)]
pub struct Kernel3 {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Simulated ranks.
    pub ranks: usize,
    /// Graphs per run.
    pub instances: usize,
    /// Roots per graph.
    pub roots: usize,
}

/// One checked driver call.
struct Call {
    report: BenchmarkReport,
    /// Host seconds of the driver call.
    call_s: f64,
    /// Peak heap bytes the driver call added.
    heap: usize,
    /// Host seconds of each root's check.
    check_s: Vec<f64>,
    failed: u64,
}

impl Kernel3 {
    /// The driver configuration of one instance.
    pub fn config(&self, seed: u64) -> BenchmarkConfig {
        let mut cfg = BenchmarkConfig::graph500(self.scale, self.ranks);
        cfg.seed = seed;
        cfg.num_roots = self.roots;
        cfg.validate = false;
        cfg.keep_paths = true;
        cfg
    }

    fn generator(&self, seed: u64) -> KroneckerGenerator {
        KroneckerGenerator::new(KroneckerParams::graph500(self.scale, seed))
    }

    /// Run the driver on one instance and check every root.
    fn call(
        &self,
        cfg: &BenchmarkConfig,
        el: &EdgeList,
        log: &mut SpanLog,
    ) -> Result<Call, String> {
        let ((report, heap), call_s) = log.time("driver", NO_GROUP, || {
            peak_during(|| try_run_sssp_benchmark(cfg))
        });
        let report = report.map_err(|e| format!("driver: {e}"))?;
        let mut failed = 0;
        let mut check_s = Vec::with_capacity(report.runs.len());
        for (i, run) in report.runs.iter().enumerate() {
            let ((ok, traversed), dt) = log.time("validate", i as u64, || match &run.paths {
                Some(sp) => check_tree(report.n, el, run.root, sp),
                None => (false, 0),
            });
            check_s.push(dt);
            if !ok || traversed != run.traversed_edges {
                failed += 1;
            }
        }
        if report.runs.len() != self.roots {
            failed += self.roots.abs_diff(report.runs.len()) as u64;
        }
        Ok(Call {
            report,
            call_s,
            heap,
            check_s,
            failed,
        })
    }

    /// The edge lists the checks use, one per instance.
    pub fn edge_lists(&self, seed: u64) -> Vec<EdgeList> {
        (0..self.instances)
            .map(|i| self.generator(instance_seed(seed, i)).generate_all())
            .collect()
    }

    /// One end-to-end pass over every instance, tracing off. Virtual-clock
    /// metrics pool every root of the pass; host-clock metrics are medians
    /// over the instances, so a burst of load on the host moves one
    /// instance, not the run.
    pub fn e2e_pass(&self, seed: u64, els: &[EdgeList]) -> Outcome {
        let mut log = SpanLog::new(crate::spans::HOST, false);
        let mut out = Outcome::default();
        let mut samples: Vec<(u64, f64)> = Vec::new();
        let (mut teps_host, mut qps_host, mut setup, mut run, mut heap) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (i, el) in els.iter().enumerate() {
            let cfg = self.config(instance_seed(seed, i));
            out.attempted += self.roots as u64;
            let t0 = Instant::now();
            match self.call(&cfg, el, &mut log) {
                Ok(c) => {
                    let wall = c.report.wall_time_s;
                    let trav: u64 = c.report.runs.iter().map(|r| r.traversed_edges).sum();
                    out.failed += c.failed;
                    samples.extend(
                        c.report
                            .runs
                            .iter()
                            .map(|r| (r.traversed_edges, r.sim_time_s)),
                    );
                    teps_host.push(trav as f64 / wall);
                    qps_host.push(c.report.runs.len() as f64 / wall);
                    setup.push(c.call_s - wall);
                    run.push(t0.elapsed().as_secs_f64());
                    heap.push(c.heap as f64 / MIB);
                }
                Err(e) => {
                    eprintln!("{e}");
                    out.failed += self.roots as u64;
                }
            }
        }
        if samples.is_empty() {
            return out;
        }
        let times: Vec<f64> = samples.iter().map(|s| s.1).collect();
        let m = &mut out.metrics;
        m.set(
            "teps_sim",
            TepsSummary::from_samples(&samples).harmonic_mean,
            "edges/s",
        );
        m.set("teps_host", median(&teps_host), "edges/s");
        m.set("setup_s", median(&setup), "s");
        m.set("run_s", median(&run), "s");
        m.set(
            "qps_sim",
            samples.len() as f64 / times.iter().sum::<f64>(),
            "queries/s",
        );
        m.set("qps_host", median(&qps_host), "queries/s");
        m.set("latency_sim_p50_ms", percentile(&times, 50.0) * 1e3, "ms");
        m.set("latency_sim_p95_ms", percentile(&times, 95.0) * 1e3, "ms");
        m.set("peak_heap_mb", max(&heap), "MiB");
        out
    }

    /// One traced pass over instance 0: the driver untraced and traced
    /// (virtual-clock rows, tracing overhead), host spans of the block
    /// partition's build, kernel and gather, the landmark probe, the
    /// checks, the Dijkstra baseline and the collective loop.
    pub fn traced_pass(&self, seed: u64, spans: &mut Vec<Span>) -> Outcome {
        let mut log = SpanLog::new(crate::spans::HOST, true);
        let mut out = Outcome::default();
        let seed0 = instance_seed(seed, 0);
        let gen = self.generator(seed0);
        let (el, gen_s) = log.time("gen", NO_GROUP, || gen.generate_all());
        let el = &el;
        let cfg = self.config(seed0);

        let plain = self.call(&cfg, el, &mut log);
        let pool0 = graph500::rayon::pool_stats();
        let traced = self.call(&cfg.clone().traced(true), el, &mut log);
        let pool1 = graph500::rayon::pool_stats();
        out.attempted += 2 * self.roots as u64;
        let (plain, traced) = match (plain, traced) {
            (Ok(p), Ok(t)) => (p, t),
            (p, t) => {
                for e in [p.err(), t.err()].into_iter().flatten() {
                    eprintln!("{e}");
                }
                out.failed = out.attempted;
                *spans = log.into_spans();
                return out;
            }
        };
        out.failed += plain.failed + traced.failed;
        let rep = &traced.report;
        let roots: Vec<VertexId> = rep.runs.iter().map(|r| r.root).collect();
        let r = roots.len() as f64;
        let trav: u64 = rep.runs.iter().map(|x| x.traversed_edges).sum();
        let sim: Vec<f64> = rep.runs.iter().map(|x| x.sim_time_s).collect();
        let per_root =
            |f: &dyn Fn(&graph500::RootRun) -> f64| rep.runs.iter().map(f).sum::<f64>() / r;
        let ts = rep
            .trace
            .as_ref()
            .map(|t| analyze(t, Some(TraceCode::RootRun)))
            .unwrap_or_default();

        // host spans and the landmark probe on the block partition
        let block = match self.block_run(seed0, &roots) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("block run: {e}");
                out.failed = out.attempted;
                *spans = log.into_spans();
                return out;
            }
        };
        let csr = host_csr(rep.n, el);
        let dj: Vec<f64> = roots
            .iter()
            .enumerate()
            .map(|(i, &root)| {
                log.time("dijkstra", i as u64, || dijkstra_radix_heap(&csr, root))
                    .1
            })
            .collect();
        let (allreduce_us, alltoallv_us) = log
            .time("collectives", NO_GROUP, || collective_host_us(self.ranks))
            .0;

        let m = &mut out.metrics;
        m.set("gen.host_s", gen_s, "s");
        m.set("build.host_s", block.build_s, "s");
        m.set("build.sim_s", rep.construction_time_s, "s");
        m.set("gather.host_s_per_root", mean(&block.gather_s), "s");
        m.set("kernel.host_s_per_root", mean(&block.kernel_s), "s");
        m.set("kernel.sim_s_per_root", mean(&sim), "s");
        m.set(
            "kernel.supersteps_per_root",
            per_root(&|x| x.stats.supersteps as f64),
            "count",
        );
        m.set(
            "kernel.relax_per_edge",
            ratio(ts.relaxations as f64, trav as f64),
            "ratio",
        );
        m.set(
            "kernel.push_iters_per_root",
            per_root(&|x| x.stats.push_iterations as f64),
            "count",
        );
        m.set(
            "kernel.pull_iters_per_root",
            per_root(&|x| x.stats.pull_iterations as f64),
            "count",
        );
        m.set(
            "kernel.fused_root_share",
            per_root(&|x| x.stats.tail_fused as u8 as f64),
            "ratio",
        );
        let (compute, comm, wait) = ts.superstep_shares();
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
            ts.updates_sent as f64 / r,
            "count",
        );
        m.set(
            "exchange.dedup_ratio",
            ratio(ts.updates_sent as f64, ts.updates_offered as f64),
            "ratio",
        );
        m.set(
            "coll.count_per_root",
            ts.collectives as f64 / self.ranks as f64 / r,
            "count",
        );
        m.set(
            "net.msgs_per_root",
            rep.net.total_msgs() as f64 / r,
            "count",
        );
        m.set(
            "net.bytes_per_edge",
            ratio(rep.net.total_bytes() as f64, trav as f64),
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
        m.set("coll.allreduce.host_us", allreduce_us, "us");
        m.set("coll.alltoallv.host_us", alltoallv_us, "us");
        m.set("validate.host_s_per_root", mean(&traced.check_s), "s");
        m.set("baseline.dijkstra_host_s_per_root", mean(&dj), "s");
        m.set(
            "pool.steals_per_root",
            (pool1.steals - pool0.steals) as f64 / r,
            "count",
        );
        m.set(
            "pool.parks_per_root",
            (pool1.parks - pool0.parks) as f64 / r,
            "count",
        );
        m.set("landmarks.host_s", block.landmarks_s, "s");
        m.set("landmarks.sim_s", block.landmarks_sim_s, "s");
        // a root is a window of one full query
        let root_host: Vec<f64> = block
            .kernel_s
            .iter()
            .zip(&block.gather_s)
            .map(|(k, g)| k + g)
            .collect();
        m.set("window.host_s_p50", median(&root_host), "s");
        m.set("window.sim_s_p50", median(&sim), "s");
        m.set("serve.cache_hit_ratio", 0.0, "ratio");
        m.set("serve.early_exit_ratio", 0.0, "ratio");
        m.set("serve.pruned_ratio", 0.0, "ratio");
        m.set(
            "serve.supersteps_per_window",
            per_root(&|x| x.stats.supersteps as f64),
            "count",
        );
        m.set("serve.relax_per_lane", ts.relaxations as f64 / r, "count");
        m.set(
            "serve.updates_per_lane",
            ts.updates_sent as f64 / r,
            "count",
        );
        m.set(
            "trace.overhead_ratio",
            ratio(rep.wall_time_s, plain.report.wall_time_s),
            "ratio",
        );

        let mut all = log.into_spans();
        crate::spans::merge(&mut all, block.spans);
        *spans = all;
        out
    }

    /// Build the block-partitioned graph of `seed` on a fresh machine and
    /// run `roots` through the 1D kernel and the gather, then precompute
    /// landmarks, each inside host spans.
    fn block_run(&self, seed: u64, roots: &[VertexId]) -> Result<BlockRun, FaultEscalation> {
        let gen = self.generator(seed);
        let n = gen.params().num_vertices();
        let m = gen.params().num_edges();
        let p = self.ranks;
        let opts = self.config(seed).opts;
        let serve_cfg = crate::SERVE.config(seed);
        let rep = Machine::new(MachineConfig::with_ranks(p)).try_run(|ctx| {
            let rank = ctx.rank();
            let mut log = SpanLog::new(rank as u32, true);
            let (lo, hi) = (rank as u64 * m / p as u64, (rank as u64 + 1) * m / p as u64);
            let (g, _) = log.time("build", NO_GROUP, || {
                let mine = gen.edge_block(lo..hi);
                assemble_local_graph(ctx, mine.iter(), Block1D::new(n, p))
            });
            for (i, &root) in roots.iter().enumerate() {
                let i = i as u64;
                log.begin("root", i);
                let (res, _) = log.time("kernel", i, || {
                    try_distributed_delta_stepping(ctx, &g, root, &opts)
                });
                let (sp, _) = res?;
                log.time("gather", i, || sp.gather_to_all(ctx, g.part()));
                log.end();
            }
            let v0 = ctx.now();
            let serve_cfg = engine_config(&serve_cfg, false);
            let (engine, _) = log.time("landmarks", NO_GROUP, || {
                QueryEngine::try_new(ctx, &g, serve_cfg)
            });
            engine?;
            Ok((log.into_spans(), ctx.now() - v0))
        })?;
        let mut spans = Vec::new();
        let mut landmarks_sim_s: f64 = 0.0;
        for res in rep.results {
            let (s, lm) = res?;
            landmarks_sim_s = landmarks_sim_s.max(lm);
            crate::spans::merge(&mut spans, s);
        }
        let groups = 0..roots.len() as u64;
        Ok(BlockRun {
            build_s: rank_max(&spans, "build", NO_GROUP),
            kernel_s: groups
                .clone()
                .map(|i| rank_max(&spans, "kernel", i))
                .collect(),
            gather_s: groups.map(|i| rank_max(&spans, "gather", i)).collect(),
            landmarks_s: rank_max(&spans, "landmarks", NO_GROUP),
            landmarks_sim_s,
            spans,
        })
    }
}

/// Host spans of the block-partition run.
struct BlockRun {
    build_s: f64,
    kernel_s: Vec<f64>,
    gather_s: Vec<f64>,
    landmarks_s: f64,
    landmarks_sim_s: f64,
    spans: Vec<Span>,
}
