//! Cross-checks of the benchmark's own paths against the program's
//! drivers, at scale 9.

use g500_perfbench::kernel3::Kernel3;
use g500_perfbench::layers::instance_seed;
use g500_perfbench::report::percentile;
use g500_perfbench::serve::{check, engine_config, run_instance, Serve};
use g500_perfbench::trace_stats::analyze;
use g500_perfbench::{workload, Outcome};
use graph500::gen::{KroneckerGenerator, KroneckerParams};
use graph500::partition::{assemble_local_graph, Block1D};
use graph500::simnet::{Machine, TraceCode};
use graph500::sssp::QueryEngine;
use graph500::{synth_queries, try_run_query_serving_benchmark, try_run_sssp_benchmark};

const SERVE9: Serve = Serve {
    scale: 9,
    ranks: 2,
    instances: 1,
    queries: 48,
};

const KERNEL9: Kernel3 = Kernel3 {
    scale: 9,
    ranks: 2,
    instances: 2,
    roots: 4,
};

#[test]
fn serving_path_reproduces_the_serving_driver() {
    let cfg = SERVE9.config(instance_seed(7, 0));
    let rep = try_run_query_serving_benchmark(&cfg).expect("serving driver");
    let s = run_instance(&cfg).expect("benchmark serving path");
    let lat: Vec<f64> = s.outcomes.iter().map(|o| o.latency_s).collect();
    assert_eq!(s.stats.queries as f64 / s.serve_sim_s, rep.qps);
    assert_eq!(percentile(&lat, 50.0) * 1e3, rep.p50_ms);
    assert_eq!(percentile(&lat, 95.0) * 1e3, rep.p95_ms);
    assert_eq!(percentile(&lat, 99.0) * 1e3, rep.p99_ms);
    assert_eq!(s.stats.cache_hits, rep.cache_hits);
    assert_eq!(s.stats.early_exits, rep.early_exits);
    assert_eq!(s.stats.supersteps, rep.supersteps);
    assert!(rep.cache_hits > 0, "the stream should exercise the LRU");
}

#[test]
fn one_serve_call_per_window_matches_one_call() {
    let cfg = SERVE9.config(instance_seed(3, 0));
    let per_window = run_instance(&cfg).expect("per-window path");
    let gen = KroneckerGenerator::new(KroneckerParams::graph500(cfg.scale, cfg.seed));
    let (n, m, p) = (
        gen.params().num_vertices(),
        gen.params().num_edges(),
        cfg.machine.ranks,
    );
    let queries = synth_queries(&gen.generate_all(), n, &cfg);
    let engine_cfg = engine_config(&cfg, true);
    let rep = Machine::new(cfg.machine).run(|ctx| {
        let r = ctx.rank() as u64;
        ctx.charge_compute(m / p as u64);
        let mine = gen.edge_block(r * m / p as u64..(r + 1) * m / p as u64);
        let g = assemble_local_graph(ctx, mine.iter(), Block1D::new(n, p));
        let mut engine = QueryEngine::try_new(ctx, &g, engine_cfg.clone()).expect("engine");
        // the serving driver's clock read before its single call
        ctx.allreduce(ctx.now(), |a, b| a.max(*b));
        engine.serve(ctx, &queries)
    });
    let single = &rep.results[0];
    assert_eq!(single.len(), per_window.outcomes.len());
    for (a, b) in single.iter().zip(&per_window.outcomes) {
        assert_eq!(a.query, b.query);
        assert_eq!(a.dist.map(f32::to_bits), b.dist.map(f32::to_bits));
        assert_eq!(a.parent, b.parent);
        assert_eq!(
            (a.cache_hit, a.early_exit, a.shed),
            (b.cache_hit, b.early_exit, b.shed)
        );
        assert_eq!(a.latency_s, b.latency_s);
    }
}

#[test]
fn serving_check_passes_and_catches_a_wrong_answer() {
    let cfg = SERVE9.config(instance_seed(5, 0));
    let mut s = run_instance(&cfg).expect("serving path");
    let ok = check(&s);
    assert_eq!(ok.failed, 0);
    assert!(ok.edges > 0 && !ok.validate_s.is_empty() && !ok.dijkstra_s.is_empty());
    let p2p = s
        .outcomes
        .iter()
        .position(|o| o.dist.is_some_and(f32::is_finite))
        .expect("a reachable point-to-point answer");
    s.outcomes[p2p].dist = s.outcomes[p2p].dist.map(|d| d + 1.0);
    let (qi, tree) = &mut s.trees[0];
    tree.dist[s.queries[*qi].source as usize] = 1.0; // a root at distance 1
    assert_eq!(check(&s).failed, 2);
}

#[test]
fn kernel3_path_reproduces_driver_teps() {
    let seed = 11;
    let els = KERNEL9.edge_lists(seed);
    let pass = KERNEL9.e2e_pass(seed, &els);
    assert_eq!(pass.failed, 0);
    assert_eq!(pass.attempted, (KERNEL9.instances * KERNEL9.roots) as u64);
    // one instance alone is the driver's own harmonic mean
    let one = Kernel3 {
        instances: 1,
        ..KERNEL9
    };
    let alone = one.e2e_pass(seed, &els[..1]);
    let rep = try_run_sssp_benchmark(&one.config(instance_seed(seed, 0))).expect("driver");
    assert_eq!(alone.metrics.get("teps_sim"), Some(rep.teps.harmonic_mean));
    let traced =
        try_run_sssp_benchmark(&one.config(instance_seed(seed, 0)).traced(true)).expect("driver");
    assert_eq!(traced.teps.harmonic_mean, rep.teps.harmonic_mean);
}

#[test]
fn trace_rollup_is_scoped_to_root_runs() {
    let rep = try_run_sssp_benchmark(&KERNEL9.config(3).traced(true)).expect("driver");
    let trace = rep.trace.expect("traced");
    let roots = analyze(&trace, Some(TraceCode::RootRun));
    let all = analyze(&trace, None);
    let relax: u64 = rep.runs.iter().map(|r| r.stats.relaxations).sum();
    assert!(
        roots.relaxations >= relax,
        "trace counts every rank, stats rank 0"
    );
    assert!(roots.scope_s > 0.0 && roots.scope_s < all.scope_s);
    assert!(roots.collectives > 0 && roots.collectives < all.collectives);
    for code in [
        TraceCode::Exchange,
        TraceCode::Allreduce,
        TraceCode::Alltoallv,
    ] {
        let share = roots.share_of(code);
        assert!(share > 0.0 && share < 1.0, "{code:?} share {share}");
    }
    let (c, m, w) = roots.superstep_shares();
    assert!((c + m + w - 1.0).abs() < 1e-9);
}

#[test]
fn traced_passes_report_every_layer_metric() {
    let mut spans = Vec::new();
    let k = KERNEL9.traced_pass(2, &mut spans);
    assert_eq!(k.failed, 0);
    assert!(
        spans.iter().any(|s| s.name == "kernel") && spans.iter().any(|s| s.name == "landmarks")
    );
    let s = SERVE9.traced_pass(2, &mut spans);
    assert_eq!(s.failed, 0);
    let names = |o: &Outcome| o.metrics.rows.iter().map(|r| r.0).collect::<Vec<_>>();
    assert_eq!(names(&k), names(&s));
    assert_eq!(names(&k), declared("per_layer"));
    assert!(spans.iter().any(|s| s.name == "window"));
}

#[test]
fn end_to_end_passes_report_the_declared_metrics() {
    let names = |o: &Outcome| o.metrics.rows.iter().map(|r| r.0).collect::<Vec<_>>();
    let k = KERNEL9.e2e_pass(4, &KERNEL9.edge_lists(4));
    let s = SERVE9.e2e_pass(4);
    assert_eq!((k.failed, s.failed), (0, 0));
    assert_eq!(names(&k), declared("end_to_end"));
    assert_eq!(names(&s), declared("end_to_end"));
    for o in [&k, &s] {
        assert!(
            o.metrics.rows.iter().all(|r| r.1.is_finite() && r.1 > 0.0),
            "{o:?}"
        );
    }
}

#[test]
fn gated_workloads_are_in_the_catalog() {
    for name in declared("workloads") {
        assert!(workload(name).is_some(), "{name}");
    }
}

/// Names listed under `section` of BENCHMARK.json, in order.
fn declared(section: &str) -> Vec<&'static str> {
    let json: &'static str = include_str!("../../BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("quoted name")])
        .collect()
}
