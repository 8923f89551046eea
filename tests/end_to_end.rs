//! End-to-end integration: the full Graph500 pipeline — generate →
//! partition → assemble → solve → gather → validate → TEPS — across
//! kernels, partitions, machine shapes and optimization configurations.

use graph500::gen::{KroneckerGenerator, KroneckerParams};
use graph500::simnet::{LogGP, Machine, MachineConfig, Topology};
use graph500::sssp::{Direction, Grid2DSssp, OptConfig};
use graph500::validate::{validate_sssp, SsspResult};
use graph500::{run_bfs_benchmark, run_sssp_benchmark, BenchmarkConfig, PartitionStrategy};

#[test]
fn official_shape_run_validates() {
    // The real configuration in miniature: 64 roots, full stack.
    let mut cfg = BenchmarkConfig::graph500(9, 4);
    cfg.num_roots = 64;
    let rep = run_sssp_benchmark(&cfg);
    assert_eq!(rep.runs.len(), 64);
    assert!(rep.all_validated());
    assert!(rep.teps.harmonic_mean > 0.0);
    assert!(rep.teps.min <= rep.teps.harmonic_mean);
    assert!(rep.teps.harmonic_mean <= rep.teps.max);
}

#[test]
fn every_topology_validates() {
    for topo in [
        Topology::Crossbar,
        Topology::FatTree { radix: 4 },
        Topology::Torus2D { w: 2, h: 2 },
        Topology::Dragonfly { group: 2 },
    ] {
        let mut cfg = BenchmarkConfig::quick(8, 4);
        cfg.machine = cfg.machine.topology(topo);
        let rep = run_sssp_benchmark(&cfg);
        assert!(rep.all_validated(), "{topo:?}");
    }
}

#[test]
fn topology_changes_time_but_not_results() {
    let mk = |topo| {
        let mut cfg = BenchmarkConfig::quick(9, 8);
        cfg.machine = cfg.machine.topology(topo);
        run_sssp_benchmark(&cfg)
    };
    let xbar = mk(Topology::Crossbar);
    let torus = mk(Topology::Torus2D { w: 4, h: 2 });
    // identical traversal work...
    for (a, b) in xbar.runs.iter().zip(&torus.runs) {
        assert_eq!(a.root, b.root);
        assert_eq!(a.traversed_edges, b.traversed_edges);
    }
    // ...but the multi-hop torus is slower in simulated time
    assert!(torus.teps.harmonic_mean < xbar.teps.harmonic_mean);
}

#[test]
fn slower_network_is_slower() {
    let mk = |loggp| {
        let mut cfg = BenchmarkConfig::quick(9, 4);
        cfg.machine = cfg.machine.loggp(loggp);
        cfg.validate = false;
        run_sssp_benchmark(&cfg).teps.harmonic_mean
    };
    let fast = mk(LogGP::default());
    let slow = mk(LogGP {
        latency: 50e-6,
        overhead: 10e-6,
        per_byte: 1.0 / 1e9,
    });
    assert!(slow < fast, "slow {slow} vs fast {fast}");
}

#[test]
fn bfs_and_sssp_agree_on_reachability() {
    let cfg = BenchmarkConfig::quick(9, 4);
    let bfs = run_bfs_benchmark(&cfg);
    let sssp = run_sssp_benchmark(&cfg);
    assert!(bfs.all_validated() && sssp.all_validated());
    // same roots (same seed) → the traversed-edge counts must coincide
    for (b, s) in bfs.runs.iter().zip(&sssp.runs) {
        assert_eq!(b.root, s.root);
        assert_eq!(b.traversed_edges, s.traversed_edges);
    }
}

#[test]
fn sssp_deterministic_across_runs() {
    let cfg = BenchmarkConfig::quick(8, 3);
    let a = run_sssp_benchmark(&cfg);
    let b = run_sssp_benchmark(&cfg);
    assert_eq!(a.teps.harmonic_mean, b.teps.harmonic_mean);
    assert_eq!(a.net.total_bytes(), b.net.total_bytes());
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_eq!(x.traversed_edges, y.traversed_edges);
        assert_eq!(x.sim_time_s, y.sim_time_s);
    }
}

#[test]
fn optimizations_do_not_change_traversal() {
    let mk = |opts: OptConfig, part| {
        let mut cfg = BenchmarkConfig::quick(9, 4);
        cfg.opts = opts;
        cfg.partition = part;
        run_sssp_benchmark(&cfg)
    };
    let degree_aware = PartitionStrategy::DegreeAware { hub_factor: 8.0 };
    let base = mk(OptConfig::all_on(), degree_aware);
    for (name, rep) in [
        (
            "all_off",
            mk(OptConfig::all_off(), PartitionStrategy::Block),
        ),
        (
            "pull",
            mk(
                OptConfig::all_on().with_direction(Direction::Pull),
                degree_aware,
            ),
        ),
        ("cyclic", mk(OptConfig::all_on(), PartitionStrategy::Cyclic)),
    ] {
        assert!(rep.all_validated(), "{name}");
        for (a, b) in base.runs.iter().zip(&rep.runs) {
            assert_eq!(
                a.traversed_edges, b.traversed_edges,
                "{name}: root {}",
                a.root
            );
        }
    }
}

/// The acceptance check for deterministic mode: two `run_sssp_benchmark`
/// calls with identical seeds run the scale-10 pipeline end to end (1D
/// degree-aware layout, 8 ranks) and must agree on every distance vector,
/// every superstep count, and every per-rank `NetStats` — and every root
/// passes the full five-rule validator.
#[test]
fn scale10_deterministic_pipeline_1d_replays_identically() {
    let mut cfg = BenchmarkConfig::quick(10, 8).deterministic(0);
    cfg.keep_paths = true;
    let a = run_sssp_benchmark(&cfg);
    let b = run_sssp_benchmark(&cfg);
    assert!(a.all_validated(), "first run fails validation");
    assert!(b.all_validated(), "second run fails validation");
    assert_eq!(a.runs.len(), b.runs.len());
    for (x, y) in a.runs.iter().zip(&b.runs) {
        assert_eq!(x.root, y.root);
        assert_eq!(x.stats, y.stats, "kernel counters moved between replays");
        let (px, py) = (
            x.paths.as_ref().expect("kept"),
            y.paths.as_ref().expect("kept"),
        );
        assert_eq!(px.dist.len(), 1 << 10);
        for v in 0..px.dist.len() {
            assert_eq!(
                px.dist[v].to_bits(),
                py.dist[v].to_bits(),
                "root {}: distance moved at vertex {v}",
                x.root
            );
        }
        assert_eq!(px.parent, py.parent, "root {}: parents moved", x.root);
        assert_eq!(x.sim_time_s, y.sim_time_s);
        assert_eq!(x.traversed_edges, y.traversed_edges);
    }
    assert_eq!(a.per_rank_net, b.per_rank_net, "per-rank NetStats moved");
    assert_eq!(a.net, b.net, "aggregate NetStats moved");
    assert_eq!(a.construction_time_s, b.construction_time_s);
}

/// Same property for the 2D grid layout (not driven by the benchmark
/// driver): the full scale-10 pipeline — generate, 2D-partition, solve,
/// gather — replays byte-identically under the deterministic scheduler,
/// and the result passes the full five-rule validator.
#[test]
fn scale10_deterministic_pipeline_2d_replays_identically() {
    let gen = KroneckerGenerator::new(KroneckerParams::graph500(10, 20220814));
    let el = gen.generate_all();
    let n = 1u64 << 10;
    let p = 4usize;
    let csr_root = {
        // deterministic non-isolated root: first vertex that has an edge
        let mut has_edge = vec![false; n as usize];
        for e in el.iter() {
            has_edge[e.u as usize] = true;
            has_edge[e.v as usize] = true;
        }
        (0..n)
            .find(|&v| has_edge[v as usize])
            .expect("nonempty graph")
    };

    let run = || {
        let report = Machine::new(MachineConfig::with_ranks(p).deterministic(0)).run(|ctx| {
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine = (lo..hi).map(|i| el.get(i));
            let mut g = Grid2DSssp::build(ctx, n, mine, 0.25);
            let stats = g.run(ctx, csr_root);
            (g.gather(ctx), stats.supersteps)
        });
        let stats = report.stats.clone();
        let (sp, supersteps) = report.results.into_iter().next().expect("rank 0");
        (sp, supersteps, stats)
    };

    let (sp_a, steps_a, net_a) = run();
    let (sp_b, steps_b, net_b) = run();

    // full five-rule validation on the gathered result
    let res = SsspResult {
        root: csr_root,
        dist: sp_a.dist.clone(),
        parent: sp_a.parent.clone(),
    };
    let rep = validate_sssp(n, &el, &res);
    assert!(rep.ok, "2D pipeline fails validation: {:?}", rep.errors);
    assert!(rep.reached > 1 && rep.traversed_edges > 0);

    for v in 0..n as usize {
        assert_eq!(
            sp_a.dist[v].to_bits(),
            sp_b.dist[v].to_bits(),
            "distance moved at {v}"
        );
    }
    assert_eq!(sp_a.parent, sp_b.parent, "parents moved between replays");
    assert_eq!(steps_a, steps_b, "superstep count moved between replays");
    assert_eq!(net_a, net_b, "per-rank NetStats moved between replays");
}

#[test]
fn single_rank_machine_works() {
    let rep = run_sssp_benchmark(&BenchmarkConfig::quick(8, 1));
    assert!(rep.all_validated());
    // a single rank sends no point-to-point traffic
    assert_eq!(rep.net.user_msgs, 0);
}

#[test]
fn many_ranks_few_vertices() {
    // more ranks than some ranks have vertices to own — degenerate shapes
    let rep = run_sssp_benchmark(&BenchmarkConfig::quick(6, 16));
    assert!(rep.all_validated());
}

#[test]
fn unusable_cli_values_are_one_line_errors_not_panics() {
    let cases: [&[&str]; 8] = [
        &["sssp", "--scale", "8", "--ranks", "2", "--delta", "0"],
        &["sssp", "--scale", "8", "--ranks", "2", "--delta", "-0.5"],
        &["sssp", "--scale", "8", "--ranks", "0"],
        &["sssp", "--scale", "0", "--ranks", "2"],
        &["serve", "--scale", "8", "--ranks", "0"],
        &["stats", "--scale", "0"],
        &["sssp", "--scale", "8", "--ranks", "2", "--roots", "0"],
        &["bfs", "--scale", "8", "--ranks", "2", "--roots", "0"],
    ];
    for args in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_g500"))
            .args(args)
            .output()
            .expect("spawn g500");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "g500 {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "g500 {args:?}: {stderr}");
        let last = stderr.lines().last().unwrap_or_default();
        assert!(last.starts_with("g500: --"), "g500 {args:?}: {stderr}");
    }
}
