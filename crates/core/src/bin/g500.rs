//! `g500` — the command-line front end.
//!
//! ```text
//! g500 sssp  --scale 14 --ranks 8 [--roots 64] [--topology fat-tree|torus|crossbar|dragonfly]
//!            [--partition block|cyclic|degree-aware] [--no-validate]
//!            [--delta 0.125] [--direction push|pull|hybrid]
//!            [--no-coalescing] [--no-dedup] [--no-compression] [--no-fusion]
//! g500 bfs   --scale 14 --ranks 8 [--roots 64] [--no-validate]
//! g500 stats --scale 14
//! ```
//!
//! Argument parsing is hand-rolled (two flags' worth of logic does not
//! justify a dependency).

use graph500::gen::{KroneckerGenerator, KroneckerParams};
use graph500::graph::{component_stats, Csr, DegreeStats, Directedness};
use graph500::simnet::Topology;
use graph500::sssp::{Direction, OptConfig};
use graph500::{
    run_bfs_benchmark, try_run_query_serving_benchmark, try_run_sssp_benchmark, BenchmarkConfig,
    CrashPlan, FaultPlan, PartitionStrategy, ServeBenchConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage:\n  g500 sssp  --scale N --ranks P [--roots K] [--seed S] [--topology T] \\\n             [--partition block|cyclic|degree-aware] [--no-validate] [--delta D] \\\n             [--direction push|pull|hybrid] [--no-coalescing] [--no-dedup] \\\n             [--no-compression] [--no-fusion] [--deterministic] [--sched-seed S] \\\n             [--threads T] [--fault-seed S] [--drop-rate P] [--dup-rate P] \\\n             [--corrupt-rate P] [--reorder-rate P] [--retry-budget N] \\\n             [--crash-seed S] [--crash-rate P] [--checkpoint-interval K] \\\n             [--recovery-budget N] [--trace] [--trace-out PATH]\n  g500 bfs   --scale N --ranks P [--roots K] [--seed S] [--no-validate] [--json] \\\n             [--threads T] [--trace] [--trace-out PATH] [fault flags as above]\n  g500 serve --scale N --ranks P [--queries Q] [--batch B] [--landmarks K] \\\n             [--lru C] [--p2p PERMILLE] [--pool S] [--seed S] [--json] \\\n             [--deterministic] [--sched-seed S] [--threads T] [--deadline SEC] \\\n             [crash flags as above]\n  g500 stats --scale N [--seed S] [--threads T]\n\n  serve keeps the graph resident and answers a deterministic synthetic\n  stream of full and point-to-point SSSP queries in admission windows of\n  --batch through the batched kernel, with --landmarks triangle-bound\n  pruning and an --lru full-result cache; it reports virtual-time QPS\n  and p50/p95/p99 latency.\n  --deterministic runs the simulated machine under the seeded serialized\n  scheduler: the same --seed/--sched-seed pair replays byte-identical\n  results and NetStats. --sched-seed (default 0 = canonical order)\n  additionally fuzzes message delivery order and implies --deterministic.\n  --threads sizes the process-global worker pool (overrides G500_THREADS;\n  default: hardware parallelism). Results are bitwise identical at any\n  thread count — only wall time changes.\n  --drop-rate/--dup-rate/--corrupt-rate/--reorder-rate (all default 0)\n  inject seeded lossy-network faults, replayable from --fault-seed; the\n  reliable transport masks them, so distances and validation are\n  byte-identical to the fault-free run — only virtual time and the\n  retransmit counters change. --retry-budget (default 16) bounds\n  retransmissions per frame before a fail-stop TransportError.\n  --crash-rate (default 0) injects seeded whole-rank process crashes at\n  superstep boundaries, replayable from --crash-seed; the kernel takes\n  buddy-replicated checkpoints every --checkpoint-interval supersteps\n  (default 4) and rolls back on each crash, so distances stay\n  byte-identical to the fault-free run. --recovery-budget (default 64)\n  bounds restarts before the run ends with a typed error. Under serve,\n  an unrecoverable window is retried once and then its queries are shed\n  (reported, never a panic); --deadline SEC additionally sheds answers\n  whose virtual latency exceeds SEC.\n  --trace (or G500_TRACE=1) records a virtual-time trace: the report\n  gains a per-superstep compute/comm/wait breakdown, and --trace-out\n  PATH (default trace.json with --trace-out alone) writes Chrome\n  trace_event JSON for chrome://tracing or ui.perfetto.dev. Tracing\n  never changes results: distances, NetStats, and the untraced report\n  fields are byte-identical with tracing on or off."
    );
    std::process::exit(2)
}

struct Args {
    flags: Vec<String>,
}

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.flags.get(i + 1))
            .map(String::as_str)
    }

    fn num(&self, name: &str, default: u64) -> u64 {
        match self.value(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for {name}: {v}");
                usage()
            }),
        }
    }

    fn fnum(&self, name: &str, default: f64) -> f64 {
        match self.value(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("bad value for {name}: {v}");
                usage()
            }),
        }
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|a| a == name)
    }

    /// `--scale`, in the generator's range 1..=62.
    fn scale(&self) -> u32 {
        let scale = self.num("--scale", 12);
        if !(1..=62).contains(&scale) {
            invalid(&format!("--scale must be in 1..=62, got {scale}"));
        }
        scale as u32
    }

    /// `--ranks`, at least one.
    fn ranks(&self) -> usize {
        let ranks = self.num("--ranks", 4);
        if ranks == 0 {
            invalid("--ranks must be at least 1");
        }
        ranks as usize
    }

    /// `--roots`, at least one.
    fn roots(&self) -> usize {
        let roots = self.num("--roots", 64);
        if roots == 0 {
            invalid("--roots must be at least 1");
        }
        roots as usize
    }
}

/// Reject a well-formed flag value the run cannot use: one line on
/// stderr, exit 1.
fn invalid(msg: &str) -> ! {
    eprintln!("g500: {msg}");
    std::process::exit(1)
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_else(|| usage());
    let args = Args {
        flags: argv.collect(),
    };

    // Size the worker pool before any parallel work runs (the pool is
    // process-global and fixed at first use).
    let threads = args.num("--threads", 0) as usize;
    if threads > 0 {
        graph500::rayon::configure_threads(threads);
    }

    match cmd.as_str() {
        "sssp" => cmd_sssp(&args),
        "bfs" => cmd_bfs(&args),
        "serve" => cmd_serve(&args),
        "stats" => cmd_stats(&args),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown command: {other}");
            usage()
        }
    }
}

/// Parse the crash-injection flags shared by `sssp` and `serve`.
fn crash_plan(args: &Args) -> CrashPlan {
    let plan = CrashPlan::random(args.num("--crash-seed", 0), args.fnum("--crash-rate", 0.0))
        .with_checkpoint_interval(args.num("--checkpoint-interval", 4))
        .with_recovery_budget(args.num("--recovery-budget", 64) as u32);
    if let Err(e) = plan.validate() {
        eprintln!("{e}");
        usage();
    }
    plan
}

fn build_cfg(args: &Args) -> BenchmarkConfig {
    let scale = args.scale();
    let ranks = args.ranks();
    let mut cfg = BenchmarkConfig::graph500(scale, ranks);
    cfg.num_roots = args.roots();
    cfg.seed = args.num("--seed", cfg.seed);
    cfg.validate = !args.has("--no-validate");
    cfg.threads = args.num("--threads", 0) as usize;
    if args.has("--deterministic") || args.has("--sched-seed") {
        cfg = cfg.deterministic(args.num("--sched-seed", 0));
    }
    let fault = FaultPlan::none()
        .with_seed(args.num("--fault-seed", 0))
        .with_drop(args.fnum("--drop-rate", 0.0))
        .with_duplicate(args.fnum("--dup-rate", 0.0))
        .with_corrupt(args.fnum("--corrupt-rate", 0.0))
        .with_reorder(args.fnum("--reorder-rate", 0.0))
        .with_retry_budget(args.num("--retry-budget", 16) as u32);
    if let Err(e) = fault.validate() {
        eprintln!("{e}");
        usage();
    }
    cfg = cfg.faults(fault);
    cfg = cfg.crashes(crash_plan(args));
    let env_trace = matches!(
        std::env::var("G500_TRACE").ok().as_deref(),
        Some("1") | Some("true")
    );
    if args.has("--trace") || args.has("--trace-out") || env_trace {
        cfg = cfg.traced(true);
    }
    if let Some(t) = args.value("--topology") {
        let side = (ranks as f64).sqrt().ceil().max(1.0) as u32;
        cfg.machine = cfg.machine.topology(match t {
            "crossbar" => Topology::Crossbar,
            "fat-tree" => Topology::FatTree { radix: 4 },
            "torus" => Topology::Torus2D {
                w: side,
                h: (ranks as u32).div_ceil(side),
            },
            "dragonfly" => Topology::Dragonfly { group: side.max(2) },
            other => {
                eprintln!("unknown topology: {other}");
                usage()
            }
        });
    }
    if let Some(p) = args.value("--partition") {
        cfg.partition = match p {
            "block" => PartitionStrategy::Block,
            "cyclic" => PartitionStrategy::Cyclic,
            "degree-aware" => PartitionStrategy::DegreeAware { hub_factor: 8.0 },
            other => {
                eprintln!("unknown partition: {other}");
                usage()
            }
        };
    }
    let mut opts = OptConfig::all_on();
    if args.has("--no-coalescing") {
        opts = opts.without_coalescing();
    }
    if args.has("--no-dedup") {
        opts = opts.without_dedup();
    }
    if args.has("--no-compression") {
        opts = opts.without_compression();
    }
    if args.has("--no-fusion") {
        opts = opts.without_fusion();
    }
    if let Some(d) = args.value("--direction") {
        opts = opts.with_direction(match d {
            "push" => Direction::Push,
            "pull" => Direction::Pull,
            "hybrid" => Direction::Hybrid,
            other => {
                eprintln!("unknown direction: {other}");
                usage()
            }
        });
    }
    if let Some(d) = args.value("--delta") {
        let delta: f32 = d.parse().unwrap_or_else(|_| {
            eprintln!("bad --delta: {d}");
            usage()
        });
        if !(delta > 0.0 && delta.is_finite()) {
            invalid(&format!("--delta must be positive and finite, got {d}"));
        }
        opts = opts.with_delta(delta);
    }
    cfg.opts = opts;
    cfg
}

/// Write the Chrome trace file when `--trace-out` was given (defaulting to
/// `trace.json` when the flag carries no path).
fn write_trace_if_requested(args: &Args, rep: &graph500::BenchmarkReport) {
    if !args.has("--trace-out") {
        return;
    }
    let Some(trace) = rep.trace.as_ref() else {
        return;
    };
    let path = args
        .value("--trace-out")
        .filter(|v| !v.starts_with("--"))
        .unwrap_or("trace.json");
    match graph500::write_chrome_trace(std::path::Path::new(path), trace) {
        Ok(()) => eprintln!("wrote Chrome trace to {path}"),
        Err(e) => {
            eprintln!("failed to write trace to {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_sssp(args: &Args) {
    let cfg = build_cfg(args);
    eprintln!(
        "g500 sssp: scale {}, {} ranks, {} roots…",
        cfg.scale, cfg.machine.ranks, cfg.num_roots
    );
    let rep = match try_run_sssp_benchmark(&cfg) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("g500 sssp: {e}");
            std::process::exit(1);
        }
    };
    write_trace_if_requested(args, &rep);
    if args.has("--json") {
        println!("{}", rep.to_json());
        if cfg.validate && !rep.all_validated() {
            std::process::exit(1);
        }
        return;
    }
    println!("{}", rep.render());
    if cfg.validate {
        println!("validated:             {}", rep.all_validated());
        if !rep.all_validated() {
            std::process::exit(1);
        }
    }
}

fn cmd_bfs(args: &Args) {
    let cfg = build_cfg(args);
    eprintln!(
        "g500 bfs: scale {}, {} ranks, {} roots…",
        cfg.scale, cfg.machine.ranks, cfg.num_roots
    );
    let rep = run_bfs_benchmark(&cfg);
    write_trace_if_requested(args, &rep);
    if args.has("--json") {
        println!("{}", rep.to_json());
        if cfg.validate && !rep.all_validated() {
            std::process::exit(1);
        }
        return;
    }
    println!("{}", rep.render());
    if cfg.validate {
        println!("validated:             {}", rep.all_validated());
        if !rep.all_validated() {
            std::process::exit(1);
        }
    }
}

fn cmd_serve(args: &Args) {
    let scale = args.scale();
    let ranks = args.ranks();
    let mut cfg = ServeBenchConfig::new(scale, ranks);
    cfg.num_queries = args.num("--queries", 64) as usize;
    cfg.batch_width = args.num("--batch", 16) as usize;
    cfg.num_landmarks = args.num("--landmarks", 4) as usize;
    cfg.lru_capacity = args.num("--lru", 8) as usize;
    cfg.p2p_permille = args.num("--p2p", 500);
    cfg.source_pool = args.num("--pool", 0) as usize;
    cfg.seed = args.num("--seed", cfg.seed);
    cfg.threads = args.num("--threads", 0) as usize;
    cfg.deadline_s = args.fnum("--deadline", f64::INFINITY);
    if cfg.deadline_s <= 0.0 || cfg.deadline_s.is_nan() {
        eprintln!("bad --deadline: must be a positive number of seconds");
        usage();
    }
    if args.has("--deterministic") || args.has("--sched-seed") {
        cfg = cfg.deterministic(args.num("--sched-seed", 0));
    }
    cfg = cfg.crashes(crash_plan(args));
    eprintln!(
        "g500 serve: scale {}, {} ranks, {} queries at window {}…",
        cfg.scale, cfg.machine.ranks, cfg.num_queries, cfg.batch_width
    );
    let rep = match try_run_query_serving_benchmark(&cfg) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("g500 serve: {e}");
            std::process::exit(1);
        }
    };
    if args.has("--json") {
        println!("{}", rep.to_json());
    } else {
        println!("{}", rep.render());
    }
}

fn cmd_stats(args: &Args) {
    let scale = args.scale();
    let seed = args.num("--seed", 20220814);
    let gen = KroneckerGenerator::new(KroneckerParams::graph500(scale, seed));
    let el = gen.generate_all();
    let n = gen.params().num_vertices() as usize;
    let csr = Csr::from_edges(n, &el, Directedness::Undirected);
    let d = DegreeStats::from_csr(&csr);
    let cc = component_stats(n, &el);
    println!("scale:            {scale}");
    println!("vertices:         {n}");
    println!("edge records:     {}", el.len());
    println!("max degree:       {}", d.max);
    println!("mean degree:      {:.2}", d.mean);
    println!("median degree:    {}", d.median);
    println!(
        "isolated:         {} ({:.1}%)",
        d.isolated,
        100.0 * d.isolated as f64 / n as f64
    );
    println!("top-1% arc share: {:.1}%", 100.0 * d.top1pct_arc_share);
    println!("components:       {}", cc.components);
    println!(
        "giant component:  {} ({:.1}%)",
        cc.giant_size,
        100.0 * cc.giant_size as f64 / n as f64
    );
}
