//! Golden-trace regression tests: the observability layer's determinism
//! contract, pinned to checked-in artifacts.
//!
//! Under `SchedMode::Deterministic` the merged trace is a pure function of
//! the configuration — byte-identical across repeated runs and across
//! `G500_THREADS` — so its summary can be diffed against a golden file the
//! way distances are diffed in the conformance suite. A drift here means a
//! semantic change to the instrumentation (or the simulator), which is
//! exactly what these tests exist to flag.
//!
//! Regenerate the goldens after an intentional change with
//! `G500_BLESS=1 cargo test --test trace_golden`.

use graph500::simnet::{Machine, MachineConfig, Trace};
use graph500::sssp::Grid2DSssp;
use graph500::{run_sssp_benchmark, BenchmarkConfig};
use std::process::Command;

const GOLDEN_1D: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/trace_1d_scale10.txt"
);
const GOLDEN_2D: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/trace_2d_scale10.txt"
);

/// Compare `actual` against the golden file at `path`; with `G500_BLESS=1`
/// rewrite the golden instead.
fn check_golden(path: &str, actual: &str) {
    if std::env::var("G500_BLESS").is_ok() {
        std::fs::write(path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; run with G500_BLESS=1"));
    assert_eq!(
        expected, actual,
        "trace summary drifted from {path}; if intentional, regenerate with G500_BLESS=1"
    );
}

fn traced_1d_cfg() -> BenchmarkConfig {
    let mut cfg = BenchmarkConfig::quick(10, 4).deterministic(0).traced(true);
    cfg.num_roots = 2;
    cfg.validate = false;
    cfg
}

fn run_traced_2d() -> Trace {
    let gen = graph500::gen::KroneckerGenerator::new(graph500::gen::KroneckerParams::graph500(
        10, 20220814,
    ));
    let el = gen.generate_all();
    let n = 1u64 << 10;
    let p = 4usize;
    let report =
        Machine::new(MachineConfig::with_ranks(p).deterministic(0).traced(true)).run(|ctx| {
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
            let mine = (lo..hi).map(|i| el.get(i));
            let mut g = Grid2DSssp::build(ctx, n, mine, 0.25);
            g.run(ctx, 1);
            g.gather(ctx)
        });
    Trace::merge(report.traces)
}

#[test]
fn golden_1d_scale10_summary() {
    let rep = run_sssp_benchmark(&traced_1d_cfg());
    let summary = rep.trace_summary().expect("run was traced");
    check_golden(GOLDEN_1D, &summary.render());
}

#[test]
fn golden_2d_scale10_summary() {
    let trace = run_traced_2d();
    check_golden(GOLDEN_2D, &trace.summary().render());
}

#[test]
fn repeated_runs_produce_byte_identical_traces() {
    let a = run_sssp_benchmark(&traced_1d_cfg());
    let b = run_sssp_benchmark(&traced_1d_cfg());
    let (ta, tb) = (a.trace.expect("traced"), b.trace.expect("traced"));
    assert_eq!(
        ta.to_bytes(),
        tb.to_bytes(),
        "same config + sched seed must replay the identical merged trace"
    );
    let c = run_traced_2d();
    let d = run_traced_2d();
    assert_eq!(c.to_bytes(), d.to_bytes(), "2D trace not replayable");
}

/// Spawn the real `g500` binary (the pool is process-global, so thread
/// counts can only be compared across processes) and return (normalized
/// JSON stdout, Chrome trace bytes).
fn run_traced_binary(threads: usize, out: &std::path::Path) -> (String, Vec<u8>) {
    let res = Command::new(env!("CARGO_BIN_EXE_g500"))
        .args([
            "sssp",
            "--scale",
            "9",
            "--ranks",
            "4",
            "--roots",
            "2",
            "--deterministic",
            "--trace",
            "--trace-out",
            out.to_str().expect("utf8 tmp path"),
            "--json",
        ])
        .env("G500_THREADS", threads.to_string())
        .output()
        .expect("spawn g500");
    assert!(
        res.status.success(),
        "g500 failed under {} threads: {}",
        threads,
        String::from_utf8_lossy(&res.stderr)
    );
    let json = String::from_utf8(res.stdout)
        .expect("utf8 json")
        .lines()
        .filter(|l| !l.contains("wall_time_s") && !l.contains("\"threads\""))
        .collect::<Vec<_>>()
        .join("\n");
    let chrome = std::fs::read(out).expect("trace file written");
    (json, chrome)
}

#[test]
fn traced_run_is_bitwise_identical_across_thread_counts() {
    let dir = std::env::temp_dir();
    let p1 = dir.join("g500_trace_t1.json");
    let p4 = dir.join("g500_trace_t4.json");
    let (json1, chrome1) = run_traced_binary(1, &p1);
    let (json4, chrome4) = run_traced_binary(4, &p4);
    assert!(json1.contains("\"trace\":"), "traced JSON missing summary");
    assert_eq!(
        json1, json4,
        "traced JSON differs between G500_THREADS=1 and =4"
    );
    assert_eq!(
        chrome1, chrome4,
        "Chrome trace differs between G500_THREADS=1 and =4"
    );
    let _ = std::fs::remove_file(p1);
    let _ = std::fs::remove_file(p4);
}

/// With tracing off, the report is byte-identical to one from a traced
/// build: the only difference tracing may make to output is the opt-in
/// `"trace"` entry itself.
#[test]
fn tracing_off_leaves_report_json_untouched() {
    let mut off_cfg = traced_1d_cfg();
    off_cfg.machine = off_cfg.machine.traced(false);
    let off = run_sssp_benchmark(&off_cfg);
    let on = run_sssp_benchmark(&traced_1d_cfg());
    let strip = |json: &str| -> String {
        json.lines()
            .filter(|l| !l.contains("wall_time_s") && !l.trim_start().starts_with("\"trace\":"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(!off.to_json().contains("\"trace\":"));
    assert!(on.to_json().contains("\"trace\":"));
    assert!(!off.render().contains("trace summary"));
    assert!(on.render().contains("trace summary"));
    assert_eq!(
        strip(&off.to_json()),
        strip(&on.to_json()),
        "tracing changed a non-trace report field"
    );
}

/// Minimal structural JSON validator: balanced objects/arrays outside
/// strings, escape-aware. Enough to catch malformed hand-rolled output
/// without a JSON dependency.
fn assert_valid_json(s: &str) {
    let mut depth_obj = 0i64;
    let mut depth_arr = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_str {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' => depth_obj += 1,
            '}' => depth_obj -= 1,
            '[' => depth_arr += 1,
            ']' => depth_arr -= 1,
            _ => {}
        }
        assert!(depth_obj >= 0 && depth_arr >= 0, "unbalanced close");
    }
    assert!(!in_str, "unterminated string");
    assert_eq!(depth_obj, 0, "unbalanced objects");
    assert_eq!(depth_arr, 0, "unbalanced arrays");
}

#[test]
fn chrome_export_is_structurally_valid_json() {
    let rep = run_sssp_benchmark(&traced_1d_cfg());
    let chrome = rep.trace.as_ref().expect("traced").to_chrome_json();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.ends_with("]}"));
    assert!(chrome.contains("\"ph\":\"B\""));
    assert!(chrome.contains("\"ph\":\"E\""));
    assert!(chrome.contains("\"name\":\"superstep\""));
    assert_valid_json(&chrome);
    // the report JSON (with the embedded trace summary) must stay valid too
    assert_valid_json(&rep.to_json());
}

/// A crashed, traced run records the recovery machinery as first-class
/// spans: checkpoint-write at every interval boundary, restore and replay
/// after each crash. With crashes off, none of the three names may appear
/// — the goldens above double as the proof that crash-free trace output
/// is untouched by the recovery subsystem.
#[test]
fn crashed_run_traces_recovery_spans() {
    use graph500::CrashPlan;
    let mut cfg = traced_1d_cfg();
    cfg = cfg.crashes(
        CrashPlan::none()
            .with_forced(1, 2)
            .with_checkpoint_interval(2),
    );
    let rep = run_sssp_benchmark(&cfg);
    let summary = rep.trace_summary().expect("run was traced");
    let rendered = summary.render();
    for span in ["checkpoint-write", "restore", "replay"] {
        assert!(
            rendered.contains(span),
            "crashed trace summary is missing the {span} span:\n{rendered}"
        );
    }
    let clean = run_sssp_benchmark(&traced_1d_cfg());
    let clean_rendered = clean.trace_summary().expect("traced").render();
    for span in ["checkpoint-write", "restore", "replay"] {
        assert!(
            !clean_rendered.contains(span),
            "crash-free trace summary mentions {span}:\n{clean_rendered}"
        );
    }
}

/// Per-rank span tallies of one merged trace: `Superstep` spans, `Bucket`
/// spans, heavy (`b` = 1) supersteps, and how many `Restore` spans began
/// inside an open bucket. Panics unless every span end closes an open span
/// of its code and nothing stays open at the end. (Codes are balanced
/// separately: a `Replay` span legitimately straddles bucket boundaries.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct EpochTally {
    supersteps: u64,
    buckets: u64,
    heavy: u64,
    restores_in_bucket: u64,
}

fn epoch_tallies(trace: &Trace) -> Vec<EpochTally> {
    use graph500::simnet::{TraceCode, TraceKind};
    use std::collections::BTreeMap;
    let ranks = trace.ranks as usize;
    let mut open: Vec<BTreeMap<TraceCode, u64>> = vec![BTreeMap::new(); ranks];
    let mut out = vec![EpochTally::default(); ranks];
    for (r, ev) in &trace.events {
        let (open, tally) = (&mut open[*r as usize], &mut out[*r as usize]);
        let depth = open.entry(ev.code).or_insert(0);
        match ev.kind {
            TraceKind::Begin => {
                *depth += 1;
                let in_bucket = open.get(&TraceCode::Bucket).is_some_and(|&d| d > 0);
                if ev.code == TraceCode::Restore && in_bucket {
                    tally.restores_in_bucket += 1;
                }
            }
            TraceKind::End => {
                assert!(*depth > 0, "rank {r}: {:?} ends unopened", ev.code);
                *depth -= 1;
                match ev.code {
                    TraceCode::Superstep => {
                        tally.supersteps += 1;
                        tally.heavy += (ev.b == 1) as u64;
                    }
                    TraceCode::Bucket => tally.buckets += 1,
                    _ => {}
                }
            }
            TraceKind::Count => {}
        }
    }
    for (r, open) in open.iter().enumerate() {
        assert!(
            open.values().all(|&d| d == 0),
            "rank {r}: open spans {open:?}"
        );
    }
    out
}

/// Run the batched kernel traced on the scale-10 graph over 4 ranks.
fn run_traced_batched(crash: Option<graph500::CrashPlan>) -> (Trace, u64) {
    use graph500::partition::{assemble_local_graph, Block1D};
    use graph500::sssp::{batched_delta_stepping, BatchSpec, OptConfig};
    let gen = graph500::gen::KroneckerGenerator::new(graph500::gen::KroneckerParams::graph500(
        10, 20220814,
    ));
    let el = gen.generate_all();
    let p = 4usize;
    let mut cfg = MachineConfig::with_ranks(p).deterministic(0).traced(true);
    if let Some(plan) = crash {
        cfg = cfg.crashes(plan);
    }
    let specs = [
        BatchSpec::full(1),
        BatchSpec::p2p(5, 700),
        BatchSpec::full(300),
    ];
    let report = Machine::new(cfg).run(|ctx| {
        let m = el.len();
        let (lo, hi) = (ctx.rank() * m / p, (ctx.rank() + 1) * m / p);
        let mine = (lo..hi).map(|i| el.get(i));
        let g = assemble_local_graph(ctx, mine, Block1D::new(1 << 10, p));
        let opts = OptConfig::all_on().with_delta(0.25);
        batched_delta_stepping(ctx, &g, &specs, &opts).1.supersteps
    });
    (Trace::merge(report.traces), report.results[0])
}

/// The bucket-epoch driver owns the `Bucket` and `Superstep` spans of all
/// three delta-stepping kernels: on every rank there is one `Superstep`
/// span per superstep the kernel reports and one `Bucket` span per bucket
/// epoch (each epoch ends in exactly one heavy round), and a restore in
/// the middle of a bucket leaves every span balanced.
#[test]
fn epoch_driver_spans_match_kernel_counters() {
    // 1D: the driver report carries the per-root supersteps and buckets.
    let rep = run_sssp_benchmark(&traced_1d_cfg());
    let supersteps: u64 = rep.runs.iter().map(|r| r.stats.supersteps).sum();
    let buckets: u64 = rep.runs.iter().map(|r| r.stats.buckets).sum();
    for t in epoch_tallies(rep.trace.as_ref().expect("traced")) {
        assert_eq!((t.supersteps, t.buckets), (supersteps, buckets), "1D");
    }

    // 2D: every epoch closes with one heavy round.
    let gen = graph500::gen::KroneckerGenerator::new(graph500::gen::KroneckerParams::graph500(
        10, 20220814,
    ));
    let el = gen.generate_all();
    let report =
        Machine::new(MachineConfig::with_ranks(4).deterministic(0).traced(true)).run(|ctx| {
            let m = el.len();
            let (lo, hi) = (ctx.rank() * m / 4, (ctx.rank() + 1) * m / 4);
            let mut g = Grid2DSssp::build(ctx, 1 << 10, (lo..hi).map(|i| el.get(i)), 0.25);
            g.run(ctx, 1).supersteps
        });
    let supersteps = report.results[0];
    for t in epoch_tallies(&Trace::merge(report.traces)) {
        assert_eq!(t.supersteps, supersteps, "2D");
        assert!(t.buckets > 0 && t.buckets == t.heavy, "2D: {t:?}");
    }

    // Batched: the same, and it now emits the spans at all.
    let (trace, supersteps) = run_traced_batched(None);
    for t in epoch_tallies(&trace) {
        assert_eq!(t.supersteps, supersteps, "batched");
        assert!(t.buckets > 0 && t.buckets == t.heavy, "batched: {t:?}");
    }

    // Batched under a crash forced at rank 1's third probe: the first two
    // probes are the bucket-0 boundary and its first light round, so the
    // restore happens inside bucket 0 after one light round.
    let plan = graph500::CrashPlan::none()
        .with_forced(1, 2)
        .with_checkpoint_interval(2);
    let (trace, _) = run_traced_batched(Some(plan));
    for t in epoch_tallies(&trace) {
        assert!(t.restores_in_bucket > 0, "no mid-bucket restore: {t:?}");
    }
}
