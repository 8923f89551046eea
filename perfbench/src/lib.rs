//! End-to-end and per-layer benchmark of the Graph500 SSSP reproduction.
//!
//! Three workloads run through the public entry points `g500 sssp` and
//! `g500 serve` use. The untraced run reports the end-to-end metrics; a
//! separate traced run reports per-layer metrics from host spans recorded
//! around the benchmark's own calls into each crate, and from the program's
//! existing virtual-time trace. See `README.md` beside this crate.

pub mod heap;
pub mod kernel3;
pub mod layers;
pub mod report;
pub mod serve;
pub mod spans;
pub mod trace_stats;

use kernel3::Kernel3;
use report::{median, Metrics};
use serve::Serve;
use spans::Span;
use std::time::{Duration, Instant};

/// The serving workload's shape; the `kernel3` traced runs also use its
/// engine settings for their landmark probe.
pub const SERVE: Serve = Serve {
    scale: 12,
    ranks: 4,
    instances: 8,
    queries: 256,
};

/// The graphs and roots both `kernel3` workloads run.
const KERNEL3_INSTANCES: usize = 6;
const KERNEL3_ROOTS: usize = 8;

/// A named workload.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    /// Graph500 kernel 3 through the driver.
    Kernel3(Kernel3),
    /// Query serving through the engine.
    Serve(Serve),
}

/// Every workload: name, shape, and why it is in the benchmark.
pub const WORKLOADS: [(&str, Workload, &str); 3] = [
    (
        "kernel3-s16-p16",
        Workload::Kernel3(Kernel3 {
            scale: 16,
            ranks: 16,
            instances: KERNEL3_INSTANCES,
            roots: KERNEL3_ROOTS,
        }),
        "multi-rank Graph500 SSSP: exchange, collectives and superstep count decide teps_sim; a communication change shows here",
    ),
    (
        "kernel3-s16-p1",
        Workload::Kernel3(Kernel3 {
            scale: 16,
            ranks: 1,
            instances: KERNEL3_INSTANCES,
            roots: KERNEL3_ROOTS,
        }),
        "same graphs and roots on 1 rank: no byte leaves the rank, so local kernel work shows in full and communication changes predict no change (not gated: too input-sensitive across seeds)",
    ),
    (
        "serve-s12-p4",
        Workload::Serve(SERVE),
        "batched query serving with landmarks, LRU and early exit; the kernel3 workloads bypass these layers and form the no-change side",
    ),
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().find(|w| w.0 == name).map(|w| w.1)
}

/// What a pass (or a whole run) measured and checked.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Items checked: roots or queries.
    pub attempted: u64,
    /// Items that failed their check, were shed, or were lost to an error.
    pub failed: u64,
    /// The metrics.
    pub metrics: Metrics,
}

impl Workload {
    /// Simulated ranks.
    pub fn ranks(&self) -> usize {
        match self {
            Workload::Kernel3(k) => k.ranks,
            Workload::Serve(s) => s.ranks,
        }
    }

    /// Repeat passes until `seconds` have gone by (at least one pass) and
    /// combine them: counts add up, each metric is the median over passes.
    /// Traced runs also hand back the host spans of their first pass.
    pub fn run(&self, seed: u64, seconds: u64, traced: bool) -> (Outcome, Vec<Span>) {
        let start = Instant::now();
        let mut spans = Vec::new();
        let mut passes: Vec<Outcome> = Vec::new();
        let els = match (self, traced) {
            (Workload::Kernel3(k), false) => k.edge_lists(seed),
            _ => Vec::new(),
        };
        loop {
            let mut pass_spans = Vec::new();
            passes.push(match (self, traced) {
                (Workload::Kernel3(k), false) => k.e2e_pass(seed, &els),
                (Workload::Kernel3(k), true) => k.traced_pass(seed, &mut pass_spans),
                (Workload::Serve(s), false) => s.e2e_pass(seed),
                (Workload::Serve(s), true) => s.traced_pass(seed, &mut pass_spans),
            });
            if spans.is_empty() {
                spans = pass_spans;
            }
            if start.elapsed() >= Duration::from_secs(seconds) {
                break;
            }
        }
        (combine(&passes), spans)
    }
}

/// Sum the counts and take each metric's median over the passes.
pub fn combine(passes: &[Outcome]) -> Outcome {
    let mut out = Outcome {
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
        metrics: Metrics::default(),
    };
    if let Some(first) = passes.first() {
        for &(name, _, unit) in &first.metrics.rows {
            let xs: Vec<f64> = passes.iter().filter_map(|p| p.metrics.get(name)).collect();
            out.metrics.set(name, median(&xs), unit);
        }
    }
    out
}
