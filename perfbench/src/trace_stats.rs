//! Roll-ups of the program's own virtual-time trace (`traced(true)`),
//! restricted to the spans of one scope code: `RootRun` for the Graph500
//! driver's searches, `QueryBatch` for the serving engine's windows. The
//! build and the landmark precompute therefore never leak into per-root or
//! per-query rows.

use graph500::simnet::{TraceCode, TraceKind};
use graph500::Trace;
use std::collections::BTreeMap;

/// Virtual-time totals over every rank, inside the scope spans only.
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    /// Virtual seconds inside the scope spans, summed over ranks (the
    /// whole traced time when unscoped).
    pub scope_s: f64,
    /// Inclusive virtual seconds per span code, summed over ranks.
    pub inclusive_s: BTreeMap<TraceCode, f64>,
    /// Collective operations entered, counted once per rank and not
    /// counting the collectives another collective is built from.
    pub collectives: u64,
    /// Sum of the `Relaxations` counters.
    pub relaxations: u64,
    /// Sum of the `UpdatesSent` counters.
    pub updates_sent: u64,
    /// Sum of the records offered to exchanges (`Exchange` span argument).
    pub updates_offered: u64,
    /// Summed per-rank compute seconds of the supersteps.
    pub superstep_compute_s: f64,
    /// Summed per-rank communication seconds of the supersteps.
    pub superstep_comm_s: f64,
    /// Summed per-rank idle remainder of the supersteps.
    pub superstep_wait_s: f64,
}

impl TraceStats {
    /// Inclusive seconds of `code` (0 when it never ran in scope).
    pub fn inclusive_of(&self, code: TraceCode) -> f64 {
        self.inclusive_s.get(&code).copied().unwrap_or(0.0)
    }

    /// Share of the scope's virtual time spent inside `code`.
    pub fn share_of(&self, code: TraceCode) -> f64 {
        crate::report::ratio(self.inclusive_of(code), self.scope_s)
    }

    /// Shares of the supersteps' summed time spent computing,
    /// communicating and waiting.
    pub fn superstep_shares(&self) -> (f64, f64, f64) {
        let total = self.superstep_compute_s + self.superstep_comm_s + self.superstep_wait_s;
        (
            crate::report::ratio(self.superstep_compute_s, total),
            crate::report::ratio(self.superstep_comm_s, total),
            crate::report::ratio(self.superstep_wait_s, total),
        )
    }
}

/// Roll up `trace` inside the spans of `scope` (everywhere when `None`).
pub fn analyze(trace: &Trace, scope: Option<TraceCode>) -> TraceStats {
    let mut st = TraceStats::default();
    let nranks = trace.ranks.max(1) as usize;
    // per rank: scope depth, open-span stack of (code, begin), and the last
    // superstep's duration awaiting its compute/comm counters
    let mut depth = vec![scope.is_none() as usize; nranks];
    let mut opened = vec![0.0f64; nranks];
    let mut last_t = vec![0.0f64; nranks];
    let mut stacks: Vec<Vec<(TraceCode, f64)>> = vec![Vec::new(); nranks];
    let mut step: Vec<Option<(f64, f64, f64)>> = vec![None; nranks];
    let close_step = |st: &mut TraceStats, s: Option<(f64, f64, f64)>| {
        if let Some((dur, comp, comm)) = s {
            st.superstep_compute_s += comp;
            st.superstep_comm_s += comm;
            st.superstep_wait_s += (dur - comp - comm).max(0.0);
        }
    };
    for (rank, ev) in &trace.events {
        let r = *rank as usize;
        if r >= nranks {
            continue;
        }
        last_t[r] = ev.t_s;
        if Some(ev.code) == scope {
            match ev.kind {
                TraceKind::Begin => {
                    if depth[r] == 0 {
                        opened[r] = ev.t_s;
                    }
                    depth[r] += 1;
                }
                TraceKind::End => {
                    depth[r] = depth[r].saturating_sub(1);
                    if depth[r] == 0 {
                        st.scope_s += (ev.t_s - opened[r]).max(0.0);
                    }
                }
                TraceKind::Count => {}
            }
            continue;
        }
        if depth[r] == 0 {
            continue;
        }
        match ev.kind {
            TraceKind::Begin => {
                if ev.code.is_collective() && !stacks[r].iter().any(|(c, _)| c.is_collective()) {
                    st.collectives += 1;
                }
                stacks[r].push((ev.code, ev.t_s));
            }
            TraceKind::End => {
                // spans nest, so the matching Begin is on top of the stack
                let Some(pos) = stacks[r].iter().rposition(|(c, _)| *c == ev.code) else {
                    continue;
                };
                let (code, t0) = stacks[r].remove(pos);
                let dur = (ev.t_s - t0).max(0.0);
                *st.inclusive_s.entry(code).or_insert(0.0) += dur;
                match code {
                    TraceCode::Superstep => {
                        close_step(&mut st, step[r].take());
                        step[r] = Some((dur, 0.0, 0.0));
                    }
                    TraceCode::Exchange => st.updates_offered += ev.a,
                    _ => {}
                }
            }
            TraceKind::Count => match ev.code {
                TraceCode::Relaxations => st.relaxations += ev.a,
                TraceCode::UpdatesSent => st.updates_sent += ev.a,
                TraceCode::SuperstepCompute => {
                    if let Some(s) = step[r].as_mut() {
                        s.1 = ev.value_f64();
                    }
                }
                TraceCode::SuperstepComm => {
                    if let Some(s) = step[r].as_mut() {
                        s.2 = ev.value_f64();
                    }
                }
                _ => {}
            },
        }
    }
    for s in step {
        close_step(&mut st, s);
    }
    if scope.is_none() {
        st.scope_s = last_t.iter().sum();
    }
    st
}
