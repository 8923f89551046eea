//! Host-clock spans recorded by the benchmark around its own calls into
//! the program's layers.
//!
//! Each thread (the host thread, or one simulated rank's thread) keeps its
//! own [`SpanLog`]; spans nest through an open-span stack, so a span's
//! parent is the innermost span open when it began. Spans of one root or
//! one admission window carry the same `group`. Logs are kept in memory and
//! merged and written out when the run ends.

use std::sync::OnceLock;
use std::time::Instant;

/// `group` of a span that belongs to no root or window.
pub const NO_GROUP: u64 = u64::MAX;
/// `rank` of a span recorded on the host thread, outside the machine.
pub const HOST: u32 = u32::MAX;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call the span covers, e.g. `"kernel"` or `"gather"`.
    pub name: &'static str,
    /// Root or window index shared by the spans of one unit of work.
    pub group: u64,
    /// Recording rank, or [`HOST`].
    pub rank: u32,
    /// Index of the enclosing span in the same merged list.
    pub parent: Option<usize>,
    /// Seconds since the span epoch.
    pub start_s: f64,
    /// Seconds since the span epoch.
    pub end_s: f64,
}

impl Span {
    /// Inclusive duration in seconds.
    pub fn dur(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Seconds since the process's span epoch, shared by every log so that
/// all spans of a run lie on one time line.
pub fn now() -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// The spans of one thread. When `on` is false nothing is recorded, but
/// [`SpanLog::time`] still returns each call's duration, so the untraced
/// run measures with the same clock reads as the traced one.
pub struct SpanLog {
    rank: u32,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    /// A log for `rank`.
    pub fn new(rank: u32, on: bool) -> Self {
        SpanLog {
            rank,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span; it closes at the matching [`SpanLog::end`].
    pub fn begin(&mut self, name: &'static str, group: u64) {
        let start_s = now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            group,
            rank: self.rank,
            parent: None,
            start_s,
            end_s: start_s,
        });
        let n = self.open.len();
        if n > 1 {
            let parent = self.open[n - 2];
            self.spans.last_mut().expect("just pushed").parent = Some(parent);
        }
    }

    /// Close the innermost open span and return its duration in seconds.
    pub fn end(&mut self) -> f64 {
        let idx = self.open.pop().expect("end without begin");
        let end_s = now();
        let span = &mut self.spans[idx];
        span.end_s = end_s;
        let dur = span.dur();
        if !self.on {
            self.spans.truncate(idx);
        }
        dur
    }

    /// Run `f` inside a span and return its result with the span's
    /// duration in seconds.
    pub fn time<R>(&mut self, name: &'static str, group: u64, f: impl FnOnce() -> R) -> (R, f64) {
        self.begin(name, group);
        let out = f();
        (out, self.end())
    }

    /// Hand the closed spans over for merging.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Append `more` (one thread's spans) to `all`, re-basing parent indices.
pub fn merge(all: &mut Vec<Span>, more: Vec<Span>) {
    let base = all.len();
    all.extend(more.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Self time of every span: its duration minus the part covered by its
/// children. Children of one parent are sequential on one thread, so the
/// covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur();
        }
    }
    own
}

/// Largest duration of span `name` in `group` over all ranks: the time the
/// slowest rank spent in that call (the ranks run it together).
pub fn rank_max(spans: &[Span], name: &str, group: u64) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.group == group)
        .map(Span::dur)
        .fold(0.0, f64::max)
}

/// Spans as JSON lines, with self time, for the run's span file.
pub fn to_jsonl(spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut out = String::new();
    for (i, (s, own)) in spans.iter().zip(own).enumerate() {
        let group = if s.group == NO_GROUP {
            "null".to_string()
        } else {
            s.group.to_string()
        };
        let rank = if s.rank == HOST {
            "\"host\"".to_string()
        } else {
            s.rank.to_string()
        };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"group\":{group},\"rank\":{rank},\"parent\":{parent},\
             \"start_s\":{},\"end_s\":{},\"self_s\":{own}}}\n",
            s.name, s.start_s, s.end_s
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_self_time() {
        let mut log = SpanLog::new(0, true);
        log.time("alone", NO_GROUP, || ());
        let mut log2 = SpanLog::new(1, true);
        log2.begin("outer", 1);
        log2.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let outer = log2.end();
        let mut all = log.into_spans();
        merge(&mut all, log2.into_spans());
        assert_eq!(all.len(), 3);
        assert_eq!(all[2].parent, Some(1));
        let own = self_times(&all);
        assert!(own[1] >= 0.0 && own[1] < outer);
        assert!((own[1] + all[2].dur() - outer).abs() < 1e-12);
        assert_eq!(rank_max(&all, "inner", 1), all[2].dur());
        assert_eq!(to_jsonl(&all).lines().count(), 3);
    }

    #[test]
    fn off_log_still_times() {
        let mut log = SpanLog::new(HOST, false);
        let (x, dt) = log.time("work", NO_GROUP, || 5);
        assert_eq!(x, 5);
        assert!(dt >= 0.0);
        assert!(log.into_spans().is_empty());
    }
}
