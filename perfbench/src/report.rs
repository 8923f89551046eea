//! Metric sets, summary statistics, provenance and the result line.

use std::path::Path;
use std::process::Command;

/// Named metrics with units, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// `(name, value, unit)`.
    pub rows: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Record `name` (replacing an earlier value of the same name).
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.rows.iter_mut().find(|r| r.0 == name) {
            Some(row) => *row = (name, value, unit),
            None => self.rows.push((name, value, unit)),
        }
    }

    /// Value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.0 == name).map(|r| r.1)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }

    /// Aligned `name value unit` table.
    pub fn render(&self) -> String {
        let w = self.rows.iter().map(|r| r.0.len()).max().unwrap_or(0);
        self.rows
            .iter()
            .map(|(n, v, u)| format!("  {n:<w$}  {:>16}  {u}\n", format!("{v:.6e}")))
            .collect()
    }
}

/// Bytes per MiB.
pub const MIB: f64 = 1024.0 * 1024.0;

/// A JSON number with all its digits (`null` if not finite).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Largest value of a sample (0 when empty).
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(0.0, f64::max)
}

/// Mean of a sample (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `q`-th percentile (0..=100) as an order statistic of a sample: the
/// value at rank `ceil(q/100 · n)`, the rule the serving report uses.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let idx = ((q / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len()) - 1;
    v[idx]
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / MIB)
}

/// Where a result came from.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// `git rev-parse --short HEAD`, or `"none"` outside a git checkout.
    pub git_rev: String,
    /// FNV-1a digest of the program's sources (`Cargo.toml`, `Cargo.lock`
    /// and every file under `crates/`), so a result is attributable even
    /// where there is no git history.
    pub src_digest: String,
    /// Hardware threads of the host.
    pub nproc: usize,
    /// Threads of the program's worker pool.
    pub pool_threads: usize,
    /// `rustc --version`.
    pub rustc: String,
}

impl Provenance {
    /// Collect provenance for the sources under `root`.
    pub fn collect(root: &Path) -> Self {
        let cmd = |prog: &str, args: &[&str]| {
            Command::new(prog)
                .args(args)
                .current_dir(root)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
        };
        Provenance {
            git_rev: cmd("git", &["rev-parse", "--short", "HEAD"]).unwrap_or_else(|| "none".into()),
            src_digest: src_digest(root),
            nproc: nproc(),
            pool_threads: graph500::rayon::current_num_threads(),
            rustc: cmd("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// JSON object, with the run's own fields appended.
    pub fn to_json(&self, extra: &[(&str, String)]) -> String {
        let mut fields = vec![
            ("git_rev", format!("\"{}\"", self.git_rev)),
            ("src_digest", format!("\"{}\"", self.src_digest)),
            ("nproc", self.nproc.to_string()),
            ("pool_threads", self.pool_threads.to_string()),
            ("rustc", format!("\"{}\"", self.rustc)),
        ];
        fields.extend(extra.iter().map(|(k, v)| (*k, v.clone())));
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn src_digest(root: &Path) -> String {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock"] {
        files.push(root.join(top));
    }
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut seen = 0;
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            eat(f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes());
            eat(&bytes);
            seen += 1;
        }
    }
    if seen == 0 {
        "none".into()
    } else {
        format!("{h:016x}")
    }
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 50.0), 2.0);
        assert_eq!(percentile(&s, 95.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn metrics_json_keeps_digits() {
        let mut m = Metrics::default();
        m.set("a", 1.0 / 3.0, "s");
        m.set("a", 0.125, "s");
        m.set("b", 2.0, "count");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 0.125, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"count\"}}"
        );
        assert_eq!(m.get("b"), Some(2.0));
    }
}
