//! `g500-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--out <dir>]`: run one workload and print its metrics; the last line of
//! standard output is the JSON result. Exits 1 if any output failed its
//! check, 2 on a usage error.

use g500_perfbench::report::{nproc, num, peak_rss_mb, Provenance};
use g500_perfbench::{spans, workload, WORKLOADS};
use std::path::{Path, PathBuf};

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut w, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => w = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: w.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        out,
    })
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            eprintln!("g500-perfbench: {e}\nworkloads: {}", names.join(", "));
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("g500-perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    // one process, its pool no wider than the host
    graph500::rayon::configure_threads(nproc());
    let prov = Provenance::collect(Path::new("."));

    let (out, spans) = w.run(args.seed, args.seconds, args.trace);
    let fail_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    let record = prov.to_json(&[
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", (args.trace as u8).to_string()),
        ("ranks", w.ranks().to_string()),
        ("attempted", out.attempted.to_string()),
        ("failed", out.failed.to_string()),
        ("fail_ratio", num(fail_ratio)),
        ("peak_rss_mb", num(peak_rss_mb())),
        ("metrics", out.metrics.to_json()),
    ]);

    println!(
        "{} seed {} ({}): {} checked, {} failed, fail_ratio {fail_ratio}",
        args.workload,
        args.seed,
        if args.trace {
            "traced, per layer"
        } else {
            "untraced, end to end"
        },
        out.attempted,
        out.failed
    );
    print!("{}", out.metrics.render());
    println!("provenance {record}");
    if let Some(dir) = &args.out {
        let stem = format!(
            "{}-seed{}-trace{}",
            args.workload, args.seed, args.trace as u8
        );
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(dir.join(format!("{stem}.json")), format!("{record}\n")))
            .and_then(|_| match args.trace {
                true => std::fs::write(
                    dir.join(format!("{stem}-spans.jsonl")),
                    spans::to_jsonl(&spans),
                ),
                false => Ok(()),
            });
        if let Err(e) = written {
            eprintln!("g500-perfbench: writing {}: {e}", dir.display());
        }
    }
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}
