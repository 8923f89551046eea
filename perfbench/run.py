#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench/` (a cargo package of
its own that depends on the program's crates by path) in release mode,
into `$CARGO_TARGET_DIR` if set, else `perfbench/target`, then runs it.
The last line of standard output is the JSON result. Per-run records (and
span files of traced runs) go to `perfbench/out/`.

Exits non-zero without printing a result if the build fails (for example
when the program's sources are not beside the benchmark), and non-zero
after printing it if any output failed its check.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# every run must end within 180 s; keep a margin for start-up
RUN_TIMEOUT_S = 170


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(os.path.abspath(target), "release", "g500-perfbench")
    args = sys.argv[1:] + ["--out", os.path.join(HERE, "out")]
    try:
        return subprocess.run([binary] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
