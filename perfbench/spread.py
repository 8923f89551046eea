#!/usr/bin/env python3
"""Run a workload once per seed and report each metric's spread.

    python3 perfbench/spread.py <workload> [--seeds 1-10] [--seconds 10] [--trace 0]

For every metric it prints the median over the seeds and the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of that median, beside the metric's bound from BENCHMARK.json, and
flags spreads above a third of the bound. Raw results are appended as JSON
lines to `perfbench/out/spread-<workload>.jsonl`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m.get("bound") for m in json.load(f)["end_to_end"]}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = open(os.path.join(HERE, "out", f"spread-{a.workload}.jsonl"), "a")
    values = {}
    for seed in seeds(a.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
               "--seed", str(seed), "--seconds", a.seconds, "--trace", a.trace]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
        res = json.loads(last)
        log.write(json.dumps({"seed": seed, "exit": p.returncode, "result": res}) + "\n")
        log.flush()
        print(f"seed {seed}: exit {p.returncode}, correct {res.get('correct')}, "
              f"failed {res.get('failed')}/{res.get('attempted')}", flush=True)
        for name, m in res.get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
    for name, xs in values.items():
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:36s} median {med:12.6g}  spread {spread:7.4f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
