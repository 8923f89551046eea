#!/usr/bin/env python3
"""Record a point of the trajectory from finished runs.

    python3 perfbench/record.py <label>

Reads `perfbench/out/spread-<workload>.jsonl` (written by spread.py, one
end-to-end result per seed) and the traced records
`perfbench/out/<workload>-seed<n>-trace1.json`, copies them to
`perfbench/results/<label>/`, and appends one line to
`perfbench/results/trajectory.jsonl`: for each workload, the median and
spread of every end-to-end metric over its seeds.
"""

import glob
import json
import os
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
RESULTS = os.path.join(HERE, "results")


def summarize(path):
    rows = [json.loads(line) for line in open(path)]
    values = {}
    for r in rows:
        for name, m in r["result"].get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, xs in values.items():
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        out[name] = {"median": med, "spread": (q[2] - q[0]) / med if med else None,
                     "runs": len(xs)}
    failed = sum(r["result"].get("failed", 0) for r in rows)
    attempted = sum(r["result"].get("attempted", 0) for r in rows)
    return {"seeds": [r["seed"] for r in rows], "attempted": attempted,
            "failed": failed, "metrics": out}


def main():
    label = sys.argv[1]
    dest = os.path.join(RESULTS, label)
    os.makedirs(dest, exist_ok=True)
    point = {"label": label, "workloads": {}}
    for path in sorted(glob.glob(os.path.join(OUT, "spread-*.jsonl"))):
        workload = os.path.basename(path)[len("spread-"):-len(".jsonl")]
        point["workloads"][workload] = summarize(path)
        shutil.copy(path, os.path.join(dest, f"e2e-{workload}.jsonl"))
    for path in sorted(glob.glob(os.path.join(OUT, "*-trace1.json"))):
        shutil.copy(path, dest)
        if "provenance" not in point:
            rec = json.load(open(path))
            point["provenance"] = {k: rec[k] for k in
                                   ("git_rev", "src_digest", "nproc", "pool_threads", "rustc")}
    with open(os.path.join(RESULTS, "trajectory.jsonl"), "a") as f:
        f.write(json.dumps(point) + "\n")
    print(json.dumps(point, indent=1))


if __name__ == "__main__":
    main()
