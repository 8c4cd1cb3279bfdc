#!/usr/bin/env python3
"""Record the benchmark's baseline: run every workload of BENCHMARK.json
on several seeds, print each end-to-end metric's median, quartiles and
spread (IQR / median) against its bound, and write them as JSON.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Each workload also gets one traced run on the first seed, whose
per-layer metrics are stored beside the end-to-end figures. Standard
library only.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {p.returncode}\n{p.stderr}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed {seed} trace {trace}: {time.time() - t0:.1f} s, "
          f"correct={res['correct']} failed={res['failed']}/{res['attempted']}", flush=True)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out", default="", help="write the baseline JSON here")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    out = {"go": go, "nproc": os.cpu_count(), "machine": platform.machine(),
           "run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    worst = 0.0
    for w in names:
        values, correct = {}, True
        for s in args.seeds:
            res = run(w, s, bench["run_seconds"], 0)
            correct &= res["correct"]
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        entry = {"correct": correct, "end_to_end": {}}
        print(f"{w}: {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for k, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else 0.0
            worst = max(worst, spread / bounds[k])
            entry["end_to_end"][k] = {"median": med, "q1": q1, "q3": q3, "spread": round(spread, 4),
                                      "values": vs}
            print(f"{'':{len(w) + 1}} {k:<14} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.3f} {bounds[k]:6.2f}")
        entry["traced_seed"] = args.seeds[0]
        entry["per_layer"] = {k: v["value"] for k, v in
                              run(w, args.seeds[0], bench["run_seconds"], 1)["metrics"].items()}
        out["workloads"][w] = entry
    print(f"largest spread / bound: {worst:.2f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
