"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/collect.py --workloads cli_sweep pde_sweep --seeds 0-9
    python3 bench/collect.py --trace 1 --seeds 0 --out bench_out/traced.json

For every workload and metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, next to the
metric's bound from BENCHMARK.json; a spread above a third of the bound is
marked.  --out writes the same summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seed_list(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in seed_list(args.seeds):
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']} "
                  f"attempted={runs[-1]['attempted']} failed={runs[-1]['failed']}", flush=True)
        rows = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med if med else 0.0,
                          "unit": runs[0]["metrics"][name]["unit"], "values": values}
            bound = bounds.get(name)
            mark = " <-- over bound/3" if bound and rows[name]["spread"] > bound / 3 else ""
            print(f"  {name:36s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {rows[name]['spread']:.4f}"
                  + (f" (bound {bound})" if bound else "") + mark, flush=True)
        summary[workload] = {"seeds": seed_list(args.seeds), "correct": all(r["correct"] for r in runs),
                             "attempted": [r["attempted"] for r in runs],
                             "failed": [r["failed"] for r in runs], "metrics": rows}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
