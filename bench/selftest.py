"""Self-test of the benchmark: its counts repeat and its checker catches faults.

    python3 bench/selftest.py [--seed 0]

1. The metrics and units printed are those BENCHMARK.json declares, and two
   traced runs of each workload with one seed give identical counts.
2. Today's counts are pinned: candidate calls per configuration read
   29/131/305 at M = 2/5/8, and a kappa=6, h=theta2 op at t=2e-4 takes 468
   truncation steps.  A change that moves them has to say so.
3. Fault injection raises `failed`: a kernel_short_time block whose lambda0
   is offset by 1e-6, and a cli_sweep corrupt op whose expected verdict is
   flipped, both count as failed.
Prints one PASS/FAIL line per check; exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cli_sweep", "kernel_short_time", "pde_sweep")


def last_json(cmd: list[str]) -> dict:
    proc = subprocess.run([sys.executable, *cmd], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench(workload: str, seed: int, *flags: str) -> dict:
    return last_json([os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                      "--seed", str(seed), *flags])["metrics"]


def counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()
            if v["unit"] != "ms" and k != "trace.overhead_frac"}


def declared(metrics: dict, specs: list) -> bool:
    """The metrics are exactly the declared ones, with the declared units."""
    return {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in specs}


def worker(workload: str, seed: int, *flags: str) -> dict:
    return last_json([os.path.join(BENCH_DIR, "worker.py"), "--workload", workload,
                      "--seed", str(seed), "--seconds", "0", *flags])


def truncation_steps_probe() -> int:
    """Truncation steps of one traced G(rho, eps; sigma, eta) at kappa=6,
    h=theta2, t=2e-4."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import tracing
    from nullstate import TwoIntervalGreen, leg_weight

    green = TwoIntervalGreen(leg_weight(2, 6.0), 6.0)
    eps = math.exp(-4.0 * 2e-4 / 6.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.op_span(0, "probe"):
            green.value(0.3, eps, 0.6, 1.0)
    finally:
        tracer.uninstall()
    return tracer.layer_metrics()["heat_kernel.truncation_steps"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    results = []

    def report(name, ok, detail=""):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  ({detail})" if detail else ""),
              flush=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = bench("pde_sweep", args.seed, "--seconds", "1")
    report("end-to-end metrics and units match BENCHMARK.json",
           declared(end_to_end, spec["end_to_end"]))
    traced = {}
    for workload in WORKLOADS:
        first = bench(workload, args.seed, "--trace", "1")
        second = bench(workload, args.seed, "--trace", "1")
        report(f"{workload}: per-layer metrics and units match BENCHMARK.json",
               declared(first, spec["per_layer"]))
        first, second = counts(first), counts(second)
        diff = sorted(k for k in first if first[k] != second.get(k))
        report(f"{workload}: traced counts repeat for seed {args.seed}", not diff,
               f"differ: {diff}" if diff else f"{len(first)} metrics")
        traced[workload] = first

    got = [traced["pde_sweep"][f"pde.calls_per_config.M{M}"] for M in (2, 5, 8)]
    report("pde.calls_per_config = 29/131/305 at M=2/5/8", got == [29, 131, 305], f"got {got}")
    steps = truncation_steps_probe()
    report("heat_kernel.truncation_steps = 468 at kappa=6, theta2, t=2e-4", steps == 468,
           f"got {steps}")

    res = worker("kernel_short_time", args.seed, "--corrupt-block")
    bad = [f for f in res["failures"] if f["op"].startswith("G kappa=2 h=theta2 t=1.000e-02")]
    report("kernel_short_time: lambda0 + 1e-6 block counts as failed",
           res["failed"] > 0 and len(bad) == len(res["failures"]),
           f"{res['failed']} failed of {res['attempted']}")
    res = worker("cli_sweep", args.seed, "--flip-corrupt")
    bad = [f for f in res["failures"] if "--corrupt" in f["op"]]
    report("cli_sweep: corrupt op with flipped verdict counts as failed",
           res["failed"] > 0 and len(bad) == len(res["failures"]),
           f"{res['failed']} failed of {res['attempted']}")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
