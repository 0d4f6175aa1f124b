"""Benchmark of the nullstate package: three seeded workloads, closed loop.

    python3 bench/run.py --workload cli_sweep --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --seed 0                # every workload in turn

Run from the root of a source checkout; the package is imported from ./src.
Each workload runs in fresh worker processes (bench/worker.py), one op at a
time, with NULLSTATE_THREADS unset.  Set-up time (fresh interpreter, import,
inputs, one untimed pass) is measured SETUP_RUNS times and reported as the
median; `import_s` is the median over those and IMPORT_RUNS processes that
only import.  Every time metric is scaled to reference speed, by a reference
loop timed beside it (bench/speed.py).  With --trace 0 the last stdout line
is a JSON object holding the end-to-end metrics; with --trace 1 it holds the
per-layer metrics of one traced pass (see bench/README.md).  Every op's output is checked against an
oracle; `failed` counts ops that fail it, apart from the known roadmap
defects, which are named on stdout and counted in fail_frac.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("cli_sweep", "kernel_short_time", "pde_sweep")
SETUP_RUNS = 5
IMPORT_RUNS = 20  # import-only processes, on top of one import per set-up
DEADLINE_S = 170.0
THREAD_VARS = ("NULLSTATE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
UNITS = {
    "ops_per_s": "ops/s", "op_ms.p50": "ms", "op_ms.p90": "ms", "cpu_ms_per_op": "ms",
    "setup_s": "s", "import_s": "s", "peak_rss_mb": "MB", "fail_frac": "ratio",
}


def unit(name: str) -> str:
    """Unit of a metric, as BENCHMARK.json lists it."""
    if name in UNITS:
        return UNITS[name]
    if "_ms" in name or name.endswith(".ms"):
        return "ms"
    return "ratio" if name.endswith(("_share", "_frac", "efficiency")) else "count"


class BenchError(RuntimeError):
    pass


def worker(args: list[str], deadline: float, mode: str = ""):
    """Run one worker; returns (set-up seconds, import seconds, result or None),
    both seconds scaled to reference speed by the worker's own timings of
    the pure-Python reference loop (bench/speed.py).

    mode is "" for a full run, or "--setup-only" / "--import-only"."""
    env = dict(os.environ)
    env.pop("NULLSTATE_THREADS", None)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *args] + ([mode] if mode else [])
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)
    timer = threading.Timer(max(deadline - start, 1.0), proc.kill)  # past the deadline
    timer.start()
    try:
        ready = json.loads(proc.stdout.readline() or "{}")
        setup_s = time.perf_counter() - start
        if not ready.get("ready"):
            raise BenchError(f"worker {args} stopped before its set-up finished")
        lines = proc.stdout.read().splitlines()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    result = json.loads(lines[-1]) if not mode else None
    return setup_s * ready.get("setup_scale", math.nan), ready["import_s"], result


def environment(seed: int) -> dict:
    import numpy  # the worker imports the package; here numpy is only inspected

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "seed": seed,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        return worker(base, deadline)[2]
    # extra set-ups and imports run half before and half after the measured
    # worker, so their medians sample the whole run
    extra = ["--setup-only"] * (SETUP_RUNS - 1) + ["--import-only"] * IMPORT_RUNS
    extra = extra[0::2] + [""] + extra[1::2]
    setups, imports, result = [], [], None
    for mode in extra:
        setup_s, import_s, res = worker(base, deadline, mode)
        imports.append(import_s)
        if mode != "--import-only":
            setups.append(setup_s)
        result = res or result
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["metrics"]["import_s"] = statistics.median(imports)
    return result


def report_line(name: str, result: dict, trace: int) -> str:
    m = result["metrics"]
    frac = (result["failed"] + result["known_failed"]) / result["attempted"]
    if trace:
        body = "  ".join(f"{k}={v:.6g}" for k, v in m.items())
        return f"{name} [traced, {result['traced_ops']} ops]: {body}"
    parts = [f"{k}={m[k]:.6g} {UNITS[k]}" for k in
             ("ops_per_s", "op_ms.p50", "op_ms.p90", "cpu_ms_per_op", "setup_s", "import_s")]
    parts.append(f"fail_frac={frac:.4g} ratio ({result['failed']}+{result['known_failed']}"
                 f" known of {result['attempted']} ops)")
    parts.append(f"peak_rss_mb={m['peak_rss_mb']:.6g} MB")
    return (f"{name}: " + "  ".join(parts)
            + f"  [{result['timed_ops']} timed ops: {result['passes']} passes of"
            f" {result['distinct_ops']} ops; p50/p90 over the ops' medians; {SETUP_RUNS} set-ups;"
            f" times scaled to a {speed.REF_MS} ms reference loop, measured"
            f" {result['reference_ms']:.4g} ms; unscaled ops_per_s={result['unscaled_ops_per_s']:.6g}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "nullstate", "__init__.py")):
        print(f"bench: no package source under {os.path.join(ROOT, 'src')}; "
              "run from the root of a nullstate checkout", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(args.seed)
    print("# env " + json.dumps(env), flush=True)
    results = {}
    try:
        for name in names:
            results[name] = res = run_workload(name, args.seed, args.seconds, args.trace,
                                               deadline)
            print(report_line(name, res, args.trace), flush=True)
            for label, key in (("FAILED", "failures"), ("known defect", "known_failures")):
                for f in res[key]:
                    print(f"#   {label}: {f['op']} x{f['count']}: {f['reason']}", flush=True)
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    out_dir = os.path.join(ROOT, "bench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump({"env": env, "seconds": args.seconds, "results": results}, fh, indent=1)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k.split(".", 1)[1] if len(names) > 1 else k)}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
