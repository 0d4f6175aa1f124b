"""One benchmark process: set up a workload, run it, check it, report.

Started by run.py, never by hand.  It times `import nullstate` (CPU time of
the importing thread), builds the workload's inputs and runs one untimed
pass, then prints a READY line; the parent measures set-up time (wall) up to
that line.  The pure-Python reference loop of bench/speed.py is timed before
and after the import and after the pass; the READY line gives the import
time scaled by the first two and the factor that scales set-up time (the
mean of all three).  With --setup-only it stops
there, with --import-only right after the import.  Otherwise it runs whole
passes, closed loop (one op at a time), for --seconds, or with --trace 1 one
untraced and one traced pass, and prints one JSON result line.  Each pass's
outputs are checked after the pass, outside the ops' timers, and then
dropped, so memory does not grow with the run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Timed passes at least (unless that takes five times --seconds): every op's
# median then rests on ten runs, and the ops beyond p90 on ten or more runs.
MIN_REPEATS = 10
# Between two reference-loop timings, at most this much op time passes.
REF_EVERY_S = 0.02


def run_pass(ops, timings=None, tracer=None, refs=None) -> list:
    """Run ops one at a time and return their (op, output) pairs.

    With `timings` (and a `refs` list), also time the reference loop
    (bench/speed.py) before the first op and after every REF_EVERY_S of ops,
    appending its (wall, CPU) seconds to `refs`, and append each op's
    (scaled wall, scaled CPU, wall) seconds under its id; the scale is
    REF_MS over the pass's median reference time."""
    from workloads import Raised

    perf, proc = time.perf_counter, time.process_time
    records, raw, pass_refs = [], [], []
    last_ref = -math.inf
    for op in ops:
        if timings is not None and perf() - last_ref >= REF_EVERY_S:
            pass_refs.append(speed.reference())
            last_ref = perf()
        wall0, cpu0 = perf(), proc()
        try:
            if tracer is None:
                out = op.run()
            else:
                with tracer.op_span(len(records), op.name):
                    out = op.run()
        except Exception as exc:  # every error is an op outcome, judged by the oracle
            out = Raised(exc)
        raw.append((perf() - wall0, proc() - cpu0))
        records.append((op, out))
    if timings is not None:
        ref_s = speed.REF_MS / 1e3
        wall_scale = ref_s / statistics.median(w for w, _ in pass_refs)
        cpu_scale = ref_s / statistics.median(c for _, c in pass_refs)
        for (op, _), (wall, cpu) in zip(records, raw):
            timings.setdefault(id(op), []).append((wall * wall_scale, cpu * cpu_scale, wall))
        refs.extend(pass_refs)
    return records


class Tally:
    """Verdicts of every checked op: failures and known defects."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.known: list = []

    def check(self, records) -> int:
        """Judge the outputs; returns how many were tagged unresolved."""
        from workloads import KNOWN_DEFECTS

        unresolved = 0
        for op, out in records:
            ok, reasons, tags = op.check(out)
            self.attempted += 1
            unresolved += "unresolved" in tags
            if ok:
                continue
            expected = KNOWN_DEFECTS.get(op.name)
            if expected is not None and set(reasons) <= expected:
                self.known.append((op.name, reasons))
            else:
                self.failures.append((op.name, reasons))
        return unresolved

    def result(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "known_failed": len(self.known), "failures": summarize(self.failures),
                "known_failures": summarize(self.known)}


def summarize(items, limit=20):
    """Distinct (name, reasons) pairs with their counts, most frequent first."""
    counts = {}
    for name, reasons in items:
        key = (name, "; ".join(reasons))
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])
    return [{"op": n, "reason": r, "count": c} for (n, r), c in ranked[:limit]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--flip-corrupt", action="store_true",
                        help="checker self-test: expect the corrupt op to pass")
    parser.add_argument("--corrupt-block", action="store_true",
                        help="checker self-test: offset lambda0 by 1e-6 in one kernel block")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    refs = [speed.python_reference()]
    start = time.thread_time()
    import nullstate  # noqa: F401

    import_cpu = time.thread_time() - start
    refs.append(speed.python_reference())
    ready = {"ready": True,
             "import_s": import_cpu * speed.PY_REF_MS / 1e3 / statistics.mean(refs)}
    if args.import_only:
        print(json.dumps(ready), flush=True)
        return 0
    import workloads

    out_dir = os.path.join(ROOT, "bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        cls = workloads.WORKLOADS[args.workload]
        kwargs = {"flip_corrupt": True} if args.flip_corrupt else {}
        wl = cls(args.seed, workdir, **kwargs)
        if args.corrupt_block:
            wl.corrupt_block()
        warm = run_pass(wl.next_pass())
        refs.append(speed.python_reference())
        ready["setup_scale"] = speed.PY_REF_MS / 1e3 / statistics.mean(refs)
        print(json.dumps(ready), flush=True)
        if args.setup_only:
            return 0
        tally = Tally()
        tally.check(warm)
        del warm
        if args.trace:
            result = traced_run(wl, tally, args, out_dir)
        else:
            result = timed_run(wl, tally, args.seconds)
        result.update(tally.result())
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_run(wl, tally: Tally, seconds: float) -> dict:
    """Whole passes until `seconds` have passed and every op ran MIN_REPEATS
    times.  Each op's wall and CPU time is the median over its runs of the
    time scaled to reference speed (bench/speed.py), so a burst of machine
    noise shorter than half the run does not move it, and a slow phase of
    the host moves the reference loop too and cancels; the metrics are taken
    over those per-op medians.  The unscaled `ops_per_s` and the median
    reference time are returned beside them."""
    timings, refs = {}, []
    start = time.perf_counter()
    passes = 0
    while True:
        tally.check(run_pass(wl.next_pass(), timings, refs=refs))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (passes >= MIN_REPEATS or elapsed >= 5 * seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_wall, op_cpu, op_raw = ([statistics.median(r[k] for r in runs) for runs in timings.values()]
                               for k in range(3))
    metrics = {
        "ops_per_s": len(op_wall) / math.fsum(op_wall),
        "op_ms.p50": 1e3 * statistics.median(op_wall),
        "op_ms.p90": 1e3 * statistics.quantiles(op_wall, n=10)[8],
        "cpu_ms_per_op": 1e3 * math.fsum(op_cpu) / len(op_cpu),
        "peak_rss_mb": peak_rss_mb,
    }
    return {"metrics": metrics, "timed_ops": sum(map(len, timings.values())),
            "distinct_ops": len(timings), "passes": passes, "timed_wall_s": elapsed,
            "unscaled_ops_per_s": len(op_raw) / math.fsum(op_raw),
            "reference_ms": 1e3 * statistics.median(w for w, _ in refs)}


def traced_run(wl, tally: Tally, args, out_dir) -> dict:
    """One untraced and one traced pass of the same ops; per-layer metrics."""
    import tracing
    from workloads import KernelShortTime

    ops = wl.next_pass()
    wall0 = time.perf_counter()
    tally.check(run_pass(ops))
    untraced = time.perf_counter() - wall0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wall0 = time.perf_counter()
        records = run_pass(ops, tracer=tracer)
        traced = time.perf_counter() - wall0
        if isinstance(wl, KernelShortTime):
            for block in wl.series_subsample():
                rho, sigma = block.points[0]
                block.green.value_series(rho, block.eps, sigma, block.eta)
    finally:
        tracer.uninstall()

    unresolved = tally.check(records)
    points = len(ops) if isinstance(wl, KernelShortTime) else 0
    metrics = tracer.layer_metrics(unresolved=unresolved, points=points)
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    metrics["fail_frac"] = (len(tally.failures) + len(tally.known)) / tally.attempted
    tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    return {"metrics": metrics, "traced_ops": len(ops)}


if __name__ == "__main__":
    sys.exit(main())
