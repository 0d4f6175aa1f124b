"""Span tracing of the nullstate layers, installed from outside the package.

`Tracer.install()` wraps the public functions and methods of every layer
module.  Methods are wrapped on their class; module-level functions are
rebound at every `nullstate` module that imported them, so calls made inside
the package are seen too.  `uninstall()` restores the originals.

A span (name, start, end, parent span, op id) is recorded when a call crosses
from one layer into another, and always for the calls whose time is a metric.
A call that stays inside its caller's layer is only counted, which keeps the
tracing cost of tight inner loops (e.g. `HeatKernel.term_bound`) low.  A
layer's self time is its spans' durations minus the time their child spans
cover.  Spans stay in memory until `dump()` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("exponents", "jacobi", "heat_kernel", "green", "pde", "asymptotics", "checks", "cli")
SUITES = ("exponents", "jacobi", "kernel", "green", "pde", "asymptotics")
# private helpers wrapped because a metric needs them (report/CSV writing)
PRIVATE = {"cli": ("_print_report", "_write_csv")}
CANDIDATE_CALL = "pde.CandidateFunction.__call__"
SCANS = ("asymptotics.far_pair_bound_scan", "asymptotics.adjacent_pair_bound_scan")
ALWAYS_SPAN = {
    "jacobi.gauss_jacobi_rule",
    "heat_kernel.HeatKernel.truncation_index",
    "green.TwoIntervalGreen.value_series",
    "green.TwoIntervalGreen.adjoint_residual",
    "checks.build_report",
    "cli._print_report",
    "cli._write_csv",
    CANDIDATE_CALL,
    *(f"checks.suite_{s}" for s in SUITES),
}
REPORT_SPANS = ("checks.build_report", "cli._print_report", "cli._write_csv")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.spans: list = []          # (name id, start, end, parent span, op id)
        self._frames: list = []        # [span index, caller layer, start, child s, label]
        self.layer = "bench"
        self.op = -1
        self.calls: Counter = Counter()
        self.span_s: defaultdict = defaultdict(float)   # inclusive seconds per label
        self.self_s: defaultdict = defaultdict(float)   # self seconds per layer
        self.n: Counter = Counter()                     # work counters
        self.candidate_calls: Counter = Counter()       # by calling layer
        self.candidate_s: defaultdict = defaultdict(float)
        self.residual_calls: Counter = Counter()        # candidate calls per M
        self.residual_configs: Counter = Counter()
        self._last_n_terms = 0
        self._seen_t: set = set()
        self._patches: list = []
        self._t0 = time.perf_counter()

    # -- spans ---------------------------------------------------------------

    def _open(self, label: str, layer: str) -> list:
        idx = len(self.spans)
        parent = self._frames[-1][0] if self._frames else -1
        self.spans.append((label, parent))
        frame = [idx, self.layer, time.perf_counter(), 0.0, label]
        self._frames.append(frame)
        self.layer = layer
        return frame

    def _close(self, frame: list) -> float:
        end = time.perf_counter()
        idx, caller_layer, start, child_s, label = frame
        self._frames.pop()
        layer = self.layer
        self.layer = caller_layer
        dur = end - start
        self.self_s[layer] += dur - child_s
        if self._frames:
            self._frames[-1][3] += dur
        self.span_s[label] += dur
        parent = self.spans[idx][1]
        self.spans[idx] = (self._intern(label), start, end, parent, self.op)
        return dur

    def _intern(self, label: str) -> int:
        nid = self._name_id.get(label)
        if nid is None:
            nid = self._name_id[label] = len(self.names)
            self.names.append(label)
        return nid

    @contextlib.contextmanager
    def op_span(self, op_id: int, name: str):
        """The root span of one benchmark op."""
        self.op = op_id
        frame = self._open(f"op:{name}", "bench")
        try:
            yield
        finally:
            self._close(frame)
            self.op = -1

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, label: str, layer: str):
        tracer = self
        always = label in ALWAYS_SPAN
        hook = _HOOKS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[label] += 1
            if label == "pde.system_residuals":
                before = tracer.calls[CANDIDATE_CALL]
            if always or tracer.layer != layer:
                frame = tracer._open(label, layer)
                caller = frame[1]
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    tracer._close(frame)
                    tracer._on_error(label, args, kwargs, exc)
                    raise
                dur = tracer._close(frame)
                if label == CANDIDATE_CALL:
                    tracer.candidate_calls[caller] += 1
                    tracer.candidate_s[caller] += dur
            else:
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    tracer._on_error(label, args, kwargs, exc)
                    raise
            if label == "pde.system_residuals":
                M = _arg(args, kwargs, 1, "config").M
                tracer.residual_calls[M] += tracer.calls[CANDIDATE_CALL] - before
                tracer.residual_configs[M] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _on_error(self, label, args, kwargs, exc) -> None:
        if label == "heat_kernel.HeatKernel.truncation_index":
            from nullstate.errors import TruncationError

            if isinstance(exc, TruncationError):
                self.n["heat_kernel.refused"] += 1
                self.n["heat_kernel.truncation_steps"] += args[0].policy.n_max

    def install(self) -> None:
        """Wrap every layer's public callables; idempotent per tracer."""
        if self._patches:
            return
        wrapped: dict[int, tuple] = {}
        for short in LAYERS:
            mod = importlib.import_module(f"nullstate.{short}")
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if name.startswith("_") and name not in PRIVATE.get(short, ()):
                        continue
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{short}.{name}", short))
                elif inspect.isclass(obj):
                    self._wrap_class(obj, short)
        for modname, mod in list(sys.modules.items()):
            if modname != "nullstate" and not modname.startswith("nullstate."):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._patches.append((mod, name, obj))

    def _wrap_class(self, cls, short: str) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            label = f"{short}.{cls.__name__}.{attr}"
            layer = "candidate" if label == CANDIDATE_CALL else short
            if inspect.isfunction(val):
                new = self._wrap(val, label, layer)
            elif isinstance(val, (classmethod, staticmethod)):
                new = type(val)(self._wrap(val.__func__, label, layer))
            else:
                continue
            setattr(cls, attr, new)
            self._patches.append((cls, attr, val))

    def uninstall(self) -> None:
        while self._patches:
            target, name, orig = self._patches.pop()
            setattr(target, name, orig)

    # -- results -------------------------------------------------------------

    def layer_metrics(self, unresolved: int = 0, points: int = 0) -> dict:
        """Per-layer metrics; `unresolved`/`points` add the caller's own
        under-floor kernel points to those the bound scans report."""
        c, n, ms = self.calls, self.n, lambda label: 1e3 * self.span_s[label]
        m = {"exponents.calls": sum(v for k, v in c.items() if k.startswith("exponents."))}
        m["jacobi.self_ms"] = 1e3 * self.self_s["jacobi"]
        m["jacobi.eval_table.cells"] = n["jacobi.eval_table.cells"]
        m["jacobi.eval.steps"] = n["jacobi.eval.steps"]
        m["jacobi.gauss_rule.calls"] = c["jacobi.gauss_jacobi_rule"]
        m["jacobi.gauss_rule.nodes"] = n["jacobi.gauss_rule.nodes"]
        m["jacobi.gauss_rule.ms"] = ms("jacobi.gauss_jacobi_rule")

        trunc = "heat_kernel.HeatKernel.truncation_index"
        m["heat_kernel.self_ms"] = 1e3 * self.self_s["heat_kernel"]
        m["heat_kernel.truncation_index.calls"] = c[trunc]
        m["heat_kernel.truncation_index.ms"] = ms(trunc)
        m["heat_kernel.truncation_steps"] = n["heat_kernel.truncation_steps"]
        m["heat_kernel.terms_summed"] = n["heat_kernel.terms_summed"]
        m["heat_kernel.grid.points"] = n["heat_kernel.grid.points"]
        unresolved += n["heat_kernel.scan_unresolved"]
        points += n["heat_kernel.scan_points"]
        m["heat_kernel.unresolved_share"] = unresolved / points if points else 0.0
        m["heat_kernel.t_reuse_share"] = n["heat_kernel.t_reuse"] / c[trunc] if c[trunc] else 0.0
        m["heat_kernel.refused"] = n["heat_kernel.refused"]

        m["green.self_ms"] = 1e3 * self.self_s["green"]
        m["green.value.calls"] = c["green.TwoIntervalGreen.value"]
        m["green.value_series.calls"] = c["green.TwoIntervalGreen.value_series"]
        m["green.value_series.ms"] = ms("green.TwoIntervalGreen.value_series")
        m["green.adjoint_residual.calls"] = c["green.TwoIntervalGreen.adjoint_residual"]
        m["green.adjoint_residual.ms"] = ms("green.TwoIntervalGreen.adjoint_residual")

        m["pde.self_ms"] = 1e3 * self.self_s["pde"]
        m["pde.candidate_calls"] = self.candidate_calls["pde"]
        m["pde.candidate_ms"] = 1e3 * self.candidate_s["pde"]
        for M in (2, 5, 8):
            configs = self.residual_configs[M]
            m[f"pde.calls_per_config.M{M}"] = self.residual_calls[M] / configs if configs else 0.0
        calls = sum(self.residual_calls.values())
        ideal = sum((1 + 8 * M) * k for M, k in self.residual_configs.items())
        m["pde.stencil_efficiency"] = ideal / calls if calls else 0.0

        m["asymptotics.self_ms"] = 1e3 * self.self_s["asymptotics"]
        m["asymptotics.candidate_calls"] = self.candidate_calls["asymptotics"]
        m["asymptotics.scan.calls"] = sum(c[s] for s in SCANS)

        for s in SUITES:
            m[f"checks.suite_ms.{s}"] = ms(f"checks.suite_{s}")
        m["checks.checks_run"] = n["checks.checks_run"]
        m["cli.report_ms"] = sum(ms(s) for s in REPORT_SPANS)
        m["cli.csv_rows"] = n["cli.csv_rows"]
        return m

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSON: names plus (name, start_us, end_us,
        parent, op) rows, times relative to the tracer's creation."""
        t0 = self._t0
        rows = [
            [nid, round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), parent, op]
            for nid, s, e, parent, op in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start_us", "end_us", "parent", "op"],
                       "spans": rows}, fh, separators=(",", ":"))


# -- per-call counters -------------------------------------------------------


def _eval(tr, args, kwargs, result):
    tr.n["jacobi.eval.steps"] += max(int(_arg(args, kwargs, 1, "n")) - 1, 0)


def _eval_table(tr, args, kwargs, result):
    tr.n["jacobi.eval_table.cells"] += np.size(result)


def _gauss_rule(tr, args, kwargs, result):
    tr.n["jacobi.gauss_rule.nodes"] += int(_arg(args, kwargs, 0, "m"))


def _truncation_index(tr, args, kwargs, result):
    kernel, t = args[0], float(_arg(args, kwargs, 1, "t"))
    n_terms = int(result[0])
    tr._last_n_terms = n_terms
    tr.n["heat_kernel.truncation_steps"] += n_terms
    key = (kernel.alpha, kernel.beta, kernel.policy, t)
    if key in tr._seen_t:
        tr.n["heat_kernel.t_reuse"] += 1
    else:
        tr._seen_t.add(key)


def _kernel_value(tr, args, kwargs, result):
    tr.n["heat_kernel.terms_summed"] += int(result.n_terms)


def _kernel_grid(tr, args, kwargs, result):
    points = np.size(_arg(args, kwargs, 1, "rhos")) * np.size(_arg(args, kwargs, 2, "sigmas"))
    n_terms = _arg(args, kwargs, 4, "n_terms")
    n_terms = tr._last_n_terms if n_terms is None else int(n_terms)
    tr.n["heat_kernel.grid.points"] += points
    tr.n["heat_kernel.terms_summed"] += n_terms * points


def _bound_scan(tr, args, kwargs, result):
    tr.n["heat_kernel.scan_unresolved"] += int(result.n_unresolved)
    tr.n["heat_kernel.scan_points"] += int(result.n_points)


def _build_report(tr, args, kwargs, result):
    tr.n["checks.checks_run"] += len(result.checks)


def _write_csv(tr, args, kwargs, result):
    tr.n["cli.csv_rows"] += len(_arg(args, kwargs, 2, "rows"))


_HOOKS = {
    "jacobi.JacobiBasis.eval": _eval,
    "jacobi.JacobiBasis.eval_table": _eval_table,
    "jacobi.gauss_jacobi_rule": _gauss_rule,
    "heat_kernel.HeatKernel.truncation_index": _truncation_index,
    "heat_kernel.HeatKernel.value": _kernel_value,
    "heat_kernel.HeatKernel.grid": _kernel_grid,
    "heat_kernel.bound_ratio_scan": _bound_scan,
    "checks.build_report": _build_report,
    "cli._write_csv": _write_csv,
}
