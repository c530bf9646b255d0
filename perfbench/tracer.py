"""Spans and counters for the traced run, recorded from the benchmark's side.

``install`` replaces each traced function under every name the package binds
it to (``rankone_gap.cli.invert_interval``, ``rankone_gap.stieltjes.
integrate_adaptive`` and so on), so calls between modules go through a shim
that opens a span.  Nothing under ``src/`` is edited.  Spans live in flat
arrays in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# (module, attribute) of every traced function, named <module>.<function>
FUNCTIONS = [
    ("cli", "run"),
    ("quadrature", "integrate_adaptive"),
    ("stieltjes", "transform"),
    ("stieltjes", "cauchy_density_integral"),
    ("stieltjes", "invert_interval"),
    ("stieltjes", "vanishing_detector"),
    ("laplace", "laplace_closed"),
    ("laplace", "pole_probe"),
    ("laplace", "laplace_numeric"),
    ("laplace", "correlation"),
    ("laplace", "compare_numeric_closed"),
    ("cfunction", "evaluate"),
    ("cfunction", "cfunction_expr"),
    ("cfunction", "nonvanishing_scan"),
    ("weights", "enumerate_ktypes_containing"),
    ("weights", "branching_set"),
    ("weights", "dimension"),
    ("ktypes", "minimal_ktypes"),
    ("ktypes", "witness_ktype"),
    ("gaps", "spectral_gap_verdict"),
]

# per-layer metric names, in the order BENCHMARK.json lists them
PER_LAYER = [
    *(f"quadrature.integrate_adaptive.{q}" for q in
      ("calls", "busy_s", "self_s", "evals", "integrand_s", "not_converged", "failed")),
    *(f"stieltjes.transform.{q}" for q in ("calls", "points", "busy_s")),
    *(f"stieltjes.cauchy_density_integral.{q}" for q in ("calls", "points", "busy_s", "self_s")),
    *(f"stieltjes.invert_interval.{q}" for q in
      ("calls", "busy_s", "self_s", "not_converged", "estimate_below_error")),
    *(f"stieltjes.vanishing_detector.{q}" for q in ("calls", "busy_s")),
    *(f"laplace.laplace_closed.{q}" for q in ("calls", "points", "busy_s", "self_s")),
    *(f"laplace.pole_probe.{q}" for q in ("calls", "busy_s", "self_s")),
    *(f"laplace.laplace_numeric.{q}" for q in ("calls", "busy_s")),
    *(f"laplace.correlation.{q}" for q in ("calls", "points", "busy_s")),
    "laplace.compare_numeric_closed.busy_s",
    "laplace.from_json.busy_s",
    *(f"cfunction.evaluate.{q}" for q in ("calls", "busy_s")),
    *(f"cfunction.cfunction_expr.{q}" for q in ("calls", "busy_s")),
    *(f"cfunction.nonvanishing_scan.{q}" for q in ("calls", "busy_s", "self_s")),
    *(f"weights.enumerate_ktypes_containing.{q}" for q in ("calls", "items", "busy_s")),
    *(f"weights.branching_set.{q}" for q in ("calls", "items", "busy_s")),
    "weights.dimension.calls",
    "weights.dimension.cache_hit_ratio",
    *(f"ktypes.minimal_ktypes.{q}" for q in ("calls", "busy_s", "self_s")),
    "ktypes.witness_ktype.calls",
    *(f"gaps.spectral_gap_verdict.{q}" for q in ("calls", "busy_s")),
    *(f"cli.run.{q}" for q in ("calls", "self_s", "exit2", "escaped")),
    "measures.real_imag_part.calls",
    "measures.from_json.busy_s",
    "trace.ops_per_s",
    "trace.wall_s",
    "trace.self_sum_s",
]


def unit(metric: str) -> str:
    if metric.endswith("per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ratio"):
        return "ratio"
    return "count"


class Tracer:
    """Span recorder with one span stack per thread.

    A worker thread's outermost span takes as parent the innermost span open
    on the main thread, so spans from a ``--workers 2`` scan nest under it.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name_id: int) -> tuple[list[int], int]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        with self._lock:
            idx = len(self.start)
            self.name.append(name_id)
            self.parent.append(parent)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return stack, idx

    def close(self, handle: tuple[list[int], int]) -> None:
        stack, idx = handle
        self.end[idx] = time.perf_counter()
        stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    # -------------------------------------------------------- summaries

    def self_times(self) -> np.ndarray:
        """Duration minus the union of child intervals, per span."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        own = end - start
        children: dict[int, list[int]] = defaultdict(list)
        for idx, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(idx)
        for p, kids in children.items():
            spans = sorted((start[k], end[k]) for k in kids)
            covered = 0.0
            cur_lo, cur_hi = spans[0]
            for lo, hi in spans[1:]:
                if lo > cur_hi:
                    covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            covered += cur_hi - cur_lo
            own[p] -= covered
        return own

    def per_function(self) -> tuple[dict[str, dict[str, float]], float]:
        """calls, busy_s (inclusive) and self_s per traced function, and the
        sum of every span's self time."""
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        own = self.self_times()
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {
                "calls": float(mask.sum()),
                "busy_s": float(dur[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out, float(own.sum())

    def write(self, path: Path) -> None:
        doc = {
            "names": self.names,
            "spans": {
                "name": self.name.tolist(),
                "parent": self.parent.tolist(),
                "op": self.op.tolist(),
                "start": self.start.tolist(),
                "end": self.end.tolist(),
            },
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(tracer: Tracer) -> dict:
    """Put shims in place; returns state needed to read counters at the end."""
    pkg = [m for n, m in sys.modules.items() if n == "rankone_gap" or n.startswith("rankone_gap.")]

    def replace(orig, shim):
        for mod in pkg:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, shim)

    def make_shim(name: str, fn, before=None, after=None):
        nid = tracer.intern(name)

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            handle = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.count(f"{name}.failed")
                raise
            finally:
                tracer.close(handle)
            if after is not None:
                after(result, args, kwargs)
            return result

        return shim

    def counting_integrand(args, kwargs):
        f = args[0]

        def integrand(x):
            t0 = time.perf_counter()
            y = f(x)
            tracer.count("quadrature.integrate_adaptive.integrand_s", time.perf_counter() - t0)
            tracer.count("quadrature.integrate_adaptive.evals", np.size(x))
            return y

        return (integrand, *args[1:]), kwargs

    def points(name, pos):
        def after(result, args, kwargs):
            tracer.count(f"{name}.points", int(np.size(args[pos])))
        return after

    def items(name):
        def after(result, args, kwargs):
            tracer.count(f"{name}.items", len(result))
        return after

    def converged(name):
        def after(result, args, kwargs):
            if not result.converged:
                tracer.count(f"{name}.not_converged")
        return after

    def cli_exit(result, args, kwargs):
        if result == 2:
            tracer.count("cli.run.exit2")

    hooks = {
        "quadrature.integrate_adaptive": (counting_integrand, converged("quadrature.integrate_adaptive")),
        "stieltjes.transform": (None, points("stieltjes.transform", 1)),
        "stieltjes.cauchy_density_integral": (None, points("stieltjes.cauchy_density_integral", 3)),
        "stieltjes.invert_interval": (None, converged("stieltjes.invert_interval")),
        "laplace.laplace_closed": (None, points("laplace.laplace_closed", 1)),
        "laplace.correlation": (None, points("laplace.correlation", 1)),
        "weights.enumerate_ktypes_containing": (None, items("weights.enumerate_ktypes_containing")),
        "weights.branching_set": (None, items("weights.branching_set")),
        "cli.run": (None, cli_exit),
    }
    state = {}
    for module, attr in FUNCTIONS:
        mod = sys.modules[f"rankone_gap.{module}"]
        orig = getattr(mod, attr)
        name = f"{module}.{attr}"
        before, after = hooks.get(name, (None, None))
        replace(orig, make_shim(name, orig, before, after))
        if name == "weights.dimension":
            state["dimension"] = orig
            state["dimension_info0"] = orig.cache_info()

    from rankone_gap.laplace import SpectralModel
    from rankone_gap.measures import RealLineMeasure

    for cls, attr, name in (
        (RealLineMeasure, "real_part", "measures.real_imag_part"),
        (RealLineMeasure, "imag_part", "measures.real_imag_part"),
    ):
        setattr(cls, attr, make_shim(name, getattr(cls, attr)))
    for cls, name in ((RealLineMeasure, "measures.from_json"), (SpectralModel, "laplace.from_json")):
        func = cls.__dict__["from_json"].__func__
        cls.from_json = classmethod(make_shim(name, func))
    return state


def layer_metrics(tracer: Tracer, state: dict, extra: dict) -> dict[str, float]:
    """Every PER_LAYER metric from the recorded spans and counters."""
    per, self_sum_s = tracer.per_function()
    counts = dict(tracer.counts)
    counts.update(extra)
    info0, info1 = state["dimension_info0"], state["dimension"].cache_info()
    hits, misses = info1.hits - info0.hits, info1.misses - info0.misses
    counts["weights.dimension.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out = {}
    for metric in PER_LAYER:
        func, _, quantity = metric.rpartition(".")
        if func in per and quantity in per[func]:
            out[metric] = per[func][quantity]
        else:
            out[metric] = float(counts.get(metric, 0.0))
    out["trace.self_sum_s"] = self_sum_s
    return out
