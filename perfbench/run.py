"""rankone-gap benchmark: in-process `rankone_gap.cli.run` as a closed loop.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload inversion --seed 1 --seconds 15 --trace 0

One client, no threads of its own: each op is the next argv of a seeded op
list, run to completion before the next starts.  Ops run in whole passes
(``MIN_PASSES`` or more) until the measured time (the sum of per-op wall
times) reaches ``--seconds``.  Outputs are checked against independent oracles between ops,
outside the timed region.  The last stdout line is the result object; the
line before it is the full report (stamp, class shares, failures by class),
which is also written to ``perfbench/out/``.  ``--trace 1`` is a separate run
that records spans and counters per module and reports the per-layer metrics
instead.

Times are reported at a fixed host speed: see ``calibrate``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 11
# Every pass has 100 ops, so two passes give >= 10 samples beyond p90.
# Inversion runs three: its dozen density inverts per pass (~0.4-1.5 s each,
# most of its run time) and four degree-16 peaks are drawn anew in each pass,
# and with two passes its ops_per_s and peak_rss_mb varied by ~8% between
# seeds.  The other workloads reach --seconds in two to four passes.
MIN_PASSES = {"inversion": 3, "continuation": 2, "arithmetic": 2}
# Host-speed reference.  The vCPUs of a shared host run the same code up to
# ~1.4x slower for a minute or more at a time, which moves raw times between
# runs by more than any bound.  So the loop times a fixed reference kernel
# before every op, outside the op's timed region, and each op's wall time is
# scaled by CAL_REF_S over the median kernel time within CAL_WINDOW_S of the
# op: times read as at the host speed where the kernel takes CAL_REF_S.  The
# kernel calls nothing of the package, so a change to the program cannot move
# it.  Each setup_s sample is scaled by CAL_SETUP_SAMPLES kernel runs on each
# side of it.
CAL_REF_S = 2e-3
CAL_WINDOW_S = 1.0
CAL_SETUP_SAMPLES = 5
_CAL = {}

E2E_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "fail_ratio": "ratio", "peak_rss_mb": "MB", "setup_s": "s"}

# Failures the seed program is known to produce, by (op class, failure kind).
# They count in `failed` and `fail_ratio`; `correct` turns false on any other.
KNOWN_DEFECTS = {
    ("transform-deg16", "escaped:QuadratureError"),  # panel budget exhausted, not caught by cli.run
    ("malformed-list", "escaped:AttributeError"),  # top-level JSON list reaches data.get
    ("eval-near-singular", "exit:1"),  # TOL_POLE classifies a point 1e-10 from a pole as one
    ("eval-near-singular", "oracle"),  # ... or prints 0 for a small non-zero value near a zero
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["inversion", "continuation", "arithmetic"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def calibrate() -> tuple[float, float]:
    """(start, seconds) of one run of the host-speed reference kernel: about
    1 ms of interpreter loops and dict lookups, and about 1 ms of numpy ufuncs
    streaming 5 MB.  The mix follows the ops: cheap ops are interpreter-bound,
    and the density inverts slow down on a busy host more like the streaming
    half.

    It allocates nothing: allocations would time the page faults and heap
    state the preceding op left behind.  One untimed round first refills the
    caches the op evicted."""
    import numpy as np

    if not _CAL:
        x = np.linspace(0.0, 1.0, 200_000)
        _CAL.update(x=x, a=np.empty_like(x), b=np.empty_like(x), table={i: i % 7 for i in range(1500)})
    x, a, b, table = _CAL["x"], _CAL["a"], _CAL["b"], _CAL["table"]

    def kernel() -> float:
        acc = 0.0
        for i in range(4000):
            acc += (i * i) % 7
        for _ in range(3):
            for k in table:
                acc += table[k]
        np.multiply(x, -1.0, out=a)
        np.exp(a, out=a)
        np.multiply(x, 3.0, out=b)
        np.multiply(a, b, out=a)
        return acc + float(a.sum())

    enabled = gc.isenabled()
    gc.disable()
    kernel()
    t0 = time.perf_counter()
    kernel()
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return t0, dt


def speed_scale(cal_t: list[float], cal_dt: list[float], j: int, t0: float, t1: float) -> float:
    """CAL_REF_S over the median kernel time near the interval [t0, t1]: the
    samples within CAL_WINDOW_S of it, and always ``j`` and ``j + 1``, the
    samples taken just before and just after it."""
    lo = min(bisect.bisect_left(cal_t, t0 - CAL_WINDOW_S), j)
    hi = max(bisect.bisect_right(cal_t, t1 + CAL_WINDOW_S), j + 2)
    return CAL_REF_S / statistics.median(cal_dt[lo:hi])


def setup_seconds() -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing the CLI and running
    one trivial subcommand, at the reference host speed; and the raw median."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); from rankone_gap.cli import run; "
        "raise SystemExit(run(['gap', 'params', '--kappa-gamma', '1', '--d', '2']))"
    )
    samples, raw = [], []
    for _ in range(SETUP_SAMPLES):
        before = [calibrate()[1] for _ in range(CAL_SETUP_SAMPLES)]
        t0 = time.perf_counter()
        # no timeout: with one, Popen.wait polls with sleeps of up to 50 ms,
        # which quantizes the measurement
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, stdout=subprocess.DEVNULL, check=True)
        dt = time.perf_counter() - t0
        after = [calibrate()[1] for _ in range(CAL_SETUP_SAMPLES)]
        raw.append(dt)
        samples.append(dt * CAL_REF_S / statistics.median(before + after))
    return statistics.median(samples), statistics.median(raw)


def rank(n: int, q: float) -> int:
    """Index of the nearest-rank q-percentile among n sorted values."""
    return max(0, math.ceil(q * n) - 1)


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def stamp(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "commit": git_commit(),
    }


def run_ops(cli, make_pass, seconds: float, min_passes: int, tracer=None):
    """Closed loop over whole passes.

    Returns (records, measured seconds, raw op seconds), where each record is
    (op, op seconds at the reference host speed, failure kind or None)."""
    spans = []  # (op, start, seconds, index of the kernel sample before it, kind)
    cal_t, cal_dt = [], []
    measured = 0.0
    k = 0
    while measured < seconds or k < min_passes:
        for op in make_pass(k):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.op_id = op.op_id
            escaped = None
            c0, c = calibrate()
            cal_t.append(c0)
            cal_dt.append(c)
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(op.argv)
            except Exception as exc:  # an escape is a failed op, not a harness crash
                code, escaped = None, type(exc).__name__
            dt = time.perf_counter() - t0
            measured += dt
            spans.append((op, t0, dt, len(cal_t) - 1, judge(op, code, escaped, out.getvalue())))
        k += 1
    c0, c = calibrate()
    cal_t.append(c0)
    cal_dt.append(c)
    records = [(op, dt * speed_scale(cal_t, cal_dt, j, t0, t0 + dt), kind) for op, t0, dt, j, kind in spans]
    return records, measured, [dt for _, _, dt, _, _ in spans]


def judge(op, code, escaped, out: str) -> str | None:
    """Failure kind of one op, or None when it passed."""
    if escaped is not None:
        return f"escaped:{escaped}"
    if code != op.expect:
        return f"exit:{code}"
    try:
        reason = op.check(out) if code in (0, 1) else None
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError):
        reason = "unparsable output"
    return None if reason is None else "oracle"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rankone_gap" / "cli.py").is_file():
        print(f"error: no rankone_gap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import rankone_gap.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "rankone_gap":
        print(f"error: imported rankone_gap from {cli.__file__}", file=sys.stderr)
        return 2
    from perfbench import tracer as tr
    from perfbench import workloads

    setup, setup_raw = setup_seconds() if not args.trace else (None, None)
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = OUT / f"inputs-{tag}-{os.getpid()}"
    counters: dict = {}
    tracer = state = None
    if args.trace:
        tracer = tr.Tracer()
        state = tr.install(tracer)
    try:
        def make_pass(k):
            return workloads.build(args.workload, args.seed, k, work, counters)

        records, measured, raw = run_ops(cli, make_pass, args.seconds, MIN_PASSES[args.workload], tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    n = len(records)
    failed = [(op, kind) for op, _, kind in records if kind is not None]
    ranked = sorted((math.inf if kind else dt, op.cls) for op, dt, kind in records)
    unknown = sorted({(op.cls, kind) for op, kind in failed} - KNOWN_DEFECTS)
    classes = Counter(op.cls for op, _, _ in records)
    shares = {p: sum(p in op.props for op, _, _ in records) / n for p in workloads.PROPERTIES}
    scaled_s = sum(dt for _, dt, _ in records)
    ops_per_s = n / scaled_s
    raw_ranked = sorted(math.inf if kind else dt for (_, _, kind), dt in zip(records, raw))

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "stamp": stamp(args.seed),
        "ops": n,
        "measured_s": measured,
        # host speed over the run: measured seconds over seconds at the reference speed
        "host_slowdown": measured / scaled_s,
        # the end-to-end times as measured, before scaling to the reference speed
        "raw": {
            "ops_per_s": n / measured,
            "latency_p50_ms": 1e3 * raw_ranked[rank(n, 0.5)],
            "latency_p90_ms": 1e3 * raw_ranked[rank(n, 0.9)],
            "setup_s": setup_raw,
        },
        "latency_samples": {"n": n, "beyond_p50": n - 1 - rank(n, 0.5), "beyond_p90": n - 1 - rank(n, 0.9)},
        "class_counts": dict(sorted(classes.items())),
        # the op class each percentile falls in, and its neighbours' classes:
        # a percentile should sit inside one class, not on a step between two
        "percentile_classes": {
            name: [cls for _, cls in ranked[max(0, rank(n, q) - 2):rank(n, q) + 3]]
            for name, q in (("p50", 0.5), ("p90", 0.9))
        },
        "class_median_ms": {
            c: 1e3 * statistics.median(dt for op, dt, _ in records if op.cls == c) for c in sorted(classes)
        },
        "property_shares": shares,
        "failures_by_class": {f"{c} {k}": v for (c, k), v in
                              sorted(Counter((op.cls, kind) for op, kind in failed).items())},
        "unexpected_failures": [f"{c} {k}" for c, k in unknown],
        "oracle_counts": counters,
    }
    if args.trace:
        extra = {
            "stieltjes.invert_interval.estimate_below_error": counters.get("estimate_below_error", 0),
            "cli.run.escaped": sum(1 for _, kind in failed if kind.startswith("escaped:")),
            "trace.ops_per_s": ops_per_s,
            "trace.wall_s": measured,
        }
        metrics = tr.layer_metrics(tracer, state, extra)
        tracer.write(OUT / f"spans-{args.workload}.json.gz")  # latest traced run only
        report["spans"] = len(tracer.start)
    else:
        metrics = {
            "ops_per_s": ops_per_s,
            "latency_p50_ms": 1e3 * ranked[rank(n, 0.5)][0],
            "latency_p90_ms": 1e3 * ranked[rank(n, 0.9)][0],
            "fail_ratio": len(failed) / n,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup,
        }
    result = {
        "correct": not unknown,
        "attempted": n,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": E2E_UNITS.get(k) or tr.unit(k)} for k, v in metrics.items()},
    }
    report["result"] = result
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
