"""Seeded op lists for the three workloads, with a per-op oracle.

Every pass of a workload is a fixed class schedule (the count of each op class
and, inside a class, the stratified properties such as degree or grid size);
the seed draws the concrete inputs within each slot.  All JSON inputs are
written before timing starts, and each op carries a ``check`` that judges its
captured stdout outside the timed region against ``oracles``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import mpmath

from . import oracles as orc

PROPERTIES = ("atom_only", "density", "deg8", "planted_pole", "malformed", "workers2")


@dataclass
class Op:
    cls: str
    argv: list[str]
    expect: int
    check: Callable[[str], str | None] = lambda out: None
    props: frozenset[str] = frozenset()
    op_id: int = -1


@dataclass
class PassWriter:
    """Writes one pass's input files and collects its ops."""

    rng: random.Random
    folder: Path
    counters: dict
    ops: list[Op] = field(default_factory=list)

    def file(self, doc, text: str | None = None) -> str:
        path = self.folder / f"in{len(self.ops):03d}.json"
        path.write_text(text if text is not None else json.dumps(doc))
        return str(path)


def build(workload: str, seed: int, k: int, folder: Path, counters: dict) -> list[Op]:
    """Pass ``k`` of ``workload``, drawn from (seed, k), with its files written.

    Checks add oracle-side counts (such as ``estimate_below_error``) to
    ``counters`` each time they run."""
    make = {"inversion": _inversion, "continuation": _continuation, "arithmetic": _arithmetic}
    sub = folder / f"pass{k}"
    sub.mkdir(parents=True, exist_ok=True)
    b = PassWriter(random.Random(f"{workload}:{seed}:{k}"), sub, counters)
    make[workload](b)
    b.rng.shuffle(b.ops)
    for i, op in enumerate(b.ops):
        op.op_id = k * 1000 + i
    return b.ops


# ------------------------------------------------------------ helpers


def _r(x: float, digits: int = 3) -> float:
    return round(x, digits)


def _close(got: float, want, rel: float) -> bool:
    return abs(got - float(want)) <= rel * abs(float(want))


def _json_out(out: str):
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


def _malformed(b: PassWriter, argv_for, kinds) -> None:
    """One top-level-list input (a known seed defect: AttributeError escapes
    ``run``) plus one other malformed kind drawn from ``kinds``."""
    path = b.file([1, 2, 3])
    b.ops.append(Op("malformed-list", argv_for(path), 2, props=frozenset({"malformed"})))
    kind, text = b.rng.choice(kinds)
    path = b.file(None, text=text)
    b.ops.append(Op(f"malformed-{kind}", argv_for(path), 2, props=frozenset({"malformed"})))


# ---------------------------------------------------------- inversion

def _density(rng: random.Random, lo: float, hi: float, deg: int, cplx: bool, scaled=True):
    big = max(abs(lo), abs(hi))
    scale = [big**k if scaled else 1.0 for k in range(deg + 1)]
    re = [_r(rng.uniform(-1, 1), 4) / scale[k] for k in range(deg + 1)]
    re[0] = _r(rng.uniform(0.5, 1.5), 4)
    doc = {"a": lo, "b": hi, "coeffs_re": re}
    if cplx:
        doc["coeffs_im"] = [_r(rng.uniform(-1, 1), 4) / scale[k] for k in range(deg + 1)]
    return doc


def _atoms(rng: random.Random, lo: float, hi: float, count: int, cplx: bool):
    spots: list[float] = []
    while len(spots) < count:
        t = _r(rng.uniform(lo, hi))
        if all(abs(t - s) > 0.05 for s in spots):
            spots.append(t)
    return [
        {"t": t, "w_re": _r(rng.uniform(-1, 1), 4), "w_im": _r(rng.uniform(-1, 1), 4) if cplx else 0.0}
        for t in sorted(spots)
    ]


def _check_mass(measure: dict, a: float, b: float, counters: dict):
    exact_re, exact_im = orc.half_mass(measure, a, b)

    def check(out: str):
        doc = _json_out(out)
        if doc is None:
            return "unparsable output"
        err_re = abs(doc["mass_re"] - float(exact_re))
        err_im = abs(doc["mass_im"] - float(exact_im))
        # honesty counter (ROADMAP item 4): a reported error below the actual one
        counters["estimate_below_error"] += doc["error_re"] < err_re or doc["error_im"] < err_im
        if max(err_re, err_im) > 1e-3:
            return f"mass off by {max(err_re, err_im):.3g}"
        return None

    return check


def _check_transform(measure: dict, z: complex):
    ref = orc.stieltjes_mp(measure, z)

    def check(out: str):
        doc = _json_out(out)
        if doc is None:
            return "unparsable output"
        got = mpmath.mpc(doc["re"], doc["im"])
        err = abs(got - ref)
        # quadrature runs at absolute 1e-9 per piece; allow 1e-6 plus print rounding
        if err > 1e-6 + 1e-12 * abs(ref):
            return f"transform off by {float(err):.3g}"
        return None

    return check


def _check_verdict(expected: str):
    def check(out: str):
        doc = _json_out(out)
        if doc is None or doc.get("verdict") != expected:
            return f"verdict {doc and doc.get('verdict')} != {expected}"
        return None

    return check


def _inversion(b: PassWriter) -> None:
    rng = b.rng
    counters = b.counters
    counters.setdefault("estimate_below_error", 0)

    def stj(cmd, path, *rest):
        return ["stieltjes", cmd, "--model", path, *map(str, rest)]

    # transforms at heights 1e-1 .. 1e-3 (cheap): atom-only, density, degree 8-14
    for i in range(29):
        d = 2 + i % 3
        lo, hi = d / 2, float(d)
        if i < 6:
            measure = {"atoms": _atoms(rng, lo, hi, 1 + i % 3, cplx=i % 2 == 1), "densities": []}
            cls, props = "transform-atom", {"atom_only"}
        elif i < 25:
            measure = {"atoms": [], "densities": [_density(rng, lo, hi, i % 5, cplx=i % 2 == 0)]}
            cls, props = "transform-density", {"density"}
        else:
            measure = {"atoms": [], "densities": [_density(rng, lo, hi, 8 + 2 * (i % 4), cplx=i % 2 == 0)]}
            cls, props = "transform-deg8", {"density", "deg8"}
        z = complex(_r(rng.uniform(lo, hi)), 10 ** rng.uniform(-3, -1))
        path = b.file(measure)
        b.ops.append(Op(cls, stj("transform", path, "--z-re", repr(z.real), "--z-im", repr(z.imag)),
                     0, _check_transform(measure, z), frozenset(props)))

    # atom-only inverts; every third puts an atom on an endpoint
    for i in range(48):
        d = 2 + i % 3
        lo, hi = d / 2, float(d)
        atoms = _atoms(rng, lo + 0.1, hi - 0.1, 1 + i % 4, cplx=i % 2 == 0)
        a, bb = _r(lo - rng.uniform(0.0, 0.2)), _r(hi + rng.uniform(0.0, 0.2))
        if i % 3 == 0:
            a = atoms[0]["t"]
        else:
            a = min(a, atoms[0]["t"] - 0.05)
        measure = {"atoms": atoms, "densities": []}
        path = b.file(measure)
        b.ops.append(Op("invert-atom", stj("invert", path, "--a", a, "--b", bb), 0,
                     _check_mass(measure, a, bb, counters), frozenset({"atom_only"})))

    # density inverts: degree 0..4, real/complex, interior / density-edge / endpoint-atom
    # 12 in 100 ops: with the 2 heavier ops below, p90 lands inside this class
    for i in range(12):
        d = 2 + (i // 3) % 3
        lo, hi = d / 2, float(d)
        piece = _density(rng, lo, hi, i % 5, cplx=i % 2 == 1)
        variant = i % 3
        a = _r(rng.uniform(lo + 0.05, lo + 0.3 * (hi - lo)))
        bb = _r(rng.uniform(hi - 0.3 * (hi - lo), hi - 0.05))
        atoms = []
        if variant == 1:
            a = lo  # endpoint on the density edge
        elif variant == 2:
            atoms = [{"t": a, "w_re": _r(rng.uniform(0.2, 1), 4), "w_im": 0.0}]
        measure = {"atoms": atoms, "densities": [piece]}
        path = b.file(measure)
        b.ops.append(Op("invert-density", stj("invert", path, "--a", a, "--b", bb), 0,
                     _check_mass(measure, a, bb, counters), frozenset({"density"})))

    # degree-16 densities with unscaled coefficients: the adaptive path cannot
    # reach its absolute tolerance and QuadratureError escapes (a known seed
    # defect).  A single evaluation point keeps the failed attempt at ~0.4 s
    # and 60-100 MB; an invert over the same piece fails after 1-7 s and up to
    # 1 GB.  The point sits near the axis over the top of the piece, where
    # |density| is largest, so no draw converges by round-off luck.  These
    # attempts set the run's peak RSS, which varies by ~40% between draws;
    # four per pass make a run's peak the maximum of at least twelve draws,
    # which varies by less than a tenth between seeds.
    for _ in range(4):
        d = 3 + rng.randrange(2)
        measure = {"atoms": [], "densities": [_density(rng, d / 2, float(d), 16, False, scaled=False)]}
        z = complex(_r(rng.uniform(0.85 * d, d - 0.01)), 10 ** rng.uniform(-3, -2))
        path = b.file(measure)
        b.ops.append(Op("transform-deg16", stj("transform", path, "--z-re", repr(z.real), "--z-im", repr(z.imag)),
                     0, _check_transform(measure, z), frozenset({"density", "deg8"})))

    # detects with planted truth
    for i in range(4):
        d = 2 + i % 3
        lo, hi = d / 2, float(d)
        a, bb = _r(lo + 0.2), _r(hi - 0.2)
        if i % 2 == 0:  # mass inside (a, b)
            atoms = _atoms(rng, a + 0.1, bb - 0.1, 1, cplx=False)
            atoms[0]["w_re"] = _r(rng.uniform(0.3, 1), 4)
            expected = "does_not_vanish"
        else:  # support kept 0.3 away from [a, b]
            atoms = [{"t": _r(a - 0.3 - rng.uniform(0, 0.2)), "w_re": 1.0, "w_im": 0.0},
                     {"t": _r(bb + 0.3 + rng.uniform(0, 0.2)), "w_re": 0.5, "w_im": 0.5}]
            expected = "vanishes"
        path = b.file({"atoms": atoms, "densities": []})
        b.ops.append(Op("detect-atom", stj("detect", path, "--a", a, "--b", bb), 0,
                     _check_verdict(expected), frozenset({"atom_only"})))
    # one ~3 s density detect per pass; d and the degree are fixed because
    # this single op is a fifth of the pass time and its cost must be steady
    d = 3
    measure = {"atoms": [], "densities": [_density(rng, d / 2, float(d), 0, False)]}
    path = b.file(measure)
    b.ops.append(Op("detect-density", stj("detect", path, "--a", d / 2 + 0.1, "--b", d - 0.1), 0,
                 _check_verdict("does_not_vanish"), frozenset({"density"})))

    _malformed(
        b,
        lambda p: stj("invert", p, "--a", 1.0, "--b", 2.0),
        [
            ("json", "{not json"),
            ("key", '{"atoms": [{"w_re": 1.0}]}'),
            ("bounds", '{"densities": [{"a": 2, "b": 1, "coeffs_re": [1]}]}'),
        ],
    )


# -------------------------------------------------------- continuation


def _sigma_trivial(d: int) -> dict:
    return {"n": d, "entries": [0] * (d // 2)}


def _model(rng: random.Random, d: int, eta: float, density: bool, tempered: bool, planted: float | None):
    """A model whose strip (delta - eta, delta) is clean unless ``planted``."""
    delta = _r(d / 2 + rng.uniform(0.4, 0.5) * (d / 2 if d < 4 else 1.0))
    far = delta - eta - 0.05  # clean support stays below this
    atoms = [{"t": delta, "w_re": _r(rng.uniform(0.3, 1), 4), "w_im": _r(rng.uniform(-0.3, 0.3), 4)}]
    for t in sorted({_r(rng.uniform(d / 2 + 0.05, far)) for _ in range(rng.randint(0, 2))}):
        atoms.append({"t": t, "w_re": _r(rng.uniform(-1, 1), 4), "w_im": 0.0})
    if planted is not None:
        atoms.append({"t": _r(delta - planted, 4), "w_re": _r(rng.uniform(0.4, 1), 4), "w_im": 0.0})
    atoms.sort(key=lambda a: a["t"])
    densities = []
    if density:
        lo = _r(d / 2 + 0.02)
        hi = _r(rng.uniform(lo + 0.1, far))
        densities.append(_density(rng, lo, hi, rng.randrange(3), cplx=rng.random() < 0.5))
    coeff = [_r(rng.uniform(0.5, 1.5), 4), _r(rng.uniform(-0.3, 0.3), 4)]
    return {
        "schema": "rankone-gap/1",
        "d": d,
        "delta": delta,
        "tempered_amplitude": _r(rng.uniform(0.1, 0.8), 4) if tempered else 0.0,
        "channels": [{"sigma": _sigma_trivial(d), "measure": {"atoms": atoms, "densities": densities},
                      "coeff_re": coeff, "coeff_im": [0.0, 0.0]}],
    }


def _check_poles(planted: float | None):
    def check(out: str):
        doc = _json_out(out)
        if doc is None:
            return "unparsable output"
        if planted is None:
            return None if doc["passed"] else "clean strip reported a pole"
        loc = doc.get("pole_location")
        if doc["passed"] or loc is None or abs(loc + planted) > 1e-3:
            return f"planted pole at {-planted} located at {loc}"
        return None

    return check


def _check_laplace(model: dict, zs: list[complex]):
    refs = [orc.laplace_exact(model, z) for z in zs]

    def check(out: str):
        rows = out.strip().splitlines()[1:]
        if len(rows) != len(zs):
            return f"{len(rows)} rows for {len(zs)} points"
        for row, ref in zip(rows, refs):
            _, _, re, im, bound = map(float, row.split(","))
            err = abs(mpmath.mpc(re, im) - ref)
            if err > bound + 1e-8:
                return f"laplace error {float(err):.3g} above its bound {bound:.3g}"
        return None

    return check


def _check_correlate(model: dict, ts: list[float], picks: list[int]):
    refs = {k: orc.correlation_exact(model, ts[k]) for k in picks}

    def check(out: str):
        rows = out.strip().splitlines()[1:]
        if len(rows) != len(ts):
            return f"{len(rows)} rows for {len(ts)} times"
        for k, ref in refs.items():
            _, re, im = map(float, rows[k].split(","))
            if abs(mpmath.mpc(re, im) - ref) > 1e-7:
                return f"correlation off at t={ts[k]}"
        return None

    return check


def _check_compare(out: str):
    doc = _json_out(out)
    return None if doc is not None and doc["passed"] else "compare did not pass"


def _check_gap(expected: bool):
    def check(out: str):
        doc = _json_out(out)
        if doc is None or doc["verdict"] is not expected:
            return f"verdict should be {expected}"
        return None

    return check


def _continuation(b: PassWriter) -> None:
    rng = b.rng
    eta = 0.1

    def sim(cmd, path, *rest):
        return ["sim", cmd, "--model", path, *map(str, rest)]

    for i in range(48):
        d = 2 + i % 3
        if i < 16:
            cls, density, planted = "poles-atom", False, None
        elif i < 36:
            cls, density, planted = "poles-density", True, None
        else:
            cls, density, planted = "poles-planted", i % 2 == 0, _r(rng.uniform(0.02, 0.08), 4)
        model = _model(rng, d, eta, density, tempered=i % 4 == 1, planted=planted)
        props = {"density" if density else "atom_only"} | ({"planted_pole"} if planted else set())
        path = b.file(model)
        b.ops.append(Op(cls, sim("poles", path, "--eta", eta), 1 if planted else 0,
                     _check_poles(planted), frozenset(props)))

    for i in range(12):
        d, density = 2 + i % 3, i % 2 == 1
        model = _model(rng, d, eta, density, tempered=i % 4 < 2, planted=None)
        path = b.file(model)
        props = frozenset({"density" if density else "atom_only"})
        b.ops.append(Op("compare", sim("compare", path), 0, _check_compare, props))

    for i in range(12):
        d, density = 2 + i % 3, i % 2 == 0
        model = _model(rng, d, eta, density, tempered=i % 4 < 2, planted=None)
        path = b.file(model)
        zs = [complex(x, 0.0) for x in [0.2 + 1.8 * k / 9 for k in range(10)]]
        props = frozenset({"density" if density else "atom_only"})
        b.ops.append(Op("laplace", sim("laplace", path, "--z-grid", "0.2:2:10"), 0,
                     _check_laplace(model, zs), props))

    for i in range(12):
        d, density = 2 + i % 3, i % 2 == 1
        model = _model(rng, d, eta, density, tempered=i % 4 < 2, planted=None)
        path = b.file(model)
        ts = [0.1 * k for k in range(101)]
        picks = sorted(rng.sample(range(101), 3))
        props = frozenset({"density" if density else "atom_only"})
        b.ops.append(Op("correlate", sim("correlate", path, "--t-max", 10, "--dt", 0.1), 0,
                     _check_correlate(model, ts, picks), props))

    # gap verdicts with planted truth: every third model has a density reaching
    # delta from below, which breaks the gap (exit 1); the rest pass
    for i in range(14):
        d = 2 + i % 3
        model = _model(rng, d, eta, density=i % 2 == 0, tempered=False, planted=None)
        ok = i % 3 != 0
        if not ok:
            model["channels"][0]["measure"]["densities"].append({"a": _r(model["delta"] - 0.05), "b": model["delta"], "coeffs_re": [0.5]})
        path = b.file(model)
        props = frozenset({"density" if i % 2 == 0 else "atom_only"})
        b.ops.append(Op("gap-verdict", ["gap", "verdict", "--model", path], 0 if ok else 1,
                     _check_gap(ok), props))

    _malformed(
        b,
        lambda p: sim("poles", p, "--eta", eta),
        [("json", "[1, "), ("key", '{"d": 2}'), ("delta", '{"d": 2, "delta": 0.5, "channels": []}')],
    )


# ---------------------------------------------------------- arithmetic

# A scan with --workers 2 costs about four times one with --workers 1 on the
# same grid (GIL contention), so 20k-point serial scans and 5k-point parallel
# scans cost alike (0.2-0.55 s over d = 1..8).  That plateau holds p90.
SCAN_GRID = {1: 20000, 2: 5000}

# all 138 SO(d) types with entries of magnitude <= 3, d = 1..8
_SIGMAS = {d: orc.weights_up_to(d, 3) for d in range(1, 9)}


def _csv(entries) -> str:
    return ",".join(str(x) for x in entries)


def _contains_both(d: int, tau, sigma) -> bool:
    return orc.interlaces(d + 1, tau, sigma) and orc.interlaces(d + 1, tau, orc.dual_entries(d, sigma))


def _other_tau(rng: random.Random, d: int, sigma) -> tuple[int, ...]:
    """A K-type over SO(d+1) containing sigma and its dual, other than the witness."""
    w = orc.witness(d, sigma)
    cands = [t for t in orc.weights_up_to(d + 1, max(w, default=0) + 2)
             if t != w and _contains_both(d, t, sigma)]
    return rng.choice(cands)


def _scan_truth(d: int, tau, sigma, grid: int):
    """Expected exit code of a scan: 1 iff some grid point lies within the
    evaluator's documented 1e-9 of a net zero or pole."""
    sd = orc.dual_entries(d, sigma)
    lo, hi = d / 2, float(d)
    step = (hi - lo) / grid
    # singular points of the Gamma product are rational with denominator 2
    for k2 in range(int(2 * lo) - 1, int(2 * hi) + 2):
        s0 = Fraction(k2, 2)
        if not lo < s0 <= hi or orc.singular_order(d, tau, sd, s0) == 0:
            continue
        k = round((float(s0) - lo) / step)
        for kk in (k - 1, k, k + 1):
            if 1 <= kk <= grid and abs(lo + step * kk - float(s0)) <= 1e-9:
                return 1
    return 0


def _check_scan(d: int, tau, sigma, grid: int, rng: random.Random):
    sd = orc.dual_entries(d, sigma)
    picks = sorted(rng.sample(range(grid), 3))

    def check(out: str):
        rows = out.strip().splitlines()
        if rows[0] != "s,value,classification" or len(rows) != grid + 1:
            return "scan output shape"
        for k in picks:
            s, value, cls = rows[k + 1].split(",")
            if cls != "finite":
                continue
            ref = orc.cfunction_mp(d, tau, sd, float(s))
            if not _close(float(value), ref, 1e-9):
                return f"scan value at s={s}"
        return None

    return check


def _check_value(d: int, tau, sigma, s: float):
    ref = orc.cfunction_mp(d, tau, sigma, s)

    def check(out: str):
        text = out.strip()
        if text == "pole":
            return f"reported a pole where the value is {mpmath.nstr(ref, 6)}"
        if not _close(float(text), ref, 1e-9):
            return f"value {text} vs {mpmath.nstr(ref, 15)}"
        return None

    return check


def _check_expr(d: int, tau, sigma, s: float):
    ref = orc.cfunction_mp(d, tau, sigma, s)

    def check(out: str):
        doc = _json_out(out)
        if doc is None:
            return "unparsable output"
        got = orc.gamma_expr_mp(doc, s)
        return None if abs(got - ref) <= 1e-25 * max(1, abs(ref)) else "expression value"

    return check


def _check_json(expected):
    def check(out: str):
        doc = _json_out(out)
        if doc is None:
            return "unparsable output"
        got = {k: v for k, v in doc.items() if k in expected}
        return None if got == expected else f"{got} != {expected}"

    return check


def _near_singular(rng: random.Random, d: int, tau, sigma):
    """A point whose every singular Gamma argument (slope 1 or 2) lies within
    the evaluator's 1e-9 pole tolerance of a net pole or zero, or None."""
    spots = [Fraction(k, 2) for k in range(-4 * d, 4 * d)]
    spots = [s for s in spots if orc.singular_order(d, tau, sigma, s) != 0]
    if not spots:
        return None
    return float(rng.choice(spots)) + rng.choice((-1, 1)) * rng.uniform(1e-10, 4.5e-10)


def _arithmetic(b: PassWriter) -> None:
    rng = b.rng

    def sig(d):
        return rng.choice(_SIGMAS[d])

    # scans: every pass has the same (d, workers) table; sigma is drawn.  With
    # 20 scans in 100 ops, p90 lands mid-way through the scan plateau.
    for i in range(20):
        d = 1 + i % 8
        workers = 1 + i % 2
        grid = SCAN_GRID[workers]
        sigma = sig(d)
        if i in (3, 10, 17):
            tau = _other_tau(rng, d, sigma)
            cls = "scan-other"
        else:
            tau = orc.witness(d, sigma)
            cls = "scan-witness"
        expect = 0 if cls == "scan-witness" else _scan_truth(d, tau, sigma, grid)
        argv = ["--workers", str(workers), "cfun", "scan", "--d", str(d), "--sigma", _csv(sigma),
                "--tau", _csv(tau), "--grid", str(grid)]
        props = frozenset({"workers2"} if workers == 2 else set())
        b.ops.append(Op(cls, argv, expect, _check_scan(d, tau, sigma, grid, rng), props))

    for i in range(11):
        d = 1 + i % 8
        sigma = sig(d)
        tau = orc.witness(d, sigma) if i % 2 else _other_tau(rng, d, sigma)
        s = _r(rng.uniform(d / 2, d), 6) + 1e-7
        b.ops.append(Op("eval", ["cfun", "eval", "--d", str(d), "--sigma", _csv(sigma), "--tau", _csv(tau),
                     f"--s={s!r}"], 0, _check_value(d, tau, sigma, s)))

    # evals within 1e-9 of a pole or zero (seed defect: TOL_POLE classifies them)
    for i in range(2):
        while True:
            d = rng.randint(1, 8)
            sigma = sig(d)
            tau = orc.witness(d, sigma)
            s = _near_singular(rng, d, tau, sigma)
            if s is not None:
                break
        b.ops.append(Op("eval-near-singular", ["cfun", "eval", "--d", str(d), "--sigma", _csv(sigma),
                     "--tau", _csv(tau), f"--s={s!r}"], 0,
                     _check_value(d, tau, sigma, s)))

    for i in range(8):
        d = 1 + i
        sigma = sig(d)
        tau = orc.witness(d, sigma) if i % 2 else _other_tau(rng, d, sigma)
        b.ops.append(Op("expr", ["cfun", "expr", "--d", str(d), "--sigma", _csv(sigma), "--tau", _csv(tau)],
                     0, _check_expr(d, tau, sigma, d / 2 + 0.3)))

    for i in range(8):
        d = 1 + i % 6
        sigma = sig(d)
        w = orc.witness(d, sigma)
        lam = orc.minimality(d, w)

        def check(out, _w=list(w), _lam=str(lam)):
            doc = _json_out(out)
            if doc is None or not doc["report"]["is_minimal_over_bound"]:
                return "witness not minimal"
            if _w not in [m["entries"] for m in doc["minimizers"]] or doc["report"]["lambda"] != _lam:
                return "minimizers or lambda"
            return None

        b.ops.append(Op("ktype-minimal", ["ktype", "minimal", "--d", str(d), "--sigma", _csv(sigma)], 0, check))

    for i in range(5):
        d = 1 + rng.randrange(8)
        sigma = sig(d)
        b.ops.append(Op("ktype-witness", ["ktype", "witness", "--d", str(d), "--sigma", _csv(sigma)], 0,
                     _check_json({"n": d + 1, "entries": list(orc.witness(d, sigma))})))
    for i in range(5):
        d = 1 + rng.randrange(8)
        tau = rng.choice(orc.weights_up_to(d + 1, 3))
        b.ops.append(Op("ktype-lambda", ["ktype", "lambda", "--d", str(d), "--tau", _csv(tau)], 0,
                     _check_json({"lambda": str(orc.minimality(d, tau))})))

    for i in range(8):
        n = 3 + rng.randrange(6)
        e = list(rng.choice(_SIGMAS[n]))
        if i % 2:  # break the ordering rule: expects exit 1
            if n % 2:
                e[-1] = -1 - abs(e[-1])
            else:
                e[-1] = e[-2] + 1
        valid = orc.is_valid_weight(n, e)
        b.ops.append(Op("duals-validate", ["duals", "validate", "--n", str(n), "--entries", _csv(e)],
                     0 if valid else 1, _check_json({"valid": valid})))
    for i in range(5):
        n = 1 + rng.randrange(8)
        e = rng.choice(_SIGMAS[n])
        b.ops.append(Op("duals-dual", ["duals", "dual", "--n", str(n), "--entries", _csv(e)], 0,
                     _check_json({"n": n, "entries": list(orc.dual_entries(n, e))})))
    for i in range(6):
        n = 2 + rng.randrange(7)
        e = rng.choice(orc.weights_up_to(n, 3))
        want = [{"n": n - 1, "entries": list(s)} for s in orc.branching(n, e)]
        b.ops.append(Op("duals-branch", ["duals", "branch", "--n", str(n), "--entries", _csv(e)], 0,
                     _check_json({"branching": want})))
    for i in range(6):
        n = 2 + rng.randrange(7)
        e = rng.choice(orc.weights_up_to(n, 4))
        b.ops.append(Op("duals-dim", ["duals", "dim", "--n", str(n), "--entries", _csv(e)], 0,
                     _check_json({"dimension": orc.gt_dimension(n, tuple(e))})))
    for i in range(6):
        n = 1 + rng.randrange(7)
        e = rng.choice(_SIGMAS[n])
        bound = max((abs(x) for x in e), default=0) + rng.randrange(3)
        want = [{"n": n + 1, "entries": list(t)} for t in orc.weights_up_to(n + 1, max(bound, 1))
                if orc.interlaces(n + 1, t, e) and (t[0] if t else 0) <= bound
                and (n + 1 != 2 or abs(t[0]) <= bound)]
        b.ops.append(Op("duals-enum", ["duals", "enum", "--n", str(n), "--entries", _csv(e), "--bound", str(bound)],
                     0, _check_json({"ktypes": want})))

    for i in range(6):
        d = 1 + rng.randrange(8)
        kg = _r(rng.uniform(0.05, 2.0), 4)
        k0 = min(kg, 1.0)
        want = {"kappa0": float(f"{k0:.15g}"), "kappa1": float(f"{k0 / (2 * (d + 3 + k0)):.15g}")}
        b.ops.append(Op("gap-params", ["gap", "params", "--kappa-gamma", repr(kg), "--d", str(d)], 0,
                     _check_json(want)))

    usage = [
        ["cfun", "scan", "--d", "2", "--sigma", "0", "--grid", "0"],
        ["duals", "dim", "--n", "4", "--entries", "1,x"],
        ["ktype", "minimal", "--d", "3"],
        ["gap", "params", "--kappa-gamma", "0", "--d", "2"],
        ["duals", "enum", "--n", "3", "--entries", "2", "--bound", "1"],
        ["cfun", "eval", "--d", "2", "--sigma", "0", "--tau", "0"],
    ]
    for argv in rng.sample(usage, 4):
        b.ops.append(Op("usage-error", argv, 2, props=frozenset({"malformed"})))
