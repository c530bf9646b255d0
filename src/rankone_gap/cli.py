"""Command-line interface: one binary exposing every module as subcommands.

Numeric output carries 15 significant digits; JSON documents are emitted in
compact form with a schema tag, and identical argv (plus seed) always yields
byte-identical output.  Exit codes: 0 success/PASS, 1 FAIL verdicts, 2 usage
or input errors (one ``error:`` line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import (
    GapParameters,
    HighestWeight,
    RealLineMeasure,
    SpectralModel,
    WeightError,
    branching_set,
    cfunction_expr,
    correlation,
    compare_numeric_closed,
    dimension,
    dual,
    enumerate_ktypes_containing,
    evaluate,
    halfopen_grid,
    invert_interval,
    laplace_numeric,
    minimal_ktypes,
    minimality_norm,
    nonvanishing_scan,
    pole_probe,
    rank_test,
    spectral_gap_verdict,
    transform,
    vanishing_detector,
    witness_ktype,
)
from .quadrature import QuadratureError
from .wire import as_list, as_object, as_objects, real

SCHEMA = "rankone-gap/1"


def fmt(x: float) -> str:
    return f"{float(x):.15g}"


def round15(obj):
    """Round floats to 15 significant digits, recursively, for JSON output."""
    if isinstance(obj, float):
        return float(fmt(obj))
    if isinstance(obj, dict):
        return {k: round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round15(v) for v in obj]
    return obj


def emit_json(doc, schema: bool = True) -> None:
    if schema and isinstance(doc, dict) and "schema" not in doc:
        doc = {"schema": SCHEMA, **doc}
    print(json.dumps(round15(doc), separators=(",", ":")))


def parse_entries(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(tok) for tok in text.split(","))


def parse_weight(n: int, entries: str) -> HighestWeight:
    return HighestWeight(n, parse_entries(entries))


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return as_object(json.load(fh), f"{path}: top level")


def parse_zgrid(spec: str):
    """'lo:hi:n' or 'lo:hi:n:im' -> complex grid along a horizontal line."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError("z-grid must be lo:hi:n or lo:hi:n:im")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    im = float(parts[3]) if len(parts) == 4 else 0.0
    return [complex(x, im) for x in np.linspace(lo, hi, n)]


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="rankone-gap")
    top.add_argument("--workers", type=int, default=None, help="accepted; has no effect")
    top.add_argument("--seed", type=int, default=0, help="accepted; has no effect")
    groups = top.add_subparsers(dest="group", required=True)

    duals = groups.add_parser("duals").add_subparsers(dest="cmd", required=True)
    for name in ("validate", "dual", "branch", "dim"):
        p = duals.add_parser(name)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--entries", default="")
    p = duals.add_parser("enum")
    p.add_argument("--n", type=int, required=True, help="group size of sigma")
    p.add_argument("--entries", default="")
    p.add_argument("--bound", type=int, required=True)

    ktype = groups.add_parser("ktype").add_subparsers(dest="cmd", required=True)
    p = ktype.add_parser("lambda")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--tau", required=True)
    p = ktype.add_parser("witness")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sigma", default="")
    p = ktype.add_parser("minimal")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sigma", default="")
    p.add_argument("--bound", type=int, default=None)

    cfun = groups.add_parser("cfun").add_subparsers(dest="cmd", required=True)
    for name in ("expr", "eval", "scan"):
        p = cfun.add_parser(name)
        p.add_argument("--d", type=int, required=True)
        p.add_argument("--sigma", default="")
        if name != "scan":
            p.add_argument("--tau", required=True)
        else:
            p.add_argument("--tau", default=None)
        if name == "eval":
            p.add_argument("--s", type=float, required=True)
        if name == "scan":
            p.add_argument("--grid", type=int, default=101)
            p.add_argument("--s-min", type=float, default=None)
            p.add_argument("--s-max", type=float, default=None)

    gap = groups.add_parser("gap").add_subparsers(dest="cmd", required=True)
    p = gap.add_parser("params")
    p.add_argument("--kappa-gamma", type=float, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--delta", type=float, default=None)
    p = gap.add_parser("verdict")
    p.add_argument("--model", required=True)

    st = groups.add_parser("stieltjes").add_subparsers(dest="cmd", required=True)
    p = st.add_parser("transform")
    p.add_argument("--model", required=True)
    p.add_argument("--z-re", type=float, required=True)
    p.add_argument("--z-im", type=float, required=True)
    for name in ("invert", "detect"):
        p = st.add_parser(name)
        p.add_argument("--model", required=True)
        p.add_argument("--a", type=float, required=True)
        p.add_argument("--b", type=float, required=True)
        if name == "invert":
            p.add_argument("--y0", type=float, default=0.5)
            p.add_argument("--k-max", type=int, default=12)

    sim = groups.add_parser("sim").add_subparsers(dest="cmd", required=True)
    p = sim.add_parser("correlate")
    p.add_argument("--model", required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--out", choices=["csv"], default="csv")
    p = sim.add_parser("laplace")
    p.add_argument("--model", required=True)
    p.add_argument("--z-grid", required=True)
    p.add_argument("--t-max", type=float, default=80.0)
    p = sim.add_parser("compare")
    p.add_argument("--model", required=True)
    p.add_argument("--closed-model", default=None)
    p.add_argument("--z-grid", default="0.2:2:10")
    p.add_argument("--t-max", type=float, default=80.0)
    p = sim.add_parser("poles")
    p.add_argument("--model", required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--x-step", type=float, default=1e-3)
    p = sim.add_parser("rank")
    p.add_argument("--q", required=True)
    return top


def _load_model(path: str) -> SpectralModel:
    return SpectralModel.from_json(load_json(path))


def _load_measure(path: str) -> RealLineMeasure:
    return RealLineMeasure.from_json(load_json(path))


def _cmd_duals(args) -> int:
    if args.cmd == "validate":
        try:
            w = parse_weight(args.n, args.entries)
        except WeightError as err:
            emit_json({"valid": False, "error_code": err.code, "error": str(err)})
            return 1
        emit_json({"valid": True, "weight": w.to_json()})
        return 0
    w = parse_weight(args.n, args.entries)
    if args.cmd == "dual":
        print(json.dumps(dual(w).to_json(), separators=(",", ":")))
        return 0
    if args.cmd == "branch":
        emit_json({"weight": w.to_json(), "branching": [x.to_json() for x in branching_set(w)]})
        return 0
    if args.cmd == "dim":
        emit_json({"weight": w.to_json(), "dimension": dimension(w)})
        return 0
    taus = enumerate_ktypes_containing(w, args.bound)
    emit_json({"sigma": w.to_json(), "bound": args.bound, "ktypes": [x.to_json() for x in taus]})
    return 0


def _cmd_ktype(args) -> int:
    if args.cmd == "lambda":
        tau = parse_weight(args.d + 1, args.tau)
        lam = minimality_norm(tau, args.d)
        emit_json({"tau": tau.to_json(), "lambda": str(lam), "lambda_float": float(lam)})
        return 0
    sigma = parse_weight(args.d, args.sigma)
    if args.cmd == "witness":
        print(json.dumps(witness_ktype(sigma, args.d).to_json(), separators=(",", ":")))
        return 0
    minimizers, report = minimal_ktypes(sigma, args.d, args.bound)
    emit_json(
        {
            "minimizers": [w.to_json() for w in minimizers],
            "report": report.to_json(),
        }
    )
    return 0 if report.is_minimal_over_bound else 1


def _cmd_cfun(args) -> int:
    sigma = parse_weight(args.d, args.sigma)
    if args.cmd == "expr":
        tau = parse_weight(args.d + 1, args.tau)
        expr = cfunction_expr(tau, sigma, args.d)
        emit_json(
            {
                "prefactor": str(expr.prefactor),
                "two_power": {"alpha": str(expr.two_power[0]), "beta": str(expr.two_power[1])},
                "numerator": [{"u": str(u), "a": str(a)} for u, a in expr.numerator],
                "denominator": [{"u": str(u), "a": str(a)} for u, a in expr.denominator],
                "display": expr.display(),
            }
        )
        return 0
    if args.cmd == "eval":
        tau = parse_weight(args.d + 1, args.tau)
        gv = evaluate(cfunction_expr(tau, sigma, args.d), args.s)
        if gv.classification == "pole":
            print("pole")
            return 1
        print(fmt(gv.value))
        return 0
    lo = args.s_min if args.s_min is not None else args.d / 2
    hi = args.s_max if args.s_max is not None else float(args.d)
    grid = halfopen_grid(lo, hi, args.grid)
    tau = parse_weight(args.d + 1, args.tau) if args.tau is not None else None
    report = nonvanishing_scan(sigma, args.d, grid, tau=tau)
    print("s,value,classification")
    for s, value, cls in report.rows:
        print(f"{fmt(s)},{fmt(value)},{cls}")
    return 0 if report.passed else 1


def _cmd_gap(args) -> int:
    if args.cmd == "params":
        params = GapParameters.from_gap(args.kappa_gamma, args.d, args.delta)
        emit_json(params.to_json())
        return 0
    model = _load_model(args.model)
    spectrum = [(ch.sigma, ch.measure) for ch in model.channels]
    report = spectral_gap_verdict(spectrum, model.delta, model.d)
    emit_json(report.to_json())
    return 0 if report.verdict else 1


def _cmd_stieltjes(args) -> int:
    nu = _load_measure(args.model)
    if args.cmd == "transform":
        value = transform(nu, complex(args.z_re, args.z_im))
        emit_json({"re": value.real, "im": value.imag})
        return 0
    re_part, im_part = nu.real_part(), nu.imag_part()
    F_re = lambda z: transform(re_part, z)  # noqa: E731
    F_im = lambda z: transform(im_part, z)  # noqa: E731
    if args.cmd == "invert":
        inv_re = invert_interval(F_re, args.a, args.b, y0=args.y0, k_max=args.k_max)
        inv_im = invert_interval(F_im, args.a, args.b, y0=args.y0, k_max=args.k_max)
        emit_json(
            {
                "mass_re": inv_re.value,
                "mass_im": inv_im.value,
                "error_re": inv_re.error_estimate,
                "error_im": inv_im.error_estimate,
                "converged": inv_re.converged and inv_im.converged,
            }
        )
        return 0
    report = vanishing_detector(F_re, F_im, args.a, args.b)
    emit_json(report.to_json())
    return 0 if report.verdict != "inconclusive" else 1


def _cmd_sim(args) -> int:
    if args.cmd == "rank":
        rows = as_list(load_json(args.q)["rows"], "rows")
        q = [[complex(real(c["re"]), real(c["im"])) for c in as_objects(r, "row")] for r in rows]
        print(rank_test(np.array(q)))
        return 0
    model = _load_model(args.model)
    if args.cmd == "correlate":
        if not args.dt > 0:
            raise ValueError("--dt must be positive")
        if not args.t_max >= 0:
            raise ValueError("--t-max must be non-negative")
        ts = np.arange(0.0, args.t_max + args.dt / 2, args.dt)
        values = correlation(model, ts)
        print("t,re,im")
        for t, v in zip(ts, np.atleast_1d(values)):
            print(f"{fmt(t)},{fmt(v.real)},{fmt(v.imag)}")
        return 0
    if args.cmd == "laplace":
        zs = parse_zgrid(args.z_grid)
        res = laplace_numeric(model, np.array(zs), t_max=args.t_max)
        print("z_re,z_im,re,im,truncation_bound")
        for z, v, bnd in zip(zs, np.atleast_1d(res.value), np.atleast_1d(res.truncation_bound)):
            print(f"{fmt(z.real)},{fmt(z.imag)},{fmt(v.real)},{fmt(v.imag)},{fmt(bnd)}")
        return 0
    if args.cmd == "compare":
        closed = _load_model(args.closed_model) if args.closed_model else None
        report = compare_numeric_closed(
            model, parse_zgrid(args.z_grid), closed_model=closed, t_max=args.t_max
        )
        emit_json({"max_error": report.max_error, "passed": report.passed})
        return 0 if report.passed else 1
    report = pole_probe(model, args.eta, x_step=args.x_step)
    emit_json(report.to_json())
    return 0 if report.passed else 1


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.group == "duals":
            return _cmd_duals(args)
        if args.group == "ktype":
            return _cmd_ktype(args)
        if args.group == "cfun":
            return _cmd_cfun(args)
        if args.group == "gap":
            return _cmd_gap(args)
        if args.group == "stieltjes":
            return _cmd_stieltjes(args)
        if args.group == "sim":
            return _cmd_sim(args)
    except (ValueError, OSError, KeyError, ArithmeticError, QuadratureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
