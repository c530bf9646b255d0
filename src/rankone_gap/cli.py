"""Command-line interface: one binary exposing every module as subcommands.

Every subcommand is declared once, in ``COMMANDS`` (group -> subcommand ->
options); ``run`` builds the options of the named group only and dispatches
through ``HANDLERS``.  Float options and the parts of ``--z-grid`` must be
finite.  Numeric output carries 15 significant digits; JSON documents are
emitted in compact form with a schema tag, CSV tables in one write, and
identical argv (plus seed) always yields byte-identical output.  Exit
codes: 0 success/PASS, 1 FAIL verdicts, 2 usage or input errors (one
``error:`` line on stderr, no traceback).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
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


def emit_csv(header: str, rows: list | tuple) -> None:
    """Write a CSV table with one write: floats as ``%.15g`` (the digits of
    ``fmt``), strings as they are."""
    line = ",".join("%s" if isinstance(x, str) else "%.15g" for x in rows[0]) if rows else ""
    cells = tuple(itertools.chain.from_iterable(rows))
    sys.stdout.write(f"{header}\n" + (f"{line}\n" * len(rows)) % cells)


def emit_json(doc: dict) -> None:
    print(json.dumps(round15({"schema": SCHEMA, **doc}), separators=(",", ":")))


def parse_weight(n: int, entries: str) -> HighestWeight:
    text = entries.strip()
    return HighestWeight(n, tuple(int(tok) for tok in text.split(",")) if text else ())


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return as_object(json.load(fh), f"{path}: top level")


def finite(text: str) -> float:
    """argparse type of every float option: neither nan nor +-inf.  Not a
    ValueError, which argparse would print as usage: ``run`` prints one line."""
    value = float(text)
    if not math.isfinite(value):
        raise FloatingPointError(f"{text!r} is not a finite number")
    return value


finite.__name__ = "float"  # argparse names it in "invalid float value: 'x'"


def parse_zgrid(spec: str):
    """'lo:hi:n' or 'lo:hi:n:im' -> complex grid along a horizontal line."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ValueError("z-grid must be lo:hi:n or lo:hi:n:im")
    lo, hi, n = finite(parts[0]), finite(parts[1]), int(parts[2])
    if n < 1:
        raise ValueError(f"z-grid {spec!r} needs at least one point")
    im = finite(parts[3]) if len(parts) == 4 else 0.0
    return [complex(x, im) for x in np.linspace(lo, hi, n)]


REQ = {"required": True}
INT = {"type": int, "required": True}
FLOAT = {"type": finite, "required": True}
ENTRIES = ("--entries", {"default": ""})
D_SIGMA = [("--d", INT), ("--sigma", {"default": ""})]
MODEL = ("--model", REQ)
INTERVAL = [MODEL, ("--a", FLOAT), ("--b", FLOAT)]
T_MAX = ("--t-max", {"type": finite, "default": 80.0})

# group -> subcommand -> [(flag, add_argument kwargs)], in help order
COMMANDS = {
    "duals": {
        **dict.fromkeys(("validate", "dual", "branch", "dim"), [("--n", INT), ENTRIES]),
        "enum": [("--n", {**INT, "help": "group size of sigma"}), ENTRIES, ("--bound", INT)],
    },
    "ktype": {
        "lambda": [("--d", INT), ("--tau", REQ)],
        "witness": D_SIGMA,
        "minimal": [*D_SIGMA, ("--bound", {"type": int})],
    },
    "cfun": {
        "expr": [*D_SIGMA, ("--tau", REQ)],
        "eval": [*D_SIGMA, ("--tau", REQ), ("--s", FLOAT)],
        "scan": [*D_SIGMA, ("--tau", {}), ("--grid", {"type": int, "default": 101}),
                 ("--s-min", {"type": finite}), ("--s-max", {"type": finite})],
    },
    "gap": {
        "params": [("--kappa-gamma", FLOAT), ("--d", INT), ("--delta", {"type": finite})],
        "verdict": [MODEL],
    },
    "stieltjes": {
        "transform": [MODEL, ("--z-re", FLOAT), ("--z-im", FLOAT)],
        "invert": [*INTERVAL, ("--y0", {"type": finite, "default": 0.5}),
                   ("--k-max", {"type": int, "default": 12})],
        "detect": INTERVAL,
    },
    "sim": {
        "correlate": [MODEL, ("--t-max", FLOAT), ("--dt", FLOAT),
                      ("--out", {"choices": ["csv"], "default": "csv"})],
        "laplace": [MODEL, ("--z-grid", REQ), T_MAX],
        "compare": [MODEL, ("--closed-model", {}), ("--z-grid", {"default": "0.2:2:10"}), T_MAX],
        "poles": [MODEL, ("--eta", FLOAT), ("--x-step", {"type": finite, "default": 1e-3})],
        "rank": [("--q", REQ)],
    },
}


def build_parser(group: str | None) -> argparse.ArgumentParser:
    """The top-level parser with subcommands for ``group`` only; every other
    group is a bare name, which is all that top-level usage and errors show."""
    top = argparse.ArgumentParser(prog="rankone-gap")
    top.add_argument("--workers", type=int, help="accepted; has no effect")
    top.add_argument("--seed", type=int, default=0, help="accepted; has no effect")
    groups = top.add_subparsers(dest="group", required=True)
    for name, commands in COMMANDS.items():
        if name != group:
            groups.add_parser(name, add_help=False)
            continue
        subs = groups.add_parser(name).add_subparsers(dest="cmd", required=True)
        for cmd, options in commands.items():
            p = subs.add_parser(cmd)
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
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
    emit_csv("s,value,classification", report.rows)
    return 0 if report.passed else 1


def _cmd_gap(args) -> int:
    if args.cmd == "params":
        params = GapParameters.from_gap(args.kappa_gamma, args.d, args.delta)
        emit_json(params.to_json())
        return 0
    report = spectral_gap_verdict(_load_model(args.model))
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
        emit_csv("t,re,im", list(zip(ts.tolist(), values.real.tolist(), values.imag.tolist())))
        return 0
    if args.cmd == "laplace":
        zs = parse_zgrid(args.z_grid)
        res = laplace_numeric(model, np.array(zs), t_max=args.t_max)
        emit_csv("z_re,z_im,re,im,truncation_bound",
                 [(z.real, z.imag, v.real, v.imag, b)
                  for z, v, b in zip(zs, res.value, res.truncation_bound)])
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


HANDLERS = {"duals": _cmd_duals, "ktype": _cmd_ktype, "cfun": _cmd_cfun, "gap": _cmd_gap,
            "stieltjes": _cmd_stieltjes, "sim": _cmd_sim}


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # argparse picks the group from the first positional; any group name
    # before it is an int option's value and stops parsing with an error
    group = next((token for token in argv if token in COMMANDS), None)
    try:
        args = build_parser(group).parse_args(argv)
        # a numpy overflow or invalid value is an input error, not a warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return HANDLERS[args.group](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, OSError, KeyError, ArithmeticError, MemoryError, QuadratureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
