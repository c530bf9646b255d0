"""Harish-Chandra C-function scalars as exact Gamma-factor ratios, with a
log-domain evaluator that tracks signs and classifies poles and zeros.

The scalar attached to a K-type tau over SO(d+1) and an M-type sigma over
SO(d) is a ratio of products of Gamma(u*s + a) factors with a rational
prefactor and, for odd d, an extra 2**(-2s+d) * Gamma(2s).  All offsets are
integers or half-integers, so identical factors cancel exactly; evaluation of
the canceled form works through log-Gamma and never multiplies singular
values.

Classification at a point s: every singular point of a factor Gamma(u*s + a)
is a half-integer s0, and the factor is a singular hit when u*s0 + a is a
non-positive integer and |s - s0| <= ``TOL_POLE`` (distance in s, whatever
the slope u).  More hits in the numerator than in the denominator make a
pole, fewer make a zero, and equal counts give the value at s from the exact
remainders of the hit factors.  One array evaluator serves single points and
whole scan grids.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .weights import HighestWeight, branches_to, dimension, dual
from .ktypes import witness_ktype

TOL_POLE = 1e-9
TOL_NONVANISH = 1e-12

# exp() overflows just above this; larger log magnitudes are reported as
# errors rather than silently returned as inf/0.
_LOG_LIMIT = 700.0


class EvaluationOverflowError(ArithmeticError):
    """The result's magnitude is outside double-precision range."""


GammaFactor = tuple[Fraction, Fraction]  # Gamma(u*s + a) as (u, a)
_CLASSES = np.array(["zero", "finite", "pole"])  # indexed by sign(net hits) + 1


@dataclass(frozen=True)
class GammaRatioExpr:
    """rational_prefactor * 2**(alpha*s + beta) * prod Gamma(u*s+a) / prod Gamma(u*s+a)."""

    prefactor: Fraction
    two_power: tuple[Fraction, Fraction]  # (alpha, beta)
    numerator: tuple[GammaFactor, ...]
    denominator: tuple[GammaFactor, ...]

    def normalized(self) -> "GammaRatioExpr":
        """Cancel factors appearing in both numerator and denominator."""
        num = Counter(self.numerator)
        den = Counter(self.denominator)
        common = num & den
        num -= common
        den -= common
        return GammaRatioExpr(
            prefactor=self.prefactor,
            two_power=self.two_power,
            numerator=tuple(sorted(num.elements())),
            denominator=tuple(sorted(den.elements())),
        )

    def display(self) -> str:
        def gam(factors):
            if not factors:
                return "1"
            parts = []
            for (u, a), mult in sorted(Counter(factors).items()):
                su = "s" if u == 1 else f"{u}*s"
                if a > 0:
                    arg = f"{su} + {a}"
                elif a < 0:
                    arg = f"{su} - {-a}"
                else:
                    arg = su
                term = f"Gamma({arg})"
                parts.append(term if mult == 1 else f"{term}^{mult}")
            return " ".join(parts)

        alpha, beta = self.two_power
        pieces = [f"({self.prefactor})"]
        if alpha != 0 or beta != 0:
            pieces.append(f"2^({alpha}*s + {beta})".replace("+ -", "- "))
        pieces.append(gam(self.numerator))
        return " * ".join(pieces) + " / [" + gam(self.denominator) + "]"


def cfunction_expr(
    tau: HighestWeight, sigma: HighestWeight, d: int, normalize: bool = True
) -> GammaRatioExpr:
    """Exact Gamma-ratio for the C-function scalar on the sigma-isotypic part
    of the K-type tau, for SO(d+1) over SO(d).

    Even d uses prefactor (d-1)!/(d/2-1)! and d/2 factor pairs top and
    bottom; odd d uses ((d-1)/2)! * 2**(-2s+d) * Gamma(2s) with (d-1)/2 pairs
    in the numerator and (d+1)/2 in the denominator.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if sigma.n != d or tau.n != d + 1:
        raise ValueError(
            f"expected SO({d}) and SO({d + 1}) weights, got SO({sigma.n}), SO({tau.n})"
        )
    if not branches_to(tau, sigma):
        raise ValueError(f"{sigma} is not contained in {tau}")
    half_d = Fraction(d, 2)
    one = Fraction(1)
    num: list[GammaFactor] = []
    den: list[GammaFactor] = []
    for j, e in enumerate(sigma.entries, 1):
        num += [(one, -half_d + j - e), (one, half_d - j + e)]
    for j, e in enumerate(tau.entries, 1):
        den += [(one, -half_d + j - e), (one, half_d - j + 1 + e)]
    if d % 2 == 0:
        pref = Fraction(math.factorial(d - 1), math.factorial(d // 2 - 1))
        two_power = (Fraction(0), Fraction(0))
    else:
        pref = Fraction(math.factorial((d - 1) // 2))
        two_power = (Fraction(-2), Fraction(d))
        num.append((Fraction(2), Fraction(0)))  # Gamma(2s), kept as written
    expr = GammaRatioExpr(
        prefactor=pref,
        two_power=two_power,
        numerator=tuple(sorted(num)),
        denominator=tuple(sorted(den)),
    )
    return expr.normalized() if normalize else expr


@dataclass(frozen=True)
class GammaValue:
    value: float
    classification: str  # 'finite' | 'zero' | 'pole'


def _evaluate_grid(expr: GammaRatioExpr, s) -> tuple[np.ndarray, np.ndarray]:
    """Values and classifications ('finite' | 'zero' | 'pole') at every point
    of the 1-D array s.

    Singular Gamma arguments are never exponentiated.  At a hit x = -k + eps,
    eps * Gamma(x) = (-1)^k (pi eps / sin(pi eps)) / Gamma(1 - x), and the
    sine factor is 1 in double precision for |eps| <= 2 TOL_POLE.  Every hit
    at s sits on the same half-integer s0, so with equal counts the leftover
    1 / (u * (s - s0)) factors cancel down to the slopes u.  Log terms are
    added in the order the factors are written and exponentiated point by
    point with math.exp; np.exp differs from it in the last bit on some
    inputs, which moves printed digits.  An argument that overflows (|s| near
    1e308) raises FloatingPointError, an ArithmeticError.
    """
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError(f"s must be finite, got {s[~np.isfinite(s)][0]}")
    alpha, beta = expr.two_power
    n = s.size
    net = np.zeros(s.shape, dtype=int)
    sign = np.ones_like(s)
    with np.errstate(over="raise", invalid="raise"):
        # every singular point is a half-integer s0: a hit is |s - s0| <= TOL_POLE
        # (s0 = round(2 s) / 2 without forming 2 s, which overflows near 1e308)
        whole = np.floor(s)
        s0 = whole + np.round(2 * (s - whole)) / 2
        near = np.abs(s - s0) <= TOL_POLE
        two_power = (float(alpha) * s + float(beta)) * math.log(2.0)
        log_mag = math.log(float(expr.prefactor)) + two_power
        for factors, side in ((expr.numerator, 1), (expr.denominator, -1)):
            for u, a in factors:
                x = float(u) * s + float(a)
                k = float(u) * s0 + float(a)  # exact: u in {1, 2}, a a half-integer
                hit = near & (k <= 0) & (k == np.floor(k))
                lg = np.fromiter(map(math.lgamma, np.where(hit, 1.0 - x, x).tolist()), float, n)
                log_mag += side * np.where(hit, -lg - math.log(float(u)), lg)
                net += side * hit
                odd = np.where(hit, k, np.floor(x)) % 2 == 1
                # Gamma < 0 on (-2j-1, -2j); eps * Gamma(x) has the sign (-1)^k
                sign = np.where((x < 0) & odd, -sign, sign)
    finite = net == 0
    over = finite & (np.abs(log_mag) > _LOG_LIMIT)
    if over.any():
        i = int(np.argmax(over))
        raise EvaluationOverflowError(
            f"log magnitude {log_mag[i]:.3g} exceeds double-precision range at s={float(s[i])}"
        )
    values = np.where(net > 0, math.inf, 0.0)
    values[finite] = sign[finite] * np.fromiter(map(math.exp, log_mag[finite].tolist()), float)
    return values, _CLASSES[np.sign(net) + 1]


def evaluate(expr: GammaRatioExpr, s: float) -> GammaValue:
    """Evaluate the ratio at real s with pole/zero classification."""
    values, classes = _evaluate_grid(expr, [s])
    return GammaValue(float(values[0]), str(classes[0]))


def main_term_scalar(
    tau: HighestWeight, sigma: HighestWeight, s: float, d: int
) -> float:
    """dim(tau)/dim(sigma) times the C-function scalar, for s > d/2."""
    if not s > d / 2:
        raise ValueError(f"s must exceed d/2 = {d / 2}, got {s}")
    expr = cfunction_expr(tau, sigma, d)
    gv = evaluate(expr, s)
    if gv.classification == "pole":
        raise ArithmeticError(f"C-function scalar has a pole at s={s}")
    ratio = Fraction(dimension(tau), dimension(sigma))
    return float(ratio) * gv.value


def halfopen_grid(lo: float, hi: float, n: int) -> list[float]:
    """n uniform points in the half-open interval (lo, hi]."""
    if n < 1 or not hi > lo:
        raise ValueError("need n >= 1 and hi > lo")
    step = (hi - lo) / n
    return [lo + step * k for k in range(1, n + 1)]


@dataclass(frozen=True)
class ScanReport:
    sigma: HighestWeight
    sigma_dual: HighestWeight
    tau: HighestWeight
    rows: tuple[tuple[float, float, str], ...]  # (s, value, classification)
    min_abs: float
    zero_count: int
    pole_count: int
    sign_changes: int
    passed: bool


def nonvanishing_scan(
    sigma: HighestWeight,
    d: int,
    grid,
    tau: HighestWeight | None = None,
) -> ScanReport:
    """Evaluate the C-function scalar of (tau, dual(sigma)) over a grid of s.

    With the default witness tau the scan is expected to pass: no zero or
    pole classifications and min |value| above ``TOL_NONVANISH``.  Sign
    changes are recorded but are never a failure.
    """
    if tau is None:
        tau = witness_ktype(sigma, d)
    sigma_dual = dual(sigma)
    expr = cfunction_expr(tau, sigma_dual, d)
    points = np.fromiter(map(float, grid), float)
    values, classes = _evaluate_grid(expr, points)
    finite = values[classes == "finite"]
    signs = np.sign(finite[finite != 0])
    min_abs = float(np.abs(finite).min()) if finite.size else math.inf
    zeros = int(np.count_nonzero(classes == "zero"))
    poles = int(np.count_nonzero(classes == "pole"))
    return ScanReport(
        sigma=sigma,
        sigma_dual=sigma_dual,
        tau=tau,
        rows=tuple(zip(points.tolist(), values.tolist(), classes.tolist())),
        min_abs=min_abs,
        zero_count=zeros,
        pole_count=poles,
        sign_changes=int(np.count_nonzero(signs[1:] != signs[:-1])),
        passed=zeros == 0 and poles == 0 and min_abs > TOL_NONVANISH,
    )
