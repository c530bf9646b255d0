"""Harish-Chandra C-function scalars as exact Gamma-factor ratios, with a
log-domain evaluator that tracks signs and classifies poles and zeros.

The scalar attached to a K-type tau over SO(d+1) and an M-type sigma over
SO(d) is a ratio of products of Gamma(u*s + a) factors with a rational
prefactor and, for odd d, an extra 2**(-2s+d) * Gamma(2s).  All offsets are
integers or half-integers, so identical factors cancel exactly; evaluation of
the canceled form works through log-Gamma and never multiplies singular
values.

Classification at a point s: a surviving denominator factor whose argument
sits at a non-positive integer forces the whole ratio to zero, a numerator
factor there forces a pole, and equal counts resolve to the finite limit of
the ratio of leading Laurent coefficients.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

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
    s_ent = sigma.entries
    t_ent = tau.entries
    num: list[GammaFactor] = []
    den: list[GammaFactor] = []
    one = Fraction(1)
    if d % 2 == 0:
        pref = Fraction(math.factorial(d - 1), math.factorial(d // 2 - 1))
        two_power = (Fraction(0), Fraction(0))
        for j in range(1, d // 2 + 1):
            num.append((one, -half_d + j - s_ent[j - 1]))
            num.append((one, half_d - j + s_ent[j - 1]))
            den.append((one, -half_d + j - t_ent[j - 1]))
            den.append((one, half_d - j + 1 + t_ent[j - 1]))
    else:
        pref = Fraction(math.factorial((d - 1) // 2))
        two_power = (Fraction(-2), Fraction(d))
        num.append((Fraction(2), Fraction(0)))  # Gamma(2s), kept as written
        for j in range(1, (d - 1) // 2 + 1):
            num.append((one, -half_d + j - s_ent[j - 1]))
            num.append((one, half_d - j + s_ent[j - 1]))
        for j in range(1, (d + 1) // 2 + 1):
            den.append((one, -half_d + j - t_ent[j - 1]))
            den.append((one, half_d - j + 1 + t_ent[j - 1]))
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


def _singular_order(x: float, tol: float) -> int | None:
    """Index k >= 0 if x is within tol of the non-positive integer -k."""
    k = round(x)
    if k <= 0 and abs(x - k) <= tol:
        return -k
    return None


def _signed_loggamma(x: float) -> tuple[float, float]:
    """(log|Gamma(x)|, sign) for non-singular x."""
    if x > 0:
        return math.lgamma(x), 1.0
    sign = -1.0 if math.floor(x) % 2 else 1.0
    return math.lgamma(x), sign


def evaluate(expr: GammaRatioExpr, s: float) -> GammaValue:
    """Evaluate the ratio at real s with pole/zero classification.

    Singular Gamma arguments are never exponentiated.  With k hits in the
    numerator and l in the denominator, k > l is a pole, k < l a zero, and
    k == l the finite limit obtained from the leading Laurent coefficients
    (-1)^k / (k! * u) of each singular factor.
    """
    log_mag = math.log(float(expr.prefactor))
    alpha, beta = expr.two_power
    log_mag += (float(alpha) * s + float(beta)) * math.log(2.0)
    sign = 1.0
    net = 0
    for factors, side in ((expr.numerator, 1.0), (expr.denominator, -1.0)):
        for u, a in factors:
            x = float(u) * s + float(a)
            k = _singular_order(x, TOL_POLE)
            if k is None:
                lg, sg = _signed_loggamma(x)
                log_mag += side * lg
                sign *= sg
            else:
                net += int(side)
                # leading Laurent coefficient of Gamma at -k, up to the
                # simple factor 1/(u*(s - s0)) shared by paired hits
                log_mag += side * (-math.lgamma(k + 1) - math.log(float(u)))
                if k % 2:
                    sign = -sign
    if net > 0:
        return GammaValue(math.inf, "pole")
    if net < 0:
        return GammaValue(0.0, "zero")
    if abs(log_mag) > _LOG_LIMIT:
        raise EvaluationOverflowError(
            f"log magnitude {log_mag:.3g} exceeds double-precision range at s={s}"
        )
    return GammaValue(sign * math.exp(log_mag), "finite")


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

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma.to_json(),
            "sigma_dual": self.sigma_dual.to_json(),
            "tau": self.tau.to_json(),
            "min_abs": self.min_abs,
            "zero_count": self.zero_count,
            "pole_count": self.pole_count,
            "sign_changes": self.sign_changes,
            "passed": self.passed,
        }


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
    points = [float(s) for s in grid]
    values = [evaluate(expr, s) for s in points]
    rows = []
    last_sign = 0
    sign_changes = 0
    min_abs = math.inf
    zeros = poles = 0
    for s, gv in zip(points, values):
        rows.append((s, gv.value, gv.classification))
        if gv.classification == "zero":
            zeros += 1
        elif gv.classification == "pole":
            poles += 1
        else:
            min_abs = min(min_abs, abs(gv.value))
            this_sign = (gv.value > 0) - (gv.value < 0)
            if this_sign and last_sign and this_sign != last_sign:
                sign_changes += 1
            if this_sign:
                last_sign = this_sign
    passed = zeros == 0 and poles == 0 and min_abs > TOL_NONVANISH
    return ScanReport(
        sigma=sigma,
        sigma_dual=sigma_dual,
        tau=tau,
        rows=tuple(rows),
        min_abs=min_abs,
        zero_count=zeros,
        pole_count=poles,
        sign_changes=sign_changes,
        passed=passed,
    )
