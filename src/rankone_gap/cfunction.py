"""Harish-Chandra C-function scalars as exact Gamma-factor ratios, with an
evaluator that reduces them to a constant times a rational function of s and
classifies poles and zeros.

The scalar attached to a K-type tau over SO(d+1) and an M-type sigma over
SO(d) is a ratio of products of Gamma(u*s + a) factors with a rational
prefactor and, for odd d, an extra 2**(-2s+d) * Gamma(2s).  All offsets are
integers or half-integers, so identical factors cancel exactly.  For
evaluation, Legendre duplication splits Gamma(2s) into
2**(2s-1) / sqrt(pi) * Gamma(s) Gamma(s + 1/2), and numerator and denominator
factors whose offsets differ by an integer pair up: Gamma(s+a)/Gamma(s+b) is
(s+b)(s+b+1)...(s+a-1) for a > b and the reciprocal of such a product for
a < b.  Every even-d scalar is then a constant times a rational function.
An odd-d scalar keeps one Gamma(s) / Gamma(s + m + 1/2): m more linear
factors and Gamma(s) / Gamma(s + 1/2), which one array kernel evaluates
without log-Gamma, so its value holds at any s.  Only a pair that would take
the linear factors past ``_LINEAR_CAP`` stays on ``math.lgamma``.

Classification at a point s: every singular point of a linear factor
(s + j) and of a Gamma(u*s + a) factor is a half-integer s0, and the factor
is a singular hit when |s - s0| <= ``TOL_POLE`` (distance in s, whatever the
slope u).  A linear factor hit is a zero of its side and a Gamma factor hit
a pole; more poles than zeros make a pole, fewer make a zero, and equal
counts give the value at s with the (s - s0) of every hit dropped.  One
array evaluator serves single points and whole scan grids.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .weights import HighestWeight, branches_to, dimension, dual
from .ktypes import witness_ktype

TOL_POLE = 1e-9
TOL_NONVANISH = 1e-12

# exp() overflows just above this; larger log magnitudes are reported as
# errors rather than silently returned as inf/0.
_LOG_LIMIT = 700.0
_LN2 = math.log(2.0)
# At most this many linear factors: a Gamma pair that would go beyond it
# stays on log-Gamma, so the size of a weight's entries does not set the cost,
# and a product of frexp mantissas stays within [2**-64, 2**64].
_LINEAR_CAP = 64
# Gamma(y) / Gamma(y + 1/2) = exp(sum_k _HALF_SERIES[k] y**-(2k+1)) / sqrt(y)
# for y >= _SHIFT: the coefficients are (B_n(0) - B_n(1/2)) / (n (n - 1)),
# n = 2k + 2, Bernoulli polynomials; the next term is below 2e-17 at y = 8.
_SHIFT = 8.0
_CLAMP = 2.0**60
_HALF_SERIES = (
    1 / 8, -1 / 192, 1 / 640, -17 / 14336, 31 / 18432, -691 / 180224,
    5461 / 425984, -929569 / 15728640, 3202291 / 8912896,
)


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

    @cached_property
    def reduced(self) -> "ReducedRatio":
        """The same ratio with Gamma(2s + a) duplicated and the factors paired
        into linear factors and Gamma(s + a) / Gamma(s + a + 1/2) ratios;
        computed once per expression."""
        alpha, beta = self.two_power
        constant = float(self.prefactor)
        twice: dict[int, list[int]] = {1: [], -1: []}  # side -> 2a of each Gamma(s + a)
        for factors, side in ((self.numerator, 1), (self.denominator, -1)):
            for u, a in factors:
                if u == 1 and a.denominator in (1, 2):
                    twice[side].append(2 * a.numerator // a.denominator)
                elif u == 2 and a.denominator == 1:
                    # Gamma(2z) = 2**(2z-1) / sqrt(pi) * Gamma(z) Gamma(z + 1/2), z = s + a/2
                    alpha += 2 * side
                    beta += (a - 1) * side
                    constant *= math.sqrt(math.pi) ** -side
                    twice[side] += [a.numerator, a.numerator + 1]
                else:
                    raise ValueError(f"Gamma({u}*s + {a}) has singular points off the half-integers")
        linear: dict[int, list[float]] = {1: [], -1: []}
        gammas: dict[int, list[int]] = {1: [], -1: []}

        def pair(a2: int, b2: int) -> None:
            """Gamma(s + a2/2) / Gamma(s + b2/2) with a2 - b2 even."""
            count = abs(a2 - b2) // 2
            if len(linear[1]) + len(linear[-1]) + count > _LINEAR_CAP:
                gammas[1].append(a2)
                gammas[-1].append(b2)
            else:  # Gamma(s+a)/Gamma(s+b) = (s+b)(s+b+1)...(s+a-1) for a > b
                linear[1 if a2 > b2 else -1] += [min(a2, b2) / 2 + i for i in range(count)]

        lone: dict[int, list[int]] = {1: [], -1: []}
        for parity in (0, 1):  # offsets that differ by an integer
            top = sorted(c for c in twice[1] if c % 2 == parity)
            bottom = sorted(c for c in twice[-1] if c % 2 == parity)
            for a2, b2 in zip(top, bottom):  # twice the offsets a, b of a pair
                pair(a2, b2)
            lone[1] += top[len(bottom):]
            lone[-1] += bottom[len(top):]
        top, bottom = sorted(lone[1]), sorted(lone[-1])
        # what is left pairs offsets a, b a half-integer apart:
        # Gamma(s+a)/Gamma(s+b) = Gamma(s+a)/Gamma(s+a+1/2) * Gamma(s+a+1/2)/Gamma(s+b)
        halves = []
        for a2, b2 in zip(top, bottom):
            halves.append(a2 / 2)
            pair(a2 + 1, b2)
        gammas[1] += top[len(bottom):]
        gammas[-1] += bottom[len(top):]
        for j in (Counter(linear[1]) & Counter(linear[-1])).elements():  # (s + j) on both sides
            linear[1].remove(j)
            linear[-1].remove(j)
        whole = math.floor(beta)
        mantissa, exponent = math.frexp(constant)
        return ReducedRatio(
            mantissa=mantissa,
            exponent=exponent + whole,
            log_two=(float(alpha), float(beta - whole)),
            linear=np.array(linear[1] + linear[-1]),
            top=len(linear[1]),
            gamma_offsets=np.array(sorted(gammas[1]) + sorted(gammas[-1])) / 2,
            gamma_sides=np.array([1] * len(gammas[1]) + [-1] * len(gammas[-1]), dtype=int),
            halves=tuple(halves),
        )


@dataclass(frozen=True, eq=False)
class ReducedRatio:
    """mantissa * 2**(exponent + alpha*s + beta) * prod (s + j)**(+-1) *
    prod Gamma(s + a) / Gamma(s + a + 1/2) * prod Gamma(s + a)**side, with
    log_two = (alpha, beta): the evaluable form of a ``GammaRatioExpr``.  The
    linear factors (s + j) come from Gamma pairs whose offsets differ by an
    integer, the first ``top`` of them from the numerator; a factor on both
    sides cancels.  ``halves`` holds the a of each Gamma pair whose offsets
    differ by a half-integer, what is left of it after the linear factors.
    The Gamma factors are the unpaired ones, and the pairs that
    ``_LINEAR_CAP`` keeps on log-Gamma, numerator first."""

    mantissa: float
    exponent: int
    log_two: tuple[float, float]
    linear: np.ndarray
    top: int
    gamma_offsets: np.ndarray
    gamma_sides: np.ndarray
    halves: tuple[float, ...]


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


def _poles(s0, half, near, offsets):
    """Where Gamma(s + a) is singular at a hit, for an offset a or a column of
    them: s0 + a is a non-positive integer.  Decided without forming s0 + a,
    which rounds for |s0| >= 2**52: s0 <= -a compares doubles exactly, and
    s0 + a is an integer when s0 and a are both integers or both odd
    multiples of 1/2 (``half`` marks the latter s0)."""
    return near & (s0 <= -offsets) & (half == (offsets % 1 != 0))


def _half_ratio(s, a: float, pole, zero) -> np.ndarray:
    """R(x) = Gamma(x) / Gamma(x + 1/2) at x = s + a, every point of s, with
    the (s - s0) of a hit dropped: at a ``pole`` (x near -k, k = 0, 1, ...)
    the value is eps * R(x), at a ``zero`` (x near -k - 1/2) it is R(x) / eps.

    x < 0 and poles reflect, R(x) = cot(pi x) * R(1/2 - x), where
    eps * cot(pi x) is 1/pi at a pole and cot(pi x) / eps is -pi at a zero.
    cot(pi x) is cot(pi r) for an integer a and -tan(pi r) for a half-integer
    one, with r = s - rint(s) exact, so a rounded s + a never reaches it.  An
    argument z >= 0 is shifted up by 8 with rational factors,
    R(z) = R(z + 8) * prod_{j<8} (z + j + 1/2) / (z + j), taken as four
    pairs (z + j)(z + 7 - j) on each side; past 2**60, where the product is
    1 to within 4e-18, it is taken at 2**60 so that no side overflows.  Then
    R(y) = exp(sum_k _HALF_SERIES[k] y**-(2k+1)) / sqrt(y).  Every step is
    elementwise.
    """
    x = s + a
    reflect = (x < 0) | pole
    z = np.where(reflect, 0.5 - x, x)
    w = np.minimum(z, _CLAMP)
    wide = w * (w + 7.0)  # (w + j)(w + 7 - j) = wide + j (7 - j)
    narrow = wide + w  # (w + j + 1/2)(w + 15/2 - j) = narrow + (j + 1/2)(15/2 - j)
    num = (narrow + 3.75) * (narrow + 9.75) * (narrow + 13.75) * (narrow + 15.75)
    den = wide * (wide + 6.0) * (wide + 10.0) * (wide + 12.0)
    y = z + _SHIFT
    t = 1.0 / y
    u = t * t
    series = u * _HALF_SERIES[-1] + _HALF_SERIES[-2]
    for c in _HALF_SERIES[-3::-1]:
        series = series * u + c
    ratio = num / den * np.exp(series * t) / np.sqrt(y)
    at = np.flatnonzero(reflect)
    if at.size:
        r = s[at] - np.rint(s[at])
        dist = np.abs(r)
        # cos(pi r) = sin(pi (1/2 - |r|)), whose argument is exact where it is small
        cos, sin = np.sin(np.pi * (0.5 - dist)), np.sin(np.pi * dist)
        top, bottom, sign = (cos, sin, r) if a % 1 == 0 else (sin, cos, -r)
        bottom[pole[at]] = 1.0
        cot = np.copysign(top / bottom, sign)
        cot[pole[at]] = 1.0 / math.pi
        cot[zero[at]] = -math.pi
        ratio[at] *= cot
    return ratio


def _evaluate_grid(expr: GammaRatioExpr, s) -> tuple[np.ndarray, np.ndarray]:
    """Values and classifications ('finite' | 'zero' | 'pole') at every point
    of the 1-D array s, from ``expr.reduced``.

    Each linear factor is split by frexp into a mantissa and a power of two;
    the mantissas are multiplied and the powers added, so no intermediate
    product overflows while the value is representable.  Each
    Gamma(s + a) / Gamma(s + a + 1/2) of an odd-d scalar is one array kernel,
    ``_half_ratio``, multiplied into the mantissa.  Only the unpaired Gamma
    factors and the pairs past ``_LINEAR_CAP`` go through ``math.lgamma``
    point by point.  Singular values are never formed: at a hit the
    (s - s0) of a linear factor (s + j) is dropped, leaving 1, and so is the
    1/(s - s0) of a Gamma factor, by the reflection
    eps * Gamma(x) = (-1)^k (pi eps / sin(pi eps)) / Gamma(1 - x) at
    x = -k + eps, whose sine factor is 1 in double precision for
    |eps| <= TOL_POLE.  Every hit at s sits on the same half-integer s0, so
    with equal counts the dropped factors cancel exactly.  An argument that
    overflows (|s| near 1e308) raises FloatingPointError, an ArithmeticError.
    """
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError(f"s must be finite, got {s[~np.isfinite(s)][0]}")
    red = expr.reduced
    alpha, beta = red.log_two
    with np.errstate(over="raise", invalid="raise"):
        # every singular point is a half-integer s0: a hit is |s - s0| <= TOL_POLE
        # (s0 = round(2 s) / 2 without forming 2 s, which overflows near 1e308)
        whole = np.floor(s)
        s0 = whole + np.rint(2 * (s - whole)) / 2
        near = np.abs(s - s0) <= TOL_POLE
        half = s0 != np.floor(s0)  # s0 is an odd multiple of 1/2
        # one row per factor; a hit linear factor (s + j) = s - s0 becomes 1
        factors = s + red.linear[:, None]
        zeros = near & (s0 == -red.linear[:, None])
        factors[zeros] = 1.0
        parts, powers = np.frexp(factors)
        top = red.top
        mantissa = red.mantissa * np.multiply.reduce(parts[:top]) / np.multiply.reduce(parts[top:])
        exponent = red.exponent + np.add.reduce(powers[:top]) - np.add.reduce(powers[top:])
        net = np.add.reduce(zeros[top:], dtype=int) - np.add.reduce(zeros[:top], dtype=int)
        for a in red.halves:
            pole = _poles(s0, half, near, a)
            zero = _poles(s0, half, near, a + 0.5)
            mantissa *= _half_ratio(s, a, pole, zero)
            net += pole
            net -= zero
        log_mag = (alpha * s + beta) * _LN2
        if red.gamma_offsets.size:
            offsets = red.gamma_offsets[:, None]
            x = s + offsets
            poles = _poles(s0, half, near, offsets)
            arg = np.where(poles, 1.0 - x, x)
            lg = np.fromiter(map(math.lgamma, arg.ravel().tolist()), float, arg.size).reshape(arg.shape)
            lg[poles] *= -1.0
            # log terms added in the order the factors are written
            for side, row in zip(red.gamma_sides.tolist(), lg):
                log_mag += side * row
            net += (poles * red.gamma_sides[:, None]).sum(axis=0)
            # Gamma < 0 on (-2j-1, -2j); eps * Gamma(x) has the sign (-1)^k
            odd = np.where(poles, s0 + offsets, np.floor(x)) % 2 == 1
            mantissa *= 1.0 - 2.0 * (((x < 0) & odd).sum(axis=0) % 2)
        finite = np.flatnonzero(net == 0)
        log_mag, mantissa, exponent = log_mag[finite], mantissa[finite], exponent[finite]
        total = log_mag + exponent * _LN2 + np.log(np.abs(mantissa))
        over = np.abs(total) > _LOG_LIMIT
        if over.any():
            i = int(np.argmax(over))
            raise EvaluationOverflowError(
                f"log magnitude {total[i]:.3g} exceeds double-precision range "
                f"at s={float(s[finite[i]])}"
            )
        # exp(log_mag) alone may leave the range that the value is in
        shift = np.where(np.abs(log_mag) > _LOG_LIMIT, np.rint(log_mag / _LN2), 0.0)
        magnitude = np.ldexp(mantissa * np.exp(log_mag - shift * _LN2), exponent + shift.astype(int))
    values = np.where(net > 0, math.inf, 0.0)
    values[finite] = magnitude
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


def halfopen_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n uniform points lo + step * k, k = 1..n, in the half-open interval (lo, hi]."""
    if n < 1 or not hi > lo:
        raise ValueError("need n >= 1 and hi > lo")
    step = (hi - lo) / n
    return lo + step * np.arange(1.0, n + 1)


@dataclass(frozen=True, eq=False)
class ScanReport:
    sigma: HighestWeight
    sigma_dual: HighestWeight
    tau: HighestWeight
    s: np.ndarray
    values: np.ndarray
    classes: np.ndarray  # 'finite' | 'zero' | 'pole'
    min_abs: float
    zero_count: int
    pole_count: int
    sign_changes: int
    passed: bool

    @property
    def rows(self) -> tuple[tuple[float, float, str], ...]:
        """(s, value, classification) per grid point."""
        return tuple(zip(self.s.tolist(), self.values.tolist(), self.classes.tolist()))


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
    points = np.asarray(grid, dtype=float)
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
        s=points,
        values=values,
        classes=classes,
        min_abs=min_abs,
        zero_count=zeros,
        pole_count=poles,
        sign_changes=int(np.count_nonzero(signs[1:] != signs[:-1])),
        passed=zeros == 0 and poles == 0 and min_abs > TOL_NONVANISH,
    )
