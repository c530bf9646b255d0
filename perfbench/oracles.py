"""Independent oracles for the benchmark's per-op checks.

Nothing here imports the package under test.  Exact quantities use
``fractions.Fraction``; transcendental ones use mpmath at 40 digits, through
closed forms (log antiderivatives, Gamma products without cancellation) rather
than the package's quadrature or log-Gamma bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

import mpmath

mpmath.mp.dps = 40


# ---------------------------------------------------------------- weights


def is_valid_weight(n: int, entries) -> bool:
    """SO(n) highest-weight validity, written from the ordering rules."""
    e = tuple(entries)
    m = n // 2
    if n < 1 or len(e) != m:
        return False
    if n == 2 or m == 0:
        return True
    if n % 2 == 1:
        return all(e[j] >= e[j + 1] for j in range(m - 1)) and e[-1] >= 0
    return all(e[j] >= e[j + 1] for j in range(m - 2)) and e[m - 2] >= abs(e[m - 1])


def weights_up_to(n: int, bound: int) -> list[tuple[int, ...]]:
    """All valid SO(n) weights with every entry of magnitude at most ``bound``."""
    m = n // 2
    return [e for e in product(range(-bound, bound + 1), repeat=m) if is_valid_weight(n, e)]


def dual_entries(n: int, e):
    if n % 2 == 0 and n % 4 != 0 and e:
        return tuple(e[:-1]) + (-e[-1],)
    return tuple(e)


def interlaces(n: int, tau, sigma) -> bool:
    """True iff the SO(n-1) weight sigma occurs in the SO(n) weight tau."""
    t, s = tuple(tau), tuple(sigma)
    m = n // 2
    if n % 2 == 0:
        # t_1 >= s_1 >= t_2 >= ... >= s_(m-1) >= |t_m|
        chain = []
        for j in range(m - 1):
            chain += [t[j], s[j]]
        chain.append(abs(t[m - 1]))
        return all(chain[i] >= chain[i + 1] for i in range(len(chain) - 1))
    # t_1 >= s_1 >= t_2 >= ... >= t_m >= |s_m|
    chain = []
    for j in range(m):
        chain += [t[j], s[j] if j < m - 1 else abs(s[m - 1])]
    return all(chain[i] >= chain[i + 1] for i in range(len(chain) - 1))


def branching(n: int, tau) -> list[tuple[int, ...]]:
    """SO(n-1) weights in the restriction of tau, lexicographic."""
    big = max((abs(x) for x in tau), default=0)
    return [s for s in weights_up_to(n - 1, big) if interlaces(n, tau, s)]


@lru_cache(maxsize=None)
def gt_dimension(n: int, tau: tuple[int, ...]) -> int:
    """Dimension as the branching sum down to SO(2): the Gelfand-Tsetlin count."""
    if n <= 2:
        return 1
    return sum(gt_dimension(n - 1, s) for s in branching(n, tau))


def witness(d: int, sigma) -> tuple[int, ...]:
    s = tuple(sigma)
    if d % 2 == 0:
        return s[:-1] + (abs(s[-1]),) if s else ()
    return s + (0,)


def minimality(d: int, tau) -> Fraction:
    return sum(
        ((Fraction(x) + Fraction(d + 1 - 2 * j, 2)) ** 2 for j, x in enumerate(tau, start=1)),
        Fraction(0),
    )


# ------------------------------------------------------------ C-functions


def gamma_factors(d: int, tau, sigma):
    """(prefactor, two_power, numerator, denominator) of the C-function scalar,
    uncancelled; each factor is Gamma(u*s + a) as a pair of Fractions."""
    half = Fraction(d, 2)
    one = Fraction(1)
    num, den = [], []
    if d % 2 == 0:
        pref = Fraction(factorial(d - 1), factorial(d // 2 - 1))
        two = (Fraction(0), Fraction(0))
        pairs_num, pairs_den = d // 2, d // 2
    else:
        pref = Fraction(factorial((d - 1) // 2))
        two = (Fraction(-2), Fraction(d))
        num.append((Fraction(2), Fraction(0)))
        pairs_num, pairs_den = (d - 1) // 2, (d + 1) // 2
    for j in range(1, pairs_num + 1):
        num.append((one, -half + j - sigma[j - 1]))
        num.append((one, half - j + sigma[j - 1]))
    for j in range(1, pairs_den + 1):
        den.append((one, -half + j - tau[j - 1]))
        den.append((one, half - j + 1 + tau[j - 1]))
    return pref, two, num, den


def cfunction_mp(d: int, tau, sigma, s) -> mpmath.mpf:
    """C-function scalar at s with every Gamma evaluated by mpmath.

    mpmath.rgamma is entire, so denominator zeros come out exactly.  Where a
    numerator Gamma sits on a pole the value is taken at s + 1e-25, which is
    the finite limit to 25 digits when a denominator pole cancels it (callers
    never ask at a net pole).
    """
    try:
        return _cfunction_mp(d, tau, sigma, mpmath.mpf(s))
    except ValueError:  # mpmath: "gamma function pole"
        return _cfunction_mp(d, tau, sigma, mpmath.mpf(s) + mpmath.mpf(10) ** -25)


def _cfunction_mp(d: int, tau, sigma, s: mpmath.mpf) -> mpmath.mpf:
    pref, (alpha, beta), num, den = gamma_factors(d, tau, sigma)
    out = mpmath.mpf(pref.numerator) / pref.denominator
    out *= mpmath.power(2, _mp(alpha) * s + _mp(beta))
    for u, a in num:
        out *= mpmath.gamma(_mp(u) * s + _mp(a))
    for u, a in den:
        out *= mpmath.rgamma(_mp(u) * s + _mp(a))
    return out


def _mp(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def singular_order(d: int, tau, sigma, s: Fraction) -> int:
    """Net pole order at rational s: numerator Gamma poles minus denominator ones."""
    _, _, num, den = gamma_factors(d, tau, sigma)

    def hits(factors):
        return sum(1 for u, a in factors if _is_nonpositive_int(u * s + a))

    return hits(num) - hits(den)


def _is_nonpositive_int(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


def gamma_expr_mp(doc: dict, s) -> mpmath.mpf:
    """Evaluate a printed `cfun expr` document at s with mpmath."""
    s = mpmath.mpf(s)
    pref = Fraction(doc["prefactor"])
    out = mpmath.mpf(pref.numerator) / pref.denominator
    alpha = Fraction(doc["two_power"]["alpha"])
    beta = Fraction(doc["two_power"]["beta"])
    out *= mpmath.power(2, _mp(alpha) * s + _mp(beta))
    for f in doc["numerator"]:
        out *= mpmath.gamma(_mp(Fraction(f["u"])) * s + _mp(Fraction(f["a"])))
    for f in doc["denominator"]:
        out *= mpmath.rgamma(_mp(Fraction(f["u"])) * s + _mp(Fraction(f["a"])))
    return out


# --------------------------------------------------------------- measures


def half_mass(measure: dict, lo: float, hi: float) -> tuple[Fraction, Fraction]:
    """Exact (mass[lo,hi) + mass(lo,hi]) / 2 of a wire-format measure."""
    flo, fhi = Fraction(lo), Fraction(hi)
    re = Fraction(0)
    im = Fraction(0)
    for a in measure.get("atoms", []):
        t = Fraction(a["t"])
        share = Fraction(1) if flo < t < fhi else Fraction(1, 2) if t in (flo, fhi) else 0
        re += share * Fraction(a["w_re"])
        im += share * Fraction(a.get("w_im", 0.0))
    for p in measure.get("densities", []):
        a = max(flo, Fraction(p["a"]))
        b = min(fhi, Fraction(p["b"]))
        if b <= a:
            continue
        for k, c in enumerate(p.get("coeffs_re", [])):
            re += Fraction(c) * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        for k, c in enumerate(p.get("coeffs_im", [])):
            im += Fraction(c) * (b ** (k + 1) - a ** (k + 1)) / (k + 1)
    return re, im


def _poly(re, im):
    size = max(len(re), len(im))
    re = list(re) + [0.0] * (size - len(re))
    im = list(im) + [0.0] * (size - len(im))
    return [mpmath.mpc(r, i) for r, i in zip(re, im)]


def cauchy_poly(coeffs, lo, hi, z) -> mpmath.mpc:
    """int_lo^hi p(t)/(z - t) dt in closed form (40 digits).

    With p(t) = q(t)(t - z) + p(z) the integral is
    -int q + p(z) (log(z - lo) - log(z - hi)); for z off the segment the
    principal logarithms never cross their cut.
    """
    z = mpmath.mpc(z)
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    # synthetic division of p by (t - z), highest power first
    desc = list(reversed(coeffs))
    q = []
    acc = mpmath.mpc(0)
    for c in desc:
        acc = acc * z + c
        q.append(acc)
    p_z = q.pop()  # remainder
    q_asc = list(reversed(q))
    int_q = sum(
        (c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in enumerate(q_asc)),
        mpmath.mpc(0),
    )
    return -int_q + p_z * (mpmath.log(z - lo) - mpmath.log(z - hi))


def stieltjes_mp(measure: dict, z) -> mpmath.mpc:
    z = mpmath.mpc(z)
    out = mpmath.mpc(0)
    for a in measure.get("atoms", []):
        out += mpmath.mpc(a["w_re"], a.get("w_im", 0.0)) / (z - a["t"])
    for p in measure.get("densities", []):
        out += cauchy_poly(_poly(p.get("coeffs_re", []), p.get("coeffs_im", [])), p["a"], p["b"], z)
    return out


# ----------------------------------------------------- spectral models


def _polymul(a, b):
    out = [mpmath.mpc(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _polyval(c, x):
    acc = mpmath.mpc(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def laplace_exact(model: dict, z) -> mpmath.mpc:
    """Full Laplace transform int_0^inf exp(-(z+delta-d)t) f(t) dt, closed form.

    Channel part: sum int c(s)/(z+delta-s) dm(s).  Tempered part
    R (1+t) exp(-(d/2)t) cos t transforms to (R/2) sum_{+-} [1/w + 1/w^2] with
    w = z + delta - d/2 -+ i.
    """
    z = mpmath.mpc(z)
    d, delta = model["d"], mpmath.mpf(model["delta"])
    w = z + delta
    out = mpmath.mpc(0)
    for ch in model["channels"]:
        c = _poly(ch.get("coeff_re", []), ch.get("coeff_im", [])) or [mpmath.mpc(0)]
        m = ch["measure"]
        for a in m.get("atoms", []):
            out += mpmath.mpc(a["w_re"], a.get("w_im", 0.0)) * _polyval(c, a["t"]) / (w - a["t"])
        for p in m.get("densities", []):
            pc = _polymul(_poly(p.get("coeffs_re", []), p.get("coeffs_im", [])), c)
            out += cauchy_poly(pc, p["a"], p["b"], w)
    amp = mpmath.mpf(model.get("tempered_amplitude", 0.0))
    if amp:
        for sign in (1, -1):
            v = z + delta - mpmath.mpf(d) / 2 - sign * 1j
            out += amp / 2 * (1 / v + 1 / v**2)
    return out


def correlation_exact(model: dict, t) -> mpmath.mpc:
    """f(t) with density terms integrated by mpmath.quad (smooth integrands)."""
    t = mpmath.mpf(t)
    d = model["d"]
    out = mpmath.mpc(0)
    for ch in model["channels"]:
        c = _poly(ch.get("coeff_re", []), ch.get("coeff_im", [])) or [mpmath.mpc(0)]
        m = ch["measure"]
        for a in m.get("atoms", []):
            w = mpmath.mpc(a["w_re"], a.get("w_im", 0.0))
            out += w * _polyval(c, a["t"]) * mpmath.exp(-(d - mpmath.mpf(a["t"])) * t)
        for p in m.get("densities", []):
            pc = _polymul(_poly(p.get("coeffs_re", []), p.get("coeffs_im", [])), c)
            out += mpmath.quad(lambda s: _polyval(pc, s) * mpmath.exp(-(d - s) * t), [p["a"], p["b"]])
    amp = mpmath.mpf(model.get("tempered_amplitude", 0.0))
    out += amp * (1 + t) * mpmath.exp(-mpmath.mpf(d) / 2 * t) * mpmath.cos(t)
    return out
