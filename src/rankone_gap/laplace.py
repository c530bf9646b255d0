"""Synthetic spectral models and their scaled-correlation Laplace transforms.

A model carries finitely many channels (an SO(d)-type, a spectral measure
supported between d/2 and delta, and a polynomial main-term coefficient)
plus a tempered background amplitude.  The correlation function is

    f(t) = sum_channels int exp(-(d-s)t) c(s) dm(s)
           + R (1+t) exp(-(d/2)t) cos(t),

the oscillatory factor keeping tests honest about the absence of positivity;
f is a closed form.  Its Laplace transform F(z) = int_0^inf exp(-(z+delta-d)t)
f(t) dt is computed two ways: the module's one quadrature, in t, with an
analytic tail bound, and the closed channel sum  B(z) = sum int c(s)/(z+delta-s)
dm(s)  whose only singularities in the probe strip, after subtracting the
mass at delta, come from spectral mass strictly below delta.  The integrand
in t is entire, so the quadrature's error bound is proved a priori.

Every channel quantity (the correlation, the tail bound, the closed sum, the
residue at z = 0 and the pole probe's cells) reads one measure, the pushforward
nu = sum_channels c(s) dm(s) built once per model (``SpectralModel.pushforward``).
The closed sum is its Stieltjes transform at z + delta, so by the residue
theorem the probe's contour cells are masses of nu, with no contour quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .gaps import continuation_width, parameter_interval
from .measures import (Atom, DensityPiece, RealLineMeasure, _midpoint_coeffs, cumulative_mass,
                       interval_mass)
from .quadrature import QuadratureError, integrate_adaptive
from .stieltjes import _moments, transform
from .weights import HighestWeight
from .wire import as_objects, complex_list, integer, real

_polyval = np.polynomial.polynomial.polyval
_polymul = np.polynomial.polynomial.polymul

TOL_QUAD = 1e-9
TOL_RANK = 1e-10
PROBE_CELL_POINTS = 17  # |G| samples across the pole probe's winning cell, edges included


@dataclass(frozen=True)
class Channel:
    sigma: HighestWeight
    measure: RealLineMeasure
    coeff: tuple[complex, ...]  # polynomial in s, ascending powers

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma.to_json(),
            "measure": self.measure.to_json(),
            "coeff_re": [c.real for c in self.coeff],
            "coeff_im": [c.imag for c in self.coeff],
        }


@dataclass(frozen=True)
class SpectralModel:
    """The one check that each channel's support lies in its parameter
    interval and at or below delta; the gap verdict relies on it."""

    d: int
    delta: float
    channels: tuple[Channel, ...] = ()
    tempered_amplitude: float = 0.0

    def __post_init__(self):
        if not self.d / 2 < self.delta <= self.d:
            raise ValueError(f"delta must lie in (d/2, d], got {self.delta}")
        if self.tempered_amplitude < 0:
            raise ValueError("tempered amplitude must be non-negative")
        seen = set()
        for ch in self.channels:
            if ch.sigma.n != self.d:
                raise ValueError(f"channel type {ch.sigma} is not an SO({self.d}) weight")
            if ch.sigma in seen:
                raise ValueError(f"duplicate channel type {ch.sigma}")
            seen.add(ch.sigma)
            box = parameter_interval(ch.sigma, self.d)
            hi = min(box.hi, self.delta)
            for atom in ch.measure.atoms:
                if not box.lo < atom.location <= hi:
                    raise ValueError(
                        f"atom at {atom.location} outside ({box.lo}, {hi}] for {ch.sigma}"
                    )
            for piece in ch.measure.pieces:
                if piece.lo < box.lo or piece.hi > hi:
                    raise ValueError(
                        f"density [{piece.lo}, {piece.hi}] outside ({box.lo}, {hi}] "
                        f"for {ch.sigma}"
                    )

    @cached_property
    def pushforward(self) -> RealLineMeasure:
        """The measure sum_ch c_sigma(s) dm_sigma(s), the one place a channel's
        coefficient multiplies its measure; built once per model."""
        total = RealLineMeasure()
        for ch in self.channels:
            c = np.asarray(ch.coeff, dtype=complex)
            atoms = [Atom(a.location, a.weight * complex(_polyval(a.location, c)))
                     for a in ch.measure.atoms]
            pieces = [DensityPiece(p.lo, p.hi, _polymul(p.coeffs, c)) for p in ch.measure.pieces]
            total = total + RealLineMeasure(tuple(atoms), tuple(pieces))
        return total

    def to_json(self) -> dict:
        return {
            "schema": "rankone-gap/1",
            "d": self.d,
            "delta": self.delta,
            "tempered_amplitude": self.tempered_amplitude,
            "channels": [ch.to_json() for ch in self.channels],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SpectralModel":
        channels = []
        for ch in as_objects(data.get("channels", []), "channels"):
            coeff = complex_list(ch, "coeff") or (0j,)
            channels.append(
                Channel(
                    sigma=HighestWeight.from_json(ch["sigma"]),
                    measure=RealLineMeasure.from_json(ch["measure"]),
                    coeff=coeff,
                )
            )
        return cls(
            d=integer(data["d"]),
            delta=real(data["delta"]),
            channels=tuple(channels),
            tempered_amplitude=real(data.get("tempered_amplitude", 0.0)),
        )


def remainder_term(model: SpectralModel, t):
    """Synthetic tempered background R (1+t) exp(-(d/2)t) cos(t)."""
    t = np.asarray(t, dtype=float)
    return model.tempered_amplitude * (1 + t) * np.exp(-0.5 * model.d * t) * np.cos(t)


def _damped_integral(a, tau):
    """E(tau) = int_{-1}^{1} A(v) exp(tau (v - 1)) dv, A(v) = sum a[k] v**k, over a
    real array ``tau >= 0``.  Up to deg + 8: moments int A(v) v**n dv summed point by
    point in Poisson weights exp(-tau) tau**n / n!, n < T + 9 sqrt(T) + 27 for the
    largest such tau T (Bernstein: the rest weigh < e**-40).  Above: exp(tau (v - 1))
    has moments E_k = (1 - (-1)**k exp(-2 tau) - k E_{k-1}) / tau, damping errors by k / tau < 1."""
    out, cap = np.zeros(tau.shape, dtype=complex), len(a) + 7
    x = tau[tau <= cap]
    top = x.max(initial=0.0)
    mu = _moments(a, math.ceil(top + 9 * math.sqrt(top) + 27))
    w = np.exp(-x)
    acc = w * mu[0]
    for n in range(1, len(mu)):
        w = w * (x / n)
        acc += w * mu[n]
    out[tau <= cap] = acc
    x, e, acc = tau[tau > cap], 0.0, 0j
    for k, ak in enumerate(a):
        e = (1 - (-1) ** k * np.exp(-2 * x) - k * e) / x
        acc = acc + ak * e
    out[tau > cap] = acc
    return out


def correlation(model: SpectralModel, t):
    """Correlation value f(t), elementwise over an array ``t >= 0`` of any
    shape, with the result in that shape; a scalar or 0-d ``t`` gives a numpy
    complex scalar.  Every term is a closed form summed point by point: a
    density piece on [hi - 2h, hi] adds h exp(-(d - hi) t) E(ht) (``_damped_integral``)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("correlation is defined for t >= 0")
    nu = model.pushforward
    out = np.zeros(t.shape, dtype=complex)
    d = model.d
    for atom in nu.atoms:
        out += atom.weight * np.exp(-(d - atom.location) * t)
    for piece in nu.pieces:
        h = 0.5 * (piece.hi - piece.lo)
        a = _midpoint_coeffs(piece.coeffs, 0.5 * (piece.lo + piece.hi), h)
        out += h * np.exp(-(d - piece.hi) * t) * _damped_integral(a, h * t)
    out += remainder_term(model, t)
    return out[()]


def truncation_bound(model: SpectralModel, z, t_max: float):
    """Analytic bound on the discarded tail of the Laplace integral, in the
    shape of ``z``."""
    re_z = np.asarray(z, dtype=complex).real
    bound = np.zeros(re_z.shape)
    nu = model.pushforward
    d, delta = model.d, model.delta
    tails = [(abs(a.weight), a.location) for a in nu.atoms] + [
        (p.variation_bound(), p.hi) for p in nu.pieces
    ]
    # where a * t_max overflows, exp(-a * t_max) is 0 as it should be
    with np.errstate(over="ignore"):
        for mass, sup in tails:
            a = re_z + delta - sup
            if np.any(a <= 0):
                raise ValueError("Re z too far left: channel tail diverges")
            bound += mass * np.exp(-a * t_max) / a
        if model.tempered_amplitude > 0:
            a = re_z + delta - d / 2
            if np.any(a <= 0):
                raise ValueError("Re z too far left: tempered tail diverges")
            bound += model.tempered_amplitude * np.exp(-a * t_max) * (
                (1 + t_max) / a + 1 / a**2
            )
    return bound[()]


@dataclass
class LaplaceResult:
    """Value and tail bound, each in the shape of z (numpy scalars for a
    scalar z)."""

    value: object  # complex ndarray or np.complex128
    truncation_bound: object  # float ndarray or np.float64


def _ellipse_max(model: SpectralModel, z, mid, half, rho):
    """Bound on |correlation(t) exp(-(w - d) t)|, w = z + delta, on the
    Bernstein ellipse with foci mid -+ half and semi-axes half a, half b,
    a, b = (rho +- 1/rho) / 2, in the shape of z followed by (P, K).

    There |exp(-beta t)| peaks at exp(half |(a Re beta, b Im beta)| - Re beta
    mid).  An atom (s, c) of nu adds |c| times that peak at beta = w - s, a
    piece its variation bound times the larger peak at its ends (monotone in
    s), and the tempered term R (1 + |mid| + half a) cosh(half b) times it at w - d/2."""
    a, b, w = (rho + 1 / rho) / 2, (rho - 1 / rho) / 2, (z + model.delta)[..., None, None]

    def peak(beta):
        return np.exp(half * np.hypot(a * beta.real, b * beta.imag) - beta.real * mid)

    out = np.zeros(np.broadcast_shapes(w.shape, mid.shape, rho.shape))
    for atom in model.pushforward.atoms:
        out += abs(atom.weight) * peak(w - atom.location)
    for p in model.pushforward.pieces:
        out += p.variation_bound() * np.maximum(peak(w - p.lo), peak(w - p.hi))
    if model.tempered_amplitude > 0:
        out += (model.tempered_amplitude * (1 + np.abs(mid) + half * a) * np.cosh(half * b)
                * peak(w - 0.5 * model.d))
    return out


def laplace_numeric(model: SpectralModel, z, t_max: float = 80.0) -> LaplaceResult:
    """Truncated quadrature of the Laplace transform plus its tail bound.

    ``z`` is a complex array of any shape (or a scalar); one call of the
    Gauss-Legendre rule in t serves all of it, each point on the panels its
    own proved bound asks for, and both fields of the result take its shape.
    Requires Re z to the right of the pushforward measure's sup-support minus
    delta (and of d/2 - delta when the tempered term is present) so the
    discarded tail admits the reported bound, which adds the tolerance the
    rule proves.  Raises QuadratureError before any evaluation if it cannot.
    """
    if not t_max > 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    z = np.asarray(z, dtype=complex)
    # the rounding floor of an integrand of modulus up to about size over [0, t_max]
    size = model.pushforward.total_variation_bound() + model.tempered_amplitude
    tol = max(TOL_QUAD, math.ulp(1.0) * size * t_max)
    bound = truncation_bound(model, z, t_max) + tol
    exponent = z + model.delta - model.d
    res = integrate_adaptive(
        lambda t: correlation(model, t) * np.exp(-exponent[..., None] * t), 0.0, t_max, tol,
        lambda mid, half, rho: _ellipse_max(model, z, mid, half, rho))
    if not res.converged:
        raise QuadratureError(f"quadrature in t did not reach tolerance {tol:g} on [0, {t_max:g}]")
    return LaplaceResult(res.value, bound)


def laplace_closed(model: SpectralModel, z):
    """Channel sum B(z) = sum_ch int c(s)/(z + delta - s) dm(s), the Stieltjes
    transform of the pushforward measure at z + delta.

    Raises SingularPointError on the pole set z = s - delta.
    """
    return transform(model.pushforward, np.asarray(z, dtype=complex) + model.delta)


def residue_at_zero(model: SpectralModel) -> complex:
    """Total atomic mass at s = delta weighted by the main-term coefficient."""
    return interval_mass(model.pushforward, model.delta, model.delta)


@dataclass
class CompareReport:
    max_error: float
    passed: bool


def compare_numeric_closed(
    model: SpectralModel,
    grid,
    closed_model: SpectralModel | None = None,
    t_max: float = 80.0,
    tol_compare: float = 1e-6,
) -> CompareReport:
    """Elementwise comparison of the truncated transform against the closed
    channel sum over a grid of z.

    The numeric side transforms the model with its tempered amplitude set to
    zero, so the two sides describe the same channel content.  PASS means every
    discrepancy is within tol_compare plus the honest truncation bound.
    ``closed_model`` substitutes a different model on the closed side (for
    negative controls).
    """
    zs = np.asarray(list(grid), dtype=complex)
    target = model if closed_model is None else closed_model
    numeric = laplace_numeric(replace(model, tempered_amplitude=0.0), zs, t_max=t_max)
    diff = numeric.value - laplace_closed(target, zs)
    err = np.hypot(diff.real, diff.imag)  # abs(complex) to the bit; np.abs is not
    allowed = tol_compare + numeric.truncation_bound + 2 * TOL_QUAD
    return CompareReport(max_error=float(err.max(initial=0.0)), passed=bool(np.all(err <= allowed)))


@dataclass
class PoleProbeReport:
    passed: bool
    blowup_detected: bool
    contour_detected: bool
    pole_location: float | None
    max_abs: float
    max_contour: float

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "blowup_detected": self.blowup_detected,
            "contour_detected": self.contour_detected,
            "pole_location": self.pole_location,
            "max_abs": self.max_abs,
            "max_contour": self.max_contour,
        }


def pole_probe(
    model: SpectralModel,
    eta: float,
    x_step: float = 1e-3,
) -> PoleProbeReport:
    """Probe the subtracted transform G(z) = B(z) - residue/z on |Re z| < eta;
    both terms read one pushforward measure nu.

    After removing the simple pole carried by the mass at delta, an atom of nu
    strictly inside (delta - eta, delta) leaves a pole on the negative real
    axis and a density piece there a cut, which passes unless |G| blows up near
    it, though its cells count as contour mass.  A pole is declared only when
    |G| blows up near a grid point AND a contour cell between consecutive grid
    points fails to vanish; the winning cell's center locates the pole to the
    grid resolution.  By the residue theorem a cell's contour sum
    |int G dz| / 2 pi is the mass over the cell of nu less its atom at delta: a
    difference of ``cumulative_mass`` at the edges delta + x, so an atom on an
    edge counts half in each neighbour.  A cell fails to vanish above 1e-6.
    |G| is sampled at heights 1e-4, 1e-3 and 1e-2 above the grid and above
    ``PROBE_CELL_POINTS`` evenly spaced points across the winning cell, so a
    small residue between grid points is seen from within x_step / 32.  It
    blows up when its peak exceeds 1e-6 and 20 times the median over the grid
    at 1e-2.
    """
    if not 0 < eta < continuation_width(model.delta, model.d):
        raise ValueError("eta must lie in (0, continuation width)")
    if not x_step > 0:
        raise ValueError("x_step must be positive")
    xs = np.arange(-eta + x_step, eta - x_step / 2, x_step)
    if xs.size < 2:
        raise ValueError("x_step leaves no contour cell in (-eta, eta)")
    nu, res0 = model.pushforward, residue_at_zero(model)
    below = RealLineMeasure(tuple(a for a in nu.atoms if a.location != model.delta), nu.pieces)
    cells = np.abs(np.diff(cumulative_mass(below, model.delta + xs)))
    k = int(np.argmax(cells))
    max_contour = float(cells[k])
    contour_detected = max_contour > 1e-6

    # the grid, then PROBE_CELL_POINTS across the winning cell, where the mass sits
    x = np.concatenate([xs, np.linspace(xs[k], xs[k + 1], PROBE_CELL_POINTS)])
    z = x + 1j * np.array([[1e-4], [1e-3], [1e-2]])  # Im z != 0, so res0 / z is finite
    samples = np.abs(transform(nu, z + model.delta) - res0 / z)
    max_abs = float(samples.max())
    baseline = float(np.median(samples[-1, : xs.size]))
    blowup = max_abs > 20.0 * (baseline + 1e-12) and max_abs > 1e-6
    failed = blowup and contour_detected
    return PoleProbeReport(
        passed=not failed,
        blowup_detected=blowup,
        contour_detected=contour_detected,
        pole_location=float(0.5 * (xs[k] + xs[k + 1])) if failed else None,
        max_abs=max_abs,
        max_contour=max_contour,
    )


def rank_test(q) -> int:
    """Numerical rank of a 2x2 sesquilinear-form sample matrix.

    rank <= 1 when |det| <= TOL_RANK * scale^2 with scale the largest entry
    magnitude; the zero matrix has rank 0.
    """
    m = np.asarray(q, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        return 0
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) <= TOL_RANK * scale * scale:
        return 1
    return 2
