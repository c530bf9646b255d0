"""Synthetic spectral models and their scaled-correlation Laplace transforms.

A model carries finitely many channels (an SO(d)-type, a spectral measure
supported between d/2 and delta, and a polynomial main-term coefficient)
plus a tempered background amplitude.  The correlation function is

    f(t) = sum_channels int exp(-(d-s)t) c(s) dm(s)
           + R (1+t) exp(-(d/2)t) cos(t),

the oscillatory factor keeping tests honest about the absence of positivity.
Its Laplace transform F(z) = int_0^inf exp(-(z+delta-d)t) f(t) dt is computed
two ways: truncated quadrature with an analytic tail bound, and the closed
channel sum  B(z) = sum int c(s)/(z+delta-s) dm(s)  whose only pole in the
probe strip, after subtracting the mass at delta, would come from spectral
mass strictly below delta.

Every channel quantity (the correlation, the tail bound, the closed sum and
the residue at z = 0) reads one measure, the pushforward
nu = sum_channels c(s) dm(s) of ``pushforward_measure``; the closed sum is
its Stieltjes transform at z + delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gaps import continuation_width, parameter_interval
from .measures import Atom, DensityPiece, RealLineMeasure, interval_mass
from .quadrature import integrate_adaptive
from .stieltjes import transform
from .weights import HighestWeight
from .wire import as_objects, complex_list, integer, real

_polyval = np.polynomial.polynomial.polyval
_polymul = np.polynomial.polynomial.polymul

TOL_QUAD = 1e-9
TOL_RANK = 1e-10


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


def correlation(model: SpectralModel, t):
    """Correlation value f(t), elementwise over an array ``t >= 0`` of any
    shape, with the result in that shape; a scalar or 0-d ``t`` gives a numpy
    complex scalar.  Each density piece is one quadrature for all of ``t``."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("correlation is defined for t >= 0")
    nu = pushforward_measure(model)
    out = np.zeros(t.shape, dtype=complex)
    d = model.d
    for atom in nu.atoms:
        out += atom.weight * np.exp(-(d - atom.location) * t)
    for piece in nu.pieces:
        def integrand(s, _p=piece):
            return _p(s) * np.exp(-(d - s) * t[..., None])

        out += integrate_adaptive(integrand, piece.lo, piece.hi, tol=TOL_QUAD).value
    out += remainder_term(model, t)
    return out[()]


def truncation_bound(model: SpectralModel, z, t_max: float):
    """Analytic bound on the discarded tail of the Laplace integral, in the
    shape of ``z``."""
    re_z = np.asarray(z, dtype=complex).real
    bound = np.zeros(re_z.shape)
    nu = pushforward_measure(model)
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


def laplace_numeric(model: SpectralModel, z, t_max: float = 80.0) -> LaplaceResult:
    """Truncated quadrature of the Laplace transform plus its tail bound.

    ``z`` is a complex array of any shape (or a scalar); one quadrature in t
    serves all of it, and both fields of the result take its shape.  Requires
    Re z to the right of the pushforward measure's sup-support minus delta
    (and of d/2 - delta when the tempered term is present) so the discarded
    tail admits the reported bound.
    """
    if not t_max > 0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    z = np.asarray(z, dtype=complex)
    bound = truncation_bound(model, z, t_max) + TOL_QUAD
    exponent = z + model.delta - model.d

    def integrand(t):
        return correlation(model, t) * np.exp(-exponent[..., None] * t)

    res = integrate_adaptive(integrand, 0.0, t_max, tol=TOL_QUAD, init_panels=32)
    return LaplaceResult(res.value, bound)


def laplace_closed(model: SpectralModel, z):
    """Channel sum B(z) = sum_ch int c(s)/(z + delta - s) dm(s), the Stieltjes
    transform of the pushforward measure at z + delta.

    Raises SingularPointError on the pole set z = s - delta.
    """
    return transform(pushforward_measure(model), np.asarray(z, dtype=complex) + model.delta)


def residue_at_zero(model: SpectralModel) -> complex:
    """Total atomic mass at s = delta weighted by the main-term coefficient."""
    return interval_mass(pushforward_measure(model), model.delta, model.delta)


def pushforward_measure(model: SpectralModel) -> RealLineMeasure:
    """The measure sum_ch c_sigma(s) dm_sigma(s), the one place a channel's
    coefficient multiplies its measure."""
    total = RealLineMeasure()
    for ch in model.channels:
        c = np.asarray(ch.coeff, dtype=complex)
        atoms = tuple(
            Atom(a.location, a.weight * complex(_polyval(a.location, c)))
            for a in ch.measure.atoms
        )
        pieces = tuple(
            DensityPiece(p.lo, p.hi, tuple(_polymul(p.coeffs, c)))
            for p in ch.measure.pieces
        )
        total = total + RealLineMeasure(atoms=atoms, pieces=pieces)
    return total


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
    both terms read one pushforward measure.

    After removing the simple pole carried by the mass at delta, any channel
    mass strictly inside (delta - eta, delta) leaves a singularity on the
    negative real axis.  A pole is declared only when |G| blows up near a
    grid point AND a rectangular contour cell around it fails to vanish (the
    double condition keeps quadrature and cancellation noise from being read
    as a pole); the winning cell's center locates the pole to the grid
    resolution.  |G| is sampled at heights 1e-4, 1e-3 and 1e-2 above the grid
    and blows up when its peak exceeds 1e-6 and 20 times the median at 1e-2;
    a cell fails to vanish when its 16-node Gauss-Legendre contour sum
    exceeds 1e-6 in modulus.
    """
    if not 0 < eta < continuation_width(model.delta, model.d):
        raise ValueError("eta must lie in (0, continuation width)")
    if not x_step > 0:
        raise ValueError("x_step must be positive")
    nu = pushforward_measure(model)
    res0 = interval_mass(nu, model.delta, model.delta)

    def G(z):  # every sample below has Im z != 0, so res0 / z is finite
        return transform(nu, z + model.delta) - res0 / z

    xs = np.arange(-eta + x_step, eta - x_step / 2, x_step)
    if xs.size < 2:
        raise ValueError("x_step leaves no contour cell in (-eta, eta)")
    samples = np.abs(G(xs + 1j * np.array([[1e-4], [1e-3], [1e-2]])))
    max_abs = float(samples.max())
    baseline = float(np.median(samples[-1]))
    blowup = max_abs > 20.0 * (baseline + 1e-12) and max_abs > 1e-6

    # Contour cells between consecutive grid points, height +-x_step.  All
    # horizontal edges share two lines and all vertical edges share the x
    # grid, so G is evaluated in three batched calls.
    y_c = x_step
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    mids = 0.5 * (xs[:-1] + xs[1:])
    halves = 0.5 * (xs[1:] - xs[:-1])
    hx = mids[:, None] + halves[:, None] * gl_x
    h_int_bot = (G(hx - 1j * y_c) * gl_w).sum(axis=1) * halves
    h_int_top = (G(hx + 1j * y_c) * gl_w).sum(axis=1) * halves
    v_int = 1j * y_c * (G(xs[:, None] + 1j * (y_c * gl_x)) * gl_w).sum(axis=1)
    cells = np.abs(h_int_bot + v_int[1:] - h_int_top - v_int[:-1]) / (2 * math.pi)
    k = int(np.argmax(cells))
    max_contour = float(cells[k])
    pole_location = float(mids[k])
    contour_detected = max_contour > 1e-6
    failed = blowup and contour_detected
    return PoleProbeReport(
        passed=not failed,
        blowup_detected=blowup,
        contour_detected=contour_detected,
        pole_location=pole_location if failed else None,
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
