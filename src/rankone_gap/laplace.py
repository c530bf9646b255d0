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
from dataclasses import dataclass

import numpy as np

from .gaps import continuation_width, parameter_interval
from .measures import Atom, DensityPiece, RealLineMeasure, interval_mass
from .quadrature import integrate_adaptive
from .stieltjes import transform
from .weights import HighestWeight
from .wire import as_list, as_objects, integer, real

_polyval = np.polynomial.polynomial.polyval
_polymul = np.polynomial.polynomial.polymul

TOL_QUAD = 1e-9
TOL_RANK = 1e-10


@dataclass(frozen=True)
class Channel:
    sigma: HighestWeight
    measure: RealLineMeasure
    coeff: tuple[complex, ...]  # polynomial in s, ascending powers

    def coeff_at(self, s):
        return _polyval(s, np.asarray(self.coeff, dtype=complex))

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma.to_json(),
            "measure": self.measure.to_json(),
            "coeff_re": [c.real for c in self.coeff],
            "coeff_im": [c.imag for c in self.coeff],
        }


@dataclass(frozen=True)
class SpectralModel:
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
            re = [real(c) for c in as_list(ch.get("coeff_re", []), "coeff_re")]
            im = [real(c) for c in as_list(ch.get("coeff_im", []), "coeff_im")]
            size = max(len(re), len(im), 1)
            re += [0.0] * (size - len(re))
            im += [0.0] * (size - len(im))
            channels.append(
                Channel(
                    sigma=HighestWeight.from_json(ch["sigma"]),
                    measure=RealLineMeasure.from_json(ch["measure"]),
                    coeff=tuple(map(complex, re, im)),
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
    """Correlation value f(t); ``t`` may be a scalar or an array, t >= 0."""
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_flat = np.atleast_1d(t_arr).ravel()
    if np.any(t_flat < 0):
        raise ValueError("correlation is defined for t >= 0")
    nu = pushforward_measure(model)
    out = np.zeros(t_flat.shape, dtype=complex)
    d = model.d
    for atom in nu.atoms:
        out += atom.weight * np.exp(-(d - atom.location) * t_flat)
    for piece in nu.pieces:
        if piece.is_zero():
            continue

        def integrand(s, _p=piece):
            return _p(s)[None, :] * np.exp(-(d - s[None, :]) * t_flat[:, None])

        out += integrate_adaptive(integrand, piece.lo, piece.hi, tol=TOL_QUAD).value
    out += remainder_term(model, t_flat)
    if scalar:
        return complex(out[0])
    return out.reshape(t_arr.shape)


def truncation_bound(
    model: SpectralModel, z, t_max: float, include_remainder: bool = True
):
    """Analytic bound on the discarded tail of the Laplace integral."""
    re_z = np.atleast_1d(np.asarray(z, dtype=complex)).real
    bound = np.zeros(re_z.shape)
    nu = pushforward_measure(model)
    d, delta = model.d, model.delta
    tails = [(abs(a.weight), a.location) for a in nu.atoms] + [
        (p.variation_bound(), p.hi) for p in nu.pieces if not p.is_zero()
    ]
    for mass, sup in tails:
        a = re_z + delta - sup
        if np.any(a <= 0):
            raise ValueError("Re z too far left: channel tail diverges")
        bound += mass * np.exp(-a * t_max) / a
    if include_remainder and model.tempered_amplitude > 0:
        a = re_z + delta - d / 2
        if np.any(a <= 0):
            raise ValueError("Re z too far left: tempered tail diverges")
        bound += model.tempered_amplitude * np.exp(-a * t_max) * (
            (1 + t_max) / a + 1 / a**2
        )
    return bound


@dataclass
class LaplaceResult:
    value: object  # complex or ndarray
    truncation_bound: object  # float or ndarray


def laplace_numeric(
    model: SpectralModel,
    z,
    t_max: float = 80.0,
    include_remainder: bool = True,
) -> LaplaceResult:
    """Truncated quadrature of the Laplace transform plus its tail bound.

    Requires Re z to the right of the pushforward measure's sup-support minus
    delta (and of d/2 - delta when the tempered term is present) so the
    discarded tail admits the reported bound.
    """
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    z_flat = np.atleast_1d(z_arr).ravel()
    bound = truncation_bound(model, z_flat, t_max, include_remainder) + TOL_QUAD
    exponent = z_flat + model.delta - model.d

    def integrand(t):
        f = correlation(model, t)
        if not include_remainder:
            f = f - remainder_term(model, t)
        return f[None, :] * np.exp(-exponent[:, None] * t[None, :])

    res = integrate_adaptive(integrand, 0.0, t_max, tol=TOL_QUAD, init_panels=32)
    value = np.atleast_1d(res.value)
    if scalar:
        return LaplaceResult(complex(value[0]), float(bound[0]))
    return LaplaceResult(value.reshape(z_arr.shape), bound.reshape(z_arr.shape))


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
            Atom(a.location, a.weight * complex(ch.coeff_at(a.location)))
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
    rows: tuple[tuple[complex, complex, complex, float, float], ...]
    max_error: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "max_error": self.max_error,
            "passed": self.passed,
            "rows": [
                {
                    "z_re": z.real,
                    "z_im": z.imag,
                    "numeric_re": n.real,
                    "numeric_im": n.imag,
                    "closed_re": c.real,
                    "closed_im": c.imag,
                    "error": e,
                    "allowed": al,
                }
                for z, n, c, e, al in self.rows
            ],
        }


def compare_numeric_closed(
    model: SpectralModel,
    grid,
    closed_model: SpectralModel | None = None,
    t_max: float = 80.0,
    tol_compare: float = 1e-6,
) -> CompareReport:
    """Elementwise comparison of the truncated transform against the closed
    channel sum over a grid of z.

    The numeric side leaves the tempered background out of its integrand, so
    the two sides describe the same channel content.  PASS means every
    discrepancy is within tol_compare plus the honest truncation bound.
    ``closed_model`` substitutes a different model on the closed side (for
    negative controls).
    """
    zs = np.asarray(list(grid), dtype=complex)
    target = model if closed_model is None else closed_model
    numeric = laplace_numeric(model, zs, t_max=t_max, include_remainder=False)
    closed = laplace_closed(target, zs)
    rows = []
    passed = True
    max_err = 0.0
    for k, z in enumerate(zs):
        num_k = complex(np.atleast_1d(numeric.value)[k])
        clo_k = complex(np.atleast_1d(closed)[k])
        err = abs(num_k - clo_k)
        allowed = tol_compare + float(np.atleast_1d(numeric.truncation_bound)[k]) + 2 * TOL_QUAD
        rows.append((complex(z), num_k, clo_k, err, allowed))
        max_err = max(max_err, err)
        if err > allowed:
            passed = False
    return CompareReport(rows=tuple(rows), max_error=max_err, passed=passed)


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
    nu = pushforward_measure(model)
    res0 = interval_mass(nu, model.delta, model.delta)

    def G(z):
        z = np.asarray(z, dtype=complex)
        vals = np.atleast_1d(transform(nu, z + model.delta)).astype(complex)
        zf = np.atleast_1d(z).ravel()
        nonzero = zf != 0
        flat = vals.ravel()
        flat[nonzero] = flat[nonzero] - res0 / zf[nonzero]
        return flat.reshape(z.shape) if z.shape else flat[0]

    xs = np.arange(-eta + x_step, eta - x_step / 2, x_step)
    samples = np.abs(np.array([G(xs + 1j * y) for y in (1e-4, 1e-3, 1e-2)]))
    max_abs = float(samples.max()) if samples.size else 0.0
    baseline = float(np.median(samples[-1])) if samples.size else 0.0
    blowup = max_abs > 20.0 * (baseline + 1e-12) and max_abs > 1e-6

    # Contour cells between consecutive grid points, height +-x_step.  All
    # horizontal edges share two lines and all vertical edges share the x
    # grid, so G is evaluated in three batched calls.
    y_c = x_step
    gl_x, gl_w = np.polynomial.legendre.leggauss(16)
    n_cells = xs.size - 1
    max_contour = 0.0
    pole_location = None
    if n_cells >= 1:
        mids = 0.5 * (xs[:-1] + xs[1:])
        halves = 0.5 * (xs[1:] - xs[:-1])
        hx = (mids[:, None] + halves[:, None] * gl_x[None, :]).ravel()
        h_bot = G(hx - 1j * y_c).reshape(n_cells, -1)
        h_top = G(hx + 1j * y_c).reshape(n_cells, -1)
        h_int_bot = (h_bot * gl_w).sum(axis=1) * halves
        h_int_top = (h_top * gl_w).sum(axis=1) * halves
        vy = (y_c * gl_x)[None, :] + np.zeros((xs.size, 1))
        vz = (xs[:, None] + 1j * vy).ravel()
        v_vals = G(vz).reshape(xs.size, -1)
        v_int = 1j * y_c * (v_vals * gl_w).sum(axis=1)
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


def rank_test(q, tol_rank: float = TOL_RANK) -> int:
    """Numerical rank of a 2x2 sesquilinear-form sample matrix.

    rank <= 1 when |det| <= tol_rank * scale^2 with scale the largest entry
    magnitude; the zero matrix has rank 0.
    """
    m = np.asarray(q, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    scale = float(np.max(np.abs(m)))
    if scale == 0.0:
        return 0
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    if abs(det) <= tol_rank * scale * scale:
        return 1
    return 2
