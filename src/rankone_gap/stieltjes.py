"""Stieltjes transforms of line measures, the boundary-value inversion, and
the vanishing detector built on it.

The inversion takes the levels I(y) = -(1/pi) int_a^b Im F(x + iy) dx on a
geometric ladder of heights y and removes the leading O(y) term with one
first-order Richardson sweep.  For an atomic measure the levels follow an
arctan law whose linear term the sweep kills exactly, leaving O(y^3);
density pieces contribute O(y^2) after the sweep.  The levels themselves are
exact: F is the derivative of the log-potential G(z) = int log(z - t) dnu(t),
so I(y) is a difference of Im G/pi at a + iy and b + iy, and G of an atom or
a polynomial density piece has a closed form.  Re nu and Im nu are inverted
apart, each as a real measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import RealLineMeasure, _midpoint_coeffs, interval_mass_exact

TOL_SUPPORT = 1e-9
TOL_CONVERGED = 1e-4
# vanishing_detector: subintervals inverted, the sub-mass tolerance, and the
# x-grid, starting height, levels and decay tolerance of its continuity probe
DETECT_SUBINTERVALS = 8
DETECT_TOL_MASS = 1e-3
DETECT_N_X = 41
DETECT_Y0 = 0.5
CONTINUITY_LEVELS = 8
CONTINUITY_TOL = 1e-2


class SingularPointError(ValueError):
    """Evaluation point is on (or numerically at) the support of the measure."""


def _moments(a, count: int):
    """int_{-1}^{1} A(v) v**j dv for j < ``count``, A(v) = sum a[k] v**k."""
    jk = np.add.outer(np.arange(count), np.arange(len(a)))
    return np.where(jk % 2 == 0, 2.0 / (jk + 1), 0.0) @ np.asarray(a)


def halved_quotient(w, u):
    """w / u for complex u up to the largest float in each part: the complex
    division adds |Re u| and |Im u|, which overflows past half of it, so both
    are halved first; that scaling is exact and leaves every bit of the
    quotient as it was."""
    return (0.5 * w) / (0.5 * u)


def cauchy_density_integral(coeffs, lo: float, hi: float, z):
    """int p(t)/(z - t) dt over [lo, hi] for p(t) = sum coeffs[k] t**k, in
    closed form, for an array ``z`` off the segment.

    In the variable v = (t - m)/h of the piece midpoint m and half-width h the
    integral is int_{-1}^{1} A(v)/(s - v) dv with s = (z - m)/h, so its
    conditioning does not depend on where the piece sits.  Synthetic division
    A(v) = (v - s) Q(v) + A(s) gives -int Q + A(s) log((s + 1)/(s - 1)), and
    the logarithm is taken as 2 atanh(1/s): off [-1, 1] the argument avoids
    the cut, and it keeps full relative accuracy for large |s|.  Far from the
    piece the two terms cancel to about |s|**-deg of their size, so there the
    moment series sum_j s**-(j+1) int A(v) v**j dv is summed instead.
    """
    m, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    a = _midpoint_coeffs(coeffs, m, h)
    deg = len(a) - 1
    u = np.asarray(z, dtype=complex) - m  # s = u / h, taken near the piece only
    out = np.empty(u.shape, dtype=complex)
    # the closed form loses (deg + 1) |s|**deg ulps; keep that below (deg + 1) 2**10.
    # At degree 0 it loses nothing, but s must stay below the largest float
    radius = 2.0 ** (10 / deg) if deg > 0 else 2.0**1000
    far = np.abs(u) > radius * h
    if far.any():
        moments = _moments(a, int(39.2 / np.log(radius)) + 2)  # radius**-j < 1e-17
        r = halved_quotient(h, u[far])  # 1 / s
        out[far] = r * np.polynomial.polynomial.polyval(r, moments)
    near = ~far
    sn = u[near] / h
    b = np.full(sn.shape, a[-1])
    int_q = np.zeros(sn.shape, dtype=complex)
    for k in range(deg - 1, -1, -1):  # b runs through Q's coefficients, then A(s)
        if k % 2 == 0:
            int_q += b * (2.0 / (k + 1))
        b = a[k] + sn * b
    out[near] = 2 * b * np.arctanh(1 / sn) - int_q
    return out


def transform(nu: RealLineMeasure, z):
    """Stieltjes transform sum_atoms w/(z-t) + sum_pieces int rho(t)/(z-t) dt.

    Elementwise over a complex array ``z`` of any shape, with the result in
    that shape; a scalar or 0-d ``z`` gives a numpy complex scalar.  Density
    pieces are integrated in closed form.
    """
    z = np.asarray(z, dtype=complex)
    dist = nu.distance_to_support(z)
    if np.any(dist < TOL_SUPPORT):
        bad = z.flat[int(np.argmin(dist))]
        raise SingularPointError(f"evaluation point {bad} is on the support")
    out = np.zeros(z.shape, dtype=complex)
    for atom in nu.atoms:
        out += halved_quotient(atom.weight, z - atom.location)
    for piece in nu.pieces:
        out += cauchy_density_integral(piece.coeffs, piece.lo, piece.hi, z)
    return out[()]


@dataclass
class InversionResult:
    mass: complex
    error_re: float
    error_im: float
    converged: bool
    levels: tuple  # one complex level per height


def _arg_potential(nu: RealLineMeasure, x, y) -> np.ndarray:
    """(1/pi) int arg(x + iy - t) d(Re nu)(t), and the same for Im nu, over
    the broadcast of real arrays ``x`` and ``y > 0``, as an array of shape
    (2, *shape).

    This is Im G/pi for the log-potential G(z) = int log(z - t) dnu(t) of
    each part, whose derivative is the transform.  A density piece is taken
    in its midpoint variable v, where integrating by parts with P' = A gives
    int A(v) log(s - v) dv = P(1) log(s - 1) - P(-1) log(s + 1)
    + int P(v)/(s - v) dv over [-1, 1], the last term in closed form.
    """
    x, y = np.broadcast_arrays(x, y)
    out = np.zeros((2,) + x.shape)
    for atom in nu.atoms:
        out += np.multiply.outer([atom.weight.real, atom.weight.imag], np.arctan2(y, x - atom.location))
    for piece in nu.pieces:
        m, h = 0.5 * (piece.lo + piece.hi), 0.5 * (piece.hi - piece.lo)
        s = (x + 1j * y - m) / h
        for part, coeffs in zip(out, ([c.real for c in piece.coeffs], [c.imag for c in piece.coeffs])):
            if not any(coeffs):
                continue
            a = [c.real for c in _midpoint_coeffs(coeffs, m, h)]
            p = [0.0] + [c / (k + 1) for k, c in enumerate(a)]  # P' = A, P(0) = 0
            p_plus, p_minus = sum(p), sum(p[::2]) - sum(p[1::2])  # P(1), P(-1)
            tail = cauchy_density_integral(p, -1.0, 1.0, s).imag
            part += h * (p_plus * np.angle(s - 1) - p_minus * np.angle(s + 1) + tail)
    return out / np.pi


def richardson_sweep(values):
    """One first-order Richardson sweep on a sequence sampled at h, h/2, ...

    For ``values[k] = L + c * h * 2**(-k) + o(h * 2**(-k))`` the sweep
    ``2 * values[k+1] - values[k]`` removes the linear term.
    """
    v = np.asarray(values)
    if v.shape[0] < 2:
        raise ValueError("need at least two values to extrapolate")
    return 2 * v[1:] - v[:-1]


def _invert_cuts(nu: RealLineMeasure, cuts, y0: float, k_max: int):
    """Inversion levels, masses and error estimates of the intervals between
    consecutive ``cuts``: levels of shape (heights, 2, intervals), masses and
    errors of shape (2, intervals), row 0 for Re nu and row 1 for Im nu."""
    cuts = np.asarray(cuts, dtype=float)
    if not np.all(cuts[1:] > cuts[:-1]):
        raise ValueError("need a < b")
    if not (y0 > 0 and k_max >= 2):
        raise ValueError("need y0 > 0 and k_max >= 2")
    if not y0 * 2.0**-k_max > 0:
        raise ValueError("need y0 * 2**-k_max > 0")
    ys = y0 * 2.0 ** -np.arange(k_max + 1)
    phi = _arg_potential(nu, cuts, ys[:, None])  # (2, heights, cuts)
    levels = np.moveaxis(phi[..., :-1] - phi[..., 1:], 1, 0)
    swept = richardson_sweep(levels)
    return levels, swept[-1], np.abs(swept[-1] - swept[-2])


def invert_interval(
    nu: RealLineMeasure, a: float, b: float, y0: float = 0.5, k_max: int = 12
) -> InversionResult:
    """Boundary-value inversion of the Stieltjes transform of ``nu`` over [a, b].

    Computes the levels I(y_k) = -(1/pi) int_a^b Im F(x + i y_k) dx on
    y_k = y0 * 2^-k, k = 0..k_max, exactly, as differences of the
    log-potential at a + i y_k and b + i y_k, then extrapolates with one
    first-order Richardson sweep.  Re nu and Im nu are inverted apart, so the
    real and imaginary parts of ``mass`` and ``levels``, and ``error_re`` and
    ``error_im``, are those of ``invert_interval(nu.real_part(), ...)`` and
    ``invert_interval(nu.imag_part(), ...)``.  The recovered quantity is the
    half-sum (nu([a,b)) + nu((a,b]))/2, so an atom exactly at an endpoint
    contributes half its weight.  A result with an error estimate above
    ``TOL_CONVERGED`` is flagged, not suppressed.
    """
    levels, mass, err = _invert_cuts(nu, [a, b], y0, k_max)
    return InversionResult(
        mass=complex(mass[0, 0], mass[1, 0]),
        error_re=float(err[0, 0]),
        error_im=float(err[1, 0]),
        converged=bool(np.all(err <= TOL_CONVERGED)),
        levels=tuple(complex(re, im) for re, im in levels[..., 0]),
    )


@dataclass
class DetectorReport:
    verdict: str  # 'vanishes' | 'does_not_vanish' | 'inconclusive'
    sub_masses: tuple[complex, ...]
    sub_errors: tuple[float, ...]
    continuity_re: tuple[float, ...]
    continuity_im: tuple[float, ...]
    continuity_blowup: bool

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "sub_masses_re": [m.real for m in self.sub_masses],
            "sub_masses_im": [m.imag for m in self.sub_masses],
            "sub_errors": list(self.sub_errors),
            "continuity_re": list(self.continuity_re),
            "continuity_im": list(self.continuity_im),
            "continuity_blowup": self.continuity_blowup,
        }


def vanishing_detector(nu: RealLineMeasure, a: float, b: float) -> DetectorReport:
    """Decide whether the measure ``nu`` vanishes on (a, b).

    The detector probes continuity up to the interval (sup over an x-grid of
    |F(x+iy) - F(x+iy/2)| along decreasing y, for the transforms F of Re nu
    and Im nu) and inverts the measure on a grid of subintervals, as
    ``invert_interval`` does, from one evaluation of the log-potential at the
    cuts.  'vanishes' needs all sub-masses below tolerance and decaying
    continuity indicators; 'does_not_vanish' needs a sub-mass m above
    tolerance whose error estimate e (Re plus Im) is below 0.5 |m|;
    everything else is 'inconclusive'.
    """
    xs = np.linspace(a, b, DETECT_N_X)
    ys = DETECT_Y0 * 2.0 ** -np.arange(CONTINUITY_LEVELS + 1)
    grid = xs + 1j * ys[:, None]
    cont_re, cont_im = (
        tuple(map(float, np.abs(vals[:-1] - vals[1:]).max(axis=-1)))
        for vals in (transform(nu.real_part(), grid), transform(nu.imag_part(), grid))
    )

    def decayed(seq):
        return seq[-1] <= max(CONTINUITY_TOL, 0.5 * seq[0] + 1e-12)

    blowup = not (decayed(cont_re) and decayed(cont_im))

    cuts = np.linspace(a, b, DETECT_SUBINTERVALS + 1)
    _, mass, err = _invert_cuts(nu, cuts, DETECT_Y0, 12)
    masses = [complex(re, im) for re, im in mass.T]
    errors = (err[0] + err[1]).tolist()

    exceeding = [
        (m, e)
        for m, e in zip(masses, errors)
        if abs(m) > DETECT_TOL_MASS and e < 0.5 * abs(m)
    ]
    all_small = all(abs(m) <= DETECT_TOL_MASS for m in masses)
    if exceeding:
        verdict = "does_not_vanish"
    elif all_small and not blowup:
        verdict = "vanishes"
    else:
        verdict = "inconclusive"
    return DetectorReport(
        verdict=verdict,
        sub_masses=tuple(masses),
        sub_errors=tuple(errors),
        continuity_re=cont_re,
        continuity_im=cont_im,
        continuity_blowup=blowup,
    )


def is_zero_by_interval_family(
    nu: RealLineMeasure, lo: float, hi: float, grid
) -> bool:
    """Exact finite-resolution zero test: every interval between consecutive
    grid points inside (lo, hi) must carry exactly zero mass.

    Grid points must avoid the atoms of the measure (that is the hypothesis
    that makes endpoint bookkeeping exact); collisions raise ValueError.
    """
    pts = sorted(float(x) for x in grid)
    if any(not lo < x < hi for x in pts):
        raise ValueError("grid points must lie strictly inside the interval")
    atom_locs = {a.location for a in nu.atoms}
    for x in pts:
        if x in atom_locs:
            raise ValueError(f"grid point {x} collides with an atom")
    for left, right in zip(pts[:-1], pts[1:]):
        re, im = interval_mass_exact(nu, left, right)
        if re != 0 or im != 0:
            return False
    return True
