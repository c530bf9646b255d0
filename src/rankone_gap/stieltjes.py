"""Stieltjes transforms of line measures, the boundary-value inversion, and
the vanishing detector built on it.

The inversion integrates -Im F(x + iy)/pi over [a, b] for a geometric ladder
of heights y and removes the leading O(y) term with one first-order
Richardson sweep.  For an atomic measure the level values follow an arctan
law whose linear term the sweep kills exactly, leaving O(y^3); density pieces
contribute O(y^2) after the sweep.  Refinement boxes found at one level seed
the next, so the sharpening Poisson peaks are never lost by the adaptive
subdivision.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import RealLineMeasure, interval_mass_exact
from .quadrature import integrate_adaptive, richardson_sweep

TOL_SUPPORT = 1e-9
TOL_QUAD = 1e-9
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
    c = [complex(x) for x in coeffs]
    a = c[-1:]
    for ck in reversed(c[:-1]):  # A(v) = p(m + h v) by Horner in polynomials
        a = [m * x + h * y for x, y in zip(a + [0j], [0j] + a)]
        a[0] += ck
    deg = len(a) - 1
    s = (np.asarray(z, dtype=complex) - m) / h
    out = np.empty(s.shape, dtype=complex)
    # the closed form loses (deg + 1) |s|**deg ulps; keep that below (deg + 1) 2**10
    radius = 2.0 ** (10 / deg) if deg > 0 else np.inf
    far = np.abs(s) > radius
    if far.any():
        j = np.arange(int(39.2 / np.log(radius)) + 2)[:, None]  # radius**-j < 1e-17
        k = np.arange(deg + 1)[None, :]
        moments = np.where((j + k) % 2 == 0, 2.0 / (j + k + 1), 0.0) @ np.asarray(a)
        r = 1 / s[far]
        out[far] = r * np.polynomial.polynomial.polyval(r, moments)
    near = ~far
    sn = s[near]
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
        out += atom.weight / (z - atom.location)
    for piece in nu.pieces:
        out += cauchy_density_integral(piece.coeffs, piece.lo, piece.hi, z)
    return out[()]


@dataclass
class InversionResult:
    value: float
    error_estimate: float
    converged: bool
    levels: tuple[float, ...] = field(default_factory=tuple)


def invert_interval(
    F,
    a: float,
    b: float,
    y0: float = 0.5,
    k_max: int = 12,
) -> InversionResult:
    """Boundary-value inversion of a Stieltjes transform over [a, b].

    ``F`` maps a complex array to an array of the same shape, as
    ``lambda z: transform(nu, z)`` does.  Computes I(y_k) =
    -(1/pi) int_a^b Im F(x + i y_k) dx on y_k = y0 * 2^-k, k = 0..k_max,
    then extrapolates with one first-order Richardson sweep.
    The recovered quantity is the half-sum (nu([a,b)) + nu((a,b]))/2, so an
    atom exactly at an endpoint contributes half its weight.  A result whose
    error estimate exceeds ``TOL_CONVERGED`` is flagged, not suppressed.
    """
    if not b > a:
        raise ValueError("need a < b")
    if not (y0 > 0 and k_max >= 2):
        raise ValueError("need y0 > 0 and k_max >= 2")
    levels = []
    edges = None
    quad_err = 0.0
    for k in range(k_max + 1):
        y = y0 * 2.0**-k

        def integrand(x, _y=y):
            return F(x + 1j * _y).imag

        res = integrate_adaptive(
            integrand,
            a,
            b,
            tol=TOL_QUAD,
            breaks=edges,
            init_panels=16,
            collect_edges=True,
        )
        levels.append(-float(res.value) / np.pi)
        quad_err = res.error
        edges = res.edges
        if edges.size > 512:
            edges = edges[:: edges.size // 512 + 1]

    swept = richardson_sweep(np.asarray(levels))
    value = float(np.real(swept[-1]))
    err = abs(float(np.real(swept[-1] - swept[-2]))) + quad_err / np.pi
    return InversionResult(
        value=value,
        error_estimate=err,
        converged=err <= TOL_CONVERGED,
        levels=tuple(levels),
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


def vanishing_detector(F_re, F_im, a: float, b: float) -> DetectorReport:
    """Decide whether the measure behind a pair of transforms vanishes on (a, b).

    ``F_re`` and ``F_im`` are the transforms of the real and imaginary parts,
    called on complex arrays as in ``invert_interval``.
    The detector probes continuity up to the interval (sup over an x-grid of
    |F(x+iy) - F(x+iy/2)| along decreasing y) and inverts the transform on a
    grid of subintervals.  'vanishes' needs all sub-masses below tolerance
    and decaying continuity indicators; 'does_not_vanish' needs a converged
    sub-mass above tolerance; everything else is 'inconclusive'.
    """
    xs = np.linspace(a, b, DETECT_N_X)

    def continuity(F):
        sups = []
        y = DETECT_Y0
        for _ in range(CONTINUITY_LEVELS):
            gap = np.abs(F(xs + 1j * y) - F(xs + 1j * (y / 2)))
            sups.append(float(np.max(gap)))
            y /= 2
        return tuple(sups)

    cont_re = continuity(F_re)
    cont_im = continuity(F_im)

    def decayed(seq):
        return seq[-1] <= max(CONTINUITY_TOL, 0.5 * seq[0] + 1e-12)

    blowup = not (decayed(cont_re) and decayed(cont_im))

    cuts = np.linspace(a, b, DETECT_SUBINTERVALS + 1)
    masses = []
    errors = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        inv_re = invert_interval(F_re, lo, hi, y0=DETECT_Y0)
        inv_im = invert_interval(F_im, lo, hi, y0=DETECT_Y0)
        masses.append(complex(inv_re.value, inv_im.value))
        errors.append(inv_re.error_estimate + inv_im.error_estimate)

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
