"""Numerics the tests use as independent oracles: iterated Richardson
extrapolation, Gauss-Legendre segment and rectangle contour sums, adaptive
Gauss-Kronrod quadrature, Stieltjes inversion levels by adaptive quadrature
of the transform, and the correlation with its density terms by adaptive
quadrature in s.

Nothing in the package calls these: the inversion levels, the correlation
and ``pole_probe``'s contour cells are closed forms, the cells being masses
by the residue theorem, and the package's one quadrature (in t, for
``laplace_numeric``) is a Gauss-Legendre rule whose error bound is proved
a priori rather than estimated.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from rankone_gap.wire import QuadratureError


def richardson_limit(values, ratio: float = 2.0, sweeps: int | None = None):
    """Iterated Richardson extrapolation; returns (limit, error_estimate).

    Sweeps are applied with increasing assumed orders 1, 2, 3, ... which
    eliminates successive powers of the step.  ``sweeps`` caps the depth.
    """
    v = np.asarray(values, dtype=complex)
    depth = v.shape[0] - 1 if sweeps is None else min(sweeps, v.shape[0] - 1)
    diagonal = [v[-1]]
    for k in range(1, depth + 1):
        factor = ratio**k
        v = (factor * v[1:] - v[:-1]) / (factor - 1.0)
        diagonal.append(v[-1])
    est = abs(diagonal[-1] - diagonal[-2]) if len(diagonal) >= 2 else np.inf
    return diagonal[-1], float(est)


@lru_cache(maxsize=8)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def segment_sum(f, z0: complex, z1: complex, nodes: int = 32, panels: int = 1) -> complex:
    """Composite Gauss-Legendre line integral of f from z0 to z1."""
    x, w = _leggauss(nodes)
    total = 0j
    for k in range(panels):
        a = z0 + (z1 - z0) * (k / panels)
        b = z0 + (z1 - z0) * ((k + 1) / panels)
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        z = mid + half * x.astype(complex)
        total += half * np.sum(w * np.asarray(f(z)))
    return complex(total)


def rectangle_contour_sum(
    f, x0: float, x1: float, y0: float, y1: float, nodes: int = 32, panels: int = 8
) -> complex:
    """Counterclockwise contour integral of f over an axis-aligned rectangle.

    Each edge is a composite rule so accuracy survives singularities that sit
    close to a long edge (relative to the edge length).
    """
    corners = [
        complex(x0, y0),
        complex(x1, y0),
        complex(x1, y1),
        complex(x0, y1),
        complex(x0, y0),
    ]
    return sum(
        segment_sum(f, corners[k], corners[k + 1], nodes=nodes, panels=panels)
        for k in range(4)
    )


# 15-point Kronrod extension of 7-point Gauss on [-1, 1] (positive half;
# the rule is symmetric).  Gauss nodes are the odd-index Kronrod nodes.
_XGK_HALF = np.array(
    [
        0.9914553711208126,
        0.9491079123427585,
        0.8648644233597691,
        0.7415311855993944,
        0.5860872354676911,
        0.4058451513773972,
        0.2077849550078985,
        0.0,
    ]
)
_WGK_HALF = np.array(
    [
        0.0229353220105292,
        0.0630920926299786,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
    ]
)
_WG_HALF = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
    ]
)

# Full 15-node tables, ordered left to right.
KRONROD_NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
KRONROD_WEIGHTS = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
GAUSS_WEIGHTS = np.zeros(15)
GAUSS_WEIGHTS[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])
INIT_PANELS = 32


def gauss_kronrod(f, a: float, b: float, tol: float = 1e-9):
    """Adaptively integrate ``f`` over [a, b] to absolute tolerance ``tol``;
    returns (value, converged).

    ``f(x)`` takes a 1-d array of abscissae and returns an array whose LAST
    axis matches ``x``; any leading axes are integrated componentwise, with
    panel acceptance driven by the worst component.  [a, b] is first split
    uniformly into ``INIT_PANELS`` panels, then panels are split breadth-first,
    one numpy call per generation.  A panel is accepted when |K15 - G7| is
    within its width's share ``tol * (hi - lo) / (b - a)`` of the tolerance.
    Panels 2**-48 of the interval wide are accepted as they stand (the result
    is then marked not converged); more than 200,000 panels in all, or a nan
    or infinite integrand value, raise QuadratureError.
    """
    if not b > a:
        raise ValueError("integration interval must satisfy a < b")
    width = b - a
    pts = np.linspace(a, b, INIT_PANELS + 1)
    lo = pts[:-1].copy()
    hi = pts[1:].copy()

    total = None
    panels_spent = 0
    min_width = width * 2.0 ** (-48)
    forced = False

    while lo.size:
        panels_spent += lo.size
        if panels_spent > 200_000:
            raise QuadratureError(f"adaptive quadrature exceeded 200000 panels on [{a}, {b}]")
        with np.errstate(all="ignore"):  # the check below reports what would warn
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            x = (mid[:, None] + half[:, None] * KRONROD_NODES[None, :]).ravel()
            y = np.asarray(f(x))
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise QuadratureError(f"integrand is not finite on [{a}, {b}]")
        y = y.reshape(y.shape[:-1] + (lo.size, 15))
        k15 = (y * KRONROD_WEIGHTS).sum(axis=-1) * half
        g7 = (y * GAUSS_WEIGHTS).sum(axis=-1) * half
        err = np.abs(k15 - g7)
        # panels are accepted on the worst component (0 for an empty stack)
        worst = err.reshape(-1, lo.size).max(axis=0, initial=0.0) if err.ndim > 1 else err

        done = worst <= tol * (hi - lo) / width
        tiny = (hi - lo) <= min_width
        if np.any(tiny & ~done):
            forced = True
            done = done | tiny

        if np.any(done):
            contrib = k15[..., done].sum(axis=-1)
            total = contrib if total is None else total + contrib

        lo_next = lo[~done]
        hi_next = hi[~done]
        mid_next = 0.5 * (lo_next + hi_next)
        lo = np.concatenate([lo_next, mid_next])
        hi = np.concatenate([mid_next, hi_next])

    return (0.0 if total is None else total), not forced


def adaptive_levels(nu, a: float, b: float, ys, tol: float = 1e-12) -> np.ndarray:
    """Inversion levels -(1/pi) int_a^b Im F(x + iy) dx, for the transforms F
    of Re nu (real part) and Im nu (imaginary part), one complex value per
    height in ``ys``, by adaptive Gauss-Kronrod quadrature of the transform.

    [a, b] is split at the atoms and piece edges inside it, so each Poisson
    peak and density edge sits at the end of a segment.
    """
    from rankone_gap import transform

    parts = (nu.real_part(), nu.imag_part())
    marks = [t.location for t in nu.atoms] + [e for p in nu.pieces for e in (p.lo, p.hi)]
    cuts = sorted({a, b, *(t for t in marks if a < t < b)})
    out = []
    for y in ys:
        def integrand(x, _y=y):
            return np.stack([transform(p, x + 1j * _y).imag for p in parts])

        total = sum(gauss_kronrod(integrand, lo, hi, tol=tol)[0] for lo, hi in zip(cuts[:-1], cuts[1:]))
        out.append(complex(*(-total / np.pi)))
    return np.array(out)


def adaptive_correlation(model, t, tol: float = 1e-12) -> np.ndarray:
    """f(t) over an array ``t >= 0``: atoms of the pushforward measure and the
    tempered term in closed form, each density piece by adaptive
    Gauss-Kronrod quadrature of p(s) exp(-(d - s) t) over the piece."""
    from rankone_gap import remainder_term

    t = np.asarray(t, dtype=float)
    nu = model.pushforward
    out = remainder_term(model, t).astype(complex)
    for atom in nu.atoms:
        out += atom.weight * np.exp(-(model.d - atom.location) * t)
    for p in nu.pieces:
        def integrand(s, _p=p):
            return np.polynomial.polynomial.polyval(s, _p.coeffs) * np.exp(-(model.d - s) * t[..., None])

        out += gauss_kronrod(integrand, p.lo, p.hi, tol=tol)[0]
    return out
