"""Numerics the tests use as independent oracles: iterated Richardson
extrapolation, Gauss-Legendre segment and rectangle contour sums, Stieltjes
inversion levels by adaptive quadrature of the transform, and the
correlation with its density terms by adaptive quadrature in s.

Nothing in the package calls these: the inversion levels, the correlation
and ``pole_probe``'s contour cells are closed forms, the cells being masses
by the residue theorem.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


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


def adaptive_levels(nu, a: float, b: float, ys, tol: float = 1e-12) -> np.ndarray:
    """Inversion levels -(1/pi) int_a^b Im F(x + iy) dx, for the transforms F
    of Re nu (real part) and Im nu (imaginary part), one complex value per
    height in ``ys``, by adaptive Gauss-Kronrod quadrature of the transform.

    [a, b] is split at the atoms and piece edges inside it, so each Poisson
    peak and density edge sits at the end of a segment.
    """
    from rankone_gap import transform
    from rankone_gap.quadrature import integrate_adaptive

    parts = (nu.real_part(), nu.imag_part())
    marks = [t.location for t in nu.atoms] + [e for p in nu.pieces for e in (p.lo, p.hi)]
    cuts = sorted({a, b, *(t for t in marks if a < t < b)})
    out = []
    for y in ys:
        def integrand(x, _y=y):
            return np.stack([transform(p, x + 1j * _y).imag for p in parts])

        total = sum(integrate_adaptive(integrand, lo, hi, tol=tol).value for lo, hi in zip(cuts[:-1], cuts[1:]))
        out.append(complex(*(-total / np.pi)))
    return np.array(out)


def adaptive_correlation(model, t, tol: float = 1e-12) -> np.ndarray:
    """f(t) over an array ``t >= 0``: atoms of the pushforward measure and the
    tempered term in closed form, each density piece by adaptive
    Gauss-Kronrod quadrature of p(s) exp(-(d - s) t) over the piece."""
    from rankone_gap import remainder_term
    from rankone_gap.quadrature import integrate_adaptive

    t = np.asarray(t, dtype=float)
    nu = model.pushforward
    out = remainder_term(model, t).astype(complex)
    for atom in nu.atoms:
        out += atom.weight * np.exp(-(model.d - atom.location) * t)
    for p in nu.pieces:
        def integrand(s, _p=p):
            return np.polynomial.polynomial.polyval(s, _p.coeffs) * np.exp(-(model.d - s) * t[..., None])

        out += integrate_adaptive(integrand, p.lo, p.hi, tol=tol).value
    return out
