"""Numerics the tests use as independent oracles: iterated Richardson
extrapolation and Gauss-Legendre segment and rectangle contour sums.

Nothing in the package calls these; ``pole_probe`` has its own batched
contour rule.
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
