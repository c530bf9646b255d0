"""A composite Gauss-Legendre rule whose error bound is proved a priori.

It serves ``laplace_numeric``: one call integrates a batch of rows, each on
the fewest uniform panels whose proved bound meets the tolerance, so a
refusal is decided from the bound alone, before any evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .wire import QuadratureError

NODES, WEIGHTS = np.polynomial.legendre.leggauss(24)
# Bernstein ellipse parameters; RHO[0] = 1, the interval, sets the rounding term
RHO = np.concatenate([[1.0], 2.0 ** (np.arange(1, 11) / 2)])
# the rule's error on [-1, 1] per unit maximum on the ellipse E_rho: n + 1 = 24
# nodes give (64/15) rho**-2n / (rho**2 - 1) (Trefethen, Approximation Theory
# and Approximation Practice, Thm 19.3)
_ELLIPSE_ERROR = 64 / 15 * RHO[1:] ** -46 / (RHO[1:] ** 2 - 1)
COUNTS = tuple(2**k for k in range(18))  # the panel counts a row may take
MAX_PANELS = COUNTS[-1]  # 3,145,728 nodes per row
CHUNK = 4096  # panels per call of ellipse_max


@dataclass
class QuadResult:
    value: object  # scalar or ndarray matching the integrand's leading axes
    converged: bool


def _proved(ellipse_max, a: float, b: float, n: int, tol: float, settled):
    """Whether the proved bound on ``n`` uniform panels of [a, b] is at most
    ``tol``, in the shape of the rows.  The panels' bounds are summed a chunk
    at a time and only while a row not yet ``settled`` is within ``tol``."""
    half, total = (b - a) / (2 * n), 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # past the float range, inf or nan fails
        for k in range(0, n, CHUNK):
            mid = a + half * (2 * np.arange(k, min(n, k + CHUNK)) + 1.0)[:, None]
            m = np.asarray(ellipse_max(mid, half, RHO))
            total = total + half * ((m[..., 1:] * _ELLIPSE_ERROR).min(axis=-1)
                                    + np.finfo(float).eps * m[..., 0]).sum(axis=-1)
            if np.all(settled | ~(total <= tol)):  # the sum only grows
                break
    return total <= tol


def _rule(n: int):
    """Nodes and weights on [0, 1] of the rule on ``n`` uniform panels."""
    return ((NODES + 1) / 2 + np.arange(n)[:, None]).ravel() / n, np.tile(WEIGHTS, n) / (2 * n)


def integrate_adaptive(f, a: float, b: float, tol: float, ellipse_max) -> QuadResult:
    """Integrate ``f`` over [a, b] by the composite 24-node Gauss-Legendre
    rule, each row to a proved error of at most ``tol``.

    ``f(x)`` takes a 1-d array of abscissae and returns an array whose LAST
    axis matches ``x``; each leading index is a row.  ``ellipse_max(mid, half,
    rho)``, for ``mid`` of shape (P, 1), a float ``half`` and ``rho`` of shape
    (K,), returns the rows' axes and then (P, K): bounds M of |f| on the
    Bernstein ellipses with foci mid -+ half and semi-axes half (rho +- 1/rho)
    / 2, no larger on a panel's halves than on the panel.  A panel's error is
    then at most half (64/15) M rho**-46 / (rho**2 - 1), least over ``RHO``,
    plus the rounding term eps half M(rho = 1) for the rule's sum (``tol``
    must cover the rounding in f's values).

    Each row takes the first of ``COUNTS`` whose bound, summed over its
    panels, is at most ``tol``; if some row has none, the result is not
    converged and ``f`` is never called (an interval too wide for the float
    range has an inf or nan bound and is refused so).  Otherwise ``f`` is called once, on the union of the node
    sets in use, and each row is summed over its own nodes, so its value does
    not depend on the other rows.  A nan or infinite integrand value raises
    QuadratureError.
    """
    if not b > a:
        raise ValueError("integration interval must satisfy a < b")
    counts = 0
    for n in COUNTS:  # a bound never grows as the panels halve
        counts = np.where((counts == 0) & _proved(ellipse_max, a, b, n, tol, counts > 0), n, counts)
        if counts.all():
            break
    else:
        return QuadResult(None, converged=False)

    in_use = np.unique(counts).tolist()
    rules = [_rule(n) for n in in_use]
    x = a + (b - a) * np.concatenate([np.empty(0)] + [nodes for nodes, _ in rules])
    with np.errstate(all="ignore"):  # the check below reports what would warn
        y = np.asarray(f(x))
    if not np.isfinite(y).all():
        raise QuadratureError(f"integrand is not finite on [{a}, {b}]")
    value, start = np.zeros(y.shape[:-1], dtype=y.dtype), 0
    for n, (_, w) in zip(in_use, rules):  # each row keeps the sum over its own count's nodes
        value = np.where(counts == n, (y[..., start:start + w.size] * w).sum(axis=-1), value)
        start += w.size
    return QuadResult((b - a) * value[()], converged=True)
