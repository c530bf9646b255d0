"""Shared numerical kernels: adaptive Gauss-Kronrod quadrature and one
first-order Richardson sweep.

The quadrature engine is vectorized in two directions.  Integrands receive a
flat array of abscissae and may return either a matching array or a stack of
component rows (any leading axes), so one adaptive subdivision serves a whole
batch of evaluation points at once.  Panels are processed breadth-first, one
numpy call per generation, which keeps Python overhead off the hot path when
the integrand is sharply peaked and thousands of panels are in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])
KRONROD_WEIGHTS = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])
_GW = np.zeros(15)
_GW[1:14:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])
GAUSS_WEIGHTS = _GW


class QuadratureError(RuntimeError):
    """Panel budget exhausted, or an integrand value that is not finite."""


@dataclass
class QuadResult:
    value: object  # scalar or ndarray matching the integrand's leading axes
    error: float
    converged: bool
    edges: np.ndarray = field(default_factory=lambda: np.array([]))


def integrate_adaptive(
    f,
    a: float,
    b: float,
    tol: float = 1e-9,
    breaks=None,
    init_panels: int = 8,
    collect_edges: bool = False,
) -> QuadResult:
    """Adaptively integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    ``f(x)`` takes a 1-d array of abscissae and returns an array whose LAST
    axis matches ``x``; any leading axes are integrated componentwise, with
    panel acceptance driven by the worst component.  ``breaks`` seeds the
    initial subdivision (useful when the caller knows where the integrand is
    peaked); otherwise [a, b] is split uniformly into ``init_panels`` panels.
    Local acceptance uses the standard width-proportional budget
    ``tol * (hi - lo) / (b - a)`` so accepted-panel errors sum below ``tol``.
    Panels 2**-48 of the interval wide are accepted as they stand (the result
    is then marked not converged); more than 200,000 panels in all, or a nan
    or infinite integrand value, raise QuadratureError.
    """
    if not b > a:
        raise ValueError("integration interval must satisfy a < b")
    width = b - a
    if breaks is not None:
        pts = np.asarray(sorted({float(a), float(b), *(
            float(t) for t in np.atleast_1d(breaks) if a < float(t) < b
        )}))
    else:
        pts = np.linspace(a, b, max(2, init_panels + 1))
    lo = pts[:-1].copy()
    hi = pts[1:].copy()

    total = None
    err_total = 0.0
    panels_spent = 0
    min_width = width * 2.0 ** (-48)
    forced = False
    acc_lo: list[np.ndarray] = []

    while lo.size:
        panels_spent += lo.size
        if panels_spent > 200_000:
            raise QuadratureError(f"adaptive quadrature exceeded 200000 panels on [{a}, {b}]")
        with np.errstate(all="ignore"):  # the check below reports what would warn
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            x = (mid[:, None] + half[:, None] * NODES[None, :]).ravel()
            y = np.asarray(f(x))
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise QuadratureError(f"integrand is not finite on [{a}, {b}]")
        y = y.reshape(y.shape[:-1] + (lo.size, 15))
        k15 = (y * KRONROD_WEIGHTS).sum(axis=-1) * half
        g7 = (y * GAUSS_WEIGHTS).sum(axis=-1) * half
        err = np.abs(k15 - g7)
        if err.ndim > 1:
            err = err.reshape(-1, lo.size).max(axis=0, initial=0.0)  # 0 for an empty batch

        budget = tol * (hi - lo) / width
        done = err <= budget
        tiny = (hi - lo) <= min_width
        if np.any(tiny & ~done):
            forced = True
            done = done | tiny

        if np.any(done):
            contrib = k15[..., done].sum(axis=-1)
            total = contrib if total is None else total + contrib
            err_total += float(err[done].sum())
            if collect_edges:
                acc_lo.append(lo[done])

        lo_next = lo[~done]
        hi_next = hi[~done]
        mid_next = 0.5 * (lo_next + hi_next)
        lo = np.concatenate([lo_next, mid_next])
        hi = np.concatenate([mid_next, hi_next])

    if total is None:
        total = 0.0
    edges = np.array([])
    if collect_edges and acc_lo:
        edges = np.unique(np.concatenate(acc_lo + [np.array([a, b])]))
    return QuadResult(value=total, error=err_total, converged=not forced, edges=edges)


def richardson_sweep(values):
    """One first-order Richardson sweep on a sequence sampled at h, h/2, ...

    For ``values[k] = L + c * h * 2**(-k) + o(h * 2**(-k))`` the sweep
    ``2 * values[k+1] - values[k]`` removes the linear term.
    """
    v = np.asarray(values)
    if v.shape[0] < 2:
        raise ValueError("need at least two values to extrapolate")
    return 2 * v[1:] - v[:-1]
