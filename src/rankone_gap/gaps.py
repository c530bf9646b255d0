"""Scalar rate arithmetic for spectral-gap bookkeeping: parameter intervals,
error-rate exponents, mixing rates, decay envelopes, and the gap verdict on a
synthetic spectral model.

The verdict reads a ``SpectralModel``, which has already placed all support;
its comparisons against delta are exact, with no epsilon fuzz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .weights import HighestWeight
from .wire import integer, real

if TYPE_CHECKING:  # laplace imports this module
    from .laplace import SpectralModel


@dataclass(frozen=True)
class Interval:
    """Half-open interval (lo, hi]; empty when hi <= lo."""

    lo: float
    hi: float

    @property
    def is_empty(self) -> bool:
        return self.hi <= self.lo


def last_positive_index(sigma: HighestWeight) -> int:
    """Largest 1-based index with a positive coordinate; 0 for the trivial type.

    Read literally: a negative final coordinate does not count as positive.
    """
    out = 0
    for j, e in enumerate(sigma.entries, start=1):
        if e > 0:
            out = j
    return out


def parameter_interval(sigma: HighestWeight, d: int) -> Interval:
    """(d/2, d - ell(sigma)], the unitarity parameter range attached to sigma."""
    if sigma.n != d:
        raise ValueError(f"expected an SO({d}) weight, got SO({sigma.n})")
    return Interval(d / 2, d - last_positive_index(sigma))


def error_rate_gain(s: float, d: int) -> float:
    """min{2s - d, 1}: extra decay exponent of expansion error terms."""
    if not s > d / 2:
        raise ValueError(f"s must exceed d/2 = {d / 2}, got {s}")
    return min(2 * s - d, 1.0)


def continuation_width(delta: float, d: int) -> float:
    """min{delta - d/2, 1}: width of the holomorphic continuation strip."""
    if not delta > d / 2:
        raise ValueError(f"delta must exceed d/2 = {d / 2}, got {delta}")
    return min(delta - d / 2, 1.0)


def haar_decay_rate(kappa_gamma: float) -> float:
    """min{kappa_gamma, 1}: error rate for Haar-correlation decay."""
    if not kappa_gamma > 0:
        raise ValueError(f"kappa_gamma must be positive, got {kappa_gamma}")
    return min(kappa_gamma, 1.0)


def bms_decay_rate(kappa0: float, d: int) -> float:
    """kappa0 / (2 (d + 3 + kappa0)): error rate for BMS-correlation decay."""
    if not 0 < kappa0 <= 1:
        raise ValueError(f"kappa0 must lie in (0, 1], got {kappa0}")
    return kappa0 / (2 * (d + 3 + kappa0))


def decay_envelope(s_star: float, d: int, t: float) -> float:
    """(1 + t) * exp(-(d - s_star) t): matrix-coefficient decay envelope."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if not d / 2 <= s_star < d:
        raise ValueError(f"s_star must lie in [d/2, d), got {s_star}")
    return (1 + t) * math.exp(-(d - s_star) * t)


@dataclass(frozen=True)
class GapParameters:
    d: int
    delta: float | None
    kappa_gamma: float
    kappa0: float
    kappa1: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.delta is not None and not self.d / 2 < self.delta <= self.d:
            raise ValueError(f"delta must lie in (d/2, d], got {self.delta}")
        if not 0 < self.kappa_gamma < math.inf:
            raise ValueError(f"kappa_gamma must be positive and finite, got {self.kappa_gamma}")
        if self.delta is not None and self.kappa_gamma > self.delta - self.d / 2:
            raise ValueError("kappa_gamma cannot exceed delta - d/2")
        if not self.kappa1 < self.kappa0 <= 1:
            raise ValueError("expected kappa1 < kappa0 <= 1")

    @classmethod
    def from_gap(cls, kappa_gamma: float, d: int, delta: float | None = None):
        k0 = haar_decay_rate(kappa_gamma)
        return cls(
            d=d,
            delta=delta,
            kappa_gamma=kappa_gamma,
            kappa0=k0,
            kappa1=bms_decay_rate(k0, d),
        )

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "delta": self.delta,
            "kappa_gamma": self.kappa_gamma,
            "kappa0": self.kappa0,
            "kappa1": self.kappa1,
        }

    @classmethod
    def from_json(cls, data: dict) -> "GapParameters":
        return cls(
            d=integer(data["d"]),
            delta=None if data.get("delta") is None else real(data["delta"]),
            kappa_gamma=real(data["kappa_gamma"]),
            kappa0=real(data["kappa0"]),
            kappa1=real(data["kappa1"]),
        )


@dataclass(frozen=True)
class SpectralGapReport:
    verdict: bool
    atom_condition_ok: bool  # no non-trivial type carries an atom at delta
    gap_condition_ok: bool  # some eta > 0 clears (delta - eta, delta) of support
    params: GapParameters | None
    sup_support_below_delta: float | None
    offenders: tuple[str, ...]
    flagged_sigmas: tuple[HighestWeight, ...]  # negative entries: literal ell() caveat

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "atom_condition_ok": self.atom_condition_ok,
            "gap_condition_ok": self.gap_condition_ok,
            "params": None if self.params is None else self.params.to_json(),
            "sup_support_below_delta": self.sup_support_below_delta,
            "offenders": list(self.offenders),
            "flagged_sigmas": [w.to_json() for w in self.flagged_sigmas],
        }


def spectral_gap_verdict(model: SpectralModel) -> SpectralGapReport:
    """Decide the strong-gap conditions for a synthetic spectral model.

    The model already places every channel's support in its parameter
    interval and at or below delta.  The verdict holds iff (1) no
    non-trivial sigma carries an atom exactly at delta and (2) the union of
    supports misses (delta - eta, delta) for some eta > 0; the gap parameter
    is then min{delta - sup(support below delta), delta - d/2}.
    """
    d, delta = model.d, model.delta
    atom_ok = True
    gap_ok = True
    offenders: list[str] = []
    flagged: list[HighestWeight] = []
    below: list[float] = []  # support points and right endpoints below delta

    for ch in model.channels:
        sigma = ch.sigma
        if any(e < 0 for e in sigma.entries):
            flagged.append(sigma)
        for atom in ch.measure.atoms:
            if atom.location == delta:
                if not sigma.is_trivial():
                    atom_ok = False
                    offenders.append(f"atom at delta for non-trivial {sigma}")
            else:
                below.append(atom.location)
        for piece in ch.measure.pieces:
            if piece.hi == delta:
                gap_ok = False
                offenders.append(
                    f"density of {sigma} touches delta from below on "
                    f"[{piece.lo}, {piece.hi}]"
                )
            else:
                below.append(piece.hi)

    sup_below = max(below, default=None)
    verdict = atom_ok and gap_ok
    params = None
    if verdict:
        if sup_below is None:
            kappa_gamma = delta - d / 2
        else:
            kappa_gamma = min(delta - sup_below, delta - d / 2)
        params = GapParameters.from_gap(kappa_gamma, d, delta)
    return SpectralGapReport(
        verdict=verdict,
        atom_condition_ok=atom_ok,
        gap_condition_ok=gap_ok,
        params=params,
        sup_support_below_delta=sup_below,
        offenders=tuple(offenders),
        flagged_sigmas=tuple(flagged),
    )
