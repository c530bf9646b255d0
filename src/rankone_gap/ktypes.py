"""Witness K-types over SO(d+1) for a given SO(d)-type, ranked by the exact
minimality functional sum_j (tau_j + rho_j)^2, rho_j = (d+1-2j)/2 >= 0, in
exact rational arithmetic so ties and minimality never depend on floats.

The K-types containing sigma form a box (each tau_j ranges over an integer
interval, the same for dual(sigma), as the interlacing rule puts an absolute
value on the even-rank member's final entry).  The functional is separable
and convex, so its minimizer over all K-types is, in closed form, the
integer in each interval nearest to -rho_j.  That integer is unique: -rho_j
is an integer for odd d, and for even d it is negative while every interval
lies in [0, oo).  The report's ``is_minimal_over_bound`` (a wire name) says
the minimizer is the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .weights import (
    HighestWeight,
    _interlacing,
    branches_to,
    check_search_bound,
    dual,
)


def minimality_norm(tau: HighestWeight, d: int) -> Fraction:
    """Exact value of sum_j (tau_j + (d+1-2j)/2)^2 for a K-type over SO(d+1)."""
    if tau.n != d + 1:
        raise ValueError(f"expected an SO({d + 1}) weight, got SO({tau.n})")
    total = Fraction(0)
    for j, entry in enumerate(tau.entries, start=1):
        term = Fraction(entry) + Fraction(d + 1 - 2 * j, 2)
        total += term * term
    return total


def witness_ktype(sigma: HighestWeight, d: int) -> HighestWeight:
    """The explicit K-type over SO(d+1) containing sigma and its dual.

    Even d keeps the first d/2 - 1 entries of sigma and takes the absolute
    value of the last; odd d keeps all (d-1)/2 entries and appends a zero.
    """
    if sigma.n != d:
        raise ValueError(f"expected an SO({d}) weight, got SO({sigma.n})")
    s = sigma.entries
    if d % 2 == 0:
        entries = s[:-1] + (abs(s[-1]),) if s else ()
    else:
        entries = s + (0,)
    return HighestWeight(d + 1, entries)


@dataclass(frozen=True)
class WitnessReport:
    sigma: HighestWeight
    tau: HighestWeight
    lambda_value: Fraction
    contains_sigma: bool
    contains_sigma_dual: bool
    is_minimal_over_bound: bool
    search_bound: int

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma.to_json(),
            "tau": self.tau.to_json(),
            "lambda": str(self.lambda_value),
            "lambda_float": float(self.lambda_value),
            "contains_sigma": self.contains_sigma,
            "contains_sigma_dual": self.contains_sigma_dual,
            "is_minimal_over_bound": self.is_minimal_over_bound,
            "search_bound": self.search_bound,
        }


def default_search_bound(sigma: HighestWeight) -> int:
    """Largest entry magnitude plus a safety margin of 3."""
    return max((abs(e) for e in sigma.entries), default=0) + 3


def minimal_ktypes(
    sigma: HighestWeight, d: int, bound: int | None = None
) -> tuple[list[HighestWeight], WitnessReport]:
    """The minimizer of the minimality norm among all K-types over SO(d+1)
    that contain sigma (and so its dual), in closed form, as a one-element
    list, plus a report certifying that it is the witness K-type.

    ``bound`` (default: largest entry magnitude plus 3) is a domain check
    only: it must be at least sigma's largest entry magnitude, and the
    report echoes it.
    """
    if sigma.n != d:
        raise ValueError(f"expected an SO({d}) weight, got SO({sigma.n})")
    if bound is None:
        bound = default_search_bound(sigma)
    check_search_bound(sigma, bound)
    entries = []
    for j, (lo, hi) in enumerate(_interlacing(sigma, True), start=1):
        nearest = ceil(Fraction(2 * j - d - 1, 2))  # -rho_j, or the next integer up
        nearest = nearest if lo is None else max(nearest, lo)
        entries.append(nearest if hi is None else min(nearest, hi))
    minimizers = [HighestWeight(d + 1, tuple(entries))]

    tau_star = witness_ktype(sigma, d)
    report = WitnessReport(
        sigma=sigma,
        tau=tau_star,
        lambda_value=minimality_norm(tau_star, d),
        contains_sigma=branches_to(tau_star, sigma),
        contains_sigma_dual=branches_to(tau_star, dual(sigma)),
        is_minimal_over_bound=(minimizers == [tau_star]),
        search_bound=bound,
    )
    return minimizers, report
