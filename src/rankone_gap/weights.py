"""Highest-weight combinatorics for the special orthogonal groups SO(n).

An irreducible representation of SO(n) is labeled by an integer tuple of
length floor(n/2) subject to the standard ordering constraints.  Restriction
to SO(n-1) is governed by the classical multiplicity-one interlacing rule,
which lives in one helper, ``_interlacing``: given either member of the pair
it returns the integer interval of each entry of the other.  The membership
test ``branches_to`` and the products ``branching_set`` (down one rank) and
``enumerate_ktypes_containing`` (up one rank) read it.  Dimensions come from
the Weyl dimension formula, evaluated here in exact rational arithmetic so
that rank-4 products stay exact.

Conventions for the degenerate ranks: SO(1) has a single irreducible (the
empty tuple), and the dual of SO(2) is all of Z, so a length-1 tuple carries
no ordering constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .wire import as_list, as_object, integer


class WeightError(ValueError):
    """Invalid weight data.  ``code`` is one of 'length', 'ordering', 'rank'."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class HighestWeight:
    """Label of an irreducible representation of SO(n)."""

    n: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise WeightError("rank", f"group size must be >= 1, got {self.n}")
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))
        m = self.n // 2
        if len(self.entries) != m:
            raise WeightError(
                "length",
                f"SO({self.n}) weights have {m} entries, got {len(self.entries)}",
            )
        e = self.entries
        if self.n % 2 == 1:
            if any(e[j] < e[j + 1] for j in range(m - 1)) or (m and e[-1] < 0):
                raise WeightError(
                    "ordering",
                    f"SO({self.n}) requires weakly decreasing non-negative entries: {e}",
                )
        elif m >= 2:
            if any(e[j] < e[j + 1] for j in range(m - 2)) or e[m - 2] < abs(e[m - 1]):
                raise WeightError(
                    "ordering",
                    f"SO({self.n}) requires e1 >= ... >= e_(m-1) >= |e_m|: {e}",
                )
        # n == 2: a single entry carries no constraint (dual of the circle is Z)

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.entries)

    def to_json(self) -> dict:
        return {"n": self.n, "entries": list(self.entries)}

    @classmethod
    def from_json(cls, data: dict) -> "HighestWeight":
        data = as_object(data, "weight")
        entries = as_list(data["entries"], "entries")
        return cls(integer(data["n"]), tuple(integer(e) for e in entries))

    def __str__(self) -> str:
        return f"SO({self.n}){self.entries}"


def validate(n: int, entries) -> HighestWeight:
    """Validate and build an SO(n) weight; raises WeightError on bad input."""
    return HighestWeight(n, tuple(entries))


def trivial(n: int) -> HighestWeight:
    return HighestWeight(n, (0,) * (n // 2))


def dual(w: HighestWeight) -> HighestWeight:
    """Dual representation: identity except for SO(n) with n even, 4 not| n,
    which negates the last entry."""
    if w.n % 2 == 1 or w.n % 4 == 0 or not w.entries:
        return w
    return HighestWeight(w.n, w.entries[:-1] + (-w.entries[-1],))


def is_self_dual(w: HighestWeight) -> bool:
    return dual(w) == w


def _interlacing(
    known: HighestWeight, up: bool, top: int | None = None
) -> list[tuple[int | None, int | None]]:
    """Integer interval [lo, hi] of each entry of the SO(n+1) weights that
    contain ``known`` (``up``), or of the SO(n-1) weights it contains; None
    is an unbounded end, and ``top`` caps the first entry going up.  The
    rule is the chain t1 >= s1 >= t2 >= s2 >= ... of N - 1 entries for SO(N)
    over SO(N-1); its last member, the final entry of the even-rank weight,
    enters with an absolute value."""
    length = known.n if up else known.n - 1
    chain: list[int | None] = [None] * length
    chain[1 if up else 0 :: 2] = known.entries
    intervals = []
    for i in range(0 if up else 1, length, 2):
        hi = chain[i - 1] if i else top
        if i == length - 1:
            lo = None if hi is None else -hi
        else:
            lo = abs(chain[i + 1]) if i + 2 == length else chain[i + 1]
        intervals.append((lo, hi))
    return intervals


def _box(n: int, intervals) -> list[HighestWeight]:
    """The SO(n) weights with entries in the given intervals, lexicographic."""
    return [HighestWeight(n, c) for c in product(*(range(lo, hi + 1) for lo, hi in intervals))]


def branches_to(tau: HighestWeight, sigma: HighestWeight) -> bool:
    """True iff sigma occurs (with multiplicity one) in the restriction of
    tau to SO(n-1): its entries lie in the intervals ``_interlacing`` gives."""
    if sigma.n != tau.n - 1:
        raise WeightError("rank", f"expected SO({tau.n - 1}) weight, got SO({sigma.n})")
    return all(lo <= e <= hi for e, (lo, hi) in zip(sigma.entries, _interlacing(tau, False)))


def branching_set(tau: HighestWeight) -> list[HighestWeight]:
    """All SO(n-1) weights occurring in the restriction of tau, in
    lexicographic order (each with multiplicity one)."""
    if tau.n < 2:
        raise WeightError("rank", "SO(1) does not restrict further")
    return _box(tau.n - 1, _interlacing(tau, False))


@lru_cache(maxsize=None)
def dimension(w: HighestWeight) -> int:
    """Dimension of the irreducible representation, by the Weyl dimension
    formula in exact rational arithmetic."""
    m = w.n // 2
    if w.n <= 2:
        return 1
    if w.n % 2 == 1:
        rho = [Fraction(2 * (m - j) + 1, 2) for j in range(1, m + 1)]
    else:
        rho = [Fraction(m - j) for j in range(1, m + 1)]
    l = [e + r for e, r in zip(w.entries, rho)]
    dim = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            dim *= Fraction(l[i] * l[i] - l[j] * l[j], rho[i] * rho[i] - rho[j] * rho[j])
    if w.n % 2 == 1:
        for i in range(m):
            dim *= Fraction(l[i], rho[i])
    if dim.denominator != 1 or dim <= 0:
        raise ArithmeticError(f"Weyl dimension came out non-integral for {w}: {dim}")
    return int(dim)


def check_search_bound(sigma: HighestWeight, bound: int) -> None:
    """Raise ValueError when no SO(n+1) weight containing sigma has its first
    entry at most ``bound``: when ``bound`` is below sigma's largest entry."""
    largest = max((abs(e) for e in sigma.entries), default=0)
    if bound < largest:
        raise ValueError(
            f"bound {bound} is below the largest entry magnitude {largest}; "
            "the candidate set is empty"
        )


def enumerate_ktypes_containing(sigma: HighestWeight, bound: int) -> list[HighestWeight]:
    """All SO(n+1) weights containing sigma with first entry at most ``bound``,
    in lexicographic order.

    For SO(2) targets the bound caps the absolute value of the single entry,
    since that entry is otherwise unconstrained.
    """
    check_search_bound(sigma, bound)
    return _box(sigma.n + 1, _interlacing(sigma, True, bound))
