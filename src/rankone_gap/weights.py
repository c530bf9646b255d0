"""Highest-weight combinatorics for the special orthogonal groups SO(n).

An irreducible representation of SO(n) is labeled by an integer tuple of
length floor(n/2) subject to the standard ordering constraints.  Restriction
to SO(n-1) is governed by the classical multiplicity-one interlacing rule,
and dimensions come from the Weyl dimension formula, evaluated here in exact
rational arithmetic so that rank-4 products stay exact.

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


def branches_to(tau: HighestWeight, sigma: HighestWeight) -> bool:
    """True iff sigma occurs in the restriction of tau to SO(n-1).

    The restriction is multiplicity free; occurrence is the interlacing of
    the two entry tuples, with an absolute value on the final entry of the
    even-rank member of the pair.
    """
    if sigma.n != tau.n - 1:
        raise WeightError(
            "rank", f"expected SO({tau.n - 1}) weight, got SO({sigma.n})"
        )
    t, s = tau.entries, sigma.entries
    if tau.n % 2 == 0:
        m = tau.n // 2  # sigma has m - 1 entries
        for j in range(m - 1):
            if t[j] < s[j]:
                return False
            floor_j = abs(t[m - 1]) if j == m - 2 else t[j + 1]
            if s[j] < floor_j:
                return False
        return True
    m = tau.n // 2  # sigma has m entries
    for j in range(m):
        floor_j = abs(s[m - 1]) if j == m - 1 else s[j]
        if t[j] < floor_j:
            return False
        if j < m - 1 and s[j] < t[j + 1]:
            return False
    return True


def branching_set(tau: HighestWeight) -> list[HighestWeight]:
    """All SO(n-1) weights occurring in the restriction of tau, in
    lexicographic order (each with multiplicity one)."""
    if tau.n < 2:
        raise WeightError("rank", "SO(1) does not restrict further")
    t = tau.entries
    if tau.n % 2 == 0:
        m = tau.n // 2
        ranges = []
        for j in range(m - 1):
            upper = t[j]
            lower = abs(t[m - 1]) if j == m - 2 else t[j + 1]
            ranges.append(range(lower, upper + 1))
        out_n = tau.n - 1
    else:
        m = tau.n // 2
        ranges = [range(t[j + 1], t[j] + 1) for j in range(m - 1)]
        if m >= 1:
            ranges.append(range(-t[m - 1], t[m - 1] + 1))
        out_n = tau.n - 1
    return [HighestWeight(out_n, combo) for combo in product(*ranges)]


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


def enumerate_ktypes_containing(sigma: HighestWeight, bound: int) -> list[HighestWeight]:
    """All SO(n+1) weights containing sigma with first entry at most ``bound``,
    in lexicographic order.

    For SO(2) targets the bound caps the absolute value of the single entry,
    since that entry is otherwise unconstrained.
    """
    largest = max((abs(e) for e in sigma.entries), default=0)
    if bound < largest:
        raise ValueError(
            f"bound {bound} is below the largest entry magnitude {largest}; "
            "the candidate set is empty"
        )
    n = sigma.n + 1
    s = sigma.entries
    if n == 2:
        return [HighestWeight(2, (k,)) for k in range(-bound, bound + 1)]
    m = n // 2
    ranges = []
    if n % 2 == 1:
        # sigma over SO(2m), tau over SO(2m+1): tau_j in [sigma_j, sigma_(j-1)]
        for j in range(m):
            lower = abs(s[j]) if j == m - 1 else s[j]
            upper = bound if j == 0 else s[j - 1]
            ranges.append(range(lower, upper + 1))
    else:
        # sigma over SO(2m-1), tau over SO(2m): last entry ranges symmetrically
        for j in range(m - 1):
            upper = bound if j == 0 else s[j - 1]
            ranges.append(range(s[j], upper + 1))
        ranges.append(range(-s[m - 2], s[m - 2] + 1))
    return [HighestWeight(n, combo) for combo in product(*ranges)]


def enumerate_weights(n: int, bound: int) -> list[HighestWeight]:
    """All valid SO(n) weights with first entry at most ``bound`` (absolute
    value at most ``bound`` when n == 2), in lexicographic order."""
    if n == 1:
        return [HighestWeight(1, ())]
    if n == 2:
        return [HighestWeight(2, (k,)) for k in range(-bound, bound + 1)]
    m = n // 2
    out: list[HighestWeight] = []

    def extend(prefix: tuple[int, ...]):
        j = len(prefix)
        if j == m - 1 and n % 2 == 0:
            top = prefix[-1] if prefix else bound
            for k in range(-top, top + 1):
                out.append(HighestWeight(n, prefix + (k,)))
            return
        if j == m:
            out.append(HighestWeight(n, prefix))
            return
        top = prefix[-1] if prefix else bound
        for k in range(0, top + 1):
            extend(prefix + (k,))

    extend(())
    return out
