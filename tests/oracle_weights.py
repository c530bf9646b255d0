"""Weight combinatorics the tests use as independent oracles: brute-force
enumeration of SO(n) weights, interlacing as a literal chain of
inequalities, and the brute-force minimal K-type search.

Nothing here reads the package's interlacing intervals; only the weight
type ``HighestWeight`` is shared.
"""

from __future__ import annotations

from fractions import Fraction

from rankone_gap import HighestWeight


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


def interlaces(tau: HighestWeight, sigma: HighestWeight) -> bool:
    """True iff the SO(n-1) weight sigma occurs in the SO(n) weight tau: the
    chain t_1 >= s_1 >= t_2 >= s_2 >= ... read off term by term, with an
    absolute value on the final entry of the even-rank member."""
    assert sigma.n == tau.n - 1
    t, s = tau.entries, sigma.entries
    chain = []
    for j in range(len(t)):
        chain.append(t[j])
        if j < len(s):
            chain.append(s[j])
    if chain:  # s_m of SO(2m) under SO(2m+1), t_m of SO(2m) over SO(2m-1)
        chain[-1] = abs(chain[-1])
    return all(a >= b for a, b in zip(chain, chain[1:]))


def dual_weight(w: HighestWeight) -> HighestWeight:
    """SO(n) with n = 2 mod 4 negates the last entry; every other group is
    self-dual."""
    if w.n % 4 == 2:
        return HighestWeight(w.n, w.entries[:-1] + (-w.entries[-1],))
    return w


def norm(tau: HighestWeight, d: int) -> Fraction:
    """sum_j (tau_j + (d+1-2j)/2)^2, the square expanded over a common
    denominator 4."""
    total = Fraction(0)
    for j, e in enumerate(tau.entries, start=1):
        c = d + 1 - 2 * j
        total += Fraction(4 * e * e + 4 * e * c + c * c, 4)
    return total


def brute_minimal_ktypes(sigma: HighestWeight, d: int, bound: int) -> list[HighestWeight]:
    """Every K-type over SO(d+1) with first entry at most ``bound`` that
    contains sigma and its dual and has the least norm, lexicographic."""
    candidates = [
        tau
        for tau in enumerate_weights(d + 1, bound)
        if interlaces(tau, sigma) and interlaces(tau, dual_weight(sigma))
    ]
    norms = [norm(tau, d) for tau in candidates]
    best = min(norms)
    return [tau for tau, v in zip(candidates, norms) if v == best]


# (n, entry bound) of the K-type groups SO(n) = SO(d+1) in both sweeps:
# d = 1..8 with entries of magnitude <= 3, and d <= 6 with entries <= 6
KTYPE_SWEEP = [(n, 3) for n in range(2, 10)] + [(n, 6) for n in range(2, 8)]


def sweep():
    """(d, sigma, bound) over SO(d) weights sigma of both sweeps, with bound
    the largest entry magnitude plus 3, raised by 6 in the second sweep."""
    for n, entries in KTYPE_SWEEP:
        for sigma in enumerate_weights(n - 1, entries):
            largest = max((abs(e) for e in sigma.entries), default=0)
            yield n - 1, sigma, largest + 3 + (6 if entries == 6 else 0)
