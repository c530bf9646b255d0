"""Complex Borel measures on the line built from finitely many atoms and
bounded piecewise-polynomial density pieces.

Everything here has finite total variation by construction.  Interval masses
are available in exact rational arithmetic (binary floats convert exactly to
Fractions, and polynomial antiderivatives stay rational), which is what makes
the zero-measure tests trustworthy.  Zero-weight atoms and all-zero density
pieces are not support: the constructor drops them, so no consumer sees one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .wire import as_object, as_objects, complex_list, real


@dataclass(frozen=True)
class Atom:
    location: float
    weight: complex

    def to_json(self) -> dict:
        return {
            "t": self.location,
            "w_re": self.weight.real,
            "w_im": self.weight.imag,
        }


@dataclass(frozen=True)
class DensityPiece:
    """Polynomial density sum(coeffs[k] * t**k) on the interval [lo, hi]."""

    lo: float
    hi: float
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"density interval needs lo < hi, got [{self.lo}, {self.hi}]")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("density intervals must be bounded")
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def variation_bound(self) -> float:
        """Width times the coefficient bound sum |c_k| max(|lo|, |hi|)**k."""
        big = max(abs(self.lo), abs(self.hi))
        return (self.hi - self.lo) * sum(abs(c) * big**k for k, c in enumerate(self.coeffs))

    def to_json(self) -> dict:
        return {
            "a": self.lo,
            "b": self.hi,
            "coeffs_re": [c.real for c in self.coeffs],
            "coeffs_im": [c.imag for c in self.coeffs],
        }


@dataclass(frozen=True)
class RealLineMeasure:
    atoms: tuple[Atom, ...] = ()
    pieces: tuple[DensityPiece, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "atoms",
            tuple(
                a if isinstance(a, Atom) else Atom(float(a[0]), complex(a[1]))
                for a in self.atoms
            ),
        )
        object.__setattr__(
            self,
            "pieces",
            tuple(
                p if isinstance(p, DensityPiece) else DensityPiece(*p)
                for p in self.pieces
            ),
        )
        locs = [a.location for a in self.atoms]
        if len(set(locs)) != len(locs):
            raise ValueError("atom locations must be pairwise distinct")
        for a in self.atoms:
            if not (math.isfinite(a.location) and math.isfinite(abs(a.weight))):
                raise ValueError("atoms must be finite")
        object.__setattr__(self, "atoms", tuple(a for a in self.atoms if a.weight != 0))
        object.__setattr__(self, "pieces", tuple(p for p in self.pieces if not p.is_zero()))

    def is_real(self) -> bool:
        return all(a.weight.imag == 0 for a in self.atoms) and all(
            c.imag == 0 for p in self.pieces for c in p.coeffs
        )

    def real_part(self) -> "RealLineMeasure":
        return self._map_weights(lambda c: complex(c.real))

    def imag_part(self) -> "RealLineMeasure":
        return self._map_weights(lambda c: complex(c.imag))

    def _map_weights(self, f) -> "RealLineMeasure":
        """The measure with ``f`` applied to every atom weight and density
        coefficient."""
        return RealLineMeasure(
            atoms=tuple(Atom(a.location, f(a.weight)) for a in self.atoms),
            pieces=tuple(DensityPiece(p.lo, p.hi, tuple(map(f, p.coeffs))) for p in self.pieces),
        )

    def __add__(self, other: "RealLineMeasure") -> "RealLineMeasure":
        combined: dict[float, complex] = {}
        for a in list(self.atoms) + list(other.atoms):
            combined[a.location] = combined.get(a.location, 0j) + a.weight
        atoms = tuple(Atom(t, w) for t, w in sorted(combined.items()))
        return RealLineMeasure(atoms=atoms, pieces=self.pieces + other.pieces)

    def support_bounds(self) -> tuple[float, float] | None:
        """Smallest interval containing the support; None for the zero measure."""
        xs: list[float] = []
        for a in self.atoms:
            xs.extend([a.location, a.location])
        for p in self.pieces:
            xs.extend([p.lo, p.hi])
        if not xs:
            return None
        return min(xs), max(xs)

    def distance_to_support(self, z) -> np.ndarray:
        """Euclidean distance from complex point(s) to the support closure;
        inf where it exceeds the largest float."""
        z = np.asarray(z, dtype=complex)
        dist = np.full(z.shape, np.inf)
        for a in self.atoms:
            dist = np.minimum(dist, np.abs(z - a.location))
        for p in self.pieces:
            dx = np.maximum(np.maximum(p.lo - z.real, z.real - p.hi), 0.0)
            with np.errstate(over="ignore"):
                dist = np.minimum(dist, np.hypot(dx, z.imag))
        return dist

    def total_variation_bound(self) -> float:
        """Upper bound on the total variation (coefficient bound per piece)."""
        tv = sum(abs(a.weight) for a in self.atoms)
        return float(sum((p.variation_bound() for p in self.pieces), tv))

    def to_json(self) -> dict:
        return {
            "atoms": [a.to_json() for a in self.atoms],
            "densities": [p.to_json() for p in self.pieces],
        }

    @classmethod
    def from_json(cls, data: dict) -> "RealLineMeasure":
        data = as_object(data, "measure")
        atoms = tuple(
            Atom(real(a["t"]), complex(real(a["w_re"]), real(a.get("w_im", 0.0))))
            for a in as_objects(data.get("atoms", []), "atoms")
        )
        pieces = []
        for p in as_objects(data.get("densities", []), "densities"):
            coeffs = complex_list(p, "coeffs")
            pieces.append(DensityPiece(real(p["a"]), real(p["b"]), coeffs))
        return cls(atoms=atoms, pieces=tuple(pieces))


def _piece_mass_exact(piece: DensityPiece, lo: Fraction, hi: Fraction):
    """Exact (real, imag) integral of the density over [lo, hi] clipped to the piece."""
    a = max(lo, Fraction(piece.lo))
    b = min(hi, Fraction(piece.hi))
    re = Fraction(0)
    im = Fraction(0)
    if b <= a:
        return re, im
    for k, c in enumerate(piece.coeffs):
        moment = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        re += Fraction(c.real) * moment
        im += Fraction(c.imag) * moment
    return re, im


def interval_mass_exact(
    nu: RealLineMeasure,
    lo: float,
    hi: float,
    include_lo: bool = True,
    include_hi: bool = True,
) -> tuple[Fraction, Fraction]:
    """Exact (real, imag) mass of an interval with chosen endpoint inclusion."""
    flo, fhi = Fraction(lo), Fraction(hi)
    re = Fraction(0)
    im = Fraction(0)
    for a in nu.atoms:
        t = Fraction(a.location)
        inside = flo < t < fhi or (include_lo and t == flo) or (include_hi and t == fhi)
        if inside:
            re += Fraction(a.weight.real)
            im += Fraction(a.weight.imag)
    for piece in nu.pieces:
        pre, pim = _piece_mass_exact(piece, flo, fhi)
        re += pre
        im += pim
    return re, im


def interval_mass(nu: RealLineMeasure, lo: float, hi: float) -> complex:
    re, im = interval_mass_exact(nu, lo, hi)
    return complex(float(re), float(im))


def half_weighted_mass(nu: RealLineMeasure, lo: float, hi: float) -> complex:
    """(mass of [lo, hi) + mass of (lo, hi]) / 2: interior atoms count fully,
    endpoint atoms at half weight.  This is the quantity recovered by the
    boundary-value inversion."""
    re_o, im_o = interval_mass_exact(nu, lo, hi, include_lo=False, include_hi=False)
    value = complex(float(re_o), float(im_o))
    for a in nu.atoms:
        if a.location == lo or a.location == hi:
            value += 0.5 * a.weight
    return value


def _midpoint_coeffs(coeffs, m: float, h: float) -> list[complex]:
    """Coefficients of A(v) = p(m + h v) for p(t) = sum coeffs[k] t**k."""
    c = [complex(x) for x in coeffs]
    a = c[-1:]
    for ck in reversed(c[:-1]):  # Horner in polynomials
        a = [m * x + h * y for x, y in zip(a + [0j], [0j] + a)]
        a[0] += ck
    return a


def cumulative_mass(nu: RealLineMeasure, x) -> np.ndarray:
    """nu((-inf, x)) + nu({x})/2 in floats over an array ``x``: differences are
    ``half_weighted_mass`` values.  Density pieces are integrated in their
    midpoint variable, so the rounding does not depend on where they sit."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for a in nu.atoms:
        out += a.weight * 0.5 * (np.sign(x - a.location) + 1)
    for p in nu.pieces:
        m, h = 0.5 * (p.lo + p.hi), 0.5 * (p.hi - p.lo)
        primitive = np.polynomial.polynomial.polyint(_midpoint_coeffs(p.coeffs, m, h), lbnd=-1)
        out += h * np.polynomial.polynomial.polyval(np.clip((x - m) / h, -1.0, 1.0), primitive)
    return out
