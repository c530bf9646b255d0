import math
from fractions import Fraction

import pytest

from rankone_gap import (
    Atom,
    DensityPiece,
    RealLineMeasure,
    half_weighted_mass,
    interval_mass,
    interval_mass_exact,
)


def test_distinct_atom_locations_enforced():
    with pytest.raises(ValueError):
        RealLineMeasure(atoms=((0.3, 1.0), (0.3, -1.0)))


def test_piece_interval_must_be_ordered():
    with pytest.raises(ValueError):
        DensityPiece(1.0, 0.5, (1.0,))


def test_interval_mass_atoms_and_density():
    nu = RealLineMeasure(atoms=((0.5, 2.0),), pieces=((0.0, 1.0, (1.0,)),))
    assert interval_mass(nu, 0.0, 1.0) == pytest.approx(3.0)
    assert interval_mass(nu, 0.0, 0.4) == pytest.approx(0.4)
    assert interval_mass(nu, 0.4, 0.6) == pytest.approx(2.2)


def test_exact_mass_is_exact():
    # +1 density on [0, 0.5], -1 on [0.5, 1]: zero total, nonzero on [0, 0.4]
    nu = RealLineMeasure(
        pieces=((0.0, 0.5, (1.0,)), (0.5, 1.0, (-1.0,)))
    )
    re, im = interval_mass_exact(nu, 0.0, 1.0)
    assert re == 0 and im == 0
    # exactness means exact arithmetic on the binary float inputs
    re, _ = interval_mass_exact(nu, 0.0, 0.4)
    assert re == Fraction(0.4)


def test_polynomial_antiderivative():
    nu = RealLineMeasure(pieces=((0.0, 1.0, (0.0, 0.0, 3.0)),))  # 3 t^2
    re, _ = interval_mass_exact(nu, 0.25, 0.75)
    assert re == Fraction(3, 4) ** 3 - Fraction(1, 4) ** 3


def test_endpoint_inclusion_flags():
    nu = RealLineMeasure(atoms=((0.0, 1.0), (1.0, 4.0)))
    re, _ = interval_mass_exact(nu, 0.0, 1.0)
    assert re == 5
    re, _ = interval_mass_exact(nu, 0.0, 1.0, include_lo=False)
    assert re == 4
    re, _ = interval_mass_exact(nu, 0.0, 1.0, include_hi=False)
    assert re == 1


def test_half_weighted_mass():
    nu = RealLineMeasure(atoms=((0.0, 1.0), (0.5, 2.0), (1.0, 4.0)))
    assert half_weighted_mass(nu, 0.0, 1.0) == pytest.approx(2.0 + 0.5 + 2.0)


def test_real_imag_split():
    nu = RealLineMeasure(
        atoms=((0.25, 1.0 + 2.0j),), pieces=((0.0, 1.0, (0.5 - 0.5j,)),)
    )
    re_part, im_part = nu.real_part(), nu.imag_part()
    assert re_part.is_real() and im_part.is_real()
    assert interval_mass(re_part, 0.0, 1.0) == pytest.approx(1.5)
    assert interval_mass(im_part, 0.0, 1.0) == pytest.approx(1.5)


def test_addition_merges_atoms():
    a = RealLineMeasure(atoms=((0.5, 1.0),))
    b = RealLineMeasure(atoms=((0.5, 2.0), (0.7, 1.0)))
    total = a + b
    assert {atom.location: atom.weight for atom in total.atoms} == {
        0.5: 3.0 + 0j,
        0.7: 1.0 + 0j,
    }


def test_support_and_distance():
    nu = RealLineMeasure(atoms=((2.0, 1.0),), pieces=((0.0, 1.0, (1.0,)),))
    assert nu.support_bounds() == (0.0, 2.0)
    assert nu.distance_to_support(1.5 + 0.0j) == pytest.approx(0.5)
    assert nu.distance_to_support(0.5 + 0.25j) == pytest.approx(0.25)
    assert RealLineMeasure().support_bounds() is None


def test_total_variation_bound_dominates():
    nu = RealLineMeasure(atoms=((0.1, -2.0),), pieces=((0.0, 1.0, (1.0, -2.0)),))
    # |atoms| + integral of |density| = 2 + 1/2... the bound may overshoot
    assert nu.total_variation_bound() >= 2.0 + 0.5


def test_json_roundtrip():
    nu = RealLineMeasure(
        atoms=((0.25, 1.0 + 2.0j), (0.5, -1.0)),
        pieces=((0.0, 1.0, (0.5, 0.0 + 1.0j)),),
    )
    again = RealLineMeasure.from_json(nu.to_json())
    assert again == nu


def test_zero_piece_ignored_in_support():
    nu = RealLineMeasure(pieces=((0.0, 1.0, (0.0,)),))
    assert nu.support_bounds() is None


def test_zero_parts_are_dropped():
    nu = RealLineMeasure(
        atoms=((0.25, 1.0), (0.5, 0.0), (0.75, -0.0j)),
        pieces=((0.0, 1.0, (0.0, 0j)), (1.0, 2.0, (0.5,))),
    )
    assert [a.location for a in nu.atoms] == [0.25]
    assert [(p.lo, p.hi) for p in nu.pieces] == [(1.0, 2.0)]
    assert nu == RealLineMeasure(atoms=((0.25, 1.0),), pieces=((1.0, 2.0, (0.5,)),))
    assert nu.support_bounds() == (0.25, 2.0)
    assert nu.distance_to_support(0.5 + 0j) == 0.25


def test_zero_parts_from_arithmetic_are_dropped():
    a = RealLineMeasure(atoms=((0.5, 1.0), (0.7, 2.0)))
    b = RealLineMeasure(atoms=((0.5, -1.0),))
    assert a + b == RealLineMeasure(atoms=((0.7, 2.0),))
    real = RealLineMeasure(atoms=((0.5, 1.0),), pieces=((0.0, 1.0, (1.0, 2.0)),))
    assert real.imag_part() == RealLineMeasure()


def test_zero_atoms_are_checked_before_they_are_dropped():
    with pytest.raises(ValueError):
        RealLineMeasure(atoms=((0.5, 0.0), (0.5, 1.0)))
    with pytest.raises(ValueError):
        RealLineMeasure(atoms=((math.inf, 0.0),))
