import pytest
from hypothesis import given

from rankone_gap import (
    HighestWeight,
    WeightError,
    branches_to,
    branching_set,
    dimension,
    dual,
    enumerate_ktypes_containing,
    is_self_dual,
    trivial,
    validate,
)

from conftest import so_weights
from oracle_weights import KTYPE_SWEEP, enumerate_weights, interlaces, sweep


class TestValidate:
    def test_even_ordering_with_negative_last(self):
        assert validate(4, (2, -1)).entries == (2, -1)

    def test_trivial_always_valid(self):
        assert validate(3, (0,)).entries == (0,)

    def test_so2_any_integer(self):
        # the circle group's dual is all of Z: no ordering chain at rank one
        assert validate(2, (-5,)).entries == (-5,)

    def test_wrong_length_code(self):
        with pytest.raises(WeightError) as err:
            validate(3, (1, 2))
        assert err.value.code == "length"

    def test_ordering_violation_code(self):
        with pytest.raises(WeightError) as err:
            validate(4, (1, 2))
        assert err.value.code == "ordering"
        with pytest.raises(WeightError) as err:
            validate(5, (1, -1))
        assert err.value.code == "ordering"

    def test_even_needs_abs_on_last(self):
        with pytest.raises(WeightError):
            validate(4, (1, -2))
        assert validate(4, (2, -2)).entries == (2, -2)


class TestDual:
    def test_so2_negates(self):
        assert dual(validate(2, (3,))) == validate(2, (-3,))

    def test_odd_self_dual(self):
        w = validate(3, (7,))
        assert dual(w) == w

    def test_divisible_by_four_self_dual(self):
        w = validate(4, (1, -1))
        assert dual(w) == w

    def test_six_negates_last(self):
        assert dual(validate(6, (2, 1, 1))) == validate(6, (2, 1, -1))

    @given(so_weights())
    def test_involution(self, w):
        assert dual(dual(w)) == w

    @given(so_weights())
    def test_self_dual_iff_fixed(self, w):
        assert is_self_dual(w) == (dual(w) == w)

    def test_self_dual_examples(self):
        assert is_self_dual(validate(2, (0,)))
        assert not is_self_dual(validate(2, (1,)))
        assert not is_self_dual(validate(6, (2, 1, 1)))
        assert is_self_dual(validate(6, (2, 1, 0)))


class TestBranching:
    def test_so4_to_so3(self):
        tau = validate(4, (1, 0))
        assert branches_to(tau, validate(3, (1,)))
        assert branches_to(tau, validate(3, (0,)))

    def test_so3_to_so2_needs_abs(self):
        assert not branches_to(validate(3, (1,)), validate(2, (2,)))
        assert branches_to(validate(3, (1,)), validate(2, (-1,)))

    def test_so2_to_so1_always(self):
        for k in (-4, 0, 17):
            assert branches_to(validate(2, (k,)), validate(1, ()))

    def test_rank_mismatch(self):
        with pytest.raises(WeightError) as err:
            branches_to(validate(4, (1, 0)), validate(2, (1,)))
        assert err.value.code == "rank"

    def test_branching_set_examples(self):
        assert [w.entries for w in branching_set(validate(4, (1, 0)))] == [(0,), (1,)]
        assert [w.entries for w in branching_set(validate(3, (2,)))] == [
            (-2,),
            (-1,),
            (0,),
            (1,),
            (2,),
        ]
        assert [w.entries for w in branching_set(validate(5, (0, 0)))] == [(0, 0)]

    def test_branches_to_matches_chain_oracle(self):
        for n, entries in KTYPE_SWEEP:
            sigmas = enumerate_weights(n - 1, entries)
            for tau in enumerate_weights(n, entries):
                for sigma in sigmas:
                    assert branches_to(tau, sigma) == interlaces(tau, sigma), (tau, sigma)

    def test_branching_set_matches_brute_force(self):
        for n, entries in KTYPE_SWEEP:
            for tau in enumerate_weights(n, entries):
                top = max((abs(e) for e in tau.entries), default=0)
                expected = [s for s in enumerate_weights(n - 1, top) if interlaces(tau, s)]
                assert branching_set(tau) == expected, tau

    def test_branching_set_is_lexicographic(self):
        out = branching_set(validate(5, (3, 1)))
        assert out == sorted(out, key=lambda w: w.entries)


class TestDimension:
    def test_so3(self):
        for j in range(7):
            assert dimension(validate(3, (j,))) == 2 * j + 1

    def test_so4(self):
        assert dimension(validate(4, (1, 0))) == 4
        assert dimension(validate(4, (1, 1))) == 3
        assert dimension(validate(4, (1, -1))) == 3

    def test_abelian_and_trivial(self):
        assert dimension(validate(2, (9,))) == 1
        assert dimension(validate(1, ())) == 1

    def test_classical_values(self):
        assert dimension(validate(5, (1, 0))) == 5
        assert dimension(validate(5, (1, 1))) == 10
        assert dimension(validate(6, (1, 0, 0))) == 6
        assert dimension(validate(6, (1, 1, 1))) == 10
        assert dimension(validate(6, (1, 1, -1))) == 10
        assert dimension(validate(7, (1, 0, 0))) == 7

    def test_against_restriction_recursion(self):
        # independent oracle: dimension must equal the sum over the
        # interlacing restriction all the way down to SO(2)/SO(1)
        memo = {}

        def by_restriction(w):
            if w.n <= 2:
                return 1
            if w not in memo:
                memo[w] = sum(by_restriction(s) for s in branching_set(w))
            return memo[w]

        for n in range(3, 8):
            for w in enumerate_weights(n, 3):
                assert dimension(w) == by_restriction(w), w

    @given(so_weights(min_n=2, max_n=8))
    def test_dimension_sum_property(self, tau):
        assert dimension(tau) == sum(dimension(s) for s in branching_set(tau))


class TestEnumerateKtypes:
    def test_so2_sigma(self):
        out = enumerate_ktypes_containing(validate(2, (1,)), 3)
        assert [w.entries for w in out] == [(1,), (2,), (3,)]

    def test_so3_trivial_sigma(self):
        out = enumerate_ktypes_containing(validate(3, (0,)), 1)
        assert [w.entries for w in out] == [(0, 0), (1, 0)]

    def test_trivial_bound_zero(self):
        for n in range(1, 6):
            out = enumerate_ktypes_containing(trivial(n), 0)
            assert out == [trivial(n + 1)]

    def test_bound_below_largest_entry(self):
        with pytest.raises(ValueError):
            enumerate_ktypes_containing(validate(2, (-5,)), 4)

    def test_matches_brute_force_filter(self):
        for d, sigma, bound in sweep():
            expected = [t for t in enumerate_weights(d + 1, bound) if interlaces(t, sigma)]
            assert enumerate_ktypes_containing(sigma, bound) == expected, (sigma, bound)

    def test_lexicographic(self):
        out = enumerate_ktypes_containing(validate(4, (2, -1)), 4)
        assert out == sorted(out, key=lambda w: w.entries)


def test_weight_json_roundtrip():
    w = validate(6, (3, 2, -1))
    assert HighestWeight.from_json(w.to_json()) == w
