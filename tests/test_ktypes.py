from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given

from rankone_gap import (
    branches_to,
    default_search_bound,
    dual,
    minimal_ktypes,
    minimality_norm,
    validate,
    witness_ktype,
)

from conftest import so_weights
from oracle_weights import brute_minimal_ktypes, enumerate_weights, norm, sweep


class TestMinimalityNorm:
    def test_d2(self):
        assert minimality_norm(validate(3, (0,)), 2) == Fraction(1, 4)
        assert minimality_norm(validate(3, (1,)), 2) == Fraction(9, 4)

    def test_d3(self):
        assert minimality_norm(validate(4, (0, 0)), 3) == 1
        assert minimality_norm(validate(4, (1, 0)), 3) == 4

    def test_d1_is_square_of_entry(self):
        assert minimality_norm(validate(2, (0,)), 1) == 0
        assert minimality_norm(validate(2, (-3,)), 1) == 9

    def test_wrong_group(self):
        with pytest.raises(ValueError):
            minimality_norm(validate(3, (1,)), 3)

    @given(so_weights(min_n=2, max_n=8))
    def test_against_expanded_form(self, tau):
        d = tau.n - 1
        assert minimality_norm(tau, d) == norm(tau, d)

    @given(so_weights(min_n=2, max_n=8))
    def test_nonnegative(self, tau):
        assert minimality_norm(tau, tau.n - 1) >= 0

    def test_dual_invariance_for_even_group(self):
        # the last entry of an even-rank K-type enters squared with offset 0
        for tau in enumerate_weights(4, 3) + enumerate_weights(6, 3):
            d = tau.n - 1
            assert minimality_norm(tau, d) == minimality_norm(dual(tau), d)


class TestWitness:
    def test_even_d_takes_abs(self):
        assert witness_ktype(validate(4, (2, -1)), 4).entries == (2, 1)

    def test_odd_d_appends_zero(self):
        assert witness_ktype(validate(3, (2,)), 3).entries == (2, 0)

    def test_d1(self):
        assert witness_ktype(validate(1, ()), 1).entries == (0,)

    def test_contains_sigma_and_dual_everywhere(self):
        for d in range(1, 8):
            for sigma in enumerate_weights(d, 3):
                tau = witness_ktype(sigma, d)
                assert branches_to(tau, sigma), (d, sigma)
                assert branches_to(tau, dual(sigma)), (d, sigma)


class TestMinimalKtypes:
    def test_d2_sigma_one(self):
        minimizers, report = minimal_ktypes(validate(2, (1,)), 2, 4)
        assert [w.entries for w in minimizers] == [(1,)]
        assert report.lambda_value == Fraction(9, 4)
        assert report.is_minimal_over_bound

    def test_d3_sigma_one(self):
        minimizers, report = minimal_ktypes(validate(3, (1,)), 3, 3)
        assert validate(4, (1, 0)) in minimizers
        assert report.lambda_value == 4
        assert report.is_minimal_over_bound

    def test_d2_trivial(self):
        minimizers, report = minimal_ktypes(validate(2, (0,)), 2, 2)
        assert [w.entries for w in minimizers] == [(0,)]
        assert report.lambda_value == Fraction(1, 4)

    def test_witness_attains_minimum(self):
        for d in range(1, 7):
            for sigma in enumerate_weights(d, 3):
                _, report = minimal_ktypes(sigma, d)
                assert report.contains_sigma and report.contains_sigma_dual
                assert report.is_minimal_over_bound, (d, sigma)

    def test_larger_bound_never_beats_minimum(self):
        for d in (1, 2, 3, 4):
            for sigma in enumerate_weights(d, 2):
                bound = default_search_bound(sigma)
                _, rep_small = minimal_ktypes(sigma, d, bound)
                _, rep_large = minimal_ktypes(sigma, d, bound + 2)
                assert rep_small.is_minimal_over_bound
                assert rep_large.is_minimal_over_bound

    def test_default_bound_covers_negative_entries(self):
        minimizers, report = minimal_ktypes(validate(2, (-5,)), 2, None)
        assert report.search_bound == 8
        assert report.is_minimal_over_bound
        assert minimizers[0].entries == (5,)

    def test_empty_candidate_error(self):
        with pytest.raises(ValueError):
            minimal_ktypes(validate(2, (2,)), 2, 1)

    def test_matches_brute_force_oracle(self):
        for d, sigma, bound in sweep():
            minimizers, report = minimal_ktypes(sigma, d, bound)
            assert minimizers == brute_minimal_ktypes(sigma, d, bound), (sigma, bound)
            assert minimizers == [witness_ktype(sigma, d)], sigma
            assert report.is_minimal_over_bound and report.search_bound == bound

    def test_bound_does_not_drive_cost(self):
        # a bound of 10**12 once meant ~1.5e13 candidates; it is now only echoed
        minimizers, report = minimal_ktypes(validate(5, (4, 2)), 5, 10**12)
        assert minimizers == [validate(6, (4, 2, 0))]
        assert report.is_minimal_over_bound and report.search_bound == 10**12
        for d in range(1, 9):
            for sigma in enumerate_weights(d, 3):
                mins, rep = minimal_ktypes(sigma, d)
                huge = minimal_ktypes(sigma, d, 10**12)
                assert huge == (mins, replace(rep, search_bound=10**12)), sigma
