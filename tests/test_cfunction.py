import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rankone_gap import (
    EvaluationOverflowError,
    GammaRatioExpr,
    cfunction_expr,
    dimension,
    dual,
    enumerate_ktypes_containing,
    evaluate,
    halfopen_grid,
    main_term_scalar,
    nonvanishing_scan,
    validate,
    witness_ktype,
)
from rankone_gap.cfunction import TOL_POLE, _evaluate_grid

from oracle_weights import enumerate_weights


def F(x):
    return Fraction(x)


class TestExpr:
    def test_d2_trivial_reduces(self):
        expr = cfunction_expr(validate(3, (0,)), validate(2, (0,)), 2)
        assert expr.prefactor == 1
        assert expr.two_power == (0, 0)
        assert Counter(expr.numerator) == Counter({(F(1), F(0)): 1})
        assert Counter(expr.denominator) == Counter({(F(1), F(1)): 1})

    def test_d1_shape(self):
        expr = cfunction_expr(validate(2, (0,)), validate(1, ()), 1)
        assert expr.two_power == (F(-2), F(1))
        assert Counter(expr.numerator) == Counter({(F(2), F(0)): 1})
        assert Counter(expr.denominator) == Counter({(F(1), Fraction(1, 2)): 2})

    def test_d2_sigma_one_cancellation(self):
        expr = cfunction_expr(validate(3, (1,)), validate(2, (1,)), 2)
        assert Counter(expr.numerator) == Counter({(F(1), F(1)): 1})
        assert Counter(expr.denominator) == Counter({(F(1), F(2)): 1})

    def test_offsets_are_half_integers(self):
        for d in range(1, 7):
            for sigma in enumerate_weights(d, 2):
                tau = witness_ktype(sigma, d)
                expr = cfunction_expr(tau, dual(sigma), d)
                for u, a in expr.numerator + expr.denominator:
                    assert u in (1, 2)
                    assert (2 * a).denominator == 1

    def test_rejects_non_contained(self):
        with pytest.raises(ValueError):
            cfunction_expr(validate(3, (1,)), validate(2, (2,)), 2)

    def test_normalized_idempotent(self):
        expr = cfunction_expr(
            validate(3, (1,)), validate(2, (1,)), 2, normalize=False
        )
        once = expr.normalized()
        assert once.normalized() == once
        # the shared Gamma(s-1) pair cancels
        assert len(once.numerator) < len(expr.numerator)


class TestEvaluate:
    def test_one_over_s(self):
        expr = cfunction_expr(validate(3, (0,)), validate(2, (0,)), 2)
        gv = evaluate(expr, 2.0)
        assert gv.classification == "finite"
        assert gv.value == pytest.approx(0.5, rel=1e-14)

    def test_d1_two_over_pi(self):
        expr = cfunction_expr(validate(2, (0,)), validate(1, ()), 1)
        assert evaluate(expr, 1.0).value == pytest.approx(2 / math.pi, rel=1e-13)

    def test_polynomial_reduction_zero_and_value(self):
        # expression reduces to (s-1)(s-2) / (s(s+1)(s+2))
        expr = cfunction_expr(validate(3, (2,)), validate(2, (0,)), 2)
        assert evaluate(expr, 2.0).classification == "zero"
        assert evaluate(expr, 2.0).value == 0.0
        assert evaluate(expr, 3.0).value == pytest.approx(1 / 30, rel=1e-12)

    def test_pole_classification(self):
        expr = GammaRatioExpr(
            prefactor=F(1),
            two_power=(F(0), F(0)),
            numerator=((F(1), F(-2)),),
            denominator=((F(1), F(0)),),
        )
        # Gamma(s-2)/Gamma(s) at s=1: numerator pole, denominator regular
        assert evaluate(expr, 1.0).classification == "pole"

    def test_paired_singularities_take_limit(self):
        # Gamma(s-1)/Gamma(s-2) -> s-2 near s=1, limit -1
        expr = GammaRatioExpr(
            prefactor=F(1),
            two_power=(F(0), F(0)),
            numerator=((F(1), F(-1)),),
            denominator=((F(1), F(-2)),),
        )
        gv = evaluate(expr, 1.0)
        assert gv.classification == "finite"
        assert gv.value == pytest.approx(-1.0, rel=1e-12)

    def test_negative_argument_sign(self):
        # Gamma(s-2) at s=1.5 is Gamma(-0.5) = -2 sqrt(pi)
        expr = GammaRatioExpr(
            prefactor=F(1),
            two_power=(F(0), F(0)),
            numerator=((F(1), F(-2)),),
            denominator=(),
        )
        assert evaluate(expr, 1.5).value == pytest.approx(
            -2 * math.sqrt(math.pi), rel=1e-12
        )

    def test_overflow_reported(self):
        expr = GammaRatioExpr(
            prefactor=F(1),
            two_power=(F(0), F(0)),
            numerator=((F(1), F(400)),),
            denominator=(),
        )
        with pytest.raises(EvaluationOverflowError):
            evaluate(expr, 1.0)

    def test_duplication_formula_consistency(self):
        # Gamma(2s) is carried as written; the classical closed form
        # Gamma(s)/(sqrt(pi) Gamma(s+1/2)) is an independent oracle
        expr = cfunction_expr(validate(2, (0,)), validate(1, ()), 1)
        for s in halfopen_grid(0.51, 1.0, 101):
            mine = evaluate(expr, s).value
            oracle = math.gamma(s) / (math.sqrt(math.pi) * math.gamma(s + 0.5))
            assert abs(mine - oracle) <= 1e-12 * abs(oracle)

    @settings(max_examples=120)
    @given(st.data())
    def test_normalized_matches_naive_product(self, data):
        d = data.draw(st.integers(1, 6))
        sigmas = enumerate_weights(d, 3)
        sigma = data.draw(st.sampled_from(sigmas))
        tau = witness_ktype(sigma, d)
        s = data.draw(
            st.floats(d / 2 + 0.1, float(d), allow_nan=False, allow_infinity=False)
        )
        raw = cfunction_expr(tau, dual(sigma), d, normalize=False)
        canceled = raw.normalized()
        gv_raw = evaluate(raw, s)
        gv_can = evaluate(canceled, s)
        if "finite" == gv_raw.classification == gv_can.classification:
            assert gv_can.value == pytest.approx(gv_raw.value, rel=1e-10)


class TestMainTermScalar:
    def test_trivial(self):
        assert main_term_scalar(
            validate(3, (0,)), validate(2, (0,)), 2.0, 2
        ) == pytest.approx(0.5, rel=1e-13)

    def test_dimension_ratio(self):
        value = main_term_scalar(validate(3, (1,)), validate(2, (1,)), 1.5, 2)
        assert value == pytest.approx(1.2, rel=1e-13)
        assert dimension(validate(3, (1,))) == 3

    def test_d1(self):
        assert main_term_scalar(
            validate(2, (0,)), validate(1, ()), 1.0, 1
        ) == pytest.approx(2 / math.pi, rel=1e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            main_term_scalar(validate(3, (0,)), validate(2, (0,)), 1.0, 2)


class TestNonvanishingScan:
    def test_closed_form_values_d2(self):
        report = nonvanishing_scan(validate(2, (1,)), 2, halfopen_grid(1.0, 2.0, 101))
        assert report.passed
        for s, value, cls in report.rows:
            assert cls == "finite"
            assert value == pytest.approx(1 / (s + 1), rel=1e-12)
        assert 1 / 3 - 1e-12 <= report.min_abs < 1 / 2

    def test_d3_passes(self):
        report = nonvanishing_scan(validate(3, (1,)), 3, halfopen_grid(1.5, 3.0, 101))
        assert report.passed and report.zero_count == 0 and report.pole_count == 0

    def test_negative_control_wrong_tau(self):
        report = nonvanishing_scan(
            validate(2, (0,)),
            2,
            [1.5, 2.0],
            tau=validate(3, (2,)),
        )
        assert not report.passed
        assert report.zero_count == 1

    def test_all_small_cases_pass(self):
        for d in range(1, 5):
            for sigma in enumerate_weights(d, 2):
                grid = halfopen_grid(d / 2, float(d), 25)
                assert nonvanishing_scan(sigma, d, grid).passed, (d, sigma)


def test_halfopen_grid_endpoints():
    grid = halfopen_grid(1.0, 2.0, 101)
    assert len(grid) == 101
    assert grid[0] > 1.0
    assert grid[-1] == 2.0


def mp_ratio(expr, s, dps=30):
    """The ratio at s from its Gamma factors in dps-digit mpmath; rgamma is
    entire, so denominator factors may sit anywhere."""
    with mpmath.workdps(dps):
        s = mpmath.mpf(s)

        def mp(q):
            return mpmath.mpf(q.numerator) / q.denominator

        alpha, beta = expr.two_power
        out = mp(expr.prefactor) * mpmath.power(2, mp(alpha) * s + mp(beta))
        for u, a in expr.numerator:
            out *= mpmath.gamma(mp(u) * s + mp(a))
        for u, a in expr.denominator:
            out *= mpmath.rgamma(mp(u) * s + mp(a))
        return out


def mp_value(expr, s):
    """``mp_ratio`` at s, or, where a numerator Gamma factor is singular at s
    itself, its limit there (the ratio 1e-40 away, in 60 digits)."""
    try:
        return mp_ratio(expr, s)
    except ValueError:
        with mpmath.workdps(60):
            return mp_ratio(expr, mpmath.mpf(s) + mpmath.mpf(10) ** -40, dps=60)


def singular_slopes(factors, s0):
    """Slopes u of the factors whose argument u*s0 + a is a non-positive integer."""
    return [u for u, a in factors if (u * s0 + a).denominator == 1 and u * s0 + a <= 0]


# within TOL_POLE = 1e-9 of s0 in s, whatever the slopes: from 5e-10 on, the
# argument of a slope-2 factor (odd d, Gamma(2s)) is more than 1e-9 from its pole
PAIRED_OFFSETS = (1e-10, -2e-10, 4.5e-10, -4.5e-10, 6e-10, -6e-10, 9e-10, -9e-10)


def paired_cases(d, limit=4):
    """(sigma, tau, points): ratios whose numerator and denominator have
    equally many singular Gamma arguments at a half-integer s0, and the points
    near s0 at which every one of them counts as a hit."""
    found = []
    for sigma in enumerate_weights(d, 2):
        for tau in enumerate_ktypes_containing(dual(sigma), 3):
            expr = cfunction_expr(tau, dual(sigma), d)
            for k in range(-4 * d, 4 * d + 1):
                s0 = Fraction(k, 2)
                num = singular_slopes(expr.numerator, s0)
                den = singular_slopes(expr.denominator, s0)
                if num and len(num) == len(den):
                    found.append((sigma, tau, [float(s0) + off for off in PAIRED_OFFSETS]))
                    if len(found) == limit:
                        return found
    return found


class TestPairedSingularities:
    """Near a point where numerator and denominator Gamma poles pair up, the
    value is the ratio at s, not its limit at the singular point."""

    def test_d8_witness_value(self):
        expr = cfunction_expr(validate(9, (3, 3, 3, 0)), validate(8, (3, 3, 0, 0)), 8)
        s = -6.999999999055044
        gv = evaluate(expr, s)
        assert gv.classification == "finite"
        assert gv.value == pytest.approx(float(mp_ratio(expr, s)), rel=1e-12)
        assert gv.value == pytest.approx(165.000000357182, rel=1e-14)

    def test_d3_slope_two_hit_counts_by_distance_in_s(self):
        # 9e-10 from s0 = -1/2 in s, 1.8e-9 in the argument of Gamma(2s)
        expr = cfunction_expr(validate(4, (0, 0)), dual(validate(3, (0,))), 3)
        gv = evaluate(expr, -0.5 + 9e-10)
        assert gv.classification == "finite"
        assert gv.value == pytest.approx(float(mp_ratio(expr, -0.5 + 9e-10)), rel=1e-12)
        assert gv.value == pytest.approx(-8.00000000441868, rel=1e-12)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_offsets_from_half_integers(self, d):
        cases = paired_cases(d)
        assert cases
        for sigma, tau, points in cases:
            expr = cfunction_expr(tau, dual(sigma), d)
            for s in points:
                gv = evaluate(expr, s)
                assert gv.classification == "finite", (d, sigma, s)
                ref = float(mp_ratio(expr, s))
                assert gv.value == pytest.approx(ref, rel=1e-12), (d, sigma, s)
            report = nonvanishing_scan(sigma, d, points, tau=tau)
            assert report.rows == tuple(
                (s, evaluate(expr, s).value, evaluate(expr, s).classification) for s in points
            )


def bit_pin_pairs(d):
    """A witness pair and a non-witness pair (sigma, tau) for SO(d)."""
    sigma = enumerate_weights(d, 2)[-1]
    witness = witness_ktype(sigma, d)
    other = next(t for t in enumerate_ktypes_containing(dual(sigma), 3) if t != witness)
    return [(sigma, witness), (sigma, other)]


def reference_class(expr, s):
    """The class at s from the written Gamma factors one at a time: a factor
    Gamma(u*s + a) is singular when |s - s0| <= TOL_POLE at a half-integer s0
    where u*s0 + a is a non-positive integer, and the net count of singular
    factors, numerator minus denominator, gives pole, zero or finite."""
    s0 = round(2 * s) / 2
    net = 0
    if abs(s - s0) <= TOL_POLE:
        for factors, side in ((expr.numerator, 1), (expr.denominator, -1)):
            for u, a in factors:
                k = float(u) * s0 + float(a)
                net += side * (k <= 0 and k == math.floor(k))
    return "pole" if net > 0 else "zero" if net < 0 else "finite"


def mixed_grid(expr, d):
    """Negative s (half-integers among them), (0, 8] and log-spaced s from
    1e3 up to 1e300 or where the value leaves double range, shuffled."""
    # |value| ~ s**p as s grows, with p the sum of a - 1/2 over the numerator
    # factors Gamma(u*s + a) minus that over the denominator
    half = Fraction(1, 2)
    growth = abs(float(sum(a - half for _, a in expr.numerator) - sum(a - half for _, a in expr.denominator)))
    far = np.logspace(3, 300, 100)
    grid = np.concatenate([
        halfopen_grid(-2.0 * d, 0.0, 8 * d), -np.logspace(3, 15, 20), halfopen_grid(0.0, 8.0, 100),
        far[growth * np.log10(far) < 300],
    ])
    return np.random.default_rng(d).permutation(grid)


@pytest.mark.parametrize("d", range(1, 9))
def test_evaluate_grid_bits_match_pointwise_reference(d):
    # == on purpose: a grid and a single point go through one evaluator, so
    # a scan row and `cfun eval` at the same s print the same digits
    classes_seen = set()
    for sigma, tau in bit_pin_pairs(d):
        expr = cfunction_expr(tau, dual(sigma), d)
        for grid in (halfopen_grid(d / 2, float(d), 2000), halfopen_grid(-float(d), float(d), 2000),
                     mixed_grid(expr, d)):
            values, classes = _evaluate_grid(expr, grid)
            reference = [evaluate(expr, s) for s in grid]
            assert values.tolist() == [gv.value for gv in reference], (d, sigma, tau, grid[0])
            assert classes.tolist() == [gv.classification for gv in reference], (d, sigma, tau, grid[0])
            # the classes of the written factors, before pairing and duplication
            assert classes.tolist() == [reference_class(expr, s) for s in grid], (d, sigma, tau, grid[0])
            classes_seen.update(classes.tolist())
    assert "finite" in classes_seen


# worst relative error against mp_value on these samples: 1.25e-15 on
# (d/2, d] and 1.35e-15 on (-d, d] with the odd-d Gamma(s) / Gamma(s + 1/2)
# in one array kernel (7.46e-15 and 7.09e-15 with it on two math.lgamma
# rows, commit 0aa3a24; 1.43e-14 and 3.89e-14 when every factor went through
# math.lgamma, commit 90caf4f)
@pytest.mark.parametrize("d", range(1, 9))
def test_evaluate_grid_near_mpmath(d):
    rng = random.Random(d)
    for sigma, tau in bit_pin_pairs(d):
        expr = cfunction_expr(tau, dual(sigma), d)
        for lo in (d / 2, -float(d)):
            grid = halfopen_grid(lo, float(d), 2000)
            values, classes = _evaluate_grid(expr, grid)
            for i in sorted(rng.sample(range(2000), 150)):
                if classes[i] == "finite":
                    ref = mp_value(expr, grid[i])
                    assert abs(values[i] - ref) <= 1e-14 * abs(ref), (d, sigma, tau, grid[i])


# two math.lgamma rows that cancelled as s grew were 1.5e-9 off at 1e6,
# 3.6% at 1e13 and 45 times the value at 1e15 (commit 0aa3a24)
@pytest.mark.parametrize("d", (1, 3, 5, 7))
def test_odd_d_large_s_near_mpmath(d):
    for sigma in enumerate_weights(d, 1):
        expr = cfunction_expr(witness_ktype(sigma, d), dual(sigma), d)
        for s in (1e2, 1e4, 1e6, 1e10, 1e13, 1e15, 1e20):
            gv = evaluate(expr, s)
            ref = mp_ratio(expr, s)
            assert gv.classification == "finite"
            assert abs(gv.value - ref) <= 1e-13 * abs(ref), (d, sigma, s)


def test_half_integer_offset_near_mpmath():
    # Gamma(s + 1/2) / Gamma(s + 3) = R(s + 1/2) / ((s + 1)(s + 2)), with
    # R(x) = Gamma(x) / Gamma(x + 1/2) at a half-integer offset, where the
    # reflection reads cot(pi x) as -tan(pi r)
    expr = GammaRatioExpr(F(1), (F(0), F(0)), ((F(1), Fraction(1, 2)),), ((F(1), F(3)),))
    assert expr.reduced.halves == (0.5,)
    near = [k / 2 + off for k in range(-16, 8) for off in (0.0, 2e-10, -2e-10, 2e-9, -2e-9, 1e-6)]
    grid = np.concatenate([halfopen_grid(-8.0, 4.0, 960), near, [-1e10 - 0.3, -2.5e14 + 0.25]])
    values, classes = _evaluate_grid(expr, grid)
    assert classes.tolist() == [reference_class(expr, s) for s in grid]
    assert {"finite", "zero", "pole"} <= set(classes.tolist())
    for s, value, cls in zip(grid.tolist(), values.tolist(), classes.tolist()):
        if cls == "finite":
            ref = mp_ratio(expr, s)
            assert abs(value - ref) <= 1e-14 * abs(ref), s


def pairing_cases(d):
    """(sigma, tau): the witness and up to three other K-types for each sigma
    with entries of magnitude <= 2."""
    for sigma in enumerate_weights(d, 2):
        witness = witness_ktype(sigma, d)
        others = [t for t in enumerate_ktypes_containing(dual(sigma), 3) if t != witness]
        for tau in [witness, *others[:3]]:
            yield sigma, tau


class TestReduced:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_rational_up_to_one_gamma_ratio(self, d):
        # even d: a constant times a rational function; odd d: that times one
        # Gamma(s) / Gamma(s + 1/2), what is left of Gamma(s) / Gamma(s + m + 1/2)
        for sigma, tau in pairing_cases(d):
            red = cfunction_expr(tau, dual(sigma), d).reduced
            assert red.log_two == (0.0, 0.0)
            assert red.linear.size <= 12
            assert red.gamma_offsets.size == 0
            assert red.halves == (() if d % 2 == 0 else (0.0,))

    def test_odd_d_constant(self):
        # 2**(-2s+d) Gamma(2s) = 2**(d-1) / sqrt(pi) * Gamma(s) Gamma(s + 1/2)
        red = cfunction_expr(validate(4, (0, 0)), validate(3, (0,)), 3).reduced
        assert math.ldexp(red.mantissa, red.exponent) == pytest.approx(4 / math.sqrt(math.pi), rel=1e-15)

    def test_large_offsets_stay_on_log_gamma(self):
        expr = cfunction_expr(validate(3, (1000000,)), validate(2, (0,)), 2)
        red = expr.reduced
        assert red.linear.size == 0 and red.gamma_offsets.size == 4
        # log-Gamma near 1e6 is good to about 1e-9 relative (commit 90caf4f:
        # 4.61e-9 at worst on these points, too)
        report = nonvanishing_scan(validate(2, (0,)), 2, halfopen_grid(1.0, 2.0, 20000),
                                   tau=validate(3, (1000000,)))
        rng = random.Random(0)
        for i in sorted(rng.sample(range(20000), 40)):
            ref = mp_ratio(expr, report.s[i])
            assert abs(report.values[i] - ref) <= 5e-9 * abs(ref)

    def test_intermediate_products_do_not_overflow(self):
        # (s+1)...(s+16) / ((s+101)...(s+116)) at s = 1e300: each side is
        # out of range, the value is about 1
        expr = GammaRatioExpr(
            prefactor=F(1),
            two_power=(F(0), F(0)),
            numerator=((F(1), F(17)), (F(1), F(101))),
            denominator=((F(1), F(1)), (F(1), F(117))),
        )
        assert expr.reduced.linear.size == 32
        gv = evaluate(expr, 1e300)
        assert gv.classification == "finite"
        assert gv.value == pytest.approx(1.0, rel=1e-14)

    def test_rejects_off_half_integer_singularities(self):
        expr = GammaRatioExpr(F(1), (F(0), F(0)), ((F(2), Fraction(1, 2)),), ())
        with pytest.raises(ValueError):
            evaluate(expr, 1.0)
