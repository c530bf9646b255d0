import math

import numpy as np
import pytest

from rankone_gap.quadrature import (
    CHUNK,
    COUNTS,
    MAX_PANELS,
    NODES,
    RHO,
    WEIGHTS,
    QuadratureError,
    integrate_adaptive,
)
from rankone_gap.stieltjes import richardson_sweep

from oracle_numerics import (
    GAUSS_WEIGHTS,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    gauss_kronrod,
    rectangle_contour_sum,
    richardson_limit,
)


def exp_max(mid, half, rho):
    """max |exp(t)| on the ellipse: at its right end, mid + half (rho + 1/rho) / 2."""
    return np.exp(mid + half * (rho + 1 / rho) / 2)


def cos40_max(mid, half, rho):
    """|cos(40 t)| <= cosh(40 Im t), Im t at most half (rho - 1/rho) / 2 on the ellipse."""
    return np.broadcast_to(np.cosh(40 * half * (rho - 1 / rho) / 2), np.broadcast_shapes(mid.shape, rho.shape))


def never_called(x):
    raise AssertionError("the integrand was evaluated")


class TestRuleTables:
    def test_weights_sum_to_two(self):
        assert WEIGHTS.sum() == pytest.approx(2.0, abs=1e-13)
        assert KRONROD_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-13)
        assert GAUSS_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-13)

    def test_polynomial_exactness(self):
        # Gauss-Legendre-24 integrates degree <= 47 exactly, Kronrod-15 degree
        # <= 22, Gauss-7 degree <= 13
        for deg in (20, 33, 46, 47):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            assert float((WEIGHTS * NODES**deg).sum()) == pytest.approx(exact, abs=5e-15)
        for deg in (10, 15, 22):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            k = float((KRONROD_WEIGHTS * KRONROD_NODES**deg).sum())
            assert k == pytest.approx(exact, abs=5e-15)
        for deg in (9, 13):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            g = float((GAUSS_WEIGHTS * KRONROD_NODES**deg).sum())
            assert g == pytest.approx(exact, abs=5e-15)


class TestProvedBound:
    """The package's rule: the error it proves from the ellipse maximum
    covers the true error, and a refusal comes before any evaluation."""

    @pytest.mark.parametrize("tol", [1e-2, 1e-5, 1e-9, 1e-13])
    def test_exp(self, tol):
        res = integrate_adaptive(np.exp, 0.0, 1.0, tol, exp_max)
        assert res.converged
        assert abs(res.value - (math.e - 1)) <= tol

    @pytest.mark.parametrize("tol", [1e-2, 1e-5, 1e-9, 1e-12])
    def test_cos40(self, tol):
        evals = []

        def f(x):
            evals.append(x.size)
            return np.cos(40 * x)

        res = integrate_adaptive(f, 0.0, 3.0, tol, cos40_max)
        assert res.converged and len(evals) == 1
        assert abs(res.value - math.sin(120) / 40) <= tol
        # 120 radians: 24 nodes on one panel cannot resolve it
        assert evals[0] > NODES.size

    def test_bound_covers_the_first_polynomial_the_rule_misses(self):
        # 24 nodes integrate T_0, ..., T_47 exactly; on T_48 one panel on
        # [-1, 1] errs by 1.55, and |T_48| <= (rho**48 + rho**-48) / 2 on E_rho
        t48 = np.polynomial.Chebyshev.basis(48)

        def one_panel(mid, half, rho):
            return np.where(half == 1.0, (rho**48 + rho**-48) / 2, np.inf) + 0 * mid

        error = abs(integrate_adaptive(t48, -1.0, 1.0, 10.0, one_panel).value + 2 / (48**2 - 1))
        assert 1.5 < error <= 10.0
        # the one panel's bound is above its error, so a tol of the error is refused
        assert not integrate_adaptive(never_called, -1.0, 1.0, error, one_panel).converged

    def test_rows_take_their_own_panel_counts(self):
        # row k is cos(10 4**k x): each row alone gives the bits it gives in the stack
        freqs = np.array([10.0, 40.0, 160.0])

        def rows(x, fs=freqs):
            return np.cos(fs[:, None] * x)

        def rows_max(mid, half, rho, fs=freqs):
            b = (rho - 1 / rho) / 2
            return np.broadcast_to(np.cosh(fs[:, None, None] * half * b), (fs.size, mid.shape[0], rho.size))

        stack = integrate_adaptive(rows, 0.0, 3.0, 1e-10, rows_max)
        assert stack.value.shape == (3,)
        for k, fk in enumerate(freqs):
            alone = integrate_adaptive(lambda x: rows(x, freqs[k:k + 1]), 0.0, 3.0, 1e-10,
                                       lambda m, h, r: rows_max(m, h, r, freqs[k:k + 1]))
            assert alone.value[0] == stack.value[k]
            assert abs(stack.value[k] - math.sin(3 * fk) / fk) <= 1e-10

    def test_complex_values(self):
        res = integrate_adaptive(lambda x: np.exp(1j * x), 0.0, np.pi, 1e-12,
                                 lambda m, h, r: np.exp(h * (r - 1 / r) / 2) + 0 * m)
        assert res.value == pytest.approx(2j, abs=1e-12)

    def test_bound_over_the_cap_is_refused_before_any_evaluation(self):
        halves = []

        def huge(mid, half, rho):
            assert mid.shape[1:] == (1,) and rho.shape == RHO.shape
            halves.append(half)
            return np.full(np.broadcast_shapes(mid.shape, rho.shape), 1e300)

        res = integrate_adaptive(never_called, 0.0, 1.0, 1e-9, huge)
        assert not res.converged
        # every count up to the cap is bounded, each from its first chunk,
        # which already exceeds tol
        assert halves == [0.5 / n for n in COUNTS]

    def test_bound_over_the_cap_at_its_last_panel(self):
        # above the cap's panel width and on its last panel the bound is out
        # of reach; the cap's chunks before the last are within tol, so its
        # bound is summed to the end
        mids = []

        def late(mid, half, rho):
            mids.append(mid)
            return np.where((half > 0.5 / MAX_PANELS) | (mid > 1 - 1 / MAX_PANELS), 1e300, 1.0) + 0 * rho

        res = integrate_adaptive(never_called, 0.0, 1.0, 1e-9, late)
        assert not res.converged
        assert len(mids) == len(COUNTS) - 1 + MAX_PANELS // CHUNK
        assert mids[-1][-1, 0] == 1 - 0.5 / MAX_PANELS

    def test_tolerance_below_the_rounding_term_is_refused(self):
        # 1e10 on [0, 1] is exact on any panel, but its sum rounds at about
        # eps 1e10 / 2 = 1.1e-6, which no panel count lowers
        def flat(mid, half, rho):
            return np.full(np.broadcast_shapes(mid.shape, rho.shape), 1e10)

        assert integrate_adaptive(lambda x: 1e10 + 0 * x, 0.0, 1.0, 1.2e-6, flat).converged
        assert not integrate_adaptive(never_called, 0.0, 1.0, 1e-6, flat).converged

    def test_overflowing_bound_is_refused(self):
        # Im t = 1e308 scales past the float range: inf or nan, never <= tol
        res = integrate_adaptive(never_called, 0.0, 1.0, 1e-9,
                                 lambda m, h, r: np.exp(1e308 * h * (r - 1 / r) + 0 * m))
        assert not res.converged

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_adaptive(np.exp, 1.0, 0.0, 1e-9, exp_max)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_ends_quadrature(self, bad):
        with pytest.raises(QuadratureError, match="not finite"):
            integrate_adaptive(lambda x: np.where(x > 0.7, bad, x), 0.0, 1.0, 1e-9, exp_max)


class TestGaussKronrod:
    """The adaptive oracle the tests compare closed forms against."""

    def test_smooth(self):
        value, converged = gauss_kronrod(np.exp, 0.0, 1.0, tol=1e-12)
        assert value == pytest.approx(math.e - 1, rel=1e-13)
        assert converged

    def test_peaked_lorentzian(self):
        y = 0.5 * 2**-12
        value, converged = gauss_kronrod(
            lambda x: y / ((x - 0.3) ** 2 + y**2), -1.0, 1.0, tol=1e-9
        )
        exact = math.atan(0.7 / y) + math.atan(1.3 / y)
        assert abs(value - exact) < 1e-8
        assert converged

    def test_budget_is_honest(self):
        value, _ = gauss_kronrod(lambda x: np.cos(40 * x), 0.0, 3.0, tol=1e-10)
        assert abs(value - math.sin(120) / 40) <= 1e-9

    def test_multi_component(self):
        # components integrated under one subdivision; a zero one stays exactly 0
        def f(x):
            return np.stack([x, x**2, np.sin(x), 0 * x])

        value, _ = gauss_kronrod(f, 0.0, 2.0, tol=1e-11)
        assert np.allclose(value[:3], [2.0, 8 / 3, 1 - math.cos(2)], rtol=1e-10)
        assert value[3] == 0.0

    def test_one_row_stack_keeps_bits(self):
        def f(x):
            return 1e-3 / ((x - 0.3) ** 2 + 1e-6) + np.sin(7 * x)

        flat, _ = gauss_kronrod(f, -1.0, 1.0)
        row, _ = gauss_kronrod(lambda x: f(x)[None], -1.0, 1.0)
        assert row[0] == flat

    def test_complex_values(self):
        value, _ = gauss_kronrod(lambda x: np.exp(1j * x), 0.0, np.pi, tol=1e-12)
        assert value == pytest.approx(2j, abs=1e-12)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            gauss_kronrod(np.exp, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_ends_quadrature(self, bad):
        # nan panels never converge: without the check they split until the
        # 200,000-panel budget runs out
        with pytest.raises(QuadratureError, match="not finite"):
            gauss_kronrod(lambda x: np.where(x > 0.7, bad, x), 0.0, 1.0)
        with pytest.raises(QuadratureError, match="not finite"):
            gauss_kronrod(lambda x: np.stack([x, np.where(x > 0.7, bad, x) * 1j]), 0.0, 1.0)

    def test_abscissa_overflow_ends_quadrature(self):
        # panel midpoints near 1e308 overflow to inf, where exp(-x) is a finite 0
        with pytest.raises(QuadratureError, match="not finite"):
            gauss_kronrod(lambda x: np.exp(-x), 0.0, 1e308)


class TestRichardson:
    def test_sweep_kills_linear_term(self):
        hs = [0.5 * 2**-k for k in range(8)]
        vals = [3.0 + 2.0 * h for h in hs]
        swept = richardson_sweep(np.array(vals))
        assert np.allclose(swept, 3.0, atol=1e-14)

    def test_limit_on_polynomial_error(self):
        hs = [1e-3 * 2**-k for k in range(9)]
        vals = [1.5 + 0.7 * h + 0.3 * h**2 + h**3 for h in hs]
        limit, est = richardson_limit(vals)
        assert abs(limit - 1.5) < 1e-14
        assert est < 1e-10

    def test_limit_damps_h_log_h(self):
        # log terms are outside the power-series model, so the table only
        # damps them; it must still do far better than the raw sequence
        hs = [1e-3 * 2**-k for k in range(9)]
        vals = [0.25 + h * math.log(h) for h in hs]
        limit, _ = richardson_limit(vals)
        assert abs(limit - 0.25) < 1e-5
        assert abs(limit - 0.25) < 0.1 * abs(vals[-1] - 0.25)


class TestContour:
    def test_cauchy_integral(self):
        out = rectangle_contour_sum(lambda z: 1.0 / z, -1, 1, -1, 1)
        assert out == pytest.approx(2j * math.pi, abs=1e-10)

    def test_holomorphic_vanishes(self):
        out = rectangle_contour_sum(lambda z: np.exp(z) * z**2, -1, 1, -1, 1)
        assert abs(out) < 1e-12

    def test_residue_off_center(self):
        out = rectangle_contour_sum(lambda z: 3.0 / (z - 0.2 - 0.1j), 0, 1, -0.5, 0.5)
        assert out == pytest.approx(6j * math.pi, abs=1e-8)
