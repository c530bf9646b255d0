import math

import numpy as np
import pytest

from rankone_gap.quadrature import (
    GAUSS_WEIGHTS,
    KRONROD_WEIGHTS,
    NODES,
    QuadratureError,
    integrate_adaptive,
    richardson_sweep,
)

from oracle_numerics import rectangle_contour_sum, richardson_limit


class TestRuleTables:
    def test_weights_sum_to_two(self):
        assert KRONROD_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-13)
        assert GAUSS_WEIGHTS.sum() == pytest.approx(2.0, abs=1e-13)

    def test_polynomial_exactness(self):
        # Kronrod-15 integrates degree <= 22 exactly, Gauss-7 degree <= 13
        for deg in (10, 15, 22):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            k = float((KRONROD_WEIGHTS * NODES**deg).sum())
            assert k == pytest.approx(exact, abs=5e-15)
        for deg in (9, 13):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            g = float((GAUSS_WEIGHTS * NODES**deg).sum())
            assert g == pytest.approx(exact, abs=5e-15)


class TestAdaptive:
    def test_smooth(self):
        res = integrate_adaptive(np.exp, 0.0, 1.0, tol=1e-12)
        assert res.value == pytest.approx(math.e - 1, rel=1e-13)
        assert res.converged

    def test_peaked_lorentzian(self):
        y = 0.5 * 2**-12
        res = integrate_adaptive(
            lambda x: y / ((x - 0.3) ** 2 + y**2), -1.0, 1.0, tol=1e-9
        )
        exact = math.atan(0.7 / y) + math.atan(1.3 / y)
        assert abs(res.value - exact) < 1e-8
        assert res.converged

    def test_budget_is_honest(self):
        res = integrate_adaptive(lambda x: np.cos(40 * x), 0.0, 3.0, tol=1e-10)
        assert abs(res.value - math.sin(120) / 40) <= 1e-9

    def test_multi_component(self):
        # components integrated under one subdivision; a zero one stays exactly 0
        def f(x):
            return np.stack([x, x**2, np.sin(x), 0 * x])

        res = integrate_adaptive(f, 0.0, 2.0, tol=1e-11)
        assert np.allclose(res.value[:3], [2.0, 8 / 3, 1 - math.cos(2)], rtol=1e-10)
        assert res.value[3] == 0.0

    def test_one_row_stack_keeps_bits(self):
        def f(x):
            return 1e-3 / ((x - 0.3) ** 2 + 1e-6) + np.sin(7 * x)

        flat = integrate_adaptive(f, -1.0, 1.0)
        row = integrate_adaptive(lambda x: f(x)[None], -1.0, 1.0)
        assert row.value[0] == flat.value

    def test_complex_values(self):
        res = integrate_adaptive(lambda x: np.exp(1j * x), 0.0, np.pi, tol=1e-12)
        assert res.value == pytest.approx(2j, abs=1e-12)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            integrate_adaptive(np.exp, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_integrand_ends_quadrature(self, bad):
        # nan panels never converge: without the check they split until the
        # 200,000-panel budget runs out
        with pytest.raises(QuadratureError, match="not finite"):
            integrate_adaptive(lambda x: np.where(x > 0.7, bad, x), 0.0, 1.0)
        with pytest.raises(QuadratureError, match="not finite"):
            integrate_adaptive(lambda x: np.stack([x, np.where(x > 0.7, bad, x) * 1j]), 0.0, 1.0)

    def test_abscissa_overflow_ends_quadrature(self):
        # panel midpoints near 1e308 overflow to inf, where exp(-x) is a finite 0
        with pytest.raises(QuadratureError, match="not finite"):
            integrate_adaptive(lambda x: np.exp(-x), 0.0, 1e308)


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
