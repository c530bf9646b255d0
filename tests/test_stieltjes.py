import math

import mpmath
import numpy as np
import pytest

from rankone_gap import (
    RealLineMeasure,
    SingularPointError,
    half_weighted_mass,
    invert_interval,
    is_zero_by_interval_family,
    transform,
    vanishing_detector,
)

from oracle_numerics import rectangle_contour_sum

ATOM0 = RealLineMeasure(atoms=((0.0, 1.0),))
UNIFORM01 = RealLineMeasure(pieces=((0.0, 1.0, (1.0,)),))


def mp_transform(nu: RealLineMeasure, z, dps: int = 50) -> complex:
    """Reference Stieltjes transform in mpmath at ``dps`` digits: atoms plus,
    per piece, -int q + p(z) log((z - lo)/(z - hi)) with q = (p - p(z))/(t - z)
    taken in the original variable t (no midpoint shift, no series)."""
    with mpmath.workdps(dps):
        z = mpmath.mpc(z)
        total = mpmath.mpc(0)
        for atom in nu.atoms:
            total += mpmath.mpc(atom.weight) / (z - atom.location)
        for piece in nu.pieces:
            c = [mpmath.mpc(x) for x in piece.coeffs]
            lo, hi = mpmath.mpf(piece.lo), mpmath.mpf(piece.hi)
            q, b = [], c[-1]
            for ck in reversed(c[:-1]):  # synthetic division by (t - z)
                q.append(b)
                b = ck + z * b
            int_q = sum(
                qk * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
                for k, qk in enumerate(reversed(q))
            )
            total += -int_q + b * (mpmath.log(z - lo) - mpmath.log(z - hi))
        return complex(total)


def deg16_piece(lo: float, hi: float, seed: int) -> RealLineMeasure:
    """Degree-16 density with unscaled coefficients: |p| reaches ~hi**16."""
    rng = np.random.default_rng(seed)
    coeffs = tuple(np.round(rng.uniform(-1, 1, 17), 4))
    return RealLineMeasure(pieces=((lo, hi, coeffs),))


class TestTransform:
    def test_unit_atom_at_i(self):
        assert transform(ATOM0, 1j) == pytest.approx(-1j)

    def test_uniform_log(self):
        assert transform(UNIFORM01, 2.0) == pytest.approx(math.log(2), rel=1e-10)

    def test_linearity(self):
        nu1 = RealLineMeasure(atoms=((0.2, 1.5),))
        nu2 = RealLineMeasure(pieces=((0.0, 1.0, (0.0, 2.0)),))
        z = 1.3 + 0.7j
        assert transform(nu1 + nu2, z) == pytest.approx(
            transform(nu1, z) + transform(nu2, z), rel=1e-10
        )

    def test_closed_form_oracle_agreement(self):
        nu = RealLineMeasure(
            atoms=((0.3, 1.0 - 0.5j),),
            pieces=((0.0, 1.0, (1.0, -1.0, 0.5)),),
        )
        for z in (2.0, -1.5, 0.5 + 0.2j, 0.5 + 1e-4j, -0.1 - 0.3j):
            assert transform(nu, z) == pytest.approx(mp_transform(nu, z), rel=1e-12)

    def test_mp_oracle_matches_mpmath_quad(self):
        nu = RealLineMeasure(pieces=((0.0, 1.0, (1.0, -1.0, 0.5)),))
        p = nu.pieces[0]
        for z in (2.0, 0.5 + 0.2j, -0.1 - 0.3j):
            quad = mpmath.quad(lambda t: complex(p(t)) / (z - t), [0, 0.5, 1])
            assert mp_transform(nu, z) == pytest.approx(complex(quad), rel=1e-12)

    @pytest.mark.parametrize("lo, hi, seed", [(1.5, 3.0, 1), (1.5, 3.0, 2), (2.0, 4.0, 3), (2.0, 4.0, 4)])
    @pytest.mark.parametrize("height", [1e-3, 1e-2])
    def test_degree16_near_top_of_piece(self, lo, hi, seed, height):
        nu = deg16_piece(lo, hi, seed)
        for x in (0.9 * hi, hi - 0.01, hi + 0.005):
            z = complex(x, height)
            assert transform(nu, z) == pytest.approx(mp_transform(nu, z), rel=1e-12)

    def test_far_offset_piece(self):
        # [100, 101] in the monomial basis of t: coefficients scaled so p = O(1)
        nu = RealLineMeasure(
            atoms=((100.7, 0.25),),
            pieces=((100.0, 101.0, (1.0, -0.5 / 100, 0.25 / 100**2, 2e-7j)),),
        )
        for z in (100.5 + 1e-3j, 100.999 + 1e-4j, 99.9 - 0.01j, 101.3 + 0j, 102 + 2j):
            assert transform(nu, z) == pytest.approx(mp_transform(nu, z), rel=1e-12)

    @pytest.mark.parametrize("deg", [1, 2, 4, 8, 16])
    def test_far_from_piece(self, deg):
        # moment-series side of the kernel: |z - midpoint| well beyond the width
        rng = np.random.default_rng(deg)
        coeffs = tuple(rng.uniform(-1, 1, deg + 1) + 1j * rng.uniform(-1, 1, deg + 1))
        nu = RealLineMeasure(pieces=((1.0, 1.2, coeffs),))
        for z in (1.5 + 0.1j, 3.0 + 0j, -40.0 + 7j, 1.1 + 300j, 2e4 - 1e4j):
            # the reference cancels ~|z|**deg in t; 150 digits cover it
            ref = mp_transform(nu, z, dps=150)
            assert transform(nu, z) == pytest.approx(ref, rel=1e-12)

    def test_vectorized(self):
        zs = np.array([2.0 + 0j, 1j, -3.0 + 0.5j])
        out = transform(UNIFORM01, zs)
        assert out.shape == zs.shape
        for z, v in zip(zs, out):
            assert v == pytest.approx(transform(UNIFORM01, complex(z)), rel=1e-10)

    def test_singular_point_rejected(self):
        with pytest.raises(SingularPointError):
            transform(ATOM0, 0.0 + 0j)
        with pytest.raises(SingularPointError):
            transform(UNIFORM01, 0.5 + 0j)

    def test_zero_atom_is_off_the_support(self):
        nu = RealLineMeasure(atoms=((0.5, 0.0), (0.2, 1.0)))
        assert transform(nu, 0.5 + 0j) == pytest.approx(1 / 0.3, rel=1e-15)

    def test_conjugate_symmetry_for_real_measures(self):
        nu = RealLineMeasure(atoms=((0.1, -0.7),), pieces=((0.2, 0.9, (1.0, 1.0)),))
        for z in (0.4 + 0.3j, -1.0 + 2j, 2.5 + 0.01j):
            assert transform(nu, np.conj(z)) == pytest.approx(
                np.conj(transform(nu, z)), rel=1e-9
            )

    def test_morera_rectangles_vanish(self):
        nu = RealLineMeasure(atoms=((0.5, 1.0 + 1.0j),), pieces=((0.0, 1.0, (2.0,)),))
        F = lambda z: transform(nu, z)  # noqa: E731
        assert abs(rectangle_contour_sum(F, -0.4, 1.3, 0.2, 0.9)) < 1e-8
        assert abs(rectangle_contour_sum(F, 1.5, 2.5, -0.4, 0.4)) < 1e-8
        # a rectangle around the whole support picks up 2 pi i times the mass
        assert rectangle_contour_sum(F, -0.5, 1.5, -0.5, 0.5) == pytest.approx(
            2j * math.pi * (3.0 + 1.0j), rel=1e-8
        )


class TestInvertInterval:
    def test_interior_atom(self):
        res = invert_interval(lambda z: transform(ATOM0, z), -1.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-6)
        # finite-height values follow the arctan law
        y0 = 0.5
        assert res.levels[0] == pytest.approx((2 / math.pi) * math.atan(1 / y0), rel=1e-9)

    def test_uniform_subinterval(self):
        res = invert_interval(lambda z: transform(UNIFORM01, z), 0.2, 0.5)
        assert res.converged
        assert res.value == pytest.approx(0.3, abs=1e-6)

    def test_atom_at_left_endpoint_half_mass(self):
        res = invert_interval(lambda z: transform(ATOM0, z), 0.0, 1.0)
        assert res.value == pytest.approx(0.5, abs=1e-6)

    def test_linearity(self):
        nu1 = RealLineMeasure(atoms=((0.4, 0.8),))
        nu2 = RealLineMeasure(pieces=((0.0, 1.0, (1.0,)),))
        r1 = invert_interval(lambda z: transform(nu1, z), 0.1, 0.9)
        r2 = invert_interval(lambda z: transform(nu2, z), 0.1, 0.9)
        r12 = invert_interval(lambda z: transform(nu1 + nu2, z), 0.1, 0.9)
        budget = r1.error_estimate + r2.error_estimate + r12.error_estimate + 1e-9
        assert abs(r12.value - (r1.value + r2.value)) <= budget

    @pytest.mark.parametrize("y0, k_max", [(0.0, 12), (-1.0, 12), (math.nan, 12), (0.5, 1)])
    def test_domain(self, y0, k_max):
        # y0 <= 0 gave mass 0 (or minus the mass) marked converged; k_max = 1
        # leaves one extrapolated value and no error estimate
        atom = RealLineMeasure(atoms=((0.3, 1.0),))
        with pytest.raises(ValueError, match="y0 > 0 and k_max >= 2"):
            invert_interval(lambda z: transform(atom, z), 0.0, 1.0, y0=y0, k_max=k_max)

    def test_error_estimate_honest_on_corpus(self):
        cases = [
            (ATOM0, -1.0, 1.0),
            (UNIFORM01, 0.2, 0.5),
            (RealLineMeasure(atoms=((0.25, -0.5), (0.7, 2.0))), 0.0, 1.0),
        ]
        for nu, a, b in cases:
            res = invert_interval(lambda z: transform(nu, z), a, b)
            truth = half_weighted_mass(nu, a, b).real
            assert abs(res.value - truth) <= max(res.error_estimate * 10, 1e-7)


class TestVanishingDetector:
    def make_callables(self, nu):
        re_part, im_part = nu.real_part(), nu.imag_part()
        return (
            lambda z: transform(re_part, z),
            lambda z: transform(im_part, z),
        )

    def test_disjoint_support_vanishes(self):
        F_re, F_im = self.make_callables(RealLineMeasure(atoms=((2.0, 1.0),)))
        report = vanishing_detector(F_re, F_im, 0.0, 1.0)
        assert report.verdict == "vanishes"
        assert not report.continuity_blowup

    def test_density_mass_detected(self):
        F_re, F_im = self.make_callables(UNIFORM01)
        report = vanishing_detector(F_re, F_im, 0.3, 0.6)
        assert report.verdict == "does_not_vanish"
        assert sum(m.real for m in report.sub_masses) == pytest.approx(0.3, abs=1e-3)

    def test_interior_atom_detected_with_blowup(self):
        F_re, F_im = self.make_callables(RealLineMeasure(atoms=((0.5, 1.0),)))
        report = vanishing_detector(F_re, F_im, 0.0, 1.0)
        assert report.verdict == "does_not_vanish"
        assert report.continuity_blowup

    def test_complex_weights(self):
        nu = RealLineMeasure(atoms=((0.5, 1.0j),))
        F_re, F_im = self.make_callables(nu)
        report = vanishing_detector(F_re, F_im, 0.0, 1.0)
        assert report.verdict == "does_not_vanish"
        assert sum(m.imag for m in report.sub_masses) == pytest.approx(1.0, abs=1e-3)


class TestIntervalFamily:
    def test_zero_measure(self):
        assert is_zero_by_interval_family(RealLineMeasure(), 0.0, 1.0, [0.1, 0.5, 0.9])

    def test_cancelling_density_caught_on_subinterval(self):
        nu = RealLineMeasure(pieces=((0.0, 0.5, (1.0,)), (0.5, 1.0, (-1.0,))))
        # total mass on (0,1) is zero, but the family sees the imbalance
        assert not is_zero_by_interval_family(nu, 0.0, 1.0, [0.1, 0.4, 0.9])

    def test_support_elsewhere(self):
        nu = RealLineMeasure(atoms=((2.0, 1.0),))
        assert is_zero_by_interval_family(nu, 0.0, 1.0, [0.2, 0.8])

    def test_atom_collision_rejected(self):
        nu = RealLineMeasure(atoms=((0.5, 1.0),))
        with pytest.raises(ValueError):
            is_zero_by_interval_family(nu, 0.0, 1.0, [0.25, 0.5, 0.75])

    def test_grid_must_be_interior(self):
        with pytest.raises(ValueError):
            is_zero_by_interval_family(RealLineMeasure(), 0.0, 1.0, [0.0, 0.5])
