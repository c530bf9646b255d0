import math
import time

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

from rankone_gap.stieltjes import TOL_CONVERGED, halved_quotient

from oracle_numerics import adaptive_levels, rectangle_contour_sum

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
            quad = mpmath.quad(lambda t: complex(np.polynomial.polynomial.polyval(t, p.coeffs)) / (z - t), [0, 0.5, 1])
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

    @pytest.mark.parametrize("coeffs", [(1.0,), (1.0, -0.5, 0.25j)])
    @pytest.mark.parametrize("z", [1e308, -1.7e308, 1e308 + 1e308j, -1.7e308 + 1.7e308j,
                                   1e-300 + 1e308j, 1e300 + 0j])
    def test_far_field_near_the_largest_float(self, coeffs, z):
        # the value, about 2 / z, is representable even where |z| or (z - m) / h is not;
        # the reference cancels terms of about |z|**2 times the value, partly inside its
        # logarithms, so it takes 1300 digits
        nu = RealLineMeasure(atoms=((0.5, 1.0),), pieces=((1.0, 2.0, coeffs),))
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            value = transform(nu, z)
        assert value == pytest.approx(mp_transform(nu, z, dps=1300), rel=1e-12, abs=1e-321)

    def test_halved_quotient_keeps_every_bit(self):
        rng = np.random.default_rng(19)
        u = rng.standard_normal(4000) * 10.0 ** rng.uniform(-200, 200, 4000) + 1j * (
            rng.standard_normal(4000) * 10.0 ** rng.uniform(-200, 200, 4000))
        u[:500] = u[:500].real
        for w in (1.0, 0.7 - 0.3j, 1e-5j):
            assert np.array_equal(halved_quotient(w, u), w / u)

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
        res = invert_interval(ATOM0, -1.0, 1.0)
        assert res.converged
        assert res.mass.real == pytest.approx(1.0, abs=1e-6)
        # finite-height values follow the arctan law
        y0 = 0.5
        assert res.levels[0].real == pytest.approx((2 / math.pi) * math.atan(1 / y0), rel=1e-9)

    def test_uniform_subinterval(self):
        res = invert_interval(UNIFORM01, 0.2, 0.5)
        assert res.converged
        assert res.mass.real == pytest.approx(0.3, abs=1e-6)

    def test_atom_at_left_endpoint_half_mass(self):
        res = invert_interval(ATOM0, 0.0, 1.0)
        assert res.mass.real == pytest.approx(0.5, abs=1e-6)

    def test_linearity(self):
        nu1 = RealLineMeasure(atoms=((0.4, 0.8),))
        nu2 = RealLineMeasure(pieces=((0.0, 1.0, (1.0,)),))
        r1 = invert_interval(nu1, 0.1, 0.9)
        r2 = invert_interval(nu2, 0.1, 0.9)
        r12 = invert_interval(nu1 + nu2, 0.1, 0.9)
        budget = r1.error_re + r2.error_re + r12.error_re + 1e-9
        assert abs(r12.mass - (r1.mass + r2.mass)) <= budget

    @pytest.mark.parametrize("y0, k_max", [(0.0, 12), (-1.0, 12), (math.nan, 12), (0.5, 1)])
    def test_domain(self, y0, k_max):
        # y0 <= 0 gave mass 0 (or minus the mass) marked converged; k_max = 1
        # leaves one extrapolated value and no error estimate
        atom = RealLineMeasure(atoms=((0.3, 1.0),))
        with pytest.raises(ValueError, match="y0 > 0 and k_max >= 2"):
            invert_interval(atom, 0.0, 1.0, y0=y0, k_max=k_max)

    def test_error_estimate_honest_on_corpus(self):
        cases = [
            (ATOM0, -1.0, 1.0),
            (UNIFORM01, 0.2, 0.5),
            (RealLineMeasure(atoms=((0.25, -0.5), (0.7, 2.0))), 0.0, 1.0),
        ]
        for nu, a, b in cases:
            res = invert_interval(nu, a, b)
            truth = half_weighted_mass(nu, a, b).real
            assert abs(res.mass.real - truth) <= max(res.error_re * 10, 1e-7)

    @pytest.mark.parametrize("y0, k_max", [(1e-320, 12), (0.5, 1100), (0.5, 10**9)])
    def test_heights_must_not_underflow(self, y0, k_max):
        # a zero height puts the levels on the support; a huge k_max would
        # also ask for k_max + 1 heights
        with pytest.raises(ValueError, match=r"y0 \* 2\*\*-k_max > 0"):
            invert_interval(ATOM0, -1.0, 1.0, y0=y0, k_max=k_max)

    def test_degree16_density_is_fast_and_honest(self):
        # an unscaled degree-16 density reaches |p| ~ 4**16; adaptive levels
        # could not reach their absolute tolerance there, while the closed form
        # takes about a millisecond.  The absolute TOL_CONVERGED flags these
        # results, and each part's estimate still covers its actual error.
        t0 = time.perf_counter()
        for seed in range(6):
            rng = np.random.default_rng(seed)
            d = 3 + seed % 2
            lo, hi = d / 2, float(d)
            coeffs = np.round(rng.uniform(-1, 1, 17), 4) + 1j * np.round(rng.uniform(-1, 1, 17), 4)
            nu = RealLineMeasure(pieces=((lo, hi, tuple(coeffs)),))
            a = float(rng.uniform(lo - 0.2, lo + 0.3 * (hi - lo)))
            b = float(rng.uniform(hi - 0.3 * (hi - lo), hi + 0.2))
            res = invert_interval(nu, a, b)
            truth = half_weighted_mass(nu, a, b)
            assert res.error_re >= abs(res.mass.real - truth.real)
            assert res.error_im >= abs(res.mass.imag - truth.imag)
            assert res.converged is (max(res.error_re, res.error_im) <= TOL_CONVERGED)
        assert time.perf_counter() - t0 < 1.0


class TestInvertMeasure:
    def test_one_row_stack_keeps_bits(self):
        # the detector inverts all its subintervals as one stack of cuts;
        # each column is, bit for bit, that subinterval inverted alone
        nu = RealLineMeasure(atoms=((0.25, -0.5 + 0.3j), (0.7, 2.0)), pieces=((0.1, 0.9, (1.0, 0.5j)),))
        report = vanishing_detector(nu, 0.0, 1.0)
        cuts = np.linspace(0.0, 1.0, len(report.sub_masses) + 1)
        for j, (m, e) in enumerate(zip(report.sub_masses, report.sub_errors)):
            one = invert_interval(nu, cuts[j], cuts[j + 1])
            assert m == one.mass
            assert e == one.error_re + one.error_im

    @pytest.mark.parametrize("k_max", [12, 5])
    def test_real_only_and_imaginary_only_match_separate(self, k_max):
        # Re nu and Im nu are inverted apart: each part of a complex measure's
        # result is, bit for bit, the inversion of that part alone
        for nu, a, b in [
            (RealLineMeasure(atoms=((0.3, 0.7 - 0.2j), (0.0, -1.0)), pieces=((0.1, 0.9, (1.0j, 0.5)),)), 0.0, 1.0),
            (RealLineMeasure(pieces=((0.0, 1.0, (0.5 + 1.0j, 1.0)), (0.4, 0.6, (2.0,)))), 0.2, 0.8),
            (RealLineMeasure(atoms=((0.5, 1.0j),)), 0.0, 1.0),
        ]:
            got = invert_interval(nu, a, b, y0=0.25, k_max=k_max)
            re = invert_interval(nu.real_part(), a, b, y0=0.25, k_max=k_max)
            im = invert_interval(nu.imag_part(), a, b, y0=0.25, k_max=k_max)
            assert (got.mass.real, got.error_re) == (re.mass.real, re.error_re)
            assert (got.mass.imag, got.error_im) == (im.mass.real, im.error_re)
            assert [v.real for v in got.levels] == [v.real for v in re.levels]
            assert [v.imag for v in got.levels] == [v.real for v in im.levels]
            assert (re.mass.imag, re.error_im, im.mass.imag, im.error_im) == (0.0,) * 4
            assert got.converged is (re.converged and im.converged)

    @pytest.mark.parametrize("nu, a, b", [
        (RealLineMeasure(atoms=((0.5, 1.0j),)), 0.0, 1.0),
        (RealLineMeasure(atoms=((0.25, -0.5 + 0.3j), (0.7, 2.0 - 1j))), 0.0, 0.7),
        (RealLineMeasure(pieces=((0.0, 1.0, (1.0j, 1.0)),)), 0.2, 0.9),
        (RealLineMeasure(atoms=((0.3, 1.0j),), pieces=((0.0, 1.0, (0.0, 1.0)),)), 0.1, 0.8),
    ])
    def test_complex_measures_recover_half_weighted_mass(self, nu, a, b):
        got = invert_interval(nu, a, b)
        assert got.converged
        assert abs(got.mass - half_weighted_mass(nu, a, b)) <= 1e-3

    def test_stacked_converged_is_a_bool(self):
        # one flag for both parts of a complex measure
        nu = RealLineMeasure(atoms=((0.5, 1.0 + 2.0j),))
        res = invert_interval(nu, 0.0, 1.0)
        assert type(res.mass) is complex and type(res.converged) is bool and res.converged
        assert type(res.error_re) is type(res.error_im) is float

    @pytest.mark.parametrize("a, b, y0, k_max, message", [
        (0.0, 1.0, 0.0, 12, "y0 > 0 and k_max >= 2"),
        (0.0, 1.0, 0.5, 1, "y0 > 0 and k_max >= 2"),
        (2.0, 1.0, 0.5, 12, "need a < b"),
    ])
    def test_zero_measure_keeps_domain_checks(self, a, b, y0, k_max, message):
        for nu in (RealLineMeasure(), RealLineMeasure(atoms=((0.5, 1.0j),))):
            with pytest.raises(ValueError, match=message):
                invert_interval(nu, a, b, y0=y0, k_max=k_max)


def random_measure(rng, cplx: bool) -> RealLineMeasure:
    """0-2 atoms and 1-2 density pieces of degree 0-8 on [-0.5, 1.5]."""
    def weight():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1) if cplx else 0.0)

    atoms = tuple((float(np.round(rng.uniform(-0.2, 1.2), 3)), weight()) for _ in range(rng.integers(0, 3)))
    pieces = []
    for _ in range(rng.integers(1, 3)):
        lo = float(rng.uniform(-0.5, 0.5))
        hi = lo + float(rng.uniform(0.2, 1.0))
        pieces.append((lo, hi, tuple(weight() for _ in range(rng.integers(1, 10)))))
    return RealLineMeasure(atoms=tuple(dict(atoms).items()), pieces=tuple(pieces))


class TestClosedFormLevels:
    """The closed-form levels against adaptive quadrature of the transform
    and against 40-digit mpmath."""

    def test_match_adaptive_levels(self):
        rng = np.random.default_rng(16)
        ys = 0.5 * 2.0 ** -np.arange(13)
        for i in range(16):
            nu = random_measure(rng, cplx=i % 2 == 1)
            a = float(rng.uniform(-0.6, 0.6))
            b = a + float(rng.uniform(0.1, 1.0))
            res = invert_interval(nu, a, b)
            ref = adaptive_levels(nu, a, b, ys)
            assert np.max(np.abs(np.array(res.levels) - ref)) <= 1e-11, i

    def test_smallest_height_matches_mpmath(self):
        # I(y) = int K(t) dnu(t) with the integrated Poisson kernel
        # K(t) = (1/pi) int_a^b y / ((x - t)^2 + y^2) dx, in 40 digits; the
        # quadrature over each piece is split where K changes on the scale y
        nu = RealLineMeasure(
            atoms=((0.3, 0.8 - 0.4j), (0.9, -0.5)),
            pieces=((0.0, 0.6, (1.0, -2.0, 0.5j, 3.0)), (0.5, 1.0, (0.25, 1.0))),
        )
        a, b = 0.1, 0.95
        y = 0.5 * 2.0**-12
        got = invert_interval(nu, a, b).levels[-1]
        with mpmath.workdps(40):
            def kernel(t):
                return (mpmath.atan2(y, a - t) - mpmath.atan2(y, b - t)) / mpmath.pi

            want = sum(mpmath.mpc(atom.weight) * kernel(mpmath.mpf(atom.location)) for atom in nu.atoms)
            for p in nu.pieces:
                near = (e + k * y for e in (a, b) for k in (-8, 0, 8))
                cuts = sorted({p.lo, p.hi, *(t for t in near if p.lo < t < p.hi)})
                coeffs = [mpmath.mpc(c) for c in reversed(p.coeffs)]
                want += mpmath.quad(lambda t: mpmath.polyval(coeffs, t) * kernel(t), cuts)
            want = complex(want)
        assert abs(got - want) <= 1e-14


class TestVanishingDetector:
    def test_disjoint_support_vanishes(self):
        report = vanishing_detector(RealLineMeasure(atoms=((2.0, 1.0),)), 0.0, 1.0)
        assert report.verdict == "vanishes"
        assert not report.continuity_blowup

    def test_density_mass_detected(self):
        report = vanishing_detector(UNIFORM01, 0.3, 0.6)
        assert report.verdict == "does_not_vanish"
        assert sum(m.real for m in report.sub_masses) == pytest.approx(0.3, abs=1e-3)

    def test_interior_atom_detected_with_blowup(self):
        report = vanishing_detector(RealLineMeasure(atoms=((0.5, 1.0),)), 0.0, 1.0)
        assert report.verdict == "does_not_vanish"
        assert report.continuity_blowup

    def test_complex_weights(self):
        nu = RealLineMeasure(atoms=((0.5, 1.0j),))
        report = vanishing_detector(nu, 0.0, 1.0)
        assert report.verdict == "does_not_vanish"
        assert sum(m.imag for m in report.sub_masses) == pytest.approx(1.0, abs=1e-3)
        assert report.continuity_re == (0.0,) * len(report.continuity_im)

    def test_sub_masses_are_measure_inversions(self):
        nu = RealLineMeasure(atoms=((0.3, 0.5 - 1.0j),), pieces=((0.0, 1.0, (1.0, 0.5j)),))
        report = vanishing_detector(nu, 0.0, 1.0)
        cuts = np.linspace(0.0, 1.0, len(report.sub_masses) + 1)
        for m, e, lo, hi in zip(report.sub_masses, report.sub_errors, cuts[:-1], cuts[1:]):
            inv = invert_interval(nu, lo, hi)
            assert (m, e) == (inv.mass, inv.error_re + inv.error_im)

    def test_continuity_probe_matches_pointwise_gaps(self):
        nu = RealLineMeasure(atoms=((0.5, 1.0 - 2.0j),), pieces=((0.2, 0.7, (1.0j,)),))
        report = vanishing_detector(nu, 0.0, 1.0)
        xs = np.linspace(0.0, 1.0, 41)
        for part, got in ((nu.real_part(), report.continuity_re),
                          (nu.imag_part(), report.continuity_im)):
            y, want = 0.5, []
            for _ in got:
                want.append(float(np.max(np.abs(
                    transform(part, xs + 1j * y) - transform(part, xs + 1j * (y / 2))))))
                y /= 2
            assert list(got) == want

    def test_zero_measure_vanishes(self):
        report = vanishing_detector(RealLineMeasure(), 0.0, 1.0)
        assert report.verdict == "vanishes"
        assert set(report.sub_masses) == {0j} and set(report.sub_errors) == {0.0}


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
