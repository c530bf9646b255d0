import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from rankone_gap import (
    Channel,
    RealLineMeasure,
    SingularPointError,
    SpectralModel,
    compare_numeric_closed,
    correlation,
    laplace_closed,
    laplace_numeric,
    pole_probe,
    pushforward_measure,
    rank_test,
    remainder_term,
    residue_at_zero,
    transform,
    truncation_bound,
    validate,
)

from oracle_numerics import richardson_limit

TRIV2 = validate(2, (0,))
SIG_NEG = validate(2, (-1,))


def atom_model(d, delta, spots, coeff=(1.0,), amplitude=0.0, sigma=None):
    measure = RealLineMeasure(atoms=tuple(spots))
    return SpectralModel(
        d=d,
        delta=delta,
        channels=(Channel(sigma or validate(d, (0,) * (d // 2)), measure, coeff),),
        tempered_amplitude=amplitude,
    )


class TestModelValidation:
    def test_delta_range(self):
        with pytest.raises(ValueError):
            SpectralModel(d=2, delta=0.9)

    def test_support_must_sit_below_delta(self):
        with pytest.raises(ValueError):
            atom_model(2, 1.5, [(1.6, 1.0)])

    def test_support_must_respect_parameter_interval(self):
        # (0) over SO(2) has the interval (1, 2]: open at d/2, closed on top
        with pytest.raises(ValueError):
            atom_model(2, 2.0, [(1.0, 1.0)])
        atom_model(2, 2.0, [(1.5, 1.0), (2.0, 1.0)])
        # ell = 1 for (1) over SO(4): interval is (2, 3]
        with pytest.raises(ValueError):
            SpectralModel(
                d=4,
                delta=3.5,
                channels=(
                    Channel(
                        validate(4, (1, 0)),
                        RealLineMeasure(atoms=((3.2, 1.0),)),
                        (1.0,),
                    ),
                ),
            )

    def test_zero_parts_are_not_support(self):
        # a zero atom above delta and a zero density outside (1, 2] carry no
        # mass, so they place no support outside the parameter interval
        measure = RealLineMeasure(atoms=((1.2, 1.0), (1.9, 0.0)), pieces=((0.5, 3.0, (0.0,)),))
        model = SpectralModel(d=2, delta=1.5, channels=(Channel(TRIV2, measure, (1.0,)),))
        assert model.channels[0].measure == RealLineMeasure(atoms=((1.2, 1.0),))

    def test_duplicate_channels_rejected(self):
        ch = Channel(TRIV2, RealLineMeasure(atoms=((1.4, 1.0),)), (1.0,))
        with pytest.raises(ValueError):
            SpectralModel(d=2, delta=1.5, channels=(ch, ch))

    def test_json_roundtrip(self):
        model = SpectralModel(
            d=2,
            delta=1.5,
            channels=(
                Channel(TRIV2, RealLineMeasure(atoms=((1.5, 1.0),)), (1.0, 0.5j)),
                Channel(
                    SIG_NEG,
                    RealLineMeasure(pieces=((1.1, 1.4, (1.0, -0.25)),)),
                    (2.0,),
                ),
            ),
            tempered_amplitude=0.25,
        )
        assert SpectralModel.from_json(model.to_json()) == model


class TestCorrelation:
    def test_atom_at_delta_is_constant_after_scaling(self):
        model = atom_model(2, 1.5, [(1.5, 1.0)])
        for t in (0.0, 1.0, 7.5, 30.0):
            scaled = math.exp((2 - 1.5) * t) * correlation(model, t)
            assert scaled.real == pytest.approx(1.0, rel=1e-12)

    def test_single_atom_rate(self):
        model = atom_model(2, 1.5, [(1.2, 1.0)])
        assert correlation(model, 1.0).real == pytest.approx(math.exp(-0.8), rel=1e-12)

    def test_pure_remainder_envelope(self):
        model = SpectralModel(d=2, delta=1.5, tempered_amplitude=0.7)
        ts = np.linspace(0.0, 20.0, 200)
        values = np.abs(correlation(model, ts))
        envelope = 0.7 * (1 + ts) * np.exp(-ts)
        assert np.all(values <= envelope + 1e-14)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            correlation(atom_model(2, 1.5, [(1.5, 1.0)]), -0.5)

    def test_density_channel_against_closed_form(self):
        # uniform density on [1.1, 1.4]: f(t) = (e^{-0.6t} - e^{-0.9t})/t
        model = SpectralModel(
            d=2,
            delta=1.5,
            channels=(
                Channel(TRIV2, RealLineMeasure(pieces=((1.1, 1.4, (1.0,)),)), (1.0,)),
            ),
        )
        for t in (0.5, 1.0, 4.0):
            expected = (math.exp(-0.6 * t) - math.exp(-0.9 * t)) / t
            assert correlation(model, t).real == pytest.approx(expected, rel=1e-9)


class TestLaplace:
    def test_atom_below_delta(self):
        model = atom_model(2, 1.5, [(1.2, 1.0)])
        res = laplace_numeric(model, 1.0, t_max=60.0)
        assert res.value.real == pytest.approx(1 / 1.3, rel=1e-9)
        assert abs(res.value - laplace_closed(model, 1.0)) <= res.truncation_bound

    def test_empty_model(self):
        model = SpectralModel(d=2, delta=1.5)
        assert laplace_numeric(model, 1.0).value == 0
        assert laplace_closed(model, 1.0) == 0

    def test_atom_at_delta_gives_one_over_z(self):
        model = atom_model(2, 1.5, [(1.5, 1.0)])
        assert laplace_numeric(model, 0.5, t_max=80.0).value.real == pytest.approx(
            2.0, rel=1e-6
        )
        model2 = atom_model(2, 1.5, [(1.5, 1.0)], coeff=(2.0,))
        assert laplace_closed(model2, 1.0) == pytest.approx(2.0)

    def test_closed_density_log(self):
        model = SpectralModel(
            d=2,
            delta=1.5,
            channels=(
                Channel(TRIV2, RealLineMeasure(pieces=((1.1, 1.4, (1.0,)),)), (1.0,)),
            ),
        )
        assert laplace_closed(model, 0.2).real == pytest.approx(math.log(2), rel=1e-9)

    def test_closed_density_channel_against_mpmath(self):
        piece = (1.1, 1.4, (1.0, -0.5 + 0.25j, 0.3))
        coeff = (0.5, 1.0 - 0.2j)
        model = SpectralModel(
            d=2,
            delta=1.5,
            channels=(
                Channel(TRIV2, RealLineMeasure(atoms=((1.5, 0.5),), pieces=(piece,)), coeff),
            ),
        )

        def integrand(s, w):
            p = sum(c * s**k for k, c in enumerate(piece[2]))
            return p * (coeff[0] + coeff[1] * s) / (w - s)

        for z in (0.2 + 0j, 1.0 + 0.5j, -0.25 + 1e-3j, -0.05 - 0.02j, -0.6 + 0j):
            with mpmath.workdps(30):
                w = mpmath.mpc(z) + model.delta
                cut = min(max(mpmath.re(w), 1.1), 1.4)
                ref = mpmath.quad(lambda s: integrand(s, w), sorted({1.1, cut, 1.4}))
                ref += 0.5 * (coeff[0] + coeff[1] * 1.5) / (w - 1.5)
            assert laplace_closed(model, z) == pytest.approx(complex(ref), rel=1e-12)

    def test_closed_linearity_over_channels(self):
        m1 = atom_model(2, 1.5, [(1.2, 1.0)])
        m2 = atom_model(2, 1.5, [(1.3, 0.5)], sigma=SIG_NEG)
        both = SpectralModel(d=2, delta=1.5, channels=m1.channels + m2.channels)
        z = 0.7 + 0.3j
        assert laplace_closed(both, z) == pytest.approx(
            laplace_closed(m1, z) + laplace_closed(m2, z), rel=1e-12
        )

    def test_pole_collision_rejected(self):
        model = atom_model(2, 1.5, [(1.2, 1.0)])
        with pytest.raises(SingularPointError):
            laplace_closed(model, -0.3 + 0j)

    def test_domain_error_far_left(self):
        model = atom_model(2, 1.5, [(1.2, 1.0)])
        with pytest.raises(ValueError):
            laplace_numeric(model, -0.5)

    def test_zero_coefficient_channel_adds_no_tail(self):
        # the second channel's coefficient is 0, so its density up to 1.45
        # contributes nothing and Re z may lie left of 1.45 - delta
        model = SpectralModel(
            d=2,
            delta=1.5,
            channels=(
                Channel(TRIV2, RealLineMeasure(atoms=((1.2, 1.0),)), (1.0,)),
                Channel(SIG_NEG, RealLineMeasure(pieces=((1.1, 1.45, (1.0,)),)), (0.0,)),
            ),
        )
        res = laplace_numeric(model, -0.1)
        assert abs(res.value - 5.0) <= res.truncation_bound
        assert laplace_closed(model, -0.1) == pytest.approx(5.0, rel=1e-12)

    def test_zero_weight_atom_adds_no_tail(self):
        # the coefficient 1.45 - s vanishes at the atom at 1.45, so Re z may
        # lie left of 1.45 - delta; the value is 1 * 0.25 / (z + delta - 1.2)
        measure = RealLineMeasure(atoms=((1.2, 1.0), (1.45, 1.0)))
        model = SpectralModel(d=2, delta=1.5, channels=(Channel(TRIV2, measure, (1.45, -1.0)),))
        res = laplace_numeric(model, -0.1)
        closed = laplace_closed(model, -0.1)
        assert closed == pytest.approx(1.25, rel=1e-12)
        assert abs(res.value - closed) <= res.truncation_bound

    def test_truncation_bound_honest_as_t_max_grows(self):
        model = atom_model(2, 1.5, [(1.45, 1.0)])
        z = 0.2 + 0j
        errors = []
        for t_max in (20.0, 40.0, 60.0):
            res = laplace_numeric(model, z, t_max=t_max)
            err = abs(res.value - laplace_closed(model, z))
            assert err <= res.truncation_bound
            errors.append(err)
        assert errors[2] < errors[0]


class TestResidue:
    def test_examples(self):
        assert residue_at_zero(atom_model(2, 1.5, [(1.5, 0.7)], coeff=(2.0,))) == 1.4
        assert residue_at_zero(atom_model(2, 1.5, [(1.2, 0.7)])) == 0
        two = SpectralModel(
            d=2,
            delta=1.5,
            channels=(
                Channel(TRIV2, RealLineMeasure(atoms=((1.5, 0.5),)), (1.0,)),
                Channel(SIG_NEG, RealLineMeasure(atoms=((1.5, 0.25),)), (2.0,)),
            ),
        )
        assert residue_at_zero(two) == 1.0

    def test_extrapolated_small_z_limit(self):
        model = SpectralModel(
            d=2,
            delta=1.5,
            channels=(
                Channel(
                    TRIV2,
                    RealLineMeasure(
                        atoms=((1.5, 0.6 + 0.2j), (1.3, 1.0)),
                        pieces=((1.05, 1.25, (1.0,)),),
                    ),
                    (1.0, 1.0),  # c(s) = 1 + s
                ),
            ),
        )
        zs = [1e-3 * 2.0**-k for k in range(9)]
        seq = [z * laplace_closed(model, z) for z in zs]
        limit, _ = richardson_limit(seq)
        assert abs(limit - residue_at_zero(model)) < 1e-8


class TestCompare:
    def test_pure_atom_pass(self):
        model = atom_model(2, 1.5, [(1.5, 1.0), (1.2, -0.5)], coeff=(1.0, 0.5))
        grid = [complex(x, 0.0) for x in np.linspace(0.2, 2.0, 10)]
        report = compare_numeric_closed(model, grid)
        assert report.passed
        assert report.max_error < 1e-6

    def test_remainder_subtracted(self):
        model = atom_model(2, 1.5, [(1.3, 1.0)], amplitude=0.8)
        grid = [0.5 + 0j, 1.0 + 0j, 1.5 + 0j]
        report = compare_numeric_closed(model, grid)
        assert report.passed

    def test_missing_channel_fails(self):
        model = atom_model(2, 1.5, [(1.2, 1.0)])
        empty = SpectralModel(d=2, delta=1.5)
        report = compare_numeric_closed(model, [0.5 + 0j, 1.0 + 0j], closed_model=empty)
        assert not report.passed


class TestPoleProbe:
    def test_atom_at_delta_passes(self):
        report = pole_probe(atom_model(2, 1.5, [(1.5, 1.0)]), 0.1)
        assert report.passed
        assert not report.blowup_detected and not report.contour_detected

    def test_atom_inside_strip_fails_and_locates(self):
        model = atom_model(2, 1.5, [(1.5, 1.0), (1.45, 0.5)])
        report = pole_probe(model, 0.1)
        assert not report.passed
        assert abs(report.pole_location - (-0.05)) <= 1e-3

    def test_empty_model_passes(self):
        report = pole_probe(SpectralModel(d=2, delta=1.5), 0.1)
        assert report.passed and report.max_abs == 0.0

    def test_eta_domain(self):
        with pytest.raises(ValueError):
            pole_probe(atom_model(2, 1.5, [(1.5, 1.0)]), 0.6)

    @pytest.mark.parametrize("x_step", [-1.0, 0.0, math.nan, 0.5, 1e308])
    def test_x_step_domain(self, x_step):
        # a grid without a contour cell sampled nothing and reported a pass
        with pytest.raises(ValueError, match="x_step"):
            pole_probe(atom_model(2, 1.8, [(1.8, 1.0)]), 0.5, x_step=x_step)


class TestRank:
    def test_outer_product(self):
        rng = np.random.default_rng(7)
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert rank_test(np.outer(u, v.conj())) == 1

    def test_identity(self):
        assert rank_test(np.eye(2)) == 2

    def test_zero(self):
        assert rank_test(np.zeros((2, 2))) == 0

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            rank_test(np.eye(3))


class TestStieltjesBridge:
    def test_closed_sum_is_transform_of_pushforward(self):
        model = SpectralModel(
            d=2,
            delta=1.5,
            channels=(
                Channel(
                    TRIV2,
                    RealLineMeasure(
                        atoms=((1.5, 0.5),), pieces=((1.1, 1.4, (1.0, 0.5)),)
                    ),
                    (0.5, 1.0),
                ),
                Channel(SIG_NEG, RealLineMeasure(atoms=((1.45, 1.0j),)), (2.0,)),
            ),
        )
        nu = pushforward_measure(model)
        for z in (0.3 + 0j, 1.0 + 0.5j, -0.2 + 0.4j):
            assert laplace_closed(model, z) == pytest.approx(
                transform(nu, z + model.delta), rel=1e-8, abs=1e-9
            )


def two_channel_model():
    """Both channels carry atoms at 1.3 and at delta = 1.5; the first also has
    a complex density piece and a complex linear coefficient."""
    return SpectralModel(
        d=2,
        delta=1.5,
        channels=(
            Channel(
                TRIV2,
                RealLineMeasure(
                    atoms=((1.3, 1.0), (1.5, 0.5)),
                    pieces=((1.05, 1.25, (1.0, -0.5 + 0.25j)),),
                ),
                (0.25 + 0.5j, 1.0 - 0.5j),
            ),
            Channel(SIG_NEG, RealLineMeasure(atoms=((1.3, -0.75), (1.5, 0.25j))), (0.5, 0.25j)),
        ),
        tempered_amplitude=0.3,
    )


def mp_channel_sum(model, kernel):
    """sum_ch int c(s) kernel(s) dm(s) at 30 digits, channel by channel."""

    def poly(coeffs, s):
        return sum(mpmath.mpc(c) * s**k for k, c in enumerate(coeffs))

    total = mpmath.mpc(0)
    with mpmath.workdps(30):
        for ch in model.channels:
            for a in ch.measure.atoms:
                s = mpmath.mpf(a.location)
                total += mpmath.mpc(a.weight) * poly(ch.coeff, s) * kernel(s)
            for p in ch.measure.pieces:
                total += mpmath.quad(
                    lambda s: poly(p.coeffs, s) * poly(ch.coeff, s) * kernel(s), [p.lo, p.hi]
                )
    return total


class TestChannelMeasureOracle:
    """The Laplace-side quantities against mpmath sums over the channels,
    which never form the pushforward measure."""

    def test_correlation(self):
        model = two_channel_model()
        for t in (0.0, 0.5, 3.0, 12.0):
            with mpmath.workdps(30):
                ref = mp_channel_sum(model, lambda s: mpmath.exp(-(2 - s) * t))
                ref += 0.3 * (1 + t) * mpmath.exp(-t) * mpmath.cos(t)
            assert abs(correlation(model, t) - complex(ref)) <= 1e-9

    def test_closed_sum(self):
        model = two_channel_model()
        for z in (0.3 + 0j, 1.0 + 0.5j, -0.2 + 0.4j, -0.05 - 0.02j):
            with mpmath.workdps(30):
                w = mpmath.mpc(z) + model.delta
                ref = mp_channel_sum(model, lambda s: 1 / (w - s))
            assert laplace_closed(model, z) == pytest.approx(complex(ref), rel=1e-12)

    def test_truncation_bound_covers_tail(self):
        model = two_channel_model()
        t_max = 4.0
        for z in (0.3 + 0j, 1.0 + 0.5j, 0.2 - 0.7j):
            with mpmath.workdps(30):
                w = mpmath.mpc(z) + model.delta
                # int_T^inf exp(-(w - s) t) dt per spectral point s
                tail = mp_channel_sum(model, lambda s: mpmath.exp(-(w - s) * t_max) / (w - s))
                # int_T^inf R (1 + t) exp(-(w - d/2) t) cos t dt
                for b in (w - 1 - 1j, w - 1 + 1j):
                    tail += 0.15 * mpmath.exp(-b * t_max) * ((1 + t_max) / b + 1 / b**2)
            bound = float(truncation_bound(model, z, t_max))
            assert abs(complex(tail)) <= bound
            assert abs(complex(tail)) > 1e-3  # the tail is not negligible

    def test_residue_is_exact(self):
        # every weight and coefficient value is a short binary fraction
        model = two_channel_model()
        with mpmath.workdps(30):
            ref = mp_channel_sum(model, lambda s: 1 if s == mpmath.mpf(1.5) else 0)
        assert residue_at_zero(model) == complex(ref)


class TestMainTermSeparation:
    def test_scaled_correlation_decays_at_channel_rate(self):
        # all support at delta - gamma with gamma = 0.3
        gamma = 0.3
        model = atom_model(2, 1.8, [(1.5, 1.0)], amplitude=0.05)
        ts = np.linspace(20.0, 40.0, 41)
        scaled = np.abs(
            np.exp((2 - 1.8) * ts) * np.array([correlation(model, t) for t in ts])
        )
        assert scaled[-1] < 1e-3
        slope = np.polyfit(ts, np.log(scaled), 1)[0]
        assert slope <= -gamma + 0.05

    def test_remainder_obeys_envelope(self):
        model = SpectralModel(d=2, delta=1.5, tempered_amplitude=1.3)
        ts = np.linspace(0.0, 10.0, 100)
        r = np.abs(remainder_term(model, ts))
        assert np.all(r <= 1.3 * (1 + ts) * np.exp(-ts) + 1e-14)


def pointwise(f, z):
    """``f`` called on every element of ``z`` as a scalar, stacked back into
    the shape of ``z``."""
    z = np.asarray(z)
    return np.array([f(x) for x in z.ravel()]).reshape(z.shape)


def assert_shape(out, like):
    """An array in the shape of ``like``; a numpy scalar when ``like`` is 0-d."""
    assert np.shape(out) == np.shape(like)
    assert isinstance(out, np.ndarray if np.ndim(like) else np.generic)


SHAPES_Z = [
    np.asarray(0.3 + 0.2j),
    np.array([0.3 + 0j, 1.0 + 0.5j, 0.2 - 0.7j]),
    np.array([[0.3 + 0j, 1.0 + 0.5j], [0.2 - 0.7j, 2.0 + 1.0j]]),
    np.zeros((2, 0), dtype=complex),
]
SHAPES_T = [
    np.asarray(0.5),
    np.array([0.0, 0.5, 3.0]),
    np.array([[0.0, 0.5], [3.0, 12.0]]),
    np.zeros((2, 0)),
]


class TestShapeContract:
    """Every numeric entry point of the Stieltjes and Laplace layers returns
    the shape of its input, a 0-d input giving a numpy scalar."""

    @pytest.mark.parametrize("z", SHAPES_Z, ids=["0d", "1d", "2d", "empty"])
    def test_closed_forms_equal_pointwise_calls(self, z):
        model = two_channel_model()
        nu = pushforward_measure(model)
        for f in (lambda w: transform(nu, w + model.delta), lambda w: laplace_closed(model, w)):
            out = f(z)
            assert_shape(out, z)
            assert np.all(out == pointwise(f, z))

    @pytest.mark.parametrize("t", SHAPES_T, ids=["0d", "1d", "2d", "empty"])
    def test_correlation(self, t):
        # atoms and the tempered term are closed forms: equal point by point
        atoms = atom_model(2, 1.5, [(1.5, 1.0), (1.2, -0.5)], coeff=(1.0, 0.5), amplitude=0.3)
        out = correlation(atoms, t)
        assert_shape(out, t)
        assert np.all(out == pointwise(lambda s: correlation(atoms, s), t))
        # a density piece is one quadrature shared by the batch: the shaped
        # call is the flat call, and agrees point by point to its tolerance
        model = two_channel_model()
        out = correlation(model, t)
        assert_shape(out, t)
        assert np.all(out == correlation(model, t.ravel()).reshape(t.shape))
        assert np.allclose(out, pointwise(lambda s: correlation(model, s), t), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("z", SHAPES_Z, ids=["0d", "1d", "2d", "empty"])
    def test_laplace_numeric(self, z):
        model = two_channel_model()
        res = laplace_numeric(model, z, t_max=20.0)
        flat = laplace_numeric(model, z.ravel(), t_max=20.0)
        assert_shape(res.value, z)
        assert_shape(res.truncation_bound, z)
        assert np.all(res.value == flat.value.reshape(z.shape))
        assert np.all(res.truncation_bound == flat.truncation_bound.reshape(z.shape))
        # the tail bound is a closed form; the value is one quadrature in t
        # shared by the batch, so it agrees point by point to its tolerance
        single = [laplace_numeric(model, w, t_max=20.0) for w in z.ravel()]
        assert np.all(res.truncation_bound == np.reshape([r.truncation_bound for r in single], z.shape))
        values = np.reshape([r.value for r in single], z.shape)
        assert np.allclose(res.value, values, rtol=0, atol=2e-9)

    def test_python_scalars_give_numpy_scalars(self):
        model = two_channel_model()
        res = laplace_numeric(model, 0.3 + 0.2j, t_max=20.0)
        assert type(res.value) is np.complex128 and type(res.truncation_bound) is np.float64
        assert type(truncation_bound(model, 0.3, 20.0)) is np.float64
        assert type(correlation(model, 0.5)) is np.complex128
        assert type(laplace_closed(model, 0.3)) is np.complex128

    def test_compare_max_error_matches_per_point_errors(self):
        model = two_channel_model()
        grid = [0.2 + 0j, 0.7 + 0.3j, 1.1 - 0.4j, 2.0 + 1.0j]
        report = compare_numeric_closed(model, grid, t_max=20.0)
        channels_only = replace(model, tempered_amplitude=0.0)
        numeric = laplace_numeric(channels_only, np.array(grid), t_max=20.0)
        closed = laplace_closed(model, np.array(grid))
        errors = [abs(complex(n) - complex(c)) for n, c in zip(numeric.value, closed)]
        assert report.max_error == max(errors)
        allowed = [1e-6 + float(b) + 2e-9 for b in numeric.truncation_bound]
        assert report.passed == all(e <= a for e, a in zip(errors, allowed))
