import math

import numpy as np
import pytest

from rankone_gap import (
    Channel,
    GapParameters,
    RealLineMeasure,
    SpectralModel,
    bms_decay_rate,
    continuation_width,
    decay_envelope,
    error_rate_gain,
    haar_decay_rate,
    last_positive_index,
    parameter_interval,
    spectral_gap_verdict,
    validate,
)

from oracle_weights import enumerate_weights


class TestLastPositiveIndex:
    def test_examples(self):
        assert last_positive_index(validate(4, (2, 0))) == 1
        assert last_positive_index(validate(4, (0, 0))) == 0
        assert last_positive_index(validate(6, (3, 1, 1))) == 3

    def test_literal_reading_ignores_negative(self):
        assert last_positive_index(validate(4, (1, -1))) == 1


class TestParameterInterval:
    def test_examples(self):
        box = parameter_interval(validate(4, (2, 0)), 4)
        assert (box.lo, box.hi) == (2.0, 3.0) and not box.is_empty
        box = parameter_interval(validate(2, (0,)), 2)
        assert (box.lo, box.hi) == (1.0, 2.0)
        assert parameter_interval(validate(2, (1,)), 2).is_empty

    def test_contained_in_halfline(self):
        for d in range(1, 7):
            for sigma in enumerate_weights(d, 3):
                box = parameter_interval(sigma, d)
                assert box.lo == d / 2
                assert box.hi <= d
                assert box.is_empty == (last_positive_index(sigma) >= d / 2)


class TestRates:
    def test_error_rate_gain(self):
        assert error_rate_gain(1.4, 2) == pytest.approx(0.8)
        assert error_rate_gain(1.6, 2) == 1.0
        assert error_rate_gain(2.0, 3) == 1.0
        with pytest.raises(ValueError):
            error_rate_gain(1.0, 2)

    def test_error_rate_monotone_and_capped(self):
        d = 3
        ss = np.linspace(d / 2 + 1e-6, d, 500)
        vals = [error_rate_gain(s, d) for s in ss]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(v == 1.0 for s, v in zip(ss, vals) if s >= (d + 1) / 2)

    def test_continuation_width(self):
        assert continuation_width(1.3, 2) == pytest.approx(0.3)
        assert continuation_width(2.0, 2) == 1.0
        assert continuation_width(4.0, 5) == 1.0
        with pytest.raises(ValueError):
            continuation_width(1.0, 2)

    def test_haar_rate(self):
        assert haar_decay_rate(1.0) == 1.0
        assert haar_decay_rate(0.15) == 0.15
        with pytest.raises(ValueError):
            haar_decay_rate(0.0)

    def test_bms_rate_exact_twelfth(self):
        assert bms_decay_rate(1.0, 2) == 1 / 12

    def test_bms_rate_small_kappa_linearization(self):
        d = 4
        for k0 in (1e-6, 1e-9):
            assert bms_decay_rate(k0, d) == pytest.approx(k0 / (2 * (d + 3)), rel=1e-5)

    def test_bms_monotonicity(self):
        k_grid = np.linspace(0.01, 1.0, 50)
        for d in range(1, 11):
            vals = [bms_decay_rate(k, d) for k in k_grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))
        for k in k_grid:
            by_d = [bms_decay_rate(k, d) for d in range(1, 11)]
            assert all(b < a for a, b in zip(by_d, by_d[1:]))

    def test_rate_consistency_inequality(self):
        # with s1 = delta - kappa0, min{d - s1, min{2 delta - d, 1}} >= kappa0
        for d in (1, 2, 3, 5):
            for delta in np.linspace(d / 2, d, 25)[1:-1]:
                cap = min(delta - d / 2, 1.0)
                for kappa0 in np.linspace(0, cap, 12)[1:]:
                    s1 = delta - kappa0
                    lhs = min(d - s1, min(2 * delta - d, 1.0))
                    assert lhs >= kappa0 - 1e-12


class TestDecayEnvelope:
    def test_values(self):
        assert decay_envelope(1.0, 2, 0.0) == 1.0
        assert decay_envelope(1.0, 2, 1.0) == pytest.approx(2 / math.e)
        assert decay_envelope(1.5, 2, 10.0) == pytest.approx(11 * math.exp(-5))

    def test_domain(self):
        with pytest.raises(ValueError):
            decay_envelope(2.0, 2, 1.0)
        with pytest.raises(ValueError):
            decay_envelope(1.0, 2, -1.0)


class TestGapParameters:
    def test_from_gap(self):
        p = GapParameters.from_gap(1.0, 2)
        assert (p.kappa0, p.kappa1) == (1.0, 1 / 12)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            GapParameters(d=2, delta=1.5, kappa_gamma=0.9, kappa0=0.9, kappa1=0.05)
        with pytest.raises(ValueError):
            GapParameters(d=2, delta=2.5, kappa_gamma=0.5, kappa0=0.5, kappa1=0.02)

    def test_json_roundtrip(self):
        p = GapParameters.from_gap(0.15, 3, delta=2.2)
        assert GapParameters.from_json(p.to_json()) == p
        p = GapParameters.from_gap(1.0, 2)
        assert GapParameters.from_json(p.to_json()) == p  # "delta": null

    @pytest.mark.parametrize("d", [2.7, True])
    def test_from_json_rejects_non_integer_d(self, d):
        doc = {**GapParameters.from_gap(1.0, 2).to_json(), "d": d}
        with pytest.raises(ValueError):
            GapParameters.from_json(doc)


def atom(t, w=1.0):
    return RealLineMeasure(atoms=((t, w),))


def verdict(d, delta, *channels):
    """The verdict on the model whose channels are the (sigma, measure) pairs."""
    chans = tuple(Channel(sigma, measure, (1.0,)) for sigma, measure in channels)
    return spectral_gap_verdict(SpectralModel(d=d, delta=delta, channels=chans))


class TestSpectralGapVerdict:
    def test_pass_with_trivial_atom_at_delta(self):
        # (-1) is non-trivial with no positive coordinate, so its parameter
        # interval is the full (1, 2] under the literal index reading
        report = verdict(
            2,
            1.7,
            (validate(2, (0,)), atom(1.7)),
            (validate(2, (-1,)), RealLineMeasure(pieces=((1.0, 1.55, (1.0,)),))),
        )
        assert report.verdict
        assert report.params.kappa_gamma == pytest.approx(0.15)

    def test_fail_nontrivial_atom_at_delta(self):
        report = verdict(2, 1.7, (validate(2, (-1,)), atom(1.7)))
        assert not report.verdict and not report.atom_condition_ok
        assert report.params is None

    def test_zero_weight_atoms_are_not_support(self):
        # zero atoms at delta and just below it carry no mass: full gap
        zeros = RealLineMeasure(atoms=((1.7, 0.0), (1.65, 0.0)))
        report = verdict(2, 1.7, (validate(2, (-1,)), zeros))
        assert report.verdict and report.offenders == ()
        assert report.sup_support_below_delta is None
        assert report.params.kappa_gamma == pytest.approx(0.7)

    def test_finite_atoms_below_delta_pass(self):
        measure = RealLineMeasure(atoms=((1.69, 1.0), (1.695, 1.0)))
        report = verdict(2, 1.7, (validate(2, (0,)), measure))
        assert report.verdict
        assert report.params.kappa_gamma == pytest.approx(0.005)

    def test_density_touching_delta_fails(self):
        # a density reaching delta puts mass in every (delta - eta, delta)
        measure = RealLineMeasure(pieces=((1.4, 1.7, (1.0,)),))
        report = verdict(2, 1.7, (validate(2, (0,)), measure))
        assert not report.verdict and not report.gap_condition_ok

    def test_no_support_below_delta_gives_full_gap(self):
        report = verdict(2, 1.7, (validate(2, (0,)), atom(1.7)))
        assert report.verdict
        assert report.params.kappa_gamma == pytest.approx(0.7)

    def test_rejects_support_outside_interval(self):
        # sigma = (1) over SO(2) has empty parameter interval: the model
        # that would carry it to the verdict cannot be built
        with pytest.raises(ValueError, match="outside"):
            verdict(2, 1.5, (validate(2, (1,)), atom(1.7)))

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError, match="delta must lie"):
            verdict(2, 0.9)

    def test_flags_negative_entries(self):
        report = verdict(4, 3.0, (validate(4, (1, -1)), atom(2.9)))
        assert report.flagged_sigmas == (validate(4, (1, -1)),)
