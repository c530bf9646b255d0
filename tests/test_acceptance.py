"""Acceptance gate: every criterion at its stated tolerance, one verdict line
per criterion on stdout (run with -s to watch them stream)."""

import json
import math
import time

import numpy as np
import pytest

from rankone_gap import (
    Channel,
    RealLineMeasure,
    SpectralModel,
    branching_set,
    cfunction_expr,
    compare_numeric_closed,
    dimension,
    evaluate,
    half_weighted_mass,
    halfopen_grid,
    invert_interval,
    laplace_closed,
    minimal_ktypes,
    nonvanishing_scan,
    pole_probe,
    rank_test,
    residue_at_zero,
    validate,
    bms_decay_rate,
)
from rankone_gap.cli import run as cli_run

from oracle_numerics import richardson_limit
from oracle_weights import brute_minimal_ktypes, enumerate_weights


def report(number: int, ok: bool, description: str, started: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {verdict} - {description} [{time.time() - started:.2f}s]")


def test_criterion_1_cfunction_closed_forms(capsys):
    t0 = time.time()
    worst = 0.0

    expr = cfunction_expr(validate(3, (0,)), validate(2, (0,)), 2)
    for s in halfopen_grid(1.0, 2.0, 101):
        gv = evaluate(expr, s)
        worst = max(worst, abs(gv.value - 1 / s) * s)

    expr = cfunction_expr(validate(3, (1,)), validate(2, (1,)), 2)
    for s in halfopen_grid(1.0, 2.0, 101):
        gv = evaluate(expr, s)
        worst = max(worst, abs(gv.value - 1 / (s + 1)) * (s + 1))

    expr = cfunction_expr(validate(2, (0,)), validate(1, ()), 1)
    for s in halfopen_grid(0.5, 1.0, 101):
        oracle = math.gamma(s) / (math.sqrt(math.pi) * math.gamma(s + 0.5))
        worst = max(worst, abs(evaluate(expr, s).value - oracle) / abs(oracle))

    code = cli_run(["cfun", "eval", "--d", "2", "--sigma", "0", "--tau", "0", "--s", "2"])
    cli_out = capsys.readouterr().out.strip()

    elapsed = time.time() - t0
    ok = worst <= 1e-12 and cli_out == "0.5" and code == 0 and elapsed < 1.0
    report(1, ok, f"closed-form reproduction, worst rel err {worst:.2e}", t0)
    assert worst <= 1e-12
    assert cli_out == "0.5"
    assert elapsed < 1.0


def all_small_sigmas():
    return [(d, sigma) for d in range(1, 7) for sigma in enumerate_weights(d, 3)]


def test_criterion_2_witness_nonvanishing():
    t0 = time.time()
    cases = all_small_sigmas()
    failures = []
    for d, sigma in cases:
        grid = halfopen_grid(d / 2, float(d), 101)
        rep = nonvanishing_scan(sigma, d, grid)
        if not rep.passed or rep.zero_count or rep.pole_count:
            failures.append((d, sigma))
    elapsed = time.time() - t0
    ok = not failures and elapsed < 60.0
    report(2, ok, f"nonvanishing scans on {len(cases)} (d, sigma) cases", t0)
    assert not failures
    assert elapsed < 60.0


def test_criterion_3_witness_minimality():
    t0 = time.time()
    cases = all_small_sigmas()
    failures = []
    for d, sigma in cases:
        bound = max((abs(e) for e in sigma.entries), default=0) + 3
        minimizers, rep = minimal_ktypes(sigma, d, bound)
        # the brute-force search is the oracle: it must find the witness alone
        exact = brute_minimal_ktypes(sigma, d, bound) == minimizers == [rep.tau]
        if not (exact and rep.is_minimal_over_bound and rep.contains_sigma
                and rep.contains_sigma_dual):
            failures.append((d, sigma))
    ok = not failures
    report(3, ok, f"witness attains exact minimum in {len(cases)}/{len(cases)} cases", t0)
    assert not failures


def test_criterion_4_branching_dimension_sum():
    t0 = time.time()
    checked = 0
    for n in range(2, 9):
        for tau in enumerate_weights(n, 4):
            assert dimension(tau) == sum(dimension(s) for s in branching_set(tau)), tau
            checked += 1
    elapsed = time.time() - t0
    ok = elapsed < 30.0
    report(4, ok, f"multiplicity-one dimension sums on {checked} weights, exact", t0)
    assert elapsed < 30.0


def inversion_corpus():
    RLM = RealLineMeasure
    return [
        (RLM(atoms=(((0.0, 1.0)),)), -1.0, 1.0),
        (RLM(atoms=((0.3, 0.7),)), 0.0, 1.0),
        (RLM(atoms=((0.5, 0.5 + 0.5j),)), 0.0, 1.0),
        (RLM(atoms=((0.4, -0.8),)), 0.0, 1.0),
        (RLM(atoms=((0.25, 0.6), (0.75, 0.4))), 0.0, 1.0),
        (RLM(atoms=((2.0, 1.0),)), 0.0, 1.0),
        (RLM(pieces=((0.0, 1.0, (1.0,)),)), 0.2, 0.5),
        (RLM(pieces=((0.0, 1.0, (0.5 + 0.5j,)),)), 0.1, 0.9),
        (RLM(pieces=((-0.5, 0.5, (-1.0,)),)), -0.3, 0.3),
        (RLM(pieces=((0.0, 2.0, (0.25,)),)), 0.5, 1.5),
        (RLM(pieces=((0.0, 1.0, (0.0, 1.0)),)), 0.3, 0.8),
        (RLM(pieces=((0.0, 1.0, (1.0, -1.0)),)), 0.1, 0.6),
        (RLM(pieces=((-1.0, 1.0, (0.0, 0.5)),)), -0.5, 0.75),
        (RLM(pieces=((0.0, 1.0, (1.0j, 1.0)),)), 0.2, 0.9),
        (RLM(atoms=((0.5, 0.5),), pieces=((0.0, 1.0, (1.0,)),)), 0.2, 0.7),
        (RLM(atoms=((0.3, 1.0j),), pieces=((0.0, 1.0, (0.0, 1.0)),)), 0.1, 0.8),
        (RLM(pieces=((0.0, 0.6, (1.0,)), (0.4, 1.0, (0.5,)))), 0.2, 0.8),
        (RLM(atoms=((0.0, 1.0),)), 0.0, 1.0),
        (RLM(atoms=((1.0, 0.6),)), 0.0, 1.0),
        (RLM(atoms=((0.0, 0.5), (0.5, 0.5 + 0.25j)), pieces=((0.0, 1.0, (1.0,)),)), 0.0, 0.5),
    ]


def test_criterion_5_stieltjes_roundtrip():
    t0 = time.time()
    corpus = inversion_corpus()
    assert len(corpus) == 20
    worst = 0.0
    endpoint_worst = 0.0
    for idx, (nu, a, b) in enumerate(corpus):
        expected = half_weighted_mass(nu, a, b)
        recovered = invert_interval(nu, a, b, y0=0.5, k_max=12).mass
        err = abs(recovered - expected)
        worst = max(worst, err)
        has_endpoint_atom = any(at.location in (a, b) for at in nu.atoms)
        if has_endpoint_atom:
            endpoint_worst = max(endpoint_worst, err)
        assert err <= 1e-3, (idx, err)
    elapsed = time.time() - t0
    ok = worst <= 1e-3 and elapsed < 30.0
    report(
        5,
        ok,
        f"20-measure inversion corpus, worst {worst:.2e}, endpoint worst {endpoint_worst:.2e}",
        t0,
    )
    assert elapsed < 30.0


TRIV2 = validate(2, (0,))
SIG_NEG = validate(2, (-1,))


def residue_corpus():
    RLM = RealLineMeasure

    def model(channels, amplitude=0.0):
        return SpectralModel(d=2, delta=1.5, channels=channels, tempered_amplitude=amplitude)

    return [
        model((Channel(TRIV2, RLM(atoms=((1.5, 1.0),)), (1.0,)),)),
        model((Channel(TRIV2, RLM(atoms=((1.5, 0.7),)), (2.0,)),)),
        model((Channel(TRIV2, RLM(atoms=((1.5, 0.6 + 0.2j),)), (1.0, 1.0)),)),
        model((Channel(TRIV2, RLM(atoms=((1.3, 1.0),)), (1.0,)),)),
        model(
            (
                Channel(TRIV2, RLM(atoms=((1.5, 0.5),)), (1.0,)),
                Channel(SIG_NEG, RLM(atoms=((1.5, 0.25),)), (2.0,)),
            )
        ),
        model((Channel(TRIV2, RLM(atoms=((1.5, 1.0),), pieces=((1.05, 1.3, (1.0,)),)), (1.0,)),)),
        model((Channel(TRIV2, RLM(atoms=((1.5, 1.0), (1.35, 0.5))), (1.0,)),)),
        model(()),
        model((Channel(TRIV2, RLM(atoms=((1.5, -0.4),)), (0.5, 1.0)),)),
        model((Channel(TRIV2, RLM(pieces=((1.1, 1.3, (1.0, 0.5)),)), (1.0,)),)),
    ]


def test_criterion_6_pole_and_residue(capsys):
    t0 = time.time()
    corpus = residue_corpus()
    assert len(corpus) == 10
    worst = 0.0
    for model in corpus:
        zs = [1e-3 * 2.0**-k for k in range(9)]
        seq = [z * laplace_closed(model, z) for z in zs]
        limit, _ = richardson_limit(seq)
        worst = max(worst, abs(limit - residue_at_zero(model)))
    assert worst <= 1e-8

    # continuation probe: clean when the only strip pole is the subtracted one
    for model in corpus:
        assert pole_probe(model, 0.1).passed, model

    # and a located failure when an atom sits inside (delta - eta, delta)
    located_ok = True
    for offset in (0.05, 0.03):
        bad = SpectralModel(
            d=2,
            delta=1.5,
            channels=(
                Channel(
                    TRIV2,
                    RealLineMeasure(atoms=((1.5, 1.0), (1.5 - offset, 0.5))),
                    (1.0,),
                ),
            ),
        )
        rep = pole_probe(bad, 0.1)
        located_ok &= (not rep.passed) and abs(rep.pole_location - (-offset)) <= 1e-3
    ok = worst <= 1e-8 and located_ok
    report(6, ok, f"residues to {worst:.2e}; probe separates clean/polluted strips", t0)
    assert located_ok


def test_criterion_7_rate_arithmetic():
    t0 = time.time()
    assert bms_decay_rate(1.0, 2) == 1 / 12

    violations = 0
    points = 0
    for d in range(1, 6):
        for delta in np.linspace(d / 2, d, 47)[1:-1]:
            cap = min(delta - d / 2, 1.0)
            for kappa0 in np.linspace(0.0, cap, 46)[1:]:
                s1 = delta - kappa0
                lhs = min(d - s1, min(2 * delta - d, 1.0))
                points += 1
                if lhs < kappa0 - 1e-14:
                    violations += 1
    ok = violations == 0 and points >= 10_000
    report(7, ok, f"rate inequality on {points} grid points, {violations} violations", t0)
    assert points >= 10_000
    assert violations == 0


def test_criterion_8_rank_obstruction():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    mis = 0
    for _ in range(1000):
        u = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        if rank_test(np.outer(u, v.conj())) > 1:
            mis += 1
    produced = 0
    while produced < 1000:
        q = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        scale = float(np.max(np.abs(q)))
        det = q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0]
        if abs(det) < 0.1 * scale * scale:
            continue
        produced += 1
        if rank_test(q) != 2:
            mis += 1
    ok = mis == 0
    report(8, ok, f"2000 rank classifications, {mis} misclassified", t0)
    assert mis == 0


def test_criterion_9_numeric_vs_closed():
    t0 = time.time()
    grid = [complex(x, 0.0) for x in np.linspace(0.2, 2.0, 19)]
    pure_atom = [m for m in residue_corpus() if not any(ch.measure.pieces for ch in m.channels)]
    worst = 0.0
    for model in pure_atom:
        rep = compare_numeric_closed(model, grid, t_max=80.0)
        assert rep.passed
        worst = max(worst, rep.max_error)
    assert worst <= 1e-6

    # honest truncation bounds across the full corpus, tempered term included
    full = residue_corpus() + [
        SpectralModel(
            d=2,
            delta=1.5,
            channels=(Channel(TRIV2, RealLineMeasure(atoms=((1.4, 1.0),)), (1.0,)),),
            tempered_amplitude=0.6,
        )
    ]
    honest = True
    for model in full:
        rep = compare_numeric_closed(model, grid, t_max=80.0, tol_compare=0.0)
        honest &= rep.passed
    ok = worst <= 1e-6 and honest
    report(9, ok, f"numeric vs closed, worst {worst:.2e}, bounds honest on {len(full)} models", t0)
    assert honest
