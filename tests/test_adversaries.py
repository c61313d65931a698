import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adamftrl import (
    FixedSequence,
    GeometricSequence,
    NonObliviousPair,
    RandomUniform,
    closed_form_prebar_delta,
    geometric_losses,
    nonoblivious_per_round_regret,
    run_nonoblivious_experiment,
    run_tightness_experiment,
    verify_lemma_a1,
    verify_lemma_a2,
)
from adamftrl.adversaries import _PCG_BLOCK, _Pcg64, default_lemma_a1_grid, default_lemma_a2_grid
from adamftrl.errors import (
    ContractViolation,
    OracleHorizonError,
    RegimeError,
    SingularParameterError,
)
from adamftrl.learner import AlphaSchedule, ftrl_update_from_losses


# ---------------------------------------------------------------------------
# Adversary descriptions
# ---------------------------------------------------------------------------

def test_fixed_sequence_validation():
    spec = FixedSequence((2.0, 1.0, 1.0))
    assert spec.gradient_stream(2) == [2.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        FixedSequence((0.0, 1.0))
    with pytest.raises(ValueError):
        FixedSequence((math.inf, 1.0))
    with pytest.raises(ValueError):
        spec.gradient_stream(5)


def test_random_uniform_is_seeded_and_bounded():
    a = RandomUniform(seed=5).gradient_stream(30)
    b = RandomUniform(seed=5).gradient_stream(30)
    c = RandomUniform(seed=6).gradient_stream(30)
    assert a == b and a != c
    assert all(abs(g) <= 1.0 for g in a) and a[0] != 0.0
    with pytest.raises(ValueError):
        RandomUniform(seed=1, distribution="gaussian")
    with pytest.raises(ValueError, match="seed >= 0"):
        RandomUniform(seed=-1)


def _numpy_uniform(seed: int, n: int) -> list[float]:
    return np.random.Generator(np.random.PCG64(seed)).uniform(-1.0, 1.0, n).tolist()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**130),
       T=st.sampled_from([0, 1, _PCG_BLOCK - 2, _PCG_BLOCK - 1, _PCG_BLOCK, 2 * _PCG_BLOCK,
                          5 * _PCG_BLOCK + 3]))
@example(seed=0, T=5 * _PCG_BLOCK + 3)
@example(seed=2**32, T=_PCG_BLOCK)        # two entropy words
@example(seed=2**130, T=2 * _PCG_BLOCK)   # five: one past SeedSequence's pool of four
def test_random_uniform_is_numpys_pcg64_stream(seed, T):
    # numpy.random is the referee: the stream is its PCG64 stream bit for bit, across block edges
    got = RandomUniform(seed).gradient_stream(T)
    assert list(map(float.hex, got)) == list(map(float.hex, _numpy_uniform(seed, T + 1)))


@pytest.mark.parametrize("n", [1, _PCG_BLOCK - 1, _PCG_BLOCK, _PCG_BLOCK + 1, 3 * _PCG_BLOCK])
def test_pcg64_draws_continue_numpys_stream(n):
    # n draws then one more are numpy's n + 1 draws, as the g[0] == 0 redraw needs
    rng = _Pcg64(7)
    assert rng.uniform(n).tolist() + rng.uniform(1).tolist() == _numpy_uniform(7, n + 1)


def test_a_zero_first_gradient_is_redrawn_from_the_same_stream(monkeypatch):
    # a first draw of exactly 0.0 (probability 2^-53) becomes the stream's next draw
    draw = _Pcg64.uniform

    def first_draw_zero(self, n):
        g = draw(self, n)
        g[0] = 0.0 if n > 1 else g[0]
        return g

    monkeypatch.setattr(_Pcg64, "uniform", first_draw_zero)
    ref = _numpy_uniform(3, 12)
    assert RandomUniform(3).gradient_stream(10) == [ref[11]] + ref[1:11]


def test_geometric_sequence_type_needs_growth():
    assert GeometricSequence(1.0, 4.0).losses(2) == [1.0, 4.0, 16.0]
    with pytest.raises(ValueError):
        GeometricSequence(0.0, 4.0)
    with pytest.raises(ValueError):
        GeometricSequence(1.0, 0.5)


def test_nonoblivious_pair_type():
    pair = NonObliviousPair(a=0.2, b=0.5, v=1.0)
    assert pair.separation_expected
    assert not NonObliviousPair(a=0.3, b=0.5, v=1.0).separation_expected
    with pytest.raises(ValueError):
        NonObliviousPair(a=1.2, b=0.5, v=1.0)
    with pytest.raises(ValueError):
        NonObliviousPair(a=0.2, b=0.5, v=0.0)


# ---------------------------------------------------------------------------
# Geometric sequences and the closed-form update
# ---------------------------------------------------------------------------

def test_geometric_losses_examples():
    assert geometric_losses(1.0, 4.0, 2) == [1.0, 4.0, 16.0]
    assert geometric_losses(0.7, 1.0, 4) == [0.7] * 5
    assert geometric_losses(2.0, 0.5, 2) == [2.0, 1.0, 0.5]


def test_closed_form_worked_values():
    assert math.isclose(closed_form_prebar_delta(0.25, 0.5, 4.0, 1), -0.25, rel_tol=1e-15)
    assert math.isclose(closed_form_prebar_delta(0.25, 0.5, 4.0, 2),
                        -0.2795084971874737, rel_tol=1e-12)


def test_closed_form_singularities():
    with pytest.raises(SingularParameterError):
        closed_form_prebar_delta(0.25, 0.5, 1.0, 3)
    with pytest.raises(SingularParameterError):
        closed_form_prebar_delta(0.25, 0.5, 2.0, 3)   # ratio * kappa = 1


def test_closed_form_matches_simulation():
    for ratio in (0.4, 0.5, 0.6, 0.9, 1.2):
        for kappa in (1.5, 4.0, 1.0 / ratio**2 if ratio < 1 else 2.0, 7.0):
            if kappa == 1.0 or (ratio * kappa) ** 2 == 1.0:
                continue
            losses = geometric_losses(1.3, kappa, 25)
            for t in (1, 2, 5, 12, 25):
                sim = ftrl_update_from_losses(losses, ratio, 0.25, t, None)
                closed = closed_form_prebar_delta(0.25, ratio, kappa, t)
                assert math.isclose(sim, closed, rel_tol=1e-9), (ratio, kappa, t)


def test_no_clipping_region_of_closed_form():
    # alpha = D/4 with kappa >= 1/ratio^2 keeps every pre-clipping update
    # within half the domain
    D = 1.0
    for i in range(1, 61):
        ratio = i * 0.01
        for kappa in (1.0 / ratio**2, 2.0 / ratio**2):
            for t in range(1, 51):
                val = closed_form_prebar_delta(D / 4.0, ratio, kappa, t)
                assert abs(val) <= D / 2.0 + 1e-12, (ratio, kappa, t)


# ---------------------------------------------------------------------------
# Tightness experiment
# ---------------------------------------------------------------------------

def test_tightness_two_round_worked_example():
    r = run_tightness_experiment(0.5, 1.0, 4.0, 1.0, 2)
    assert math.isclose(r.regret, 14.52786404500042, rel_tol=1e-12)
    assert r.lower_bound == 10.0
    assert math.isclose(r.max_prebar, 0.2795084971874737, rel_tol=1e-12)
    assert not r.any_clipped
    assert math.isclose(r.b_total, 98.48636250920512, rel_tol=1e-12)
    assert [round(x.delta, 6) for x in r.rounds] == [-0.25, -0.279508]


def test_tightness_contracts_across_sweep():
    for ratio in (0.40, 0.45, 0.50, 0.55, 0.60):
        kappa = 1.0 / ratio**2
        for T in (2, 7, 20):
            r = run_tightness_experiment(ratio, 2.0, kappa, 0.5, T)
            assert not r.any_clipped
            assert r.max_prebar <= 1.0 + 1e-12
            assert r.regret >= r.lower_bound - 1e-9 * abs(r.regret)
            assert r.ratio > 0


def test_tightness_regime_errors():
    with pytest.raises(RegimeError):
        run_tightness_experiment(0.7, 1.0, 4.0, 1.0, 2)
    with pytest.raises(RegimeError):
        run_tightness_experiment(0.5, 1.0, 2.0, 1.0, 2)   # kappa < 1/p^2
    with pytest.raises(RegimeError):
        run_tightness_experiment(0.5, 1.0, 4.0, 1.0, 1)
    with pytest.raises(OracleHorizonError):
        run_tightness_experiment(0.5, 1.0, 4.0, 1.0, 50, horizon=20)


# ---------------------------------------------------------------------------
# Non-oblivious pair experiment
# ---------------------------------------------------------------------------

def test_per_round_closed_forms_round_one():
    # t = 1 collapses to v * rate * (1 - 1/K) for any momentum ratio
    assert math.isclose(nonoblivious_per_round_regret(0.2, 1.0, 2.0, 0.5, 1), 0.1,
                        rel_tol=1e-12)
    assert math.isclose(nonoblivious_per_round_regret(0.5, 1.0, 2.0, 1.0, 1), 0.25,
                        rel_tol=1e-12)


def test_per_round_closed_forms_round_two():
    assert math.isclose(nonoblivious_per_round_regret(0.2, 1.0, 2.0, 0.5, 2),
                        0.028059553717480132, rel_tol=1e-12)
    assert math.isclose(nonoblivious_per_round_regret(0.5, 1.0, 2.0, 1.0, 2),
                        0.08229490168751577, rel_tol=1e-12)


def test_simulated_rounds_match_closed_forms():
    a, b, v, ratio, T = 0.1, 0.45, 1.7, 0.35, 12
    K = max(1.0 / (1.0 - a), 1.0 / (1.0 - b))
    res = run_nonoblivious_experiment(a, b, v, ratio, T)
    for r in res.rounds:
        assert math.isclose(r.f_a, nonoblivious_per_round_regret(a, v, K, ratio, r.t),
                            rel_tol=1e-9)
        assert math.isclose(r.f_aprime, nonoblivious_per_round_regret(b, v, K, 1.0, r.t),
                            rel_tol=1e-9)


def test_nonoblivious_worked_pair():
    res = run_nonoblivious_experiment(0.2, 0.5, 1.0, 0.5, 2)
    assert math.isclose(res.regret_a, 0.12805955371748015, rel_tol=1e-9)
    assert math.isclose(res.regret_aprime, 0.3322949016875158, rel_tol=1e-9)
    assert res.per_round_strict
    assert not res.any_clipped


def test_nonoblivious_beta1_gauge_is_free():
    base = run_nonoblivious_experiment(0.2, 0.5, 1.0, 0.5, 10)
    other = run_nonoblivious_experiment(0.2, 0.5, 1.0, 0.5, 10, beta1=0.1)
    assert math.isclose(base.regret_a, other.regret_a, rel_tol=1e-11)
    assert math.isclose(base.regret_aprime, other.regret_aprime, rel_tol=1e-11)


def test_nonoblivious_strictness_sweep():
    for a in (0.05, 0.1, 0.2):
        for b in (0.4, 0.5, 0.7):
            if not a < b * b:
                continue
            res = run_nonoblivious_experiment(a, b, 1.0, 0.5, 30)
            assert res.per_round_strict, (a, b)
            assert res.regret_a < res.regret_aprime
            assert not res.any_clipped


def test_nonoblivious_degenerate_pair_warns():
    # a = b violates a < b^2: a warning, a report, and no strictness claim
    with pytest.warns(UserWarning):
        res = run_nonoblivious_experiment(0.5, 0.5, 1.0, 0.5, 5)
    assert not res.per_round_strict   # round 1 pays the same on both sides
    assert not res.any_clipped


def test_nonoblivious_validation():
    with pytest.raises(RegimeError):
        run_nonoblivious_experiment(0.2, 0.5, 1.0, 1.2, 5)
    with pytest.raises(RegimeError):
        run_nonoblivious_experiment(0.2, 0.5, 1.0, 0.5, 5, beta1=0.8)  # gauge >= ratio
    with pytest.raises(RegimeError):
        run_nonoblivious_experiment(1.2, 0.5, 1.0, 0.5, 5)
    with pytest.raises(OracleHorizonError):
        run_nonoblivious_experiment(0.2, 0.5, 1.0, 0.5, 70)


# ---------------------------------------------------------------------------
# Technical inequalities on grids
# ---------------------------------------------------------------------------

def test_lemma_a1_hand_values():
    rep = verify_lemma_a1([(0.5, 4.0, 1)])
    assert math.isclose(rep.max_value, 1.5 / math.sqrt(3.0), rel_tol=1e-12)


def test_lemma_a1_boundary_y():
    # y = 1/x^2 exactly
    for x in (0.2, 0.5, 0.99):
        rep = verify_lemma_a1([(x, 1.0 / (x * x), t) for t in (1, 2, 10)])
        assert rep.max_value <= 1.0 + 1e-12


def test_lemma_a1_at_x_equal_one():
    # x = 1 simplifies to sqrt((y^t - 1)/(y^t + 1)) < 1
    pts = [(1.0, y, t) for y in (1.5, 2.0, 10.0) for t in (1, 3, 7)]
    rep = verify_lemma_a1(pts)
    assert rep.max_value < 1.0
    want = math.sqrt((10.0**7 - 1.0) / (10.0**7 + 1.0))
    got = verify_lemma_a1([(1.0, 10.0, 7)]).max_value
    assert math.isclose(got, want, rel_tol=1e-12)


def test_lemma_a1_rejects_out_of_domain():
    with pytest.raises(ValueError):
        verify_lemma_a1([(0.5, 3.0, 1)])   # y < 1/x^2
    with pytest.raises(ValueError):
        verify_lemma_a1([(1.1, 2.0, 1)])
    with pytest.raises(ValueError):
        verify_lemma_a1([(1.0, 1.0, 1)])   # singular corner
    with pytest.raises(ValueError):
        verify_lemma_a1([(0.5, 4.0, 0)])


def test_lemma_a1_violation_path():
    with pytest.raises(ContractViolation):
        verify_lemma_a1([(0.5, 4.0, 1)], slack=-0.5)


def test_lemma_a2_hand_values():
    rep = verify_lemma_a2([(0.5, 4.0)])
    assert math.isclose(rep.max_value, math.sqrt(3.0) / 1.5, rel_tol=1e-12)


def test_lemma_a2_boundary_and_large_y():
    rep = verify_lemma_a2([(0.6, 1.0 / 0.36)])
    assert math.isclose(rep.max_value, 1.25, rel_tol=1e-12)
    rep = verify_lemma_a2([(x, 1e6) for x in (0.1, 0.3, 0.6)])
    assert rep.max_value <= 1.0 + 1e-5   # tends to 1 for large y


def test_lemma_a2_rejects_out_of_domain():
    with pytest.raises(ValueError):
        verify_lemma_a2([(0.7, 10.0)])    # x > 0.6
    with pytest.raises(ValueError):
        verify_lemma_a2([(0.5, 3.0)])     # y < 1/x^2


def test_default_grids_are_large_and_pass():
    rep1 = verify_lemma_a1(default_lemma_a1_grid())
    assert rep1.points_checked >= 10_000
    assert rep1.max_value <= 1.0 + 1e-12
    rep2 = verify_lemma_a2(default_lemma_a2_grid())
    assert rep2.points_checked >= 10_000
    assert rep2.max_value <= 2.0 + 1e-12
