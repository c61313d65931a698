import math
import random
import re

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
import adamftrl.adversaries as adversaries
import adamftrl.learner as learner
from adamftrl.adversaries import (_PAIR_CELLS, _PCG_BLOCK, _Pcg64, default_lemma_a1_grid,
                                  default_lemma_a2_grid, run_nonoblivious_pairs,
                                  run_tightness_horizons)
from adamftrl.errors import (
    AdamFtrlError,
    ContractViolation,
    DegenerateStateError,
    OracleHorizonError,
    RegimeError,
    SingularParameterError,
)
from adamftrl.learner import AlphaSchedule, ftrl_update_from_losses, loss_squares
from conftest import (
    literal_lemma_a1_grid,
    literal_lemma_a1_value,
    literal_lemma_a2_grid,
    literal_lemma_a2_value,
    literal_nonoblivious_run,
    literal_tightness_run,
    literal_verify_lemma,
)


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


def _hexed(value):
    """``value`` with each float, also in tuples, as its ``float.hex``: equal means bit-equal."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, tuple):
        return tuple(map(_hexed, value))
    return value


def _outcome(run, *args):
    """What ``run(*args)`` returns, floats as hex, or the type and message of what it raises."""
    try:
        return _hexed(run(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _tightness_outcome(run, *args):
    def fields(*args):
        r = run(*args)
        return (r.regret, r.lower_bound, r.b_total, r.ratio, r.max_prebar, r.any_clipped,
                r.rounds)
    return _outcome(fields, *args)


@st.composite
def _tightness_runs(draw):
    """Mostly runs inside the regime, kappa from 1/p^2 up; then any kappa, v0 or D in range."""
    ratio = draw(st.floats(0.4, 0.6))
    kappa = draw(st.one_of(st.floats(1.0, 8.0).map(lambda f: f / ratio**2),
                           st.floats(2.5, 1e6), st.floats(2.5, 1e150)))
    scale = st.one_of(st.floats(1e-3, 1e3), st.floats(1e-200, 1e160))
    return ratio, kappa, draw(scale), draw(scale), draw(st.integers(2, 60))


@settings(max_examples=150, deadline=None)
@given(_tightness_runs())
@example((0.5, 4.0, 1.0, 1.0, 2))
@example((0.5, 4.0, 1e200, 1.0, 2))       # eta_1's square overflows
@example((0.5, 1e100, 1.0, 1.0, 3))       # eta_3's square overflows
@example((0.5, 1e100, 1.0, 1.0, 2))       # only B's radical overflows
@example((0.5, 4.0, 1e-150, 1e-200, 2))   # B underflows to zero
@example((0.5, 7.6e69, 1.0, 7.8e129, 2))  # the lower bound overflows
@example((0.4, 1.0 / 0.16, 1.0, 1.0, 60))
def test_tightness_run_matches_the_per_prefix_referee(run):
    # every field of every row bit for bit, or the same error with the same message
    ratio, kappa, v0, D, T = run
    assert (_tightness_outcome(run_tightness_experiment, ratio, D, kappa, v0, T)
            == _tightness_outcome(literal_tightness_run, ratio, D, kappa, v0, T))


@settings(max_examples=100, deadline=None)
@given(_tightness_runs(), st.lists(st.integers(1, 60), min_size=1, max_size=4))
@example((0.5, 4.0, 1e-150, 1e-200, 60), [2, 60])   # B underflows at T = 2 only
@example((0.5, 1e100, 1.0, 1.0, 2), [2, 3])         # eta_3's square overflows
@example((0.5, 4.0, 1.0, 1.0, 2), [2, 1, 5])        # T = 1 is out of the regime
def test_tightness_prefixes_are_the_runs_at_each_horizon(run, horizons):
    # each horizon's result equals its own run, or the batch raises when some run does
    ratio, kappa, v0, D, _ = run
    own = [_tightness_outcome(run_tightness_experiment, ratio, D, kappa, v0, T) for T in horizons]
    try:
        batch = run_tightness_horizons(ratio, D, kappa, v0, horizons)
    except (AdamFtrlError, ValueError):
        assert any(isinstance(outcome[0], type) for outcome in own)
        return
    assert [_tightness_outcome(lambda r: r, result) for result in batch] == own


def test_tightness_run_squares_each_loss_once(monkeypatch):
    squared = []

    def counting(losses, ratio):
        squared.extend(losses)
        return loss_squares(losses, ratio)

    for module in (learner, adversaries):   # every module that binds the name
        monkeypatch.setattr(module, "loss_squares", counting)
    run_tightness_experiment(0.5, 1.0, 4.0, 1.0, 60)
    assert squared == geometric_losses(1.0, 4.0, 60)


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


def _pair_outcome(run, *args):
    def fields(*args):
        r = run(*args)
        return r.regret_a, r.regret_aprime, r.per_round_strict, r.any_clipped, r.rounds
    return _outcome(fields, *args)


@st.composite
def _pair_runs(draw):
    """Pairs in and out of the separation regime, with a v at which q may leave the float range
    in either instance, at any round."""
    unit = st.floats(0.01, 0.99)
    ratio = draw(unit)
    beta1 = draw(st.one_of(st.none(), unit.map(lambda f: f * ratio)))
    v = draw(st.one_of(st.floats(1e-3, 1e3), st.floats(1e-200, 1e160),
                       st.sampled_from([1e200, 1e-170, 1.2e154, 1.3e154])))
    return draw(unit), draw(unit), v, ratio, draw(st.integers(2, 60)), beta1


@settings(max_examples=150, deadline=None)
@given(_pair_runs())
@example((0.2, 0.5, 1.0, 0.5, 2, None))
@example((0.2, 0.5, 1e200, 0.5, 10, None))       # q overflows at t = 0
@example((0.2, 0.5, 1e-170, 0.5, 10, None))      # q underflows to zero after g_0
@example((0.1, 0.99, 1.18e154, 0.9, 10, 0.81))   # only the ratio-1 instance's q overflows
@example((0.9, 0.99, 9.86e153, 0.99, 10, 0.985))  # its q at t = 1, the first's later, at t = 2
@pytest.mark.filterwarnings("ignore:a = .* strict per-round dominance is not guaranteed")
def test_nonoblivious_run_matches_the_per_instance_referee(run):
    # every field of every row bit for bit, or the same error with the same message
    assert (_pair_outcome(run_nonoblivious_experiment, *run)
            == _pair_outcome(literal_nonoblivious_run, *run))


def test_pair_whose_beta2_underflows_to_zero_names_its_own_error():
    # at beta1 = 1e-200 both instances' beta2 = (beta1 / ratio)^2 underflow to 0, which
    # HyperParams refuses; the failed batch still names the first instance's own error
    with pytest.raises(DegenerateStateError, match=r"^second-moment accumulator underflows to "
                                                    r"zero after g_1$"):
        run_nonoblivious_experiment(0.2, 0.5, 1.0, 0.5, 10, beta1=1e-200)


@pytest.mark.parametrize("cells", [_PAIR_CELLS, 200], ids=["one-batch", "pair-batches"])
def test_pair_batch_reads_each_pair_at_each_round(cells, monkeypatch):
    # in one batch, or split into batches of at most `cells` cells (here 2 pairs), each pair's
    # rows and totals at every T are those of its own run to T
    monkeypatch.setattr(adversaries, "_PAIR_CELLS", cells)
    pairs = [(a, b) for a in (0.05, 0.3, 0.8) for b in (0.2, 0.7)]
    traces = list(run_nonoblivious_pairs(pairs, 1.5, 0.6, 0.3, 40))
    assert len(traces) == len(pairs)
    for (a, b), trace in zip(pairs, traces):
        for T in (2, 17, 40):
            result = trace.result(T)
            assert tuple(trace.totals(T)) == (result.regret_a, result.regret_aprime,
                                              result.per_round_strict, result.any_clipped)
            assert (_pair_outcome(lambda: result)
                    == _pair_outcome(literal_nonoblivious_run, a, b, 1.5, 0.6, T, 0.3))


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


@pytest.mark.parametrize("verify,point", [
    (verify_lemma_a1, (0.5, math.nan, 1)), (verify_lemma_a1, (0.5, math.inf, 1)),
    (verify_lemma_a1, (math.nan, 4.0, 1)), (verify_lemma_a1, (0.5, 4.0, math.inf)),
    (verify_lemma_a1, (0.5, 4.0, math.nan)), (verify_lemma_a1, (-math.inf, 4.0, 1)),
    (verify_lemma_a2, (0.5, math.nan)), (verify_lemma_a2, (0.5, math.inf)),
    (verify_lemma_a2, (math.nan, 4.0)),
])
def test_lemmas_reject_points_that_are_not_finite(verify, point):
    # y = nan read as max_value -inf and held; t = inf and t = nan died in int(t)
    with pytest.raises(ValueError,
                       match=re.escape(f"point outside the inequality's domain: {point}")):
        verify([(0.5, 4.0, 1)[:len(point)], point])


@pytest.mark.parametrize("verify", [verify_lemma_a1, verify_lemma_a2])
def test_lemmas_reject_an_empty_point_set(verify):
    # used to report max_value -inf over 0 points, and hold
    with pytest.raises(ValueError, match="no points"):
        verify([])


def _lemma_y(x: float):
    """``y`` at the domain's edge ``1/x^2`` (but for the singular x = y = 1), at 1e6, or above
    the edge."""
    edge = [st.just(1.0 / (x * x))] if x < 1.0 else []
    return st.one_of(*edge, st.just(1e6), st.floats(1.0, 1e6).map(lambda f: f / (x * x)))


@st.composite
def _lemma_points(draw, x, t, bad):
    """In-domain points (x = 1, y = 1/x^2 and y = 1e6 included), and at times one bad point
    somewhere among them."""
    point = x.flatmap(lambda x: st.tuples(st.just(x), _lemma_y(x), *t))
    points = draw(st.lists(point, min_size=1, max_size=40))
    if draw(st.booleans()):
        points.insert(draw(st.integers(0, len(points))), draw(st.sampled_from(bad)))
    return points


_A1_POINTS = _lemma_points(
    st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
    [st.one_of(st.integers(1, 60), st.integers(1, 10**15))],
    [(0.5, 3.0, 1), (1.1, 2.0, 1), (-0.5, 4.0, 2), (0.5, 4.0, 0), (0.5, 4.0, 1.5),
     (1.0, 1.0, 3)])
_A2_POINTS = _lemma_points(st.one_of(st.just(0.6), st.floats(1e-3, 0.6)), [],
                           [(0.7, 10.0), (0.5, 3.0), (-0.1, 200.0)])
def _lemma_outcome(verify, points, slack):
    """``(max_value, points_checked)`` of the check, or the type and message of its error."""
    def checked():
        report = verify(points, slack)
        return report.max_value, report.points_checked
    return _outcome(checked)


_SLACKS = st.sampled_from([1e-12, 1e-12, 0.0, -1e-3, -0.2, -0.8])
_MANY_BLOCKS = [(0.5, 4.0 + k, 1 + k % 50) for k in range(2500)]


@settings(max_examples=150, deadline=None)
@given(points=_A1_POINTS, slack=_SLACKS)
@example(points=_MANY_BLOCKS, slack=1e-12)
@example(points=[*_MANY_BLOCKS[:1700], (0.5, 3.0, 1), *_MANY_BLOCKS[1700:]], slack=1e-12)
@example(points=[(0.5, 4.0, 1), (1.0, 1.0, 1), (0.5, 3.0, 1)], slack=1e-12)
@example(points=[(0.5, 4.0, 1), (0.5, 4.0, 0)], slack=-0.2)
def test_lemma_a1_matches_the_per_point_referee(points, slack):
    # the max bit for bit, or the first point out of the domain, singular or failing
    assert _lemma_outcome(verify_lemma_a1, points, slack) == _outcome(
        literal_verify_lemma, points, literal_lemma_a1_value, 1.0, slack, "ratio")


@settings(max_examples=150, deadline=None)
@given(points=_A2_POINTS, slack=_SLACKS)
@example(points=[(x, 1e6) for x in np.linspace(0.01, 0.6, 2200).tolist()], slack=1e-12)
def test_lemma_a2_matches_the_per_point_referee(points, slack):
    assert _lemma_outcome(verify_lemma_a2, points, slack) == _outcome(
        literal_verify_lemma, points, literal_lemma_a2_value, 2.0, slack, "coefficient")


@pytest.mark.parametrize("grid,literal,size,values,value,verify,bound,name", [
    (default_lemma_a1_grid, literal_lemma_a1_grid, 19_950, adversaries._lemma_a1_values,
     literal_lemma_a1_value, verify_lemma_a1, 1.0, "ratio"),
    (default_lemma_a2_grid, literal_lemma_a2_grid, 23_991, adversaries._lemma_a2_values,
     literal_lemma_a2_value, verify_lemma_a2, 2.0, "coefficient"),
], ids=["a1", "a2"])
def test_default_lemma_grids_are_the_per_point_grids(grid, literal, size, values, value, verify,
                                                     bound, name):
    # the same points in the same order, and each value bit for bit (np.power's differ on 32
    # of a1's)
    want = list(literal())
    assert len(want) == size
    assert [tuple(map(float.hex, p)) for p in grid()] == [
        tuple(float(c).hex() for c in p) for p in want]
    points = np.concatenate(list(grid().blocks()))
    assert [v.hex() for v in values(*points.T).tolist()] == [value(p).hex() for p in want]
    assert _lemma_outcome(verify, grid(), 1e-12) == _outcome(
        literal_verify_lemma, want, value, bound, 1e-12, name)


def test_default_grids_are_large_and_pass():
    rep1 = verify_lemma_a1(default_lemma_a1_grid())
    assert rep1.points_checked >= 10_000
    assert rep1.max_value <= 1.0 + 1e-12
    rep2 = verify_lemma_a2(default_lemma_a2_grid())
    assert rep2.points_checked >= 10_000
    assert rep2.max_value <= 2.0 + 1e-12
