import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamftrl import (
    AlphaSchedule,
    HyperParams,
    LearnerState,
    alpha_at,
    clip_to_domain,
    drive as drive_rounds,
    ingest_gradient,
    propose_update,
)
from adamftrl.errors import (
    DegenerateStateError,
    InvalidGradientError,
    OracleHorizonError,
    ScheduleError,
    ScheduleExhaustedError,
)
from adamftrl.learner import root_of_sum, root_sum_of_squares
from conftest import constant_params, decaying_params, drive, random_gradients
from referees import evaluate_objective, ftrl_oracle_update


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def test_constant_schedule():
    sched = AlphaSchedule.constant(1.0)
    assert alpha_at(sched, 7) == 1.0


def test_exponential_decay_values():
    sched = AlphaSchedule.exponential_decay(1.0, 1.25)
    assert alpha_at(sched, 1) == 1.0
    assert math.isclose(alpha_at(sched, 2), 0.8, rel_tol=1e-15)


def test_exponential_decay_ratio_one_is_constant():
    sched = AlphaSchedule.exponential_decay(0.7, 1.0)
    assert all(alpha_at(sched, t) == 0.7 for t in range(1, 20))


def test_exponential_decay_rejects_increasing():
    with pytest.raises(ScheduleError):
        AlphaSchedule.exponential_decay(1.0, 0.9)


def test_explicit_schedule():
    sched = AlphaSchedule.explicit([1.0, 0.5, 0.5, 0.25])
    assert alpha_at(sched, 3) == 0.5
    with pytest.raises(ScheduleExhaustedError):
        alpha_at(sched, 5)


def test_explicit_rejects_increase():
    with pytest.raises(ScheduleError):
        AlphaSchedule.explicit([1.0, 1.5])


def test_schedule_rejects_nonpositive_alpha():
    with pytest.raises(ScheduleError):
        AlphaSchedule.constant(0.0)


def test_alpha_at_rejects_bad_round():
    with pytest.raises(ValueError):
        alpha_at(AlphaSchedule.constant(1.0), 0)


def test_schedules_are_non_increasing():
    for sched in (AlphaSchedule.constant(2.0),
                  AlphaSchedule.exponential_decay(2.0, 1.5),
                  AlphaSchedule.explicit([3.0, 2.0, 2.0, 1.0])):
        vals = [alpha_at(sched, t) for t in range(1, min(5, 99) if sched.kind == "explicit" else 30)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Clipping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x,D,expected", [
    (0.3, 1.0, 0.3),
    (-4.0, 1.0, -1.0),
    (2.5, None, 2.5),
    (-1.0, 1.0, -1.0),   # boundary passes through unchanged
    (0.0, 1.0, 0.0),
])
def test_clip_to_domain(x, D, expected):
    assert clip_to_domain(x, D) == expected


@given(st.floats(-1e6, 1e6), st.floats(0.01, 100.0))
def test_clip_properties(x, D):
    y = clip_to_domain(x, D)
    assert abs(y) <= D
    if abs(x) <= D:
        assert y == x
    else:
        assert y == math.copysign(D, x)


# ---------------------------------------------------------------------------
# Ingesting gradients
# ---------------------------------------------------------------------------

def test_ingest_recurrences():
    params = constant_params(0.5, 0.25)
    s = LearnerState()
    ingest_gradient(s, 2.0, params)
    assert (s.m, s.q, s.max_v) == (2.0, 4.0, 2.0)
    ingest_gradient(s, 1.0, params)
    assert (s.m, s.q, s.max_v) == (2.0, 2.0, 1.0)
    ingest_gradient(s, 0.0, params)   # zero is legal after the first round
    assert (s.m, s.q, s.max_v) == (1.0, 0.5, 0.5)
    assert s.t == 3


def test_first_gradient_must_be_nonzero():
    params = constant_params(0.5, 0.25)
    with pytest.raises(InvalidGradientError):
        ingest_gradient(LearnerState(), 0.0, params)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_gradient_rejected(bad):
    params = constant_params(0.5, 0.25)
    s = LearnerState()
    ingest_gradient(s, 1.0, params)
    with pytest.raises(InvalidGradientError):
        ingest_gradient(s, bad, params)


def test_replay_is_bit_exact():
    params = constant_params(0.7, 0.6)
    rng = random.Random(7)
    gs = random_gradients(rng, 50)
    run = drive(gs, params)
    replay = LearnerState()
    for g in run.gradients:
        ingest_gradient(replay, g, params)
    assert replay.m == run.state.m
    assert replay.q == run.state.q
    assert replay.max_v == run.state.max_v


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=30))
@settings(max_examples=60)
def test_max_v_never_exceeds_raw_max(gs):
    if gs[0] == 0.0:
        gs[0] = 1.0
    params = constant_params(0.6, 0.5)
    s = LearnerState()
    for g in gs:
        ingest_gradient(s, g, params)
    assert s.max_v <= max(abs(g) for g in gs) + 1e-15


# ---------------------------------------------------------------------------
# Proposing updates
# ---------------------------------------------------------------------------

def test_propose_worked_example():
    params = constant_params(0.5, 0.25)
    s = LearnerState()
    ingest_gradient(s, 2.0, params)
    out = propose_update(s, params)
    assert out.delta_bar == -1.0
    assert not out.clipped
    ingest_gradient(s, 1.0, params)
    out2 = propose_update(s, params)
    assert math.isclose(out2.delta_bar, -2.0 / math.sqrt(2.0), rel_tol=1e-15)


def test_single_gradient_magnitude_is_alpha():
    # after only g_0, the update is -alpha_1 * sign(g_0) before clipping
    for g0 in (3.0, -0.2, 1e-6):
        params = constant_params(0.9, 0.5, alpha=0.37)
        s = LearnerState()
        ingest_gradient(s, g0, params)
        out = propose_update(s, params)
        assert math.isclose(out.delta_bar, -0.37 * math.copysign(1.0, g0), rel_tol=1e-12)


def test_propose_requires_gradient():
    params = constant_params(0.5, 0.25)
    with pytest.raises(DegenerateStateError):
        propose_update(LearnerState(), params)


def test_clipped_flag_iff_prebar_exceeds_domain():
    params = constant_params(0.5, 0.25, alpha=5.0, D=1.0)
    s = LearnerState()
    ingest_gradient(s, 2.0, params)
    out = propose_update(s, params)
    assert out.clipped and out.delta == -1.0 and out.delta_bar == -5.0
    assert s.d_max == 1.0


def test_d_max_stays_within_domain():
    params = constant_params(0.4, 0.9, alpha=3.0, D=0.5)
    rng = random.Random(3)
    run = drive(random_gradients(rng, 40), params)
    assert run.state.d_max <= 0.5
    for bar, clip in zip(run.delta_bars, run.clipped):
        assert clip == (abs(bar) > 0.5)


def anchored_eta(t, alpha_t, q_t, params):
    """``eta_t = alpha_t beta1^(t-1) / sqrt(q_t)``, from the accumulator the update used."""
    return alpha_t * params.beta1 ** (t - 1) / math.sqrt(q_t)


def test_eta_anchored_matches_literal_learning_rate():
    params = decaying_params(0.5, 0.16)  # p = 1.25
    gs = [2.0, 1.0, -0.5, 0.25]
    for t, alpha_t, _, q_t, *_ in drive_rounds(gs, params):
        vs = [gs[i] / params.beta1**i for i in range(t)]
        eta_lit = (alpha_at(params.alpha, t) * params.p ** (t - 1)
                   / math.sqrt(sum((params.p**s_ * v) ** 2 for s_, v in enumerate(vs))))
        assert math.isclose(anchored_eta(t, alpha_t, q_t, params), eta_lit, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# FTRL oracle and objective
# ---------------------------------------------------------------------------

def test_oracle_worked_examples():
    assert ftrl_oracle_update([2.0], constant_params(0.5, 0.25), 1) == -1.0
    params = decaying_params(0.5, 0.16)
    assert math.isclose(ftrl_oracle_update([2.0, 1.0], params, 2),
                        -1.2493900951088486, rel_tol=1e-12)


def test_oracle_horizon_error():
    params = constant_params(0.5, 0.25)
    gs = [1.0] * 10
    with pytest.raises(OracleHorizonError):
        ftrl_oracle_update(gs, params, 8, horizon=5)
    with pytest.raises(OracleHorizonError):
        evaluate_objective(gs, params, 8, 0.0, horizon=5)


def test_oracle_needs_enough_gradients():
    with pytest.raises(ValueError):
        ftrl_oracle_update([1.0], constant_params(0.5, 0.25), 2)


@pytest.mark.parametrize("seed", range(6))
def test_equivalence_on_random_traces(seed):
    rng = random.Random(seed)
    b1 = rng.choice([0.3, 0.5, 0.7, 0.9, 0.99])
    b2 = rng.choice([0.1, 0.25, 0.5, 0.81, 0.999])
    p = b1 / math.sqrt(b2)
    params = HyperParams(
        beta1=b1, beta2=b2,
        alpha=(AlphaSchedule.exponential_decay(1.0, p) if p > 1 and seed % 2
               else AlphaSchedule.constant(1.0)),
        D=rng.choice([None, 1.0]),
    )
    gs = random_gradients(rng, rng.randint(1, 40))
    for t, _, _, _, _, stable, *_ in drive_rounds(gs, params):
        literal = ftrl_oracle_update(gs[:t], params, t)
        assert math.isclose(stable, literal, rel_tol=1e-10, abs_tol=1e-12)


def test_objective_at_zero_is_zero():
    params = constant_params(0.5, 0.25)
    assert evaluate_objective([2.0, 1.0], params, 2, 0.0) == 0.0


def test_objective_worked_example():
    params = constant_params(0.5, 0.25)
    assert evaluate_objective([2.0], params, 1, -1.0) == -1.0


def test_emitted_update_minimizes_objective_on_grid():
    params = constant_params(0.6, 0.5, alpha=0.8, D=1.0)
    rng = random.Random(11)
    gs = random_gradients(rng, 12, scale=3.0)
    run = drive(gs, params)
    for t in range(1, 13):
        f_star = evaluate_objective(gs, params, t, run.deltas[t - 1])
        for k in range(1000):
            x = -1.0 + 2.0 * k / 999.0
            assert f_star <= evaluate_objective(gs, params, t, x) + 1e-9


def test_learning_rate_monotone_p_below_one():
    params = constant_params(0.5, 0.36)  # p < 1
    rng = random.Random(5)
    gs = random_gradients(rng, 25)
    etas = [anchored_eta(t, alpha_t, q_t, params)
            for t, alpha_t, _, q_t, *_ in drive_rounds(gs, params)]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(etas, etas[1:]))


def test_learning_rate_monotone_p_above_one_with_decay():
    params = decaying_params(0.9, 0.5)  # p > 1, alpha_t = alpha / p^(t-1)
    rng = random.Random(6)
    gs = random_gradients(rng, 25)
    etas = [anchored_eta(t, alpha_t, q_t, params)
            for t, alpha_t, _, q_t, *_ in drive_rounds(gs, params)]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(etas, etas[1:]))


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(beta1=0.0, beta2=0.5, alpha=AlphaSchedule.constant(1.0))
    with pytest.raises(ValueError):
        HyperParams(beta1=0.5, beta2=1.0, alpha=AlphaSchedule.constant(1.0))
    with pytest.raises(ValueError):
        HyperParams(beta1=0.5, beta2=0.5, alpha=AlphaSchedule.constant(1.0), D=0.0)
    params = HyperParams(beta1=0.5, beta2=0.16, alpha=AlphaSchedule.constant(1.0))
    assert math.isclose(params.p, 1.25, rel_tol=1e-15)


def test_a_root_of_a_sum_past_the_float_range_is_infinite():
    # fsum raises OverflowError where the exact sum leaves the float range; a square that
    # overflows on its own is already inf, which fsum adds without raising
    assert root_of_sum([1.7e308, 1.7e308]) == math.inf
    assert root_sum_of_squares([1e200, 1.0], 1.0, 2) == math.inf


@pytest.mark.parametrize("make,message", [
    (lambda: AlphaSchedule.exponential_decay(0.0, 2.0), "alpha must be positive, got 0.0"),
    (lambda: AlphaSchedule.explicit([]), "explicit schedule needs at least one value"),
    (lambda: AlphaSchedule.explicit([1.0, 0.0]), "explicit schedule values must be positive"),
    (lambda: alpha_at(AlphaSchedule("cosine", 1.0), 1), "unknown schedule kind 'cosine'"),
])
def test_schedules_reject_what_they_cannot_run(make, message):
    with pytest.raises(ScheduleError, match=f"^{re.escape(message)}$"):
        make()
