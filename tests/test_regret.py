import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adamftrl import (
    AlphaSchedule,
    HyperParams,
    RegretLedger,
    accumulate_discounted_regret,
    per_round_ftrl_inequality,
    undiscounted_regret,
)
from adamftrl import drive as drive_rounds
import adamftrl.learner as learner
import adamftrl.regret as regret
from adamftrl.errors import AdamFtrlError, NotApplicableError, OracleHorizonError, ScheduleError
from adamftrl.regret import _BLOCK, drive_batch
from conftest import (constant_params, decaying_params, drive, drive_one_step,
                      literal_per_round_ftrl_inequality, random_gradients)


def test_single_round():
    led = RegretLedger(u=0.0)
    accumulate_discounted_regret(led, 1.0, -1.0, 0.5)
    assert led.r_disc == -1.0


def test_two_round_worked_example():
    led = RegretLedger(u=0.0)
    accumulate_discounted_regret(led, 1.0, -1.0, 0.5)
    accumulate_discounted_regret(led, 1.0, -math.sqrt(2.0), 0.5)
    assert math.isclose(led.r_disc, 0.5 * -1.0 - math.sqrt(2.0), rel_tol=1e-15)


def test_zero_losses_stay_zero():
    led = RegretLedger(u=0.3)
    for _ in range(50):
        accumulate_discounted_regret(led, 0.0, -0.7, 0.9)
    assert led.r_disc == 0.0


def test_comparator_equals_play_gives_zero():
    led = RegretLedger(u=-0.4)
    for g in (1.0, -2.0, 3.0):
        accumulate_discounted_regret(led, g, -0.4, 0.8)
    assert led.r_disc == 0.0
    assert undiscounted_regret([1.0, -2.0, 3.0], [-0.4] * 3, -0.4, 0.8) == 0.0


def test_undiscounted_worked_example():
    r = undiscounted_regret([1.0, 1.0], [-1.0, -math.sqrt(2.0)], 0.0, 0.5)
    assert math.isclose(r, -7.656854249492381, rel_tol=1e-12)


def test_undiscounted_single_term():
    v, d, u, b1 = 2.5, -0.3, 0.1, 0.7
    assert math.isclose(undiscounted_regret([v], [d], u, b1),
                        v * (d - u) / b1, rel_tol=1e-15)


def test_undiscounted_horizon_guard():
    with pytest.raises(OracleHorizonError):
        undiscounted_regret([1.0] * 10, [0.0] * 10, 0.0, 0.5, horizon=5)


def test_undiscounted_length_mismatch():
    with pytest.raises(ValueError):
        undiscounted_regret([1.0, 2.0], [0.0], 0.0, 0.5)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_discount_consistency(seed):
    rng = random.Random(seed)
    b1 = rng.uniform(0.2, 0.95)
    b2 = rng.uniform(0.1, 0.99)
    params = constant_params(b1, b2, D=rng.choice([None, 1.0]))
    u = rng.uniform(-1.0, 1.0)
    gs = random_gradients(rng, rng.randint(1, 30))
    run = drive(gs, params, u=u)
    lit = undiscounted_regret(gs[1:], run.deltas, u, b1)
    assert math.isclose(b1 ** (len(gs) - 1) * lit, run.ledger.r_disc,
                        rel_tol=1e-9, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Per-round telescoping inequality
# ---------------------------------------------------------------------------

def test_per_round_worked_example():
    params = constant_params(0.5, 0.25)
    rec = per_round_ftrl_inequality([2.0, 1.0, 1.0], params, 1)
    assert rec.holds()
    assert math.isclose(rec.stability_bound, 1.0, rel_tol=1e-12)
    assert rec.lhs <= min(rec.stability_bound, rec.range_bound)


def test_per_round_zero_gradients_after_seed():
    params = constant_params(0.5, 0.25)
    gs = [2.0, 0.0, 0.0, 0.0]
    for t in range(1, 4):
        rec = per_round_ftrl_inequality(gs, params, t)
        assert rec.stability_bound == 0.0
        assert rec.range_bound == 0.0
        assert rec.lhs <= 1e-12


def test_per_round_requires_unclipped_trace():
    params = constant_params(0.5, 0.25, alpha=10.0, D=1.0)
    with pytest.raises(NotApplicableError):
        per_round_ftrl_inequality([2.0, 1.0, 1.0], params, 1)


def test_per_round_horizon_guard():
    params = constant_params(0.5, 0.25)
    with pytest.raises(OracleHorizonError):
        per_round_ftrl_inequality([1.0] * 12, params, 11, horizon=10)


def test_per_round_index_bounds():
    params = constant_params(0.5, 0.25)
    with pytest.raises(ValueError):
        per_round_ftrl_inequality([2.0, 1.0], params, 2)


@pytest.mark.parametrize("regime", ["p_below_one", "p_above_one"])
def test_per_round_property_sweep(regime):
    rng = random.Random(99 if regime == "p_below_one" else 100)
    for _ in range(60):
        if regime == "p_below_one":
            b2 = rng.uniform(0.2, 0.99)
            b1 = rng.uniform(0.3, 1.0) * math.sqrt(b2)
            params = constant_params(min(max(b1, 0.05), 0.99), b2)
        else:
            b1 = rng.uniform(0.4, 0.95)
            b2 = rng.uniform(0.3, 1.0) * b1 * b1
            params = decaying_params(b1, min(max(b2, 0.05), 0.999))
        gs = random_gradients(rng, rng.randint(2, 15), scale=5.0)
        for t in range(1, len(gs) - 1):
            rec = per_round_ftrl_inequality(gs, params, t)
            assert rec.holds(), (regime, t, rec)


# gradients at the edges of the float range: q = g^2 underflows to 0 near 1e-170 and is
# subnormal near 1e-160; q overflows near 1e154; and the non-finite ones are rejected.
# Integer gradients are drawn too, so the two drivers must agree on types, not only values.
_EDGE_GRADIENTS = st.sampled_from([0.0, -0.0, 1e-170, -1e-170, 1e-160, 1e154, -1e154, 1.7e308,
                                   math.inf, -math.inf, math.nan])


@st.composite
def _driver_cases(draw):
    T = draw(st.integers(0, 25))
    if draw(st.booleans()):
        gradient = st.one_of(st.floats(-10.0, 10.0), st.integers(-10, 10), _EDGE_GRADIENTS)
        gradients = draw(st.lists(gradient, min_size=T + 1, max_size=T + 1))
    else:   # a seed well clear of 0, so that most of these runs reach round T
        gradients = [draw(st.floats(1e-3, 10.0)) * draw(st.sampled_from([-1.0, 1.0]))]
        gradients += draw(st.lists(st.floats(-10.0, 10.0), min_size=T, max_size=T))
    alpha = draw(st.one_of(st.floats(1e-3, 1e3), st.floats(1e-300, 1e308), st.just(1e308)))
    kind = draw(st.sampled_from(["constant", "exponential_decay", "explicit"]))
    if kind == "constant":
        schedule = AlphaSchedule.constant(alpha)
    elif kind == "exponential_decay":   # a steep decay underflows to 0 within a few rounds
        schedule = AlphaSchedule.exponential_decay(alpha, draw(st.floats(1.0, 1e100)))
    else:   # may run out before round T
        values = draw(st.lists(st.floats(1e-300, 1e308), min_size=1, max_size=T + 2))
        schedule = AlphaSchedule.explicit(sorted(values, reverse=True))
    params = HyperParams(beta1=draw(st.floats(0.01, 0.99)), beta2=draw(st.floats(0.01, 0.99)),
                         alpha=schedule, D=draw(st.one_of(st.none(), st.floats(1e-3, 1e3))))
    return gradients, params, draw(st.floats(-2.0, 2.0))


def _run_to_end(rounds):
    """The rounds a driver yields, as reprs (which tell -0.0 from 0.0), and what stopped it."""
    seen = []
    try:
        for round_ in rounds:
            seen.append(tuple(map(repr, round_)))
    except Exception as exc:   # the two drivers must raise alike, whatever it is
        return seen, (type(exc), str(exc))
    return seen, None


@given(_driver_cases())
@example(([1.0, 5.0, 0.0, 3.0], HyperParams(0.9, 0.99, AlphaSchedule.constant(1e308), D=1.0),
          0.5))
@settings(max_examples=400, deadline=None)
def test_drive_matches_the_one_step_referee_bit_for_bit(case):
    # the inlined loop yields every value of the one-step API's rounds, bit for bit, and stops
    # after as many rounds with the same error type and message
    gradients, params, u = case
    assert _run_to_end(drive_rounds(gradients, params, u)) == _run_to_end(
        drive_one_step(gradients, params, u))


@st.composite
def _batch_cases(draw):
    """Up to four learners on one shared stream or on a matrix of their own, whose runs may
    stop at any of the round loop's checks, in any block."""
    T = draw(st.sampled_from([0, 1, 5, 30, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]))
    n = draw(st.integers(1, 4))
    shared = draw(st.booleans())
    extreme = st.sampled_from([0.0, 1e-170, -1e-160, 1e-300, 1.2e154, -1.3e154, 1e200, 1.7e308])
    seed = st.one_of(st.floats(1e-3, 10.0), st.floats(1e-3, 10.0),
                     st.sampled_from([1e-170, 1e-160, 1e154, 1e200]))

    def stream():
        body = draw(st.lists(st.floats(-10.0, 10.0), min_size=min(T, 8), max_size=min(T, 8)))
        stream = [draw(seed) * draw(st.sampled_from([-1.0, 1.0]))] + [
            body[t % len(body)] for t in range(T)]
        if T and draw(st.booleans()):   # one extreme gradient, in any block
            stream[draw(st.integers(1, T))] = draw(extreme)
        return stream

    columns = [stream()] if shared else [stream() for _ in range(n)]
    alpha = st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e-300, 1e300, 1e308]))
    schedules = [draw(st.one_of(alpha.map(AlphaSchedule.constant),
                                st.builds(AlphaSchedule.exponential_decay, alpha,
                                          st.floats(1.0, 1e3))))
                 for _ in range(draw(st.integers(1, 2)))]
    params = [HyperParams(beta1=draw(st.floats(0.01, 0.99)), beta2=draw(st.floats(0.01, 0.99)),
                          alpha=draw(st.sampled_from(schedules)), D=None) for _ in range(n)]
    return columns, params, draw(st.one_of(st.none(), st.floats(1e-3, 1e3))), draw(
        st.floats(-2.0, 2.0))


def _column_run(gradients, params, u):
    """One learner's drive, as drive_batch reports it: the updates and clip flags per round,
    its state and peaks after round T, or the error that stops it."""
    rounds, q_peak, v_peak = [], gradients[0] * gradients[0], abs(gradients[0])
    try:
        for round_ in drive_rounds(gradients, params, u):
            rounds.append(round_)
            q_peak, v_peak = max(q_peak, round_[-1]), max(v_peak, round_[8])
    except AdamFtrlError as exc:
        return type(exc), str(exc)
    if not rounds:
        return [], [], (gradients[0] * gradients[0], abs(gradients[0]), 0.0, 0.0, 0, q_peak,
                        v_peak)
    _, _, _, _, _, deltas, clipped, r_disc, max_v, d_max, _, q = zip(*rounds)
    return (list(deltas), list(clipped),
            (q[-1], max_v[-1], d_max[-1], r_disc[-1], sum(clipped), q_peak, v_peak))


@given(_batch_cases())
@example(([[1.0, 5.0, 0.0, 3.0]], [HyperParams(0.9, 0.99, AlphaSchedule.constant(1e308))], 1.0,
          0.5))
# learner 0 fails in a later block than learner 1, and the batch names learner 0's error: its q
# overflows at t = 200, after learner 1's q at t = 1 or its update at t = 2
@example(([[1e200 if t == 200 else 1.0 for t in range(301)],
           [1e200 if t == 1 else 1.0 for t in range(301)]],
          [HyperParams(0.9, 0.99, AlphaSchedule.constant(1.0))] * 2, None, 0.0))
@example(([[1e200 if t == 200 else 1.0 for t in range(301)]],
          [HyperParams(0.9, 0.99, AlphaSchedule.constant(1.0)),
           HyperParams(0.9, 0.01, AlphaSchedule.constant(1e308))], None, 0.0))
@settings(max_examples=200, deadline=None)
def test_drive_batch_matches_drive_column_by_column(case):
    # each column's updates, clips, state and peaks equal its own drive's bit for bit; if a
    # learner's drive raises, the batch raises the first such learner's error, unless a
    # schedule fails on the way, which stops the batch at once
    columns, params, D, u = case
    params = [HyperParams(p.beta1, p.beta2, p.alpha, D) for p in params]
    own = [_column_run(columns[0] if len(columns) == 1 else column, p, u)
           for column, p in zip(columns * len(params) if len(columns) == 1 else columns, params)]
    T, n = len(columns[0]) - 1, len(params)
    schedules = list(dict.fromkeys(p.alpha for p in params))
    trace = np.empty((T, n)), np.empty((T, n), dtype=bool)
    stream = np.array(columns[0]) if len(columns) == 1 else np.array(columns).T
    try:
        state = drive_batch(stream, np.array([p.beta1 for p in params]),
                            np.array([p.beta2 for p in params]), schedules,
                            np.array([schedules.index(p.alpha) for p in params]), D, u, trace)
    except AdamFtrlError as exc:
        errors = [o for o in own if isinstance(o[0], type)]
        assert errors
        if not isinstance(exc, ScheduleError):
            assert (type(exc), str(exc)) == errors[0]
        return
    for j, (deltas, clipped, final) in enumerate(own):
        assert list(map(float.hex, trace[0][:, j].tolist())) == list(map(float.hex, deltas))
        assert trace[1][:, j].tolist() == clipped
        got = [float(field[j]) for field in state]
        assert list(map(float.hex, got)) == list(map(float.hex, map(float, final)))


@st.composite
def _inequality_cases(draw):
    """Any trace and round within reach of the literal forms, at magnitudes where an ``eta``, a
    sum or a square leaves the float range, with or without a domain that clips."""
    gradients = draw(st.lists(st.one_of(st.floats(-10.0, 10.0), st.sampled_from(
        [0.0, 1e-170, 1e154, -1e200, 1e300])), min_size=2, max_size=16))
    if draw(st.booleans()):
        params = constant_params(draw(st.floats(0.05, 0.99)), draw(st.floats(0.05, 0.99)),
                                 alpha=draw(st.floats(0.1, 2.0)),
                                 D=draw(st.sampled_from([None, 1.0, 100.0])))
    else:
        b1 = draw(st.floats(0.3, 0.95))
        params = decaying_params(b1, draw(st.floats(0.05, 1.0)) * b1 * b1,
                                 D=draw(st.sampled_from([None, 5.0])))
    t = draw(st.integers(1, len(gradients) - 1))
    return gradients, params, t, draw(st.sampled_from([60, t + 1, t]))


def _inequality_outcome(run, case):
    try:
        rec = run(*case)
    except Exception as exc:   # the two must raise alike, whatever it is
        return type(exc), str(exc)
    return rec.lhs.hex(), rec.stability_bound.hex(), rec.range_bound.hex()


@given(_inequality_cases())
@example(([2.0, 1.0, 1.0], constant_params(0.5, 0.25, alpha=10.0, D=1.0), 1, 60))
@example(([1e300, 1.0, 1.0], constant_params(0.5, 0.25), 1, 60))
@example(([2.0, 1e-170, 0.0, 0.0], constant_params(0.5, 0.25), 2, 60))
@settings(max_examples=200, deadline=None)
def test_per_round_inequality_matches_the_literal_referee(case):
    # lhs and both majorants bit for bit, or the same error with the same message
    assert (_inequality_outcome(per_round_ftrl_inequality, case)
            == _inequality_outcome(literal_per_round_ftrl_inequality, case))


def test_per_round_inequality_squares_each_loss_once(monkeypatch):
    # one call squares each of its T + 1 losses once (the literal forms square 36,160 to check
    # every t of this 41-gradient trace, 904 a call)
    squared = []

    def counting(losses, ratio):
        squared.extend(losses)
        return learner.loss_squares(losses, ratio)

    monkeypatch.setattr(regret, "loss_squares", counting)
    gs = random_gradients(random.Random(7), 40, scale=2.0)
    params = constant_params(0.6, 0.5)
    per_round_ftrl_inequality(gs, params, 17)
    assert squared == learner.undiscounted_losses(gs, params.beta1)
