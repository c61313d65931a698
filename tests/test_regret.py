import math
import random
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adamftrl import (
    AlphaSchedule,
    HyperParams,
    RegretLedger,
    accumulate_discounted_regret,
)
from adamftrl import drive as drive_rounds
import adamftrl.learner as learner
import adamftrl.regret as regret
from adamftrl.errors import AdamFtrlError, OracleHorizonError, ScheduleError
from adamftrl.regret import _BLOCK, _SPAN, drive_batch, drive_trace
from adamftrl.harness import _CHUNK
from conftest import (constant_params, decaying_params, drive,
                      literal_per_round_ftrl_inequality, random_gradients, trace_columns)
import referees
from referees import NotApplicableError, per_round_ftrl_inequality, undiscounted_regret


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
# Integer gradients are drawn too, which drive_trace must read as the floats drive makes of them.
_EDGE_GRADIENTS = st.sampled_from([0.0, -0.0, 1e-170, -1e-170, 1e-160, 1e154, -1e154, 1.7e308,
                                   math.inf, -math.inf, math.nan])


@st.composite
def _driver_cases(draw):
    """One learner on up to 25 gradients, integers and float-range edges among them, with an
    alpha up to 1e308 and a decay ratio up to 1e100."""
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


@st.composite
def _batch_cases(draw):
    """Up to four learners on one shared stream or on a matrix of their own, whose runs may
    stop at any of the round loop's checks, in any block."""
    T = draw(st.sampled_from([0, 1, 5, 30, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]))
    n = draw(st.integers(1, 4))
    shared = draw(st.booleans())
    extreme = st.sampled_from([0.0, 1e-170, -1e-160, 1e-300, 1.2e154, -1.3e154, 1e200, 1.7e308,
                               math.inf, math.nan])
    seed = st.one_of(st.floats(1e-3, 10.0), st.floats(1e-3, 10.0),
                     st.sampled_from([0.0, 1e-170, 1e-160, 1e154, 1e200, math.inf]))

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
# gradients that are not finite or a zero g_0 raise the failing learner's own error: an inf in
# a later block of a shared stream, a NaN in one column of a matrix, a zero g_0 in one column,
# and a zero g_0 with no rounds to run
@example(([[math.inf if t == 200 else 1.0 for t in range(301)]],
          [HyperParams(0.9, 0.99, AlphaSchedule.constant(1.0))] * 2, None, 0.0))
@example(([[1.0, 2.0, 1.0, 3.0], [1.0, 2.0, math.nan, 3.0]],
          [HyperParams(0.9, 0.99, AlphaSchedule.constant(1.0)),
           HyperParams(0.5, 0.5, AlphaSchedule.constant(2.0))], None, 0.0))
@example(([[1.0, 2.0, 3.0], [0.0, 2.0, 3.0]],
          [HyperParams(0.9, 0.99, AlphaSchedule.constant(1.0))] * 2, 1.0, 0.0))
@example(([[0.0]], [HyperParams(0.9, 0.99, AlphaSchedule.constant(1.0))], None, 0.0))
# the regret fold lags a block: at T = _BLOCK every term folds after the rounds; at
# T = 2 _BLOCK + 3 the short last block folds 3 of its predecessor's terms, leaving _BLOCK - 3
# and its own 3 to fold after the rounds
@example(([[1.0] + [0.5, -2.0, 3.0] * (_BLOCK // 3) + [0.25] * (_BLOCK % 3)],
          [HyperParams(0.9, 0.99, AlphaSchedule.constant(1.0)),
           HyperParams(0.5, 0.3, AlphaSchedule.exponential_decay(0.5, 1.01))], 1.0, 0.5))
@example(([[1.0] + [0.5, -2.0, 3.0, 0.0] * (_BLOCK // 2) + [1.5] * 3,
           [-2.0] + [0.25, 1.0] * _BLOCK + [-1.0] * 3],
          [HyperParams(0.9, 0.99, AlphaSchedule.constant(1.0)),
           HyperParams(0.5, 0.3, AlphaSchedule.constant(2.0))], 0.7, -0.5))
# the first failure is a regret overflow in a round whose term folds after the rounds: round
# _BLOCK + 10 of a shared stream, one of the terms left pending, and round 2 _BLOCK + 2 of a
# matrix's second column, one of the last block's own terms
@example(([[1.0] + [10.0 if t == _BLOCK + 10 else 1e-3 for t in range(1, 2 * _BLOCK + 4)]],
          [HyperParams(0.9, 0.99, AlphaSchedule.constant(1.0))] * 2, None, -1e308))
@example(([[1.0] + [1e-3] * (2 * _BLOCK + 3),
           [1.0] + [10.0 if t == 2 * _BLOCK + 2 else 1e-3 for t in range(1, 2 * _BLOCK + 4)]],
          [HyperParams(0.9, 0.99, AlphaSchedule.constant(1.0))] * 2, None, -1e308))
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
    trace = np.empty((T, n)), np.empty((T, n), dtype=bool)
    stream = np.array(columns[0]) if len(columns) == 1 else np.array(columns).T
    try:
        state = drive_batch(stream, params, u, trace)
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


def test_drive_batch_makes_three_numpy_calls_a_round(monkeypatch):
    # 49 learners on one stream: a round is one multiply, one add and one maximum on the block's
    # state row, so 1000 more rounds make 3000 more calls, plus a few for each more block's
    # elementwise pass; the terms folded after the rounds make at most 2 _BLOCK calls
    calls = [0]

    def counting(ufunc):   # keeps ufunc.reduce, which the elementwise pass calls
        def call(*args, **kwargs):
            calls[0] += 1
            return ufunc(*args, **kwargs)
        call.reduce = ufunc.reduce
        return call

    counting_np = types.ModuleType("numpy")
    counting_np.__dict__.update(vars(np))
    for name in ("multiply", "add", "maximum"):
        setattr(counting_np, name, counting(getattr(np, name)))
    monkeypatch.setattr(regret, "np", counting_np)
    params = [HyperParams(0.5 + i / 100, 0.99, AlphaSchedule.constant(0.5), 1.0)
              for i in range(49)]
    rng = random.Random(3)
    counts = {}
    for T in (1000, 2000):
        calls[0] = 0
        drive_batch([1.0] + [rng.uniform(-1.0, 1.0) for _ in range(T)], params, 0.5)
        counts[T] = calls[0]
    assert 3 * 1000 <= counts[2000] - counts[1000] <= 3 * 1000 + 2 * _BLOCK


@st.composite
def _trace_cases(draw):
    """One learner on a stream that may stop it at any of the round loop's checks, in any
    block of the regret fold, with any schedule kind and domain."""
    T = draw(st.sampled_from([0, 1, 2, 5, 30, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]))
    extreme = st.sampled_from([0.0, -0.0, 1e-170, -1e-160, 1.2e154, 1e200, 1.7e308, math.inf,
                               math.nan])
    body = draw(st.lists(st.floats(-10.0, 10.0), min_size=min(T, 8), max_size=min(T, 8)))
    gradients = [draw(st.one_of(st.floats(1e-3, 10.0), extreme))] + [
        body[t % len(body)] for t in range(T)]
    if T and draw(st.booleans()):   # one extreme gradient, in any block
        gradients[draw(st.integers(1, T))] = draw(extreme)
    alpha = draw(st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e-300, 1e300, 1e308])))
    kind = draw(st.sampled_from(["constant", "exponential_decay", "explicit"]))
    if kind == "constant":
        schedule = AlphaSchedule.constant(alpha)
    elif kind == "exponential_decay":
        schedule = AlphaSchedule.exponential_decay(alpha, draw(st.floats(1.0, 1e3)))
    else:   # may run out before round T
        schedule = AlphaSchedule.explicit(sorted(draw(st.lists(
            st.sampled_from([0.1, 0.5, alpha]), min_size=1, max_size=T + 2)), reverse=True))
    params = HyperParams(beta1=draw(st.floats(0.01, 0.99)), beta2=draw(st.floats(0.01, 0.99)),
                         alpha=schedule, D=draw(st.sampled_from([None, 0.05, 1.0, 1e3])))
    return gradients, params, draw(st.one_of(st.floats(-2.0, 2.0), st.just(-1e308)))


def _trace_case(gradients, beta1, beta2, schedule, D=None, u=0.0):
    return gradients, HyperParams(beta1, beta2, schedule, D), u


@given(st.one_of(_trace_cases(), _driver_cases()))
# one example per check of drive's, each met at a later round unless it is g_0's
@example(_trace_case([0.0, 1.0, 2.0], 0.9, 0.99, AlphaSchedule.constant(1.0)))
@example(_trace_case([1.0] * 200 + [math.inf, 1.0], 0.9, 0.99, AlphaSchedule.constant(1.0), 1.0,
                     0.5))
@example(_trace_case([1.0, 2.0, math.nan, 3.0], 0.5, 0.5, AlphaSchedule.constant(2.0)))
@example(_trace_case([1.0] * 130 + [1.7e308, 1.0], 0.9, 0.99, AlphaSchedule.constant(1.0)))
@example(_trace_case([1e-150] + [0.0] * 20, 0.5, 0.01, AlphaSchedule.constant(1.0)))
@example(_trace_case([1.0] * 4, 0.99, 0.5, AlphaSchedule.constant(1e308)))
@example(_trace_case([1.0] * 40, 0.9, 0.99, AlphaSchedule.exponential_decay(1e-300, 10.0)))
@example(_trace_case([1.0] * 6, 0.9, 0.99, AlphaSchedule.explicit([1.0, 0.5])))
@example(_trace_case([1.0, 0.1, 0.1, 10.0, 1.0], 0.9, 0.99, AlphaSchedule.constant(1.0), None,
                     -1e308))
@example(_trace_case([1.0, 5.0, 0.0, 3.0], 0.9, 0.99, AlphaSchedule.constant(1e308), 1.0, 0.5))
# m, q and maxV run a block of _SPAN gradients at a time: T at and on either side of its edge
@example(_trace_case([0.5 - t % 7 / 8 for t in range(_SPAN)], 0.9, 0.99,
                     AlphaSchedule.constant(1.0), 1.0, 0.5))
@example(_trace_case([0.5 - t % 7 / 8 for t in range(_SPAN + 1)], 0.9, 0.99,
                     AlphaSchedule.exponential_decay(0.5, 1.001), None, -0.5))
@example(_trace_case([0.5 - t % 7 / 8 for t in range(_SPAN + 2)], 0.5, 0.3,
                     AlphaSchedule.constant(0.1), 0.05, 0.25))
@settings(max_examples=400, deadline=None)
def test_drive_trace_matches_drive_column_by_column(case):
    # each column holds its field of every round drive yields, bit for bit; the trace keeps
    # exactly those rounds and returns the error drive raises after them, type and message
    gradients, params, u = case
    rounds, error = [], None
    try:
        for round_ in drive_rounds(gradients, params, u):
            rounds.append(round_)
    except AdamFtrlError as exc:
        error = type(exc), str(exc)
    trace, stop = drive_trace(gradients, params, u)
    assert (None if stop is None else (type(stop), str(stop))) == error
    t, alpha, *rest, _, q = list(zip(*rounds)) or [()] * 12   # rest: m_t .. d_max
    expected = [alpha, [gradients[i] for i in t], *rest, q]
    for size in (3, _CHUNK):   # blocks that end within a run, and the CSV's
        columns = trace_columns(trace, size)
        assert len(columns) == len(expected)
        for column, values in zip(columns, expected):
            assert len(column) == len(rounds)
            if column.dtype == bool:
                assert column.tolist() == list(values)
            else:
                assert list(map(float.hex, column.tolist())) == [float(v).hex() for v in values]


@pytest.mark.parametrize("domains", [(1.0, 2.0), (None, 1.0)])
def test_drive_batch_learners_must_share_their_domain(domains):
    params = [HyperParams(0.9, 0.99, AlphaSchedule.constant(1.0), D) for D in domains]
    with pytest.raises(ValueError, match="^the learners of a batch must share D$"):
        drive_batch([1.0, 2.0, 3.0], params, 0.0)


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

    monkeypatch.setattr(referees, "loss_squares", counting)
    gs = random_gradients(random.Random(7), 40, scale=2.0)
    params = constant_params(0.6, 0.5)
    per_round_ftrl_inequality(gs, params, 17)
    assert squared == referees.undiscounted_losses(gs, params.beta1)
