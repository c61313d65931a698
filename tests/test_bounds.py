import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamftrl import (
    AlphaSchedule,
    ExperimentConfig,
    HyperParams,
    TraceStats,
    bound_b_from_stats,
    bound_b_undiscounted,
    bound_corollary1_discounted,
    bound_theorem1_discounted,
    bound_theorem3_discounted,
    dominance_holds,
    run_experiment,
)
from adamftrl.bounds import BOUNDS, Theorem1Coefficient, price_columns
from adamftrl.errors import RegimeError, ScheduleError
from adamftrl.learner import alpha_at
from conftest import (
    constant_params,
    decaying_params,
    drive,
    literal_b_undiscounted,
    literal_corollary1_discounted,
    literal_theorem1_discounted,
    literal_theorem3_discounted,
    random_gradients,
)


def test_corollary1_worked_example():
    params = constant_params(0.5, 0.25)
    run = drive([2.0, 1.0, 1.0], params, u=0.0)
    rep = bound_corollary1_discounted(params, TraceStats.from_state(run.state), 0.0, 2)
    assert math.isclose(rep.term_variance, 1.5, rel_tol=1e-12)
    assert math.isclose(rep.term_max, 7.0 * math.sqrt(2.0), rel_tol=1e-12)
    assert math.isclose(rep.total, 11.399494936611664, rel_tol=1e-12)
    assert rep.term_comparator == 0.0
    assert rep.total == rep.term_comparator + rep.term_variance + rep.term_max
    assert dominance_holds(run.ledger.r_disc, rep)


def test_corollary1_single_gradient():
    params = constant_params(0.5, 0.25)
    run = drive([3.0, 0.0], params)
    rep = bound_corollary1_discounted(params, TraceStats.from_state(run.state), 0.0, 1)
    # one-term sums: q = beta2 * g0^2, max_v = beta1 * |g0|
    coeff = math.sqrt(6.0 * 0.25) / (2.0 * 0.5)
    assert math.isclose(rep.term_variance, coeff * math.sqrt(0.25 * 9.0), rel_tol=1e-12)
    assert math.isclose(rep.term_max, 7.0 * 1.0 * 1.5, rel_tol=1e-12)


def test_corollary1_decays_geometrically_with_quiet_tail():
    params = constant_params(0.5, 0.25)
    gs = [2.0] + [0.0] * 40
    run = drive(gs, params)
    rep = bound_corollary1_discounted(params, TraceStats.from_state(run.state), 0.0, 40)
    assert rep.total < 1e-10


def test_corollary1_regime_errors():
    high_p = constant_params(0.9, 0.25)   # p = 1.8
    stats = TraceStats(q=1.0, max_v=1.0, d_max=1.0)
    with pytest.raises(RegimeError):
        bound_corollary1_discounted(high_p, stats, 0.0, 2)
    varying = HyperParams(beta1=0.5, beta2=0.36,
                          alpha=AlphaSchedule.explicit([1.0, 0.5, 0.25, 0.125]))
    with pytest.raises(ScheduleError):
        bound_corollary1_discounted(varying, stats, 0.0, 2)


def test_theorem1_reduces_to_corollary1_for_constant_alpha():
    rng = random.Random(21)
    for _ in range(20):
        b2 = rng.uniform(0.2, 0.99)
        b1 = rng.uniform(0.4, 1.0) * math.sqrt(b2)
        params = constant_params(min(max(b1, 0.05), 0.99), b2, alpha=rng.uniform(0.2, 2.0))
        run = drive(random_gradients(rng, 12), params)
        stats = TraceStats.from_state(run.state)
        u = rng.uniform(-2, 2)
        r1 = bound_theorem1_discounted(params, stats, u, 12)
        rc = bound_corollary1_discounted(params, stats, u, 12)
        assert math.isclose(r1.total, rc.total, rel_tol=1e-12)


def test_theorem1_matches_literal_formula():
    rng = random.Random(22)
    for _ in range(30):
        b2 = rng.uniform(0.2, 0.99)
        b1 = rng.uniform(0.3, 1.0) * math.sqrt(b2)
        b1 = min(max(b1, 0.05), 0.99)
        T = rng.randint(2, 30)
        # random non-increasing schedule, one value past the horizon
        vals = [rng.uniform(0.5, 2.0)]
        for _ in range(T):
            vals.append(vals[-1] * rng.uniform(0.8, 1.0))
        params = HyperParams(beta1=b1, beta2=b2, alpha=AlphaSchedule.explicit(vals))
        gs = random_gradients(rng, T)
        run = drive(gs, params)
        u = rng.uniform(-2, 2)
        got = bound_theorem1_discounted(params, TraceStats.from_state(run.state), u, T)
        want = literal_theorem1_discounted(gs, run.deltas, params, u, T)
        assert math.isclose(got.total, want, rel_tol=1e-9)


def _near_tie_schedules():
    """(params, label) pairs whose theorem1 terms tie to within a few ulps."""
    rng = random.Random(23)
    cases = []
    for b1, b2 in ((0.9, 0.99), (0.5, 0.3), (0.7, 0.6), (0.25, 0.25), (0.9, 0.81)):
        p = b1 / math.sqrt(b2)
        # ratio 1/p makes every term alpha p^(T-1) up to rounding
        cases.append((HyperParams(beta1=b1, beta2=b2,
                                  alpha=AlphaSchedule.exponential_decay(0.5, 1.0 / p)),
                      f"decay 1/p, p={p}"))
        cases.append((constant_params(b1, b2, alpha=0.5), f"constant, p={p}"))
        vals = [0.5]
        for t in range(2, 303):
            vals.append(min(vals[-1], 0.5 * p ** (t - 1) * (1 + rng.uniform(-1e-15, 1e-15))))
        cases.append((HyperParams(beta1=b1, beta2=b2, alpha=AlphaSchedule.explicit(vals)),
                      f"explicit near-tie, p={p}"))
    # p = 1 + 2^-52 passes the regime check's slack, but each older term leads: the walk runs
    cases.append((constant_params(math.nextafter(0.9, 1), 0.81, alpha=0.5),
                  "just above 1, constant alpha"))
    return cases


@pytest.mark.parametrize("params,label", _near_tie_schedules())
def test_theorem1_coefficient_is_bit_identical_to_full_scan(params, label):
    running = Theorem1Coefficient(params)
    for T in range(1, 301):
        running.advance_to(T)
        scan = max(alpha_at(params.alpha, t) * params.p ** (T - t) for t in range(1, T + 1))
        assert running.coeff == scan, (label, T)
        assert running.alpha_next == alpha_at(params.alpha, T + 1)
        if label.startswith("constant"):   # only genuine near-ties are kept
            assert len(running.kept) == 1, (label, T)


def test_theorem1_constant_alpha_is_closed_form_only_at_p_at_most_one():
    # at p = 1.0 and below, a constant alpha is its own coefficient at every T, with no walk
    for b1, b2 in ((0.9, 0.81), (0.5, 0.3)):
        running = Theorem1Coefficient(constant_params(b1, b2, alpha=0.5))
        running.advance_to(1000)
        assert (running.T, running.alpha_next, running.coeff, running.peak) == (1000, 0.5, 0.5, 0.5)
        assert running.kept == [(1000, 0.5)]
        with pytest.raises(ValueError):
            running.advance_to(999)
    # at p = 1 + 2^-52 the older terms lead, so a closed form gated on the regime slack would
    # change bits
    params = constant_params(math.nextafter(0.9, 1), 0.81, alpha=0.5)
    assert params.p == 1.0000000000000002
    BOUNDS["theorem1"].check(params)
    running = Theorem1Coefficient(params)
    running.advance_to(1000)
    assert running.coeff == 0.5000000000001109
    assert len(running.kept) == 46


def test_theorem1_carried_coefficient_matches_fresh_calls():
    params = HyperParams(beta1=0.5, beta2=0.3,
                         alpha=AlphaSchedule.explicit([1.0 / (1 + t // 7) for t in range(41)]))
    stats = TraceStats(q=2.0, max_v=0.5, d_max=1.5)
    running = Theorem1Coefficient(params)
    for T in range(1, 40):
        assert (bound_theorem1_discounted(params, stats, 0.7, T, running)
                == bound_theorem1_discounted(params, stats, 0.7, T))
    with pytest.raises(ValueError):
        running.advance_to(3)


def _column_schedules():
    """(params, label) pairs for the column tests: each kind of schedule, then the near-ties."""
    staircase = AlphaSchedule.explicit([1.0 / (1 + t // 7) for t in range(302)])
    return [(constant_params(0.9, 0.99, alpha=0.5), "constant"),
            (HyperParams(beta1=0.9, beta2=0.99,
                         alpha=AlphaSchedule.exponential_decay(0.5, 1.01)), "decay"),
            (HyperParams(beta1=0.5, beta2=0.3, alpha=staircase), "explicit staircase"),
            *_near_tie_schedules()]


@pytest.mark.parametrize("peak", [False, True], ids=["at-T", "peak"])
@pytest.mark.parametrize("params,label", _column_schedules())
def test_theorem1_column_matches_carried_scalar_calls(params, label, peak):
    # one walk over a rising, non-consecutive column prices each row as a scalar call on a
    # carried coefficient does, bit for bit
    rng = np.random.default_rng(len(label))
    T = np.sort(rng.choice(np.arange(2, 301), size=60, replace=False))
    stats = TraceStats(rng.uniform(0.5, 2.0, 60), rng.uniform(0.0, 1.0, 60),
                       rng.uniform(0.0, 1.0, 60), peak=peak)
    column = bound_theorem1_discounted(params, stats, 0.7, T, Theorem1Coefficient(params))
    running = Theorem1Coefficient(params)
    # the referee: the coefficient by a full scan at every round, or its running maximum
    scan = [max(alpha_at(params.alpha, t) * params.p ** (n - t) for t in range(1, n + 1))
            for n in range(1, 301)]
    coeffs = list(itertools.accumulate(scan, max)) if peak else scan
    scale = math.sqrt(6.0 * params.beta2) / (2.0 * params.beta1)
    for i, t in enumerate(T.tolist()):
        row = TraceStats(float(stats.q[i]), float(stats.max_v[i]), float(stats.d_max[i]), peak)
        got = column.row(i)
        assert got == bound_theorem1_discounted(params, row, 0.7, t, running), (label, t)
        root_q = math.sqrt(row.q)
        assert got.term_comparator == 0.7 * 0.7 / alpha_at(params.alpha, t + 1) * root_q
        assert got.term_variance == scale * coeffs[t - 1] * root_q, (label, t)


def _rising_at(k: int) -> HyperParams:
    """A library-level explicit schedule (unchecked) whose alpha rises after round ``k``."""
    values = [1.0 / (1 + t // 3) for t in range(40)]
    values[k] = values[k - 1] * 1.5
    return HyperParams(beta1=0.5, beta2=0.3,
                       alpha=AlphaSchedule("explicit", values[0], values=tuple(values)))


def _overflowing_at(j: int | None, n: int = 30) -> TraceStats:
    """Column statistics of the rows ``2..n + 1`` whose ``q`` leaves the float range at row ``j``."""
    q = np.linspace(1.0, 2.0, n)
    if j is not None:
        q[j - 2] = math.inf
    return TraceStats(q, np.full(n, 0.5), np.full(n, 0.25))


@pytest.mark.parametrize("k", [2, 9, 31])
def test_theorem1_column_stops_at_the_row_whose_schedule_rises(k):
    T = np.arange(2, 32)
    with pytest.raises(ScheduleError, match="alpha must be non-increasing") as err:
        bound_theorem1_discounted(_rising_at(k), _overflowing_at(None), 0.7, T)
    assert err.value.row == k
    # met on the way to a later row of a column that skips rounds, it carries that row
    with pytest.raises(ScheduleError) as err:
        bound_theorem1_discounted(_rising_at(k), _overflowing_at(None, 2), 0.7,
                                  np.array([k - 1, k + 3]))
    assert err.value.row == k + 3
    if k == 2:   # no row before it
        return
    # the rows before it are priced: an overflow on one of them wins
    with pytest.raises(RegimeError, match=f"at T = {k - 1}$") as err:
        bound_theorem1_discounted(_rising_at(k), _overflowing_at(k - 1), 0.7, T)
    assert err.value.row == k - 1


@pytest.mark.parametrize("j", [5, 12, 20])
def test_price_columns_raises_the_earliest_theorem1_error(j):
    # the schedule error at row 12 and another evaluator's overflow at row j: the earlier wins,
    # and the first evaluator at a tie
    T, stats = np.arange(2, 32), _overflowing_at(None)
    evaluators = [BOUNDS["theorem1"].per_run(_rising_at(12), 0.7),
                  lambda _, rows: BOUNDS["theorem1"].per_run(constant_params(0.5, 0.3), 0.7)(
                      _overflowing_at(j).head(len(rows)), rows)]
    with pytest.raises((ScheduleError, RegimeError)) as err:
        price_columns(evaluators, stats, T)
    assert err.value.row == min(j, 12)
    assert isinstance(err.value, ScheduleError if j >= 12 else RegimeError)


def test_theorem1_wrong_regime():
    params = constant_params(0.9, 0.25)
    with pytest.raises(RegimeError):
        bound_theorem1_discounted(params, TraceStats(1.0, 1.0, 1.0), 0.0, 2)


def test_corollary1_matches_literal_formula():
    rng = random.Random(23)
    for _ in range(30):
        b2 = rng.uniform(0.2, 0.99)
        b1 = min(max(rng.uniform(0.3, 1.0) * math.sqrt(b2), 0.05), 0.99)
        params = constant_params(b1, b2, alpha=rng.uniform(0.2, 2.0))
        T = rng.randint(2, 30)
        gs = random_gradients(rng, T)
        run = drive(gs, params)
        u = rng.uniform(-2, 2)
        got = bound_corollary1_discounted(params, TraceStats.from_state(run.state), u, T)
        want = literal_corollary1_discounted(gs, run.deltas, params, u, T)
        assert math.isclose(got.total, want, rel_tol=1e-9)


def test_theorem3_worked_example():
    params = decaying_params(0.5, 0.16)
    run = drive([2.0, 1.0, 1.0], params, u=0.0)
    rep = bound_theorem3_discounted(params, TraceStats.from_state(run.state), 0.0, 2)
    assert math.isclose(rep.term_variance, 2.150127176471196, rel_tol=1e-9)
    assert math.isclose(rep.term_max, 8.74573066576194, rel_tol=1e-9)
    assert math.isclose(rep.total, 10.895857842233136, rel_tol=1e-9)
    assert math.isclose(run.ledger.r_disc, -1.7493900951088486, rel_tol=1e-9)
    assert dominance_holds(run.ledger.r_disc, rep)


def test_theorem3_matches_literal_formula():
    rng = random.Random(24)
    for _ in range(30):
        b1 = rng.uniform(0.4, 0.95)
        b2 = min(max(rng.uniform(0.3, 1.0) * b1 * b1, 0.05), 0.999)
        params = decaying_params(b1, b2, alpha=rng.uniform(0.2, 2.0))
        T = rng.randint(2, 30)
        gs = random_gradients(rng, T)
        run = drive(gs, params)
        u = rng.uniform(-2, 2)
        got = bound_theorem3_discounted(params, TraceStats.from_state(run.state), u, T)
        want = literal_theorem3_discounted(gs, run.deltas, params, u, T)
        assert math.isclose(got.total, want, rel_tol=1e-9)


def test_theorem3_regime_and_schedule_errors():
    stats = TraceStats(1.0, 1.0, 1.0)
    with pytest.raises(RegimeError):
        bound_theorem3_discounted(constant_params(0.5, 0.36), stats, 0.0, 2)  # p < 1
    with pytest.raises(ScheduleError):
        bound_theorem3_discounted(constant_params(0.9, 0.25), stats, 0.0, 2)
    mismatched = HyperParams(beta1=0.9, beta2=0.25,
                             alpha=AlphaSchedule.exponential_decay(1.0, 1.1))
    with pytest.raises(ScheduleError):
        bound_theorem3_discounted(mismatched, stats, 0.0, 2)


def test_bounds_coincide_at_squared_beta1():
    # with beta2 = beta1^2 the two coefficient forms are the same number
    rng = random.Random(25)
    for b1 in (0.3, 0.5, 0.7, 0.9):
        params_c = constant_params(b1, b1 * b1, alpha=0.8)
        params_d = decaying_params(b1, b1 * b1, alpha=0.8)
        gs = random_gradients(rng, 15)
        run_c = drive(gs, params_c)
        run_d = drive(gs, params_d)
        for u in (-1.0, 0.0, 0.5):
            rc = bound_corollary1_discounted(params_c, TraceStats.from_state(run_c.state), u, 15)
            rd = bound_theorem3_discounted(params_d, TraceStats.from_state(run_d.state), u, 15)
            assert math.isclose(rc.total, rd.total, rel_tol=1e-12)


# Relative slack where corollary1 and theorem3 meet at p = 1: their variance coefficients,
# alpha sqrt(6 beta2) / (2 beta1) and alpha sqrt(6) / 2, are one number rounded two ways, and
# every other factor and term is the same float.
P_ONE_REL_TOL = 1e-14


@given(st.sampled_from([(0.5, 0.25), (0.75, 0.5625)]),
       st.builds(lambda g0, sign, rest: [sign * g0, *rest], st.floats(0.1, 10.0),
                 st.sampled_from([-1.0, 1.0]), st.lists(st.floats(-10.0, 10.0), max_size=80)),
       st.floats(0.01, 10.0), st.sampled_from(["unbounded", 0.5, 2.0]), st.floats(-1.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_corollary1_and_theorem3_meet_at_p_one(betas, gradients, alpha, domain, u):
    # at beta1 = sqrt(beta2) exactly, p = 1, and exponential decay at ratio p is constant alpha:
    # the p <= 1 bound (corollary1) and the p >= 1 bound (theorem3) run one trace and price it
    # alike, row by row and term by term -- the point where the paper's bounds meet the p = 1
    # analysis of Ahn & Cutkosky (2024)
    base = {"adversary": "fixed", "gradients": gradients, "beta1": betas[0], "beta2": betas[1],
            "alpha": alpha, "domain": domain, "u": u * (1.0 if domain == "unbounded" else domain)}
    constant = run_experiment(ExperimentConfig.from_dict({**base, "bounds": ["corollary1"]}))
    decaying = run_experiment(ExperimentConfig.from_dict(
        {**base, "alpha_kind": "exponential_decay", "bounds": ["theorem3"]}))
    assert [row[:-1] for row in constant.csv_rows] == [row[:-1] for row in decaying.csv_rows]
    for row_c, row_d in zip(constant.csv_rows[1:], decaying.csv_rows[1:]):
        assert math.isclose(row_c[-1], row_d[-1], rel_tol=P_ONE_REL_TOL)
    report_c = constant.summary["bounds"]["corollary1"]
    report_d = decaying.summary["bounds"]["theorem3"]
    assert (report_c is None) == (report_d is None) == (len(gradients) < 3)
    for key in ("total", "term_comparator", "term_variance", "term_max"):
        if report_c is not None:
            assert math.isclose(report_c[key], report_d[key], rel_tol=P_ONE_REL_TOL)


def test_b_formula_geometric_radical_closed_form():
    ratio, kappa, v0, T = 0.5, 4.0, 1.5, 6
    losses = [v0 * kappa**t for t in range(T + 1)]
    rep = bound_b_undiscounted(losses, ratio, -1.0, 0.25, 1.0)
    rk2 = (ratio * kappa) ** 2
    radical = v0 * math.sqrt((rk2 ** (T + 1) - 1.0) / (rk2 - 1.0))
    want = (1.0 / 0.25 + 0.25 / ratio) * ratio ** -T * radical + 1.0 * v0 * kappa**T
    assert math.isclose(rep.total, want, rel_tol=1e-12)


def test_b_formula_single_loss():
    rep = bound_b_undiscounted([2.0], 0.5, -1.0, 0.25, 1.0)
    assert math.isclose(rep.term_comparator, (1.0 / 0.25) * 2.0, rel_tol=1e-12)
    assert math.isclose(rep.term_variance, (0.25 / 0.5) * 2.0, rel_tol=1e-12)
    assert math.isclose(rep.term_max, 2.0, rel_tol=1e-12)


def test_b_formula_worked_tightness_value():
    losses = [1.0, 4.0, 16.0]
    rep = bound_b_undiscounted(losses, 0.5, -1.0, 0.25, 1.0)
    assert math.isclose(rep.total, 98.48636250920512, rel_tol=1e-12)
    assert math.isclose(rep.total, literal_b_undiscounted(losses, 0.5, -1.0, 0.25, 1.0),
                        rel_tol=1e-12)


def test_b_formula_regime_guard():
    with pytest.raises(RegimeError):
        bound_b_undiscounted([1.0, 2.0], 1.5, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="^need at least the round-0 loss$"):
        bound_b_undiscounted([], 0.5, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="^domain half-width must be positive, got 0.0$"):
        bound_b_undiscounted([1.0, 2.0], 0.5, 0.0, 1.0, 0.0)


@pytest.mark.parametrize("name", list(BOUNDS))
def test_a_bound_priced_at_one_round_needs_a_round_of_one_or_more(name):
    params = HyperParams(0.9, 0.99 if name != "theorem3" else 0.81,
                         AlphaSchedule.exponential_decay(0.5, 1.0) if name == "theorem3"
                         else AlphaSchedule.constant(0.5), 1.0)
    with pytest.raises(ValueError, match="^need T >= 1, got 0$"):
        BOUNDS[name].per_run(params, 0.5)(TraceStats(1.0, 1.0, 0.5), 0)


def test_b_from_stats_matches_loss_space():
    rng = random.Random(26)
    for _ in range(20):
        b2 = rng.uniform(0.3, 0.99)
        b1 = min(max(rng.uniform(0.5, 1.0) * math.sqrt(b2), 0.1), 0.99)
        params = constant_params(b1, b2, alpha=0.5, D=2.0)
        T = rng.randint(2, 20)
        gs = random_gradients(rng, T, scale=3.0)
        run = drive(gs, params)
        losses = [g / b1**t for t, g in enumerate(gs)]
        u = rng.uniform(-2, 2)
        via_stats = bound_b_from_stats(params, TraceStats.from_state(run.state), u, T)
        via_losses = bound_b_undiscounted(losses, params.p, u, 0.5, 2.0)
        assert math.isclose(via_stats.total, via_losses.total, rel_tol=1e-9)


def test_b_from_stats_needs_bounded_domain():
    params = constant_params(0.5, 0.36)
    with pytest.raises(RegimeError):
        bound_b_from_stats(params, TraceStats(1.0, 1.0, 1.0), 0.0, 2)


def test_argmin_over_beta2_at_bounded_domain():
    # oblivious-optimality: on a fixed sequence the constant-alpha bound is
    # smallest at the grid point closest to beta1^2 from above
    gs = [2.0, 1.0, 1.0]
    totals = {}
    for b2 in (0.49, 0.6, 0.8, 0.95):
        params = constant_params(0.7, b2, D=1.0)
        run = drive(gs, params, u=0.0)
        rep = bound_corollary1_discounted(params, TraceStats.from_state(run.state), 0.0, 2)
        totals[b2] = rep.total
    assert min(totals, key=totals.get) == 0.49
