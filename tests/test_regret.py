import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamftrl import (
    RegretLedger,
    accumulate_discounted_regret,
    per_round_ftrl_inequality,
    undiscounted_regret,
)
from adamftrl.errors import NotApplicableError, OracleHorizonError
from conftest import constant_params, decaying_params, drive, random_gradients


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
