import contextlib
import csv
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import random
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adamftrl.adversaries
import adamftrl.bounds
import adamftrl.cli as cli
import adamftrl.harness
import adamftrl.learner
import adamftrl.regret
from adamftrl import ExperimentConfig, run_experiment, sweep, write_outputs
from adamftrl.bounds import BOUNDS
from adamftrl.errors import AdamFtrlError, ConfigError, ContractViolation
from adamftrl.harness import (
    _CHUNK,
    ADVERSARIES,
    PAIR_COLUMNS,
    TRACE_COLUMNS,
    ExperimentResult,
    TraceRows,
    _csv_blocks,
    _format_cell,
    _run_gradient_stream,
    render_csv,
    render_json,
)
from adamftrl.learner import AlphaSchedule
from adamftrl.regret import _BLOCK
import referees
from conftest import simulate_row_by_row

FIXTURES = Path(__file__).parent / "fixtures"

SIMULATE_EXAMPLE = {
    "adversary": "fixed",
    "gradients": [2.0, 1.0, 1.0],
    "beta1": 0.5,
    "beta2": 0.25,
    "alpha_kind": "constant",
    "alpha": 1.0,
    "domain": "unbounded",
    "u": 0.0,
    "T": 2,
    "bounds": ["corollary1"],
}

# simulate runs pinned by golden fixtures: every row's bound is checked bit for bit
SIMULATE_GOLDENS = {
    "simulate_constant": {
        "adversary": "random", "beta1": 0.9, "beta2": 0.99, "alpha_kind": "constant",
        "alpha": 0.5, "domain": 1.0, "u": 0.5, "T": 200, "seed": 3,
        "bounds": ["theorem1", "corollary1"],
    },
    # decay ratio 1/p: every theorem1 term ties up to rounding
    "simulate_decay": {
        "adversary": "random", "beta1": 0.7, "beta2": 0.6,
        "alpha_kind": "exponential_decay", "alpha": 0.5,
        "alpha_ratio": 1.1065666703449764, "domain": 1.0, "u": 0.25, "T": 200,
        "seed": 5, "bounds": ["theorem1"],
    },
    # a staircase schedule moves the round that leads the theorem1 max
    "simulate_explicit": {
        "adversary": "fixed", "gradients": [((37 * t) % 19 - 9) / 8 for t in range(201)],
        "beta1": 0.5, "beta2": 0.3, "alpha_kind": "explicit",
        "alpha_values": [0.5 / (1 + (t - 1) // 25) ** 2 for t in range(1, 202)],
        "domain": 2.0, "u": -1.0, "bounds": ["theorem1"],
    },
}

# sweeps pinned by golden fixtures, recorded with every point run on its own
SWEEP_GOLDENS = {
    # six points at p > 1 are skipped
    "sweep_random": {
        "adversary": "random", "beta1": 0.9, "beta2": 0.99, "alpha": 0.5, "domain": 1.0,
        "u": 0.5, "T": 300, "seed": 11, "bounds": ["theorem1", "corollary1"],
        "grid": {"beta1": [0.5, 0.7, 0.8, 0.9, 0.95], "beta2": [0.6, 0.8, 0.9, 0.99, 0.999]},
    },
    # per-point decay ratio p, clipping at D = 0.3, and T < 2 in three T groups
    "sweep_decay": {
        "adversary": "fixed", "gradients": [((37 * t) % 19 - 9) / 8 for t in range(51)],
        "beta1": 0.9, "beta2": 0.64, "alpha_kind": "exponential_decay", "alpha": 0.5,
        "domain": 0.3, "u": 0.2, "T": 50, "bounds": ["theorem3"],
        "grid": {"beta1": [0.6, 0.8, 0.9], "beta2": [0.25, 0.36, 0.64], "T": [1, 2, 50]},
    },
    # B underflows to zero at kappa = 4, T = 2 (v0 D is 1e-325), the square of round 100
    # overflows B's radical at kappa = 80, and kappa = 20 runs at every T
    "sweep_tightness": {
        "adversary": "geometric", "p": 0.5, "v0": 1e-5, "domain": 1e-320, "oracle_horizon": 100,
        "T": 2, "grid": {"kappa": [4.0, 20.0, 80.0], "T": [2, 3, 60, 99, 100]},
    },
    # 21 of the 36 points have a >= b^2 and warn
    "sweep_nonoblivious": {
        "adversary": "nonoblivious", "p": 0.7, "v": 1.3, "T": 40,
        "grid": {"a": [0.1, 0.3, 0.5, 0.85], "b": [0.2, 0.6, 0.9], "T": [2, 25, 40]},
    },
}


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"adversary": "fixed", "gradients": [1.0], "typo": 1})


def test_missing_adversary_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"T": 2})


def test_fixed_T_defaults_to_sequence_length():
    cfg = ExperimentConfig.from_dict({
        "adversary": "fixed", "gradients": [2.0, 1.0, 1.0],
        "beta1": 0.5, "beta2": 0.25,
    })
    assert cfg.T == 2


GEOMETRIC_EXAMPLE = {"adversary": "geometric", "p": 0.5, "kappa": 4.0, "v0": 1.0,
                     "domain": 1.0, "T": 2}
NONOBLIVIOUS_EXAMPLE = {"adversary": "nonoblivious", "a": 0.2, "b": 0.5, "v": 1.0,
                        "p": 0.5, "T": 2}
DECAY_AT_P_1_125 = {"beta1": 0.9, "beta2": 0.64, "alpha_kind": "exponential_decay"}  # p = 1.125

# (label, base config, patch, exact ConfigError text); one case per regime rule
REGIME_CASES = [
    ("p <= 1 cannot request theorem3", SIMULATE_EXAMPLE, {"bounds": ["theorem3"]},
     "bound 'theorem3' needs alpha_kind 'exponential_decay'"),
    ("p > 1 cannot request corollary1", SIMULATE_EXAMPLE,
     {"beta1": 0.9, "bounds": ["corollary1"]}, "bound 'corollary1' needs p <= 1, got p = 1.8"),
    ("B needs a bounded domain", SIMULATE_EXAMPLE, {"bounds": ["B"]},
     "bound 'B' needs a bounded domain"),
    ("negD needs a bounded domain", SIMULATE_EXAMPLE, {"u": "negD"},
     "'negD' comparator needs a bounded domain"),
    ("comparator outside the domain", SIMULATE_EXAMPLE, {"domain": 1.0, "u": 5.0},
     "comparator u=5.0 outside [-1.0, 1.0]"),
    ("unknown bound", SIMULATE_EXAMPLE, {"bounds": ["nope"]},
     "unknown bounds requested: ['nope']"),
    ("zero seed gradient", SIMULATE_EXAMPLE, {"gradients": [0.0, 1.0]},
     "seed gradient must be nonzero"),
    ("too few gradients", SIMULATE_EXAMPLE, {"T": 9}, "T=9 needs 10 gradients, got 3"),
    ("p > 1 cannot request theorem1", SIMULATE_EXAMPLE, {"beta1": 0.9, "bounds": ["theorem1"]},
     "bound 'theorem1' needs p <= 1, got p = 1.8"),
    ("corollary1 needs constant alpha", SIMULATE_EXAMPLE,
     {"alpha_kind": "exponential_decay", "bounds": ["corollary1"]},
     "bound 'corollary1' needs a constant alpha"),
    ("p < 1 cannot request theorem3", SIMULATE_EXAMPLE, {"beta1": 0.4, "bounds": ["theorem3"]},
     "bound 'theorem3' needs p >= 1, got p = 0.8"),
    ("theorem3 decay ratio must equal p", SIMULATE_EXAMPLE,
     {**DECAY_AT_P_1_125, "alpha_ratio": 1.3, "T": 1, "bounds": ["theorem3"]},
     "schedule decay ratio 1.3 must equal p = 1.125"),
    ("p > 1 cannot request B", SIMULATE_EXAMPLE, {"beta1": 0.9, "domain": 1.0, "bounds": ["B"]},
     "bound 'B' needs p <= 1 and constant alpha"),
    ("B needs constant alpha", SIMULATE_EXAMPLE,
     {"alpha_kind": "exponential_decay", "domain": 1.0, "bounds": ["B"]},
     "bound 'B' needs p <= 1 and constant alpha"),
    ("B needs T within the horizon", SIMULATE_EXAMPLE,
     {"domain": 1.0, "bounds": ["B"], "oracle_horizon": 1},
     "bound 'B' is undiscounted and needs T <= horizon (1)"),
    ("first failing bound in request order", SIMULATE_EXAMPLE,
     {**DECAY_AT_P_1_125, "alpha_ratio": 1.3, "bounds": ["corollary1", "theorem3"]},
     "bound 'corollary1' needs p <= 1, got p = 1.125"),
    ("tightness p window", GEOMETRIC_EXAMPLE, {"p": 0.7},
     "tightness runs need p in [0.4, 0.6], got 0.7"),
    ("tightness kappa", GEOMETRIC_EXAMPLE, {"kappa": 2.0},
     "tightness runs need kappa >= 1/p^2, got 2.0"),
    ("tightness T >= 2", GEOMETRIC_EXAMPLE, {"T": 1}, "tightness runs need T >= 2, got 1"),
    ("tightness horizon", GEOMETRIC_EXAMPLE, {"T": 99}, "T=99 exceeds the oracle horizon 60"),
    ("tightness domain", GEOMETRIC_EXAMPLE, {"domain": "unbounded"},
     "tightness runs need a bounded domain"),
    ("nonoblivious p", NONOBLIVIOUS_EXAMPLE, {"p": 1.5},
     "nonoblivious runs need p in (0, 1), got 1.5"),
    ("nonoblivious T >= 2", NONOBLIVIOUS_EXAMPLE, {"T": 1},
     "nonoblivious runs need T >= 2, got 1"),
    ("nonoblivious shared beta1", NONOBLIVIOUS_EXAMPLE, {"beta1": 0.8},
     "shared beta1 must lie in (0, ratio) so both instances are valid, got 0.8"),
]


@pytest.mark.parametrize("base,patch,msg", [case[1:] for case in REGIME_CASES],
                         ids=[f"patch{i}-{case[0]}" for i, case in enumerate(REGIME_CASES)])
def test_regime_and_shape_validation(base, patch, msg):
    raw = dict(base)
    raw.update(patch)
    with pytest.raises(ConfigError) as info:
        ExperimentConfig.from_dict(raw)
    assert str(info.value) == msg


def test_geometric_validation():
    base = GEOMETRIC_EXAMPLE
    ExperimentConfig.from_dict(base)
    for patch in ({"domain": "unbounded"}, {"p": 0.7}, {"kappa": 2.0}, {"T": 1},
                  {"T": 99}):
        raw = dict(base)
        raw.update(patch)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)


def test_explicit_alpha_must_cover_horizon():
    raw = dict(SIMULATE_EXAMPLE)
    raw.update({"alpha_kind": "explicit", "alpha_values": [1.0, 0.5],
                "bounds": ["theorem1"]})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(raw)   # bounds need alpha_{T+1}
    raw["alpha_values"] = [1.0, 0.5, 0.5]
    res = run_experiment(ExperimentConfig.from_dict(raw))
    assert res.summary["contracts_ok"]


def test_nonoblivious_validation():
    base = NONOBLIVIOUS_EXAMPLE
    ExperimentConfig.from_dict(base)
    for patch in ({"a": None}, {"p": 1.5}, {"T": 1}, {"b": 1.5}):
        raw = dict(base)
        raw.update(patch)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------

def test_simulate_worked_example():
    cfg = ExperimentConfig.from_dict(SIMULATE_EXAMPLE)
    res = run_experiment(cfg)
    assert res.csv_header == TRACE_COLUMNS + ("bound_corollary1",)
    assert len(res.csv_rows) == 2
    s = res.summary
    assert math.isclose(s["regret_discounted"], -1.914213562373095, rel_tol=1e-9)
    assert math.isclose(s["bounds"]["corollary1"]["total"], 11.399494936611664, rel_tol=1e-9)
    assert s["bounds"]["corollary1"]["dominates"]
    assert s["clip_count"] == 0
    assert s["contracts_ok"]


def test_simulate_empty_trace():
    raw = dict(SIMULATE_EXAMPLE)
    raw["T"] = 0
    res = run_experiment(ExperimentConfig.from_dict(raw))
    assert res.csv_rows == ()
    assert res.summary["regret_discounted"] == 0.0
    assert res.summary["bounds"] == {"corollary1": None}
    assert res.summary["contracts_ok"]


def test_random_adversary_is_seed_deterministic():
    raw = {"adversary": "random", "beta1": 0.6, "beta2": 0.5, "T": 12, "seed": 42}
    r1 = run_experiment(ExperimentConfig.from_dict(raw))
    r2 = run_experiment(ExperimentConfig.from_dict(raw))
    assert r1.csv_rows == r2.csv_rows
    raw["seed"] = 43
    r3 = run_experiment(ExperimentConfig.from_dict(raw))
    assert r1.csv_rows != r3.csv_rows


def test_random_gradients_within_unit_interval():
    raw = {"adversary": "random", "beta1": 0.6, "beta2": 0.5, "T": 50, "seed": 7}
    res = run_experiment(ExperimentConfig.from_dict(raw))
    g_col = TRACE_COLUMNS.index("g_t")
    assert all(abs(row[g_col]) <= 1.0 for row in res.csv_rows)


def test_geometric_preset_summary():
    cfg = ExperimentConfig.from_dict(cli.TIGHTNESS_PRESET)
    res = run_experiment(cfg)
    s = res.summary
    assert math.isclose(s["regret"], 14.52786404500042, rel_tol=1e-9)
    assert s["lower_bound"] == 10.0
    assert s["clip_count"] == 0
    assert s["contracts_ok"]
    assert res.csv_header == TRACE_COLUMNS + ("bound_B",)


def test_nonoblivious_preset_summary():
    cfg = ExperimentConfig.from_dict(cli.NONOBLIVIOUS_PRESET)
    res = run_experiment(cfg)
    s = res.summary
    assert math.isclose(s["regret_a"], 0.12805955371748015, rel_tol=1e-9)
    assert math.isclose(s["regret_aprime"], 0.3322949016875158, rel_tol=1e-9)
    assert s["per_round_strict"] and s["separation_expected"] and s["contracts_ok"]
    assert res.csv_header == PAIR_COLUMNS


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_beta2_argmin_annotation():
    raw = dict(SIMULATE_EXAMPLE)
    raw.update({"beta1": 0.7, "domain": 1.0,
                "grid": {"beta2": [0.49, 0.6, 0.8, 0.95]}})
    res = sweep(ExperimentConfig.from_dict(raw))
    assert res.summary["points_ok"] == 4
    ann = res.summary["beta2_argmin"]
    assert ann == [{"beta1": 0.7, "argmin_beta2": 0.49,
                    "bound_total": ann[0]["bound_total"]}]


def test_sweep_skips_incoherent_points_with_reason():
    raw = dict(SIMULATE_EXAMPLE)
    raw["grid"] = {"beta2": [0.49, 0.01]}   # beta2=0.01 gives p > 1 vs corollary1
    res = sweep(ExperimentConfig.from_dict(raw))
    statuses = [row[1] for row in res.csv_rows]
    assert statuses[0] == "ok"
    assert statuses[1].startswith("skipped:")


def test_csv_cells_with_commas_are_quoted(tmp_path):
    import csv as csv_mod

    raw = {"adversary": "geometric", "p": 0.5, "kappa": 4.0, "v0": 1.0,
           "domain": 1.0, "T": 2, "grid": {"kappa": [4.0, 2.0]}}
    res = sweep(ExperimentConfig.from_dict(raw))
    text = render_csv(res)
    parsed = list(csv_mod.reader(text.splitlines()))
    assert all(len(row) == len(res.csv_header) for row in parsed)
    assert any(cell.startswith("skipped:") for row in parsed for cell in row)


def test_sweep_grid_cells_print_their_json_text():
    # a null, list or object grid value prints as the JSON text its skip reason quotes, not as
    # a Python repr; numbers keep their text
    raw = {"adversary": "random", "beta1": 0.9, "beta2": 0.99, "T": 5, "seed": 1,
           "grid": {"beta1": [0.5, None, [0.6], {"x": "y"}]}}
    rows = list(csv.reader(io.StringIO(render_csv(sweep(ExperimentConfig.from_dict(raw))))))
    assert [row[0] for row in rows] == ["beta1", "0.5", "null", "[0.6]", '{"x": "y"}']
    assert [row[1] for row in rows[1:]] == [
        "ok", "skipped: gradient-stream runs need 'beta1' and 'beta2'",
        "skipped: 'beta1': [0.6] is not a number",
        """skipped: 'beta1': {"x": "y"} is not a number"""]


def test_gradient_stream_T_above_the_cap_is_a_config_error(monkeypatch):
    # past the cap a gradient stream's T is a typed error, met before any gradient is drawn
    drawn = []
    monkeypatch.setattr(adamftrl.adversaries._Pcg64, "uniform",
                        lambda self, n: drawn.append(n) or np.full(n, 0.5))
    cap = adamftrl.harness.MAX_STREAM_T
    for adversary in ({"adversary": "random"}, {"adversary": "fixed", "gradients": [1.0]}):
        for T in (cap + 1, 10 ** 30):
            with pytest.raises(ConfigError, match=f"^T must be <= {cap} for a gradient stream"):
                ExperimentConfig.from_dict({**adversary, "beta1": 0.9, "beta2": 0.99, "T": T})
    raw = {"adversary": "random", "beta1": 0.9, "beta2": 0.99, "T": 5, "seed": 1,
           "bounds": ["theorem1"], "grid": {"T": [5, 10 ** 30]}}
    rows = list(csv.reader(io.StringIO(render_csv(sweep(ExperimentConfig.from_dict(raw))))))
    assert [row[1] for row in rows[1:]] == [
        "ok", f"skipped: T must be <= {cap} for a gradient stream, got {10 ** 30}"]
    assert drawn == [6]


def _point_metrics(summary: dict, columns) -> tuple:
    """A point's sweep metrics, read off its own summary."""
    if "bounds" not in summary:   # an oracle point's
        return tuple(summary[c] for c in columns)
    return (summary["regret_discounted"],) + tuple(
        summary["bounds"][n]["total"] if summary["bounds"].get(n) else math.nan
        for n in BOUNDS) + (summary["contracts_ok"],)


def _check_sweep_matches_point_runs(raw) -> int:
    """Each sweep row equals its point's own run (or skip reason), and each batched summary
    equals that run's summary, as JSON text; returns how many of the sweep's batches raised."""
    res = sweep(ExperimentConfig.from_dict(raw))
    keys = sorted(raw["grid"])
    columns = res.csv_header[len(keys) + 1:]
    base = {k: v for k, v in ExperimentConfig.from_dict(raw)._asdict().items() if k != "grid"}
    expected, batches = [], {}
    for combo in itertools.product(*(raw["grid"][k] for k in keys)):
        point = ExperimentConfig(**{**base, **dict(zip(keys, combo))})
        try:
            point.validate()
        except (AdamFtrlError, ValueError) as exc:
            expected.append(combo + (f"skipped: {exc}",) + (math.nan,) * len(columns))
            continue
        # the sweep's batches: one per value of the grid keys outside the adversary's axes
        members = batches.setdefault(tuple(
            v for k, v in zip(keys, combo) if k not in ADVERSARIES[raw["adversary"]].axes), [])
        try:
            single = run_experiment(point).summary
        except (AdamFtrlError, ValueError) as exc:
            expected.append(combo + (f"skipped: {exc}",) + (math.nan,) * len(columns))
            members.append((point, None))
            continue
        members.append((point, single))
        expected.append(combo + ("ok",) + _point_metrics(single, columns))
    assert render_csv(res) == render_csv(ExperimentResult(res.csv_header, tuple(expected), {}))
    raised = 0
    for members in batches.values():
        try:
            batch = run_experiment([point for point, _ in members])
        except (AdamFtrlError, ValueError):
            raised += 1
            continue
        for (_, single), summary in zip(members, batch.summary["points"]):
            # a batch that does not raise holds only points whose own runs do not either
            assert json.dumps(summary, sort_keys=True) == json.dumps(single, sort_keys=True)
    return raised


@st.composite
def stream_sweeps(draw):
    """A fixed or random beta1 x beta2 sweep, over one T or a T grid of up to three."""
    unit = st.floats(0.01, 0.999)
    T_values = draw(st.lists(st.integers(0, 200), min_size=1, max_size=3, unique=True))
    T = max(T_values)
    raw = {"adversary": draw(st.sampled_from(["fixed", "random"])), "T": T,
           "seed": draw(st.integers(0, 2**32 - 1)),
           "alpha": draw(st.sampled_from([0.5, 2.0, 1e-300])),
           "alpha_kind": draw(st.sampled_from(["constant", "exponential_decay", "explicit"])),
           "domain": draw(st.sampled_from(["unbounded", 0.05, 0.5, 3.0])),
           "bounds": draw(st.lists(st.sampled_from(sorted(BOUNDS)), max_size=3, unique=True)),
           "grid": {"beta1": draw(st.lists(unit, min_size=1, max_size=3)),
                    "beta2": draw(st.lists(unit, min_size=1, max_size=3))}}
    if len(T_values) > 1:
        raw["grid"]["T"] = T_values
    if raw["adversary"] == "fixed":
        # g^2 overflows at 1.7e308 and -1e200, and q underflows at 1e-170: both states raise
        extreme = st.sampled_from([1.7e308, -1e200, 1e-170])
        raw["gradients"] = [draw(st.sampled_from([-1.5, 0.25, 2.0, 1e-170]))] + draw(st.lists(
            st.one_of(st.floats(-4.0, 4.0), extreme), min_size=T, max_size=T))
    if raw["alpha_kind"] == "exponential_decay" and draw(st.booleans()):
        raw["alpha_ratio"] = draw(st.floats(1.0, 3.0))   # otherwise each point decays at its p
    if raw["alpha_kind"] == "explicit":
        raw["alpha_values"] = sorted(draw(st.lists(st.floats(1e-3, 2.0), min_size=T + 1,
                                                   max_size=T + 1)), reverse=True)
    if raw["domain"] != "unbounded":
        raw["u"] = draw(st.sampled_from([0.0, 0.5, 1.0, -1.0])) * raw["domain"]
    return raw


# q overflows when g_1 is ingested, so every point's own run raises and the batch must too
Q_OVERFLOW = {"adversary": "fixed", "gradients": [1.0, 1.7e308, 1.7e308, -1.0, 0.5],
              "beta1": 0.5, "beta2": 0.5, "alpha": 0.5, "u": 0.0, "bounds": ["corollary1"],
              "grid": {"beta1": [0.3, 0.6], "beta2": [0.5, 0.9]}}

# alpha m overflows before the division by sqrt(q), and g_0^2 underflows: each point raises
UPDATE_OVERFLOW = {"adversary": "fixed", "gradients": [1.0, 5.0, 0.0, 3.0], "beta1": 0.9,
                   "beta2": 0.99, "alpha_kind": "constant", "alpha": 1e308, "domain": 1.0,
                   "u": 0.5}
Q_UNDERFLOW = {"adversary": "fixed", "gradients": [1e-170, 1.0, 2.0], "beta1": 0.9,
               "beta2": 0.99, "alpha_kind": "constant"}


@given(stream_sweeps())
@example({**Q_OVERFLOW, "domain": "unbounded"})
@example({**Q_OVERFLOW, "domain": 0.5})
@settings(max_examples=60, deadline=None)
def test_sweep_points_match_run_experiment(raw):
    _check_sweep_matches_point_runs(raw)


@st.composite
def oracle_sweeps(draw):
    """A geometric kappa x T or non-oblivious a x b x T sweep, sometimes over p as well, at
    magnitudes where a run may leave the float range at any T of the grid."""
    T_values = draw(st.lists(st.integers(1, 70), min_size=1, max_size=3, unique=True))
    scale = st.one_of(st.floats(1e-3, 1e3), st.floats(1e-200, 1e160))
    if draw(st.booleans()):
        p = st.floats(0.39, 0.61)
        raw = {"adversary": "geometric", "v0": draw(scale), "domain": draw(scale),
               "grid": {"kappa": draw(st.lists(st.one_of(st.floats(2.5, 12.0),
                                                          st.floats(2.5, 1e100)),
                                               min_size=1, max_size=3))}}
    else:
        p = st.floats(0.01, 0.99)
        unit = st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3)
        raw = {"adversary": "nonoblivious",
               "v": draw(st.one_of(scale, st.sampled_from([1e200, 1e-170, 1.2e154]))),
               "grid": {"a": draw(unit), "b": draw(unit)}}
        if draw(st.booleans()):
            raw["beta1"] = draw(st.floats(0.01, 0.3))
    raw.update(T=T_values[0], oracle_horizon=draw(st.sampled_from([60, 70])))
    if len(T_values) > 1:
        raw["grid"]["T"] = T_values
    if draw(st.booleans()):
        raw["grid"]["p"] = draw(st.lists(p, min_size=1, max_size=2))
    else:
        raw["p"] = draw(p)
    return raw


NONOBLIVIOUS_GRID = {"adversary": "nonoblivious", "p": 0.5, "v": 1.0, "T": 10,
                     "grid": {"a": [0.2, 0.5], "b": [0.5, 0.9], "T": [2, 10]}}
# Oracle sweeps whose batch raises, so that their points rerun one by one
ORACLE_FALLBACKS = {
    "q-overflow-at-t0": {**NONOBLIVIOUS_GRID, "v": 1e200},
    "q-underflow": {**NONOBLIVIOUS_GRID, "v": 1e-170},
    "squares-overflow": {**cli.TIGHTNESS_PRESET, "grid": {"kappa": [4.0, 1e100], "T": [2, 3]}},
    "B-overflow": {**cli.TIGHTNESS_PRESET, "oracle_horizon": 512, "grid": {"T": [60, 511, 512]}},
}


@given(oracle_sweeps())
@example(ORACLE_FALLBACKS["q-overflow-at-t0"])
@example(ORACLE_FALLBACKS["q-underflow"])
@example(ORACLE_FALLBACKS["squares-overflow"])
@example(ORACLE_FALLBACKS["B-overflow"])
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("ignore:a = .* strict per-round dominance is not guaranteed")
def test_oracle_sweep_points_match_run_experiment(raw):
    _check_sweep_matches_point_runs(raw)


@pytest.mark.parametrize("name", sorted(ORACLE_FALLBACKS))
@pytest.mark.filterwarnings("ignore:a = .* strict per-round dominance is not guaranteed")
def test_oracle_sweep_batches_fall_back_to_point_runs(name):
    assert _check_sweep_matches_point_runs(ORACLE_FALLBACKS[name]) == 1


@pytest.mark.parametrize("v", [1.0, 1e200], ids=["batches-run", "batches-fall-back"])
def test_nonoblivious_sweep_warns_once_per_point_in_row_order(v):
    # points of two p batches interleave in row order, and T = 70 > horizon skips a point,
    # which does not warn; when v = 1e200 every point's run raises, and each still warns
    raw = {"adversary": "nonoblivious", "v": v, "T": 3,
           "grid": {"a": [0.2, 0.5, 0.9], "b": [0.3, 0.8], "p": [0.5, 0.7], "T": [3, 70]}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = sweep(ExperimentConfig.from_dict(raw)).csv_rows
    expected = [f"a = {a} >= b^2 = {b * b}: strict per-round dominance is not guaranteed"
                for T, a, b, _ in itertools.product([3, 70], [0.2, 0.5, 0.9], [0.3, 0.8],
                                                    [0.5, 0.7])
                if T == 3 and a >= b * b]
    assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, m) for m in expected]
    assert [row[4] == "ok" for row in rows] == [T == 3 and v == 1.0 for T, *_ in rows]


def test_nonoblivious_config_warns_once_as_it_validates():
    # validation issues the a >= b^2 warning, once per config; the run adds none
    raw = {**cli.NONOBLIVIOUS_PRESET, "a": 0.5, "b": 0.5}
    message = "a = 0.5 >= b^2 = 0.25: strict per-round dominance is not guaranteed"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = ExperimentConfig.from_dict(raw)
        assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, message)]
        run_experiment(config)
    assert len(caught) == 1


def test_nonoblivious_subcommand_warns_once(tmp_path):
    # the worked pair with a = b = 0.5 warns once and writes the bytes it always has
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": 0.5, "b": 0.5}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["nonoblivious", "--config", str(cfg),
                         "--out", str(tmp_path / "pair")]) == 0
    assert [w.category for w in caught] == [UserWarning]
    digests = {suffix: hashlib.sha256((tmp_path / f"pair{suffix}").read_bytes()).hexdigest()
               for suffix in (".csv", ".json")}
    assert digests == {
        ".csv": "771aa303caa5d5dc95920bb2fc2e1b840f520a20e4fc20825f241e17fff56c0a",
        ".json": "356961d4bd348363e7b48f71b2f2bd8c5055f7840ae16c73f263fa2b123d93cc"}


def test_sweep_batch_falls_back_to_point_runs():
    # each point decays alpha = 1e-300 at its own p; alpha_t underflows before T = 200 only
    # at p = 1.34 (t = 186) and p = 1.40 (t = 163).  The batch stops at t = 163, so the
    # points rerun one by one and the p = 1.34 row still names its own round.
    raw = {"adversary": "random", "beta1": 0.9, "beta2": 0.5, "T": 200, "seed": 2,
           "alpha_kind": "exponential_decay", "alpha": 1e-300, "bounds": ["theorem3"],
           "grid": {"beta1": [0.9, 0.95, 0.99], "beta2": [0.5, 0.6]}}
    assert _check_sweep_matches_point_runs(raw) == 1
    statuses = [row[2] for row in sweep(ExperimentConfig.from_dict(raw)).csv_rows]
    underflow = "skipped: exponential decay alpha_t underflows to zero at t="
    assert statuses == ["ok", "ok", underflow + "186", "ok", underflow + "163", "ok"]


def test_fixed_sweep_scans_its_gradients_once(monkeypatch):
    # the points share their template's gradients, which are checked once per sweep however
    # large the grid: over several T batches, and when a batch reruns point by point.  The
    # scan is counted by the finiteness checks made in the adversaries module.
    scanned = []

    def isfinite(g):
        scanned.append(g)
        return math.isfinite(g)

    monkeypatch.setattr(adamftrl.adversaries, "math",
                        types.SimpleNamespace(**{**vars(math), "isfinite": isfinite}))
    rng = random.Random(4)
    for betas, horizons in (([0.8, 0.9], [20]), ([0.7, 0.8, 0.9], [10, 15, 20])):
        raw = {"adversary": "fixed", "gradients": [rng.uniform(-1.0, 1.0) for _ in range(21)],
               "beta1": 0.9, "beta2": 0.99, "alpha": 0.5, "domain": 1.0, "u": 0.5,
               "bounds": ["corollary1"],
               "grid": {"beta1": betas, "beta2": [0.99, 0.999], "T": horizons}}
        scanned.clear()
        result = sweep(ExperimentConfig.from_dict(raw))
        assert result.summary["points_ok"] == 2 * len(betas) * len(horizons)
        assert scanned == raw["gradients"]
    scanned.clear()
    assert sweep(ExperimentConfig.from_dict(Q_OVERFLOW)).summary["points_ok"] == 0
    assert scanned == Q_OVERFLOW["gradients"]


def test_sweep_skips_points_whose_second_moment_overflows():
    assert _check_sweep_matches_point_runs(Q_OVERFLOW) == 1
    rows = sweep(ExperimentConfig.from_dict(Q_OVERFLOW)).csv_rows
    assert [row[2] for row in rows] == ["skipped: second-moment accumulator overflows at t=1"] * 4


def test_sweep_batch_sees_theorem1_overflow_at_an_early_row():
    # u^2 sqrt(q) / alpha overflows at T = 2 only: q then decays, so the round-9 bound is finite
    raw = {"adversary": "fixed", "gradients": [1.0, 3.0] + [0.0] * 8, "beta1": 0.5,
           "beta2": 0.5, "alpha": 1e-308, "domain": 1.0, "u": 1.0, "bounds": ["theorem1"],
           "grid": {"beta2": [0.5, 0.6]}}
    assert _check_sweep_matches_point_runs(raw) == 1
    assert {row[1] for row in sweep(ExperimentConfig.from_dict(raw)).csv_rows} == {
        "skipped: bound 'theorem1' overflows: its total leaves the float range at T = 2"}


# The first row whose total is not finite: N = 2, 2 and 51.  The corollary1 and theorem1
# totals are finite again at T, so only the probe at the running peaks makes a batch raise;
# theorem1's coefficient falls ~2^499-fold by T, so its variance overflows only at its peak.
EARLY_OVERFLOWS = {
    "corollary1": ({"adversary": "fixed", "gradients": [1.0, 3.0] + [0.0] * 8, "beta1": 0.5,
                    "beta2": 0.5, "alpha": 1e-308, "u": 1.0, "domain": 1.0}, 2),
    "theorem1": ({"adversary": "fixed", "gradients": [1.0, 1.0, 2e8] + [0.0] * 997, "beta1": 0.5,
                  "beta2": 0.5, "alpha_kind": "exponential_decay", "alpha": 1e300,
                  "alpha_ratio": 2.0, "u": 0.0, "domain": 1.0}, 2),
    "B": ({"adversary": "random", "seed": 0, "beta1": 1e-6, "beta2": 0.5, "T": 60,
           "alpha": 0.5, "domain": 1.0}, 51),
}


@pytest.mark.parametrize("name", sorted(EARLY_OVERFLOWS))
def test_sweep_batch_sees_every_bound_overflow_at_an_early_row(name):
    raw, N = EARLY_OVERFLOWS[name]
    raw = {**raw, "bounds": [name], "grid": {"beta2": [0.5, 0.6]}}
    assert _check_sweep_matches_point_runs(raw) == 1
    assert [row[1] for row in sweep(ExperimentConfig.from_dict(raw)).csv_rows] == [
        f"skipped: bound {name!r} overflows: its total leaves the float range at T = {N}"] * 2


def test_sweep_skips_tightness_points_that_leave_the_float_range():
    # B's total overflows at T = 511, and kappa^512 itself does: both used to be tracebacks
    raw = {**cli.TIGHTNESS_PRESET, "oracle_horizon": 512, "grid": {"T": [60, 511, 512]}}
    statuses = [row[1] for row in sweep(ExperimentConfig.from_dict(raw)).csv_rows]
    assert statuses == [
        "ok", "skipped: bound 'B' overflows: its total leaves the float range at T = 511",
        "skipped: tightness runs need v0 kappa^T finite, got kappa=4.0, T=512"]


def test_sweep_skips_tightness_points_whose_squares_overflow():
    # (1e100^s)^2 overflows in B's radical at T = 2 and in eta_3 at T = 3; both were tracebacks
    raw = {**cli.TIGHTNESS_PRESET, "grid": {"kappa": [4.0, 1e100], "T": [2, 3]}}
    statuses = [row[2] for row in sweep(ExperimentConfig.from_dict(raw)).csv_rows]
    assert statuses == [
        "ok", "skipped: bound 'B' overflows: its total leaves the float range at T = 2",
        "ok", "skipped: FTRL second-moment sum overflows at t=3"]


def test_sweep_skips_tightness_points_whose_lower_bound_overflows():
    # v0 D kappa (kappa^T - 1) overflows at kappa = 7.6e69; the row read ok with contracts_ok
    # false, since the lower-bound contract compared the regret with inf
    raw = {**cli.TIGHTNESS_PRESET, "domain": 7.8e129, "T": 2, "grid": {"kappa": [4.0, 7.6e69]}}
    result = sweep(ExperimentConfig.from_dict(raw))
    assert [row[1] for row in result.csv_rows] == [
        "ok", "skipped: tightness lower bound overflows at T = 2"]


def test_cli_sweep_skips_tightness_points_whose_bound_underflows(tmp_path):
    # B's total at T = 2 is 0.0 at kappa = 4 but not at 1e20; the sweep died with a
    # ZeroDivisionError traceback, exit 1 and no output
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**cli.TIGHTNESS_PRESET, "v0": 1e-150, "domain": 1e-200,
                               "grid": {"kappa": [4.0, 1e20]}}))
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    rows = list(csv.reader(io.StringIO((tmp_path / "s.csv").read_text(), newline="")))
    assert [row[1] for row in rows[1:]] == [
        "skipped: tightness bound B underflows to zero at T = 2", "ok"]
    assert json.loads((tmp_path / "s.json").read_text())["points_ok"] == 1


@pytest.mark.parametrize("raw,reason", [
    (UPDATE_OVERFLOW, "update delta_bar overflows at t=2"),
    (Q_UNDERFLOW, "second-moment accumulator underflows to zero after g_0"),
    # q = 1e-320, then beta2 q rounds to a subnormal and beta2^2 q to 0
    ({**Q_UNDERFLOW, "gradients": [1e-160, 0.0, 0.0, 1.0]},
     "second-moment accumulator underflows to zero after g_2"),
], ids=["update-overflow", "underflow-after-g0", "underflow-after-g2"])
def test_sweep_skips_points_whose_update_leaves_the_float_range(raw, reason):
    raw = {**raw, "grid": {"beta2": [0.001, 0.01]}}
    assert _check_sweep_matches_point_runs(raw) == 1
    assert [row[1] for row in sweep(ExperimentConfig.from_dict(raw)).csv_rows] == [
        f"skipped: {reason}"] * 2


# Streams whose extreme gradients fall in the batch's last block once T > _BLOCK: g_T^2
# overflows q at t = T, g_T^2 underflows to 0, or a tail of 1e-170 lets q decay at beta2 = 0.01
# until it underflows to zero after g_162, in a later block, which T = 163 reaches.
BLOCK_EDGE_STREAMS = {
    "q-overflow": lambda T: [1.0] + [((37 * t) % 19 - 9) / 8 for t in range(1, T)] + [1.7e308],
    "square-underflow": lambda T: [1.0] + [((37 * t) % 19 - 9) / 8 for t in range(1, T)] + [1e-170],
    "q-underflow": lambda T: [1.0] + [1e-170] * T,
}


@pytest.mark.parametrize("T", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 163])
@pytest.mark.parametrize("stream", sorted(BLOCK_EDGE_STREAMS))
def test_batch_matches_point_runs_at_block_edges(stream, T):
    raw = {"adversary": "fixed", "gradients": BLOCK_EDGE_STREAMS[stream](T), "T": T,
           "beta1": 0.5, "beta2": 0.5, "alpha": 0.5, "domain": 1.0, "u": 0.5,
           "bounds": ["corollary1"], "grid": {"beta1": [0.05, 0.6], "beta2": [0.01, 0.5, 0.99]}}
    template = ExperimentConfig.from_dict(raw)
    base = {k: v for k, v in template._asdict().items() if k != "grid"}
    points, own, reasons = [], [], []
    for beta1, beta2 in itertools.product(raw["grid"]["beta1"], raw["grid"]["beta2"]):
        point = ExperimentConfig(**{**base, "beta1": beta1, "beta2": beta2})
        try:
            point.validate()
        except AdamFtrlError as exc:
            reasons.append(f"skipped: {exc}")
            continue
        points.append(point)
        try:
            own.append(_run_gradient_stream(point).summary)
            reasons.append("ok")
        except AdamFtrlError as exc:
            own.append(exc)
            reasons.append(f"skipped: {exc}")
    assert len(points) == 5   # (0.6, 0.01) is skipped at p > 1
    assert [row[2] for row in sweep(template).csv_rows] == reasons
    errors = [o for o in own if isinstance(o, Exception)]
    if not errors:
        batch = run_experiment(points).summary["points"]
        assert list(map(repr, batch)) == list(map(repr, own))
        return
    with pytest.raises(AdamFtrlError) as batch_error:
        run_experiment(points)
    if stream == "q-underflow":   # one point's q is zero, and the batch names the same row
        assert [str(batch_error.value)] == list(map(str, errors))


def test_explicit_alpha_sweep_builds_its_schedule_once(monkeypatch):
    # the template's explicit schedule is checked once and shared by every point: over several
    # T batches, and when a batch reruns its points one by one
    calls = []
    explicit = AlphaSchedule.explicit.__func__

    def counting(cls, values):
        calls.append(len(values))
        return explicit(cls, values)

    monkeypatch.setattr(AlphaSchedule, "explicit", classmethod(counting))
    values = [0.5 / (1 + (t - 1) // 7) for t in range(1, 42)]
    raw = {"adversary": "random", "T": 40, "seed": 3, "beta1": 0.5, "beta2": 0.5,
           "alpha_kind": "explicit", "alpha_values": values, "domain": 1.0,
           "bounds": ["theorem1"], "grid": {"beta1": [0.5, 0.7], "beta2": [0.6, 0.9],
                                            "T": [10, 40]}}
    assert sweep(ExperimentConfig.from_dict(raw)).summary["points_ok"] == 8
    assert calls == [41]
    calls.clear()
    raw = {**Q_OVERFLOW, "alpha_kind": "explicit", "alpha_values": [1.0, 0.5, 0.5, 0.25, 0.25],
           "bounds": ["theorem1"]}
    assert [row[2] for row in sweep(ExperimentConfig.from_dict(raw)).csv_rows] == [
        "skipped: second-moment accumulator overflows at t=1"] * 4
    assert calls == [5]


def test_batch_memory_grows_with_the_stream_not_with_rounds_times_points():
    # a batch holds the O(T) stream (its float64 array, and briefly the list of floats it
    # came from) and O(_BLOCK x n) state; a (T + 1) x n float64 matrix would take 8 n = 1024
    # bytes a round
    betas = [0.05 * k for k in range(1, 17)], [0.1 * k for k in range(1, 9)]
    n = len(betas[0]) * len(betas[1])

    def peak(T):
        points = [ExperimentConfig.from_dict({"adversary": "random", "T": T, "seed": 1,
                                              "beta1": b1, "beta2": b2, "alpha": 0.5,
                                              "domain": 1.0, "u": 0.5})
                  for b1, b2 in itertools.product(*betas)]
        tracemalloc.start()
        try:
            run_experiment(points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = 500, 4500
    peak(small)   # the first run also allocates what numpy and the package keep for later
    assert peak(large) - peak(small) < (large - small) * 8 * n / 4


@pytest.mark.filterwarnings("ignore:a = .* strict per-round dominance is not guaranteed")
def test_pair_batch_memory_grows_with_the_rounds_not_with_rounds_times_pairs():
    # a pair batch runs its pairs a few at a time, each of its arrays within _PAIR_CELLS cells,
    # and keeps only each point's summary; a (T + 1) x n float64 matrix of the 64 pairs' n = 128
    # instances would take 8 n = 1024 bytes a round.  Near p = 1, q stays in range for long.
    rates = [0.3 + 0.04 * k for k in range(8)]
    n = 2 * len(rates) ** 2

    def peak(T):
        points = [ExperimentConfig.from_dict({"adversary": "nonoblivious", "a": a, "b": b,
                                              "v": 1e150, "p": 0.99, "beta1": 0.985, "T": T,
                                              "oracle_horizon": T})
                  for a, b in itertools.product(rates, rates)]
        tracemalloc.start()
        try:
            run_experiment(points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = 200, 1200
    peak(small)   # the first run also allocates what numpy and the package keep for later
    assert peak(large) - peak(small) < (large - small) * 8 * n / 4


@pytest.mark.parametrize("schedule", [
    {"bounds": ["corollary1"]},
    # every alpha_t differs, so each is a run of its own whose text is made once
    {"alpha_kind": "exponential_decay", "alpha_ratio": 1.0001, "bounds": ["theorem1"]},
], ids=["constant", "exponential_decay"])
def test_simulate_keeps_columns_and_writes_its_csv_in_chunks(schedule, tmp_path):
    # a trace keeps 11 float64 cells and a byte a row here (its row tuples took about 370
    # bytes), and write_outputs formats and writes its CSV a chunk of lines at a time, so its
    # own peak does not grow with T (the text rendered whole took some 220 bytes a row, twice),
    # nor do the texts it makes once per run of equal cells
    def measure(T):
        config = ExperimentConfig.from_dict({"adversary": "random", "T": T, "seed": 1,
                                             "beta1": 0.9, "beta2": 0.99, "alpha": 0.5,
                                             "domain": 1.0, "u": 0.5, **schedule})
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_experiment(config)
            kept = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            write_outputs(result, tmp_path / "trace", "csv")
            return kept, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    small, large = 5000, 20000
    measure(small)   # the first run also allocates what numpy and the package keep for later
    (kept_small, write_small), (kept_large, write_large) = measure(small), measure(large)
    assert (kept_large - kept_small) / (large - small) < 150
    assert write_large - write_small < (large - small) * 8


@pytest.mark.parametrize("extra,limit", [
    ({"bounds": ["corollary1"]}, 136),
    ({"bounds": ["theorem1"], "alpha_kind": "exponential_decay", "alpha_ratio": 1.0001}, 170),
], ids=["corollary1", "theorem1-decay"])
def test_simulate_run_peak_bytes_a_round(extra, limit):
    # the run holds the stream as a list of floats (32 bytes a round) and its columns, and its
    # recurrences read no list of all T floats; 136 bytes is what reading drive's rounds into
    # the columns in chunks of tuples peaked at here.  theorem1's walk writes each row's
    # alpha_{T+1} and coefficient into float64 arrays, so a decaying alpha, whose values are
    # all distinct floats, holds no float object per row
    def peak(T):
        config = ExperimentConfig.from_dict({"adversary": "random", "T": T, "seed": 1,
                                             "beta1": 0.9, "beta2": 0.99, "alpha": 0.5,
                                             "domain": 1.0, "u": 0.5, **extra})
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run_experiment(config)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    small, large = 5000, 20000
    peak(small)   # the first run also allocates what numpy and the package keep for later
    assert (peak(large) - peak(small)) / (large - small) <= limit


@pytest.mark.parametrize("raw,replays", [
    ({"adversary": "random", "T": 300, "seed": 1, "bounds": ["corollary1"]}, 0),
    ({"adversary": "fixed", "gradients": [1.0] * 200 + [1.7e308, 1.0], "bounds": []}, 1),
    ({"adversary": "fixed", "gradients": [1.0, 0.5, 0.5, 1.0, 0.2, 5.0], "alpha": 1e308,
      "bounds": ["corollary1"]}, 1),
], ids=["clean", "q-overflow", "update-overflow"])
def test_simulate_replays_drive_only_on_a_failure(raw, replays, monkeypatch):
    # the column engine runs a clean trace without regret.drive; a failing one replays it once,
    # to find the round and error drive stops at, and keeps the rounds before it
    calls = []
    original = adamftrl.regret.drive

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (adamftrl.regret, adamftrl.harness):   # wherever the run could read it from
        monkeypatch.setattr(module, "drive", counting, raising=False)
    config = ExperimentConfig.from_dict({"beta1": 0.9, "beta2": 0.99, "alpha": 0.5, "u": 0.5,
                                         "domain": 1.0, **raw})
    assert _outputs_or_error(run_experiment, config) == _outputs_or_error(simulate_row_by_row,
                                                                          config)
    assert len(calls) == replays


def test_sweep_nonoblivious_grid_strictness():
    raw = {"adversary": "nonoblivious", "v": 1.0, "p": 0.5, "T": 10,
           "a": 0.1, "b": 0.5,
           "grid": {"a": [0.05, 0.1], "b": [0.4, 0.7]}}
    res = sweep(ExperimentConfig.from_dict(raw))
    status_col = res.csv_header.index("status")
    strict_col = res.csv_header.index("per_round_strict")
    for row in res.csv_rows:
        assert row[status_col] == "ok" and row[strict_col] is True
    assert res.summary["contracts_ok"]


@pytest.mark.filterwarnings("ignore:a = .* strict per-round dominance is not guaranteed")
def test_cli_sweeps_a_nonoblivious_grid_over_p(tmp_path):
    # p is a grid key, and each p runs as its own pair batch (beta1 defaults to p^2); the
    # rows equal the points' own runs
    raw = {"adversary": "nonoblivious", "v": 1.0, "T": 12,
           "grid": {"a": [0.1, 0.4], "b": [0.5, 0.8], "p": [0.3, 0.6, 0.9]}}
    assert _check_sweep_matches_point_runs(raw) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    summary = json.loads((tmp_path / "s.json").read_text())
    assert summary["sweep_keys"] == ["a", "b", "p"] and summary["points_ok"] == 12


def test_sweep_requires_grid():
    with pytest.raises(ConfigError):
        sweep(ExperimentConfig.from_dict(SIMULATE_EXAMPLE))
    raw = dict(SIMULATE_EXAMPLE)
    raw["grid"] = {"alpha": [1.0]}
    with pytest.raises(ConfigError):
        sweep(ExperimentConfig.from_dict(raw))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_csv_header_and_roundtrip(tmp_path):
    cfg = ExperimentConfig.from_dict(SIMULATE_EXAMPLE)
    res = run_experiment(cfg)
    paths = write_outputs(res, tmp_path / "trace", "both")
    assert [p.name for p in paths] == ["trace.csv", "trace.json"]
    lines = paths[0].read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS) + ",bound_corollary1"
    assert len(lines) == 3
    # 17-significant-digit floats round-trip exactly
    row = lines[2].split(",")
    assert float(row[res.csv_header.index("regret_discounted")]) == \
        res.summary["regret_discounted"]
    summary = json.loads(paths[1].read_text())
    assert summary["regret_discounted"] == res.summary["regret_discounted"]


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    raw = {"adversary": "random", "beta1": 0.6, "beta2": 0.5, "T": 20,
           "seed": 11, "bounds": ["theorem1", "corollary1"]}
    blobs = []
    for name in ("one", "two"):
        res = run_experiment(ExperimentConfig.from_dict(raw))
        paths = write_outputs(res, tmp_path / name, "both")
        blobs.append(tuple(p.read_bytes() for p in paths))
    assert blobs[0] == blobs[1]


def test_write_outputs_bad_directory(tmp_path):
    cfg = ExperimentConfig.from_dict(SIMULATE_EXAMPLE)
    res = run_experiment(cfg)
    with pytest.raises(ConfigError):
        write_outputs(res, tmp_path / "missing" / "trace", "both")


def test_render_json_sorted_keys():
    cfg = ExperimentConfig.from_dict(SIMULATE_EXAMPLE)
    res = run_experiment(cfg)
    text = render_json(res)
    keys = list(json.loads(text))
    assert keys == sorted(keys)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_tightness_exit_zero(tmp_path, capsys):
    code = cli.main(["tightness", "--out", str(tmp_path / "tight")])
    assert code == 0
    out = capsys.readouterr().out
    assert "tight.csv" in out and "tight.json" in out


def test_cli_simulate_requires_config():
    assert cli.main(["simulate"]) == 2


def test_cli_bad_config_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["simulate", "--config", str(bad)]) == 2


_RANDOM = {"adversary": "random", "beta1": 0.9, "beta2": 0.99, "T": 5}
_GEOMETRIC = {"adversary": "geometric", "p": 0.5, "domain": 1.0, "T": 2}


@pytest.mark.parametrize("raw, err", [
    ({**_RANDOM, "T": None}, "config needs a round count 'T'"),
    ({**_RANDOM, "oracle_horizon": 0}, "oracle_horizon must be >= 1, got 0"),
    ({**_RANDOM, "domain": 0.0}, "domain must be positive or 'unbounded', got 0.0"),
    (_GEOMETRIC, "geometric adversary needs 'kappa' and 'v0'"),
    ({**_GEOMETRIC, "p": None, "kappa": 4.0, "v0": 1.0},
     "need either 'p' or both 'beta1' and 'beta2'"),
    ({**_RANDOM, "alpha_kind": "explicit"}, "explicit alpha needs 'alpha_values'"),
], ids=["no-T", "horizon-0", "domain-0", "geometric-no-kappa", "geometric-no-p",
        "explicit-no-values"])
def test_cli_missing_keys_exit_two_naming_them(raw, err, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: v for k, v in raw.items() if v is not None}))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"config error: {err}\n"
    assert not list(tmp_path.glob("x.*"))


def test_cli_unreadable_config_exits_two(tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read config {tmp_path}: ")


def test_cli_without_out_prints_the_summary_json(capsys):
    assert cli.main(["tightness"]) == 0
    expected = render_json(run_experiment(ExperimentConfig.from_dict(cli.TIGHTNESS_PRESET)))
    assert capsys.readouterr().out == expected


def test_cli_unwritable_output_exits_two_without_a_traceback(tmp_path, capsys):
    (tmp_path / "x.csv").mkdir()
    assert cli.main(["tightness", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write outputs at {tmp_path / 'x'}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "x.json").exists()


def test_cli_config_error_exit_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"adversary": "geometric", "p": 0.9, "kappa": 4.0,
                               "v0": 1.0, "domain": 1.0, "T": 2}))
    assert cli.main(["simulate", "--config", str(cfg)]) == 2


def test_cli_flag_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"adversary": "random", "beta1": 0.6, "beta2": 0.5,
                               "T": 5, "seed": 1}))
    code = cli.main(["simulate", "--config", str(cfg), "--seed", "9",
                     "--out", str(tmp_path / "a"), "--format", "json"])
    assert code == 0
    summary = json.loads((tmp_path / "a.json").read_text())
    assert summary["config"]["seed"] == 9
    assert not (tmp_path / "a.csv").exists()


def test_cli_contract_violation_exit_one(monkeypatch, tmp_path):
    from adamftrl.harness import ExperimentResult

    def fake_run(config):
        return ExperimentResult(csv_header=("t",), csv_rows=((1,),),
                                summary={"contracts_ok": False})

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    assert cli.main(["tightness", "--out", str(tmp_path / "x")]) == 1


def test_cli_increasing_schedule_exit_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"adversary": "random", "beta1": 0.5, "beta2": 0.3, "T": 5,
                               "alpha_kind": "exponential_decay", "alpha": 0.5,
                               "alpha_ratio": 1 - 1e-13, "bounds": ["theorem1"]}))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == ("config error: alpha must be non-increasing, "
                   "got 0.5 -> 0.5000000000000501\n")
    assert not (tmp_path / "x.json").exists()


RANDOM_DECAY = {"adversary": "random", "beta1": 0.9, "beta2": 0.99,
                "alpha_kind": "exponential_decay"}
FIXED_123 = {"adversary": "fixed", "gradients": [1.0, 2.0, 3.0], "beta1": 0.5, "beta2": 0.5,
             "alpha_kind": "constant"}

# fixed streams whose driver fails at round N = 4, 4 and 6: alpha_4 m_4 overflows, then
# g_4 (delta_4 - u) does, then g_6^2 does
BOUND_BEFORE_DRIVER = {
    "update": {"adversary": "fixed", "gradients": [1.0, 0.5, 0.5, 1.0, 0.2, 5.0],
               "alpha_kind": "constant", "alpha": 1e308, "u": 0.0, "domain": 1.0},
    "regret": {"adversary": "fixed", "gradients": [1.0, 0.5, 0.5, 0.01, 1.0, 0.2],
               "alpha_kind": "constant", "alpha": 1e308, "u": 0.0, "domain": "unbounded"},
    "second-moment": {"adversary": "fixed", "gradients": [1.0, 1.0, 1.0, 3.0, 0.0, 0.0,
                                                          1.7e308, 1.0],
                      "beta1": 0.5, "beta2": 0.5, "alpha_kind": "constant",
                      "alpha": 1e-308, "u": 1.0, "domain": 1.0},
}


@pytest.mark.parametrize("patch,err", [
    # alpha_136 rounds to 0.0, and theorem1's comparator divides by alpha_{T+1}
    ({"alpha": 1e-300, "alpha_ratio": 1.5, "T": 200, "bounds": ["theorem1"]},
     "exponential decay alpha_t underflows to zero at t=136"),
    # ratio ** (t - 1) overflows at t=1025
    ({"alpha": 0.5, "alpha_ratio": 2.0, "T": 1100, "bounds": ["theorem1"]},
     "exponential decay alpha_t underflows to zero at t=1025"),
    # p ** T overflows before T = 8000
    ({"beta2": 0.64, "T": 8000, "bounds": ["theorem3"]},
     "bound 'theorem3' overflows: its total leaves the float range at T = 6024"),
    # with no bound, updates alpha_t * m / sqrt(q) would silently be 0 from t=136
    ({"alpha": 1e-300, "alpha_ratio": 1.5, "T": 200},
     "exponential decay alpha_t underflows to zero at t=136"),
    # alpha_49 is subnormal and the comparator u^2 sqrt(q) / alpha_49 would be inf
    ({"alpha": 1e-300, "alpha_ratio": 1.5, "u": 0.5, "domain": 1.0, "T": 120,
      "bounds": ["theorem1"]},
     "bound 'theorem1' overflows: its total leaves the float range at T = 48"),
    # u^2 sqrt(q) / alpha overflows before round T; these totals used to reach the JSON as inf
    ({"alpha_kind": "constant", "alpha": 1e-308, "u": 1.0, "domain": 1.0, "T": 50,
      "bounds": ["corollary1"]},
     "bound 'corollary1' overflows: its total leaves the float range at T = 7"),
    ({"beta2": 0.64, "alpha": 1e-300, "u": 1.0, "domain": 1.0, "T": 200, "bounds": ["theorem3"]},
     "bound 'theorem3' overflows: its total leaves the float range at T = 163"),
    # g_1^2 overflows q; the updates m / sqrt(q) were NaN and the run exited 1
    ({"adversary": "fixed", "gradients": [1.0, 1.7e308, 1.7e308, -1.0, 0.5], "beta1": 0.5,
      "beta2": 0.5, "alpha_kind": "constant", "alpha": 0.5, "bounds": ["corollary1"]},
     "second-moment accumulator overflows at t=1"),
    # the first rows whose totals overflow; each used to reach the CSV as inf or die
    # with an OverflowError traceback
    *[({"alpha_kind": "constant", **raw, "bounds": [name]},
       f"bound {name!r} overflows: its total leaves the float range at T = {N}")
      for name, (raw, N) in sorted(EARLY_OVERFLOWS.items())],
    # g_1 (delta_1 - u) overflows; the JSON held "regret_discounted": Infinity
    ({"adversary": "fixed", "gradients": [1.0, -2.0, 0.0, 3.0], "alpha_kind": "constant",
      "alpha": 1e308}, "discounted regret overflows at t=1"),
    # alpha_2 m_2 overflows before the division by sqrt(q); clipped, the run exited 0 with
    # delta_bar_t = -inf in the CSV
    (UPDATE_OVERFLOW, "update delta_bar overflows at t=2"),
    # g_0^2 rounds to 0; the message said only "second-moment accumulator is zero"
    (Q_UNDERFLOW, "second-moment accumulator underflows to zero after g_0"),
    # a bound's total leaves the float range at row k before the driver fails at N > k: the
    # rows are priced in order, so the bound's error names k (alone, each run fails at N:
    # update and regret overflow at t=4, q overflow at t=6)
    *[({**BOUND_BEFORE_DRIVER[name], "bounds": ["corollary1"]},
       f"bound 'corollary1' overflows: its total leaves the float range at T = {k}")
      for name, k in (("update", 2), ("regret", 2), ("second-moment", 3))],
    # alpha_463 underflows to 0 and stops the driver; the theorem3 total, p^T (u^2/alpha)
    # sqrt(q) with u^2/alpha = 1e274, would leave the float range near T = 670 only
    ({"beta2": 0.64, "alpha": 1e-300, "u": 1e-13, "T": 1000, "bounds": ["theorem3"]},
     "exponential decay alpha_t underflows to zero at t=463"),
    # JSON integers past the float range died with an OverflowError traceback (alpha in
    # regret.drive, u in the comparator check)
    ({**FIXED_123, "alpha": 10**400}, "'alpha': an integer too large for a float"),
    ({**FIXED_123, "u": 10**400}, "'u': an integer too large for a float"),
    ({**FIXED_123, "gradients": [1.0, 10**400, 3.0]},
     "'gradients': an integer too large for a float"),
    # a string exited 2 listing its letters: unknown bounds requested: ['1', 'a', 'c', ...]
    ({**FIXED_123, "bounds": "corollary1"},
     "'bounds' must be a list of bound names, got 'corollary1'"),
    # a bool ran as alpha = 1 and exited 0
    ({**FIXED_123, "alpha": True}, "'alpha': true is not a number"),
], ids=["theorem1-alpha-underflow", "theorem1-ratio-overflow", "theorem3-pT-overflow",
        "no-bound-alpha-underflow", "theorem1-comparator-overflow",
        "corollary1-total-overflow", "theorem3-total-overflow", "second-moment-overflow",
        "B-early-row-overflow", "corollary1-early-row-overflow", "theorem1-variance-overflow",
        "regret-overflow", "update-overflow", "second-moment-underflow",
        "bound-before-update-overflow", "bound-before-regret-overflow",
        "bound-before-second-moment-overflow", "driver-before-bound-overflow",
        "alpha-huge-int", "u-huge-int", "gradient-huge-int", "bounds-string", "alpha-bool"])
def test_cli_range_errors_exit_two(patch, err, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**RANDOM_DECAY, **patch}))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"config error: {err}\n"
    assert not list(tmp_path.glob("x.*"))


# beta1/sqrt(beta2), the default decay ratio, was derived before HyperParams checked beta2
BETA2_DECAY = {"adversary": "random", "beta1": 0.5, "T": 1, "alpha_kind": "exponential_decay"}


@pytest.mark.parametrize("beta2", [
    0.0,    # died with a ZeroDivisionError traceback (exit 1, "contract violated")
    -0.5,   # exited 2 with "config error: math domain error"
    1.5,    # exited 2 with "exponential decay needs ratio >= 1 to be non-increasing, got ..."
], ids=["zero", "negative", "above-one"])
def test_cli_beta2_outside_the_unit_interval_exits_two_naming_it(beta2, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BETA2_DECAY, "beta2": beta2}))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"config error: beta2 must be in (0, 1), got {beta2}\n"
    assert not list(tmp_path.glob("x.*"))


def test_cli_sweep_skips_a_beta2_of_zero(tmp_path):
    # the whole sweep died with a ZeroDivisionError traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**BETA2_DECAY, "beta2": 0.25, "grid": {"beta2": [0.0, 0.25]}}))
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
    statuses = [row[1] for row in csv.reader((tmp_path / "x.csv").read_text().splitlines()[1:])]
    assert statuses == ["skipped: beta2 must be in (0, 1), got 0.0", "ok"]


@pytest.mark.parametrize("patch,argv,err", [
    # B's round-T total overflows; the JSON held "b_total": Infinity and the run exited 1
    ({"T": 511}, ["--horizon", "511"],
     "bound 'B' overflows: its total leaves the float range at T = 511"),
    # v0 kappa^T itself overflows; the losses died with an OverflowError traceback
    ({"T": 512}, ["--horizon", "512"],
     "tightness runs need v0 kappa^T finite, got kappa=4.0, T=512"),
    # a square (p^s v_s)^2 in eta_t overflows; both died with an OverflowError traceback
    ({"v0": 1e200}, [], "FTRL second-moment sum overflows at t=1"),
    ({"v0": 1, "kappa": 1e100, "T": 3}, [], "FTRL second-moment sum overflows at t=3"),
    # only the round-T square overflows, in B's radical; also an OverflowError traceback
    ({"v0": 1, "kappa": 1e100, "T": 2}, [],
     "bound 'B' overflows: its total leaves the float range at T = 2"),
    # the lower bound v0 D kappa (kappa^T - 1) / (2 (kappa - 1)) overflows; the CSV-only run
    # exited 1, and the JSON run exited 2 after writing its CSV
    ({"kappa": 7.6e69, "T": 2, "domain": 7.8e129}, ["--format", "csv"],
     "tightness lower bound overflows at T = 2"),
    ({"kappa": 7.6e69, "T": 2, "domain": 7.8e129}, [],
     "tightness lower bound overflows at T = 2"),
    # B's round-T total underflows to 0.0; regret / B died with a ZeroDivisionError traceback
    ({"v0": 1e-150, "domain": 1e-200}, [], "tightness bound B underflows to zero at T = 2"),
], ids=["B-total-overflow", "kappa-power-overflow", "eta-overflow-at-1", "eta-overflow-at-3",
        "B-radical-overflow", "lower-bound-overflow-csv", "lower-bound-overflow-json",
        "B-total-underflow"])
def test_cli_tightness_range_errors_exit_two(patch, argv, err, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(patch))
    assert cli.main(["tightness", "--config", str(cfg), *argv,
                     "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"config error: {err}\n"
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("command,raw", [
    # u lies outside the domain and B is past the horizon, yet the run exited 0
    ("simulate", {"adversary": "random", "beta1": 0.9, "beta2": 0.99, "T": 20, "u": 5,
                  "domain": 1, "bounds": ["B"], "oracle_horizon": 5,
                  "grid": {"beta2": [0.5, 0.99]}}),
    # exited 2 with numpy's "negative dimensions are not allowed"
    ("simulate", {"adversary": "random", "beta1": 0.9, "beta2": 0.99, "T": -3,
                  "grid": {"beta2": [0.5, 0.99]}}),
    ("tightness", {"grid": {"T": [2, 3]}}),
], ids=["simulate-incoherent", "simulate-negative-T", "tightness"])
def test_cli_single_runs_reject_a_grid(command, raw, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == "config error: a config with a 'grid' runs only as a sweep\n"
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("size", [1, 2])
def test_a_batch_rejects_a_grid_template(size):
    # a batch of templates ran as a batch of their shared point, its grid ignored
    template = ExperimentConfig.from_dict({"adversary": "random", "beta1": 0.9, "beta2": 0.99,
                                           "T": 20, "grid": {"beta1": [0.5, 0.6]}})
    with pytest.raises(ConfigError, match="^a config with a 'grid' runs only as a sweep$"):
        run_experiment([template] * size)


def test_a_batch_needs_points_that_differ_only_in_its_axes():
    with pytest.raises(ConfigError, match="^a batch needs one or more points$"):
        run_experiment([])
    points = [ExperimentConfig.from_dict({"adversary": "random", "beta1": 0.9, "beta2": 0.99,
                                          "T": 20, "seed": seed}) for seed in (1, 2)]
    with pytest.raises(ConfigError, match="^points of a batch may differ only in beta1, beta2$"):
        run_experiment(points)


def test_every_adversary_kind_the_config_accepts_has_one_row():
    parse = adamftrl.harness._KEYS["adversary"]
    assert [parse("adversary", kind) for kind in ADVERSARIES] == list(ADVERSARIES)
    with pytest.raises(ConfigError) as exc:
        parse("adversary", "box")
    assert str(exc.value) == "'adversary': \"box\" is not fixed|random|geometric|nonoblivious"
    for row in ADVERSARIES.values():
        assert set(row.axes) <= set(ExperimentConfig._fields)
        assert set(row.axes) <= set(adamftrl.harness._GRID_KEYS)


@pytest.mark.parametrize("raw", [
    SIMULATE_EXAMPLE, SIMULATE_GOLDENS["simulate_constant"], cli.TIGHTNESS_PRESET,
    cli.NONOBLIVIOUS_PRESET,
], ids=list(ADVERSARIES))
def test_a_run_of_each_kind_is_its_batch_of_one(raw):
    point = ExperimentConfig.from_dict(raw)
    batch = run_experiment([point])
    assert run_experiment(point).summary == batch.summary["points"][0]
    assert batch.csv_header == ADVERSARIES[raw["adversary"]].columns


def test_negd_comparator_runs_as_minus_the_domain():
    # "negD" is u = -D: the same run as u = -2.0 at domain 2.0, with "negD" echoed
    base = {"adversary": "random", "beta1": 0.9, "beta2": 0.99, "alpha": 0.5, "T": 50,
            "seed": 2, "domain": 2.0, "bounds": ["theorem1", "corollary1"]}
    named, numeric = (run_experiment(ExperimentConfig.from_dict({**base, "u": u}))
                      for u in ("negD", -2.0))
    assert named.summary["u"] == -2.0
    assert named.summary["config"]["u"] == "negD"
    assert {**named.summary, "config": None} == {**numeric.summary, "config": None}
    assert named.summary["config"] == {**numeric.summary["config"], "u": "negD"}
    assert render_csv(named) == render_csv(numeric)


def _outputs_or_error(run, config: ExperimentConfig):
    try:
        result = run(config)
        return render_csv(result), render_json(result)
    except (AdamFtrlError, ValueError) as exc:
        return type(exc), str(exc)


@st.composite
def referee_runs(draw):
    """A fixed or random ``simulate`` with any bound set that fits its regime, any schedule kind
    and domain, and magnitudes at which a bound or the driver may leave the float range."""
    T = draw(st.one_of(st.integers(0, 3), st.integers(0, 300)))
    domain = draw(st.sampled_from(["unbounded", 0.05, 1.0]))
    u = draw(st.sampled_from([0.0, 0.5, -1.0]))
    raw = {"adversary": draw(st.sampled_from(["fixed", "random"])), "T": T,
           "seed": draw(st.integers(0, 2**32 - 1)), "domain": domain,
           "u": u * domain if domain != "unbounded" else u * draw(st.sampled_from([1.0, 1e150])),
           "alpha": draw(st.sampled_from([0.5, 2.0, 1e-300, 1e-308, 1e300]))}
    kind = draw(st.sampled_from(["constant", "exponential_decay", "explicit", "p>=1"]))
    if kind == "p>=1":   # p = 1 exactly at (0.5, 0.25), where theorem1 fits too
        raw["beta1"], raw["beta2"] = draw(st.sampled_from([(0.5, 0.25), (0.9, 0.64), (0.6, 0.3)]))
        raw["alpha_kind"] = "exponential_decay"
        fitting = ["theorem3"] + (["theorem1"] if raw["beta1"] == 0.5 else [])
    else:
        raw["beta2"] = draw(st.floats(0.01, 0.999))
        raw["beta1"] = min(0.99, math.sqrt(raw["beta2"]) * draw(
            st.one_of(st.floats(0.05, 1.0), st.just(1e-6))))   # beta1^-T overflows B by T = 60
        raw["alpha_kind"] = kind
        fitting = ["theorem1"]
        if kind == "constant":
            fitting += ["corollary1"] + (["B"] if domain != "unbounded" and T <= 60 else [])
        elif kind == "exponential_decay":
            raw["alpha_ratio"] = draw(st.floats(1.0, 3.0))
        else:
            fall, step = draw(st.floats(0.5, 1.0)), draw(st.integers(1, 50))
            raw["alpha_values"] = [max(raw["alpha"] * fall ** ((t - 1) // step), 5e-324)
                                   for t in range(1, T + 2)]
    raw["bounds"] = draw(st.lists(st.sampled_from(fitting), unique=True))
    if raw["adversary"] == "fixed":
        extreme = st.sampled_from([1e150, -1.7e308, 1e-170, 0.0])
        raw["gradients"] = [draw(st.sampled_from([-1.5, 0.25, 3.0]))] + draw(st.lists(
            st.one_of(st.floats(-4.0, 4.0), extreme), min_size=T, max_size=T))
    return raw


@given(referee_runs())
@example({**BOUND_BEFORE_DRIVER["second-moment"], "beta1": 0.5, "beta2": 0.5,
          "bounds": ["theorem1", "corollary1", "B"]})
@settings(max_examples=80, deadline=None)
def test_simulate_matches_the_row_by_row_reference(raw):
    # the bound columns priced after the driver loop give the same CSV and JSON bytes, or the
    # same typed error and message, as pricing every bound at every row inside it
    config = ExperimentConfig.from_dict(raw)
    assert (_outputs_or_error(run_experiment, config)
            == _outputs_or_error(simulate_row_by_row, config))


@given(referee_runs())
# three chunks of CSV lines, with clipped both true (351 rows) and false, and two bound columns
@example({"adversary": "random", "T": 2 * _CHUNK + 7, "seed": 1, "beta1": 0.9, "beta2": 0.99,
          "alpha_kind": "constant", "alpha": 0.5, "domain": 0.05, "u": 0.025,
          "bounds": ["theorem1", "corollary1"]})
# one row, whose bound cells are all nan
@example({"adversary": "random", "T": 1, "seed": 1, "beta1": 0.9, "beta2": 0.99,
          "alpha_kind": "constant", "alpha": 0.5, "domain": 1.0, "u": 0.5,
          "bounds": ["theorem1", "corollary1"]})
# an explicit schedule that repeats its values and then drops, and a decaying one whose every
# value differs
@example({"adversary": "random", "T": 40, "seed": 2, "beta1": 0.9, "beta2": 0.99,
          "alpha_kind": "explicit", "alpha_values": [0.5] * 15 + [0.25] * 20 + [0.125] * 6,
          "domain": 1.0, "u": 0.5, "bounds": ["theorem1"]})
@example({"adversary": "random", "T": 40, "seed": 2, "beta1": 0.9, "beta2": 0.99,
          "alpha_kind": "exponential_decay", "alpha_ratio": 1.5, "alpha": 0.5, "domain": 1.0,
          "u": 0.5, "bounds": ["theorem1"]})
# updates clipped to +D and -D, next to unclipped ones, the first of which lands on -D exactly
@example({"adversary": "fixed", "gradients": [1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 0.5, 0.0,
                                               2.0],
          "beta1": 0.5, "beta2": 0.25, "alpha_kind": "constant", "alpha": 1.0, "domain": 1.0,
          "u": 0.5, "bounds": ["corollary1"]})
@settings(max_examples=60, deadline=None)
def test_simulate_rows_read_as_the_reference_tuple(raw):
    # csv_rows is a read-only view over the trace's columns; it reads, indexes, compares and
    # renders as the row-by-row reference's tuple of row tuples, cell types included: the
    # trace's kernel-printed lines equal a per-cell _format_cell join of the reference's rows
    config = ExperimentConfig.from_dict(raw)
    try:
        expected = simulate_row_by_row(config)
    except (AdamFtrlError, ValueError):
        return   # the same error, from both, is test_simulate_matches_the_row_by_row_reference's
    result = run_experiment(config)
    rows, n = result.csv_rows, len(expected.csv_rows)
    assert len(rows) == n
    assert tuple(rows) == expected.csv_rows
    assert rows == expected.csv_rows and expected.csv_rows == rows
    assert not rows != expected.csv_rows
    assert [rows[i] for i in range(-n, n)] == [expected.csv_rows[i] for i in range(-n, n)]
    assert [tuple(map(type, row)) for row in rows] == [
        tuple(map(type, row)) for row in expected.csv_rows]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            rows[i]
    assert render_csv(result) == render_csv(expected)


def test_simulate_rows_slice_as_their_tuple():
    config = ExperimentConfig.from_dict(
        {"adversary": "random", "T": 7, "seed": 3, "beta1": 0.9, "beta2": 0.99,
         "alpha": 0.5, "domain": 1.0, "u": 0.5, "bounds": ["theorem1", "corollary1"]})
    rows = run_experiment(config).csv_rows
    whole = tuple(rows)
    for s in (slice(1, 3), slice(None), slice(None, None, -1), slice(-2, None),
              slice(5, 1, -2), slice(4, 2), slice(7, None), slice(-100, 100, 3), slice(0, 0)):
        got = rows[s]
        assert type(got) is tuple and got == whole[s], s
    assert rows[1:3] == (rows[1], rows[2])


# a fixed stream whose second moment overflows at round N (g_N = 1.7e308); with a spike at
# round N - 1, corollary1's total u^2 sqrt(q) / alpha leaves the float range on row N - 1 first.
# N sits at the edges of the CSV's chunks of _CHUNK lines.
def _chunk_edge_run(N: int, spike: bool) -> dict:
    return {"adversary": "fixed", "gradients": [1.0] * (N - 1) + [1e10 if spike else 1.0, 1.7e308],
            "beta1": 0.5, "beta2": 0.5, "alpha": 1e-300, "u": 2.0, "domain": 2.0,
            "bounds": ["corollary1"]}


@pytest.mark.parametrize("N", [1, _CHUNK, _CHUNK + 1],
                         ids=["first-round-of-a-chunk", "last-round-of-a-chunk",
                              "first-round-after-a-chunk"])
@pytest.mark.parametrize("spike", [False, True], ids=["driver-first", "bound-first"])
def test_driver_errors_at_drive_chunk_edges(N, spike, tmp_path, capsys, monkeypatch):
    # regret.drive_trace flags the overflow and replays regret.drive to find its round; every
    # round drive finished before its error is kept and priced, so a bound that fails on an
    # earlier row still wins (at N = 1 no row is)
    raw = _chunk_edge_run(N, spike)
    err = (f"bound 'corollary1' overflows: its total leaves the float range at T = {N - 1}"
           if spike and N > 2 else f"second-moment accumulator overflows at t={N}")
    priced = []

    def record(evaluators, stats, T, stop=None):
        priced.append(T.tolist())
        return adamftrl.bounds.price_columns(evaluators, stats, T, stop)

    monkeypatch.setattr(adamftrl.harness, "price_columns", record)
    config = ExperimentConfig.from_dict(raw)
    assert _outputs_or_error(run_experiment, config) == _outputs_or_error(simulate_row_by_row,
                                                                          config)
    assert priced == [list(range(2, N))]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"config error: {err}\n"
    assert not list(tmp_path.glob("x.*"))


_EDGE_CELLS = st.one_of(
    st.integers(-2**70, 2**70), st.booleans(), st.floats(),
    st.sampled_from([-0.0, math.nan, -math.inf, 5e-324, 1.7976931348623157e308]),
    st.floats().map(np.float64), st.text(',"\r\n %dab', max_size=5))


@given(st.lists(st.one_of(st.lists(_EDGE_CELLS, max_size=6).map(tuple),
                          st.sampled_from([(1, True, 0.5), (0, False, -0.0), ("ok", True)])),
                max_size=8))
@example([(1, True, False, 0), (True, 1, 1.0), (np.float64(-0.0), "a,\"b\""), ("a\rb", "")])
@settings(max_examples=50)
def test_render_csv_formats_each_cell_as_format_cell(rows):
    # each row prints as a per-cell _format_cell join; bools never become 1/0, only strings
    # that need it are quoted, and csv.reader reads each row back with every string verbatim
    result = ExperimentResult(csv_header=("a", "b"), csv_rows=tuple(rows), summary={})
    expected = "".join(",".join(map(_format_cell, row)) + "\n" for row in rows)
    text = render_csv(result)
    assert text == "a,b\n" + expected
    header, *parsed = csv.reader(io.StringIO(text, newline=""))
    assert header == ["a", "b"]
    # csv.reader reads an empty line as no cells, so a row of one empty string reads as none
    assert parsed == [[c if isinstance(c, str) else _format_cell(c) for c in row]
                      if row != ("",) else [] for row in rows]


def test_render_csv_joins_long_traces_in_chunks():
    # tuple rows past two chunks of lines, with both bool values and a quoted text cell, print
    # as one per-cell _format_cell join each
    rows = tuple((t, t % 3 == 0, t / 7) if t % 5 else (t, "a,b") for t in range(2 * _CHUNK + 3))
    result = ExperimentResult(csv_header=("a", "b"), csv_rows=rows, summary={})
    assert render_csv(result) == "a,b\n" + "".join(",".join(map(_format_cell, row)) + "\n"
                                                   for row in rows)


def test_write_outputs_writes_a_long_csv_as_rendered(tmp_path):
    # a CSV over 1 MiB characters, written a chunk of lines at a time, with non-ASCII text
    rows = tuple((t, "\u00e9" * 997, t % 2 == 0) for t in range(1100))
    result = ExperimentResult(csv_header=("t", "text", "flag"), csv_rows=rows, summary={})
    [path] = write_outputs(result, tmp_path / "long", "csv")
    text = render_csv(result)
    assert len(text) > 1 << 20 and path.read_bytes() == text.encode("utf-8")


def _kernel_cells(values) -> list[str]:
    # the CSV kernel's text of each value, from one call on a one-column block of them all
    return "".join(_csv_blocks([[np.asarray(values, np.float64)]])).split("\n")[:-1]


def _referee_cell(value) -> str:
    if isinstance(value, float):
        return referees.format_float(value)
    return ("false", "true")[value] if isinstance(value, bool) else str(value)


def _neighbours(*values) -> list[float]:
    return [float(np.nextafter(v, side)) for v in values for side in (-math.inf, math.inf)]


_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])


@given(st.lists(st.one_of(st.floats(), _BIT_PATTERNS), min_size=1, max_size=30))
# exact ties at the 17th digit round half to even: down, up, down, up
@example([1000000000000.03125, 1000000000000.09375, 123456789012345.625, 123456789012345.375])
# at and next to 10**17, where 17 digits print in scientific notation
@example([99999999999999999.0, 99999999999999984.0, 1e17 - 8, 9.9999999999999999e16])
# either side of the ends of fixed notation, and of 2**53's last odd integer
@example(_neighbours(1e-5, 1e-4, 1e15, 1e16, 1e17) + [1e-4, 1e15, 1e16])
@example([2.0**53 - 2, 2.0**53 + 2, -0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324,
          1.7976931348623157e308, -2.2250738585072014e-308])
# zeros of the integer part stay: this printed as 90504571011661 once
@example([905045710116610.0, 100.0, 1e15, 10.5, 0.1, -0.001, 1.0])
@settings(max_examples=150)
def test_csv_kernel_prints_each_float_as_the_referee(values):
    assert _kernel_cells(values) == list(map(referees.format_float, values))


def test_csv_kernel_prints_random_bit_patterns_as_the_referee():
    # one call on 10**5 bit patterns: about 3% print in fixed notation, nearly all the others in
    # scientific notation
    x = np.random.default_rng(27).integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
    assert _kernel_cells(x) == list(map(referees.format_float, x.tolist()))


# cells that take Python's format, next to ones that do not: no float-to-int cast may warn
_EDGE_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072014e-308,
                1.7976931348623157e308, -1.7e308, 9.9999999999999991e-05, 1e16, 1e17,
                905045710116610.0]


@pytest.mark.parametrize("n", [1, 2, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3])
def test_trace_rows_print_edge_cells_as_the_referee(n):
    # each block of _CHUNK rows is one kernel call, and row 1's bound cells are NaN
    rng = np.random.default_rng(n)

    def column(size):
        values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 20, size)
        edge = rng.random(size) < 0.3
        values[edge] = rng.choice(_EDGE_FLOATS, np.count_nonzero(edge))
        return values

    floats = [column(n) for _ in range(10)]
    rows = TraceRows((range(1, n + 1), *map(memoryview, floats[:6]),
                      memoryview(rng.random(n) < 0.5), *map(memoryview, floats[6:])),
                     [memoryview(column(n - 1)) for _ in range(2)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        text = render_csv(ExperimentResult(csv_header=("h",), csv_rows=rows, summary={}))
    assert text == "h\n" + "".join(",".join(map(_referee_cell, row)) + "\n" for row in rows)


def _count_python_formats(monkeypatch) -> list:
    calls = []

    def counting(value):
        calls.append(value)
        return _format_cell(value)

    monkeypatch.setattr(adamftrl.harness, "_format_cell", counting)
    return calls


def test_trace_csv_prints_few_float_cells_with_python_format(monkeypatch):
    # the kernel proves the digits of all but a few cells: zeros, numbers in scientific notation
    # and the first row's NaN bound take Python's %
    T = 20000
    result = run_experiment(ExperimentConfig.from_dict(
        {"adversary": "random", "T": T, "seed": 1, "beta1": 0.9, "beta2": 0.99, "alpha": 0.5,
         "domain": 1.0, "u": 0.5, "bounds": ["corollary1"]}))
    calls = _count_python_formats(monkeypatch)
    render_csv(result)
    assert 0 < len(calls) <= 0.01 * T * 11


def test_trace_csv_in_scientific_notation_matches_the_referee(monkeypatch):
    # a tiny alpha puts the updates, losses and bounds in scientific notation: Python's % prints
    # most float cells, byte for byte as the referee
    T = 600
    result = run_experiment(ExperimentConfig.from_dict(
        {"adversary": "random", "T": T, "seed": 2, "beta1": 0.9, "beta2": 0.99,
         "alpha": 1e-30, "domain": 1.0, "u": 1e-20, "bounds": ["corollary1"]}))
    calls = _count_python_formats(monkeypatch)
    text = render_csv(result)
    assert len(calls) > T * 11 / 2
    assert text == ",".join(result.csv_header) + "\n" + "".join(
        ",".join(map(_referee_cell, row)) + "\n" for row in result.csv_rows)


def test_simulate_writes_a_20000_row_csv_within_1_mib(tmp_path):
    # the kernel prints _CHUNK rows at a time in one byte matrix, made once per CSV
    result = run_experiment(ExperimentConfig.from_dict(
        {"adversary": "random", "T": 20000, "seed": 1, "beta1": 0.9, "beta2": 0.99,
         "alpha": 0.5, "domain": 1.0, "u": 0.5, "bounds": ["corollary1"]}))
    write_outputs(result, tmp_path / "first", "csv")   # the first CSV also builds the tables
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_outputs(result, tmp_path / "trace", "csv")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _reject_constant(name):
    raise ValueError(f"output holds {name}, which strict JSON forbids")


def _log_uniform(low_exp: int, high_exp: int):
    return st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99),
                     st.integers(low_exp, high_exp))


@st.composite
def edge_of_range_runs(draw):
    """A ``simulate`` or ``sweep`` on ``fixed`` gradients from 1e-300 to 1e300, with bounds that
    fit the regime of its (first) point.  ``T + 1`` is log-uniform up to 1e4; past round 100
    the gradients are drawn again, at random, from rounds 1..100."""
    T = int(10.0 ** draw(st.floats(0.0, 4.0))) - 1
    top = draw(st.integers(-300, 299))   # one run's gradients span at most 40 decades
    magnitude = st.builds(lambda sign, x: sign * x, st.sampled_from([-1.0, 1.0]),
                          _log_uniform(max(-300, top - draw(st.integers(0, 40))), top))
    head = draw(st.lists(st.one_of(st.just(0.0), magnitude), min_size=min(T, 100),
                         max_size=min(T, 100)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    gradients = [draw(magnitude)] + head + [rng.choice(head) for _ in range(T - len(head))]
    beta1, beta2 = draw(st.floats(0.01, 0.99)), draw(st.floats(0.01, 0.99))
    domain = draw(st.sampled_from(["unbounded", 0.05, 1.0, 3.0]))
    raw = {"adversary": "fixed", "gradients": gradients, "T": T, "beta1": beta1,
           "beta2": beta2, "alpha": draw(_log_uniform(-308, 307)), "domain": domain,
           "u": draw(st.floats(-1.0, 1.0)) * (3.0 if domain == "unbounded" else domain)}
    if beta1 / math.sqrt(beta2) > 1.0:
        raw["alpha_kind"] = draw(st.sampled_from(["constant", "exponential_decay"]))
        fitting = ["theorem3"] if raw["alpha_kind"] == "exponential_decay" else []
    elif draw(st.booleans()):
        raw.update(alpha_kind="exponential_decay", alpha_ratio=draw(st.floats(1.0, 2.0)))
        fitting = ["theorem1"]
    else:
        fitting = ["theorem1", "corollary1"] + (["B"] if domain != "unbounded" and T <= 60
                                                else [])
    raw["bounds"] = (draw(st.lists(st.sampled_from(fitting), min_size=1, unique=True))
                     if fitting else [])
    if draw(st.booleans()):
        raw["grid"] = {"beta1": [beta1, draw(st.floats(0.01, 0.99))],
                       "beta2": [beta2, draw(st.floats(0.01, 0.99))]}
    return raw


@given(edge_of_range_runs())
@example({"adversary": "fixed", "gradients": [1.0, -2.0, 0.0, 3.0], "T": 3, "beta1": 0.9,
          "beta2": 0.99, "alpha": 1e308, "domain": "unbounded", "u": 0.0, "bounds": []})
@example({"adversary": "fixed", "gradients": [1.0, 5.0, 0.0, 3.0], "T": 3, "beta1": 0.9,
          "beta2": 0.99, "alpha": 1e308, "domain": 1.0, "u": 0.5, "bounds": []})
@settings(max_examples=100, deadline=None)
def test_cli_output_is_strict_at_the_edge_of_the_float_range(raw):
    # every input ends as a finite result (exit 0, or 1 for a finite failed dominance check)
    # or a typed error (exit 2); no NaN or Infinity ever reaches the JSON, and the CSV holds
    # NaN only in the bound cells of rows t < 2
    command = "sweep" if "grid" in raw else "simulate"
    with tempfile.TemporaryDirectory() as tmp:
        cfg, base = Path(tmp) / "cfg.json", Path(tmp) / "o"
        cfg.write_text(json.dumps(raw))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg), "--out", str(base)])
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().startswith("config error: ")
            assert not list(Path(tmp).glob("o.*"))
            return
        summary = json.loads(base.with_suffix(".json").read_text(),
                             parse_constant=_reject_constant)
        header, *rows = csv.reader(base.with_suffix(".csv").read_text().splitlines())
    if command == "simulate":
        # a float cell prints as %.17g, so a non-finite one reads inf, -inf or nan
        assert all(cell not in ("inf", "-inf", "nan")
                   or (cell == "nan" and c.startswith("bound_") and int(row[0]) < 2)
                   for row in rows for c, cell in zip(header, row))
        failed = [e for e in summary["bounds"].values() if e and e.get("dominates") is False]
    else:   # the sweep summary holds no per-point values: read them from its rows
        columns = [header.index(c) for c in ["regret_discounted"]
                   + [f"bound_{n}" for n in raw["bounds"] if raw["T"] >= 2]]
        ok = [row for row in rows if row[2] == "ok"]
        assert all(math.isfinite(float(row[i])) for row in ok for i in columns)
        failed = [row for row in ok if row[-1] == "false"]
    assert summary["contracts_ok"] == (code == 0) == (not failed)


# ---------------------------------------------------------------------------
# Config format: every JSON value becomes a field or exits 2
# ---------------------------------------------------------------------------

CONFIG_BASE = {"adversary": "random", "beta1": 0.9, "beta2": 0.99, "T": 20,
               "bounds": ["corollary1"]}


@pytest.mark.parametrize("patch,err", [
    # tracebacks before the config table
    ({"T": 1.5}, "'T': 1.5 is not an integer"),
    ({"T": None}, "'T': null is not an integer"),
    ({"T": "20"}, "'T': \"20\" is not an integer"),
    ({"beta1": "0.9"}, "'beta1': \"0.9\" is not a number"),
    ({"beta1": [0.9]}, "'beta1': [0.9] is not a number"),
    ({"seed": 1.5}, "'seed': 1.5 is not an integer"),
    ({"seed": "7"}, "'seed': \"7\" is not an integer"),
    ({"alpha": None}, "'alpha': null is not a number"),
    ({"domain": "1"}, "'domain': \"1\" is not a number or \"unbounded\""),
    ({"out": 5}, "'out': 5 is not a path"),
    ({"grid": {"beta1": 0.9}},
     "'grid': {\"beta1\": 0.9} is not a map of beta1|beta2|kappa|a|b|p|T to non-empty value lists"),
    # grid's default is an empty map, not null: a null grid is no grid value
    ({"grid": None},
     "'grid': null is not a map of beta1|beta2|kappa|a|b|p|T to non-empty value lists"),
    # exit 0: a string echoed as the comparator, a fractional horizon, a word as a ratio
    ({"u": "0.5"}, "'u': \"0.5\" is not a number or \"negD\""),
    ({"oracle_horizon": 1.5}, "'oracle_horizon': 1.5 is not an integer"),
    ({"alpha_ratio": "x"}, "'alpha_ratio': \"x\" is not a number"),
    # exit 2 after the CSV was written
    ({"domain": math.inf}, "'domain': Infinity is not a finite number"),
    ({"p": math.nan}, "'p': NaN is not a finite number"),
    ({"alpha_ratio": math.nan}, "'alpha_ratio': NaN is not a finite number"),
    ({"v0": math.nan}, "'v0': NaN is not a finite number"),
    # exit 0: ratio() took p = 0.5 and hyper_params() the betas' p = 0.9045...
    ({"p": 0.5}, "'p' = 0.5 disagrees with beta1/sqrt(beta2) = 0.9045340337332909"),
], ids=["T-float", "T-null", "T-string", "beta1-string", "beta1-list", "seed-float",
        "seed-string", "alpha-null", "domain-string", "out-int", "grid-not-lists", "grid-null",
        "u-string",
        "horizon-float", "alpha-ratio-word", "domain-inf", "p-nan", "alpha-ratio-nan", "v0-nan",
        "p-disagrees-with-betas"])
def test_cli_config_values_outside_the_table_exit_two(patch, err, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG_BASE, "out": str(tmp_path / "x"), **patch}))
    assert cli.main(["simulate", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {err}\n"
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("patch,skip", [
    ({"grid": {"beta1": ["0.9"]}}, "'beta1': \"0.9\" is not a number"),
    ({"grid": {"T": [1.5]}}, "'T': 1.5 is not an integer"),
    ({"grid": {"beta1": [[0.9]]}}, "'beta1': [0.9] is not a number"),
    # p matches the base betas, so only the point at beta2 = 0.25 disagrees
    ({"p": 0.9 / math.sqrt(0.99), "grid": {"beta2": [0.99, 0.25]}},
     "'p' = 0.9045340337332909 disagrees with beta1/sqrt(beta2) = 1.8"),
], ids=["beta1-string", "T-float", "beta1-list", "p-disagrees-with-betas"])
def test_sweep_skips_grid_values_outside_the_table(patch, skip, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG_BASE, "bounds": [], **patch}))
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
    statuses = [row[1] for row in csv.reader((tmp_path / "x.csv").read_text().splitlines()[1:])]
    assert statuses[-1] == f"skipped: {skip}"
    assert statuses[:-1] == ["ok"] * (len(statuses) - 1)


@pytest.mark.parametrize("value,cell", [("a\rb", "a\rb"), ("\ud800", "\\ud800")],
                         ids=["carriage-return", "lone-surrogate"])
def test_sweep_writes_a_grid_string_any_text_can_hold(value, cell, tmp_path):
    # a CR is quoted, and a lone surrogate, which UTF-8 cannot encode, is backslash-escaped: the
    # point is a skipped row, and the file holds the rendered CSV and reads back one row a point
    raw = {**CONFIG_BASE, "grid": {"beta1": [value, 0.5]}}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
    data = (tmp_path / "x.csv").read_bytes()
    assert data == render_csv(sweep(ExperimentConfig.from_dict(raw))).encode("utf-8")
    _, *rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    assert [row[:2] for row in rows] == [
        [cell, f"skipped: 'beta1': {json.dumps(value)} is not a number"], ["0.5", "ok"]]


@pytest.mark.parametrize("command,patch,argv", [
    ("simulate", {"seed": -1}, []),
    ("simulate", {"seed": 3}, ["--seed", "-1"]),
    ("sweep", {"seed": -1, "grid": {"beta1": [0.5, 0.9]}}, []),
], ids=["config", "flag", "sweep-template"])
def test_cli_rejects_a_negative_seed(command, patch, argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG_BASE, "out": str(tmp_path / "x"), **patch}))
    assert cli.main([command, "--config", str(cfg), *argv]) == 2
    assert capsys.readouterr() == ("", "config error: 'seed': -1 is not a non-negative integer\n")
    assert not list(tmp_path.glob("x.*"))


@pytest.mark.parametrize("text", ["3", "null", '"x"', '[["adversary", "random"]]'])
def test_cli_rejects_a_config_that_is_not_an_object(text, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == (f"config error: config {cfg} must be a JSON object, "
                                       f"got {json.loads(text)!r}\n")
    assert not list(tmp_path.glob("x.*"))


def test_write_outputs_renders_the_json_before_it_writes_a_file(tmp_path):
    result = ExperimentResult(csv_header=("t",), csv_rows=((1,),),
                              summary={"regret": math.nan, "contracts_ok": True})
    with pytest.raises(ValueError):
        write_outputs(result, tmp_path / "x", "both")
    assert not list(tmp_path.iterdir())


# any JSON value: NaN and the infinities, ints past the float range, the config's own words
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers(-2**70, 2**70) | st.text(max_size=3)
    | st.sampled_from([10**400, -10**400, "negD", "unbounded", "explicit", "random", "csv",
                       "corollary1", "B"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(adamftrl.harness._GRID_KEYS) | st.text(max_size=2), inner,
                      max_size=3),
    max_leaves=6)
# T is drawn only on a short fixed stream: any T past its gradients exits 2 before a run, where
# a random stream of a drawn T (10**9, say) would be allocated
FIXED_BASE = {"adversary": "fixed", "gradients": [1.0, -0.5, 0.25, 2.0], "beta1": 0.5,
              "beta2": 0.5, "T": 3, "domain": 1.0, "u": -0.5, "bounds": ["theorem1", "B"]}
RANDOM_BASE = {**CONFIG_BASE, "alpha": 0.5, "domain": 1.0, "u": 0.5}


@given(command=st.sampled_from(["simulate", "sweep"]),
       key=st.sampled_from(sorted(adamftrl.harness._KEYS)), value=JSON_VALUES,
       on_random=st.booleans())
@example(command="sweep", key="grid", value={"T": [10**400, 2, -1]}, on_random=False)
@example(command="simulate", key="out", value="", on_random=True)
@settings(max_examples=150, deadline=None)
def test_cli_takes_any_json_value_to_a_run_or_exit_two(command, key, value, on_random):
    # one key of a valid config set to any JSON value: exit 0, 1 only with a false contract,
    # or 2 with no output file; no exception escapes and the JSON output is strict
    raw = dict(RANDOM_BASE if on_random and key not in ("T", "grid") else FIXED_BASE)
    if command == "sweep":
        raw["grid"] = {"beta1": [0.5, 0.7], "beta2": [0.5, 0.99]}
    raw[key] = value
    with tempfile.TemporaryDirectory() as cfg_dir, tempfile.TemporaryDirectory() as out_dir:
        cfg = Path(cfg_dir) / "cfg.json"
        cfg.write_text(json.dumps(raw))   # NaN and Infinity written into the JSON text
        out_flag = [] if key == "out" else ["--out", str(Path(out_dir) / "o")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.chdir(out_dir), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(cfg), *out_flag])
        written = sorted(Path(out_dir).iterdir())
        if code == 2:
            assert err.getvalue().startswith("config error: ") and not written
            return
        assert code in (0, 1)
        json_files = [path for path in written if path.suffix == ".json"]
        text = json_files[0].read_text() if json_files else out.getvalue()
    if written and not json_files:   # format "csv"
        assert code == 0
        return
    summary = json.loads(text, parse_constant=_reject_constant)
    assert summary["contracts_ok"] == (code == 0)


def test_config_table_names_every_field_and_readme_key():
    table = set(adamftrl.harness._KEYS)
    assert table == set(ExperimentConfig._fields)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Config keys")[1].split("\n\n")[1]
    first_cells = [line.split("|")[1] for line in section.splitlines()[2:]]
    assert {key for cell in first_cells for key in re.findall(r"`(\w+)`", cell)} == table


def test_cli_verify_lemmas(tmp_path):
    code = cli.main(["verify-lemmas", "--out", str(tmp_path / "lemmas")])
    assert code == 0
    report = json.loads((tmp_path / "lemmas.json").read_text())
    assert report["lemma_a1"]["holds"] and report["lemma_a2"]["holds"]
    assert report["lemma_a1"]["points_checked"] >= 10_000
    assert report["lemma_a2"]["points_checked"] >= 10_000


def test_cli_verify_lemmas_reports_a_failed_lemma_and_exits_one(monkeypatch, capsys):
    def fails(grid):
        raise ContractViolation("lemma A.1 fails at x = 0.5")

    monkeypatch.setattr(cli, "verify_lemma_a1", fails)
    assert cli.main(["verify-lemmas"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["lemma_a1"] == {"holds": False, "detail": "lemma A.1 fails at x = 0.5"}
    assert report["lemma_a2"]["holds"]


@pytest.mark.parametrize("flags", [
    ["--config", "/nonexistent.json", "--format", "csv", "--seed", "3", "--horizon", "0"],
    ["--config", "/nonexistent.json"], ["--format", "csv"], ["--seed", "3"], ["--horizon", "0"],
], ids=["all", "config", "format", "seed", "horizon"])
def test_cli_verify_lemmas_rejects_flags_it_would_ignore(flags, tmp_path, capsys):
    # its grids and its JSON report are fixed: these flags used to be accepted and ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify-lemmas", *flags, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(flags) in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_version_choice_error_and_a_run(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"adamftrl {adamftrl.__version__}\n"
    with pytest.raises(SystemExit) as exc:
        cli.main(["tightness", "--format", "xml"])
    assert exc.value.code == 2
    assert "invalid choice: 'xml'" in capsys.readouterr().err
    assert cli.main(["tightness", "--out", str(tmp_path / "t")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.json"]


def _parse_outcome(parse, argv):
    """``("ok", namespace dict)``, or the exit code with the error line (usage errors) or the
    usage up to its first option (help and version)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            if exc.code == 0:
                return 0, out.getvalue().split("[")[0]
            assert err.getvalue().startswith("usage: adamftrl")
            return exc.code, err.getvalue().splitlines()[-1]
    return "ok", vars(args)


CLI_OPTIONS = ["--out", "--config", "--seed", "--format", "--horizon", "--help", "-h", "--version",
               "--o", "--conf", "--s", "--f", "--fo", "--h", "--ho", "--he", "--v", "--ver"]
CLI_VALUES = ["x", "out/base", "", "a b", "0", "3", "-1", "-2.5", "-.5", " 7", "1_0", "csv", "json",
              "both", "xml", "-h"]
CLI_JUNK = ["--", "-", "---", "--bogus", "-x", "-hh", "-hx", "--=x", "-h=h", "-1e3", "٣"]
# a token carries its value after '=' (never '--': see test_cli_keeps_a_double_dash_value)
CLI_TOKENS = st.one_of(
    st.sampled_from(CLI_OPTIONS + CLI_VALUES + CLI_JUNK + list(cli.COMMANDS)),
    st.builds("{}={}".format, st.sampled_from(CLI_OPTIONS), st.sampled_from(CLI_VALUES)),
    st.text(alphabet="-=hofsv1 .x", max_size=5))


@given(before=st.lists(CLI_TOKENS, max_size=2), command=st.sampled_from([*cli.COMMANDS, None]),
       after=st.lists(CLI_TOKENS, max_size=7))
@example(before=[], command=None, after=[])
@example(before=["x"], command=None, after=["--out", "o"])
@example(before=["--bogus"], command="tightness", after=["-1"])
@example(before=["--version"], command="simulate", after=["--bogus"])
@example(before=[], command="simulate", after=["--conf", "c.json", "--seed", "-1", "--seed=4"])
@example(before=[], command="simulate", after=["--seed", "1", "--", "--out", "x"])
@example(before=["--"], command="simulate", after=[])
@example(before=[], command="verify-lemmas", after=["--o=x", "--seed", "3"])
@example(before=[], command="sweep", after=["--h", "3"])
@settings(max_examples=400, deadline=None)
def test_cli_reads_argv_as_argparse_did(before, command, after):
    # the table parser against the argparse parser it replaced (tests/referees.py): the same
    # namespace, or help or --version (exit 0), or a usage error (exit 2) with the same error line
    argv = before + ([command] if command else []) + after
    assert (_parse_outcome(cli.parse_args, argv)
            == _parse_outcome(referees.build_parser().parse_args, argv)), argv


def test_cli_keeps_a_double_dash_value():
    # argparse drops a '--' from an option's values, so "--out=--" read as out=[] and the run
    # wrote "[].csv"; the value is kept
    assert vars(referees.build_parser().parse_args(["simulate", "--out=--"]))["out"] == []
    assert cli.parse_args(["simulate", "--out=--", "--seed", "-2"]) == types.SimpleNamespace(
        command="simulate", out=Path("--"), config=None, seed=-2, format=None, horizon=None)


@pytest.mark.parametrize("command", [None, *cli.COMMANDS])
def test_cli_help_lists_exactly_the_options_a_command_takes(command, capsys):
    argv = ["-h"] if command is None else [command, "--help"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    text = capsys.readouterr().out
    referee = referees.build_parser()
    if command is not None:
        referee = referee._subparsers._group_actions[0].choices[command]
        assert text.startswith(f"usage: adamftrl {command} [-h]")
        assert cli.COMMANDS[command][0] in text
    else:
        assert all(name in text for name in cli.COMMANDS)
    usage, options = text.splitlines()[0], text.split("\noptions:\n")[1]
    listed = {word.rstrip(",") for line in options.splitlines() for word in line.split()[:2]
              if word.startswith("-")}
    assert listed == {"--help", *re.findall(r"(?<![\w-])--?[a-z]+", usage)}   # usage: [-h]
    assert listed == set(referee._option_string_actions)
    if command == "verify-lemmas":
        assert listed == {"-h", "--help", "--out"}


COLD_CLI = """
import sys
from adamftrl import cli
assert cli.main(["tightness", "--out", sys.argv[1]]) == 0
print(sorted({"argparse", "gettext", "locale"} & set(sys.modules)))
"""


def test_cli_never_imports_argparse(tmp_path):
    # argparse, the gettext it imports and the locale its first message loads cost every run
    # about 7 ms; a fresh process reads its command line and runs without them
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", COLD_CLI, str(tmp_path / "t")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


COLD_IMPORT = """
from adamftrl import cli, harness
print(harness._cell_tables.cache_info().currsize)
"""


def test_importing_the_cli_builds_no_csv_tables():
    # the CSV kernel's tables are built by the first trace CSV, not by every run's import
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", COLD_IMPORT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]


@pytest.mark.parametrize("command,raw,argv,shown", [
    # exited 2 with "PosixPath('.') has an empty name"
    ("simulate", CONFIG_BASE, ["--out", ""], "."),
    ("simulate", CONFIG_BASE, ["--out", "."], "."),
    ("tightness", None, ["--out="], "."),
    ("verify-lemmas", None, ["--out", "."], "."),
    # exited 0 and printed the JSON summary, even with format csv
    ("simulate", {**CONFIG_BASE, "out": ""}, [], ""),
    ("simulate", {**CONFIG_BASE, "out": "", "format": "csv"}, [], ""),
    ("sweep", {**CONFIG_BASE, "out": "./", "grid": {"beta1": [0.5, 0.9]}}, [], "./"),
    # exited 0 and wrote '...csv' and '...json' into the working directory
    ("tightness", None, ["--out", ".."], ".."),
    ("simulate", CONFIG_BASE, ["--out", "../"], ".."),
    ("verify-lemmas", None, ["--out", "dir/.."], "dir/.."),
    ("simulate", {**CONFIG_BASE, "out": ".."}, [], ".."),
    ("simulate", {**CONFIG_BASE, "out": "../"}, [], "../"),
    ("sweep", {**CONFIG_BASE, "out": "dir/..", "grid": {"beta1": [0.5, 0.9]}}, [], "dir/.."),
], ids=["flag-empty", "flag-dot", "flag-equals-empty", "verify-lemmas", "config-empty",
        "config-empty-csv", "sweep-config-dot", "flag-dotdot", "flag-dotdot-slash",
        "verify-lemmas-dir-dotdot", "config-dotdot", "config-dotdot-slash",
        "sweep-config-dir-dotdot"])
def test_cli_rejects_an_output_base_that_names_no_file(command, raw, argv, shown, tmp_path,
                                                       monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if raw is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(raw))
        argv = ["--config", "cfg.json", *argv]
    assert cli.main([command, *argv]) == 2
    assert capsys.readouterr() == (
        "", f"config error: 'out': {shown!r} names no file; give a base path such as 'runs/a'\n")
    assert [p.name for p in tmp_path.iterdir()] == (["cfg.json"] if raw is not None else [])


@pytest.mark.parametrize("command", ["tightness", "nonoblivious", "verify-lemmas"])
def test_cli_missing_output_directory_exits_two(command, tmp_path, capsys):
    assert cli.main([command, "--out", str(tmp_path / "missing" / "x")]) == 2
    assert capsys.readouterr().err.startswith("config error: output directory does not exist")


def test_cli_sweep(tmp_path):
    cfg = tmp_path / "sweep.json"
    raw = dict(SIMULATE_EXAMPLE)
    raw.update({"beta1": 0.7, "domain": 1.0, "grid": {"beta2": [0.49, 0.8]}})
    cfg.write_text(json.dumps(raw))
    code = cli.main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")])
    assert code == 0
    summary = json.loads((tmp_path / "sw.json").read_text())
    assert summary["beta2_argmin"][0]["argmin_beta2"] == 0.49


# ---------------------------------------------------------------------------
# Golden fixtures
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("preset,stem", [
    (cli.TIGHTNESS_PRESET, "tightness"),
    (cli.NONOBLIVIOUS_PRESET, "nonoblivious"),
    # 40 rounds each: every row's running sums, bound_B and both instances' updates
    ({"adversary": "geometric", "p": 0.45, "kappa": 6.0, "v0": 1.3, "domain": 2.0, "T": 40},
     "tightness_long"),
    ({"adversary": "nonoblivious", "a": 0.1, "b": 0.6, "v": 1.5, "p": 0.5, "beta1": 0.2,
      "T": 40}, "nonoblivious_long"),
])
@pytest.mark.filterwarnings("error")
def test_golden_fixtures(preset, stem, tmp_path):
    res = run_experiment(ExperimentConfig.from_dict(preset))
    assert res.summary["contracts_ok"]
    assert render_csv(res) == (FIXTURES / f"{stem}.csv").read_text()
    assert render_json(res) == (FIXTURES / f"{stem}.json").read_text()


@pytest.mark.parametrize("stem", sorted(SIMULATE_GOLDENS))
def test_simulate_golden_fixtures(stem):
    res = run_experiment(ExperimentConfig.from_dict(SIMULATE_GOLDENS[stem]))
    assert res.summary["contracts_ok"]
    assert render_csv(res) == (FIXTURES / f"{stem}.csv").read_text()
    assert render_json(res) == (FIXTURES / f"{stem}.json").read_text()


@pytest.mark.parametrize("stem", sorted(SWEEP_GOLDENS))
@pytest.mark.filterwarnings("ignore:a = .* strict per-round dominance is not guaranteed")
def test_sweep_golden_fixtures(stem):
    res = sweep(ExperimentConfig.from_dict(SWEEP_GOLDENS[stem]))
    assert render_csv(res) == (FIXTURES / f"{stem}.csv").read_text()
    assert render_json(res) == (FIXTURES / f"{stem}.json").read_text()


@pytest.mark.parametrize("schedule", [{}, {"alpha_kind": "exponential_decay",
                                           "alpha_ratio": 1.0001}], ids=["constant", "decay"])
def test_theorem1_run_makes_linearly_many_alpha_calls(monkeypatch, schedule):
    calls = [0]
    original = adamftrl.learner.alpha_at

    def counting(schedule, t):
        calls[0] += 1
        return original(schedule, t)

    for module in (adamftrl.learner, adamftrl.bounds, adamftrl.regret):
        monkeypatch.setattr(module, "alpha_at", counting)
    base = {"adversary": "random", "beta1": 0.9, "beta2": 0.99, "alpha": 0.5, "seed": 1,
            "bounds": ["theorem1"], **schedule}
    counts, sweeps = {}, {}
    for T in (500, 1000):
        calls[0] = 0
        run_experiment(ExperimentConfig.from_dict({**base, "T": T}))
        counts[T] = calls[0]
        calls[0] = 0
        sweep(ExperimentConfig.from_dict({**base, "T": T, "grid": {"beta1": [0.5, 0.7, 0.9]}}))
        sweeps[T] = calls[0]
    if not schedule:   # a constant alpha at p <= 1 prices theorem1 in closed form
        assert counts[1000] == counts[500]
        assert sweeps[1000] == sweeps[500]
    else:
        assert counts[1000] <= 2 * counts[500] + 8
        assert counts[1000] <= 4 * 1000
        assert sweeps[1000] <= 2 * sweeps[500] + 8


COLD_RUNS = """
import json, sys
from adamftrl import cli
base = {"adversary": "random", "beta1": 0.9, "beta2": 0.99, "T": 3000, "seed": 5,
        "bounds": ["corollary1"]}
with open("sim.json", "w") as f:
    json.dump(base, f)
with open("sweep.json", "w") as f:
    json.dump({**base, "grid": {"beta1": [0.5, 0.9]}}, f)
assert cli.main(["simulate", "--config", "sim.json", "--out", "sim"]) == 0
assert cli.main(["sweep", "--config", "sweep.json", "--out", "sweep"]) == 0
print(sorted(m for m in sys.modules if m == "hashlib" or m.startswith("numpy.random")))
"""


def test_random_runs_never_import_numpy_random(tmp_path):
    # a fresh process runs a random simulate and sweep without loading numpy.random, whose
    # import (bit generators, secrets, hashlib and OpenSSL) costs a run about 20 ms and 6 MB
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", COLD_RUNS], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["wrote sim.csv", "wrote sim.json", "wrote sweep.csv",
                                        "wrote sweep.json", "[]"]


PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)   # registered first, as its dataclasses need
    return module


def test_benchmark_traced_names_resolve():
    # perfbench/run.py --trace 1 wraps each (module, owner, attribute) of this table by name
    tracer = _perfbench_module("tracer")
    for _, module, owner, attr, _ in tracer.TRACED:
        target = importlib.import_module(f"adamftrl.{module}")
        if owner is not None:
            target = vars(getattr(target, owner))
            assert attr in target, f"{module}.{owner}.{attr}"
        else:
            assert callable(getattr(target, attr, None)), f"{module}.{attr}"


TRACED_JOB = """
import json, sys, warnings
sys.path.insert(0, sys.argv[1])
import run, tracer, workloads
from adamftrl import cli
warnings.simplefilter("ignore")   # the non-oblivious sweep's a >= b^2 pairs only warn
traced = tracer.Tracer()
traced.install()
commands = workloads.plan(sys.argv[2], 0)
for command in commands:
    if command.config is not None:
        with open(command.config_file, "w") as f:
            json.dump(command.config, f)
    assert cli.main(command.argv()) == 0, command.name
trace = traced.summary()
exact, _ = run._job_layer_metrics(trace, sum(command.rounds for command in commands))
for name in ("harness.validate", "harness.run_experiment"):
    exact[name + ".percentiles_ms"] = run.percentiles_ms(trace[name]["samples_ns"])
print(json.dumps(exact))
"""


@pytest.mark.parametrize("workload", ["stream-long", "sweep-grid", "theorem1-horizon",
                                      "oracle-experiments"])
def test_benchmark_traced_job_reports_every_layer(workload, tmp_path):
    # perfbench/run.py --trace 1 reads these metrics off each traced job; a workload whose
    # sweeps bypass run_experiment has no run_experiment sample, and the run dies with
    # "no median for empty data".  Installing the tracer cannot be undone: a fresh process.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", TRACED_JOB, str(PERFBENCH), workload],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])   # after the "wrote <path>" lines
    for name in ("harness.validate", "harness.run_experiment"):
        assert metrics[f"{name}.calls"] >= 1
        p50, tail, _ = metrics[f"{name}.percentiles_ms"]
        assert 0 < p50 <= tail


@pytest.mark.parametrize("workload", ["stream-long", "sweep-grid", "theorem1-horizon",
                                      "oracle-experiments"])
@pytest.mark.filterwarnings("ignore:a = .* strict per-round dominance is not guaranteed")
def test_benchmark_outputs_match_their_seed_0_digests(workload, tmp_path, monkeypatch):
    # the seed-0 commands of a benchmark workload, run through cli.main as the benchmark runs
    # them, write the files whose sha256 the benchmark's correctness gate pins (the
    # non-oblivious sweep includes pairs with a >= b^2 on purpose, which only warn)
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    assert digests["seed"] == 0
    monkeypatch.chdir(tmp_path)
    written = {}
    for command in _perfbench_module("workloads").plan(workload, 0):
        if command.config is not None:
            (tmp_path / command.config_file).write_text(json.dumps(command.config))
        assert cli.main(command.argv()) == 0
        for name in command.outputs:
            written[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert written == digests["workloads"][workload]
