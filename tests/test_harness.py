import json
import math
from pathlib import Path

import pytest

import adamftrl.bounds
import adamftrl.cli as cli
import adamftrl.harness
import adamftrl.learner
from adamftrl import ExperimentConfig, run_experiment, sweep, write_outputs
from adamftrl.errors import ConfigError
from adamftrl.harness import PAIR_COLUMNS, TRACE_COLUMNS, render_csv, render_json

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


def test_sweep_single_point_matches_run_experiment():
    raw = dict(SIMULATE_EXAMPLE)
    raw["grid"] = {"T": [2]}
    res = sweep(ExperimentConfig.from_dict(raw))
    assert res.summary["points_ok"] == 1
    single = run_experiment(ExperimentConfig.from_dict(SIMULATE_EXAMPLE))
    regret_col = res.csv_header.index("regret_discounted")
    assert res.csv_rows[0][regret_col] == single.summary["regret_discounted"]


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


@pytest.mark.parametrize("patch,err", [
    # alpha_136 rounds to 0.0, and theorem1's comparator divides by alpha_{T+1}
    ({"alpha": 1e-300, "alpha_ratio": 1.5, "T": 200, "bounds": ["theorem1"]},
     "exponential decay alpha_t underflows to zero at t=136"),
    # ratio ** (t - 1) overflows at t=1025
    ({"alpha": 0.5, "alpha_ratio": 2.0, "T": 1100, "bounds": ["theorem1"]},
     "exponential decay alpha_t underflows to zero at t=1025"),
    # p ** T overflows before T = 8000
    ({"beta2": 0.64, "T": 8000, "bounds": ["theorem3"]},
     "bound 'theorem3' overflows: p^T leaves the float range at p = 1.125, T = 6027"),
    # with no bound, updates alpha_t * m / sqrt(q) would silently be 0 from t=136
    ({"alpha": 1e-300, "alpha_ratio": 1.5, "T": 200},
     "exponential decay alpha_t underflows to zero at t=136"),
], ids=["theorem1-alpha-underflow", "theorem1-ratio-overflow", "theorem3-pT-overflow",
        "no-bound-alpha-underflow"])
def test_cli_range_errors_exit_two(patch, err, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**RANDOM_DECAY, **patch}))
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"config error: {err}\n"
    assert not list(tmp_path.glob("x.*"))


def test_cli_verify_lemmas(tmp_path):
    code = cli.main(["verify-lemmas", "--out", str(tmp_path / "lemmas")])
    assert code == 0
    report = json.loads((tmp_path / "lemmas.json").read_text())
    assert report["lemma_a1"]["holds"] and report["lemma_a2"]["holds"]
    assert report["lemma_a1"]["points_checked"] >= 10_000
    assert report["lemma_a2"]["points_checked"] >= 10_000


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
])
def test_golden_fixtures(preset, stem, tmp_path):
    res = run_experiment(ExperimentConfig.from_dict(preset))
    assert render_csv(res) == (FIXTURES / f"{stem}.csv").read_text()
    assert render_json(res) == (FIXTURES / f"{stem}.json").read_text()


@pytest.mark.parametrize("stem", sorted(SIMULATE_GOLDENS))
def test_simulate_golden_fixtures(stem):
    res = run_experiment(ExperimentConfig.from_dict(SIMULATE_GOLDENS[stem]))
    assert res.summary["contracts_ok"]
    assert render_csv(res) == (FIXTURES / f"{stem}.csv").read_text()
    assert render_json(res) == (FIXTURES / f"{stem}.json").read_text()


def test_theorem1_run_makes_linearly_many_alpha_calls(monkeypatch):
    calls = [0]
    original = adamftrl.learner.alpha_at

    def counting(schedule, t):
        calls[0] += 1
        return original(schedule, t)

    for module in (adamftrl.learner, adamftrl.bounds, adamftrl.harness):
        monkeypatch.setattr(module, "alpha_at", counting)
    counts = {}
    for T in (500, 1000):
        calls[0] = 0
        run_experiment(ExperimentConfig.from_dict(
            {"adversary": "random", "beta1": 0.9, "beta2": 0.99, "alpha": 0.5, "T": T,
             "seed": 1, "bounds": ["theorem1"]}))
        counts[T] = calls[0]
    assert counts[1000] <= 2 * counts[500] + 8
    assert counts[1000] <= 4 * 1000
