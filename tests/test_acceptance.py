"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every tolerance is pinned here.  Frozen expected values were computed once
from the literal formulas (see the oracles in conftest.py) and are asserted
exactly; the six-decimal reference figures are asserted at 1e-6.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

import adamftrl.cli as cli
from adamftrl import (
    AlphaSchedule,
    ExperimentConfig,
    HyperParams,
    TraceStats,
    bound_corollary1_discounted,
    bound_theorem1_discounted,
    bound_theorem3_discounted,
    drive as drive_rounds,
    ftrl_oracle_update,
    run_experiment,
    run_nonoblivious_experiment,
    run_tightness_experiment,
    verify_lemma_a1,
    verify_lemma_a2,
)
from adamftrl.adversaries import default_lemma_a1_grid, default_lemma_a2_grid
from adamftrl.errors import NotApplicableError
from adamftrl.harness import render_csv, render_json
from adamftrl.regret import per_round_ftrl_inequality
from conftest import (
    constant_params,
    decaying_params,
    drive,
    literal_theorem3_discounted,
    random_gradients,
    state_after,
)

FIXTURES = Path(__file__).parent / "fixtures"

# Frozen once from the tightness sweep (p in {0.40..0.60}, kappa = 1/p^2,
# T in 2..20, v0 = 1, D = 1); regression-tested at 1e-9.
TIGHTNESS_MIN_RATIO_BASELINE = 0.14094594933241977

# Frozen from the literal evaluation of the decaying-alpha discounted bound
# on the worked trace (beta1=0.5, beta2=0.16, alpha=1, g=(2,1,1), T=2).
THEOREM3_WORKED_TOTAL = 10.895857842233136


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def _sample_p_le_1(rng):
    b2 = rng.uniform(0.1, 0.999)
    b1 = min(max(rng.uniform(0.05, 1.0) * math.sqrt(b2), 0.05), 0.99)
    return b1, b2


def _sample_p_ge_1(rng):
    b1 = rng.uniform(0.3, 0.99)
    b2 = min(max(rng.uniform(0.1, 1.0) * b1 * b1, 0.02), 0.999)
    return b1, b2


def test_criterion_1_form_equivalence():
    start = time.monotonic()
    rng = random.Random(20240801)
    betas1 = (0.3, 0.45, 0.6, 0.8, 0.99)
    betas2 = (0.1, 0.25, 0.5, 0.81, 0.999)
    traces = 0
    rounds = 0
    for b1 in betas1:
        for b2 in betas2:
            p = b1 / math.sqrt(b2)
            for k in range(40):
                sched = (AlphaSchedule.exponential_decay(1.0, p)
                         if p > 1.0 and k % 2 == 0 else AlphaSchedule.constant(1.0))
                params = HyperParams(beta1=b1, beta2=b2, alpha=sched,
                                     D=None if k % 3 else 1.0)
                gs = random_gradients(rng, rng.randint(1, 40), scale=10.0)
                for t, _, _, _, _, stable, *_ in drive_rounds(gs, params):
                    literal = ftrl_oracle_update(gs[:t], params, t)
                    assert math.isclose(stable, literal, rel_tol=1e-10, abs_tol=1e-12), (
                        b1, b2, t, stable, literal)
                    rounds += 1
                traces += 1
    elapsed = time.monotonic() - start
    _report("1 form equivalence",
            traces >= 1000 and elapsed < 10.0,
            f"({traces} traces, {rounds} rounds, {elapsed:.2f}s)")


def test_criterion_2_dominance_p_le_1():
    rng = random.Random(20240802)
    traces = 0
    for trial in range(500):
        b1, b2 = _sample_p_le_1(rng)
        D = None if trial % 2 else 1.0
        u = rng.uniform(-1.0, 1.0) if D else rng.uniform(-3.0, 3.0)
        T = rng.randint(2, 40)
        if trial % 2:
            sched = AlphaSchedule.constant(rng.uniform(0.2, 2.0))
        else:
            vals = [rng.uniform(0.5, 2.0)]
            for _ in range(T):
                vals.append(vals[-1] * rng.uniform(0.7, 1.0))
            sched = AlphaSchedule.explicit(vals)
        params = HyperParams(beta1=b1, beta2=b2, alpha=sched, D=D)
        gs = random_gradients(rng, T, scale=10.0)
        for round_ in drive_rounds(gs, params, u):
            t, regret = round_[0], round_[7]
            if t < 2:
                continue
            stats = TraceStats.from_state(state_after(round_))
            rep = bound_theorem1_discounted(params, stats, u, t)
            slack = 1e-9 * max(1.0, abs(regret), abs(rep.total))
            assert regret <= rep.total + slack, (trial, t)
            if sched.kind == "constant":
                rep_c = bound_corollary1_discounted(params, stats, u, t)
                assert regret <= rep_c.total + slack, (trial, t)
        traces += 1

    params = constant_params(0.5, 0.25)
    run = drive([2.0, 1.0, 1.0], params, u=0.0)
    rep = bound_corollary1_discounted(params, TraceStats.from_state(run.state), 0.0, 2)
    worked_ok = (abs(run.ledger.r_disc - -1.914214) <= 1e-6
                 and abs(rep.total - 11.399495) <= 1e-6)
    _report("2 dominance p<=1 (general + constant alpha)",
            traces >= 500 and worked_ok,
            f"({traces} traces; worked example regret {run.ledger.r_disc:.6f}, "
            f"bound {rep.total:.6f})")


def test_criterion_3_dominance_p_ge_1():
    rng = random.Random(20240803)
    traces = 0
    for trial in range(500):
        b1, b2 = _sample_p_ge_1(rng)
        params = decaying_params(b1, b2, alpha=rng.uniform(0.2, 2.0),
                                 D=None if trial % 2 else 1.0)
        u = rng.uniform(-1.0, 1.0)
        T = rng.randint(2, 40)
        gs = random_gradients(rng, T, scale=10.0)
        for round_ in drive_rounds(gs, params, u):
            t, regret = round_[0], round_[7]
            if t < 2:
                continue
            rep = bound_theorem3_discounted(params, TraceStats.from_state(state_after(round_)),
                                            u, t)
            slack = 1e-9 * max(1.0, abs(regret), abs(rep.total))
            assert regret <= rep.total + slack, (trial, t)
        traces += 1

    # worked example, checked against the literal formula evaluation
    params = decaying_params(0.5, 0.16)
    run = drive([2.0, 1.0, 1.0], params, u=0.0)
    rep = bound_theorem3_discounted(params, TraceStats.from_state(run.state), 0.0, 2)
    lit = literal_theorem3_discounted([2.0, 1.0, 1.0], run.deltas, params, 0.0, 2)
    worked_ok = (abs(run.ledger.r_disc - -1.749390) <= 1e-6
                 and abs(rep.total - THEOREM3_WORKED_TOTAL) <= 1e-6
                 and abs(lit - THEOREM3_WORKED_TOTAL) <= 1e-9)

    # at beta2 = beta1^2 the two bound families coincide
    coincide = True
    for b1 in (0.3, 0.5, 0.7, 0.9):
        gs = random_gradients(rng, 20)
        pc = constant_params(b1, b1 * b1)
        pd = decaying_params(b1, b1 * b1)
        rc = drive(gs, pc)
        rd = drive(gs, pd)
        for u in (-1.0, 0.0, 0.7):
            tc = bound_corollary1_discounted(pc, TraceStats.from_state(rc.state), u, 20).total
            td = bound_theorem3_discounted(pd, TraceStats.from_state(rd.state), u, 20).total
            coincide &= math.isclose(tc, td, rel_tol=1e-12)
    _report("3 dominance p>=1 (decaying alpha)",
            traces >= 500 and worked_ok and coincide,
            f"({traces} traces; worked example regret {run.ledger.r_disc:.6f}, "
            f"bound {rep.total:.6f}; coincides at beta2=beta1^2: {coincide})")


def test_criterion_4_per_round_inequality():
    rng = random.Random(20240804)
    checked = 0
    skipped_clipped = 0
    for regime in ("le", "ge"):
        for trial in range(80):
            if regime == "le":
                b1, b2 = _sample_p_le_1(rng)
                params = HyperParams(
                    beta1=b1, beta2=b2,
                    alpha=AlphaSchedule.constant(rng.uniform(0.2, 1.0)),
                    D=None if trial % 2 else 5.0)
            else:
                b1, b2 = _sample_p_ge_1(rng)
                params = decaying_params(b1, b2, alpha=rng.uniform(0.2, 1.0),
                                         D=None if trial % 2 else 5.0)
            gs = random_gradients(rng, rng.randint(2, 15), scale=5.0)
            T = len(gs) - 1
            try:
                for t in range(1, T + 1):
                    rec = per_round_ftrl_inequality(gs, params, t)
                    rhs = min(rec.stability_bound, rec.range_bound)
                    slack = 1e-9 * max(1.0, abs(rec.lhs), abs(rhs))
                    assert rec.lhs <= rhs + slack, (regime, trial, t, rec)
                    checked += 1
            except NotApplicableError:
                skipped_clipped += 1
    _report("4 per-round min{stability, range} inequality",
            checked > 500,
            f"({checked} rounds checked, {skipped_clipped} clipped traces skipped)")


def test_criterion_5_tightness():
    min_ratio = math.inf
    runs = 0
    for p in (0.40, 0.45, 0.50, 0.55, 0.60):
        kappa = 1.0 / (p * p)
        for T in range(2, 21):
            r = run_tightness_experiment(p, 1.0, kappa, 1.0, T)
            assert not r.any_clipped, (p, T)
            assert r.max_prebar <= 0.5 + 1e-12, (p, T)
            slack = 1e-9 * max(1.0, abs(r.regret), abs(r.lower_bound))
            assert r.regret >= r.lower_bound - slack, (p, T)
            min_ratio = min(min_ratio, r.ratio)
            runs += 1
    two_round = run_tightness_experiment(0.5, 1.0, 4.0, 1.0, 2)
    worked_ok = (abs(two_round.regret - 14.527864) <= 1e-6
                 and two_round.regret >= 10.0
                 and two_round.lower_bound == 10.0)
    baseline_ok = abs(min_ratio - TIGHTNESS_MIN_RATIO_BASELINE) <= 1e-9
    _report("5 worst-case tightness construction",
            runs == 95 and worked_ok and baseline_ok,
            f"({runs} runs; two-round regret {two_round.regret:.6f} >= 10; "
            f"min ratio {min_ratio:.12f} vs baseline)")


def test_criterion_6_nonoblivious_separation():
    pairs = 0
    for a in (0.05, 0.1, 0.2):
        for b in (0.4, 0.5, 0.7):
            if not a < b * b:
                continue
            res = run_nonoblivious_experiment(a, b, 1.0, 0.5, 30)
            assert res.per_round_strict, (a, b)
            assert res.regret_a < res.regret_aprime, (a, b)
            assert not res.any_clipped, (a, b)
            pairs += 1
    worked = run_nonoblivious_experiment(0.2, 0.5, 1.0, 0.5, 2)
    worked_ok = (abs(worked.regret_a - 0.128060) <= 1e-6
                 and abs(worked.regret_aprime - 0.332295) <= 1e-6
                 and worked.regret_a < worked.regret_aprime)
    _report("6 non-oblivious separation (a < b^2)",
            pairs == 8 and worked_ok,
            f"({pairs} grid pairs at T=30; worked pair "
            f"{worked.regret_a:.6f} < {worked.regret_aprime:.6f})")


def test_criterion_7_technical_inequalities():
    rep1 = verify_lemma_a1(default_lemma_a1_grid(), slack=1e-12)
    rep2 = verify_lemma_a2(default_lemma_a2_grid(), slack=1e-12)
    ok = (rep1.points_checked >= 10_000 and rep2.points_checked >= 10_000
          and rep1.max_value <= 1.0 + 1e-12 and rep2.max_value <= 2.0 + 1e-12)
    _report("7 grid inequalities (ratio <= 1, coefficient <= 2)", ok,
            f"(max {rep1.max_value:.15f} over {rep1.points_checked} pts; "
            f"max {rep2.max_value:.15f} over {rep2.points_checked} pts)")


def test_criterion_8_harness_determinism(tmp_path):
    # byte-identical reruns for a seeded random run and both presets
    random_cfg = {"adversary": "random", "beta1": 0.6, "beta2": 0.5, "T": 25,
                  "seed": 3, "bounds": ["theorem1", "corollary1"]}
    configs = [random_cfg, cli.TIGHTNESS_PRESET, cli.NONOBLIVIOUS_PRESET]
    deterministic = True
    for cfg in configs:
        res1 = run_experiment(ExperimentConfig.from_dict(cfg))
        res2 = run_experiment(ExperimentConfig.from_dict(cfg))
        deterministic &= (render_csv(res1) == render_csv(res2)
                          and render_json(res1) == render_json(res2))

    goldens = True
    for preset, stem in ((cli.TIGHTNESS_PRESET, "tightness"),
                         (cli.NONOBLIVIOUS_PRESET, "nonoblivious")):
        res = run_experiment(ExperimentConfig.from_dict(preset))
        goldens &= render_csv(res) == (FIXTURES / f"{stem}.csv").read_text()
        goldens &= render_json(res) == (FIXTURES / f"{stem}.json").read_text()

    # end to end through the CLI, twice, byte-compared
    codes = []
    blobs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        codes.append(cli.main(["tightness", "--out", str(out)]))
        blobs.append((out.with_suffix(".csv").read_bytes(),
                      out.with_suffix(".json").read_bytes()))
    cli_ok = codes == [0, 0] and blobs[0] == blobs[1]
    _report("8 harness determinism and golden fixtures",
            deterministic and goldens and cli_ok,
            f"(reruns identical: {deterministic}; goldens: {goldens}; cli: {cli_ok})")
