"""Benchmark workloads: the CLI commands one job runs, generated from a seed.

A job is one child process that runs a workload's commands through
``adamftrl.cli.main``.  Each command carries the config the benchmark
generated for it and what the correctness gate expects of its outputs: the
CSV row count, the number of sweep points that must run, and the number of
learner rounds it completes (the numerator of ``rounds_per_s``).

The same seed always gives the same configs.  Hyperparameters and sizes are
fixed per workload, so every seed does the same amount of work; the seed
picks the random gradient stream and, for the oracle experiments, the
geometric and paired-instance parameters inside their valid ranges.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# The learner every gradient-stream workload runs: p = 0.9/sqrt(0.99) < 1.
STREAM = {"adversary": "random", "beta1": 0.9, "beta2": 0.99, "domain": 1.0,
          "alpha": 0.5, "u": 0.5}

# 8 x 8 grid with exactly 15 points at p = beta1/sqrt(beta2) > 1, which the
# sweep reports as skipped rows; the other 49 run.
SWEEP_BETA1 = (0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99)
SWEEP_BETA2 = (0.5, 0.6, 0.85, 0.9, 0.95, 0.99, 0.995, 0.999)
SWEEP_POINTS_OK = 49

ORACLE_T = 60  # the default oracle horizon, the largest T the literal forms accept
TIGHTNESS_T = (15, 30, 45, 60)


@dataclass(frozen=True)
class Command:
    """One ``adamftrl`` subcommand with its generated config and expected outputs."""

    name: str                 # output base name inside the job directory
    subcommand: str           # simulate | sweep | verify-lemmas
    config: dict | None       # written to ``<name>.config.json``; None for verify-lemmas
    csv_rows: int | None      # expected CSV data rows; None when no CSV is written
    points_ok: int | None     # sweeps only: grid points that must run, not be skipped
    rounds: int               # learner rounds completed, summed over points and instances

    @property
    def config_file(self) -> str:
        return f"{self.name}.config.json"

    @property
    def outputs(self) -> tuple[str, ...]:
        fmt = "json" if self.config is None else self.config["format"]  # verify-lemmas: JSON
        return tuple(f"{self.name}.{ext}" for ext in ("csv", "json")
                     if fmt in (ext, "both"))

    def argv(self) -> list[str]:
        argv = [self.subcommand, "--out", self.name]
        if self.config is not None:
            argv += ["--config", self.config_file]
        return argv


def _stream_long(rng: random.Random) -> list[Command]:
    T = 40_000
    config = dict(STREAM, T=T, seed=rng.randrange(2**32),
                  bounds=["corollary1"], format="both")
    return [Command("stream", "simulate", config, csv_rows=T, points_ok=None, rounds=T)]


def _theorem1_horizon(rng: random.Random) -> list[Command]:
    T = 1000
    config = dict(STREAM, T=T, seed=rng.randrange(2**32),
                  bounds=["theorem1"], format="json")
    return [Command("theorem1", "simulate", config, csv_rows=None, points_ok=None, rounds=T)]


def _sweep_grid(rng: random.Random) -> list[Command]:
    T = 1000
    config = dict(STREAM, T=T, seed=rng.randrange(2**32), bounds=["corollary1"],
                  format="both",
                  grid={"beta1": list(SWEEP_BETA1), "beta2": list(SWEEP_BETA2)})
    points = len(SWEEP_BETA1) * len(SWEEP_BETA2)
    return [Command("sweep", "sweep", config, csv_rows=points,
                    points_ok=SWEEP_POINTS_OK, rounds=SWEEP_POINTS_OK * T)]


def _uniforms(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    return sorted(round(rng.uniform(lo, hi), 4) for _ in range(n))


def _oracle_experiments(rng: random.Random) -> list[Command]:
    commands = []
    # kappa >= 6.5 > 1/p^2 for every p in [0.4, 0.6], so no point is skipped.
    v0 = round(rng.uniform(0.5, 2.0), 4)
    kappas = _uniforms(rng, 4, 6.5, 16.0)
    for i, p in enumerate(_uniforms(rng, 3, 0.4, 0.6)):
        config = {"adversary": "geometric", "p": p, "v0": v0, "domain": 1.0,
                  "T": ORACLE_T, "format": "both",
                  "grid": {"kappa": kappas, "T": list(TIGHTNESS_T)}}
        points = len(kappas) * len(TIGHTNESS_T)
        commands.append(Command(f"tightness{i}", "sweep", config, csv_rows=points,
                                points_ok=points, rounds=len(kappas) * sum(TIGHTNESS_T)))
    # Pairs with a >= b^2 are included: they run and only warn.
    a_values, b_values = _uniforms(rng, 8, 0.1, 0.9), _uniforms(rng, 8, 0.1, 0.9)
    config = {"adversary": "nonoblivious", "p": 0.5, "v": round(rng.uniform(0.5, 2.0), 4),
              "T": ORACLE_T, "format": "both", "grid": {"a": a_values, "b": b_values}}
    pairs = len(a_values) * len(b_values)
    commands.append(Command("nonoblivious", "sweep", config, csv_rows=pairs,
                            points_ok=pairs, rounds=pairs * 2 * ORACLE_T))
    # The undiscounted order-level bound B, which exists only within the horizon.
    grid = {"beta1": [0.5, 0.7, 0.9], "beta2": [0.9, 0.99, 0.999]}
    config = dict(STREAM, T=ORACLE_T, seed=rng.randrange(2**32), bounds=["B"],
                  format="both", grid=grid)
    points = len(grid["beta1"]) * len(grid["beta2"])
    commands.append(Command("bound_b", "sweep", config, csv_rows=points,
                            points_ok=points, rounds=points * ORACLE_T))
    commands.append(Command("lemmas", "verify-lemmas", None, csv_rows=None,
                            points_ok=None, rounds=0))
    return commands


WORKLOADS = {
    "stream-long": _stream_long,
    "theorem1-horizon": _theorem1_horizon,
    "sweep-grid": _sweep_grid,
    "oracle-experiments": _oracle_experiments,
}


def plan(workload: str, seed: int) -> list[Command]:
    """The commands one job of ``workload`` runs; identical for identical seeds."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
