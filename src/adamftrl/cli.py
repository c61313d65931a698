"""Command-line front end.

Subcommands: ``simulate``, ``sweep``, ``tightness``, ``nonoblivious``,
``verify-lemmas``.  Exit code 0 when the run succeeds and all contracts hold,
1 when a numeric contract is violated (e.g. a dominance check fails), 2 on
configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .adversaries import (
    default_lemma_a1_grid,
    default_lemma_a2_grid,
    verify_lemma_a1,
    verify_lemma_a2,
)
from .errors import AdamFtrlError, ConfigError, ContractViolation
from .harness import (ExperimentConfig, ExperimentResult, render_json, run_experiment, sweep,
                      write_outputs)

TIGHTNESS_PRESET = {
    "adversary": "geometric",
    "p": 0.5,
    "kappa": 4.0,
    "v0": 1.0,
    "domain": 1.0,
    "T": 2,
}

NONOBLIVIOUS_PRESET = {
    "adversary": "nonoblivious",
    "a": 0.2,
    "b": 0.5,
    "v": 1.0,
    "p": 0.5,
    "T": 2,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adamftrl",
        description="Scalar online-learning lab: simulate, bound-check, and stress the learner.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (
        ("simulate", "run one experiment from a config file"),
        ("sweep", "run a config once per grid point"),
        ("tightness", "worst-case geometric-sequence run (two-round preset by default)"),
        ("nonoblivious", "paired-instance separation run (worked-pair preset by default)"),
        ("verify-lemmas", "check the two technical inequalities on dense grids"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--out", type=Path, help="output base path (suffixes are added)")
        if name == "verify-lemmas":   # fixed grids and a JSON report: nothing else to set
            continue
        p.add_argument("--config", type=Path, help="JSON config file (flat key set)")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--format", choices=("csv", "json", "both"),
                       help="which output files to write")
        p.add_argument("--horizon", type=int, help="override the oracle horizon")
    return parser


def _load_config(args, preset: dict | None = None) -> ExperimentConfig:
    raw = dict(preset) if preset else {}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config {args.config} must be a JSON object, got {loaded!r}")
        raw.update(loaded)
    if not raw:
        raise ConfigError("this subcommand needs --config")
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.format is not None:
        raw["format"] = args.format
    if args.horizon is not None:
        raw["oracle_horizon"] = args.horizon
    if args.out is not None:
        raw["out"] = str(args.out)
    return ExperimentConfig.from_dict(raw)


def _emit(result: ExperimentResult, out: str | Path | None, fmt: str) -> None:
    if out:
        for path in write_outputs(result, out, fmt):
            print(f"wrote {path}")
    else:
        sys.stdout.write(render_json(result))


def _cmd_experiment(args, preset: dict | None = None) -> int:
    config = _load_config(args, preset)
    result = (sweep if args.command == "sweep" else run_experiment)(config)
    _emit(result, config.out, config.format)
    return 0 if result.contracts_ok() else 1


def _cmd_verify_lemmas(args) -> int:
    report: dict = {"version": __version__}
    for name, verify, grid in (("lemma_a1", verify_lemma_a1, default_lemma_a1_grid),
                               ("lemma_a2", verify_lemma_a2, default_lemma_a2_grid)):
        try:
            lemma = verify(grid())
            report[name] = {"max_value": lemma.max_value, "bound": lemma.bound,
                            "points_checked": lemma.points_checked, "holds": True}
        except ContractViolation as exc:
            report[name] = {"holds": False, "detail": str(exc)}
    _emit(ExperimentResult(csv_header=(), csv_rows=(), summary=report), args.out, "json")
    return 0 if report["lemma_a1"]["holds"] and report["lemma_a2"]["holds"] else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify-lemmas":
            return _cmd_verify_lemmas(args)
        return _cmd_experiment(args, {"tightness": TIGHTNESS_PRESET,
                                      "nonoblivious": NONOBLIVIOUS_PRESET}.get(args.command))
    except ContractViolation as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 1
    except (AdamFtrlError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
