"""Command-line front end.

Subcommands: ``simulate``, ``sweep``, ``tightness``, ``nonoblivious``,
``verify-lemmas``.  Exit code 0 when the run succeeds and all contracts hold,
1 when a numeric contract is violated (e.g. a dominance check fails), 2 on
configuration errors.

The command line is one table, ``COMMANDS``, with each option's converter or choices in
``OPTIONS``; ``parse_args`` reads argv from it and ``-h`` prints help from it.  It reads argv
by argparse's rules: ``--opt=value``, a unique prefix of an option (``--conf``), ``--``, the
last of repeated options, and a negative number as a value.  A usage error prints the usage
and ``adamftrl: error: ...`` (``adamftrl <command>: error: ...`` for a command's option) on
stderr and exits 2 through ``SystemExit``.  argparse itself is not imported: with the gettext
and locale it loads, it cost every run about 7 ms.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

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

PROG = "adamftrl"
DESCRIPTION = "Scalar online-learning lab: simulate, bound-check, and stress the learner."

# Each option a subcommand can take: its converter or its tuple of choices, and its help line.
OPTIONS = {
    "--out": (Path, "output base path (suffixes are added)"),
    "--config": (Path, "JSON config file (flat key set)"),
    "--seed": (int, "override the config seed"),
    "--format": (("csv", "json", "both"), "which output files to write"),
    "--horizon": (int, "override the oracle horizon"),
}

# The command line, written once: each subcommand's help line and the options it accepts.
COMMANDS = {
    "simulate": ("run one experiment from a config file", tuple(OPTIONS)),
    "sweep": ("run a config once per grid point", tuple(OPTIONS)),
    "tightness": ("worst-case geometric-sequence run (two-round preset by default)",
                  tuple(OPTIONS)),
    "nonoblivious": ("paired-instance separation run (worked-pair preset by default)",
                     tuple(OPTIONS)),
    # fixed grids and a JSON report: nothing else to set
    "verify-lemmas": ("check the two technical inequalities on dense grids", ("--out",)),
}

_FLAGS = {"-h, --help": "show this help message and exit",
          "--version": "show program's version number and exit"}


def _metavar(option: str) -> str:
    kind = OPTIONS[option][0]
    return "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else option[2:].upper()


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: {PROG} [-h] [--version] {{{','.join(COMMANDS)}}} ...\n"
    options = "".join(f" [{option} {_metavar(option)}]" for option in COMMANDS[command][1])
    return f"usage: {PROG} {command} [-h]{options}\n"


def _help(command: str | None) -> str:
    """The usage, the description and one line per command or option."""
    if command is None:
        text = DESCRIPTION
        sections = {"commands": {name: doc for name, (doc, _) in COMMANDS.items()},
                    "options": _FLAGS}
    else:
        text, options = COMMANDS[command]
        sections = {"options": {"-h, --help": _FLAGS["-h, --help"],
                                **{f"{o} {_metavar(o)}": OPTIONS[o][1] for o in options}}}
    width = max(len(left) for rows in sections.values() for left in rows) + 2
    return _usage(command) + f"\n{text}\n" + "".join(
        f"\n{title}:\n" + "".join(f"  {left:<{width}}{right}\n" for left, right in rows.items())
        for title, rows in sections.items())


def _fail(command: str | None, message: str):
    """A usage error, as argparse reports it: the usage and ``prog: error: ...``, exit 2."""
    prog = PROG if command is None else f"{PROG} {command}"
    sys.stderr.write(f"{_usage(command)}{prog}: error: {message}\n")
    raise SystemExit(2)


def _option_at(token: str, names: tuple[str, ...], command: str | None):
    """How argparse reads ``token`` among the option ``names``: ``None`` for a positional, else
    ``(option, value)``, where ``option`` is ``None`` for an unknown option and ``value`` is
    ``None`` unless the token carries it (``--opt=value``, or ``-hX`` as ``-h`` with ``X``)."""
    if token[:1] != "-":
        return None
    if token in names:
        return token, None
    if len(token) == 1:
        return None
    head, eq, value = token.partition("=")
    if eq and head in names:
        return head, value
    if token[1] == "-":   # a long option: a prefix of one name, its value after '='
        matches = [(name, value if eq else None) for name in names if name.startswith(head)]
    else:                 # a short option: '-h', the rest of the token its value
        matches = [(name, token[2:]) for name in names if name == token[:2]]
    if len(matches) > 1:
        _fail(command, f"ambiguous option: {token} could match "
                       + ", ".join(name for name, _ in matches))
    if matches:
        return matches[0]
    # a negative number (never '--...', so a long option compiles no pattern), or words
    if (token[1] != "-" and re.match(r"-\d+$|-\d*\.\d+$", token)) or " " in token:
        return None
    return None, None


def _scan(tokens: list[str], names: tuple[str, ...], command: str | None) -> list:
    """Each token read by :func:`_option_at`; the first ``--`` reads as ``"--"`` and every
    token after it as a positional."""
    kinds = []
    for i, token in enumerate(tokens):
        if token == "--":
            return kinds + ["--"] + [None] * (len(tokens) - i - 1)
        kinds.append(_option_at(token, names, command))
    return kinds


def _print_and_exit(command: str | None, option: str, value: str | None):
    """Run ``-h``/``--help`` or ``--version``: print to stdout and exit 0.  They take no value,
    but ``-hh`` is ``-h -h``."""
    if value is not None:
        rest = value.lstrip("h") if option == "-h" else value
        if rest or not value or option != "-h":
            name = "--version" if option == "--version" else "-h/--help"
            _fail(command, f"argument {name}: ignored explicit argument {rest!r}")
    sys.stdout.write(f"{PROG} {__version__}\n" if option == "--version" else _help(command))
    raise SystemExit(0)


def _convert(command: str, option: str, value: str):
    kind = OPTIONS[option][0]
    if isinstance(kind, tuple):
        if value not in kind:
            _fail(command, f"argument {option}: invalid choice: {value!r} "
                           f"(choose from {', '.join(map(repr, kind))})")
        return value
    try:
        return kind(value)
    except ValueError:
        _fail(command, f"argument {option}: invalid {kind.__name__} value: {value!r}")


def _parse_command(command: str, tokens: list[str], extras: list[str]) -> SimpleNamespace:
    options = COMMANDS[command][1]
    kinds = _scan(tokens, ("-h", "--help", *options), command)
    values = dict.fromkeys(option[2:] for option in options)
    i = 0
    while i < len(tokens):
        kind, token = kinds[i], tokens[i]
        i += 1
        if not isinstance(kind, tuple) or kind[0] is None:   # a positional, '--', or unknown
            extras.append(token)
            continue
        option, value = kind
        if option in ("-h", "--help"):
            _print_and_exit(command, option, value)
        if value is None:   # the next token, if it is a positional
            if i == len(tokens) or kinds[i] is not None:
                _fail(command, f"argument {option}: expected one argument")
            value = tokens[i]
            i += 1
        values[option[2:]] = _convert(command, option, value)
    return SimpleNamespace(command=command, **values)


def parse_args(argv=None) -> SimpleNamespace:
    """The namespace argparse gave: ``command`` and one attribute per option of the command,
    ``None`` where not given.  Help, ``--version`` and usage errors raise ``SystemExit``."""
    tokens = sys.argv[1:] if argv is None else list(argv)
    kinds = _scan(tokens, ("-h", "--help", "--version"), None)
    extras = []
    for i, kind in enumerate(kinds):
        if isinstance(kind, tuple):
            if kind[0] is None:
                extras.append(tokens[i])
            else:
                _print_and_exit(None, *kind)
        elif kind is None or i + 1 < len(tokens):   # the command ('--' too, if more follows)
            command = tokens[i]
            if command not in COMMANDS:
                _fail(None, f"argument command: invalid choice: {command!r} "
                            f"(choose from {', '.join(map(repr, COMMANDS))})")
            args = _parse_command(command, tokens[i + 1:], extras)
            if extras:
                _fail(None, "unrecognized arguments: " + " ".join(extras))
            return args
    _fail(None, "the following arguments are required: command")


def _check_out(out) -> None:
    """Reject an output base that names no file (``''``, ``.``, ``..``): each output is named by
    its last part with ``.csv`` or ``.json`` added."""
    if out is not None and Path(out).name in ("", ".."):
        raise ConfigError(f"'out': {str(out)!r} names no file; give a base path such as 'runs/a'")


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
    config = ExperimentConfig.from_dict(raw)
    _check_out(config.out)
    return config


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
    _check_out(args.out)
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
    args = parse_args(argv)
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
