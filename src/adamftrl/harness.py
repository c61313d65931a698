"""Experiment configuration, drivers, and deterministic CSV/JSON serialization.

A configuration is a flat JSON object; one table, ``_KEYS``, parses each key's
value (unknown keys are rejected), and regime coherence is checked before
anything runs: the ``p <= 1`` bounds cannot be requested at ``p > 1``, the
decaying-alpha bound requires the matching schedule, and the order-level bound
requires a bounded domain within the oracle horizon.

Outputs are byte-stable: identical config and seed produce identical files.
Floats are serialized with 17 significant digits in CSV; JSON summaries use
sorted keys and round-trip floats.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__
from .adversaries import (
    FixedSequence,
    GeometricSequence,
    NonObliviousPair,
    NonObliviousResult,
    NonObliviousRound,
    PairTotals,
    RandomUniform,
    TightnessResult,
    check_nonoblivious_regime,
    check_tightness_regime,
    run_nonoblivious_pairs,
    run_tightness_experiment,
    run_tightness_horizons,
    warn_unless_separated,
)
from .bounds import BOUNDS, BoundReport, TraceStats, dominance_holds, price_columns
from .errors import AdamFtrlError, ConfigError
from .learner import (DEFAULT_ORACLE_HORIZON, REGIME_TOL, AlphaSchedule, CheckedAlphas, HyperParams,
                      at_most)
from .regret import drive, drive_batch

RNG_NAME = "numpy-pcg64"
TRACE_COLUMNS = (
    "t", "alpha_t", "g_t", "m_t", "q_t", "delta_bar_t", "delta_t", "clipped",
    "loss_discounted", "regret_discounted", "maxV_t", "D_t",
)
_CLIPPED = TRACE_COLUMNS.index("clipped")
PAIR_COLUMNS = NonObliviousRound._fields


@dataclass
class ExperimentConfig:
    """Validated, fully resolved experiment description."""

    adversary: str
    T: int
    beta1: float | None = None
    beta2: float | None = None
    alpha_kind: str = "constant"
    alpha: float = 1.0
    alpha_ratio: float | None = None
    alpha_values: tuple[float, ...] | None = None
    domain: float | None = None
    u: float | str = 0.0
    gradients: tuple[float, ...] | None = None
    distribution: str = "uniform"
    v0: float | None = None
    kappa: float | None = None
    a: float | None = None
    b: float | None = None
    v: float | None = None
    p: float | None = None
    seed: int = 0
    bounds: tuple[str, ...] = ()
    out: str | None = None
    format: str = "both"
    oracle_horizon: int = DEFAULT_ORACLE_HORIZON
    grid: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        unknown = set(raw) - set(_KEYS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "adversary" not in raw:
            raise ConfigError("config needs an 'adversary' kind")
        d = {key: _parse(key, value) for key, value in raw.items()}
        if "T" not in d:
            if d["adversary"] == "fixed" and d.get("gradients"):
                d["T"] = len(d["gradients"]) - 1
            else:
                raise ConfigError("config needs a round count 'T'")
        cfg = cls(**d)
        if not cfg.grid:
            # sweep templates are validated per grid point, where incoherent
            # combinations become skipped rows rather than errors
            cfg.validate()
        return cfg

    # -- validation -------------------------------------------------------

    def validate(self) -> None:
        """Ranges and regime coherence; the value types are :data:`_KEYS`'s."""
        if self.T < 0:
            raise ConfigError(f"T must be >= 0, got {self.T}")
        if self.oracle_horizon < 1:
            raise ConfigError(f"oracle_horizon must be >= 1, got {self.oracle_horizon}")
        if self.domain is not None and not self.domain > 0:
            raise ConfigError(f"domain must be positive or 'unbounded', got {self.domain}")
        if self.adversary in ("fixed", "random"):
            self._validate_gradient_run()
        elif self.adversary == "geometric":
            self._validate_geometric()
        else:
            self._validate_nonoblivious()
        if None not in (self.p, self.beta1, self.beta2):
            # ratio() reads p and hyper_params() the betas: both must name one regime
            derived = self.beta1 / math.sqrt(self.beta2) if self.beta2 > 0 else math.nan
            if not abs(self.p - derived) <= REGIME_TOL * derived:
                raise ConfigError(f"'p' = {self.p} disagrees with beta1/sqrt(beta2) = {derived}")
        if self.adversary == "nonoblivious":   # only a valid point warns, once per validation
            warn_unless_separated(self.a, self.b)

    def _validate_gradient_run(self) -> None:
        try:
            params = self.hyper_params()
        except (ValueError, AdamFtrlError) as exc:
            raise ConfigError(str(exc)) from exc
        if self.u == "negD":
            if self.domain is None:
                raise ConfigError("'negD' comparator needs a bounded domain")
        elif self.domain is not None and abs(self.u) > self.domain:
            raise ConfigError(f"comparator u={self.u} outside [-{self.domain}, {self.domain}]")
        if self.alpha_kind == "explicit":
            needed = self.T + 1 if self.bounds else self.T
            if len(self.alpha_values or ()) < needed:
                raise ConfigError(
                    f"explicit alpha schedule needs at least {needed} values for T={self.T}"
                )
        try:
            spec = self.adversary_spec()
            if isinstance(spec, FixedSequence):
                spec.gradient_stream(self.T)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for name in self.bounds:
            try:
                BOUNDS[name].check(params)
            except AdamFtrlError as exc:
                raise ConfigError(str(exc)) from exc
            if name == "B" and self.T > self.oracle_horizon:
                raise ConfigError(
                    f"bound 'B' is undiscounted and needs T <= horizon ({self.oracle_horizon})"
                )

    def _validate_geometric(self) -> None:
        if self.domain is None:
            raise ConfigError("tightness runs need a bounded domain")
        if self.kappa is None or self.v0 is None:
            raise ConfigError("geometric adversary needs 'kappa' and 'v0'")
        try:
            self.adversary_spec()
            check_tightness_regime(self.ratio(), self.domain, self.kappa, self.v0, self.T,
                                   self.oracle_horizon)
        except (ValueError, AdamFtrlError) as exc:
            raise ConfigError(str(exc)) from exc

    def _validate_nonoblivious(self) -> None:
        for name in ("a", "b", "v"):
            if getattr(self, name) is None:
                raise ConfigError(f"nonoblivious adversary needs {name!r}")
        try:
            check_nonoblivious_regime(self.a, self.b, self.v, self.ratio(), self.T,
                                      self.beta1, self.oracle_horizon)
        except (ValueError, AdamFtrlError) as exc:
            raise ConfigError(str(exc)) from exc

    # -- derived objects --------------------------------------------------

    def adversary_spec(self):
        """The adversary description object this config denotes."""
        if self.adversary == "fixed":
            if not self.gradients:
                raise ValueError("fixed adversary needs a 'gradients' list")
            return FixedSequence(self.gradients)
        if self.adversary == "random":
            return RandomUniform(seed=self.seed, distribution=self.distribution)
        if self.adversary == "geometric":
            return GeometricSequence(v0=self.v0, kappa=self.kappa)
        return NonObliviousPair(a=self.a, b=self.b, v=self.v)

    def ratio(self) -> float:
        """Momentum ratio p, from the 'p' key or derived from the betas."""
        if self.p is not None:
            return self.p
        if self.beta1 is None or self.beta2 is None:
            raise ConfigError("need either 'p' or both 'beta1' and 'beta2'")
        return self.beta1 / math.sqrt(self.beta2)

    def alpha_schedule(self) -> AlphaSchedule:
        if self.alpha_kind == "constant":
            return AlphaSchedule.constant(self.alpha)
        if self.alpha_kind == "exponential_decay":
            ratio = self.alpha_ratio if self.alpha_ratio is not None else self.ratio()
            return AlphaSchedule.exponential_decay(self.alpha, ratio)
        if not self.alpha_values:   # "explicit"
            raise ConfigError("explicit alpha needs 'alpha_values'")
        if isinstance(self.alpha_values, CheckedAlphas):   # a sweep point's, checked once
            return AlphaSchedule(kind="explicit", alpha=self.alpha_values[0],
                                 values=self.alpha_values)
        return AlphaSchedule.explicit(self.alpha_values)

    def hyper_params(self) -> HyperParams:
        if self.beta1 is None or self.beta2 is None:
            raise ConfigError("gradient-stream runs need 'beta1' and 'beta2'")
        return HyperParams(beta1=self.beta1, beta2=self.beta2,
                           alpha=self.alpha_schedule(), D=self.domain)

    def comparator(self) -> float:
        if self.u == "negD":
            return -self.domain
        return float(self.u)

    def echo(self) -> dict:
        """JSON-safe snapshot of the resolved configuration."""
        out = {}
        for key in _ECHO_KEYS:
            val = getattr(self, key, None)
            if isinstance(val, tuple):
                val = list(val)
            out[key] = val
        out["domain"] = "unbounded" if self.domain is None else self.domain
        out["rng"] = RNG_NAME
        return out


def _need(ok: bool, key: str, value, what: str):
    """``value`` if ``ok``, else a ConfigError: the JSON value of ``key`` is not ``what``."""
    if not ok:
        raise ConfigError(f"{key!r}: {json.dumps(value)} is not {what}")
    return value


def _number(key: str, value, what: str = "a number"):
    """A finite number: checked, not converted, so the config's echo keeps its JSON text."""
    _need(isinstance(value, (int, float)) and not isinstance(value, bool), key, value, what)
    try:
        return _need(math.isfinite(value), key, value, "a finite number")
    except OverflowError as exc:
        raise ConfigError(f"{key!r}: an integer too large for a float") from exc


def _integer(key: str, value) -> int:
    return _need(isinstance(value, int) and not isinstance(value, bool), key, value, "an integer")


def _natural(key: str, value) -> int:
    return _need(_integer(key, value) >= 0, key, value, "a non-negative integer")


def _numbers(key: str, value) -> tuple[float, ...]:
    _need(isinstance(value, (list, tuple)), key, value, "a list of numbers")
    return tuple(float(_number(key, item)) for item in value)


def _one_of(*words: str):
    return lambda key, value: _need(isinstance(value, str) and value in words, key, value,
                                    "|".join(words))


def _bound_names(key: str, value) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(isinstance(b, str) for b in value):
        raise ConfigError(f"'bounds' must be a list of bound names, got {value!r}")
    unknown = set(value) - set(BOUNDS)
    if unknown:
        raise ConfigError(f"unknown bounds requested: {sorted(unknown)}")
    return tuple(value)


_GRID_KEYS = ("beta1", "beta2", "kappa", "a", "b", "p", "T")


def _grid(key: str, value) -> dict:
    """Grid keys mapped to value lists, each value parsed per point by :func:`sweep`."""
    return _need(isinstance(value, dict) and all(k in _GRID_KEYS and isinstance(v, (list, tuple))
                                                 and v for k, v in value.items()),
                 key, value, f"a map of {'|'.join(_GRID_KEYS)} to non-empty value lists")


# The config format, written once: for each field of ExperimentConfig, the parser that takes
# its JSON value to its run-time value or raises a ConfigError (see _parse for null).
# validate() then checks ranges and regime coherence.
_KEYS = {
    "adversary": _one_of("fixed", "random", "geometric", "nonoblivious"),
    "alpha_kind": _one_of("constant", "exponential_decay", "explicit"),
    "distribution": _one_of("uniform"),
    "format": _one_of("csv", "json", "both"),
    "T": _integer, "seed": _natural, "oracle_horizon": _integer,
    "beta1": _number, "beta2": _number, "alpha": _number, "alpha_ratio": _number,
    "v0": _number, "kappa": _number, "a": _number, "b": _number, "v": _number, "p": _number,
    "gradients": _numbers, "alpha_values": _numbers,   # tuples of floats
    "domain": lambda k, v: None if v == "unbounded" else _number(k, v, 'a number or "unbounded"'),
    "u": lambda k, v: v if v == "negD" else _number(k, v, 'a number or "negD"'),   # see comparator
    "bounds": _bound_names,
    "out": lambda key, value: _need(isinstance(value, str), key, value, "a path"),
    "grid": _grid,
}
_ECHO_KEYS = tuple(sorted(_KEYS.keys() - {"grid", "out"}))
_NULLABLE = {f.name for f in fields(ExperimentConfig) if f.default is None}


def _parse(key: str, value):
    """The run-time value of ``key``'s JSON value; a null is the key left out (``_NULLABLE``)."""
    return None if value is None and key in _NULLABLE else _KEYS[key](key, value)


@dataclass(frozen=True)
class ExperimentResult:
    """Rows ready for CSV plus a JSON-safe summary."""

    csv_header: tuple[str, ...]
    csv_rows: Sequence[tuple]
    summary: dict

    def contracts_ok(self) -> bool:
        return bool(self.summary.get("contracts_ok", True))


def _stream_summary(config: ExperimentConfig, r_disc: float, clip_count: int,
                    reports: list[BoundReport]) -> dict:
    """A gradient-stream run's summary; ``reports`` are the round-``T`` bounds, empty when T < 2."""
    requested = [n for n in BOUNDS if n in config.bounds]
    bounds_summary = {name: None for name in requested}
    dominance_flags = []
    for name, rep in zip(requested, reports):
        entry = {key: val for key, val in vars(rep).items() if key != "kind"}
        if rep.scale == "discounted":
            entry["dominates"] = dominance_holds(r_disc, rep)
            dominance_flags.append(entry["dominates"])
        bounds_summary[name] = entry
    return {
        "adversary": config.adversary,
        "T": config.T,
        "u": config.comparator(),
        "regret_discounted": r_disc,
        "clip_count": clip_count,
        "bounds": bounds_summary,
        "contracts_ok": all(dominance_flags) if dominance_flags else True,
        "config": config.echo(),
        "version": __version__,
    }


# Rows per chunk, both where a simulate trace reads regret.drive and where the CSV is made: a trace
# holds no list of its rows, and the CSV of a long trace never exists whole.
_CHUNK = 256


class TraceRows(Sequence):
    """A ``simulate`` trace's CSV rows, built on demand from its columns: read-only.

    ``columns`` are the cells of ``TRACE_COLUMNS`` in order, each indexable by row: ``t`` a
    ``range``, the others memoryviews of float64 arrays (of a bool array for ``clipped``).  Each
    of ``bounds`` covers the rows ``t >= 2``; row 1's bound cells are ``math.nan``.  Rows are
    tuples of an int ``t``, float cells and a bool ``clipped``, and the whole equals the tuple of
    those tuples.
    """

    def __init__(self, columns, bounds):
        self._columns, self._bounds = tuple(columns), tuple(bounds)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self):
        return self._zip(self._columns)

    def _zip(self, columns):
        return zip(*columns, *(itertools.chain((math.nan,), b) for b in self._bounds))

    def csv_lines(self):
        """The rows' CSV lines, as ``_format_cell`` prints each cell, by one %-format: ``%d`` for
        ``t``, ``%s`` for ``clipped`` read as its text, ``%.17g`` for every other cell."""
        cells = ["%.17g"] * (len(self._columns) + len(self._bounds))
        cells[0], cells[_CLIPPED] = "%d", "%s"
        columns = list(self._columns)
        columns[_CLIPPED] = map(("false", "true").__getitem__, columns[_CLIPPED])
        return map(",".join(cells).__mod__, self._zip(columns))

    def __getitem__(self, i: int) -> tuple:
        i = range(len(self))[i]   # as a tuple reads i: from the end if negative, IndexError past it
        return (*(c[i] for c in self._columns),
                *(b[i - 1] if i else math.nan for b in self._bounds))

    def __eq__(self, other):
        if isinstance(other, (tuple, TraceRows)):
            return tuple(self) == tuple(other)
        return NotImplemented


def _run_gradient_stream(config: ExperimentConfig) -> ExperimentResult:
    """One learner's trace: :func:`regret.drive` is read ``_CHUNK`` rounds at a time into float64
    columns, then each requested bound prices the rows ``t >= 2`` as one column, after one
    regime check."""
    params = config.hyper_params()
    u = config.comparator()
    requested = [n for n in BOUNDS if n in config.bounds]
    header = TRACE_COLUMNS + tuple(f"bound_{n}" for n in requested)
    gradients = config.adversary_spec().gradient_stream(config.T)

    # a column per field drive() yields after t, but the m after g_t, which no row shows; filled a
    # chunk at a time, so a run that stops early fills only its first n rows
    kept = ("alpha_t", "m_t", "q_t", "delta_bar_t", "delta_t", "clipped", "regret_discounted",
            "maxV_t", "D_t", "q_after")
    columns = [np.empty(config.T, dtype=bool if name == "clipped" else np.float64) for name in kept]
    rounds, stop, n = drive(gradients, params, u), None, 0
    while stop is None:
        chunk = []
        try:   # extend keeps the rounds read before an error
            chunk.extend(itertools.islice(rounds, _CHUNK))
        except AdamFtrlError as exc:   # raised unless a bound fails at an earlier row
            stop = exc
        if not chunk:
            break
        _, *fields, _, q_after = zip(*chunk)
        for column, values in zip(columns, (*fields, q_after)):
            column[n:n + len(chunk)] = values
        n += len(chunk)
    g = np.array(gradients[1:n + 1])
    del rounds, gradients   # the stream is not held while the bounds are priced
    alpha, m, q, delta_bar, delta, clipped, regret, max_v, d_max, q_after = (
        column[:n] for column in columns)
    # a bound at row t reads the statistics after g_t: q_after, not the row's q_t
    stats = TraceStats(q_after[1:], max_v[1:], d_max[1:])
    reports = price_columns([BOUNDS[name].per_run(params, u) for name in requested], stats,
                            np.arange(2, n + 1), stop)

    # memoryviews read their cells as Python floats and bools
    rows = TraceRows((range(1, n + 1), *map(memoryview, (alpha, g, m, q, delta_bar, delta, clipped,
                                                         g * delta, regret, max_v, d_max))),
                     [memoryview(rep.total) for rep in reports])
    summary = _stream_summary(config, float(regret[-1]) if n else 0.0,
                              int(np.count_nonzero(clipped)),
                              [rep.row(-1) for rep in reports] if n >= 2 else [])
    return ExperimentResult(csv_header=header, csv_rows=rows, summary=summary)


def _run_stream_batch(points: list[ExperimentConfig]) -> ExperimentResult:
    """Gradient-stream points that differ only in ``beta1``/``beta2``, run on one learner axis.

    The stream is generated and checked once, then :func:`regret.drive_batch` runs every point
    on it, bit for bit as its own :func:`regret.drive` would, so each point's summary equals
    that of its own ``_run_gradient_stream``.  Bounds are evaluated once per point, at ``T``,
    and probed once at the statistics' running peaks.  Whenever a point's own run would raise,
    so does the batch, though maybe with another message; callers that need the exact error
    rerun the points one by one.
    """
    first = points[0]
    params = [c.hyper_params() for c in points]
    u, T = first.comparator(), first.T
    requested = [n for n in BOUNDS if n in first.bounds]
    schedules = list(dict.fromkeys(p.alpha for p in params))
    state = drive_batch(first.adversary_spec().gradient_stream(T),
                        np.array([p.beta1 for p in params]), np.array([p.beta2 for p in params]),
                        schedules, np.array([schedules.index(p.alpha) for p in params]),
                        first.domain, u)
    summaries = []
    for i, (config, hp) in enumerate(zip(points, params)):
        reports = []
        if T >= 2:
            evaluators = [BOUNDS[name].per_run(hp, u) for name in requested]
            stats = TraceStats(float(state.q[i]), float(state.max_v[i]), float(state.d_max[i]))
            reports = [evaluate(stats, T) for evaluate in evaluators]
            # Each total grows with q, max_v, d_max and t (theorem3's p^t, B's beta1^-t and
            # theorem1's 1/alpha_{t+1}; theorem1's coefficient is taken at its peak), so priced
            # at T with every statistic at its running peak it overflows if some row's did.
            peak = TraceStats(float(state.q_peak[i]), float(state.v_peak[i]),
                              float(state.d_max[i]), peak=True)
            for evaluate in evaluators:
                evaluate(peak, T)
        summaries.append(_stream_summary(config, float(state.r_disc[i]), int(state.clips[i]),
                                         reports))
    return _batch_result(first.adversary, summaries)


def _batch_result(adversary: str, summaries: list[dict]) -> ExperimentResult:
    """A batch's result: its points' sweep metrics as rows, their summaries as ``"points"``."""
    return ExperimentResult(
        csv_header=_sweep_metric_columns(adversary),
        csv_rows=tuple(_sweep_metrics(adversary, s) for s in summaries),
        summary={"points": summaries, "contracts_ok": all(s["contracts_ok"] for s in summaries)})


def _run_geometric(config: ExperimentConfig) -> ExperimentResult:
    result = run_tightness_experiment(config.ratio(), config.domain, config.kappa, config.v0,
                                      config.T, horizon=config.oracle_horizon)
    return ExperimentResult(csv_header=TRACE_COLUMNS + ("bound_B",), csv_rows=result.rounds,
                            summary=_geometric_summary(config, result))


def _run_geometric_batch(points: list[ExperimentConfig]) -> ExperimentResult:
    """Geometric points that differ only in ``kappa`` and ``T``: one tightness run per
    ``kappa``, at the largest ``T`` of its points, whose prefixes are the others
    (:func:`adversaries.run_tightness_horizons`)."""
    first = points[0]
    members: dict[float, list[int]] = {}
    for i, c in enumerate(points):
        members.setdefault(c.kappa, []).append(i)
    summaries: list = [None] * len(points)
    for kappa, indices in members.items():
        results = run_tightness_horizons(first.ratio(), first.domain, kappa, first.v0,
                                         [points[i].T for i in indices], first.oracle_horizon)
        for i, result in zip(indices, results):
            summaries[i] = _geometric_summary(points[i], result)
    return _batch_result("geometric", summaries)


def _geometric_summary(config: ExperimentConfig, result: TightnessResult) -> dict:
    D = config.domain
    contracts = {
        "no_clipping": not result.any_clipped,
        "prebar_within_half_domain": result.max_prebar <= D / 2.0 + 1e-12 * D,
        "regret_at_least_lower_bound": at_most(result.lower_bound, result.regret),
    }
    return {
        "adversary": "geometric",
        "T": config.T,
        "u": -D,
        "alpha": D / 4.0,
        "p": config.ratio(),
        "kappa": config.kappa,
        "v0": config.v0,
        "regret": result.regret,
        "lower_bound": result.lower_bound,
        "b_total": result.b_total,
        "ratio_regret_to_b": result.ratio,
        "max_prebar": result.max_prebar,
        "any_clipped": result.any_clipped,
        "clip_count": sum(r.clipped for r in result.rounds),
        "contracts": contracts,
        "contracts_ok": all(contracts.values()),
        "config": config.echo(),
        "version": __version__,
    }


def _run_nonoblivious(config: ExperimentConfig) -> ExperimentResult:
    """A pair batch of one, read with its rows; the ``a >= b^2`` warning is validation's."""
    ratio = config.ratio()
    beta1 = check_nonoblivious_regime(config.a, config.b, config.v, ratio, config.T,
                                      config.beta1, config.oracle_horizon)
    (trace,) = run_nonoblivious_pairs([(config.a, config.b)], config.v, ratio, beta1, config.T)
    result = trace.result(config.T)
    return ExperimentResult(csv_header=PAIR_COLUMNS, csv_rows=result.rounds,
                            summary=_pair_summary(config, result))


def _run_pair_batch(points: list[ExperimentConfig]) -> ExperimentResult:
    """Non-oblivious points that differ only in ``a``, ``b`` and ``T``: each distinct pair runs
    once, to the largest ``T`` of its points, as two columns of one gradient matrix
    (:func:`adversaries.run_nonoblivious_pairs`), and each point reads its first ``T`` rounds.
    Like a point's own run, a batch does not warn when ``a >= b^2``: validation does."""
    first = points[0]
    ratio = first.ratio()
    for c in points:   # all share beta1
        beta1 = check_nonoblivious_regime(c.a, c.b, c.v, ratio, c.T, c.beta1, c.oracle_horizon)
    members: dict[tuple[float, float], list[int]] = {}
    for i, c in enumerate(points):
        members.setdefault((c.a, c.b), []).append(i)
    summaries: list = [None] * len(points)
    runs = run_nonoblivious_pairs(list(members), first.v, ratio, beta1,
                                  max(c.T for c in points))
    for indices, trace in zip(members.values(), runs):
        for i in indices:   # each trace is read as soon as it is made, then dropped
            summaries[i] = _pair_summary(points[i], trace.totals(points[i].T))
    return _batch_result("nonoblivious", summaries)


def _pair_summary(config: ExperimentConfig, result: NonObliviousResult | PairTotals) -> dict:
    separation_expected = config.adversary_spec().separation_expected
    contracts_ok = True
    if separation_expected:
        contracts_ok = (result.per_round_strict
                        and result.regret_a < result.regret_aprime
                        and not result.any_clipped)
    return {
        "adversary": "nonoblivious",
        "T": config.T,
        "a": config.a,
        "b": config.b,
        "v": config.v,
        "p": config.ratio(),
        "regret_a": result.regret_a,
        "regret_aprime": result.regret_aprime,
        "per_round_strict": result.per_round_strict,
        "any_clipped": result.any_clipped,
        "separation_expected": separation_expected,
        "contracts_ok": contracts_ok,
        "config": config.echo(),
        "version": __version__,
    }


# Per adversary: the keys in which the points of one batch may differ, and the runner that
# runs such points all at once.
_BATCHES = {"fixed": (("beta1", "beta2"), _run_stream_batch),
            "random": (("beta1", "beta2"), _run_stream_batch),
            "geometric": (("kappa", "T"), _run_geometric_batch),
            "nonoblivious": (("a", "b", "T"), _run_pair_batch)}


def run_experiment(config: ExperimentConfig | list[ExperimentConfig]) -> ExperimentResult:
    """Drive one experiment to completion; deterministic given (config, seed).

    A config with a ``grid`` is a sweep template and is rejected: see :func:`sweep`.
    A list of configs of one adversary that differ only in its ``_BATCHES`` axes is a batch
    run, whose rows hold each point's sweep metrics and ``summary["points"]`` each point's
    summary: gradient-stream points that differ in ``beta1``/``beta2`` run on one learner
    axis (``_run_stream_batch``), geometric points that differ in ``kappa`` and ``T`` read one
    tightness run per ``kappa`` (``_run_geometric_batch``), and non-oblivious points that
    differ in ``a``, ``b`` and ``T`` run as columns of one gradient matrix
    (``_run_pair_batch``).
    """
    if isinstance(config, list):
        if not config:
            raise ConfigError("a batch needs one or more points")
        axes, runner = _BATCHES[config[0].adversary]
        shared = [v for k, v in vars(config[0]).items() if k not in axes]
        if any([v for k, v in vars(c).items() if k not in axes] != shared for c in config):
            raise ConfigError(f"points of a batch may differ only in {', '.join(axes)}")
        return runner(config)
    if config.grid:
        raise ConfigError("a config with a 'grid' runs only as a sweep")
    if config.adversary in ("fixed", "random"):
        return _run_gradient_stream(config)
    if config.adversary == "geometric":
        return _run_geometric(config)
    return _run_nonoblivious(config)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep(config: ExperimentConfig) -> ExperimentResult:
    """Run the config once per grid point; one summary row per point.

    Points whose derived config is invalid are reported as skipped with the
    reason, not errors.  Row order follows the cartesian product of the grid
    values in the order given, keyed by the sorted grid-field names.
    Points that differ only in their adversary's ``_BATCHES`` axes run as one
    batch; see :func:`_run_points`.  Each non-oblivious point with ``a >= b^2``
    warns once, in row order, as it validates.
    """
    if not config.grid:
        raise ConfigError("sweep needs a non-empty 'grid'")
    keys = sorted(config.grid)

    base = {k: v for k, v in config.__dict__.items() if k != "grid"}
    stream = config.adversary in ("fixed", "random")
    axes, _ = _BATCHES[config.adversary]
    # Checked once here, the gradients and an explicit alpha schedule are shared by every point
    # and not rescanned; if a check fails, each point is skipped with its own reason.
    if config.adversary == "fixed":
        with contextlib.suppress(ValueError):
            base["gradients"] = config.adversary_spec().gradients
    if stream and config.alpha_kind == "explicit":
        with contextlib.suppress(AdamFtrlError):
            base["alpha_values"] = config.alpha_schedule().values
    combos = list(itertools.product(*(config.grid[k] for k in keys)))
    outcomes: list = [None] * len(combos)   # per point: (metrics, summary), or why it skips
    batches: dict[str, list[tuple[int, ExperimentConfig]]] = {}
    for i, combo in enumerate(combos):
        try:
            derived = ExperimentConfig(**{**base, **{k: _parse(k, v) for k, v in zip(keys, combo)}})
            derived.validate()
        except (AdamFtrlError, ValueError) as exc:
            outcomes[i] = exc
            continue
        # a batch's points agree in every grid value but the axes, and all else is ``base``
        key = repr([v for k, v in zip(keys, combo) if k not in axes])
        batches.setdefault(key, []).append((i, derived))
    for members in batches.values():
        points = [point for _, point in members]
        for (i, _), outcome in zip(members, _run_points(config.adversary, points)):
            outcomes[i] = outcome

    metric_cols = _sweep_metric_columns(config.adversary)
    header = tuple(keys) + ("status",) + metric_cols
    rows = []
    ok_points = []
    for combo, outcome in zip(combos, outcomes):
        if isinstance(outcome, Exception):
            rows.append(tuple(combo) + (f"skipped: {outcome}",)
                        + tuple(math.nan for _ in metric_cols))
            continue
        metrics, summary = outcome
        rows.append(tuple(combo) + ("ok",) + metrics)
        ok_points.append((dict(zip(keys, combo)), summary))

    summary = {
        "sweep_keys": keys,
        "points_total": len(rows),
        "points_ok": len(ok_points),
        "contracts_ok": all(s.get("contracts_ok", True) for _, s in ok_points),
        "config": config.echo(),
        "version": __version__,
    }
    annotations = _argmin_annotations(config, keys, ok_points)
    if annotations is not None:
        summary["beta2_argmin"] = annotations
    return ExperimentResult(csv_header=header, csv_rows=tuple(rows), summary=summary)


def _run_points(adversary: str, points: list[ExperimentConfig]) -> list:
    """Each point's ``(metrics, summary)``, or the error that skips it.

    The points, which differ only in their adversary's batch axes, run as one batch.  A batch
    that raises is rerun one point at a time, each as its own ``run_experiment(point)``, so
    every skip reason is the point's own: only a point's own run sees, e.g., the first row at
    which a bound overflows.
    """
    try:   # not a batch runner: the benchmark's tracer times a batch as run_experiment
        batch = run_experiment(points)
        return list(zip(batch.csv_rows, batch.summary["points"]))
    except (AdamFtrlError, ValueError):
        pass
    outcomes = []
    for point in points:
        try:
            summary = run_experiment(point).summary
        except (AdamFtrlError, ValueError) as exc:
            outcomes.append(exc)
            continue
        outcomes.append((_sweep_metrics(adversary, summary), summary))
    return outcomes


def _sweep_metric_columns(adversary: str) -> tuple[str, ...]:
    if adversary in ("fixed", "random"):
        return ("regret_discounted",) + tuple(
            f"bound_{n}" for n in BOUNDS) + ("dominance_ok",)
    if adversary == "geometric":
        return ("regret", "lower_bound", "b_total", "ratio_regret_to_b", "any_clipped")
    return ("regret_a", "regret_aprime", "per_round_strict", "any_clipped")


def _sweep_metrics(adversary: str, summary: dict) -> tuple:
    if adversary in ("fixed", "random"):
        vals = [summary["regret_discounted"]]
        for name in BOUNDS:
            entry = summary["bounds"].get(name)
            vals.append(entry["total"] if entry else math.nan)
        vals.append(summary["contracts_ok"])
        return tuple(vals)
    return tuple(summary[c] for c in _sweep_metric_columns(adversary))


def _argmin_annotations(config: ExperimentConfig, keys, ok_points):
    """For each beta1, the grid beta2 minimizing the constant-alpha bound."""
    if "beta2" not in keys or "corollary1" not in config.bounds:
        return None
    groups: dict[float, tuple[float, float]] = {}
    for combo, summary in ok_points:
        entry = summary["bounds"].get("corollary1")
        if not entry:
            continue
        b1 = combo.get("beta1", config.beta1)
        cur = groups.get(b1)
        if cur is None or entry["total"] < cur[1]:
            groups[b1] = (combo["beta2"], entry["total"])
    return [
        {"beta1": b1, "argmin_beta2": b2, "bound_total": tot}
        for b1, (b2, tot) in sorted(groups.items())
    ]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_QUOTED = frozenset(',"\r\n')


def _format_cell(value) -> str:
    """A cell's CSV text: a float to 17 significant digits, ``true``/``false``, a null, list or
    object (a sweep's grid value) as its JSON text, else ``str``.  Text UTF-8 cannot encode (a
    lone surrogate) is backslash-escaped, and text that holds a ``,``, ``"``, CR or LF is
    quoted."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None or isinstance(value, (list, dict)):
        value = json.dumps(value)
    text = str(value).encode("utf-8", "backslashreplace").decode("utf-8")
    if not _QUOTED.isdisjoint(text):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _csv_chunks(result: ExperimentResult):
    """The CSV text in newline-ended blocks of ``_CHUNK`` lines, the header first: a trace prints
    its own lines, and every other row is its cells by ``_format_cell``."""
    rows = result.csv_rows
    lines = itertools.chain(
        (",".join(result.csv_header),),
        rows.csv_lines() if isinstance(rows, TraceRows)
        else (",".join(map(_format_cell, row)) for row in rows))
    while block := list(itertools.islice(lines, _CHUNK)):
        block.append("")   # the block's last newline
        yield "\n".join(block)


def render_csv(result: ExperimentResult) -> str:
    """The CSV text, one line per row."""
    return "".join(_csv_chunks(result))


def render_json(result: ExperimentResult) -> str:
    return json.dumps(result.summary, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_outputs(result: ExperimentResult, out_base: str | Path,
                  fmt: str = "both") -> list[Path]:
    """Write ``<out_base>.csv`` and/or ``<out_base>.json``; returns the paths.  The JSON text is
    rendered first, so a summary it cannot hold (a NaN) raises before any file is written."""
    base = Path(out_base)
    if base.parent and not base.parent.exists():
        raise ConfigError(f"output directory does not exist: {base.parent}")
    text = render_json(result) if fmt in ("json", "both") else None
    written = []
    try:
        if fmt in ("csv", "both"):
            path = base.with_suffix(".csv")
            with path.open("w", encoding="utf-8") as out:
                out.writelines(_csv_chunks(result))
            written.append(path)
        if text is not None:
            path = base.with_suffix(".json")
            path.write_text(text, encoding="utf-8")
            written.append(path)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs at {base}: {exc}") from exc
    return written
