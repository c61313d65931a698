"""Experiment configuration, drivers, and deterministic CSV/JSON serialization.

A configuration is a flat JSON object; one table, ``_KEYS``, parses each key's
value (unknown keys are rejected), and regime coherence is checked before
anything runs: the ``p <= 1`` bounds cannot be requested at ``p > 1``, the
decaying-alpha bound requires the matching schedule, and the order-level bound
requires a bounded domain within the oracle horizon.  Another table, ``ADVERSARIES``,
holds all that depends on the adversary kind: one row per kind.

Outputs are byte-stable: identical config and seed produce identical files.
Floats are serialized with 17 significant digits in CSV; JSON summaries use
sorted keys and round-trip floats.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import math
from collections.abc import Callable, Sequence
from operator import itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

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
    TightnessTotals,
    check_nonoblivious_regime,
    check_tightness_regime,
    run_nonoblivious_pairs,
    run_tightness_trace,
    warn_unless_separated,
)
from .bounds import BOUNDS, BoundReport, TraceStats, dominance_holds, price_columns
from .errors import AdamFtrlError, ConfigError
from .learner import (DEFAULT_ORACLE_HORIZON, PREBAR_TOL, REGIME_TOL, AlphaSchedule, CheckedAlphas,
                      HyperParams, at_most, check_beta)
from .regret import drive_batch, drive_trace

RNG_NAME = "numpy-pcg64"
# Largest T of a gradient stream: a run holds 48 bytes a round of state and 8 more per bound, so
# a run at the cap with two bounds peaks near 0.52 GB
MAX_STREAM_T = 8_000_000
TRACE_COLUMNS = (
    "t", "alpha_t", "g_t", "m_t", "q_t", "delta_bar_t", "delta_t", "clipped",
    "loss_discounted", "regret_discounted", "maxV_t", "D_t",
)
PAIR_COLUMNS = NonObliviousRound._fields


class ExperimentConfig(NamedTuple):
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
    grid: dict = MappingProxyType({})   # no grid; a read-only empty map that no config can change

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
        try:
            if self.T < 0:
                raise ConfigError(f"T must be >= 0, got {self.T}")
            if self.oracle_horizon < 1:
                raise ConfigError(f"oracle_horizon must be >= 1, got {self.oracle_horizon}")
            if self.domain is not None and not self.domain > 0:
                raise ConfigError(f"domain must be positive or 'unbounded', got {self.domain}")
            ADVERSARIES[self.adversary].check(self)
            if None not in (self.p, self.beta1, self.beta2):
                # ratio() reads p and hyper_params() the betas: both must name one regime
                derived = self.beta1 / math.sqrt(self.beta2) if self.beta2 > 0 else math.nan
                if not abs(self.p - derived) <= REGIME_TOL * derived:
                    raise ConfigError(
                        f"'p' = {self.p} disagrees with beta1/sqrt(beta2) = {derived}")
        except ConfigError:
            raise
        except (ValueError, AdamFtrlError) as exc:
            raise ConfigError(str(exc)) from exc
        if self.adversary == "nonoblivious":   # only a valid point warns, once per validation
            warn_unless_separated(self.a, self.b)

    def _validate_gradient_run(self) -> None:
        if self.T > MAX_STREAM_T:
            raise ConfigError(f"T must be <= {MAX_STREAM_T} for a gradient stream, got {self.T}")
        params = self.hyper_params()
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
        spec = self.adversary_spec()
        if isinstance(spec, FixedSequence):
            spec.gradient_stream(self.T)
        for name in self.bounds:
            BOUNDS[name].check(params)
            if name == "B" and self.T > self.oracle_horizon:
                raise ConfigError(
                    f"bound 'B' is undiscounted and needs T <= horizon ({self.oracle_horizon})"
                )

    def _validate_geometric(self) -> None:
        if self.domain is None:
            raise ConfigError("tightness runs need a bounded domain")
        if self.kappa is None or self.v0 is None:
            raise ConfigError("geometric adversary needs 'kappa' and 'v0'")
        self.adversary_spec()
        check_tightness_regime(self.ratio(), self.domain, self.kappa, self.v0, self.T,
                               self.oracle_horizon)

    def _validate_pair(self) -> None:
        for name in ("a", "b", "v"):
            if getattr(self, name) is None:
                raise ConfigError(f"nonoblivious adversary needs {name!r}")
        check_nonoblivious_regime(self.a, self.b, self.v, self.ratio(), self.T, self.beta1,
                                  self.oracle_horizon)

    # -- derived objects --------------------------------------------------

    def adversary_spec(self):
        """The adversary description object this config denotes."""
        return ADVERSARIES[self.adversary].spec(self)

    def ratio(self) -> float:
        """Momentum ratio p, from the 'p' key or derived from the betas."""
        if self.p is not None:
            return self.p
        if self.beta1 is None or self.beta2 is None:
            raise ConfigError("need either 'p' or both 'beta1' and 'beta2'")
        check_beta("beta2", self.beta2)   # HyperParams' rule, before the root and the division
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


class ExperimentResult(NamedTuple):
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
        entry = {key: val for key, val in rep._asdict().items() if key != "kind"}
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


# CSV lines per chunk of text: the CSV of a long trace never exists whole.  A trace's chunk is
# one block of the CSV kernel; at 256 rows its write peaks near 0.7 MiB, at 512 near 1.4 MiB.
_CHUNK = 256


class TraceRows(Sequence):
    """A ``simulate`` trace's CSV rows, built on demand from its :class:`regret.Trace` and each
    bound's column of totals, row ``t``'s at ``t - 1``, a block of ``_CHUNK`` rows at a time:
    read-only.  Rows are tuples of an int ``t``, float cells and a bool ``clipped`` (row 1's
    bound cells are ``math.nan``), and the whole equals the tuple of those tuples.
    """

    def __init__(self, trace, bounds):
        self._trace, self._bounds = trace, tuple(bounds)

    def __len__(self) -> int:
        return len(self._trace.g) - 1

    def blocks(self):
        """Each block's first row index and its cells as the columns :func:`_csv_blocks` prints,
        each bound's after ``TRACE_COLUMNS``': ``t`` as float64s, which print as its ints do."""
        s = self._trace
        for lo, hi, (delta_bar, clipped, delta, loss, d_max) in s.blocks(_CHUNK):
            now = slice(lo + 1, hi + 1)
            yield lo, [np.arange(lo + 1, hi + 1, dtype=float), s.alpha[now], s.g[now], s.m[lo:hi],
                       s.q[lo:hi], delta_bar, delta, clipped, loss, s.r_disc[now], s.max_v[now],
                       d_max, *(b[lo:hi] for b in self._bounds)]

    def __iter__(self):
        for lo, (t, *cells) in self.blocks():
            rows = zip(range(lo + 1, lo + 1 + len(t)), *(c.tolist() for c in cells))
            # row 1's bound cells are math.nan itself, as a tuple compares a NaN by identity
            for row in itertools.islice(rows, lo == 0):
                yield row[:len(TRACE_COLUMNS)] + (math.nan,) * len(self._bounds)
            yield from rows

    def __getitem__(self, i):
        i = range(len(self))[i]   # as a tuple reads i: from the end if negative, IndexError past it
        if isinstance(i, range):   # a slice: the tuple of its rows
            return tuple(map(self.__getitem__, i))
        lo, (_, *cells) = next(block for block in self.blocks() if i < block[0] + _CHUNK)
        row = (i + 1, *(c[i - lo].item() for c in cells))
        return row if i else row[:len(TRACE_COLUMNS)] + (math.nan,) * len(self._bounds)

    def __eq__(self, other):   # against a TraceRows, the reflected call compares the tuples
        return tuple(self) == other if isinstance(other, (tuple, TraceRows)) else NotImplemented


def _run_gradient_stream(config: ExperimentConfig) -> ExperimentResult:
    """One learner's trace: :func:`regret.drive_trace` runs it as its state, then each requested
    bound prices the rows ``t >= 2``, a block of the trace at a time."""
    params, u = config.hyper_params(), config.comparator()
    requested = [n for n in BOUNDS if n in config.bounds]
    trace, stop = drive_trace(config.adversary_spec().gradient_array(config.T), params, u)
    evaluators = [BOUNDS[name].per_run(params, u) for name in requested]
    n, clips = len(trace.g) - 1, 0
    totals = [np.full(n, math.nan) for _ in requested]   # row t's at t - 1; row 1 has none
    for lo, hi, (_, clipped, _, _, d_max) in trace.blocks():
        # a bound at row t reads the statistics after g_t, q[t], not the row's q_t; the trace's
        # error comes after the last row
        t = max(lo, 1) + 1
        reports = price_columns(evaluators, TraceStats(trace.q[t:hi + 1], trace.max_v[t:hi + 1],
                                                       d_max[t - lo - 1:]),
                                np.arange(t, hi + 1), stop if hi == n else None)
        for total, report in zip(totals, reports):
            total[t - 1:hi] = report.total
        clips += int(np.count_nonzero(clipped))
    summary = _stream_summary(config, float(trace.r_disc[-1]), clips,
                              [rep.row(-1) for rep in reports] if n >= 2 else [])
    return ExperimentResult(csv_header=TRACE_COLUMNS + tuple(f"bound_{n}" for n in requested),
                            csv_rows=TraceRows(trace, totals), summary=summary)


def _run_stream_batch(points: list[ExperimentConfig]) -> list[dict]:
    """Gradient-stream points that differ only in ``beta1``/``beta2``, run on one learner axis.

    The stream is generated and checked once, then :func:`regret.drive_batch` runs every point
    on it, bit for bit as its own :func:`regret.drive` would, so each point's summary equals
    that of its own ``_run_gradient_stream``, and the batch raises the first failing learner's
    own error (a schedule's error stops it at once).  Bounds are evaluated once per point, at
    ``T``, and probed once at the statistics' running peaks, so a bound may raise where the
    point's own run raises at another row, or does not raise.  Callers that need each point's
    exact error rerun the points one by one.
    """
    first = points[0]
    params = [c.hyper_params() for c in points]
    u, T = first.comparator(), first.T
    requested = [n for n in BOUNDS if n in first.bounds]
    state = drive_batch(first.adversary_spec().gradient_array(T), params, u)
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
    return summaries


def _stream_cells(summary: dict) -> tuple:
    bounds = summary["bounds"]
    return (summary["regret_discounted"],
            *(bounds[name]["total"] if bounds.get(name) else math.nan for name in BOUNDS),
            summary["contracts_ok"])


def _run_oracle(traces, header: tuple[str, ...], summarize, config: ExperimentConfig
                ) -> ExperimentResult:
    """An oracle kind's run: its batch of one, read with its rows by ``trace.result(T)``."""
    ((_, trace),) = traces([config])
    result = trace.result(config.T)
    return ExperimentResult(csv_header=header, csv_rows=result.rounds,
                            summary=summarize(config, result))


def _run_oracle_batch(traces, summarize, points: list[ExperimentConfig]) -> list[dict]:
    """Each point's summary, by ``trace.totals(T)`` at its ``T``: ``traces(points)`` checks every
    point's regime, then yields each point's index with the trace it reads."""
    summaries: list = [None] * len(points)
    for i, trace in traces(points):   # each trace is read as soon as it is made, then dropped
        summaries[i] = summarize(points[i], trace.totals(points[i].T))
    return summaries


def _geometric_traces(points: list[ExperimentConfig]):
    """Each ``kappa`` runs once, to the largest ``T`` of its points."""
    ratio, members = points[0].ratio(), {}
    for i, c in enumerate(points):
        check_tightness_regime(ratio, c.domain, c.kappa, c.v0, c.T, c.oracle_horizon)
        members.setdefault(c.kappa, []).append(i)
    for kappa, indices in members.items():
        trace = run_tightness_trace(ratio, points[0].domain, kappa, points[0].v0,
                                    max(points[i].T for i in indices))
        yield from ((i, trace) for i in indices)


def _geometric_summary(config: ExperimentConfig, result: TightnessTotals) -> dict:
    D = config.domain
    contracts = {
        "no_clipping": not result.any_clipped,
        "prebar_within_half_domain": result.max_prebar <= D / 2.0 + PREBAR_TOL * D,
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
        "clip_count": result.clip_count,
        "contracts": contracts,
        "contracts_ok": all(contracts.values()),
        "config": config.echo(),
        "version": __version__,
    }


def _pair_traces(points: list[ExperimentConfig]):
    """Each distinct pair runs once, to the largest ``T`` of the points, as two columns of one
    gradient matrix (:func:`adversaries.run_nonoblivious_pairs`).  Nothing warns when
    ``a >= b^2``: validation does."""
    ratio, members = points[0].ratio(), {}
    for i, c in enumerate(points):   # all share beta1
        beta1 = check_nonoblivious_regime(c.a, c.b, c.v, ratio, c.T, c.beta1, c.oracle_horizon)
        members.setdefault((c.a, c.b), []).append(i)
    runs = run_nonoblivious_pairs(list(members), points[0].v, ratio, beta1,
                                  max(c.T for c in points))
    for indices, trace in zip(members.values(), runs):
        yield from ((i, trace) for i in indices)


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


def _fixed_spec(config: ExperimentConfig) -> FixedSequence:
    if not config.gradients:
        raise ValueError("fixed adversary needs a 'gradients' list")
    return FixedSequence(config.gradients)


class Adversary(NamedTuple):
    """One adversary kind: everything the harness does that depends on the kind."""

    check: Callable    # config -> None; raises if the config is not a valid run of this kind
    spec: Callable     # config -> the adversary description object
    axes: tuple        # the keys in which the points of one batch may differ
    run: Callable      # config -> its ExperimentResult
    batch: Callable    # points -> each point's summary, all run at once
    columns: tuple     # a sweep row's metric columns
    metrics: Callable  # summary -> its cells in those columns


_STREAM_METRICS = ("regret_discounted", *(f"bound_{n}" for n in BOUNDS), "dominance_ok")
_GEOMETRIC_METRICS = ("regret", "lower_bound", "b_total", "ratio_regret_to_b", "any_clipped")
_PAIR_METRICS = ("regret_a", "regret_aprime", "per_round_strict", "any_clipped")

# The adversary kinds, written once: a config's 'adversary' names its row.
ADVERSARIES = {
    "fixed": Adversary(
        ExperimentConfig._validate_gradient_run, _fixed_spec, ("beta1", "beta2"),
        _run_gradient_stream, _run_stream_batch, _STREAM_METRICS, _stream_cells),
    "random": Adversary(
        ExperimentConfig._validate_gradient_run,
        lambda c: RandomUniform(seed=c.seed, distribution=c.distribution), ("beta1", "beta2"),
        _run_gradient_stream, _run_stream_batch, _STREAM_METRICS, _stream_cells),
    "geometric": Adversary(
        ExperimentConfig._validate_geometric, lambda c: GeometricSequence(v0=c.v0, kappa=c.kappa),
        ("kappa", "T"),
        functools.partial(_run_oracle, _geometric_traces, TRACE_COLUMNS + ("bound_B",),
                          _geometric_summary),
        functools.partial(_run_oracle_batch, _geometric_traces, _geometric_summary),
        _GEOMETRIC_METRICS, itemgetter(*_GEOMETRIC_METRICS)),
    "nonoblivious": Adversary(
        ExperimentConfig._validate_pair, lambda c: NonObliviousPair(a=c.a, b=c.b, v=c.v),
        ("a", "b", "T"),
        functools.partial(_run_oracle, _pair_traces, PAIR_COLUMNS, _pair_summary),
        functools.partial(_run_oracle_batch, _pair_traces, _pair_summary),
        _PAIR_METRICS, itemgetter(*_PAIR_METRICS)),
}


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
    "adversary": _one_of(*ADVERSARIES),
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
_NULLABLE = {key for key, value in ExperimentConfig._field_defaults.items() if value is None}


def _parse(key: str, value):
    """The run-time value of ``key``'s JSON value; a null is the key left out (``_NULLABLE``)."""
    return None if value is None and key in _NULLABLE else _KEYS[key](key, value)


def run_experiment(config: ExperimentConfig | list[ExperimentConfig]) -> ExperimentResult:
    """Drive one experiment to completion; deterministic given (config, seed).

    A config with a ``grid`` is a sweep template (see :func:`sweep`) and is rejected, alone or
    in a list.  A list of configs of one adversary that differ only in its row's ``axes`` is a
    batch run, whose rows hold each point's sweep metrics and ``summary["points"]`` each point's
    summary, each equal to the point's own run's.
    """
    if any(c.grid for c in (config if isinstance(config, list) else [config])):
        raise ConfigError("a config with a 'grid' runs only as a sweep")
    if not isinstance(config, list):
        return ADVERSARIES[config.adversary].run(config)
    if not config:
        raise ConfigError("a batch needs one or more points")
    row = ADVERSARIES[config[0].adversary]
    shared = [v for k, v in config[0]._asdict().items() if k not in row.axes]
    if any([v for k, v in c._asdict().items() if k not in row.axes] != shared for c in config):
        raise ConfigError(f"points of a batch may differ only in {', '.join(row.axes)}")
    summaries = row.batch(config)
    return ExperimentResult(
        csv_header=row.columns, csv_rows=tuple(map(row.metrics, summaries)),
        summary={"points": summaries, "contracts_ok": all(s["contracts_ok"] for s in summaries)})


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def sweep(config: ExperimentConfig) -> ExperimentResult:
    """Run the config once per grid point; one summary row per point.

    Points whose derived config is invalid are reported as skipped with the
    reason, not errors.  Row order follows the cartesian product of the grid
    values in the order given, keyed by the sorted grid-field names.
    Points that differ only in their adversary's axes run as one batch; see
    :func:`_run_points`.  Each non-oblivious point with ``a >= b^2`` warns
    once, in row order, as it validates.
    """
    if not config.grid:
        raise ConfigError("sweep needs a non-empty 'grid'")
    keys = sorted(config.grid)

    base = {k: v for k, v in config._asdict().items() if k != "grid"}
    row = ADVERSARIES[config.adversary]
    # Checked once here, the gradients and an explicit alpha schedule are shared by every point
    # and not rescanned; if a check fails, each point is skipped with its own reason.
    if config.adversary == "fixed":
        with contextlib.suppress(ValueError):
            base["gradients"] = config.adversary_spec().gradients
    if config.alpha_kind == "explicit":
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
        key = repr([v for k, v in zip(keys, combo) if k not in row.axes])
        batches.setdefault(key, []).append((i, derived))
    for members in batches.values():
        points = [point for _, point in members]
        for (i, _), outcome in zip(members, _run_points(row, points)):
            outcomes[i] = outcome

    header = tuple(keys) + ("status",) + row.columns
    rows = []
    ok_points = []
    for combo, outcome in zip(combos, outcomes):
        if isinstance(outcome, Exception):
            rows.append(tuple(combo) + (f"skipped: {outcome}",)
                        + tuple(math.nan for _ in row.columns))
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


def _run_points(row: Adversary, points: list[ExperimentConfig]) -> list:
    """Each point's ``(metrics, summary)``, or the error that skips it.

    The points, which differ only in ``row.axes``, run as one batch.  A batch that raises is
    rerun one point at a time, each as its own ``run_experiment(point)``, so every skip reason
    is the point's own: only a point's own run sees, e.g., the first row at which a bound
    overflows.
    """
    try:   # not row.batch: the benchmark's tracer times a batch as run_experiment
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
        outcomes.append((row.metrics(summary), summary))
    return outcomes


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


# The trace's CSV kernel.  Each cell of a block is printed in a row of _SLOTS bytes at fixed
# places: a sign, the "0." and "000" of a fixed-notation number below 1, 17 digits each followed
# by a point (none after the last), and the separator.  A cell's key picks the mask of the bytes
# it prints: a fast float's key is (its exponent + 4, its sign, the number of digits it prints),
# and a text written over the cell's first bytes (a bool's, a slow float's) has its length as
# key.  A block prints as its byte matrix with every byte its cell does not print set to NUL, and
# the NULs deleted.
_SLOTS = 40
_DIGITS, _POINTS = slice(6, 39, 2), slice(7, 38, 2)
_TEXT_KEYS = 21 * 2 * 17


class _CellTables(NamedTuple):
    cell: np.ndarray        # a cell's bytes: "-0.000", 17 digits and 16 points, and ","
    masks: np.ndarray       # (key, slot): 255 where the key prints the slot, else 0
    flags: np.ndarray       # (2, 5): "false", and "true" with a byte it does not print
    groups: np.ndarray      # uint32: 0..9999's four ASCII digits
    scale: np.ndarray       # 10.0**k, exact, k = 0..20
    pow5: np.ndarray        # uint64 5**k, below 2**47


@functools.cache
def _cell_tables() -> _CellTables:
    """The kernel's tables, built on the first CSV block, by numpy arithmetic."""
    x = np.arange(-4, 17)[:, None, None, None]       # the exponent
    neg = np.arange(2)[:, None, None]
    keep = np.arange(1, 18)[:, None]                  # 17 less the trailing zeros of the digits
    fast = np.zeros((21, 2, 17, _SLOTS), bool)
    fast[..., :1] = neg
    fast[..., 1:3] = x < 0
    fast[..., 3:6] = np.arange(3) < -1 - x
    fast[..., _DIGITS] = np.arange(17) < np.maximum(keep, x + 1)   # all the integer's digits
    fast[..., _POINTS] = (np.arange(16) == x) & (keep > x + 1)
    masks = np.concatenate([fast.reshape(-1, _SLOTS),
                            np.arange(_SLOTS) < np.arange(_SLOTS)[:, None]])
    masks[:, -1] = True
    masks = masks.view(np.uint8) * np.uint8(255)
    group = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    k = np.arange(21)
    return _CellTables(np.frombuffer(b"-0.000" + b"0." * 16 + b"0,", np.uint8), masks,
                       np.frombuffer(b"falsetrue,", np.uint8).reshape(2, 5),
                       group.astype(np.uint8).view(np.uint32)[:, 0], 10.0 ** k,
                       5 ** k.astype(np.uint64))


def _exact_digits(x: np.ndarray):
    """``%.17g``'s digits of each float64 in ``x`` that prints in fixed notation, exactly.

    Returns ``(n, e, fast)``: where ``fast``, ``'%.17g' % x`` is the 17 digits of the integer
    ``n`` in [10**16, 10**17), the first at place ``10**e``, with the trailing zeros of its
    decimals dropped.  ``n`` is ``|x| 10**k`` rounded half to even, ``k = 16 - e`` in 0..20 and
    ``e = floor(log10 |x|)`` in -4..16.  Write ``|x| = f 2**e2`` with ``f`` the 53-bit
    significand: then ``|x| 10**k = f 5**k / 2**s`` with ``s = -(e2 + k)``, and for ``s`` in
    1..56 the wrapping ``uint64`` product ``f 5**k mod 2**64`` holds all ``s`` fraction bits and
    ``floor(|x| 10**k) mod 2**(64 - s)``.  As ``log10`` is off by at most one, ``|x| 10**k`` is
    below 10**18 < 2**60, so the float64 product ``|x| * 10.0**k`` (``10.0**k`` is exact) is
    within 64 of it, and its truncation within 65 of the floor: with ``2**(64 - s) >= 256``, the
    floor is the one integer of its residue within 128 of that truncation.  A cell outside all
    this is not ``fast``: a zero, a subnormal, NaN, an infinity, ``e`` outside -4..16 (scientific
    notation, or a ``log10`` off by one), ``s`` outside 1..56, or a rounded ``n`` outside
    [10**16, 10**17).  Every lane is sanitized before a float is cast to an integer, so nothing
    warns.
    """
    tables = _cell_tables()
    a = np.abs(x)
    fast = np.isfinite(a) & (a >= 2.2250738585072014e-308)
    e = np.floor(np.log10(np.where(fast, a, 1.0))).astype(np.int64)
    fast &= (e >= -4) & (e <= 16)
    k = np.where(fast, 16 - e, 0)
    estimate = (np.where(fast, a, 0.0) * tables.scale[k]).astype(np.uint64)
    bits = a.view(np.uint64)
    s = 1075 - (bits >> np.uint64(52)).astype(np.int64) - k
    fast &= (s >= 1) & (s <= 56)
    s = np.where(fast, s, 1).astype(np.uint64)
    one = np.uint64(1)
    product = ((bits & np.uint64(2**52 - 1)) | np.uint64(2**52)) * tables.pow5[k]
    fraction, half, modulus = product & ((one << s) - one), one << (s - one), one << (64 - s)
    step = ((product >> s) - estimate) & (modulus - one)
    n = estimate + step - np.where(step >= modulus >> one, modulus, np.uint64(0))
    n += (fraction > half) | ((fraction == half) & (n & one).astype(bool))
    fast &= (n >= np.uint64(10**16)) & (n < np.uint64(10**17))
    return n, e, fast


def _print_digits(n: np.ndarray, cells: np.ndarray) -> None:
    """Write each uint64 of ``n`` (below 10**17) as 17 zero-padded digits in its cell's slots."""
    tables = _cell_tables()
    top = n // np.uint64(10**16)
    rest = n - top * np.uint64(10**16)
    high = rest // np.uint64(10**8)
    low = rest - high * np.uint64(10**8)
    quads = np.empty(n.shape + (4,), np.intp)
    quads[..., 0], quads[..., 1] = np.divmod(high, np.uint64(10**4))
    quads[..., 2], quads[..., 3] = np.divmod(low, np.uint64(10**4))
    digits = cells[..., _DIGITS]
    digits[..., 0] = top + np.uint64(ord("0"))
    digits[..., 1:] = np.take(tables.groups, quads).view(np.uint8)


def _csv_blocks(blocks):
    """Each block's CSV text, its rows newline-ended: ``blocks`` yields lists of equal-length
    1-D columns, of bools (printed ``true``/``false``) or float64s (``%.17g``; an integer below
    2**53 prints as ``%d`` prints it), the same kinds in every block and no block longer than
    the first.

    One matrix of bytes, made for the first block, prints every block.  A float that
    :func:`_exact_digits` cannot prove is printed by ``_format_cell`` itself, so every cell reads
    as ``_format_cell`` prints it."""
    tables, matrix = _cell_tables(), None
    for columns in blocks:
        rows = len(columns[0])
        if matrix is None:
            width = len(columns)
            flags = [j for j, c in enumerate(columns) if c.dtype.kind == "b"]
            floats = np.array([c.dtype.kind == "f" for c in columns])
            matrix, values = np.empty((rows, width, _SLOTS), np.uint8), np.empty((rows, width))
            matrix[...] = tables.cell
            matrix[:, -1, -1] = ord("\n")
        cells, x = matrix[:rows], values[:rows]
        for j, column in enumerate(columns):
            x[:, j] = column
        n, e, fast = _exact_digits(x)
        n[~fast] = 10**16   # any 17 digits: the cell prints a text
        _print_digits(n, cells)
        keys = ((e + 4) * 2 + (x < 0)) * 17 + 16 - np.argmax(
            cells[..., _DIGITS][..., ::-1] != ord("0"), axis=-1)    # its trailing zeros
        for j in flags:
            cells[:, j, :5] = np.take(tables.flags, columns[j], axis=0)
            keys[:, j] = _TEXT_KEYS + 5 - columns[j]
        slow = np.nonzero(~fast & floats)
        if len(slow[0]):
            texts = list(map(_format_cell, x[slow].tolist()))
            lengths = np.fromiter(map(len, texts), np.intp, len(texts))
            keys[slow] = _TEXT_KEYS + lengths
            joined = np.frombuffer("".join(texts).encode("ascii"), np.uint8)
            starts = (slow[0] * width + slow[1]) * _SLOTS - (np.cumsum(lengths) - lengths)
            cells.reshape(-1)[np.arange(len(joined)) + np.repeat(starts, lengths)] = joined
        text = np.take(tables.masks, keys, axis=0)
        np.bitwise_and(text, cells, out=text)   # a NUL in each slot the cell does not print
        yield text.tobytes().translate(None, b"\0").decode("ascii")
        if len(slow[0]):
            cells[slow[0], slow[1], :-1] = tables.cell[:-1]   # the separators were not written


def _csv_chunks(result: ExperimentResult):
    """The CSV text in newline-ended blocks of ``_CHUNK`` lines after the header's line: a trace
    prints its own blocks, and every other row is its cells by ``_format_cell``."""
    rows = result.csv_rows
    yield ",".join(result.csv_header) + "\n"
    if isinstance(rows, TraceRows):
        yield from _csv_blocks(cells for _, cells in rows.blocks())
        return
    lines = (",".join(map(_format_cell, row)) for row in rows)
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
