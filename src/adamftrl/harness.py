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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .adversaries import (
    FixedSequence,
    GeometricSequence,
    NonObliviousPair,
    NonObliviousRound,
    RandomUniform,
    check_nonoblivious_regime,
    check_tightness_regime,
    run_nonoblivious_experiment,
    run_tightness_experiment,
)
from .bounds import BOUNDS, BoundReport, TraceStats, dominance_holds, price_columns
from .errors import (
    AdamFtrlError,
    ConfigError,
    DegenerateStateError,
    InvalidGradientError,
    RegimeError,
)
from .learner import (DEFAULT_ORACLE_HORIZON, REGIME_TOL, AlphaSchedule, CheckedAlphas, HyperParams,
                      alpha_at, at_most)
from .regret import drive

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
        for key in sorted(_KEYS.keys() - {"grid", "out"}):
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


_GRID_KEYS = ("beta1", "beta2", "kappa", "a", "b", "T")


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


# Rounds per block of a learner-axis batch: its per-round loop advances only the recurrences, into
# (_BLOCK + 1) x n arrays, and all work elementwise in t runs once per block on the block's rows.
_BLOCK = 128


def _run_stream_batch(points: list[ExperimentConfig]) -> ExperimentResult:
    """Gradient-stream points that differ only in ``beta1``/``beta2``, run on one learner axis.

    The numpy twin of :func:`regret.drive`, which is the reference it must match bit for bit.
    The stream is generated and checked once, then run in blocks of ``_BLOCK`` rounds over
    float64 arrays with one column per learner.  In a block, a per-round loop advances only the
    recurrences ``m = b1 m + g``, ``q = b2 q + g^2`` and ``maxV = max(b1 maxV, |g|)``, one row
    per round; the updates ``-a m / sqrt(q)``, their clip, ``D``, the running peaks and the
    regret terms ``g (delta - u)`` are then computed on all the block's rows at once, and a
    second per-round loop folds the terms into the regret ``r = b1 r + g (delta - u)``.  Only
    elementwise ``* + - / sqrt abs copysign`` (which round as Python floats do) and max
    reductions leave the per-round loops, and ``alpha_at`` (``pow``) stays scalar, once per
    round and distinct schedule, so each point's summary equals that of its own
    ``_run_gradient_stream`` bit for bit.  Memory is O(T + _BLOCK n), not O(T n).
    Bounds are evaluated once per point, at ``T``, and probed once at the statistics' running
    peaks.  Whenever a point's own run would raise, so does the batch, though maybe with
    another message; callers that need the exact error rerun the points one by one.  Rows are
    the points' sweep metrics; ``summary["points"]`` holds their summaries.
    """
    if not points or any(c.adversary not in ("fixed", "random") for c in points):
        raise ConfigError("a learner-axis batch needs one or more fixed or random points")
    first = points[0]
    shared = replace(first, beta1=None, beta2=None)   # what the points share: all but the betas
    if any(replace(c, beta1=None, beta2=None) != shared for c in points):
        raise ConfigError("points of a learner-axis batch may differ only in beta1 and beta2")
    params = [c.hyper_params() for c in points]
    u, T, D = first.comparator(), first.T, first.domain
    requested = [n for n in BOUNDS if n in first.bounds]
    n = len(points)
    b1 = np.array([p.beta1 for p in params])
    b2 = np.array([p.beta2 for p in params])
    gradients = np.array(first.adversary_spec().gradient_stream(T), dtype=np.float64)
    if not (np.isfinite(gradients).all() and gradients[0] != 0.0):
        raise InvalidGradientError("gradients must be finite, the first one nonzero")
    schedules = list(dict.fromkeys(p.alpha for p in params))
    which = np.array([schedules.index(p.alpha) for p in params])
    # Row 0 holds the state a block starts from, row j + 1 the state after its j-th gradient.
    # The state after g_0 is g_0, g_0^2 and |g_0|, as b * 0 + g = g exactly.
    M, Q, V = (np.zeros((_BLOCK + 1, n)) for _ in range(3))
    m_rows, q_rows, v_rows = list(M), list(Q), list(V)
    d_max, r_disc, clips, bar_peak = (np.zeros(n) for _ in range(4))
    with np.errstate(all="ignore"):   # Python floats overflow to inf silently too
        M[0], Q[0], V[0] = gradients[0], gradients[0] * gradients[0], abs(gradients[0])
        q_peak, v_peak = Q[0].copy(), V[0].copy()
        for t0 in range(1, T + 1, _BLOCK):   # rounds t0 .. t0 + k - 1
            g = gradients[t0:t0 + _BLOCK]
            k = len(g)
            for j, (g_t, g2_t, abs_t) in enumerate(zip(g.tolist(), (g * g).tolist(),
                                                       np.abs(g).tolist())):
                np.add(np.multiply(b1, m_rows[j], out=m_rows[j + 1]), g_t, out=m_rows[j + 1])
                np.add(np.multiply(b2, q_rows[j], out=q_rows[j + 1]), g2_t, out=q_rows[j + 1])
                np.maximum(np.multiply(b1, v_rows[j], out=v_rows[j + 1]), abs_t,
                           out=v_rows[j + 1])
            # Round t0 + j's update reads row j, the state after g_{t0+j-1}.  Rows 0 .. k-1 are
            # not read after it, so the update is computed in place in them; row k carries on.
            underflow = (Q[:k] <= 0.0).any(axis=1)
            if underflow.any():   # named after the first row at which some point's q is zero
                raise DegenerateStateError("second-moment accumulator underflows to zero after "
                                           f"g_{t0 + int(underflow.argmax()) - 1}")
            np.maximum(q_peak, np.maximum.reduce(Q[1:k + 1]), out=q_peak)
            np.maximum(v_peak, np.maximum.reduce(V[1:k + 1]), out=v_peak)
            neg_a = np.array([[-alpha_at(s, t) for s in schedules] for t in range(t0, t0 + k)],
                             dtype=np.float64)
            delta = np.multiply(neg_a if len(schedules) == 1 else neg_a[:, which], M[:k],
                                out=M[:k])
            np.divide(delta, np.sqrt(Q[:k], out=Q[:k]), out=delta)   # delta_bar = -a m / sqrt(q)
            if D is not None:   # clipped in place; a NaN or inf update leaves bar_peak non-finite
                size = np.abs(delta, out=Q[:k])
                np.maximum(bar_peak, np.maximum.reduce(size), out=bar_peak)
                clips += np.count_nonzero(size > D, axis=0)
                np.copysign(D, delta, out=delta, where=size > D)
            np.fmax(d_max, np.fmax.reduce(np.abs(delta, out=V[:k])), out=d_max)   # skips NaN
            np.multiply(np.subtract(delta, u, out=delta), g[:, None], out=delta)
            for c in delta:
                np.add(np.multiply(b1, r_disc, out=r_disc), c, out=r_disc)
            M[0], Q[0], V[0] = M[k], Q[k], V[k]
    q, max_v = Q[0], V[0]
    # all are sticky: beta2 * inf + g^2 stays inf, a running max keeps inf, and beta1 * r_disc
    # + finite stays non-finite.  Unclipped, an infinite delta_bar makes r_disc non-finite too.
    if not np.isfinite(q).all():
        raise DegenerateStateError("second-moment accumulator overflows")
    if not np.isfinite(bar_peak).all():
        raise DegenerateStateError("update delta_bar overflows")
    if not np.isfinite(r_disc).all():
        raise RegimeError("discounted regret overflows")

    rows, summaries = [], []
    for i, (config, hp) in enumerate(zip(points, params)):
        reports = []
        if T >= 2:
            evaluators = [BOUNDS[name].per_run(hp, u) for name in requested]
            stats = TraceStats(float(q[i]), float(max_v[i]), float(d_max[i]))
            reports = [evaluate(stats, T) for evaluate in evaluators]
            # Each total grows with q, max_v, d_max and t (theorem3's p^t, B's beta1^-t and
            # theorem1's 1/alpha_{t+1}; theorem1's coefficient is taken at its peak), so priced
            # at T with every statistic at its running peak it overflows if some row's did.
            peak = TraceStats(float(q_peak[i]), float(v_peak[i]), float(d_max[i]), peak=True)
            for evaluate in evaluators:
                evaluate(peak, T)
        summary = _stream_summary(config, float(r_disc[i]), int(clips[i]), reports)
        rows.append(_sweep_metrics(config.adversary, summary))
        summaries.append(summary)
    return ExperimentResult(
        csv_header=_sweep_metric_columns(first.adversary), csv_rows=tuple(rows),
        summary={"points": summaries, "contracts_ok": all(s["contracts_ok"] for s in summaries)})


def _run_geometric(config: ExperimentConfig) -> ExperimentResult:
    ratio = config.ratio()
    D = config.domain
    result = run_tightness_experiment(ratio, D, config.kappa, config.v0,
                                      config.T, horizon=config.oracle_horizon)
    contracts = {
        "no_clipping": not result.any_clipped,
        "prebar_within_half_domain": result.max_prebar <= D / 2.0 + 1e-12 * D,
        "regret_at_least_lower_bound": at_most(result.lower_bound, result.regret),
    }
    summary = {
        "adversary": "geometric",
        "T": config.T,
        "u": -D,
        "alpha": D / 4.0,
        "p": ratio,
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
    return ExperimentResult(csv_header=TRACE_COLUMNS + ("bound_B",), csv_rows=result.rounds,
                            summary=summary)


def _run_nonoblivious(config: ExperimentConfig) -> ExperimentResult:
    pair = config.adversary_spec()
    result = run_nonoblivious_experiment(pair.a, pair.b, pair.v, config.ratio(),
                                         config.T, beta1=config.beta1,
                                         horizon=config.oracle_horizon)
    separation_expected = pair.separation_expected
    contracts_ok = True
    if separation_expected:
        contracts_ok = (result.per_round_strict
                        and result.regret_a < result.regret_aprime
                        and not result.any_clipped)
    summary = {
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
    return ExperimentResult(csv_header=PAIR_COLUMNS, csv_rows=result.rounds, summary=summary)


def run_experiment(config: ExperimentConfig | list[ExperimentConfig]) -> ExperimentResult:
    """Drive one experiment to completion; deterministic given (config, seed).

    A config with a ``grid`` is a sweep template and is rejected: see :func:`sweep`.
    A list of ``fixed`` or ``random`` configs that differ only in ``beta1``/``beta2`` is a
    vector run: one learner-axis batch on their shared stream (``_run_stream_batch``), whose
    rows hold each point's sweep metrics and ``summary["points"]`` each point's summary.
    """
    if isinstance(config, list):
        return _run_stream_batch(config)
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
    Gradient-stream points that differ only in ``beta1``/``beta2`` run as one
    learner-axis batch; see :func:`_run_points`.
    """
    if not config.grid:
        raise ConfigError("sweep needs a non-empty 'grid'")
    keys = sorted(config.grid)

    base = {k: v for k, v in config.__dict__.items() if k != "grid"}
    stream = config.adversary in ("fixed", "random")
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
        # a batch's points agree in every grid value but the betas, and all else is ``base``
        key = repr([v for k, v in zip(keys, combo) if k not in ("beta1", "beta2")])
        batches.setdefault(key if stream else "", []).append((i, derived))
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

    Gradient-stream points, which share all but their betas, run as one batch.  A batch
    that raises is rerun one point at a time, so every skip reason is the point's own: only
    a point's own run sees, e.g., the first row at which a bound overflows.
    """
    if adversary in ("fixed", "random"):
        try:   # not _run_stream_batch: the benchmark's tracer times a batch as run_experiment
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
    """A cell's CSV text: a float to 17 significant digits, ``true``/``false``, else ``str``.
    Text UTF-8 cannot encode (a lone surrogate) is backslash-escaped, and text that holds a
    ``,``, ``"``, CR or LF is quoted."""
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
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
