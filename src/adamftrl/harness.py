"""Experiment configuration, drivers, and deterministic CSV/JSON serialization.

A configuration is a flat JSON object; the documented key set is validated up
front (unknown keys are rejected) and regime coherence is checked before
anything runs: the ``p <= 1`` bounds cannot be requested at ``p > 1``, the
decaying-alpha bound requires the matching schedule, and the order-level bound
requires a bounded domain within the oracle horizon.

Outputs are byte-stable: identical config and seed produce identical files.
Floats are serialized with 17 significant digits in CSV; JSON summaries use
sorted keys and round-trip floats.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .adversaries import (
    FixedSequence,
    GeometricSequence,
    NonObliviousPair,
    RandomUniform,
    check_nonoblivious_regime,
    check_tightness_regime,
    run_nonoblivious_experiment,
    run_tightness_experiment,
)
from .bounds import (BOUNDS, BoundReport, TraceStats, bound_b_undiscounted, dominance_holds,
                     price_columns)
from .errors import (
    AdamFtrlError,
    ConfigError,
    DegenerateStateError,
    InvalidGradientError,
    RegimeError,
)
from .learner import DEFAULT_ORACLE_HORIZON, AlphaSchedule, HyperParams, alpha_at, at_most
from .regret import drive

RNG_NAME = "numpy-pcg64"
TRACE_COLUMNS = (
    "t", "alpha_t", "g_t", "m_t", "q_t", "delta_bar_t", "delta_t", "clipped",
    "loss_discounted", "regret_discounted", "maxV_t", "D_t",
)
PAIR_COLUMNS = (
    "t", "loss_a", "delta_a", "f_a", "loss_aprime", "delta_aprime", "f_aprime", "strict",
)


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
        unknown = set(raw) - _KNOWN_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        d = dict(raw)
        if "adversary" not in d:
            raise ConfigError("config needs an 'adversary' kind")
        if "gradients" in d and d["gradients"] is not None:
            d["gradients"] = tuple(float(g) for g in d["gradients"])
        if "alpha_values" in d and d["alpha_values"] is not None:
            d["alpha_values"] = tuple(float(v) for v in d["alpha_values"])
        if "bounds" in d:
            d["bounds"] = tuple(d["bounds"])
        if "domain" in d and d["domain"] == "unbounded":
            d["domain"] = None
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
        if self.adversary not in ("fixed", "random", "geometric", "nonoblivious"):
            raise ConfigError(f"unknown adversary kind {self.adversary!r}")
        if self.T < 0:
            raise ConfigError(f"T must be >= 0, got {self.T}")
        if self.format not in ("csv", "json", "both"):
            raise ConfigError(f"format must be csv|json|both, got {self.format!r}")
        if self.oracle_horizon < 1:
            raise ConfigError(f"oracle_horizon must be >= 1, got {self.oracle_horizon}")
        if self.domain is not None and not self.domain > 0:
            raise ConfigError(f"domain must be positive or 'unbounded', got {self.domain}")
        unknown_bounds = set(self.bounds) - set(BOUNDS)
        if unknown_bounds:
            raise ConfigError(f"unknown bounds requested: {sorted(unknown_bounds)}")
        if self.adversary in ("fixed", "random"):
            self._validate_gradient_run()
        elif self.adversary == "geometric":
            self._validate_geometric()
        else:
            self._validate_nonoblivious()

    def _validate_gradient_run(self) -> None:
        try:
            params = self.hyper_params()
        except (ValueError, AdamFtrlError) as exc:
            raise ConfigError(str(exc)) from exc
        if self.u == "negD":
            if self.domain is None:
                raise ConfigError("'negD' comparator needs a bounded domain")
        elif self.domain is not None and abs(float(self.u)) > self.domain:
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
        if self.alpha_kind == "explicit":
            if not self.alpha_values:
                raise ConfigError("explicit alpha needs 'alpha_values'")
            return AlphaSchedule.explicit(self.alpha_values)
        raise ConfigError(f"unknown alpha_kind {self.alpha_kind!r}")

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
        for key in sorted(_KNOWN_KEYS - {"grid", "out"}):
            val = getattr(self, key, None)
            if isinstance(val, tuple):
                val = list(val)
            out[key] = val
        out["domain"] = "unbounded" if self.domain is None else self.domain
        out["rng"] = RNG_NAME
        return out


_KNOWN_KEYS = {f.name for f in fields(ExperimentConfig)}


@dataclass(frozen=True)
class ExperimentResult:
    """Rows ready for CSV plus a JSON-safe summary."""

    csv_header: tuple[str, ...]
    csv_rows: tuple[tuple, ...]
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


def _run_gradient_stream(config: ExperimentConfig) -> ExperimentResult:
    """One learner's trace: :func:`regret.drive` gives the per-round columns, then each
    requested bound prices the rows ``t >= 2`` as one column, after one regime check."""
    params = config.hyper_params()
    u = config.comparator()
    requested = [n for n in BOUNDS if n in config.bounds]
    header = TRACE_COLUMNS + tuple(f"bound_{n}" for n in requested)
    gradients = config.adversary_spec().gradient_stream(config.T)

    alpha, m, q, delta_bar, delta, clipped, regret, max_v, d_max, q_after = (
        [] for _ in range(10))
    stop = None
    try:
        for _, m_t, q_t, out, state, ledger in drive(gradients, params, u):
            alpha.append(out.alpha_t)
            m.append(m_t)
            q.append(q_t)
            delta_bar.append(out.delta_bar)
            delta.append(out.delta)
            clipped.append(out.clipped)
            regret.append(ledger.r_disc)
            max_v.append(state.max_v)
            d_max.append(state.d_max)
            q_after.append(state.q)
    except AdamFtrlError as exc:   # raised unless a bound fails at an earlier row
        stop = exc
    n = len(alpha)
    # a bound at row t reads the statistics after g_t: q_after, not the row's q_t
    stats = TraceStats(np.array(q_after[1:]), np.array(max_v[1:]), np.array(d_max[1:]))
    reports = price_columns([BOUNDS[name].per_run(params, u) for name in requested], stats,
                            np.arange(2, n + 1), stop)

    g = gradients[1:n + 1]
    bound_cells = [[math.nan] + rep.total.tolist() for rep in reports]
    rows = tuple(zip(range(1, n + 1), alpha, g, m, q, delta_bar, delta, clipped,
                     map(operator.mul, g, delta), regret, max_v, d_max, *bound_cells))
    summary = _stream_summary(config, regret[-1] if n else 0.0, sum(clipped),
                              [rep.row(-1) for rep in reports] if n >= 2 else [])
    return ExperimentResult(csv_header=header, csv_rows=rows, summary=summary)


def _shared_run(config: ExperimentConfig) -> ExperimentConfig:
    """What points of one learner-axis batch share: the config less its betas."""
    return replace(config, beta1=None, beta2=None)


def _run_stream_batch(points: list[ExperimentConfig]) -> ExperimentResult:
    """Gradient-stream points that differ only in ``beta1``/``beta2``, run on one learner axis.

    The numpy twin of :func:`regret.drive`, which is the reference it must match bit for bit.
    The stream is generated and checked once; one time loop then advances float64 arrays
    indexed by learner.  numpy's ``* + / sqrt abs maximum fmax copysign`` round exactly as
    Python floats do, and ``alpha_at`` (``pow``) stays scalar, once per round and distinct
    schedule, so each point's summary equals that of its own ``_run_gradient_stream`` bit for
    bit.
    Bounds are evaluated once per point, at ``T``, and probed once at the statistics' running
    peaks.  Whenever a point's own run would raise, so does the batch, though maybe with
    another message; callers that need the exact error rerun the points one by one.  Rows are
    the points' sweep metrics; ``summary["points"]`` holds their summaries.
    """
    if not points or any(c.adversary not in ("fixed", "random") for c in points):
        raise ConfigError("a learner-axis batch needs one or more fixed or random points")
    first = points[0]
    if any(_shared_run(c) != _shared_run(first) for c in points):
        raise ConfigError("points of a learner-axis batch may differ only in beta1 and beta2")
    params = [c.hyper_params() for c in points]
    u, T, D = first.comparator(), first.T, first.domain
    requested = [n for n in BOUNDS if n in first.bounds]
    n = len(points)
    b1 = np.array([p.beta1 for p in params])
    b2 = np.array([p.beta2 for p in params])
    # float64 clip counts are exact below 2^53; an int64 += bool loop adds ~0.3 MB of peak RSS
    m, q, max_v, d_max, r_disc, clips, q_peak, v_peak, bar_peak = (np.zeros(n) for _ in range(9))
    gradients = first.adversary_spec().gradient_stream(T)
    if not (np.isfinite(gradients).all() and gradients[0] != 0.0):
        raise InvalidGradientError("gradients must be finite, the first one nonzero")
    schedules = list(dict.fromkeys(p.alpha for p in params))
    which = np.array([schedules.index(p.alpha) for p in params])
    with np.errstate(all="ignore"):   # Python floats overflow to inf silently too
        for t in range(T + 1):
            g_t = gradients[t]
            if t >= 1:
                if np.any(q <= 0.0):
                    raise DegenerateStateError(
                        f"second-moment accumulator underflows to zero after g_{t - 1}")
                alphas = [alpha_at(s, t) for s in schedules]
                a_t = alphas[0] if len(alphas) == 1 else np.array(alphas)[which]
                delta = delta_bar = -a_t * m / np.sqrt(q)
                if D is not None:
                    size = np.abs(delta_bar)
                    np.maximum(bar_peak, size, out=bar_peak)
                    delta = np.where(size <= D, delta_bar, np.copysign(D, delta_bar))
                    clips += size > D
                d_max = np.fmax(d_max, np.abs(delta))   # like max(), never takes a NaN
                r_disc = b1 * r_disc + g_t * (delta - u)
            m = b1 * m + g_t
            q = b2 * q + g_t * g_t
            max_v = np.maximum(b1 * max_v, abs(g_t))
            np.maximum(q_peak, q, out=q_peak)
            np.maximum(v_peak, max_v, out=v_peak)
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
    header = TRACE_COLUMNS + ("bound_B",)
    rows = []
    losses = config.adversary_spec().losses(config.T)
    running_regret = 0.0
    running_num = 0.0      # sum of raw losses seen by the minimizer
    # sum of (ratio^s v_s)^2 for the q_t column: a running float sum, not
    # learner.root_sum_of_squares (a sqrt of an fsum), whose rounding would change the CSV
    running_den = 0.0
    running_maxv = abs(losses[0])
    running_dmax = 0.0

    for r in result.rounds:
        running_num += losses[r.t - 1]
        running_den += (ratio ** (r.t - 1) * losses[r.t - 1]) ** 2
        running_maxv = max(running_maxv, abs(r.loss))
        running_dmax = max(running_dmax, abs(r.delta))
        running_regret += r.loss * (r.delta + D)
        b_here = bound_b_undiscounted(losses[: r.t + 1], ratio, -D, D / 4.0, D).total
        rows.append((
            r.t, D / 4.0, r.loss, running_num, running_den,
            r.delta_bar, r.delta, r.clipped,
            r.loss * r.delta, running_regret, running_maxv, running_dmax,
            b_here,
        ))

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
    return ExperimentResult(csv_header=header, csv_rows=tuple(rows), summary=summary)


def _run_nonoblivious(config: ExperimentConfig) -> ExperimentResult:
    pair = config.adversary_spec()
    result = run_nonoblivious_experiment(pair.a, pair.b, pair.v, config.ratio(),
                                         config.T, beta1=config.beta1,
                                         horizon=config.oracle_horizon)
    rows = tuple(
        (r.t, r.loss_a, r.delta_a, r.f_a, r.loss_aprime, r.delta_aprime,
         r.f_aprime, r.strict)
        for r in result.rounds
    )
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
    return ExperimentResult(csv_header=PAIR_COLUMNS, csv_rows=rows, summary=summary)


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

_GRID_KEYS = ("beta1", "beta2", "kappa", "a", "b", "T")


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
    if config.adversary not in ("fixed", "random", "geometric", "nonoblivious"):
        raise ConfigError(f"unknown adversary kind {config.adversary!r}")
    unknown = set(config.grid) - set(_GRID_KEYS)
    if unknown:
        raise ConfigError(f"grid keys must be among {_GRID_KEYS}, got {sorted(unknown)}")
    keys = sorted(config.grid)
    value_lists = [list(config.grid[k]) for k in keys]
    if any(not vals for vals in value_lists):
        raise ConfigError("grid value lists must be non-empty")

    base = {k: v for k, v in config.__dict__.items() if k != "grid"}
    combos = list(itertools.product(*value_lists))
    outcomes: list = [None] * len(combos)   # per point: (metrics, summary), or why it skips
    batches: dict[str, list[tuple[int, ExperimentConfig]]] = {}
    stream = config.adversary in ("fixed", "random")
    for i, combo in enumerate(combos):
        try:
            derived = ExperimentConfig(**{**base, **dict(zip(keys, combo))})
            derived.validate()
        except (AdamFtrlError, ValueError) as exc:
            outcomes[i] = exc
            continue
        batches.setdefault(repr(_shared_run(derived)) if stream else "", []).append((i, derived))
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
        try:
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

def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


# Cells of these types go straight into a row's %-format; any other cell (bools, strings that
# may need quoting) is formatted by _format_cell first and passed as %s.
_CELL_FORMATS = {int: "%d", float: "%.17g", np.float64: "%.17g"}


def render_csv(result: ExperimentResult) -> str:
    """The CSV text, one line per row, each by the one %-format of its row's cell types."""
    lines, formats = [",".join(result.csv_header)], {}
    for row in result.csv_rows:
        types = tuple(map(type, row))
        if types not in formats:
            formats[types] = (",".join(_CELL_FORMATS.get(t, "%s") for t in types),
                              [i for i, t in enumerate(types) if t not in _CELL_FORMATS])
        text, slow = formats[types]
        if slow:
            row = list(row)
            for i in slow:
                row[i] = _format_cell(row[i])
            row = tuple(row)
        lines.append(text % row)
    lines.append("")
    return "\n".join(lines)


def render_json(result: ExperimentResult) -> str:
    return json.dumps(result.summary, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_outputs(result: ExperimentResult, out_base: str | Path,
                  fmt: str = "both") -> list[Path]:
    """Write ``<out_base>.csv`` and/or ``<out_base>.json``; returns the paths."""
    base = Path(out_base)
    if base.parent and not base.parent.exists():
        raise ConfigError(f"output directory does not exist: {base.parent}")
    written = []
    try:
        if fmt in ("csv", "both"):
            path = base.with_suffix(".csv")
            path.write_text(render_csv(result), encoding="utf-8")
            written.append(path)
        if fmt in ("json", "both"):
            path = base.with_suffix(".json")
            path.write_text(render_json(result), encoding="utf-8")
            written.append(path)
    except OSError as exc:
        raise ConfigError(f"cannot write outputs at {base}: {exc}") from exc
    return written
