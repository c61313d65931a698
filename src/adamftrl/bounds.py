"""Regret upper bounds, evaluated in discounted scale with per-term breakdown.

All discounted bounds consume the learner's statistics taken after the
round-``T`` loss was ingested (gradients ``g_0..g_T`` seen), at which point

    q     = sum_{t=0..T} beta2^(T-t) g_t^2
    max_v = max_{t=0..T} beta1^(T-t) |g_t|

are exactly the sums appearing on the right-hand sides.  The comparator and
variance terms share one square root; the report stores the split.

Stable re-anchorings used here, all exact algebra:

* general non-increasing-alpha bound, ``p <= 1``:
  ``beta1^T sqrt(sum beta2^(-t) g_t^2) = p^T sqrt(q)`` and
  ``(max_t alpha_t p^(-t)) p^T = max_t alpha_t p^(T-t)``;
* exponential-decay bound, ``p >= 1``:
  ``sqrt(sum beta1^(2T) beta2^(-t) g_t^2) = p^T sqrt(q)``.

Each bound from statistics prices one round ``T`` from float statistics, or a block of a run's
rows at once from columns: ``T`` is then a rising int array and the statistics are float64 arrays
of the same length.  The same code does both.  numpy's elementwise ``+ * / sqrt`` round exactly as
Python floats do, and the powers ``p^T`` and ``beta1^-T`` stay Python's ``pow``, so a column
holds the per-row totals bit for bit.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import AdamFtrlError, RegimeError, ScheduleError
from .learner import (REGIME_TOL, HyperParams, LearnerState, alpha_at, at_most, pow_or_inf,
                      root_sum_of_squares)

# theorem1 terms this far (relative) below the largest never lead again: ~40 ulps.
_TIE_TOL = 1e-14


class TraceStats(NamedTuple):
    """Discounted trace statistics a bound needs: ``q``, ``max_v``, ``d_max``.

    Each is a float, or a float64 column with one entry per row priced.  ``peak`` marks
    running maxima over a run's rows; theorem1 then takes its coefficient at its running
    maximum too.
    """

    q: float | np.ndarray
    max_v: float | np.ndarray
    d_max: float | np.ndarray
    peak: bool = False

    @classmethod
    def from_state(cls, state: LearnerState) -> "TraceStats":
        return cls(q=state.q, max_v=state.max_v, d_max=state.d_max)

    def head(self, n: int) -> "TraceStats":
        """The first ``n`` rows of column statistics."""
        return self._replace(q=self.q[:n], max_v=self.max_v[:n], d_max=self.d_max[:n])


class BoundReport(NamedTuple):
    """One evaluated bound: total plus its comparator/variance/max split.

    Priced over a column of rows, each value is a float64 column; :meth:`row` takes one row.
    """

    kind: str
    total: float | np.ndarray
    term_comparator: float | np.ndarray
    term_variance: float | np.ndarray
    term_max: float | np.ndarray
    scale: str

    def row(self, i: int) -> "BoundReport":
        """Row ``i`` of a column report, as floats."""
        return BoundReport(self.kind, float(self.total[i]), float(self.term_comparator[i]),
                           float(self.term_variance[i]), float(self.term_max[i]), self.scale)


def _report(kind, T, comparator, variance, term_max, scale, stop=None) -> BoundReport:
    """The one overflow rule: a total that is not finite raises, at the first row ``T`` priced
    (one round, or a column of them).

    ``stop`` is an error met at the row after the last one priced; it raises once the rows
    before it are found finite.  Either error carries its row as ``row``, so that
    :func:`price_columns` can order the errors of several bounds.
    """
    total = comparator + variance + term_max
    if isinstance(total, np.ndarray):
        bad = np.flatnonzero(~np.isfinite(total))
    else:   # math.isfinite: this runs once per row of a tightness run
        bad = [] if math.isfinite(total) else [0]
    if len(bad):
        row = np.ravel(T)[bad[0]]
        stop = RegimeError(
            f"bound {kind!r} overflows: its total leaves the float range at T = {row}")
        stop.row = row
    if stop is not None:
        raise stop
    return BoundReport(kind, total, comparator, variance, term_max, scale)


def _sqrt(x):
    """``sqrt`` of a float or of a column; both round correctly, so alike."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _powers(base: float, T):
    """``base ** T`` for a round or each round of a column by Python's ``pow``, which numpy's
    ``power`` need not match bit for bit; ``inf`` where it overflows."""
    if isinstance(T, np.ndarray):
        return np.array([pow_or_inf(base, t) for t in T.tolist()])
    return pow_or_inf(base, T)


def _priced(bound):
    """Checks a bound's round ``T``, and prices a column of rounds with numpy's overflow and
    invalid warnings off: as Python floats overflow to ``inf``, and give ``0 * inf = nan``,
    silently."""
    @functools.wraps(bound)
    def price(params: HyperParams, stats: TraceStats, u: float, T, *args) -> BoundReport:
        if isinstance(T, np.ndarray):   # a rising column of rounds >= 1
            with np.errstate(all="ignore"):
                return bound(params, stats, u, T, *args)
        if not T >= 1:
            raise ValueError(f"need T >= 1, got {T}")
        return bound(params, stats, u, T, *args)
    return price


# Regime checks: the one place each bound's rule is written.  Validation runs them
# before a run starts; each bound function runs its own on every call.

def _check_p_at_most_one(name: str, params: HyperParams) -> None:
    if not params.p <= 1.0 + REGIME_TOL:
        raise RegimeError(f"bound {name!r} needs p <= 1, got p = {params.p}")


def check_theorem1(params: HyperParams) -> None:
    _check_p_at_most_one("theorem1", params)


def check_corollary1(params: HyperParams) -> None:
    _check_p_at_most_one("corollary1", params)
    if params.alpha.kind != "constant":
        raise ScheduleError("bound 'corollary1' needs a constant alpha")


def check_theorem3(params: HyperParams) -> None:
    if not params.p >= 1.0 - REGIME_TOL:
        raise RegimeError(f"bound 'theorem3' needs p >= 1, got p = {params.p}")
    if params.alpha.kind != "exponential_decay":
        raise ScheduleError("bound 'theorem3' needs alpha_kind 'exponential_decay'")
    if not abs(params.alpha.ratio - params.p) <= REGIME_TOL * max(1.0, params.p):
        raise ScheduleError(f"schedule decay ratio {params.alpha.ratio} must equal p = {params.p}")


def check_b(params: HyperParams) -> None:
    if params.D is None:
        raise RegimeError("bound 'B' needs a bounded domain")
    if not params.p <= 1.0 + REGIME_TOL:
        raise RegimeError("bound 'B' needs p <= 1 and constant alpha")
    if params.alpha.kind != "constant":
        raise ScheduleError("bound 'B' needs p <= 1 and constant alpha")


class Theorem1Coefficient:
    """``alpha_{T+1}`` and ``coeff = max_{1<=t<=T} alpha_t p^(T-t)``, carried from T to T + 1.

    Terms keep their ratios as T grows, so rounds ``_TIE_TOL`` below the largest are
    dropped for good; the rest (usually one) are re-evaluated as a full scan would, so
    ``coeff`` equals that scan bit for bit while the terms stay normal floats.  ``peak`` is
    the largest ``coeff`` at any T so far, as ``coeff`` falls while alpha decays at p < 1.

    A constant alpha at ``p <= 1.0`` exactly is closed form, with no walk: at every ``T >= 1``,
    ``alpha_{T+1}``, ``coeff`` and ``peak`` are ``alpha``.  The newest term is
    ``alpha * p**0 = alpha``, and for ``k >= 1`` ``p**k <= 1.0``, so ``fl(alpha * p**k) <= alpha``:
    the full scan's max is ``alpha`` bit for bit.  ``kept`` is then ``[(T, alpha)]``, which the
    walk would price alike.  At ``p`` in ``(1, 1 + REGIME_TOL]`` the older terms lead, so the
    gate is ``p <= 1.0``, not the regime check's slack.
    """

    def __init__(self, params: HyperParams):
        self.schedule, self.p, self.T, self.coeff, self.peak = params.alpha, params.p, 0, 0.0, 0.0
        self.alpha_next = alpha_at(params.alpha, 1)
        self.kept: list[tuple[int, float]] = []   # (t, alpha_t) that may still lead
        self.closed = params.alpha.kind == "constant" and params.p <= 1.0

    def walk(self, rows, peak: bool, alphas, coeffs) -> None:
        """Walks to each round ``rows[i]`` (rising), its state in locals, writing ``alpha_{T+1}``
        to ``alphas[i]`` and the coefficient at ``T``, or its peak if ``peak``, to ``coeffs[i]``.
        An error carries the row it was met on the way to as ``row``, after the rows before it."""
        schedule, p, keep, closed = self.schedule, self.p, 1.0 - _TIE_TOL, self.closed
        T, a_next, coeff, top, kept = self.T, self.alpha_next, self.coeff, self.peak, self.kept
        try:
            for i, row in enumerate(rows):
                if row < T:
                    raise ValueError(f"cannot move back from T={T} to {row}")
                if closed and row > T:   # see the class doc
                    T, coeff, top = row, a_next, a_next
                while T < row:
                    T += 1
                    a_t, a_next = a_next, alpha_at(schedule, T + 1)
                    if not a_next <= a_t:
                        raise ScheduleError(f"alpha must be non-increasing, got {a_t} -> {a_next}")
                    kept.append((T, a_t))
                    terms = [a * p ** (T - t) for t, a in kept]
                    coeff = max(terms)
                    top = coeff if coeff > top else top
                    kept = [k for k, term in zip(kept, terms) if term >= coeff * keep]
                    if p == 1.0:  # each term is then its alpha at every T, and the first leads
                        del kept[1:]
                alphas[i] = a_next
                coeffs[i] = top if peak else coeff
        except AdamFtrlError as exc:
            exc.row = row
            raise
        finally:
            if closed and T:
                kept = [(T, a_next)]
            self.T, self.alpha_next, self.coeff, self.peak, self.kept = T, a_next, coeff, top, kept

    def advance_to(self, T: int) -> None:
        self.walk((T,), False, [0.0], [0.0])


@_priced
def bound_theorem1_discounted(params: HyperParams, stats: TraceStats, u: float,
                              T, running: Theorem1Coefficient | None = None) -> BoundReport:
    """General discounted bound for ``p <= 1`` and any non-increasing alpha.

    total = (u^2 / alpha_{T+1}) sqrt(q)
          + (sqrt(6 beta2) / (2 beta1)) (max_{1<=t<=T} alpha_t p^(T-t)) sqrt(q)
          + 7 d_max max_v

    ``running`` carries the coefficient across a run's rows, a column in one walk, which writes
    into two float64 arrays (no float object per row); without it a call costs O(T).  A schedule
    error at some row is raised once the rows before it are priced.
    """
    check_theorem1(params)
    running, stop = running or Theorem1Coefficient(params), None
    if not isinstance(T, np.ndarray):
        alphas, coeffs = [0.0], [0.0]
        running.walk((T,), stats.peak, alphas, coeffs)
        (alpha_next,), (coeff,) = alphas, coeffs
    else:
        alpha_next, coeff = np.empty(len(T)), np.empty(len(T))
        try:
            running.walk(T.tolist(), stats.peak, alpha_next, coeff)
        except AdamFtrlError as exc:   # the rows before exc.row are written
            stop, n = exc, int(np.searchsorted(T, exc.row))
            T, stats, alpha_next, coeff = T[:n], stats.head(n), alpha_next[:n], coeff[:n]
    root_q = _sqrt(stats.q)
    comparator = u * u / alpha_next * root_q
    variance = math.sqrt(6.0 * params.beta2) / (2.0 * params.beta1) * coeff * root_q
    return _report("theorem1", T, comparator, variance, 7.0 * stats.d_max * stats.max_v,
                   "discounted", stop)


@_priced
def bound_corollary1_discounted(params: HyperParams, stats: TraceStats, u: float,
                                T) -> BoundReport:
    """Constant-alpha specialization of the general ``p <= 1`` bound.

    total = (u^2/alpha + alpha sqrt(6 beta2) / (2 beta1)) sqrt(q) + 7 d_max max_v
    """
    check_corollary1(params)
    a = params.alpha.alpha
    root_q = _sqrt(stats.q)
    comparator = u * u / a * root_q
    variance = a * math.sqrt(6.0 * params.beta2) / (2.0 * params.beta1) * root_q
    return _report("corollary1", T, comparator, variance, 7.0 * stats.d_max * stats.max_v,
                   "discounted")


@_priced
def bound_theorem3_discounted(params: HyperParams, stats: TraceStats, u: float,
                              T) -> BoundReport:
    """Discounted bound for ``p >= 1`` with ``alpha_t = alpha / p^(t-1)``.

    total = (u^2/alpha + alpha sqrt(6)/2) p^T sqrt(q) + 7 d_max max_v
    """
    check_theorem3(params)
    a = params.alpha.alpha
    root = _powers(params.p, T) * _sqrt(stats.q)
    comparator = u * u / a * root
    variance = a * math.sqrt(6.0) / 2.0 * root
    return _report("theorem3", T, comparator, variance, 7.0 * stats.d_max * stats.max_v,
                   "discounted")


def bound_b_undiscounted(losses, ratio: float, u: float, alpha: float,
                         D: float) -> BoundReport:
    """Order-level bound on the raw loss sequence, undiscounted scale.

    total = (u^2/alpha + alpha/ratio) ratio^(-T) sqrt(sum_t (ratio^t v_t)^2)
          + D max_t |v_t|

    with ``losses = (v_0..v_T)``.  This is the object the tightness experiment
    compares realized regret against; it uses the domain half-width ``D``, not
    the realized ``d_max``.
    """
    if len(losses) < 1:
        raise ValueError("need at least the round-0 loss")
    if not 0.0 < ratio <= 1.0 + REGIME_TOL:
        raise RegimeError(f"order-level bound needs 0 < ratio <= 1, got {ratio}")
    if not D > 0:
        raise ValueError(f"domain half-width must be positive, got {D}")
    return bound_b_from_radical(root_sum_of_squares(losses, ratio, len(losses)),
                                max(abs(v) for v in losses), ratio, u, alpha, D, len(losses) - 1)


def bound_b_from_radical(radical: float, max_v: float, ratio: float, u: float, alpha: float,
                         D: float, T: int) -> BoundReport:
    """:func:`bound_b_undiscounted` at round ``T`` from its two loss statistics,
    ``radical = sqrt(sum_{t<=T} (ratio^t v_t)^2)`` and ``max_v = max_{t<=T} |v_t|``, which a
    run carries from row to row; the regime is the caller's to check."""
    comparator = u * u / alpha * pow_or_inf(ratio, -T) * radical
    variance = alpha / ratio * pow_or_inf(ratio, -T) * radical
    return _report("B", T, comparator, variance, D * max_v, "undiscounted")


@_priced
def bound_b_from_stats(params: HyperParams, stats: TraceStats, u: float,
                       T) -> BoundReport:
    """The same order-level bound recovered from discounted statistics.

    Uses ``sqrt(sum (p^t v_t)^2) = beta1^(-T) sqrt(q)`` and
    ``max |v_t| = beta1^(-T) max_v``; only meaningful at small ``T`` where
    ``beta1^(-T)`` is benign.
    """
    check_b(params)
    a = params.alpha.alpha
    scale = _powers(params.beta1, -T)
    radical = scale * _sqrt(stats.q)
    comparator = u * u / a * radical
    variance = a / params.p * radical
    return _report("B", T, comparator, variance, params.D * scale * stats.max_v, "undiscounted")


class BoundSpec(NamedTuple):
    """A bound's regime check and its per-run evaluator ``(params, u) -> (stats, T) -> report``.

    An evaluator prices one round, or a run's rows at once as columns (see the module doc).
    """

    check: Callable[[HyperParams], None]
    per_run: Callable[[HyperParams, float], Callable[[TraceStats, int], BoundReport]]


def _theorem1_per_run(params: HyperParams, u: float):
    running = Theorem1Coefficient(params)   # carried across the run's rows: O(1) per row
    return lambda stats, T: bound_theorem1_discounted(params, stats, u, T, running)


# Every bound a run can request, in output column order.
BOUNDS = {
    "theorem1": BoundSpec(check_theorem1, _theorem1_per_run),
    "corollary1": BoundSpec(check_corollary1, lambda params, u: lambda stats, T:
                            bound_corollary1_discounted(params, stats, u, T)),
    "theorem3": BoundSpec(check_theorem3, lambda params, u: lambda stats, T:
                          bound_theorem3_discounted(params, stats, u, T)),
    "B": BoundSpec(check_b, lambda params, u: lambda stats, T:
                   bound_b_from_stats(params, stats, u, T)),
}


def price_columns(evaluators, stats: TraceStats, T: np.ndarray, stop=None) -> list[BoundReport]:
    """Each per-run evaluator's column report over the rows ``T`` (a rising int column).

    Raises what pricing row by row, every evaluator in turn at each row, would raise first:
    the error at the earliest row, of the first evaluator at that row; else ``stop``, an
    error met after the last row (the driver's).
    """
    reports, n = [], len(T)
    for evaluate in evaluators:
        try:
            reports.append(evaluate(stats.head(n), T[:n]))
        except AdamFtrlError as exc:
            # later evaluators lose at its row, so they price only the rows before it; an error
            # with no row (a regime check) comes at the first row
            stop, n = exc, int(np.searchsorted(T, exc.row)) if hasattr(exc, "row") else 0
    if stop is not None:
        raise stop
    return reports


def dominance_holds(regret_discounted: float, report: BoundReport) -> bool:
    """One-sided check ``regret <= total``, by :func:`learner.at_most`."""
    return at_most(regret_discounted, report.total)
