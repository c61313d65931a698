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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import RegimeError, ScheduleError
from .learner import (REGIME_TOL, HyperParams, LearnerState, alpha_at, at_most, pow_or_inf,
                      root_sum_of_squares)

# theorem1 terms this far (relative) below the largest never lead again: ~40 ulps.
_TIE_TOL = 1e-14


@dataclass(frozen=True)
class TraceStats:
    """Discounted trace statistics a bound needs: ``q``, ``max_v``, ``d_max``.

    ``peak`` marks running maxima over a run's rows; theorem1 then takes its coefficient at
    its running maximum too.
    """

    q: float
    max_v: float
    d_max: float
    peak: bool = False

    @classmethod
    def from_state(cls, state: LearnerState) -> "TraceStats":
        return cls(q=state.q, max_v=state.max_v, d_max=state.d_max)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: total plus its comparator/variance/max split."""

    kind: str
    total: float
    term_comparator: float
    term_variance: float
    term_max: float
    scale: str


def _report(kind, T, comparator, variance, term_max, scale) -> BoundReport:
    """The one overflow rule: a total that is not finite raises, at the row ``T`` priced."""
    total = comparator + variance + term_max
    _require(math.isfinite(total), RegimeError,
             f"bound {kind!r} overflows: its total leaves the float range at T = {T}")
    return BoundReport(kind, total, comparator, variance, term_max, scale)


def _require(cond: bool, exc: type[Exception], msg: str) -> None:
    if not cond:
        raise exc(msg)


# Regime checks: the one place each bound's rule is written.  Validation runs them
# before a run starts; each bound function runs its own on every call.

def _check_p_at_most_one(name: str, params: HyperParams) -> None:
    _require(params.p <= 1.0 + REGIME_TOL, RegimeError,
             f"bound {name!r} needs p <= 1, got p = {params.p}")


def check_theorem1(params: HyperParams) -> None:
    _check_p_at_most_one("theorem1", params)


def check_corollary1(params: HyperParams) -> None:
    _check_p_at_most_one("corollary1", params)
    _require(params.alpha.kind == "constant", ScheduleError,
             "bound 'corollary1' needs a constant alpha")


def check_theorem3(params: HyperParams) -> None:
    _require(params.p >= 1.0 - REGIME_TOL, RegimeError,
             f"bound 'theorem3' needs p >= 1, got p = {params.p}")
    _require(params.alpha.kind == "exponential_decay", ScheduleError,
             "bound 'theorem3' needs alpha_kind 'exponential_decay'")
    _require(abs(params.alpha.ratio - params.p) <= REGIME_TOL * max(1.0, params.p),
             ScheduleError,
             f"schedule decay ratio {params.alpha.ratio} must equal p = {params.p}")


def check_b(params: HyperParams) -> None:
    _require(params.D is not None, RegimeError, "bound 'B' needs a bounded domain")
    _require(params.p <= 1.0 + REGIME_TOL, RegimeError,
             "bound 'B' needs p <= 1 and constant alpha")
    _require(params.alpha.kind == "constant", ScheduleError,
             "bound 'B' needs p <= 1 and constant alpha")


class Theorem1Coefficient:
    """``alpha_{T+1}`` and ``coeff = max_{1<=t<=T} alpha_t p^(T-t)``, carried from T to T + 1.

    Terms keep their ratios as T grows, so rounds ``_TIE_TOL`` below the largest are
    dropped for good; the rest (usually one) are re-evaluated as a full scan would, so
    ``coeff`` equals that scan bit for bit while the terms stay normal floats.  ``peak`` is
    the largest ``coeff`` at any T so far, as ``coeff`` falls while alpha decays at p < 1.
    """

    def __init__(self, params: HyperParams):
        self.schedule, self.p, self.T = params.alpha, params.p, 0
        self.coeff = self.peak = 0.0
        self.alpha_next = alpha_at(params.alpha, 1)
        self.kept: list[tuple[int, float]] = []   # (t, alpha_t) that may still lead

    def advance_to(self, T: int) -> None:
        _require(T >= self.T, ValueError, f"cannot move back from T={self.T} to {T}")
        while self.T < T:
            self.T += 1
            a_t, self.alpha_next = self.alpha_next, alpha_at(self.schedule, self.T + 1)
            _require(self.alpha_next <= a_t, ScheduleError,
                     f"alpha must be non-increasing, got {a_t} -> {self.alpha_next}")
            self.kept.append((self.T, a_t))
            terms = [a * self.p ** (self.T - t) for t, a in self.kept]
            self.coeff = max(terms)
            self.peak = max(self.peak, self.coeff)
            self.kept = [k for k, term in zip(self.kept, terms)
                         if term >= self.coeff * (1.0 - _TIE_TOL)]
            if self.p == 1.0:  # each term is then its alpha at every T, and the first leads
                del self.kept[1:]


def bound_theorem1_discounted(params: HyperParams, stats: TraceStats, u: float,
                              T: int, running: Theorem1Coefficient | None = None) -> BoundReport:
    """General discounted bound for ``p <= 1`` and any non-increasing alpha.

    total = (u^2 / alpha_{T+1}) sqrt(q)
          + (sqrt(6 beta2) / (2 beta1)) (max_{1<=t<=T} alpha_t p^(T-t)) sqrt(q)
          + 7 d_max max_v

    ``running`` carries the coefficient across one run's rows; without it a call costs O(T).
    """
    check_theorem1(params)
    _require(T >= 1, ValueError, f"need T >= 1, got {T}")
    running = running or Theorem1Coefficient(params)
    running.advance_to(T)
    root_q = math.sqrt(stats.q)
    comparator = u * u / running.alpha_next * root_q
    coeff = running.peak if stats.peak else running.coeff
    variance = math.sqrt(6.0 * params.beta2) / (2.0 * params.beta1) * coeff * root_q
    return _report("theorem1", T, comparator, variance, 7.0 * stats.d_max * stats.max_v,
                   "discounted")


def bound_corollary1_discounted(params: HyperParams, stats: TraceStats, u: float,
                                T: int) -> BoundReport:
    """Constant-alpha specialization of the general ``p <= 1`` bound.

    total = (u^2/alpha + alpha sqrt(6 beta2) / (2 beta1)) sqrt(q) + 7 d_max max_v
    """
    check_corollary1(params)
    _require(T >= 1, ValueError, f"need T >= 1, got {T}")
    a = params.alpha.alpha
    root_q = math.sqrt(stats.q)
    comparator = u * u / a * root_q
    variance = a * math.sqrt(6.0 * params.beta2) / (2.0 * params.beta1) * root_q
    return _report("corollary1", T, comparator, variance, 7.0 * stats.d_max * stats.max_v,
                   "discounted")


def bound_theorem3_discounted(params: HyperParams, stats: TraceStats, u: float,
                              T: int) -> BoundReport:
    """Discounted bound for ``p >= 1`` with ``alpha_t = alpha / p^(t-1)``.

    total = (u^2/alpha + alpha sqrt(6)/2) p^T sqrt(q) + 7 d_max max_v
    """
    check_theorem3(params)
    _require(T >= 1, ValueError, f"need T >= 1, got {T}")
    a = params.alpha.alpha
    root = pow_or_inf(params.p, T) * math.sqrt(stats.q)
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
    _require(len(losses) >= 1, ValueError, "need at least the round-0 loss")
    _require(0.0 < ratio <= 1.0 + REGIME_TOL, RegimeError,
             f"order-level bound needs 0 < ratio <= 1, got {ratio}")
    _require(D > 0, ValueError, f"domain half-width must be positive, got {D}")
    T = len(losses) - 1
    radical = root_sum_of_squares(losses, ratio, len(losses))
    comparator = u * u / alpha * pow_or_inf(ratio, -T) * radical
    variance = alpha / ratio * pow_or_inf(ratio, -T) * radical
    return _report("B", T, comparator, variance, D * max(abs(v) for v in losses),
                   "undiscounted")


def bound_b_from_stats(params: HyperParams, stats: TraceStats, u: float,
                       T: int) -> BoundReport:
    """The same order-level bound recovered from discounted statistics.

    Uses ``sqrt(sum (p^t v_t)^2) = beta1^(-T) sqrt(q)`` and
    ``max |v_t| = beta1^(-T) max_v``; only meaningful at small ``T`` where
    ``beta1^(-T)`` is benign.
    """
    check_b(params)
    a = params.alpha.alpha
    scale = pow_or_inf(params.beta1, -T)
    radical = scale * math.sqrt(stats.q)
    comparator = u * u / a * radical
    variance = a / params.p * radical
    return _report("B", T, comparator, variance, params.D * scale * stats.max_v, "undiscounted")


class BoundSpec(NamedTuple):
    """A bound's regime check and its per-run evaluator ``(params, u) -> (stats, T) -> report``."""

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


def dominance_holds(regret_discounted: float, report: BoundReport) -> bool:
    """One-sided check ``regret <= total``, by :func:`learner.at_most`."""
    return at_most(regret_discounted, report.total)
