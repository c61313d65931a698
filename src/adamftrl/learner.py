"""Scalar Adam-style learner and its follow-the-regularized-leader twin.

The learner ingests a stream of gradients ``g_0, g_1, ...`` and, in round
``t >= 1``, proposes the update

    delta_t = -alpha_t * (sum_s beta1^(t-1-s) g_s) / sqrt(sum_s beta2^(t-1-s) g_s^2)

with both sums over ``s = 0..t-1``.  This is Adam without bias correction and
without a denominator epsilon: the first gradient is required to be nonzero,
which keeps the second-moment accumulator positive in exact arithmetic (a float
``q`` that underflows to 0 stops the run), and no ``m_hat`` or ``v_hat``
rescaling is ever applied.

The same update is the minimizer of a regularized linear objective

    F_t(x) = x^2 / (2 eta_t) + (sum_s beta1^(-s) g_s) x,
    eta_t  = alpha_t * p^(t-1) / sqrt(sum_s beta2^(-s) g_s^2),   p = beta1/sqrt(beta2)

clipped to the decision interval ``[-D, D]``.  The undiscounted sums inside
``eta_t`` blow up exponentially with ``t``, so this FTRL form is kept only as
a short-horizon oracle for cross-checking; all long-horizon state lives in the
discounted accumulators ``m`` and ``q``, which the FTRL form reduces to
algebraically.  In particular ``eta_t == alpha_t * beta1^(t-1) / sqrt(q_t)``,
so the stable path never forms the undiscounted sums.

Rounds are indexed so that the update of round ``t`` sees ``g_0..g_{t-1}`` and
the loss of round ``t`` is paid against ``g_t``.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .errors import (DegenerateStateError, InvalidGradientError, ScheduleError,
                     ScheduleExhaustedError)

DEFAULT_ORACLE_HORIZON = 60
# Slack at every regime boundary, for the rounding in p = beta1 / sqrt(beta2).
REGIME_TOL = 1e-12
# Relative slack of every numeric contract ``a <= b``: dominance, tightness, per-round FTRL.  It
# is over five orders above the largest relative error measured against a 60-digit replay on
# random streams (2.2e-15), so it decides no verdict there.
CONTRACT_TOL = 1e-9
# Slack of the tightness contract ``max |delta_bar| <= D/2``, as a fraction of D: the updates scale
# with the domain, and at_most's absolute floor of 1 would make the check vacuous for D below 1e-9.
PREBAR_TOL = 1e-12


def at_most(a: float, b: float) -> bool:
    """``a <= b`` up to a relative ``CONTRACT_TOL``: the one rule every contract check uses."""
    return a <= b + CONTRACT_TOL * max(1.0, abs(a), abs(b))


def pow_or_inf(base: float, exp: float) -> float:
    """``base ** exp``, but ``inf`` where Python's float ``pow`` raises ``OverflowError``."""
    try:
        return base ** exp
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Learning-rate schedules
# ---------------------------------------------------------------------------

class CheckedAlphas(tuple):
    """Values :meth:`AlphaSchedule.explicit` has checked: floats, positive and non-increasing."""


class AlphaSchedule(NamedTuple):
    """Per-round base learning rate ``alpha_t``, indexed from ``t = 1``.

    Three kinds are supported:

    * ``constant``: ``alpha_t = alpha`` for all ``t``.
    * ``exponential_decay``: ``alpha_t = alpha / ratio^(t-1)``; requires
      ``ratio >= 1`` so the sequence is non-increasing.
    * ``explicit``: a finite list of values, validated non-increasing; used
      mainly by tests.
    """

    kind: str
    alpha: float = 0.0
    ratio: float = 1.0
    values: tuple[float, ...] = ()

    @classmethod
    def constant(cls, alpha: float) -> "AlphaSchedule":
        if not (alpha > 0):
            raise ScheduleError(f"alpha must be positive, got {alpha}")
        return cls(kind="constant", alpha=alpha)

    @classmethod
    def exponential_decay(cls, alpha: float, ratio: float) -> "AlphaSchedule":
        if not (alpha > 0):
            raise ScheduleError(f"alpha must be positive, got {alpha}")
        if not (ratio >= 1.0 - REGIME_TOL):
            raise ScheduleError(
                f"exponential decay needs ratio >= 1 to be non-increasing, got {ratio}"
            )
        return cls(kind="exponential_decay", alpha=alpha, ratio=ratio)

    @classmethod
    def explicit(cls, values) -> "AlphaSchedule":
        vals = tuple(float(v) for v in values)
        if not vals:
            raise ScheduleError("explicit schedule needs at least one value")
        if any(not (v > 0) for v in vals):
            raise ScheduleError("explicit schedule values must be positive")
        for prev, nxt in zip(vals, vals[1:]):
            if nxt > prev:
                raise ScheduleError(
                    f"explicit schedule must be non-increasing, got {prev} -> {nxt}"
                )
        return cls(kind="explicit", alpha=vals[0], values=CheckedAlphas(vals))


def alpha_at(schedule: AlphaSchedule, t: int) -> float:
    """Value of ``alpha_t`` for round ``t >= 1``.

    Values up to ``T + 1`` must be obtainable because the comparator term of
    the general bound is priced at ``alpha_{T+1}``.  A decaying value that
    leaves the float range raises :class:`ScheduleError` instead of reaching 0.
    """
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    if schedule.kind == "constant":
        return schedule.alpha
    if schedule.kind == "exponential_decay":
        a_t = schedule.alpha / pow_or_inf(schedule.ratio, t - 1)
        if a_t == 0.0:
            raise ScheduleError(f"exponential decay alpha_t underflows to zero at t={t}")
        return a_t
    if schedule.kind == "explicit":
        if t > len(schedule.values):
            raise ScheduleExhaustedError(
                f"explicit schedule has {len(schedule.values)} entries, asked for t={t}"
            )
        return schedule.values[t - 1]
    raise ScheduleError(f"unknown schedule kind {schedule.kind!r}")


def fill_alphas(out, schedule: AlphaSchedule, start: int, at) -> None:
    """``out[i] = at(schedule, start + i)`` in order of ``i``, ``at`` being the ``alpha_at`` a
    driver calls, but a constant schedule fills ``out`` with no call.  An error of ``at``
    propagates once the values before it are written."""
    if schedule.kind == "constant":
        out[:] = schedule.alpha
        return
    k, values = len(out), []
    try:
        values.extend(map(at, itertools.repeat(schedule, k), range(start, start + k)))
    finally:
        out[:len(values)] = values


# ---------------------------------------------------------------------------
# Hyperparameters and learner state
# ---------------------------------------------------------------------------

def check_beta(name: str, value: float) -> None:
    """The range rule of a momentum factor: ``0 < value < 1``."""
    if not (0.0 < value < 1.0):
        raise ValueError(f"{name} must be in (0, 1), got {value}")


class _HyperParamsFields(NamedTuple):
    beta1: float
    beta2: float
    alpha: AlphaSchedule
    D: float | None
    p: float


class HyperParams(_HyperParamsFields):
    """Momentum factors, domain half-width, and learning-rate schedule.

    ``D = None`` means the decision space is the whole real line.  The derived
    ratio ``p = beta1 / sqrt(beta2)`` is cached at construction; ``p <= 1``
    and ``p >= 1`` select which regret bounds apply downstream.  Build one only
    through the constructor, which checks the ranges: ``_replace`` and ``_make``
    skip the checks and would leave ``p`` stale.
    """

    __slots__ = ()

    def __new__(cls, beta1: float, beta2: float, alpha: AlphaSchedule, D: float | None = None):
        check_beta("beta1", beta1)
        check_beta("beta2", beta2)
        if D is not None and not (D > 0):
            raise ValueError(f"domain half-width must be positive, got {D}")
        return super().__new__(cls, beta1, beta2, alpha, D, beta1 / math.sqrt(beta2))


class LearnerState:
    """Discounted accumulators of the stable path after ``t`` ingested gradients.

    ``m`` and ``q`` are the first- and second-moment discounted sums, ``max_v``
    the discounted running maximum ``max_s beta1^(t-1-s) |g_s|``, and ``d_max``
    the largest update magnitude emitted so far.  The literal FTRL oracles
    replay the caller's own gradient list; the state keeps no raw gradients.
    Mutable: :func:`ingest_gradient` and :func:`propose_update` update it in place.
    """

    __slots__ = ("t", "m", "q", "max_v", "d_max")

    def __init__(self, t: int = 0, m: float = 0.0, q: float = 0.0, max_v: float = 0.0,
                 d_max: float = 0.0):
        self.t, self.m, self.q, self.max_v, self.d_max = t, m, q, max_v, d_max


class UpdateOutcome(NamedTuple):
    """One proposed update: pre-clipping value, emitted value, and the ``alpha_t`` used."""

    delta_bar: float
    delta: float
    clipped: bool
    alpha_t: float


def clip_to_domain(x: float, D: float | None) -> float:
    """Project ``x`` onto ``[-D, D]``; identity when the domain is unbounded.

    ``|x| == D`` is returned unchanged (the projection factor is exactly 1).
    """
    if D is None or abs(x) <= D:
        return x
    return math.copysign(D, x)


def ingest_gradient(state: LearnerState, g: float, params: HyperParams) -> LearnerState:
    """Feed one gradient through the discounted recurrences.

    The very first gradient must be nonzero; afterwards zeros are fine.  A gradient
    ``g_t`` that makes the second moment overflow raises :class:`DegenerateStateError`
    (the updates ``m / sqrt(q)`` would be 0 or NaN from then on).
    Mutates ``state`` in place and returns it.
    """
    if not math.isfinite(g):
        raise InvalidGradientError(f"gradient must be finite, got {g}")
    if state.t == 0 and g == 0.0:
        raise InvalidGradientError("first gradient must be nonzero")
    q = params.beta2 * state.q + g * g
    if q == math.inf:
        raise DegenerateStateError(f"second-moment accumulator overflows at t={state.t}")
    state.m = params.beta1 * state.m + g
    state.q = q
    state.max_v = max(params.beta1 * state.max_v, abs(g))
    state.t += 1
    return state


def propose_update(state: LearnerState, params: HyperParams) -> UpdateOutcome:
    """Update for round ``t = state.t`` from the stable discounted form.

    ``delta_bar = -alpha_t * m / sqrt(q)`` exactly, then clipped to the
    domain.  Records the emitted magnitude in ``state.d_max``.  A ``q`` that
    underflowed to 0, or a ``delta_bar`` that overflows, raises :class:`DegenerateStateError`.
    """
    if state.t < 1:
        raise DegenerateStateError("no gradient ingested yet")
    if state.q <= 0.0:
        raise DegenerateStateError(
            f"second-moment accumulator underflows to zero after g_{state.t - 1}")
    a_t = alpha_at(params.alpha, state.t)
    delta_bar = -a_t * state.m / math.sqrt(state.q)
    if not math.isfinite(delta_bar):
        raise DegenerateStateError(f"update delta_bar overflows at t={state.t}")
    delta = clip_to_domain(delta_bar, params.D)
    clipped = params.D is not None and abs(delta_bar) > params.D
    state.d_max = max(state.d_max, abs(delta))
    return UpdateOutcome(delta_bar=delta_bar, delta=delta, clipped=clipped, alpha_t=a_t)


# ---------------------------------------------------------------------------
# Literal FTRL forms (short-horizon oracles)
# ---------------------------------------------------------------------------

def loss_squares(losses, ratio: float) -> list[float]:
    """``(ratio^s v_s)^2`` for each loss ``v_s``, or ``inf`` where Python's float ``**`` raises
    ``OverflowError``.  A run squares its losses once; each prefix sum then reads this list."""
    squares = []
    for s, v in enumerate(losses):
        try:
            squares.append((ratio**s * v) ** 2)
        except OverflowError:
            squares.append(math.inf)
    return squares


def root_of_sum(squares) -> float:
    """``sqrt(fsum(squares))``, or ``inf`` where the sum leaves the float range (``fsum`` raises
    ``OverflowError`` there)."""
    try:
        return math.sqrt(math.fsum(squares))
    except OverflowError:
        return math.inf


def root_sum_of_squares(losses, ratio: float, n: int) -> float:
    """``sqrt(sum_{s<n} (ratio^s v_s)^2)``, or ``inf`` where a square or the sum leaves the float
    range."""
    return root_of_sum(loss_squares(losses[:n], ratio))


def ftrl_eta(root: float, ratio: float, a_t: float, t: int) -> float:
    """``eta_t = a_t ratio^(t-1) / root`` from ``root = sqrt(sum_{s<t} (ratio^s v_s)^2)``."""
    if root == 0.0:
        raise DegenerateStateError("all loss coefficients through round t are zero")
    if root == math.inf:
        raise DegenerateStateError(f"FTRL second-moment sum overflows at t={t}")
    return a_t * ratio ** (t - 1) / root


def ftrl_eta_from_losses(losses, ratio: float, a_t: float, t: int) -> float:
    """``eta_t`` of the literal FTRL recursion on a raw loss sequence."""
    return ftrl_eta(root_sum_of_squares(losses, ratio, t), ratio, a_t, t)
