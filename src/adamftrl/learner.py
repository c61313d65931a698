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

import math
from dataclasses import dataclass, field

from .errors import (
    DegenerateStateError,
    InvalidGradientError,
    OracleHorizonError,
    ScheduleError,
    ScheduleExhaustedError,
)

DEFAULT_ORACLE_HORIZON = 60
# Slack at every regime boundary, for the rounding in p = beta1 / sqrt(beta2).
REGIME_TOL = 1e-12
# Relative slack of every numeric contract ``a <= b``: dominance, tightness, per-round FTRL.
CONTRACT_TOL = 1e-9


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


@dataclass(frozen=True)
class AlphaSchedule:
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


# ---------------------------------------------------------------------------
# Hyperparameters and learner state
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HyperParams:
    """Momentum factors, domain half-width, and learning-rate schedule.

    ``D = None`` means the decision space is the whole real line.  The derived
    ratio ``p = beta1 / sqrt(beta2)`` is cached at construction; ``p <= 1``
    and ``p >= 1`` select which regret bounds apply downstream.
    """

    beta1: float
    beta2: float
    alpha: AlphaSchedule
    D: float | None = None
    p: float = field(init=False)

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0):
            raise ValueError(f"beta1 must be in (0, 1), got {self.beta1}")
        if not (0.0 < self.beta2 < 1.0):
            raise ValueError(f"beta2 must be in (0, 1), got {self.beta2}")
        if self.D is not None and not (self.D > 0):
            raise ValueError(f"domain half-width must be positive, got {self.D}")
        object.__setattr__(self, "p", self.beta1 / math.sqrt(self.beta2))


@dataclass
class LearnerState:
    """Discounted accumulators of the stable path after ``t`` ingested gradients.

    ``m`` and ``q`` are the first- and second-moment discounted sums, ``max_v``
    the discounted running maximum ``max_s beta1^(t-1-s) |g_s|``, and ``d_max``
    the largest update magnitude emitted so far.  The literal FTRL oracles
    replay the caller's own gradient list; the state keeps no raw gradients.
    """

    t: int = 0
    m: float = 0.0
    q: float = 0.0
    max_v: float = 0.0
    d_max: float = 0.0


@dataclass(frozen=True)
class UpdateOutcome:
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

def undiscounted_losses(raw_gradients, beta1: float) -> list[float]:
    """Rescaled loss coefficients ``v_s = beta1^(-s) g_s``."""
    return [g / beta1**s for s, g in enumerate(raw_gradients)]


def root_sum_of_squares(losses, ratio: float, n: int) -> float:
    """``sqrt(sum_{s<n} (ratio^s v_s)^2)``, or ``inf`` where a square or the sum leaves the float
    range (Python's float ``**`` and ``fsum`` raise ``OverflowError`` there)."""
    try:
        return math.sqrt(math.fsum((ratio**s * losses[s]) ** 2 for s in range(n)))
    except OverflowError:
        return math.inf


def ftrl_eta_from_losses(losses, ratio: float, a_t: float, t: int) -> float:
    """``eta_t`` of the literal FTRL recursion on a raw loss sequence."""
    denom = root_sum_of_squares(losses, ratio, t)
    if denom == 0.0:
        raise DegenerateStateError("all loss coefficients through round t are zero")
    if denom == math.inf:
        raise DegenerateStateError(f"FTRL second-moment sum overflows at t={t}")
    return a_t * ratio ** (t - 1) / denom


def ftrl_update_from_losses(losses, ratio: float, a_t: float, t: int,
                            D: float | None) -> float:
    """Pre-clipping FTRL minimizer ``-eta_t * sum_{s<t} v_s``, then clipped."""
    eta = ftrl_eta_from_losses(losses, ratio, a_t, t)
    return clip_to_domain(-eta * math.fsum(losses[:t]), D)


def _check_oracle_round(raw_gradients, t: int, horizon: int) -> None:
    if t < 1:
        raise ValueError(f"round index must be >= 1, got {t}")
    if t > horizon:
        raise OracleHorizonError(
            f"round {t} exceeds the oracle horizon {horizon}; use the stable path"
        )
    if len(raw_gradients) < t:
        raise ValueError(f"round {t} needs at least {t} gradients, got {len(raw_gradients)}")


def ftrl_oracle_update(raw_gradients, params: HyperParams, t: int,
                       horizon: int = DEFAULT_ORACLE_HORIZON) -> float:
    """Round-``t`` update computed literally from the FTRL formulas.

    Agrees with :func:`propose_update` to high relative accuracy; exists to
    prove that agreement, not for production use (the internal sums grow like
    ``beta1^-t``).
    """
    _check_oracle_round(raw_gradients, t, horizon)
    losses = undiscounted_losses(raw_gradients[:t], params.beta1)
    return ftrl_update_from_losses(losses, params.p, alpha_at(params.alpha, t), t, params.D)


def evaluate_objective(raw_gradients, params: HyperParams, t: int, x: float,
                       horizon: int = DEFAULT_ORACLE_HORIZON) -> float:
    """Regularized round-``t`` objective ``F_t(x)`` of the FTRL oracle.

    Its unconstrained minimizer is the pre-clipping update; over ``[-D, D]``
    the minimizer is the clipped update.
    """
    _check_oracle_round(raw_gradients, t, horizon)
    losses = undiscounted_losses(raw_gradients[:t], params.beta1)
    eta = ftrl_eta_from_losses(losses, params.p, alpha_at(params.alpha, t), t)
    return x * x / (2.0 * eta) + math.fsum(losses) * x
