"""Discounted regret tracking and the per-round inequality behind the bounds.

The discounted regret of a play sequence ``(delta_t)`` against a comparator
``u`` after ``T`` rounds is

    R_T = sum_{t=1..T} beta1^(T-t) g_t (delta_t - u),

maintained stably by the recurrence ``r <- beta1 * r + g_t (delta_t - u)``.
Dividing by ``beta1^T`` gives the undiscounted regret on the rescaled losses
``v_t = beta1^(-t) g_t``, which is only evaluated literally within the oracle
horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotApplicableError, OracleHorizonError, RegimeError
from .learner import (
    DEFAULT_ORACLE_HORIZON,
    HyperParams,
    LearnerState,
    alpha_at,
    ftrl_eta_from_losses,
    ftrl_update_from_losses,
    ingest_gradient,
    propose_update,
    undiscounted_losses,
)


@dataclass
class RegretLedger:
    """Running discounted regret against a fixed comparator."""

    u: float
    r_disc: float = 0.0


def accumulate_discounted_regret(ledger: RegretLedger, g: float, delta: float,
                                 beta1: float) -> RegretLedger:
    """Fold one round into the ledger: ``r <- beta1 * r + g * (delta - u)``.

    ``delta`` is the update that was emitted before ``g`` was revealed.
    """
    ledger.r_disc = beta1 * ledger.r_disc + g * (delta - ledger.u)
    return ledger


def drive(gradients, params: HyperParams, u: float = 0.0):
    """The stable learner's rounds ``t = 1..T``, ``T = len(gradients) - 1``: the one driver loop.

    Each round proposes from ``g_0..g_{t-1}``, ingests ``g_t`` and folds the regret against
    ``u``, then yields ``(t, m_t, q_t, outcome, state, ledger)``: the accumulators the update
    was computed from and the live :class:`LearnerState` and :class:`RegretLedger`.
    A regret that overflows raises :class:`RegimeError` naming its round.
    """
    state = LearnerState()
    ledger = RegretLedger(u=u)
    ingest_gradient(state, gradients[0], params)
    for t in range(1, len(gradients)):
        m_t, q_t = state.m, state.q
        outcome = propose_update(state, params)
        g_t = gradients[t]
        ingest_gradient(state, g_t, params)
        accumulate_discounted_regret(ledger, g_t, outcome.delta, params.beta1)
        if not math.isfinite(ledger.r_disc):
            raise RegimeError(f"discounted regret overflows at t={t}")
        yield t, m_t, q_t, outcome, state, ledger


def undiscounted_regret(loss_gradients, deltas, u: float, beta1: float,
                        horizon: int = DEFAULT_ORACLE_HORIZON) -> float:
    """Literal ``sum_t beta1^(-t) g_t (delta_t - u)`` over rounds ``1..T``.

    ``loss_gradients[i]`` and ``deltas[i]`` belong to round ``i + 1``; the
    round-0 seed gradient is not part of any regret.  ``beta1^T`` times the
    result equals the discounted ledger value.
    """
    T = len(loss_gradients)
    if len(deltas) != T:
        raise ValueError(f"got {T} gradients but {len(deltas)} updates")
    if T > horizon:
        raise OracleHorizonError(f"{T} rounds exceed the oracle horizon {horizon}")
    return math.fsum(
        beta1 ** -(i + 1) * g * (d - u) for i, (g, d) in enumerate(zip(loss_gradients, deltas))
    )


@dataclass(frozen=True)
class PerRoundInequality:
    """One round of the telescoping bound: lhs vs its two majorants."""

    lhs: float
    stability_bound: float
    range_bound: float

    def holds(self, slack: float = 1e-9) -> bool:
        rhs = min(self.stability_bound, self.range_bound)
        return self.lhs <= rhs + slack * max(1.0, abs(self.lhs), abs(rhs))


def per_round_ftrl_inequality(raw_gradients, params: HyperParams, t: int,
                              horizon: int = DEFAULT_ORACLE_HORIZON) -> PerRoundInequality:
    """Evaluate ``F_t(delta_t) - F_{t+1}(delta_{t+1}) + v_t delta_t`` and its majorants.

    The telescoped per-round term is bounded by both ``eta_t v_t^2 / 2``
    (stability of the regularized minimizer) and ``2 D_T |v_t|`` (range of the
    plays).  Only certified on traces where clipping never fires; a clipped
    trace raises :class:`NotApplicableError` because the constrained argmin
    breaks the unconstrained algebra used here.

    ``raw_gradients`` must include the seed gradient ``g_0`` and cover rounds
    ``1..T`` with ``T = len(raw_gradients) - 1``; needs ``t <= T``.
    """
    T = len(raw_gradients) - 1
    if not (1 <= t <= T):
        raise ValueError(f"need 1 <= t <= {T}, got {t}")
    if t + 1 > horizon:
        raise OracleHorizonError(f"round {t + 1} exceeds the oracle horizon {horizon}")
    losses = undiscounted_losses(raw_gradients, params.beta1)

    deltas = []
    for s in range(1, T + 1):
        a_s = alpha_at(params.alpha, s)
        raw = ftrl_update_from_losses(losses, params.p, a_s, s, None)
        if params.D is not None and abs(raw) > params.D:
            raise NotApplicableError(
                f"clipping fires at round {s}; the per-round inequality is not certified"
            )
        deltas.append(raw)
    d_T = max(abs(d) for d in deltas)

    def objective(s: int, x: float) -> float:
        eta = ftrl_eta_from_losses(losses, params.p, alpha_at(params.alpha, s), s)
        return x * x / (2.0 * eta) + math.fsum(losses[:s]) * x

    a_next = alpha_at(params.alpha, t + 1)
    delta_next = ftrl_update_from_losses(losses, params.p, a_next, t + 1, None)
    v_t = losses[t]
    lhs = objective(t, deltas[t - 1]) - objective(t + 1, delta_next) + v_t * deltas[t - 1]
    eta_t = ftrl_eta_from_losses(losses, params.p, alpha_at(params.alpha, t), t)
    return PerRoundInequality(
        lhs=lhs,
        stability_bound=eta_t * v_t * v_t / 2.0,
        range_bound=2.0 * d_T * abs(v_t),
    )
