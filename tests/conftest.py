"""Shared drivers and independent literal oracles for the test suite.

The oracles here recompute every bound exactly as displayed, with fresh
``beta1**-t`` / ``beta2**(T-t)`` power loops and no reuse of the package's
discounted recurrences, so that stable-path results are checked against a
genuinely independent evaluation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from adamftrl import (
    AlphaSchedule,
    HyperParams,
    LearnerState,
    RegretLedger,
    accumulate_discounted_regret,
    alpha_at,
    ingest_gradient,
    propose_update,
)


@dataclass
class TraceRun:
    gradients: list[float]
    deltas: list[float]
    delta_bars: list[float]
    clipped: list[bool]
    state: LearnerState
    ledger: RegretLedger

    @property
    def any_clipped(self) -> bool:
        return any(self.clipped)


def drive(gradients, params: HyperParams, u: float = 0.0) -> TraceRun:
    """Run the learner over rounds 1..T with T = len(gradients) - 1."""
    state = LearnerState()
    ledger = RegretLedger(u=u)
    ingest_gradient(state, gradients[0], params)
    deltas, delta_bars, clipped = [], [], []
    for t in range(1, len(gradients)):
        out = propose_update(state, params)
        deltas.append(out.delta)
        delta_bars.append(out.delta_bar)
        clipped.append(out.clipped)
        ingest_gradient(state, gradients[t], params)
        accumulate_discounted_regret(ledger, gradients[t], out.delta, params.beta1)
    return TraceRun(gradients=list(gradients), deltas=deltas, delta_bars=delta_bars,
                    clipped=clipped, state=state, ledger=ledger)


def random_gradients(rng: random.Random, T: int, scale: float = 10.0) -> list[float]:
    gs = [rng.uniform(-scale, scale) for _ in range(T + 1)]
    if gs[0] == 0.0:
        gs[0] = scale / 2.0
    return gs


def rel_close(a: float, b: float, rel: float = 1e-9, abs_floor: float = 1e-12) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_floor)


# ---------------------------------------------------------------------------
# Literal bound oracles (independent of the package's stable recurrences)
# ---------------------------------------------------------------------------

def literal_corollary1_discounted(gs, deltas, params: HyperParams, u: float,
                                  T: int) -> float:
    a = params.alpha.alpha
    b1, b2 = params.beta1, params.beta2
    radical = math.sqrt(math.fsum(b2 ** (T - t) * gs[t] ** 2 for t in range(T + 1)))
    d_T = max(abs(d) for d in deltas[:T])
    max_term = max(b1 ** -t * abs(gs[t]) for t in range(T + 1))
    undisc = ((u * u / a + a * math.sqrt(6.0 * b2) / (2.0 * b1)) * b1 ** -T * radical
              + 7.0 * d_T * max_term)
    return b1 ** T * undisc


def literal_theorem1_discounted(gs, deltas, params: HyperParams, u: float,
                                T: int) -> float:
    b1, b2 = params.beta1, params.beta2
    radical_anch = math.sqrt(math.fsum(b2 ** (T - t) * gs[t] ** 2 for t in range(T + 1)))
    radical_raw = math.sqrt(math.fsum(b2 ** -t * gs[t] ** 2 for t in range(T + 1)))
    d_T = max(abs(d) for d in deltas[:T])
    max_term = max(b1 ** -t * abs(gs[t]) for t in range(T + 1))
    coeff = max(alpha_at(params.alpha, t) * math.sqrt(b2**t) / b1**t for t in range(1, T + 1))
    undisc = (u * u / (alpha_at(params.alpha, T + 1) * b1**T) * radical_anch
              + math.sqrt(6.0 * b2) / (2.0 * b1) * coeff * radical_raw
              + 7.0 * d_T * max_term)
    return b1 ** T * undisc


def literal_theorem3_discounted(gs, deltas, params: HyperParams, u: float,
                                T: int) -> float:
    a = params.alpha.alpha
    b1, b2 = params.beta1, params.beta2
    radical = math.sqrt(math.fsum(b1 ** (2 * T) * b2 ** -t * gs[t] ** 2
                                  for t in range(T + 1)))
    d_T = max(abs(d) for d in deltas[:T])
    max_term = max(b1 ** (T - t) * abs(gs[t]) for t in range(T + 1))
    return (u * u / a + a * math.sqrt(6.0) / 2.0) * radical + 7.0 * d_T * max_term


def literal_b_undiscounted(losses, ratio: float, u: float, alpha: float,
                           D: float) -> float:
    T = len(losses) - 1
    radical = math.sqrt(math.fsum((ratio**t * losses[t]) ** 2 for t in range(T + 1)))
    return ((u * u / alpha + alpha / ratio) * ratio ** -T * radical
            + D * max(abs(v) for v in losses))


def constant_params(beta1: float, beta2: float, alpha: float = 1.0,
                    D: float | None = None) -> HyperParams:
    return HyperParams(beta1=beta1, beta2=beta2,
                       alpha=AlphaSchedule.constant(alpha), D=D)


def decaying_params(beta1: float, beta2: float, alpha: float = 1.0,
                    D: float | None = None) -> HyperParams:
    p = beta1 / math.sqrt(beta2)
    return HyperParams(beta1=beta1, beta2=beta2,
                       alpha=AlphaSchedule.exponential_decay(alpha, p), D=D)
