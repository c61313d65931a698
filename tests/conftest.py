"""Shared drivers and independent literal oracles for the test suite.

The oracles here recompute every bound exactly as displayed, with fresh
``beta1**-t`` / ``beta2**(T-t)`` power loops and no reuse of the package's
discounted recurrences, so that stable-path results are checked against a
genuinely independent evaluation.  ``simulate_row_by_row`` is the per-row
reference for ``simulate``'s column pricing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from adamftrl import (
    AlphaSchedule,
    ExperimentConfig,
    ExperimentResult,
    HyperParams,
    LearnerState,
    RegretLedger,
    TraceStats,
    alpha_at,
    drive as drive_rounds,
)
from adamftrl.bounds import BOUNDS
from adamftrl.harness import TRACE_COLUMNS, _stream_summary


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
    """Collect the rounds 1..T of ``regret.drive``, T = len(gradients) - 1 >= 1."""
    rounds = list(drive_rounds(gradients, params, u))
    *_, state, ledger = rounds[-1]
    outs = [out for _, _, _, out, _, _ in rounds]
    return TraceRun(gradients=list(gradients), deltas=[o.delta for o in outs],
                    delta_bars=[o.delta_bar for o in outs], clipped=[o.clipped for o in outs],
                    state=state, ledger=ledger)


def simulate_row_by_row(config: ExperimentConfig) -> ExperimentResult:
    """``simulate`` of a fixed or random stream, pricing every bound at every row ``t >= 2``.

    Each row builds ``TraceStats.from_state`` and calls each requested bound's
    ``BOUNDS[n].per_run`` evaluator in turn, so the first row and bound that cannot be priced
    raises, before any later round of the driver runs.
    """
    params = config.hyper_params()
    u = config.comparator()
    requested = [n for n in BOUNDS if n in config.bounds]
    gradients = config.adversary_spec().gradient_stream(config.T)
    evaluators = [BOUNDS[n].per_run(params, u) for n in requested]
    rows, clip_count, r_disc, final_reports = [], 0, 0.0, []
    for t, m_t, q_t, out, state, ledger in drive_rounds(gradients, params, u):
        clip_count += int(out.clipped)
        g_t = gradients[t]
        r_disc = ledger.r_disc
        row = [t, out.alpha_t, g_t, m_t, q_t, out.delta_bar, out.delta, out.clipped,
               g_t * out.delta, r_disc, state.max_v, state.d_max]
        if t >= 2:
            stats = TraceStats.from_state(state)
            final_reports = [evaluate(stats, t) for evaluate in evaluators]
            row.extend(rep.total for rep in final_reports)
        else:
            row.extend(math.nan for _ in requested)
        rows.append(tuple(row))
    return ExperimentResult(
        csv_header=TRACE_COLUMNS + tuple(f"bound_{n}" for n in requested), csv_rows=tuple(rows),
        summary=_stream_summary(config, r_disc, clip_count, final_reports))


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
