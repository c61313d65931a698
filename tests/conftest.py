"""Shared drivers and independent literal oracles for the test suite.

The oracles here recompute every bound exactly as displayed, with fresh
``beta1**-t`` / ``beta2**(T-t)`` power loops and no reuse of the package's
discounted recurrences, so that stable-path results are checked against a
genuinely independent evaluation.  ``drive`` collects the rounds of ``regret.drive``, which
runs the one-step API in order and is the referee of the column and batch drivers, and
``simulate_row_by_row`` is the per-row reference for ``simulate``'s column pricing.
``literal_tightness_run`` prices every tightness row from its own prefix of losses,
``literal_nonoblivious_run`` runs each instance of a pair through ``regret.drive`` on its own,
``literal_per_round_ftrl_inequality`` takes every update and objective from the literal FTRL
forms, and the ``literal_lemma_*`` functions check the two lemmas and build their default grids
one point at a time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

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
from adamftrl.adversaries import (NonObliviousResult, NonObliviousRound, TightnessResult,
                                  TightnessRound, check_nonoblivious_regime,
                                  check_tightness_regime, geometric_losses)
from adamftrl.bounds import BOUNDS, bound_b_undiscounted
from adamftrl.errors import ContractViolation, OracleHorizonError, RegimeError
from adamftrl.harness import TRACE_COLUMNS, _stream_summary
from adamftrl.learner import (DEFAULT_ORACLE_HORIZON, REGIME_TOL, clip_to_domain,
                              ftrl_eta_from_losses)
from referees import (NotApplicableError, PerRoundInequality, evaluate_objective,
                      ftrl_update_from_losses, undiscounted_losses)


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


def state_after(round_) -> LearnerState:
    """The learner state after round ``t``, from the round ``regret.drive`` yielded."""
    t, *_, max_v, d_max, m, q = round_
    return LearnerState(t=t + 1, m=m, q=q, max_v=max_v, d_max=d_max)


def drive(gradients, params: HyperParams, u: float = 0.0) -> TraceRun:
    """Collect the rounds 1..T of ``regret.drive``, T = len(gradients) - 1 >= 1."""
    rounds = list(drive_rounds(gradients, params, u))
    _, _, _, _, delta_bars, deltas, clipped, r_disc, *_ = zip(*rounds)
    return TraceRun(gradients=list(gradients), deltas=list(deltas),
                    delta_bars=list(delta_bars), clipped=list(clipped),
                    state=state_after(rounds[-1]), ledger=RegretLedger(u=u, r_disc=r_disc[-1]))


def trace_columns(trace, size: int) -> tuple:
    """The columns of ``regret.drive``'s rounds from ``alpha_t`` to the ``q`` after ``g_t``, but
    ``m``: a ``regret.Trace``'s state and the cells its blocks of ``size`` rows derive."""
    delta_bar, clipped, delta, _, d_max = map(np.concatenate,
                                              zip(*(cells for *_, cells in trace.blocks(size))))
    n = len(trace.g) - 1
    return (trace.alpha[1:], trace.g[1:], trace.m[:n], trace.q[:n], delta_bar, delta, clipped,
            trace.r_disc[1:], trace.max_v[1:], d_max, trace.q[1:])


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
    for round_ in drive_rounds(gradients, params, u):
        t, alpha_t, m_t, q_t, delta_bar, delta, clipped, r_disc, max_v, d_max, _, _ = round_
        clip_count += int(clipped)
        g_t = gradients[t]
        row = [t, alpha_t, g_t, m_t, q_t, delta_bar, delta, clipped,
               g_t * delta, r_disc, max_v, d_max]
        if t >= 2:
            stats = TraceStats.from_state(state_after(round_))
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


# ---------------------------------------------------------------------------
# Oracle experiments, one prefix and one point at a time
# ---------------------------------------------------------------------------

def literal_tightness_run(ratio: float, D: float, kappa: float, v0: float,
                          T: int) -> TightnessResult:
    """``run_tightness_experiment`` with each round's update and each row's ``B`` priced by the
    literal forms on that round's own prefix of losses, so each square is taken again per
    prefix; raises what the run must, in the same order."""
    check_tightness_regime(ratio, D, kappa, v0, T)
    alpha, u = D / 4.0, -D
    losses = geometric_losses(v0, kappa, T)
    rows = []
    loss_sum = square_sum = regret = d_max = 0.0
    max_v = abs(losses[0])
    for t in range(1, T + 1):
        delta_bar = ftrl_update_from_losses(losses, ratio, alpha, t, None)
        delta = clip_to_domain(delta_bar, D)
        loss = losses[t]
        loss_sum += losses[t - 1]
        square_sum += (ratio ** (t - 1) * losses[t - 1]) ** 2
        regret += loss * (delta - u)
        max_v, d_max = max(max_v, abs(loss)), max(d_max, abs(delta))
        rows.append((t, alpha, loss, loss_sum, square_sum, delta_bar, delta, abs(delta_bar) > D,
                     loss * delta, regret, max_v, d_max))
    lower = v0 * D * kappa * (kappa**T - 1.0) / (2.0 * (kappa - 1.0))
    b_total = bound_b_undiscounted(losses, ratio, u, alpha, D).total
    if b_total == 0.0:
        raise RegimeError(f"tightness bound B underflows to zero at T = {T}")
    if not math.isfinite(lower):
        raise RegimeError(f"tightness lower bound overflows at T = {T}")
    b_rows = [bound_b_undiscounted(losses[:t + 1], ratio, u, alpha, D).total for t in range(1, T)]
    rounds = tuple(TightnessRound(*row, b) for row, b in zip(rows, [*b_rows, b_total]))
    return TightnessResult(regret=regret, lower_bound=lower, b_total=b_total,
                           ratio=regret / b_total,
                           max_prebar=max(abs(r.delta_bar) for r in rounds),
                           any_clipped=any(r.clipped for r in rounds),
                           clip_count=sum(r.clipped for r in rounds), rounds=rounds)


def literal_nonoblivious_run(a: float, b: float, v: float, ratio: float, T: int,
                             beta1: float | None = None) -> NonObliviousResult:
    """``run_nonoblivious_experiment`` with each instance run through ``regret.drive`` on its own
    list of gradients, the rate-``a`` instance first; it does not warn."""
    beta1 = check_nonoblivious_regime(a, b, v, ratio, T, beta1)
    alpha = AlphaSchedule.constant(1.0 / max(1.0 / (1.0 - a), 1.0 / (1.0 - b)))
    u = -1.0

    def run_instance(rate: float, inst_ratio: float):
        params = HyperParams(beta1=beta1, beta2=(beta1 / inst_ratio) ** 2, alpha=alpha, D=1.0)
        losses = [rate**t * v for t in range(1, T + 1)]
        gradients = [v] + [beta1**t * loss_t for t, loss_t in enumerate(losses, start=1)]
        _, _, _, _, _, deltas, clipped, *_ = zip(*drive_rounds(gradients, params, u))
        return (losses, deltas, [loss_t * (delta - u) for loss_t, delta in zip(losses, deltas)],
                any(clipped))

    (*cells_a, clipped_a), (*cells_b, clipped_b) = run_instance(a, ratio), run_instance(b, 1.0)
    rounds = tuple(map(NonObliviousRound, range(1, T + 1), *cells_a, *cells_b,
                       map(float.__lt__, cells_a[2], cells_b[2])))
    return NonObliviousResult(regret_a=math.fsum(r.f_a for r in rounds),
                              regret_aprime=math.fsum(r.f_aprime for r in rounds),
                              per_round_strict=all(r.strict for r in rounds),
                              any_clipped=clipped_a or clipped_b, rounds=rounds)


def literal_per_round_ftrl_inequality(raw_gradients, params: HyperParams, t: int,
                                      horizon: int = DEFAULT_ORACLE_HORIZON):
    """``regret.per_round_ftrl_inequality`` with every update, objective and ``eta`` taken from
    the literal FTRL forms on its own prefix of losses, which squares each prefix again."""
    T = len(raw_gradients) - 1
    if not (1 <= t <= T):
        raise ValueError(f"need 1 <= t <= {T}, got {t}")
    if t + 1 > horizon:
        raise OracleHorizonError(f"round {t + 1} exceeds the oracle horizon {horizon}")
    losses = undiscounted_losses(raw_gradients, params.beta1)
    deltas = []
    for s in range(1, T + 1):
        raw = ftrl_update_from_losses(losses, params.p, alpha_at(params.alpha, s), s, None)
        if params.D is not None and abs(raw) > params.D:
            raise NotApplicableError(
                f"clipping fires at round {s}; the per-round inequality is not certified")
        deltas.append(raw)
    d_T = max(abs(d) for d in deltas)
    delta_next = ftrl_update_from_losses(losses, params.p, alpha_at(params.alpha, t + 1), t + 1,
                                         None)
    v_t = losses[t]
    lhs = (evaluate_objective(raw_gradients, params, t, deltas[t - 1], horizon)
           - evaluate_objective(raw_gradients, params, t + 1, delta_next, horizon)
           + v_t * deltas[t - 1])
    eta_t = ftrl_eta_from_losses(losses, params.p, alpha_at(params.alpha, t), t)
    return PerRoundInequality(lhs=lhs, stability_bound=eta_t * v_t * v_t / 2.0,
                              range_bound=2.0 * d_T * abs(v_t))


def literal_lemma_a1_value(point) -> float:
    x, y, t = point
    if not (0.0 < x <= 1.0) or y < (1.0 - REGIME_TOL) / (x * x) or t < 1 or t != int(t):
        raise ValueError(f"point outside the inequality's domain: {(x, y, t)}")
    if x * y <= 1.0:
        raise ValueError(f"expression is singular at {(x, y, t)} (x*y <= 1)")
    t = int(t)
    return (1.0 - y ** (-t)) / math.sqrt(1.0 - (x * y) ** (-2 * t))


def literal_lemma_a2_value(point) -> float:
    x, y = point
    if not (0.0 < x <= 0.6) or y < (1.0 - REGIME_TOL) / (x * x):
        raise ValueError(f"point outside the inequality's domain: {(x, y)}")
    return math.sqrt(x * x * y * y - 1.0) / (x * (y - 1.0))


def literal_verify_lemma(points, value, bound: float, slack: float, name: str):
    """``(max value, points checked)`` over finite points, one point at a time; raises at the
    first point out of the domain, singular or failing ``value <= bound + slack``."""
    best, count = -math.inf, 0
    for count, point in enumerate(points, start=1):
        val = value(point)
        if val > bound + slack:
            raise ContractViolation(f"{name} inequality fails at {tuple(point)}: "
                                    f"{val} > {bound:g} + {slack}")
        best = max(best, val)
    return best, count


def literal_lemma_grid_xy(x_max: float, x_step: float):
    for i in range(1, round(x_max / x_step) + 1):
        x = i * x_step
        ys = [f / (x * x) for f in (1.0, 2.0, 10.0)]
        if 1e6 >= 1.0 / (x * x):
            ys.append(1e6)
        for y in ys:
            yield x, y


def literal_lemma_a1_grid():
    for x, y in literal_lemma_grid_xy(1.0, 0.01):
        if x * y > 1.0:
            for t in range(1, 51):
                yield (x, y, t)


def literal_lemma_a2_grid():
    return literal_lemma_grid_xy(0.6, 0.0001)
