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
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import (DegenerateStateError, InvalidGradientError,
                     NotApplicableError, OracleHorizonError, RegimeError)
from .learner import (DEFAULT_ORACLE_HORIZON, HyperParams, alpha_at, at_most, ftrl_eta,
                      loss_squares, root_of_sum, undiscounted_losses)


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

    Ingests ``g_0``, then per round proposes the update, ingests ``g_t`` and folds the regret:
    :func:`propose_update`, :func:`ingest_gradient` and :func:`accumulate_discounted_regret`
    inlined on local floats, with the same operations and checks in the same order.  Yields
    ``(t, alpha_t, m_t, q_t, delta_bar, delta, clipped, r_disc, max_v, d_max, m, q)``: the
    accumulators the update used, the update, then the regret and the state after ``g_t``.
    """
    b1, b2, schedule = params.beta1, params.beta2, params.alpha
    D = math.inf if params.D is None else params.D   # a finite update never exceeds inf
    isfinite, sqrt, copysign, inf = math.isfinite, math.sqrt, math.copysign, math.inf
    if gradients[0] == 0.0:   # no zero fails the finiteness check, so this may come first
        raise InvalidGradientError("first gradient must be nonzero")
    m = q = max_v = d_max = r_disc = 0.0
    for t, g in enumerate(gradients):
        if t:   # propose the round-t update from g_0..g_{t-1}
            if q <= 0.0:
                raise DegenerateStateError(
                    f"second-moment accumulator underflows to zero after g_{t - 1}")
            a_t = alpha_at(schedule, t)
            delta_bar = -a_t * m / sqrt(q)
            if not isfinite(delta_bar):
                raise DegenerateStateError(f"update delta_bar overflows at t={t}")
            clipped = abs(delta_bar) > D
            delta = copysign(D, delta_bar) if clipped else delta_bar
            if abs(delta) > d_max:   # max() keeps its first argument on ties, and so does this
                d_max = abs(delta)
        if not isfinite(g):
            raise InvalidGradientError(f"gradient must be finite, got {g}")
        m_t, q_t = m, q
        q = b2 * q + g * g
        if q == inf:
            raise DegenerateStateError(f"second-moment accumulator overflows at t={t}")
        m = b1 * m + g
        max_v *= b1
        if abs(g) > max_v:
            max_v = abs(g)
        if t:   # fold round t into the regret
            r_disc = b1 * r_disc + g * (delta - u)
            if not isfinite(r_disc):
                raise RegimeError(f"discounted regret overflows at t={t}")
            yield t, a_t, m_t, q_t, delta_bar, delta, clipped, r_disc, max_v, d_max, m, q


class BatchState(NamedTuple):
    """Each learner's state after a :func:`drive_batch` run, one entry per column."""

    q: np.ndarray
    max_v: np.ndarray
    d_max: np.ndarray
    r_disc: np.ndarray
    clips: np.ndarray    # rounds whose update was clipped
    q_peak: np.ndarray   # the largest q after any g_t, t = 0..T
    v_peak: np.ndarray   # the largest maxV after any g_t


# Rounds per block of a batch: its per-round loop advances only the recurrences, into
# at most (_BLOCK + 1) x n arrays, and all work elementwise in t runs once per block on its rows.
_BLOCK = 128


def drive_batch(gradients, beta1, beta2, schedules, which, D: float | None, u: float,
                trace=None) -> BatchState:
    """:func:`drive` for n learners at once, which it must match bit for bit.

    ``gradients`` is one ``(T + 1,)`` stream that every learner reads, or a ``(T + 1, n)``
    matrix with each learner's stream as a column.  Learner ``j`` has factors ``beta1[j]`` and
    ``beta2[j]`` and the schedule ``schedules[which[j]]``; all share ``D`` and ``u``.  The
    rounds run in blocks of ``_BLOCK`` over float64 arrays with one column per learner.  In a
    block, a per-round loop advances only the recurrences ``m = b1 m + g``, ``q = b2 q + g^2``
    and ``maxV = max(b1 maxV, |g|)``, one row per round (a shared stream adds Python floats to
    them, a matrix its rows).  The updates ``-a m / sqrt(q)``, their clip, ``D``, the running
    peaks and the regret terms ``g (delta - u)`` are then computed on all the block's rows at
    once, and a second per-round loop folds the terms into ``r = b1 r + g (delta - u)``.  Only
    elementwise ``* + - / sqrt abs copysign`` (which round as Python floats do) and max
    reductions leave the per-round loops, and ``alpha_at`` (``pow``) stays scalar, once per
    round and distinct schedule.  Memory is O(T + _BLOCK n) for a shared stream.

    ``trace``, if given, is a pair of ``(T, n)`` arrays, float64 and bool, that receive each
    round's emitted update and whether it was clipped.

    Gradients that are not finite, or a zero ``g_0``, raise :class:`InvalidGradientError` at
    once, and so does an error of ``alpha_at``.  Otherwise the run goes on to ``T`` and only
    flags each learner whose own :func:`drive` fails: a block's rows show a ``q <= 0`` or a
    non-finite update, and an overflowed ``q`` or regret stays non-finite to the end.  Then
    the first flagged learner's column is replayed through :func:`drive`, which raises its
    own error at its own round.
    """
    gradients = np.asarray(gradients, dtype=np.float64)
    if not (np.isfinite(gradients).all() and np.all(gradients[0] != 0.0)):
        raise InvalidGradientError("gradients must be finite, the first one nonzero")
    T, n = len(gradients) - 1, len(beta1)
    shared = gradients.ndim == 1
    # Row 0 holds the state a block starts from, row j + 1 the state after its j-th gradient.
    # The state after g_0 is g_0, g_0^2 and |g_0|, as b * 0 + g = g exactly.
    M, Q, V = (np.zeros((min(_BLOCK, T) + 1, n)) for _ in range(3))
    m_rows, q_rows, v_rows = list(M), list(Q), list(V)
    d_max, r_disc, clips = (np.zeros(n) for _ in range(3))
    failed = np.zeros(n, dtype=bool)   # some round failed one of drive's checks
    with np.errstate(all="ignore"):   # Python floats overflow to inf silently too
        M[0], Q[0], V[0] = gradients[0], gradients[0] * gradients[0], abs(gradients[0])
        q_peak, v_peak = Q[0].copy(), V[0].copy()
        for t0 in range(1, T + 1, _BLOCK):   # rounds t0 .. t0 + k - 1
            g = gradients[t0:t0 + _BLOCK]
            k = len(g)
            steps = (zip(g.tolist(), (g * g).tolist(), np.abs(g).tolist()) if shared
                     else zip(g, g * g, np.abs(g)))
            for j, (g_t, g2_t, abs_t) in enumerate(steps):
                np.add(np.multiply(beta1, m_rows[j], out=m_rows[j + 1]), g_t, out=m_rows[j + 1])
                np.add(np.multiply(beta2, q_rows[j], out=q_rows[j + 1]), g2_t, out=q_rows[j + 1])
                np.maximum(np.multiply(beta1, v_rows[j], out=v_rows[j + 1]), abs_t,
                           out=v_rows[j + 1])
            failed |= (Q[:k] <= 0.0).any(axis=0)
            np.maximum(q_peak, np.maximum.reduce(Q[1:k + 1]), out=q_peak)
            np.maximum(v_peak, np.maximum.reduce(V[1:k + 1]), out=v_peak)
            # Round t0 + j's update reads row j, the state after g_{t0+j-1}.  Rows 0 .. k-1 are
            # not read after it, so the update is computed in place in them; row k carries on.
            neg_a = np.array([[-alpha_at(s, t) for s in schedules] for t in range(t0, t0 + k)],
                             dtype=np.float64)
            delta = np.multiply(neg_a if len(schedules) == 1 else neg_a[:, which], M[:k],
                                out=M[:k])
            np.divide(delta, np.sqrt(Q[:k], out=Q[:k]), out=delta)   # delta_bar = -a m / sqrt(q)
            failed |= ~np.isfinite(delta).all(axis=0)
            clipped = None
            if D is not None:   # clipped in place
                clipped = np.greater(np.abs(delta, out=Q[:k]), D)
                clips += np.count_nonzero(clipped, axis=0)
                np.copysign(D, delta, out=delta, where=clipped)
            if trace is not None:
                trace[0][t0 - 1:t0 - 1 + k] = delta
                trace[1][t0 - 1:t0 - 1 + k] = False if clipped is None else clipped
            np.fmax(d_max, np.fmax.reduce(np.abs(delta, out=V[:k])), out=d_max)   # skips NaN
            np.multiply(np.subtract(delta, u, out=delta), g[:, None] if shared else g, out=delta)
            for c in delta:
                np.add(np.multiply(beta1, r_disc, out=r_disc), c, out=r_disc)
            M[0], Q[0], V[0] = M[k], Q[k], V[k]
    # an overflowed q or r stays non-finite: b1 > 0, and b2 q is inf, or NaN when b2 is 0
    failed |= ~np.isfinite(Q[0]) | ~np.isfinite(r_disc)
    if failed.any():
        j = failed.argmax()
        # the learner's own run, on Python floats; a pair's beta2 may underflow to 0, which
        # HyperParams refuses, and drive reads only these four fields
        params = SimpleNamespace(beta1=float(beta1[j]), beta2=float(beta2[j]),
                                 alpha=schedules[which[j]], D=D)
        for _ in drive((gradients if shared else gradients[:, j]).tolist(), params, u):
            pass
    return BatchState(Q[0], V[0], d_max, r_disc, clips, q_peak, v_peak)


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

    def holds(self) -> bool:
        return at_most(self.lhs, min(self.stability_bound, self.range_bound))


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
    # each square once; eta_s reads sqrt(sum_{r<s} (p^r v_r)^2) off a prefix of them, the same
    # fsum as the literal forms take per prefix
    squares = loss_squares(losses, params.p)

    def eta(s: int) -> float:
        return ftrl_eta(root_of_sum(squares[:s]), params.p, alpha_at(params.alpha, s), s)

    def objective(s: int, eta_s: float, x: float) -> float:   # F_s(x)
        return x * x / (2.0 * eta_s) + math.fsum(losses[:s]) * x

    etas, deltas = [], []
    for s in range(1, T + 1):
        etas.append(eta(s))
        raw = -etas[-1] * math.fsum(losses[:s])
        if params.D is not None and abs(raw) > params.D:
            raise NotApplicableError(
                f"clipping fires at round {s}; the per-round inequality is not certified"
            )
        deltas.append(raw)
    d_T = max(abs(d) for d in deltas)

    eta_next = eta(t + 1)
    delta_next = -eta_next * math.fsum(losses[:t + 1])
    v_t = losses[t]
    lhs = (objective(t, etas[t - 1], deltas[t - 1]) - objective(t + 1, eta_next, delta_next)
           + v_t * deltas[t - 1])
    return PerRoundInequality(
        lhs=lhs,
        stability_bound=etas[t - 1] * v_t * v_t / 2.0,
        range_bound=2.0 * d_T * abs(v_t),
    )
