"""Discounted regret tracking and the driver loops of the stable learner.

The discounted regret of a play sequence ``(delta_t)`` against a comparator
``u`` after ``T`` rounds is

    R_T = sum_{t=1..T} beta1^(T-t) g_t (delta_t - u),

maintained stably by the recurrence ``r <- beta1 * r + g_t (delta_t - u)``.
Dividing by ``beta1^T`` gives the undiscounted regret on the rescaled losses
``v_t = beta1^(-t) g_t``.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import AdamFtrlError, RegimeError
from .learner import (HyperParams, LearnerState, alpha_at, fill_alphas, ingest_gradient,
                      propose_update)


class RegretLedger:
    """Running discounted regret against a fixed comparator; :func:`accumulate_discounted_regret`
    updates it in place."""

    __slots__ = ("u", "r_disc")

    def __init__(self, u: float, r_disc: float = 0.0):
        self.u, self.r_disc = u, r_disc


def accumulate_discounted_regret(ledger: RegretLedger, g: float, delta: float,
                                 beta1: float) -> RegretLedger:
    """Fold one round into the ledger: ``r <- beta1 * r + g * (delta - u)``.

    ``delta`` is the update that was emitted before ``g`` was revealed.
    """
    ledger.r_disc = beta1 * ledger.r_disc + g * (delta - ledger.u)
    return ledger


def drive(gradients, params: HyperParams, u: float = 0.0):
    """The stable learner's rounds ``t = 1..T``, ``T = len(gradients) - 1``: the referee loop.

    :func:`ingest_gradient` of ``g_0``, then per round :func:`propose_update`,
    :func:`ingest_gradient` of ``g_t`` and :func:`accumulate_discounted_regret`, so every
    per-round check is theirs; the one check of its own is that the regret stays finite.
    Yields ``(t, alpha_t, m_t, q_t, delta_bar, delta, clipped, r_disc, max_v, d_max, m, q)``:
    the accumulators the update used, the update, then the regret and the state after ``g_t``.
    """
    state, ledger = LearnerState(), RegretLedger(u)
    ingest_gradient(state, gradients[0], params)
    for t in range(1, len(gradients)):
        m_t, q_t = state.m, state.q
        out = propose_update(state, params)
        g = gradients[t]
        ingest_gradient(state, g, params)
        accumulate_discounted_regret(ledger, g, out.delta, params.beta1)
        if not math.isfinite(ledger.r_disc):
            raise RegimeError(f"discounted regret overflows at t={t}")
        yield (t, out.alpha_t, m_t, q_t, out.delta_bar, out.delta, out.clipped, ledger.r_disc,
               state.max_v, state.d_max, state.m, state.q)


# Rounds per block: of a trace, whose scans, derivation and pricing read it a block at a time,
# and of a batch, whose per-round loop fills (_BLOCK + 1) x 4n state rows.
_SPAN, _BLOCK = 1024, 64


class Trace(NamedTuple):
    """:func:`drive_trace`'s ``n`` rounds as the state after each: float64 columns of ``n + 1``
    values, round ``t``'s at ``t`` (round 0 ingests ``g_0``; ``alpha_0`` is NaN and the regret
    0).  Row ``t`` reads ``m_t`` and ``q_t`` at ``t - 1``, and all else at ``t``."""

    g: np.ndarray
    alpha: np.ndarray
    m: np.ndarray
    q: np.ndarray
    max_v: np.ndarray
    r_disc: np.ndarray
    D: float   # inf for an unbounded domain

    def blocks(self, size: int = _SPAN):
        """``(lo, hi, cells)`` for each block of ``size`` rows ``lo + 1 .. hi``, at least one:
        their ``delta_bar``, ``clipped``, ``delta``, loss ``g_t delta_t`` and ``D_t``, whose max
        runs on from block to block, as :func:`drive` makes them (numpy rounds as Python does)."""
        n, d_max = len(self.g) - 1, 0.0   # drive's starts at 0.0, and each abs >= +0.0
        for lo in range(0, max(n, 1), size):
            hi = min(lo + size, n)
            with np.errstate(all="ignore"):   # Python floats overflow to inf silently too
                delta_bar = -self.alpha[lo + 1:hi + 1] * self.m[lo:hi] / np.sqrt(self.q[lo:hi])
                clipped = np.abs(delta_bar) > self.D
                delta = np.where(clipped, np.copysign(self.D, delta_bar), delta_bar)
                d_max = np.maximum(np.maximum.accumulate(np.abs(delta)), d_max)
                loss = self.g[lo + 1:hi + 1] * delta
            yield lo, hi, (delta_bar, clipped, delta, loss, d_max)
            d_max = d_max[-1:]


def drive_trace(gradients, params: HyperParams, u: float = 0.0):
    """:func:`drive`'s rounds as a :class:`Trace`, bit for bit, and the error that stopped it, or
    ``None``.  ``m``, ``q`` and ``maxV`` run in one Python loop per block of ``_SPAN`` gradients,
    each with :func:`drive`'s float operations in its order; the regret runs after them as an
    ``itertools.accumulate`` over the terms that :meth:`Trace.blocks` derives from them.  A
    failure is only flagged (a zero ``g_0``, an ``alpha_at`` error, a non-finite update, as
    ``q = 0`` makes it, or a final ``q`` or regret not finite, as a bad gradient or an overflow
    leaves it), and :func:`drive` replayed to count the rows it yields before its own error:
    every check is written once."""
    b1, b2, g = params.beta1, params.beta2, np.asarray(gradients, dtype=np.float64)
    T = len(g) - 1
    alpha = np.full(T + 1, math.nan)
    with contextlib.suppress(AdamFtrlError):   # keeps the values before an error; nan after
        fill_alphas(alpha[1:], params.alpha, 1, alpha_at)
    m, q, max_v = np.empty(T + 1), np.empty(T + 1), np.empty(T + 1)   # after fill's temporaries

    def terms():   # each block's regret terms, once it is known whether its updates are finite
        for lo, hi, (delta_bar, _, delta, *_) in trace.blocks():
            finite.append(np.isfinite(delta_bar).all())
            yield (delta - u) * g[lo + 1:hi + 1]

    finite = []
    with np.errstate(all="ignore"):   # Python floats overflow to inf silently too
        # the state after g_0 is g_0, g_0^2 and |g_0|, as b * 0 + g = g; maxV: |g| above b1 v
        m[0], q[0], max_v[0] = g[0], g[0] * g[0], abs(g[0])
        m_t, q_t, v_t = m[0].item(), q[0].item(), max_v[0].item()
        for lo in range(1, T + 1, _SPAN):
            x = g[lo:lo + _SPAN]
            ms, qs, vs = [], [], []
            for g_t, g2, a in zip(x.tolist(), np.square(x).tolist(), np.abs(x).tolist()):
                ms.append(m_t := b1 * m_t + g_t)
                qs.append(q_t := b2 * q_t + g2)
                vs.append(v_t := a if a > (w := b1 * v_t) else w)
            m[lo:lo + _SPAN], q[lo:lo + _SPAN], max_v[lo:lo + _SPAN] = ms, qs, vs
        trace = Trace(g, alpha, m, q, max_v, None, math.inf if params.D is None else params.D)
        r_disc = itertools.accumulate(itertools.chain.from_iterable(
            c.tolist() for c in terms()), lambda r, c: b1 * r + c, initial=0.0)
        trace = trace._replace(r_disc=np.fromiter(r_disc, np.float64, T + 1))
    n, stop = T, None
    if g[0] == 0.0 or not (math.isfinite(trace.q[-1]) and all(finite)
                           and math.isfinite(trace.r_disc[-1])):
        try:
            n = 0
            for n, *_ in drive(g.tolist(), params, u):
                pass
        except AdamFtrlError as exc:
            stop = exc
    return Trace(*(column[:n + 1] for column in trace[:-1]), trace.D), stop


class BatchState(NamedTuple):
    """Each learner's state after a :func:`drive_batch` run, one entry per column."""

    q: np.ndarray
    max_v: np.ndarray
    d_max: np.ndarray
    r_disc: np.ndarray
    clips: np.ndarray    # rounds whose update was clipped
    q_peak: np.ndarray   # the largest q after any g_t, t = 0..T
    v_peak: np.ndarray   # the largest maxV after any g_t


def drive_batch(gradients, params, u: float, trace=None) -> BatchState:
    """:func:`drive` for the learners ``params`` at once, which it must match bit for bit.

    ``gradients`` is one ``(T + 1,)`` stream that every learner reads, or a ``(T + 1, n)``
    matrix with each learner's stream as a column.  ``params`` holds one :class:`HyperParams`
    per learner, as :func:`drive` takes one; all share ``D`` (else ``ValueError``) and ``u``.
    The rounds run in blocks of ``_BLOCK``, whose state is one float64 row per round,
    ``[r | m | q | maxV]`` with a column per learner; a round is three numpy calls, the row
    times ``[b1 | b1 | b2 | b1]``, plus ``[c | g | g^2]`` on its first ``3n`` values, and a
    ``max`` of ``maxV`` with ``|g|``.  The updates ``-a m / sqrt(q)``, their clip, ``D``, the
    peaks and the terms ``c = g (delta - u)`` are then computed on all the block's rows at once,
    so the next block's rounds fold them (the first block's fold zeros), and the last block's
    are folded after it.  Each value sees ``b * x``, then ``+ a`` or ``max``, in :func:`drive`'s
    order; only elementwise ``* + - / sqrt abs copysign`` (which round as Python floats do) and
    max reductions run outside that loop.  Memory is O(T + _BLOCK n) for a shared stream.

    ``trace``, if given, is a pair of ``(T, n)`` arrays, float64 and bool, that receive each
    round's emitted update and whether it was clipped.

    An error of ``alpha_at`` stops the batch at once.  Otherwise the run goes on to ``T`` and
    only flags each learner whose own :func:`drive` fails: a zero ``g_0``, a block's rows
    that show a ``q <= 0`` or a non-finite update, or a ``q`` or regret that is not finite
    after round ``T`` (a gradient that is not finite makes ``q`` so, and an overflowed ``q``
    or regret stays so).  Then the first flagged learner's column is replayed through
    :func:`drive`, so every gradient or numeric failure raises that learner's own error at
    its own round.
    """
    gradients = np.asarray(gradients, dtype=np.float64)
    if len({p.D for p in params}) > 1:
        raise ValueError("the learners of a batch must share D")
    D, T, n = params[0].D, len(gradients) - 1, len(params)
    b1, b2 = [p.beta1 for p in params], [p.beta2 for p in params]
    coef = np.array(b1 + b1 + b2 + b1)   # [b1 | b1 | b2 | b1], the factors of [r | m | q | maxV]
    beta1 = coef[:n]
    schedules: dict = {}   # each distinct schedule's number, in order of first use
    which = np.array([schedules.setdefault(p.alpha, len(schedules)) for p in params])
    shared = gradients.ndim == 1
    # Row 0 of S holds the state a block starts from, row j + 1 what round j adds and then the
    # state after it.  numpy buffers strided 2-D operands, so a block's columns are worked on
    # in W, as contiguous copies: the updates, which become the terms, and a scratch.
    S, W = np.zeros((min(_BLOCK, T) + 1, 4 * n)), np.zeros((2, min(_BLOCK, T), n))
    R, M, Q, V = (S[:, i * n:(i + 1) * n] for i in range(4))
    bx, alphas = np.empty(4 * n), np.empty((len(W[0]), len(schedules)))   # bx: a round's b * x
    bx_rmq, bx_v = bx[:3 * n], bx[3 * n:]
    steps = list(zip(S, S[1:, :3 * n], V[1:]))
    d_max, clips, k = np.zeros(n), np.zeros(n), 0
    with np.errstate(all="ignore"):   # Python floats overflow to inf silently too
        # the state after g_0 is g_0, g_0^2 and |g_0|, as b * 0 + g = g exactly
        M[0], Q[0], V[0] = gradients[0], gradients[0] * gradients[0], abs(gradients[0])
        failed = M[0] == 0.0   # per learner, whether its own drive fails: so far, at g_0 = 0
        q_peak, v_peak = Q[0].copy(), V[0].copy()
        for t0 in range(1, T + 1, _BLOCK):   # rounds t0 .. t0 + k - 1
            g = gradients[t0:t0 + _BLOCK]
            k = len(g)
            delta, work = W[:, :k]
            R[1:k + 1] = delta   # the terms of the block before: zeros before the first
            if shared:
                M[1:k + 1], Q[1:k + 1], abs_g = g[:, None], (g * g)[:, None], np.abs(g).tolist()
            else:
                M[1:k + 1], Q[1:k + 1] = g, np.multiply(g, g, out=work)
                abs_g = np.abs(g, out=delta)
            for (row, after_rmq, after_v), abs_t in zip(steps, abs_g):
                np.multiply(coef, row, out=bx)
                np.add(after_rmq, bx_rmq, out=after_rmq)
                np.maximum(bx_v, abs_t, out=after_v)
            np.maximum(q_peak, np.maximum.reduce(Q[1:k + 1]), out=q_peak)
            np.maximum(v_peak, np.maximum.reduce(V[1:k + 1]), out=v_peak)
            for i, schedule in enumerate(schedules):
                fill_alphas(alphas[:k, i], schedule, t0, alpha_at)
            neg_a = np.negative(alphas[:k], out=alphas[:k])
            delta[:], work[:] = M[:k], Q[:k]   # round t0 + j's update reads row j
            failed |= (work <= 0.0).any(axis=0)
            np.multiply(neg_a if len(schedules) == 1 else neg_a[:, which], delta, out=delta)
            np.divide(delta, np.sqrt(work, out=work), out=delta)   # delta_bar = -a m / sqrt(q)
            failed |= ~np.isfinite(delta).all(axis=0)
            clipped = None
            if D is not None:   # clipped in place
                clipped = np.greater(np.abs(delta, out=work), D)
                clips += np.count_nonzero(clipped, axis=0)
                np.copysign(D, delta, out=delta, where=clipped)
            if trace is not None:
                trace[0][t0 - 1:t0 - 1 + k] = delta
                trace[1][t0 - 1:t0 - 1 + k] = False if clipped is None else clipped
            np.fmax(d_max, np.fmax.reduce(np.abs(delta, out=work)), out=d_max)   # skips NaN
            np.multiply(np.subtract(delta, u, out=delta), g[:, None] if shared else g, out=delta)
            S[0] = S[k]
        # a short last block leaves the terms k .. _BLOCK - 1 of the block before it unfolded
        r_disc = R[0]
        for c in itertools.chain(W[0, k:], W[0, :k]):
            np.add(np.multiply(beta1, r_disc, out=r_disc), c, out=r_disc)
    # a gradient, q or regret that left the float range leaves q or r non-finite: b1, b2 > 0
    failed |= ~np.isfinite(Q[0]) | ~np.isfinite(r_disc)
    if failed.any():
        j = failed.argmax()
        for _ in drive((gradients if shared else gradients[:, j]).tolist(), params[j], u):
            pass
    return BatchState(Q[0], V[0], d_max, r_disc, clips, q_peak, v_peak)
