"""The hypercontractivity ribbon boundary q*(p) and its chordal slopes.

For exponents 1 <= q <= p, the pair (p, q) lies in the ribbon of a joint
distribution when ``||E[g(Y)|X]||_p <= ||g(Y)||_q`` holds for every
nonnegative g (restriction to g >= 0 loses nothing since
|E[g|X]| <= E[|g| | X]).  The boundary q*(p) is the smallest such q.  Its
chordal slope (q*(p) - 1)/(p - 1) increases from s*(Y;X) as p -> 1 up to
s*(X;Y) as p -> infinity, and is never below the squared maximal
correlation — the facts the acceptance suite checks against the other
modules.

The inner supremum over g is nonconvex, so :func:`contraction_gap` is a
seeded multistart estimator and a *lower* bound on the true sup: q_star is
a lower estimate and in_ribbon can err only toward "yes".  Mitigations: the
seed set always contains every coordinate indicator (extremal for large p),
the constant function (extremal near independence), and Dirichlet draws;
iteration is a fixed point of the first-order stationarity map

    g  proportional to  E[ (E[g|X])^(p-1) | Y ] ^ (1/(q-1))

run entirely in log space so p as large as 128 cannot overflow.

:func:`in_ribbon` (and with it the q_star bisection) needs only whether the
gap exceeds its tolerance.  The gap is a running maximum over sweeps, so a
probe stops at the first sweep whose gap is above the tolerance: the
remaining sweeps could only raise it, and the answer is exactly the one the
full :func:`contraction_gap` run gives.  Probes outside the ribbon usually
cross in one or two sweeps instead of running all ``GAP_MAX_ITER``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import JointDistribution
from .errors import BadOrder, PEqualsOne, ValidationError

__all__ = [
    "QStarCurve",
    "contraction_gap",
    "in_ribbon",
    "q_star",
    "q_star_curve",
    "chordal_slope",
    "slope_at_one",
    "conjugate",
]

#: Dirichlet multistart count for the inner maximization when |Y| > 8; for
#: |Y| <= 8 the seeds are cheap and 288 are drawn
GAP_RESTARTS = 32
#: fixed-point sweeps per seed batch
GAP_MAX_ITER = 300
#: convergence tolerance on log g between sweeps
GAP_CONV_TOL = 1e-12
#: a gap at most this large counts as "the inequality holds"
GAP_TOL = 1e-9
#: default absolute tolerance on q in the q_star bisection
QSTAR_TOL = 1e-4
#: hard cap on bisection iterations
QSTAR_MAX_BISECT = 60


@dataclass(frozen=True)
class QStarCurve:
    """Sampled boundary: p values, q*(p), and chordal slopes (q*-1)/(p-1)."""

    ps: np.ndarray
    qstars: np.ndarray
    slopes: np.ndarray


def _check_orders(p: float, q: float) -> tuple[float, float]:
    p, q = float(p), float(q)
    if p < 1.0 or q < 1.0:
        raise ValidationError(f"exponents must be >= 1, got p = {p!r}, q = {q!r}")
    if q > p:
        raise BadOrder(f"q = {q!r} exceeds p = {p!r}; only q <= p is meaningful here")
    return p, q


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, shifted by the slice maximum.

    An all -inf slice gives -inf (its shift is taken as 0, not -inf).
    """
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - shift), axis=axis)) + np.squeeze(shift, axis=axis)


def _gap(j: JointDistribution, p: float, q: float, stop_above: float, seed: int) -> float:
    """contraction_gap, returning once the running gap exceeds ``stop_above``.

    The gap only grows over sweeps, so the early return changes the value
    but never which side of ``stop_above`` it lies on.
    """
    p, q = _check_orders(p, q)
    nx, ny = j.shape
    px, py = j.px, j.py
    with np.errstate(divide="ignore"):
        logW = np.log(j.pxy / px[:, None])
        logB = np.log(j.pxy / py[None, :])
    logpx, logpy = np.log(px), np.log(py)

    if p - 1.0 < 1e-12:
        return 0.0
    if q - 1.0 < 1e-12:
        with np.errstate(invalid="ignore"):
            log_tg = logW - logpy[None, :]
            log_norms = _logsumexp(logpx[:, None] + p * log_tg, axis=0) / p
        return float(max(np.max(np.expm1(log_norms)), 0.0))

    rng = np.random.default_rng(seed)
    cols = [np.full((ny, ny), -np.inf), np.zeros((ny, 1))]
    np.fill_diagonal(cols[0], 0.0)
    n_seeds = 288 if ny <= 8 else GAP_RESTARTS
    cols.append(np.log(rng.dirichlet(np.ones(ny), size=n_seeds).T))
    logG = np.concatenate(cols, axis=1)

    def normalize(lg: np.ndarray) -> np.ndarray:
        return lg - _logsumexp(logpy[:, None] + q * lg, axis=0) / q

    best_log = -np.inf
    with np.errstate(all="ignore"):
        logG = normalize(logG)
        for _ in range(GAP_MAX_ITER):
            log_tg = _logsumexp(logW[:, :, None] + logG[None, :, :], axis=1)
            log_norms = _logsumexp(logpx[:, None] + p * log_tg, axis=0) / p
            best_log = max(best_log, float(np.max(log_norms)))
            if np.expm1(best_log) > stop_above:
                break
            logm = _logsumexp(logB[:, :, None] + (p - 1.0) * log_tg[:, None, :], axis=0)
            new = normalize(logm / (q - 1.0))
            delta = np.abs(new - logG)
            logG = new
            if np.nanmax(delta) < GAP_CONV_TOL:
                break
    return float(max(np.expm1(best_log), 0.0))


def contraction_gap(j: JointDistribution, p: float, q: float, seed: int = 0) -> float:
    """Estimate of sup { ||E[g(Y)|X]||_p - 1 : g >= 0, ||g||_q = 1 }.

    A value <= 0 means the (p, q) contraction holds empirically.  The
    constant function is always a seed, so the estimate is never negative;
    it is a lower bound on the true supremum (see module docstring).  The
    Dirichlet seeds, 288 of them when |Y| <= 8 and ``GAP_RESTARTS`` = 32
    otherwise, are drawn from a generator seeded with ``seed``; the sweeps stop after ``GAP_MAX_ITER`` sweeps or once log g
    moves by less than ``GAP_CONV_TOL``.

    Special cases solved exactly: p = 1 gives 0 (both norms are E[g]); q = 1
    makes the feasible set { g >= 0, E[g] = 1 } with a convex objective, so
    the maximum sits at an extreme point g = indicator(y)/p(y) and all |Y|
    of them are evaluated directly.
    """
    return _gap(j, p, q, np.inf, seed)


def in_ribbon(j: JointDistribution, p: float, q: float, seed: int = 0) -> bool:
    """Whether the (p, q) contraction holds: contraction_gap <= GAP_TOL.

    The sweeps stop at the first one whose gap exceeds ``GAP_TOL``; the
    answer is the one the full contraction_gap run with the same ``seed``
    gives.
    """
    return _gap(j, p, q, GAP_TOL, seed) <= GAP_TOL


def q_star(j: JointDistribution, p: float, tol: float = QSTAR_TOL, seed: int = 0) -> float:
    """The boundary exponent: smallest q in [1, p] with the contraction holding.

    Bisection on q; the bracket needs no evaluation at its ends because q = p
    always lies in the ribbon (conditional Jensen) and the q = 1 end is
    probed once: when (p, 1 + tol) already holds, the result is exactly 1.
    """
    p = float(p)
    if p < 1.0:
        raise ValidationError(f"p must be >= 1, got {p!r}")
    if p - 1.0 < 1e-12 or p - 1.0 <= tol:
        return 1.0
    if in_ribbon(j, p, 1.0 + tol, seed):
        return 1.0
    lo, hi = 1.0, p
    for _ in range(QSTAR_MAX_BISECT):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if in_ribbon(j, p, mid, seed):
            hi = mid
        else:
            lo = mid
    return hi


def q_star_curve(
    j: JointDistribution, ps, tol: float = QSTAR_TOL, seed: int = 0
) -> QStarCurve:
    """q*(p) and chordal slopes over an increasing sequence of p > 1 values."""
    ps = np.asarray(list(ps), dtype=float)
    if ps.size == 0 or ps.min() <= 1.0:
        raise ValidationError("curve sampling needs p values > 1")
    if np.any(np.diff(ps) <= 0.0):
        raise ValidationError("p values must be strictly increasing")
    qstars = np.array([q_star(j, p, tol, seed) for p in ps])
    slopes = (qstars - 1.0) / (ps - 1.0)
    for a in (ps, qstars, slopes):
        a.setflags(write=False)
    return QStarCurve(ps, qstars, slopes)


def chordal_slope(
    j: JointDistribution, p: float, tol: float = QSTAR_TOL, seed: int = 0
) -> float:
    """(q*(p) - 1)/(p - 1): rises toward s*(X;Y) as p grows."""
    p = float(p)
    if p <= 1.0:
        raise PEqualsOne(f"chordal slope needs p > 1, got {p!r}")
    return (q_star(j, p, tol, seed) - 1.0) / (p - 1.0)


def slope_at_one(
    j: JointDistribution, eps: float, tol: float = QSTAR_TOL, seed: int = 0
) -> float:
    """Chordal slope at p = 1 + eps; approaches s*(Y;X) as eps -> 0."""
    eps = float(eps)
    if not 0.0 < eps <= 0.5:
        raise ValidationError(f"eps must be in (0, 0.5], got {eps!r}")
    return chordal_slope(j, 1.0 + eps, tol, seed)


def conjugate(p: float) -> float:
    """The Hoelder conjugate p/(p-1); an involution pairing the two ribbons."""
    p = float(p)
    if p == 1.0:
        raise PEqualsOne("the conjugate of 1 is unbounded")
    return p / (p - 1.0)
