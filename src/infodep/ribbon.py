"""The hypercontractivity ribbon boundary q*(p) and its chordal slopes.

For exponents 1 <= q <= p, the pair (p, q) lies in the ribbon of a joint
distribution when ``||E[g(Y)|X]||_p <= ||g(Y)||_q`` holds for every
nonnegative g (restriction to g >= 0 loses nothing since
|E[g|X]| <= E[|g| | X]).  The boundary q*(p) is the smallest such q.  Its
chordal slope (q*(p) - 1)/(p - 1) tends to s*(Y;X) as p -> 1 and to
s*(X;Y) as p -> infinity, and is never below the squared maximal
correlation — the facts the acceptance suite checks against the other
modules.  Between the two limits it need not be monotone.

The inner supremum over g is nonconvex, so :func:`contraction_gap` is a
seeded multistart estimator and a *lower* bound on the true sup: q_star is
a lower estimate and in_ribbon can err only toward "yes".  Mitigations: the
seed set always contains every coordinate indicator (extremal for large p),
the constant function (extremal near independence), and Dirichlet draws;
iteration is a fixed point of the first-order stationarity map

    g  proportional to  E[ (E[g|X])^(p-1) | Y ] ^ (1/(q-1))

run entirely in log space so p as large as ``QSTAR_MAX_P`` = 128 cannot
overflow.

Near q* that map contracts at 0.96-1.0 per sweep, so each seed column of
log g is accelerated by a two-term Anderson mix (Walker & Ni 2011): with T
the normalized map and f = T(x) - x, the next iterate is T(x_k) minus the
combination of the last two differences of T(x) whose matching
combination of the differences of f best cancels f_k.  The mixed column is
renormalized to ||g||_q = 1, and a column takes the plain step T(x_k) where
the 2x2 least-squares problem is near singular or the mixed column is not
finite.  Every iterate is therefore still a feasible g, and the gap is
evaluated at every iterate, so the estimate stays a witness-backed lower
bound; the mix changes only which g are tried, and it needs 3-4x fewer
sweeps than the plain iteration over a q* bisection.

The q_star bisection probes no q below the floor 1 + rho^2 (p - 1), which
no point of the ribbon lies under (Ahlswede & Gacs 1976): just below q* the
gap opens only at second order, so a probe there could read "in".  On the
binary symmetric channel the floor is q* itself (Bonami 1970; Beckner 1975).

:func:`in_ribbon` (and with it the q_star bisection) needs only whether the
gap exceeds its tolerance.  The gap is a running maximum over sweeps, so a
probe stops at the first sweep whose gap is above the tolerance: the
remaining sweeps could only raise it, and the answer is exactly the one the
full :func:`contraction_gap` run gives.  Probes outside the ribbon usually
cross in one or two sweeps.

A sweep's arrays hold about |X|·|Y|·290 entries, so numpy's overhead per
call sets its cost: reductions call ``ufunc.reduce`` directly, not through
the Python wrappers ``np.max``, ``np.sum`` and ``np.nanmax``, and one
``np.errstate`` covers the whole loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import JointDistribution
from .errors import BadOrder, DegenerateAlphabet, PEqualsOne, ValidationError
from .spectral import maximal_correlation

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
#: the largest p q_star accepts: above it the bisection's answers drift
#: (fig2's chordal slope reads 0.2585 at p = 1e9, below rho^2 = 0.6)
QSTAR_MAX_P = 128.0
#: the clamp on a non-finite slice maximum in the log-sum-exp shift
_FMAX = np.finfo(float).max
#: the Anderson mix is used only where the 2x2 determinant exceeds this share
#: of a00 * a11, the squared sine of the angle between the two residual
#: differences; the determinant's own rounding is a few ulps of a00 * a11
_MIX_MIN_DET = 1e-12


@dataclass(frozen=True)
class QStarCurve:
    """Sampled boundary: p values, q*(p), and chordal slopes (q*-1)/(p-1)."""

    ps: np.ndarray
    qstars: np.ndarray
    slopes: np.ndarray


def _check_orders(p: float, q: float) -> tuple[float, float]:
    p, q = float(p), float(q)
    if not (1.0 <= p < math.inf and 1.0 <= q < math.inf):
        raise ValidationError(f"exponents must be finite and >= 1: p = {p!r}, q = {q!r}")
    if q > p:
        raise BadOrder(f"q = {q!r} exceeds p = {p!r}; only q <= p is meaningful here")
    return p, q


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, shifted by the slice maximum m.

    An all -inf slice gives -inf, a slice holding +inf gives +inf and one
    holding nan gives nan, none of them with a floating-point warning.  The
    shift is m clamped to the finite range, so it is m on every finite
    slice; there the sum is at least exp(0) = 1, and raising it to 1 changes
    only the all -inf slice, whose log(1) = 0 then takes m = -inf back.
    """
    top = np.maximum.reduce(a, axis, keepdims=True)
    terms = a - top.clip(-_FMAX, _FMAX)
    total = np.add.reduce(np.exp(terms, out=terms), axis)
    np.log(np.maximum(total, 1.0, out=total), out=total)
    return np.add(total, top.squeeze(axis), out=total)


def _gap(
    j: JointDistribution, p: float, q: float, stop_above: float, seed: int
) -> tuple[float, int]:
    """contraction_gap and the number of sweeps run, returning once the
    running gap exceeds ``stop_above``.

    The gap only grows over sweeps, so the early return changes the value
    but never which side of ``stop_above`` it lies on.  The exact p = 1 and
    q = 1 cases run no sweep.
    """
    p, q = _check_orders(p, q)
    nx, ny = j.shape
    px, py = j.px, j.py
    with np.errstate(divide="ignore"):
        logW = np.log(j.pxy / px[:, None])
        logB = np.log(j.pxy / py[None, :])
    logpx, logpy = np.log(px), np.log(py)

    if p - 1.0 < 1e-12:
        return 0.0, 0
    if q - 1.0 < 1e-12:
        with np.errstate(invalid="ignore"):
            log_tg = logW - logpy[None, :]
            log_norms = _logsumexp(logpx[:, None] + p * log_tg, axis=0) / p
        return float(max(np.max(np.expm1(log_norms)), 0.0)), 0

    rng = np.random.default_rng(seed)
    cols = [np.full((ny, ny), -np.inf), np.zeros((ny, 1))]
    np.fill_diagonal(cols[0], 0.0)
    n_seeds = 288 if ny <= 8 else GAP_RESTARTS
    cols.append(np.log(rng.dirichlet(np.ones(ny), size=n_seeds).T))
    logG = np.concatenate(cols, axis=1)

    pm1, qm1 = p - 1.0, q - 1.0
    logW3, logB3 = logW[:, :, None], logB[:, :, None]
    logpx2, logpy2 = logpx[:, None], logpy[:, None]

    def normalize(lg: np.ndarray) -> np.ndarray:
        return lg - _logsumexp(logpy2 + q * lg, axis=0) / q

    best_log = -np.inf
    hist: list[tuple[np.ndarray, np.ndarray]] = []  # (T(x), f) of the last sweeps
    with np.errstate(all="ignore"):
        logG = normalize(logG)
        for sweeps in range(1, GAP_MAX_ITER + 1):
            log_tg = _logsumexp(logW3 + logG, axis=1)
            log_norms = _logsumexp(logpx2 + p * log_tg, axis=0) / p
            best_log = max(best_log, float(np.maximum.reduce(log_norms)))
            if np.expm1(best_log) > stop_above:
                break
            logm = _logsumexp(logB3 + pm1 * log_tg[:, None, :], axis=0)
            new = normalize(logm / qm1)
            f = new - logG
            if np.fmax.reduce(np.abs(f), None) < GAP_CONV_TOL:
                break
            hist = hist[-2:] + [(new, f)]
            logG = _anderson_step(hist, normalize) if len(hist) == 3 else new
    return float(max(np.expm1(best_log), 0.0)), sweeps


def _anderson_step(hist, normalize) -> np.ndarray:
    """The two-term Anderson mix of each column of log g (Walker & Ni 2011).

    ``hist`` holds (T(x_i), f_i = T(x_i) - x_i) for i = k-2, k-1, k.  With
    dT_i and df_i the last two differences of T(x) and of f, the next
    iterate is T(x_k) - g0 dT0 - g1 dT1, where (g0, g1) minimizes
    |f_k - g0 df0 - g1 df1| through the 2x2 normal equations, renormalized
    to ||g||_q = 1.  A column keeps the plain step T(x_k) where the
    determinant is not above ``_MIX_MIN_DET`` * a00 * a11 (so no 0/0 is
    ever formed) or the mixed column is not finite.
    """
    (t0, f0), (t1, f1), (t2, f2) = hist
    d = np.array((f1 - f0, f2 - f1, f2))
    (a00, a01, b0), (_, a11, b1) = np.einsum("iyc,jyc->ijc", d[:2], d)
    det = a00 * a11 - a01 * a01
    ok = det > _MIX_MIN_DET * (a00 * a11)
    if not ok.any():
        return t2
    det[~ok] = np.inf
    g0 = (a11 * b0 - a01 * b1) / det
    g1 = (a00 * b1 - a01 * b0) / det
    mixed = normalize(t2 - g0 * (t1 - t0) - g1 * (t2 - t1))
    ok &= np.logical_and.reduce(np.isfinite(mixed), 0)
    return np.where(ok, mixed, t2)


def contraction_gap(j: JointDistribution, p: float, q: float, seed: int = 0) -> float:
    """Estimate of sup { ||E[g(Y)|X]||_p - 1 : g >= 0, ||g||_q = 1 }.

    A value <= 0 means the (p, q) contraction holds empirically.  The
    constant function is always a seed, so the estimate is never negative;
    it is a lower bound on the true supremum (see module docstring).  The
    Dirichlet seeds, 288 of them when |Y| <= 8 and ``GAP_RESTARTS`` = 32
    otherwise, are drawn from a generator seeded with ``seed``.  Each sweep
    applies the fixed-point map to every seed column and then a two-term
    Anderson mix of the column's last iterates, renormalized to
    ||g||_q = 1; the gap is the largest seen at any iterate, and since every
    iterate is a feasible g it stays a lower bound.  The sweeps stop once the
    map moves log g by less than ``GAP_CONV_TOL`` or after ``GAP_MAX_ITER``
    of them, whichever comes first.

    Special cases solved exactly: p = 1 gives 0 (both norms are E[g]); q = 1
    makes the feasible set { g >= 0, E[g] = 1 } with a convex objective, so
    the maximum sits at an extreme point g = indicator(y)/p(y) and all |Y|
    of them are evaluated directly.
    """
    return _gap(j, p, q, np.inf, seed)[0]


def in_ribbon(j: JointDistribution, p: float, q: float, seed: int = 0) -> bool:
    """Whether the (p, q) contraction holds: contraction_gap <= GAP_TOL.

    The sweeps stop at the first one whose gap exceeds ``GAP_TOL``; the
    answer is the one the full contraction_gap run with the same ``seed``
    gives.
    """
    return _gap(j, p, q, GAP_TOL, seed)[0] <= GAP_TOL


def q_star(j: JointDistribution, p: float, tol: float = QSTAR_TOL, seed: int = 0) -> float:
    """The boundary exponent: smallest q in [1, p] with the contraction holding.

    Bisection on q; the bracket needs no evaluation at its ends because q = p
    always lies in the ribbon (conditional Jensen), and a midpoint below the
    floor 1 + rho^2 (p - 1) moves ``lo`` without a probe (Ahlswede & Gacs
    1976: linearize at g = 1 + eps h; see the module docstring).  When the
    floor is within ``tol`` of 1, the q = 1 end is probed once: if
    (p, 1 + tol) already holds, the result is exactly 1.  A single-symbol
    alphabet counts as rho = 0.  p must lie in [1, ``QSTAR_MAX_P``].
    """
    p, tol = float(p), float(tol)
    if not 1.0 <= p <= QSTAR_MAX_P:
        raise ValidationError(f"p must be in [1, {QSTAR_MAX_P:g}], got {p!r}")
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"tol must be finite and > 0, got {tol!r}")
    if p - 1.0 < 1e-12 or p - 1.0 <= tol:
        return 1.0
    try:
        rho = maximal_correlation(j).rho
    except DegenerateAlphabet:
        rho = 0.0
    floor = 1.0 + rho * rho * (p - 1.0)
    if floor <= 1.0 + tol and in_ribbon(j, p, 1.0 + tol, seed):
        return 1.0
    lo, hi = 1.0, p
    for _ in range(QSTAR_MAX_BISECT):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid >= floor and in_ribbon(j, p, mid, seed):
            hi = mid
        else:
            lo = mid
    return hi


def q_star_curve(
    j: JointDistribution, ps, tol: float = QSTAR_TOL, seed: int = 0
) -> QStarCurve:
    """q*(p) and chordal slopes over an increasing sequence of p > 1 values."""
    ps = np.asarray(list(ps), dtype=float)
    if ps.size == 0 or ps.min() <= 1.0 or ps.max() > QSTAR_MAX_P:
        raise ValidationError(f"curve sampling needs p values in (1, {QSTAR_MAX_P:g}]")
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
    """(q*(p) - 1)/(p - 1): at least rho^2, and tends to s*(X;Y) as p grows."""
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
