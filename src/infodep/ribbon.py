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

Near the constant g that map contracts at rho^2 (p - 1)/(q - 1) per sweep,
which is 1 at q = 1 + rho^2 (p - 1) and 0.994 at q*(4) of remark3, so each
seed column of log g is accelerated by a two-term Anderson mix (Walker & Ni
2011): with T the normalized map and f = T(x) - x, the next iterate is
T(x_k) minus the combination of the last two differences of T(x) whose
matching combination of the differences of f best cancels f_k.  Where the
two differences of f are near parallel, as always on a binary Y alphabet,
whose normalized columns lie on a curve, the column drops the older one and
takes the one-term (secant) mix on the latest.  The mixed column is
renormalized to ||g||_q = 1, and a column takes the plain step T(x_k) only
where its latest difference of f is zero or the mixed column is not
finite.  Every iterate is therefore still a feasible g, and the gap is
evaluated at every iterate, so the estimate stays a witness-backed lower
bound; the mix changes only which g are tried.

q_star climbs on witness crossings in the manner of Dinkelbach (1967), the
scheme lambda_dagger also uses.  For a fixed g >= 0, ||g||_q is
nondecreasing in q, so a g with ||E[g|X]||_p > ||g||_q violates every
(p, q') with q' below its crossing q_g, where ||g||_q_g = ||E[g|X]||_p:
q* >= q_g, and q_g <= p by conditional Jensen.  From the floor
1 + rho^2 (p - 1), under which no point of the ribbon lies (Ahlswede &
Gacs 1976), q_star runs the sweeps at q_k, warm-started from the columns of
q_(k-1), and a few sweeps after the first column whose gap exceeds
``_WITNESS_GAP`` it moves to the largest crossing of those columns.  That
crossing solve starts each column's bracket at the root of the tangent at
q_k, at or above its crossing, so after one step on every column only the
likely winner is left, and it closes alone.  Where the moves shrink only
linearly, the runs between them grow (see ``_CRAWL_RATIO``).  It stops at
the first q whose sweeps end, by convergence or by the cap, with no such
column.  So q_star is the larger of the floor and the best crossing, and
every answer above the floor is the crossing of an explicit g.  The climb
starts at the floor however close to 1 it lies; only a floor of exactly 1
(p = 1, rho = 0) or p within 1e-12 of 1 returns at once.  Near
p = 1 + eps a witness's gap shrinks with eps, and below about eps = 1e-10
(fig2 and remark3) no column clears the 1e-12 test, so the chordal slope
reads rho^2 there, not s*(Y;X).  Just below
q* the gap opens only at second order, so a 1e-9 test (``GAP_TOL``) there
still reads "in": the witness threshold sits far below it, at 1e-12.  On
the binary symmetric channel the floor is q* itself (Bonami 1970; Beckner
1975).

:func:`in_ribbon` needs only whether the gap exceeds its tolerance.  The
gap is a running maximum over sweeps, so a probe stops at the first sweep
whose gap is above the tolerance: the remaining sweeps could only raise it,
and the answer is exactly the one the full :func:`contraction_gap` run
gives.  Probes outside the ribbon usually cross in one or two sweeps.

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
#: the largest p q_star accepts: far above it the sweeps lose the gap to
#: rounding (fig2's chordal slope read 0.2585 at p = 1e9, below rho^2 = 0.6)
QSTAR_MAX_P = 128.0
#: the clamp on a non-finite slice maximum in the log-sum-exp shift
_FMAX = np.finfo(float).max
#: the two-term Anderson mix is used only where the 2x2 determinant exceeds
#: this share of a00 * a11, the squared sine of the angle between the two
#: residual differences, and the one-term mix elsewhere; the determinant's
#: own rounding is a few ulps of a00 * a11
_MIX_MIN_DET = 1e-12
#: a column whose gap exceeds this witnesses q* above the q of its sweeps;
#: 1e4 ulps of the norm near 1 that it is read from
_WITNESS_GAP = 1e-12
#: sweeps run after the first witness before q_star's first move to a
#: crossing: two more let the Anderson mix engage, while with none or one the
#: outer steps crawl (hundreds per q* on the ribbon benchmark's inputs)
_WITNESS_EXTRA = 2
#: a move longer than this share of the one before is a crawl, and doubles
#: the sweeps that the next run takes after its first witness
_CRAWL_RATIO = 0.25
#: cap on q_star's outer steps (at most 6 on the ribbon benchmark's inputs,
#: and 9 on 145 flat- and sparse-Dirichlet joints up to 7x11)
_QSTAR_MAX_STEPS = 100
#: cap on the bracketing steps of one crossing solve
_CROSSING_MAX_ITER = 60
#: a crossing bracket this many ulps of q wide, or across which f moves by
#: this many ulps of its largest term, is closed
_CROSSING_ULPS = 2.0


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


def _kernel(j: JointDistribution) -> tuple[np.ndarray, ...]:
    """log W(y|x), log B(x|y), log p(x) and log p(y) of ``j``, the arrays
    every sweep reads."""
    px, py = j.px, j.py
    with np.errstate(divide="ignore"):
        logW = np.log(j.pxy / px[:, None])
        logB = np.log(j.pxy / py[None, :])
    return logW, logB, np.log(px), np.log(py)


def _seed_columns(ny: int, seed: int) -> np.ndarray:
    """The multistart columns of log g, not yet normalized: every
    coordinate indicator, the constant, and Dirichlet draws seeded with
    ``seed``, 288 of them when |Y| <= 8 and ``GAP_RESTARTS`` otherwise."""
    rng = np.random.default_rng(seed)
    cols = [np.full((ny, ny), -np.inf), np.zeros((ny, 1))]
    np.fill_diagonal(cols[0], 0.0)
    n_seeds = 288 if ny <= 8 else GAP_RESTARTS
    cols.append(np.log(rng.dirichlet(np.ones(ny), size=n_seeds).T))
    return np.concatenate(cols, axis=1)


def _sweeps(kernel, p: float, q: float, logG: np.ndarray):
    """Yield each iterate of the Anderson-mixed fixed-point map at (p, q)
    from the columns ``logG``, normalized to ||g||_q = 1, with its
    log ||E[g|X]||_p per column.

    The iteration stops once the map moves log g by less than
    ``GAP_CONV_TOL`` or after ``GAP_MAX_ITER`` iterates.  Callers run it
    under ``np.errstate(all="ignore")``; 1 < q <= p.
    """
    logW, logB, logpx, logpy = kernel
    pm1, qm1 = p - 1.0, q - 1.0
    logW3, logB3 = logW[:, :, None], logB[:, :, None]
    logpx2, logpy2 = logpx[:, None], logpy[:, None]

    def normalize(lg: np.ndarray) -> np.ndarray:
        return lg - _logsumexp(logpy2 + q * lg, axis=0) / q

    hist: list[tuple[np.ndarray, np.ndarray]] = []  # (T(x), f) of the last sweeps
    logG = normalize(logG)
    for _ in range(GAP_MAX_ITER):
        log_tg = _logsumexp(logW3 + logG, axis=1)
        yield logG, _logsumexp(logpx2 + p * log_tg, axis=0) / p
        logm = _logsumexp(logB3 + pm1 * log_tg[:, None, :], axis=0)
        new = normalize(logm / qm1)
        f = new - logG
        if np.fmax.reduce(np.abs(f), None) < GAP_CONV_TOL:
            return
        hist = hist[-2:] + [(new, f)]
        logG = _anderson_step(hist, normalize) if len(hist) == 3 else new


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
    if p - 1.0 < 1e-12:
        return 0.0, 0
    kernel = _kernel(j)
    if q - 1.0 < 1e-12:
        logW, _, logpx, logpy = kernel
        with np.errstate(invalid="ignore"):
            log_tg = logW - logpy[None, :]
            log_norms = _logsumexp(logpx[:, None] + p * log_tg, axis=0) / p
        return float(max(np.max(np.expm1(log_norms)), 0.0)), 0

    best_log = -np.inf
    with np.errstate(all="ignore"):
        logG = _seed_columns(j.shape[1], seed)
        for sweeps, (_, log_norms) in enumerate(_sweeps(kernel, p, q, logG), 1):
            best_log = max(best_log, float(np.maximum.reduce(log_norms)))
            if np.expm1(best_log) > stop_above:
                break
    return float(max(np.expm1(best_log), 0.0)), sweeps


def _anderson_step(hist, normalize) -> np.ndarray:
    """The two-term Anderson mix of each column of log g (Walker & Ni 2011).

    ``hist`` holds (T(x_i), f_i = T(x_i) - x_i) for i = k-2, k-1, k.  With
    dT_i and df_i the last two differences of T(x) and of f, the next
    iterate is T(x_k) - g0 dT0 - g1 dT1, where (g0, g1) minimizes
    |f_k - g0 df0 - g1 df1| through the 2x2 normal equations, renormalized
    to ||g||_q = 1.  A column whose determinant is not above
    ``_MIX_MIN_DET`` * a00 * a11 drops df0 and takes the one-term mix
    T(x_k) - g1 dT1 with g1 = <df1, f_k> / <df1, df1>.  A column keeps the
    plain step T(x_k) where <df1, df1> is 0 (so no 0/0 is ever formed) or
    the mixed column is not finite.
    """
    (t0, f0), (t1, f1), (t2, f2) = hist
    d = np.array((f1 - f0, f2 - f1, f2))
    (a00, a01, b0), (_, a11, b1) = np.einsum("iyc,jyc->ijc", d[:2], d)
    det = a00 * a11 - a01 * a01
    ok = det > _MIX_MIN_DET * (a00 * a11)
    if not ok.all():
        # the one-term mix on df1: with (a00, a01, b0) = (1, 0, 0) the same
        # formulas give det = a11, g0 = 0 and g1 = b1 / a11
        one = ~ok
        a00[one], a01[one], b0[one], det[one] = 1.0, 0.0, 0.0, a11[one]
        ok = det > 0.0
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
    applies the fixed-point map to every seed column and then an Anderson
    mix of the column's last iterates, two-term or, where the residual
    differences are parallel, one-term, renormalized to
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
    gives.  Just inside q* a gap under ``GAP_TOL`` can still be a violation
    (see the module docstring), so q_star does not probe with it.
    """
    return _gap(j, p, q, GAP_TOL, seed)[0] <= GAP_TOL


def _crossing(
    logG: np.ndarray, log_norms: np.ndarray, logpy: np.ndarray, lo: float, hi: float
) -> tuple[float, int]:
    """The largest crossing among the columns of log g, and its column.

    A column's crossing is the q in [lo, hi] where log ||g||_q reaches its
    log ||E[g|X]||_p, ``log_norms``.  With K(q) = log E[g^q], it is the root
    of the convex f(q) = K(q) - q log_norms, which is below 0 at ``lo`` for
    a witness.  The tangent at ``lo`` lies below f, so its root is a right
    end at or above the crossing, and far closer to it than ``hi``; where
    the slope at ``lo`` is not positive or the root lies beyond ``hi``, the
    right end is ``hi``.  A column with f <= 0 at its first right end
    crosses there: at ``hi``, or at a tangent root within rounding of its
    crossing.  Each step then takes Newton from the right end, which stays
    at or above the root, and a chord from the left, which stays at or
    below it, so every left end keeps f <= 0 and the column witnesses
    q* >= it.  Near the root the sign of f is rounding noise and both steps
    can land on an end; Newton then tries one ulp inside the right end and
    the midpoint takes the chord's place, so every step narrows the
    bracket.  A column whose right end falls below the best left end cannot
    win and is dropped, and the arrays are cut to the columns left, so the
    last one closes alone.  A bracket closes at ``_CROSSING_ULPS`` ulps of
    q, or where f moves across it by at most ``_CROSSING_ULPS`` ulps of its
    largest term.  Callers run it under ``np.errstate(all="ignore")``.
    """
    logpy2 = logpy[:, None]
    cols = np.arange(log_norms.shape[0])
    lgz = np.where(logG > -np.inf, logG, 0.0)

    def at(q: np.ndarray) -> np.ndarray:
        # rows q, f, f' and one ulp of f's largest term, on the columns left
        terms = logpy2 + q * logG
        top = np.maximum.reduce(terms, 0)
        e = np.exp(terms - top)
        total = np.add.reduce(e, 0)
        k = np.log(total)
        return np.array((q, k + top - q * log_norms,
                         np.add.reduce(e * lgz, 0) / total - log_norms,
                         np.spacing(k + np.abs(top))))

    def move(x: np.ndarray, left: np.ndarray, right: np.ndarray):
        # the end on f(x)'s side moves to x where x narrows the bracket
        new = at(x)
        return (np.where((new[1] <= 0.0) & (x > left[0]), new, left),
                np.where((new[1] > 0.0) & (x < right[0]), new, right))

    left = at(np.full(cols.size, lo))
    tangent = lo - left[1] / left[2]
    right = at(np.where((left[2] > 0.0) & (tangent < hi), tangent, hi))
    left = np.where(right[1] <= 0.0, right, left)
    ends = np.full(cols.size, -np.inf)  # left ends by column, as of the last cut
    best_a = -np.inf
    for _ in range(_CROSSING_MAX_ITER):
        a, (b, _, db, ub) = left[0], right
        best_a = max(best_a, a.max())
        width = _CROSSING_ULPS * np.maximum(np.spacing(b), ub / db)
        live = (b - a > width) & (b > best_a)
        if not live.all():
            ends[cols] = a
            if not live.any():
                break
            cols, log_norms, logG, lgz = cols[live], log_norms[live], logG[:, live], lgz[:, live]
            left, right = left[:, live], right[:, live]
        a, (b, fb, db, _) = left[0], right
        left, right = move(np.minimum(np.maximum(b - fb / db, a), np.nextafter(b, a)), left, right)
        (a, fa), (b, fb) = left[:2], right[:2]
        chord = a - fa * (b - a) / (fb - fa)
        left, right = move(np.where((a < chord) & (chord < b), chord, 0.5 * (a + b)), left, right)
    ends[cols] = left[0]
    best = int(np.argmax(ends))
    return float(ends[best]), best


def _q_star(
    j: JointDistribution, p: float, *, seed: int
) -> tuple[float, np.ndarray | None, int, int]:
    """q_star, the column of log g whose crossing it is (None at the
    floor), the outer steps and the sweeps run in total."""
    p = float(p)
    if not 1.0 <= p <= QSTAR_MAX_P:
        raise ValidationError(f"p must be in [1, {QSTAR_MAX_P:g}], got {p!r}")
    try:
        rho = maximal_correlation(j).rho
    except DegenerateAlphabet:
        rho = 0.0
    q = floor = 1.0 + rho * rho * (p - 1.0)
    if p - 1.0 < 1e-12 or floor == 1.0:
        return floor, None, 0, 0
    kernel = _kernel(j)
    log_above = math.log1p(_WITNESS_GAP)
    witness, steps, total = None, 0, 0
    extra, last_move = _WITNESS_EXTRA, math.inf
    with np.errstate(all="ignore"):
        logG = _seed_columns(j.shape[1], seed)
        while steps < _QSTAR_MAX_STEPS:
            steps += 1
            found, first = None, None
            for sweep, (logG, log_norms) in enumerate(_sweeps(kernel, p, q, logG)):
                above = log_norms > log_above
                if np.logical_or.reduce(above):
                    found = logG[:, above], log_norms[above]
                    first = sweep if first is None else first
                if first is not None and sweep - first >= extra:
                    break
            total += sweep + 1
            if found is None:
                break
            cross, best = _crossing(*found, kernel[3], q, p)
            if cross <= q:
                break
            if cross - q > _CRAWL_RATIO * last_move:
                extra *= 2
            q, witness, last_move = cross, found[0][:, best], cross - q
            if q >= p:
                break
    return q, witness, steps, total


def q_star(j: JointDistribution, p: float, *, seed: int = 0) -> float:
    """The boundary exponent: smallest q in [1, p] with the contraction holding.

    An ascent on witness crossings from the floor 1 + rho^2 (p - 1) (see the
    module docstring): the result is the larger of the floor and the best
    crossing q of an explicit g, which violates every (p, q') with q' < q,
    so it is a lower estimate of q* and never below the floor.  Unless the
    cap of 100 outer steps ended the climb, the sweeps at q found no column
    with a gap above 1e-12.  The floor is returned without a sweep where it
    is exactly 1 (p = 1, or rho = 0) or p is within 1e-12 of 1.  The
    Dirichlet seed columns come from ``seed``.  A single-symbol alphabet
    counts as rho = 0.  p must lie in [1, ``QSTAR_MAX_P``].
    """
    return _q_star(j, p, seed=seed)[0]


def q_star_curve(j: JointDistribution, ps, *, seed: int = 0) -> QStarCurve:
    """q*(p) and chordal slopes over an increasing sequence of p > 1 values."""
    ps = np.asarray(list(ps), dtype=float)
    if ps.size == 0 or ps.min() <= 1.0 or ps.max() > QSTAR_MAX_P:
        raise ValidationError(f"curve sampling needs p values in (1, {QSTAR_MAX_P:g}]")
    if np.any(np.diff(ps) <= 0.0):
        raise ValidationError("p values must be strictly increasing")
    qstars = np.array([q_star(j, p, seed=seed) for p in ps])
    slopes = (qstars - 1.0) / (ps - 1.0)
    for a in (ps, qstars, slopes):
        a.setflags(write=False)
    return QStarCurve(ps, qstars, slopes)


def chordal_slope(j: JointDistribution, p: float, *, seed: int = 0) -> float:
    """(q*(p) - 1)/(p - 1): at least rho^2, and tends to s*(X;Y) as p grows."""
    p = float(p)
    if p <= 1.0:
        raise PEqualsOne(f"chordal slope needs p > 1, got {p!r}")
    return (q_star(j, p, seed=seed) - 1.0) / (p - 1.0)


def slope_at_one(j: JointDistribution, eps: float, *, seed: int = 0) -> float:
    """Chordal slope at p = 1 + eps; approaches s*(Y;X) as eps -> 0.

    q_star never returns less than its floor 1 + rho^2 eps, so the slope is
    never below rho^2 by more than that floor's rounding, 1.1e-16 / eps.
    Below about eps = 1e-10 (fig2 and remark3) no witness clears q_star's
    1e-12 gap test, and the slope is the floor's, rho^2.
    """
    eps = float(eps)
    if not 0.0 < eps <= 0.5:
        raise ValidationError(f"eps must be in (0, 0.5], got {eps!r}")
    return chordal_slope(j, 1.0 + eps, seed=seed)


def conjugate(p: float) -> float:
    """The Hoelder conjugate p/(p-1); an involution pairing the two ribbons."""
    p = float(p)
    if p == 1.0:
        raise PEqualsOne("the conjugate of 1 is unbounded")
    return p / (p - 1.0)
