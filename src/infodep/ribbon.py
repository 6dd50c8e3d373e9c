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
a lower estimate, and :func:`in_ribbon`, which reads q >= q_star, can err
only toward "yes".  Mitigations: the seed set always contains every
coordinate indicator (extremal for large p), the constant function
(extremal near independence), and Dirichlet draws; iteration is a fixed
point of the first-order stationarity map

    g  proportional to  E[ (E[g|X])^(p-1) | Y ] ^ (1/(q-1))

on columns of log g.  Every norm has one form, on columns shifted out of
log space by their maximum: E[g|X], its (p - 1) power and that power's mean
given Y are matrix products on values in [0, 1], and
log E[g^q] = q top + log(p(y) @ exp(q (log g - top))), with top the
column's largest log g, normalizes every iterate to ||g||_q = 1 (at q = 1,
the indicators to the extreme points indicator(y)/p(y)) and gives the
crossing solve its log E[g^q].  So p up to ``QSTAR_MAX_P`` = 128 cannot
overflow.  A sum weighted by p(y) keeps its largest g's term, at least the
least p(y), and with no zero in p(x, y) each sum of the map keeps one of at
least the kernel's least entry; beside either, a term under 2.2e-308 rounds
away.  Zeros can leave a sum of the map only such terms: at p = 128,
u^(p - 1) is below 2.2e-308 for u < 3.8e-3 (0 for u < 2.8e-3), so a y whose
every x has u that low gets a g(y) with few digits or none (a -inf).  Such
a g(y) is about 2.2e-308^(1/(q - 1)) of its column's largest or less, and
adds under 1e-308 to both norms.

Near the constant g that map contracts at rho^2 (p - 1)/(q - 1) per sweep,
which is 1 at q = 1 + rho^2 (p - 1) and 0.994 at q*(4) of remark3, so each
column takes a two-term Anderson mix (Walker & Ni 2011): with T the
normalized map and f = T(x) - x, the next iterate is T(x_k) minus the
combination of the last two differences of T(x) whose matching combination
of the differences of f best cancels f_k.  Where those differences of f are
near parallel, as on every binary Y alphabet, the column takes the one-term
(secant) mix on the latest, and where the latest is zero or the mix is not
finite, the plain step T(x_k).  The mix is renormalized, so every iterate is
a feasible g and the gap, read at every iterate, stays a witness-backed
lower bound; the mix changes only which g are tried.

q_star climbs on witness crossings in the manner of Dinkelbach (1967).  For
a fixed g >= 0, ||g||_q is nondecreasing in q, so a g with
||E[g|X]||_p > ||g||_q violates every (p, q') with q' below its crossing
q_g, where the two norms meet: q* >= q_g, and q_g <= p by conditional
Jensen.  From the floor 1 + rho^2 (p - 1), under which no point of the
ribbon lies (Ahlswede & Gacs 1976), q_star runs the sweeps at q_k,
warm-started from the columns of q_(k-1), and ``_WITNESS_EXTRA`` sweeps
after the first column whose gap exceeds ``_WITNESS_GAP`` it moves to the
largest crossing of those columns.  A column's crossing is the root
of f(q) = log E[g^q] - q log ||E[g|X]||_p, convex because log E[g^q] is a
log-moment generating function, so Newton's method from the root of the
tangent at q_k descends to it from above without passing it
(``_crossing``).  The climb stops at the first q whose sweeps end, by
convergence or by the cap, with no such column, so every answer above the
floor is the crossing of an explicit g.
Only a floor of exactly 1 (p = 1, rho = 0) or p within 1e-12 of 1 returns
at once.  Below about p = 1 + 1e-10 (fig2 and remark3) no column clears the
1e-12 test, so the chordal slope reads rho^2 there, not s*(Y;X).  Just
below q* the gap opens only at second order, so a 1e-9 test there still
reads "in": the witness threshold sits far below it.  On the binary
symmetric channel the floor is q* itself (Bonami 1970; Beckner 1975).

A sweep's arrays hold |X| or |Y| times |Y| + 97 entries, so numpy's
overhead per call sets its cost: reductions call ``ufunc.reduce``, not the
wrappers ``np.max`` and ``np.sum``, and ``contraction_gap`` and
``_q_star`` each enter one ``np.errstate`` around their whole loop of
sweeps.  On fig2 at 100 columns a mixed sweep takes 0.065-0.072 ms and a
plain one 0.021-0.026 ms (one BLAS thread, a shared 2-vCPU x86-64 VM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import JointDistribution, _check_count
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

#: Dirichlet multistart count for the inner maximization, on every alphabet:
#: at 32, 48 and 64 q* fell short on a product (see TestTensorization)
GAP_RESTARTS = 96
#: fixed-point sweeps per seed batch
GAP_MAX_ITER = 300
#: convergence tolerance on log g between sweeps
GAP_CONV_TOL = 1e-12
#: the largest p q_star accepts: far above it the sweeps lose the gap to
#: rounding (fig2's chordal slope read 0.2585 at p = 1e9, below rho^2 = 0.6)
QSTAR_MAX_P = 128.0
#: the two-term Anderson mix is used only where the 2x2 determinant exceeds
#: this share of a00 * a11, the squared sine of the angle between the two
#: residual differences, and the one-term mix elsewhere; the determinant's
#: own rounding is a few ulps of a00 * a11
_MIX_MIN_DET = 1e-12
#: a column whose gap exceeds this witnesses q* above the q of its sweeps;
#: 1e4 ulps of the norm near 1 that it is read from
_WITNESS_GAP = 1e-12
#: sweeps each of q_star's runs takes after its first witness before it
#: moves to a crossing: two let the Anderson mix engage.  A ribbon benchmark
#: round (seed 424242) ran 230 sweeps at 2, and 1631, 2134, 292, 381 and 485
#: at 0, 1, 4, 8 and 16: at 0 and 1 the outer steps crawl to the cap, and
#: from 4 up the runs go on past what the moves need
_WITNESS_EXTRA = 2
#: cap on q_star's outer steps (at most 8 on the ribbon benchmark's inputs
#: over 33 seeds, and 18 on 40 flat- and sparse-Dirichlet joints up to 5x8
#: at p from 1.05 to 128)
_QSTAR_MAX_STEPS = 100
#: cap on the Newton steps of one crossing solve
_CROSSING_MAX_ITER = 60


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


def _kernel(j: JointDistribution) -> tuple[np.ndarray, ...]:
    """W(y|x), B(x|y) transposed, p(x) and p(y): the arrays every sweep reads."""
    px, py = j.px, j.py
    return j.pxy / px[:, None], (j.pxy / py[None, :]).T, px, py


def _conditional(W: np.ndarray, logG: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[g|X] of each column of g = exp(logG), divided by the column's
    largest entry, and the log of that entry.  g enters the product shifted
    by its column maximum, so no entry of either exceeds 1."""
    top = np.maximum.reduce(logG, 0)
    tg = W @ np.exp(logG - top)
    tmax = np.maximum.reduce(tg, 0)
    return tg / tmax, np.log(tmax) + top


def _seed_columns(ny: int, seed: int) -> np.ndarray:
    """The multistart columns of log g, not yet normalized: every
    coordinate indicator, the constant, and ``GAP_RESTARTS`` Dirichlet
    draws seeded with ``seed``."""
    draws = np.random.default_rng(seed).dirichlet(np.ones(ny), size=GAP_RESTARTS)
    indicators = np.where(np.eye(ny) > 0.0, 0.0, -np.inf)
    return np.concatenate([indicators, np.zeros((ny, 1)), np.log(draws).T], axis=1)


def _sweeps(kernel, p: float, q: float, logG: np.ndarray):
    """Yield each iterate of the Anderson-mixed fixed-point map at (p, q)
    from the columns ``logG``, normalized to ||g||_q = 1, with its
    log ||E[g|X]||_p per column.

    ``normalize`` scales the start and each mix to ||g||_q = 1; each image
    of the map, whose column maxima are 0, skips its shift by them.
    The iteration stops once the map moves log g by less than
    ``GAP_CONV_TOL`` or after ``GAP_MAX_ITER`` iterates.  Callers run it
    under ``np.errstate(all="ignore")``; 1 <= q <= p, and at q = 1, where
    the map divides by q - 1, only the first iterate is defined.
    """
    W, Bt, px, py = kernel
    pm1, qm1 = p - 1.0, q - 1.0

    def normalize(lg: np.ndarray) -> np.ndarray:
        top = np.maximum.reduce(lg, 0)
        return lg - (top + np.log(py @ np.exp(q * (lg - top))) / q)

    logG = normalize(logG)
    older = old = None  # (T(x), f) of the two sweeps before
    for _ in range(GAP_MAX_ITER):
        u, shift = _conditional(W, logG)
        up = u**pm1
        yield logG, np.log(px @ (up * u)) / p + shift
        # any constant factor of a column of m cancels in the normalization
        m = Bt @ up
        new = np.log(m / np.maximum.reduce(m, 0)) / qm1
        new -= np.log(py @ np.exp(q * new)) / q
        f = new - logG
        if np.fmax.reduce(np.abs(f), None) < GAP_CONV_TOL:
            return
        logG = new if older is None else _anderson_step((older, old, (new, f)), normalize)
        older, old = old, (new, f)


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
    (a00, a01, _), (_, a11, b1) = m = np.einsum("iyc,jyc->ijc", d[:2], d)
    det = a00 * a11 - a01 * a01
    two = det > _MIX_MIN_DET * (a00 * a11)
    # elsewhere the one-term mix on df1: with (a00, a01, b0) = (1, 0, 0) the
    # same formulas give det = a11, g0 = 0 and g1 = b1 / a11
    a00, a01, b0 = np.where(two, m[0], ((1.0,), (0.0,), (0.0,)))
    det = np.where(two, det, a11)
    ok = det > 0.0
    det = np.where(ok, det, np.inf)
    g0 = (a11 * b0 - a01 * b1) / det
    g1 = (a00 * b1 - a01 * b0) / det
    mixed = normalize(t2 - g0 * (t1 - t0) - g1 * (t2 - t1))
    ok &= np.logical_and.reduce(np.isfinite(mixed), 0)
    return np.where(ok, mixed, t2)


def contraction_gap(j: JointDistribution, p: float, q: float, seed: int = 0) -> float:
    """Estimate of sup { ||E[g(Y)|X]||_p - 1 : g >= 0, ||g||_q = 1 }.

    The constant function is always a seed, with gap 0, so the estimate is
    never negative; it is a lower bound on the true supremum (see module
    docstring).  A gap within a few ulps of 0 is rounding: the pinned gaps
    inside the ribbon read 2.2e-17 to 1.3e-16.  Whether (p, q) lies in the
    ribbon is :func:`in_ribbon`'s q >= q_star, not a test of this gap.  The
    ``GAP_RESTARTS`` = 96 Dirichlet seeds are drawn from a generator seeded
    with ``seed``, which must not be negative.  Each sweep applies the
    fixed-point map to every seed column and then an Anderson mix of the
    column's last iterates, two-term or, where the residual differences are
    parallel, one-term, renormalized to ||g||_q = 1; the gap is the largest
    seen at any iterate, and since every iterate is a feasible g it stays a
    lower bound.  The sweeps stop once the map moves log g by less than
    ``GAP_CONV_TOL`` or after ``GAP_MAX_ITER`` of them, whichever comes
    first.

    Special cases solved exactly: p = 1 gives 0 (both norms are E[g]); q = 1
    makes the feasible set { g >= 0, E[g] = 1 } with a convex objective, so
    the maximum sits at an extreme point g = indicator(y)/p(y).  All |Y| of
    them are evaluated at once, as the first iterate of the sweeps from the
    indicators, which the normalization at q = 1 scales to E[g] = 1.
    """
    p, q = _check_orders(p, q)
    seed = _check_count(seed, "seed")
    if p - 1.0 < 1e-12:
        return 0.0
    kernel, ny = _kernel(j), j.shape[1]
    with np.errstate(all="ignore"):
        if q - 1.0 < 1e-12:
            # the first iterate from the indicators: g = indicator(y) / p(y)
            _, log_norms = next(_sweeps(kernel, p, 1.0, np.log(np.eye(ny))))
            return float(max(np.expm1(np.maximum.reduce(log_norms)), 0.0))
        best_log = -np.inf
        for _, log_norms in _sweeps(kernel, p, q, _seed_columns(ny, seed)):
            best_log = max(best_log, float(np.maximum.reduce(log_norms)))
    return float(max(np.expm1(best_log), 0.0))


def in_ribbon(j: JointDistribution, p: float, q: float, seed: int = 0) -> bool:
    """Whether (p, q) lies in the ribbon: q >= q_star(j, p, seed=seed).

    The ribbon is {(p, q): q >= q*(p)}, because ||g||_q does not decrease in
    q, so in_ribbon and q_star never disagree, and like q_star the answer
    can err only toward "yes".  A test of the gap at (p, q) reads "in" just
    below q*, where the gap opens only at second order: a 1e-9 test read
    "in" at 13 of 120 points within 1e-5 (q* - 1) below q* (fig2, remark3
    and six seeded joints up to 4x4, p = 1.5, 4 and 32), each one outside
    by q_star's witness.  A call costs one climb, about 2 ms on those
    joints; p must lie in [1, ``QSTAR_MAX_P``], as in q_star.
    """
    p, q = _check_orders(p, q)
    return q >= q_star(j, p, seed=seed)


def _crossing(
    logG: np.ndarray, log_norms: np.ndarray, py: np.ndarray, lo: float, hi: float
) -> tuple[float, int]:
    """The largest crossing among the columns of log g, and its column.

    A column's crossing is the q in [lo, hi] where log ||g||_q reaches its
    log ||E[g|X]||_p, ``log_norms``.  With K(q) = log E[g^q] under ``py``,
    it is the root of the convex f(q) = K(q) - q log_norms, which is below
    0 at ``lo`` for a witness.  K and K' are read off the sweeps' form
    K(q) = q top + log(py @ exp(q (log g - top))), top the column maximum.
    Each column starts at the root of its tangent at ``lo``, or at ``hi``
    where the slope there is not positive or the root lies beyond ``hi``.
    While its f > 0 it takes Newton's step, or one ulp down where the step
    rounds to less: f is convex and rises through the root, so each tangent
    lies below f and Newton descends to the root without passing it, and
    the ulp floor ends the descent where rounding stalls it.  A column still
    above 0 after ``_CROSSING_MAX_ITER`` steps reports ``lo``.  So every end
    has a computed f <= 0, and its g witnesses q* >= it.  Callers run it
    under ``np.errstate(all="ignore")``.
    """
    top = np.maximum.reduce(logG, 0)
    lg = logG - top
    lgz = np.where(lg > -np.inf, lg, 0.0)
    shift = top - log_norms  # f = log(py @ exp(q lg)) + q shift

    def at(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        e = np.exp(q * lg)
        total = py @ e
        return np.log(total) + q * shift, (py @ (e * lgz)) / total + shift

    f, df = at(np.full(shift.size, lo))
    tangent = lo - f / df
    q = np.where((df > 0.0) & (tangent < hi), tangent, hi)
    f, df = at(q)
    for _ in range(_CROSSING_MAX_ITER):
        above = f > 0.0
        if not above.any():
            break
        q = np.where(above, np.minimum(q - f / df, np.nextafter(q, -np.inf)), q)
        f, df = at(q)
    q = np.where(f > 0.0, lo, q)
    best = int(np.argmax(q))
    return float(q[best]), best


def _q_star(
    j: JointDistribution, p: float, *, seed: int
) -> tuple[float, np.ndarray | None, int, int]:
    """q_star, the column of log g whose crossing it is (None at the
    floor), the outer steps and the sweeps run in total."""
    p = float(p)
    if not 1.0 <= p <= QSTAR_MAX_P:
        raise ValidationError(f"p must be in [1, {QSTAR_MAX_P:g}], got {p!r}")
    seed = _check_count(seed, "seed")
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
                if first is not None and sweep - first >= _WITNESS_EXTRA:
                    break
            total += sweep + 1
            if found is None:
                break
            cross, best = _crossing(*found, kernel[3], q, p)
            if cross <= q:
                break
            q, witness = cross, found[0][:, best]
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
    Dirichlet seed columns come from ``seed``, which must not be negative.
    A single-symbol alphabet counts as rho = 0.  p must lie in
    [1, ``QSTAR_MAX_P``].
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
    if p == 1.0:
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
    """The Hoelder conjugate p/(p-1); an involution pairing the two ribbons.

    p must be finite and above 1: p = 1 raises ``PEqualsOne``.
    """
    p = float(p)
    if p == 1.0:
        raise PEqualsOne("the conjugate of 1 is unbounded")
    if not 1.0 < p < math.inf:
        raise ValidationError(f"the conjugate needs a finite p > 1, got {p!r}")
    return p / (p - 1.0)
