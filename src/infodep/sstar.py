"""The strong data-processing constant s*(X;Y) and its auxiliary-variable views.

For a joint p(x,y) with channel W = p(y|x) and input p(x),

    s*(X;Y) = sup over r(x) != p(x) of  D(r_Y || p_Y) / D(r || p_X),

where r_Y is the channel output under input r.  The same constant is the
tight factor in I(U;Y) <= s* I(U;X) over all U with U - X - Y Markov; this
module computes s* by direct optimization over the input simplex and also
evaluates the mixture-ratio identity

    I(U;Y) / I(U;X) = sum_u w_u D(r_u(y)||p(y)) / sum_u w_u D(r_u(x)||p(x))

for explicit U-decompositions, including the two-point perturbations whose
ratios climb to s* as the perturbation weight goes to zero.

The supremum may sit on the simplex boundary (it is at a vertex for the
asymmetric-erasure counterexample), so the vertices are candidates next to
the witness ray and random starts, whose multiplicative ascent keeps each on
its face.  Newton steps on the best point's face give the last digits: at a
maximizer r with ratio lambda, D(r_Y || p_Y) - lambda D(r || p_X) is
stationary on the face, with Hessian W diag(1/r_Y) W^T - lambda diag(1/r).  The sup is
reported as the best value found, with no claim of attainment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    JointDistribution,
    LogBase,
    PMF,
    _check_count,
    _kl_terms,
    mutual_information,
)
from .errors import (
    EpsTooLarge,
    LabelMismatch,
    NotBinaryInput,
    NumericalError,
    RTooCloseToP,
    ValidationError,
    ZeroIUX,
)
from .spectral import CorrelationWitness, _witness_or_none

__all__ = [
    "UDecomposition",
    "UStats",
    "SStarResult",
    "kl_ratio",
    "sstar",
    "ratio_for_u",
    "binary_u_from_conditionals",
    "perturbation_sequence",
]

#: D(r || p) below this (nats) counts as "r = p" for the ratio's domain
RATIO_MIN_DEN = 1e-12
#: neighborhood of p excluded from the optimizer's search (nats); near-p
#: behavior is governed by the local limit rho^2 <= s*, so the exclusion
#: cannot clip the supremum
SEARCH_EXCLUSION = 1e-9
#: numerators below this (nats) are indistinguishable from an exact zero:
#: any computed divergence carries absolute rounding noise of order 1e-16
#: nats, and dividing that noise by an admitted denominator as small as
#: SEARCH_EXCLUSION would manufacture ratios up to ~1e-7 for joints whose
#: true numerator is identically zero (independent joints).  A numerator
#: this small can hide a true ratio only below ~1e-4, which never matters
#: unless the joint is that close to independent anyway.
NUM_NOISE_FLOOR = 1e-13
#: relative gain below which an ascent step does not count as improving
ASCENT_TOL = 1e-9
#: sstar's default number of Dirichlet restarts
RESTARTS = 64
#: sstar's default cap on the ascent's sweeps
SWEEP_CAP = 200
#: the largest KKT residual at which sstar reports ``converged``.  On 412
#: calls (the five built-ins, bec:0.25 x bsc:0.1 and 200 flat-Dirichlet
#: joints up to 5x5, both ways) the stationary finishes read at most 3.4e-6
#: (bsc:0.2), except the reversed erasure channels, whose sup is only
#: approached as r -> p(x), at 0.667
KKT_MAX_RESIDUAL = 1e-3
#: most Dirichlet restarts sstar accepts, 64 times the default: the first
#: sweep holds about 14 |X| floats per restart
MAX_RESTARTS = 4096
#: witness-ray candidates p(x) (1 +- t f): RAY_POINTS values of t each way,
#: geometric from RAY_START (D ~ t^2/2 nats) out to the simplex boundary
RAY_START, RAY_POINTS = 6.5e-5, 20
#: Newton finish: step budget; condition number above which the ratio is
#: flat along the face; model gain too small for the ratio to judge
NEWTON_STEPS, NEWTON_MAX_COND, NEWTON_EXACT_GAIN = 8, 1e8, 1e-12
#: handoff: the first time every start that improved in a sweep either gained
#: at most HANDOFF_GAIN relative or cannot reach the leader at that gain in
#: the sweeps left, the ascent is a first-order crawl and Newton finishes the
#: leader once; if that finish does not end the ascent, the ascent runs on to
#: its own end.  The reach rule is linear on purpose: extrapolating each
#: start's gain geometrically lost 3e-4 on a random 3x4 and sent J x J to the
#: sweep cap, and retiring the starts that cannot reach the leader lost 1.7e-6
#: on a random 4x2, since a start's gain can grow
HANDOFF_GAIN = 1e-5
#: the kernel rounds each divergence to ~1e-16/|t - 1| relative, t = r/p (see
#: ``distributions._kl_terms``), so a ratio of two is good to about
#: TIE_ULPS eps/|t - 1|, with |t - 1| ~ sqrt(2 D(r || p_X)).  The leader is
#: the start whose value minus that bound is greatest: among values tied
#: within rounding, the one farthest from p(x) wins.  On the erasure channel,
#: where the ratio is constant, rounding next to p(x) would otherwise pick a
#: value above the supremum (bec:1/4 at 0.75 + 8.7e-13).  Next to p(x) on
#: bsc:1/5 the bound moves a value by ~7e-12 and its difference between
#: neighbouring starts by ~2e-13, against value gaps of 2.8e-12 and more.
TIE_ULPS = 4


@dataclass(frozen=True)
class UDecomposition:
    """An auxiliary variable U with U - X - Y Markov, as weights and conditionals.

    ``weights`` is the law of U; ``conditionals[k]`` is the conditional input
    distribution r_u(x) for the k-th value of U.  Mixing the conditionals by
    the weights must reproduce the X-marginal of the joint the decomposition
    is used with (checked by :func:`ratio_for_u`).
    """

    weights: PMF
    conditionals: tuple[PMF, ...]

    def __post_init__(self):
        conds = tuple(self.conditionals)
        object.__setattr__(self, "conditionals", conds)
        if len(self.weights) < 2:
            raise ValidationError("U needs at least 2 values")
        if len(conds) != len(self.weights):
            raise ValidationError(
                f"{len(self.weights)} weights but {len(conds)} conditionals"
            )
        first = conds[0].labels
        for c in conds[1:]:
            if c.labels != first:
                raise LabelMismatch("conditionals must share one X alphabet")

    def mixture(self) -> np.ndarray:
        """The mixed input distribution sum_u w_u r_u(x)."""
        return self.weights.probs @ np.vstack([c.probs for c in self.conditionals])


@dataclass(frozen=True)
class UStats:
    """Mutual informations of a U-decomposition and their ratio."""

    i_uy: float
    i_ux: float
    ratio: float


@dataclass(frozen=True)
class SStarResult:
    """Best KL-divergence ratio found, its maximizer, and solver diagnostics."""

    value: float
    maximizer: PMF
    diagnostics: dict


def kl_ratio(j: JointDistribution, r: PMF) -> float:
    """D(r_Y || p_Y) / D(r || p_X), the objective of the s* supremum.

    The ratio does not depend on the log base, so it takes none.  Inputs with
    D(r || p_X) < 1e-12 nats are rejected as indistinguishable from p(x),
    and numerators below the float noise floor report a ratio of exactly 0.
    """
    if r.labels != j.x_labels:
        raise LabelMismatch("r is not on the joint's X alphabet")
    value, den = _ratio_at(r.probs, j.pxy / j.px[:, None], j.px, j.py)
    if den < RATIO_MIN_DEN:
        raise RTooCloseToP(
            f"D(r || p) = {den!r} nats is below {RATIO_MIN_DEN}; "
            "the ratio is undefined at r = p"
        )
    return value


def _ratio_terms(R: np.ndarray, W: np.ndarray, px: np.ndarray, py: np.ndarray):
    """Ratio values, channel outputs W^T R, numerators and denominators of
    the input columns R, divergences in nats.

    Columns inside the excluded neighborhood of px get value -inf; columns
    whose numerator sits below the float noise floor get the honest value 0.
    Each divergence adds its terms over the symbols in order.
    """
    RY = W.T @ R
    den = np.add.reduce(_kl_terms(R, px[:, None]), 0)
    num = np.add.reduce(_kl_terms(RY, py[:, None]), 0)
    ratios = np.where(num < NUM_NOISE_FLOOR, 0.0, num / np.maximum(den, 1e-300))
    return np.where(den > SEARCH_EXCLUSION, ratios, -np.inf), RY, num, den


def _ratio_at(
    r: np.ndarray, W: np.ndarray, px: np.ndarray, py: np.ndarray
) -> tuple[float, float]:
    """The reported ratio at the one input r and its denominator in nats.

    A numerator below ``NUM_NOISE_FLOOR`` gives 0; otherwise the value is
    clamped to [0, 1], the range of the true ratio.
    """
    _, _, num, den = _ratio_terms(r[:, None], W, px, py)
    num, den = float(num[0]), float(den[0])
    if num < NUM_NOISE_FLOOR:
        return 0.0, den
    return min(max(num / den, 0.0), 1.0), den


def _batch_gradient(
    R: np.ndarray, W: np.ndarray, px: np.ndarray, py: np.ndarray, terms
) -> np.ndarray:
    """Ratio gradients at the input columns R.

    ``terms`` are the outputs W^T R, numerators and denominators that
    :func:`_ratio_terms` gave for R.  Columns inside the excluded
    neighborhood of px get a zero gradient.  Log arguments are floored at
    1e-300 so boundary columns produce large finite subgradient components
    instead of nan.
    """
    RY, num, den = terms
    g_num = W @ (np.log(np.maximum(RY, 1e-300) / py[:, None]) + 1.0)
    g_den = np.log(np.maximum(R, 1e-300) / px[:, None]) + 1.0
    grad = (den * g_num - num * g_den) / np.maximum(den**2, 1e-300)
    return np.where(den > SEARCH_EXCLUSION, grad, 0.0)


def _candidate_points(
    px: np.ndarray, f: np.ndarray, rng: np.random.Generator, restarts: int
) -> np.ndarray:
    """Vertices, points on the witness ray of f and Dirichlet restarts, one
    per column."""
    # p(x) (1 + s t f) reaches the simplex boundary at t = 1/max(-s f);
    # one column of t per sign s = +1, -1
    t = np.geomspace(RAY_START, 1.0 / np.array([np.max(-f), np.max(f)]), RAY_POINTS)
    st = np.concatenate([t[:, 0], -t[:, 1]])
    ray = np.maximum(px[:, None] * (1.0 + st * f[:, None]), 0.0)
    dirichlet = rng.dirichlet(np.ones(px.size), size=restarts).T
    return np.hstack([np.eye(px.size), ray / np.add.reduce(ray, 0), dirichlet])


def _leader(vals: np.ndarray, den: np.ndarray) -> int:
    """Index of the start whose value minus its rounding bound (``TIE_ULPS``)
    is greatest.  A positive value has ``den > SEARCH_EXCLUSION``; other
    values get no bound."""
    scale = np.sqrt(2.0 * np.maximum(den, SEARCH_EXCLUSION))
    bound = TIE_ULPS * np.finfo(float).eps * np.maximum(vals, 0.0) / scale
    return int(np.argmax(vals - bound))


def _newton_finish(
    r: np.ndarray, value: float, den: float, W: np.ndarray, px: np.ndarray, py: np.ndarray
) -> tuple[np.ndarray, float, bool, float]:
    """Where Dinkelbach-Newton steps from r (ratio value, denominator den nats)
    end on its face, each halved until the ratio rises; the ratio there;
    whether they ended stationary, at a step too small for the ratio to judge
    or on a face where the ratio is flat (a near-singular Newton system),
    rather than with no rising step or with NEWTON_STEPS spent; and the face
    KKT residual there (:func:`_kkt_residual`)."""
    s = r > 0.0
    Ws, pxs = W[s], px[s]
    m = Ws.shape[0]
    # the Newton system, bordered by rs with a zero corner, and its right side
    K, rhs = np.zeros((m + 1, m + 1)), np.zeros(m + 1)
    stationary = False
    for k in range(NEWTON_STEPS + 1):
        rs = r[s]
        ry = np.maximum(rs @ Ws, 1e-300)  # outputs off the face's reach add 0
        g = Ws @ np.log(ry / py) - value * np.log(rs / pxs)
        if stationary or k == NEWTON_STEPS:
            break
        # solved for step / rs, which small entries of r cannot ill-condition
        M = rs[:, None] * Ws
        K[:m, :m] = (M / ry) @ M.T - np.diag(value * rs)
        K[:m, m] = K[m, :m] = rs
        if m < 2 or np.linalg.cond(K) > NEWTON_MAX_COND:
            stationary = True
            break
        rhs[:m] = -rs * g
        step = rs * np.linalg.solve(K, rhs)[:m]
        model_gain = 0.5 * float(g @ step) / den
        for t in 0.5 ** np.arange(40):
            trial = rs + t * step
            if trial.min() > 0.0:
                cand = np.zeros_like(r)
                cand[s] = trial / trial.sum()
                cand_val, _, _, cand_den = _ratio_terms(cand[:, None], W, px, py)
                if cand_val[0] > value or 0.0 < model_gain <= NEWTON_EXACT_GAIN:
                    break
        else:  # no step along the Newton direction raises the ratio
            break
        r, value, den = cand, cand_val[0], float(cand_den[0])
        stationary = 0.0 < model_gain <= NEWTON_EXACT_GAIN
    return r, value, stationary, _kkt_residual(rs, g, den)


def _kkt_residual(rs: np.ndarray, g: np.ndarray, den: float) -> float:
    """The largest entry of the ratio's gradient g, projected onto the face of
    the entries rs, over den nats.

    An entry of at most eps is below the rounding of the entries' unit sum,
    and taking it away moves the ratio by at most eps |g_i - c| / den, a few
    ulps; such an entry is judged by the KKT inequality g_i <= c of an entry
    off the face, c the mean of g over the other entries, instead of the
    equality g_i = c.  The largest entry always exceeds eps.
    """
    loose = rs <= np.finfo(float).eps
    c = g[~loose].mean()
    on_face = float(np.abs(g[~loose] - c).max())
    return max(on_face, float(np.maximum(g[loose] - c, 0.0).max(initial=0.0))) / den


def sstar(
    j: JointDistribution,
    restarts: int = RESTARTS,
    seed: int = 0,
    max_iter: int = SWEEP_CAP,
) -> SStarResult:
    """Best-found value of the s* supremum with its maximizing input.

    Candidates: the simplex vertices, ``RAY_POINTS`` points each way along
    the witness ray out to the simplex boundary, and ``restarts`` Dirichlet(1)
    draws seeded with ``seed``.  The best of them run a multiplicative ascent
    with a halving step ladder.  A sweep batches only the active starts,
    those that improved on the last sweep (``diagnostics["ascent_row_sweeps"]``
    sums them), one column per start and per trial step, and sums over the
    symbols in order: a start's sweep depends only on its own point and
    value, up to ~1e-16 of BLAS rounding that varies with the batch shape.
    The ratio terms a sweep computes for the steps it accepts (outputs,
    numerators, denominators) give the next sweep's gradients.

    The first time every start that improved in a sweep either gained at
    most ``HANDOFF_GAIN`` relative or cannot reach the leader, its value plus
    its gain times the sweeps left still below the leader's, the ascent has
    become a first-order crawl and Dinkelbach-Newton steps finish the leader
    on its face (``diagnostics["handoff_sweep"]`` is that sweep, 0 if none).
    If they end stationary at a value no active start exceeds, that point
    ends the ascent; otherwise the ascent goes on without another try.  The
    reach rule is a heuristic, since a start's gain can grow and carry it
    past the leader after all; such a start stays active, so when the finish
    does not end the ascent it runs on.  Two stronger rules lose answers and
    are not used: extrapolating each start's gain geometrically, and retiring
    the starts that cannot reach the leader.  The ascent also ends when no
    start improves by more than ``ASCENT_TOL`` relative, or after
    ``max_iter`` sweeps; Newton steps then finish the leader.  The
    leader is the best start, or among starts tied with it within the
    ratio's rounding (``TIE_ULPS``) the one farthest from p(x).
    ``diagnostics["converged"]`` is False when the sweep cap ended the
    ascent, the Newton steps did not end stationary, or the KKT residual
    exceeds ``KKT_MAX_RESIDUAL``, and
    ``diagnostics["kkt_residual"]`` is the largest entry of the ratio's
    gradient projected onto the maximizer's face, where an entry of at most
    eps counts as off the face and only a gradient there above the face's
    mean adds to it.  The value is exactly the
    ratio at the reported maximizer.  ``restarts``, ``seed`` and
    ``max_iter`` must be non-negative integers, and ``restarts`` at most
    ``MAX_RESTARTS``.  A single-symbol alphabet has no witness: the answer
    is 0 at p(x), with nothing searched.
    """
    return _sstar(j, _witness_or_none(j), restarts, seed, max_iter)


def _sstar(
    j: JointDistribution, w: CorrelationWitness | None,
    restarts: int = RESTARTS, seed: int = 0, max_iter: int = SWEEP_CAP,
) -> SStarResult:
    """:func:`sstar` with the witness ``w = maximal_correlation(j)``, whose f
    sets the witness ray.  ``w`` is None when an alphabet has one symbol:
    X and Y are then independent, p(x) is the answer and nothing is
    searched, so ``restarts`` and every counter read 0."""
    restarts = _check_count(restarts, "restarts")
    seed = _check_count(seed, "seed")
    max_iter = _check_count(max_iter, "max_iter")
    if restarts > MAX_RESTARTS:
        raise ValidationError(f"restarts must be in [0, {MAX_RESTARTS}], got {restarts!r}")
    px = j.px
    if w is None:
        restarts, best_r, value, best_den = 0, px, 0.0, 0.0
        n_candidates = sweeps = row_sweeps = handoff = 0
        converged, residual = True, 0.0
    else:
        W, py = j.pxy / px[:, None], j.py
        best_r, n_candidates, sweeps, converged, row_sweeps, residual, handoff = _ascent(
            W, px, py, w.f, restarts, seed, max_iter
        )
        value, best_den = _ratio_at(best_r, W, px, py)
        if best_den < SEARCH_EXCLUSION:
            raise NumericalError(
                "optimizer returned a point inside the excluded neighborhood"
            )
    return SStarResult(
        value,
        PMF(j.x_labels, best_r),
        {
            "restarts": restarts,
            "seed": seed,
            "tol": ASCENT_TOL,
            "candidates": n_candidates,
            "ascent_sweeps": sweeps,
            "best_denominator_nats": best_den,
            "converged": converged,
            "ascent_row_sweeps": row_sweeps,
            "kkt_residual": residual,
            "handoff_sweep": handoff,
        },
    )


def _ascent(
    W: np.ndarray, px: np.ndarray, py: np.ndarray, f: np.ndarray,
    restarts: int, seed: int, max_iter: int,
) -> tuple:
    """The search of :func:`sstar` from the witness ray of f: the point
    where the Newton finish ends, then the candidate count, the sweeps,
    whether the search converged, the active starts' sweeps summed, the KKT
    residual there and the handoff sweep, in the order of the diagnostics."""
    nx = px.shape[0]
    R = _candidate_points(px, f, np.random.default_rng(seed), restarts)
    vals, RY, num, den = _ratio_terms(R, W, px, py)
    n_candidates = R.shape[1]

    keep = np.argsort(-vals)[: max(restarts + nx + 8, 32)]
    R, vals, den = R[:, keep], vals[keep], den[keep]

    alphas = 4.0 * 0.5 ** np.arange(14)
    act = np.arange(R.shape[1])
    # the active starts' points, outputs, values, numerators and denominators;
    # each sweep writes its accepted steps into R, vals and den at one site,
    # so those always hold every start's current state
    Ra, RYa, va, numa, dena = R, RY[:, keep], vals, num[keep], den
    sweeps = row_sweeps = handoff = 0
    converged = False

    def finish():
        i = _leader(vals, den)
        return _newton_finish(R[:, i], vals[i], float(den[i]), W, px, py)

    finished = None
    for _ in range(max_iter):
        sweeps += 1
        n = act.shape[0]
        row_sweeps += n
        grad = _batch_gradient(Ra, W, px, py, (RYa, numa, dena))
        # d: the gradient centred under r, scaled to max |d| = 1 on r's
        # support; off it d is 0, or the huge log terms there would set the scale
        d = np.where(Ra > 0.0, grad - np.add.reduce(Ra * grad, 0), 0.0)
        d /= np.maximum(np.maximum.reduce(np.abs(d), 0), 1e-300)
        d -= np.maximum.reduce(d, 0)  # exponents <= 0 cannot overflow
        steps = Ra[:, None, :] * np.exp(alphas[:, None] * d[:, None, :])
        steps /= np.add.reduce(steps, 0)
        S = steps.reshape(nx, -1)
        s_vals, SY, s_num, s_den = _ratio_terms(S, W, px, py)
        cols = s_vals.reshape(alphas.size, n).argmax(0) * n + np.arange(n)
        scale = np.maximum(1.0, np.abs(va))
        gain = s_vals[cols] - va
        improved = gain > ASCENT_TOL * scale
        if not np.logical_or.reduce(improved):
            converged = True
            break
        # a start that did not improve would repeat the same failed step on
        # every later sweep, so it retires for good; its sweep depends on the
        # batch only through BLAS rounding (~1e-16 against the ASCENT_TOL test)
        cols, gain, scale, act = cols[improved], gain[improved], scale[improved], act[improved]
        Ra, RYa, va = S[:, cols], SY[:, cols], s_vals[cols]
        numa, dena = s_num[cols], s_den[cols]
        R[:, act], vals[act], den[act] = Ra, va, dena
        # a start crawls when it gains at most HANDOFF_GAIN or cannot reach
        # the leader at its gain in the sweeps left
        if not handoff and np.logical_and.reduce(
            (gain <= HANDOFF_GAIN * scale)
            | (va + gain * (max_iter - sweeps) < np.maximum.reduce(vals))
        ):
            handoff = sweeps
            finished = finish()
            if finished[2] and finished[1] >= np.maximum.reduce(va):
                converged = True
                break
            finished = None

    best_r, _, stationary, residual = finished or finish()
    converged = converged and stationary and residual <= KKT_MAX_RESIDUAL
    return best_r, n_candidates, sweeps, converged, row_sweeps, residual, handoff


def ratio_for_u(
    j: JointDistribution, u: UDecomposition, base: LogBase = LogBase.BITS
) -> UStats:
    """I(U;Y), I(U;X) and their ratio for an explicit U-decomposition.

    Both informations are computed twice — as weighted KL mixtures
    sum_u w_u D(r_u || p) and as mutual informations of the explicitly
    constructed (U,X) and (U,Y) joints — and must agree to 1e-10; a mismatch
    raises :class:`NumericalError`.  Zero-weight U values are dropped.
    """
    if u.conditionals[0].labels != j.x_labels:
        raise LabelMismatch("U conditionals are not on the joint's X alphabet")
    mix = u.mixture()
    if np.abs(mix - j.px).max() > 1e-10:
        raise ValidationError(
            "the weighted conditionals do not mix back to the X-marginal"
        )
    w = u.weights.probs
    keep = w > 0.0
    if keep.sum() < 2:
        raise ValidationError("U needs at least 2 values of positive weight")
    w = w[keep]
    labels_u = tuple(l for l, k in zip(u.weights.labels, keep) if k)
    Rx = np.vstack([c.probs for c in u.conditionals])[keep]

    scale = base.from_nats
    px, py = j.px, j.py
    W = j.pxy / px[:, None]
    _, Ry, num, den = _ratio_terms(Rx.T, W, px, py)
    i_ux = float(w @ den) * scale
    i_uy = float(w @ num) * scale

    jux = JointDistribution(labels_u, j.x_labels, w[:, None] * Rx)
    juy = JointDistribution(labels_u, j.y_labels, w[:, None] * Ry.T)
    mi_ux = mutual_information(jux, base)
    mi_uy = mutual_information(juy, base)
    if abs(mi_ux - i_ux) > 1e-10 or abs(mi_uy - i_uy) > 1e-10:
        raise NumericalError(
            "mixture-KL identity failed its mutual-information cross-check: "
            f"I(U;X) {i_ux!r} vs {mi_ux!r}, I(U;Y) {i_uy!r} vs {mi_uy!r}"
        )
    if i_ux < 1e-12:
        raise ZeroIUX("I(U;X) = 0; the ratio is undefined (all r_u = p(x))")
    return UStats(i_uy, i_ux, i_uy / i_ux)


def binary_u_from_conditionals(j: JointDistribution, a: float, b: float) -> UDecomposition:
    """The binary U with P(U=1|X=0) = a and P(U=1|X=1) = b, in mixture form.

    Bayes inversion gives the weights w_u = P(U=u) and conditionals
    r_u(x) = P(X=x|U=u); a zero-weight value of U keeps p(x) as its
    conditional placeholder.  Round-trips to the same (a, b) within 1e-12.
    """
    if j.shape[0] != 2:
        raise NotBinaryInput(f"binary U construction needs |X| = 2, got {j.shape[0]}")
    a, b = float(a), float(b)
    for name, v in (("a", a), ("b", b)):
        if not 0.0 <= v <= 1.0:
            raise ValidationError(f"{name} must be in [0, 1], got {v!r}")
    px = j.px
    w1 = px[0] * a + px[1] * b
    w0 = 1.0 - w1
    r1 = np.array([px[0] * a, px[1] * b]) / w1 if w1 > 0.0 else px.copy()
    r0 = (
        np.array([px[0] * (1.0 - a), px[1] * (1.0 - b)]) / w0
        if w0 > 0.0
        else px.copy()
    )
    return UDecomposition(
        PMF((0, 1), np.array([w0, w1])),
        (PMF(j.x_labels, r0), PMF(j.x_labels, r1)),
    )


def perturbation_sequence(
    j: JointDistribution, r_star: PMF, eps_list, base: LogBase = LogBase.BITS
) -> list[UStats]:
    """Stats of the two-point decompositions w = (eps, 1-eps) built from r*.

    The first conditional is r* itself with weight eps; the second is the
    complement (p - eps r*)/(1 - eps) that keeps the mixture equal to p(x).
    As eps -> 0 the ratio tends to the single-input ratio kl_ratio(j, r*),
    which is how ratios arbitrarily close to s* arise from explicit U's.
    """
    if r_star.labels != j.x_labels:
        raise LabelMismatch("r* is not on the joint's X alphabet")
    px = j.px
    if _ratio_at(r_star.probs, j.pxy / px[:, None], px, j.py)[1] < RATIO_MIN_DEN:
        raise RTooCloseToP("r* coincides with p(x); perturbations do nothing")
    out = []
    for eps in eps_list:
        eps = float(eps)
        if not 0.0 < eps < 1.0:
            raise ValidationError(f"eps must be in (0, 1), got {eps!r}")
        r2 = (px - eps * r_star.probs) / (1.0 - eps)
        if r2.min() < -1e-12:
            raise EpsTooLarge(
                f"eps = {eps!r} pushes the complementary conditional off the "
                f"simplex (min entry {r2.min()!r})"
            )
        r2 = np.maximum(r2, 0.0)
        r2 = r2 / r2.sum()
        u = UDecomposition(
            PMF((1, 2), np.array([eps, 1.0 - eps])),
            (r_star, PMF(j.x_labels, r2)),
        )
        out.append(ratio_for_u(j, u, base))
    return out
