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
    _kl_terms,
    mutual_information,
)
from .errors import (
    DegenerateAlphabet,
    EpsTooLarge,
    LabelMismatch,
    NotBinaryInput,
    NumericalError,
    RTooCloseToP,
    ValidationError,
    ZeroIUX,
)
from .spectral import maximal_correlation

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
#: witness-ray candidates p(x) (1 +- t f): RAY_POINTS values of t each way,
#: geometric from RAY_START (D ~ t^2/2 nats) out to the simplex boundary
RAY_START, RAY_POINTS = 6.5e-5, 20
#: Newton finish: step budget; condition number above which the ratio is
#: flat along the face; model gain too small for the ratio to judge
NEWTON_STEPS, NEWTON_MAX_COND, NEWTON_EXACT_GAIN = 8, 1e8, 1e-12


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


def kl_ratio(j: JointDistribution, r: PMF, base: LogBase = LogBase.BITS) -> float:
    """D(r_Y || p_Y) / D(r || p_X), the objective of the s* supremum.

    The ratio is invariant to the log base.  Inputs with
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


def _ratio_terms(R: np.ndarray, RY: np.ndarray, px: np.ndarray, py: np.ndarray):
    """Ratio values, numerators, denominators and the in-domain mask of the
    input rows R whose channel outputs are RY, all in nats.

    Rows inside the excluded neighborhood of px get value -inf; rows whose
    numerator sits below the float noise floor get the honest value 0.
    """
    den = _kl_terms(R, px).sum(axis=1)
    num = _kl_terms(RY, py).sum(axis=1)
    ok = den > SEARCH_EXCLUSION
    ratios = np.where(
        num < NUM_NOISE_FLOOR, 0.0, num / np.maximum(den, 1e-300)
    )
    return np.where(ok, ratios, -np.inf), num, den, ok


def _ratio_at(
    r: np.ndarray, W: np.ndarray, px: np.ndarray, py: np.ndarray
) -> tuple[float, float]:
    """The reported ratio at the one input r and its denominator in nats.

    A numerator below ``NUM_NOISE_FLOOR`` gives 0; otherwise the value is
    clamped to [0, 1], the range of the true ratio.
    """
    _, num, den, _ = _ratio_terms(r[None, :], r[None, :] @ W, px, py)
    num, den = float(num[0]), float(den[0])
    if num < NUM_NOISE_FLOOR:
        return 0.0, den
    return min(max(num / den, 0.0), 1.0), den


def _batch_values(
    R: np.ndarray, W: np.ndarray, px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """Ratio values at the input rows R."""
    return _ratio_terms(R, R @ W, px, py)[0]


def _batch_gradient(
    R: np.ndarray, W: np.ndarray, px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """Ratio gradients at the input rows R.

    Rows inside the excluded neighborhood of px get a zero gradient.  Log
    arguments are floored at 1e-300 so boundary rows produce large finite
    subgradient components instead of nan.
    """
    RY = R @ W
    _, num, den, ok = _ratio_terms(R, RY, px, py)
    g_num = (np.log(np.maximum(RY, 1e-300) / py) + 1.0) @ W.T
    g_den = np.log(np.maximum(R, 1e-300) / px) + 1.0
    with np.errstate(invalid="ignore"):
        grad = (den[:, None] * g_num - num[:, None] * g_den) / np.maximum(
            den**2, 1e-300
        )[:, None]
    return np.where(ok[:, None], grad, 0.0)


def _candidate_points(
    j: JointDistribution, rng: np.random.Generator, restarts: int
) -> np.ndarray:
    """Vertices, witness-ray points and Dirichlet restarts, stacked as rows."""
    nx = j.shape[0]
    px = j.px
    blocks = [np.eye(nx)]
    try:
        f = maximal_correlation(j).f
        for s in (1.0, -1.0):
            # p(x) (1 + t s f) reaches the simplex boundary at t = 1/max(-s f)
            t = np.geomspace(RAY_START, 1.0 / np.max(-s * f), RAY_POINTS)
            ray = np.maximum(px * (1.0 + s * t[:, None] * f), 0.0)
            blocks.append(ray / ray.sum(axis=1, keepdims=True))
    except DegenerateAlphabet:
        pass
    blocks.append(rng.dirichlet(np.ones(nx), size=restarts))
    return np.vstack(blocks)


def _newton_finish(
    r: np.ndarray, value: float, W: np.ndarray, px: np.ndarray, py: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Where Dinkelbach-Newton steps from r on its face end, each halved until
    the ratio rises, and whether they ended before NEWTON_STEPS ran out."""
    s = r > 0.0
    Ws, pxs = W[s], px[s]
    for _ in range(NEWTON_STEPS):
        rs = r[s]
        ry = np.maximum(rs @ Ws, 1e-300)  # outputs off the face's reach add 0
        # solved for step / rs, which small entries of r cannot ill-condition
        M = rs[:, None] * Ws
        K = np.block([[(M / ry) @ M.T - np.diag(value * rs), rs[:, None]], [rs, 0.0]])
        if rs.size < 2 or np.linalg.cond(K) > NEWTON_MAX_COND:
            return r, True
        g = Ws @ np.log(ry / py) - value * np.log(rs / pxs)
        step = rs * np.linalg.solve(K, np.append(-rs * g, 0.0))[:-1]
        model_gain = 0.5 * float(g @ step) / _ratio_at(r, W, px, py)[1]
        for t in 0.5 ** np.arange(40):
            trial = rs + t * step
            if trial.min() > 0.0:
                cand = np.zeros_like(r)
                cand[s] = trial / trial.sum()
                cand_val = _batch_values(cand[None, :], W, px, py)[0]
                if cand_val > value or 0.0 < model_gain <= NEWTON_EXACT_GAIN:
                    break
        else:
            return r, True
        r, value = cand, cand_val
        if 0.0 < model_gain <= NEWTON_EXACT_GAIN:
            return r, True
    return r, False


def sstar(
    j: JointDistribution,
    restarts: int = 64,
    seed: int = 0,
    max_iter: int = 200,
) -> SStarResult:
    """Best-found value of the s* supremum with its maximizing input.

    Candidates: the simplex vertices, ``RAY_POINTS`` points each way along
    the witness ray out to the simplex boundary, and ``restarts`` Dirichlet(1)
    draws seeded with ``seed``.  The best run a multiplicative ascent with a
    halving step ladder until no start improves by more than ``ASCENT_TOL``
    relative or ``max_iter`` sweeps pass.  A sweep batches only the active
    starts, those that improved on the last sweep
    (``diagnostics["ascent_row_sweeps"]`` sums them): a start's sweep depends
    only on its own point and value, up to ~1e-16 of BLAS rounding that
    varies with the batch shape.  Newton steps then finish the best point on
    its face, and ``diagnostics["converged"]`` is False when the sweep cap
    ended the ascent or the Newton steps ran out.  The value is exactly the ratio at the
    reported maximizer.
    """
    if restarts < 0:
        raise ValidationError(f"restarts must be >= 0, got {restarts!r}")
    nx = j.shape[0]
    px = j.px
    if nx < 2:
        return SStarResult(
            0.0,
            PMF(j.x_labels, px),
            {"restarts": 0, "seed": seed,
             "tol": ASCENT_TOL, "candidates": 0, "ascent_sweeps": 0,
             "best_denominator_nats": 0.0, "converged": True,
             "ascent_row_sweeps": 0},
        )
    W = j.pxy / px[:, None]
    py = j.py
    rng = np.random.default_rng(seed)

    R = _candidate_points(j, rng, restarts)
    vals = _batch_values(R, W, px, py)
    n_candidates = R.shape[0]

    order = np.argsort(-vals)
    keep = order[: max(restarts + nx + 8, 32)]
    R = R[keep]
    best_vals = vals[keep]

    alphas = 4.0 * 0.5 ** np.arange(14)
    act = np.arange(R.shape[0])
    sweeps = 0
    row_sweeps = 0
    converged = False
    for _ in range(max_iter):
        sweeps += 1
        row_sweeps += act.shape[0]
        Ra = R[act]
        grad = _batch_gradient(Ra, W, px, py)
        # d: the gradient centred under r, scaled to max |d| = 1 on r's support;
        # off it d is 0, or the huge log terms there would set the scale
        d = np.where(Ra > 0.0, grad - np.sum(Ra * grad, axis=1, keepdims=True), 0.0)
        d /= np.maximum(np.abs(d).max(axis=1, keepdims=True), 1e-300)
        d -= d.max(axis=1, keepdims=True)  # exponents <= 0 cannot overflow
        steps = Ra[:, None, :] * np.exp(alphas[None, :, None] * d[:, None, :])
        steps /= steps.sum(axis=2, keepdims=True)
        cand_vals = _batch_values(steps.reshape(-1, nx), W, px, py).reshape(steps.shape[:2])
        pick = np.argmax(cand_vals, axis=1)
        new_vals = cand_vals[np.arange(act.shape[0]), pick]
        old_vals = best_vals[act]
        improved = new_vals > old_vals + ASCENT_TOL * np.maximum(1.0, np.abs(old_vals))
        if not improved.any():
            converged = True
            break
        # a start that did not improve would repeat the same failed step on
        # every later sweep, so it retires for good; its sweep depends on the
        # batch only through BLAS rounding (~1e-16 against the ASCENT_TOL test)
        act = act[improved]
        R[act] = steps[improved, pick[improved]]
        best_vals[act] = new_vals[improved]

    i = int(np.argmax(best_vals))
    best_r, stationary = _newton_finish(R[i], best_vals[i], W, px, py)
    value, den = _ratio_at(best_r, W, px, py)
    if den < SEARCH_EXCLUSION:
        raise NumericalError(
            "optimizer returned a point inside the excluded neighborhood"
        )
    return SStarResult(
        value,
        PMF(j.x_labels, best_r),
        {
            "restarts": int(restarts),
            "seed": int(seed),
            "tol": ASCENT_TOL,
            "candidates": int(n_candidates),
            "ascent_sweeps": int(sweeps),
            "best_denominator_nats": float(den),
            "converged": converged and stationary,
            "ascent_row_sweeps": int(row_sweeps),
        },
    )


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
    Ry = Rx @ W
    _, num, den, _ = _ratio_terms(Rx, Ry, px, py)
    i_ux = float(w @ den) * scale
    i_uy = float(w @ num) * scale

    jux = JointDistribution(labels_u, j.x_labels, w[:, None] * Rx)
    juy = JointDistribution(labels_u, j.y_labels, w[:, None] * Ry)
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
