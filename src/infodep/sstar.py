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
asymmetric-erasure counterexample), so the optimizer always evaluates all
vertices, edge grids, and dense grids for small alphabets before running a
multistart projected-gradient ascent.  A start stops advancing at its first
sweep without improvement, since a sweep depends on nothing but the start's
own point and value and would repeat the same failed step.  The sup is
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
#: points per dimension of the dense candidate grid for |X| <= 3
CANDIDATE_GRID_N = 128
#: relative gain below which an ascent step does not count as improving
ASCENT_TOL = 1e-9


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


def _ratio_nats(j: JointDistribution, r: np.ndarray) -> tuple[float, float]:
    """(numerator, denominator) of the ratio at r, both in nats."""
    den = float(_kl_terms(r, j.px).sum())
    num = float(_kl_terms(r @ (j.pxy / j.px[:, None]), j.py).sum())
    return num, den


def kl_ratio(j: JointDistribution, r: PMF, base: LogBase = LogBase.BITS) -> float:
    """D(r_Y || p_Y) / D(r || p_X), the objective of the s* supremum.

    The ratio is invariant to the log base.  Inputs with
    D(r || p_X) < 1e-12 nats are rejected as indistinguishable from p(x),
    and numerators below the float noise floor report a ratio of exactly 0.
    """
    if r.labels != j.x_labels:
        raise LabelMismatch("r is not on the joint's X alphabet")
    num, den = _ratio_nats(j, r.probs)
    if den < RATIO_MIN_DEN:
        raise RTooCloseToP(
            f"D(r || p) = {den!r} nats is below {RATIO_MIN_DEN}; "
            "the ratio is undefined at r = p"
        )
    if num < NUM_NOISE_FLOOR:
        return 0.0
    return float(min(max(num / den, 0.0), 1.0))


def _project_rows_to_simplex(V: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    n = V.shape[1]
    U = -np.sort(-V, axis=1)
    css = np.cumsum(U, axis=1) - 1.0
    ks = np.arange(1, n + 1)
    cond = U - css / ks > 0.0
    rho = n - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = css[np.arange(V.shape[0]), rho] / (rho + 1.0)
    return np.maximum(V - theta[:, None], 0.0)


def _ratio_terms(R: np.ndarray, RY: np.ndarray, px: np.ndarray, py: np.ndarray):
    """Ratio values, numerators, denominators and the in-domain mask of the
    input rows R whose channel outputs are RY.

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


# The two batch functions below take every start's rows but work out only
# those in ``rows``.  Their matrix products still run over the whole batch,
# because BLAS may round a row differently when the batch shape changes, and
# the ascent's answers must not depend on which starts are still active.


def _batch_values(
    R: np.ndarray, W: np.ndarray, px: np.ndarray, py: np.ndarray, rows=slice(None)
) -> np.ndarray:
    """Ratio values at rows ``rows`` of the batch of input rows R."""
    return _ratio_terms(R[rows], (R @ W)[rows], px, py)[0]


def _batch_gradient(
    R: np.ndarray, W: np.ndarray, px: np.ndarray, py: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """Ratio gradients at rows ``rows`` of the batch of input rows R.

    Rows inside the excluded neighborhood of px get a zero gradient.  Log
    arguments are floored at 1e-300 so boundary rows produce large finite
    subgradient components instead of nan.
    """
    RY_all = R @ W
    R, RY = R[rows], RY_all[rows]
    _, num, den, ok = _ratio_terms(R, RY, px, py)
    log_ry = np.zeros_like(RY_all)
    log_ry[rows] = np.log(np.maximum(RY, 1e-300) / py)
    log_r = np.log(np.maximum(R, 1e-300) / px)
    g_num = ((log_ry + 1.0) @ W.T)[rows]
    g_den = log_r + 1.0
    with np.errstate(invalid="ignore"):
        grad = (den[:, None] * g_num - num[:, None] * g_den) / np.maximum(
            den**2, 1e-300
        )[:, None]
    return np.where(ok[:, None], grad, 0.0)


def _candidate_points(
    j: JointDistribution, rng: np.random.Generator, restarts: int
) -> np.ndarray:
    """Vertices, small-alphabet grids, edge grids, witness-direction seeds,
    and Dirichlet restarts, stacked as rows."""
    nx = j.shape[0]
    px = j.px
    blocks = [np.eye(nx)]
    if nx == 2:
        t = np.linspace(0.0, 1.0, CANDIDATE_GRID_N)
        blocks.append(np.column_stack([t, 1.0 - t]))
    elif nx == 3:
        g = CANDIDATE_GRID_N - 1
        ij = [(i, k) for i in range(g + 1) for k in range(g + 1 - i)]
        arr = np.array([(i / g, k / g, (g - i - k) / g) for i, k in ij])
        blocks.append(arr)
    if 2 <= nx <= 8:
        t = np.linspace(0.0, 1.0, 33)[1:-1]
        edges = []
        for a in range(nx):
            for b in range(a + 1, nx):
                E = np.zeros((t.shape[0], nx))
                E[:, a] = 1.0 - t
                E[:, b] = t
                edges.append(E)
        blocks.append(np.vstack(edges))
    try:
        f = maximal_correlation(j).f
        seeds = []
        for t in (6.5e-5, 2.6e-4, 1e-3):
            for s in (1.0, -1.0):
                seeds.append(np.maximum(px * (1.0 + s * t * f), 0.0))
        seeds = np.vstack(seeds)
        blocks.append(seeds / seeds.sum(axis=1, keepdims=True))
    except DegenerateAlphabet:
        pass
    if restarts > 0:
        blocks.append(rng.dirichlet(np.ones(nx), size=restarts))
    return np.vstack(blocks)


def sstar(
    j: JointDistribution,
    restarts: int = 64,
    seed: int = 0,
    max_iter: int = 200,
) -> SStarResult:
    """Best-found value of the s* supremum with its maximizing input.

    Candidate generation: all simplex vertices; a dense barycentric grid for
    |X| <= 3 (``CANDIDATE_GRID_N`` points per dimension); 31-point grids on
    every edge for |X| <= 8 (products of smaller joints maximize on edges); seeds along
    the maximal-correlation witness direction just outside the excluded
    neighborhood of p(x) (their ratios approach the local limit rho^2); and
    ``restarts`` Dirichlet(1) draws from a generator seeded with ``seed``.

    The best candidates then run a projected-gradient ascent on the ratio
    with a halving step ladder, until no start improves by more than
    ``ASCENT_TOL`` relative or ``max_iter`` sweeps pass;
    ``diagnostics["converged"]`` is False when the sweep cap ended it.  Each sweep advances only the starts
    that improved on the previous one, in one vectorized batch.  This is
    exact: a start's sweep depends only on its own point and best value, so
    a start that failed to improve once would fail again on every later
    sweep.  ``diagnostics["ascent_row_sweeps"]`` counts the starts advanced,
    summed over sweeps.  The reported value is exactly the ratio at the
    reported maximizer.
    """
    nx = j.shape[0]
    px = j.px
    if nx < 2:
        return SStarResult(
            0.0,
            PMF(j.x_labels, px),
            {"restarts": 0, "seed": seed, "grid_n": CANDIDATE_GRID_N,
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

    alphas = 0.5 ** np.arange(14)
    n_keep, n_steps = R.shape[0], alphas.shape[0]
    # step candidates of start i are rows i*n_steps .. i*n_steps + n_steps-1
    C = np.zeros((n_keep * n_steps, nx))
    act = np.arange(n_keep)
    sweeps = 0
    row_sweeps = 0
    converged = False
    for _ in range(max_iter):
        sweeps += 1
        row_sweeps += act.shape[0]
        grad = _batch_gradient(R, W, px, py, act)
        d = grad - grad.mean(axis=1, keepdims=True)
        norms = np.linalg.norm(d, axis=1, keepdims=True)
        d = np.where(norms > 1e-300, d / np.maximum(norms, 1e-300), 0.0)
        rows = (act[:, None] * n_steps + np.arange(n_steps)).ravel()
        steps = R[act, None, :] + alphas[None, :, None] * d[:, None, :]
        C[rows] = _project_rows_to_simplex(steps.reshape(-1, nx))
        cand_vals = _batch_values(C, W, px, py, rows).reshape(-1, n_steps)
        pick = np.argmax(cand_vals, axis=1)
        new_vals = cand_vals[np.arange(act.shape[0]), pick]
        old_vals = best_vals[act]
        improved = new_vals > old_vals + ASCENT_TOL * np.maximum(1.0, np.abs(old_vals))
        if not improved.any():
            converged = True
            break
        # a sweep is a function of (R[i], best_vals[i]) alone, so a start
        # that did not improve would repeat the same failed step on every
        # later sweep: only the starts that improved stay active
        act = act[improved]
        R[act] = C[act * n_steps + pick[improved]]
        best_vals[act] = new_vals[improved]

    i = int(np.argmax(best_vals))
    best_r = R[i]
    num, den = _ratio_nats(j, best_r)
    if den < SEARCH_EXCLUSION:
        raise NumericalError(
            "optimizer returned a point inside the excluded neighborhood"
        )
    if num < NUM_NOISE_FLOOR:
        value = 0.0
    else:
        value = float(min(max(num / den, 0.0), 1.0))
    return SStarResult(
        value,
        PMF(j.x_labels, best_r),
        {
            "restarts": int(restarts),
            "seed": int(seed),
            "grid_n": CANDIDATE_GRID_N,
            "tol": ASCENT_TOL,
            "candidates": int(n_candidates),
            "ascent_sweeps": int(sweeps),
            "best_denominator_nats": float(den),
            "converged": converged,
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
    i_ux = float(w @ _kl_terms(Rx, px).sum(axis=1)) * scale
    i_uy = float(w @ _kl_terms(Ry, py).sum(axis=1)) * scale

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
    if float(_kl_terms(r_star.probs, px).sum()) < RATIO_MIN_DEN:
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
