"""The input-simplex curve t_lambda(r) = H(Y_r) - lambda * H(r) for a fixed channel.

For a channel p(y|x) with reference input p(x), two thresholds in lambda
characterize the dependence measures of this package:

* the Hessian of t_lambda at p(x) becomes positive semidefinite exactly at
  lambda = rho^2 (the squared maximal correlation), and
* t_lambda first touches its lower convex envelope at p(x) exactly at
  lambda = s*, the strong data-processing constant.

This module evaluates the curve, its Hessian on the simplex tangent space,
the lower convex envelope over a 1-D grid (binary inputs), and the envelope
touch threshold ``lambda_dagger``, exact on the grid.  The envelope is a
monotone-chain scan of the whole grid; ``lambda_dagger`` reads only the one
hull chord over p(x), which it finds by alternating tangents, and
``touches_envelope`` is lambda >= lambda_dagger.  The tests keep the scan's
gap at p(x) as an independent check of the threshold.  The module also
scans binary input distributions to compare max-over-inputs of rho^2 and of
s*, which agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    Channel,
    JointDistribution,
    LogBase,
    PMF,
    _check_count,
    _clean_probs,
    _entr,
    entropy,
    joint_from_matrix,
    push_forward,
)
from .errors import (
    BoundaryPoint,
    LabelMismatch,
    LambdaOutOfRange,
    NotBinaryInput,
    NumericalError,
    ValidationError,
)
from .spectral import binary_rho_squared
from .sstar import sstar

__all__ = [
    "Envelope1D",
    "t_lambda",
    "hessian_t_lambda",
    "lower_envelope_1d",
    "touches_envelope",
    "lambda_dagger",
    "scan_inputs",
]

#: default grid resolution (number of intervals) for envelope work
ENVELOPE_GRID_N = 2**12
#: the most grid intervals envelope work accepts: its arrays hold a few
#: floats per interval and output symbol
MAX_GRID_N = 2**20
#: intervals of the P(X=0) grid that scan_inputs sweeps
SCAN_GRID_N = 128
#: alternations of _bracket's tangent search before it gives up loudly
BRACKET_MAX_ALTERNATIONS = 64


@dataclass(frozen=True)
class Envelope1D:
    """Curve and lower convex envelope sampled on a grid of P(X=0) values.

    Invariants: ``hull <= curve`` pointwise (up to 1e-12), the hull second
    differences are nonnegative (convexity), and hull = curve at both
    endpoints.
    """

    grid: np.ndarray
    curve: np.ndarray
    hull: np.ndarray


def _check_lambda(lam: float) -> float:
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise LambdaOutOfRange(f"lambda must be in [0, 1], got {lam!r}")
    return lam


def t_lambda(c: Channel, r: PMF, lam: float, base: LogBase = LogBase.BITS) -> float:
    """H(Y_r) - lambda * H(r), where Y_r is the channel output under input r."""
    lam = _check_lambda(lam)
    return entropy(push_forward(c, r), base) - lam * entropy(r, base)


def hessian_t_lambda(c: Channel, r: PMF, lam: float) -> np.ndarray:
    """Hessian of t_lambda at r, restricted to the simplex tangent space.

    Returned as a (|X|-1) x (|X|-1) symmetric matrix in the tangent basis
    e_i - e_n (i = 1..|X|-1), in natural-log units; the log base scales the
    matrix by a positive constant, so definiteness is base-independent.

    In full coordinates the second partials are
    d2/dr_x dr_x' = -sum_y p(y|x) p(y|x') / r_y + lambda * [x = x'] / r_x,
    and the quadratic form along a multiplicative direction d = r * f with
    E_r[f] = 0 evaluates to lambda * E[f^2] - E[E[f|Y]^2].  Interior points
    only: a zero coordinate of r raises :class:`BoundaryPoint`, and lambda
    outside [0, 1] (NaN included) raises :class:`LambdaOutOfRange`, as in
    :func:`t_lambda`.
    """
    lam = _check_lambda(lam)
    if r.labels != c.x_labels:
        raise LabelMismatch("r is not on the channel input alphabet")
    rx = r.probs
    if rx.min() <= 0.0:
        raise BoundaryPoint("Hessian needs a strictly positive input point")
    W = c.pyx
    ry = rx @ W
    inv_ry = np.where(ry > 0.0, 1.0 / np.maximum(ry, 1e-300), 0.0)
    full = -(W * inv_ry[None, :]) @ W.T + lam * np.diag(1.0 / rx)
    n = rx.shape[0]
    basis = np.vstack([np.eye(n - 1), -np.ones(n - 1)])  # columns e_i - e_n
    reduced = basis.T @ full @ basis
    return 0.5 * (reduced + reduced.T)


def _hull_vertices(xs: np.ndarray, ys: np.ndarray) -> list[int]:
    """Indices of the lower convex envelope's vertices, in increasing order.

    Monotone-chain scan keeping counterclockwise turns: the surviving
    vertices have nondecreasing chord slopes, i.e. they trace the largest
    convex function lying on or below every sample.  A sample on a chord
    between two vertices is not a vertex.  The scan runs on Python floats,
    whose arithmetic is the same IEEE double arithmetic as numpy's float64
    scalars at a fraction of the cost per operation.
    """
    x, y = xs.tolist(), ys.tolist()
    keep: list[int] = []
    for i, (xi, yi) in enumerate(zip(x, y)):
        while len(keep) >= 2:
            a, b = keep[-2], keep[-1]
            cross = (x[b] - x[a]) * (yi - y[a]) - (y[b] - y[a]) * (xi - x[a])
            if cross <= 0.0:
                keep.pop()
            else:
                break
        keep.append(i)
    return keep


def _lower_hull(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Lower convex envelope of the sampled points, evaluated back on xs."""
    keep = _hull_vertices(xs, ys)
    return np.interp(xs, xs[keep], ys[keep])


def _bracket(x: np.ndarray, h: np.ndarray, i: int) -> tuple[int, int] | None:
    """The lower-hull chord (a, b) with a < i < b over the samples (x, h), or
    None when sample i is a hull vertex; what :func:`_hull_vertices` gives
    around i, found in a few O(n) numpy passes instead of a full scan.

    Alternating tangents: from a = i, b becomes the sample right of i with
    the least slope from a, then a the sample left of i with the greatest
    slope to b, until the pair repeats.  At that fixed point no sample right
    of i lies below the line through a and b (b's choice) and none left of i
    does (a's choice), so the line supports every sample but i: (a, b) is the
    hull edge over i, unless i lies strictly below the line, which makes i a
    vertex.  That last test is the monotone-chain scan's own cross product.
    The scan drops samples that lie on a chord, so among tied slopes b is
    the farthest sample and a the leftmost (``np.argmax`` keeps the first):
    the widest chord.  The grid endpoints are always vertices.
    """
    n = x.shape[0]
    if i == 0 or i == n - 1:
        return None
    xl, hl, xr, hr = x[:i], h[:i], x[i + 1 :], h[i + 1 :]
    a, b = i, -1
    for _ in range(BRACKET_MAX_ALTERNATIONS):
        nb = n - 1 - int(np.argmin(((hr - h[a]) / (xr - x[a]))[::-1]))
        na = int(np.argmax((h[nb] - hl) / (x[nb] - xl)))
        if na == a and nb == b:
            break
        a, b = na, nb
    else:
        raise NumericalError(
            f"hull chord over grid point {i} not found in "
            f"{BRACKET_MAX_ALTERNATIONS} tangent alternations"
        )
    cross = (x[i] - x[a]) * (h[b] - h[a]) - (h[i] - h[a]) * (x[b] - x[a])
    return None if cross > 0.0 else (a, b)


def _entropy_grid(c: Channel, grid_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The uniform grid of P(X=0) with grid_n intervals for a binary-input
    channel, and H(Y_r) and H(r) in nats at its inputs r."""
    if len(c.x_labels) != 2:
        raise NotBinaryInput(
            f"1-D envelope needs |X| = 2, got |X| = {len(c.x_labels)}"
        )
    grid_n = _check_count(grid_n, "grid_n")
    if not 64 <= grid_n <= MAX_GRID_N:
        raise ValidationError(f"grid_n must be in [64, {MAX_GRID_N}], got {grid_n}")
    p0 = np.linspace(0.0, 1.0, grid_n + 1)
    R = np.column_stack([p0, 1.0 - p0])
    return p0, _entr(R @ c.pyx).sum(axis=1), _entr(R).sum(axis=1)


def _reachable_joint(px: np.ndarray, W: np.ndarray) -> JointDistribution | None:
    """The joint of input px through the channel rows W on the outputs some
    input reaches; None when only one is reached, so Y is constant and rho^2
    and s* are 0.  JointDistribution rejects an unreached output, which
    carries no mass, so dropping it changes neither measure."""
    W = W[:, W.sum(axis=0) > 0.0]
    if W.shape[1] < 2:
        return None
    return joint_from_matrix(px[:, None] * W, (0, 1), tuple(range(W.shape[1])))


def _input_grid_index(p0: np.ndarray, x0: float) -> int:
    """Index of the point of the grid p0 of P(X=0) nearest the input's x0.

    The grid ends are always hull vertices, so an input whose nearest grid
    point is a grid end, x0 within half a grid step of 0 or 1, would read
    as touching whatever the channel: it raises :class:`ValidationError`.
    """
    i = int(np.argmin(np.abs(p0 - x0)))
    n = p0.shape[0] - 1
    if not 0 < i < n:
        raise ValidationError(
            f"P(X=0) = {float(x0)!r} is within half a grid step "
            f"(1/grid_n = {1.0 / n:.3g}) of a grid end: grid_n = {n} cannot "
            "resolve it"
        )
    return i


def lower_envelope_1d(c: Channel, lam: float, grid_n: int = ENVELOPE_GRID_N) -> Envelope1D:
    """Sample t_lambda on a uniform grid of P(X=0) and its lower convex envelope.

    ``grid_n`` counts intervals: the grid has grid_n + 1 points including
    both endpoints, so even values keep P(X=0) = 1/2 exactly on the grid.
    Binary input alphabets only.
    """
    lam = _check_lambda(lam)
    p0, hy, hx = _entropy_grid(c, grid_n)
    curve = (hy - lam * hx) * LogBase.BITS.from_nats
    hull = _lower_hull(p0, curve)
    for a in (p0, curve, hull):
        a.setflags(write=False)
    return Envelope1D(p0, curve, hull)


def touches_envelope(c: Channel, lam: float, grid_n: int = ENVELOPE_GRID_N) -> bool:
    """Whether t_lambda touches its lower envelope at the channel's reference
    input: lambda >= :func:`lambda_dagger`, on the same grid and with its
    refusal of an input the grid cannot resolve."""
    return _check_lambda(lam) >= lambda_dagger(c, grid_n)


def lambda_dagger(c: Channel, grid_n: int = ENVELOPE_GRID_N) -> float:
    """The smallest lambda at which t_lambda touches its envelope at c.input.

    Exact on the grid of :func:`lower_envelope_1d`: its point i nearest
    P(X=0) = c.input.probs[0] touches at lambda iff, over every chord (a, b)
    with a < i < b, the Jensen gap of H(Y_r) is at most lambda times that of
    H(r).  So touching is monotone in lambda and the threshold is the
    largest gap ratio, which Dinkelbach's iteration finds: from
    lambda = rho^2, never above it, while i is not a vertex of the lower
    hull of H(Y_r) - lambda * H(r), lambda becomes the gap ratio over the
    hull chord that brackets i, which is larger.  The answer is
    max(rho^2, grid threshold), with no tolerance; it equals the strong
    data-processing constant s*(X;Y) of the channel at its reference input
    up to the grid's resolution.

    The grid ends are always hull vertices, so an input whose nearest grid
    point is a grid end, P(X=0) within half a grid step of 0 or 1, would
    read rho^2 whatever the channel: it raises :class:`ValidationError`
    instead.

    Each step finds that chord by alternating tangents (:func:`_bracket`)
    rather than by scanning the whole hull: the line through a pair (a, b)
    that neither tangent step moves lies on or below every grid point but i,
    so it is the hull edge over i.  Among tied slopes the search keeps the
    widest chord, as the scan does, so the answer is the scan's bit for bit.
    """
    p0, hy, hx = _entropy_grid(c, grid_n)
    i = _input_grid_index(p0, c.input.probs[0])
    j = _reachable_joint(c.input.probs, c.pyx)
    lam = 0.0 if j is None else binary_rho_squared(j)
    while True:
        chord = _bracket(p0, hy - lam * hx, i)
        if chord is None:
            return lam
        a, b = chord
        w = (b - i) / (b - a)
        gap_y = hy[i] - (w * hy[a] + (1.0 - w) * hy[b])
        gap_x = hx[i] - (w * hx[a] + (1.0 - w) * hx[b])
        # t_1 is convex, so the threshold is at most 1
        nxt = min(float(gap_y / gap_x), 1.0)
        if not nxt > lam:
            return lam
        lam = nxt


def scan_inputs(rows) -> tuple[float, float]:
    """Max over binary channel inputs of rho^2 and of s*, as a pair.

    ``rows`` is the bare 2 x |Y| row-stochastic matrix; the scan sweeps
    P(X=0) over the interior grid [1/n, 1 - 1/n] with n = ``SCAN_GRID_N``
    and takes :func:`binary_rho_squared` and :func:`sstar` of the joint at
    each input.  The two maxima agree (a result this function also enforces
    at tolerance 1e-3, raising :class:`NumericalError` otherwise, since
    disagreement can only come from optimizer failure).
    """
    W = np.asarray(rows, dtype=float)
    if W.ndim != 2 or W.shape[0] != 2:
        raise NotBinaryInput(f"input scan needs 2 channel rows, got shape {W.shape}")
    W = _clean_probs(W, "channel row", axis=1)
    max_rho2 = 0.0
    max_sstar = 0.0
    n = SCAN_GRID_N
    for p0 in np.linspace(1.0 / n, 1.0 - 1.0 / n, n - 1):
        j = _reachable_joint(np.array([p0, 1.0 - p0]), W)
        if j is None:
            return 0.0, 0.0
        max_rho2 = max(max_rho2, binary_rho_squared(j))
        max_sstar = max(max_sstar, sstar(j).value)
    if abs(max_rho2 - max_sstar) > 1e-3:
        raise NumericalError(
            "max-over-inputs of rho^2 and s* should agree within 1e-3; "
            f"got {max_rho2!r} vs {max_sstar!r}"
        )
    return max_rho2, max_sstar
