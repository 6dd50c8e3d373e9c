"""Singular-value machinery for maximal correlation.

The central object is the normalized joint matrix Q with entries
``Q[x,y] = p(x,y) / sqrt(p(x) p(y))``.  Its largest singular value is always 1
with singular vectors ``sqrt(p(x))`` and ``sqrt(p(y))``; the second singular
value is the maximal correlation

    rho = sup { E[f(X) g(Y)] : E f = E g = 0, E f^2 = E g^2 = 1 },

attained by ``f = u2 / sqrt(p(x))``, ``g = v2 / sqrt(p(y))`` where (u2, v2) is
the second singular pair.

Two independent numerical routes to the same quantity are kept side by side on
purpose — :func:`maximal_correlation` (dense SVD of the deflated Q) and
:func:`hessian_rho_lambda` (symmetric eigensolve of Q Q^T) — so each can
certify the other in tests; :func:`binary_rho_squared` is a closed form for
binary alphabets.

rho is symmetric, rho(X;Y) = rho(Y;X), and :func:`maximal_correlation` keeps
that to the bit.  It decomposes one canonical orientation of the table: the
one with fewer rows, and for a square table the one of the table and its
transpose whose C-order bytes compare smaller.  Everything (marginals,
deflation, SVD, re-orthogonalization, sign) is read from that C-contiguous
matrix, and the other orientation's witness is the same pair with f and g
swapped.  A table equal to its own transpose gets the same witness both ways.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import PMF, JointDistribution, _check_finite
from .errors import DegenerateAlphabet, NotBinary, ValidationError, ZeroFunction

__all__ = [
    "QMatrix",
    "CorrelationWitness",
    "q_matrix",
    "maximal_correlation",
    "binary_rho_squared",
    "renyi_value",
    "backward_coupling",
    "hessian_rho_lambda",
]

@dataclass(frozen=True)
class QMatrix:
    """The normalized joint matrix together with the marginals it was built from."""

    entries: np.ndarray
    x_marginal: PMF
    y_marginal: PMF


@dataclass(frozen=True)
class CorrelationWitness:
    """Maximal correlation value plus an attaining pair of unit functions.

    Invariants (under the source marginals): E[f] = E[g] = 0,
    E[f^2] = E[g^2] = 1, and E[f(X) g(Y)] = rho, all within 1e-8.
    When the second singular value is degenerate the witness is one valid
    choice among many; ``rho`` itself is still unique.
    """

    rho: float
    f: np.ndarray
    g: np.ndarray


def q_matrix(j: JointDistribution) -> QMatrix:
    """Q[x,y] = p(x,y)/sqrt(p(x) p(y)); top singular pair (sqrt px, sqrt py, 1)."""
    px, py = j.px, j.py
    entries = j.pxy / np.sqrt(np.outer(px, py))
    entries.setflags(write=False)
    return QMatrix(entries, PMF(j.x_labels, px), PMF(j.y_labels, py))


def _orthonormal_to(w: np.ndarray) -> np.ndarray:
    """Some unit vector orthogonal to the unit vector w (dim >= 2)."""
    candidates = np.eye(w.shape[0]) - np.outer(w, w)
    norms = np.linalg.norm(candidates, axis=0)
    k = int(np.argmax(norms))
    return candidates[:, k] / norms[k]


def _is_canonical(a: np.ndarray, t: np.ndarray) -> bool:
    """Whether the table ``a``, whose transpose is ``t``, is the orientation
    :func:`maximal_correlation` decomposes: the one with fewer rows, and for a
    square table the one whose C-order bytes compare no greater.  A table
    equal to its transpose is canonical both ways."""
    nx, ny = a.shape
    return nx < ny or (nx == ny and a.tobytes() <= t.tobytes())


def _decompose(a: np.ndarray) -> CorrelationWitness:
    """rho and its witness for the C-contiguous table ``a``, everything read
    from ``a`` itself: its marginals, the deflated Q, the SVD and the sign."""
    u1, v1 = np.sqrt(np.add.reduce(a, 1)), np.sqrt(np.add.reduce(a, 0))
    R = a / np.outer(u1, v1) - np.outer(u1, v1)
    U, S, Vt = np.linalg.svd(R, full_matrices=False)
    if S[0] < 1e-14:
        # R is rounding noise (an independent joint): rho = 0, and any
        # orthogonal pair is a valid witness
        sigma, u2, v2 = 0.0, _orthonormal_to(u1), _orthonormal_to(v1)
    else:
        # re-orthogonalize against the known top pair so float-level leakage
        # of the deflated direction cannot reach the witness
        u2 = U[:, 0] - (U[:, 0] @ u1) * u1
        v2 = Vt[0] - (Vt[0] @ v1) * v1
        u2, v2 = u2 / np.linalg.norm(u2), v2 / np.linalg.norm(v2)
        sigma = float(S[0])

    sigma = float(min(max(sigma, 0.0), 1.0))
    f = u2 / u1
    g = v2 / v1
    # E[f g] >= 0 already holds (sigma >= 0 by construction); fix the
    # overall sign so reruns return the same witness
    k = int(np.argmax(np.abs(f)))
    if f[k] < 0.0:
        f, g = -f, -g
    f.setflags(write=False)
    g.setflags(write=False)
    return CorrelationWitness(sigma, f, g)


def _witnesses(j: JointDistribution) -> tuple[CorrelationWitness, CorrelationWitness]:
    """The witnesses of ``j`` and of ``transpose(j)``, from one SVD of the
    canonical orientation (see :func:`maximal_correlation`)."""
    nx, ny = j.shape
    if nx < 2 or ny < 2:
        raise DegenerateAlphabet(
            f"maximal correlation witness needs |X|, |Y| >= 2, got {nx}x{ny}"
        )
    a, t = j.pxy, np.ascontiguousarray(j.pxy.T)
    forward = _is_canonical(a, t)
    w = _decompose(a if forward else t)
    swapped = CorrelationWitness(w.rho, w.g, w.f)
    return (w if forward else swapped), (w if _is_canonical(t, a) else swapped)


def maximal_correlation(j: JointDistribution) -> CorrelationWitness:
    """Maximal correlation rho = sigma_2(Q) with an attaining witness (f, g).

    Algorithm: deflate the analytically known top singular pair
    (sqrt p(x), sqrt p(y), 1) from Q and take the leading singular triple of
    the remainder from one dense SVD.  Deflating the exact top pair keeps
    sigma_1 = 1 from contaminating the estimate when rho is close to 1.

    The SVD is of the table's canonical orientation (module docstring), so
    rho is transpose-symmetric to the bit: unless the table equals its
    transpose, ``maximal_correlation(transpose(j))`` is this witness with f
    and g swapped.

    Raises :class:`DegenerateAlphabet` when either alphabet has one symbol
    (no zero-mean unit-variance function exists; the correlation is 0 by
    convention but no witness can be returned).
    """
    return _witnesses(j)[0]


def binary_rho_squared(j: JointDistribution) -> float:
    """Closed form rho^2 = sum_{x,y} p(x,y)^2/(p(x)p(y)) - 1 when an alphabet is binary.

    Valid exactly when min(|X|, |Y|) = 2: the Q-matrix then has rank at most
    2, so its squared Frobenius norm is 1 + rho^2.
    """
    nx, ny = j.shape
    if min(nx, ny) != 2:
        raise NotBinary(
            f"closed form needs a binary alphabet on one side, got {nx}x{ny}"
        )
    val = float(np.sum(j.pxy**2 / np.outer(j.px, j.py))) - 1.0
    return min(max(val, 0.0), 1.0)


def renyi_value(j: JointDistribution, f) -> float:
    """The one-function characterization value E[ E[f(X)|Y]^2 ].

    ``f`` is centered and scaled to zero mean and unit variance under p(x)
    before evaluation; a constant ``f`` has no normalization and raises
    :class:`ZeroFunction`.  The supremum of this value over all f equals
    rho^2.
    """
    f = np.asarray(f, dtype=float).reshape(-1)
    if f.shape[0] != j.shape[0]:
        raise ValidationError(f"f has {f.shape[0]} entries but |X| = {j.shape[0]}")
    _check_finite(f, "f")
    px, py = j.px, j.py
    fc = f - px @ f
    var = float(px @ fc**2)
    if var < 1e-24:
        raise ZeroFunction("f is constant on the support of p(x)")
    fn = fc / np.sqrt(var)
    cond_mean = (j.pxy.T @ fn) / py
    return float(py @ cond_mean**2)


def backward_coupling(j: JointDistribution) -> JointDistribution:
    """The two-step coupling p(x, x') = sum_y p(x|y) p(x'|y) p(y).

    This is the joint law of (X, X') where X' is an independent redraw of X
    given Y.  The table is symmetric, both marginals equal p(x), and its
    Q-matrix is Q Q^T, so its maximal correlation equals rho(X;Y)^2.
    """
    M = (j.pxy / j.py[None, :]) @ j.pxy.T
    M = 0.5 * (M + M.T)  # exact symmetry despite float summation order
    return JointDistribution(j.x_labels, j.x_labels, M)


def hessian_rho_lambda(j: JointDistribution) -> float:
    """The smallest lambda making every second-order perturbation nonnegative.

    Along a multiplicative perturbation p_eps(x) = p(x)(1 + eps f(x)) with
    E[f] = 0, E[f^2] = 1, the second derivative of H(Y) - lambda H(X) in eps
    is proportional to lambda - E[E[f(X)|Y]^2]; the worst f gives the
    threshold lambda = max_f E[E[f|Y]^2], the second-largest eigenvalue of
    Q Q^T.  Computed here with a dense symmetric eigensolve — a deliberately
    independent route from :func:`maximal_correlation` — and equal to rho^2.
    """
    nx = j.shape[0]
    if nx < 2:
        return 0.0
    Q = q_matrix(j).entries
    eigs = np.linalg.eigvalsh(Q @ Q.T)
    return float(min(max(eigs[-2], 0.0), 1.0))
