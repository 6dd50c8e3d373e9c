"""Finite discrete distributions and the information measures built on them.

Conventions used throughout the package, stated once here:

* probabilities are plain numpy float arrays over opaque label tuples; all
  numeric work is index-based and labels are only carried along for display,
* ``0 * log 0 = 0`` and ``0 * log(0/0) = 0`` (limits of x*log x),
* logarithms default to base 2 (:data:`LogBase.BITS`); ratios of like
  quantities are base-invariant,
* validation accepts ``|sum - 1| <= 1e-9`` on ingestion and then renormalizes;
  anything further from the simplex is rejected, never silently fixed.
"""

from __future__ import annotations

import enum
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    AlphabetTooLarge,
    LabelMismatch,
    NegativeEntry,
    ParseError,
    ProductTooLarge,
    SumNotOne,
    SupportViolation,
    ValidationError,
    ZeroMarginal,
)

__all__ = [
    "LogBase",
    "PMF",
    "JointDistribution",
    "Channel",
    "joint_from_matrix",
    "marginals",
    "channel_of",
    "push_forward",
    "entropy",
    "kl_divergence",
    "mutual_information",
    "product",
    "transpose",
    "lp_norm",
    "conditional_expectation",
    "load_joint_json",
]

#: absolute tolerance on "sums to one" when ingesting outside data
INGEST_ATOL = 1e-9
#: slack below zero treated as rounding noise rather than a negative entry
NEG_ATOL = 1e-12
#: the most symbols an alphabet of a joint distribution or channel may have:
#: each array of a q* sweep holds |X| or |Y| times |Y| + 97 floats
MAX_ALPHABET = 64


class LogBase(enum.Enum):
    """Logarithm base for reported information quantities."""

    BITS = "bits"
    NATS = "nats"

    @property
    def from_nats(self) -> float:
        """Factor converting a natural-log quantity into this base."""
        return 1.0 / math.log(2.0) if self is LogBase.BITS else 1.0


def _as_labels(labels: Sequence) -> tuple:
    out = tuple(labels)
    if len(out) == 0:
        raise ValidationError("label list is empty")
    try:
        distinct = len(set(out)) == len(out)
    except TypeError as exc:
        raise ValidationError("labels must be hashable scalars") from exc
    if not distinct:
        raise ValidationError(f"labels are not distinct: {out!r}")
    return out


def _check_sizes(
    nx: int, ny: int, what: str = "alphabets", error: type = AlphabetTooLarge
) -> None:
    if nx > MAX_ALPHABET or ny > MAX_ALPHABET:
        raise error(f"{what} {nx}x{ny} exceed the {MAX_ALPHABET}-symbol limit")


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise ValidationError(f"{what} contains non-finite entries")


def _check_count(value, what: str) -> int:
    """``value`` as a non-negative int; ints and numpy ints pass, anything
    else (a float such as 2.5 or 2.0, a negative number) is refused."""
    try:
        count = operator.index(value)
    except TypeError:
        count = -1
    if count < 0:
        raise ValidationError(f"{what} must be a non-negative integer, got {value!r}")
    return count


def _clean_probs(arr: np.ndarray, what: str, axis: int | None = None) -> np.ndarray:
    """Validate nonnegativity and normalization of ``arr``, or of each of its
    slices summed along ``axis``, and return it renormalized."""
    _check_finite(arr, what)
    if arr.min() < -NEG_ATOL:
        raise NegativeEntry(f"{what} has a negative entry: {arr.min()!r}")
    arr = np.maximum(arr, 0.0)
    s = arr.sum(axis=axis, keepdims=True)
    worst = float(s.flat[np.abs(s - 1.0).argmax()])
    if abs(worst - 1.0) > INGEST_ATOL:
        raise SumNotOne(f"{what} sums to {worst!r}, not 1 (tolerance {INGEST_ATOL})")
    return arr / s


@dataclass(frozen=True)
class PMF:
    """A probability mass function over an ordered tuple of labels.

    Entries may be zero; the vector is renormalized on construction when its
    sum is within tolerance of 1.
    """

    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", _as_labels(self.labels))
        arr = np.asarray(self.probs, dtype=float).reshape(-1).copy()
        if arr.shape != (len(self.labels),):
            raise ValidationError(
                f"{len(self.labels)} labels but {arr.shape[0]} probabilities"
            )
        arr = _clean_probs(arr, "pmf")
        arr.setflags(write=False)
        object.__setattr__(self, "probs", arr)

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class JointDistribution:
    """A joint distribution over X x Y with strictly positive marginals and
    at most ``MAX_ALPHABET`` symbols per alphabet."""

    x_labels: tuple
    y_labels: tuple
    pxy: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x_labels", _as_labels(self.x_labels))
        object.__setattr__(self, "y_labels", _as_labels(self.y_labels))
        _check_sizes(len(self.x_labels), len(self.y_labels))
        arr = np.asarray(self.pxy, dtype=float).copy()
        if arr.shape != (len(self.x_labels), len(self.y_labels)):
            raise ValidationError(
                f"matrix shape {arr.shape} does not match labels "
                f"({len(self.x_labels)}, {len(self.y_labels)})"
            )
        arr = _clean_probs(arr, "joint matrix")
        if arr.sum(axis=1).min() <= 0.0:
            raise ZeroMarginal("a row of the joint matrix sums to zero")
        if arr.sum(axis=0).min() <= 0.0:
            raise ZeroMarginal("a column of the joint matrix sums to zero")
        arr.setflags(write=False)
        object.__setattr__(self, "pxy", arr)

    @property
    def px(self) -> np.ndarray:
        return self.pxy.sum(axis=1)

    @property
    def py(self) -> np.ndarray:
        return self.pxy.sum(axis=0)

    @property
    def shape(self) -> tuple[int, int]:
        return self.pxy.shape


@dataclass(frozen=True)
class Channel:
    """A row-stochastic transition matrix together with its input marginal,
    with at most ``MAX_ALPHABET`` symbols per alphabet."""

    x_labels: tuple
    y_labels: tuple
    pyx: np.ndarray
    input: PMF

    def __post_init__(self):
        object.__setattr__(self, "x_labels", _as_labels(self.x_labels))
        object.__setattr__(self, "y_labels", _as_labels(self.y_labels))
        _check_sizes(len(self.x_labels), len(self.y_labels))
        arr = np.asarray(self.pyx, dtype=float).copy()
        if arr.shape != (len(self.x_labels), len(self.y_labels)):
            raise ValidationError(
                f"channel shape {arr.shape} does not match labels"
            )
        arr = _clean_probs(arr, "channel row", axis=1)
        arr.setflags(write=False)
        object.__setattr__(self, "pyx", arr)
        if self.input.labels != self.x_labels:
            raise LabelMismatch("channel input labels differ from x labels")
        if self.input.probs.min() <= 0.0:
            raise ZeroMarginal("channel input must be strictly positive")


def joint_from_matrix(table, x_labels: Sequence, y_labels: Sequence) -> JointDistribution:
    """Build a validated joint distribution from a matrix of probabilities.

    Entries must be nonnegative, the total must be 1 within 1e-9, and every
    row and column must carry positive mass. The matrix is renormalized to
    sum exactly to 1.
    """
    arr = np.asarray(table, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"joint matrix must be 2-D, got shape {arr.shape}")
    return JointDistribution(tuple(x_labels), tuple(y_labels), arr)


def marginals(j: JointDistribution) -> tuple[PMF, PMF]:
    """The pair of marginal distributions (on X, on Y)."""
    return PMF(j.x_labels, j.px), PMF(j.y_labels, j.py)


def channel_of(j: JointDistribution) -> Channel:
    """The conditional distribution of Y given X, rows p(y|x)."""
    px = j.px
    return Channel(
        j.x_labels, j.y_labels, j.pxy / px[:, None], PMF(j.x_labels, px)
    )


def push_forward(c: Channel, r: PMF) -> PMF:
    """The output distribution of channel ``c`` under input ``r``."""
    if r.labels != c.x_labels:
        raise LabelMismatch(
            f"input labels {r.labels!r} do not match channel labels {c.x_labels!r}"
        )
    return PMF(c.y_labels, r.probs @ c.pyx)


def _entr(x: np.ndarray) -> np.ndarray:
    """Elementwise -x log x in nats, with 0 log 0 = 0, for x >= +0.0."""
    return -x * np.log(np.maximum(x, 5e-324))


def _kl_terms(r: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Elementwise terms p phi(r/p) of D(r || p) in nats, broadcasting over
    rows, with phi(t) = t log t - (t - 1) >= 0.

    The reference must be strictly positive: callers sum over p > 0 only.
    A p below 2.2e-308 can overflow r/p.  The terms -(t - 1) add up to
    sum p - sum r, zero in exact arithmetic, so the sum is that of
    r log(r/p) without the ulp by which float64 r and p miss summing to the
    same total, which is ~1e-7 of a 1e-9 nat divergence near r = p.  What
    is left there is the rounding of log1p, ~1e-16/|t - 1| relative.  A zero
    r gives exactly p.  For 0 < t <= 2^-54, where t - 1 rounds to -1, the
    log1p argument is clamped at -1 + 2^-53, which moves the term by under
    1e-16 of p phi(t).
    """
    t = r / p
    d = t - 1.0
    terms = np.log1p(np.maximum(d, -1.0 + 2.0**-53))
    terms *= t
    terms -= d
    terms *= p
    return terms


def entropy(p: PMF, base: LogBase = LogBase.BITS) -> float:
    """Shannon entropy H(p) = -sum p_i log p_i, with 0 log 0 = 0."""
    return float(_entr(p.probs).sum()) * base.from_nats


def kl_divergence(r: PMF, p: PMF, base: LogBase = LogBase.BITS) -> float:
    """Relative entropy D(r || p) over a shared alphabet.

    Raises :class:`SupportViolation` when ``r`` puts mass where ``p`` has none;
    otherwise finite, nonnegative, and zero exactly when ``r = p``.
    """
    if r.labels != p.labels:
        raise LabelMismatch("KL divergence needs a shared alphabet")
    if np.any((r.probs > 0.0) & (p.probs <= 0.0)):
        raise SupportViolation("r puts mass outside the support of p")
    on = p.probs > 0.0
    return float(_kl_terms(r.probs[on], p.probs[on]).sum()) * base.from_nats


def mutual_information(j: JointDistribution, base: LogBase = LogBase.BITS) -> float:
    """Mutual information I(X;Y) = D(p(x,y) || p(x) p(y)), summed where
    p(x) p(y) does not underflow to 0."""
    ref = np.outer(j.px, j.py)
    on = ref > 0.0
    val = float(_kl_terms(j.pxy[on], ref[on]).sum()) * base.from_nats
    return max(val, 0.0)


def product(j1: JointDistribution, j2: JointDistribution) -> JointDistribution:
    """The independent product joint on (X1 x X2, Y1 x Y2).

    Labels of the product are pairs of factor labels.  Raises
    :class:`ProductTooLarge` before building anything when an alphabet of
    the product would exceed ``MAX_ALPHABET`` symbols.
    """
    (n1, m1), (n2, m2) = j1.shape, j2.shape
    _check_sizes(n1 * n2, m1 * m2, "product alphabets", ProductTooLarge)
    x_labels = tuple((a, b) for a in j1.x_labels for b in j2.x_labels)
    y_labels = tuple((a, b) for a in j1.y_labels for b in j2.y_labels)
    return JointDistribution(x_labels, y_labels, np.kron(j1.pxy, j2.pxy))


def transpose(j: JointDistribution) -> JointDistribution:
    """The same joint viewed in the other direction (swap the roles of X and Y).

    ``j`` is already valid, so its entries are kept exactly: the constructor
    would renormalize by a sum taken in the transposed order, which can move
    an entry by a few ulps, and transpose would not be an involution.
    """
    pyx = np.ascontiguousarray(j.pxy.T)
    pyx.setflags(write=False)
    t = object.__new__(JointDistribution)
    for name, value in (("x_labels", j.y_labels), ("y_labels", j.x_labels), ("pxy", pyx)):
        object.__setattr__(t, name, value)
    return t


def lp_norm(values, weights: PMF, p: float) -> float:
    """Generalized p-norm (E |v|^p)^(1/p) under the weight distribution.

    * ``p > 0``: computed with max rescaling so large exponents do not overflow,
    * ``p = 0``: the geometric mean exp(E log |v|),
    * ``p < 0``: the usual formula on positive values,
    * for ``p <= 0`` the norm is 0 as soon as a zero value carries weight,
    * ``p = inf`` and ``p = -inf``: the largest and the smallest |v|.

    Entries with zero weight are ignored.  A non-finite value, even one with
    zero weight, or a NaN order raises :class:`ValidationError`.
    """
    v = np.abs(np.asarray(values, dtype=float).reshape(-1))
    if v.shape != weights.probs.shape:
        raise ValidationError(
            f"{v.shape[0]} values but {len(weights)} weights"
        )
    _check_finite(v, "values")
    if np.isnan(p):
        raise ValidationError("the order p is NaN")
    mask = weights.probs > 0.0
    v = v[mask]
    w = weights.probs[mask]
    if p > 0.0:
        m = float(v.max())
        if m == 0.0:
            return 0.0
        return float(m * (w @ (v / m) ** p) ** (1.0 / p))
    if np.any(v == 0.0):
        return 0.0
    if p == 0.0:
        return float(np.exp(w @ np.log(v)))
    m = float(v.min())
    return float(m * (w @ (v / m) ** p) ** (1.0 / p))


def conditional_expectation(j: JointDistribution, g) -> np.ndarray:
    """E[g(Y) | X = x] for each x, as an array aligned with ``j.x_labels``;
    a non-finite entry of g raises :class:`ValidationError`."""
    g = np.asarray(g, dtype=float).reshape(-1)
    if g.shape[0] != len(j.y_labels):
        raise ValidationError(
            f"g has {g.shape[0]} entries but |Y| = {len(j.y_labels)}"
        )
    _check_finite(g, "g")
    return (j.pxy @ g) / j.px


def _parse_prob(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float, str)):
        raise ParseError(f"{where}: probability must be a number or fraction string")
    if isinstance(v, str):
        try:
            return float(Fraction(v))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: cannot parse probability {v!r}") from exc
    return float(v)


def load_joint_json(path) -> JointDistribution:
    """Load a joint distribution from a JSON file.

    Expected schema::

        {"x_labels": [...], "y_labels": [...], "pxy": [[...], ...]}

    Matrix entries may be numbers or exact fraction strings such as ``"1/3"``.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    for key in ("x_labels", "y_labels", "pxy"):
        if key not in doc:
            raise ParseError(f"{path}: missing key {key!r}")
    x_labels, y_labels, rows = doc["x_labels"], doc["y_labels"], doc["pxy"]
    if not isinstance(x_labels, list) or not isinstance(y_labels, list):
        raise ParseError(f"{path}: x_labels and y_labels must be lists")
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{path}: pxy must be a list of rows")
    if len(rows) != len(x_labels) or any(len(r) != len(y_labels) for r in rows):
        raise ParseError(
            f"{path}: pxy must be {len(x_labels)} rows of {len(y_labels)} entries"
        )
    table = [
        [_parse_prob(v, f"{path}: pxy[{i}][{k}]") for k, v in enumerate(row)]
        for i, row in enumerate(rows)
    ]
    return joint_from_matrix(table, x_labels, y_labels)
