"""Built-in named joint distributions, so experiments need no input files.

Names accepted by :func:`builtin` (and by every CLI command in place of a
file path):

* ``fig2`` — the asymmetric binary-input erasure channel with uniform input:
  x = 0 sends 0 or E with probabilities 2/3, 1/3; x = 1 sends E or 1 with
  probabilities 1/2, 1/2.  The running counterexample of this package: its
  squared maximal correlation is 0.6 while its strong data-processing
  constant is (1/2) log2(12/5) = 0.6315...
* ``remark3`` — the 2x2 joint [[0.36, 0.49], [0.03, 0.12]], whose two
  directed constants differ (s*(X;Y) = 0.045..., s*(Y;X) = 0.029...).
* ``bsc:<eps>`` — binary symmetric channel with crossover eps, uniform input.
* ``bec:<e>`` — binary erasure channel with erasure probability e, uniform
  input.
* ``independent`` — uniform independent 2x2 joint.

Channel parameters parse like JSON probabilities: decimals or fraction
strings (``bec:1/4``).
"""

from __future__ import annotations

from fractions import Fraction

from .distributions import JointDistribution, joint_from_matrix
from .errors import ParseError

__all__ = ["builtin"]

BUILTIN_HELP = "fig2 | remark3 | bsc:<eps> | bec:<e> | independent"

_FIXED = ("fig2", "remark3", "independent")
_PARAMETRIC = ("bsc", "bec")


def is_builtin(name: str) -> bool:
    """Whether the token names a built-in distribution (vs. a file path)."""
    if name in _FIXED:
        return True
    head = name.split(":", 1)[0]
    return ":" in name and head in _PARAMETRIC


def _param(name: str) -> float:
    text = name.split(":", 1)[1]
    try:
        value = float(Fraction(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{name!r}: cannot parse parameter {text!r}") from exc
    if not 0.0 <= value <= 1.0:
        raise ParseError(f"{name!r}: parameter must be in [0, 1], got {value!r}")
    return value


def builtin(name: str) -> JointDistribution:
    """The named built-in joint distribution; ParseError on unknown names."""
    if name == "fig2":
        return joint_from_matrix(
            [[1 / 3, 1 / 6, 0.0], [0.0, 1 / 4, 1 / 4]], (0, 1), (0, "E", 1)
        )
    if name == "remark3":
        return joint_from_matrix([[0.36, 0.49], [0.03, 0.12]], (0, 1), (0, 1))
    if name == "independent":
        return joint_from_matrix([[0.25, 0.25], [0.25, 0.25]], (0, 1), (0, 1))
    head = name.split(":", 1)[0]
    if ":" in name and head == "bsc":
        eps = _param(name)
        return joint_from_matrix(
            [[(1 - eps) / 2, eps / 2], [eps / 2, (1 - eps) / 2]], (0, 1), (0, 1)
        )
    if ":" in name and head == "bec":
        e = _param(name)
        return joint_from_matrix(
            [[(1 - e) / 2, e / 2, 0.0], [0.0, e / 2, (1 - e) / 2]],
            (0, 1),
            (0, "E", 1),
        )
    raise ParseError(f"unknown built-in distribution {name!r} (try {BUILTIN_HELP})")
