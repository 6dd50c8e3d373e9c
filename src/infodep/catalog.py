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

from .distributions import JointDistribution, _parse_prob, joint_from_matrix
from .errors import ParseError

__all__ = ["builtin"]

#: each built-in by its name in ``BUILTIN_HELP``, with its y labels and its
#: table, a function of the parameter after the colon for ``bsc:<eps>`` and
#: ``bec:<e>``; every x alphabet is (0, 1)
_BUILTINS = {
    "fig2": ((0, "E", 1), [[1 / 3, 1 / 6, 0.0], [0.0, 1 / 4, 1 / 4]]),
    "remark3": ((0, 1), [[0.36, 0.49], [0.03, 0.12]]),
    "bsc:<eps>": ((0, 1), lambda eps: [[(1 - eps) / 2, eps / 2], [eps / 2, (1 - eps) / 2]]),
    "bec:<e>": ((0, "E", 1), lambda e: [[(1 - e) / 2, e / 2, 0.0], [0.0, e / 2, (1 - e) / 2]]),
    "independent": ((0, 1), [[0.25, 0.25], [0.25, 0.25]]),
}

BUILTIN_HELP = " | ".join(_BUILTINS)


def _entry(name: str) -> tuple | None:
    """The ``_BUILTINS`` entry whose name agrees with ``name`` up to and
    including any colon, else None."""
    head = name.partition(":")[:2]
    return next((v for k, v in _BUILTINS.items() if k.partition(":")[:2] == head), None)


def is_builtin(name: str) -> bool:
    """Whether the token names a built-in distribution (vs. a file path)."""
    return _entry(name) is not None


def _param(name: str) -> float:
    value = _parse_prob(name.partition(":")[2], repr(name))
    if not 0.0 <= value <= 1.0:
        raise ParseError(f"{name!r}: parameter must be in [0, 1], got {value!r}")
    return value


def builtin(name: str) -> JointDistribution:
    """The named built-in joint distribution; ParseError on unknown names."""
    entry = _entry(name)
    if entry is None:
        raise ParseError(f"unknown built-in distribution {name!r} (try {BUILTIN_HELP})")
    y_labels, table = entry
    return joint_from_matrix(table(_param(name)) if callable(table) else table, (0, 1), y_labels)
