"""All of ``infodep measures`` for one joint in one pass.

:func:`measures` returns rho with its witness, s* both ways with their
diagnostics, the mutual information, and (binary X) lambda-dagger.  It
computes rho's SVD once and hands its witness to s*(X;Y), and the
transpose's, the same witness with f and g swapped
(:func:`infodep.spectral.maximal_correlation`), to s*(Y;X); each search
reads its witness ray from that.  Each answer is bit for bit what its own
function returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .distributions import JointDistribution, LogBase, channel_of, mutual_information, transpose
from .spectral import CorrelationWitness, _witnesses
from .sstar import RESTARTS, SStarResult, _sstar
from .tcurve import lambda_dagger

__all__ = ["Measures", "measures"]


@dataclass(frozen=True)
class Measures:
    """The dependence measures of one joint.

    ``witness`` is ``maximal_correlation(j)``; ``sstar_xy`` and ``sstar_yx``
    are ``sstar(j)`` and ``sstar(transpose(j))`` with the same restarts and
    seed; ``mutual_information_nats`` is ``mutual_information(j,
    LogBase.NATS)``; ``lambda_dagger`` is ``lambda_dagger(channel_of(j))``
    when |X| = 2 and None otherwise.
    """

    witness: CorrelationWitness
    sstar_xy: SStarResult
    sstar_yx: SStarResult
    mutual_information_nats: float
    lambda_dagger: float | None


def measures(j: JointDistribution, *, restarts: int = RESTARTS, seed: int = 0) -> Measures:
    """rho, s*(X;Y), s*(Y;X), I(X;Y) and (binary X) lambda-dagger of j, from
    one SVD.

    Raises :class:`DegenerateAlphabet` when either alphabet has one symbol,
    and whatever ``sstar`` or ``lambda_dagger`` raise, in that order.
    """
    forward, backward = _witnesses(j)
    sstar_xy = _sstar(j, forward, restarts, seed)
    sstar_yx = _sstar(transpose(j), backward, restarts, seed)
    ld = lambda_dagger(channel_of(j)) if j.shape[0] == 2 else None
    return Measures(forward, sstar_xy, sstar_yx, mutual_information(j, LogBase.NATS), ld)
