"""Dependence measures for finite discrete joint distributions.

The package computes, for a joint law p(x,y) on small finite alphabets:

* **maximal correlation** rho — the second singular value of the normalized
  joint matrix Q[x,y] = p(x,y)/sqrt(p(x)p(y)), with an attaining witness pair
  (:mod:`infodep.spectral`);
* the **strong data-processing constant** s*(X;Y) — the supremum of
  D(r_Y || p_Y)/D(r || p_X) over input distributions r != p_X, equal to the
  tight constant in I(U;Y) <= s* I(U;X) over Markov chains U - X - Y
  (:mod:`infodep.sstar`);
* the **hypercontractivity ribbon boundary** q*(p) — the smallest q with
  ||E[g(Y)|X]||_p <= ||g(Y)||_q for all g — whose chordal slopes tend to
  s*(Y;X) as p -> 1 and to s*(X;Y) as p -> infinity, and never drop below
  rho^2
  (:mod:`infodep.ribbon`);
* the curve **t_lambda(r) = H(Y_r) - lambda H(r)** over channel inputs, whose
  Hessian threshold at p(x) is rho^2 and whose convex-envelope touch
  threshold is s* (:mod:`infodep.tcurve`).

rho^2 <= s* always; the built-in ``fig2`` joint (an asymmetric binary-input
erasure channel) separates them — rho^2 = 0.6 < s* = 0.6315... — and the
``counterexample`` CLI command exhibits explicit auxiliary variables U whose
information ratios I(U;Y)/I(U;X) exceed rho^2, so rho^2 is *not* a valid
data-processing bound while s* is.

Probabilities live in :mod:`infodep.distributions`; built-in example joints
in :mod:`infodep.catalog`; the command-line front end in :mod:`infodep.cli`.
"""

from .catalog import builtin
from .distributions import (
    Channel,
    JointDistribution,
    LogBase,
    PMF,
    channel_of,
    conditional_expectation,
    entropy,
    joint_from_matrix,
    kl_divergence,
    load_joint_json,
    lp_norm,
    marginals,
    mutual_information,
    product,
    push_forward,
    transpose,
)
from .errors import (
    BadOrder,
    BoundaryPoint,
    DegenerateAlphabet,
    EpsTooLarge,
    InfodepError,
    LabelMismatch,
    LambdaOutOfRange,
    NegativeEntry,
    NotBinary,
    NotBinaryInput,
    NumericalError,
    ParseError,
    PEqualsOne,
    ProductTooLarge,
    RTooCloseToP,
    SumNotOne,
    SupportViolation,
    ValidationError,
    ZeroFunction,
    ZeroIUX,
    ZeroMarginal,
)
from .ribbon import (
    QStarCurve,
    chordal_slope,
    conjugate,
    contraction_gap,
    in_ribbon,
    q_star,
    q_star_curve,
    slope_at_one,
)
from .spectral import (
    CorrelationWitness,
    QMatrix,
    backward_coupling,
    binary_rho_squared,
    hessian_rho_lambda,
    maximal_correlation,
    q_matrix,
    renyi_value,
)
from .sstar import (
    SStarResult,
    UDecomposition,
    UStats,
    binary_u_from_conditionals,
    kl_ratio,
    perturbation_sequence,
    ratio_for_u,
    sstar,
)
from .tcurve import (
    Envelope1D,
    hessian_t_lambda,
    lambda_dagger,
    lower_envelope_1d,
    scan_inputs,
    t_lambda,
    touches_envelope,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # distributions
    "LogBase", "PMF", "JointDistribution", "Channel",
    "joint_from_matrix", "marginals", "channel_of", "push_forward",
    "entropy", "kl_divergence", "mutual_information", "product",
    "transpose", "lp_norm", "conditional_expectation", "load_joint_json",
    # spectral
    "QMatrix", "CorrelationWitness", "q_matrix", "maximal_correlation",
    "binary_rho_squared", "renyi_value", "backward_coupling",
    "hessian_rho_lambda",
    # tcurve
    "Envelope1D", "t_lambda", "hessian_t_lambda", "lower_envelope_1d",
    "touches_envelope", "lambda_dagger", "scan_inputs",
    # sstar
    "UDecomposition", "UStats", "SStarResult", "kl_ratio", "sstar",
    "ratio_for_u", "binary_u_from_conditionals", "perturbation_sequence",
    # ribbon
    "QStarCurve", "contraction_gap", "in_ribbon", "q_star", "q_star_curve",
    "chordal_slope", "slope_at_one", "conjugate",
    # catalog
    "builtin",
    # errors
    "InfodepError", "ValidationError", "ParseError", "NegativeEntry",
    "SumNotOne", "ZeroMarginal", "LabelMismatch", "SupportViolation",
    "DegenerateAlphabet", "NotBinary", "ZeroFunction", "LambdaOutOfRange",
    "BoundaryPoint", "NotBinaryInput", "RTooCloseToP", "ZeroIUX",
    "EpsTooLarge", "BadOrder", "PEqualsOne", "ProductTooLarge",
    "NumericalError",
]
