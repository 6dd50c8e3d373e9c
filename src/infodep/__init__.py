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

:func:`measures` computes rho, s* both ways, I(X;Y) and lambda-dagger of one
joint in one pass, with one SVD (:mod:`infodep.summary`).

rho^2 <= s* always; the built-in ``fig2`` joint (an asymmetric binary-input
erasure channel) separates them — rho^2 = 0.6 < s* = 0.6315... — and the
``counterexample`` CLI command exhibits explicit auxiliary variables U whose
information ratios I(U;Y)/I(U;X) exceed rho^2, so rho^2 is *not* a valid
data-processing bound while s* is.

Probabilities live in :mod:`infodep.distributions`; built-in example joints
in :mod:`infodep.catalog`; the command-line front end in :mod:`infodep.cli`.
"""

import sys

from .catalog import *
from .distributions import *
from .errors import *
from .ribbon import *
from .spectral import *
# importing the submodule sets ``infodep.sstar`` to it; this star import
# then rebinds the name to the function, and a later import of the loaded
# submodule does not set it again
from .sstar import *
from .summary import *
from .tcurve import *

__version__ = "0.1.0"

#: each public name is listed once, in its own module's ``__all__``
_MODULES = (
    "catalog", "distributions", "errors", "ribbon", "spectral", "sstar", "summary", "tcurve"
)
__all__ = ["__version__"] + [
    name for module in _MODULES for name in sys.modules[f"{__name__}.{module}"].__all__
]
