"""
The hypercontractivity ribbon and its boundary slopes
=====================================================

A pair (p, q) with 1 <= q <= p belongs to the hypercontractivity ribbon of
(X, Y) when every function g of Y satisfies ||E[g|X]||_p <= ||g||_q under
the joint's marginals.  For each p the boundary exponent q*(p) is the
smallest admissible q, and the chordal slope (q*(p) - 1)/(p - 1) carries the
dependence information: it tends to s*(X;Y) as p grows and to s*(Y;X) as
p drops to 1.  Maximal correlation lower-bounds every slope.

Runtime: about 0.5 s on a 2-vCPU x86-64 VM, import included; the eleven q*
take a quarter to a third of it under cProfile.  Each boundary
point is a climb on witness crossings: fixed-point sweeps at q look for a g
with ||E[g|X]||_p > ||g||_q, and q moves up to where that g's two norms
meet, until the sweeps find no such g.
"""

import numpy as np

from infodep import (
    builtin,
    chordal_slope,
    conjugate,
    in_ribbon,
    maximal_correlation,
    q_star,
    q_star_curve,
    sstar,
    transpose,
)

j = builtin("fig2")
rho2 = maximal_correlation(j).rho ** 2
s_xy = sstar(j).value
s_yx = sstar(transpose(j)).value
print(f"reference values: rho^2 = {rho2:.6f}, s*(X;Y) = {s_xy:.6f}, "
      f"s*(Y;X) = {s_yx:.6f}")

# the boundary on a geometric grid of p values
ps = (1.5, 2.0, 4.0, 8.0, 16.0)
curve = q_star_curve(j, ps)
print(f"\n{'p':>6} {'q*(p)':>10} {'q*/p':>8} {'slope':>10}")
for p, q, slope in zip(curve.ps, curve.qstars, curve.slopes):
    print(f"{p:>6g} {q:>10.6f} {q / p:>8.4f} {slope:>10.6f}")
print("every slope is at least rho^2; the slope tends to s*(Y;X) as p -> 1 "
      "and to s*(X;Y) as p grows")

# near p = 1 the slope crosses over to the reversed constant s*(Y;X)
slope_small = chordal_slope(j, 1.01)
print(f"\nslope at p = 1.01 = {slope_small:.6f}  (s*(Y;X) = {s_yx:.6f})")

# an independent pair is hypercontractive everywhere: the boundary collapses
indep = builtin("independent")
print(f"\nindependent joint: q*(2) = {q_star(indep, 2.0)}, "
      f"q*(8) = {q_star(indep, 8.0)}")

# duality: a boundary point of (X;Y) maps to a boundary point of (Y;X)
# under Hoelder conjugation of both coordinates
p = 3.0
q = q_star(j, p)
dual_q = q_star(transpose(j), conjugate(q))
print(f"\nduality check at p = {p}: q* = {q:.6f}")
print(f"  conjugate pair ({conjugate(q):.6f}, {conjugate(p):.6f}) vs "
      f"transposed boundary q*({conjugate(q):.4f}) = {dual_q:.6f}")

# membership tests on either side of the boundary at p = 2
q2 = q_star(j, 2.0)
inside, outside = 0.5 * (q2 + 2.0), max(1.0, q2 - 0.05)
print(f"\nat p = 2: q* = {q2:.6f}")
print(f"  in_ribbon(2, {inside:.4f})  = {in_ribbon(j, 2.0, inside)}")
print(f"  in_ribbon(2, {outside:.4f})  = {in_ribbon(j, 2.0, outside)}")
