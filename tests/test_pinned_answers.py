"""Exact answers of the s* search and of lambda-dagger.

The ``sstar`` constants were re-recorded with ``float.hex`` when the
projected Euclidean ascent from five candidate families gave way to a
multiplicative ascent from the vertices, the witness ray and the Dirichlet
restarts, finished by Dinkelbach-Newton steps on the maximizer's face.  That
change raised the values that the old ascent left short: j4's by 1.1e-8,
and the product of remark3 and j4, which ended 4.4e-7 below j4 at the sweep
cap, now converges to within two ulps of j4's value, as the max rule asks.
They were re-recorded again when the ascent began to hand a first-order
crawl to the Newton finish, and to break ties within the ratio's rounding
toward the start farthest from p(x).  The handoff cut the sweeps (bsc:0.2,
fig2 and remark3 to 4, j4 to 27, the product to 55), moved the maximizers of
j4 and the product by rounding (at most 3.8e-14), and raised the product's
value by 1.1e-16, to j4's value exactly.  The tie rule moved bec:0.25 from
the start next to p(x), whose value rounding had put 8.7e-13 above the
supremum 0.75, to one where the ratio rounds to 0.75 + 3.3e-16.  Every other
value is bit-identical.  The capped 5x4 joint was added when the handoff
stopped retrying after a failed try: the one try fails on it and the
ascent runs to its sweep cap, so it pins that path.  The product was
re-recorded once more when the ascent began to hold one column per start
and to sum over the symbols along axis 0.  Numpy sums 8 or more entries
along a row pairwise, and the axis-0 sum adds them in order, so the
product's 8-symbol divergences round differently: its value fell by one ulp
(5.6e-17), to one ulp below j4's, its maximizer moved by at most 6.7e-16,
and it still takes 55 sweeps.  Every joint with fewer than 8 input symbols
kept its bits.  J, the benchmark's fixed 4x4 (default_rng(35)'s flat
Dirichlet), and J x J were added in both directions when the handoff began
to count a start that cannot reach the leader in the sweeps left as
crawling.  That cut J's sweeps from 177 to 80 with the same bits, J x J's
from 54 to 41 with its value 2.8e-16 lower, and reversed J x J's from 27 to
16 with its value 1.1e-16 higher; reversed J, at 13 sweeps, did not move,
and neither did any older pin.  J and reversed J x J were re-recorded
when maximal correlation began to decompose one canonical orientation of
the table (fewer rows, or for a square table the smaller C-order bytes) and
to swap f and g for the other, so that s* in both directions starts its
witness ray from one SVD.  J (4x4) is decomposed as its transpose: its
witness moved in the last bits, its value rose by 5.0e-16 (9 ulps) and its
maximizer moved by at most 1.2e-14, at the same 80 sweeps.  Reversed J x J
now takes the swapped witness of J x J, which points elsewhere in the tied
plane of sigma_2: its value kept its bits, and its maximizer, which is not
unique, moved by up to 0.48, after 20 sweeps instead of 16.  Every other
pin kept its bits.  Skipping work in the
search must not move a single bit, so the comparisons are exact.  The
``lambda_dagger`` constants were re-recorded when its bisection to a 1e-5
bracket, with a 1e-8 bit touch tolerance, gave way to Dinkelbach's
iteration, which returns the exact grid threshold (or rho^2 when that is
larger) with no tolerance.  A change that is meant to alter
these answers must record new constants and say why.  The ribbon constants
were recorded before the contraction-gap sweep was rewritten to make fewer
numpy calls with the same floating-point operations.  The eight
``contraction_gap`` values that moved were re-recorded when a two-term
Anderson mix replaced the plain fixed-point update: the mixed sweeps reach
the same fixed points by another path, so the gaps above 1e-12 moved by at
most 1.7e-13 relative and the three near 1e-16 (rounding noise around a
zero gap) by at most 4.8e-17; the 11 q* did not move.  The 11 q* were
re-recorded when q_star's bisection gave way to witness crossings: each q*
is now the crossing of an explicit g instead of the upper end of a 1e-4
bracket, so every one moved down, by 4.7e-7 (fig2 at p = 1.5) to 6.7e-5
(the seeded 3x3 at p = 4).  They were re-recorded again when the crossing
solve began its bracket at the tangent at the current q and closed it at
the rounding of f: fig2 at p = 1.5 kept its bits, nine moved by at most
1.9e-14 relative (remark3 at p = 4), where the sign of f near the root is
rounding noise, and fig2 at p = 32 rose by 2.4e-11, because the old bracket
stopped one crossing of that climb 2.0e-9 short of its root when neither
of its steps moved.  21 of the 23 were re-recorded when the sweep map
moved from log-sum-exps over 3-D broadcasts to matrix products on columns
shifted by their maximum, which round differently; (fig2, 4, 1) and
(3x3, 1.5, 1.35) kept their bits.  The q* moved, relative, by +1.5e-15,
+7.8e-15 and -3.5e-15 (fig2 at p = 1.5, 4, 32), +8.8e-16, -5.9e-14 and
+1.2e-15 (remark3), -1.6e-16, +2.7e-15 and +3.7e-14 (the 3x3), -5.3e-16
and -5.2e-16 (the 2x9), all within the 1e-12 witness test's resolution.
The gaps above 1e-12 moved by -3.3e-15 (fig2 at (2, 1.5)), -2.1e-14 and
+1.9e-14 (fig2 at (128, 64) and (128, 64.5)), -3.4e-15 (remark3 at (4, 1),
the exact q = 1 branch), -5.1e-16 (the 3x3 at (4, 2)), and +8.9e-16 and
-4.2e-14 (the 2x9 at (4, 2) and (4, 2.5)).  The three near-zero gaps,
rounding noise around 0, went from 6.3e-17 to 4.1e-17 (remark3 at
(128, 100)), 1.7e-16 to 1.4e-16 (the 3x3 at (128, 120)) and 1.3e-16 to
4.4e-17 (the 2x9 at (128, 90)).  14 were re-recorded when q*'s solver
began to compute each norm one way, from p(y) @ exp(q (log g - top)) with
top the column maximum: the crossing solve's log E[g^q], the next iterate's
normalization (exp(q log v / (q - 1)) in place of v^(q / (q - 1))) and the
exact q = 1 branch's p-norm (u^(p - 1) u in place of u^p) each round
differently.  The 11 q* moved, relative, by +6.8e-16, -1.6e-15 and
+1.8e-16 (fig2 at p = 1.5, 4, 32), -6.6e-16, +6.8e-15 and -9.6e-16
(remark3), -3.3e-16, +1.1e-14 and -3.8e-14 (the 3x3), and +3.5e-16 and
-6.4e-15 (the 2x9).  remark3's gap at (4, 1) rose by 2.6e-15 relative.  The
near-zero gaps of the 3x3 at (128, 120) and the 2x9 at (128, 90) moved by
1.9e-18 and 9.3e-18, under one ulp of 1; the other nine kept their bits.
Eight q* were re-recorded when the crossing solve became a Newton descent
from above: each crossing now ends at the first point of the descent whose
computed f is at most 0, where the bracket ended at its left end, and both
lie within f's rounding of the root, so the climbs' crossings, and the runs
warm-started at them, round differently.  The q* moved, relative, by
-1.7e-15 and +3.0e-15 (fig2 at p = 1.5, 4), +1.2e-15 (remark3 at p = 4),
+1.6e-16, -1.3e-14 and +1.6e-14 (the 3x3 at p = 1.5, 4, 32), and -1.1e-15
and -3.6e-15 (the 2x9); no climb changed its outer steps, and each new
answer's witness meets its norm within 2.2e-16 in math.fsum.  15 were
re-recorded when the multistart went from 288 Dirichlet seed columns (32 on
the 2x9) to 96 on every alphabet: other starts reach other fixed points
and other witnesses.  The q* moved, relative, by +2.2e-12, -1.2e-10 and
-3.2e-13 (fig2 at p = 1.5, 4, 32), +1.4e-13, +3.4e-11 and -5.0e-14
(remark3), -2.9e-13 and -6.0e-12 (the 3x3 at p = 1.5, 4; p = 32 kept its
bits), and +7.0e-16 and +2.6e-13 (the 2x9).  The gaps moved by -1.2e-14
(fig2 at (128, 64)) and -2.6e-16 (the 3x3 at (4, 2)), and the three
near-zero gaps went from 4.1e-17 to 2.2e-17 (remark3 at (128, 100)),
1.5e-16 to 1.3e-16 (the 3x3 at (128, 120)) and 5.3e-17 to 8.5e-17 (the
2x9 at (128, 90)), under one ulp of 1.  Four q* were re-recorded when
every run of the climb began to end two sweeps after its first witness,
where a long move had doubled that count for the runs after it: the
climbs take other steps to other witnesses.  They moved, relative, by
+1.0e-10 (fig2 at p = 4), -5.1e-12 (the 3x3 at p = 1.5), and -5.0e-13 and
-3.8e-11 (the 2x9 at p = 1.5, 4).  They are float64 results of
numpy 2.4 on an x86-64 CPU with AVX-512; another math library may round
them differently.
"""

import numpy as np
import pytest

from infodep import (
    builtin,
    channel_of,
    contraction_gap,
    joint_from_matrix,
    lambda_dagger,
    product,
    q_star,
    sstar,
    transpose,
)

J4_TABLE = np.random.default_rng(4).dirichlet(np.ones(16)).reshape(4, 4)
S3_TABLE = np.random.default_rng(29).dirichlet(np.ones(9)).reshape(3, 3)
#: a 2x9, the widest Y alphabet among the pinned joints
Y9_TABLE = np.random.default_rng(9).dirichlet(np.ones(18)).reshape(2, 9)


def _capped_table() -> np.ndarray:
    """The 20th flat-Dirichlet joint of default_rng(2026), shapes from
    integers(2, 6): a 5x4 on which the Newton handoff fails and sstar's
    ascent ends at its sweep cap."""
    rng = np.random.default_rng(2026)
    for _ in range(20):
        nx, ny = rng.integers(2, 6), rng.integers(2, 6)
        table = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    return table


CAPPED_TABLE = _capped_table()
#: the benchmark's fixed 4x4 joint J, whose square J x J is also pinned
J_TABLE = np.random.default_rng(35).dirichlet(np.ones(16)).reshape(4, 4)

#: value, maximizer, ascent_sweeps and converged of ``sstar`` with its defaults
SSTAR_PINNED = {
    "fig2": ("0x1.4356390ac7686p-1", ("0x0.0p+0", "0x1.0000000000000p+0"), 4, True),
    "remark3": (
        "0x1.76370d41e809fp-5",
        ("0x1.94b18cd7307b9p-4", "0x1.cd69ce6519f09p-1"),
        4,
        True,
    ),
    "bsc:0.2": (
        "0x1.70a3d708e0693p-2",
        ("0x1.fffa204b59ef7p-2", "0x1.0002efda53085p-1"),
        4,
        True,
    ),
    "bec:0.25": (
        "0x1.8000000000003p-1",
        ("0x1.cb5e4d9c379aap-1", "0x1.a50d931e432adp-4"),
        1,
        True,
    ),
    "j4": (
        "0x1.11b2b55f6bff5p-2",
        (
            "0x1.8c09417acf314p-1",
            "0x1.58935d8913d26p-5",
            "0x1.82222da254a14p-5",
            "0x1.192d9749e91e3p-3",
        ),
        27,
        True,
    ),
    "remark3 x j4": (
        "0x1.11b2b55f6bff4p-2",
        (
            "0x1.50a177a8633e0p-1",
            "0x1.24e3a91aeac9ap-5",
            "0x1.4836a6c9fb711p-5",
            "0x1.de00b4640c8cbp-4",
            "0x1.db3e4e935eee2p-4",
            "0x1.9d7da3714b76cp-8",
            "0x1.cf5c36c2cc63fp-8",
            "0x1.5169e8bf17ea6p-6",
        ),
        55,
        True,
    ),
    "capped 5x4": (
        "0x1.5db0f2bfb6bb9p-2",
        (
            "0x1.f9d2bf43b9319p-3",
            "0x1.831ee77d205cfp-2",
            "0x1.067e5922f68f7p-4",
            "0x1.d9571098d1b2cp-3",
            "0x1.46b2692f72344p-4",
        ),
        200,
        False,
    ),
    "J": (
        "0x1.cb16c0e422cc5p-2",
        (
            "0x1.a97879d98afd6p-4",
            "0x1.709b6b19fbbafp-1",
            "0x1.49900d63494b7p-3",
            "0x1.f460948024a5cp-7",
        ),
        80,
        True,
    ),
    "J reversed": (
        "0x1.0e68a314f7fb3p-1",
        (
            "0x1.874adf5b417f8p-1",
            "0x1.8c6cba9463063p-3",
            "0x1.09f53ad8e427fp-6",
            "0x1.a949051bd3b60p-6",
        ),
        13,
        True,
    ),
    "J x J": (
        "0x1.cb16c0e422cbep-2",
        (
            "0x1.1d14dbf517509p-6",
            "0x1.edf6278f2625dp-4",
            "0x1.b9a39aa693f8fp-6",
            "0x1.4f4593f037bddp-9",
            "0x1.dcdf7abf6a1b1p-5",
            "0x1.9d23bda982583p-2",
            "0x1.7160ce20924a2p-4",
            "0x1.186a2710f0117p-7",
            "0x1.87db2046eb579p-6",
            "0x1.537c291857cb2p-3",
            "0x1.2f867c84d79ccp-5",
            "0x1.ccd834e69b962p-9",
            "0x1.1ccbd6ad57198p-8",
            "0x1.ed77a1a7f93afp-6",
            "0x1.b9327b9efb385p-8",
            "0x1.4eefb39802644p-11",
        ),
        41,
        True,
    ),
    "J x J reversed": (
        "0x1.0e68a314f7fb1p-1",
        (
            "0x1.2b0ae61752dacp-1",
            "0x1.2ef701234c5efp-3",
            "0x1.968355cfb3a4fp-7",
            "0x1.4505747b97cdbp-6",
            "0x1.2ef701234c5f3p-3",
            "0x1.32f047b483c55p-5",
            "0x1.9bd84c52a9d48p-9",
            "0x1.4948ca5561d3cp-8",
            "0x1.968355cfb3a4bp-7",
            "0x1.9bd84c52a9d37p-9",
            "0x1.144d9ebeb9048p-12",
            "0x1.b9d3faee8d91ep-12",
            "0x1.4505747b97ce4p-6",
            "0x1.4948ca5561d42p-8",
            "0x1.b9d3faee8d921p-12",
            "0x1.6141c3e52773ap-11",
        ),
        20,
        True,
    ),
}

#: ``lambda_dagger`` of the channel of each joint, with its defaults
LAMBDA_DAGGER_PINNED = {
    "fig2": "0x1.4354c48812ce0p-1",
    "remark3": "0x1.761274e71a16ep-5",
    "bsc:0.2": "0x1.70a3d70a3d710p-2",
    "bec:0.25": "0x1.8000000000006p-1",
}

#: ``q_star(j, p)`` (q is None) and ``contraction_gap(j, p, q)``, with their
#: defaults; q = 1 is the exact extreme-point branch.  Where p and q - 1 are
#: powers of two, or the gap peaks in the first sweep, rounding changes in the
#: update rarely reach the value; (3x3, 1.5, 1.35), (fig2, 128, 64.5) and
#: (2x9, 4, 2.5) move when the update divides by p or q - 1 in another way
RIBBON_PINNED = {
    ("fig2", 1.5, None): "0x1.4d4bf819fae8cp+0",
    ("fig2", 4.0, None): "0x1.66c87d4b06623p+1",
    ("fig2", 32.0, None): "0x1.44a133b759633p+4",
    ("remark3", 1.5, None): "0x1.03a7291ab779fp+0",
    ("remark3", 4.0, None): "0x1.14b0408ef6e74p+0",
    ("remark3", 32.0, None): "0x1.26dd4c8efb119p+1",
    ("seeded 3x3", 1.5, None): "0x1.5afededcfca10p+0",
    ("seeded 3x3", 4.0, None): "0x1.8f11d14268588p+1",
    ("seeded 3x3", 32.0, None): "0x1.7084d890e93c8p+4",
    ("seeded 2x9", 1.5, None): "0x1.448d8223d187ep+0",
    ("seeded 2x9", 4.0, None): "0x1.496eacb3a8ed5p+1",
    ("fig2", 2.0, 1.5): "0x1.0fe5ef6f6fe1cp-6",
    ("fig2", 4.0, 1.0): "0x1.5d13f32b5a75cp-1",
    ("fig2", 128.0, 64.0): "0x1.77c8c86136d22p-10",
    ("fig2", 128.0, 64.5): "0x1.69d5315a3dca3p-10",
    ("remark3", 4.0, 1.0): "0x1.70c22b6de3211p-5",
    ("remark3", 128.0, 100.0): "0x1.999999999b2e0p-56",
    ("seeded 3x3", 1.5, 1.35): "0x1.8815731c2fdd6p-11",
    ("seeded 3x3", 4.0, 2.0): "0x1.bb2709d2aa9c6p-4",
    ("seeded 3x3", 128.0, 120.0): "0x1.28ce4ca970000p-53",
    ("seeded 2x9", 4.0, 2.0): "0x1.fed48b52d1d3dp-5",
    ("seeded 2x9", 4.0, 2.5): "0x1.dec159e6eb947p-10",
    ("seeded 2x9", 128.0, 90.0): "0x1.8795ce9200000p-54",
}


def _table_joint(table: np.ndarray):
    nx, ny = table.shape
    return joint_from_matrix(table, tuple(range(nx)), tuple(range(ny)))


def _joint(name: str):
    j4 = _table_joint(J4_TABLE)
    if name == "seeded 3x3":
        return _table_joint(S3_TABLE)
    if name == "seeded 2x9":
        return _table_joint(Y9_TABLE)
    if name == "capped 5x4":
        return _table_joint(CAPPED_TABLE)
    if name == "j4":
        return j4
    if name == "remark3 x j4":
        return product(builtin("remark3"), j4)
    if name.startswith("J"):
        j = _table_joint(J_TABLE)
        j = product(j, j) if name.startswith("J x J") else j
        return transpose(j) if name.endswith("reversed") else j
    return builtin(name)


@pytest.mark.parametrize("name", sorted(SSTAR_PINNED))
def test_sstar_answers_are_pinned(name):
    value, maximizer, sweeps, converged = SSTAR_PINNED[name]
    res = sstar(_joint(name))
    assert res.value == float.fromhex(value)
    assert res.maximizer.probs.tolist() == [float.fromhex(x) for x in maximizer]
    assert res.diagnostics["ascent_sweeps"] == sweeps
    assert res.diagnostics["converged"] is converged


@pytest.mark.parametrize("name", sorted(LAMBDA_DAGGER_PINNED))
def test_lambda_dagger_is_pinned(name):
    assert lambda_dagger(channel_of(builtin(name))) == float.fromhex(
        LAMBDA_DAGGER_PINNED[name]
    )


@pytest.mark.parametrize("name, p, q", list(RIBBON_PINNED))
def test_ribbon_answers_are_pinned(name, p, q):
    j = _joint(name)
    got = q_star(j, p) if q is None else contraction_gap(j, p, q)
    assert got == float.fromhex(RIBBON_PINNED[name, p, q])
