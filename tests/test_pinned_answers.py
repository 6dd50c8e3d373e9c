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
ascent runs to its sweep cap, so it pins that path.  Skipping work in the
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
of its steps moved.  They are float64
results of numpy 2.4 on an x86-64 CPU with AVX-512; another math library
may round them differently.
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
)

J4_TABLE = np.random.default_rng(4).dirichlet(np.ones(16)).reshape(4, 4)
S3_TABLE = np.random.default_rng(29).dirichlet(np.ones(9)).reshape(3, 3)
#: |Y| = 9 > 8, so the gap draws GAP_RESTARTS Dirichlet seeds instead of 288
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
        "0x1.11b2b55f6bff5p-2",
        (
            "0x1.50a177a8633e6p-1",
            "0x1.24e3a91aeac7dp-5",
            "0x1.4836a6c9fb6f6p-5",
            "0x1.de00b4640c8b4p-4",
            "0x1.db3e4e935eeeap-4",
            "0x1.9d7da3714b745p-8",
            "0x1.cf5c36c2cc61ap-8",
            "0x1.5169e8bf17e96p-6",
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
    ("fig2", 1.5, None): "0x1.4d4bf819f7d1ep+0",
    ("fig2", 4.0, None): "0x1.66c87d4b1e3d7p+1",
    ("fig2", 32.0, None): "0x1.44a133b759d7fp+4",
    ("remark3", 1.5, None): "0x1.03a7291ab750dp+0",
    ("remark3", 4.0, None): "0x1.14b0408ece5fap+0",
    ("remark3", 32.0, None): "0x1.26dd4c8efb21ap+1",
    ("seeded 3x3", 1.5, None): "0x1.5afededd04b89p+0",
    ("seeded 3x3", 4.0, None): "0x1.8f11d142729e5p+1",
    ("seeded 3x3", 32.0, None): "0x1.7084d890e9365p+4",
    ("seeded 2x9", 1.5, None): "0x1.448d8223d23b4p+0",
    ("seeded 2x9", 4.0, None): "0x1.496eacb3deea8p+1",
    ("fig2", 2.0, 1.5): "0x1.0fe5ef6f6fe2cp-6",
    ("fig2", 4.0, 1.0): "0x1.5d13f32b5a75cp-1",
    ("fig2", 128.0, 64.0): "0x1.77c8c86136dfap-10",
    ("fig2", 128.0, 64.5): "0x1.69d5315a3dc2bp-10",
    ("remark3", 4.0, 1.0): "0x1.70c22b6de3216p-5",
    ("remark3", 128.0, 100.0): "0x1.2300000000000p-54",
    ("seeded 3x3", 1.5, 1.35): "0x1.8815731c2fdd6p-11",
    ("seeded 3x3", 4.0, 2.0): "0x1.bb2709d2aa9ccp-4",
    ("seeded 3x3", 128.0, 120.0): "0x1.8000000000001p-53",
    ("seeded 2x9", 4.0, 2.0): "0x1.fed48b52d1d35p-5",
    ("seeded 2x9", 4.0, 2.5): "0x1.dec159e6ebaa7p-10",
    ("seeded 2x9", 128.0, 90.0): "0x1.3400000000000p-53",
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
