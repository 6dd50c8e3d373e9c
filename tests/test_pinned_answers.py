"""Exact answers of the s* search and of lambda-dagger.

The ``sstar`` constants were re-recorded with ``float.hex`` when the
projected Euclidean ascent from five candidate families gave way to a
multiplicative ascent from the vertices, the witness ray and the Dirichlet
restarts, finished by Dinkelbach-Newton steps on the maximizer's face.  That
change raised the values that the old ascent left short: j4's by 1.1e-8,
and the product of remark3 and j4, which ended 4.4e-7 below j4 at the sweep
cap, now converges to within two ulps of j4's value, as the max rule asks.
Skipping work in the search must not move a single bit, so the comparisons
are exact.  The ``lambda_dagger`` constants were re-recorded when its
bisection to a 1e-5 bracket, with a 1e-8 bit touch tolerance, gave way to
Dinkelbach's iteration, which returns the exact grid threshold (or rho^2
when that is larger) with no tolerance.  A change that is meant to alter
these answers must record new constants and say why.  They are float64
results of numpy 2.4 on an x86-64 CPU with AVX-512; another math library
may round them differently.
"""

import numpy as np
import pytest

from infodep import builtin, channel_of, joint_from_matrix, lambda_dagger, product, sstar

J4_TABLE = np.random.default_rng(4).dirichlet(np.ones(16)).reshape(4, 4)

#: value, maximizer, ascent_sweeps and converged of ``sstar`` with its defaults
SSTAR_PINNED = {
    "fig2": ("0x1.4356390ac7686p-1", ("0x0.0p+0", "0x1.0000000000000p+0"), 6, True),
    "remark3": (
        "0x1.76370d41e809fp-5",
        ("0x1.94b18cd7307b9p-4", "0x1.cd69ce6519f09p-1"),
        7,
        True,
    ),
    "bsc:0.2": (
        "0x1.70a3d708e0693p-2",
        ("0x1.fffa204b59ef7p-2", "0x1.0002efda53085p-1"),
        7,
        True,
    ),
    "bec:0.25": (
        "0x1.8000000001eaep-1",
        ("0x1.fff1d9448f846p-2", "0x1.0007135db83ddp-1"),
        1,
        True,
    ),
    "j4": (
        "0x1.11b2b55f6bff5p-2",
        (
            "0x1.8c09417acf1bbp-1",
            "0x1.58935d8914394p-5",
            "0x1.82222da254fd6p-5",
            "0x1.192d9749e943dp-3",
        ),
        35,
        True,
    ),
    "remark3 x j4": (
        "0x1.11b2b55f6bff3p-2",
        (
            "0x1.50a177a8633d8p-1",
            "0x1.24e3a91aeacbap-5",
            "0x1.4836a6c9fb73bp-5",
            "0x1.de00b4640c8e4p-4",
            "0x1.db3e4e935eed6p-4",
            "0x1.9d7da3714b7adp-8",
            "0x1.cf5c36c2cc654p-8",
            "0x1.5169e8bf17ebep-6",
        ),
        76,
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


def _joint(name: str):
    j4 = joint_from_matrix(J4_TABLE, tuple(range(4)), tuple(range(4)))
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
