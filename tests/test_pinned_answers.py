"""Exact answers of the s* ascent and of lambda-dagger.

The ``sstar`` constants were recorded with ``float.hex`` from the
implementation that advanced every start on every sweep, scored step
candidates together with their gradients and ran the envelope hull on numpy
scalars.  Skipping that work must not move a single bit, so the comparisons
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
    "fig2": ("0x1.4356390ac7686p-1", ("0x0.0p+0", "0x1.0000000000000p+0"), 2, True),
    "remark3": (
        "0x1.76370d41de075p-5",
        ("0x1.94b387d843c73p-4", "0x1.cd698f04f7872p-1"),
        6,
        True,
    ),
    "bsc:0.2": (
        "0x1.70a3d708c26b4p-2",
        ("0x1.fff9c83d06effp-2", "0x1.00031be17c881p-1"),
        8,
        True,
    ),
    "bec:0.25": (
        "0x1.800000000000ep-1",
        ("0x1.2a54a952a54a9p-1", "0x1.ab56ad5ab56aep-2"),
        1,
        True,
    ),
    "j4": (
        "0x1.11b2b4a594220p-2",
        (
            "0x1.8c208e7fafb01p-1",
            "0x1.57fe194829af7p-5",
            "0x1.81c870ea6a8e6p-5",
            "0x1.190c23749c30bp-3",
        ),
        111,
        True,
    ),
    # ends at the 200-sweep cap
    "remark3 x j4": (
        "0x1.11b2976e83d01p-2",
        (
            "0x1.512bcc65721c0p-1",
            "0x1.22d687b843d38p-5",
            "0x1.462403e0a560fp-5",
            "0x1.dbfa8ddf0c64ep-4",
            "0x1.dbc0a33a3efeap-4",
            "0x1.9769e98dfa962p-8",
            "0x1.ced2800faaf23p-8",
            "0x1.50157d5353298p-6",
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
