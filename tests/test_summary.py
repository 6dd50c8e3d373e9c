"""The one-pass ``measures``: the same answers as each measure's own
function, from one SVD."""

import numpy as np
import pytest

from infodep import (
    DegenerateAlphabet,
    LogBase,
    builtin,
    channel_of,
    joint_from_matrix,
    lambda_dagger,
    maximal_correlation,
    measures,
    mutual_information,
    product,
    sstar,
    transpose,
)
from infodep.cli import main
from conftest import random_joint


def _table_joint(table):
    return joint_from_matrix(table, range(table.shape[0]), range(table.shape[1]))


#: the benchmark's fixed 4x4 joint J
J = _table_joint(np.random.default_rng(35).dirichlet(np.ones(16)).reshape(4, 4))


def _joint(name):
    if name == "J":
        return J
    if name == "J x J":
        return product(J, J)
    if name == "random 9x3":
        return random_joint(np.random.default_rng(37), 9, 3)
    if name == "random 3x12":
        return random_joint(np.random.default_rng(38), 3, 12)
    return builtin(name)


NAMES = ["fig2", "remark3", "bsc:0.2", "bec:0.25", "independent", "J", "J x J",
         "random 9x3", "random 3x12"]


def _same_sstar(a, b):
    assert a.value == b.value
    assert a.maximizer.labels == b.maximizer.labels
    assert a.maximizer.probs.tobytes() == b.maximizer.probs.tobytes()
    assert a.diagnostics == b.diagnostics


@pytest.mark.parametrize("name", NAMES)
def test_each_answer_is_its_own_functions_bit_for_bit(name):
    j = _joint(name)
    m = measures(j, restarts=16, seed=3)
    w = maximal_correlation(j)
    assert (m.witness.rho, m.witness.f.tobytes(), m.witness.g.tobytes()) == (
        w.rho, w.f.tobytes(), w.g.tobytes()
    )
    _same_sstar(m.sstar_xy, sstar(j, restarts=16, seed=3))
    _same_sstar(m.sstar_yx, sstar(transpose(j), restarts=16, seed=3))
    assert m.mutual_information_nats == mutual_information(j, LogBase.NATS)
    ld = lambda_dagger(channel_of(j)) if j.shape[0] == 2 else None
    assert m.lambda_dagger == ld


def _count_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("name", ["fig2", "remark3", "J x J", "random 9x3"])
def test_measures_runs_one_svd(name, monkeypatch):
    j = _joint(name)
    calls = _count_svd(monkeypatch)
    measures(j)
    assert len(calls) == 1


@pytest.mark.parametrize("source", ["fig2", "remark3", "bsc:0.2"])
def test_cli_measures_runs_one_svd(source, monkeypatch, capsys):
    calls = _count_svd(monkeypatch)
    assert main(["measures", source]) == 0
    assert len(calls) == 1
    assert "sstar_yx" in capsys.readouterr().out


def test_single_symbol_alphabet_is_refused(capsys):
    j = joint_from_matrix([[0.3, 0.3, 0.4]], (0,), (0, 1, 2))
    with pytest.raises(DegenerateAlphabet):
        measures(j)
    with pytest.raises(DegenerateAlphabet):
        measures(transpose(j))
