"""Shared fixtures: the bundled example joints and seeded random generators."""

import sys

import numpy as np
import pytest

from infodep import JointDistribution, builtin, joint_from_matrix


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdict lines after the test run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "RESULTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def svd_calls(monkeypatch) -> list:
    """The shapes of the matrices passed to ``np.linalg.svd`` from here on."""
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.fixture
def fig2() -> JointDistribution:
    return builtin("fig2")


@pytest.fixture
def remark3() -> JointDistribution:
    return builtin("remark3")


@pytest.fixture
def independent() -> JointDistribution:
    return builtin("independent")


@pytest.fixture
def identity_coupling() -> JointDistribution:
    return joint_from_matrix([[0.5, 0.0], [0.0, 0.5]], (0, 1), (0, 1))


def random_joint(rng: np.random.Generator, nx: int, ny: int) -> JointDistribution:
    """A strictly positive random joint drawn from a flat Dirichlet."""
    table = rng.dirichlet(np.ones(nx * ny)).reshape(nx, ny)
    return joint_from_matrix(table, tuple(range(nx)), tuple(range(ny)))


def random_independent(rng: np.random.Generator, nx: int, ny: int) -> JointDistribution:
    """An exactly independent joint with random strictly positive marginals."""
    px = rng.dirichlet(np.ones(nx))
    py = rng.dirichlet(np.ones(ny))
    return joint_from_matrix(np.outer(px, py), tuple(range(nx)), tuple(range(ny)))
