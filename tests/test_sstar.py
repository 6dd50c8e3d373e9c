"""Unit tests for the KL-ratio objective, its maximization, and U-decompositions."""

import math

import numpy as np
import pytest

from infodep import (
    EpsTooLarge,
    NotBinaryInput,
    PMF,
    RTooCloseToP,
    UDecomposition,
    ValidationError,
    ZeroIUX,
    binary_rho_squared,
    binary_u_from_conditionals,
    builtin,
    joint_from_matrix,
    kl_ratio,
    marginals,
    maximal_correlation,
    mutual_information,
    perturbation_sequence,
    product,
    ratio_for_u,
    sstar,
    transpose,
)
from conftest import random_joint

FIG2_SSTAR = 0.6315172029168968
FIG2_MI_OVER_HX = 0.5954372523105548


def binary_pmf(p0: float, labels=(0, 1)) -> PMF:
    return PMF(labels, np.array([p0, 1.0 - p0]))


class TestKlRatio:
    def test_fig2_vertex(self, fig2):
        assert kl_ratio(fig2, binary_pmf(0.0)) == pytest.approx(FIG2_SSTAR, abs=1e-12)

    def test_bec_ratio_is_constant(self):
        for e in (0.1, 0.25, 0.5):
            j = builtin(f"bec:{e}")
            for p0 in (0.0, 0.2, 0.9):
                assert kl_ratio(j, binary_pmf(p0)) == pytest.approx(1.0 - e, abs=1e-9)

    def test_independent_is_zero(self, independent):
        assert kl_ratio(independent, binary_pmf(0.1)) == pytest.approx(0.0, abs=1e-12)

    def test_r_equal_to_input_rejected(self, fig2):
        px = marginals(fig2)[0]
        with pytest.raises(RTooCloseToP):
            kl_ratio(fig2, px)

    def test_label_mismatch(self, fig2):
        with pytest.raises(ValidationError):
            kl_ratio(fig2, binary_pmf(0.3, labels=("a", "b")))

    def test_bounded_by_one(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            nx = j.shape[0]
            r = PMF(j.x_labels, rng.dirichlet(np.ones(nx)))
            assert 0.0 <= kl_ratio(j, r) <= 1.0


class TestSstar:
    def test_fig2_value_and_maximizer(self, fig2):
        res = sstar(fig2)
        assert res.value == pytest.approx(FIG2_SSTAR, abs=1e-4)
        np.testing.assert_allclose(res.maximizer.probs, [0.0, 1.0], atol=1e-6)

    def test_value_recomputes_at_maximizer(self, fig2, remark3):
        for j in (fig2, remark3):
            res = sstar(j)
            assert kl_ratio(j, res.maximizer) == pytest.approx(res.value, abs=1e-9)

    def test_remark3_asymmetry(self, remark3):
        fwd = sstar(remark3).value
        bwd = sstar(transpose(remark3)).value
        assert fwd == pytest.approx(0.0456805476, abs=1e-5)
        assert bwd == pytest.approx(0.0298408340, abs=1e-5)
        assert fwd - bwd > 0.01

    def test_independent_is_zero(self, independent):
        assert sstar(independent).value <= 1e-9

    def test_dominates_rho_squared(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            res = sstar(j)
            rho2 = maximal_correlation(j).rho ** 2
            assert rho2 - 1e-6 <= res.value <= 1.0

    def test_tensorization_max_rule(self):
        rng = np.random.default_rng(71)
        a = random_joint(rng, 2, 2)
        b = random_joint(rng, 2, 2)
        s_prod = sstar(product(a, b)).value
        s_max = max(sstar(a).value, sstar(b).value)
        assert s_prod == pytest.approx(s_max, abs=1e-3)

    def test_deterministic_given_seed(self, remark3):
        r1 = sstar(remark3, seed=0)
        r2 = sstar(remark3, seed=0)
        assert r1.value == r2.value
        np.testing.assert_array_equal(r1.maximizer.probs, r2.maximizer.probs)

    def test_diagnostics_keys(self, fig2):
        diag = sstar(fig2).diagnostics
        for key in (
            "restarts",
            "seed",
            "grid_n",
            "tol",
            "candidates",
            "ascent_sweeps",
            "best_denominator_nats",
            "converged",
        ):
            assert key in diag

    def test_converged_flag(self, fig2, remark3):
        assert sstar(fig2).diagnostics["converged"] is True
        table = np.random.default_rng(4).dirichlet(np.ones(16)).reshape(4, 4)
        j4 = joint_from_matrix(table, tuple(range(4)), tuple(range(4)))
        capped = sstar(product(remark3, j4), max_iter=1).diagnostics
        assert capped["ascent_sweeps"] == 1
        assert capped["converged"] is False

    def test_row_sweeps_count_only_active_starts(self, remark3):
        table = np.random.default_rng(4).dirichlet(np.ones(16)).reshape(4, 4)
        j = product(remark3, joint_from_matrix(table, tuple(range(4)), tuple(range(4))))
        capped = sstar(j, max_iter=1).diagnostics
        kept = min(max(capped["restarts"] + j.shape[0] + 8, 32), capped["candidates"])
        assert capped["ascent_row_sweeps"] == kept
        for joint in (remark3, j):
            diag = sstar(joint).diagnostics
            kept = min(max(diag["restarts"] + joint.shape[0] + 8, 32), diag["candidates"])
            assert 0 < diag["ascent_row_sweeps"] < diag["ascent_sweeps"] * kept


def _fsum_kl(r: np.ndarray, p: np.ndarray) -> float:
    """D(r || p) in nats as an exactly rounded sum of p phi(r/p) >= 0."""
    total = []
    for ri, pi in zip(r, p):
        t = ri / pi
        total.append(pi * (t * math.log1p(t - 1.0) - (t - 1.0)) if t > 0.0 else pi)
    return math.fsum(total)


class TestSstarNearP:
    """On these uniform-input channels, and on the reverse erasure channel,
    the supremum is the local limit rho^2 at p(x), and the ascent can end
    within ~1e-9 nats of p(x): the value must not exceed the supremum and
    must be the ratio at the reported maximizer."""

    CLOSED_FORMS = {"bsc:1/5": 0.36, "bsc:0.1": 0.64, "bec:1/4": 0.75}

    @pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
    @pytest.mark.parametrize("reverse", [False, True])
    def test_value_is_ratio_at_maximizer_below_sup(self, name, reverse):
        j = builtin(name)
        if reverse:
            j = transpose(j)
        res = sstar(j)
        assert res.value <= self.CLOSED_FORMS[name] + 1e-12
        r = res.maximizer.probs
        W = j.pxy / j.px[:, None]
        ratio = _fsum_kl(r @ W, j.py) / _fsum_kl(r, j.px)
        assert res.value == pytest.approx(ratio, rel=1e-9, abs=0.0)


class TestUDecomposition:
    def test_requires_two_values(self, fig2):
        px = marginals(fig2)[0]
        with pytest.raises(ValidationError):
            UDecomposition(PMF((0,), np.array([1.0])), (px,))

    def test_count_mismatch(self, fig2):
        px = marginals(fig2)[0]
        with pytest.raises(ValidationError):
            UDecomposition(binary_pmf(0.5), (px,))

    def test_mixture(self, fig2):
        u = binary_u_from_conditionals(fig2, 0.1, 0.4)
        np.testing.assert_allclose(
            u.mixture(), marginals(fig2)[0].probs, atol=1e-12
        )


class TestRatioForU:
    def test_first_table_row(self, fig2):
        u = binary_u_from_conditionals(fig2, 0.1, 0.4)
        stats = ratio_for_u(fig2, u)
        assert stats.i_uy == pytest.approx(0.055770774, abs=1e-8)
        assert stats.i_ux == pytest.approx(0.091305030, abs=1e-8)
        assert stats.ratio == pytest.approx(0.610818, abs=1e-6)
        assert stats.ratio > binary_rho_squared(fig2)

    def test_u_equal_to_x(self, fig2):
        u = binary_u_from_conditionals(fig2, 0.0, 1.0)
        stats = ratio_for_u(fig2, u)
        assert stats.i_ux == pytest.approx(1.0, abs=1e-12)
        assert stats.i_uy == pytest.approx(mutual_information(fig2), abs=1e-12)
        assert stats.ratio == pytest.approx(FIG2_MI_OVER_HX, abs=1e-10)

    def test_zero_iux_rejected(self, fig2):
        u = binary_u_from_conditionals(fig2, 0.3, 0.3)
        with pytest.raises(ZeroIUX):
            ratio_for_u(fig2, u)

    def test_mixture_mismatch_rejected(self, fig2):
        u = UDecomposition(
            binary_pmf(0.5), (binary_pmf(0.9), binary_pmf(0.3))
        )
        with pytest.raises(ValidationError):
            ratio_for_u(fig2, u)

    def test_zero_weight_rows_are_dropped(self, fig2):
        base = binary_u_from_conditionals(fig2, 0.1, 0.4)
        padded = UDecomposition(
            PMF((0, 1, 2), np.array([base.weights.probs[0], base.weights.probs[1], 0.0])),
            (*base.conditionals, binary_pmf(0.123)),
        )
        a = ratio_for_u(fig2, base)
        b = ratio_for_u(fig2, padded)
        assert b.ratio == pytest.approx(a.ratio, abs=1e-12)

    def test_dominated_by_sstar(self, fig2):
        rng = np.random.default_rng(73)
        bound = sstar(fig2).value + 1e-6
        checked = 0
        while checked < 200:
            a, b = rng.uniform(0.0, 1.0, size=2)
            if abs(a - b) < 1e-3:
                continue
            stats = ratio_for_u(fig2, binary_u_from_conditionals(fig2, a, b))
            assert stats.ratio <= bound
            checked += 1


class TestBinaryUFromConditionals:
    def test_fig2_posterior(self, fig2):
        u = binary_u_from_conditionals(fig2, 0.1, 0.4)
        assert u.weights.probs[1] == pytest.approx(0.25, abs=1e-15)
        np.testing.assert_allclose(u.conditionals[1].probs, [0.2, 0.8], atol=1e-12)

    def test_degenerate_weight_falls_back_to_input(self, fig2):
        u = binary_u_from_conditionals(fig2, 0.0, 0.0)
        assert u.weights.probs[1] == 0.0
        np.testing.assert_allclose(
            u.conditionals[1].probs, marginals(fig2)[0].probs, atol=1e-12
        )

    def test_rejects_wide_joint(self):
        rng = np.random.default_rng(3)
        with pytest.raises(NotBinaryInput):
            binary_u_from_conditionals(random_joint(rng, 3, 2), 0.1, 0.4)

    def test_rejects_out_of_range(self, fig2):
        with pytest.raises(ValidationError):
            binary_u_from_conditionals(fig2, -0.1, 0.5)
        with pytest.raises(ValidationError):
            binary_u_from_conditionals(fig2, 0.5, 1.2)


class TestPerturbationSequence:
    def test_ratios_approach_local_limit(self, fig2):
        r_star = binary_pmf(0.0)
        stats = perturbation_sequence(fig2, r_star, [0.4, 0.01, 1e-5])
        ratios = [s.ratio for s in stats]
        assert ratios[0] == pytest.approx(0.613592107, abs=1e-6)
        assert ratios[1] == pytest.approx(0.631287265, abs=1e-6)
        assert ratios[2] == pytest.approx(0.631516976, abs=1e-6)
        assert ratios == sorted(ratios)
        assert abs(ratios[-1] - kl_ratio(fig2, r_star)) < 1e-3

    def test_half_split_recovers_u_equals_x(self, fig2):
        stats = perturbation_sequence(fig2, binary_pmf(0.0), [0.5])
        assert stats[0].ratio == pytest.approx(FIG2_MI_OVER_HX, abs=1e-10)

    def test_eps_too_large(self, fig2):
        with pytest.raises(EpsTooLarge):
            perturbation_sequence(fig2, binary_pmf(0.0), [0.6])

    def test_r_star_too_close(self, fig2):
        px = marginals(fig2)[0]
        with pytest.raises(RTooCloseToP):
            perturbation_sequence(fig2, px, [0.1])
