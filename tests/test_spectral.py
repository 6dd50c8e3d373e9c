"""Unit tests for the spectral layer: Q-matrix, maximal correlation, witnesses."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infodep import (
    DegenerateAlphabet,
    NotBinary,
    ValidationError,
    ZeroFunction,
    backward_coupling,
    binary_rho_squared,
    builtin,
    hessian_rho_lambda,
    joint_from_matrix,
    marginals,
    maximal_correlation,
    mutual_information,
    product,
    q_matrix,
    transpose,
)
from infodep.spectral import _is_canonical
from conftest import random_joint, random_independent


def entropy_nats(v):
    v = np.asarray(v, dtype=float)
    nz = v[v > 0]
    return float(-(nz * np.log(nz)).sum())


class TestQMatrix:
    def test_singular_structure_fig2(self, fig2):
        q = q_matrix(fig2)
        s = np.linalg.svd(q.entries, compute_uv=False)
        assert s[0] == pytest.approx(1.0, abs=1e-10)
        assert s[1] ** 2 == pytest.approx(0.6, abs=1e-9)

    def test_top_singular_value_is_one_random(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            q = q_matrix(j)
            s = np.linalg.svd(q.entries, compute_uv=False)
            assert s[0] == pytest.approx(1.0, abs=1e-10)

    def test_top_pair_is_sqrt_marginals(self, fig2):
        q = q_matrix(fig2)
        np.testing.assert_allclose(
            q.entries @ np.sqrt(q.y_marginal.probs),
            np.sqrt(q.x_marginal.probs),
            atol=1e-12,
        )

    def test_independent_is_rank_one(self, independent):
        q = q_matrix(independent)
        s = np.linalg.svd(q.entries, compute_uv=False)
        assert s[1] <= 1e-12


#: the benchmark's fixed 4x4 joint J
J = joint_from_matrix(
    np.random.default_rng(35).dirichlet(np.ones(16)).reshape(4, 4), range(4), range(4)
)
#: joint shapes up to 16x16: any, square, and 8 or more symbols wide, where
#: the marginals of a table and of its transpose round differently
_SHAPES = st.one_of(
    st.tuples(st.integers(2, 16), st.integers(2, 16)),
    st.integers(2, 16).map(lambda n: (n, n)),
    st.tuples(st.integers(8, 16), st.integers(2, 16)),
)


class TestMaximalCorrelation:
    def test_fig2_value(self, fig2):
        w = maximal_correlation(fig2)
        assert w.rho ** 2 == pytest.approx(0.6, abs=1e-9)

    def test_independent_is_zero(self, independent):
        assert maximal_correlation(independent).rho <= 1e-9

    def test_identity_coupling_is_one(self, identity_coupling):
        assert maximal_correlation(identity_coupling).rho == pytest.approx(1.0, abs=1e-12)

    def test_bsc_closed_form(self):
        j = builtin("bsc:0.1")
        assert maximal_correlation(j).rho == pytest.approx(0.8, abs=1e-12)

    def test_witness_normalization(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            w = maximal_correlation(j)
            px, py = marginals(j)
            assert float(px.probs @ w.f) == pytest.approx(0.0, abs=1e-8)
            assert float(py.probs @ w.g) == pytest.approx(0.0, abs=1e-8)
            assert float(px.probs @ w.f ** 2) == pytest.approx(1.0, abs=1e-8)
            assert float(py.probs @ w.g ** 2) == pytest.approx(1.0, abs=1e-8)
            cross = float(np.einsum("xy,x,y->", j.pxy, w.f, w.g))
            assert cross == pytest.approx(w.rho, abs=1e-8)

    def test_witness_sign_canonicalization(self):
        # the sign is fixed in the decomposed orientation, whose f is
        # positive where |f| is largest; the other orientation swaps f and g
        rng = np.random.default_rng(13)
        for _ in range(10):
            j = random_joint(rng, 3, 3)
            w = maximal_correlation(j)
            h = w.f if _is_canonical(j.pxy, np.ascontiguousarray(j.pxy.T)) else w.g
            if w.rho > 1e-8:
                assert h[int(np.argmax(np.abs(h)))] > 0

    def test_range_and_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            r1 = maximal_correlation(j).rho
            r2 = maximal_correlation(transpose(j)).rho
            assert 0.0 <= r1 <= 1.0
            assert r1 == pytest.approx(r2, abs=1e-10)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape=_SHAPES)
    @example(seed=None, shape=None)  # J x J, whose sigma_2 is tied
    def test_transpose_swaps_the_witness_bit_for_bit(self, seed, shape):
        if shape is None:
            j = product(J, J)
        else:
            j = random_joint(np.random.default_rng(seed), *shape)
        w, wt = maximal_correlation(j), maximal_correlation(transpose(j))
        assert wt.rho == w.rho
        assert wt.f.tobytes() == w.g.tobytes()
        assert wt.g.tobytes() == w.f.tobytes()

    def test_a_symmetric_table_has_one_witness_both_ways(self):
        # a table equal to its transpose is its own canonical orientation
        j = builtin("bsc:0.2")
        w, wt = maximal_correlation(j), maximal_correlation(transpose(j))
        assert (wt.rho, wt.f.tobytes(), wt.g.tobytes()) == (w.rho, w.f.tobytes(), w.g.tobytes())

    def test_tensorization_max_rule(self, fig2, remark3):
        from infodep import product

        prod = product(fig2, remark3)
        r = maximal_correlation(prod).rho
        expected = max(maximal_correlation(fig2).rho, maximal_correlation(remark3).rho)
        assert r == pytest.approx(expected, abs=1e-8)

    def test_degenerate_alphabet(self):
        j = joint_from_matrix([[0.3, 0.3, 0.4]], (0,), (0, 1, 2))
        with pytest.raises(DegenerateAlphabet):
            maximal_correlation(j)

    def test_agrees_with_dense_svd_route(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            j = random_joint(rng, int(rng.integers(2, 6)), int(rng.integers(2, 6)))
            rho = maximal_correlation(j).rho
            s = np.linalg.svd(q_matrix(j).entries, compute_uv=False)
            assert rho == pytest.approx(float(s[1]), abs=1e-10)


class TestBinaryRhoSquared:
    def test_fig2_closed_form(self, fig2):
        assert binary_rho_squared(fig2) == pytest.approx(0.6, abs=1e-12)

    def test_independent(self, independent):
        assert binary_rho_squared(independent) == pytest.approx(0.0, abs=1e-12)

    def test_bec_closed_form(self):
        for e in (0.1, 0.25, 0.5):
            j = builtin(f"bec:{e}")
            assert binary_rho_squared(j) == pytest.approx(1.0 - e, abs=1e-12)

    def test_not_binary(self):
        rng = np.random.default_rng(1)
        j = random_joint(rng, 3, 3)
        with pytest.raises(NotBinary):
            binary_rho_squared(j)

    def test_matches_svd_route(self):
        rng = np.random.default_rng(30)
        for _ in range(25):
            ny = int(rng.integers(2, 6))
            j = random_joint(rng, 2, ny)
            assert binary_rho_squared(j) == pytest.approx(
                maximal_correlation(j).rho ** 2, abs=1e-9
            )
            jt = transpose(j)
            assert binary_rho_squared(jt) == pytest.approx(
                binary_rho_squared(j), abs=1e-12
            )


class TestRenyiValue:
    def test_witness_achieves_rho_squared(self):
        from infodep import renyi_value

        rng = np.random.default_rng(8)
        for _ in range(15):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            w = maximal_correlation(j)
            if w.rho < 1e-6:
                continue
            assert renyi_value(j, w.f) == pytest.approx(w.rho ** 2, abs=1e-8)

    def test_dominated_by_rho_squared(self):
        from infodep import renyi_value

        rng = np.random.default_rng(14)
        j = random_joint(rng, 4, 4)
        rho2 = maximal_correlation(j).rho ** 2
        for _ in range(100):
            f = rng.normal(size=4)
            assert renyi_value(j, f) <= rho2 + 1e-9

    def test_independent_gives_zero(self, independent):
        from infodep import renyi_value

        assert renyi_value(independent, np.array([1.0, -1.0])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_constant_function_rejected(self, fig2):
        from infodep import renyi_value

        with pytest.raises(ZeroFunction):
            renyi_value(fig2, np.array([2.0, 2.0]))

    @pytest.mark.parametrize("f", [[1.0], [1.0, 2.0, 3.0]])
    def test_length_mismatch_refused(self, fig2, f):
        from infodep import renyi_value

        with pytest.raises(ValidationError, match=f"f has {len(f)} entries but") as exc:
            renyi_value(fig2, np.array(f))
        assert type(exc.value) is ValidationError and exc.value.exit_code == 2

    @pytest.mark.parametrize("f", [[0.0, np.inf], [np.nan, 1.0], [-np.inf, np.inf]])
    def test_non_finite_function_rejected(self, fig2, f):
        # refused before the centering, where [0, inf] gives nan and a RuntimeWarning
        from infodep import renyi_value

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="non-finite"):
                renyi_value(fig2, np.array(f))


class TestBackwardCoupling:
    def test_structure(self, fig2):
        b = backward_coupling(fig2)
        px = marginals(fig2)[0].probs
        np.testing.assert_allclose(b.pxy, b.pxy.T, atol=1e-15)
        np.testing.assert_allclose(b.pxy.sum(axis=1), px, atol=1e-12)

    def test_correlation_squares(self, fig2):
        b = backward_coupling(fig2)
        assert maximal_correlation(b).rho == pytest.approx(0.6, abs=1e-8)

    def test_independent_is_product_of_marginals(self, independent):
        b = backward_coupling(independent)
        px = marginals(independent)[0].probs
        np.testing.assert_allclose(b.pxy, np.outer(px, px), atol=1e-12)

    def test_identity_coupling_is_diagonal(self, identity_coupling):
        b = backward_coupling(identity_coupling)
        np.testing.assert_allclose(b.pxy, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)


class TestHessianRhoLambda:
    def test_fig2(self, fig2):
        assert hessian_rho_lambda(fig2) == pytest.approx(0.6, abs=1e-9)

    def test_independent(self, independent):
        assert hessian_rho_lambda(independent) == pytest.approx(0.0, abs=1e-9)

    def test_single_symbol_input_is_zero(self):
        assert hessian_rho_lambda(joint_from_matrix([[0.3, 0.7]], (0,), (0, 1))) == 0.0

    def test_equals_rho_squared_random(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            assert hessian_rho_lambda(j) == pytest.approx(
                maximal_correlation(j).rho ** 2, abs=1e-9
            )

    def test_exactly_zero_on_constructed_independents(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            j = random_independent(rng, 3, 4)
            assert hessian_rho_lambda(j) <= 1e-12


class TestFiniteDifferenceCurvature:
    """Cross-check the spectral threshold against second differences of entropies.

    The curvature ratio along a tangent direction d at the input marginal is
    (d^2/dt^2) H((p+td)W) / (d^2/dt^2) H(p+td); its maximum over directions is
    the squared maximal correlation, attained along d = p*f for the witness f.
    """

    @staticmethod
    def _fd_ratio(j, d, h=1e-4):
        px, _ = marginals(j)
        p = px.probs
        w_rows = j.pxy / p[:, None]
        scale = 0.45 * float(np.min(p / np.maximum(np.abs(d), 1e-300)))
        d = d * min(1.0, scale)

        def phi(t):
            return entropy_nats((p + t * d) @ w_rows)

        def psi(t):
            return entropy_nats(p + t * d)

        num = phi(h) - 2.0 * phi(0.0) + phi(-h)
        den = psi(h) - 2.0 * psi(0.0) + psi(-h)
        return num / den

    def test_witness_direction_attains_threshold(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            j = random_joint(rng, 3, 4)
            w = maximal_correlation(j)
            px = marginals(j)[0].probs
            d_star = px * w.f
            ratios = [self._fd_ratio(j, d_star)]
            for _ in range(50):
                d = rng.normal(size=3)
                d -= d.mean()
                ratios.append(self._fd_ratio(j, d))
            target = hessian_rho_lambda(j)
            assert max(ratios) == pytest.approx(target, abs=1e-4)
            assert all(r <= target + 1e-4 for r in ratios)

    def test_binary_input_channels(self):
        rng = np.random.default_rng(23)
        d = np.array([1.0, -1.0])
        for _ in range(5):
            ny = int(rng.integers(2, 5))
            j = random_joint(rng, 2, ny)
            ratio = self._fd_ratio(j, d)
            assert ratio == pytest.approx(hessian_rho_lambda(j), abs=1e-4)
