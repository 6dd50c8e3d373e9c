"""Unit tests for ingestion, information functionals, and product structure."""

import json
import math
import tempfile
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodep import (
    AlphabetTooLarge,
    Channel,
    JointDistribution,
    LabelMismatch,
    LogBase,
    NegativeEntry,
    PMF,
    ParseError,
    ProductTooLarge,
    SumNotOne,
    SupportViolation,
    ValidationError,
    ZeroMarginal,
    channel_of,
    conditional_expectation,
    entropy,
    joint_from_matrix,
    kl_divergence,
    load_joint_json,
    lp_norm,
    marginals,
    maximal_correlation,
    mutual_information,
    product,
    push_forward,
    transpose,
)
from infodep.distributions import MAX_ALPHABET, _entr, _kl_terms
from conftest import random_joint

FIG2_MI_BITS = 0.5954372523105548
FIG2_PY_ENTROPY = 1.5545851693377994
FIG2_VERTEX_KL = 0.6315172029168968


class TestPMF:
    def test_valid_construction_and_length(self):
        p = PMF(("a", "b"), np.array([0.25, 0.75]))
        assert len(p) == 2
        assert p.labels == ("a", "b")

    def test_tiny_negative_is_clipped(self):
        p = PMF((0, 1), np.array([1.0 + 5e-13, -5e-13]))
        assert p.probs[1] == 0.0
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntry):
            PMF((0, 1), np.array([1.1, -0.1]))

    def test_sum_not_one_rejected(self):
        with pytest.raises(SumNotOne):
            PMF((0, 1), np.array([0.6, 0.6]))

    def test_near_one_is_renormalized_exactly(self):
        p = PMF((0, 1), np.array([0.5 + 3e-10, 0.5 + 3e-10]))
        assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError):
            PMF(("a", "a"), np.array([0.5, 0.5]))

    def test_unhashable_labels_rejected(self):
        with pytest.raises(ValidationError):
            PMF(([0], [1]), np.array([0.5, 0.5]))

    def test_probs_are_read_only(self):
        p = PMF((0, 1), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            p.probs[0] = 0.9


class TestJointAndChannel:
    def test_fig2_marginals(self, fig2):
        px, py = marginals(fig2)
        np.testing.assert_allclose(px.probs, [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(py.probs, [1 / 3, 5 / 12, 1 / 4], atol=1e-15)

    def test_remark3_marginals(self, remark3):
        px, py = marginals(remark3)
        np.testing.assert_allclose(px.probs, [0.85, 0.15], atol=1e-12)
        np.testing.assert_allclose(py.probs, [0.39, 0.61], atol=1e-12)

    def test_zero_row_rejected(self):
        with pytest.raises(ZeroMarginal):
            joint_from_matrix([[0.5, 0.5], [0.0, 0.0]], (0, 1), (0, 1))

    def test_zero_column_rejected(self):
        with pytest.raises(ZeroMarginal):
            joint_from_matrix([[0.5, 0.0], [0.5, 0.0]], (0, 1), (0, 1))

    def test_non_2d_rejected(self):
        with pytest.raises(ValidationError):
            joint_from_matrix([0.5, 0.5], (0, 1), (0, 1))

    def test_channel_of_fig2_rows(self, fig2):
        c = channel_of(fig2)
        np.testing.assert_allclose(c.pyx[0], [2 / 3, 1 / 3, 0.0], atol=1e-15)
        np.testing.assert_allclose(c.pyx[1], [0.0, 0.5, 0.5], atol=1e-15)

    def test_channel_round_trip(self, fig2):
        # input(x) pyx[x][y] gives the joint back
        c = channel_of(fig2)
        np.testing.assert_allclose(c.input.probs[:, None] * c.pyx, fig2.pxy, atol=1e-15)

    def test_channel_rejects_non_stochastic_rows(self):
        inp = PMF((0, 1), np.array([0.5, 0.5]))
        with pytest.raises(SumNotOne):
            Channel((0, 1), (0, 1), np.array([[0.7, 0.7], [0.5, 0.5]]), inp)

    def test_channel_rejects_non_finite_rows(self):
        inp = PMF((0, 1), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError, match="non-finite"):
            Channel((0, 1), (0, 1), [[math.nan, 1.0], [0.5, 0.5]], inp)

    @pytest.mark.parametrize(
        "nx, ny", [(MAX_ALPHABET + 1, 2), (2, MAX_ALPHABET + 1)]
    )
    def test_oversized_alphabet_refused_before_reading_the_matrix(self, nx, ny):
        class Unread:
            def __array__(self, *args, **kwargs):
                raise AssertionError("the matrix was read")

        inp = PMF(range(nx), np.full(nx, 1.0 / nx))
        for build in (
            lambda: JointDistribution(range(nx), range(ny), Unread()),
            lambda: Channel(range(nx), range(ny), Unread(), inp),
        ):
            with pytest.raises(AlphabetTooLarge, match=f"{nx}x{ny}"):
                build()

    def test_largest_alphabet_accepted(self):
        n = MAX_ALPHABET
        j = joint_from_matrix(np.full((n, n), 1.0 / n**2), range(n), range(n))
        assert channel_of(j).pyx.shape == (n, n)

    def test_channel_rejects_label_mismatch(self):
        inp = PMF(("u", "v"), np.array([0.5, 0.5]))
        with pytest.raises(LabelMismatch):
            Channel((0, 1), (0, 1), np.array([[1.0, 0.0], [0.0, 1.0]]), inp)

    def test_push_forward_point_mass(self, fig2):
        c = channel_of(fig2)
        r = PMF((0, 1), np.array([0.0, 1.0]))
        out = push_forward(c, r)
        np.testing.assert_allclose(out.probs, [0.0, 0.5, 0.5], atol=1e-15)

    def test_push_forward_of_input_is_y_marginal(self, fig2):
        c = channel_of(fig2)
        out = push_forward(c, c.input)
        np.testing.assert_allclose(out.probs, marginals(fig2)[1].probs, atol=1e-15)

    def test_push_forward_label_mismatch(self, fig2):
        c = channel_of(fig2)
        with pytest.raises(LabelMismatch):
            push_forward(c, PMF(("a", "b"), np.array([0.5, 0.5])))


class TestEntropyAndKL:
    def test_fair_coin_entropy_is_one_bit(self):
        assert entropy(PMF((0, 1), np.array([0.5, 0.5]))) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass_entropy_is_zero(self):
        assert entropy(PMF((0, 1), np.array([1.0, 0.0]))) == 0.0

    def test_fig2_output_entropy(self, fig2):
        py = marginals(fig2)[1]
        assert entropy(py) == pytest.approx(FIG2_PY_ENTROPY, abs=1e-12)

    def test_nats_equals_bits_times_ln2(self):
        p = PMF((0, 1, 2), np.array([0.2, 0.3, 0.5]))
        assert entropy(p, LogBase.NATS) == pytest.approx(
            entropy(p, LogBase.BITS) * math.log(2), abs=1e-14
        )

    def test_kl_of_point_mass_from_fair_coin(self):
        r = PMF((0, 1), np.array([0.0, 1.0]))
        p = PMF((0, 1), np.array([0.5, 0.5]))
        assert kl_divergence(r, p) == pytest.approx(1.0, abs=1e-15)

    def test_kl_zero_iff_equal(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(4))
            p = PMF((0, 1, 2, 3), probs)
            assert kl_divergence(p, p) == 0.0
            q = PMF((0, 1, 2, 3), rng.dirichlet(np.ones(4)))
            d = kl_divergence(q, p)
            assert d >= 0.0
            if np.max(np.abs(q.probs - p.probs)) > 1e-6:
                assert d > 0.0

    def test_kl_fig2_vertex_value(self, fig2):
        c = channel_of(fig2)
        pushed = push_forward(c, PMF((0, 1), np.array([0.0, 1.0])))
        py = marginals(fig2)[1]
        assert kl_divergence(pushed, py) == pytest.approx(FIG2_VERTEX_KL, abs=1e-12)

    def test_kl_support_violation(self):
        r = PMF((0, 1), np.array([0.5, 0.5]))
        p = PMF((0, 1), np.array([1.0, 0.0]))
        with pytest.raises(SupportViolation):
            kl_divergence(r, p)

    def test_zero_reference_where_r_is_zero_adds_nothing(self):
        r, p = [0.0, 0.1, 0.25, 0.65, 0.0], [0.2, 0.4, 0.05, 0.35, 0.0]
        with_zero = kl_divergence(PMF(range(5), r), PMF(range(5), p))
        assert with_zero == kl_divergence(PMF(range(4), r[:4]), PMF(range(4), p[:4]))

    def test_entry_far_below_its_reference_keeps_the_divergence(self):
        # r/p = 2e-20 rounds t - 1 to -1, which the kernel once scored -inf
        r = PMF((0, 1), np.array([1e-20, 1.0 - 1e-20]))
        p = PMF((0, 1), np.array([0.5, 0.5]))
        assert abs(kl_divergence(r, p, LogBase.NATS) - math.log(2.0)) <= 1e-15

    def test_kl_label_mismatch(self):
        r = PMF((0, 1), np.array([0.5, 0.5]))
        p = PMF(("a", "b"), np.array([0.5, 0.5]))
        with pytest.raises(LabelMismatch):
            kl_divergence(r, p)

    def test_push_forward_contracts_kl(self, fig2):
        rng = np.random.default_rng(11)
        c = channel_of(fig2)
        py = marginals(fig2)[1]
        for _ in range(25):
            r = PMF((0, 1), rng.dirichlet(np.ones(2)))
            upstream = kl_divergence(r, c.input)
            downstream = kl_divergence(push_forward(c, r), py)
            assert downstream <= upstream + 1e-12


def _kl_terms_reference(r, p) -> list[float]:
    """Terms r log(r/p) - r + p over a positive p, one math.log each; a zero
    r gives p."""
    out = []
    for a, b in zip(r, p):
        if a == 0.0:
            out.append(b)
        else:
            out.append(a * math.log(a / b) - a + b)
    return out


class TestKernels:
    """The entropy and divergence kernels against scalar math references."""

    def test_entr_matches_math(self):
        x = np.array([0.0, 1e-300, 1e-12, 0.2, 0.5, 1.0, 0.75])
        ref = [0.0 if v == 0.0 else -v * math.log(v) for v in x]
        got = _entr(x)
        assert got[0] == 0.0 and got[5] == 0.0
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)
        assert float(got.sum()) == pytest.approx(math.fsum(ref), rel=1e-14)

    def test_kl_terms_match_math_with_zeros(self):
        # the kernel takes a positive reference only; a zero r gives exactly p
        r = np.array([0.0, 0.1, 0.25, 0.65, 0.0])
        p = np.array([0.2, 0.4, 0.05, 0.3, 0.05])
        got = _kl_terms(r, p)
        ref = _kl_terms_reference(r, p)
        assert got[0] == p[0] and got[4] == p[4]
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=0.0)
        assert float(got.sum()) == pytest.approx(math.fsum(ref), rel=1e-14)

    def test_ratio_at_most_2_pow_54_is_finite(self):
        # t - 1 rounds to -1 for 0 < t <= 2^-54; the clamped log1p keeps
        # each term within 1e-16 of p phi(t), plus an ulp of rounding,
        # instead of -inf
        p = np.array([0.5, 0.25, 0.125, 0.125])
        t = np.array([2.0**-54, 1e-17, 1e-20, 1e-300])
        got = _kl_terms(t * p, p)
        with localcontext() as ctx:
            ctx.prec = 60
            exact = [
                float(Decimal(b) * (Decimal(a) * Decimal(a).ln() - Decimal(a) + 1))
                for a, b in zip(t, p)
            ]
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, exact, rtol=1e-16 + np.finfo(float).eps, atol=0.0)

    def test_rows_broadcast_against_one_reference(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        R = np.array([
            [0.4, 0.3, 0.2, 0.1],
            [0.0, 0.5, 0.25, 0.25],
            [0.7, 0.1, 0.1, 0.1],
            [0.1, 0.2, 0.3, 0.4],
        ])
        got = _kl_terms(R, p)
        assert not got[3].any()
        assert got.shape == R.shape
        for row, terms in zip(R, got):
            ref = _kl_terms_reference(row, p)
            np.testing.assert_allclose(terms, ref, rtol=1e-14, atol=0.0)
            assert float(terms.sum()) == pytest.approx(math.fsum(ref), rel=1e-14)

    def test_near_p_pair_keeps_its_digits(self):
        # r - p = 1e-5 (1, -1): D is 2.4e-10 nats, and a plain
        # sum r log(r/p) loses about 1e-7 of it to cancellation
        p = np.array([0.3, 0.7])
        r = p + 1e-5 * np.array([1.0, -1.0])
        with localcontext() as ctx:
            ctx.prec = 60
            exact = float(sum(
                Decimal(a) * (Decimal(a) / Decimal(b)).ln() - Decimal(a) + Decimal(b)
                for a, b in zip(r, p)
            ))
        plain = float(np.sum(r * np.log(r / p)))
        assert abs(plain / exact - 1.0) > 1e-8
        # what is left is the rounding of log1p, ~1e-16 / |r/p - 1|
        assert float(_kl_terms(r, p).sum()) == pytest.approx(exact, rel=1e-10)


class TestMutualInformation:
    def test_independent_is_zero(self, independent):
        assert mutual_information(independent) == pytest.approx(0.0, abs=1e-15)

    def test_identity_coupling_is_one_bit(self, identity_coupling):
        assert mutual_information(identity_coupling) == pytest.approx(1.0, abs=1e-15)

    def test_fig2_value(self, fig2):
        assert mutual_information(fig2) == pytest.approx(FIG2_MI_BITS, abs=1e-12)

    @pytest.mark.parametrize("tiny", [1e-17, 1e-20])
    def test_tiny_entry_keeps_one_bit(self, tiny):
        # p(0, 1) / (p(x) p(y)) is below 2^-54, where the kernel once gave -inf
        j = joint_from_matrix([[0.5, tiny], [0.0, 0.5]], (0, 1), (0, 1))
        assert abs(mutual_information(j) - 1.0) <= 1e-12

    def test_nonnegative_on_random(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            assert mutual_information(j) >= 0.0


class TestProduct:
    @pytest.mark.parametrize("shapes", [((9, 2), (8, 2)), ((2, 9), (2, 8))])
    def test_oversized_product_refused_before_kron(self, shapes, monkeypatch):
        def no_kron(*args):
            raise AssertionError("the product matrix was built")

        (n1, m1), (n2, m2) = shapes
        j1 = joint_from_matrix(np.full((n1, m1), 1.0 / (n1 * m1)), range(n1), range(m1))
        j2 = joint_from_matrix(np.full((n2, m2), 1.0 / (n2 * m2)), range(n2), range(m2))
        monkeypatch.setattr(np, "kron", no_kron)
        with pytest.raises(ProductTooLarge, match="product alphabets .* 64-symbol limit"):
            product(j1, j2)

    def test_product_of_largest_size_accepted(self):
        j = joint_from_matrix(np.full((8, 8), 1.0 / 64), range(8), range(8))
        assert product(j, j).shape == (64, 64)

    def test_marginal_factorization(self, fig2, remark3):
        prod = product(fig2, remark3)
        assert prod.shape == (4, 6)
        px, py = marginals(prod)
        px1, py1 = marginals(fig2)
        px2, py2 = marginals(remark3)
        np.testing.assert_allclose(px.probs, np.kron(px1.probs, px2.probs), atol=1e-15)
        np.testing.assert_allclose(py.probs, np.kron(py1.probs, py2.probs), atol=1e-15)

    def test_entropy_and_mi_additivity(self, fig2, remark3):
        prod = product(fig2, remark3)
        assert mutual_information(prod) == pytest.approx(
            mutual_information(fig2) + mutual_information(remark3), abs=1e-10
        )
        hx = entropy(marginals(prod)[0])
        assert hx == pytest.approx(
            entropy(marginals(fig2)[0]) + entropy(marginals(remark3)[0]), abs=1e-10
        )

    def test_labels_are_pairs(self, fig2, remark3):
        prod = product(fig2, remark3)
        assert prod.x_labels[0] == (fig2.x_labels[0], remark3.x_labels[0])
        assert prod.y_labels[-1] == (fig2.y_labels[-1], remark3.y_labels[-1])

    def test_transpose_swaps_axes(self, fig2):
        t = transpose(fig2)
        assert t.shape == (3, 2)
        np.testing.assert_allclose(t.pxy, fig2.pxy.T, atol=0)
        assert t.x_labels == fig2.y_labels

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nx=st.integers(2, 4), ny=st.integers(2, 4))
    def test_transpose_is_an_involution_keeping_rho(self, seed, nx, ny):
        # a valid joint needs no renormalizing, so the round trip keeps every
        # entry to the bit
        j = random_joint(np.random.default_rng(seed), nx, ny)
        back = transpose(transpose(j))
        assert (back.x_labels, back.y_labels) == (j.x_labels, j.y_labels)
        assert back.pxy.tobytes() == j.pxy.tobytes()
        assert abs(maximal_correlation(transpose(j)).rho - maximal_correlation(j).rho) <= 1e-12


class TestLpNorm:
    def test_constant_function(self):
        w = PMF((0, 1), np.array([0.3, 0.7]))
        g = np.array([2.0, 2.0])
        for p in (-1.0, 0.0, 0.5, 1.0, 2.0, 4.0):
            assert lp_norm(g, w, p) == pytest.approx(2.0, abs=1e-12)

    def test_euclidean_case(self):
        w = PMF((0, 1), np.array([0.5, 0.5]))
        assert lp_norm(np.array([1.0, 2.0]), w, 2.0) == pytest.approx(
            math.sqrt(2.5), abs=1e-14
        )

    def test_geometric_mean_at_zero(self):
        w = PMF((0, 1), np.array([0.5, 0.5]))
        assert lp_norm(np.array([1.0, 4.0]), w, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_zero_value_with_nonpositive_order(self):
        w = PMF((0, 1), np.array([0.5, 0.5]))
        assert lp_norm(np.array([0.0, 3.0]), w, -1.0) == 0.0
        assert lp_norm(np.array([0.0, 3.0]), w, 0.0) == 0.0

    def test_all_zero_values_at_positive_order(self):
        w = PMF((0, 1), np.array([0.5, 0.5]))
        assert lp_norm(np.zeros(2), w, 2.0) == 0.0

    def test_zero_weight_entries_ignored(self):
        w = PMF((0, 1, 2), np.array([0.5, 0.5, 0.0]))
        assert lp_norm(np.array([1.0, 2.0, 50.0]), w, 2.0) == pytest.approx(
            math.sqrt(2.5), abs=1e-14
        )

    def test_infinite_orders_give_max_and_min(self):
        w = PMF((0, 1, 2), np.array([0.2, 0.3, 0.5]))
        g = np.array([-3.0, 0.5, 2.0])
        assert lp_norm(g, w, math.inf) == 3.0
        assert lp_norm(g, w, -math.inf) == 0.5

    def test_monotone_in_order(self):
        rng = np.random.default_rng(5)
        orders = (-1.0, 0.0, 0.5, 1.0, 2.0, 4.0)
        for _ in range(20):
            w = PMF(tuple(range(5)), rng.dirichlet(np.ones(5)))
            g = rng.uniform(0.1, 3.0, size=5)
            vals = [lp_norm(g, w, p) for p in orders]
            for lo, hi in zip(vals, vals[1:]):
                assert hi >= lo - 1e-12


class TestConditionalExpectation:
    def test_constant_function(self, fig2):
        out = conditional_expectation(fig2, np.ones(3))
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-14)

    def test_fig2_indicator(self, fig2):
        out = conditional_expectation(fig2, np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [2 / 3, 0.0], atol=1e-14)

    def test_independent_gives_mean(self, independent):
        g = np.array([3.0, -1.0])
        out = conditional_expectation(independent, g)
        np.testing.assert_allclose(out, [1.0, 1.0], atol=1e-14)

    def test_range_bounds(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            j = random_joint(rng, 3, 4)
            g = rng.normal(size=4)
            out = conditional_expectation(j, g)
            assert np.all(out >= g.min() - 1e-12)
            assert np.all(out <= g.max() + 1e-12)


_INPUT = PMF((0, 1), np.array([0.5, 0.5]))


class TestRefusals:
    """Input refusals, each with its exception class and exit code."""

    @pytest.mark.parametrize(
        "build, error, says",
        [
            (lambda j: PMF((), []), ValidationError, "label list is empty"),
            (lambda j: PMF((0, 1), [1.0]), ValidationError, "2 labels but 1"),
            (lambda j: JointDistribution((0, 1), (0, 1), [[0.5, 0.5]]),
             ValidationError, "does not match labels"),
            (lambda j: Channel((0, 1), (0, 1), [[1.0, 0.0]], _INPUT),
             ValidationError, "channel shape"),
            (lambda j: Channel((0, 1), (0, 1), [[1.1, -0.1], [0.0, 1.0]], _INPUT),
             NegativeEntry, "negative"),
            (lambda j: Channel((0, 1), (0, 1), np.eye(2), PMF((0, 1), [1.0, 0.0])),
             ZeroMarginal, "strictly positive"),
            (lambda j: lp_norm([1.0, 2.0, 3.0], _INPUT, 2.0),
             ValidationError, "3 values but 2 weights"),
            (lambda j: conditional_expectation(j, [1.0, 2.0]),
             ValidationError, "g has 2 entries"),
            (lambda j: lp_norm([1.0, math.inf], _INPUT, 2.0),
             ValidationError, "values contains non-finite"),
            (lambda j: lp_norm([1.0, math.nan], _INPUT, -1.0),
             ValidationError, "values contains non-finite"),
            (lambda j: lp_norm([1.0, 2.0], _INPUT, math.nan),
             ValidationError, "order p is NaN"),
            (lambda j: conditional_expectation(j, [math.inf, 1.0, 1.0]),
             ValidationError, "g contains non-finite"),
            (lambda j: conditional_expectation(j, [0.0, math.nan, 1.0]),
             ValidationError, "g contains non-finite"),
        ],
        ids=[
            "empty labels", "pmf count", "joint shape", "channel shape",
            "channel negative entry", "channel zero input", "lp_norm length",
            "conditional_expectation length", "lp_norm infinite value",
            "lp_norm NaN value", "lp_norm NaN order",
            "conditional_expectation infinite g", "conditional_expectation NaN g",
        ],
    )
    def test_refused(self, fig2, build, error, says):
        with pytest.raises(error, match=says) as exc:
            build(fig2)
        assert type(exc.value) is error and exc.value.exit_code == 2


class TestJsonLoading:
    def test_round_trip_with_fractions(self, tmp_path):
        doc = {
            "x_labels": [0, 1],
            "y_labels": ["0", "E", "1"],
            "pxy": [["1/3", "1/6", 0], [0, "1/4", "1/4"]],
        }
        path = tmp_path / "j.json"
        path.write_text(json.dumps(doc))
        j = load_joint_json(path)
        np.testing.assert_allclose(
            j.pxy, [[1 / 3, 1 / 6, 0.0], [0.0, 0.25, 0.25]], atol=1e-15
        )
        assert j.y_labels == ("0", "E", "1")

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nx=st.integers(1, 4), ny=st.integers(1, 4))
    def test_fraction_strings_read_back_bit_identical(self, seed, nx, ny):
        counts = np.random.default_rng(seed).integers(1, 60, size=(nx, ny))
        total = int(counts.sum())
        doc = {
            "x_labels": list(range(nx)),
            "y_labels": [f"y{k}" for k in range(ny)],
            "pxy": [[f"{int(c)}/{total}" for c in row] for row in counts],
        }
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "j.json"
            path.write_text(json.dumps(doc))
            j = load_joint_json(path)
        fractions = [[Fraction(int(c), total) for c in row] for row in counts]
        ref = joint_from_matrix(fractions, doc["x_labels"], doc["y_labels"])
        assert (j.x_labels, j.y_labels) == (ref.x_labels, ref.y_labels)
        assert j.pxy.tobytes() == ref.pxy.tobytes()

    def test_missing_key(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text(json.dumps({"x_labels": [0], "pxy": [[1.0]]}))
        with pytest.raises(ParseError):
            load_joint_json(path)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text('{"x_labels": [0, 1], ')
        with pytest.raises(ParseError) as exc:
            load_joint_json(path)
        assert "line" in str(exc.value)

    def test_ragged_matrix(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text(
            json.dumps({"x_labels": [0, 1], "y_labels": [0, 1], "pxy": [[0.5, 0.5], [1.0]]})
        )
        with pytest.raises(ParseError):
            load_joint_json(path)

    def test_bad_fraction_string(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text(
            json.dumps(
                {"x_labels": [0, 1], "y_labels": [0, 1], "pxy": [["x/y", 0.5], [0.25, 0.25]]}
            )
        )
        with pytest.raises(ParseError):
            load_joint_json(path)
