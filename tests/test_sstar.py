"""Unit tests for the KL-ratio objective, its maximization, and U-decompositions."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infodep import (
    EpsTooLarge,
    LabelMismatch,
    NotBinaryInput,
    NumericalError,
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
from infodep.sstar import (
    ASCENT_TOL,
    HANDOFF_GAIN,
    MAX_RESTARTS,
    _batch_gradient,
    _candidate_points,
    _kkt_residual,
    _newton_finish,
    _ratio_at,
    _ratio_terms,
)
from conftest import random_independent, random_joint

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

    def test_entry_far_below_p_x_matches_the_vertex(self, fig2):
        # r/p = 2e-20 on the first symbol, where the divergence kernel once
        # gave -inf and the ratio was refused as too close to p(x)
        vertex = kl_ratio(fig2, binary_pmf(0.0))
        assert abs(kl_ratio(fig2, binary_pmf(1e-20)) - vertex) <= 1e-12

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
            "tol",
            "candidates",
            "ascent_sweeps",
            "best_denominator_nats",
            "converged",
            "kkt_residual",
            "handoff_sweep",
        ):
            assert key in diag

    def test_one_input_symbol_reports_every_key_in_order(self, fig2):
        # |X| = 1 leaves p(x) as the only input: nothing is searched, and the
        # record has fig2's keys in fig2's order
        j = joint_from_matrix([[0.2, 0.3, 0.5]], ("x",), (0, 1, 2))
        res = sstar(j, restarts=5, seed=3)
        assert res.value == 0.0
        np.testing.assert_array_equal(res.maximizer.probs, [1.0])
        assert list(res.diagnostics) == list(sstar(fig2).diagnostics)
        assert res.diagnostics == {
            "restarts": 0,
            "seed": 3,
            "tol": ASCENT_TOL,
            "candidates": 0,
            "ascent_sweeps": 0,
            "best_denominator_nats": 0.0,
            "converged": True,
            "ascent_row_sweeps": 0,
            "kkt_residual": 0.0,
            "handoff_sweep": 0,
        }

    def test_negative_restarts_rejected(self, fig2):
        with pytest.raises(ValidationError):
            sstar(fig2, restarts=-5)

    def test_restarts_above_limit_rejected(self, fig2):
        with pytest.raises(ValidationError, match="restarts"):
            sstar(fig2, restarts=MAX_RESTARTS + 1)

    def test_negative_seed_rejected(self, fig2):
        with pytest.raises(ValidationError, match="seed"):
            sstar(fig2, seed=-1)

    @pytest.mark.parametrize(
        "name, value",
        [("max_iter", -1), ("max_iter", 2.5), ("restarts", 2.5), ("restarts", 2.0),
         ("seed", 1.5), ("seed", 2.0)],
    )
    def test_bad_counts_rejected(self, fig2, name, value):
        single = joint_from_matrix([[0.3, 0.7]], (0,), (0, 1))
        for j in (fig2, single):
            with pytest.raises(ValidationError, match=name):
                sstar(j, **{name: value})

    def test_numpy_int_counts_accepted(self, remark3):
        res = sstar(remark3, restarts=np.int64(8), seed=np.int32(3), max_iter=np.int64(50))
        ref = sstar(remark3, restarts=8, seed=3, max_iter=50)
        assert res.value == ref.value
        assert res.diagnostics == ref.diagnostics
        assert type(res.diagnostics["seed"]) is int

    def test_converged_flag(self, fig2, remark3):
        assert sstar(fig2).diagnostics["converged"] is True
        table = np.random.default_rng(4).dirichlet(np.ones(16)).reshape(4, 4)
        j4 = joint_from_matrix(table, tuple(range(4)), tuple(range(4)))
        capped = sstar(product(remark3, j4), max_iter=1).diagnostics
        assert capped["ascent_sweeps"] == 1
        assert capped["converged"] is False

    def test_single_symbol_input_gives_zero_at_px(self, fig2):
        j = joint_from_matrix([[0.3, 0.7]], (0,), (0, 1))
        res = sstar(j)
        assert res.value == 0.0
        np.testing.assert_array_equal(res.maximizer.probs, j.px)
        assert res.diagnostics.keys() == sstar(fig2).diagnostics.keys()
        assert res.diagnostics["handoff_sweep"] == 0

    def test_single_symbol_output_gives_zero(self):
        # no witness ray (rho is undefined), and every input's output is the
        # one symbol, so every candidate's numerator is 0
        res = sstar(joint_from_matrix([[0.3], [0.7]], (0, 1), (0,)))
        assert res.value == 0.0
        assert res.diagnostics["converged"] is True

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


def _square(seed: int):
    table = np.random.default_rng(seed).dirichlet(np.ones(16)).reshape(4, 4)
    return joint_from_matrix(table, tuple(range(4)), tuple(range(4)))


def _face_gradient(j, res) -> float:
    """Largest entry of the ratio's gradient at the maximizer, projected onto
    the tangent space of the maximizer's face."""
    r = res.maximizer.probs
    s = r > 0.0
    W = j.pxy / j.px[:, None]
    ry = r @ W
    m = ry > 0.0
    den = _fsum_kl(r, j.px)
    g = W[s][:, m] @ np.log(ry[m] / j.py[m]) - res.value * np.log(r[s] / j.px[s])
    g = g / den
    return float(np.abs(g - g.mean()).max())


def _phi_sum_rows(R: np.ndarray, p: np.ndarray) -> np.ndarray:
    """D(r || p) in nats for every row r of R, as sums of p phi(r/p)."""
    t = R / p
    safe = np.where(t > 0.0, t, 1.0)
    terms = np.where(t > 0.0, p * (safe * np.log1p(safe - 1.0) - (safe - 1.0)), p)
    return terms.sum(axis=1)


def _deleted_grid_best(j) -> float:
    """Best ratio over the candidate grids an earlier search evaluated: a
    128-point grid for |X| = 2, the 8256-point barycentric grid for |X| = 3,
    and 31 interior points on every edge for |X| <= 8, with the same
    exclusion around p(x) (1e-9 nats) and numerator noise floor (1e-13)."""
    nx = j.shape[0]
    blocks = []
    if nx == 2:
        t = np.linspace(0.0, 1.0, 128)
        blocks.append(np.column_stack([t, 1.0 - t]))
    elif nx == 3:
        g = 127
        ab = [(a, b) for a in range(g + 1) for b in range(g + 1 - a)]
        blocks.append(np.array([(a / g, b / g, (g - a - b) / g) for a, b in ab]))
    t = np.linspace(0.0, 1.0, 33)[1:-1]
    for a in range(nx):
        for b in range(a + 1, nx):
            edge = np.zeros((t.size, nx))
            edge[:, a] = 1.0 - t
            edge[:, b] = t
            blocks.append(edge)
    R = np.vstack(blocks)
    den = _phi_sum_rows(R, j.px)
    num = _phi_sum_rows(R @ (j.pxy / j.px[:, None]), j.py)
    ok = den > 1e-9
    ratios = np.where(num < 1e-13, 0.0, num / np.where(ok, den, 1.0))
    return float(ratios[ok].max())


class TestSearchEngine:
    """The multiplicative ascent with its Newton finish reaches the sup on
    products, stops where the ratio is stationary on the maximizer's face,
    and loses nothing that the deleted candidate grids found."""

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("pair", ["J x J", "remark3 x j4"])
    def test_max_rule_on_products(self, pair, reverse):
        a, b = (_square(35), _square(35)) if pair == "J x J" else (builtin("remark3"), _square(4))
        orient = transpose if reverse else (lambda j: j)
        s_prod = sstar(orient(product(a, b))).value
        s_max = max(sstar(orient(a)).value, sstar(orient(b)).value)
        assert abs(s_prod - s_max) <= 1e-9

    @pytest.mark.parametrize("name", ["j4", "J", "remark3 x j4"])
    def test_stationary_on_face(self, name):
        if name == "J":
            j = _square(35)
        else:
            j = _square(4) if name == "j4" else product(builtin("remark3"), _square(4))
        res = sstar(j)
        assert _face_gradient(j, res) <= 1e-9
        assert res.diagnostics["kkt_residual"] <= 1e-9

    def test_residual_next_to_a_face(self):
        # bec:0.25 x bsc:0.1 ends at (1/2, 1/2, 8.3e-17, 0): the third entry is
        # below eps and its gradient, 0.24 below the others', would read as a
        # residual of 0.234 by the face equality; the KKT inequality holds
        j = product(builtin("bec:0.25"), builtin("bsc:0.1"))
        res = sstar(j)
        r = res.maximizer.probs
        assert 0.0 < r[2] <= np.finfo(float).eps and r[3] == 0.0
        assert res.diagnostics["converged"] is True
        assert res.diagnostics["kkt_residual"] <= 1e-15

    def test_residual_rule(self):
        g = np.array([0.0, 0.0, -0.3])
        # an entry above eps is judged by the equality, one at most eps by
        # the inequality, which a gradient above the others' still breaks
        assert _kkt_residual(np.array([0.5, 0.5 - 1e-10, 1e-10]), g, 2.0) == 0.1
        assert _kkt_residual(np.array([0.5, 0.5, 1e-17]), g, 2.0) == 0.0
        assert _kkt_residual(np.array([0.5, 0.5, 1e-17]), -g, 2.0) == 0.15

    def test_no_loss_against_deleted_grids(self):
        rng = np.random.default_rng(2026)
        for k in range(60):
            nx = int(rng.integers(2, 5))
            ny = int(rng.integers(2, 5))
            if k % 20 == 19:
                j = random_independent(rng, nx, ny)
            else:
                j = random_joint(rng, nx, ny)
            for jj in (j, transpose(j)):
                assert sstar(jj).value >= _deleted_grid_best(jj) - 1e-12, k


def _values(R, W, px, py):
    """Ratio values at the input columns R."""
    return _ratio_terms(R, W, px, py)[0]


def _gradient(R, W, px, py):
    """Ratio gradients at the input columns R, from freshly computed terms."""
    return _batch_gradient(R, W, px, py, _ratio_terms(R, W, px, py)[1:])


def _finish(r, value, W, px, py):
    """The Newton finish from r, with r's denominator computed afresh."""
    return _newton_finish(r, value, _ratio_at(r, W, px, py)[1], W, px, py)


def _reference_sstar(j, restarts: int = 64, seed: int = 0, max_iter: int = 200) -> tuple:
    """s* by the ascent without the Newton handoff: every sweep recomputes its
    ratio terms, the ascent runs until no start improves or the sweep cap
    ends it, and the Newton steps then finish the best start.  It holds one
    start per row and hands the kernels the transposes.  Returned with the
    first sweep at which the handoff rule holds, the leader read from every
    start, and the same with the leader read from the active starts only
    (0 where the rule never holds)."""
    nx = j.shape[0]
    px, py = j.px, j.py
    W = j.pxy / px[:, None]
    f = maximal_correlation(j).f
    R = _candidate_points(px, f, np.random.default_rng(seed), restarts).T
    vals = _values(R.T, W, px, py)
    keep = np.argsort(-vals)[: max(restarts + nx + 8, 32)]
    R, best_vals = R[keep], vals[keep]
    alphas = 4.0 * 0.5 ** np.arange(14)
    act = np.arange(R.shape[0])
    handoffs = [0, 0]
    for sweep in range(1, max_iter + 1):
        Ra = R[act]
        grad = _gradient(Ra.T, W, px, py).T
        d = np.where(Ra > 0.0, grad - np.sum(Ra * grad, axis=1, keepdims=True), 0.0)
        d /= np.maximum(np.abs(d).max(axis=1, keepdims=True), 1e-300)
        d -= d.max(axis=1, keepdims=True)
        steps = Ra[:, None, :] * np.exp(alphas[None, :, None] * d[:, None, :])
        steps /= steps.sum(axis=2, keepdims=True)
        cand = _values(steps.reshape(-1, nx).T, W, px, py).reshape(steps.shape[:2])
        pick = np.argmax(cand, axis=1)
        new_vals = cand[np.arange(act.shape[0]), pick]
        old_vals = best_vals[act]
        scale = np.maximum(1.0, np.abs(old_vals))
        improved = new_vals > old_vals + ASCENT_TOL * scale
        if not improved.any():
            break
        act = act[improved]
        R[act] = steps[improved, pick[improved]]
        best_vals[act] = new_vals = new_vals[improved]
        gain = new_vals - old_vals[improved]
        crawls = gain <= HANDOFF_GAIN * scale[improved]
        reach = new_vals + gain * (max_iter - sweep)
        for k, leader in enumerate((best_vals.max(), new_vals.max())):
            if not handoffs[k] and np.all(crawls | (reach < leader)):
                handoffs[k] = sweep
    i = int(np.argmax(best_vals))
    r = _finish(R[i], best_vals[i], W, px, py)[0]
    return _ratio_at(r, W, px, py)[0], *handoffs


def _sparse_joint(k: int):
    """Draw k (0-based) of a seeded run of Dirichlet(0.2) joints, each
    alphabet size drawn from 2..5: a draw often puts most of its mass on a
    few cells."""
    rng = np.random.default_rng(7)
    for _ in range(k + 1):
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
        table = rng.dirichlet(np.full(nx * ny, 0.2)).reshape(nx, ny)
    return joint_from_matrix(table, tuple(range(nx)), tuple(range(ny)))


def _handoff_case(name: str):
    if name == "bec:1/4 reversed":
        return transpose(builtin("bec:1/4"))
    if name == "J":
        return _square(35)
    if name == "J x J":
        return product(_square(35), _square(35))
    return product(builtin("remark3"), _square(4))


class TestNewtonHandoff:
    """The ascent hands its first-order crawl to the Newton finish, and ties
    within rounding go to the start farthest from p(x).  Against the ascent
    without either, run to its full sweep cap, nothing is lost beyond
    rounding.  The trio of joints whose ascent used to end at the cap now
    converges well before it."""

    CAPPED = ("bec:1/4 reversed", "J", "J x J")

    @pytest.mark.parametrize("name", [*CAPPED, "remark3 x j4"])
    def test_no_loss_against_full_ascent(self, name):
        j = _handoff_case(name)
        res = sstar(j)
        assert res.value >= _reference_sstar(j)[0] - 1e-12
        if name in self.CAPPED:
            assert res.diagnostics["ascent_sweeps"] < 200
            assert res.diagnostics["converged"] is True

    def test_handoff_sweep_is_reported(self):
        """J's one Newton try comes at sweep 80 of 200.  A start far below the
        leader gains more than HANDOFF_GAIN until sweep 177, but from sweep 80
        on it cannot reach the leader at that gain in the sweeps left, so it
        no longer holds the handoff back."""
        assert sstar(_square(35)).diagnostics["handoff_sweep"] == 80
        capped = sstar(_handoff_case("remark3 x j4"), max_iter=1).diagnostics
        assert capped["handoff_sweep"] == 0

    @pytest.mark.parametrize("k, reverse", [(48, False), (6, True)])
    def test_reach_bound_reads_every_start(self, k, reverse):
        """The leader that an active start must reach can be a start that has
        retired.  On these sparse joints the handoff rule holds sweeps
        earlier with that leader than with the best active start; the ascent
        hands off where the rule with every start first holds."""
        j = _sparse_joint(k)
        j = transpose(j) if reverse else j
        _, every, active = _reference_sstar(j)
        assert 0 < every < active
        assert sstar(j).diagnostics["handoff_sweep"] == every

    def test_no_loss_on_random_joints(self):
        rng = np.random.default_rng(131)
        for k in range(40):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            for jj in (j, transpose(j)):
                assert sstar(jj).value >= _reference_sstar(jj)[0] - 1e-12, k

    @pytest.mark.parametrize("k", range(1, 20))
    def test_erasure_value_not_above_closed_form(self, k):
        """The erasure channel's ratio is constant, 1 - eps, on the whole
        simplex, so only rounding can lift a start above it.  Reversed, the
        ratio's local limit at p(x) is the same 1 - eps, and the point mass
        on an unerased output gives log 2 / log(2 / (1 - eps)), which is
        at most 1 - eps only while eps <= 1/2."""
        j = builtin(f"bec:{k}/20")
        bound = 1.0 - k / 20 + 1e-14
        assert sstar(j).value <= bound
        if k <= 10:
            assert sstar(transpose(j)).value <= bound


_FACTOR_SHAPES = st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)])


class TestMaxRuleProperty:
    """s*(A x B) = max(s*(A), s*(B)) on products of random 2x2 to 3x3
    factors, derandomized so that tier-1 draws the same examples on every
    run.  An ascent that stops early falls short here first."""

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), shape_a=_FACTOR_SHAPES, shape_b=_FACTOR_SHAPES)
    def test_product_meets_max_rule(self, seed, shape_a, shape_b):
        rng = np.random.default_rng(seed)
        a, b = random_joint(rng, *shape_a), random_joint(rng, *shape_b)
        s_max = max(sstar(a).value, sstar(b).value)
        assert abs(sstar(product(a, b)).value - s_max) <= 1e-12


def _kernel_args(j):
    return j.pxy / j.px[:, None], j.px, j.py


class TestRatioKernel:
    """The ascent's batch kernel: its gradient is the ratio's derivative, and
    a column's value and gradient do not depend on the batch around it."""

    @pytest.mark.parametrize("shape", [(3, 4), (4, 4)])
    def test_gradient_matches_central_differences(self, shape):
        rng = np.random.default_rng(11)
        j = random_joint(rng, *shape)
        nx = shape[0]
        R = rng.dirichlet(np.full(nx, 5.0), size=4).T  # interior columns
        grads = _gradient(R, *_kernel_args(j))
        h = 1e-6  # truncation error ~1e-10 here, rounding ~1e-10
        for r, g in zip(R.T, grads.T):
            for _ in range(3):
                v = rng.normal(size=nx)
                v -= v.mean()  # tangent to the simplex
                v /= np.abs(v).max()
                up = kl_ratio(j, PMF(j.x_labels, r + h * v))
                down = kl_ratio(j, PMF(j.x_labels, r - h * v))
                assert g @ v == pytest.approx((up - down) / (2 * h), abs=1e-8)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 4)])
    def test_row_alone_matches_row_in_batch(self, shape):
        rng = np.random.default_rng(12)
        j = random_joint(rng, *shape)
        args = _kernel_args(j)
        R = rng.dirichlet(np.ones(shape[0]), size=50).T
        vals, grads = _values(R, *args), _gradient(R, *args)
        for r, val, g in zip(R.T, vals, grads.T):
            alone_val = _values(r[:, None], *args)[0]
            alone_g = _gradient(r[:, None], *args)[:, 0]
            assert abs(alone_val - val) <= 1e-13 * abs(val)
            assert np.abs(alone_g - g).max() <= 1e-13 * np.abs(g).max()


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


class TestDataProcessingProperty:
    """The paper's inequality I(U;Y) <= s* I(U;X) for binary U on random
    2 x k joints, derandomized so that tier-1 draws the same examples on
    every run."""

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ny=st.integers(2, 4))
    def test_binary_u_ratio_below_sstar(self, seed, ny):
        rng = np.random.default_rng(seed)
        j = random_joint(rng, 2, ny)
        a, b = rng.uniform(0.0, 1.0, size=2)
        while abs(a - b) < 1e-3:
            a, b = rng.uniform(0.0, 1.0, size=2)
        stats = ratio_for_u(j, binary_u_from_conditionals(j, a, b))
        assert stats.ratio <= sstar(j).value + 1e-9


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


_SSTAR = importlib.import_module("infodep.sstar")  # the package exports the function


def _finish_at_p_x(j, monkeypatch):
    # a Newton finish that ends at p(x) must trip the excluded-neighbourhood check
    monkeypatch.setattr(
        _SSTAR, "_newton_finish", lambda r, value, den, W, px, py: (px, value, True, 0.0)
    )
    sstar(j)


def _mutual_information_off(j, monkeypatch):
    # the explicit joints' mutual information disagrees with the KL mixture
    monkeypatch.setattr(
        _SSTAR, "mutual_information", lambda joint, base: 1.0 + mutual_information(joint, base)
    )
    ratio_for_u(j, binary_u_from_conditionals(j, 0.1, 0.4))


_OTHER = binary_pmf(0.5, labels=("a", "b"))


class TestRefusals:
    """Input refusals and cross-check failures, each with its exception
    class and exit code; the cross-checks are reached by patching the route
    they check."""

    @pytest.mark.parametrize(
        "call, error, code, says",
        [
            (lambda j, mp: UDecomposition(binary_pmf(0.5), (binary_pmf(0.3), _OTHER)),
             LabelMismatch, 2, "share one X alphabet"),
            (lambda j, mp: ratio_for_u(j, UDecomposition(binary_pmf(0.5), (_OTHER, _OTHER))),
             LabelMismatch, 2, "X alphabet"),
            (lambda j, mp: ratio_for_u(
                j, UDecomposition(binary_pmf(1.0), (marginals(j)[0], binary_pmf(0.3)))),
             ValidationError, 2, "at least 2 values of positive weight"),
            (lambda j, mp: perturbation_sequence(j, _OTHER, [0.1]),
             LabelMismatch, 2, r"r\* is not on"),
            (lambda j, mp: perturbation_sequence(j, binary_pmf(0.0), [0.0]),
             ValidationError, 2, r"eps must be in \(0, 1\)"),
            (lambda j, mp: perturbation_sequence(j, binary_pmf(0.0), [1.0]),
             ValidationError, 2, r"eps must be in \(0, 1\)"),
            (_finish_at_p_x, NumericalError, 4, "excluded neighborhood"),
            (_mutual_information_off, NumericalError, 4, "cross-check"),
        ],
        ids=[
            "U conditionals on two alphabets", "ratio_for_u foreign alphabet",
            "ratio_for_u one positive weight", "perturbation foreign alphabet",
            "eps 0", "eps 1", "sstar excluded neighborhood",
            "ratio_for_u mutual information",
        ],
    )
    def test_refused(self, fig2, monkeypatch, call, error, code, says):
        with pytest.raises(error, match=says) as exc:
            call(fig2, monkeypatch)
        assert type(exc.value) is error and exc.value.exit_code == code
