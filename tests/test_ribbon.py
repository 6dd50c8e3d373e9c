"""Unit tests for the hypercontractivity ribbon boundary and its slopes."""

import math

import numpy as np
import pytest

from infodep import (
    BadOrder,
    PEqualsOne,
    ValidationError,
    binary_rho_squared,
    builtin,
    chordal_slope,
    conjugate,
    contraction_gap,
    in_ribbon,
    joint_from_matrix,
    q_star,
    q_star_curve,
    slope_at_one,
    sstar,
    transpose,
)
from infodep.ribbon import (
    GAP_MAX_ITER,
    GAP_TOL,
    QSTAR_MAX_BISECT,
    QSTAR_TOL,
    _gap,
    _logsumexp,
)
from conftest import random_joint


class TestContractionGap:
    def test_independent_has_no_gap(self, independent):
        assert contraction_gap(independent, 2.0, 1.5) <= 1e-9
        assert contraction_gap(independent, 8.0, 2.0) <= 1e-9

    def test_equal_orders_contract(self):
        rng = np.random.default_rng(81)
        for _ in range(3):
            j = random_joint(rng, 2, 3)
            for p in (1.5, 3.0):
                assert contraction_gap(j, p, p) <= 1e-9

    def test_identity_coupling_gap(self, identity_coupling):
        gap = contraction_gap(identity_coupling, 2.0, 1.5)
        assert gap == pytest.approx(0.12246204830937309, abs=1e-6)

    def test_identity_coupling_q_equals_one_branch(self, identity_coupling):
        gap = contraction_gap(identity_coupling, 2.0, 1.0)
        assert gap == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_p_equals_one_is_zero(self, fig2):
        assert contraction_gap(fig2, 1.0, 1.0) == 0.0

    def test_fig2_outside_ribbon(self, fig2):
        assert contraction_gap(fig2, 21.0, 12.0) > 1e-4

    def test_order_validation(self, fig2):
        with pytest.raises(BadOrder):
            contraction_gap(fig2, 2.0, 2.5)
        with pytest.raises(ValidationError):
            contraction_gap(fig2, 0.5, 0.5)

    @pytest.mark.parametrize(
        "p, q", [(math.nan, 1.5), (2.0, math.nan), (math.inf, 2.0), (math.inf, math.inf)]
    )
    def test_non_finite_orders_rejected(self, fig2, p, q):
        with pytest.raises(ValidationError):
            contraction_gap(fig2, p, q)
        with pytest.raises(ValidationError):
            in_ribbon(fig2, p, q)


def _fsum_logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """Reference log-sum-exp: one exactly rounded math.fsum per slice."""
    moved = np.moveaxis(a, axis, -1)
    out = np.empty(moved.shape[:-1])
    for idx in np.ndindex(out.shape):
        v = moved[idx]
        top = v.max()
        out[idx] = -math.inf if top == -math.inf else top + math.log(
            math.fsum(math.exp(x - top) for x in v)
        )
    return out


#: +inf, nan, +inf with nan, all -inf and finite slices along either axis
NON_FINITE = np.array(
    [
        [0.5, np.inf, -1.0, -np.inf, 3.0, 0.0],
        [-2.0, 1.0, np.nan, -np.inf, 0.0, 1.5],
        [-np.inf, -np.inf, -np.inf, -np.inf, -np.inf, -np.inf],
        [1.0, -0.5, 2.0, -np.inf, -4.0, -2.5],
        [np.inf, -1.0, np.nan, -np.inf, np.inf, 0.75],
    ]
)
#: the log-sum-exp of NON_FINITE along axis 0 and 1, as the helper gave when it
#: still replaced every non-finite slice maximum by a zero shift
NON_FINITE_LSE = (
    ("inf", "inf", "nan", "-inf", "inf", "0x1.04f4c9b5202a3p+1"),
    ("inf", "nan", "-inf", "0x1.30c03ba801d31p+1", "nan"),
)


class TestLogSumExp:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_slices(self, axis):
        # any floating-point warning fails the test (see pyproject.toml)
        got = _logsumexp(NON_FINITE, axis=axis)
        want = np.array([float.fromhex(x) for x in NON_FINITE_LSE[axis]])
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_matches_fsum_reference(self, axis):
        rng = np.random.default_rng(17)
        for lo, hi in ((-1500.0, -800.0), (-40.0, -10.0), (600.0, 900.0)):
            a = rng.uniform(lo, hi, size=(4, 5, 6))
            a[rng.random(a.shape) < 0.3] = -np.inf
            a[:, 2, 3] = -np.inf  # an all -inf slice along either axis
            a[1, :, 3] = -np.inf
            got = _logsumexp(a, axis=axis)
            ref = _fsum_logsumexp(a, axis)
            assert np.array_equal(np.isneginf(got), np.isneginf(ref))
            assert np.isneginf(got).any()
            fin = np.isfinite(ref)
            assert np.all(np.abs(got[fin] - ref[fin]) <= 1e-14 * np.abs(ref[fin]))


def _ribbon_cases():
    rng = np.random.default_rng(29)
    seeded = rng.dirichlet(np.ones(9)).reshape(3, 3)
    return {
        "fig2": builtin("fig2"),
        "remark3": builtin("remark3"),
        "identity": joint_from_matrix([[0.5, 0.0], [0.0, 0.5]], (0, 1), (0, 1)),
        "seeded 3x3": joint_from_matrix(seeded, (0, 1, 2), (0, 1, 2)),
    }


class TestEarlyExit:
    """in_ribbon stops its sweeps at the first gap above tol; the answer must
    stay the one the full contraction_gap run gives."""

    @pytest.mark.parametrize("name", ["fig2", "remark3", "identity", "seeded 3x3"])
    def test_in_ribbon_matches_full_gap(self, name):
        j = _ribbon_cases()[name]
        for p in (1.5, 4.0, 32.0):
            # a grid, and the probes just inside q*(p) where the gap is smallest
            near = q_star(j, p) - 10.0 ** -np.arange(3.0, 8.0)
            for q in np.concatenate([np.linspace(1.0, p, 13), near[near >= 1.0]]):
                assert in_ribbon(j, p, q) == (contraction_gap(j, p, q) <= GAP_TOL), (p, q)

    @staticmethod
    def _reference_q_star(j, p):
        """q_star's bisection, with every probe a full contraction_gap run."""
        if contraction_gap(j, p, 1.0 + QSTAR_TOL) <= GAP_TOL:
            return 1.0
        lo, hi = 1.0, p
        for _ in range(QSTAR_MAX_BISECT):
            if hi - lo <= QSTAR_TOL:
                break
            mid = 0.5 * (lo + hi)
            if contraction_gap(j, p, mid) <= GAP_TOL:
                hi = mid
            else:
                lo = mid
        return hi

    @pytest.mark.parametrize("name, p", [("fig2", 2.0), ("remark3", 4.0)])
    def test_q_star_equals_full_gap_bisection(self, name, p):
        j = builtin(name)
        assert q_star(j, p) == self._reference_q_star(j, p)


class TestSweepCount:
    """_gap also returns the sweeps it ran, so a probe that ends at the
    GAP_MAX_ITER cap without converging shows.  The counts were recorded
    before the sweep kernel was rewritten for speed: it must run the same
    sweeps."""

    @pytest.mark.parametrize(
        "q, sweeps",
        [(1.25, 1), (1.375, 122), (1.3125, GAP_MAX_ITER)],
        ids=["crosses in its first sweep", "converges", "ends at the cap"],
    )
    def test_in_ribbon_probe(self, fig2, q, sweeps):
        gap, ran = _gap(fig2, 1.5, q, GAP_TOL, 0)
        assert ran == sweeps
        assert (gap > GAP_TOL) == (q == 1.25)

    def test_exact_cases_run_no_sweep(self, fig2):
        assert _gap(fig2, 1.0, 1.0, GAP_TOL, 0) == (0.0, 0)
        assert _gap(fig2, 2.0, 1.0, np.inf, 0)[1] == 0


class TestInRibbon:
    def test_independent_everywhere(self, independent):
        assert in_ribbon(independent, 2.0, 1.2)
        assert in_ribbon(independent, 8.0, 7.0)

    def test_identity_only_on_diagonal(self, identity_coupling):
        assert in_ribbon(identity_coupling, 2.0, 2.0)
        assert not in_ribbon(identity_coupling, 2.0, 1.5)

    def test_trivial_corner(self, fig2):
        assert in_ribbon(fig2, 1.0, 1.0)

    def test_seed_reaches_every_probe(self, fig2):
        # the seed draws the Dirichlet starts, so it moves the gap estimate
        assert contraction_gap(fig2, 2.0, 1.6, seed=3) != contraction_gap(fig2, 2.0, 1.6)
        curve = q_star_curve(fig2, (2.0, 4.0), seed=3)
        assert curve.qstars.tolist() == [q_star(fig2, p, seed=3) for p in (2.0, 4.0)]
        for q in (1.2, 1.5, 1.6, 1.65, 1.9):
            gap = contraction_gap(fig2, 2.0, q, seed=3)
            assert in_ribbon(fig2, 2.0, q, seed=3) == (gap <= GAP_TOL), q


class TestQStar:
    def test_independent_collapses(self, independent):
        assert q_star(independent, 2.0) == 1.0
        assert q_star(independent, 8.0) == 1.0

    def test_p_equals_one(self, fig2):
        assert q_star(fig2, 1.0) == 1.0

    def test_p_below_one_rejected(self, fig2):
        with pytest.raises(ValidationError):
            q_star(fig2, 0.9)

    @pytest.mark.parametrize(
        "p, tol",
        [
            (math.nan, QSTAR_TOL),
            (math.inf, QSTAR_TOL),
            (2.0, math.nan),
            (2.0, math.inf),
            (2.0, -1.0),
            (2.0, 0.0),
        ],
    )
    def test_non_finite_or_invalid_arguments_rejected(self, fig2, p, tol):
        with pytest.raises(ValidationError):
            q_star(fig2, p, tol)

    def test_identity_boundary_is_diagonal(self, identity_coupling):
        assert q_star(identity_coupling, 2.0) == pytest.approx(2.0, abs=1e-3)
        assert q_star(identity_coupling, 3.0) == pytest.approx(3.0, abs=1e-3)

    def test_fig2_at_two(self, fig2):
        assert q_star(fig2, 2.0) == pytest.approx(1.600769, abs=2e-3)

    def test_within_bounds_random(self):
        rng = np.random.default_rng(83)
        j = random_joint(rng, 2, 2)
        for p in (1.5, 4.0):
            q = q_star(j, p)
            assert 1.0 <= q <= p


class TestQStarCurve:
    def test_monotone_normalized_boundary(self, fig2):
        ps = (1.5, 2.0, 4.0)
        curve = q_star_curve(fig2, ps)
        ratios = [q / p for p, q in zip(curve.ps, curve.qstars)]
        for earlier, later in zip(ratios, ratios[1:]):
            assert later <= earlier + 1e-3

    def test_slopes_dominate_rho_squared(self, fig2):
        curve = q_star_curve(fig2, (2.0, 4.0))
        rho2 = binary_rho_squared(fig2)
        for s in curve.slopes:
            assert s >= rho2 - 5e-3

    def test_requires_increasing_orders(self, fig2):
        with pytest.raises(ValidationError):
            q_star_curve(fig2, (2.0, 2.0))
        with pytest.raises(ValidationError):
            q_star_curve(fig2, (1.0, 2.0))


class TestSlopes:
    def test_chordal_slope_definition(self, fig2):
        q = q_star(fig2, 2.0)
        assert chordal_slope(fig2, 2.0) == pytest.approx(q - 1.0, abs=1e-12)

    def test_chordal_slope_rejects_p_one(self, fig2):
        with pytest.raises(PEqualsOne):
            chordal_slope(fig2, 1.0)

    def test_slope_at_one_matches_reverse_sstar(self, remark3):
        slope = slope_at_one(remark3, eps=0.01, tol=1e-6)
        s_yx = sstar(transpose(remark3)).value
        assert slope == pytest.approx(s_yx, abs=1e-3)

    def test_slope_at_one_eps_validation(self, fig2):
        with pytest.raises(ValidationError):
            slope_at_one(fig2, eps=0.0)
        with pytest.raises(ValidationError):
            slope_at_one(fig2, eps=0.7)


class TestDuality:
    def test_boundary_maps_to_transposed_boundary(self, fig2):
        p = 3.0
        q = q_star(fig2, p)
        assert q > 1.0
        dual_p = conjugate(q)
        dual_q = q_star(transpose(fig2), dual_p)
        assert dual_q == pytest.approx(conjugate(p), abs=5e-3)

    def test_interior_point_stays_interior_under_duality(self, fig2):
        p = 2.0
        q_in = 0.5 * (q_star(fig2, p) + p)  # between the boundary and q = p
        assert in_ribbon(fig2, p, q_in)
        assert in_ribbon(transpose(fig2), conjugate(q_in), conjugate(p))


class TestConjugate:
    def test_values(self):
        assert conjugate(2.0) == pytest.approx(2.0, abs=1e-15)
        assert conjugate(3.0) == pytest.approx(1.5, abs=1e-15)

    def test_involution(self):
        assert conjugate(conjugate(7.0)) == pytest.approx(7.0, abs=1e-12)

    def test_rejects_one(self):
        with pytest.raises(PEqualsOne):
            conjugate(1.0)
