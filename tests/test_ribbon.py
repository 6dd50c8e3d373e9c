"""Unit tests for the hypercontractivity ribbon boundary and its slopes."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    maximal_correlation,
    q_star,
    q_star_curve,
    slope_at_one,
    sstar,
    transpose,
)
from infodep.ribbon import (
    GAP_CONV_TOL,
    GAP_MAX_ITER,
    GAP_RESTARTS,
    GAP_TOL,
    QSTAR_MAX_P,
    _anderson_step,
    _crossing,
    _gap,
    _logsumexp,
    _q_star,
)
from conftest import random_independent, random_joint

#: the accuracy the bisection q_star was run to (the width of its final
#: bracket), kept as the bound on comparisons with it and with closed forms
BISECTION_WIDTH = 1e-4


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
    # |Y| = 9 > 8, so the gap draws GAP_RESTARTS Dirichlet seeds instead of 288
    wide = np.random.default_rng(9).dirichlet(np.ones(18)).reshape(2, 9)
    return {
        "fig2": builtin("fig2"),
        "remark3": builtin("remark3"),
        "identity": joint_from_matrix([[0.5, 0.0], [0.0, 0.5]], (0, 1), (0, 1)),
        "seeded 3x3": joint_from_matrix(seeded, (0, 1, 2), (0, 1, 2)),
        "seeded 2x9": joint_from_matrix(wide, (0, 1), tuple(range(9))),
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
        """The bisection q_star ran before its witness crossings, with every
        probe a full contraction_gap run: the upper end of a
        BISECTION_WIDTH bracket."""
        if contraction_gap(j, p, 1.0 + BISECTION_WIDTH) <= GAP_TOL:
            return 1.0
        lo, hi = 1.0, p
        for _ in range(60):
            if hi - lo <= BISECTION_WIDTH:
                break
            mid = 0.5 * (lo + hi)
            if contraction_gap(j, p, mid) <= GAP_TOL:
                hi = mid
            else:
                lo = mid
        return hi

    @pytest.mark.parametrize("name, p", [("fig2", 2.0), ("remark3", 4.0)])
    def test_q_star_agrees_with_full_gap_bisection(self, name, p):
        j = builtin(name)
        assert abs(q_star(j, p) - self._reference_q_star(j, p)) <= BISECTION_WIDTH


class TestSweepCount:
    """_gap and _q_star also return the sweeps they ran, so a run that ends
    at the GAP_MAX_ITER cap without converging shows.  The fig2 probes at
    p = 1.5 were recorded when the Anderson mix replaced the plain sweep
    update, which ran 1, 122 and 300 sweeps at q = 1.25, 1.375 and 1.3125
    (the last now converges after 21); q = 1.302734375, 7.9e-4 above
    q*(1.5), still ends at the cap, on a |Y| = 3 column that wanders.

    On a binary Y alphabet the two residual differences of a column are
    parallel, so every column takes the one-term mix.  When a column that
    failed the 2x2 test took the plain step instead, q*(remark3, 4) ran 269
    sweeps and the fig2 probe at (128, 80) ended at the cap."""

    @pytest.mark.parametrize(
        "q, sweeps",
        [(1.25, 1), (1.375, 13), (1.3125, 21), (1.302734375, GAP_MAX_ITER)],
        ids=["crosses in its first sweep", "converges", "converges near q*", "ends at the cap"],
    )
    def test_in_ribbon_probe(self, fig2, q, sweeps):
        gap, ran = _gap(fig2, 1.5, q, GAP_TOL, 0)
        assert ran == sweeps
        assert (gap > GAP_TOL) == (q == 1.25)

    def test_binary_alphabet_converges(self, fig2, remark3):
        assert _q_star(remark3, 4.0, seed=0)[3] == 18
        assert _gap(fig2, 128.0, 80.0, np.inf, 0)[1] == 26

    def test_exact_cases_run_no_sweep(self, fig2):
        assert _gap(fig2, 1.0, 1.0, GAP_TOL, 0) == (0.0, 0)
        assert _gap(fig2, 2.0, 1.0, np.inf, 0)[1] == 0


def _plain_gap(j, p: float, q: float) -> tuple[float, int]:
    """The reference route: the contraction-gap sweeps with the plain
    fixed-point update and no mixing, run to convergence or the cap, with
    the seeds, tolerances and seed draws of ``contraction_gap`` (seed 0).
    It returns the gap and the sweeps run; 1 < q <= p only."""
    ny = j.shape[1]
    with np.errstate(divide="ignore"):
        logW = np.log(j.pxy / j.px[:, None])[:, :, None]
        logB = np.log(j.pxy / j.py[None, :])[:, :, None]
    logpx, logpy = np.log(j.px)[:, None], np.log(j.py)[:, None]
    cols = [np.full((ny, ny), -np.inf), np.zeros((ny, 1))]
    np.fill_diagonal(cols[0], 0.0)
    n_seeds = 288 if ny <= 8 else GAP_RESTARTS
    cols.append(np.log(np.random.default_rng(0).dirichlet(np.ones(ny), size=n_seeds).T))

    def normalize(lg):
        return lg - _logsumexp(logpy + q * lg, axis=0) / q

    best = -np.inf
    with np.errstate(all="ignore"):
        logG = normalize(np.concatenate(cols, axis=1))
        for sweeps in range(1, GAP_MAX_ITER + 1):
            log_tg = _logsumexp(logW + logG, axis=1)
            best = max(best, np.max(_logsumexp(logpx + p * log_tg, axis=0) / p))
            logm = _logsumexp(logB + (p - 1.0) * log_tg[:, None, :], axis=0)
            new = normalize(logm / (q - 1.0))
            moved = np.fmax.reduce(np.abs(new - logG), None)
            logG = new
            if moved < GAP_CONV_TOL:
                break
    return max(float(np.expm1(best)), 0.0), sweeps


#: q*(p) at p = 1.5, 4, 32 and 128 as the bisection q_star used to run gave
#: it, with its defaults (the upper end of a BISECTION_WIDTH bracket)
_BISECTION_QSTAR = {
    "fig2": ("0x1.4d4cp+0", "0x1.66cap+1", "0x1.44a15p+4", "0x1.43a3708p+6"),
    "remark3": ("0x1.03a8p+0", "0x1.14b2p+0", "0x1.26dep+1", "0x1.aca1fep+2"),
    "identity": ("0x1.8p+0", "0x1.0p+2", "0x1.0p+5", "0x1.0p+7"),
    "seeded 3x3": ("0x1.5bp+0", "0x1.8f14p+1", "0x1.7084ep+4", "0x1.6d54074p+6"),
    "seeded 2x9": ("0x1.449p+0", "0x1.496fp+1", "0x1.136dap+4", "0x1.0dc0af4p+6"),
}


class TestPlainSweepCrossCheck:
    """The Anderson-mixed sweeps against the plain sweeps they replaced, on
    a q grid and on the probes just inside q*(p), where the gap is smallest.
    The probes sit below the q* of the bisection q_star used to run
    (``_BISECTION_QSTAR``), so they stay fixed when q_star changes.

    Every iterate of the mix is a feasible g, so a witness the plain sweep
    finds must not be lost.  Where the plain sweep converged, both routes
    reach the same fixed points and the gaps agree to 1e-10 relative.  Where
    it ends at the GAP_MAX_ITER cap its gap is still rising, and the mix,
    which converges there, may find a larger one, but not a smaller one
    beyond rounding: the gap is a norm near 1 minus 1, so its resolution is
    one ulp of 1."""

    @pytest.mark.parametrize("name", list(_ribbon_cases()))
    def test_mix_keeps_every_plain_witness(self, name):
        j = _ribbon_cases()[name]
        for p, at in zip((1.5, 4.0, 32.0, 128.0), _BISECTION_QSTAR[name]):
            near = float.fromhex(at) - 10.0 ** -np.arange(3.0, 8.0)
            for q in np.concatenate([np.linspace(1.0, p, 7)[1:], near[near > 1.0]]):
                ref, ran = _plain_gap(j, p, q)
                gap = contraction_gap(j, p, q)
                if ref > GAP_TOL:
                    assert not in_ribbon(j, p, q), (p, q, ref)
                if ran < GAP_MAX_ITER and max(gap, ref) > 1e-12:
                    assert abs(gap - ref) <= 1e-10 * max(gap, ref), (p, q, gap, ref)
                assert gap >= ref * (1.0 - 1e-10) - np.finfo(float).eps, (p, q, gap, ref)

    def test_reference_runs_the_plain_sweep_counts(self, fig2):
        # the counts TestSweepCount's docstring gives for the plain update
        assert _plain_gap(fig2, 1.5, 1.375)[1] == 122
        assert _plain_gap(fig2, 1.5, 1.3125)[1] == GAP_MAX_ITER


class TestMixGuard:
    """A column whose two residual differences are parallel takes the
    one-term (secant) mix on its latest difference; only a column whose
    latest difference is zero, or whose mix is not finite, takes the plain
    step.  No floating-point warning escapes the sweeps."""

    @staticmethod
    def _history():
        rng = np.random.default_rng(5)
        t0, t1, t2, f0, f1, f2 = (rng.normal(size=(3, 5)) for _ in range(6))
        f1[:, 0] = f2[:, 0] = f0[:, 0]  # both differences zero
        f2[:, 1] = 3.0 * f1[:, 1] - 2.0 * f0[:, 1]  # parallel differences
        f1[:, 2] = f0[:, 2]  # a zero first difference, parallel to any
        return [(t0, f0), (t1, f1), (t2, f2)]

    @staticmethod
    def _normalize(lg):
        return lg - _logsumexp(lg, axis=0)

    def _one_term(self, hist, c):
        """The secant mix of column c on its latest difference pair."""
        (t1, f1), (t2, f2) = ((t[:, c], f[:, c]) for t, f in hist[1:])
        df = f2 - f1
        gamma = np.dot(df, f2) / np.dot(df, df)
        return self._normalize((t2 - gamma * (t2 - t1))[:, None])[:, 0]

    def test_parallel_differences_take_the_one_term_mix(self):
        hist = self._history()
        t2 = hist[2][0]
        with np.errstate(all="raise"):  # a 0/0 or an overflow would raise
            out = _anderson_step(hist, self._normalize)
        assert np.array_equal(out[:, 0], t2[:, 0])
        for c in (1, 2):
            assert np.allclose(out[:, c], self._one_term(hist, c), rtol=1e-12, atol=1e-12)
        assert np.all(np.isfinite(out[:, 3:]))
        assert not np.array_equal(out[:, 3:], t2[:, 3:])

    def test_one_term_mix_solves_a_linear_contraction(self):
        # x -> a + lam (x - a) on each column: every difference is parallel to
        # x0 - a, and the secant step lands on the fixed point a
        rng = np.random.default_rng(7)
        a = self._normalize(rng.normal(size=(4, 3)))
        lam = np.array([0.5, 0.9, 0.994])
        xs = [a + rng.normal(size=(4, 3))]
        for _ in range(3):
            xs.append(a + lam * (xs[-1] - a))
        hist = [(xs[i + 1], xs[i + 1] - xs[i]) for i in range(3)]
        with np.errstate(all="raise"):
            out = _anderson_step(hist, self._normalize)
        # rounding in the differences grows as 1 / (1 - lam)^2 through gamma
        assert np.all(np.abs(out - a) <= 1e-14 / (1.0 - lam) ** 2)
        assert not np.allclose(xs[3], a, rtol=0.0, atol=1e-3)

    def test_columns_with_zero_entries_take_the_plain_step(self):
        hist = self._history()
        t1, t2 = hist[1][0], hist[2][0]
        # g(y) = 0 on two sweeps, in a one-term and a two-term column
        t1[0, [1, 3]] = t2[0, [1, 3]] = -np.inf
        with np.errstate(all="ignore"):
            out = _anderson_step(hist, self._normalize)
        assert np.array_equal(out[:, [0, 1, 3]], t2[:, [0, 1, 3]])
        assert np.all(np.isfinite(out[:, [2, 4]]))
        assert not np.array_equal(out[:, [2, 4]], t2[:, [2, 4]])

    @pytest.mark.parametrize("name", ["independent", "identity", "fig2"])
    def test_finite_without_warnings(self, name, independent, identity_coupling, fig2):
        j = {"independent": independent, "identity": identity_coupling, "fig2": fig2}[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p, q in ((1.5, 1.2), (2.0, 1.5), (4.0, 2.5), (32.0, 20.0), (128.0, 127.0)):
                for stop in (GAP_TOL, np.inf):
                    gap, ran = _gap(j, p, q, stop, 0)
                    assert math.isfinite(gap) and 1 <= ran <= GAP_MAX_ITER
            assert _gap(j, 1.0, 1.0, np.inf, 0) == (0.0, 0)
            assert _gap(j, 4.0, 1.0, np.inf, 0)[1] == 0


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

    @pytest.mark.parametrize("p", [math.nan, math.inf])
    def test_non_finite_or_invalid_arguments_rejected(self, fig2, p):
        with pytest.raises(ValidationError):
            q_star(fig2, p)

    def test_seed_is_keyword_only(self, fig2):
        # a stale positional tol must not silently become a seed
        for call in (q_star, chordal_slope):
            with pytest.raises(TypeError):
                call(fig2, 2.0, 1e-6)
        with pytest.raises(TypeError):
            q_star_curve(fig2, (2.0,), 1e-6)
        with pytest.raises(TypeError):
            slope_at_one(fig2, 0.01, 1e-6)

    def test_p_above_limit_refused_before_any_sweep(self, fig2, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("a contraction-gap sweep ran")

        monkeypatch.setattr("infodep.ribbon._gap", no_sweep)
        p = QSTAR_MAX_P + 1.0
        for call in (
            lambda: q_star(fig2, p),
            lambda: q_star_curve(fig2, (2.0, p)),
            lambda: chordal_slope(fig2, p),
        ):
            with pytest.raises(ValidationError):
                call()

    def test_identity_boundary_is_diagonal(self, identity_coupling):
        assert q_star(identity_coupling, 2.0) == pytest.approx(2.0, abs=1e-3)
        assert q_star(identity_coupling, 3.0) == pytest.approx(3.0, abs=1e-3)

    def test_fig2_at_two(self, fig2):
        assert q_star(fig2, 2.0) == pytest.approx(1.600769, abs=2e-3)

    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.4])
    @pytest.mark.parametrize("p", [4.0, 16.0, 32.0, 128.0])
    def test_bsc_meets_bonami_beckner(self, eps, p):
        # Bonami 1970, Beckner 1975: with a uniform input, (p, q) is
        # hypercontractive exactly when q - 1 >= (1 - 2 eps)^2 (p - 1)
        exact = 1.0 + (1.0 - 2.0 * eps) ** 2 * (p - 1.0)
        assert abs(q_star(builtin(f"bsc:{eps}"), p) - exact) <= BISECTION_WIDTH

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_bsc_floor_near_one_is_not_rounded_to_one(self, p):
        # q* - 1 = 4e-6 (p - 1) here: only a climb from the floor itself,
        # not from some q above it, can return q*
        exact = 1.0 + (1.0 - 2.0 * 0.499) ** 2 * (p - 1.0)
        assert abs(q_star(builtin("bsc:0.499"), p) - exact) <= 1e-12

    def test_floor_holds_where_the_gap_opens_late(self):
        # s*(X;Y) is close to rho^2 here: a probe just below q* reads "in"
        j = random_joint(np.random.default_rng(2057433282), 3, 2)
        p = 25.18
        floor = 1.0 + maximal_correlation(j).rho ** 2 * (p - 1.0)
        assert q_star(j, p) >= floor

    def test_reaches_the_witness_above_the_floor(self):
        # the same joint: a g with gap 1.9e-10 (60 digits) at q = 5.7815050,
        # where the bisection stopped 1.2e-6 above the floor 5.7815038,
        # crosses at q = 5.78166, so q* is at least that
        j = random_joint(np.random.default_rng(2057433282), 3, 2)
        assert q_star(j, 25.18) >= 5.78165

    @pytest.mark.parametrize(
        "table, shape", [([[0.2, 0.3, 0.5]], (1, 3)), ([[0.2], [0.3], [0.5]], (3, 1))]
    )
    def test_single_symbol_alphabet_collapses(self, table, shape):
        j = joint_from_matrix(table, range(shape[0]), range(shape[1]))
        assert q_star(j, 4.0) == 1.0

    def test_within_bounds_random(self):
        rng = np.random.default_rng(83)
        j = random_joint(rng, 2, 2)
        for p in (1.5, 4.0):
            q = q_star(j, p)
            assert 1.0 <= q <= p


def _linear_norms(j, log_g, p: float, q: float) -> tuple[float, float]:
    """||E[g(Y)|X]||_p and ||g(Y)||_q of g = exp(log_g), scaled to max 1,
    each sum a math.fsum in linear space."""
    g = np.exp(log_g - np.max(log_g))
    W = j.pxy / j.px[:, None]
    tg = [math.fsum(row * g) for row in W]
    lhs = math.fsum(px * t**p for px, t in zip(j.px, tg)) ** (1.0 / p)
    return lhs, math.fsum(j.py * g**q) ** (1.0 / q)


def _log_q_norm(log_g, py, q: float) -> float:
    """log ||g||_q under py, as one math.fsum in linear space."""
    top = max(log_g)
    return top + math.log(math.fsum(w * math.exp(q * (x - top)) for w, x in zip(py, log_g))) / q


class TestCrossing:
    """_crossing against a plain bisection of each column's crossing."""

    @staticmethod
    def _columns():
        rng = np.random.default_rng(7)
        py = rng.dirichlet(np.ones(4))
        logG = rng.normal(size=(4, 6))
        logG[2, 1] = -np.inf  # g(y) = 0
        logG[:, 5] = [-np.inf, 0.0, -np.inf, -np.inf]  # an indicator
        lo, hi = 1.5, 9.0
        # a log ||E[g|X]||_p between the column's norms at lo and hi
        at = rng.uniform(0.1, 0.9, size=6)
        norms = [(1 - t) * _log_q_norm(c, py, lo) + t * _log_q_norm(c, py, hi)
                 for t, c in zip(at, logG.T)]
        return logG, np.array(norms), py, lo, hi

    @staticmethod
    def _bisect(log_g, py, norm, lo, hi):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _log_q_norm(log_g, py, mid) <= norm:
                lo = mid
            else:
                hi = mid
        return lo

    @pytest.mark.parametrize("drop", [[], [0, 2, 3]])
    def test_largest_crossing_and_its_column(self, drop):
        logG, norms, py, lo, hi = self._columns()
        keep = [c for c in range(logG.shape[1]) if c not in drop]
        logG, norms = logG[:, keep], norms[keep]
        ref = [self._bisect(c, py, n, lo, hi) for c, n in zip(logG.T, norms)]
        with np.errstate(all="ignore"):
            q, col = _crossing(logG, norms, np.log(py), lo, hi)
        assert col == int(np.argmax(ref))
        assert abs(q - max(ref)) <= 1e-12 * q
        # the left end of the bracket: g still witnesses q* >= q
        assert _log_q_norm(logG[:, col], py, q) <= norms[col] + 1e-15

    def test_column_beyond_hi_crosses_at_hi(self):
        logG, norms, py, lo, hi = self._columns()
        norms[3] = _log_q_norm(logG[:, 3], py, hi) + 1e-9
        with np.errstate(all="ignore"):
            assert _crossing(logG, norms, np.log(py), lo, hi) == (hi, 3)

    @staticmethod
    def _f_and_slope(log_g, py, norm, q):
        """f(q) = log E[g^q] - q norm and f'(q), each sum a math.fsum."""
        top = max(log_g)
        w = [p * math.exp(q * (x - top)) for p, x in zip(py, log_g)]
        total = math.fsum(w)
        slope = math.fsum(wi * x for wi, x in zip(w, log_g) if wi > 0.0) / total
        return q * top + math.log(total) - q * norm, slope - norm

    def _check_single(self, log_g, py, norm, lo, hi, ncols=1):
        """_crossing on ``ncols`` copies of one column against its bisection."""
        ref = self._bisect(log_g, py, norm, lo, hi)
        assert lo < ref < hi
        with np.errstate(all="ignore"):
            q, col = _crossing(np.repeat(log_g[:, None], ncols, axis=1),
                               np.full(ncols, norm), np.log(py), lo, hi)
        assert col == 0
        assert abs(q - ref) <= 1e-12 * q, (q, ref)

    #: a g that is large on one rare symbol: f dips before it rises
    _PEAKED = np.array([2.0, 0.0, 0.0, 0.0]), np.array([0.01, 0.33, 0.33, 0.33])

    def test_slope_at_lo_not_positive_falls_back_to_hi(self):
        log_g, py = self._PEAKED
        lo, hi, norm = 1.5, 9.0, 0.5
        f, slope = self._f_and_slope(log_g, py, norm, lo)
        assert f < 0.0 and slope <= 0.0
        self._check_single(log_g, py, norm, lo, hi)

    def test_tangent_root_beyond_hi_falls_back_to_hi(self):
        log_g, py = self._PEAKED
        lo, hi, norm = 1.5, 9.0, 0.32
        f, slope = self._f_and_slope(log_g, py, norm, lo)
        assert f < 0.0 and slope > 0.0 and lo - f / slope > hi
        self._check_single(log_g, py, norm, lo, hi)

    @pytest.mark.parametrize("ncols", [1, 2])
    def test_near_linear_column_returns_its_crossing(self, ncols):
        # a g near the constant whose crossing lies just above lo: f is so
        # near linear there that the tangent at lo, or the first Newton step
        # from it, lands within rounding of the crossing, where the sign of f
        # is noise.  A bracket that stops when neither of its steps moves it
        # returns a left end far short of the crossing there (seeds 2, 3 and
        # 26), and two identical columns stall together
        lo, hi = 7.0, 10.0
        for seed in range(32):
            rng = np.random.default_rng(seed)
            py, log_g = rng.dirichlet(np.ones(10)), 0.1 * rng.normal(size=10)
            for rel in 10.0 ** -np.arange(3.0, 9.0):
                norm = _log_q_norm(log_g, py, lo * (1.0 + rel))
                self._check_single(log_g, py, norm, lo, hi, ncols)

    @pytest.mark.parametrize("p", [1.5, 4.0, 32.0])
    @pytest.mark.parametrize("name", ["fig2", "remark3", "seeded 3x3"])
    def test_every_crossing_of_a_climb(self, name, p, monkeypatch):
        j = _ribbon_cases()[name]
        calls = []

        def record(*args):
            calls.append((args, _crossing(*args)))
            return calls[-1][1]

        monkeypatch.setattr("infodep.ribbon._crossing", record)
        _q_star(j, p, seed=0)
        assert calls
        for (logG, norms, _, lo, hi), (q, col) in calls:
            # the largest crossing: its column crosses at q, and no column
            # still lies below its norm just above q
            ref = self._bisect(logG[:, col], j.py, norms[col], lo, hi)
            assert abs(q - ref) <= 1e-12 * q, (q, ref)
            if q < hi:
                above = q * (1.0 + 1e-12)
                assert all(_log_q_norm(c, j.py, above) > n for c, n in zip(logG.T, norms))
            # and its g still witnesses q* >= q: ||g||_q <= ||E[g|X]||_p, to
            # two ulps of the fsum norms (the most seen is one)
            lhs, rhs = _linear_norms(j, logG[:, col], p, q)
            assert rhs <= lhs * (1.0 + 4e-16), (lhs, rhs)


class TestQStarWitness:
    """q_star is the crossing of the g that _q_star returns: at q*,
    ||g||_q = ||E[g|X]||_p, and just below it ||g||_q is smaller, so g
    violates every (p, q) with q < q* and the estimate is a lower bound."""

    @staticmethod
    def _check_witness(name, p):
        j = _ribbon_cases()[name]
        q, log_g, steps, sweeps = _q_star(j, p, seed=0)
        assert q == q_star(j, p) and 1 <= steps <= sweeps
        lhs, rhs = _linear_norms(j, log_g, p, q)
        assert abs(lhs / rhs - 1.0) <= 1e-12, (lhs, rhs)
        assert lhs > _linear_norms(j, log_g, p, q - 1e-6)[1]

    @pytest.mark.parametrize("p", [1.5, 4.0, 32.0])
    @pytest.mark.parametrize("name", ["fig2", "remark3", "seeded 3x3"])
    def test_answer_is_the_crossing_of_its_witness(self, name, p):
        self._check_witness(name, p)

    @pytest.mark.parametrize("name, p", [("remark3", 1.001), ("fig2", 1.00001)])
    def test_near_one_answer_is_the_crossing_of_its_witness(self, name, p):
        # q* - 1 is 3e-5 and 6.3e-6 here, and a witness still clears the
        # 1e-12 gap test
        self._check_witness(name, p)

    def test_exact_one_has_no_witness(self, independent):
        assert _q_star(independent, 4.0, seed=0) == (1.0, None, 0, 0)
        assert _q_star(builtin("fig2"), 1.0, seed=0) == (1.0, None, 0, 0)


#: a seeded 2x2 to 3x3 Dirichlet joint and an order p in [1.2, 32]
_JOINT_AND_ORDER = dict(
    seed=st.integers(0, 2**32 - 1),
    nx=st.integers(2, 3),
    ny=st.integers(2, 3),
    p=st.floats(1.2, 32.0),
)


class TestQStarProperties:
    """q*(p) between the rho^2 slope floor and the diagonal, derandomized so
    that tier-1 draws the same examples on every run.

    The floor binds the true q*, and q_star starts at it and only moves up,
    so no answer lies under it, however close to 1 the floor is."""

    @staticmethod
    def _check_between(seed, nx, ny, p):
        j = random_joint(np.random.default_rng(seed), nx, ny)
        rho = maximal_correlation(j).rho
        floor = 1.0 + rho * rho * (p - 1.0)
        assert floor <= q_star(j, p) <= p

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(**_JOINT_AND_ORDER)
    def test_between_slope_floor_and_diagonal(self, seed, nx, ny, p):
        self._check_between(seed, nx, ny, p)

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(**{**_JOINT_AND_ORDER, "p": st.floats(1.0, 1.001, exclude_min=True)})
    def test_between_slope_floor_and_diagonal_near_one(self, seed, nx, ny, p):
        self._check_between(seed, nx, ny, p)

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(**_JOINT_AND_ORDER)
    def test_independent_collapses(self, seed, nx, ny, p):
        assert q_star(random_independent(np.random.default_rng(seed), nx, ny), p) == 1.0


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

    def test_slope_never_below_rho_squared(self, fig2):
        # the second row of `infodep ribbon fig2 --steps 4 --pmax 8`: the
        # plain sweeps ended a probe below q* at the cap before its gap
        # passed GAP_TOL, and the slope read 0.599975586 < rho^2 = 0.6
        p = 1.5 * (8.0 / 1.5) ** (1.0 / 3.0)
        assert chordal_slope(fig2, p) >= maximal_correlation(fig2).rho ** 2

    def test_chordal_slope_rejects_p_one(self, fig2):
        with pytest.raises(PEqualsOne):
            chordal_slope(fig2, 1.0)

    def test_slope_at_one_matches_reverse_sstar(self, remark3):
        slope = slope_at_one(remark3, eps=0.01)
        s_yx = sstar(transpose(remark3)).value
        assert slope == pytest.approx(s_yx, abs=1e-3)

    @pytest.mark.parametrize(
        "name, eps",
        [("fig2", 1e-4), ("fig2", 1e-5), ("fig2", 1e-6),
         ("remark3", 1e-3), ("remark3", 1e-4), ("remark3", 1e-5)],
    )
    def test_slope_near_one_stays_on_reverse_sstar(self, name, eps):
        # q* - 1 is at most 6.3e-5 here; the slope must neither fall to the
        # floor nor below it
        j = builtin(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slope = slope_at_one(j, eps)
        assert maximal_correlation(j).rho ** 2 <= slope
        assert abs(slope - sstar(transpose(j)).value) <= 1e-3

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
