"""Unit tests for the binary-input entropy curve, its convex hull, and scans."""

import math

import numpy as np
import pytest

from infodep import (
    BoundaryPoint,
    Channel,
    LambdaOutOfRange,
    LogBase,
    NotBinaryInput,
    PMF,
    ValidationError,
    binary_rho_squared,
    builtin,
    channel_of,
    hessian_t_lambda,
    lambda_dagger,
    lower_envelope_1d,
    scan_inputs,
    sstar,
    t_lambda,
    touches_envelope,
)
from conftest import random_joint
from infodep.tcurve import _entropy_grid, _lower_hull

FIG2_SSTAR = 0.6315172029168968


def binary_pmf(p0: float) -> PMF:
    return PMF((0, 1), np.array([p0, 1.0 - p0]))


class TestTLambda:
    def test_fig2_uniform_at_threshold(self, fig2):
        c = channel_of(fig2)
        val = t_lambda(c, binary_pmf(0.5), 0.6)
        assert val == pytest.approx(0.9545851693377997, abs=1e-12)

    def test_fig2_endpoints(self, fig2):
        c = channel_of(fig2)
        h_row0 = -(2 / 3) * math.log2(2 / 3) - (1 / 3) * math.log2(1 / 3)
        assert t_lambda(c, binary_pmf(1.0), 1.0) == pytest.approx(h_row0, abs=1e-12)
        assert t_lambda(c, binary_pmf(0.0), 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_lambda_zero_is_concave(self, fig2):
        c = channel_of(fig2)
        rng = np.random.default_rng(31)
        for _ in range(20):
            a, b = np.sort(rng.uniform(0.0, 1.0, size=2))
            mid = t_lambda(c, binary_pmf((a + b) / 2), 0.0)
            avg = 0.5 * (
                t_lambda(c, binary_pmf(a), 0.0) + t_lambda(c, binary_pmf(b), 0.0)
            )
            assert mid >= avg - 1e-12

    def test_base_conversion(self, fig2):
        c = channel_of(fig2)
        r = binary_pmf(0.3)
        bits = t_lambda(c, r, 0.7, base=LogBase.BITS)
        nats = t_lambda(c, r, 0.7, base=LogBase.NATS)
        assert nats == pytest.approx(bits * math.log(2), abs=1e-12)

    def test_lambda_out_of_range(self, fig2):
        c = channel_of(fig2)
        with pytest.raises(LambdaOutOfRange):
            t_lambda(c, binary_pmf(0.5), -0.1)
        with pytest.raises(LambdaOutOfRange):
            t_lambda(c, binary_pmf(0.5), 1.5)


class TestHessianTLambda:
    def test_fig2_uniform_crossing(self, fig2):
        c = channel_of(fig2)
        r = binary_pmf(0.5)
        at = hessian_t_lambda(c, r, 0.6)
        assert at.shape == (1, 1)
        assert at[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert hessian_t_lambda(c, r, 0.61)[0, 0] == pytest.approx(0.04, abs=1e-12)
        assert hessian_t_lambda(c, r, 0.59)[0, 0] == pytest.approx(-0.04, abs=1e-12)

    def test_boundary_point_rejected(self, fig2):
        c = channel_of(fig2)
        with pytest.raises(BoundaryPoint):
            hessian_t_lambda(c, binary_pmf(0.0), 0.5)

    def test_label_mismatch_rejected(self, fig2):
        c = channel_of(fig2)
        bad = PMF(("u", "v"), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            hessian_t_lambda(c, bad, 0.5)

    def test_quadratic_form_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        h = 1e-4
        for _ in range(10):
            nx = int(rng.integers(2, 5))
            j = random_joint(rng, nx, int(rng.integers(2, 5)))
            c = channel_of(j)
            rvec = 0.5 * rng.dirichlet(np.ones(nx)) + 0.5 / nx
            lam = float(rng.uniform(0.0, 1.0))
            d = rng.normal(size=nx)
            d -= d.mean()
            d /= np.linalg.norm(d)
            hess = hessian_t_lambda(c, PMF(c.x_labels, rvec), lam)
            coords = d[:-1]
            quad = float(coords @ hess @ coords)

            def val(t):
                return t_lambda(c, PMF(c.x_labels, rvec + t * d), lam, base=LogBase.NATS)

            fd = (val(h) - 2.0 * val(0.0) + val(-h)) / h**2
            assert quad == pytest.approx(fd, abs=1e-5)

    def test_psd_at_lambda_one(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            nx = int(rng.integers(2, 5))
            j = random_joint(rng, nx, int(rng.integers(2, 5)))
            c = channel_of(j)
            rvec = 0.5 * rng.dirichlet(np.ones(nx)) + 0.5 / nx
            eigs = np.linalg.eigvalsh(hessian_t_lambda(c, PMF(c.x_labels, rvec), 1.0))
            assert eigs.min() >= -1e-10


def _brute_lower_hull(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Lower convex envelope at each xs[i] as the least chord value over all
    sample pairs a <= i <= b (a = b = i gives the sample itself)."""
    out = np.empty_like(ys)
    for i in range(xs.shape[0]):
        a = np.arange(i + 1)[:, None]
        b = np.arange(i, xs.shape[0])[None, :]
        with np.errstate(invalid="ignore", divide="ignore"):
            w = (xs[i] - xs[a]) / (xs[b] - xs[a])
        chords = np.where(a == b, ys[i], ys[a] + w * (ys[b] - ys[a]))
        out[i] = chords.min()
    return out


class TestLowerHull:
    """The monotone-chain hull against a brute-force minimum over chords."""

    @pytest.mark.parametrize("seed", range(6))
    def test_random_points(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 201))
        xs = np.cumsum(rng.uniform(0.01, 1.0, n))
        ys = rng.normal(size=n)
        np.testing.assert_allclose(_lower_hull(xs, ys), _brute_lower_hull(xs, ys), rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "ys",
        [
            [0.0, 0.0, 0.0, 0.0, 0.0],  # every point on one line
            [1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0],  # repeated y in runs
            [3.0, 2.0, 1.0, 0.0, 1.0, 2.0, 3.0],  # collinear runs on both sides
            [0.0, 1.0, 2.0, 0.0, 2.0, 1.0, 0.0],
            [2.0, 0.0, 0.0, 2.0, 0.0, 0.0, 2.0],
        ],
    )
    def test_collinear_and_tied_points(self, ys):
        ys = np.array(ys)
        xs = np.arange(ys.shape[0], dtype=float)
        np.testing.assert_allclose(_lower_hull(xs, ys), _brute_lower_hull(xs, ys), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 0.7])
    def test_fig2_curve_samples(self, fig2, lam):
        xs, hy, hx = _entropy_grid(channel_of(fig2), 200)
        ys = (hy - lam * hx) * LogBase.BITS.from_nats
        np.testing.assert_allclose(_lower_hull(xs, ys), _brute_lower_hull(xs, ys), rtol=0, atol=1e-12)


class TestLowerEnvelope:
    def test_structure_and_bounds(self, fig2):
        c = channel_of(fig2)
        env = lower_envelope_1d(c, 0.6, grid_n=1024)
        assert env.grid.shape == (1025,)
        assert env.grid[0] == 0.0 and env.grid[-1] == 1.0
        assert np.all(env.hull <= env.curve + 1e-12)
        assert env.hull[0] == pytest.approx(env.curve[0], abs=1e-15)
        assert env.hull[-1] == pytest.approx(env.curve[-1], abs=1e-15)
        second = np.diff(env.hull, 2)
        assert second.min() >= -1e-10

    def test_gap_below_threshold(self, fig2):
        c = channel_of(fig2)
        env = lower_envelope_1d(c, 0.6, grid_n=4096)
        mid = np.argmin(np.abs(env.grid - 0.5))
        assert env.curve[mid] - env.hull[mid] > 1e-6

    def test_convex_lambda_has_trivial_hull(self, fig2):
        c = channel_of(fig2)
        env = lower_envelope_1d(c, 1.0, grid_n=1024)
        np.testing.assert_allclose(env.hull, env.curve, atol=1e-12)

    def test_rejects_small_grid(self, fig2):
        c = channel_of(fig2)
        with pytest.raises(ValidationError):
            lower_envelope_1d(c, 0.5, grid_n=32)

    def test_rejects_wide_input(self):
        rng = np.random.default_rng(2)
        c = channel_of(random_joint(rng, 3, 3))
        with pytest.raises(NotBinaryInput):
            lower_envelope_1d(c, 0.5)


class TestTouchesEnvelope:
    def test_fig2_below_and_above(self, fig2):
        c = channel_of(fig2)
        assert not touches_envelope(c, 0.6)
        assert touches_envelope(c, 0.632, tol=1e-6, grid_n=2**14)
        # Touching is monotone in lambda: adding a multiple of the convex
        # function -H preserves any existing touch, so 0.64 must also touch.
        assert touches_envelope(c, 0.64, tol=1e-6, grid_n=2**14)
        assert touches_envelope(c, 1.0)

    def test_monotone_touch_random_binary(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            j = random_joint(rng, 2, int(rng.integers(2, 5)))
            c = channel_of(j)
            lam0 = lambda_dagger(c)
            for bump in (0.05, 0.2):
                lam = min(1.0, lam0 + bump)
                assert touches_envelope(c, lam)


class TestLambdaDagger:
    def test_fig2_matches_sstar(self, fig2):
        c = channel_of(fig2)
        assert lambda_dagger(c) == pytest.approx(FIG2_SSTAR, abs=1e-3)

    def test_bec_closed_form(self):
        c = channel_of(builtin("bec:0.25"))
        assert lambda_dagger(c) == pytest.approx(0.75, abs=1e-3)

    def test_independent_is_zero(self, independent):
        c = channel_of(independent)
        assert lambda_dagger(c) == 0.0

    def test_grid_doubling_stability(self, fig2):
        c = channel_of(fig2)
        tol = 1e-4
        a = lambda_dagger(c, grid_n=4096)
        b = lambda_dagger(c, grid_n=8192)
        assert abs(a - b) <= tol

    def test_dominates_spectral_threshold(self):
        rng = np.random.default_rng(47)
        for _ in range(5):
            j = random_joint(rng, 2, int(rng.integers(2, 5)))
            c = channel_of(j)
            assert lambda_dagger(c) >= binary_rho_squared(j) - 1e-3

    def test_agrees_with_sstar_random_binary(self):
        rng = np.random.default_rng(53)
        for _ in range(3):
            j = random_joint(rng, 2, 3)
            c = channel_of(j)
            assert lambda_dagger(c) == pytest.approx(
                sstar(j).value, abs=1e-3
            )

    def test_rejects_wide_input_and_coarse_grid(self, fig2):
        rng = np.random.default_rng(2)
        with pytest.raises(NotBinaryInput):
            lambda_dagger(channel_of(random_joint(rng, 3, 3)))
        with pytest.raises(ValidationError):
            lambda_dagger(channel_of(fig2), grid_n=32)

    def test_unreachable_output_is_ignored(self, fig2):
        c = channel_of(fig2)
        padded = Channel(
            c.x_labels,
            c.y_labels + ("never",),
            np.column_stack([c.pyx, np.zeros(2)]),
            PMF(c.x_labels, c.input.probs),
        )
        assert lambda_dagger(padded) == lambda_dagger(c)

    def test_never_above_one(self):
        # on a nearly noiseless channel the last gap ratio rounds above 1
        e = 1e-12
        c = Channel((0, 1), (0, 1), [[1 - e, e], [e, 1 - e]], binary_pmf(0.5))
        assert lambda_dagger(c) == 1.0


def _dagger_cases():
    rng = np.random.default_rng(59)
    cases = {name: builtin(name) for name in ("fig2", "remark3", "bsc:0.2", "bec:0.25")}
    for k in range(5):
        cases[f"random {k}"] = random_joint(rng, 2, int(rng.integers(2, 5)))
    return cases


class TestTouchDefault:
    """The default touch tolerance is tight enough to tell lambda-dagger
    from a lambda 1e-4 below it; at 1e-6 bits it said True there on fig2,
    remark3 and bsc:0.2."""

    @pytest.mark.parametrize("name", ["fig2", "remark3", "bsc:0.2", "bec:0.25"])
    def test_default_separates_threshold(self, name):
        c = channel_of(builtin(name))
        lam = lambda_dagger(c)
        assert touches_envelope(c, lam)
        assert not touches_envelope(c, lam - 1e-4)


class TestLambdaDaggerCrossCheck:
    """lambda_dagger against a bisection over the touch test.

    Touching is monotone in lambda, so bisecting on touches_envelope finds
    the same threshold by an independent route.  lambda_dagger is
    max(rho^2, grid threshold), and rho^2 <= s*, so the bracket starts at
    rho^2.  The touch tolerance lets the bisection stop a little low: most
    where the threshold sits just above rho^2 and the gap at p(x) opens
    only quadratically in lambda.
    """

    @staticmethod
    def _bisect(c, lo):
        if touches_envelope(c, lo):
            return lo
        hi = 1.0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if touches_envelope(c, mid):
                hi = mid
            else:
                lo = mid
        return hi

    @pytest.mark.parametrize("name", sorted(_dagger_cases()))
    def test_matches_touch_bisection(self, name):
        j = _dagger_cases()[name]
        c = channel_of(j)
        lam = lambda_dagger(c)
        assert touches_envelope(c, lam)
        assert abs(lam - self._bisect(c, binary_rho_squared(j))) <= 1e-7


class TestScanInputs:
    def test_fig2_rows_agree(self, fig2):
        rows = channel_of(fig2).pyx
        max_rho2, max_sstar = scan_inputs(rows)
        assert abs(max_rho2 - max_sstar) <= 1e-3
        assert max_rho2 > 0.6  # scanning inputs can beat the bundled marginal

    def test_bsc_peak_at_uniform(self):
        rows = channel_of(builtin("bsc:0.2")).pyx
        max_rho2, max_sstar = scan_inputs(rows)
        assert max_rho2 == pytest.approx(0.36, abs=1e-6)
        assert max_sstar == pytest.approx(0.36, abs=1e-4)

    def test_bsc_scan_stays_below_closed_form(self):
        # s* = rho^2 = 0.36 at the uniform input; a best-found value is a
        # lower bound, so anything above is a divergence rounding error
        _, max_sstar = scan_inputs(channel_of(builtin("bsc:0.2")).pyx)
        assert max_sstar <= 0.36 + 1e-12

    def test_unreachable_output_is_ignored(self):
        rows = [[0.5, 0.5, 0.0], [0.3, 0.7, 0.0]]
        assert scan_inputs(rows) == scan_inputs([[0.5, 0.5], [0.3, 0.7]])

    def test_constant_output_gives_zero(self):
        assert scan_inputs([[1.0, 0.0], [1.0, 0.0]]) == (0.0, 0.0)

    def test_independent_rows_give_zero(self):
        rows = np.array([[0.4, 0.6], [0.4, 0.6]])
        max_rho2, max_sstar = scan_inputs(rows)
        assert max_rho2 == pytest.approx(0.0, abs=1e-12)
        assert max_sstar == pytest.approx(0.0, abs=1e-9)

    def test_rejects_wide_channel(self):
        rows = np.full((3, 3), 1.0 / 3.0)
        with pytest.raises(NotBinaryInput):
            scan_inputs(rows)

    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValidationError):
            scan_inputs(np.array([[0.7, 0.7], [0.5, 0.5]]))
