"""Unit tests for the binary-input entropy curve, its convex hull, and scans."""

import math
from bisect import bisect_left
from types import SimpleNamespace

import numpy as np
import pytest

from infodep import (
    BoundaryPoint,
    Channel,
    LabelMismatch,
    LambdaOutOfRange,
    LogBase,
    NotBinaryInput,
    NumericalError,
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
from infodep import tcurve
from infodep.tcurve import (
    MAX_GRID_N,
    _bracket,
    _entropy_grid,
    _hull_vertices,
    _lower_hull,
    _reachable_joint,
)

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
        for function in (t_lambda, hessian_t_lambda):
            for lam in (-0.1, 1.5, math.nan):
                with pytest.raises(LambdaOutOfRange) as exc:
                    function(c, binary_pmf(0.5), lam)
                assert exc.value.exit_code == 2


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
        with pytest.raises(LabelMismatch) as exc:
            hessian_t_lambda(c, bad, 0.5)
        assert exc.value.exit_code == 2

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

    def test_oversized_grid_refused_before_any_array(self, fig2, monkeypatch):
        # a float or a string is refused, not truncated or parsed by int()
        def no_grid(*args, **kwargs):
            raise AssertionError("a grid was built")

        c = channel_of(fig2)
        monkeypatch.setattr(np, "linspace", no_grid)
        for grid_n in (MAX_GRID_N + 1, 4096.5, "4096", math.nan):
            for call in (
                lambda: lower_envelope_1d(c, 0.5, grid_n),
                lambda: touches_envelope(c, 0.5, grid_n=grid_n),
                lambda: lambda_dagger(c, grid_n),
            ):
                with pytest.raises(ValidationError, match="grid_n"):
                    call()

    def test_numpy_int_grid_accepted(self, fig2):
        c = channel_of(fig2)
        assert lambda_dagger(c, np.int64(4096)) == lambda_dagger(c, 4096)

    def test_rejects_wide_input(self):
        rng = np.random.default_rng(2)
        c = channel_of(random_joint(rng, 3, 3))
        with pytest.raises(NotBinaryInput):
            lower_envelope_1d(c, 0.5)


def _touch_cases():
    """Channels for the touch test: the built-ins, four resolvable survey
    channels (P(X=0) from 4.7e-4 to 0.24), and five seeded random binary
    joints."""
    cases = {name: [channel_of(builtin(name))] for name in ("fig2", "remark3", "bsc:0.2", "bec:0.25")}
    survey = _survey_channels()
    cases["survey"] = [survey[k] for k in (0, 3, 29, 42)]
    rng = np.random.default_rng(43)
    cases["random"] = [channel_of(random_joint(rng, 2, int(rng.integers(2, 5)))) for _ in range(5)]
    return cases


class TestTouchesEnvelope:
    def test_fig2_below_and_above(self, fig2):
        c = channel_of(fig2)
        assert not touches_envelope(c, 0.6)
        assert touches_envelope(c, 0.632, grid_n=2**14)
        # Touching is monotone in lambda: adding a multiple of the convex
        # function -H preserves any existing touch, so 0.64 must also touch.
        assert touches_envelope(c, 0.64, grid_n=2**14)
        assert touches_envelope(c, 1.0)

    @pytest.mark.parametrize("name", ["fig2", "remark3", "bsc:0.2", "bec:0.25", "survey", "random"])
    def test_agrees_with_lambda_dagger(self, name):
        # relative offsets down to 1e-12 below the threshold, and absolute
        # ones on both sides
        for c in _touch_cases()[name]:
            ld = lambda_dagger(c)
            lams = [ld * (1.0 + rel) for rel in (-1e-2, -1e-5, -1e-9, -1e-12, 0.0, 1e-9)]
            lams += [ld - 1e-4, ld + 0.05, ld + 0.2]
            for lam in (min(max(lam, 0.0), 1.0) for lam in lams):
                assert touches_envelope(c, lam) == (lam >= ld)


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

    @pytest.mark.parametrize("p0", [1e-5, 1.0 - 1e-5])
    def test_refuses_input_at_grid_end(self, p0):
        # the nearest grid point is a grid end, always a hull vertex, so the
        # grid would read rho^2 = 1.87e-5 at P(X=0) = 1e-5, where s* is
        # 0.0508; a finer grid resolves the input
        rows = [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]]
        c = Channel((0, 1), (0, 1, 2), rows, binary_pmf(p0))
        says = rf"P\(X=0\) = {p0!r} .*1/grid_n = 0\.000244.*grid_n = 4096"
        for call in (lambda: lambda_dagger(c), lambda: touches_envelope(c, 0.0)):
            with pytest.raises(ValidationError, match=says) as exc:
                call()
            assert exc.value.exit_code == 2
        assert lambda_dagger(c, 2**16) >= 0.04

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


class TestLambdaDaggerCrossCheck:
    """lambda_dagger against a bisection over the full hull scan's gap.

    The scan route is :func:`lower_envelope_1d`: a touch is curve - hull at
    most 1e-12 bits at the grid point nearest p(x).  Touching is monotone in
    lambda, so bisecting on that test finds the threshold by a route that
    shares nothing with lambda_dagger's Dinkelbach iteration.  lambda_dagger
    is max(rho^2, grid threshold), and rho^2 <= s*, so the bracket starts at
    rho^2.  The gap tolerance lets the bisection stop a little low: most
    where the threshold sits just above rho^2 and the gap at p(x) opens
    only quadratically in lambda.
    """

    @staticmethod
    def _scan_touches(c, lam):
        env = lower_envelope_1d(c, lam)
        i = int(np.argmin(np.abs(env.grid - c.input.probs[0])))
        return bool(env.curve[i] - env.hull[i] <= 1e-12)

    @classmethod
    def _bisect(cls, c, lo):
        if cls._scan_touches(c, lo):
            return lo
        hi = 1.0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if cls._scan_touches(c, mid):
                hi = mid
            else:
                lo = mid
        return hi

    @pytest.mark.parametrize("name", sorted(_dagger_cases()))
    def test_matches_touch_bisection(self, name):
        j = _dagger_cases()[name]
        c = channel_of(j)
        lam = lambda_dagger(c)
        assert self._scan_touches(c, lam)
        assert abs(lam - self._bisect(c, binary_rho_squared(j))) <= 1e-7


def _scan_bracket(x, h, i):
    """The hull chord over sample i, or None at a vertex, read off a full
    monotone-chain scan."""
    keep = _hull_vertices(x, h)
    k = bisect_left(keep, i)
    return None if keep[k] == i else (keep[k - 1], keep[k])


def _scan_lambda_dagger(c):
    """lambda_dagger's Dinkelbach iteration with a full hull scan per step:
    the reference route for the tangent search, about 20 ms a call."""
    p0, hy, hx = _entropy_grid(c, tcurve.ENVELOPE_GRID_N)
    i = int(np.argmin(np.abs(p0 - c.input.probs[0])))
    j = _reachable_joint(c.input.probs, c.pyx)
    lam = 0.0 if j is None else binary_rho_squared(j)
    while True:
        chord = _scan_bracket(p0, hy - lam * hx, i)
        if chord is None:
            return lam
        a, b = chord
        w = (b - i) / (b - a)
        gap_y = hy[i] - (w * hy[a] + (1.0 - w) * hy[b])
        gap_x = hx[i] - (w * hx[a] + (1.0 - w) * hx[b])
        nxt = min(float(gap_y / gap_x), 1.0)
        if not nxt > lam:
            return lam
        lam = nxt


def _survey_channels():
    """Seeded binary channels: flat and alpha = 0.2 Dirichlet rows, some with
    a zeroed entry, and inputs skewed as far as P(X=0) = 1e-5."""
    rng = np.random.default_rng(67)
    out = []
    for k in range(96):
        ny = int(rng.integers(2, 6))
        rows = rng.dirichlet(np.full(ny, 0.2 if k % 2 else 1.0), size=2)
        if k % 4 == 1:
            rows[int(rng.integers(0, 2)), int(rng.integers(0, ny))] = 0.0
            rows /= rows.sum(axis=1, keepdims=True)
        p0 = 10.0 ** -rng.uniform(1.0, 5.0) if k % 3 == 0 else rng.uniform(0.05, 0.95)
        out.append(Channel((0, 1), tuple(range(ny)), rows, binary_pmf(p0)))
    return out


def _family_channels():
    return [channel_of(builtin(f"bec:{k}/40")) for k in range(1, 40)] + [
        channel_of(builtin(f"bsc:{k}/80")) for k in range(1, 40)
    ]


class TestBracketAgainstScan:
    """The tangent search against the full hull scan it replaced, bit for
    bit: the same chord, so the same gap ratios and the same lambda."""

    def test_lambda_dagger_matches_scan_route(self):
        # survey channels 15, 54, 63, 69 and 72 put P(X=0) within half a
        # grid step of 0, where the scan route reads rho^2 off a grid end
        refused = []
        for k, c in enumerate(_survey_channels() + _family_channels()):
            try:
                lam = lambda_dagger(c)
            except ValidationError:
                assert c.input.probs[0] < 0.5 / tcurve.ENVELOPE_GRID_N
                refused.append(k)
                continue
            assert lam == _scan_lambda_dagger(c)
        assert refused == [15, 54, 63, 69, 72]

    def test_bracket_matches_scan(self, fig2):
        # i = 0 and i = 256 are the grid ends, which are always vertices
        rng = np.random.default_rng(71)
        channels = [channel_of(fig2), channel_of(builtin("remark3"))] + _survey_channels()[:8]
        for c in channels:
            p0, hy, hx = _entropy_grid(c, 256)
            for lam in rng.uniform(0.0, 1.0, size=6):
                h = hy - lam * hx
                for i in (0, 1, *rng.integers(2, 255, size=4).tolist(), 255, 256):
                    assert _bracket(p0, h, i) == _scan_bracket(p0, h, i)

    def test_alternation_cap_raises(self, fig2, monkeypatch):
        monkeypatch.setattr(tcurve, "BRACKET_MAX_ALTERNATIONS", 1)
        with pytest.raises(NumericalError):
            lambda_dagger(channel_of(fig2))


class TestLambdaDaggerClosedForms:
    """s* of the erasure channel is 1 - eps and of the binary symmetric
    channel (1 - 2 eps)^2, both at the uniform input.  On the BEC, t_lambda
    at rho^2 is flat to rounding near p(x), so short chords amplify that
    noise and lambda_dagger drifts by up to ~4e-9."""

    @pytest.mark.parametrize("k", range(1, 40))
    def test_bec(self, k):
        c = channel_of(builtin(f"bec:{k}/40"))
        assert abs(lambda_dagger(c) - (1.0 - k / 40)) <= 1e-8

    @pytest.mark.parametrize("k", range(1, 40))
    def test_bsc(self, k):
        c = channel_of(builtin(f"bsc:{k}/80"))
        assert abs(lambda_dagger(c) - (1.0 - 2.0 * k / 80) ** 2) <= 1e-8


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

    @pytest.mark.parametrize(
        "route, fake",
        [("binary_rho_squared", lambda j: 1.0), ("sstar", lambda j: SimpleNamespace(value=1.0))],
        ids=["rho squared off", "sstar off"],
    )
    def test_disagreeing_routes_raise(self, fig2, monkeypatch, route, fake):
        # one route patched to read 1 at every input moves its maximum off the other's
        monkeypatch.setattr(tcurve, route, fake)
        with pytest.raises(NumericalError, match="should agree within 1e-3") as exc:
            scan_inputs(channel_of(fig2).pyx)
        assert type(exc.value) is NumericalError and exc.value.exit_code == 4

    def test_rejects_wide_channel(self):
        rows = np.full((3, 3), 1.0 / 3.0)
        with pytest.raises(NotBinaryInput):
            scan_inputs(rows)

    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValidationError):
            scan_inputs(np.array([[0.7, 0.7], [0.5, 0.5]]))

    def test_rejects_non_finite_rows(self):
        with pytest.raises(ValidationError, match="non-finite"):
            scan_inputs([[math.nan, 1.0], [0.5, 0.5]])
