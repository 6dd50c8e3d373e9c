"""Unit tests for the hypercontractivity ribbon boundary and its slopes."""

import contextlib
import itertools
import math
import warnings
from unittest import mock

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
    product,
    q_star,
    q_star_curve,
    slope_at_one,
    sstar,
    transpose,
)
from infodep.ribbon import (
    GAP_MAX_ITER,
    GAP_RESTARTS,
    QSTAR_MAX_P,
    _WITNESS_EXTRA,
    _WITNESS_GAP,
    _anderson_step,
    _conditional,
    _crossing,
    _kernel,
    _q_star,
    _seed_columns,
    _sweeps,
)
from conftest import random_independent, random_joint


def _climb(j, p):
    """_q_star at seed 0 with rho from maximal_correlation, as q_star calls it."""
    return _q_star(j, p, maximal_correlation(j).rho, seed=0)


#: the accuracy the bisection q_star was run to (the width of its final
#: bracket), kept as the bound on comparisons with it
BISECTION_WIDTH = 1e-4
#: the bisection's test of each probe: a gap at most this counts as "in"
BISECTION_GAP_TOL = 1e-9


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

    @pytest.mark.parametrize("call", [contraction_gap, in_ribbon])
    @pytest.mark.parametrize("p, q", [(2.0, 1.5), (1.0, 1.0)])
    def test_negative_seed_rejected(self, fig2, call, p, q):
        # p = 1 is exact and would run no sweep
        with pytest.raises(ValidationError, match="seed"):
            call(fig2, p, q, seed=-1)

    @pytest.mark.parametrize("call", [contraction_gap, in_ribbon])
    @pytest.mark.parametrize("p, q", [(2.0, 1.5), (1.0, 1.0)])
    def test_non_integer_seed_rejected(self, fig2, call, p, q):
        with pytest.raises(ValidationError, match="seed"):
            call(fig2, p, q, seed=1.5)

    def test_identity_coupling_q_equals_one_branch(self, identity_coupling):
        gap = contraction_gap(identity_coupling, 2.0, 1.0)
        assert gap == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "name", ["fig2", "remark3", "identity", "seeded 3x3", "seeded 2x9", "sparse 4x5"]
    )
    def test_q_equals_one_branch_matches_fsum(self, name):
        # at q = 1 the sup sits at an extreme point g = indicator(y) / p(y),
        # whose E[g|X = x] is p(x, y) / (p(x) p(y)); the most seen is 1.5 ulps
        j = _sparse_joint() if name == "sparse 4x5" else _ribbon_cases()[name]
        for p in (1.5, 4.0, 32.0, 128.0):
            ref = max(
                math.fsum(px * (pxy / (px * py)) ** p for px, pxy in zip(j.px, col)) ** (1.0 / p)
                for py, col in zip(j.py, j.pxy.T)
            ) - 1.0
            gap = contraction_gap(j, p, 1.0)
            assert abs(gap - ref) <= 4.0 * np.spacing(1.0 + ref), (p, gap, ref)

    @pytest.mark.parametrize("ny", [2, 8, 9, 16])
    def test_one_seed_count_for_every_alphabet(self, ny):
        # every coordinate indicator, the constant, then GAP_RESTARTS
        # Dirichlet draws, on either side of |Y| = 8
        cols = _seed_columns(ny, 0)
        assert cols.shape == (ny, ny + 1 + GAP_RESTARTS)
        with np.errstate(divide="ignore"):
            assert np.array_equal(cols[:, :ny], np.log(np.eye(ny)))
        assert np.array_equal(cols[:, ny], np.zeros(ny))
        assert np.allclose(np.exp(cols[:, ny + 1:]).sum(axis=0), 1.0)

    @pytest.mark.parametrize("ny, seed", [(2, 0), (3, 7), (9, 1), (64, 4)])
    def test_seed_columns_raise_no_floating_point_exception(self, ny, seed):
        # the indicators' -inf entries are written, not taken as log(0), and
        # every column keeps the bits of the log of the whole block
        with np.errstate(all="raise"):
            cols = _seed_columns(ny, seed)
        draws = np.random.default_rng(seed).dirichlet(np.ones(ny), size=GAP_RESTARTS)
        with np.errstate(divide="ignore"):
            ref = np.log(np.concatenate([np.eye(ny), np.ones((ny, 1)), draws.T], axis=1))
        assert cols.tobytes() == ref.tobytes()

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


def _ribbon_cases():
    rng = np.random.default_rng(29)
    seeded = rng.dirichlet(np.ones(9)).reshape(3, 3)
    # a 2x9, the widest Y alphabet among these cases
    wide = np.random.default_rng(9).dirichlet(np.ones(18)).reshape(2, 9)
    return {
        "fig2": builtin("fig2"),
        "remark3": builtin("remark3"),
        "identity": joint_from_matrix([[0.5, 0.0], [0.0, 0.5]], (0, 1), (0, 1)),
        "seeded 3x3": joint_from_matrix(seeded, (0, 1, 2), (0, 1, 2)),
        "seeded 2x9": joint_from_matrix(wide, (0, 1), tuple(range(9))),
    }


def _in_ribbon_cases():
    """fig2, remark3 and six seeded Dirichlet joints (3x2, 3x3, 4x3, 4x4,
    2x2, 4x2, drawn in that order), then the identity and the seeded 3x3."""
    rng = np.random.default_rng(5)
    cases = {"fig2": builtin("fig2"), "remark3": builtin("remark3")}
    for nx, ny in ((3, 2), (3, 3), (4, 3), (4, 4), (2, 2), (4, 2)):
        cases[f"seed-5 {nx}x{ny}"] = random_joint(rng, nx, ny)
    ribbon = _ribbon_cases()
    return {**cases, "identity": ribbon["identity"], "seeded 3x3": ribbon["seeded 3x3"]}


def _sparse_joint():
    """A 4x5 joint with five zero entries.  No x reaches both y = 0 and
    y = 4, so the map sends the indicator of either to a g that is zero on
    the other."""
    table = np.random.default_rng(5).dirichlet(np.ones(20)).reshape(4, 5)
    table[[0, 1, 1, 2, 3], [4, 2, 4, 0, 0]] = 0.0
    return joint_from_matrix(table / table.sum(), range(4), range(5))


class TestSweepMap:
    """The sweep map on max-shifted columns against the same map in log
    space, each log-sum-exp one exactly rounded math.fsum.

    From the seed columns, over two plain sweeps at q = 1 + (p - 1)/8 and
    1 + (p - 1)/2, the normalization to ||g||_q = 1 and log E[g|X] stay
    within 4 and 8 ulps of their column's largest magnitude (at least 1),
    and log ||E[g|X]||_p within 4 ulps of its own.  The next normalized
    log g stays within 8 (p - 1)/(q - 1) ulps of its column's largest
    magnitude: the map raises E[g|X] to the p - 1 and takes the 1/(q - 1)
    root, which scales the error of log E[g|X] by that factor.  The most
    seen were 2, 3, 2.5 and 4 ulps.  Every -inf, a zero g(y) or
    E[g|X = x], lies where the reference has one, and no floating-point
    warning escapes.  Zeros in p(x, y) at large p are the one exception:
    there a g(y) that log space keeps below 1e-308 in ||g||_q^q can lose
    its digits, or be 0."""

    @staticmethod
    def _check(got, ref, ulps):
        assert np.array_equal(np.isneginf(got), np.isneginf(ref))
        fin = np.isfinite(ref)
        assert np.isfinite(got[fin]).all()
        err = np.subtract(got, ref, out=np.zeros_like(ref), where=fin)
        mag = np.maximum(1.0, np.abs(np.where(fin, ref, 0.0)).max(axis=0))
        assert np.all(np.abs(err) <= ulps * np.spacing(mag)), np.max(np.abs(err) / np.spacing(mag))

    @pytest.mark.parametrize(
        "name", ["fig2", "remark3", "seeded 3x3", "seeded 2x9", "sparse 4x5"]
    )
    def test_matches_fsum_reference(self, name):
        j = _sparse_joint() if name == "sparse 4x5" else _ribbon_cases()[name]
        kernel = _kernel(j)
        with np.errstate(divide="ignore"):
            logW = np.log(j.pxy / j.px[:, None])[:, :, None]
            logB = np.log(j.pxy / j.py)[:, :, None]
        logpx, logpy = np.log(j.px)[:, None], np.log(j.py)[:, None]
        seeds = _seed_columns(j.shape[1], 0)
        zeros = 0
        for p in (1.5, 4.0, 32.0, 128.0):
            for q in (1.0 + (p - 1.0) / 8.0, 1.0 + (p - 1.0) / 2.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with _plain_update(), np.errstate(all="ignore"):
                        its = list(itertools.islice(_sweeps(kernel, p, q, seeds), 3))
                    with np.errstate(divide="ignore"):
                        got_tg = [np.log(u) + shift for u, shift in
                                  (_conditional(kernel[0], g) for g, _ in its)]
                self._check(its[0][0], seeds - _fsum_logsumexp(logpy + q * seeds, 0) / q, 4)
                for (g, log_norms), (new, _), tg in zip(its, its[1:], got_tg):
                    ref_tg = _fsum_logsumexp(logW + g, 1)
                    self._check(tg, ref_tg, 8)
                    self._check(log_norms, _fsum_logsumexp(logpx + p * ref_tg, 0) / p, 4)
                    lg = _fsum_logsumexp(logB + (p - 1.0) * ref_tg[:, None, :], 0) / (q - 1.0)
                    ref = lg - _fsum_logsumexp(logpy + q * lg, 0) / q
                    self._check(new, ref, 8 * (p - 1.0) / (q - 1.0))
                    zeros += np.isneginf(ref).sum()
        if name == "sparse 4x5":
            assert zeros > 0

    def test_zeros_at_large_p_lose_only_subnormal_terms(self):
        """Zeros in p(x, y) can leave the mean of u^(p - 1) given Y only
        subnormal terms, or none.

        Here y = 0 meets only x = 0 and 1, so a g near 1e-3 on y = 0 and 1
        and near 1 on y = 2 puts u below 2.8e-3 on both, u^127 underflows,
        and the map sets g(0) = 0 (a -inf), where the log-space reference
        keeps g(0) at 2.8e-6 of the column's largest at q = 64.5.  A mean
        that is subnormal but not 0 keeps few digits: one g(y) is off by
        1.7e-6 relative.  Every such y has a reference mean under the least
        normal 2.2e-308, and its g(y) adds under 1e-308 to ||g||_q^q; every
        other entry, and both norms, meet the bounds of
        ``test_matches_fsum_reference``, with the same -inf pattern."""
        table = np.array([[0.2, 0.0, 0.0], [0.1, 0.2, 0.0], [0.0, 0.2, 0.3]])
        j = joint_from_matrix(table, range(3), range(3))
        kernel = _kernel(j)
        with np.errstate(divide="ignore"):
            logW = np.log(j.pxy / j.px[:, None])[:, :, None]
            logB = np.log(j.pxy / j.py)[:, :, None]
        logpx, logpy = np.log(j.px)[:, None], np.log(j.py)[:, None]
        small = np.log([[1e-3, 1e-3, 1.0], [3e-3, 1e-3, 1.0], [1e-3, 2e-3, 1.0]]).T
        cols = np.concatenate([small, _seed_columns(3, 0)], axis=1)
        p, lost = 128.0, 0
        for q in (1.0 + (p - 1.0) / 8.0, 1.0 + (p - 1.0) / 2.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with _plain_update(), np.errstate(all="ignore"):
                    its = list(itertools.islice(_sweeps(kernel, p, q, cols), 3))
            for (g, log_norms), (new, _) in zip(its, its[1:]):
                ref_tg = _fsum_logsumexp(logW + g, 1)
                with np.errstate(divide="ignore"):
                    u, shift = _conditional(kernel[0], g)
                    self._check(np.log(u) + shift, ref_tg, 8)
                self._check(log_norms, _fsum_logsumexp(logpx + p * ref_tg, 0) / p, 4)
                shifted = (p - 1.0) * (ref_tg - ref_tg.max(axis=0))
                log_m = _fsum_logsumexp(logB + shifted[:, None, :], 0)
                lg = log_m / (q - 1.0)
                ref = lg - _fsum_logsumexp(logpy + q * lg, 0) / q
                faint = log_m < math.log(np.finfo(float).tiny)
                lost += (np.isneginf(new) & np.isfinite(ref)).sum()
                assert np.all((logpy + q * ref)[faint] < math.log(1e-308))
                self._check(np.where(faint, ref, new), ref, 8 * (p - 1.0) / (q - 1.0))
        assert lost > 0


class TestEarlyExit:
    """q_star against the bisection it replaced, whose every probe was a
    full contraction_gap run.  (in_ribbon no longer stops early: it is
    q >= q_star, which TestInRibbon.test_agrees_with_q_star checks.)"""

    @staticmethod
    def _reference_q_star(j, p):
        """The bisection q_star ran before its witness crossings, with every
        probe a full contraction_gap run: the upper end of a
        BISECTION_WIDTH bracket."""
        if contraction_gap(j, p, 1.0 + BISECTION_WIDTH) <= BISECTION_GAP_TOL:
            return 1.0
        lo, hi = 1.0, p
        for _ in range(60):
            if hi - lo <= BISECTION_WIDTH:
                break
            mid = 0.5 * (lo + hi)
            if contraction_gap(j, p, mid) <= BISECTION_GAP_TOL:
                hi = mid
            else:
                lo = mid
        return hi

    @pytest.mark.parametrize("name, p", [("fig2", 2.0), ("remark3", 4.0)])
    def test_q_star_agrees_with_full_gap_bisection(self, name, p):
        j = builtin(name)
        assert abs(q_star(j, p) - self._reference_q_star(j, p)) <= BISECTION_WIDTH


def _sweep_gaps(j, p: float, q: float) -> list[float]:
    """The largest gap ||E[g|X]||_p - 1 of each sweep that contraction_gap
    runs at (p, q) with seed 0, for 1 < q <= p: the list's length counts the
    sweeps, and contraction_gap is its largest entry, or 0."""
    with np.errstate(all="ignore"):
        return [float(np.expm1(np.maximum.reduce(log_norms))) for _, log_norms in
                _sweeps(_kernel(j), p, q, _seed_columns(j.shape[1], 0))]


class TestSweepCount:
    """The sweeps that contraction_gap runs, counted by _sweep_gaps, and
    those that _q_star returns, so that a run that ends at the GAP_MAX_ITER
    cap without converging shows.  The fig2 probes are probes of the
    bisection q_star used to run: one whose gap passes a 1e-9 test counts
    the sweeps up to the first that passes it, where the bisection stopped.
    They were recorded when the Anderson mix replaced the plain sweep
    update, which ran 1, 122 and 300 sweeps at q = 1.25, 1.375 and 1.3125
    (the last converged after 21 with 288 Dirichlet seed columns, and after
    19 with 96).  q = 1.302734375, 7.9e-4 above q*(1.5), is a |Y| = 3
    column that wanders: it ended at the cap until the sweep map moved from
    log-sum-exps to max-shifted products, then converged after 215 sweeps,
    after 285 once the next iterate was normalized by the same expression
    as every other column of log g, which rounds differently, and after 271
    with 96 Dirichlet seed columns; which sweep ends a wandering column is
    decided by rounding and by the seeds.  fig2 at (4, 2.8037109375),
    7.4e-4 above q*(4), ends at the cap under every form of the map.

    On a binary Y alphabet the two residual differences of a column are
    parallel, so every column takes the one-term mix.  When a column that
    failed the 2x2 test took the plain step instead, q*(remark3, 4) ran 269
    sweeps and the fig2 probe at (128, 80) ended at the cap.  q*(remark3, 4)
    ran 19 sweeps, ran 20 when that normalization and the crossing solve's
    log E[g^q] took the max-shifted form, and ran 19 again once the
    crossing solve descended by Newton from above: its crossings end on
    other floats within rounding of their roots, and the run warm-started
    at the last of them converges a sweep sooner.  It runs 22 on 96
    Dirichlet seed columns in place of 288."""

    @pytest.mark.parametrize(
        "p, q, sweeps",
        [(1.5, 1.25, 1), (1.5, 1.375, 13), (1.5, 1.3125, 19), (1.5, 1.302734375, 271),
         (4.0, 2.8037109375, GAP_MAX_ITER)],
        ids=["crosses in its first sweep", "converges", "converges near q*", "wanders",
             "ends at the cap"],
    )
    def test_in_ribbon_probe(self, fig2, p, q, sweeps):
        gaps = _sweep_gaps(fig2, p, q)
        passed = [k for k, gap in enumerate(gaps, 1) if gap > 1e-9]
        assert (passed[0] if passed else len(gaps)) == sweeps
        assert bool(passed) == (q == 1.25)

    def test_binary_alphabet_converges(self, fig2, remark3):
        assert _climb(remark3, 4.0)[3] == 22
        assert len(_sweep_gaps(fig2, 128.0, 80.0)) == 26

    def test_each_run_ends_a_fixed_count_after_its_first_witness(self, fig2, monkeypatch):
        # a run whose count doubled after a long move would end 4 or 8
        # sweeps after its witness here
        runs = []

        def record(*args):
            runs.append([])
            for it in _sweeps(*args):
                runs[-1].append(bool(np.logical_or.reduce(it[1] > math.log1p(_WITNESS_GAP))))
                yield it

        monkeypatch.setattr("infodep.ribbon._sweeps", record)
        _, _, steps, sweeps = _climb(fig2, 4.0)
        assert (len(runs), sum(map(len, runs))) == (steps, sweeps) == (7, 36)
        for run in runs[:-1]:
            assert len(run) - 1 - run.index(True) == _WITNESS_EXTRA
        assert not any(runs[-1])

    def test_exact_cases_run_no_sweep(self, fig2, monkeypatch):
        # q = 1 reads the first iterate from the indicators, and p = 1 not even that
        def refuse(*args):
            raise AssertionError("a sweep ran")

        monkeypatch.setattr("infodep.ribbon._seed_columns", refuse)
        assert contraction_gap(fig2, 2.0, 1.0) > 0.0
        monkeypatch.setattr("infodep.ribbon._sweeps", refuse)
        assert contraction_gap(fig2, 1.0, 1.0) == 0.0


@contextlib.contextmanager
def _plain_update():
    """Run the sweeps with the plain fixed-point update T(x_k), unmixed."""
    with mock.patch("infodep.ribbon._anderson_step", lambda hist, normalize: hist[-1][0]):
        yield


def _plain_gap(j, p: float, q: float) -> tuple[float, int]:
    """The reference route: the contraction-gap sweeps with the plain
    fixed-point update of the same map and no mixing, run to convergence or
    the cap, with the seeds, tolerances and seed draws of
    ``contraction_gap`` (seed 0).  It returns the gap and the sweeps run;
    1 < q <= p only."""
    with _plain_update():
        gaps = _sweep_gaps(j, p, q)
    return max(max(gaps), 0.0), len(gaps)


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
    (``_BISECTION_QSTAR``), so they stay fixed when q_star changes.  Both
    routes apply the same map, so the test compares the mix with no mix,
    not two roundings of the map (TestSweepMap checks the map itself).

    Every iterate of the mix is a feasible g, so a witness the plain sweep
    finds must not be lost: q_star lies above every q where the plain gap
    clears q_star's own 1e-12 witness test (111 such q here, all strictly
    below q_star).  The gap is a norm near 1 minus 1, so its resolution is
    one ulp of 1.  Where the plain sweep converged, both routes reach the
    same fixed points and the gaps agree to 1e-10 relative plus that ulp
    (remark3 at p = 128 and q = 6.697287218475342, a gap near 1.1e-7,
    differs by 1.9e-17).  Where it ends at the GAP_MAX_ITER cap its gap is
    still rising, and the mix, which converges there, may find a larger
    one, but not a smaller one beyond rounding."""

    @pytest.mark.parametrize("name", list(_ribbon_cases()))
    def test_mix_keeps_every_plain_witness(self, name):
        j = _ribbon_cases()[name]
        for p, at in zip((1.5, 4.0, 32.0, 128.0), _BISECTION_QSTAR[name]):
            qs = q_star(j, p)
            near = float.fromhex(at) - 10.0 ** -np.arange(3.0, 8.0)
            for q in np.concatenate([np.linspace(1.0, p, 7)[1:], near[near > 1.0]]):
                ref, ran = _plain_gap(j, p, q)
                gap = contraction_gap(j, p, q)
                if ref > 1e-12:
                    assert q < qs, (p, q, ref, qs)
                if ran < GAP_MAX_ITER and max(gap, ref) > 1e-12:
                    bound = 1e-10 * max(gap, ref) + np.finfo(float).eps
                    assert abs(gap - ref) <= bound, (p, q, gap, ref)
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
        return lg - _fsum_logsumexp(lg, 0)

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
                gaps = _sweep_gaps(j, p, q)
                assert all(map(math.isfinite, gaps)) and 1 <= len(gaps) <= GAP_MAX_ITER
                assert contraction_gap(j, p, q) == max(max(gaps), 0.0)
            assert contraction_gap(j, 1.0, 1.0) == 0.0
            assert math.isfinite(contraction_gap(j, 4.0, 1.0))


class TestInRibbon:
    def test_independent_everywhere(self, independent):
        assert in_ribbon(independent, 2.0, 1.2)
        assert in_ribbon(independent, 8.0, 7.0)

    def test_identity_only_on_diagonal(self, identity_coupling):
        assert in_ribbon(identity_coupling, 2.0, 2.0)
        assert not in_ribbon(identity_coupling, 2.0, 1.5)

    def test_trivial_corner(self, fig2):
        assert in_ribbon(fig2, 1.0, 1.0)

    def test_seed_reaches_every_probe(self, fig2, monkeypatch):
        # the seed draws the Dirichlet starts, and every entry point hands it
        # to the draw.  The gaps of two seeds need not differ: at (2, 1.6)
        # the columns of seeds 0 and 3 converge to the same fixed points, so
        # the gaps agree to rounding and can agree to the bit
        assert not np.array_equal(_seed_columns(3, 3), _seed_columns(3, 0))
        seen = []

        def spy(ny, seed):
            seen.append(seed)
            return _seed_columns(ny, seed)

        monkeypatch.setattr("infodep.ribbon._seed_columns", spy)
        for call in (
            lambda: contraction_gap(fig2, 2.0, 1.6, seed=3),
            lambda: in_ribbon(fig2, 2.0, 1.6, seed=3),
            lambda: q_star(fig2, 2.0, seed=3),
            lambda: q_star_curve(fig2, (2.0, 4.0), seed=3),
            lambda: chordal_slope(fig2, 2.0, seed=3),
            lambda: slope_at_one(fig2, 0.01, seed=3),
        ):
            seen.clear()
            call()
            assert seen and set(seen) == {3}
        curve = q_star_curve(fig2, (2.0, 4.0), seed=3)
        assert curve.qstars.tolist() == [q_star(fig2, p, seed=3) for p in (2.0, 4.0)]
        qs = q_star(fig2, 2.0, seed=3)
        for q in (1.2, 1.5, 1.6, 1.65, 1.9):
            assert in_ribbon(fig2, 2.0, q, seed=3) == (q >= qs), q

    @pytest.mark.parametrize("name", list(_in_ribbon_cases()))
    def test_agrees_with_q_star(self, name):
        """in_ribbon is q >= q_star: at the ends of [1, p], at q_star, and
        at q = 1 + (q* - 1)(1 - delta) for delta = 1e-3 ... 1e-7, just below
        q*, where the gap opens only at second order.  There a 1e-9 test of
        the gap at (p, q) read "in" at 13 of the 120 points of the eight
        joints from fig2 to the seeded 4x2, each outside by q_star's
        witness."""
        j = _in_ribbon_cases()[name]
        for p in (1.5, 4.0, 32.0):
            qs = q_star(j, p)
            near = 1.0 + (qs - 1.0) * (1.0 - 10.0 ** -np.arange(3.0, 8.0))
            for q in (1.0, *near, qs, p):
                assert in_ribbon(j, p, q) == (q >= qs), (p, q, qs)


class TestQStar:
    def test_independent_collapses(self, independent):
        assert q_star(independent, 2.0) == 1.0
        assert q_star(independent, 8.0) == 1.0

    def test_p_equals_one(self, fig2):
        assert q_star(fig2, 1.0) == 1.0

    def test_p_below_one_rejected(self, fig2):
        with pytest.raises(ValidationError):
            q_star(fig2, 0.9)

    def test_negative_seed_rejected(self, fig2, independent):
        # before any work: the independent joint's floor of 1 returns at once
        for j in (fig2, independent):
            with pytest.raises(ValidationError, match="seed"):
                q_star(j, 4.0, seed=-1)

    def test_non_integer_seed_rejected(self, fig2, independent):
        for j in (fig2, independent):
            with pytest.raises(ValidationError, match="seed"):
                q_star(j, 4.0, seed=1.5)

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

        monkeypatch.setattr("infodep.ribbon._sweeps", no_sweep)
        p = QSTAR_MAX_P + 1.0
        for call in (
            lambda: q_star(fig2, p),
            lambda: q_star_curve(fig2, (2.0, p)),
            lambda: chordal_slope(fig2, p),
            lambda: in_ribbon(fig2, p, 2.0),
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
        # hypercontractive exactly when q - 1 >= (1 - 2 eps)^2 (p - 1).  The
        # floor 1 + rho^2 (p - 1) is the answer, no witness clearing it, so
        # the error is the floor's rounding: the most seen is 7 ulps
        # (9.6e-16 relative), on bsc:0.05 at p = 32 and 128
        exact = 1.0 + (1.0 - 2.0 * eps) ** 2 * (p - 1.0)
        assert abs(q_star(builtin(f"bsc:{eps}"), p) - exact) <= 8.0 * np.spacing(exact)

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

    @pytest.mark.parametrize("ends_at_p", [False, True], ids=["cross <= q", "q >= p"])
    def test_climb_exits(self, fig2, monkeypatch, ends_at_p):
        # a crossing at the current q stalls the climb at the floor; one at
        # p ends it there with its witness
        calls = []

        def crossing(logG, log_norms, py, lo, hi):
            calls.append((lo, hi))
            return (hi if ends_at_p else lo), 0

        monkeypatch.setattr("infodep.ribbon._crossing", crossing)
        floor = 1.0 + maximal_correlation(fig2).rho ** 2 * (4.0 - 1.0)
        q, witness, steps, _ = _climb(fig2, 4.0)
        assert calls == [(floor, 4.0)] and steps == 1
        assert q == (4.0 if ends_at_p else floor)
        assert (witness is not None) == ends_at_p

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
            q, col = _crossing(logG, norms, py, lo, hi)
        assert col == int(np.argmax(ref))
        assert abs(q - max(ref)) <= 1e-12 * q
        # the left end of the bracket: g still witnesses q* >= q
        assert _log_q_norm(logG[:, col], py, q) <= norms[col] + 1e-15

    def test_column_beyond_hi_crosses_at_hi(self):
        logG, norms, py, lo, hi = self._columns()
        norms[3] = _log_q_norm(logG[:, 3], py, hi) + 1e-9
        with np.errstate(all="ignore"):
            assert _crossing(logG, norms, py, lo, hi) == (hi, 3)

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
                               np.full(ncols, norm), py, lo, hi)
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

    @pytest.mark.parametrize("cap", [0, 1])
    def test_capped_descent_reports_lo_or_a_witnessed_end(self, cap, monkeypatch):
        # a column still above 0 at the cap reports lo, so the capped answer
        # falls short of the full one; every other end still witnesses
        logG, norms, py, lo, hi = self._columns()
        with np.errstate(all="ignore"):
            full = _crossing(logG, norms, py, lo, hi)[0]
            monkeypatch.setattr("infodep.ribbon._CROSSING_MAX_ITER", cap)
            q, col = _crossing(logG, norms, py, lo, hi)
        assert lo <= q < full
        assert q == lo or _log_q_norm(logG[:, col], py, q) <= norms[col]

    @pytest.mark.parametrize("ncols", [1, 2])
    def test_near_linear_column_returns_its_crossing(self, ncols):
        # a g near the constant whose crossing lies just above lo: f is so
        # near linear there that the tangent at lo, or the first Newton step
        # from it, lands within rounding of the crossing, where the sign of f
        # is noise.  There a Newton step can round to nothing, and the
        # descent's one-ulp floor must keep it moving down to a point where
        # f is at most 0, for two identical columns as for one
        lo, hi = 7.0, 10.0
        for seed in range(32):
            rng = np.random.default_rng(seed)
            py, log_g = rng.dirichlet(np.ones(10)), 0.1 * rng.normal(size=10)
            for rel in 10.0 ** -np.arange(3.0, 9.0):
                norm = _log_q_norm(log_g, py, lo * (1.0 + rel))
                self._check_single(log_g, py, norm, lo, hi, ncols)

    def test_rare_largest_g_over_a_wide_range(self):
        # p(y) = 1e-12 at the column's largest g, log g over +-8 and q up to
        # 128: the term of the largest g, which sets the shift, is not the
        # largest term of E[g^q] until q is large.  The most seen is 4.8e-15
        lo, hi = 1.5, 128.0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            log_g, py = rng.uniform(-8.0, 8.0, size=6), rng.dirichlet(np.ones(6))
            py[np.argmax(log_g)] = 1e-12
            py /= py.sum()
            t = rng.uniform(0.1, 0.9)
            norm = (1 - t) * _log_q_norm(log_g, py, lo) + t * _log_q_norm(log_g, py, hi)
            self._check_single(log_g, py, norm, lo, hi)

    @pytest.mark.parametrize("p", [1.5, 4.0, 32.0])
    @pytest.mark.parametrize("name", ["fig2", "remark3", "seeded 3x3"])
    def test_every_crossing_of_a_climb(self, name, p, monkeypatch):
        j = _ribbon_cases()[name]
        calls = []

        def record(*args):
            calls.append((args, _crossing(*args)))
            return calls[-1][1]

        monkeypatch.setattr("infodep.ribbon._crossing", record)
        _climb(j, p)
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
        q, log_g, steps, sweeps = _climb(j, p)
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
        assert _climb(independent, 4.0) == (1.0, None, 0, 0)
        assert _climb(builtin("fig2"), 1.0) == (1.0, None, 0, 0)


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

    @pytest.mark.parametrize("name", ["fig2", "remark3", "independent"])
    def test_each_point_is_q_star_from_one_svd(self, name, svd_calls):
        j, ps = builtin(name), (1.05, 1.5, 4.0, 32.0)
        qstars = q_star_curve(j, ps).qstars
        assert len(svd_calls) == 1
        assert qstars.tobytes() == np.array([q_star(j, p) for p in ps]).tobytes()

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
        # passed a 1e-9 test, and the slope read 0.599975586 < rho^2 = 0.6
        p = 1.5 * (8.0 / 1.5) ** (1.0 / 3.0)
        assert chordal_slope(fig2, p) >= maximal_correlation(fig2).rho ** 2

    def test_chordal_slope_rejects_p_one(self, fig2):
        with pytest.raises(PEqualsOne):
            chordal_slope(fig2, 1.0)

    def test_chordal_slope_below_one_fails_as_q_star_does(self, fig2):
        # PEqualsOne marks p = 1, whose conjugate is undefined; p < 1 is out of range
        for call in (q_star, chordal_slope):
            with pytest.raises(ValidationError) as err:
                call(fig2, 0.5)
            assert type(err.value) is ValidationError

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

    def test_fig2_slope_at_one_lag_is_pinned(self, fig2):
        """The lag of fig2's slope at p = 1 + 1e-4 behind s*(Y;X).

        It is 2.26e-4.  With the sweep map in log space it was 2.04e-5:
        there the climb's second run ended at the 300-sweep cap and four
        more crossings reached a witness that lies 2.1e-8 above the norm
        at the q where the max-shifted map now converges with no column
        above the 1e-12 witness test.  A change that closes the lag, or
        widens it, must move this pin and say why."""
        lag = sstar(transpose(fig2)).value - slope_at_one(fig2, 1e-4)
        assert 2.25e-4 < lag < 2.27e-4

    def test_slope_at_one_eps_validation(self, fig2):
        with pytest.raises(ValidationError):
            slope_at_one(fig2, eps=0.0)
        with pytest.raises(ValidationError):
            slope_at_one(fig2, eps=0.7)


class TestDuality:
    def test_boundary_maps_to_transposed_boundary(self):
        """Hoelder duality: E[.|X] maps L^q(Y) into L^p(X) with norm <= 1
        exactly when E[.|Y] maps L^p'(X) into L^q'(Y) with norm <= 1, so
        q*_YX(q*(p)') = p'.  The most seen is 1.60e-10 relative, the seed-5
        4x3 at p = 1.5."""
        for name, j in list(_in_ribbon_cases().items())[:6]:
            for p in (1.5, 4.0, 16.0):
                q = q_star(j, p)
                assert q > 1.0
                dual_q = q_star(transpose(j), conjugate(q))
                assert abs(dual_q / conjugate(p) - 1.0) <= 2.5e-10, (name, p, dual_q)

    def test_interior_point_stays_interior_under_duality(self, fig2):
        p = 2.0
        q_in = 0.5 * (q_star(fig2, p) + p)  # between the boundary and q = p
        assert in_ribbon(fig2, p, q_in)
        assert in_ribbon(transpose(fig2), conjugate(q_in), conjugate(p))


class TestTensorization:
    def test_product_boundary_is_the_larger_factor_boundary(self):
        """Ahlswede & Gacs 1976: the ribbon of an independent pair is the
        intersection of the two ribbons, so q*_AxB(p) = max(q*_A(p), q*_B(p)).
        The 4x4 x 4x4 product has |Y| = 16.  Both sides are witnessed lower
        bounds, and the most seen is 5.04e-8 relative, 3x2 x 2x3 at p = 1.5:
        the product's climb stops at a q that the 2x3 factor's witness
        proves outside."""
        rng = np.random.default_rng(12)
        factors = [random_joint(rng, nx, ny) for nx, ny in
                   ((2, 2), (3, 2), (2, 3), (3, 3), (4, 4), (4, 4), (2, 4), (4, 2))]
        for p in (1.5, 4.0, 32.0):
            qs = [q_star(f, p) for f in factors]
            for a, b in ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (4, 1), (6, 7), (7, 3)):
                both = max(qs[a], qs[b])
                got = q_star(product(factors[a], factors[b]), p)
                assert abs(got / both - 1.0) <= 6e-8, (a, b, p, got, both)


class TestConjugate:
    def test_values(self):
        assert conjugate(2.0) == pytest.approx(2.0, abs=1e-15)
        assert conjugate(3.0) == pytest.approx(1.5, abs=1e-15)

    def test_involution(self):
        assert conjugate(conjugate(7.0)) == pytest.approx(7.0, abs=1e-12)

    def test_rejects_one(self):
        with pytest.raises(PEqualsOne):
            conjugate(1.0)

    @pytest.mark.parametrize("p", [0.5, 0.0, -2.0, math.inf, math.nan])
    def test_rejects_below_one_and_non_finite(self, p):
        # below 1 the formula gives a negative conjugate, and at inf nan
        with pytest.raises(ValidationError) as err:
            conjugate(p)
        assert type(err.value) is ValidationError
