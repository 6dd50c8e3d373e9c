"""Acceptance suite: one test per shipped guarantee, each printing a verdict.

Every test checks a documented numerical guarantee of the package at its
stated tolerance and wall-clock budget, records one PASS/FAIL line, and the
``conftest`` terminal-summary hook echoes all lines at the end of the run.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from infodep import (
    backward_coupling,
    binary_rho_squared,
    binary_u_from_conditionals,
    builtin,
    channel_of,
    chordal_slope,
    hessian_rho_lambda,
    lambda_dagger,
    marginals,
    maximal_correlation,
    mutual_information,
    product,
    q_star,
    ratio_for_u,
    renyi_value,
    scan_inputs,
    sstar,
    transpose,
)
from infodep.cli import COUNTEREXAMPLE_PAIRS
from conftest import random_joint, random_independent

RESULTS: list[str] = []

FIG2_SSTAR = 0.5 * math.log2(12.0 / 5.0)  # 0.6315172029168968

#: printed reference digits for the counterexample table, one row per pair
TABLE_DIGITS = (
    ("0.055770", "0.09130", "0.6108"),
    ("0.062321", "0.099958", "0.6234"),
    ("0.031038", "0.049379", "0.6285"),
    ("0.012507", "0.019838", "0.6304"),
    ("0.0046418", "0.0073545", "0.6311"),
    ("0.0016507", "0.0026145", "0.6313"),
    ("0.00057285", "0.00090716", "0.6314"),
    ("0.000195672", "0.000309852", "0.63150"),
)


@contextmanager
def criterion(num: int, tag: str):
    rec = {"ok": False, "detail": ""}
    try:
        yield rec
    except BaseException as exc:
        if not rec["detail"]:
            rec["detail"] = f"raised {type(exc).__name__}: {exc}"
        RESULTS.append(f"[criterion {num:02d}] FAIL {tag}: {rec['detail']}")
        raise
    line = (
        f"[criterion {num:02d}] {'PASS' if rec['ok'] else 'FAIL'} {tag}: "
        f"{rec['detail']}"
    )
    RESULTS.append(line)
    print(line)
    assert rec["ok"], line


def truncates_to(value: float, digits: str) -> bool:
    return f"{value:.12f}".startswith(digits)


def table_rows():
    j = builtin("fig2")
    rows = []
    for a, b in COUNTEREXAMPLE_PAIRS:
        rows.append(ratio_for_u(j, binary_u_from_conditionals(j, a, b)))
    return j, rows


def test_criterion_01_fig2_maximal_correlation(fig2):
    with criterion(1, "fig2 maximal correlation") as rec:
        maximal_correlation(builtin("remark3"))  # warm-up outside the clock
        t0 = time.perf_counter()
        rho2_svd = maximal_correlation(fig2).rho ** 2
        rho2_closed = binary_rho_squared(fig2)
        ms = (time.perf_counter() - t0) * 1e3
        err_svd = abs(rho2_svd - 0.6)
        err_closed = abs(rho2_closed - 0.6)
        rec["ok"] = err_svd <= 1e-9 and err_closed <= 1e-12 and ms < 10.0
        rec["detail"] = (
            f"rho^2 spectral err {err_svd:.3g} (tol 1e-9), closed-form err "
            f"{err_closed:.3g} (tol 1e-12), {ms:.2f} ms (cap 10 ms)"
        )


def test_criterion_02_fig2_sstar_and_lambda_dagger(fig2):
    with criterion(2, "fig2 s* and lambda-dagger") as rec:
        t0 = time.perf_counter()
        res = sstar(fig2)
        ld = lambda_dagger(channel_of(fig2))
        secs = time.perf_counter() - t0
        err_val = abs(res.value - FIG2_SSTAR)
        err_max = float(np.max(np.abs(res.maximizer.probs - np.array([0.0, 1.0]))))
        err_ld = abs(ld - res.value)
        rec["ok"] = (
            err_val <= 1e-4 and err_max <= 1e-6 and err_ld <= 1e-3 and secs < 5.0
        )
        rec["detail"] = (
            f"s* err {err_val:.3g} (tol 1e-4), maximizer dist to (0,1) "
            f"{err_max:.3g} (tol 1e-6), lambda-dagger err {err_ld:.3g} "
            f"(tol 1e-3), {secs:.2f} s (cap 5 s)"
        )


def test_criterion_03_counterexample_table_digits():
    with criterion(3, "counterexample table digits") as rec:
        t0 = time.perf_counter()
        _, rows = table_rows()
        ms = (time.perf_counter() - t0) * 1e3
        checks = []
        for i, (stats, (d_uy, d_ux, d_ratio)) in enumerate(zip(rows, TABLE_DIGITS)):
            info_tol = 5e-6 if i < 3 else 5e-7
            # two cells sit one printed ULP past the round bound; the printed
            # digits are still an exact truncation of the computed values
            ux_tol = {0: 1e-5, 3: 1e-6}.get(i, info_tol)
            checks.append(truncates_to(stats.i_uy, d_uy))
            checks.append(truncates_to(stats.i_ux, d_ux))
            checks.append(truncates_to(stats.ratio, d_ratio))
            checks.append(abs(stats.i_uy - float(d_uy)) <= info_tol)
            checks.append(abs(stats.i_ux - float(d_ux)) <= ux_tol)
            checks.append(abs(stats.ratio - float(d_ratio)) <= 1e-4)
        rec["ok"] = len(rows) == 8 and all(checks) and ms < 100.0
        rec["detail"] = (
            f"8 rows, {sum(checks)}/{len(checks)} digit checks passed, "
            f"{ms:.1f} ms (cap 100 ms)"
        )


def test_criterion_04_first_row_beats_rho_squared(fig2):
    with criterion(4, "ratio at (0.1, 0.4) exceeds rho^2") as rec:
        stats = ratio_for_u(fig2, binary_u_from_conditionals(fig2, 0.1, 0.4))
        rho2 = binary_rho_squared(fig2)
        rec["ok"] = stats.ratio > rho2
        rec["detail"] = (
            f"I(U;Y)/I(U;X) = {stats.ratio:.6f} > rho^2 = {rho2:.6f} "
            f"(margin {stats.ratio - rho2:.4f})"
        )


def test_criterion_05_remark3_asymmetry(remark3):
    with criterion(5, "remark3 directional gap") as rec:
        t0 = time.perf_counter()
        fwd = sstar(remark3).value
        bwd = sstar(transpose(remark3)).value
        secs = time.perf_counter() - t0
        rec["ok"] = (
            abs(fwd - 0.045) <= 1e-3
            and abs(bwd - 0.029) <= 1e-3
            and fwd - bwd > 0.01
            and secs < 5.0
        )
        rec["detail"] = (
            f"s*(X;Y) = {fwd:.6f} (0.045 +/- 1e-3), s*(Y;X) = {bwd:.6f} "
            f"(0.029 +/- 1e-3), gap {fwd - bwd:.4f} > 0.01, {secs:.2f} s "
            f"(cap 5 s)"
        )


def test_criterion_06_sandwich_on_random_joints():
    with criterion(6, "0 <= rho^2 <= s* <= 1 on 200 random joints") as rec:
        rng = np.random.default_rng(2026)
        t0 = time.perf_counter()
        worst_slack = np.inf
        agree = True
        for k in range(200):
            nx = int(rng.integers(2, 5))
            ny = int(rng.integers(2, 5))
            if k % 20 == 19:
                j = random_independent(rng, nx, ny)
            else:
                j = random_joint(rng, nx, ny)
            rho2 = maximal_correlation(j).rho ** 2
            s = sstar(j).value
            mi = mutual_information(j)
            assert 0.0 <= rho2 <= 1.0 and 0.0 <= s <= 1.0
            worst_slack = min(worst_slack, s - rho2)
            zeros = (rho2 <= 1e-9, s <= 1e-9, mi <= 1e-9)
            agree = agree and (len(set(zeros)) == 1)
        secs = time.perf_counter() - t0
        rec["ok"] = worst_slack >= -1e-6 and agree and secs < 120.0
        rec["detail"] = (
            f"min(s* - rho^2) = {worst_slack:.3g} (floor -1e-6), zero "
            f"equivalence {'held' if agree else 'BROKE'}, {secs:.1f} s "
            f"(cap 120 s)"
        )


def test_criterion_07_tensorization_on_random_pairs():
    with criterion(7, "max rule on 50 random 2x2 pairs") as rec:
        rng = np.random.default_rng(7)
        t0 = time.perf_counter()
        worst_rho = 0.0
        worst_s = 0.0
        for _ in range(50):
            a = random_joint(rng, 2, 2)
            b = random_joint(rng, 2, 2)
            jp = product(a, b)
            rho_resid = abs(
                maximal_correlation(jp).rho
                - max(maximal_correlation(a).rho, maximal_correlation(b).rho)
            )
            s_resid = abs(sstar(jp).value - max(sstar(a).value, sstar(b).value))
            worst_rho = max(worst_rho, rho_resid)
            worst_s = max(worst_s, s_resid)
        secs = time.perf_counter() - t0
        rec["ok"] = worst_rho <= 1e-8 and worst_s <= 1e-3 and secs < 180.0
        rec["detail"] = (
            f"max rho residual {worst_rho:.3g} (tol 1e-8), max s* residual "
            f"{worst_s:.3g} (tol 1e-3), {secs:.1f} s (cap 180 s)"
        )


def test_criterion_08_ribbon_boundary(fig2, independent):
    with criterion(8, "ribbon boundary shape and slopes") as rec:
        rng = np.random.default_rng(88)
        t0 = time.perf_counter()
        flat = [q_star(independent, p) for p in (2.0, 8.0)]
        ok_flat = all(q == 1.0 for q in flat)

        ps = (1.5, 2.0, 4.0, 8.0, 16.0, 32.0)
        ok_monotone = True
        ok_slope_floor = True
        for _ in range(10):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            rho2 = maximal_correlation(j).rho ** 2
            qs = [q_star(j, p) for p in ps]
            ratios = [q / p for p, q in zip(ps, qs)]
            for earlier, later in zip(ratios, ratios[1:]):
                ok_monotone = ok_monotone and later <= earlier + 1e-3
            for p, q in zip(ps, qs):
                slope = (q - 1.0) / (p - 1.0)
                ok_slope_floor = ok_slope_floor and slope >= rho2 - 5e-3

        big = chordal_slope(fig2, 81.0)
        err_big = abs(big - 0.6315)
        s_yx = sstar(transpose(fig2)).value
        small = chordal_slope(fig2, 1.01)
        err_small = abs(small - s_yx)
        secs = time.perf_counter() - t0
        rec["ok"] = (
            ok_flat
            and ok_monotone
            and ok_slope_floor
            and err_big <= 0.05
            and err_small <= 0.01
            and secs < 600.0
        )
        rec["detail"] = (
            f"independent boundary {'flat at 1' if ok_flat else 'NOT flat'}, "
            f"q*/p monotone {'held' if ok_monotone else 'BROKE'}, slope floor "
            f"{'held' if ok_slope_floor else 'BROKE'}, slope(81) err "
            f"{err_big:.3g} (tol 0.05), slope(1.01) vs s*(Y;X) err "
            f"{err_small:.3g} (tol 0.01), {secs:.0f} s (cap 600 s)"
        )


def test_criterion_09_curvature_equivalences():
    with criterion(9, "curvature route equivalences") as rec:
        rng = np.random.default_rng(99)
        worst_hess = 0.0
        worst_renyi = 0.0
        worst_coupling = 0.0
        for _ in range(100):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            w = maximal_correlation(j)
            rho2 = w.rho ** 2
            worst_hess = max(worst_hess, abs(hessian_rho_lambda(j) - rho2))
            if w.rho > 1e-6:
                worst_renyi = max(worst_renyi, abs(renyi_value(j, w.f) - rho2))
            worst_coupling = max(
                worst_coupling,
                abs(maximal_correlation(backward_coupling(j)).rho - rho2),
            )

        worst_fd = 0.0
        d = np.array([1.0, -1.0])
        for _ in range(20):
            j = random_joint(rng, 2, int(rng.integers(2, 6)))
            px = marginals(j)[0].probs
            w_rows = j.pxy / px[:, None]
            h = 1e-4

            def ent(v):
                nz = v[v > 0]
                return float(-(nz * np.log(nz)).sum())

            num = (
                ent((px + h * d) @ w_rows)
                - 2.0 * ent(px @ w_rows)
                + ent((px - h * d) @ w_rows)
            )
            den = ent(px + h * d) - 2.0 * ent(px) + ent(px - h * d)
            worst_fd = max(worst_fd, abs(num / den - hessian_rho_lambda(j)))

        rec["ok"] = (
            worst_hess <= 1e-9
            and worst_renyi <= 1e-8
            and worst_coupling <= 1e-8
            and worst_fd <= 1e-4
        )
        rec["detail"] = (
            f"eigen route err {worst_hess:.3g} (tol 1e-9), witness objective "
            f"err {worst_renyi:.3g} (tol 1e-8), backward-coupling err "
            f"{worst_coupling:.3g} (tol 1e-8), finite-difference threshold "
            f"err {worst_fd:.3g} (tol 1e-4)"
        )


def test_criterion_10_erasure_and_flip_channels():
    with criterion(10, "erasure and flip closed forms") as rec:
        worst_bec_rho = 0.0
        worst_bec_s = 0.0
        for e in (0.1, 0.25, 0.5):
            j = builtin(f"bec:{e}")
            worst_bec_rho = max(
                worst_bec_rho, abs(maximal_correlation(j).rho ** 2 - (1.0 - e))
            )
            worst_bec_s = max(worst_bec_s, abs(sstar(j).value - (1.0 - e)))
        worst_bsc = 0.0
        for eps in (0.05, 0.1, 0.2, 0.3, 0.45):
            j = builtin(f"bsc:{eps}")
            worst_bsc = max(
                worst_bsc,
                abs(binary_rho_squared(j) - (1.0 - 2.0 * eps) ** 2),
            )
        rec["ok"] = worst_bec_rho <= 1e-6 and worst_bec_s <= 1e-4 and worst_bsc <= 1e-9
        rec["detail"] = (
            f"erasure rho^2 err {worst_bec_rho:.3g} (tol 1e-6), erasure s* "
            f"err {worst_bec_s:.3g} (tol 1e-4), flip rho^2 err "
            f"{worst_bsc:.3g} (tol 1e-9)"
        )


def test_criterion_11_input_scan_agreement(fig2):
    with criterion(11, "input scan: spectral vs ratio maxima") as rec:
        diffs = []
        for rows in (channel_of(fig2).pyx, channel_of(builtin("bsc:0.2")).pyx):
            max_rho2, max_sstar = scan_inputs(rows)
            diffs.append(abs(max_rho2 - max_sstar))
        rec["ok"] = all(d <= 1e-3 for d in diffs)
        rec["detail"] = (
            f"|max rho^2 - max s*| = {diffs[0]:.3g} (fig2 rows), "
            f"{diffs[1]:.3g} (flip rows); tol 1e-3"
        )
