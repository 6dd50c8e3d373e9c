"""Self-test of the output checks: every check must reject a planted fault.

Each case hands a check a deliberately wrong output and expects a failure
carrying that check's tag; the unplanted outputs must pass.  A check that
can never fail shows up here.  Runs inside every benchmark run and on its
own: ``PYTHONPATH=src python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np

import checks
from checks import FIG2_SSTAR, FIG2_TABLE, INDEPENDENT_TABLE, CliReference


def _expect(problems: list[str], what: str, fails: list[str], tag: str | None) -> None:
    tags = {f.split(":", 1)[0] for f in fails}
    if tag is None and fails:
        problems.append(f"{what}: a correct output failed: {fails}")
    elif tag is not None and tag not in tags:
        problems.append(f"{what}: planted fault not caught by {tag!r} (got {sorted(tags)})")


def _measures(problems: list[str]) -> None:
    import infodep
    import workloads

    case = workloads.Case("fig2", FIG2_TABLE, None, "fig2")
    good = workloads.measures_op(infodep.builtin("fig2"))
    rep = dataclasses.replace
    _expect(problems, "measures fig2", checks.check_measures(case, good), None)
    planted = [
        ("s*(fig2) = 0.6", rep(good, fwd=rep(good.fwd, value=0.6)), "closed_form"),
        ("rho off by 1e-6", rep(good, rho=good.rho + 1e-6), "rho_svd"),
        ("I(X;Y) off by 1e-9", rep(good, mi_bits=good.mi_bits + 1e-9), "mi"),
        ("s*(X;Y) not the ratio at its maximizer",
         rep(good, fwd=rep(good.fwd, value=good.fwd.value * (1 + 1e-6))), "maximizer_ratio"),
        ("s* above 1", rep(good, fwd=rep(good.fwd, value=1.2)), "sandwich"),
        ("lambda-dagger off by 2e-3", rep(good, lambda_dagger=good.fwd.value + 2e-3), "lambda_dagger"),
    ]
    for what, out, tag in planted:
        _expect(problems, what, checks.check_measures(case, out), tag)
    bec = workloads.Case("bec:1/4", checks.bec_table(0.25), None, "bec")
    off = rep(good, rho=math.sqrt(0.75), fwd=rep(good.fwd, value=0.75 - 2e-4))
    _expect(problems, "s*(bec:1/4) off by 2e-4", checks.check_measures(bec, off), "closed_form")

    # a maximizer 2.4e-5 from p(x) = (1/2, 1/2) on bsc:1/5, as sstar returns
    # it, with the ratio there from the series of D((1/2 + d, 1/2 - d) || uniform)
    bsc = workloads.Case("bsc:1/5", checks.bsc_table(0.2), None, "bsc")
    r0 = 0.5 + 2.4e-5
    r = np.array([r0, 1.0 - r0])  # sums to 1 exactly

    def d_uniform(d):
        return sum((2 * d) ** (2 * k) / (2 * k * (2 * k - 1)) for k in range(1, 6))

    near = workloads.SStarOut(d_uniform(0.6 * (r0 - 0.5)) / d_uniform(r0 - 0.5), r)
    near_p = workloads.MeasuresOut(0.6, near, near, checks.mi_bits(bsc.table), near.value)
    _expect(problems, "bsc:1/5 near p(x)", checks.check_measures(bsc, near_p), None)
    raised = rep(near_p, fwd=rep(near, value=near.value + 1e-7))
    _expect(problems, "s*(bsc:1/5) 1e-7 above the ratio near p(x)",
            checks.check_measures(bsc, raised), "maximizer_ratio")

    _expect(problems, "max rule", checks.check_max_rule(good, good, good), None)
    above = rep(good, fwd=rep(good.fwd, value=good.fwd.value + 2e-3))
    _expect(problems, "product s* above the max rule", checks.check_max_rule(above, good, good), "max_rule")
    _expect(problems, "product rho off by 1e-7",
            checks.check_max_rule(rep(good, rho=good.rho + 1e-7), good, good), "max_rule")


def _ribbon(problems: list[str]) -> None:
    from workloads import Case, Op

    fig2 = Case("fig2", FIG2_TABLE, None, "fig2")
    independent = Case("independent", INDEPENDENT_TABLE, None, "independent")
    ps = (1.5, 4.0, 32.0)

    def run(case, qs):
        ops = [Op("", None, case=case, p=p) for p in ps]
        return [f for fs in checks.check_ribbon_round(ops, list(qs)).values() for f in fs]

    # q* = p always lies in the ribbon, so it passes every check
    _expect(problems, "q* = p", run(fig2, ps), None)
    _expect(problems, "q* = 1 on independent", run(independent, (1.0, 1.0, 1.0)), None)
    _expect(problems, "q* below the entropic bound", run(fig2, (1.5, 4.0, 15.0)), "entropic_bound")
    _expect(problems, "q* above p", run(fig2, (1.5, 4.5, 32.0)), "range")
    _expect(problems, "q* > 1 on independent", run(independent, (1.0, 1.5, 1.0)), "independent")
    _expect(problems, "slope below rho^2", run(fig2, (1.5, 1.0 + 0.59 * 3.0, 32.0)), "slope_floor")
    _expect(problems, "q*/p rising", run(fig2, (1.3, 2.8, 32.0)), "monotone")


def _cli(problems: list[str]) -> None:
    from infodep.cli import COUNTEREXAMPLE_PAIRS
    from workloads import CliOut

    json_table = [[Fraction(1, 6)] * 3, [Fraction(1, 12), Fraction(1, 4), Fraction(1, 6)]]
    ref = CliReference("joint.json", json_table)

    def check(argv, stdout, code=0):
        return checks.check_cli(argv, CliOut(code, stdout, ""), ref)

    def fmt(x):
        return f"{float(x):.9g}"

    t = ref.table("joint.json")
    px, py = checks.marginals(t)

    def info(mi):
        return f"p_x: {fmt(px[0])} {fmt(px[1])}\np_y: {' '.join(fmt(v) for v in py)}\nmutual_information_bits: {fmt(mi)}\n"

    _expect(problems, "info", check(["info", "joint.json"], info(checks.mi_bits(t))), None)
    _expect(problems, "info I(X;Y) off by 1e-6",
            check(["info", "joint.json"], info(checks.mi_bits(t) + 1e-6)), "info_mi")
    _expect(problems, "exit code 4", check(["info", "joint.json"], "", code=4), "exit_code")

    def measures(sxy):
        return (f"rho_squared: 0.6\nsstar_xy: {fmt(sxy)}\nsstar_yx: 0.65\n"
                f"mutual_information_bits: {fmt(checks.mi_bits(FIG2_TABLE))}\nlambda_dagger: {fmt(FIG2_SSTAR)}\n")

    _expect(problems, "measures fig2", check(["measures", "fig2"], measures(FIG2_SSTAR)), None)
    _expect(problems, "measures fig2 s* = 0.6", check(["measures", "fig2"], measures(0.6)), "closed_form")

    def table(ratios, verdict):
        rows = [f"{a} {b} 0 0 {fmt(r)}" for (a, b), r in zip(COUNTEREXAMPLE_PAIRS, ratios)]
        return "\n".join(["header"] + rows + ["rho_squared: 0.6", f"violation: ...: {verdict}"]) + "\n"

    ratios = [checks.counterexample_ratio(a, b) for a, b in COUNTEREXAMPLE_PAIRS]
    _expect(problems, "counterexample", check(["counterexample"], table(ratios, "confirmed")), None)
    _expect(problems, "counterexample FAILED verdict",
            check(["counterexample"], table(ratios, "FAILED")), "verdict")
    _expect(problems, "counterexample ratio off by 1e-6",
            check(["counterexample"], table([ratios[0] + 1e-6] + ratios[1:], "confirmed")),
            "counterexample_ratio")

    def curve(gap):
        grid = np.linspace(0.0, 1.0, 65)
        return "p0,t_lambda,envelope\n" + "".join(f"{fmt(p)},{fmt(1.0 + gap)},1\n" for p in grid)

    _expect(problems, "tcurve touching at 0.7", check(["tcurve", "fig2", "--lambda", "0.7"], curve(0.0)), None)
    _expect(problems, "tcurve gap at 0.7", check(["tcurve", "fig2", "--lambda", "0.7"], curve(1e-3)),
            "tcurve_gap")
    _expect(problems, "tcurve no gap at 0.55", check(["tcurve", "fig2", "--lambda", "0.55"], curve(0.0)),
            "tcurve_gap")

    def tensor(rho):
        return f"rho_product: {fmt(rho)}\nsstar_product: 0.75\n"

    argv = ["tensor", "bec:0.25", "bsc:0.1"]
    _expect(problems, "tensor", check(argv, tensor(math.sqrt(0.75))), None)
    _expect(problems, "tensor rho_product 0.8", check(argv, tensor(0.8)), "tensor_max_rule")


def _tally(problems: list[str]) -> None:
    """A known fault excuses its own check and nothing else."""
    from infodep import InfodepError
    from workloads import NEAR_P_FAULT, Case, Op

    known = Op("bsc", None, case=Case("bsc:1/5", None, None, "bsc", known_fault=NEAR_P_FAULT))
    plain = Op("fig2", None, case=Case("fig2", None, None, "fig2"))
    cli = Op("infodep info fig2", None)
    ratio = ["maximizer_ratio: planted"]
    cases = [
        ("known fault on its own check", [known], [None], {0: ratio}, (1, 0)),
        ("known fault and another check", [known], [None], {0: ratio + ["mi: planted"]}, (1, 1)),
        ("known-fault op raising", [known], [InfodepError("planted")], {}, (1, 1)),
        ("plain op failing the known fault's check", [plain], [None], {0: ratio}, (1, 1)),
        ("cli exit code 4", [cli], [None], {0: ["exit_code: 4"]}, (1, 1)),
        ("passing ops", [known, plain, cli], [None] * 3, {}, (0, 0)),
    ]
    for what, ops, outs, fails, want in cases:
        got = checks.tally(ops, outs, fails)[:2]
        if got != want:
            problems.append(f"tally, {what}: (failed, wrong) = {got}, expected {want}")


def run() -> list[str]:
    """Problems found: planted faults no check caught, correct outputs failed."""
    problems: list[str] = []
    _measures(problems)
    _ribbon(problems)
    _cli(problems)
    _tally(problems)
    return problems


if __name__ == "__main__":
    found = run()
    for line in found:
        print(line)
    print("self-test:", "FAILED" if found else "every planted fault caught")
    sys.exit(1 if found else 0)
