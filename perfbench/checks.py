"""Output checks: each output against a computation made apart from infodep,
or against a property the method must have.

References here use only numpy and the exact tables the benchmark built,
never infodep.  Tolerances are the ones infodep's acceptance criteria state.
Every failure message starts with a tag naming the check, so the self-test
can tell which check fired.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

LN2 = math.log(2.0)
#: s*(X;Y) of fig2 in closed form: (1/2) log2(12/5), reached at r = (0, 1)
FIG2_SSTAR = 0.5 * math.log2(12 / 5)
FIG2_RHO2 = 0.6

FIG2_TABLE = np.array([[1 / 3, 1 / 6, 0.0], [0.0, 1 / 4, 1 / 4]])
REMARK3_TABLE = np.array([[0.36, 0.49], [0.03, 0.12]])
INDEPENDENT_TABLE = np.full((2, 2), 0.25)


def bec_table(e: float) -> np.ndarray:
    return np.array([[(1 - e) / 2, e / 2, 0.0], [0.0, e / 2, (1 - e) / 2]])


def bsc_table(eps: float) -> np.ndarray:
    return np.array([[(1 - eps) / 2, eps / 2], [eps / 2, (1 - eps) / 2]])


# ------------------------------------------------------------- references


def marginals(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return t.sum(axis=1), t.sum(axis=0)


def rho2_svd(t: np.ndarray) -> float:
    """Second singular value of Q = p(x,y)/sqrt(p(x)p(y)), squared."""
    px, py = marginals(t)
    s = np.linalg.svd(t / np.sqrt(np.outer(px, py)), compute_uv=False)
    return float(s[1] ** 2) if s.size > 1 else 0.0


def kl_nats(r: np.ndarray, p: np.ndarray) -> float:
    """D(r || p) in nats of the distributions r and p stand for, computed as
    sum p phi(r/p) with phi(t) = t log t - t + 1 >= 0.

    A float64 vector sums to 1 only within an ulp or so.  The plain sum of
    r log(r/p) picks up that mismatch, sum r - sum p, in full, and near
    r = p it cancels down to its rounding error: at D ~ 1e-9 nats the two
    move a divergence ratio by ~1e-7.  The phi terms do not cancel, and
    their sum is D(r / sum r || p / sum p) to within a relative
    (sum r - 1) plus an absolute (sum r - sum p)^2 / 2, far below 1e-9.
    """
    m = p > 0.0
    t = r[m] / p[m]
    d = t - 1.0
    with np.errstate(divide="ignore", invalid="ignore"):
        phi = np.where(t > 0.0, t * np.log1p(d) - d, 1.0)
    return math.fsum(p[m] * phi)


def mi_bits(t: np.ndarray) -> float:
    px, py = marginals(t)
    return kl_nats(t.ravel(), np.outer(px, py).ravel()) / LN2


def ratio_parts(t: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    """(D(r_Y || p_Y), D(r || p_X)) in nats for input r through t's channel."""
    px, py = marginals(t)
    return kl_nats(r @ (t / px[:, None]), py), kl_nats(r, px)


def vertex_ratio(t: np.ndarray) -> float:
    """The largest D(r_Y||p_Y)/D(r||p_X) over the point masses r = delta_x,
    a lower bound on s*(X;Y): D(W_x||p_Y) / log(1/p(x)) for each row W_x."""
    px, py = marginals(t)
    w = t / px[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.where(w > 0.0, w * np.log(w / py), 0.0).sum(axis=1)
    return float(np.max(num / -np.log(px)))


def entropic_q_bound(t: np.ndarray, p: float) -> float:
    """Lower bound on q*(p) from the entropic form of hypercontractivity.

    q*(p) >= D(r_Y||p_Y) / (D(r_XY||p_XY) - (1 - 1/p) D(r_X||p_X)) for every
    r_XY with a positive denominator; evaluated at every point mass
    delta_(x,y) and at every delta_x * W.  Never below 1.
    """
    px, py = marginals(t)
    flat = t.ravel()
    candidates = []
    for x in range(t.shape[0]):
        for y in range(t.shape[1]):
            if t[x, y] > 0.0:
                r = np.zeros_like(t)
                r[x, y] = 1.0
                candidates.append(r)
        r = np.zeros_like(t)
        r[x] = t[x] / px[x]
        candidates.append(r)
    best = 1.0
    for r in candidates:
        den = kl_nats(r.ravel(), flat) - (1.0 - 1.0 / p) * kl_nats(r.sum(axis=1), px)
        if den > 0.0:
            best = max(best, kl_nats(r.sum(axis=0), py) / den)
    return best


def counterexample_ratio(a: float, b: float) -> float:
    """I(U;Y)/I(U;X) on fig2 for P(U=1|X=0) = a, P(U=1|X=1) = b, as mixture KLs."""
    px, py = marginals(FIG2_TABLE)
    W = FIG2_TABLE / px[:, None]
    pu_given_x = np.array([[1 - a, a], [1 - b, b]])
    w = px @ pu_given_x
    i_ux = i_uy = 0.0
    for u in range(2):
        if w[u] > 0.0:
            r = px * pu_given_x[:, u] / w[u]
            i_ux += w[u] * kl_nats(r, px)
            i_uy += w[u] * kl_nats(r @ W, py)
    return i_uy / i_ux


def closed_form_rho2(source: str) -> float | None:
    """rho^2 = s*(X;Y) of ``bec:<e>`` (1 - e) and ``bsc:<eps>`` ((1 - 2 eps)^2)."""
    head, _, arg = source.partition(":")
    if head == "bec":
        return 1.0 - float(Fraction(arg))
    if head == "bsc":
        return (1.0 - 2.0 * float(Fraction(arg))) ** 2
    return None


# -------------------------------------------------------------- measures


def check_measures(case, out) -> list[str]:
    """Checks of one measures output against its own joint."""
    t = case.table
    rho2 = out.rho**2
    fails = []
    ref = rho2_svd(t)
    if abs(rho2 - ref) > 1e-9:
        fails.append(f"rho_svd: rho^2 {rho2!r} vs dense SVD {ref!r}")
    ref = mi_bits(t)
    if abs(out.mi_bits - ref) > 1e-12:
        fails.append(f"mi: I(X;Y) {out.mi_bits!r} vs {ref!r} bits")
    for direction, res, tab in (("X;Y", out.fwd, t), ("Y;X", out.bwd, t.T)):
        num, den = ratio_parts(tab, res.maximizer)
        if res.value == 0.0:
            ok = num < 1e-12
        else:
            ok = den > 0.0 and abs(num / den - res.value) <= 1e-9 * abs(res.value)
        if not ok:
            fails.append(
                f"maximizer_ratio: s*({direction}) {res.value!r} but the ratio at "
                f"its maximizer is {num!r}/{den!r}"
            )
        if not (0.0 <= rho2 <= res.value + 1e-6 and res.value <= 1.0):
            fails.append(f"sandwich: rho^2 {rho2!r}, s*({direction}) {res.value!r}")
    if t.shape[0] == 2:
        if out.lambda_dagger is None or abs(out.lambda_dagger - out.fwd.value) > 1e-3:
            fails.append(f"lambda_dagger: {out.lambda_dagger!r} vs s* {out.fwd.value!r}")
    if case.kind == "fig2":
        far = float(np.max(np.abs(out.fwd.maximizer - np.array([0.0, 1.0]))))
        if abs(rho2 - FIG2_RHO2) > 1e-9 or abs(out.fwd.value - FIG2_SSTAR) > 1e-4 or far > 1e-6:
            fails.append(
                f"closed_form: fig2 rho^2 {rho2!r}, s* {out.fwd.value!r}, "
                f"maximizer {out.fwd.maximizer!r}"
            )
    elif case.kind in ("bec", "bsc"):
        target = closed_form_rho2(case.name)
        # bsc with uniform input is its own transpose, so both directions hold
        values = (out.fwd.value,) if case.kind == "bec" else (out.fwd.value, out.bwd.value)
        tol_rho2 = 1e-6 if case.kind == "bec" else 1e-4
        if abs(rho2 - target) > tol_rho2 or any(abs(v - target) > 1e-4 for v in values):
            fails.append(f"closed_form: {case.name} rho^2 {rho2!r}, s* {values!r}, expected {target!r}")
    return fails


def check_max_rule(prod, fa, fb) -> list[str]:
    """rho and s* (both directions) of a product equal the larger factor's."""
    fails = []
    if abs(prod.rho - max(fa.rho, fb.rho)) > 1e-8:
        fails.append(f"max_rule: product rho {prod.rho!r} vs factors {fa.rho!r}, {fb.rho!r}")
    for direction, p, a, b in (
        ("X;Y", prod.fwd, fa.fwd, fb.fwd),
        ("Y;X", prod.bwd, fa.bwd, fb.bwd),
    ):
        if abs(p.value - max(a.value, b.value)) > 1e-3:
            fails.append(
                f"max_rule: product s*({direction}) {p.value!r} vs factors "
                f"{a.value!r}, {b.value!r}"
            )
    return fails


def check_measures_round(ops, outs) -> dict[int, list[str]]:
    fails = {}
    for i, (op, out) in enumerate(zip(ops, outs)):
        if isinstance(out, Exception):
            continue
        f = check_measures(op.case, out)
        if op.case.kind == "product":
            ia, ib = op.case.factors
            # a factor that raised is counted as failed on its own
            if not isinstance(outs[ia], Exception) and not isinstance(outs[ib], Exception):
                f += check_max_rule(out, outs[ia], outs[ib])
        if f:
            fails[i] = f
    return fails


# ---------------------------------------------------------------- ribbon


def check_q_star(case, p: float, q: float) -> list[str]:
    t = case.table
    fails = []
    if not 1.0 <= q <= p:
        fails.append(f"range: q*({p:g}) = {q!r} outside [1, p]")
    if case.kind == "independent" and q != 1.0:
        fails.append(f"independent: q*({p:g}) = {q!r}, expected 1")
    rho2 = rho2_svd(t)
    slope = (q - 1.0) / (p - 1.0)
    if slope < rho2 - 5e-3:
        fails.append(f"slope_floor: chordal slope {slope!r} below rho^2 {rho2!r}")
    bound = entropic_q_bound(t, p)
    if q < bound - 1e-4:
        fails.append(f"entropic_bound: q*({p:g}) = {q!r} below the entropic bound {bound!r}")
    return fails


def check_ribbon_round(ops, outs) -> dict[int, list[str]]:
    fails: dict[int, list[str]] = {}
    previous: dict[str, tuple[float, float]] = {}
    for i, (op, q) in enumerate(zip(ops, outs)):
        if isinstance(q, Exception):
            continue
        f = check_q_star(op.case, op.p, q)
        last = previous.get(op.case.name)
        if last is not None and q / op.p > last[1] / last[0] + 1e-3:
            f.append(f"monotone: q*/p rose from {last[1] / last[0]!r} to {q / op.p!r}")
        previous[op.case.name] = (op.p, q)
        if f:
            fails[i] = f
    return fails


# ------------------------------------------------------------------- cli


def _key_values(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split()])


class CliReference:
    """Exact tables for every source a cli round names."""

    def __init__(self, json_path: str, json_fractions):
        self.json_path = json_path
        self.json_fractions = json_fractions

    def table(self, source: str) -> np.ndarray:
        if source == self.json_path:
            return np.array([[float(f) for f in row] for row in self.json_fractions])
        if source == "fig2":
            return FIG2_TABLE
        raise KeyError(source)

    def exact_marginals(self, source: str) -> tuple[np.ndarray, np.ndarray]:
        if source != self.json_path:
            return marginals(self.table(source))
        rows = self.json_fractions
        px = [sum(row) for row in rows]
        py = [sum(col) for col in zip(*rows)]
        return np.array([float(v) for v in px]), np.array([float(v) for v in py])


def check_cli(argv: list[str], out, ref: CliReference) -> list[str]:
    if out.code != 0:
        return [f"exit_code: {out.code} ({out.stderr.strip()[-200:]!r})"]
    try:
        return _check_cli_output(argv, out.stdout, ref)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"parse: cannot read the output ({exc!r})"]


def _check_cli_output(argv: list[str], stdout: str, ref: CliReference) -> list[str]:
    cmd = argv[0]
    kv = _key_values(stdout)
    fails = []
    if cmd == "info":
        t = ref.table(argv[1])
        px, py = ref.exact_marginals(argv[1])
        if np.abs(_floats(kv["p_x"]) - px).max() > 1e-8 or np.abs(_floats(kv["p_y"]) - py).max() > 1e-8:
            fails.append(f"info_marginals: p_x {kv['p_x']!r}, p_y {kv['p_y']!r} vs {px!r}, {py!r}")
        mi = float(kv["mutual_information_bits"])
        if abs(mi - mi_bits(t)) > 1e-8:
            fails.append(f"info_mi: {mi!r} vs {mi_bits(t)!r}")
    elif cmd == "measures":
        t = ref.table(argv[1])
        rho2, fwd, bwd = (float(kv[k]) for k in ("rho_squared", "sstar_xy", "sstar_yx"))
        if abs(rho2 - rho2_svd(t)) > 1e-8:
            fails.append(f"rho_svd: rho_squared {rho2!r} vs dense SVD {rho2_svd(t)!r}")
        if abs(float(kv["mutual_information_bits"]) - mi_bits(t)) > 1e-8:
            fails.append(f"mi: {kv['mutual_information_bits']!r} vs {mi_bits(t)!r}")
        if not all(0.0 <= rho2 <= s + 1e-6 and s <= 1.0 for s in (fwd, bwd)):
            fails.append(f"sandwich: rho^2 {rho2!r}, s* {fwd!r}, {bwd!r}")
        if t.shape[0] == 2 and abs(float(kv["lambda_dagger"]) - fwd) > 1e-3:
            fails.append(f"lambda_dagger: {kv['lambda_dagger']!r} vs s* {fwd!r}")
        if argv[1] == "fig2" and (abs(rho2 - FIG2_RHO2) > 1e-8 or abs(fwd - FIG2_SSTAR) > 1e-4):
            fails.append(f"closed_form: fig2 rho^2 {rho2!r}, s* {fwd!r}")
    elif cmd == "counterexample":
        from infodep.cli import COUNTEREXAMPLE_PAIRS

        lines = stdout.splitlines()
        if not lines or not lines[-1].endswith(": confirmed"):
            fails.append(f"verdict: {lines[-1] if lines else ''!r}")
        rows = [[float(v) for v in line.split()] for line in lines[1 : 1 + len(COUNTEREXAMPLE_PAIRS)]]
        for (a, b), row in zip(COUNTEREXAMPLE_PAIRS, rows):
            want = counterexample_ratio(a, b)
            if abs(row[4] - want) > 1e-8 or row[4] <= FIG2_RHO2:
                fails.append(f"counterexample_ratio: ({a}, {b}) ratio {row[4]!r}, expected {want!r} > 0.6")
        if len(rows) != len(COUNTEREXAMPLE_PAIRS):
            fails.append(f"counterexample_ratio: {len(rows)} rows")
    elif cmd == "tcurve" and argv[1] == "fig2":
        t = ref.table(argv[1])
        lam = float(argv[argv.index("--lambda") + 1])
        rows = np.array([[float(v) for v in line.split(",")] for line in stdout.splitlines()[1:]])
        i = int(np.argmin(np.abs(rows[:, 0] - marginals(t)[0][0])))
        gap = rows[i, 1] - rows[i, 2]
        # the envelope touches the curve at the input exactly when lambda >= s*
        touches = lam >= FIG2_SSTAR
        if (touches and gap > 1e-6) or (not touches and not gap > 0.0):
            fails.append(f"tcurve_gap: gap at the input {gap!r} at lambda {lam!r}")
    elif cmd == "tensor":
        target = max(closed_form_rho2(argv[1]), closed_form_rho2(argv[2]))
        rho, s = float(kv["rho_product"]), float(kv["sstar_product"])
        if abs(rho - math.sqrt(target)) > 1e-3 or abs(s - target) > 1e-3:
            fails.append(f"tensor_max_rule: rho {rho!r}, s* {s!r}, expected {math.sqrt(target)!r}, {target!r}")
    else:
        fails.append(f"unknown: no check for {cmd!r}")
    return fails


def check_cli_round(ops, outs, ref: CliReference) -> dict[int, list[str]]:
    fails = {}
    for i, (op, out) in enumerate(zip(ops, outs)):
        f = check_cli(op.argv, out, ref)
        if f:
            fails[i] = f
    return fails


# ---------------------------------------------------------------- counting


def tally(ops, outs, fails: dict[int, list[str]]) -> tuple[int, int, list[str]]:
    """(failed, wrong, messages) of one checked round.

    ``failed`` counts the ops that raised, exited nonzero or failed a check.
    ``wrong`` counts those a known fault of infodep does not account for: a
    known fault (``Case.known_fault``) names the one check it fails, so a
    raise, or any other check failing on that op, still counts as wrong.
    """
    failed = wrong = 0
    messages = []
    for i, (op, out) in enumerate(zip(ops, outs)):
        if isinstance(out, Exception):
            failed += 1
            wrong += 1
            messages.append(f"{op.label}: raised {out!r}")
        elif i in fails:
            failed += 1
            known = op.case.known_fault if op.case is not None else None
            if known is None or {f.split(":", 1)[0] for f in fails[i]} != {known[0]}:
                wrong += 1
            note = f" (known fault: {known[1]})" if known else ""
            messages.extend(f"{op.label}: {f}{note}" for f in fails[i])
    return failed, wrong, messages
