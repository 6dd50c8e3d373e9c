"""Command-line front end: measures, counterexample table, curve and ribbon CSV.

Subcommands
-----------
* ``info`` — validate an input and print its marginals and mutual information.
* ``measures`` — rho, rho^2, s*(X;Y), s*(Y;X), and (binary X) lambda-dagger.
* ``counterexample`` — the built-in table of binary summaries U of the fig2
  joint whose ratios I(U;Y)/I(U;X) all exceed rho^2, refuting the conjecture
  that rho^2 bounds that ratio.
* ``tcurve`` — CSV of the curve H(Y) - lambda*H(X) over binary inputs with
  its lower convex envelope.
* ``ribbon`` — CSV of the hypercontractivity boundary q*(p) and its chordal
  slopes, with s* and rho^2 reference values as footer comments.
* ``tensor`` — dependence measures of two joints and of their independent
  product, with the max-rule residuals.

Inputs are built-in names (``fig2``, ``remark3``, ``bsc:<eps>``, ``bec:<e>``,
``independent``) or paths to JSON files with the schema
``{"x_labels": [...], "y_labels": [...], "pxy": [[row per x], ...]}``.

Exit codes: 0 success; 2 malformed input; 3 unsupported shape (non-binary
where binary is required, degenerate or oversized alphabets); 4 numerical
failure; each error class in :mod:`infodep.errors` carries its code.  All
stochastic components take an explicit seed (default 0), so identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .catalog import BUILTIN_HELP, builtin, is_builtin
from .distributions import (
    JointDistribution,
    LogBase,
    channel_of,
    load_joint_json,
    mutual_information,
    product,
)
from .errors import InfodepError, ParseError, ValidationError
from .ribbon import QSTAR_MAX_P, _q_star_curve
from .spectral import binary_rho_squared, maximal_correlation
from .sstar import RESTARTS, _sstar, binary_u_from_conditionals, ratio_for_u
from .summary import measures
from .tcurve import ENVELOPE_GRID_N, _input_grid_index, lower_envelope_1d

__all__ = ["ReportDocument", "main", "entry"]

#: the most rows ``infodep ribbon --steps`` takes, one q* each
RIBBON_MAX_STEPS = 256

#: the (P(U=1|X=0), P(U=1|X=1)) pairs of the built-in counterexample table:
#: binary summaries of the fig2 joint with shrinking weight on U = 1, whose
#: information ratios climb from 0.6108 toward s* = 0.63150 — every one of
#: them above rho^2 = 0.6
COUNTEREXAMPLE_PAIRS = (
    (0.1, 0.4),
    (0.01, 0.23),
    (0.001, 0.102),
    (0.0001, 0.04),
    (0.00001, 0.01474),
    (0.000001, 0.005232),
    (0.0000001, 0.0018146),
    (0.00000001, 0.00061973),
)


def _fmt(x: float) -> str:
    return f"{float(x):.9g}"


@dataclass(frozen=True)
class ReportDocument:
    """Echoed inputs, computed values, and the settings that produced them."""

    inputs: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = [f"{k}: {v}" for k, v in self.inputs.items()]
        out += [f"{k}: {v}" for k, v in self.values.items()]
        if self.provenance:
            out.append(
                "provenance: "
                + " ".join(f"{k}={v}" for k, v in self.provenance.items())
            )
        return out


def _resolve(token: str) -> JointDistribution:
    """The built-in of that name, else the JSON file at that path."""
    if is_builtin(token):
        return builtin(token)
    try:
        return load_joint_json(token)
    except FileNotFoundError:
        raise ParseError(
            f"{token!r}: no such file, and not a built-in name ({BUILTIN_HELP})"
        ) from None


def _echo_inputs(token: str, j: JointDistribution) -> dict:
    matrix = "[" + ", ".join(
        "[" + ", ".join(_fmt(v) for v in row) + "]" for row in j.pxy
    ) + "]"
    return {
        "source": token,
        "x_labels": " ".join(str(l) for l in j.x_labels),
        "y_labels": " ".join(str(l) for l in j.y_labels),
        "pxy": matrix,
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


def cmd_info(args) -> int:
    j = _resolve(args.source)
    doc = ReportDocument(
        inputs=_echo_inputs(args.source, j),
        values={
            "status": "valid joint distribution",
            "shape": f"{j.shape[0]}x{j.shape[1]}",
            "p_x": " ".join(_fmt(v) for v in j.px),
            "p_y": " ".join(_fmt(v) for v in j.py),
            "mutual_information_bits": _fmt(mutual_information(j)),
        },
    )
    print("\n".join(doc.lines()))
    return 0


def cmd_measures(args) -> int:
    j = _resolve(args.source)
    base = LogBase(args.base)
    m = measures(j, restarts=args.restarts, seed=args.seed)
    values = {
        "rho": _fmt(m.witness.rho),
        "rho_squared": _fmt(m.witness.rho**2),
        "sstar_xy": _fmt(m.sstar_xy.value),
        "sstar_yx": _fmt(m.sstar_yx.value),
        f"mutual_information_{base.value}": _fmt(m.mutual_information_nats * base.from_nats),
    }
    provenance = {
        "seed": args.seed,
        "restarts": args.restarts,
        "sstar_tol": m.sstar_xy.diagnostics["tol"],
    }
    if m.lambda_dagger is not None:
        values["lambda_dagger"] = _fmt(m.lambda_dagger)
        values["lambda_dagger_minus_sstar_xy"] = _fmt(m.lambda_dagger - m.sstar_xy.value)
        provenance["envelope_grid_n"] = ENVELOPE_GRID_N
    doc = ReportDocument(_echo_inputs(args.source, j), values, provenance)
    print("\n".join(doc.lines()))
    return 0


def cmd_counterexample(args) -> int:
    j = builtin("fig2")
    rho2 = binary_rho_squared(j)
    rows = []
    for a, b in COUNTEREXAMPLE_PAIRS:
        stats = ratio_for_u(j, binary_u_from_conditionals(j, a, b))
        rows.append((a, b, stats.i_uy, stats.i_ux, stats.ratio))

    if args.out is not None:
        csv = ["pu1_given_x0,pu1_given_x1,i_uy_bits,i_ux_bits,ratio"]
        csv += [",".join(_fmt(v) for v in row) for row in rows]
        _emit("\n".join(csv) + "\n", args.out)

    header = ("P(U=1|X=0)", "P(U=1|X=1)", "I(U;Y) bits", "I(U;X) bits", "ratio")
    widths = (14, 14, 16, 16, 12)
    lines = ["".join(h.ljust(w) for h, w in zip(header, widths))]
    for row in rows:
        lines.append("".join(_fmt(v).ljust(w) for v, w in zip(row, widths)))
    lines.append(f"rho_squared: {_fmt(rho2)}")
    worst = min(r[4] for r in rows)
    ok = worst > rho2
    lines.append(
        f"violation: all 8 ratios exceed rho_squared = {_fmt(rho2)} "
        f"(smallest ratio {_fmt(worst)}): {'confirmed' if ok else 'FAILED'}"
    )
    print("\n".join(lines))
    return 0 if ok else 4


def cmd_tcurve(args) -> int:
    j = _resolve(args.source)
    c = channel_of(j)
    env = lower_envelope_1d(c, args.lam, args.grid)
    i = _input_grid_index(env.grid, c.input.probs[0])
    csv = ["p0,t_lambda,envelope"]
    csv += [
        f"{_fmt(p)},{_fmt(cv)},{_fmt(h)}"
        for p, cv, h in zip(env.grid, env.curve, env.hull)
    ]
    _emit("\n".join(csv) + "\n", args.out)
    if args.out is not None:
        print(f"source: {args.source}")
        print(f"lambda: {_fmt(args.lam)}")
        print(f"rows: {env.grid.shape[0]}")
        print(f"gap_at_input: {_fmt(env.curve[i] - env.hull[i])}")
    return 0


def cmd_ribbon(args) -> int:
    j = _resolve(args.source)
    if not 1.5 < args.pmax <= QSTAR_MAX_P:
        raise ValidationError(
            f"--pmax must be in (1.5, {QSTAR_MAX_P:g}], got {args.pmax!r}"
        )
    if not 2 <= args.steps <= RIBBON_MAX_STEPS:
        raise ValidationError(
            f"--steps must be in [2, {RIBBON_MAX_STEPS}], got {args.steps!r}"
        )
    ps = np.geomspace(1.5, args.pmax, args.steps)
    # one witness serves q*, s* (with sstar's default restarts and sweep cap)
    # and the rho^2 footer; maximal_correlation refuses a single-symbol
    # alphabet before the curve checks its p values
    w = maximal_correlation(j)
    curve = _q_star_curve(j, ps, w, args.seed)
    fwd = _sstar(j, w, seed=args.seed)
    csv = ["p,q_star,slope"]
    csv += [
        f"{_fmt(p)},{_fmt(q)},{_fmt(s)}"
        for p, q, s in zip(curve.ps, curve.qstars, curve.slopes)
    ]
    csv.append(f"# sstar_xy,{_fmt(fwd.value)}")
    csv.append(f"# rho_squared,{_fmt(w.rho**2)}")
    _emit("\n".join(csv) + "\n", args.out)
    if args.out is not None:
        print(f"source: {args.source}")
        print(f"rows: {curve.ps.shape[0]}")
        print(f"final_slope: {_fmt(curve.slopes[-1])}")
    return 0


def cmd_tensor(args) -> int:
    """rho and s* of two joints and of their independent product, with the
    max-rule residuals: one SVD per joint, whose witness gives rho and
    s*'s witness ray."""
    j1 = _resolve(args.source1)
    j2 = _resolve(args.source2)
    jp = product(j1, j2)
    witnesses = [maximal_correlation(j) for j in (j1, j2, jp)]
    rho1, rho2_, rhop = (w.rho for w in witnesses)
    s1, s2, sp = (_sstar(j, w, args.restarts, args.seed).value
                  for j, w in zip((j1, j2, jp), witnesses))
    doc = ReportDocument(
        inputs={"source_1": args.source1, "source_2": args.source2,
                "product_shape": f"{jp.shape[0]}x{jp.shape[1]}"},
        values={
            "rho_1": _fmt(rho1),
            "rho_2": _fmt(rho2_),
            "rho_product": _fmt(rhop),
            "rho_max_rule_residual": _fmt(abs(rhop - max(rho1, rho2_))),
            "sstar_1": _fmt(s1),
            "sstar_2": _fmt(s2),
            "sstar_product": _fmt(sp),
            "sstar_max_rule_residual": _fmt(abs(sp - max(s1, s2))),
        },
        provenance={"seed": args.seed, "restarts": args.restarts},
    )
    print("\n".join(doc.lines()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infodep",
        description=(
            "Dependence measures for finite discrete joint distributions: "
            "maximal correlation, the strong data-processing constant, the "
            "hypercontractivity ribbon boundary, and the entropy curve "
            "H(Y) - lambda*H(X)."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    source_help = f"built-in name ({BUILTIN_HELP}) or JSON file path"

    p = sub.add_parser("info", help="validate an input and print its summary")
    p.add_argument("source", help=source_help)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("measures", help="rho, s* both ways, and lambda-dagger")
    p.add_argument("source", help=source_help)
    p.add_argument("--base", choices=["bits", "nats"], default="bits")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=RESTARTS)
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser(
        "counterexample",
        help="table of binary U summaries with I(U;Y)/I(U;X) above rho^2",
    )
    p.add_argument("--out", help="also write the table as CSV to this path")
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser(
        "tcurve", help="CSV of the curve H(Y) - lambda*H(X) and its envelope"
    )
    p.add_argument("source", help=source_help)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--grid", type=int, default=ENVELOPE_GRID_N)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_tcurve)

    p = sub.add_parser("ribbon", help="CSV of q*(p) and its chordal slopes")
    p.add_argument("source", help=source_help)
    p.add_argument("--pmax", type=float, default=32.0)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_ribbon)

    p = sub.add_parser(
        "tensor", help="factor vs product measures and max-rule residuals"
    )
    p.add_argument("source1", help=source_help)
    p.add_argument("source2", help=source_help)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=RESTARTS)
    p.set_defaults(func=cmd_tensor)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InfodepError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # each error class carries its exit code; an unreadable file gives 2
        return getattr(exc, "exit_code", 2)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
