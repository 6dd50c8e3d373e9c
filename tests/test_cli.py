"""End-to-end tests of the command-line interface, run in-process."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import infodep
from infodep import builtin, errors, maximal_correlation, product, q_star_curve, sstar
from infodep.catalog import BUILTIN_HELP, _param
from infodep.cli import RIBBON_MAX_STEPS, _fmt, main
from infodep.distributions import MAX_ALPHABET, _parse_prob, channel_of, load_joint_json
from infodep.sstar import MAX_RESTARTS
from infodep.tcurve import MAX_GRID_N, lambda_dagger


#: rows [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]] at P(X=0) = 1e-5, within half a
#: grid step of 0 on the default envelope grid
SKEWED_DOC = {
    "x_labels": [0, 1],
    "y_labels": [0, 1, 2],
    "pxy": [["1/500000", "3/1000000", "1/200000"],
            ["599994/1000000", "299997/1000000", "99999/1000000"]],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv", [("measures", "fig2"), ("ribbon", "fig2"), ("tensor", "fig2", "remark3")]
)
def test_negative_seed_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--seed", "-1")
    assert code == 2
    assert out == "" and err.startswith("error:") and "seed" in err


class TestInfo:
    def test_fig2(self, capsys):
        code, out, err = run(capsys, "info", "fig2")
        assert code == 0 and err == ""
        assert "p_x: 0.5 0.5" in out
        assert "p_y: 0.333333333 0.416666667 0.25" in out
        assert "mutual_information_bits: 0.595437252" in out
        assert "shape: 2x3" in out

    def test_json_file(self, capsys, tmp_path):
        path = tmp_path / "joint.json"
        path.write_text(
            json.dumps(
                {
                    "x_labels": [0, 1],
                    "y_labels": [0, 1],
                    "pxy": [["1/4", "1/4"], ["1/4", "1/4"]],
                }
            )
        )
        code, out, err = run(capsys, "info", str(path))
        assert code == 0
        assert "mutual_information_bits: 0" in out

    def test_tiny_entry_keeps_one_bit(self, capsys, tmp_path):
        # 1e-17 / (p(x) p(y)) is below 2^-54, where the divergence kernel
        # once gave -inf and this printed 0
        path = tmp_path / "tiny.json"
        doc = {"x_labels": [0, 1], "y_labels": [0, 1], "pxy": [[0.5, 1e-17], [0, 0.5]]}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "info", str(path))
        assert code == 0 and err == ""
        assert "mutual_information_bits: 1\n" in out

    def test_unhashable_labels_exit_2(self, capsys, tmp_path):
        path = tmp_path / "lists.json"
        doc = {"x_labels": [[0], [1]], "y_labels": [0, 1], "pxy": [[0.5, 0.0], [0.0, 0.5]]}
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "info", str(path))
        assert code == 2
        assert err.startswith("error:") and "hashable" in err

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"x_labels": [0, 1], ')
        code, out, err = run(capsys, "info", str(path))
        assert code == 2
        assert "error:" in err and "line" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, out, err = run(capsys, "info", str(tmp_path / "nope.json"))
        assert code == 2

    def test_bad_builtin_parameter_exits_2(self, capsys):
        code, out, err = run(capsys, "info", "bsc:bad")
        assert code == 2
        assert "error:" in err

    def test_out_of_range_builtin_parameter_exits_2(self, capsys):
        code, out, err = run(capsys, "info", "bsc:2")
        assert code == 2
        assert out == "" and err.startswith("error:") and "[0, 1]" in err

    def test_unknown_builtin_is_refused_with_exit_code_2(self, capsys):
        # a token that is neither a file nor a built-in gets one error that
        # says both
        for token in ("fig3", "bsc3:0.1"):
            code, out, err = run(capsys, "info", token)
            assert code == 2 and out == ""
            assert f"{token!r}: no such file, and not a built-in name" in err
            assert BUILTIN_HELP in err
        with pytest.raises(errors.ParseError, match="unknown built-in") as exc:
            builtin("fig3")
        assert exc.value.exit_code == 2

    def test_builtin_name_takes_precedence_over_file(self, capsys, tmp_path, monkeypatch):
        (tmp_path / "fig2").write_text("not json")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "info", "fig2")
        assert code == 0 and "shape: 2x3" in out

    @pytest.mark.parametrize(
        "doc, says",
        [
            ([[0.5, 0.5]], "top level"),
            ({"x_labels": "ab", "y_labels": [0, 1], "pxy": [[0.5, 0.0], [0.0, 0.5]]},
             "must be lists"),
            ({"x_labels": [0, 1], "y_labels": [0, 1], "pxy": [[0.5, 0.0], {"0": 0.5}]},
             "list of rows"),
            ({"x_labels": [0, 1], "y_labels": [0, 1], "pxy": [[0.5, 0.0], [True, 0.5]]},
             "number or fraction"),
        ],
        ids=["top-level list", "labels not a list", "row not a list", "true entry"],
    )
    def test_refused_json_exits_2(self, capsys, tmp_path, doc, says):
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "info", str(path))
        assert code == 2
        assert out == "" and err.startswith("error:") and says in err

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["info"])  # missing source
        assert exc.value.code == 2


#: a 2x2 JSON table whose first entry is the JSON text filled in for %s
TABLE_WITH = '{"x_labels": [0, 1], "y_labels": [0, 1], "pxy": [[%s, 0.5], [0.5, 0]]}'


class TestOutsideInput:
    """Entries and channel parameters read by one parser, which refuses
    with exit 2 what no finite float holds and reads every token in time
    bounded by its length."""

    @pytest.mark.parametrize(
        "source",
        [
            b"\xff\xfe\x00x",
            (TABLE_WITH % ("1" * 4301)).encode(),
            (TABLE_WITH % ("1" * 400)).encode(),
            (TABLE_WITH % '"1e400"').encode(),
            "bsc:1e400",
            "bec:1e400",
        ],
        ids=["not utf-8", "4301-digit integer", "400-digit integer", "string 1e400",
             "bsc:1e400", "bec:1e400"],
    )
    def test_unreadable_input_exits_2(self, capsys, tmp_path, source):
        if isinstance(source, bytes):
            path = tmp_path / "entry.json"
            path.write_bytes(source)
            source = str(path)
        code, out, err = run(capsys, "info", source)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_huge_exponent_parses_at_once(self, tmp_path):
        # in a subprocess, so that a parser that builds 10^999999999 fails
        # on the timeout instead of hanging the suite
        path = tmp_path / "tiny.json"
        path.write_text(TABLE_WITH % '"1e-999999999"')
        script = textwrap.dedent(
            f"""
            import time
            from infodep import builtin
            from infodep.distributions import load_joint_json
            start = time.perf_counter()
            tables = [load_joint_json({str(path)!r}).pxy, builtin("bsc:1e-999999999").pxy]
            print(time.perf_counter() - start)
            print([t.tolist() for t in tables])
            """
        )
        src = str(Path(infodep.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=30,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        seconds, tables = done.stdout.splitlines()
        assert float(seconds) < 1.0
        assert tables == str([[[0.0, 0.5], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.5]]])

    def test_oversized_table_refused_before_its_entries(self, capsys, tmp_path):
        # every entry is unreadable, so only a refusal that reads none of
        # them exits 3
        n = MAX_ALPHABET + 1
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "x_labels": [0, 1], "y_labels": list(range(n)), "pxy": [["?"] * n] * 2,
        }))
        code, out, err = run(capsys, "info", str(path))
        assert code == 3 and out == ""
        assert err == f"error: alphabets 2x{n} exceed the {MAX_ALPHABET}-symbol limit\n"

    @pytest.mark.parametrize(
        "token, expected",
        [
            ("1/3", "0x1.5555555555555p-2"),
            ("0.1", "0x1.999999999999ap-4"),
            (" 1/4 ", "0x1.0000000000000p-2"),
            ("2/8", "0x1.0000000000000p-2"),
            ("1 / 3", "0x1.5555555555555p-2"),
            ("1e-3", "0x1.0624dd2f1a9fcp-10"),
            ("1e-400", "0x0.0p+0"),
            ("0", "0x0.0p+0"),
            ("1", "0x1.0000000000000p+0"),
            pytest.param(1, "0x1.0000000000000p+0", id="int 1"),
            pytest.param(0.25, "0x1.0000000000000p-2", id="float 0.25"),
            ("1e400", None),
            pytest.param(10**400, None, id="int 10**400"),
        ],
    )
    def test_token_table(self, token, expected):
        # the floats float(Fraction(token)) gives, None where it overflows
        # (Python 3.12 on: "1 / 3" is refused by 3.11's Fraction); a channel
        # parameter reads the same way
        parsers = [lambda t: _parse_prob(t, "entry")]
        if isinstance(token, str):
            parsers.append(lambda t: _param(f"bsc:{t}"))
        for parse in parsers:
            if expected is None:
                with pytest.raises(errors.ParseError, match="cannot parse"):
                    parse(token)
            else:
                assert parse(token).hex() == expected


class TestMeasures:
    def test_remark3(self, capsys):
        code, out, err = run(capsys, "measures", "remark3")
        assert code == 0
        assert "rho_squared: 0.0267784289" in out
        assert "sstar_xy: 0.0456805476" in out
        assert "sstar_yx: 0.029840834" in out
        assert "lambda_dagger: " in out
        assert "provenance: seed=0" in out

    def test_provenance_reads_sstar_diagnostics(self, capsys):
        code, out, err = run(capsys, "measures", "remark3")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("provenance: "))
        assert "restarts=64 sstar_tol=1e-09" in line
        prov = dict(kv.split("=", 1) for kv in line[len("provenance: "):].split())
        diag = sstar(builtin("remark3")).diagnostics
        assert float(prov["sstar_tol"]) == diag["tol"]

    def test_negative_restarts_exits_2(self, capsys):
        code, out, err = run(capsys, "measures", "fig2", "--restarts", "-5")
        assert code == 2
        assert out == "" and "restarts" in err

    def test_restarts_above_limit_exits_2(self, capsys):
        code, out, err = run(
            capsys, "measures", "fig2", "--restarts", str(MAX_RESTARTS + 1)
        )
        assert code == 2
        assert out == "" and "restarts" in err

    def test_independent_binary_input(self, capsys):
        code, out, err = run(capsys, "measures", "independent")
        assert code == 0
        assert "lambda_dagger: 0" in out

    def test_nats_base(self, capsys):
        code, out, err = run(capsys, "measures", "remark3", "--base", "nats")
        assert code == 0
        assert "mutual_information_nats: 0.0144929192" in out

    def test_input_at_grid_end_exits_2(self, capsys, tmp_path):
        # P(X=0) = 1e-5 is within half a grid step of 0, where lambda-dagger
        # would read rho^2 off the grid end
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps(SKEWED_DOC))
        code, out, err = run(capsys, "measures", str(path))
        assert code == 2 and out == ""
        assert "P(X=0) = 1e-05" in err and "grid_n = 4096" in err

    def test_wide_joint_skips_lambda_dagger(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {
                    "x_labels": [0, 1, 2],
                    "y_labels": [0, 1],
                    "pxy": [[0.2, 0.1], [0.1, 0.2], [0.2, 0.2]],
                }
            )
        )
        code, out, err = run(capsys, "measures", str(path))
        assert code == 0
        assert "lambda_dagger" not in out

    @pytest.mark.parametrize(
        "x_labels, y_labels, pxy",
        [([0], [0, 1], [[0.3, 0.7]]), ([0, 1], [0], [[0.3], [0.7]])],
        ids=["1x2", "2x1"],
    )
    def test_single_symbol_alphabet_exits_3(self, capsys, tmp_path, x_labels, y_labels, pxy):
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps({"x_labels": x_labels, "y_labels": y_labels, "pxy": pxy}))
        code, out, err = run(capsys, "measures", str(path))
        assert code == 3
        assert err.startswith("error:")


class TestCounterexample:
    def test_table_and_verdict(self, capsys):
        code, out, err = run(capsys, "counterexample")
        assert code == 0
        assert "rho_squared: 0.6" in out
        assert "confirmed" in out
        body = [
            l
            for l in out.splitlines()
            if len(l.split()) == 5 and not l.startswith("P(")
        ]
        assert len(body) == 8

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, err = run(capsys, "counterexample", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "pu1_given_x0,pu1_given_x1,i_uy_bits,i_ux_bits,ratio"
        assert len(lines) == 9
        first = lines[1].split(",")
        assert first[0] == "0.1" and first[1] == "0.4"
        assert float(first[4]) == pytest.approx(0.610818, abs=1e-6)

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run(capsys, "counterexample")
        _, out2, _ = run(capsys, "counterexample")
        assert out1 == out2


class TestTcurve:
    def test_csv_to_stdout(self, capsys):
        code, out, err = run(capsys, "tcurve", "fig2", "--lambda", "0.6", "--grid", "256")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p0,t_lambda,envelope"
        assert len(lines) == 258  # header + grid_n + 1 points
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[0]) == 0.0 and float(last[0]) == 1.0
        # hull never exceeds the curve
        for line in lines[1:]:
            _, cv, h = (float(v) for v in line.split(","))
            assert h <= cv + 1e-12

    def test_gap_closes_at_lambda_dagger(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, err = run(
            capsys, "tcurve", "fig2", "--lambda", "0.64", "--out", str(path)
        )
        assert code == 0
        assert "gap_at_input: 0" in out
        assert path.read_text().startswith("p0,t_lambda,envelope")

    def test_gap_open_below_threshold(self, capsys, tmp_path):
        path = tmp_path / "curve.csv"
        code, out, err = run(
            capsys, "tcurve", "fig2", "--lambda", "0.6", "--out", str(path)
        )
        assert code == 0
        gap_line = [l for l in out.splitlines() if l.startswith("gap_at_input")][0]
        assert float(gap_line.split(":")[1]) > 1e-6

    def test_lambda_out_of_range_exits_2(self, capsys):
        code, out, err = run(capsys, "tcurve", "fig2", "--lambda", "1.5")
        assert code == 2

    def test_grid_above_limit_exits_2(self, capsys):
        code, out, err = run(
            capsys, "tcurve", "fig2", "--lambda", "0.5", "--grid", str(MAX_GRID_N + 1)
        )
        assert code == 2
        assert out == "" and "grid_n" in err

    def test_input_at_grid_end_exits_2(self, capsys, tmp_path):
        # P(X=0) = 1e-5 is nearest the grid end 0, always a hull vertex, so
        # the gap there would read 0 whatever lambda; no CSV is written
        path = tmp_path / "skewed.json"
        path.write_text(json.dumps(SKEWED_DOC))
        with pytest.raises(errors.ValidationError) as exc:
            lambda_dagger(channel_of(load_joint_json(path)))
        csv = tmp_path / "f.csv"
        for out_args in ((), ("--out", str(csv))):
            code, out, err = run(capsys, "tcurve", str(path), "--lambda", "0", *out_args)
            assert code == 2 and out == ""
            assert err == f"error: {exc.value}\n"
        assert not csv.exists()

    def test_wide_input_exits_3(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps(
                {
                    "x_labels": [0, 1, 2],
                    "y_labels": [0, 1],
                    "pxy": [[0.2, 0.1], [0.1, 0.2], [0.2, 0.2]],
                }
            )
        )
        code, out, err = run(capsys, "tcurve", str(path), "--lambda", "0.5")
        assert code == 3
        assert "error:" in err


class TestRibbon:
    def test_csv_schema_and_footers(self, capsys):
        code, out, err = run(
            capsys, "ribbon", "remark3", "--pmax", "8", "--steps", "3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p,q_star,slope"
        data = [l for l in lines[1:] if not l.startswith("#")]
        footers = [l for l in lines[1:] if l.startswith("#")]
        assert len(data) == 3
        assert footers[0].startswith("# sstar_xy,")
        assert footers[1].startswith("# rho_squared,")
        for line in data:
            p, q, s = (float(v) for v in line.split(","))
            assert 1.0 <= q <= p

    def test_slopes_not_below_rho_squared(self, capsys):
        code, out, err = run(capsys, "ribbon", "fig2", "--steps", "4", "--pmax", "8")
        assert code == 0
        lines = out.splitlines()
        rho2 = float(next(l for l in lines if l.startswith("# rho_squared,")).split(",")[1])
        slopes = [float(l.split(",")[2]) for l in lines[1:] if not l.startswith("#")]
        assert len(slopes) == 4
        assert min(slopes) >= rho2, slopes

    def test_one_svd_serves_every_row_and_footer(self, capsys, svd_calls, fig2):
        code, out, err = run(capsys, "ribbon", "fig2", "--steps", "4", "--pmax", "8")
        assert code == 0 and len(svd_calls) == 1
        # the rows and footers of q_star_curve, sstar and maximal_correlation
        curve = q_star_curve(fig2, np.geomspace(1.5, 8.0, 4))
        rows = [",".join(map(_fmt, r)) for r in zip(curve.ps, curve.qstars, curve.slopes)]
        assert out.splitlines() == [
            "p,q_star,slope",
            *rows,
            f"# sstar_xy,{_fmt(sstar(fig2).value)}",
            f"# rho_squared,{_fmt(maximal_correlation(fig2).rho ** 2)}",
        ]

    def test_independent_boundary_collapses(self, capsys):
        code, out, err = run(
            capsys, "ribbon", "independent", "--pmax", "4", "--steps", "2"
        )
        assert code == 0
        data = [
            l for l in out.splitlines()[1:] if l and not l.startswith("#")
        ]
        for line in data:
            assert float(line.split(",")[1]) == 1.0

    def test_out_file_and_reruns_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, out1, _ = run(
            capsys, "ribbon", "remark3", "--pmax", "4", "--steps", "2", "--out", str(a)
        )
        code2, out2, _ = run(
            capsys, "ribbon", "remark3", "--pmax", "4", "--steps", "2", "--out", str(b)
        )
        assert code1 == code2 == 0
        assert a.read_bytes() == b.read_bytes()
        assert "final_slope:" in out1

    def test_pmax_validation_exits_2(self, capsys):
        code, out, err = run(capsys, "ribbon", "fig2", "--pmax", "1.2")
        assert code == 2
        code, out, err = run(capsys, "ribbon", "fig2", "--pmax", "200")
        assert code == 2

    @pytest.mark.parametrize("pmax", ["nan", "inf"])
    def test_non_finite_pmax_exits_2(self, capsys, pmax):
        code, out, err = run(capsys, "ribbon", "fig2", "--pmax", pmax)
        assert code == 2

    def test_steps_validation_exits_2(self, capsys):
        code, out, err = run(capsys, "ribbon", "fig2", "--steps", "1")
        assert code == 2

    def test_steps_above_limit_refused_before_any_q_star(self, capsys, monkeypatch):
        def no_curve(*args, **kwargs):
            raise AssertionError("a q* curve was computed")

        monkeypatch.setattr("infodep.cli._q_star_curve", no_curve)
        code, out, err = run(
            capsys, "ribbon", "fig2", "--steps", str(RIBBON_MAX_STEPS + 1)
        )
        assert code == 2
        assert out == "" and "--steps" in err


class TestTensor:
    def test_product_with_independent_keeps_measures(self, capsys):
        code, out, err = run(capsys, "tensor", "fig2", "independent")
        assert code == 0
        assert "rho_product: 0.774596669" in out
        resid = [l for l in out.splitlines() if "rho_max_rule_residual" in l][0]
        assert float(resid.split(":")[1]) < 1e-8
        sresid = [l for l in out.splitlines() if "sstar_max_rule_residual" in l][0]
        assert float(sresid.split(":")[1]) < 1e-3

    def test_one_svd_per_joint(self, capsys, svd_calls):
        code, out, err = run(capsys, "tensor", "bec:0.25", "bsc:0.1")
        assert code == 0 and len(svd_calls) == 3
        # each value is its own public function's
        joints = (builtin("bec:0.25"), builtin("bsc:0.1"))
        joints += (product(*joints),)
        values = dict(line.split(": ") for line in out.splitlines())
        for key, j in zip(("1", "2", "product"), joints):
            assert values[f"rho_{key}"] == _fmt(maximal_correlation(j).rho)
            assert values[f"sstar_{key}"] == _fmt(sstar(j).value)

    def test_negative_restarts_exits_2(self, capsys):
        code, out, err = run(capsys, "tensor", "fig2", "remark3", "--restarts", "-5")
        assert code == 2
        assert out == "" and "restarts" in err

    def test_oversized_product_exits_3(self, capsys, tmp_path):
        path = tmp_path / "nine.json"
        pxy = np.full((9, 9), 1.0 / 81.0)
        path.write_text(
            json.dumps(
                {
                    "x_labels": list(range(9)),
                    "y_labels": list(range(9)),
                    "pxy": pxy.tolist(),
                }
            )
        )
        code, out, err = run(capsys, "tensor", str(path), str(path))
        assert code == 3
        assert "64" in err


class TestContract:
    def test_package_exports_each_module_list_once(self):
        modules = ("catalog", "distributions", "errors", "ribbon", "spectral",
                   "sstar", "summary", "tcurve")
        expected = ["__version__"]
        for name in modules:
            expected += sys.modules[f"infodep.{name}"].__all__
        assert infodep.__all__ == expected
        assert len(set(expected)) == len(expected)
        for name in expected:
            assert hasattr(infodep, name), name
        assert callable(infodep.sstar)

    @pytest.mark.parametrize("name", errors.__all__)
    def test_exit_code_of_each_error(self, name):
        # the README: 2 malformed input or bad arguments, 3 unsupported
        # shape, 4 numerical failure
        shape = {"DegenerateAlphabet", "NotBinary", "NotBinaryInput",
                 "AlphabetTooLarge", "ProductTooLarge"}
        cls = getattr(errors, name)
        if name in shape:
            expected = 3
        elif issubclass(cls, errors.ValidationError):
            expected = 2
        else:
            expected = 4
        assert cls.exit_code == expected

    def test_numerical_error_exits_4(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise errors.NumericalError("the routes disagree")

        monkeypatch.setattr("infodep.cli.measures", fail)
        code, out, err = run(capsys, "measures", "fig2")
        assert code == 4
        assert err == "error: the routes disagree\n"

    def test_oversized_alphabet_exits_3(self, capsys, tmp_path):
        n = MAX_ALPHABET + 1
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({
            "x_labels": list(range(2)),
            "y_labels": list(range(n)),
            "pxy": np.full((2, n), 1.0 / (2 * n)).tolist(),
        }))
        code, out, err = run(capsys, "ribbon", str(path))
        assert code == 3
        assert err.startswith("error:") and f"2x{n}" in err


class TestNumpyOnly:
    def test_runs_with_scipy_blocked(self):
        # a None entry in sys.modules makes every import of scipy fail
        script = textwrap.dedent(
            """
            import contextlib, io, sys
            sys.modules["scipy"] = None
            from infodep.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [main(["measures", "fig2"]),
                         main(["tcurve", "fig2", "--lambda", "0.7"])]
            print(codes)
            print(sorted(m for m, v in sys.modules.items()
                         if m.split(".")[0] == "scipy" and v is not None))
            """
        )
        src = str(Path(infodep.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split("\n")[:2] == ["[0, 0]", "[]"]
