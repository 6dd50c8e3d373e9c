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
from infodep import builtin, sstar
from infodep.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["info"])  # missing source
        assert exc.value.code == 2


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

    def test_independent_binary_input(self, capsys):
        code, out, err = run(capsys, "measures", "independent")
        assert code == 0
        assert "lambda_dagger: 0" in out

    def test_nats_base(self, capsys):
        code, out, err = run(capsys, "measures", "remark3", "--base", "nats")
        assert code == 0
        assert "mutual_information_nats: 0.0144929192" in out

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

    def test_steps_validation_exits_2(self, capsys):
        code, out, err = run(capsys, "ribbon", "fig2", "--steps", "1")
        assert code == 2


class TestTensor:
    def test_product_with_independent_keeps_measures(self, capsys):
        code, out, err = run(capsys, "tensor", "fig2", "independent")
        assert code == 0
        assert "rho_product: 0.774596669" in out
        resid = [l for l in out.splitlines() if "rho_max_rule_residual" in l][0]
        assert float(resid.split(":")[1]) < 1e-8
        sresid = [l for l in out.splitlines() if "sstar_max_rule_residual" in l][0]
        assert float(sresid.split(":")[1]) < 1e-3

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
