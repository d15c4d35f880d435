"""Integration tests for the command-line interface and its exit contract."""

import dataclasses
import json
import math

import numpy as np
import pytest

import jointspec as js
from jointspec import cli, coxeter
from jointspec.cli import main
from jointspec.fixtures import blowup_demo_pair, dihedral_pair, planted_tuple


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def dihedral_input(tmp_path):
    obj = dihedral_pair(np.pi / 3).to_json()
    obj["schema_version"] = 1
    obj["lambda"] = [1.0, 0.0]
    return write_json(tmp_path / "dihedral.json", obj)


@pytest.fixture
def nonnormal_input(tmp_path):
    obj = blowup_demo_pair().to_json()
    obj["schema_version"] = 1
    obj["lambda"] = [1.0, 0.0]
    return write_json(tmp_path / "nonnormal.json", obj)


class TestVerifyCommand:
    def test_passing_fixture_exits_zero(self, dihedral_input, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--input", dihedral_input, "--tol", "1e-8", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True
        assert report["schema_version"] == 1
        assert all(r["residual"] <= 1e-8 for r in report["reports"])
        assert report["instance"]["N"] == 2

    def test_nonnormal_refused_with_exit_3(self, nonnormal_input, tmp_path):
        out = tmp_path / "report.json"
        code = main(["verify", "--input", nonnormal_input, "--out", str(out)])
        assert code == 3
        rep = json.loads(out.read_text())
        assert "refusal" in rep
        assert rep["error"] == "NotNormalError"

    def test_duplicated_irrep_refused_with_exit_3(self, tmp_path):
        # two copies of one irrep: a repeated branch fails regularity condition b)
        a1, a2 = dihedral_pair(np.pi / 3).matrices
        z = np.zeros((2, 2))
        tup = js.MatrixTuple([np.block([[a1, z], [z, a1]]), np.block([[a2, z], [z, a2]])])
        inp = write_json(tmp_path / "dup.json", {**tup.to_json(), "schema_version": 1})
        out = tmp_path / "report.json"
        assert main(["verify", "--input", inp, "--out", str(out)]) == 3
        rep = json.loads(out.read_text())
        assert rep["error"] == "HypothesisNotMet"
        assert "regularity fails" in rep["refusal"]

    def test_deterministic_reports(self, dihedral_input, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--input", dihedral_input, "--out", str(out1)]) == 0
        assert main(["verify", "--input", dihedral_input, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestAnalyzeCommand:
    def test_analyze_writes_branch_and_projection_report(self, dihedral_input, tmp_path):
        out = tmp_path / "analysis.json"
        code = main(["analyze", "--input", dihedral_input, "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["regularity"]["condition_a"] and rep["regularity"]["condition_b"]
        assert len(rep["branches"]) == 1
        b = rep["branches"][0]
        assert abs(b["d1"][0] + 0.5) <= 1e-7
        assert rep["projections"][0]["limit"]["rank"] == 1

    def test_analyze_nonnormal_reports_blowup(self, nonnormal_input, tmp_path):
        out = tmp_path / "analysis.json"
        code = main(["analyze", "--input", nonnormal_input, "--t-max", "0.1",
                     "--samples", "10", "--out", str(out)])
        assert code == 3
        rep = json.loads(out.read_text())
        assert "refusal" in rep
        assert rep["error"] == "ProjectionBlowupError"
        exps = [p["norm_profile"]["exponent"] for p in rep["projections"]]
        assert all(abs(e + 1.0) <= 0.1 for e in exps)


    def test_lambda_not_an_eigenvalue_exits_two(self, tmp_path, capsys):
        obj = {**dihedral_pair(np.pi / 3).to_json(), "schema_version": 1, "lambda": [0.3, 0]}
        inp = write_json(tmp_path / "bad_lambda.json", obj)
        assert main(["analyze", "--input", inp]) == 2
        assert "not an eigenvalue" in capsys.readouterr().err

    def test_numerical_refusal_writes_a_report(self, dihedral_input, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise js.TrackingError("branch lost at t=0.005")

        monkeypatch.setattr(cli, "local_branches", fail)
        out = tmp_path / "analysis.json"
        assert main(["analyze", "--input", dihedral_input, "--out", str(out)]) == 3
        rep = json.loads(out.read_text())
        assert rep["error"] == "TrackingError"
        assert rep["refusal"] == "branch lost at t=0.005"
        assert rep["command"] == "analyze" and rep["schema_version"] == 1


class TestPlotCommand:
    def test_zero_tuple_empty_csv(self, tmp_path):
        t = js.MatrixTuple([np.zeros((2, 2)), np.zeros((2, 2))])
        inp = write_json(tmp_path / "zero.json", {**t.to_json(), "schema_version": 1})
        out = tmp_path / "curve.csv"
        assert main(["plot", "--input", inp, "--out", str(out)]) == 0
        assert out.read_text() == "x1_re,x1_im,x2_re,x2_im\n"

    def test_curve_csv_rows(self, nonnormal_input, tmp_path):
        out = tmp_path / "curve.csv"
        assert main(["plot", "--input", nonnormal_input, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x1_re,x1_im,x2_re,x2_im"
        assert len(lines) > 10
        x1_re, x1_im, x2_re, x2_im = map(float, lines[1].split(","))
        d = min(abs(x1_re + x2_re - 1), abs(x1_re - x2_re - 1))
        assert d <= 1e-8

    @pytest.mark.parametrize("field, value, message", [
        ("grid", [41.5, 41], "'grid' must be two positive integers"),
        ("grid", [0, 41], "'grid' must be two positive integers"),
        ("window", [["a", 2.0], [-2.0, 2.0]], "'window' must be two [lo, hi] pairs"),
    ], ids=["non_integer_grid", "zero_grid", "non_numeric_window"])
    def test_bad_window_or_grid_is_a_usage_error(self, tmp_path, capsys, field, value, message):
        obj = {**dihedral_pair(np.pi / 3).to_json(), "schema_version": 1, field: value}
        inp = write_json(tmp_path / "bad.json", obj)
        out = tmp_path / "curve.csv"
        assert main(["plot", "--input", inp, "--out", str(out)]) == 2
        assert not out.exists()
        assert message in capsys.readouterr().err

    def test_svg_output(self, dihedral_input, tmp_path):
        out = tmp_path / "curve.svg"
        assert main(["plot", "--input", dihedral_input, "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg") and "<circle" in text


class TestDemoBlowupCommand:
    def test_exit_3_and_exponent(self, tmp_path):
        out = tmp_path / "demo.json"
        code = main(["demo-blowup", "--out", str(out)])
        assert code == 3
        rep = json.loads(out.read_text())
        for prof in rep["profiles"]:
            assert abs(prof["exponent"] + 1.0) <= 0.05
        assert "refusal" in rep
        assert rep["error"] == "ProjectionBlowupError"
        assert rep["config"]["samples"] == rep["ladder"]["samples"] == 10

    def test_samples_set_the_ladder(self, tmp_path):
        out = tmp_path / "demo.json"
        assert main(["demo-blowup", "--samples", "12", "--out", str(out)]) == 3
        rep = json.loads(out.read_text())
        assert rep["config"]["samples"] == rep["ladder"]["samples"] == 12

    def test_too_few_samples_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "demo.json"
        assert main(["demo-blowup", "--samples", "6", "--out", str(out)]) == 2
        assert not out.exists()
        assert "at least 10" in capsys.readouterr().err


class TestCoxeterCheckCommand:
    def make_input(self, tmp_path, sheet=False):
        cm = js.dihedral(4)
        rep = js.build_representation(cm, [js.DihedralIrrep("two_dim", math.pi / 2), "one_dim_pm"])
        b1 = np.diag([0.3, -0.22])
        if sheet:
            b2 = np.diag([0.925, 0.2])
        else:
            rng = np.random.default_rng(5)
            b2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b2 = 0.3 * b2 / js.opnorm(b2)
        tup = planted_tuple(rep, [b1, b2], seed=7)
        obj = {
            "schema_version": 1,
            "tuple": tup.to_json(),
            "coxeter_matrix": cm.to_json(),
            "rep": {"assignment": [["two_dim", math.pi / 2], "one_dim_pm"]},
        }
        return write_json(tmp_path / "cox.json", obj)

    def test_planted_passes(self, tmp_path):
        inp = self.make_input(tmp_path)
        out = tmp_path / "rigidity.json"
        code = main(["coxeter-check", "--input", inp, "--tol", "1e-7", "--out", str(out)])
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["rigidity"]["applicable"] is True
        assert rep["rigidity"]["dim_L"] == 3

    def test_negative_control_exits_one(self, tmp_path):
        inp = self.make_input(tmp_path, sheet=True)
        out = tmp_path / "rigidity.json"
        code = main(["coxeter-check", "--input", inp, "--tol", "1e-7", "--out", str(out)])
        assert code == 1
        rep = json.loads(out.read_text())
        assert rep["rigidity"]["condition_II"]["2+"] is False

    def test_character_mismatch_exits_one(self, tmp_path, monkeypatch):
        evidence = coxeter.equivalence_evidence

        def mismatch(*args, **kwargs):
            return dataclasses.replace(evidence(*args, **kwargs), max_discrepancy=1.0)

        monkeypatch.setattr(coxeter, "equivalence_evidence", mismatch)
        inp = self.make_input(tmp_path)
        out = tmp_path / "rigidity.json"
        assert main(["coxeter-check", "--input", inp, "--tol", "1e-7", "--out", str(out)]) == 1
        rig = json.loads(out.read_text())["rigidity"]
        assert rig["applicable"] is True and rig["dim_L"] == 3
        assert rig["equivalence"]["max_discrepancy"] == 1.0

    def test_deterministic_reports(self, tmp_path):
        inp = self.make_input(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["coxeter-check", "--input", inp, "--seed", "5", "--out", str(out1)]) == 0
        assert main(["coxeter-check", "--input", inp, "--seed", "5", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["rigidity"]["seed"] == 5

    def test_relation_breaking_assignment_exits_two(self, tmp_path, capsys):
        # a right-angle two_dim irrep has (g1 g2)^4 = 1, not (g1 g2)^3 = 1
        obj = {
            "schema_version": 1,
            "tuple": dihedral_pair(2 * math.pi / 3).to_json(),
            "coxeter_matrix": js.dihedral(3).to_json(),
            "rep": {"assignment": [["two_dim", math.pi / 2]]},
        }
        inp = write_json(tmp_path / "cox.json", obj)
        assert main(["coxeter-check", "--input", inp]) == 2
        err = capsys.readouterr().err
        assert "(g1 g2)^3 = 1" in err and "^3.0" not in err


class TestParseErrors:
    def test_missing_file(self):
        assert main(["verify", "--input", "/nonexistent/x.json"]) == 2

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["verify", "--input", str(p)]) == 2

    def test_bad_matrix_shape(self, tmp_path):
        p = write_json(tmp_path / "bad.json",
                       {"n": 2, "N": 2, "matrices": [[[[1, 0]]], [[[1, 0]]]]})
        assert main(["verify", "--input", str(p)]) == 2

    def test_config_invariants(self, dihedral_input):
        assert main(["verify", "--input", dihedral_input, "--samples", "3"]) == 2
        assert main(["verify", "--input", dihedral_input, "--tol", "-1"]) == 2

    def test_missing_input_flag(self):
        assert main(["verify"]) == 2

    @pytest.mark.parametrize("argv", [
        ["plot", "--input", "x.json", "--tol", "1"],
        ["analyze", "--input", "x.json", "--seed", "1"],
        ["demo-blowup", "--input", "x.json"],
    ])
    def test_flag_the_command_does_not_read_is_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
