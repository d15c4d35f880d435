"""Integration tests for the command-line interface and its exit contract."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

import jointspec as js
from jointspec import cli, coxeter
from jointspec.cli import main
from jointspec.fixtures import (
    blowup_demo_pair,
    dihedral_pair,
    planted_tuple,
    random_normal_pair,
    regular_random_pair,
)
from jointspec.serialize import json_to_matrix, matrix_to_json

from oracles import exact_projection, rung_solves
from slices import count_solves


# a field the malformed-input cases delete rather than set
_MISSING = object()


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

    @pytest.mark.parametrize("fields, message", [
        ({"direction": [[0, 0]]}, "direction must be nonzero"),
        ({"direction": [[1, 0], [0, 1]]}, "direction must have n-1=1 coordinates"),
        ({"direction": [[math.nan, 0]]}, "direction must be finite; got [nan, 0]"),
        ({"direction": 1}, "direction must be a list of n-1=1 [re, im] pairs; got 1"),
        # one matrix leaves no coordinate for a direction, given or default
        ({"n": 1, "matrices": [[[1, 0], [0, 2]]]},
         "analyze needs a tuple of at least two 'matrices'; got 1"),
    ], ids=["zero", "wrong-length", "nan", "not-a-list", "one-matrix"])
    def test_bad_direction_exits_two(self, tmp_path, capsys, fields, message):
        obj = {**dihedral_pair(1.0).to_json(), "schema_version": 1, "lambda": [1.0, 0],
               **fields}
        inp = write_json(tmp_path / "bad_direction.json", obj)
        out = tmp_path / "analysis.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any arithmetic on it
            assert main(["analyze", "--input", inp, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_ragged_matrix_rows_exit_two(self, tmp_path, capsys):
        obj = {**dihedral_pair(1.0).to_json(), "schema_version": 1, "lambda": [1.0, 0]}
        obj["matrices"][1][1] = [[0.5, 0.0]]
        inp = write_json(tmp_path / "ragged.json", obj)
        out = tmp_path / "analysis.json"
        assert main(["analyze", "--input", inp, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: each of the tuple's 'matrices' must have rows of one length; "
            "got row lengths [2, 1]\n")
        assert not out.exists()

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


    # the slice ladder's solve: ggev for the nonzero kind at lambda = 1, a
    # stacked eigvals for the zero kind at lambda = 0 of diag(0, 2)
    @pytest.mark.parametrize("routine, a1, lam", [
        ("ggev", dihedral_pair(np.pi / 3).matrices[0], 1.0),
        ("eigvals", np.diag([0.0, 2.0]), 0.0),
    ], ids=["ggev", "eigvals"])
    def test_lapack_failure_is_a_numerical_refusal(self, tmp_path, monkeypatch, routine, a1,
                                                   lam):
        tup = js.MatrixTuple([a1, dihedral_pair(np.pi / 3).matrices[1]])
        inp = write_json(tmp_path / "input.json",
                         {**tup.to_json(), "schema_version": 1, "lambda": [lam, 0.0]})
        out = tmp_path / "analysis.json"
        assert main(["analyze", "--input", inp, "--out", str(out)]) == 0
        # the LAPACK routine reports info=3, or numpy's eigvals does not
        # converge on the ladder's stack; LinAlgError subclasses ValueError,
        # which would make it an input error
        lapack, eigvals = scipy.linalg.get_lapack_funcs, np.linalg.eigvals
        failed = []

        def failing(f):
            def call(*args, **kwargs):
                *result, _ = f(*args, **kwargs)
                failed.append(routine)
                return (*result, 3)
            return call

        def failing_eigvals(a):
            if np.ndim(a) < 3:
                return eigvals(a)
            failed.append(routine)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", lambda names, arrays: [
            failing(f) if name == routine else f for name, f in zip(names, lapack(names, arrays))])
        monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
        assert main(["analyze", "--input", inp, "--out", str(out)]) == 3
        rep = json.loads(out.read_text())
        assert rep["error"] == "LinAlgError"
        assert rep["refusal"] == ("generalized eig algorithm (ggev) failed: info=3"
                                  if routine == "ggev" else "Eigenvalues did not converge")
        assert failed


    @pytest.mark.parametrize("lam, kw", [(1.0, {"ggev": [8]}), (0.0, {"eigvals": [8]})])
    def test_one_slice_stack_per_call(self, tmp_path, monkeypatch, lam, kw):
        # the ladder keeps the roots its projections read, and the one
        # branch's eight rank-1 projections are one stack, which also gives
        # their norms; one stacked SVD each for the branch residuals, the
        # report ladder's idempotency and the limit's idempotency
        tup = js.MatrixTuple([np.diag([0.0, 2.0, 1.0]), np.diag([1.0, 1.0, 1.0])
                              + np.diag([0.5, 0.5], 1) + np.diag([0.5, 0.5], -1)])
        inp = write_json(tmp_path / "input.json",
                         {**tup.to_json(), "schema_version": 1, "lambda": [lam, 0.0]})
        solves = count_solves(monkeypatch)
        assert main(["analyze", "--input", inp, "--out", str(tmp_path / "a.json")]) == 0
        assert solves == {"ggev": [], "eigvals": [], "rank1": [8], "schur": 0,
                          "svd": [8, 8, 1], **kw}


def _analyze_along(tmp_path, tup, lam, direction):
    obj = {**tup.to_json(), "schema_version": 1, "lambda": [lam, 0.0],
           "direction": [[complex(d).real, complex(d).imag] for d in direction]}
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--input", write_json(tmp_path / "in.json", obj),
                 "--out", str(out)]) == 0
    return json.loads(out.read_text())


def _triple():
    t, _ = regular_random_pair(17, 4)
    return js.MatrixTuple([*t.matrices, random_normal_pair(18, 4).matrices[1]])


class TestAnalyzeDirections:
    """analyze's ladder projections, from inverse iteration on each frozen
    pencil, against P = z y* / (y* z) from the oracle's own solve of every
    rung with eigenvectors (oracles.rung_solves) and against a 40-digit
    eigendecomposition of the frozen pencil (oracles.exact_projection),
    along e_1 and off it.

    Measured relative errors in operator norm: the nonzero kind is within
    2.7e-12 of the exact P and within 1.7e-11 of the oracle's, whose own P
    is up to 1.7e-11 from the exact one (complex direction); the zero kind
    is within 4.9e-16 of both.  The bounds below leave a margin of 10 or
    more.
    """

    CASES = [
        ("pair-e1", lambda: regular_random_pair(17, 4)[0], 1.0, [1.0], 2e-10, 1e-10),
        ("pair-complex", lambda: regular_random_pair(17, 4)[0], 1.0, [np.exp(0.7j)], 2e-10,
         1e-10),
        ("triple-real", _triple, 1.0, [1.0, 2.0], 2e-10, 1e-10),
        ("zero-e1", lambda: regular_random_pair(100, 4, zero_eigenvalue=True)[0], 0.0, [1.0],
         1e-14, 1e-14),
        ("zero-complex", lambda: regular_random_pair(100, 4, zero_eigenvalue=True)[0], 0.0,
         [np.exp(0.7j)], 1e-14, 1e-14),
    ]

    @pytest.mark.parametrize("make, lam, direction, oracle_bound, exact_bound",
                             [case[1:] for case in CASES], ids=[case[0] for case in CASES])
    def test_ladder_projections(self, tmp_path, make, lam, direction, oracle_bound,
                                exact_bound):
        tup = make()
        rep = _analyze_along(tmp_path, tup, lam, direction)
        assert rep["regularity"]["condition_a"] and rep["regularity"]["condition_b"]
        xhat = np.array(direction, dtype=complex)
        xhat = xhat / np.linalg.norm(xhat)
        rest = sum(c * m for c, m in zip(xhat, tup.matrices[1:]))
        eye = np.eye(tup.dim)
        for b, proj in zip(rep["branches"], rep["projections"]):
            kind = b["kind"]
            assert kind == ("zero" if lam == 0.0 else "nonzero")
            ts = [s[0] for s in b["samples"]]
            alpha, beta, vl, vr = rung_solves(tup.matrices, kind, xhat, ts)
            for k, ((tk, re, im), cp) in enumerate(zip(b["samples"], proj["ladder"])):
                v = complex(re, im)
                p = json_to_matrix(cp["P"])
                own = int(np.argmin(np.abs(alpha[k] / beta[k] - v)))
                z, y = vr[k][:, own], vl[k][:, own].conj()
                want = np.outer(z, y) / (y @ z)
                assert js.opnorm(p - want) <= oracle_bound * js.opnorm(want)
                frozen, center = ((tup.matrices[0] + tk * rest - v * eye, 0.0) if kind == "zero"
                                  else (v * tup.matrices[0] + tk * rest, 1.0))
                exact = exact_projection(frozen, center, cp["radius"])
                assert js.opnorm(p - exact) <= exact_bound * js.opnorm(exact)


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
        # an integer past the float range is no finite real
        ("window", [[-10**400, 2], [-2, 2]], "'window' must be two [lo, hi] pairs"),
    ], ids=["non_integer_grid", "zero_grid", "non_numeric_window", "huge_integer_window"])
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

    def test_one_slice_stack_per_call(self, tmp_path, monkeypatch):
        solves = count_solves(monkeypatch)
        assert main(["demo-blowup", "--out", str(tmp_path / "demo.json")]) == 3
        # two branches, ten rungs each: one rank-1 stack, which also gives the
        # profile norms, and no SVD
        assert solves == {"ggev": [10], "eigvals": [], "rank1": [20], "schur": 0, "svd": []}

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
            return dataclasses.replace(evidence(*args, **kwargs), max_discrepancy=1.0,
                                       character_bound=4.0)

        monkeypatch.setattr(coxeter, "equivalence_evidence", mismatch)
        inp = self.make_input(tmp_path)
        out = tmp_path / "rigidity.json"
        assert main(["coxeter-check", "--input", inp, "--tol", "1e-7", "--out", str(out)]) == 1
        rig = json.loads(out.read_text())["rigidity"]
        assert rig["applicable"] is True and rig["dim_L"] == 3
        assert rig["equivalence"]["character_bound"] == 4.0

    def test_deterministic_reports(self, tmp_path):
        inp = self.make_input(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["coxeter-check", "--input", inp, "--seed", "5", "--out", str(out1)]) == 0
        assert main(["coxeter-check", "--input", inp, "--seed", "5", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert json.loads(out1.read_text())["rigidity"]["seed"] == 5

    def explicit_input(self, tmp_path, matrices):
        """The planted input of make_input with the representation given as matrices."""
        obj = json.loads(open(self.make_input(tmp_path)).read())
        obj["rep"] = {"matrices": [matrix_to_json(m) for m in matrices]}
        return write_json(tmp_path / "explicit.json", obj)

    def right_angle_rep(self):
        return js.build_representation(
            js.dihedral(4), [js.DihedralIrrep("two_dim", math.pi / 2), "one_dim_pm"]).generators

    def test_explicit_matrices_pass(self, tmp_path):
        inp = self.explicit_input(tmp_path, self.right_angle_rep())
        assert main(["coxeter-check", "--input", inp, "--tol", "1e-7",
                     "--out", str(tmp_path / "out.json")]) == 0

    @pytest.mark.parametrize("case, message", [
        ("scaled", "unitary involutions"),
        ("unequal_sizes", "square generator matrices of one size"),
        ("not_square", "square generator matrices of one size"),
        ("one_per_generator", "needs 2 square generator matrices"),
        ("other_group", "(g1 g2)^4 = 1"),
    ])
    def test_bad_explicit_matrices_exit_two(self, tmp_path, capsys, case, message):
        g1, g2 = self.right_angle_rep()
        matrices = {
            "scaled": [1.01 * g1, g2],
            "unequal_sizes": [g1, g2[:2, :2]],
            "not_square": [g1[:, :2], g2[:, :2]],
            "one_per_generator": [g1, g2, g1],
            # a representation of I2(3), not of the input's I2(4)
            "other_group": js.build_representation(
                js.dihedral(3), [js.DihedralIrrep("two_dim", 2 * math.pi / 3),
                                 "one_dim_pp"]).generators,
        }[case]
        inp = self.explicit_input(tmp_path, matrices)
        out = tmp_path / "out.json"
        assert main(["coxeter-check", "--input", inp, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("case, path, value, field", [
        ("top-level list", None, None, "input must be a JSON object"),
        ("tuple a number", ("tuple",), 3, "a tuple must be an object"),
        ("matrices of scalars", ("tuple", "matrices"), [1, 2], "tuple's 'matrices'"),
        ("null matrix entry", ("tuple", "matrices", 0, 0, 0), None, "complex number"),
        ("coxeter_matrix a number", ("coxeter_matrix",), 3, "coxeter_matrix"),
        ("null order", ("coxeter_matrix", 0, 1), None, "coxeter_matrix"),
        # 0 is no order; read as "inf" it would give the infinite dihedral group
        ("zero order", ("coxeter_matrix",), [[1, 0], [0, 1]],
         "coxeter_matrix: off-diagonal Coxeter orders must be >= 2"),
        ("NaN matrix entry", ("tuple", "matrices", 0, 0, 0), math.nan,
         "every entry of each of the tuple's 'matrices' must be finite; got nan"),
        ("Infinity in a pair", ("tuple", "matrices", 1, 0, 0), [0.0, -math.inf],
         "every entry of each of the tuple's 'matrices' must be finite; got [0.0, -inf]"),
        ("NaN rep entry", ("rep",), {"matrices": [[[math.nan]]]},
         "every entry of each of rep's 'matrices' must be finite; got nan"),
        ("ragged tuple matrix", ("tuple", "matrices", 0, 1), [1.0],
         "each of the tuple's 'matrices' must have rows of one length; got row lengths [5, 1, 5"),
        ("ragged rep matrix", ("rep",), {"matrices": [[[1.0, 0.0], [0.0]]]},
         "each of rep's 'matrices' must have rows of one length; got row lengths [2, 1]"),
        ("rep a list", ("rep",), [1], "'rep' must be an object"),
        ("assignment a number", ("rep", "assignment"), 3, "assignment must be a list"),
        ("null angle", ("rep", "assignment", 0, 1), None, "two_dim summand needs a real angle"),
        ("seed a string", ("rep", "seed"), "x", "rep 'seed'"),
        ("rep matrices a number", ("rep",), {"matrices": 3}, "rep 'matrices'"),
        pytest.param("no rep", ("rep",), _MISSING, "coxeter-check input needs a 'rep' field",
                     id="no rep"),
        pytest.param("no coxeter_matrix", ("coxeter_matrix",), _MISSING,
                     "coxeter-check input needs a 'coxeter_matrix' field", id="no coxeter_matrix"),
        # integers past the float range, and NaN, are no orders and no angles
        pytest.param("huge order", ("coxeter_matrix",), [[1, 10**400], [10**400, 1]],
                     "coxeter_matrix must be a list of rows of finite numbers", id="huge order"),
        pytest.param("NaN order", ("coxeter_matrix",), [[1, math.nan], [math.nan, 1]],
                     "coxeter_matrix must be a list of rows of finite numbers", id="NaN order"),
        pytest.param("huge angle", ("rep", "assignment", 0, 1), 10**400,
                     "two_dim summand needs a real angle", id="huge angle"),
    ])
    def test_malformed_input_exits_two(self, tmp_path, capsys, case, path, value, field):
        obj = json.loads(open(self.make_input(tmp_path)).read())
        if path is None:
            obj = [obj]
        else:
            node = obj
            for key in path[:-1]:
                node = node[key]
            if value is _MISSING:
                del node[path[-1]]
            else:
                node[path[-1]] = value
        inp = write_json(tmp_path / "malformed.json", obj)
        out = tmp_path / "out.json"
        assert main(["coxeter-check", "--input", inp, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and field in err
        assert not out.exists()

    def test_rounded_explicit_matrices_follow_tol(self, tmp_path, capsys):
        # written to 9 decimals, the matrices break the relations by about 1e-9
        rep = js.build_representation(
            js.dihedral(4), [js.DihedralIrrep("two_dim", math.pi / 2), "one_dim_pm"], seed=3)
        matrices = [np.round(g, 9) for g in rep.generators]
        inp = self.explicit_input(tmp_path, matrices)
        out = str(tmp_path / "out.json")
        assert main(["coxeter-check", "--input", inp, "--out", out]) == 0
        assert main(["coxeter-check", "--input", inp, "--tol", "1e-10", "--out", out]) == 2
        assert "unitary involutions" in capsys.readouterr().err

    def perturbed_a3_input(self, tmp_path, delta, assignment):
        """A planted A3 tuple whose copy of the representation has generator 1
        conjugated by exp(delta K), so that its relations break by about delta."""
        cm = js.CoxeterMatrix([[1, 3, 2], [3, 1, 3], [2, 3, 1]])
        gens = list(js.build_representation(cm, assignment).generators)
        skew = np.random.default_rng(0).standard_normal((len(gens[0]),) * 2)
        u = scipy.linalg.expm(delta * (skew - skew.T))
        gens[0] = u @ gens[0] @ u.T
        rng = np.random.default_rng(77)
        blocks = [np.diag([0.28, -0.2 + 0.12j, 0.1 - 0.3j])]
        for _ in range(2):
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            blocks.append(0.3 * b / js.opnorm(b))
        tup = planted_tuple(js.CoxeterRep(cm=cm, generators=tuple(gens)), blocks, seed=11)
        obj = {"schema_version": 1, "tuple": tup.to_json(), "coxeter_matrix": cm.to_json(),
               "rep": {"assignment": assignment}}
        return write_json(tmp_path / "a3.json", obj)

    def test_noisy_reducible_restriction_is_reported(self, tmp_path):
        # geometric + sign has a 2-dimensional commutant; the restriction's
        # commutant values near 1e-6 are measured, not refused
        inp = self.perturbed_a3_input(tmp_path, 1e-6, ["geometric", "sign"])
        out = tmp_path / "out.json"
        assert main(["coxeter-check", "--input", inp, "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        assert "refusal" not in report
        ev = report["rigidity"]["equivalence"]
        assert ev["end_dim"] == 2 and 1e-7 <= ev["max_discrepancy"] <= 1e-5

    @pytest.mark.parametrize("delta, code", [(1e-9, 0), (5.5e-6, 1)])
    def test_character_bound_gates_the_exit(self, tmp_path, monkeypatch, delta, code):
        # At 5.5e-6 the largest character gap over W is 1.03e-5, above the
        # default --tol, while the relation residual (8.6e-6) and
        # max_discrepancy (4.9e-6) are below it.  The perturbation also moves
        # the sampled spectra, which fails the command by itself, so in a
        # second run every spectral check is set to pass to leave the exit to
        # the equivalence gate.
        real = cli.rigidity_check

        def spectra_pass(*args, **kwargs):
            rig = real(*args, **kwargs)
            restriction = dataclasses.replace(rig.restriction, spectra_match=True,
                                              exponents_ok=True)
            return dataclasses.replace(
                rig, condition_I=True, condition_II={k: True for k in rig.condition_II},
                applicable=all(rig.condition_star.values()) and rig.norms_ok,
                restriction=restriction)

        inp = self.perturbed_a3_input(tmp_path, delta, ["geometric"])
        out = tmp_path / "out.json"
        assert main(["coxeter-check", "--input", inp, "--out", str(out)]) == code
        monkeypatch.setattr(cli, "rigidity_check", spectra_pass)
        assert main(["coxeter-check", "--input", inp, "--out", str(out)]) == code
        rig = json.loads(out.read_text())["rigidity"]
        assert max(rig["restriction"]["relation_residuals"].values()) <= 1e-5
        assert rig["equivalence"]["max_discrepancy"] <= 1e-5
        assert (rig["equivalence"]["character_bound"] <= 1e-5) == (code == 0)

    def test_ambiguous_commutant_exits_three(self, tmp_path):
        # two_dim(1) + two_dim(1 + 1e-6) of the infinite dihedral group: the
        # commutant of the restriction to L cannot be read
        cm = js.dihedral(math.inf)
        rep = js.build_representation(
            cm, [js.DihedralIrrep("two_dim", 1.0), js.DihedralIrrep("two_dim", 1.0 + 1e-6)])
        rng = np.random.default_rng(5)
        b2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        tup = planted_tuple(rep, [np.diag([0.3, -0.22]), 0.3 * b2 / js.opnorm(b2)], seed=7)
        obj = {"schema_version": 1, "tuple": tup.to_json(), "coxeter_matrix": cm.to_json(),
               "rep": {"matrices": [matrix_to_json(m) for m in rep.generators]}}
        inp = write_json(tmp_path / "cox.json", obj)
        out = tmp_path / "out.json"
        assert main(["coxeter-check", "--input", inp, "--out", str(out)]) == 3
        report = json.loads(out.read_text())
        assert report["error"] == "SeparationError" and "commutant" in report["refusal"]

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


class TestDeterminism:
    """Same config and seed, same bytes: each command run twice in one
    process writes identical files, and without --out the same bytes to
    stdout."""

    @pytest.mark.parametrize("command, flags", [
        ("analyze", []),
        ("verify", []),
        ("coxeter-check", ["--seed", "5"]),
        ("demo-blowup", []),
        ("plot", []),
    ])
    def test_same_bytes(self, tmp_path, capsys, dihedral_input, command, flags):
        argv = [command, *flags]
        if command == "coxeter-check":
            argv += ["--input", TestCoxeterCheckCommand().make_input(tmp_path)]
        elif command != "demo-blowup":
            argv += ["--input", dihedral_input]
        files = [tmp_path / "first.out", tmp_path / "second.out"]
        codes = [main([*argv, "--out", str(path)]) for path in files]
        capsys.readouterr()
        codes.append(main(argv))
        stdout = capsys.readouterr().out
        assert codes == [codes[0]] * 3
        assert files[0].read_bytes() == files[1].read_bytes() == stdout.encode()
        assert stdout.endswith("\n") and len(stdout) > 100


@pytest.fixture
def relation_breaking_input(tmp_path):
    """coxeter-check's planted dihedral(4) input with its representation as
    explicit matrices under the Coxeter matrix of I2(3): they break
    (g1 g2)^3 = 1 with residual 2."""
    cox = TestCoxeterCheckCommand()
    obj = json.loads(open(cox.explicit_input(tmp_path, cox.right_angle_rep())).read())
    obj["coxeter_matrix"] = js.dihedral(3).to_json()
    return write_json(tmp_path / "relation_breaking.json", obj)


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

    def test_relation_breaking_matrices_exit_two(self, relation_breaking_input, capsys):
        assert main(["coxeter-check", "--input", relation_breaking_input, "--tol", "1e-5"]) == 2
        assert "(g1 g2)^3 = 1" in capsys.readouterr().err

    # inf passed a "<= 0" test: --tol inf let the relation-breaking matrices exit 0
    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, flags) in cli._COMMANDS.items()
        for flag in flags if flag in ("tol", "t_max", "epsilon")])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_numbers_are_usage_errors(self, dihedral_input, relation_breaking_input,
                                                 tmp_path, capsys, command, flag, value):
        inp = relation_breaking_input if command == "coxeter-check" else dihedral_input
        name = "--" + flag.replace("_", "-")
        out = tmp_path / "out.json"
        # name=value: argparse reads a separate "-inf" as a flag
        assert main([command, "--input", inp, f"{name}={value}", "--out", str(out)]) == 2
        assert f"{name} must be a finite real > 0" in capsys.readouterr().err
        assert not out.exists()

    # Python's json reads NaN and Infinity, and past the loader they would
    # reach the SVD as a numerical refusal (exit 3), not an input error; an
    # integer past the float range would escape as an OverflowError
    @pytest.mark.parametrize("command", ["verify", "analyze", "plot"])
    @pytest.mark.parametrize("path, value, message", [
        (("matrices", 1, 0, 1), math.nan,
         "every entry of each of the tuple's 'matrices' must be finite; got nan"),
        (("matrices", 0, 1, 1), [0.0, math.inf],
         "every entry of each of the tuple's 'matrices' must be finite; got [0.0, inf]"),
        (("matrices", 1, 1, 0), 10**400,
         f"every entry of each of the tuple's 'matrices' must be finite; got {10**400}"),
        (("lambda",), [math.nan, 0.0], "lambda must be finite; got [nan, 0.0]"),
    ], ids=["NaN-entry", "Infinity-entry", "huge-integer-entry", "NaN-lambda"])
    def test_non_finite_input_numbers_are_input_errors(self, tmp_path, capsys, command, path,
                                                       value, message):
        obj = {**dihedral_pair(np.pi / 3).to_json(), "schema_version": 1, "lambda": [1.0, 0.0]}
        node = obj
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        inp = write_json(tmp_path / "non_finite.json", obj)
        out = tmp_path / "out.json"
        code = main([command, "--input", inp, "--out", str(out)])
        err = capsys.readouterr().err
        if command != "analyze" and path == ("lambda",):
            # only analyze reads lambda
            assert code == 0
            return
        assert code == 2
        assert err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, phrases", [
        ("verify", ["relation residual"]),
        ("coxeter-check", ["restriction", "character_bound", "fixed 1e-8", "generic lines",
                           "random lines near each ±e_j"]),
    ])
    def test_tol_help_names_what_it_gates(self, capsys, command, phrases):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        tol_help = " ".join(capsys.readouterr().out.split("--tol TOL", 1)[1].split())
        assert all(phrase in tol_help for phrase in phrases)

    def test_missing_input_flag(self):
        assert main(["verify"]) == 2

    def test_parser_is_built_once_per_process(self, monkeypatch):
        used = []
        shared = cli._parser
        monkeypatch.setattr(cli, "_parser", lambda: used.append(shared()) or used[-1])
        assert main(["verify"]) == 2
        assert main(["verify"]) == 2
        assert len(used) == 2 and used[0] is used[1]
        # a value parsed once does not become the next call's default
        first = shared().parse_args(["coxeter-check", "--seed", "5", "--tol", "0.5"])
        second = shared().parse_args(["coxeter-check"])
        assert (first.seed, first.tol) == (5, 0.5)
        assert (second.seed, second.tol) == (0, 1e-5)

    @pytest.mark.parametrize("argv", [
        ["plot", "--input", "x.json", "--tol", "1"],
        ["analyze", "--input", "x.json", "--seed", "1"],
        ["demo-blowup", "--input", "x.json"],
    ])
    def test_flag_the_command_does_not_read_is_rejected(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
