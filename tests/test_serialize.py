"""The report writer against the stdlib encoder, and matrix_to_json against
the per-entry conversion (tests/oracles.py report_text and matrix_pairs)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import jointspec as js
from jointspec import cli
from jointspec.fixtures import blowup_demo_pair, dihedral_pair, regular_random_pair
from jointspec.serialize import _report_text, matrix_to_json

import test_cli
from oracles import matrix_pairs, report_text


def float_bits(values):
    """The bit patterns of a nested list of Python floats, with its shape."""
    flat = np.array(values, dtype=float)
    return flat.shape, flat.tobytes()


class TestMatrixToJson:
    MATRICES = {
        "signed-zeros": np.array([[-0.0, 0.0j], [complex(-0.0, -0.0), 1e-310 - 2.5j]]),
        "non-finite": np.array([[np.nan, complex(0.0, np.inf)], [-np.inf, complex(1.0, np.nan)]]),
        "real": dihedral_pair(np.pi / 3).matrices[1],
        "transposed": (np.arange(12) + 1j * np.arange(12, 0, -1)).reshape(3, 4).T,
        # an N x k orthonormal basis, like a rigidity report's L_basis
        "basis": np.linalg.qr(np.random.default_rng(3).standard_normal((6, 3))
                              + 1j * np.random.default_rng(4).standard_normal((6, 3)))[0],
        "empty": np.zeros((0, 0), dtype=complex),
    }

    @pytest.mark.parametrize("name", MATRICES)
    def test_matches_the_per_entry_conversion_bit_for_bit(self, name):
        m = self.MATRICES[name]
        got = matrix_to_json(m)
        assert float_bits(got) == float_bits(matrix_pairs(m))
        assert all(type(v) is float for row in got for pair in row for v in pair)

    def test_tuple_round_trip_through_the_writer(self):
        tup = regular_random_pair(17, 4)[0]
        back = js.MatrixTuple.from_json(json.loads(_report_text(tup.to_json())))
        assert all(a.tobytes() == np.asarray(b, dtype=complex).tobytes()
                   for a, b in zip(back.matrices, tup.matrices))


# floats the writer must spell as the stdlib does, and the ones it must not spell
FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308, np.nan, np.inf,
                     -np.inf]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    FLOATS,
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(),  # non-ASCII and control characters included
    st.complex_numbers(allow_nan=True, allow_infinity=True),
)
FLOAT_BLOCKS = st.one_of(
    st.lists(FLOATS, max_size=6),
    st.lists(FLOATS.map(np.float64), max_size=4),
    st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(FLOATS, min_size=n, max_size=n),
                                                 max_size=4)),
    # ragged rows
    st.lists(st.lists(FLOATS, max_size=3), max_size=4),
    # a float list holding an int
    st.tuples(st.lists(FLOATS, max_size=3), st.integers(), st.lists(FLOATS, max_size=3))
    .map(lambda p: [*p[0], p[1], *p[2]]),
    # matrix_to_json matrices, non-finite entries included
    hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=3).flatmap(
        lambda shape: hnp.arrays(complex, shape, elements=st.complex_numbers(
            allow_nan=True, allow_infinity=True))).map(matrix_to_json),
)
REPORTS = st.recursive(
    SCALARS | FLOAT_BLOCKS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20,
)


class TestReportText:
    @settings(deadline=None, max_examples=250)
    @given(REPORTS)
    def test_matches_the_stdlib_encoder(self, obj):
        assert _report_text(obj) == report_text(obj)

    @pytest.mark.parametrize("obj", [{1: 0.5}, {"a": 1, 2: 3}, {None: 1},
                                     {"a": [{(1, 2): 3.0}]}], ids=str)
    def test_a_key_that_is_not_a_str_raises(self, obj):
        with pytest.raises(TypeError):
            _report_text(obj)

    @pytest.mark.parametrize("obj", [np.zeros(2), {"a": [1.0, {2.0}]}, np.complex64(1j)],
                             ids=["ndarray", "set", "complex64"])
    def test_a_value_json_cannot_write_raises(self, obj):
        with pytest.raises(TypeError):
            _report_text(obj)


@pytest.fixture
def reports(monkeypatch):
    """Every report object cli._emit writes from here on."""
    seen = []

    def capture(report):
        seen.append(report)
        return _report_text(report)

    monkeypatch.setattr(cli, "_report_text", capture)
    return seen


def _input(tmp_path, tup, **fields):
    return test_cli.write_json(tmp_path / "input.json",
                               {**tup.to_json(), "schema_version": 1, **fields})


def _raising(error):
    def fail(*args, **kwargs):
        raise error
    return fail


def _coxeter_input(tmp_path, **kw):
    return test_cli.TestCoxeterCheckCommand().make_input(tmp_path, **kw)


# (command and its flags, input maker, monkeypatched cli attribute, exit code)
CLI_CASES = {
    "verify": (["verify", "--tol", "1e-8"], lambda p: _input(p, dihedral_pair(np.pi / 3)),
               None, 0),
    "verify-failed": (["verify", "--tol", "1e-300"],
                      lambda p: _input(p, dihedral_pair(np.pi / 3)), None, 1),
    "analyze-e1": (["analyze"], lambda p: _input(p, regular_random_pair(17, 4)[0],
                                                  **{"lambda": [1.0, 0.0]}), None, 0),
    "analyze-complex-direction": (
        ["analyze"], lambda p: _input(p, regular_random_pair(17, 4)[0], **{
            "lambda": [1.0, 0.0], "direction": [[np.cos(0.7), np.sin(0.7)]]}), None, 0),
    "analyze-zero": (["analyze"], lambda p: _input(
        p, regular_random_pair(100, 4, zero_eigenvalue=True)[0], **{"lambda": [0.0, 0.0]}),
        None, 0),
    "analyze-blowup": (["analyze", "--t-max", "0.1", "--samples", "10"],
                       lambda p: _input(p, blowup_demo_pair(), **{"lambda": [1.0, 0.0]}),
                       None, 3),
    "demo-blowup": (["demo-blowup"], None, None, 3),
    "coxeter-check": (["coxeter-check", "--tol", "1e-7"], _coxeter_input, None, 0),
    "coxeter-check-witnesses": (["coxeter-check", "--tol", "1e-7"],
                                lambda p: _coxeter_input(p, sheet=True), None, 1),
    # refusals: from the library, from LAPACK, and a refusal message with a
    # non-ASCII character
    "refused-not-normal": (["verify"], lambda p: _input(p, blowup_demo_pair()), None, 3),
    "refused-tracking": (["analyze"], lambda p: _input(p, dihedral_pair(np.pi / 3), **{
        "lambda": [1.0, 0.0]}), ("local_branches", js.TrackingError("lost λ=1\t")), 3),
    "refused-lapack": (["verify"], lambda p: _input(p, dihedral_pair(np.pi / 3)),
                       ("verify_pair", np.linalg.LinAlgError("ggev failed: info=3")), 3),
}


@pytest.mark.parametrize("case", CLI_CASES)
def test_cli_reports_match_the_stdlib_encoder(tmp_path, monkeypatch, reports, case):
    argv, make_input, patch, code = CLI_CASES[case]
    if make_input is not None:
        argv = [*argv, "--input", make_input(tmp_path)]
    if patch is not None:
        monkeypatch.setattr(cli, patch[0], _raising(patch[1]))
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == code
    (report,) = reports
    assert out.read_bytes() == (report_text(report) + "\n").encode()
    if case == "coxeter-check":
        assert "L_basis" in report["rigidity"]
    if case == "coxeter-check-witnesses":
        assert any(w is not None for w in report["rigidity"]["condition_II_witnesses"].values())
