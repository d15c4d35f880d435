"""The four benchmark workloads and the correctness gate for each call.

A workload's ``setup(seed, size, workdir)`` generates every input from the
seed (this is timed as set-up) and returns the list of calls that make up one
round.  Each call's ``check`` raises ``WrongOutput`` when the output is not
what the instance predicts; the predictions come from how the instance was
built, not from the library.

Calls reach the library through module attributes at call time
(``js.verify_pair``, ``cli.main``), so the traced run sees them.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import jointspec as js
from jointspec import cli, fixtures


class WrongOutput(Exception):
    """An output failed the benchmark's correctness gate."""


def _require(cond, msg):
    if not cond:
        raise WrongOutput(msg)


@dataclass(frozen=True)
class Call:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, str, Path], list]
    warmup: Callable[[Path], None]


def _seeds(seed, count):
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31, size=count)]


# -- verify-mixed / verify-large ---------------------------------------------

# Reports verify_pair emits at one eigenvalue, by branch structure.  The
# generator plants a double eigenvalue at 1 (two simple branches), optionally
# a simple 0, and simple nonzero eigenvalues elsewhere.
_PRIME = {f"prime_relation_{k}": 1 for k in range(1, 5)}
_SIMPLE = Counter({"resolution": 1, "first_moment": 1, "second_moment": 1,
                   "same_projection_lemma": 1, "square_relation": 1, **_PRIME})
_DOUBLE = Counter({"orthogonality": 1, "resolution": 1, "cross_moment_zero": 2,
                   "first_moment": 2, "second_moment": 2,
                   "same_projection_lemma": 1, "square_relation": 1,
                   **{k: 2 for k in _PRIME}})
_ZERO = Counter({"resolution": 1, "first_moment_zero_case": 1,
                 "second_moment_zero_case": 1, **_PRIME})


# regular_random_pair's default min_gap (0.05) is below what verify_pair's
# defaults need: the finest ladder rung t = 1e-2 * 2**-7 parts the two branches
# at 1 by about gap * t, and component_projection refuses (SeparationError) at
# 4e-6 or less, i.e. for gaps up to about 0.051.  Asking for twice the gap keeps
# every instance inside the analysis' hypotheses.
MIN_GAP = 0.1


def _lam_key(z):
    return (round(z.real, 6), round(z.imag, 6))


def check_verify(reports, dim, zero, all_eigenvalues):
    """Every report passes, and the reports per eigenvalue match the instance."""
    _require(isinstance(reports, list) and reports, "verify_pair returned no reports")
    for r in reports:
        _require(r.passed is True and r.residual <= r.tolerance,
                 f"{r.relation_id} at {r.lam} failed: {r.residual:.3e} > {r.tolerance:.1e}")
    groups = {}
    for r in reports:
        groups.setdefault(_lam_key(r.lam), Counter())[r.relation_id] += 1
    one = groups.pop(_lam_key(1.0), None)
    _require(one == _DOUBLE, f"reports at the double eigenvalue 1: {one}")
    if not all_eigenvalues:
        _require(not groups, f"reports at eigenvalues not asked for: {sorted(groups)}")
        return
    if zero:
        at_zero = groups.pop(_lam_key(0.0), None)
        _require(at_zero == _ZERO, f"reports at the zero eigenvalue: {at_zero}")
    simple = dim - 2 - int(zero)
    _require(len(groups) == simple,
             f"reports at {len(groups)} simple eigenvalues, expected {simple}")
    for key, ids in groups.items():
        _require(ids == _SIMPLE, f"reports at simple eigenvalue {key}: {ids}")


def _verify_call(seed, dim, zero, lam):
    tup, _ = fixtures.regular_random_pair(seed, dim, zero_eigenvalue=zero, min_gap=MIN_GAP)
    label = f"verify N={dim} zero={zero} lam={'all' if lam is None else lam}"
    return Call(
        label,
        lambda: js.verify_pair(tup, lam=lam),
        lambda out: check_verify(out, dim, zero, all_eigenvalues=lam is None),
    )


def _verify_warmup(workdir):
    js.verify_pair(fixtures.dihedral_pair(math.pi / 3), lam=1.0)


def setup_verify_mixed(seed, size, workdir):
    # N=16 runs only without a zero eigenvalue: the zero-kind branches run at
    # N=4 and N=8, and a second N=16 call would leave room for one round only.
    cases = [(4, False), (4, True), (8, False), (8, True), (16, False)]
    if size == "tiny":
        cases = cases[:2]
    return [_verify_call(s, dim, zero, None)
            for s, (dim, zero) in zip(_seeds(seed, len(cases)), cases)]


def setup_verify_large(seed, size, workdir):
    dim, count = (32, 3) if size == "full" else (6, 1)
    return [_verify_call(s, dim, False, 1.0) for s in _seeds(seed, count)]


# -- coxeter-rigidity --------------------------------------------------------

_DIHEDRAL = (
    (3, [js.DihedralIrrep("two_dim", 2 * math.pi / 3), "one_dim_pp"]),
    (4, [js.DihedralIrrep("two_dim", math.pi / 2), "one_dim_pm"]),
    (5, [js.DihedralIrrep("two_dim", 2 * math.pi / 5),
         js.DihedralIrrep("two_dim", 4 * math.pi / 5)]),
)
_PLANTED_DIAG = [0.28, -0.2 + 0.12j, 0.1 - 0.3j, -0.15 - 0.05j]


def _type_a(n):
    return js.CoxeterMatrix([[1 if i == j else 3 if abs(i - j) == 1 else 2
                              for j in range(n)] for i in range(n)])


def _random_block(rng, k):
    b = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return 0.3 * b / js.opnorm(b)


def _max(values):
    return max(values, default=0.0)


def check_rigidity_positive(rig, rep):
    """The full pipeline accepts a planted copy of rep (acceptance criterion 7)."""
    _require(all(rig.condition_star.values()), f"condition (*) failed: {rig.condition_star}")
    _require(rig.condition_I, "condition (I) failed")
    _require(all(rig.condition_II.values()), f"condition (II) failed: {rig.condition_II}")
    _require(rig.norms_ok and rig.applicable, "not applicable")
    _require(rig.dim_L == rep.dim, f"dim L = {rig.dim_L}, expected {rep.dim}")
    rr = rig.restriction
    worst = max(_max(rr.unitary_residuals), _max(rr.selfadjoint_residuals),
                _max(rr.relation_residuals.values()), _max(rig.invariance_residuals))
    _require(worst <= 1e-7, f"restriction residual {worst:.3e} > 1e-7")
    _require(rr.exponents_ok and rr.recovered_orders == rr.expected_orders,
             f"pair orders {rr.recovered_orders} != {rr.expected_orders}")
    _require(rr.spectra_match, "restricted spectra differ")
    ev = rig.equivalence
    _require(ev is not None and ev.max_discrepancy <= 1e-6, "characters differ")


def check_rigidity_rank_ge4(rig, rep):
    """Type A_n, n >= 4: commuting generator pairs repeat a 1-dim character,
    so (*) fails and the verdict is not applicable; the subspace and the
    characters still match the representation."""
    _require(not all(rig.condition_star.values()), "condition (*) unexpectedly holds")
    _require(not rig.applicable, "verdict unexpectedly applicable")
    _require(rig.condition_I and all(rig.condition_II.values()), "spectral conditions failed")
    _require(rig.dim_L == rep.dim, f"dim L = {rig.dim_L}, expected {rep.dim}")
    ev = rig.equivalence
    _require(ev is not None and ev.max_discrepancy <= 1e-6, "characters differ")


def check_rigidity_duplicate(rig, rep):
    """A duplicated irreducible flips exactly condition (*)."""
    _require(rig.condition_star == {2: False}, f"condition (*): {rig.condition_star}")
    _require(rig.condition_I and all(rig.condition_II.values()), "spectral conditions failed")
    _require(not rig.applicable, "verdict unexpectedly applicable")


def check_rigidity_sheet(rig, rep):
    """A planted sheet through the ball at +e_2 flips exactly (II) there."""
    _require(all(rig.condition_star.values()) and rig.condition_I, "(*) or (I) failed")
    _require(rig.condition_II.get((2, 1)) is False, "condition (II) at +e_2 not flipped")
    others = {k: v for k, v in rig.condition_II.items() if k != (2, 1)}
    _require(all(others.values()), f"condition (II) flipped elsewhere: {others}")
    _require(not rig.applicable, "verdict unexpectedly applicable")


def _rigidity_call(label, tup, rep, sample_seed, check):
    return Call(label, lambda: js.rigidity_check(tup, rep, seed=sample_seed),
                lambda out: check(out, rep))


def setup_coxeter(seed, size, workdir):
    rng = np.random.default_rng(seed)
    calls = []

    def seed_():
        return int(rng.integers(0, 2**31))

    for m, summands in _DIHEDRAL if size == "full" else _DIHEDRAL[:1]:
        rep = js.build_representation(js.dihedral(m), summands)
        blocks = [np.diag([0.3, -0.22 + 0.1j]), _random_block(rng, 2)]
        tup = fixtures.planted_tuple(rep, blocks, seed=seed_())
        calls.append(_rigidity_call(f"dihedral m={m}", tup, rep, seed_(),
                                    check_rigidity_positive))
    for n in (3, 4) if size == "full" else ():
        cm = _type_a(n)
        rep = js.CoxeterRep(cm=cm, generators=tuple(js.geometric_representation(cm)))
        blocks = [np.diag(_PLANTED_DIAG[:n])] + [_random_block(rng, n) for _ in range(n - 1)]
        tup = fixtures.planted_tuple(rep, blocks, seed=seed_())
        check = check_rigidity_positive if n == 3 else check_rigidity_rank_ge4
        calls.append(_rigidity_call(f"type A{n}", tup, rep, seed_(), check))

    dup = js.build_representation(js.dihedral(5),
                                  [js.DihedralIrrep("two_dim", 2 * math.pi / 5)] * 2)
    tup = fixtures.planted_tuple(dup, [np.diag([0.3, -0.25]), _random_block(rng, 2)],
                                 seed=seed_())
    calls.append(_rigidity_call("control: duplicated irrep", tup, dup, seed_(),
                                check_rigidity_duplicate))

    rep = js.build_representation(js.dihedral(4),
                                  [js.DihedralIrrep("two_dim", math.pi / 2), "one_dim_pm"])
    tup = fixtures.planted_tuple(rep, [np.diag([0.3, -0.22]), np.diag([0.925, 0.2])],
                                 seed=seed_())
    calls.append(_rigidity_call("control: planted sheet", tup, rep, seed_(),
                                check_rigidity_sheet))
    return calls


def _coxeter_warmup(workdir):
    rep = js.build_representation(js.dihedral(3), _DIHEDRAL[0][1])
    tup = fixtures.planted_tuple(rep, [np.diag([0.3, -0.22]), np.diag([0.2, 0.1])], seed=0)
    js.rigidity_check(tup, rep, sample_count=12)


# -- cli-mix -----------------------------------------------------------------


@dataclass(frozen=True)
class CliOutcome:
    """Exit code of one in-process ``jointspec`` invocation and its output file."""

    code: int
    text: str

    @property
    def report_bytes(self):
        return len(self.text.encode())


def _cli_call(label, argv, out, expect_code, check):
    def run():
        out.unlink(missing_ok=True)  # a stale file must not pass the gate
        code = cli.main(argv + ["--out", str(out)])
        return CliOutcome(code, out.read_text() if out.exists() else "")

    def gate(outcome):
        _require(outcome.code == expect_code, f"exit {outcome.code}, expected {expect_code}")
        check(outcome.text)

    return Call(label, run, gate)


def _json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise WrongOutput(f"report is not JSON: {exc}") from None


def check_analyze(text, multiplicity):
    rep = _json(text)
    _require("refusal" not in rep, f"refused: {rep.get('refusal')}")
    _require(len(rep["branches"]) == multiplicity,
             f"{len(rep['branches'])} branches, expected {multiplicity}")
    reg = rep["regularity"]
    _require(reg["condition_a"] and reg["condition_b"], "regularity conditions failed")
    for entry in rep["projections"]:
        lim = entry["limit"]
        _require(lim is not None and lim["rank"] == 1 and lim["idempotency"] <= 1e-6,
                 f"limit projection of branch {entry['j']} is not a rank-1 projection")


def check_blowup(text):
    rep = _json(text)
    _require(rep.get("refusal"), "exit 3 without a refusal in the report")
    exps = [p["exponent"] for p in rep["profiles"]]
    _require(exps and all(e < -0.25 for e in exps), f"fitted exponents {exps}")


def check_plot(text, tup, nonempty):
    lines = text.splitlines()
    _require(lines and lines[0] == "x1_re,x1_im,x2_re,x2_im", "missing CSV header")
    _require(len(lines) > 1 or not nonempty, "no spectrum points")
    a1, a2 = (np.asarray(m) for m in tup.matrices)
    eye = np.eye(a1.shape[0])
    for line in lines[1:]:
        try:
            x1r, x1i, x2r, x2i = (float(v) for v in line.split(","))
        except ValueError:
            raise WrongOutput(f"bad CSV row {line!r}") from None
        s = np.linalg.svd(complex(x1r, x1i) * a1 + complex(x2r, x2i) * a2 - eye,
                          compute_uv=False)
        _require(s[-1] <= 1e-6 * (1.0 + s[0]), f"point {line} is off the spectrum")


def check_coxeter_cli(text, dim):
    rig = _json(text)["rigidity"]
    _require(rig["applicable"] and rig["dim_L"] == dim,
             f"applicable={rig['applicable']} dim_L={rig['dim_L']}")


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def setup_cli(seed, size, workdir):
    rng = np.random.default_rng(seed)
    seeds = [int(s) for s in rng.integers(0, 2**31, size=4)]
    dims = (8, 16) if size == "full" else (4,)
    grid = [61, 61] if size == "full" else [11, 11]
    calls = []
    pairs = []
    for s, dim in zip(seeds, dims):
        tup, _ = fixtures.regular_random_pair(s, dim, min_gap=MIN_GAP)
        pairs.append(tup)
        inp = _write(workdir / f"pair{dim}.json", {**tup.to_json(), "lambda": [1.0, 0.0]})
        calls.append(_cli_call(f"analyze N={dim}", ["analyze", "--input", inp],
                               workdir / f"analyze{dim}.json", 0,
                               lambda text: check_analyze(text, 2)))
    calls.append(_cli_call("demo-blowup", ["demo-blowup"], workdir / "blowup.json", 3,
                           check_blowup))

    angle = math.pi / float(rng.choice([3, 4, 5]))
    dih = fixtures.dihedral_pair(angle)
    for label, tup, nonempty in (("dihedral", dih, True), ("random", pairs[0], False)):
        inp = _write(workdir / f"plot-{label}.json", {**tup.to_json(), "grid": grid})
        calls.append(_cli_call(f"plot {label}", ["plot", "--input", inp],
                               workdir / f"plot-{label}.csv", 0,
                               lambda text, tup=tup, ne=nonempty: check_plot(text, tup, ne)))

    # Two small coxeter-check calls: with them the median call falls inside a
    # cluster of similar short calls rather than in the gap before the plots.
    for k, (m, summands) in enumerate(_DIHEDRAL[:2] if size == "full" else _DIHEDRAL[:1]):
        rep = js.build_representation(js.dihedral(m), summands)
        tup = fixtures.planted_tuple(
            rep, [np.diag([0.3, -0.22 + 0.1j]), _random_block(rng, 2)], seed=seeds[2] + k)
        assignment = [s if isinstance(s, str) else [s.kind, s.angle] for s in summands]
        spec = {"schema_version": 1, "tuple": tup.to_json(),
                "coxeter_matrix": [[1, m], [m, 1]], "rep": {"assignment": assignment}}
        inp = _write(workdir / f"coxeter{m}.json", spec)
        calls.append(_cli_call(f"coxeter-check m={m}",
                               ["coxeter-check", "--input", inp,
                                "--seed", str((seeds[3] + k) % 1000)],
                               workdir / f"coxeter{m}-out.json", 0,
                               lambda text, dim=rep.dim: check_coxeter_cli(text, dim)))
    return calls


def _cli_warmup(workdir):
    out = workdir / "warmup.json"
    cli.main(["demo-blowup", "--out", str(out)])
    out.unlink(missing_ok=True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-mixed", setup_verify_mixed, _verify_warmup),
        Workload("verify-large", setup_verify_large, _verify_warmup),
        Workload("coxeter-rigidity", setup_coxeter, _coxeter_warmup),
        Workload("cli-mix", setup_cli, _cli_warmup),
    )
}

