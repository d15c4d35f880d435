"""Command-line front end: load instances, run analyses, emit reports.

Exit status contract: 0 all requested checks pass, 1 a check failed,
2 input/config parse error (also a representation, by assignment or by
explicit matrices, that is not a tuple of unitary involutions satisfying
the Coxeter matrix's relations, and a lambda that is not an eigenvalue of
A1), 3 numerical refusal (blow-up, non-normal leading matrix, failed
hypotheses, failed tracking, separation, an ambiguous commutant or a
failed LAPACK eigensolve) with a diagnostic report.
"""

import argparse
import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .branches import local_branches, regularity_report
from .coxeter import CoxeterMatrix, CoxeterRep, build_representation, rigidity_check
from .errors import (
    AssignmentError,
    DimensionMismatchError,
    JointSpecError,
    ProjectionBlowupError,
    UnknownEigenvalueError,
)
from .fixtures import blowup_demo_pair
from .pencil import MatrixTuple, _is_real, normality_report, sample_spectrum_curve
from .projections import _checked, _ladders, _limits, _norm_profiles, _rung_stack
from .relations import verify_pair
from .serialize import SCHEMA_VERSION, _report_text, json_to_matrix, pair_to_complex

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_REFUSED = 3

# demo-blowup fits the blow-up exponent on a halving ladder from t = 0.1 of
# at least this many rungs; it is also the command's --samples default.
_DEMO_MIN_SAMPLES = 10


@dataclass
class RunConfig:
    command: str
    input: str = None
    out: str = None
    tol: float = 1e-5
    t_max: float = 1e-2
    samples: int = 8
    seed: int = 0
    epsilon: float = 0.15

    def validate(self):
        for flag in ("tol", "t_max", "epsilon"):
            value = getattr(self, flag)
            if not (_is_real(value) and value > 0):
                raise ValueError(f"--{flag.replace('_', '-')} must be a finite real > 0; "
                                 f"got {value!r}")
        if self.samples < 5:
            raise ValueError("--samples must be at least 5")
        if self.command == "demo-blowup" and self.samples < _DEMO_MIN_SAMPLES:
            raise ValueError(f"demo-blowup --samples must be at least {_DEMO_MIN_SAMPLES}")


def _emit(report, config: RunConfig):
    text = _report_text(report) + "\n"
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _provenance(config: RunConfig):
    return {
        "schema_version": SCHEMA_VERSION,
        "command": config.command,
        "config": {
            "input": config.input,
            "tol": config.tol,
            "t_max": config.t_max,
            "samples": config.samples,
            "seed": config.seed,
            "epsilon": config.epsilon,
        },
    }


def _load_json(path):
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"the input must be a JSON object; got {type(obj).__name__}")
    return obj


def _field(obj, key, config: RunConfig):
    """obj[key]; KeyError naming the field when the input has none."""
    if key not in obj:
        raise KeyError(f"{config.command} input needs a '{key}' field")
    return obj[key]


def _tuple_from(obj):
    if "tuple" in obj:
        obj = obj["tuple"]
    return MatrixTuple.from_json(obj)


def _cmd_analyze(config: RunConfig):
    obj = _load_json(config.input)
    tup = _tuple_from(obj)
    if tup.n < 2:
        raise ValueError(f"analyze needs a tuple of at least two 'matrices'; got {tup.n}")
    lam = pair_to_complex(_field(obj, "lambda", config), "lambda")
    direction = obj.get("direction", [1.0] + [0.0] * (tup.n - 2))
    if not isinstance(direction, list):
        raise ValueError(f"direction must be a list of n-1={tup.n - 1} [re, im] pairs; "
                         f"got {direction!r}")
    xhat = np.array([pair_to_complex(v, "direction") for v in direction])

    report = _provenance(config)
    norm = normality_report(tup.matrices[0])
    report["normality"] = {
        "commutator_norm": norm.commutator_norm,
        "is_normal": norm.is_normal,
        "is_diagonalizable": norm.is_diagonalizable,
    }
    branches = local_branches(tup, lam, xhat, t_max=config.t_max, samples=config.samples)
    reg = regularity_report(branches)
    report["branches"] = [b.to_json() for b in branches]
    report["regularity"] = reg.to_json()
    report["projections"] = []
    blowup = None
    rungs = _rung_stack(tup, branches)
    for b, ladder, profile, limit in zip(branches, _ladders(branches, rungs),
                                         *_limits(branches, rungs)):
        entry = {"j": b.index, "norm_profile": profile.to_json(),
                 "ladder": [cp.to_json() for cp in ladder]}
        try:
            entry["limit"] = _checked(profile, limit).to_json()
        except ProjectionBlowupError as exc:
            entry["limit"] = None
            entry["blowup_exponent"] = exc.exponent
            blowup = exc
        report["projections"].append(entry)
    if blowup is not None:
        report["refusal"] = str(blowup)
        report["error"] = type(blowup).__name__
    _emit(report, config)
    return EXIT_OK if blowup is None else EXIT_REFUSED


def _cmd_verify(config: RunConfig):
    obj = _load_json(config.input)
    tup = _tuple_from(obj)
    reports = verify_pair(tup, tol=config.tol, t_max=config.t_max, samples=config.samples)
    report = _provenance(config)
    report["instance"] = tup.to_json()
    report["tolerances"] = {"relation": config.tol}
    report["reports"] = [r.to_json() for r in reports]
    passed = all(r.passed for r in reports)
    report["passed"] = passed
    _emit(report, config)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_coxeter_check(config: RunConfig):
    obj = _load_json(config.input)
    tup = _tuple_from(obj)
    cm = CoxeterMatrix.from_json(_field(obj, "coxeter_matrix", config))
    rep_spec = _field(obj, "rep", config)
    if not (isinstance(rep_spec, dict) and ("matrices" in rep_spec or "assignment" in rep_spec)):
        raise ValueError("'rep' must be an object with 'matrices' or 'assignment'")
    if "matrices" in rep_spec:
        if not isinstance(rep_spec["matrices"], list):
            raise ValueError("rep 'matrices' must be a list of matrices")
        rep = CoxeterRep(cm=cm, generators=tuple(json_to_matrix(m, "each of rep's 'matrices'")
                                                 for m in rep_spec["matrices"]))
        rep.validate(config.tol)
    else:
        seed = rep_spec.get("seed")
        if not (seed is None or isinstance(seed, int) and not isinstance(seed, bool) and seed >= 0):
            raise ValueError(f"rep 'seed' must be an integer >= 0; got {seed!r}")
        rep = build_representation(cm, rep_spec["assignment"], seed=seed)
    rig = rigidity_check(
        tup, rep, epsilon=config.epsilon, seed=config.seed,
    )
    report = _provenance(config)
    report["rigidity"] = rig.to_json()
    _emit(report, config)
    restriction_ok = rig.restriction is not None and (
        all(v <= config.tol for v in rig.restriction.unitary_residuals)
        and all(v <= config.tol for v in rig.restriction.selfadjoint_residuals)
        and all(v <= config.tol for v in rig.restriction.relation_residuals.values())
        and rig.restriction.spectra_match
        and rig.restriction.exponents_ok
    )
    equivalent_ok = rig.equivalence is None or rig.equivalence.character_bound <= config.tol
    ok = rig.applicable and rig.dim_L == rep.dim and restriction_ok and equivalent_ok
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_plot(config: RunConfig):
    obj = _load_json(config.input)
    tup = _tuple_from(obj)
    window = obj.get("window", [[-2.0, 2.0], [-2.0, 2.0]])
    points = sample_spectrum_curve(tup, window=window, grid=obj.get("grid", [41, 41]))
    if config.out and config.out.endswith(".svg"):
        _write_svg(config.out, points, window)
    else:
        _write_csv(config.out, points)
    return EXIT_OK


def _write_csv(path, points):
    lines = ["x1_re,x1_im,x2_re,x2_im"]
    for p in points:
        x1, x2 = (complex(v) for v in p)
        lines.append(f"{x1.real!r},{x1.imag!r},{x2.real!r},{x2.imag!r}")
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_svg(path, points, window, size=600):
    (x1lo, x1hi), (x2lo, x2hi) = window
    sx = size / (x1hi - x1lo)
    sy = size / (x2hi - x2lo)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for x1, x2 in points:
        cx = (x1.real - x1lo) * sx
        cy = size - (x2.real - x2lo) * sy
        parts.append(f'<circle cx="{cx:.3f}" cy="{cy:.3f}" r="2" fill="black"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _cmd_demo_blowup(config: RunConfig):
    tup = blowup_demo_pair()
    branches = local_branches(tup, 1.0, [1.0], t_max=0.1, samples=config.samples)
    report = _provenance(config)
    report["ladder"] = {"t_max": 0.1, "samples": config.samples}
    profiles = _norm_profiles(branches, _rung_stack(tup, branches).norms)
    report["profiles"] = [{"j": b.index, **p.to_json()} for b, p in zip(branches, profiles)]
    report["refusal"] = (
        f"component projections blow up as t -> 0 (fitted exponents "
        f"{[round(p.exponent, 3) for p in profiles]}); the leading matrix is not normal"
    )
    report["error"] = ProjectionBlowupError.__name__
    _emit(report, config)
    return EXIT_REFUSED


# Each command with the numeric flags it reads; every command takes --out and
# all but demo-blowup take --input.  Unread values keep their RunConfig default,
# and demo-blowup's --samples defaults to _DEMO_MIN_SAMPLES.  --tol gates
# different values per command, so its help text is per command.
_TOL_HELP = {
    "verify": "tolerance on every relation residual (operator norm)",
    "coxeter-check": (
        "tolerance on the explicit representation matrices, the restriction's "
        "unitary, self-adjoint and relation residuals, and the equivalence "
        "character_bound; the spectral checks stay at a fixed 1e-8 (relative): "
        "condition (I) and spectra_match match roots on generic lines, "
        "condition (II) matches roots on random lines near each ±e_j"
    ),
}
_COMMANDS = {
    "analyze": (_cmd_analyze, ("t_max", "samples")),
    "verify": (_cmd_verify, ("tol", "t_max", "samples")),
    "coxeter-check": (_cmd_coxeter_check, ("tol", "seed", "epsilon")),
    "plot": (_cmd_plot, ()),
    "demo-blowup": (_cmd_demo_blowup, ("samples",)),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jointspec",
        description="Determinantal hypersurface analyses for matrix tuples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        if name != "demo-blowup":
            p.add_argument("--input", help="input JSON path")
        p.add_argument("--out", help="output path (JSON, CSV or SVG)")
        for dest in flags:
            default = getattr(RunConfig, dest)
            p.add_argument("--" + dest.replace("_", "-"), dest=dest, type=type(default),
                           default=default, help=_TOL_HELP[name] if dest == "tol" else None)
        if name == "demo-blowup":
            p.set_defaults(samples=_DEMO_MIN_SAMPLES)
    return parser


# built once per process: parsing leaves the parser unchanged
_parser = functools.cache(build_parser)


def main(argv=None):
    config = RunConfig(**vars(_parser().parse_args(argv)))
    try:
        config.validate()
        if config.command != "demo-blowup" and not config.input:
            raise ValueError(f"{config.command} requires --input")
        return _COMMANDS[config.command][0](config)
    except np.linalg.LinAlgError as exc:
        # a ValueError subclass, but a failed eigensolve, not bad input
        return _refuse(exc, config)
    except (ValueError, KeyError, OSError, json.JSONDecodeError, DimensionMismatchError,
            AssignmentError, UnknownEigenvalueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except JointSpecError as exc:
        return _refuse(exc, config)


def _refuse(exc, config: RunConfig):
    sys.stderr.write(f"refused: {exc}\n")
    report = _provenance(config)
    report["refusal"] = str(exc)
    report["error"] = type(exc).__name__
    _emit(report, config)
    return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
