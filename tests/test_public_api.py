"""The public API, pinned: the names jointspec exports, the defaulted
parameters of every public function and the fields of every exported
dataclass, so that each API change shows as a diff here.

A public function is an exported function or a public method of an exported
class; exception classes are left out.
"""

import dataclasses
import inspect

import jointspec as js

EXPORTS = [
    "AssignmentError", "Branch", "BranchCollisionError", "ComponentProjection",
    "CoxeterMatrix", "CoxeterRep", "DihedralIrrep", "DimensionMismatchError",
    "EmptySubspaceError", "ExtrapolationError", "HypothesisNotMet", "JointSpecError",
    "LimitProjection", "MatrixTuple", "NormProfile", "NormalityReport", "NotNormalError",
    "PairAnalysis", "PairingAmbiguityError", "ProjectionBlowupError", "RegularityReport",
    "RelationReport", "RigidityReport", "SeparationError", "SpectralResolution",
    "TOperator", "TrackingError", "UnknownEigenvalueError",
    "analyze_pair", "build_representation", "check_condition_I", "check_condition_II",
    "check_condition_star", "check_regularity", "component_projection", "dihedral",
    "dihedral_pair_decomposition", "equivalence_evidence",
    "extended_tuple", "extract_invariant_subspace", "geometric_representation",
    "limit_projection", "line_roots_batch", "local_branches", "normality_report", "opnorm",
    "projection_ladders", "regularity_report", "rigidity_check",
    "sample_spectrum_curve", "spectral_mask", "spectral_resolution", "t_operator",
    "verify_pair", "verify_restriction",
]

# every public function with at least one defaulted parameter; the rest have none
DEFAULTED = {
    "CoxeterRep.validate": 1, "analyze_pair": 1, "build_representation": 1,
    "check_condition_I": 1, "check_condition_II": 3, "check_regularity": 2,
    "local_branches": 2, "rigidity_check": 3,
    "sample_spectrum_curve": 2, "verify_pair": 4, "verify_restriction": 1,
}


# the field names of every exported dataclass, in declaration order
FIELDS = {
    "Branch": ["lam", "kind", "direction", "index", "samples", "multiplicity", "d1", "d2",
               "d1_error", "d2_error", "pencil", "_rung_roots"],
    "ComponentProjection": ["branch_index", "lam", "kind", "t", "matrix",
                            "idempotency_residual", "rank", "radius"],
    "CoxeterMatrix": ["orders"],
    "CoxeterRep": ["cm", "generators"],
    "DihedralIrrep": ["kind", "angle"],
    "LimitProjection": ["branch_index", "lam", "kind", "direction", "matrix",
                        "extrapolation_error", "rank", "idempotency_residual", "derivative"],
    "MatrixTuple": ["matrices"],
    "NormProfile": ["points", "exponent"],
    "NormalityReport": ["commutator_norm", "is_normal", "is_diagonalizable", "tolerance"],
    "PairAnalysis": ["tup", "lam", "resolution", "branches", "limits"],
    "RegularityReport": ["lam", "condition_a", "condition_b", "branch_derivative_gaps",
                         "tangency_margin", "tangency_ok", "branches", "failure", "error"],
    "RelationReport": ["relation_id", "lam", "branch_indices", "residual", "tolerance",
                       "passed"],
    "RigidityReport": ["condition_star", "condition_I", "condition_I_witness", "condition_II",
                       "condition_II_witnesses", "applicable", "generator_norms", "norms_ok",
                       "dim_L", "L_basis", "invariance_residuals", "restriction",
                       "equivalence", "nonspecial", "seed", "epsilon", "failure"],
    "SpectralResolution": ["eigenvalues", "projections", "multiplicities"],
    "TOperator": ["base_eigenvalue", "matrix"],
}


def exports():
    return sorted(name for name, value in vars(js).items()
                  if not name.startswith("_") and not inspect.ismodule(value))


def public_functions():
    """(name, function) of every exported function and public method of an
    exported class that is not an exception."""
    for name in exports():
        value = getattr(js, name)
        if inspect.isfunction(value):
            yield name, value
        elif inspect.isclass(value) and not issubclass(value, BaseException):
            for attr, member in vars(value).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def defaulted(fn):
    return sum(p.default is not inspect.Parameter.empty
               for p in inspect.signature(fn).parameters.values())


def test_exports():
    assert exports() == EXPORTS
    assert len(EXPORTS) == 55


def test_defaulted_parameters():
    counts = {name: defaulted(fn) for name, fn in public_functions()}
    assert {name: n for name, n in counts.items() if n} == DEFAULTED
    assert sum(counts.values()) == 21


def test_dataclass_fields():
    got = {name: [f.name for f in dataclasses.fields(getattr(js, name))]
           for name in exports() if dataclasses.is_dataclass(getattr(js, name))}
    assert got == FIELDS
