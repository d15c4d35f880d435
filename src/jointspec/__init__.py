"""Determinantal hypersurfaces of matrix pencils and their local spectral data."""

from .branches import (
    Branch,
    RegularityReport,
    SpectralResolution,
    TOperator,
    check_regularity,
    local_branches,
    regularity_report,
    spectral_resolution,
    t_operator,
)
from .coxeter import (
    CoxeterMatrix,
    CoxeterRep,
    DihedralIrrep,
    RigidityReport,
    build_representation,
    check_condition_I,
    check_condition_II,
    check_condition_star,
    dihedral,
    dihedral_pair_decomposition,
    equivalence_evidence,
    extended_tuple,
    extract_invariant_subspace,
    geometric_representation,
    rigidity_check,
    verify_restriction,
)
from .errors import (
    AssignmentError,
    BranchCollisionError,
    DimensionMismatchError,
    EmptySubspaceError,
    ExtrapolationError,
    JointSpecError,
    NotNormalError,
    PairingAmbiguityError,
    ProjectionBlowupError,
    SeparationError,
    TrackingError,
    UnknownEigenvalueError,
)
from .pencil import (
    MatrixTuple,
    NormalityReport,
    line_roots_batch,
    normality_report,
    opnorm,
    sample_spectrum_curve,
    spectral_mask,
)
from .projections import (
    ComponentProjection,
    LimitProjection,
    NormProfile,
    component_projection,
    limit_projection,
    projection_ladders,
)
from .relations import (
    HypothesisNotMet,
    PairAnalysis,
    RelationReport,
    analyze_pair,
    verify_pair,
)

__version__ = "0.1.0"
