"""Exception types shared across the package."""


class JointSpecError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(JointSpecError):
    """Input shapes are inconsistent with the matrix tuple."""


class NotNormalError(JointSpecError):
    """A1 fails the normality test required for a spectral resolution.

    Limit projections are not guaranteed to exist in this case; the
    norm-profile diagnostics (the demo-blowup CLI command, and the
    NormProfile a ProjectionBlowupError carries) are the supported path for
    such inputs.
    """

    def __init__(self, commutator_norm, tolerance):
        self.commutator_norm = commutator_norm
        self.tolerance = tolerance
        super().__init__(
            f"matrix is not normal: ||A A* - A* A|| = {commutator_norm:.3e} "
            f"exceeds tolerance {tolerance:.3e}; limit projections may blow up "
            f"(use the norm-profile diagnostics instead)"
        )


class UnknownEigenvalueError(JointSpecError):
    """Requested eigenvalue is not in the spectral resolution."""


class BranchCollisionError(JointSpecError):
    """Two tracked branches came within matching tolerance at some ladder step."""


class TrackingError(JointSpecError):
    """Branch continuation along the ladder failed to stay consistent."""


class ExtrapolationError(JointSpecError):
    """Richardson extrapolation did not converge on the supplied samples.

    When richardson_limit raises it for a stack whose series did not all
    converge, limits, errors and the boolean mask failed describe every
    series of the stack; otherwise they are None.
    """

    limits = errors = failed = None


class SeparationError(JointSpecError):
    """The target eigenvalue cluster is not separated from the rest of the spectrum."""


class ProjectionBlowupError(JointSpecError):
    """Component projections diverge as t -> 0 (expected for non-normal A1)."""

    def __init__(self, exponent, profile):
        self.exponent = exponent
        self.profile = profile
        super().__init__(
            f"projection norms diverge along the ladder (fitted power-law "
            f"exponent {exponent:.3f}); no limit projection exists"
        )


class PairingAmbiguityError(JointSpecError):
    """Branch pairing by derivative correspondence is ambiguous."""


class EmptySubspaceError(JointSpecError):
    """A1 has no eigenvalues at +1 or -1; the invariant subspace is empty."""


class AssignmentError(JointSpecError):
    """A representation, by summand assignment or by explicit generators, is
    inconsistent with the Coxeter matrix."""
