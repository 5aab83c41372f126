"""Exception taxonomy for the workbench.

Every numerical routine that can fail in a physically meaningful way raises
one of these instead of returning garbage.  All inherit from DefectBetheError
so callers can catch the whole family at the CLI boundary.
"""


class DefectBetheError(Exception):
    """Base class for all workbench errors."""


class PoleError(DefectBetheError):
    """Evaluation point sits on (or within tolerance of) a pole."""


class NonConvergence(DefectBetheError):
    """A truncated product, quadrature or Newton root search failed to reach
    its module's tolerance within its term or step limit.  The root search
    attaches the best residual seen and the iterate it was reached at."""

    def __init__(self, message, best_residual=None, last_iterate=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.last_iterate = last_iterate


class DomainError(DefectBetheError):
    """Parameters fall outside the validity window of a formula."""


class RootOfUnityError(DefectBetheError):
    """Deformed representation is degenerate: some q-integer [k]_q vanishes
    or goes negative at the requested anisotropy."""


class NotScalarError(DefectBetheError):
    """A matrix expected to be proportional to the identity is not."""


class DimensionCapExceeded(DefectBetheError):
    """Requested Hilbert-space dimension exceeds the configured cap."""


class SingularJacobian(DefectBetheError):
    """Newton Jacobian is singular (typically coincident roots)."""


class DegenerateSpectrum(DefectBetheError):
    """Eigenvalue matching is ambiguous: two levels collide within tolerance."""


class NotRealizable(DefectBetheError):
    """Requested object has no finite-dimensional realization."""


class SectorLeakage(DefectBetheError):
    """An operator expected to conserve total S^z couples two sectors."""
