"""Exception types shared across the toolkit."""


class SteklovError(Exception):
    """Base class for all toolkit-specific errors."""


class MeshParseError(SteklovError):
    """Raised when mesh text cannot be parsed (malformed line, bad count, bad index)."""


class MeshTopologyError(SteklovError):
    """Raised for non-manifold edges, degenerate triangles, or multiple boundary loops."""


class MeshResourceError(SteklovError):
    """Raised when a requested mesh resolution would exhaust memory."""


class InfeasibleConstraintError(SteklovError):
    """Raised when a constraint set leaves no admissible unknowns."""


class NonConvergenceError(SteklovError):
    """Raised when an inner solve fails and the failure cannot be reported in-band."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class RegionCollisionError(SteklovError):
    """Raised when perturbed arc endpoints merge, vanish, or swap."""
