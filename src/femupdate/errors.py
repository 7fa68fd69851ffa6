"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands do not share the required dimensions."""


class NotPositiveDefiniteError(ValueError):
    """Factorization hit a nonpositive pivot.

    Attributes
    ----------
    pivot : int
        Index (in the original matrix ordering) of the offending pivot.
    """

    def __init__(self, pivot):
        self.pivot = int(pivot)
        super().__init__(
            "matrix is not positive definite (nonpositive pivot at index %d)"
            % self.pivot
        )


class SubspaceExhaustedError(RuntimeError):
    """Krylov subspace spans the whole space with too few converged pairs."""


class MaxIterationsError(RuntimeError):
    """Iteration cap reached before convergence.

    Carries the best available estimates in ``result`` when the caller
    provides them.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class ClusteredEigenvaluesError(RuntimeError):
    """Consecutive eigenvalues too close for a well-posed sensitivity."""


class SurrogateOutOfRangeError(RuntimeError):
    """Reduced model evaluated too far from its expansion point."""


class ModelConsistencyError(RuntimeError):
    """Reduced model disagrees with the full objective at its expansion point."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""

    def __init__(self, message, section=None, field=None):
        where = ""
        if section is not None and field is not None:
            where = "[%s] %s: " % (section, field)
        elif section is not None:
            where = "[%s]: " % section
        super().__init__(where + message)
        self.section = section
        self.field = field
