"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Operands do not share the required dimensions."""


class NotPositiveDefiniteError(ValueError):
    """Factorization hit a nonpositive pivot.

    Attributes
    ----------
    pivot : int or None
        Index (in the original matrix ordering) of the offending pivot;
        None when the factorization does not say (an exactly singular
        matrix on the SuperLU kernel).
    """

    def __init__(self, pivot):
        self.pivot = None if pivot is None else int(pivot)
        super().__init__("matrix is not positive definite (nonpositive pivot at %s)" % (
            "an unknown index" if pivot is None else "index %d" % self.pivot))


class NumericalError(RuntimeError):
    """A numerical failure of the method (the CLI's exit code 3)."""


class SubspaceExhaustedError(NumericalError):
    """Krylov subspace spans the whole space with too few converged pairs."""


class MaxIterationsError(NumericalError):
    """Iteration cap reached before convergence."""


class ClusteredEigenvaluesError(NumericalError):
    """Consecutive eigenvalues too close for a well-posed sensitivity."""


class SurrogateOutOfRangeError(NumericalError):
    """Reduced model evaluated too far from its expansion point."""


class ModelConsistencyError(NumericalError):
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
