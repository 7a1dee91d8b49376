"""Exception types raised across the package."""


class QuarteigError(Exception):
    """Base class for all solver errors."""


class SingularShiftError(QuarteigError):
    """Shifted system lambda*A + B is numerically singular."""


class GevpError(QuarteigError):
    """Generalized eigensolver backend failure."""

    def __init__(self, message, failing_index=None):
        super().__init__(message)
        self.failing_index = failing_index


class DeflationError(QuarteigError):
    """Deflation could not complete consistently."""


class DegenerateVectorError(QuarteigError):
    """Recovered eigenvector block is numerically negligible."""


class BundleError(QuarteigError):
    """Base class for problem-bundle I/O failures."""


class MissingCoefficientError(BundleError):
    def __init__(self, name, path):
        super().__init__(f"coefficient file for {name} not found: {path}")
        self.name = name
        self.path = path


class MalformedMatrixError(BundleError):
    def __init__(self, name, path, reason):
        super().__init__(f"failed to parse {name} from {path}: {reason}")
        self.name = name
        self.path = path


class DimensionMismatchError(BundleError):
    def __init__(self, shapes):
        super().__init__(
            f"coefficient matrices must be square, equally sized and at least 1x1: {shapes}"
        )
        self.shapes = shapes
