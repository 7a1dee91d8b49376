"""Exception types raised across the package."""


class QuarteigError(Exception):
    """Base class for all solver errors."""


class GevpError(QuarteigError):
    """Generalized eigensolver backend failure."""


class ScalingError(QuarteigError):
    """Coefficient norms out of parameter scaling's floating-point range."""


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
