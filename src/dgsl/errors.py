"""Exception types raised across the package."""


class DgslError(Exception):
    """Base class for all package-specific errors."""


class ParseError(DgslError):
    """Mesh content is malformed (bad line, index, count or coordinate)."""


class NonConformingMesh(DgslError):
    """An edge is shared by more than two triangles."""


class PerturbationFoldover(DgslError):
    """Vertex perturbation produced a non-positive triangle area."""


class DegenerateElement(DgslError):
    """Element mapping has non-positive Jacobian determinant."""


class NotConverged(DgslError):
    """Iterative solve exhausted its budget; carries the partial report."""

    def __init__(self, message, report=None, x=None):
        super().__init__(message)
        self.report = report
        self.x = x


class IndefiniteOperator(DgslError):
    """The operator is not positive definite: CG met a direction of
    non-positive curvature, or the sparse LU a negative or off-diagonal
    pivot."""


class SingularOperator(DgslError):
    """The sparse LU factorization met an exactly singular matrix."""


class NonFiniteValue(DgslError):
    """A problem callback returned NaN or inf at a quadrature point."""


class SignAssumptionViolated(DgslError):
    """N'(u_h) < 0 at a quadrature point, outside the assumption N' >= 0
    under which the discrete problem is proven well posed."""


class NewtonDiverged(DgslError):
    """Backtracking could not find a residual-decreasing step."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class InsufficientLevels(DgslError):
    """Observed-order computation needs at least two refinement levels."""


class ConfigError(DgslError, ValueError):
    """A configuration value breaks a parameter rule (unknown key, missing
    file, bad value). Each rule raises it where it lives; it is also a
    ValueError, as a bad constructor argument is."""


class UnsupportedDegree(ConfigError):
    """Requested polynomial or quadrature degree is outside the supported range."""
