"""Exception types shared across the package."""


class KarcherError(Exception):
    """Base class for all domain errors raised by this package."""


class BasePointError(KarcherError):
    """Tangent vectors attached to different (or wrong) base points."""


class GeodesicError(KarcherError):
    """Geodesic construction failed: cut locus, excessive length, ODE or
    shooting failure."""


class JacobiError(KarcherError):
    """Jacobi boundary-value problem is ill-posed or its solve failed."""


class NonRealizableError(KarcherError):
    """Edge-length system does not embed as a Euclidean simplex, or a
    generated simplex realizes too thin to measure."""


class MeanSolverError(KarcherError):
    """Center-of-mass iteration failed to converge or left its ball.

    ``index`` is the failing row of a batched solve, so callers can name
    the chart it belongs to; it is None for a single chart.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class SlopeFitError(KarcherError):
    """A convergence-order fit on a curved manifold came back non-finite
    or not positive: the measured distortion does not shrink along the
    ladder, so the slope says nothing about its order."""


class TriangulationError(KarcherError):
    """Mesh construction violated a quality or consistency requirement."""


class LinearSolverError(KarcherError):
    """A linear system solve did not reach its residual target."""


class ConfigError(KarcherError):
    """Experiment configuration is malformed.

    ``field`` names the offending entry so batch drivers can report it.
    """

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
