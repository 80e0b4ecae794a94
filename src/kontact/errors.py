"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for geometric contract violations."""


class BasePointMismatchError(GeometryError):
    """Tangent vectors combined at different base points."""


class TangencyError(GeometryError):
    """A vector failed the tangency requirement at its base point."""


class RegularityError(GeometryError):
    """Operation attempted too close to the critical set of a field."""


class DegenerateInputError(GeometryError):
    """Seed vectors for a frame construction are rank deficient."""


class SamplingExhaustedError(GeometryError):
    """An exclusion predicate rejected nearly all sampled points."""


class ConstructionError(GeometryError):
    """No sign convention makes the requested structure consistent."""


class UnsupportedDimensionError(GeometryError):
    """The requested check is only defined in specific dimensions."""


class PreconditionError(GeometryError):
    """A checker's structural precondition does not hold."""

