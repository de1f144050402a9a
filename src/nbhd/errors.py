"""Exception types shared across the package."""


class DimensionError(ValueError):
    """An offset or coordinate has the wrong number of components."""


class DomainError(ValueError):
    """A parameter lies outside the range an operation is defined for."""


class CapacityError(RuntimeError):
    """A count, enumeration or scan would exceed its configured size cap."""


class BoundsError(ValueError):
    """A grid coordinate lies outside the grid."""


class ParseError(ValueError):
    """A textual input (offset, rule, pattern, or b-file) is malformed."""
