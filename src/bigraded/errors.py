"""Exceptions shared across the package."""


class BigradedError(Exception):
    """Base class for package-specific errors."""


class InvalidField(BigradedError):
    """Field spec is neither the rationals nor an odd prime below 2^63."""


class InvalidSpace(BigradedError, ValueError):
    """A block dimension m or n is below -1 or above ring.MAX_BLOCK."""


class EmptyRing(BigradedError):
    """Both variable blocks are empty (m = n = -1): the ring has no variables."""


class NotBihomogeneous(BigradedError):
    """A polynomial or module element mixes bidegrees."""


class ZeroPolynomial(BigradedError):
    """The bidegree of zero was requested."""


class InvalidRegion(BigradedError):
    """Region kind/index combination outside its domain of definition."""


class NeedsWindow(BigradedError):
    """Enumerating an infinite region requires an explicit window."""


class NoStabilization(BigradedError):
    """Transition maps between Ext levels did not certify within nu_max."""


class InvalidPower(BigradedError, ValueError):
    """A power nu or bound nu_max of the Ext limit below 1."""


class InvalidIndex(BigradedError):
    """Cohomological index outside the supported range."""


class InputError(BigradedError):
    """Malformed input document."""


class ZeroModule(BigradedError, ValueError):
    """The zero module has no regularity frontier."""
