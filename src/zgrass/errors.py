"""Exception types shared across the package.

Everything raised on purpose derives from ZgrassError, so callers can
distinguish "the math said no" from a genuine bug.
"""


class ZgrassError(Exception):
    """Base class for all deliberate failures."""


class ZeroInput(ZgrassError):
    """An operation that needs a nonzero series or vector got zero."""


class InsufficientPrecision(ZgrassError):
    """A coefficient beyond the known truncation range was requested."""


class DependentGenerators(ZgrassError):
    """Generators handed to a frame constructor were linearly dependent."""


class WindowTooSmall(ZgrassError):
    """The exponent window cannot certify the requested computation."""


class IndexMismatch(ZgrassError):
    """A charge/index bookkeeping identity failed."""


class NotSigmaInvariant(ZgrassError):
    """A subspace expected to be stable under the involution is not."""


class NotAlternating(ZgrassError):
    """A matrix handed to the pfaffian is not alternating."""


class OddParity(ZgrassError):
    """An operation defined on the even component met a parity-1 point."""


class NonzeroIndex(ZgrassError):
    """An operation requiring index zero met a point of nonzero index."""


class NotRingPoint(ZgrassError):
    """The subspace is not closed under multiplication."""


class NotClosed(ZgrassError):
    """A span closure failed to stabilize inside the window."""


class NotInvolution(ZgrassError):
    """An involution's image s fails s(s(z)) = z on its sound range."""


class NotNormalizable(ZgrassError):
    """No coordinate change brings the involution to the sign flip."""


class UnsoundTruncation(ZgrassError):
    """A constraint evaluation would need tau coefficients beyond the truncation."""


class ParseError(ZgrassError):
    """Malformed textual input (series, rationals, point files)."""
