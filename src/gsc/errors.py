"""Exception taxonomy shared across the library."""


class GscError(Exception):
    """Base class for all library errors."""


class BadPosition(GscError):
    """An insertion index is outside the valid 1-based range."""


class ShapeMismatch(GscError):
    """Operands have incompatible grid or triangle shapes."""


class DegreeMismatch(GscError):
    """A multidegree has the wrong number of letters or the wrong sum."""


class NotTwoAlternating(GscError):
    """A functional fails to annihilate a relation row.

    The offending row is attached as ``self.row`` (a tuple of
    (monomial, coefficient) pairs).
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class ResourceLimit(GscError):
    """A configured memory/size budget was exceeded.

    Signals the caller to switch field or method rather than grind on.
    """
