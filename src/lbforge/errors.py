"""Exception hierarchy shared across the package."""


class LbforgeError(Exception):
    """Base class for all errors raised by lbforge."""


class InvalidRankError(LbforgeError):
    pass


class InvalidParameterError(LbforgeError):
    pass


class PoleAtZeroError(LbforgeError):
    pass


class DegenerateSubstitutionError(LbforgeError):
    pass


class ShapeMismatchError(LbforgeError):
    pass


class KindMismatchError(LbforgeError):
    pass


class NotPolynomialError(LbforgeError):
    pass


class NotTransversalError(LbforgeError):
    pass


class MalformedInputError(LbforgeError):
    pass
