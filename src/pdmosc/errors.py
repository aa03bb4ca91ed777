"""Exception types raised by the numerical kernel and the closed forms."""


class PdmoscError(Exception):
    """Base class for all package-specific errors."""


class NonConvergence(PdmoscError):
    """An adaptive routine exhausted its evaluation budget before meeting tolerance."""


class NonDecaying(PdmoscError):
    """A semi-infinite integrand does not decay along the sampled tail."""


class SingularLimit(PdmoscError):
    """A closed form was evaluated too close to its b -> 0 singularity."""

    #: the points at fault: all of them, or on an alpha curve one bool per alpha
    singular = True
