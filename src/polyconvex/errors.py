"""Exception types shared across the package."""


class TooFewVertices(ValueError):
    """The operation needs more vertices than the polygon has."""


class NotQuasiStrictInput(ValueError):
    """The generator needs a seed triangle whose vertices are not collinear."""


class ExhaustedEpsilonBudget(RuntimeError):
    """No admissible arc parameter found within the counting bound.

    The bound guarantees an admissible value exists, so reaching this is an
    implementation bug, never a legitimate outcome.
    """


class InvalidConditionId(ValueError):
    """Condition identifier outside omega in {1,2,3}, i in [2, n-2]."""
