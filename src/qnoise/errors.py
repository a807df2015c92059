"""Exception types shared across the package."""


class NotPositiveDefiniteError(ValueError):
    """A correlation sequence induced a covariance with a negative eigenvalue."""


class NonFiniteError(ValueError):
    """An input is NaN or infinite, or a density so large that its square is."""


class NotInvertibleError(ValueError):
    """The covariance is singular, so the modular filter does not exist."""


class EmptySupportError(ValueError):
    """An operation over the thermal support was requested, but it is empty."""


class NotVacuumError(ValueError):
    """The casewise canonical assembly requires disjoint spectral supports."""


class DegenerateRecoveryError(ValueError):
    """Recovery of the canonical pair fails where a spectral amplitude equals
    its time reverse (the classical direction cannot be inverted)."""
