"""Exception types shared across the package.

Bad input and numerical failure are kept apart so the CLI can map them to
exit codes.  Bad input is a ``ValueError`` (exit 2): ``BadRangeError`` and
``ShapeMismatchError`` derive from it as well as from ``AltismoothError``.
Every other ``AltismoothError`` is a numerical failure (exit 3): overflow,
indefinite matrices, zero-energy blocks, diverging fits.
"""


class AltismoothError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteError(AltismoothError):
    """A computation produced NaN or infinity (pathological inputs)."""


class ShapeMismatchError(AltismoothError, ValueError):
    """Two blocks or series that must agree in shape do not."""


class DegenerateInputError(AltismoothError):
    """Input carries no information for the requested quantity (e.g. zero energy)."""


class NotPositiveDefiniteError(AltismoothError):
    """Correlation matrix failed its positive-definiteness check."""


class BadRangeError(AltismoothError, ValueError):
    """Requested parameter ranges violate physical invariants."""


class DivergedError(AltismoothError):
    """Iterative fit failed to make progress from every tried start."""
