"""Exception types shared across the package.

Every structured failure mode gets its own class so callers (and the CLI)
can report which contract was violated instead of surfacing a bare
ValueError from deep inside a series evaluation.
"""


class UltradiffError(Exception):
    """Base class for all package-specific errors."""


class GammaOutOfRange(UltradiffError):
    """The norm exponent gamma is outside the admissible range."""


class NonPositiveRate(UltradiffError):
    """The exponential decay rate must be strictly positive."""


class SeriesDiverged(UltradiffError):
    """A truncated series failed to meet its tail bound; parameters are suspect."""


class ZeroPoint(UltradiffError):
    """The radial heat-kernel density is only defined away from the origin."""


class NonPositiveS(UltradiffError):
    """Laplace-transform evaluations require s > 0."""


class ConfigError(UltradiffError):
    """A run configuration failed validation; message names the offending field."""
