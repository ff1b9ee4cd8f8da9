"""Exception hierarchy shared across the package.

Config problems map to CLI exit code 2, numerical failures to exit code 3.
"""


class ScorefimError(Exception):
    """Base class for all package errors."""


class ConfigError(ScorefimError):
    """Malformed or inconsistent configuration input."""

    exit_code = 2


class NumericalError(ScorefimError):
    """Numerical failure during estimation."""

    exit_code = 3


class DimensionMismatch(ConfigError):
    pass


class DomainViolation(ConfigError):
    """A parameter component left its admissible domain.

    ``component`` names the offending coordinate when known.
    """

    def __init__(self, message, component=None):
        super().__init__(message)
        self.component = component


class AsymmetricInput(ConfigError):
    pass


class ProviderFailure(NumericalError):
    """A model's conditional expectation of the score is non-finite."""


class SingularFim(NumericalError):
    """Information matrix numerically singular; carries its eigenvalues."""

    def __init__(self, message, eigenvalues=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues


class MStepFailure(NumericalError):
    """The closed-form maximizer received infeasible statistics."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats

