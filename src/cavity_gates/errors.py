"""Exception and warning types shared across the package."""


class CavityGateError(Exception):
    """Base class for all package-specific errors."""


class NonFinite(CavityGateError):
    """A matrix or vector contains NaN or Inf entries."""


class ConvergenceFailure(CavityGateError):
    """No propagation path converged, or the exact Lindblad closure's eigenbasis
    is too ill-conditioned (near an exceptional point) to be trusted."""


class DivergentDenominator(CavityGateError):
    """Reflection-amplitude denominator vanished (unphysical coincidence)."""


class QuadratureNotConverged(CavityGateError):
    """Doubling the frequency-quadrature density changed the result too much."""


class ZeroDecoherence(CavityGateError):
    """An optimum that scales with 1/Gamma diverges at Gamma = 0."""


class DegenerateBranch(CavityGateError):
    """Failure branch is undefined because the jump probability is ~ 0."""


class ConfigError(CavityGateError):
    """A run configuration failed to parse or validate."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class ValidityWarning(UserWarning):
    """Inputs are outside the stated validity domain of an approximation."""
