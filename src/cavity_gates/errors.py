"""Exception and warning types shared across the package."""


class CavityGateError(Exception):
    """Base class for all package-specific errors."""


class NonFinite(CavityGateError):
    """A matrix or vector contains NaN or Inf entries."""


class ConvergenceFailure(CavityGateError):
    """No propagation path converged: the Taylor fallback of `linalg.propagate`
    did not truncate, or `lindblad.propagate_exact`, which has no fallback,
    met an eigenbasis that `linalg.eigenbasis` does not trust (condition
    number at or past its one limit, near an exceptional point)."""


class DivergentDenominator(CavityGateError):
    """Reflection-amplitude denominator vanished (unphysical coincidence)."""


class QuadratureNotConverged(CavityGateError):
    """The scattering frequency quadrature, which a row takes only when its
    reflection poles cannot be trusted (near an exceptional point of a
    cavity-emitter generator), changed by more than 1e-10 from its 32- to
    its 64-node rule."""


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
