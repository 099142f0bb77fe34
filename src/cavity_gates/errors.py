"""Exception and warning types shared across the package."""


class CavityGateError(Exception):
    """Base class for all package-specific errors."""


class NonFinite(CavityGateError):
    """An evaluation that leaves the double range on a row (an overflow, a
    generator past it, a gate time that underflows to 0), which refuses
    that row alone: see `params.GateResults`. A linear system
    (`linalg.solve`) raises nothing: its NaN, Inf or singular row is NaN,
    and refused as such."""


class ConvergenceFailure(CavityGateError):
    """No numeric path converged. Only the Raman Lindblad closure, which has
    no fallback, refuses rows with it: each row whose sector eigenbasis
    `linalg.eigenbasis` does not trust (condition number at or past the one
    trust limit of `linalg`, near an exceptional point), see
    `params.GateResults`. Poles that `linalg.resolvent_poles` does not
    trust raise nothing: `return_amplitudes` sends those rows to its Taylor
    fallback (on the numeric paths of both exchange gates and the simple
    exchange's Lindblad check) and the scattering pole sum to its matrix
    function."""


class DivergentDenominator(CavityGateError):
    """A reflection-amplitude denominator of `scattering.spin_amplitudes`
    is exactly 0: the caller's omega is at a pole of an amplitude (omega =
    -i kappa/2 for s_dd, say). It raises for the whole call. The pole sum
    evaluates the amplitudes at mirrored poles, in the closed upper half
    plane, and the matrix-function fallback's rows at a placeholder pole +i,
    where no denominator vanishes: a valid config raises nothing unless
    kappa/2 underflows to 0."""


class ZeroDecoherence(CavityGateError):
    """An optimum that scales with 1/Gamma diverges at Gamma = 0."""


class ConfigError(CavityGateError):
    """A run configuration failed to parse or validate."""


class ValidityWarning(UserWarning):
    """Inputs are outside the stated validity domain of an approximation."""
