"""Exception and warning types shared across the package."""


class CavityGateError(Exception):
    """Base class for all package-specific errors."""


class NonFinite(CavityGateError):
    """NaN or Inf in an input (a generator, a linear system), which raises
    for the whole batch, or an evaluation that leaves the double range on a
    row (an overflow, a gate time that underflows to 0), which refuses that
    row alone: see `params.GateResults`."""


class ConvergenceFailure(CavityGateError):
    """No numeric path converged. The Raman Lindblad closure, which has no
    fallback, refuses each row whose sector eigenbasis `linalg.eigenbasis`
    does not trust (condition number at or past the one trust limit of
    `linalg`, near an exceptional point) with it: see `params.GateResults`.
    `linalg.solve` raises it for the whole batch on a singular matrix (in
    the scattering matrix-function fallback, for one). Poles that
    `linalg.resolvent_poles` does not trust raise nothing:
    `return_amplitudes` sends those rows to its Taylor fallback (on the
    numeric paths of both exchange gates and the simple exchange's
    Lindblad check) and the scattering pole sum to its matrix function."""


class DivergentDenominator(CavityGateError):
    """A reflection-amplitude denominator of `scattering.spin_amplitudes`
    has a modulus below 1e-300; it raises for the whole call. The pole sum
    evaluates the amplitudes at the mirrored poles of its trusted rows,
    where s_dd's denominator at the cavity pole is kappa, so a trusted row
    with kappa below 1e-300 raises it for its batch. Rows bound for the
    matrix-function fallback are evaluated at a placeholder pole where no
    denominator vanishes, and raise nothing."""


class ZeroDecoherence(CavityGateError):
    """An optimum that scales with 1/Gamma diverges at Gamma = 0."""


class ConfigError(CavityGateError):
    """A run configuration failed to parse or validate."""


class ValidityWarning(UserWarning):
    """Inputs are outside the stated validity domain of an approximation."""
