"""Cavity-mediated controlled phase-flip gates: fidelity and gate-time analysis.

Three schemes share one cavity-emitter parameterization: photon scattering
off a single-sided cavity, simple virtual photon exchange, and
Raman-assisted virtual photon exchange. Each scheme offers a closed-form
fidelity and an independent numerical path (amplitude integration or
non-Hermitian propagation), plus a batched Lindblad check of the exchange
schemes.
"""

__version__ = "0.1.0"

from .errors import (
    CavityGateError,
    ConfigError,
    ConvergenceFailure,
    DivergentDenominator,
    NonFinite,
    ValidityWarning,
    ZeroDecoherence,
)
from .params import CavitySystem, DecoherenceSpec, GateResult, GateResults, Method, Scheme
from .scattering import (
    PhotonPulse,
    ScatteringConfig,
    cooperativity_limited_max,
    fidelity_analytic,
    fidelity_analytic_batch,
    fidelity_numeric,
    fidelity_numeric_batch,
    optimal_gate_time,
    reduced_density_matrix,
    spin_amplitudes,
)
from .exchange import (
    ExchangeConfig,
    ExchangeMode,
    exchange_gate_time,
    f_pi_closed_form,
    fidelity_analytic_exchange,
    fidelity_analytic_exchange_batch,
    fidelity_numeric_exchange,
    fidelity_numeric_exchange_batch,
    max_fidelity_exchange,
    optimal_detuning,
    optimal_gate_time_exchange,
    ridge_f_pi,
)
from .raman import (
    RamanConfig,
    fidelity_analytic_raman,
    fidelity_analytic_raman_batch,
    fidelity_numeric_raman,
    fidelity_numeric_raman_batch,
    matched_rabi_b,
    max_fidelity_raman,
    max_spectral_separation,
    optimal_gate_time_raman,
    optimal_two_photon,
    raman_gate_time,
    symmetric_raman_config,
)
from .lindblad import gate_fidelity_lindblad, gate_fidelity_lindblad_batch
from .sweep import (
    Axis,
    cooperativity_scaling,
    golden_section_max,
)
from . import linalg
