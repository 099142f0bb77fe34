"""Cavity-mediated controlled phase-flip gates: fidelity and gate-time analysis.

Three schemes share one cavity-emitter parameterization: photon scattering
off a single-sided cavity, simple virtual photon exchange, and
Raman-assisted virtual photon exchange. Each scheme offers a closed-form
fidelity and an independent numerical path (amplitude integration or
non-Hermitian propagation), plus a Lindblad check of the exchange schemes.
Each (scheme, method) has one evaluator, which takes a config whose fields
may be arrays and returns GateResults of their broadcast shape.
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
    fidelity_numeric,
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
    fidelity_numeric_exchange,
    max_fidelity_exchange,
    optimal_detuning,
    optimal_gate_time_exchange,
    ridge_f_pi,
)
from .raman import (
    RamanConfig,
    fidelity_analytic_raman,
    fidelity_numeric_raman,
    matched_rabi_b,
    max_fidelity_raman,
    max_spectral_separation,
    optimal_gate_time_raman,
    optimal_two_photon,
    raman_gate_time,
    symmetric_raman_config,
)
from .lindblad import gate_fidelity_lindblad
from .sweep import (
    Axis,
    cooperativity_scaling,
    golden_section_max,
)
from . import linalg
