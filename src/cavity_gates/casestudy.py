"""Three-scheme comparison for a narrow-linewidth rare-earth emitter.

Default parameters describe ytterbium-171 in yttrium orthovanadate:
excited-state decay 2*pi*596 rad/s, spin coherence time 6.6 ms, optical
pure dephasing 9e3 1/s, a 0.2 GHz splitting to the nearest spectator
transition, and a cavity at cooperativity 50 000 with g/kappa = 0.1.
"""
from __future__ import annotations

import math
import warnings

from .errors import ValidityWarning
from .exchange import ExchangeConfig, max_fidelity_exchange, optimal_detuning
from .params import CavitySystem, DecoherenceSpec, Scheme
from .raman import max_fidelity_raman, optimal_two_photon, symmetric_raman_config
from .scattering import PhotonPulse, ScatteringConfig, fidelity_analytic

DEFAULTS = dict(
    cooperativity=50_000.0,
    g_over_kappa=0.1,
    gamma=2.0 * math.pi * 596.0,          # rad/s
    qubit_t2=6.6e-3,                      # s
    optical_pure_dephasing=9.0e3,         # 1/s
    splitting_eg=2.0 * math.pi * 0.2e9,   # rad/s
    delta_p_over_gamma=30.0,
    scattering_gate_time_gamma=1.0,       # units of 1/gamma
    rabi_over_detuning=0.1,
    laser_detuning_over_kappa=2.0,
)


#: the notes of a reported result that it warns of, and what each says
_FLAGGED = {"outside validity domain": "outside its closed form's validity domain",
            "clamped": "clamped into [0, 1]"}


def run_case_study(**overrides) -> dict:
    """Maximum fidelity and gate time of each scheme, analytic path.

    Returns a JSON-ready dict; gate times are in seconds. A reported result
    that carries the note "outside validity domain" or "clamped" (a
    closed-form 0.0, say) emits a ValidityWarning naming its scheme.
    """
    p = dict(DEFAULTS)
    unknown = set(overrides) - set(p)
    if unknown:
        raise ValueError(f"unknown case-study parameters: {sorted(unknown)}")
    p.update(overrides)

    cavity = CavitySystem.from_cooperativity(p["cooperativity"], p["g_over_kappa"], p["gamma"])
    decoherence = DecoherenceSpec(qubit_t2=p["qubit_t2"],
                                  optical_pure_dephasing=p["optical_pure_dephasing"])

    pulse = PhotonPulse.from_gate_time(p["scattering_gate_time_gamma"] / cavity.gamma,
                                       delta_p=p["delta_p_over_gamma"] * cavity.gamma)
    results = {
        "scattering": fidelity_analytic(ScatteringConfig(
            cavity, pulse, gamma_eff=decoherence.effective_rate(Scheme.SCATTERING))).single(),
        "simple_exchange": max_fidelity_exchange(ExchangeConfig(
            cavity, detuning=optimal_detuning(cavity.kappa, cavity.cooperativity),
            splitting_eg=p["splitting_eg"],
            gamma_eff=decoherence.effective_rate(Scheme.SIMPLE_EXCHANGE))),
        "raman": max_fidelity_raman(symmetric_raman_config(
            cavity, two_photon=optimal_two_photon(cavity.kappa, cavity.cooperativity),
            laser_detuning=p["laser_detuning_over_kappa"] * cavity.kappa,
            rabi_over_detuning=p["rabi_over_detuning"],
            gamma_eff=decoherence.effective_rate(Scheme.RAMAN))),
    }
    for scheme, result in results.items():
        for note in result.notes:
            if note in _FLAGGED:
                warnings.warn(f"{scheme}: the reported fidelity {result.fidelity:.6g} is "
                              f"{_FLAGGED[note]}", ValidityWarning, stacklevel=2)
    return {"schema_version": 1, "parameters": p, **{
        scheme: {"fidelity": result.fidelity, "gate_time_s": result.gate_time,
                 "method": result.method.value} for scheme, result in results.items()}}
