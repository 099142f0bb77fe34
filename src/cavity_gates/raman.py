"""Raman-assisted virtual-photon-exchange controlled phase-flip gate.

Each emitter is driven on its spin-up to excited transition while the cavity
vacuum couples the spin-down branch, forming a two-photon (Raman) resonance
between the drives and the cavity. With one qubit shelved in a metastable
ground state, a full Raman cycle imprints a pi phase on |ud> alone. The
scheme tolerates unequal optical transition frequencies: only the laser
detuning difference relative to its mean enters the fidelity.

Sector bases: the |ud> dynamics acts on (ud 0, e-down 0, dd 1, down-e 0,
du 0) and the shelved |uu> dynamics on (u s 0, e s 0, d s 1); the lossy
variants put kappa on one-photon states and gamma on excited states.

The numeric path is the one in `exchange`, fed by RamanConfig.sectors() and
RamanConfig.gate_time; the Raman numeric names here are its aliases.
Numeric fields of RamanConfig may be numpy arrays that broadcast together
(the cavity stays scalar); the *_batch evaluators then evaluate every row at
once and return GateResults of the broadcast shape, and the scalar
evaluators are their one-configuration calls.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidityWarning, ZeroDecoherence
from .exchange import (build_hamiltonians, cooperativity_limited_max_exchange,
                       fidelity_numeric_exchange, fidelity_numeric_exchange_batch,
                       optimal_detuning, relative_phase_fidelity, ridge_f_pi)
from .params import (CavitySystem, GateResult, GateResults, Method, any_row, broadcast_shape,
                     gate_results)


def matched_rabi_b(rabi_a, g_a, g_b, laser_detuning_a, laser_detuning_b, two_photon):
    """Drive amplitude of system B that balances the two dressed ground-state
    shifts, keeping the two-photon process resonant:

    Omega_B = Omega_A. sqrt((g_B^2 + delta*Delta_B)/(g_A^2 + delta*Delta_A)),

    which tends to Omega_A * sqrt(Delta_B/Delta_A) for g^2 << delta*Delta.
    This is the relation that numerically maximizes the phase fidelity
    (each system's light shift Omega_k^2/Delta_k must match).
    """
    num = g_b**2 + two_photon * laser_detuning_b
    den = g_a**2 + two_photon * laser_detuning_a
    if any_row(den <= 0) or any_row(num <= 0):
        raise ValueError("g^2 + delta*Delta must be > 0 for both systems")
    return rabi_a * np.sqrt(num / den)


def matched_rabi_b_approx(rabi_a, laser_detuning_a, laser_detuning_b):
    """Large-detuning limit of matched_rabi_b: Omega_A * sqrt(Delta_B/Delta_A)."""
    return rabi_a * math.sqrt(laser_detuning_b / laser_detuning_a)


@dataclass(frozen=True)
class RamanConfig:
    """Raman-gate inputs; rabi_b defaults to the matched value.

    laser_detuning_a/b are the detunings of each drive from its optical
    transition; two_photon_a/b the two-photon detunings against the cavity.
    """

    cavity: CavitySystem
    laser_detuning_a: float
    laser_detuning_b: float
    two_photon_a: float
    two_photon_b: float
    rabi_a: float
    rabi_b: float | None = None
    g_a: float | None = None
    g_b: float | None = None
    gamma_eff: float = 0.0

    def __post_init__(self):
        if any_row(self.two_photon <= 0):
            raise ValueError("mean two-photon detuning must be > 0")
        if any_row(self.rabi_a < 0):
            raise ValueError("rabi_a must be >= 0")
        if any_row(self.gamma_eff < 0):
            raise ValueError("gamma_eff must be >= 0")
        if any_row(self.laser_detuning_a <= 0) or any_row(self.laser_detuning_b <= 0):
            raise ValueError("laser detunings must be > 0")
        if any_row(self.rabi_a / self.laser_detuning_a > 0.5):
            warnings.warn("drive is not weak against its detuning (Omega/Delta > 0.5); "
                          "adiabatic elimination is unreliable", ValidityWarning, stacklevel=2)

    @property
    def coupling_a(self) -> float:
        return self.cavity.g if self.g_a is None else self.g_a

    @property
    def coupling_b(self) -> float:
        return self.coupling_a if self.g_b is None else self.g_b

    @property
    def drive_b(self) -> float:
        if self.rabi_b is not None:
            return self.rabi_b
        return matched_rabi_b(self.rabi_a, self.coupling_a, self.coupling_b,
                              self.laser_detuning_a, self.laser_detuning_b,
                              self.two_photon)

    @property
    def laser_detuning(self) -> float:
        return 0.5 * (self.laser_detuning_a + self.laser_detuning_b)

    @property
    def laser_detuning_error(self) -> float:
        return abs(self.laser_detuning_a - self.laser_detuning_b)

    @property
    def two_photon(self) -> float:
        return 0.5 * (self.two_photon_a + self.two_photon_b)

    @property
    def two_photon_error(self) -> float:
        return abs(self.two_photon_a - self.two_photon_b)

    @property
    def gate_time(self):
        """Drive duration for a pi phase (raman_gate_time)."""
        return raman_gate_time(self)

    def sectors(self):
        """(builder of the stacked (H_eff_ud, H_eff_uu), its parameters)."""
        cav = self.cavity
        params = (self.two_photon_a, self.two_photon_b, self.rabi_a, self.drive_b,
                  self.coupling_a, self.coupling_b, self.laser_detuning_a,
                  self.laser_detuning_b)
        return functools.partial(_lossy_sectors, kappa=cav.kappa, gamma=cav.gamma), params


def symmetric_raman_config(cavity, two_photon, laser_detuning, rabi_over_detuning,
                           gamma_eff=0.0) -> RamanConfig:
    """Convenience constructor for identical systems at exact two-photon resonance."""
    return RamanConfig(
        cavity=cavity,
        laser_detuning_a=laser_detuning,
        laser_detuning_b=laser_detuning,
        two_photon_a=two_photon,
        two_photon_b=two_photon,
        rabi_a=rabi_over_detuning * laser_detuning,
        gamma_eff=gamma_eff,
    )


def _lossy_sectors(d_a, d_b, om_a, om_b, g_a, g_b, det_a, det_b, kappa, gamma):
    """(H_eff_ud, H_eff_uu) stacked over the broadcast shape of the parameters, in
    the frame rotating with the drives and the shifted cavity: time independent
    at the cost of the (delta_b - delta_a) offsets on the B-excitation states."""
    shape = broadcast_shape(d_a, d_b, om_a, om_b, g_a, g_b, det_a, det_b)
    h = np.zeros(shape + (5, 5), dtype=complex)
    h[..., 0, 1] = h[..., 1, 0] = om_a
    h[..., 1, 1] = det_a - 0.5j * gamma
    h[..., 1, 2] = h[..., 2, 1] = g_a
    h[..., 2, 2] = -d_a - 0.5j * kappa
    h[..., 2, 3] = h[..., 3, 2] = g_b
    h[..., 3, 3] = det_b + (d_b - d_a) - 0.5j * gamma
    h[..., 3, 4] = h[..., 4, 3] = om_b
    h[..., 4, 4] = d_b - d_a
    # the shelved sector is the (u s 0, e s 0, d s 1) corner of the |ud> block
    return h, h[..., :3, :3].copy()


#: the Raman gate's numeric path is the exchange one, on a RamanConfig
build_raman_hamiltonians = build_hamiltonians
relative_phase_fidelity_raman = relative_phase_fidelity
fidelity_numeric_raman_batch = fidelity_numeric_exchange_batch
fidelity_numeric_raman = fidelity_numeric_exchange


def raman_gate_time(config: RamanConfig) -> float:
    """Drive duration for a pi phase on |ud>:

    T = pi (g_A^2 Delta_A + g_B^2 Delta_B + delta Delta_A Delta_B)
          / (g_A g_B Omega_A Omega_B).
    """
    g_a, g_b = config.coupling_a, config.coupling_b
    om_a, om_b = config.rabi_a, config.drive_b
    if any_row((g_a <= 0) | (g_b <= 0) | (om_a <= 0) | (om_b <= 0)):
        raise ValueError("couplings and drives must be > 0 for a finite gate time")
    d = config.two_photon
    da, db = config.laser_detuning_a, config.laser_detuning_b
    return math.pi * (g_a**2 * da + g_b**2 * db + d * da * db) / (g_a * g_b * om_a * om_b)


def optimal_gate_time_raman(gamma, cooperativity, detuning_over_rabi) -> float:
    """Gate time on the optimal ridge: T_o = (Delta/Omega)^2 * 2 pi/(gamma sqrt(C))."""
    return detuning_over_rabi**2 * 2.0 * math.pi / (gamma * math.sqrt(cooperativity))


#: two-photon detuning of maximum fidelity, 2 delta = kappa sqrt(C)
optimal_two_photon = optimal_detuning


def fidelity_analytic_raman_batch(config: RamanConfig, gate_time=None) -> GateResults:
    """Adiabatic closed form including the drive-induced corrections:

    F = (1/2) ( cos^2(pi Omega/(4 Delta)) cos^2(pi Omega^2/(2 delta Delta))
                sin((pi/2)/(1 + g^2/(delta Delta))) F_pi + 1 ) - Gamma*T,

    with F_pi the ideal ridge form evaluated at the two-photon detuning, for
    every row of an array-valued config. Residual two-photon or
    laser-detuning errors are not modeled; rows that have them carry the
    note "detuning errors not modeled".
    """
    cav = config.cavity
    d = config.two_photon
    big_d = config.laser_detuning
    omega = np.sqrt(config.rabi_a * config.drive_b)
    g2 = config.coupling_a * config.coupling_b
    if any_row((g2 / (d * big_d) > 0.5) | ((big_d > 0) & (omega / big_d > 0.5))):
        warnings.warn("inputs are at the edge of the adiabatic regime "
                      "(cavity Rabi or drive Rabi limit)", ValidityWarning, stacklevel=2)
    gate_time = config.gate_time if gate_time is None else gate_time
    f_pi = ridge_f_pi(d, cav.kappa, cav.cooperativity)
    prefactor = (
        np.cos(np.pi * omega / (4.0 * big_d)) ** 2
        * np.cos(np.pi * omega**2 / (2.0 * d * big_d)) ** 2
        * np.sin((np.pi / 2.0) / (1.0 + g2 / (d * big_d)))
    )
    f_gate = 0.5 * (prefactor * f_pi + 1.0) - config.gamma_eff * gate_time
    unmodeled = (config.two_photon_error > 0) | (config.laser_detuning_error > 0)
    return gate_results(f_gate, gate_time, Method.ANALYTIC,
                        {"detuning errors not modeled": unmodeled})


def fidelity_analytic_raman(config: RamanConfig, gate_time=None) -> GateResult:
    """One-configuration call of fidelity_analytic_raman_batch."""
    return fidelity_analytic_raman_batch(config, gate_time).single()


def max_fidelity_raman(config: RamanConfig) -> GateResult:
    """Expanded maximum fidelity at the ridge 2 delta = kappa sqrt(C):

    F_max = 1 - pi/sqrt(C)
              - (pi^2/16) [ (T_o delta_eps/(2 pi))^2 + (Delta_eps/Delta)^2 - 18/C ]
              - Gamma T_o,   T_o = (Delta/Omega)^2 * 2 pi/(gamma sqrt(C)).

    The config's two-photon detunings fix only the error delta_eps; the mean
    is assumed optimal.
    """
    cav = config.cavity
    c = cav.cooperativity
    if c < 10:
        warnings.warn("expansion assumes C >> 1", ValidityWarning, stacklevel=2)
    omega = math.sqrt(config.rabi_a * config.drive_b)
    t_o = optimal_gate_time_raman(cav.gamma, c, config.laser_detuning / omega)
    f_gate = (
        1.0
        - math.pi / math.sqrt(c)
        - (math.pi**2 / 16.0) * (
            (t_o * config.two_photon_error / (2.0 * math.pi)) ** 2
            + (config.laser_detuning_error / config.laser_detuning) ** 2
            - 18.0 / c)
        - config.gamma_eff * t_o
    )
    # the expansion overshoots at small C; cap it by the unexpanded ceiling
    f_gate = min(f_gate, cooperativity_limited_max_exchange(c))
    return gate_results(f_gate, t_o, Method.ANALYTIC).single()


class SpectralSeparationPoint(NamedTuple):
    separation: float          # largest laser-detuning difference Delta_eps
    rabi_over_detuning: float  # Omega/Delta at that point
    laser_detuning: float      # mean Delta
    gate_time: float


def max_spectral_separation(kappa, gamma, gamma_eff, cooperativity) -> SpectralSeparationPoint:
    """Largest optical-transition separation keeping the infidelity within
    twice the cooperativity limit.

    Delta_eps = kappa*gamma/(pi*Gamma*sqrt(8)), with Omega/Delta = 2 sqrt(Gamma/gamma),
    2 Delta = Delta_eps sqrt(pi sqrt(C)) and T = pi/(2 Gamma sqrt(C)).
    """
    if gamma_eff <= 0:
        raise ZeroDecoherence("spectral-separation optimum diverges for gamma_eff = 0")
    separation = kappa * gamma / (math.pi * gamma_eff * math.sqrt(8.0))
    rabi_over_detuning = 2.0 * math.sqrt(gamma_eff / gamma)
    laser_detuning = 0.5 * separation * math.sqrt(math.pi * math.sqrt(cooperativity))
    gate_time = math.pi / (2.0 * gamma_eff * math.sqrt(cooperativity))
    return SpectralSeparationPoint(separation, rabi_over_detuning, laser_detuning, gate_time)
