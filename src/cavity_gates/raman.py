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
RamanConfig.gate_time; `fidelity_numeric_raman` is its alias. Numeric fields
of RamanConfig, its cavity's included, may be numpy arrays that broadcast
together; each evaluator takes every row at once and returns GateResults of
the broadcast shape, and a one-configuration caller takes its GateResult
with `.single()`.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidityWarning, ZeroDecoherence
from .exchange import (expanded_max_fidelity, fidelity_numeric_exchange, optimal_detuning,
                       ridge_f_pi)
from .params import (CavitySystem, GateResult, GateResults, Method, all_rows, any_row,
                     broadcast_shape, check_rates, gate_results)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def matched_rabi_b(rabi_a, g_a, g_b, laser_detuning_a, laser_detuning_b, two_photon):
    """Drive amplitude of system B that balances the two dressed ground-state
    shifts, keeping the two-photon process resonant:

    Omega_B = Omega_A. sqrt((g_B^2 + delta*Delta_B)/(g_A^2 + delta*Delta_A)),

    which tends to Omega_A * sqrt(Delta_B/Delta_A) for g^2 << delta*Delta.
    This is the relation that numerically maximizes the phase fidelity
    (each system's light shift Omega_k^2/Delta_k must match).

    Both sums are > 0 in exact arithmetic for the positive rates of a
    RamanConfig. Where the drive is not a finite number (both sums
    underflowed to 0, or a sum or the product overflowed) it is 0, with no
    RuntimeWarning: that row has no finite gate time, and every Raman path
    refuses it, as it refuses a drive that underflows.
    """
    num = g_b * g_b + two_photon * laser_detuning_b
    den = g_a * g_a + two_photon * laser_detuning_a
    if any_row(den < 0) or any_row(num < 0):
        raise ValueError("g^2 + delta*Delta must be > 0 for both systems")
    drive = rabi_a * np.sqrt(np.divide(num, den))
    finite = drive < math.inf   # drive >= 0 or NaN; np.where only where a row needs it
    return drive if all_rows(finite) else np.where(finite, drive, 0.0)[()]


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
        # written so that NaN fails every check
        if not all_rows((self.two_photon > 0) & (self.two_photon < math.inf)):
            raise ValueError("two-photon detunings must be finite, with a mean > 0")
        check_rates(self, ("laser_detuning_a", "laser_detuning_b", "g_a", "g_b"))
        check_rates(self, ("rabi_a", "rabi_b", "gamma_eff"), zero=True)
        if any_row(self.rabi_a > 0.5 * self.laser_detuning_a):   # no quotient to overflow
            warnings.warn("drive is not weak against its detuning (Omega/Delta > 0.5); "
                          "adiabatic elimination is unreliable", ValidityWarning, stacklevel=2)

    @property
    def coupling_a(self) -> float:
        return self.cavity.g if self.g_a is None else self.g_a

    @property
    def coupling_b(self) -> float:
        return self.coupling_a if self.g_b is None else self.g_b

    @functools.cached_property   # matched_rabi_b runs once per config
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
        params = (self.two_photon_a, self.two_photon_b, self.rabi_a, self.drive_b,
                  self.coupling_a, self.coupling_b, self.laser_detuning_a,
                  self.laser_detuning_b, self.cavity.kappa, self.cavity.gamma)
        return _lossy_sectors, params


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
    shape = broadcast_shape(d_a, d_b, om_a, om_b, g_a, g_b, det_a, det_b, kappa, gamma)
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
fidelity_numeric_raman = fidelity_numeric_exchange


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def raman_gate_time(config: RamanConfig) -> float:
    """Drive duration for a pi phase on |ud>:

    T = pi (g_A^2 Delta_A + g_B^2 Delta_B + delta Delta_A Delta_B)
          / (g_A g_B Omega_A Omega_B).
    A zero drive (given, or underflowed) gives T = inf. A T out of the double
    range warns of nothing, and `gate_results` refuses its row.
    """
    return _gate_time(config.coupling_a, config.coupling_b, config.rabi_a, config.drive_b,
                      config.two_photon, config.laser_detuning_a, config.laser_detuning_b)


def _gate_time(g_a, g_b, om_a, om_b, d, da, db):
    """The expression of raman_gate_time, unchecked (np.divide: a float zero drive is inf)."""
    return np.divide(math.pi * (g_a * g_a * da + g_b * g_b * db + d * da * db),
                     g_a * g_b * om_a * om_b)


def optimal_gate_time_raman(gamma, cooperativity, detuning_over_rabi) -> float:
    """Gate time on the optimal ridge: T_o = (Delta/Omega)^2 * 2 pi/(gamma sqrt(C))."""
    return detuning_over_rabi**2 * 2.0 * math.pi / (gamma * np.sqrt(cooperativity))


#: two-photon detuning of maximum fidelity, 2 delta = kappa sqrt(C)
optimal_two_photon = optimal_detuning


def fidelity_analytic_raman(config: RamanConfig) -> GateResults:
    """Adiabatic closed form including the drive-induced corrections, at the
    config's pi-phase gate time T:

    F = (1/2) ( cos^2(pi Omega/(4 Delta)) cos^2(pi Omega^2/(2 delta Delta))
                sin((pi/2)/(1 + g^2/(delta Delta))) F_pi + 1 ) - Gamma*T,

    with F_pi the ideal ridge form evaluated at the two-photon detuning, for
    every row of the config. Residual two-photon or
    laser-detuning errors are not modeled; rows that have them carry the
    note "detuning errors not modeled".
    """
    gate_time = config.gate_time
    d = config.two_photon
    big_d = config.laser_detuning
    with np.errstate(over="ignore", invalid="ignore"):   # overflow: a NaN row, refused
        omega = np.sqrt(config.rabi_a * config.drive_b)
        g2 = config.coupling_a * config.coupling_b
        edge = (np.divide(g2, d * big_d) > 0.5) | (omega / big_d > 0.5)
        # a row refused for its gate time warns of nothing: its error says why
        if any_row(edge) and any_row(edge & (gate_time > 0) & (gate_time < math.inf)):
            warnings.warn("inputs are at the edge of the adiabatic regime "
                          "(cavity Rabi or drive Rabi limit)", ValidityWarning, stacklevel=2)
        f_gate = _closed_form(config.cavity, d, big_d, omega, g2, config.gamma_eff, gate_time)
    unmodeled = (config.two_photon_error > 0) | (config.laser_detuning_error > 0)
    return gate_results(f_gate, gate_time, Method.ANALYTIC,
                        {"detuning errors not modeled": unmodeled})


def _closed_form(cavity, d, big_d, omega, g2, gamma_eff, gate_time):
    """The unclamped F of fidelity_analytic_raman, unchecked, on arrays that
    broadcast: mean two-photon and laser detunings d and big_d, the drives'
    geometric mean omega and the couplings' product g2 at gate time T. An
    overflowing row comes back inf or NaN (with a RuntimeWarning outside
    np.errstate)."""
    f_pi = ridge_f_pi(d, cavity.kappa, cavity.cooperativity)
    prefactor = (
        np.square(np.cos(np.pi * omega / (4.0 * big_d)))
        * np.square(np.cos(np.pi * (omega * omega) / (2.0 * d * big_d)))
        * np.sin((np.pi / 2.0) / (1.0 + np.divide(g2, d * big_d)))
    )
    return 0.5 * (prefactor * f_pi + 1.0) - gamma_eff * gate_time


def max_fidelity_raman(config: RamanConfig) -> GateResult:
    """Expanded maximum fidelity at the ridge 2 delta = kappa sqrt(C):

    F_max = 1 - pi/sqrt(C)
              - (pi^2/16) [ (T_o delta_eps/(2 pi))^2 + (Delta_eps/Delta)^2 - 18/C ]
              - Gamma T_o,   T_o = (Delta/Omega)^2 * 2 pi/(gamma sqrt(C)).

    The config's two-photon detunings fix only the error delta_eps; the mean
    is assumed optimal. One configuration only.
    """
    c = config.cavity.cooperativity
    omega = np.sqrt(config.rabi_a * config.drive_b)
    t_o = optimal_gate_time_raman(config.cavity.gamma, c, config.laser_detuning / omega)
    penalty = (math.pi**2 / 16.0) * (
        (t_o * config.two_photon_error / (2.0 * math.pi)) ** 2
        + (config.laser_detuning_error / config.laser_detuning) ** 2
        - 18.0 / c)
    return expanded_max_fidelity(c, penalty, config.gamma_eff, t_o)


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
    if any_row(gamma_eff <= 0):
        raise ZeroDecoherence("spectral-separation optimum diverges for gamma_eff = 0")
    separation = kappa * gamma / (math.pi * gamma_eff * math.sqrt(8.0))
    rabi_over_detuning = 2.0 * np.sqrt(gamma_eff / gamma)
    laser_detuning = 0.5 * separation * np.sqrt(math.pi * np.sqrt(cooperativity))
    gate_time = math.pi / (2.0 * gamma_eff * np.sqrt(cooperativity))
    return SpectralSeparationPoint(separation, rabi_over_detuning, laser_detuning, gate_time)
