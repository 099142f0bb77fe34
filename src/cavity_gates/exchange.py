"""Simple virtual-photon-exchange controlled phase-flip gate, and the one
numeric path of both exchange gates.

One emitter is excited by a fast optical pi pulse; a dispersively coupled
cavity then mediates a resonant excitation swap with the other emitter,
which adiabatically imprints a pi phase on exactly one two-qubit product
state. Two equivalent operating modes exist: the opposite-spin transitions
brought into resonance (phase lands on |ud>), or the equal-spin transitions
(phase lands on |uu>). The non-Hermitian 3x3 subspace Hamiltonians carry
cavity decay kappa on the one-photon state and emitter decay gamma on the
excited states. splitting_eg = inf is the ideal spectator: a decoupled
third state, not a separate code path.

The Raman gate gets its pi phase from the same lossy swap, so the numeric
functions here take an ExchangeConfig or a RamanConfig; each supplies its
sector builder and parameters (`sectors()`) and its pi-phase `gate_time`.
Numeric fields of either config may be numpy arrays that broadcast
together (the cavity and the mode stay scalar): the *_batch evaluators then
evaluate every row at once through the stacked propagation of `linalg` and
return GateResults of the broadcast shape. The scalar evaluators are the
one-configuration calls of the same functions.
"""
from __future__ import annotations

import enum
import functools
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import linalg
from .errors import ValidityWarning
from .params import (CavitySystem, GateResult, GateResults, Method, all_rows, any_row,
                     broadcast_shape, gate_results)

if TYPE_CHECKING:
    from .raman import RamanConfig


class ExchangeMode(enum.Enum):
    #: |up e2> of A resonant with |e1 down> of B; pi phase on |ud>
    OPPOSITE_RESONANT = "opposite"
    #: equal transitions resonant; pi phase on |uu>
    EQUAL_RESONANT = "equal"


@dataclass(frozen=True)
class ExchangeConfig:
    """Inputs of the simple-exchange gate.

    detuning is the cavity detuning of the excited system (Delta_A > 0).
    splitting_eg is the spectator-transition splitting; math.inf marks the
    ideal isolated-spectator limit, row by row. detuning_error is the
    residual error in the partner's tuned resonance condition. Per-transition couplings
    default to the cavity's g.
    """

    cavity: CavitySystem
    detuning: float
    splitting_eg: float = math.inf
    detuning_error: float = 0.0
    gamma_eff: float = 0.0
    g_up_a: float | None = None
    g_down_b: float | None = None
    g_up_b: float | None = None
    mode: ExchangeMode = ExchangeMode.OPPOSITE_RESONANT

    def __post_init__(self):
        if not all_rows(self.detuning > 0):
            raise ValueError("detuning must be > 0")
        if any_row(self.splitting_eg < 0):
            raise ValueError("splitting_eg must be >= 0 (math.inf for ideal)")
        if any_row(self.gamma_eff < 0):
            raise ValueError("gamma_eff must be >= 0")
        if not all_rows(np.isfinite(self.detuning_error)):
            raise ValueError("detuning_error must be finite")

    @property
    def coupling_a(self) -> float:
        return self.cavity.g if self.g_up_a is None else self.g_up_a

    @property
    def coupling_b_resonant(self) -> float:
        """Coupling of B's transition that participates in the swap."""
        if self.mode is ExchangeMode.OPPOSITE_RESONANT:
            return self.cavity.g if self.g_down_b is None else self.g_down_b
        return self.cavity.g if self.g_up_b is None else self.g_up_b

    @property
    def coupling_b_spectator(self) -> float:
        if self.mode is ExchangeMode.OPPOSITE_RESONANT:
            return self.cavity.g if self.g_up_b is None else self.g_up_b
        return self.cavity.g if self.g_down_b is None else self.g_down_b

    @property
    def gate_time(self):
        """Excitation dwell time for a pi phase (exchange_gate_time)."""
        return exchange_gate_time(self.detuning, self.coupling_a, self.coupling_b_resonant)

    def sectors(self):
        """(builder of the stacked (H_eff_ud, H_eff_uu), its parameters)."""
        cav = self.cavity
        params = (self.detuning, self.coupling_a, self.coupling_b_resonant,
                  self.coupling_b_spectator, self.detuning_error, self.splitting_eg)
        return functools.partial(_lossy_sectors, mode=self.mode, kappa=cav.kappa,
                                 gamma=cav.gamma), params


class SectorHamiltonians(NamedTuple):
    """Hermitian and lossy |ud>/|uu> sector generators of either exchange gate."""

    h_up_down: np.ndarray
    h_up_up: np.ndarray
    h_eff_up_down: np.ndarray
    h_eff_up_up: np.ndarray


def tune_partner_detuning(detuning, g_up_a, g_down_b, splitting_eg) -> float:
    """Partner detuning that puts the swap on resonance, compensating the
    unequal cavity Stark shifts: Delta_B = Delta + (g_a^2 - g_b^2)/Delta - delta_eg."""
    if math.isinf(splitting_eg):
        raise ValueError("splitting_eg is the ideal flag (inf); the resonance condition "
                         "is then fixed by the equal-transition mode (EQUAL_RESONANT)")
    if not detuning > 0:
        raise ValueError("detuning must be > 0")
    return detuning + (g_up_a**2 - g_down_b**2) / detuning - splitting_eg


def exchange_gate_time(detuning, g_a, g_b) -> float:
    """Excitation dwell time for a pi phase: T = pi * Delta / (g_a * g_b)."""
    if any_row(g_a <= 0) or any_row(g_b <= 0):
        raise ValueError("couplings must be > 0")
    return math.pi * detuning / (g_a * g_b)


def _subspace_block(shape, detuning, g_a, g_b, offset, kappa, gamma):
    """Lossy 3x3 single-excitation blocks in the basis (excited-A,
    one-photon, excited-B) with the B-state energy offset."""
    h = np.zeros(shape + (3, 3), dtype=complex)
    h[..., 0, 0] = -0.5j * gamma
    h[..., 0, 1] = h[..., 1, 0] = g_a
    h[..., 1, 1] = detuning - 0.5j * kappa
    h[..., 1, 2] = h[..., 2, 1] = g_b
    h[..., 2, 2] = offset - 0.5j * gamma
    return h


def _lossy_sectors(detuning, g_a, g_res, g_spec, detuning_error, splitting_eg,
                   mode, kappa, gamma):
    """(H_eff_ud, H_eff_uu) stacked over the broadcast shape of the parameters;
    an infinite splitting_eg decouples the spectator end state (g = offset = 0)."""
    shape = broadcast_shape(detuning, g_a, g_res, g_spec, detuning_error, splitting_eg)
    stark = (g_a**2 - g_res**2) / detuning
    offset_res = -detuning_error - stark
    resonant = _subspace_block(shape, detuning, g_a, g_res, offset_res, kappa, gamma)
    sign = 1.0 if mode is ExchangeMode.OPPOSITE_RESONANT else -1.0
    ideal = np.isinf(splitting_eg)
    spectator = _subspace_block(shape, detuning, g_a, np.where(ideal, 0.0, g_spec),
                                np.where(ideal, 0.0, offset_res + sign * splitting_eg),
                                kappa, gamma)
    if mode is ExchangeMode.OPPOSITE_RESONANT:
        return resonant, spectator
    return spectator, resonant


def build_hamiltonians(config: ExchangeConfig | RamanConfig) -> SectorHamiltonians:
    """Subspace Hamiltonians of the two evolving two-qubit sectors of either gate.

    Exchange bases: |ud> sector (e2 down 0, up down 1, up e1 0) and |uu>
    sector (e2 up 0, up up 1, up e2 0). With the partner tuned, the
    resonant sector's end state sits at -detuning_error (minus the residual
    Stark offset) and the spectator's at splitting_eg above it (decoupled
    at splitting_eg = inf); the Raman bases are in `raman`. An array-valued
    config gives stacks of shape (broadcast shape) + (k, k). The couplings
    are real, so each H is the real part of its H_eff.
    """
    lossy_sectors, params = config.sectors()
    heff_ud, heff_uu = lossy_sectors(*params)
    return SectorHamiltonians(heff_ud.real.astype(complex), heff_uu.real.astype(complex),
                              heff_ud, heff_uu)


def phase_fidelity(lossy_sectors, params, gate_time):
    """F_pi = (1/2)|<uu-start| e^{-iT H_uu} |uu-start> - <ud-start| e^{-iT H_ud} |ud-start>|
    for every row of the broadcast parameter arrays `params` and `gate_time`,
    with both start states at index 0. Scalar inputs give a numpy scalar.

    `lossy_sectors(*params)` returns the stacked (H_eff_ud, H_eff_uu). Both
    sectors go into one stack of generators, the smaller block padded with
    decoupled zero states (the eigensolver's balancing isolates them, so
    they change neither the amplitude nor the eigenbasis condition number).
    Batches of more than linalg.CHUNK / 2 rows are split into blocks of that
    size, so a grid of any size is built and propagated in bounded memory.
    """
    shape = broadcast_shape(*params, gate_time)
    n = math.prod(shape)
    block = linalg.CHUNK // 2
    if n > block:
        flat = [np.broadcast_to(p, shape).ravel() for p in (*params, gate_time)]
        f_pi = np.concatenate([
            phase_fidelity(lossy_sectors, [p[s:s + block] for p in flat[:-1]],
                           flat[-1][s:s + block])
            for s in range(0, n, block)])
        return f_pi.reshape(shape)
    sectors = lossy_sectors(*params)
    k = max(sector.shape[-1] for sector in sectors)
    h = np.zeros((2,) + shape + (k, k), dtype=complex)
    for stack, sector in zip(h, sectors):
        stack[..., :sector.shape[-1], :sector.shape[-1]] = sector
    t = np.broadcast_to(gate_time, h.shape[:-2])
    amp = linalg.return_amplitudes(h.reshape(-1, k, k), 0, t.ravel()).reshape(t.shape)
    return (0.5 * np.abs(amp[1] - amp[0]))[()]


def relative_phase_fidelity(config: ExchangeConfig | RamanConfig, gate_time=None):
    """F_pi from non-Hermitian propagation of both sectors of either gate.

    F_pi = (1/2) |<uu-start| e^{-iT H_uu} |uu-start> -
                  <ud-start| e^{-iT H_ud} |ud-start>|.
    """
    lossy_sectors, params = config.sectors()
    return phase_fidelity(lossy_sectors, params,
                          config.gate_time if gate_time is None else gate_time)


def ridge_f_pi(detuning, kappa, cooperativity):
    """Ideal-error F_pi of a virtual exchange at the given detuning:
    exp(-2 pi Delta/(C kappa) - pi kappa/(2 Delta)) * cosh^2(pi kappa/(4 Delta)).

    The same function governs the Raman scheme with the two-photon detuning
    in place of the cavity detuning.
    """
    d = np.asarray(detuning, dtype=float)
    out = (np.exp(-2.0 * np.pi * d / (cooperativity * kappa) - np.pi * kappa / (2.0 * d))
           * np.cosh(np.pi * kappa / (4.0 * d)) ** 2)
    return float(out) if np.isscalar(detuning) else out


def cooperativity_limited_max_exchange(cooperativity):
    """Fidelity ceiling of both exchange schemes from finite cooperativity
    alone: (ridge_f_pi + 1)/2 at 2 Delta = kappa sqrt(C), where kappa drops
    out: (e^{-2 pi/sqrt(C)} cosh^2(pi/(2 sqrt(C))) + 1)/2."""
    return 0.5 * (ridge_f_pi(0.5 * np.sqrt(cooperativity), 1.0, cooperativity) + 1.0)


def f_pi_closed_form(config: ExchangeConfig):
    """Adiabatic closed form of F_pi at equal couplings.

    F_pi = (1/2) e^{-2 pi Delta/(C kappa) - pi kappa/(2 Delta)}
           |e^{i 4 pi g^2/(Delta delta_eg)} +
            cosh(pi kappa/(2 Delta)) e^{-i pi Delta_eps Delta / g^2}|,
    reducing to ridge_f_pi for delta_eg -> inf and Delta_eps -> 0.
    """
    g_a = config.coupling_a
    g_b = config.coupling_b_resonant
    mismatch = abs(g_a - g_b)
    if any_row((mismatch > 1e-9 * abs(g_a)) & (mismatch > 1e-9 * abs(g_b))):
        warnings.warn("closed form assumes equal resonant couplings; using their "
                      "geometric mean", ValidityWarning, stacklevel=2)
    g2 = g_a * g_b
    cav = config.cavity
    delta = config.detuning
    envelope = np.exp(-2.0 * np.pi * delta / (cav.cooperativity * cav.kappa)
                      - np.pi * cav.kappa / (2.0 * delta))
    spectator_phase = np.exp(4j * np.pi * g2 / (delta * config.splitting_eg))
    swap_term = (np.cosh(np.pi * cav.kappa / (2.0 * delta))
                 * np.exp(-1j * np.pi * config.detuning_error * delta / g2))
    return 0.5 * envelope * abs(spectator_phase + swap_term)


def fidelity_numeric_exchange_batch(config: ExchangeConfig | RamanConfig,
                                    gate_time=None) -> GateResults:
    """Gate fidelity (F_pi + 1)/2 - Gamma*T from non-Hermitian propagation,
    for every row of an array-valued config of either gate."""
    gate_time = config.gate_time if gate_time is None else gate_time
    f_pi = relative_phase_fidelity(config, gate_time)
    f_gate = 0.5 * (f_pi + 1.0) - config.gamma_eff * gate_time
    return gate_results(f_gate, gate_time, Method.NON_HERMITIAN)


def fidelity_numeric_exchange(config: ExchangeConfig | RamanConfig, gate_time=None) -> GateResult:
    """Gate fidelity (F_pi + 1)/2 - Gamma*T from non-Hermitian propagation."""
    return fidelity_numeric_exchange_batch(config, gate_time).single()


def fidelity_analytic_exchange_batch(config: ExchangeConfig, gate_time=None) -> GateResults:
    """Gate fidelity (F_pi + 1)/2 - Gamma*T from the adiabatic closed form,
    for every row of an array-valued config."""
    gate_time = config.gate_time if gate_time is None else gate_time
    f_gate = 0.5 * (f_pi_closed_form(config) + 1.0) - config.gamma_eff * gate_time
    return gate_results(f_gate, gate_time, Method.ANALYTIC)


def fidelity_analytic_exchange(config: ExchangeConfig, gate_time=None) -> GateResult:
    """Gate fidelity (F_pi + 1)/2 - Gamma*T from the adiabatic closed form."""
    return fidelity_analytic_exchange_batch(config, gate_time).single()


def optimal_detuning(kappa, cooperativity) -> float:
    """Detuning of maximum fidelity in the adiabatic regime: 2 Delta = kappa sqrt(C)."""
    return 0.5 * kappa * math.sqrt(cooperativity)


def optimal_gate_time_exchange(gamma, cooperativity) -> float:
    """Gate time at the optimal detuning: T_o = 2 pi / (gamma sqrt(C))."""
    return 2.0 * math.pi / (gamma * math.sqrt(cooperativity))


def max_fidelity_exchange(config: ExchangeConfig) -> GateResult:
    """Expanded maximum fidelity at the optimal detuning 2 Delta = kappa sqrt(C):

    F_max = 1 - pi/sqrt(C)
              - (3 pi^2/32) [ (T_o Delta_eps / 2 pi)^2 + (2 pi/(T_o delta_eg))^2 - 12/C ]
              - Gamma T_o,   T_o = 2 pi/(gamma sqrt(C)).

    The config's detuning field is ignored; only the error terms enter.
    """
    cav = config.cavity
    c = cav.cooperativity
    if c < 10:
        warnings.warn("expansion assumes C >> 1", ValidityWarning, stacklevel=2)
    t_o = optimal_gate_time_exchange(cav.gamma, c)
    f_gate = (
        1.0
        - math.pi / math.sqrt(c)
        - (3.0 * math.pi**2 / 32.0) * (
            (t_o * config.detuning_error / (2.0 * math.pi)) ** 2
            + (2.0 * math.pi / (t_o * config.splitting_eg)) ** 2
            - 12.0 / c)
        - config.gamma_eff * t_o
    )
    # the expansion overshoots at small C; cap it by the unexpanded ceiling
    f_gate = min(f_gate, cooperativity_limited_max_exchange(c))
    return gate_results(f_gate, t_o, Method.ANALYTIC).single()
