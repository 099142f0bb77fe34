"""Joint-space Lindblad closure: the independent oracle of `lindblad`.

Propagates the full master equation, recycling terms included, on the joint
space of both evolving two-qubit sectors plus the frozen ground states and
the recycled jump destinations, with explicit jump matrices. Because every
jump in these gate models lands on a dynamically frozen state, the master
equation admits an exact single-jump closure, `propagate_exact`; it rejects
systems whose jump destinations are not frozen rather than integrating them
approximately. The superoperator checks of `test_lindblad` keep it honest.

Gate fidelities are reported up to a local Z rotation on the control qubit
(the relative-phase gauge in which the ideal gate is defined); the optimal
phase is maximized in closed form.

`sector_hamiltonians` gives the sector blocks of either gate from
`config.sectors()`, for this oracle and the Hamiltonian tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from cavity_gates import linalg
from cavity_gates.errors import ConvergenceFailure, NonFinite
from cavity_gates.exchange import ExchangeConfig, ExchangeMode
from cavity_gates.params import config_shape
from cavity_gates.raman import RamanConfig


class SectorHamiltonians(NamedTuple):
    """Hermitian and lossy |ud>/|uu> sector generators of either exchange gate."""

    h_up_down: np.ndarray
    h_up_up: np.ndarray
    h_eff_up_down: np.ndarray
    h_eff_up_up: np.ndarray


def sector_hamiltonians(config: ExchangeConfig | RamanConfig) -> SectorHamiltonians:
    """The stacked sector blocks of `config.sectors()`. The couplings are
    real, so each H is the real part of its H_eff."""
    lossy_sectors, params = config.sectors()
    heff_ud, heff_uu = lossy_sectors(*params)
    return SectorHamiltonians(heff_ud.real.astype(complex), heff_uu.real.astype(complex),
                              heff_ud, heff_uu)


@dataclass(frozen=True)
class OpenSystem:
    """Hermitian Hamiltonian plus jump channels [(rate, operator), ...]."""

    hamiltonian: np.ndarray
    jumps: tuple

    def __post_init__(self):
        h = np.asarray(self.hamiltonian)
        if np.abs(h - h.conj().T).max() > 1e-12:
            raise ValueError("hamiltonian must be Hermitian to 1e-12")
        for rate, op in self.jumps:
            if rate < 0:
                raise ValueError("jump rates must be >= 0")
            if np.asarray(op).shape != h.shape:
                raise ValueError("jump operators must match the Hamiltonian dimension")

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def effective_hamiltonian(system: OpenSystem) -> np.ndarray:
    """No-jump generator H - (i/2) sum_c rate_c L_c^dag L_c."""
    h = np.asarray(system.hamiltonian, dtype=complex).copy()
    for rate, op in system.jumps:
        l = np.asarray(op, dtype=complex)
        h -= 0.5j * rate * (l.conj().T @ l)
    return h


def _check_absorbing(system: OpenSystem):
    """The exact closure requires every jump destination to be frozen:
    unmoved by H and annihilated by every jump channel."""
    h = np.asarray(system.hamiltonian, dtype=complex)
    scale = max(np.abs(h).max(), 1.0)
    for rate, op in system.jumps:
        if rate == 0:
            continue
        l = np.asarray(op, dtype=complex)
        if np.abs(h @ l).max() > 1e-9 * scale * max(np.abs(l).max(), 1.0):
            raise ValueError("jump destinations are moved by the Hamiltonian; "
                             "the absorbing closure does not apply")
        for rate2, op2 in system.jumps:
            if rate2 == 0:
                continue
            if np.abs(np.asarray(op2, dtype=complex) @ l).max() > 1e-12:
                raise ValueError("jump destinations themselves decay; "
                                 "the absorbing closure does not apply")


def propagate_exact(system: OpenSystem, psi0, t: float):
    """Exact master-equation solution for absorbing jump structure.

    Returns (phi_t, rho_t): the no-jump trajectory e^{-i t H_eff} psi0 and
    the full density matrix

        rho(t) = |phi(t)><phi(t)| +
                 sum_c rate_c int_0^t (L_c phi(s)) (L_c phi(s))^dag ds,

    with the time integral done in closed form over the eigenbasis of H_eff
    from `linalg.eigenbasis`. Exact (up to the eigendecomposition) because
    jumped population is frozen. There is no fallback: the closed-form jump
    integral loses about cond^2 * machine epsilon, so an eigenbasis that
    `linalg` does not trust (near an exceptional point of H_eff) raises
    ConvergenceFailure. NaN or Inf in the system or the state raises
    NonFinite.
    """
    _check_absorbing(system)
    h_eff = effective_hamiltonian(system)
    psi0 = np.asarray(psi0, dtype=complex)
    if not np.isfinite(psi0).all():
        raise NonFinite("state contains NaN or Inf entries")
    if not np.isfinite(h_eff).all():   # `linalg.eigenbasis` makes such a row NaN
        raise NonFinite("matrix contains NaN or Inf entries")
    basis = linalg.eigenbasis(h_eff[None])
    if not basis.trusted[0]:
        raise ConvergenceFailure(f"eigenbasis of H_eff not trusted (condition number "
                                 f"{basis.cond[0]:.2e}): too near an exceptional point")
    evals, vecs, coeff = basis.values[0], basis.vectors[0], basis.inverse[0] @ psi0
    phi_t = vecs @ (coeff * np.exp(-1j * evals * t))
    rho = np.outer(phi_t, phi_t.conj())
    z = evals[:, None] - evals.conj()[None, :]
    small = np.abs(z) * t < 1e-9
    z_safe = np.where(small, 1.0, z)
    integral = np.where(small, t * (1.0 - 0.5j * z * t), (1.0 - np.exp(-1j * z_safe * t)) / (1j * z_safe))
    weight = coeff[:, None] * coeff.conj()[None, :] * integral
    for rate, op in system.jumps:
        if rate == 0:
            continue
        lv = np.asarray(op, dtype=complex) @ vecs
        rho += rate * (lv @ weight @ lv.conj().T)
    return phi_t, 0.5 * (rho + rho.conj().T)


class GateOpenSystem(NamedTuple):
    system: OpenSystem
    psi0: np.ndarray
    ideal_frozen: np.ndarray   # unshelved/unexcited sector part of the target
    ideal_active: np.ndarray   # evolving sector part, defined up to a local Z phase
    gate_time: float

    @property
    def ideal(self) -> np.ndarray:
        return self.ideal_frozen + self.ideal_active


def _gate_open_system(config: ExchangeConfig | RamanConfig, n_recycled: int, jumps,
                      phase_on_ud: bool) -> GateOpenSystem:
    """Basis: the |ud> block, the |uu> block (each starting in its first
    state), the two frozen ground states of the other sectors, then
    n_recycled frozen jump destinations. jumps: (rate, [(dest, src), ...]).
    One configuration only."""
    assert config_shape(config) == (), "the oracle takes one configuration"
    ham = sector_hamiltonians(config)
    n_ud, n_uu = ham.h_up_down.shape[0], ham.h_up_up.shape[0]
    dim = n_ud + n_uu + 2 + n_recycled
    frozen_states = [n_ud + n_uu, n_ud + n_uu + 1]
    h = np.zeros((dim, dim), dtype=complex)
    h[:n_ud, :n_ud] = ham.h_up_down.real
    h[n_ud:n_ud + n_uu, n_ud:n_ud + n_uu] = ham.h_up_up.real
    ops = []
    for rate, pairs in jumps:
        l = np.zeros((dim, dim), dtype=complex)
        l[tuple(zip(*pairs))] = 1.0
        ops.append((rate, l))
    psi0 = np.zeros(dim, dtype=complex)
    psi0[[0, n_ud] + frozen_states] = 0.5
    frozen = np.zeros(dim, dtype=complex)
    frozen[frozen_states] = 0.5
    active = psi0 - frozen
    active[0 if phase_on_ud else n_ud] = -0.5   # the pi phase of the ideal gate
    return GateOpenSystem(OpenSystem(h, tuple(ops)), psi0, frozen, active, config.gate_time)


def exchange_open_system(config: ExchangeConfig) -> GateOpenSystem:
    """Joint open system of the simple-exchange gate.

    Basis: the 3-state |ud> and |uu> sector blocks, the frozen |du>, |dd>
    ground states, then the recycled A-ground states |uu,0> and |ud,0>.
    The cavity jump and each emitter decay recycle into those A-ground
    states, which the closing pi pulse re-excites, so a failed gate never
    overlaps the target.
    """
    i_guu, i_gud = 8, 9
    cav = config.cavity
    jumps = ((cav.kappa, [(i_gud, 1), (i_guu, 4)]),   # cavity photon loss
             (cav.gamma, [(i_gud, 0), (i_guu, 3)]),   # emitter A decay
             (cav.gamma, [(i_gud, 2), (i_guu, 5)]))   # emitter B decay
    return _gate_open_system(config, 2, jumps,
                             phase_on_ud=config.mode is ExchangeMode.OPPOSITE_RESONANT)


def raman_open_system(config: RamanConfig) -> GateOpenSystem:
    """Joint open system of the Raman gate.

    Basis: the five |ud>-sector states, the three shelved-sector states,
    then the frozen |d,s> and |d,d> ground states which double as the jump
    destinations (photon loss and emitter decay both leave the emitters in
    their cavity-coupled ground states).
    """
    i_ds, i_dd = 8, 9
    cav = config.cavity
    jumps = (
        (cav.kappa, [(i_dd, 2), (i_ds, 7)]),   # cavity photon loss
        (cav.gamma, [(i_dd, 1), (i_ds, 6)]),   # emitter A decay
        (cav.gamma, [(i_dd, 3)]),              # emitter B decay
    )
    return _gate_open_system(config, 0, jumps, phase_on_ud=True)


def open_system(config: ExchangeConfig | RamanConfig) -> GateOpenSystem:
    """The joint open system of either gate."""
    if isinstance(config, RamanConfig):
        return raman_open_system(config)
    return exchange_open_system(config)


def _gauge_maximized(rho: np.ndarray, frozen: np.ndarray, active: np.ndarray) -> float:
    """max over the local-Z phase of <psi(chi)| rho |psi(chi)>,
    psi(chi) = frozen + e^{i chi} active. Raises NonFinite when the
    propagation overflowed (say, at a detuning near the double range)."""
    direct = float(np.vdot(frozen, rho @ frozen).real + np.vdot(active, rho @ active).real)
    cross = complex(np.vdot(frozen, rho @ active))
    try:
        overlap = direct + 2.0 * abs(cross)
    except OverflowError:  # abs of a complex past the double range
        overlap = math.inf
    if not math.isfinite(overlap):
        raise NonFinite(f"gate overlap is {overlap!r}: the propagation overflowed")
    return overlap


def gate_fidelity(gos: GateOpenSystem, gamma_eff: float = 0.0) -> float:
    """Full master-equation gate fidelity (local-Z gauge maximized), with
    the slow decoherence applied as the usual -Gamma*T correction; not
    clamped."""
    _, rho = propagate_exact(gos.system, gos.psi0, gos.gate_time)
    f = math.sqrt(min(max(_gauge_maximized(rho, gos.ideal_frozen, gos.ideal_active), 0.0), 1.0))
    return f - gamma_eff * gos.gate_time
