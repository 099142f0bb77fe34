import math

import numpy as np
import pytest

from cavity_gates import lindblad as lb
from cavity_gates import linalg
from cavity_gates.errors import ConvergenceFailure, DegenerateBranch
from cavity_gates.exchange import (ExchangeConfig, ExchangeMode, build_hamiltonians,
                                   fidelity_numeric_exchange, optimal_detuning)
from cavity_gates.params import CavitySystem
from cavity_gates.raman import optimal_two_photon, symmetric_raman_config


def superoperator_rho(system, psi0, t):
    """Independent oracle: exponentiate the full Liouvillian."""
    from scipy.linalg import expm

    dim = system.dim
    h_eff = lb.effective_hamiltonian(system)
    eye = np.eye(dim)
    liouville = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.conj()))
    for rate, op in system.jumps:
        l = np.asarray(op, dtype=complex)
        liouville += rate * np.kron(l, l.conj())
    rho0 = np.outer(psi0, np.conj(psi0)).reshape(-1)
    return (expm(liouville * t) @ rho0).reshape(dim, dim)


def mild_raman_gos(cooperativity=200.0):
    cav = CavitySystem.from_cooperativity(cooperativity, 0.5, 1.0)
    cfg = symmetric_raman_config(cav, optimal_two_photon(cav.kappa, cooperativity),
                                 2.0 * cav.kappa, 0.05)
    return lb.raman_open_system(cfg)


def test_open_system_validation():
    with pytest.raises(ValueError):
        lb.OpenSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), ())
    h = np.eye(2)
    with pytest.raises(ValueError):
        lb.OpenSystem(h, ((-0.1, np.eye(2)),))
    with pytest.raises(ValueError):
        lb.OpenSystem(h, ((0.1, np.eye(3)),))


def random_absorbing_system(rng, active=3, sinks=2, n_jumps=2, rate_scale=0.5):
    """Random Hermitian dynamics on the first `active` states; every jump
    moves population from an active state into one of the frozen sinks."""
    dim = active + sinks
    a = rng.standard_normal((active, active)) + 1j * rng.standard_normal((active, active))
    h = np.zeros((dim, dim), dtype=complex)
    h[:active, :active] = a + a.conj().T
    jumps = []
    for _ in range(n_jumps):
        op = np.zeros((dim, dim), dtype=complex)
        op[active:, :active] = (rng.standard_normal((sinks, active))
                                + 1j * rng.standard_normal((sinks, active)))
        jumps.append((float(rng.uniform(0, rate_scale)), op / np.linalg.norm(op)))
    return lb.OpenSystem(h, tuple(jumps))


def test_exact_closure_exponential_decay():
    gamma = 0.8
    h = np.zeros((2, 2))
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    system = lb.OpenSystem(h, ((gamma, lower),))
    phi, rho = lb.propagate_exact(system, np.array([0.0, 1.0], dtype=complex), 2.0)
    assert rho[1, 1].real == pytest.approx(math.exp(-gamma * 2.0), rel=1e-8)
    assert np.vdot(phi, phi).real == pytest.approx(math.exp(-gamma * 2.0), rel=1e-8)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)


def test_exact_closure_trace_and_positivity_on_random_absorbing_systems():
    rng = np.random.default_rng(33)
    for _ in range(3):
        system = random_absorbing_system(rng)
        psi = np.zeros(system.dim, dtype=complex)
        psi[:3] = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi /= np.linalg.norm(psi)
        _, rho = lb.propagate_exact(system, psi, 0.5)
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.abs(rho - rho.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(rho).min() > -1e-10
        assert np.abs(rho - superoperator_rho(system, psi, 0.5)).max() < 1e-10


def test_exact_closure_matches_superoperator_on_small_absorbing_system():
    # three-level chain decaying into two frozen sinks
    h = np.zeros((5, 5))
    h[:3, :3] = np.array([[0.0, 1.0, 0.0], [1.0, 3.0, 1.2], [0.0, 1.2, -2.0]])
    l1 = np.zeros((5, 5)); l1[3, 1] = 1.0
    l2 = np.zeros((5, 5)); l2[4, 2] = 1.0
    system = lb.OpenSystem(h, ((0.4, l1), (0.7, l2)))
    psi0 = np.zeros(5, dtype=complex)
    psi0[0] = 1.0
    phi, rho = lb.propagate_exact(system, psi0, 3.0)
    rho_oracle = superoperator_rho(system, psi0, 3.0)
    assert np.abs(rho - rho_oracle).max() < 1e-10
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.vdot(phi, phi).real == pytest.approx(
        float(np.trace(rho_oracle[:3, :3]).real), abs=1e-10)


def test_exact_closure_matches_superoperator_at_raman_point():
    gos = mild_raman_gos()
    phi, rho = lb.propagate_exact(gos.system, gos.psi0, gos.gate_time)
    rho_oracle = superoperator_rho(gos.system, gos.psi0, gos.gate_time)
    assert np.abs(rho - rho_oracle).max() < 1e-9
    assert abs(np.trace(rho).real - 1.0) < 1e-9


def test_exact_closure_rejects_non_absorbing():
    h = np.array([[0.0, 1.0], [1.0, 0.5]])
    l = np.array([[0.0, 1.0], [0.0, 0.0]])  # destination re-coupled by H
    system = lb.OpenSystem(h, ((0.3, l),))
    with pytest.raises(ValueError):
        lb.propagate_exact(system, np.array([0.0, 1.0], dtype=complex), 1.0)


def test_trace_preserved_while_trajectory_decays():
    gos = mild_raman_gos()
    phi, rho = lb.propagate_exact(gos.system, gos.psi0, gos.gate_time)
    p = float(np.vdot(phi, phi).real)
    assert p < 1.0 - 1e-3                      # the no-jump norm decays
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)  # recycling restores it


def test_decomposition_identity_and_branches():
    gos = mild_raman_gos()
    branches = lb.trajectory_decomposition(gos.system, gos.psi0, gos.ideal, gos.gate_time)
    _, rho = lb.propagate_exact(gos.system, gos.psi0, gos.gate_time)
    f_direct = math.sqrt(float(np.vdot(gos.ideal, rho @ gos.ideal).real))
    combined = math.sqrt(branches.success_probability * branches.fidelity_success**2
                         + (1 - branches.success_probability) * branches.fidelity_fail**2)
    assert combined == pytest.approx(f_direct, abs=1e-6)


def test_degenerate_branch_without_decay():
    h = np.diag([0.0, 1.0]).astype(complex)
    system = lb.OpenSystem(h, ((0.0, np.zeros((2, 2))),))
    with pytest.raises(DegenerateBranch):
        lb.trajectory_decomposition(system, np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1.0)


def test_raman_failure_branch_half_fidelity():
    gos = mild_raman_gos(cooperativity=2000.0)
    branches = lb.trajectory_decomposition(gos.system, gos.psi0, gos.ideal, gos.gate_time)
    assert branches.fidelity_fail == pytest.approx(0.5, abs=0.05)


def test_exchange_failure_branch_vanishes():
    cav = CavitySystem.from_cooperativity(2000.0, 0.1, 1.0)
    cfg = ExchangeConfig(cav, detuning=optimal_detuning(cav.kappa, 2000.0))
    gos = lb.exchange_open_system(cfg)
    branches = lb.trajectory_decomposition(gos.system, gos.psi0, gos.ideal, gos.gate_time)
    assert branches.fidelity_fail < 1e-8
    # hence the no-jump treatment is exact for this scheme
    f_lind = lb.gate_fidelity_lindblad(gos).fidelity
    f_nh = lb.gate_fidelity_nonhermitian(gos)
    assert f_lind == pytest.approx(f_nh, abs=1e-9)


def test_lindblad_gate_fidelity_gauge():
    gos = mild_raman_gos()
    _, rho = lb.propagate_exact(gos.system, gos.psi0, gos.gate_time)
    ungauged = math.sqrt(float(np.vdot(gos.ideal, rho @ gos.ideal).real))
    gauged = lb.gate_fidelity_lindblad(gos).fidelity
    assert gauged >= ungauged - 1e-12


def test_nonhermitian_equals_relative_phase_form():
    from cavity_gates.raman import fidelity_numeric_raman

    cav = CavitySystem.from_cooperativity(2000.0, 0.5, 1.0)
    cfg = symmetric_raman_config(cav, optimal_two_photon(cav.kappa, 2000.0),
                                 2.0 * cav.kappa, 0.05)
    gos = lb.raman_open_system(cfg)
    assert lb.gate_fidelity_nonhermitian(gos) == pytest.approx(
        fidelity_numeric_raman(cfg).fidelity, abs=1e-10)


def scheme_case(case):
    """(config, open system) of the Raman gate or of an exchange (mode, splitting) case."""
    cav = CavitySystem.from_cooperativity(500.0, 0.5, 1.0)
    if case == "raman":
        cfg = symmetric_raman_config(cav, optimal_two_photon(cav.kappa, 500.0),
                                     2.0 * cav.kappa, 0.05)
        return cfg, lb.raman_open_system(cfg)
    mode, splitting_eg = case
    cfg = ExchangeConfig(cav, detuning=optimal_detuning(cav.kappa, 500.0),
                         splitting_eg=splitting_eg, detuning_error=0.01, mode=mode)
    return cfg, lb.exchange_open_system(cfg)


@pytest.mark.parametrize("case", ["raman", *((mode, splitting_eg) for mode in ExchangeMode
                                              for splitting_eg in (math.inf, 300.0))],
                         ids=lambda case: case if case == "raman"
                         else f"exchange-{case[0].value}-{case[1]:g}")
def test_effective_hamiltonian_matches_scheme_blocks(case):
    cfg, gos = scheme_case(case)
    h_eff = lb.effective_hamiltonian(gos.system)
    ham = build_hamiltonians(cfg)
    n_ud, n_uu = ham.h_eff_up_down.shape[0], ham.h_eff_up_up.shape[0]
    assert np.abs(h_eff[:n_ud, :n_ud] - ham.h_eff_up_down).max() < 1e-12
    assert np.abs(h_eff[n_ud:n_ud + n_uu, n_ud:n_ud + n_uu] - ham.h_eff_up_up).max() < 1e-12


def emitter_cavity_pair(g, kappa=1.0):
    """Emitter-cavity pair at gamma = Delta = 0 whose photon is lost into a
    frozen sink: H_eff = [[0, g], [g, -i kappa/2]] on (emitter, photon) has a
    second-order exceptional point at g = kappa/4."""
    h = np.zeros((3, 3))
    h[0, 1] = h[1, 0] = g
    loss = np.zeros((3, 3))
    loss[2, 1] = 1.0
    return lb.OpenSystem(h, ((kappa, loss),))


def test_exact_closure_raises_at_exceptional_point():
    # the eigenbasis condition number is ~1e8 there, and the closed-form
    # jump integral would be off by 0.31 against the superoperator oracle
    with pytest.raises(ConvergenceFailure):
        lb.propagate_exact(emitter_cavity_pair(0.25), np.array([1.0, 0.0, 0.0]), 3.0)


def test_exact_closure_matches_superoperator_near_exceptional_point():
    system = emitter_cavity_pair(1.01 * 0.25)
    vecs = np.linalg.eig(lb.effective_hamiltonian(system))[1]
    assert 10.0 < np.linalg.cond(vecs) < lb.EXACT_COND_LIMIT
    psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    _, rho = lb.propagate_exact(system, psi0, 3.0)
    assert np.abs(rho - superoperator_rho(system, psi0, 3.0)).max() < 1e-10


def test_clamped_note_on_lindblad_and_numeric_paths():
    cav = CavitySystem.from_cooperativity(2000.0, 0.1, 1.0)
    cfg = ExchangeConfig(cav, detuning=optimal_detuning(cav.kappa, 2000.0), gamma_eff=50.0)
    lindblad = lb.gate_fidelity_lindblad(lb.exchange_open_system(cfg), cfg.gamma_eff)
    numeric = fidelity_numeric_exchange(cfg)
    for result in (lindblad, numeric):
        assert result.fidelity == 0.0
        assert result.notes == ("clamped",)
