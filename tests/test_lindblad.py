"""The batched Lindblad closure of `lindblad` against the joint-space
oracle of `lindblad_oracle`, and the oracle against the full Liouvillian."""
import dataclasses
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

import lindblad_oracle as orc
from cavity_gates import lindblad as lb
from cavity_gates import linalg
from cavity_gates.cli import main
from cavity_gates.config import build_raman, load_config_text
from cavity_gates.errors import ConvergenceFailure, NonFinite
from cavity_gates.exchange import (ExchangeConfig, ExchangeMode, fidelity_numeric_exchange,
                                   optimal_detuning)
from cavity_gates.params import CavitySystem, stack_configs
from cavity_gates.raman import optimal_two_photon, symmetric_raman_config


def superoperator_rho(system, psi0, t):
    """Independent oracle: exponentiate the full Liouvillian."""
    from scipy.linalg import expm

    dim = system.dim
    h_eff = orc.effective_hamiltonian(system)
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
    return orc.raman_open_system(cfg)


def test_open_system_validation():
    with pytest.raises(ValueError):
        orc.OpenSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), ())
    h = np.eye(2)
    with pytest.raises(ValueError):
        orc.OpenSystem(h, ((-0.1, np.eye(2)),))
    with pytest.raises(ValueError):
        orc.OpenSystem(h, ((0.1, np.eye(3)),))


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
    return orc.OpenSystem(h, tuple(jumps))


def test_exact_closure_exponential_decay():
    gamma = 0.8
    h = np.zeros((2, 2))
    lower = np.array([[0.0, 1.0], [0.0, 0.0]])
    system = orc.OpenSystem(h, ((gamma, lower),))
    phi, rho = orc.propagate_exact(system, np.array([0.0, 1.0], dtype=complex), 2.0)
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
        _, rho = orc.propagate_exact(system, psi, 0.5)
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
    system = orc.OpenSystem(h, ((0.4, l1), (0.7, l2)))
    psi0 = np.zeros(5, dtype=complex)
    psi0[0] = 1.0
    phi, rho = orc.propagate_exact(system, psi0, 3.0)
    rho_oracle = superoperator_rho(system, psi0, 3.0)
    assert np.abs(rho - rho_oracle).max() < 1e-10
    assert abs(np.trace(rho).real - 1.0) < 1e-12
    assert np.vdot(phi, phi).real == pytest.approx(
        float(np.trace(rho_oracle[:3, :3]).real), abs=1e-10)


def test_exact_closure_matches_superoperator_at_raman_point():
    gos = mild_raman_gos()
    phi, rho = orc.propagate_exact(gos.system, gos.psi0, gos.gate_time)
    rho_oracle = superoperator_rho(gos.system, gos.psi0, gos.gate_time)
    assert np.abs(rho - rho_oracle).max() < 1e-9
    assert abs(np.trace(rho).real - 1.0) < 1e-9


def test_exact_closure_rejects_non_absorbing():
    h = np.array([[0.0, 1.0], [1.0, 0.5]])
    l = np.array([[0.0, 1.0], [0.0, 0.0]])  # destination re-coupled by H
    system = orc.OpenSystem(h, ((0.3, l),))
    with pytest.raises(ValueError):
        orc.propagate_exact(system, np.array([0.0, 1.0], dtype=complex), 1.0)


def test_trace_preserved_while_trajectory_decays():
    gos = mild_raman_gos()
    phi, rho = orc.propagate_exact(gos.system, gos.psi0, gos.gate_time)
    p = float(np.vdot(phi, phi).real)
    assert p < 1.0 - 1e-3                      # the no-jump norm decays
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)  # recycling restores it


def trajectory_branches(gos):
    """No-jump and failure branches of the master-equation solution:
    p = ||phi(T)||^2, F_0 = |<ideal|phi(T)>|/sqrt(p), the failure state
    rho_fail = (rho - |phi><phi|)/(1 - p) (positive semidefinite) and
    F_fail = sqrt(<ideal| rho_fail |ideal>)."""
    phi, rho = orc.propagate_exact(gos.system, gos.psi0, gos.gate_time)
    p = float(np.vdot(phi, phi).real)
    assert 1.0 - p > 1e-6
    rho_fail = (rho - np.outer(phi, phi.conj())) / (1.0 - p)
    assert np.linalg.eigvalsh(0.5 * (rho_fail + rho_fail.conj().T)).min() > -1e-8
    f_success = abs(np.vdot(gos.ideal, phi)) / math.sqrt(p)
    f_fail = math.sqrt(max(float(np.vdot(gos.ideal, rho_fail @ gos.ideal).real), 0.0))
    return p, f_success, f_fail, rho


def test_decomposition_identity_and_branches():
    gos = mild_raman_gos()
    p, f_success, f_fail, rho = trajectory_branches(gos)
    f_direct = math.sqrt(float(np.vdot(gos.ideal, rho @ gos.ideal).real))
    combined = math.sqrt(p * f_success**2 + (1 - p) * f_fail**2)
    assert combined == pytest.approx(f_direct, abs=1e-6)


def test_raman_failure_branch_half_fidelity():
    _, _, f_fail, _ = trajectory_branches(mild_raman_gos(cooperativity=2000.0))
    assert f_fail == pytest.approx(0.5, abs=0.05)


def test_exchange_failure_branch_vanishes():
    cav = CavitySystem.from_cooperativity(2000.0, 0.1, 1.0)
    cfg = ExchangeConfig(cav, detuning=optimal_detuning(cav.kappa, 2000.0))
    gos = orc.exchange_open_system(cfg)
    _, _, f_fail, _ = trajectory_branches(gos)
    assert f_fail < 1e-8
    # hence the no-jump treatment is exact for this scheme, and the batched
    # closure carries no recycled weight for it
    f_nh = fidelity_numeric_exchange(cfg).single().fidelity
    assert orc.gate_fidelity(gos) == pytest.approx(f_nh, abs=1e-9)
    assert lb.gate_fidelity_lindblad(cfg).single().fidelity == pytest.approx(f_nh, abs=1e-9)


def test_lindblad_gate_fidelity_gauge():
    gos = mild_raman_gos()
    _, rho = orc.propagate_exact(gos.system, gos.psi0, gos.gate_time)
    ungauged = math.sqrt(float(np.vdot(gos.ideal, rho @ gos.ideal).real))
    gauged = orc.gate_fidelity(gos)
    assert gauged >= ungauged - 1e-12


def test_nonhermitian_equals_relative_phase_form():
    from cavity_gates.raman import fidelity_numeric_raman

    cav = CavitySystem.from_cooperativity(2000.0, 0.5, 1.0)
    cfg = symmetric_raman_config(cav, optimal_two_photon(cav.kappa, 2000.0),
                                 2.0 * cav.kappa, 0.05)
    gos = orc.raman_open_system(cfg)
    # the no-jump trajectory of the open system, in the gate's local-Z gauge:
    # |<frozen|phi(T)>| + |<active|phi(T)>| = (F_pi + 1)/2
    phi, _ = orc.propagate_exact(gos.system, gos.psi0, gos.gate_time)
    f_no_jump = abs(np.vdot(gos.ideal_frozen, phi)) + abs(np.vdot(gos.ideal_active, phi))
    assert f_no_jump == pytest.approx(fidelity_numeric_raman(cfg).single().fidelity, abs=1e-10)


def scheme_case(case):
    """(config, open system) of the Raman gate or of an exchange (mode, splitting) case."""
    cav = CavitySystem.from_cooperativity(500.0, 0.5, 1.0)
    if case == "raman":
        cfg = symmetric_raman_config(cav, optimal_two_photon(cav.kappa, 500.0),
                                     2.0 * cav.kappa, 0.05)
        return cfg, orc.raman_open_system(cfg)
    mode, splitting_eg = case
    cfg = ExchangeConfig(cav, detuning=optimal_detuning(cav.kappa, 500.0),
                         splitting_eg=splitting_eg, detuning_error=0.01, mode=mode)
    return cfg, orc.exchange_open_system(cfg)


@pytest.mark.parametrize("case", ["raman", *((mode, splitting_eg) for mode in ExchangeMode
                                              for splitting_eg in (math.inf, 300.0))],
                         ids=lambda case: case if case == "raman"
                         else f"exchange-{case[0].value}-{case[1]:g}")
def test_effective_hamiltonian_matches_scheme_blocks(case):
    cfg, gos = scheme_case(case)
    h_eff = orc.effective_hamiltonian(gos.system)
    ham = orc.sector_hamiltonians(cfg)
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
    return orc.OpenSystem(h, ((kappa, loss),))


def test_exact_closure_raises_at_exceptional_point():
    # the eigenbasis condition number is ~1e8 there, and the closed-form
    # jump integral would be off by 0.31 against the superoperator oracle
    with pytest.raises(ConvergenceFailure):
        orc.propagate_exact(emitter_cavity_pair(0.25), np.array([1.0, 0.0, 0.0]), 3.0)


def test_exact_closure_rejects_non_finite():
    # NaN passes the Hermiticity and absorbing checks, whose comparisons are
    # all false; the oracle rejects it before the eigensolver (whose kernel
    # makes that row NaN), and a NaN start state too
    system = emitter_cavity_pair(0.3)
    h = system.hamiltonian.copy()
    h[0, 1] = h[1, 0] = np.nan
    with pytest.raises(NonFinite):
        orc.propagate_exact(orc.OpenSystem(h, system.jumps), np.array([1.0, 0.0, 0.0]), 3.0)
    with pytest.raises(NonFinite):
        orc.propagate_exact(system, np.array([1.0, np.nan, 0.0]), 3.0)


def test_exact_closure_matches_superoperator_near_exceptional_point():
    system = emitter_cavity_pair(1.01 * 0.25)
    vecs = np.linalg.eig(orc.effective_hamiltonian(system))[1]
    assert 10.0 < np.linalg.cond(vecs) < linalg.EIG_COND_LIMIT
    psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    _, rho = orc.propagate_exact(system, psi0, 3.0)
    assert np.abs(rho - superoperator_rho(system, psi0, 3.0)).max() < 1e-10


def test_clamped_note_on_lindblad_and_numeric_paths():
    cav = CavitySystem.from_cooperativity(2000.0, 0.1, 1.0)
    cfg = ExchangeConfig(cav, detuning=optimal_detuning(cav.kappa, 2000.0), gamma_eff=50.0)
    lindblad = lb.gate_fidelity_lindblad(cfg).single()
    numeric = fidelity_numeric_exchange(cfg).single()
    for result in (lindblad, numeric):
        assert result.fidelity == 0.0
        assert result.notes == ("clamped",)


def config_row(config, shape, index):
    """The one-configuration config at `index` of an array-valued config of
    broadcast shape `shape`, its cavity included."""
    changes = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, CavitySystem):
            changes[f.name] = config_row(value, shape, index)
        elif isinstance(value, np.ndarray):
            changes[f.name] = float(np.broadcast_to(value, shape)[index])
    return dataclasses.replace(config, **changes)


def assert_batch_matches_oracle(cfg, rel=1e-10):
    batch = lb.gate_fidelity_lindblad(cfg)
    for index in np.ndindex(batch.shape):
        single = config_row(cfg, batch.shape, index)
        expected = orc.gate_fidelity(orc.open_system(single), single.gamma_eff)
        assert batch.fidelity[index] == pytest.approx(expected, rel=rel, abs=0.0), index
        assert batch.gate_time[index] == single.gate_time


def figure_grid(name):
    """The configs of the fig4 and fig6b grids (402 rows each) and a seeded
    300-row sample of the 14,641-row fig6a grid."""
    ratios = np.exp(np.linspace(math.log(1.0), math.log(1e4), 201))
    grid = np.exp(np.linspace(math.log(0.1), math.log(1e3), 121))
    if name == "fig4":
        cav = CavitySystem.from_cooperativity(8000.0, np.array([[0.1], [10.0]]), 1.0)
        return ExchangeConfig(cav, detuning=ratios * cav.kappa)
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    if name == "fig6b":
        laser = np.exp(np.linspace(math.log(0.1), math.log(1e3), 201)) * cav.kappa
        return symmetric_raman_config(cav, 0.5 * math.sqrt(8000.0) * cav.kappa, laser,
                                      np.array([[0.05], [1.0 / 3.0]]))
    two_photon, laser = (grid[i] * cav.kappa for i in
                         np.random.default_rng(6).integers(0, grid.size, (2, 300)))
    return symmetric_raman_config(cav, two_photon, laser, 0.05)


@pytest.mark.parametrize("name", ["fig4", "fig6b", "fig6a-sample"])
def test_batch_agrees_with_oracle_on_figure_grids(name):
    assert_batch_matches_oracle(figure_grid(name))


@pytest.mark.parametrize("case", ["raman", *((mode, splitting_eg) for mode in ExchangeMode
                                              for splitting_eg in (math.inf, 300.0))],
                         ids=lambda case: case if case == "raman"
                         else f"exchange-{case[0].value}-{case[1]:g}")
def test_batch_agrees_with_oracle_on_scheme_cases(case):
    cfg, _ = scheme_case(case)
    assert_batch_matches_oracle(cfg)


def random_exchange_batch(mode, n=400, seed=19):
    """n seeded rows of either mode with finite splittings, detuning errors
    and dephasing, from weak (g/kappa = 0.05) to strong (20) coupling."""
    rng = np.random.default_rng(seed)
    cooperativity = np.exp(rng.uniform(math.log(10.0), math.log(1e5), n))
    cav = CavitySystem.from_cooperativity(cooperativity, np.exp(rng.uniform(-3.0, 3.0, n)), 1.0)
    detuning = np.exp(rng.uniform(-1.0, 2.0, n)) * optimal_detuning(cav.kappa, cooperativity)
    return ExchangeConfig(cav, detuning=detuning,
                          splitting_eg=np.exp(rng.uniform(0.0, 8.0, n)) * cav.g,
                          detuning_error=rng.uniform(-0.2, 0.2, n) * cav.g**2 / detuning,
                          gamma_eff=rng.uniform(0.0, 1e-3, n), mode=mode)


@pytest.mark.parametrize("name", ["fig4", *(mode.value for mode in ExchangeMode)])
def test_exchange_lindblad_is_the_numeric_kernel(name):
    """With no recycled weight (J = 0), the Lindblad closure of the exchange
    gate takes F_pi from the same poles and residues and the same products
    as the numeric path, so the two fidelities agree bit for bit: on fig4's weak
    and strong grids and on seeded random rows of both modes."""
    cfg = figure_grid(name) if name == "fig4" else random_exchange_batch(ExchangeMode(name))
    lindblad = lb.gate_fidelity_lindblad(cfg).fidelity
    numeric = fidelity_numeric_exchange(cfg).fidelity
    assert np.array_equal(lindblad, numeric), np.count_nonzero(lindblad != numeric)


def test_small_stacks_need_no_eigenvectors(monkeypatch):
    """No 2x2 or 3x3 stack reaches `np.linalg.eig` or `np.linalg.inv`: not
    on the simple-exchange numeric path or Lindblad closure on fig4's grid,
    nor on the Raman numeric path on a slice of fig6b, where the 5x5 |ud>
    sector alone keeps its eigenvectors (one `eig` and one `inv` call)."""
    larger = []

    def guard(name, call):
        def guarded(a, *args, **kwargs):
            if np.shape(a)[-1] <= 3:
                raise AssertionError(f"np.linalg.{name} called on a stack of shape "
                                     f"{np.shape(a)}")
            larger.append(name)
            return call(a, *args, **kwargs)
        return guarded

    for name in ("eig", "inv"):
        monkeypatch.setattr(np.linalg, name, guard(name, getattr(np.linalg, name)))
    fig4 = figure_grid("fig4")
    fidelity_numeric_exchange(fig4)
    lb.gate_fidelity_lindblad(fig4)
    assert larger == []
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    fig6b = symmetric_raman_config(cav, optimal_two_photon(cav.kappa, 8000.0),
                                   np.geomspace(0.1, 1e3, 11) * cav.kappa,
                                   np.array([[0.05], [1.0 / 3.0]]))
    fidelity_numeric_exchange(fig6b)
    assert larger == ["eig", "inv"]


def test_raman_recycling_lands_on_target():
    # recycled population lifts the Raman gate above its no-jump fidelity
    cav = CavitySystem.from_cooperativity(1000.0, 0.3, 1.0)
    cfg = symmetric_raman_config(cav, optimal_two_photon(cav.kappa, 1000.0),
                                 20.0 * cav.kappa, 0.1)
    from cavity_gates.raman import fidelity_numeric_raman
    assert (lb.gate_fidelity_lindblad(cfg).single().fidelity
            > fidelity_numeric_raman(cfg).single().fidelity + 0.01)


#: the spectator sector of an ideal-splitting exchange row is the emitter-cavity
#: pair, at its exceptional point g = (kappa - gamma)/4 as Delta -> 0
EXCEPTIONAL_ROW = """
[cavity]
g = 0.25 rad_s
kappa = 1 rad_s
gamma = 1e-9 rad_s

[scheme.simple_exchange]
detuning = 1e-9 rad_s
splitting_eg = ideal
"""


def test_exceptional_point_row_takes_the_numeric_path(tmp_path):
    """An exchange row whose poles `linalg` does not trust is not refused:
    the closure takes F_pi from `exchange.phase_fidelity`, whose Taylor
    fallback serves that row, so the result is the numeric path's."""
    cav = CavitySystem(g=0.25, kappa=1.0, gamma=1e-9)
    cfg = ExchangeConfig(cav, detuning=np.array([10.0, 1e-9]))
    lossy_sectors, params = cfg.sectors()
    h_uu = np.broadcast_to(lossy_sectors(*params)[1], (2, 3, 3))
    assert linalg.resolvent_poles(h_uu).trusted.tolist() == [True, False]
    lindblad = lb.gate_fidelity_lindblad(cfg)
    assert np.array_equal(lindblad.fidelity, fidelity_numeric_exchange(cfg).fidelity)
    assert lindblad.method.value == "lindblad"
    path = tmp_path / "exceptional.ini"
    path.write_text(EXCEPTIONAL_ROW)
    records = {}
    for method in ("lindblad", "numeric"):
        result = CliRunner().invoke(main, ["evaluate", "simple_exchange", str(path),
                                           "--method", method])
        assert result.exit_code == 0, result.exception
        assert result.stderr == ""
        records[method] = json.loads(result.stdout)
    assert records["lindblad"]["method"] == "lindblad"
    assert records["lindblad"]["fidelity"] == records["numeric"]["fidelity"]


#: one Raman row of the CLI's config format; its sector eigenbases grow less
#: well conditioned with g/kappa
RAMAN_ROW = """
[cavity]
cooperativity = 1000
g_over_kappa = {g_over_kappa}
gamma = 1 rad_s

[scheme.raman]
two_photon = optimal
laser_detuning = 2 per_kappa
rabi_over_detuning = 0.1
"""


def test_untrusted_raman_row_is_refused(monkeypatch, tmp_path):
    """The Raman closure has no fallback. With the trust limit set between
    two rows' condition numbers, the row past it is refused with
    ConvergenceFailure, in a batch as alone, and the other row of the batch
    is its one-row result; alone on the CLI it exits 3 with one `error:`
    line."""
    texts = [RAMAN_ROW.format(g_over_kappa=g) for g in (0.1, 1.0)]
    rows = [build_raman(load_config_text(text)) for text in texts]
    conds = []
    for cfg in rows:
        lossy_sectors, params = cfg.sectors()
        conds.append(max(linalg.eigenbasis(np.asarray(h).reshape(1, *h.shape[-2:])).cond[0]
                         for h in lossy_sectors(*params)))
    assert conds[0] < conds[1] < linalg.EIG_COND_LIMIT
    monkeypatch.setattr(linalg, "EIG_COND_LIMIT", 0.5 * (conds[0] + conds[1]))
    batch = lb.gate_fidelity_lindblad(stack_configs(rows))
    assert batch[0] == lb.gate_fidelity_lindblad(rows[0]).single()
    assert np.isnan(batch.fidelity[1]) and np.isnan(batch.gate_time[1])
    with pytest.raises(ConvergenceFailure, match="eigenbasis of H_eff not trusted") as alone:
        lb.gate_fidelity_lindblad(rows[1]).single()
    with pytest.raises(ConvergenceFailure) as in_batch:
        batch[1]
    assert str(in_batch.value) == str(alone.value)
    path = tmp_path / "raman.ini"
    path.write_text(texts[1])
    result = CliRunner().invoke(main, ["evaluate", "raman", str(path), "--method", "lindblad"])
    assert result.exit_code == 3, result.exception
    assert result.stdout == ""
    assert result.stderr.startswith("error: eigenbasis of H_eff not trusted")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("detuning", [1e300, 1e308, np.array([10.0, 1e300])],
                         ids=["1e300", "1e308", "array"])
@pytest.mark.parametrize("evaluate", [fidelity_numeric_exchange,
                                      lb.gate_fidelity_lindblad],
                         ids=["numeric", "lindblad"])
def test_overflowing_phase_is_non_finite(evaluate, detuning):
    """||H|| T past the double range refuses the row with NonFinite on both
    paths, and no RuntimeWarning escapes first: the suite turns those into
    errors. In an array config the other row is its one-row result."""
    cav = CavitySystem(g=0.1, kappa=1.0, gamma=1.0)
    results = evaluate(ExchangeConfig(cav, detuning=detuning))
    if results.shape:
        assert results[0] == evaluate(ExchangeConfig(cav, detuning=detuning[0])).single()
    with pytest.raises(NonFinite):
        results[-1] if results.shape else results.single()
