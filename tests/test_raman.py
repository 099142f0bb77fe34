import math
import warnings

import numpy as np
import pytest

from cavity_gates import lindblad, raman as rm
from cavity_gates.errors import NonFinite, ValidityWarning, ZeroDecoherence
from cavity_gates.exchange import optimal_gate_time_exchange, phase_fidelity, ridge_f_pi
from cavity_gates.params import CavitySystem, clamp_unit, stack_configs
from lindblad_oracle import raman_open_system, sector_hamiltonians

#: the refusal of a gate time past the double range, on every path
TIME_NOT_FINITE = "^gate_time is not finite$"


def make_config(cooperativity=8000.0, g_over_kappa=0.1, two_photon_over_kappa=None,
                detuning_over_kappa=2.0, rabi_over_detuning=0.05, gamma_eff=0.0):
    cav = CavitySystem.from_cooperativity(cooperativity, g_over_kappa, 1.0)
    if two_photon_over_kappa is None:
        two_photon = rm.optimal_two_photon(cav.kappa, cooperativity)
    else:
        two_photon = two_photon_over_kappa * cav.kappa
    return rm.symmetric_raman_config(cav, two_photon, detuning_over_kappa * cav.kappa,
                                     rabi_over_detuning, gamma_eff)


def test_hamiltonian_uncoupled_diagonal():
    # the config refuses zero couplings, so its sector builder gets them directly
    cav = CavitySystem.from_cooperativity(100.0, 0.1, 1.0)
    cfg = rm.RamanConfig(cav, laser_detuning_a=7.0, laser_detuning_b=5.0,
                         two_photon_a=3.0, two_photon_b=2.0, rabi_a=0.0, rabi_b=0.0)
    lossy_sectors, params = cfg.sectors()
    h_up_down, h_up_up = (h.real for h in lossy_sectors(*params[:4], 0.0, 0.0, *params[6:]))
    assert np.allclose(h_up_down, np.diag([0.0, 7.0, -3.0, 5.0 + (2.0 - 3.0), 2.0 - 3.0]))
    assert np.allclose(h_up_up, np.diag([0.0, 7.0, -3.0]))


@pytest.mark.parametrize("name", ["g_a", "g_b"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, np.array([1.0, math.nan])])
def test_couplings_are_checked_at_construction(name, value):
    cav = CavitySystem.from_cooperativity(100.0, 0.1, 1.0)
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        rm.RamanConfig(cav, 7.0, 5.0, 3.0, 2.0, rabi_a=0.1, **{name: value})


def test_two_photon_resonance_degenerate_corners():
    cfg = make_config()
    ham = sector_hamiltonians(cfg)
    assert ham.h_up_down[0, 0] == 0.0
    assert ham.h_up_down[4, 4] == 0.0


def test_hamiltonian_symmetric_and_decay():
    cfg = make_config()
    ham = sector_hamiltonians(cfg)
    assert np.abs(ham.h_up_down - ham.h_up_down.T).max() == 0.0
    kappa = cfg.cavity.kappa
    decay_ud = -2.0 * np.imag(np.diag(ham.h_eff_up_down))
    assert decay_ud == pytest.approx([0.0, 1.0, kappa, 1.0, 0.0])
    decay_uu = -2.0 * np.imag(np.diag(ham.h_eff_up_up))
    assert decay_uu == pytest.approx([0.0, 1.0, kappa])


def test_matched_rabi_symmetric():
    assert rm.matched_rabi_b(2.0, 1.0, 1.0, 30.0, 30.0, 100.0) == pytest.approx(2.0)


def test_matched_rabi_large_detuning_limit():
    # with g^2 << delta*Delta the ratio approaches sqrt(Delta_b/Delta_a),
    # equalizing the two drive-induced light shifts Omega_k^2/Delta_k
    value = rm.matched_rabi_b(1.0, 1e-3, 1e-3, 30.0, 20.0, 1e4)
    assert value == pytest.approx(math.sqrt(20.0 / 30.0), rel=1e-6)


def test_matched_rabi_optimizes_phase_fidelity():
    # numeric argmax of F_pi over rabi_b lands on the matched value
    cooperativity, gok = 8000.0, 0.1
    cav = CavitySystem.from_cooperativity(cooperativity, gok, 1.0)
    two_photon = rm.optimal_two_photon(cav.kappa, cooperativity)
    det_a, det_b = 3.0 * cav.kappa, 2.0 * cav.kappa
    rabi_a = det_a / 20.0
    matched = rm.matched_rabi_b(rabi_a, cav.g, cav.g, det_a, det_b, two_photon)
    candidates = np.linspace(0.7, 1.3, 61) * rabi_a

    def f_pi(rabi_b):
        cfg = rm.RamanConfig(cav, det_a, det_b, two_photon, two_photon,
                             rabi_a=rabi_a, rabi_b=float(rabi_b))
        return phase_fidelity(*cfg.sectors(), cfg.gate_time)

    best = candidates[int(np.argmax([f_pi(o) for o in candidates]))]
    assert best == pytest.approx(matched, rel=0.02)
    # and the matched value beats the mirrored (swapped-ratio) alternative
    mirrored = rabi_a * math.sqrt((cav.g**2 + two_photon * det_a)
                                  / (cav.g**2 + two_photon * det_b))
    assert f_pi(matched) > f_pi(mirrored) + 0.01


def test_matched_rabi_coupling_correction():
    # unequal couplings shift the exact matching away from sqrt(Delta_b/Delta_a)
    # by the g^2/(delta*Delta) correction
    delta, det = 1000.0, 300.0
    g_a, g_b = 2.0, 1.0
    exact = rm.matched_rabi_b(1.0, g_a, g_b, det, det, delta)
    approx = 1.0   # Omega_A sqrt(Delta_B/Delta_A), with Omega_A = 1 and Delta_A = Delta_B
    expected_shift = (g_b**2 - g_a**2) / (2.0 * delta * det)
    assert exact != approx
    assert exact / approx - 1.0 == pytest.approx(expected_shift, rel=0.01)


def test_matched_rabi_computed_once_per_evaluator_call(monkeypatch):
    calls = []
    matched = rm.matched_rabi_b
    monkeypatch.setattr(rm, "matched_rabi_b", lambda *args: calls.append(args) or matched(*args))
    for detuning in (2.0, np.array([1.0, 2.0, 4.0])):
        calls.clear()
        rm.fidelity_analytic_raman(make_config(detuning_over_kappa=detuning))
        assert len(calls) == 1


def test_gate_time_reduces_to_exchange_form():
    assert rm.optimal_gate_time_raman(1.0, 8000.0, 1.0) == pytest.approx(
        optimal_gate_time_exchange(1.0, 8000.0), rel=1e-12)


def test_gate_time_quadratic_in_drive():
    assert rm.optimal_gate_time_raman(1.0, 8000.0, 20.0) == pytest.approx(
        4.0 * rm.optimal_gate_time_raman(1.0, 8000.0, 10.0), rel=1e-12)
    cfg_weak = make_config(rabi_over_detuning=0.025)
    cfg_strong = make_config(rabi_over_detuning=0.05)
    ratio = rm.raman_gate_time(cfg_weak) / rm.raman_gate_time(cfg_strong)
    assert ratio == pytest.approx(4.0, rel=1e-3)


def test_gate_time_yb_case():
    gamma = 2 * math.pi * 596.0
    t_o = rm.optimal_gate_time_raman(gamma, 50_000.0, 10.0)
    assert t_o == pytest.approx(750.36e-6, rel=1e-4)
    cav = CavitySystem.from_cooperativity(50_000.0, 0.1, gamma)
    cfg = rm.symmetric_raman_config(cav, rm.optimal_two_photon(cav.kappa, 50_000.0),
                                    2.0 * cav.kappa, 0.1)
    assert rm.raman_gate_time(cfg) == pytest.approx(t_o, rel=1e-3)


def test_gate_time_requires_drive():
    """With no drive there is no finite gate time: every Raman path refuses
    the row, as for an overflowing gate time."""
    cfg = make_config(rabi_over_detuning=0.0)
    assert rm.raman_gate_time(cfg) == math.inf
    for evaluate in (rm.fidelity_analytic_raman, rm.fidelity_numeric_raman,
                     lindblad.gate_fidelity_lindblad):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFinite, match=TIME_NOT_FINITE):
                evaluate(cfg).single()


@pytest.mark.parametrize("evaluate", [rm.fidelity_analytic_raman, rm.fidelity_numeric_raman,
                                      lindblad.gate_fidelity_lindblad],
                         ids=["analytic", "numeric", "lindblad"])
def test_underflowing_matched_drive_refuses_its_row(evaluate):
    """g^2 + delta Delta is > 0 for every RamanConfig, but at couplings of
    1e-170 and detunings of 1e-200 both sums underflow to 0 and the matched
    drive is 0/0: it is 0, as an underflowed drive is, and every Raman path
    refuses that row alone (its gate time is 0/0 too), with no
    RuntimeWarning, where it used to raise a ValueError for the whole batch."""
    cav = CavitySystem.from_cooperativity(1000.0, 0.1, 1.0)
    laser, two_photon, tiny = 2.0 * cav.kappa, rm.optimal_two_photon(cav.kappa, 1000.0), 1e-200
    rows = [rm.RamanConfig(cav, laser, laser, two_photon, two_photon, rabi_a=0.05 * laser,
                           g_a=cav.g, g_b=cav.g),
            rm.RamanConfig(cav, tiny, tiny, tiny, tiny, rabi_a=1e-201, g_a=1e-170, g_b=1e-170)]
    assert rows[1].drive_b == 0.0 and not np.isfinite(rm.raman_gate_time(rows[1]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = evaluate(stack_configs(rows))
        assert results[0] == evaluate(rows[0]).single()
        for refused in (lambda: results[1], evaluate(rows[1]).single):
            with pytest.raises(NonFinite, match=TIME_NOT_FINITE):
                refused()


def test_drives_off_gives_half():
    cfg = make_config(rabi_over_detuning=0.0)
    # no drive, no finite gate time: propagate for a fixed one
    f_pi = phase_fidelity(*cfg.sectors(), 5.0)
    assert 0.5 * (f_pi + 1.0) == pytest.approx(0.5, abs=1e-12)


def test_strong_drive_oscillates_on_ridge():
    grid = np.exp(np.linspace(math.log(5.0), math.log(50.0), 40))
    values = np.array([
        rm.fidelity_numeric_raman(make_config(detuning_over_kappa=float(d),
                                              rabi_over_detuning=1.0 / 3.0)).single().fidelity
        for d in grid])
    peaks = sum(1 for i in range(1, len(values) - 1)
                if values[i] > values[i - 1] and values[i] > values[i + 1])
    assert peaks >= 3


def test_ridge_maximum_mini_grid():
    grid = np.exp(np.linspace(math.log(5.0), math.log(500.0), 31))
    values = [rm.fidelity_numeric_raman(
        make_config(two_photon_over_kappa=float(d))).single().fidelity for d in grid]
    best = grid[int(np.argmax(values))]
    ridge = 0.5 * math.sqrt(8000.0)
    assert abs(best / ridge - 1.0) < 0.15


def test_analytic_reduces_to_ridge_form_for_weak_drive():
    cfg = make_config(rabi_over_detuning=1e-4, detuning_over_kappa=10.0)
    expected = 0.5 * (ridge_f_pi(cfg.two_photon, cfg.cavity.kappa, 8000.0) + 1.0)
    assert rm.fidelity_analytic_raman(cfg).single().fidelity == pytest.approx(
        expected, abs=1e-5)


def test_analytic_matches_numeric_on_ridge():
    for dok in (0.5, 5.0, 50.0):
        cfg = make_config(detuning_over_kappa=dok)
        f_num = rm.fidelity_numeric_raman(cfg).single().fidelity
        f_ana = rm.fidelity_analytic_raman(cfg).single().fidelity
        assert abs(f_num - f_ana) < 0.01


def test_analytic_rabi_boundary_dip():
    # at delta*Delta = g^2 the sine factor is sin(pi/4)
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    two_photon = 10.0 * cav.kappa
    detuning = cav.g**2 / two_photon
    cfg = rm.RamanConfig(cav, detuning, detuning, two_photon, two_photon,
                         rabi_a=1e-6 * detuning)
    f_pi = ridge_f_pi(two_photon, cav.kappa, 8000.0)
    expected = 0.5 * (math.sin(math.pi / 4.0) * f_pi + 1.0)
    with pytest.warns(ValidityWarning):  # cavity-Rabi adiabatic boundary
        result = rm.fidelity_analytic_raman(cfg).single()
    assert result.fidelity == pytest.approx(expected, abs=1e-4)


def test_scheme_correspondence_same_ridge_function():
    # the Raman ridge fidelity is the simple-exchange one with the two-photon
    # detuning taking the cavity detuning's place
    grid = np.exp(np.linspace(math.log(1.0), math.log(1e3), 25))
    kappa, c = 37.0, 5000.0
    direct = ridge_f_pi(grid * kappa, kappa, c)
    inline = (np.exp(-2 * np.pi * grid * kappa / (c * kappa) - np.pi / (2 * grid))
              * np.cosh(np.pi / (4 * grid)) ** 2)
    assert np.abs(direct - inline).max() < 1e-12


def test_max_fidelity_yb_case():
    gamma = 2 * math.pi * 596.0
    cav = CavitySystem.from_cooperativity(50_000.0, 0.1, gamma)
    cfg = rm.symmetric_raman_config(cav, rm.optimal_two_photon(cav.kappa, 50_000.0),
                                    2.0 * cav.kappa, 0.1, gamma_eff=0.5 / 6.6e-3)
    result = rm.max_fidelity_raman(cfg)
    assert result.fidelity == pytest.approx(0.93, abs=5e-3)
    assert result.fidelity == pytest.approx(0.929327, abs=2e-6)  # frozen
    assert result.gate_time == pytest.approx(750.4e-6, rel=1e-3)


def test_max_fidelity_two_photon_error_penalty():
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    t_o = rm.optimal_gate_time_raman(1.0, 8000.0, 20.0)
    err = 2 * math.pi / t_o
    # small gamma_eff keeps both points below the cooperativity ceiling, so
    # the quadratic penalty is compared between uncapped expansions
    base = rm.RamanConfig(cav, 2 * cav.kappa, 2 * cav.kappa,
                          rm.optimal_two_photon(cav.kappa, 8000.0),
                          rm.optimal_two_photon(cav.kappa, 8000.0),
                          rabi_a=0.1 * cav.kappa, rabi_b=0.1 * cav.kappa,
                          gamma_eff=1e-5)
    hit = rm.RamanConfig(cav, 2 * cav.kappa, 2 * cav.kappa,
                         rm.optimal_two_photon(cav.kappa, 8000.0) + err / 2,
                         rm.optimal_two_photon(cav.kappa, 8000.0) - err / 2,
                         rabi_a=0.1 * cav.kappa, rabi_b=0.1 * cav.kappa,
                         gamma_eff=1e-5)
    drop = rm.max_fidelity_raman(base).fidelity - rm.max_fidelity_raman(hit).fidelity
    # cancellation in (delta_a - delta_b) against ~1e7 detunings costs ~1e-8
    assert drop == pytest.approx(math.pi**2 / 16.0, rel=1e-6)


def test_max_fidelity_ideal_limit():
    assert rm.max_fidelity_raman(make_config(cooperativity=1e14)).fidelity > 1 - 1e-6


def test_max_spectral_separation_values():
    point = rm.max_spectral_separation(kappa=10.0, gamma=1.0, gamma_eff=0.01,
                                       cooperativity=8000.0)
    assert point.separation == pytest.approx(112.54, rel=1e-4)
    assert point.rabi_over_detuning == pytest.approx(0.2, rel=1e-12)
    assert point.gate_time == pytest.approx(math.pi / (2 * 0.01 * math.sqrt(8000.0)), rel=1e-12)
    # returned laser detuning keeps the separation small relative to it
    ratio = point.separation / point.laser_detuning
    assert ratio == pytest.approx(2.0 / math.sqrt(math.pi * math.sqrt(8000.0)), rel=1e-12)
    assert ratio < 2.0 * math.sqrt(2.0 / (math.pi * math.sqrt(8000.0)))
    with pytest.raises(ZeroDecoherence):
        rm.max_spectral_separation(10.0, 1.0, 0.0, 8000.0)


#: fig6a grid: two-photon and laser detuning over kappa, 121 log-spaced values each
FIG6A_GRID = np.exp(np.linspace(math.log(0.1), math.log(1e3), 121))


@pytest.mark.parametrize("i, j", [(0, 21), (30, 30), (60, 60), (90, 20), (120, 0),
                                  (120, 120), (0, 120)])
def test_phase_fidelity_matches_mpmath_expm(i, j):
    # accuracy oracle at ||H|| T from 1e4 to 1.3e11: F_pi against a 60-digit
    # matrix exponential, within 1e-2 machine epsilons per unit of ||H||_2 T
    # (measured up to 2.5e-3 of it, on the (0, 120) row)
    import mpmath
    cfg = make_config(two_photon_over_kappa=FIG6A_GRID[i], detuning_over_kappa=FIG6A_GRID[j])
    t = cfg.gate_time
    ham = sector_hamiltonians(cfg)
    sectors = (ham.h_eff_up_down, ham.h_eff_up_up)
    with mpmath.workdps(60):
        ud, uu = (mpmath.expm(-1j * mpmath.mpf(t) * mpmath.matrix(h.tolist()))[0, 0]
                  for h in sectors)
        exact = float(abs(uu - ud) / 2)
    norm_t = max(np.linalg.norm(h, 2) for h in sectors) * t
    f_pi = phase_fidelity(*cfg.sectors(), cfg.gate_time)
    assert abs(f_pi - exact) <= 1e-2 * np.finfo(float).eps * norm_t


def test_shelved_sectors_carry_no_phase():
    gos = raman_open_system(make_config())
    h = gos.system.hamiltonian
    for idx in (8, 9):  # the |d,s> and |d,d> ground states
        assert np.abs(h[idx, :]).max() == 0.0
        assert np.abs(h[:, idx]).max() == 0.0


def test_config_warns_for_strong_drive():
    with pytest.warns(ValidityWarning):
        make_config(rabi_over_detuning=0.6)


@pytest.mark.parametrize("evaluate", [rm.raman_gate_time, rm.fidelity_analytic_raman,
                                      rm.fidelity_numeric_raman, lindblad.gate_fidelity_lindblad],
                         ids=["gate-time", "analytic", "numeric", "lindblad"])
def test_overflowing_gate_time_is_non_finite(evaluate):
    """A gate time past the double range (d Delta_A Delta_B overflows) is
    not finite, and every Raman path refuses its row with NonFinite, in an array
    config too, where the other row is its one-row result; no RuntimeWarning
    escapes first."""
    rows = [rm.RamanConfig(CavitySystem(0.1, 1.0, 1.0), laser, laser, 10.0, 10.0, rabi_a=rabi)
            for laser, rabi in ((1.0, 0.1), (1e300, 1e299))]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = evaluate(stack_configs(rows))
        if evaluate is rm.raman_gate_time:
            assert results[0] == rm.raman_gate_time(rows[0]) and not np.isfinite(results[1])
            return
        assert results[0] == evaluate(rows[0]).single()
        for refused in (lambda: results[1], evaluate(rows[1]).single):
            with pytest.raises(NonFinite, match=TIME_NOT_FINITE):
                refused()



def test_overflowing_drive_is_non_finite_on_the_closed_form():
    """With a finite gate time, Omega_A Omega_B past the double range makes
    the closed form's drive terms NaN: it raises NonFinite, and no
    RuntimeWarning escapes first. The numeric and Lindblad paths, which
    need no Omega, return F = 1/2 (the gate time is ~3e-299)."""
    with pytest.warns(ValidityWarning, match="drive is not weak"):
        config = rm.RamanConfig(CavitySystem(1e-10, 1.0, 1.0), 1.0, 1.0, 10.0, 10.0,
                                rabi_a=1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.simplefilter("ignore", ValidityWarning)   # the drive is past the edge
        with pytest.raises(NonFinite, match="fidelity is nan"):
            rm.fidelity_analytic_raman(config).single()
        for evaluate in (rm.fidelity_numeric_raman, lindblad.gate_fidelity_lindblad):
            assert evaluate(config).fidelity == 0.5


def _raman_family(rng, n, matched):
    """n random Raman configs, C from 10 to 1e5 and g/kappa from 0.01 to 10:
    the first third symmetric, the rest with unequal detunings and
    couplings. drive_b is matched, or else set apart from rabi_a on the
    asymmetric rows. Gamma up to 0.1 clamps some rows to 0."""
    def log_uniform(lo, hi):
        return 10.0 ** rng.uniform(lo, hi, n)

    cav = CavitySystem.from_cooperativity(log_uniform(1, 5), log_uniform(-2, 1), 1.0)
    two_photon, detuning = cav.kappa * log_uniform(-1, 3), cav.kappa * log_uniform(-1, 3)
    rabi = log_uniform(-3, -0.4) * detuning
    spread = np.where(np.arange(n) < n // 3, 0.0, rng.uniform(-0.3, 0.3, (4, n)))
    return rm.RamanConfig(
        cav, laser_detuning_a=detuning, laser_detuning_b=detuning * (1 + spread[0]),
        two_photon_a=two_photon, two_photon_b=two_photon * (1 + spread[1]), rabi_a=rabi,
        rabi_b=None if matched else rabi * (1 + spread[3]), g_a=cav.g,
        g_b=cav.g * (1 + spread[2]), gamma_eff=log_uniform(-7, -1))


def test_closed_form_kernel_is_the_evaluator_bit_for_bit():
    """`fidelity_analytic_raman` is its checks around `_closed_form`: on
    seeded families (symmetric rows, rows with the "detuning errors not
    modeled" note, clamped rows, matched and unmatched drives), the
    kernel's output, clamped as `gate_results` clamps it, equals the
    evaluator's fidelity bit for bit."""
    rng = np.random.default_rng(26)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for matched in (True, False, True, False):
            cfg = _raman_family(rng, 300, matched)
            result = rm.fidelity_analytic_raman(cfg)
            kernel = rm._closed_form(cfg.cavity, cfg.two_photon, cfg.laser_detuning,
                                     np.sqrt(cfg.rabi_a * cfg.drive_b),
                                     cfg.coupling_a * cfg.coupling_b, cfg.gamma_eff,
                                     cfg.gate_time)
            assert np.array_equal(clamp_unit(kernel), result.fidelity)
            unmodeled = result.notes["detuning errors not modeled"]
            assert 0 < unmodeled.sum() < 300 and result.notes["clamped"].any()
