import math

import numpy as np
import pytest

from cavity_gates import exchange as ex
from cavity_gates import linalg
from cavity_gates.errors import NonFinite
from cavity_gates.params import CavitySystem
from lindblad_oracle import sector_hamiltonians


def make_config(cooperativity=8000.0, g_over_kappa=0.1, detuning_over_kappa=None,
                **kwargs):
    cav = CavitySystem.from_cooperativity(cooperativity, g_over_kappa, 1.0)
    if detuning_over_kappa is None:
        detuning = ex.optimal_detuning(cav.kappa, cooperativity)
    else:
        detuning = detuning_over_kappa * cav.kappa
    return ex.ExchangeConfig(cav, detuning=detuning, **kwargs)


def uncoupled_sectors(cfg):
    """(sector builder, params) of a config with every coupling zero, which
    the config itself refuses."""
    lossy_sectors, params = cfg.sectors()
    return lossy_sectors, (params[0], 0.0, 0.0, 0.0, *params[4:])


def test_hamiltonians_uncoupled_diagonal():
    cfg = make_config(detuning_over_kappa=3.0, splitting_eg=50.0, detuning_error=0.4)
    lossy_sectors, params = uncoupled_sectors(cfg)
    h_up_down, h_up_up = lossy_sectors(*params).real
    delta = cfg.detuning
    assert np.allclose(h_up_down, np.diag([0.0, delta, -0.4]))
    assert np.allclose(h_up_up, np.diag([0.0, delta, 50.0 - 0.4]))


@pytest.mark.parametrize("name", ["g_up_a", "g_down_b", "g_up_b"])
@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, np.array([1.0, math.nan])])
def test_couplings_are_checked_at_construction(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0"):
        make_config(**{name: value})


def test_hamiltonians_symmetric_real():
    cfg = make_config(detuning_over_kappa=5.0, splitting_eg=100.0)
    ham = sector_hamiltonians(cfg)
    for h in (ham.h_up_down, ham.h_up_up):
        assert np.abs(h - h.T).max() == 0.0
        assert np.abs(h.imag).max() == 0.0


def test_hamiltonians_decay_structure():
    cfg = make_config(detuning_over_kappa=5.0, splitting_eg=100.0)
    ham = sector_hamiltonians(cfg)
    kappa = cfg.cavity.kappa
    decay = -2.0 * np.imag(np.diag(ham.h_eff_up_down))
    assert decay == pytest.approx([1.0, kappa, 1.0])


def test_resonant_degeneracy_after_tuning():
    # equal couplings: end states of the resonant sector degenerate
    cfg = make_config(detuning_over_kappa=5.0)
    ham = sector_hamiltonians(cfg)
    assert ham.h_up_down[2, 2] == 0.0 == ham.h_up_down[0, 0]
    # unequal couplings: offset by the Stark-shift mismatch
    cfg2 = make_config(detuning_over_kappa=5.0, g_up_a=2.0, g_down_b=1.0)
    ham2 = sector_hamiltonians(cfg2)
    assert ham2.h_up_down[2, 2] == pytest.approx(-(4.0 - 1.0) / cfg2.detuning)


def test_tuning_maximizes_phase_fidelity():
    # the resonance-error argmax of F_pi sits at zero error, up to the
    # higher-order phase mismatch between the two sectors (~0.06 g^2/Delta)
    cfg0 = make_config(cooperativity=1000.0, detuning_over_kappa=10.0)
    unit = cfg0.cavity.g ** 2 / cfg0.detuning
    errors = np.linspace(-0.5, 0.5, 101) * unit
    configs = [make_config(cooperativity=1000.0, detuning_over_kappa=10.0,
                           detuning_error=float(e)) for e in errors]
    values = [ex.phase_fidelity(*cfg.sectors(), cfg.gate_time) for cfg in configs]
    assert abs(errors[int(np.argmax(values))]) <= 0.1 * unit


def test_gate_time_formulas():
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    delta = ex.optimal_detuning(cav.kappa, 8000.0)
    assert ex.exchange_gate_time(delta, cav.g, cav.g) == pytest.approx(
        ex.optimal_gate_time_exchange(1.0, 8000.0), rel=1e-12)
    assert ex.exchange_gate_time(2 * delta, cav.g, cav.g) == pytest.approx(
        2 * ex.exchange_gate_time(delta, cav.g, cav.g), rel=1e-12)


@pytest.mark.parametrize("evaluate", [ex.fidelity_numeric_exchange,
                                      ex.fidelity_analytic_exchange],
                         ids=["numeric", "analytic"])
def test_underflowing_couplings_refuse_their_row(evaluate):
    """g_a g_b underflows to 0 at couplings of 1e-170: T = pi Delta/(g_a g_b)
    is not finite, so the row is refused with NonFinite, alone in an array
    config, where the other row is its one-row result; no ZeroDivisionError
    and no RuntimeWarning."""
    cav = make_config(cooperativity=1000.0, g_over_kappa=0.1).cavity
    tiny = ex.ExchangeConfig(cav, detuning=1.0, g_up_a=1e-170, g_down_b=1e-170)
    with pytest.raises(NonFinite):
        evaluate(tiny).single()
    g = np.array([cav.g, 1e-170])
    batch = evaluate(ex.ExchangeConfig(cav, detuning=np.array([10.0 * cav.kappa, 1.0]),
                                       g_up_a=g, g_down_b=g))
    assert batch[0] == evaluate(ex.ExchangeConfig(cav, detuning=10.0 * cav.kappa)).single()
    assert np.isnan(batch.fidelity[1]) and np.isnan(batch.gate_time[1])
    with pytest.raises(NonFinite):
        batch[1]


def test_gate_time_yb_case():
    gamma = 2 * math.pi * 596.0
    assert ex.optimal_gate_time_exchange(gamma, 50_000.0) == pytest.approx(7.5036e-6, rel=1e-4)


def test_f_pi_closed_form_ideal_limits():
    cfg = make_config(cooperativity=1e12, detuning_over_kappa=1e6)
    assert ex.f_pi_closed_form(cfg) > 1 - 1e-4
    ridge_cfg = make_config(cooperativity=8000.0)
    assert 0.5 * (ex.f_pi_closed_form(ridge_cfg) + 1.0) == pytest.approx(0.966225, abs=1e-6)
    assert 0.5 * (ex.f_pi_closed_form(ridge_cfg) + 1.0) == pytest.approx(0.965, abs=2e-3)


def test_f_pi_closed_form_error_sensitivity():
    unit = make_config().cavity.g ** 2 / make_config().detuning
    base = ex.f_pi_closed_form(make_config())
    hit = ex.f_pi_closed_form(make_config(detuning_error=unit))
    assert hit < base - 0.05
    # monotone decrease for increasing |error| near zero
    values = [ex.f_pi_closed_form(make_config(detuning_error=s * unit))
              for s in (0.0, 0.05, 0.1, 0.2)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_f_pi_closed_form_even_in_error():
    unit = make_config().cavity.g ** 2 / make_config().detuning
    plus = ex.f_pi_closed_form(make_config(detuning_error=0.3 * unit))
    minus = ex.f_pi_closed_form(make_config(detuning_error=-0.3 * unit))
    assert plus == pytest.approx(minus, abs=1e-12)


def test_numeric_matches_closed_form_sampled():
    for dok in (10.0, 44.7, 200.0):
        cfg = make_config(detuning_over_kappa=dok)
        f_num = ex.phase_fidelity(*cfg.sectors(), cfg.gate_time)
        f_closed = ex.f_pi_closed_form(cfg)
        assert abs(f_num - f_closed) < 0.005


def test_numeric_peak_near_ridge():
    grid = np.exp(np.linspace(math.log(10.0), math.log(200.0), 41))
    values = ex.fidelity_numeric_exchange(make_config(detuning_over_kappa=grid)).fidelity
    best = grid[int(np.argmax(values))]
    ridge = 0.5 * math.sqrt(8000.0)
    assert abs(best / ridge - 1.0) < 0.12


def test_numeric_strong_coupling_oscillates():
    grid = np.linspace(1.0, 40.0, 60)
    values = np.array([
        ex.fidelity_numeric_exchange(
            make_config(g_over_kappa=10.0, detuning_over_kappa=float(d))).single().fidelity
        for d in grid])
    peaks = sum(1 for i in range(1, len(values) - 1)
                if values[i] > values[i - 1] and values[i] > values[i + 1])
    assert peaks >= 3


def test_decoupled_amplitude_is_bare_decay():
    lossy_sectors, params = uncoupled_sectors(make_config(detuning_over_kappa=5.0,
                                                          splitting_eg=100.0))
    t = 2.0
    amp = linalg.return_amplitudes(lossy_sectors(*params)[0][None], t)[0]
    assert amp == pytest.approx(math.exp(-t / 2.0), rel=1e-12)
    # zero couplings, no finite gate time: propagate for a fixed one
    assert ex.phase_fidelity(lossy_sectors, params, t) == pytest.approx(0.0, abs=1e-12)


def test_gamma_enters_linearly():
    t = ex.exchange_gate_time(make_config().detuning, make_config().cavity.g,
                              make_config().cavity.g)
    f0 = ex.fidelity_numeric_exchange(make_config()).single().fidelity
    f1 = ex.fidelity_numeric_exchange(make_config(gamma_eff=0.01)).single().fidelity
    assert f0 - f1 == pytest.approx(0.01 * t, rel=1e-9)


def test_max_fidelity_yb_case():
    gamma = 2 * math.pi * 596.0
    cav = CavitySystem.from_cooperativity(50_000.0, 0.1, gamma)
    cfg = ex.ExchangeConfig(
        cav, detuning=ex.optimal_detuning(cav.kappa, 50_000.0),
        splitting_eg=2 * math.pi * 0.2e9,
        gamma_eff=0.5 / 6.6e-3 + 0.5 * 9e3)
    result = ex.max_fidelity_exchange(cfg)
    assert result.fidelity == pytest.approx(0.952, abs=3e-3)
    assert result.fidelity == pytest.approx(0.951837, abs=2e-6)  # frozen
    assert result.gate_time == pytest.approx(7.5e-6, rel=0.01)


def test_max_fidelity_ideal_and_limits():
    ideal = ex.max_fidelity_exchange(make_config(cooperativity=8000.0))
    expansion = 1 - math.pi / math.sqrt(8000.0) + (3 * math.pi**2 / 32.0) * 12.0 / 8000.0
    ceiling = 0.5 * (ex.ridge_f_pi(ex.optimal_detuning(make_config().cavity.kappa, 8000.0),
                                   make_config().cavity.kappa, 8000.0) + 1.0)
    # in the ideal case the expansion overshoots the unexpanded ceiling by
    # O(C^-3/2) and the ceiling wins
    assert ideal.fidelity == pytest.approx(min(expansion, ceiling), rel=1e-12)
    assert ideal.fidelity == pytest.approx(0.9654, abs=2e-3)
    assert ex.max_fidelity_exchange(make_config(cooperativity=1e14)).fidelity > 1 - 1e-6
    # once decoherence outweighs the O(C^-3/2) overshoot the expansion itself
    # is reported
    damped = ex.max_fidelity_exchange(make_config(cooperativity=8000.0, gamma_eff=1e-3))
    t_o = ex.optimal_gate_time_exchange(1.0, 8000.0)
    assert damped.fidelity == pytest.approx(expansion - 1e-3 * t_o, rel=1e-12)


def test_max_fidelity_monotone_degradation():
    unit = 2 * math.pi / ex.optimal_gate_time_exchange(1.0, 8000.0)
    f_by_gamma = [ex.max_fidelity_exchange(make_config(gamma_eff=g)).fidelity
                  for g in (0.0, 0.5, 1.0, 2.0)]
    assert all(a >= b for a, b in zip(f_by_gamma, f_by_gamma[1:]))
    f_by_error = [ex.max_fidelity_exchange(
        make_config(detuning_error=s * unit)).fidelity for s in (0.0, 0.05, 0.1, 0.2)]
    assert all(a >= b for a, b in zip(f_by_error, f_by_error[1:]))


def test_equal_resonant_mode_equivalent():
    # ideal spectator: the two modes are exact mirror images
    kwargs = dict(cooperativity=2000.0, detuning_over_kappa=20.0)
    f_opposite = ex.fidelity_numeric_exchange(
        make_config(mode=ex.ExchangeMode.OPPOSITE_RESONANT, **kwargs)).single().fidelity
    f_equal = ex.fidelity_numeric_exchange(
        make_config(mode=ex.ExchangeMode.EQUAL_RESONANT, **kwargs)).single().fidelity
    assert f_opposite == pytest.approx(f_equal, abs=1e-12)
    # finite spectator splitting: equivalent up to the spectator-phase sign
    cfg = make_config(**kwargs)
    splitting = 50.0 * cfg.cavity.g ** 2 / cfg.detuning
    f_opposite = ex.fidelity_numeric_exchange(
        make_config(splitting_eg=splitting, mode=ex.ExchangeMode.OPPOSITE_RESONANT,
                    **kwargs)).single().fidelity
    f_equal = ex.fidelity_numeric_exchange(
        make_config(splitting_eg=splitting, mode=ex.ExchangeMode.EQUAL_RESONANT,
                    **kwargs)).single().fidelity
    assert f_opposite == pytest.approx(f_equal, abs=0.01)


def test_analytic_result_wrapper():
    result = ex.fidelity_analytic_exchange(make_config()).single()
    assert result.method.value == "analytic"
    assert result.success_probability == 1.0
    assert 0.9 < result.fidelity < 1.0


@pytest.mark.parametrize("detuning", [1e-20, 1e-100, 1e-300])
def test_closed_form_far_below_kappa_is_non_finite(detuning):
    """cosh(pi kappa/(2 Delta)) overflows for Delta below about kappa/450:
    the closed form refuses the row with NonFinite, on the scalar and the
    batch path (that row alone, NaN), and raises no RuntimeWarning (an
    error in this suite)."""
    cfg = make_config(cooperativity=1000.0, g_over_kappa=0.1)
    tiny = ex.ExchangeConfig(cfg.cavity, detuning=detuning)
    with pytest.raises(NonFinite, match="fidelity is nan"):
        ex.fidelity_analytic_exchange(tiny).single()
    batch = ex.fidelity_analytic_exchange(
        ex.ExchangeConfig(cfg.cavity, detuning=np.array([cfg.detuning, detuning])))
    assert batch[0] == ex.fidelity_analytic_exchange(cfg).single()
    assert np.isnan(batch.fidelity[1]) and np.isnan(batch.gate_time[1])
    with pytest.raises(NonFinite, match="fidelity is nan"):
        batch[1]
