import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavity_gates.errors import DivergentDenominator, QuadratureNotConverged, ValidityWarning
from cavity_gates.params import CavitySystem
from cavity_gates import scattering as sc


def make_config(cooperativity=4000.0, g_over_kappa=0.1, gate_time=2.0, delta_p=0.0,
                gamma_eff=0.0, delta_eps_a=0.0, delta_eps_b=0.0):
    cav = CavitySystem.from_cooperativity(cooperativity, g_over_kappa, 1.0)
    pulse = sc.PhotonPulse.from_gate_time(gate_time, delta_p=delta_p)
    return sc.ScatteringConfig(cav, pulse, delta_eps_a, delta_eps_b, gamma_eff)


def closed_form_amplitudes(cooperativity, kappa, omega):
    """Independent oracle: the resonant-emitter amplitudes written directly
    in terms of (C, kappa, gamma=1)."""
    c, k, w = cooperativity, kappa, omega
    s_uu = 1 - 2 * k * (1 - 2j * w) / (2 * k * c + (k - 2j * w) * (1 - 2j * w))
    s_ud = 1 - 2 * k * (1 - 2j * w) / (k * c + (k - 2j * w) * (1 - 2j * w))
    s_dd = -1 - 4j * w / (k - 2j * w)
    return s_uu, s_ud, s_ud, s_dd


def test_pulse_gate_time_relation():
    pulse = sc.PhotonPulse(sigma_p=2.0)
    assert pulse.gate_time == pytest.approx(8 * math.pi * math.sqrt(2 * math.log(2)) / 2.0)
    back = sc.PhotonPulse.from_gate_time(pulse.gate_time)
    assert back.sigma_p == pytest.approx(2.0, rel=1e-12)


def test_reflection_far_detuned_is_minus_one():
    cfg = make_config(cooperativity=4000.0)
    assert sc.spin_amplitudes(cfg, 0.0)[3] == pytest.approx(-1.0)


def test_reflection_resonant_low_cooperativity():
    cav = CavitySystem(g=1.0, kappa=4.0, gamma=1.0)  # C = 1
    cfg = sc.ScatteringConfig(cav, sc.PhotonPulse(1.0))
    # both emitters resonant: 1 - 2/(2C+1) = 1/3
    assert sc.spin_amplitudes(cfg, 0.0)[0] == pytest.approx(1.0 / 3.0, rel=1e-12)


@given(omega=st.floats(-1e4, 1e4))
def test_uncoupled_reflection_is_pure_phase(omega):
    cfg = make_config(cooperativity=4000.0, g_over_kappa=0.5)
    assert abs(abs(sc.spin_amplitudes(cfg, omega)[3]) - 1.0) < 1e-12


def test_divergent_denominator():
    cav = CavitySystem(g=1e-301, kappa=1e-301, gamma=1.0)
    with pytest.raises(DivergentDenominator):
        sc.spin_amplitudes(sc.ScatteringConfig(cav, sc.PhotonPulse(1.0)), 0.0)


def test_amplitudes_ideal_limit():
    cfg = make_config(cooperativity=1e12)
    s = sc.spin_amplitudes(cfg, 0.0)
    for value, target in zip(s, (1.0, 1.0, 1.0, -1.0)):
        assert value == pytest.approx(target, abs=1e-6)


def test_amplitude_ud_resonant_value():
    cfg = make_config(cooperativity=4000.0)
    s = sc.spin_amplitudes(cfg, 0.0)
    assert s[1] == pytest.approx(1.0 - 2.0 / 4001.0, rel=1e-12)


def test_amplitudes_match_closed_forms():
    for c, gok in ((4000.0, 0.1), (100.0, 0.5), (8000.0, 10.0)):
        cfg = make_config(cooperativity=c, g_over_kappa=gok)
        omega = np.linspace(-40.0, 40.0, 31)
        mine = sc.spin_amplitudes(cfg, omega)
        oracle = closed_form_amplitudes(c, cfg.cavity.kappa, omega)
        for a, b in zip(mine, oracle):
            assert np.abs(a - b).max() < 1e-10


def test_amplitudes_symmetric_in_systems():
    cfg = make_config(delta_eps_a=0.7, delta_eps_b=0.7)
    omega = np.linspace(-30.0, 30.0, 11)
    s = sc.spin_amplitudes(cfg, omega)
    assert np.abs(s[1] - s[2]).max() < 1e-14


def test_far_detuned_limit_vs_large_finite_detuning():
    # closed-form infinite-detuning limit against 1e9*gamma standing in for it
    cfg = make_config(cooperativity=4000.0, g_over_kappa=0.1)
    omega = 0.5 * 4000.0  # 0.5 * gamma * C
    s_ud = sc.spin_amplitudes(cfg, omega)[1]
    proxy = sc.spin_amplitudes(make_config(cooperativity=4000.0, g_over_kappa=0.1,
                                           delta_eps_b=1e9), omega)[0]
    assert s_ud == pytest.approx(proxy, abs=1e-5)


def test_density_matrix_hermitian():
    rng = np.random.default_rng(2)
    for _ in range(3):
        cfg = make_config(
            cooperativity=float(rng.uniform(100, 5000)),
            g_over_kappa=float(rng.uniform(0.02, 2.0)),
            gate_time=float(rng.uniform(0.2, 10.0)),
            delta_p=float(rng.uniform(-30, 30)),
            delta_eps_a=float(rng.uniform(-0.5, 0.5)),
        )
        rho = sc.reduced_density_matrix(cfg)
        assert np.abs(rho - rho.conj().T).max() < 1e-12


def test_density_matrix_plane_wave_limit():
    cfg = make_config(cooperativity=1e10, gate_time=1e7)  # sigma_p -> 0, C -> inf
    rho = sc.reduced_density_matrix(cfg)
    ideal = np.outer(sc.IDEAL_TARGET, sc.IDEAL_TARGET)
    assert np.abs(rho - ideal).max() < 1e-4


def test_density_matrix_trace_deficit():
    cfg = make_config(cooperativity=4000.0, gate_time=1e5)  # narrowband pulse
    trace = float(np.trace(sc.reduced_density_matrix(cfg)).real)
    s = sc.spin_amplitudes(cfg, 0.0)
    plane_wave = sum(abs(x) ** 2 for x in s) / 4.0
    assert trace == pytest.approx(plane_wave, abs=1e-6)
    # deficit is O(1/C): (2/C + 4/C + 4/C)/4 to leading order
    assert 1.0 - trace == pytest.approx(2.5 / 4000.0, rel=0.01)


def test_fidelity_numeric_cooperativity_limit():
    cfg = make_config(cooperativity=4000.0, gate_time=1e5)
    result = sc.fidelity_numeric(cfg)
    c = 4000.0
    assert result.fidelity == pytest.approx(1 - 1 / (c + 1) - 1 / (4 * c + 2), abs=1e-7)
    assert result.method.value == "numeric_amplitude"


def test_fidelity_numeric_matches_analytic_fig2_point():
    cfg = make_config(cooperativity=4000.0, g_over_kappa=0.1, gate_time=2.0,
                      delta_p=30.0, gamma_eff=1e-5)
    numeric = sc.fidelity_numeric(cfg).fidelity
    analytic = sc.fidelity_analytic(cfg).fidelity
    assert abs(numeric - analytic) < 0.01


def test_fidelity_numeric_single_interior_maximum():
    times = np.exp(np.linspace(math.log(0.05), math.log(50.0), 25))
    values = [sc.fidelity_numeric(make_config(gate_time=float(t), delta_p=30.0,
                                              g_over_kappa=0.01, gamma_eff=1e-5)).fidelity
              for t in times]
    values = np.array(values)
    interior_peaks = sum(
        1 for i in range(1, len(values) - 1)
        if values[i] > values[i - 1] and values[i] > values[i + 1])
    assert interior_peaks == 1
    assert values.argmax() not in (0, len(values) - 1)


def test_fidelity_numeric_decoherence_first_order():
    base = make_config(g_over_kappa=0.1, gate_time=2.0)
    damped = make_config(g_over_kappa=0.1, gate_time=2.0, gamma_eff=1e-3)
    f0 = sc.fidelity_numeric(base).fidelity
    f1 = sc.fidelity_numeric(damped).fidelity
    gamma_t = 1e-3 * 2.0
    assert f0 - f1 == pytest.approx(gamma_t, rel=0.02)


def test_fidelity_analytic_yb_case():
    gamma = 2 * math.pi * 596.0
    cav = CavitySystem.from_cooperativity(50_000.0, 0.1, gamma)
    pulse = sc.PhotonPulse.from_gate_time(1.0 / gamma, delta_p=30.0 * gamma)
    cfg = sc.ScatteringConfig(cav, pulse, gamma_eff=0.5 / 6.6e-3)
    result = sc.fidelity_analytic(cfg)
    assert result.fidelity == pytest.approx(0.98, abs=3e-3)
    assert result.fidelity == pytest.approx(0.979744, abs=2e-6)  # frozen
    assert result.gate_time == pytest.approx(267.04e-6, rel=1e-4)


def test_fidelity_analytic_ideal_limit():
    cfg = make_config(cooperativity=1e15, gate_time=1e6)
    assert sc.fidelity_analytic(cfg).fidelity > 1 - 1e-10


def test_fidelity_analytic_common_mode_detuning_drops():
    a = sc.fidelity_analytic(make_config(delta_eps_a=0.4, delta_eps_b=0.4)).fidelity
    b = sc.fidelity_analytic(make_config()).fidelity
    assert a == b


def test_fidelity_analytic_even_in_delta_p():
    a = sc.fidelity_analytic(make_config(delta_p=25.0)).fidelity
    b = sc.fidelity_analytic(make_config(delta_p=-25.0)).fidelity
    assert a == b


def test_fidelity_analytic_warns_outside_validity():
    cfg = make_config(cooperativity=4000.0, g_over_kappa=0.1, delta_p=2000.0)
    with pytest.warns(ValidityWarning):
        sc.fidelity_analytic(cfg)


def test_spectral_wandering_average_equals_substitution():
    # Gaussian averaging over delta_p with std sigma_star equals replacing
    # delta_p by sigma_star; exact because the fidelity is linear in delta_p^2
    sigma_star = 15.0
    nodes, weights = np.polynomial.hermite.hermgauss(20)
    average = 0.0
    for x, w in zip(nodes, weights):
        dp = math.sqrt(2.0) * sigma_star * x
        average += w * sc.fidelity_analytic(make_config(delta_p=dp)).fidelity
    average /= math.sqrt(math.pi)
    substituted = sc.fidelity_analytic(make_config(delta_p=sigma_star)).fidelity
    assert average == pytest.approx(substituted, abs=1e-12)


def test_optimal_gate_time_value_and_scaling():
    t_o = sc.optimal_gate_time(4000.0, 1.0, 1e-5)
    assert t_o == pytest.approx(2.469, rel=1e-3)
    # cube-root scaling
    assert sc.optimal_gate_time(4000.0, 1.0, 1e-5 / 8.0) == pytest.approx(2 * t_o, rel=1e-12)
    # limit behavior
    assert sc.optimal_gate_time(4000.0, 1.0, 1e12) < 1e-3
    with pytest.raises(Exception):
        sc.optimal_gate_time(4000.0, 1.0, 0.0)


def test_optimal_gate_time_matches_analytic_argmax():
    times = np.linspace(1.5, 3.5, 201)
    values = [sc.fidelity_analytic(make_config(g_over_kappa=0.01, gate_time=float(t),
                                               delta_p=30.0, gamma_eff=1e-5)).fidelity
              for t in times]
    t_best = times[int(np.argmax(values))]
    assert t_best == pytest.approx(sc.optimal_gate_time(4000.0, 1.0, 1e-5), rel=0.02)


def test_quadrature_converges_in_strong_coupling():
    # narrow polariton dips inside the pulse envelope must not break the
    # node-doubling convergence check
    cfg = make_config(g_over_kappa=10.0, gate_time=2.0, delta_p=100.0)
    rho = sc.reduced_density_matrix(cfg)
    assert float(np.trace(rho).real) <= 1.0 + 1e-9


def test_unrefined_panels_fail_the_doubling_check(monkeypatch):
    """Without the pole refinement the narrow polariton dips of the
    strong-coupling case are under-resolved: the 32/64-node check raises
    instead of returning a number."""
    cfg = make_config(g_over_kappa=10.0, gate_time=2.0, delta_p=100.0)
    monkeypatch.setattr(sc, "_frequency_panels", lambda config: np.array([-8.0, 8.0]))
    with pytest.raises(QuadratureNotConverged):
        sc.reduced_density_matrix(cfg)
    with pytest.raises(QuadratureNotConverged):
        sc.fidelity_numeric(cfg)


@settings(max_examples=60, deadline=None)
@given(st.floats(1.0, 1e5), st.floats(0.01, 10.0), st.floats(-100.0, 100.0),
       st.floats(-100.0, 100.0))
@example(4000.0, 0.1, 0.0, 0.0)
@example(100.0, 2.0, 3.5, 3.5)
def test_denominator_features_are_reflection_poles(cooperativity, g_over_kappa, delta_a, delta_b):
    """The bare cavity gives the first feature; every other feature
    w = center - i*half-width zeroes the reflection denominator of its
    emitter set (a, b, both). At equal detunings the two-emitter dark state
    is decoupled from the cavity and is not a feature (7 in all); emitters
    at least gamma apart give all 8. The denominator is cleared of its
    emitter factors r_k = gamma/2 + i(delta_k - w), and the residual is
    taken relative to the size of its coefficients at |w| (the root's
    backward error). The 1e-12 floor that keeps those half-widths positive
    is taken off first."""
    cfg = make_config(cooperativity, g_over_kappa, delta_eps_a=delta_a, delta_eps_b=delta_b)
    cav = cfg.cavity
    features = sc._denominator_features(cfg)
    assert len(features) in (7, 8)
    if delta_a == delta_b:
        assert len(features) == 7
    elif abs(delta_a - delta_b) >= cav.gamma:
        assert len(features) == 8
    assert features[0] == (0.0, cav.kappa / 2)
    emitter_sets = [(delta_a,)] * 2 + [(delta_b,)] * 2 + [(delta_a, delta_b)] * 3
    for (center, half_width), deltas in zip(features[1:], emitter_sets):
        w = center - 1j * (half_width - 1e-12)

        def cleared(cavity_factor, emitter_factors):
            others = [np.prod(emitter_factors[:k] + emitter_factors[k + 1:])
                      for k in range(len(emitter_factors))]
            return cavity_factor * np.prod(emitter_factors) + cav.g**2 * sum(others)

        value = cleared(cav.kappa / 2 - 1j * w, [cav.gamma / 2 + 1j * (d - w) for d in deltas])
        size = cleared(cav.kappa / 2 + abs(w), [cav.gamma / 2 + abs(d) + abs(w) for d in deltas])
        assert abs(value) <= 1e-10 * size


def test_cooperativity_limited_max_formula():
    assert sc.cooperativity_limited_max(100.0) == pytest.approx(
        1 - 1 / 101.0 - 1 / 402.0, rel=1e-14)
