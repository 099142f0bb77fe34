import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cavity_gates.errors import DivergentDenominator, NonFinite, ValidityWarning
from cavity_gates.params import CavitySystem, clamp_unit, config_shape
from cavity_gates import figures, linalg, scattering as sc
from test_batch import row


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
    # C = 4 g^2/(kappa gamma) = 4e-19 > 0. At omega = 0 every reflection
    # denominator is about kappa/2 = 5e-302, small but not 0, and s_dd is
    # exactly -1; at s_dd's pole omega = -i kappa/2 its denominator is 0
    cav = CavitySystem(g=1e-160, kappa=1e-301, gamma=1.0)
    config = sc.ScatteringConfig(cav, sc.PhotonPulse(1.0))
    assert sc.spin_amplitudes(config, 0.0)[3] == -1.0
    with pytest.raises(DivergentDenominator):
        sc.spin_amplitudes(config, -0.5j * cav.kappa)


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
    result = sc.fidelity_numeric(cfg).single()
    c = 4000.0
    assert result.fidelity == pytest.approx(1 - 1 / (c + 1) - 1 / (4 * c + 2), abs=1e-7)
    assert result.method.value == "numeric_amplitude"


def test_fidelity_numeric_matches_analytic_fig2_point():
    cfg = make_config(cooperativity=4000.0, g_over_kappa=0.1, gate_time=2.0,
                      delta_p=30.0, gamma_eff=1e-5)
    numeric = sc.fidelity_numeric(cfg).single().fidelity
    analytic = sc.fidelity_analytic(cfg).single().fidelity
    assert abs(numeric - analytic) < 0.01


def test_fidelity_numeric_single_interior_maximum():
    times = np.exp(np.linspace(math.log(0.05), math.log(50.0), 25))
    values = [sc.fidelity_numeric(make_config(gate_time=float(t), delta_p=30.0,
                                              g_over_kappa=0.01, gamma_eff=1e-5)).single().fidelity
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
    f0 = sc.fidelity_numeric(base).single().fidelity
    f1 = sc.fidelity_numeric(damped).single().fidelity
    gamma_t = 1e-3 * 2.0
    assert f0 - f1 == pytest.approx(gamma_t, rel=0.02)


def test_fidelity_analytic_yb_case():
    gamma = 2 * math.pi * 596.0
    cav = CavitySystem.from_cooperativity(50_000.0, 0.1, gamma)
    pulse = sc.PhotonPulse.from_gate_time(1.0 / gamma, delta_p=30.0 * gamma)
    cfg = sc.ScatteringConfig(cav, pulse, gamma_eff=0.5 / 6.6e-3)
    result = sc.fidelity_analytic(cfg).single()
    assert result.fidelity == pytest.approx(0.98, abs=3e-3)
    assert result.fidelity == pytest.approx(0.979744, abs=2e-6)  # frozen
    assert result.gate_time == pytest.approx(267.04e-6, rel=1e-4)


def test_fidelity_analytic_ideal_limit():
    cfg = make_config(cooperativity=1e15, gate_time=1e6)
    assert sc.fidelity_analytic(cfg).single().fidelity > 1 - 1e-10


def test_fidelity_analytic_common_mode_detuning_drops():
    a = sc.fidelity_analytic(make_config(delta_eps_a=0.4, delta_eps_b=0.4)).single().fidelity
    b = sc.fidelity_analytic(make_config()).single().fidelity
    assert a == b


def test_fidelity_analytic_even_in_delta_p():
    a = sc.fidelity_analytic(make_config(delta_p=25.0)).single().fidelity
    b = sc.fidelity_analytic(make_config(delta_p=-25.0)).single().fidelity
    assert a == b


def test_fidelity_analytic_warns_outside_validity():
    cfg = make_config(cooperativity=4000.0, g_over_kappa=0.1, delta_p=2000.0)
    with pytest.warns(ValidityWarning):
        sc.fidelity_analytic(cfg).single()


@pytest.mark.parametrize("delta_p, delta_eps_a, refused", [
    (1e160, 0.0, [True]), (np.array([30.0, 1e160]), 0.0, [False, True]),
    (np.array([30.0, 40.0]), 1e300, [True, True])], ids=["scalar", "array", "shared-field"])
def test_fidelity_analytic_overflow_raises_for_every_shape(delta_p, delta_eps_a, refused):
    """A row whose closed-form terms overflow is refused with NonFinite
    whether it comes alone or in an array config, where the other row is
    kept, with no RuntimeWarning. A field that every row shares and whose
    float square overflows refuses every row."""
    cav = CavitySystem.from_cooperativity(1000.0, 0.1, 1.0)
    cfg = sc.ScatteringConfig(cav, sc.PhotonPulse.from_gate_time(1.0, delta_p=delta_p),
                              delta_eps_a=delta_eps_a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        results = sc.fidelity_analytic(cfg)
    kept = sc.ScatteringConfig(cav, sc.PhotonPulse.from_gate_time(1.0, delta_p=30.0))
    for row, is_refused in enumerate(refused):
        index = (row,) if results.shape else ()
        if not is_refused:
            assert results[index] == sc.fidelity_analytic(kept).single()
            continue
        assert np.isnan(results.fidelity[index])
        with pytest.raises(NonFinite, match="^closed-form scattering fidelity overflows"):
            results[index]


def test_spectral_wandering_average_equals_substitution():
    # Gaussian averaging over delta_p with std sigma_star equals replacing
    # delta_p by sigma_star; exact because the fidelity is linear in delta_p^2
    sigma_star = 15.0
    nodes, weights = np.polynomial.hermite.hermgauss(20)
    average = 0.0
    for x, w in zip(nodes, weights):
        dp = math.sqrt(2.0) * sigma_star * x
        average += w * sc.fidelity_analytic(make_config(delta_p=dp)).single().fidelity
    average /= math.sqrt(math.pi)
    substituted = sc.fidelity_analytic(make_config(delta_p=sigma_star)).single().fidelity
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
                                               delta_p=30.0, gamma_eff=1e-5)).single().fidelity
              for t in times]
    t_best = times[int(np.argmax(values))]
    assert t_best == pytest.approx(sc.optimal_gate_time(4000.0, 1.0, 1e-5), rel=0.02)


def test_quadrature_converges_in_strong_coupling(monkeypatch):
    """With no eigenbasis trusted, every row of the fig2a-c grids (narrow
    polariton dips inside the pulse envelope at g/kappa up to 10 among them)
    takes the matrix-function fallback, and every cell stays within 1e-12
    relative of the pole sum's."""
    names = ("fig2a", "fig2b", "fig2c")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        pole_sum = [figures.build_figure(name).rows for name in names]
        monkeypatch.setattr(linalg, "EIG_COND_LIMIT", 0.0)
        forced = [figures.build_figure(name).rows for name in names]
    for rows, reference in zip(forced, pole_sum):
        np.testing.assert_allclose(rows, reference, rtol=1e-12, atol=0.0)


def test_cooperativity_limited_max_formula():
    assert sc.cooperativity_limited_max(100.0) == pytest.approx(
        1 - 1 / 101.0 - 1 / 402.0, rel=1e-14)


# -- the pole sum and its Faddeeva function -----------------------------------

def test_faddeeva_matches_scipy_wofz():
    """Relative error <= 1e-13 over Im z in [1e-6, 1e10] and |Re z| <= 1e10,
    log-uniform in both, plus the box |Re z| <= 30, Im z <= 30 where the
    pulse-scale poles land."""
    from scipy.special import wofz

    rng = np.random.default_rng(0)
    n = 50_000
    imag = np.exp(rng.uniform(math.log(1e-6), math.log(1e10), 2 * n))
    real = np.concatenate([
        rng.choice([-1.0, 1.0], n) * np.exp(rng.uniform(math.log(1e-8), math.log(1e10), n)),
        rng.uniform(-30.0, 30.0, n)])
    imag[n:] = np.minimum(imag[n:], 30.0)
    z = real + 1j * imag
    ref = wofz(z)
    assert np.max(np.abs(sc._faddeeva(z) - ref) / np.abs(ref)) <= 1e-13


@pytest.mark.parametrize("z", [0.5 + 1e-9j, 2.0 + 1e-6j, -3.0 + 1e-6j, 7.0 + 1e-5j,
                               1e9j, 6e8 + 8e8j, -1e9 + 1e-3j, 5.0 + 5.0j])
def test_faddeeva_matches_mpmath(z):
    """Against exp(-z^2) erfc(-iz) at 40 digits: near the real axis, at
    |z| = 1e9 and at 5 + 5i."""
    import mpmath

    with mpmath.workdps(40):
        mz = mpmath.mpc(z.real, z.imag)
        ref = complex(mpmath.exp(-mz**2) * mpmath.erfc(-1j * mz))
    assert abs(complex(sc._faddeeva(z)) - ref) <= 1e-13 * abs(ref)


def quadrature_reference(cfg, span=12.0):
    """Independent oracle: rho from scipy's adaptive `quad_vec` of the
    amplitude outer products over the Gaussian pulse, in t = (omega -
    delta_p)/sigma_p on |t| <= span. Its breakpoints sit at each pole's
    centre Re lambda and at 1, 4 and 16 half-widths |Im lambda| on either
    side: with the centres alone it missed part of a resonance narrow
    against the pulse by up to 1.4e-12 (the pinned examples of
    `test_pole_sum_matches_quadrature`), and with these it is within 3e-15
    of the pole sum over 600 random configs. The amplitudes are written out
    in scalar complex arithmetic, as in `spin_amplitudes`."""
    from scipy.integrate import quad_vec

    sigma, delta_p = float(cfg.pulse.sigma_p), float(cfg.pulse.delta_p)
    kappa, g2, gamma = float(cfg.cavity.kappa), float(cfg.cavity.g) ** 2, float(cfg.cavity.gamma)
    delta_a, delta_b = float(cfg.delta_eps_a), float(cfg.delta_eps_b)
    poles = np.concatenate([np.linalg.eigvals(h).ravel() for h in coupled_generators(cfg)]
                           + [[-0.5j * kappa]])
    widths = np.multiply.outer((0.0, 1.0, -1.0, 4.0, -4.0, 16.0, -16.0), abs(poles.imag))
    points = np.unique((poles.real + widths - delta_p) / sigma)

    def integrand(t):
        omega = delta_p + sigma * t
        bare = 0.5 * kappa - 1j * omega
        term_a = g2 / (0.5 * gamma + 1j * (delta_a - omega))
        term_b = g2 / (0.5 * gamma + 1j * (delta_b - omega))
        s = np.array([1.0 - kappa / d for d in (bare + term_a + term_b, bare + term_a,
                                                bare + term_b, bare)])
        return math.exp(-0.5 * t * t) / math.sqrt(32.0 * math.pi) * s[:, None] * s.conj()

    return quad_vec(integrand, -span, span, epsabs=1e-13, epsrel=0.0, norm="max",
                    points=points[abs(points) < span], limit=10_000)[0]


def coupled_generators(cfg):
    """The generators of a one-row config over their coupled states: s_uu's
    (1, 3, 3), and the (cavity, emitter) blocks (2, 2, 2) of s_ud and s_du."""
    h = sc._generators(cfg, ())
    return h[:1], np.stack([h[1, :2, :2], h[2, ::2, ::2]])


def generator_cond(cfg):
    """The largest Frobenius condition number ||V||_F ||V^-1||_F of the
    eigenvectors of s_uu's 3x3 generator and the 2x2 blocks of s_ud and
    s_du, from `np.linalg` rather than the kernel under test."""
    return max(np.linalg.cond(np.linalg.eig(h)[1], "fro").max()
               for h in coupled_generators(cfg))


@settings(max_examples=80, deadline=None)
@given(cooperativity=st.floats(1.0, 1e5), g_over_kappa=st.floats(0.01, 10.0),
       delta_p=st.floats(-100.0, 100.0), gate_time=st.floats(0.1, 50.0),
       delta_a=st.floats(-0.5, 0.5), delta_b=st.none() | st.floats(-0.5, 0.5))
@example(98957.46087836934, 0.01, 34.39448638576931, 0.10914788527523304,
         0.33513733476497287, 0.2777630102690055)   # a nearly dark mode, residue 2e-8
@example(44390.0, 1.0, 0.0, 0.125, 0.009765625, 0.0)     # resonances narrow against the pulse:
@example(52346.0, 1.0, 98.0, 0.1015625, 0.01171875, 0.0)  # 1.2e-12, 1.4e-12 with centres only
def test_pole_sum_matches_quadrature(cooperativity, g_over_kappa, delta_p, gate_time,
                                     delta_a, delta_b):
    """The pole sum against an adaptive quadrature, within
    1e-12 + 1e-16 cond^2 (the pole sum loses about cond^2 * machine epsilon
    near an exceptional point); delta_b = None puts both emitters at delta_a."""
    cfg = make_config(cooperativity, g_over_kappa, gate_time, delta_p, 0.0, delta_a,
                      delta_a if delta_b is None else delta_b)
    change = np.abs(sc.reduced_density_matrix(cfg) - quadrature_reference(cfg)).max()
    assert change <= 1e-12 + 1e-16 * generator_cond(cfg) ** 2


def test_pole_sum_needs_no_eigenvectors(monkeypatch):
    """The pole sum takes its poles from `np.linalg.eigvals` and its
    residues from them: it calls neither `np.linalg.eig` nor `np.linalg.inv`."""
    cfg = make_config(delta_p=np.array([0.0, 30.0]), delta_eps_a=0.2, delta_eps_b=-0.1)
    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"np.linalg.{name} called")
        return call

    for name in ("eig", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse(name))
    rho, trusted = sc._pole_sum(cfg, (2,))
    assert calls == [] and trusted.tolist() == [True, True]


def spy_on_eigensolves(monkeypatch, record):
    """Send each stack that the pole sum solves to `record`, as dense
    generators (n, k, k): the 3x3 stacks of `linalg.resolvent_poles`, and
    the pairs of `linalg.pair_poles`, which takes their entries."""
    resolvent_poles, pair_poles = linalg.resolvent_poles, linalg.pair_poles

    def dense(h):
        record(np.array(h))
        return resolvent_poles(h)

    def pairs(a, b, c, d):
        record(np.moveaxis(np.array(np.broadcast_arrays(a, b, c, d)).reshape(2, 2, -1), -1, 0))
        return pair_poles(a, b, c, d)

    monkeypatch.setattr(linalg, "resolvent_poles", dense)
    monkeypatch.setattr(linalg, "pair_poles", pairs)


def test_identical_emitters_join_the_pairs(monkeypatch):
    """Each kind of row eigensolves its own generators, each over its
    coupled states only (every state couples to the cavity, so s_dd and
    decoupled states are never eigensolved). Rows with identical emitters
    send their s_uu bright pairs, with coupling sqrt(2) g, and then their
    s_ud pairs to one stack of pairs, and no s_du pair, which is s_ud's.
    Rows with distinct emitters send their s_uu generators to a 3x3 stack,
    and then their s_ud and s_du pairs to a stack of pairs. A batch of
    identical rows makes no `eigvals` call. A batch of one kind solves each
    distinct generator once, on the broadcast shape of the generator's own
    fields (a shared cavity and shared detunings: one generator for every
    pulse row); a mixed batch solves each kind's rows one by one."""
    stacks = []

    def eigensolved(config):
        stacks.clear()
        sc.fidelity_numeric(config)
        assert all((h[:, 0, 1:] != 0).all() for h in stacks)
        return list(stacks)

    spy_on_eigensolves(monkeypatch, stacks.append)
    cfg = make_config(g_over_kappa=0.5, delta_p=np.array([0.0, 30.0, 5.0]),
                      delta_eps_a=0.2, delta_eps_b=np.array([0.2, -0.1, 0.2]))
    mixed = eigensolved(cfg)   # rows 0 and 2 identical, row 1 distinct
    assert [h.shape for h in mixed] == [(4, 2, 2), (1, 3, 3), (2, 2, 2)]
    pairs, star, distinct_pairs = mixed
    g = cfg.cavity.g
    assert (pairs[:, 1, 1] == 0.2 - 0.5j).all()
    assert (pairs[:2, 0, 1] == math.sqrt(2.0) * g).all() and (pairs[2:, 0, 1] == g).all()
    assert star[0, 1, 1] == 0.2 - 0.5j and star[0, 2, 2] == -0.1 - 0.5j
    assert distinct_pairs[0, 1, 1] == 0.2 - 0.5j and distinct_pairs[1, 1, 1] == -0.1 - 0.5j
    assert (distinct_pairs[:, 0, 1] == g).all()
    identical = dataclasses.replace(cfg, delta_eps_b=0.2)
    assert [h.shape for h in eigensolved(identical)] == [(2, 2, 2)]
    per_row = dataclasses.replace(identical, delta_eps_a=np.array([0.2, 0.3, 0.4]),
                                  delta_eps_b=np.array([0.2, 0.3, 0.4]))
    assert [h.shape for h in eigensolved(per_row)] == [(6, 2, 2)]
    grid = sc.ScatteringConfig(CavitySystem.from_cooperativity(4000.0, 0.5, 1.0),
                               sc.PhotonPulse.from_gate_time(np.array([0.5, 2.0, 20.0])[:, None],
                                                             delta_p=np.array([0.0, 30.0])),
                               delta_eps_a=0.2, delta_eps_b=-0.1)
    assert [h.shape for h in eigensolved(grid)] == [(1, 3, 3), (2, 2, 2)]


def test_fig2_builds_no_dense_generators(monkeypatch):
    """Every fig2a-c row has identical emitters, whose pole sum builds its
    pairs from the config fields: `_generators`, the dense (4, 3, 3)
    generators of the matrix-function fallback, is never called."""
    def refuse(config, shape):
        raise AssertionError("scattering._generators called")

    monkeypatch.setattr(sc, "_generators", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        for name in ("fig2a", "fig2b", "fig2c"):
            figures.build_figure(name)


def test_pole_budget(monkeypatch):
    """The amplitudes and the Faddeeva function are evaluated on each row's
    own poles only: five on a row with identical emitters (the bright pair,
    s_ud's pair and the cavity pole; no dark pole, no s_du pair) and eight
    on a row with distinct emitters; and at each pole only the row's
    distinct amplitudes: three with identical emitters (s_du is s_ud), four
    with distinct ones. The amplitudes depend on the generator only, so they
    are evaluated once per distinct generator, and the Faddeeva function,
    which depends on the pulse, once per row. fig2a-c, 787 rows with
    identical emitters in three batch calls, take 3,935 Faddeeva nodes
    (6,296 at eight per row); their 3 + 3 + 121 generators take 635
    amplitude nodes and 1,905 amplitude evaluations (11,805 once per row).
    A mixed batch makes one call per kind of row."""
    nodes = {"_amplitudes": [], "_faddeeva": []}
    amplitudes = []

    def spy(name, position):
        original = getattr(sc, name)

        def call(*args):
            nodes[name].append(np.size(args[position]))
            result = original(*args)
            if name == "_amplitudes":
                amplitudes.append(result.size)
            return result
        return call

    monkeypatch.setattr(sc, "_amplitudes", spy("_amplitudes", 1))   # (config, omega, identical)
    monkeypatch.setattr(sc, "_faddeeva", spy("_faddeeva", 0))
    stacks = []
    spy_on_eigensolves(monkeypatch, lambda h: stacks.append(h.shape))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in ("fig2a", "fig2b", "fig2c"):
            figures.build_figure(name)
    assert stacks == [(6, 2, 2), (6, 2, 2), (242, 2, 2)]   # one generator per regime, or per row
    assert {name: (len(v), sum(v)) for name, v in nodes.items()} == {
        "_amplitudes": (3, 635), "_faddeeva": (3, 3935)}
    assert sum(amplitudes) == 3 * 635 == 1905
    for delta_eps_b, budget, evaluations in ((-0.2, [8], [32]), (0.1, [5], [15]),
                                             (np.array([0.1, -0.2, 0.1]), [10, 8], [30, 32])):
        for v in (*nodes.values(), amplitudes):
            v.clear()
        sc.fidelity_numeric(make_config(delta_eps_a=0.1, delta_eps_b=delta_eps_b))
        assert nodes == dict.fromkeys(nodes, budget) and amplitudes == evaluations


@pytest.mark.parametrize("identical", [True, False])
def test_amplitude_kernel_matches_spin_amplitudes(identical):
    """On 500 seeded rows, at real and at upper-half-plane omega, the pole
    sum's stacked kernel gives each kind of row its distinct amplitudes bit
    for bit as `spin_amplitudes` gives them: (s_uu, s_ud, s_dd) with
    identical emitters, where `spin_amplitudes`' s_du is its s_ud bit for
    bit, and all four with distinct ones."""
    rng = np.random.default_rng(34)
    n = 500

    def log_uniform(lo, hi):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

    cav = CavitySystem.from_cooperativity(log_uniform(1.0, 1e5), log_uniform(0.01, 10.0), 1.0)
    delta_a = rng.uniform(-1.0, 1.0, n)
    cfg = sc.ScatteringConfig(cav, sc.PhotonPulse(1.0), delta_a,
                              delta_a if identical else rng.uniform(-1.0, 1.0, n))
    scale = cav.kappa * log_uniform(1e-3, 1e2)
    for omega in (scale * rng.normal(size=(3, n)),
                  scale * (rng.normal(size=(3, n)) + 1j * np.abs(rng.normal(size=(3, n))))):
        s_uu, s_ud, s_du, s_dd = sc.spin_amplitudes(cfg, omega)
        kept = (s_uu, s_ud, s_dd) if identical else (s_uu, s_ud, s_du, s_dd)
        assert sc._amplitudes(cfg, omega, identical).tobytes() == np.stack(kept).tobytes()
        if identical:
            assert s_du.tobytes() == s_ud.tobytes()


@pytest.mark.parametrize("delta_eps_b", [0.1, -0.2])
def test_empty_batch(delta_eps_b):
    """A batch of no rows, of either kind, gives empty results."""
    cfg = make_config(gate_time=np.array([]), delta_eps_a=0.1, delta_eps_b=delta_eps_b)
    assert sc.reduced_density_matrix(cfg).shape == (0, 4, 4)
    assert sc.fidelity_numeric(cfg).fidelity.shape == (0,)


def test_identical_emitters_repeat_s_ud():
    """On 2,000 seeded rows with identical emitters, about one in ten
    detuned far enough to take the matrix-function fallback, rho's du row
    and column are its ud row and column bit for bit."""
    rng = np.random.default_rng(30)
    n = 2000

    def log_uniform(lo, hi):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

    cav = CavitySystem.from_cooperativity(log_uniform(1.0, 1e5), log_uniform(0.01, 10.0), 1.0)
    pulse = sc.PhotonPulse.from_gate_time(log_uniform(0.1, 50.0), rng.uniform(-100.0, 100.0, n))
    delta = rng.uniform(-1.0, 1.0, n) * np.where(rng.random(n) < 0.1, 1e12, 1.0)
    rho, fallback = sc._density_matrices(sc.ScatteringConfig(cav, pulse, delta, delta))
    assert 100 < fallback.sum() < 300
    assert np.array_equal(rho[1], rho[2]) and np.array_equal(rho[:, 1], rho[:, 2])


def test_identical_emitters_match_their_neighbours():
    """1,000 seeded rows with identical emitters (the dark state and the
    bright pair) against the same rows with delta_eps_b one ulp higher,
    which take the 3x3 `eigvals` route: within 1e-14 + 1e-16 cond^2, with
    cond the bright pair's 2 sum_k |w_k| (measured: 3.7e-15 over 4,000
    rows). Against the matrix-function form within 1e-11, the bound of the
    forced fallback (measured: 1.6e-12). Both routes trust every row."""
    rng = np.random.default_rng(29)
    n = 1000

    def log_uniform(lo, hi):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

    cav = CavitySystem.from_cooperativity(log_uniform(1.0, 1e5), log_uniform(0.01, 10.0), 1.0)
    pulse = sc.PhotonPulse.from_gate_time(log_uniform(0.1, 50.0), rng.uniform(-100.0, 100.0, n))
    delta = rng.uniform(-0.5, 0.5, n)
    same = sc.ScatteringConfig(cav, pulse, delta, delta)
    rho, trusted = sc._pole_sum(same, (n,))
    neighbour, neighbour_trusted = sc._pole_sum(
        dataclasses.replace(same, delta_eps_b=np.nextafter(delta, math.inf)), (n,))
    assert trusted.all() and neighbour_trusted.all()
    bright = sc._arrowheads(cav, (n,), [[(math.sqrt(2.0) * cav.g, delta)]])[0]
    cond = linalg.resolvent_poles(bright).cond
    assert (np.abs(rho - neighbour).max(axis=(0, 1)) <= 1e-14 + 1e-16 * cond**2).all()
    assert np.abs(rho - sc._matrix_function(same, (n,), trusted)).max() <= 1e-11


def test_bright_pair_exceptional_point_takes_the_fallback(monkeypatch):
    """At sqrt(2) g = (kappa - gamma)/4 with both emitters resonant, the
    bright pair is at its exceptional point: its closed-form poles are not
    trusted, so the row takes the matrix-function fallback and says so,
    with no `eigvals` call; detuned together by 0.3 gamma it is trusted."""
    def refuse(h):
        raise AssertionError("np.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    calls = spy_on_fallback(monkeypatch)
    cavity = CavitySystem(g=1.0, kappa=1.0 + 4.0 * math.sqrt(2.0), gamma=1.0)
    detuning = np.array([0.0, 0.3])
    cfg = sc.ScatteringConfig(cavity, sc.PhotonPulse.from_gate_time(20.0, delta_p=0.5),
                              delta_eps_a=detuning, delta_eps_b=detuning)
    pair = np.array([[-0.5j * cavity.kappa, math.sqrt(2.0)], [math.sqrt(2.0), -0.5j]])
    assert not linalg.resolvent_poles(pair[None]).trusted[0]
    batch = sc.fidelity_numeric(cfg)
    assert calls == [[True, False]]
    assert [batch[i].notes for i in range(2)] == [("matrix-function fallback",), ()]
    one_row = dataclasses.replace(cfg, delta_eps_a=0.0, delta_eps_b=0.0)
    assert sc.fidelity_numeric(one_row).single() == batch[0]


def test_far_detuned_emitter_warns_of_nothing():
    """An emitter detuned to 1e300 rad/s has poles that `linalg` does not
    trust; the row takes the matrix-function fallback and says so, and
    the pole terms computed for it raise no RuntimeWarning (the suite turns
    each into an error), alone or beside a pole-sum row."""
    cfg = make_config(delta_eps_a=np.array([1e300, 0.1]))
    batch = sc.fidelity_numeric(cfg)
    assert [batch[i].notes for i in range(2)] == [("matrix-function fallback",), ()]
    one_row = sc.fidelity_numeric(make_config(delta_eps_a=1e300)).single()
    assert one_row == batch[0] and 0.0 < one_row.fidelity < 1.0


def test_vanishing_kappa_row_takes_the_fallback_alone():
    """A row with kappa = 1e-301 (g = 1e-150, C = 40) takes the
    matrix-function fallback. Its pole terms, which the fallback replaces,
    are evaluated at a placeholder pole where no denominator of
    `spin_amplitudes` vanishes, so its batch raises no DivergentDenominator:
    the row is the fallback's own, and the other row (C = 4) equals its
    one-row call bit for bit."""
    cfg = sc.ScatteringConfig(CavitySystem(np.array([1e-150, 1.0]), np.array([1e-301, 1.0]), 1.0),
                              sc.PhotonPulse(1.0))
    batch = sc.fidelity_numeric(cfg)
    assert [batch[i].notes for i in range(2)] == [("matrix-function fallback",), ()]
    routed = np.array([True, False])
    assert np.array_equal(sc.reduced_density_matrix(cfg)[0],
                          sc._matrix_function(cfg, routed.shape, routed)[:, :, 0])
    one_row = sc.ScatteringConfig(CavitySystem(1.0, 1.0, 1.0), sc.PhotonPulse(1.0))
    assert sc.fidelity_numeric(one_row).single() == batch[1]


def test_singular_fallback_row_is_refused_alone():
    """kappa = 5e-324 (g = sqrt(20 kappa), C = 80) takes the fallback, whose
    second linear system is then singular in floating point: its solution
    overflows, and `linalg.solve` makes that row NaN, which is refused with
    NonFinite, where it used to raise for the whole batch. The kappa = 1 row
    beside it is its one-row call bit for bit, and no RuntimeWarning
    escapes, though `fidelity_numeric` no longer evaluates it under
    np.errstate."""
    kappa = np.array([1.0, 5e-324])
    cfg = sc.ScatteringConfig(CavitySystem(np.sqrt(20.0 * kappa), kappa, 1.0),
                              sc.PhotonPulse(1.0))
    one_row = sc.ScatteringConfig(CavitySystem(math.sqrt(20.0), 1.0, 1.0), sc.PhotonPulse(1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = sc.fidelity_numeric(cfg)
        assert batch[0] == sc.fidelity_numeric(one_row).single()
    with pytest.raises(NonFinite, match="^fidelity is nan: the evaluation overflowed$"):
        batch[1]


def test_overflow_on_a_valid_row_warns(monkeypatch):
    """Only the gate time and the decay are evaluated under np.errstate, so
    an overflow in a valid row's pole sum is not hidden: a Faddeeva value of
    inf on the first of two valid rows raises its RuntimeWarning (an error
    under the suite's filters), and that row alone is refused."""
    faddeeva = sc._faddeeva

    def overflowing(z):
        w = faddeeva(z)
        w[..., 0] = math.inf
        return w

    monkeypatch.setattr(sc, "_faddeeva", overflowing)
    with pytest.warns(RuntimeWarning):
        batch = sc.fidelity_numeric(make_config(gate_time=np.array([2.0, 3.0])))
    with pytest.raises(NonFinite, match="^fidelity is nan"):
        batch[0]
    monkeypatch.undo()
    assert batch[1] == sc.fidelity_numeric(make_config(gate_time=3.0)).single()


@settings(deadline=None)
@given(cooperativity=st.floats(1.0, 1e5), g_over_kappa=st.floats(0.01, 10.0),
       delta_p=st.floats(-100.0, 100.0), gate_time=st.floats(0.1, 50.0),
       delta_a=st.floats(-0.5, 0.5), delta_b=st.floats(-0.5, 0.5))
def test_bare_cavity_population_is_a_quarter(cooperativity, g_over_kappa, delta_p, gate_time,
                                             delta_a, delta_b):
    """|s_dd| = 1 on the real axis, so rho_dd,dd = 1/4 whatever the pulse:
    an oracle for the bare cavity pole that needs no quadrature."""
    cfg = make_config(cooperativity, g_over_kappa, gate_time, delta_p, 0.0, delta_a, delta_b)
    assert abs(sc.reduced_density_matrix(cfg)[..., 3, 3] - 0.25) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(cooperativity=st.floats(1.0, 1e5), g_over_kappa=st.floats(0.01, 10.0),
       delta_p=st.floats(-100.0, 100.0), gate_time=st.floats(0.1, 50.0),
       delta_a=st.floats(-0.5, 0.5), delta_b=st.none() | st.floats(-0.5, 0.5))
def test_forced_fallback_matches_pole_sum(cooperativity, g_over_kappa, delta_p, gate_time,
                                          delta_a, delta_b):
    """On rows whose eigenbasis is trusted, the matrix-function fallback,
    forced by a zero trust limit, agrees with the pole sum to 1e-11."""
    cfg = make_config(cooperativity, g_over_kappa, gate_time, delta_p, 0.0, delta_a,
                      delta_a if delta_b is None else delta_b)
    pole_sum, fallback = sc._density_matrices(cfg)
    assume(not fallback)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "EIG_COND_LIMIT", 0.0)
        assert sc.fidelity_numeric(cfg).single().notes == ("matrix-function fallback",)
        change = np.abs(sc.reduced_density_matrix(cfg) - pole_sum).max()
    assert change <= 1e-11


def spy_on_fallback(monkeypatch):
    """Record the row mask of every matrix-function fallback call."""
    calls = []
    fallback = sc._matrix_function

    def spy(config, shape, rows):
        calls.append(rows.tolist())
        return fallback(config, shape, rows)

    monkeypatch.setattr(sc, "_matrix_function", spy)
    return calls


@pytest.mark.parametrize("cavity", [
    CavitySystem(g=1.0, kappa=5.0, gamma=1.0),                      # g = (kappa - gamma)/4
    CavitySystem(g=1.0, kappa=1.0 + 4.0 * math.sqrt(2.0), gamma=1.0),  # sqrt(2) g = ...
], ids=["single-emitter", "bright-state"])
def test_exceptional_point_row_takes_quadrature(monkeypatch, cavity):
    """At a generator's exceptional point (resonant emitters) `linalg` does
    not trust the eigenbasis: that row, and only that row, takes the
    matrix-function fallback and says so, and its density matrix is within
    1e-13 of an adaptive quadrature (the pole sum is off by about 0.25 there)."""
    calls = spy_on_fallback(monkeypatch)
    detuning = np.array([0.0, 0.3])
    cfg = sc.ScatteringConfig(cavity, sc.PhotonPulse.from_gate_time(20.0, delta_p=0.5),
                              delta_eps_a=detuning, delta_eps_b=detuning)
    assert generator_cond(dataclasses.replace(cfg, delta_eps_a=0.0, delta_eps_b=0.0)) > 1e6
    assert generator_cond(dataclasses.replace(cfg, delta_eps_a=0.3, delta_eps_b=0.3)) < 10
    rho = sc.reduced_density_matrix(cfg)
    assert calls == [[True, False]]
    at_ep = dataclasses.replace(cfg, delta_eps_a=0.0, delta_eps_b=0.0)
    assert np.abs(rho[0] - quadrature_reference(at_ep)).max() <= 1e-13
    batch = sc.fidelity_numeric(cfg)
    assert [batch[i].notes for i in range(2)] == [("matrix-function fallback",), ()]


def test_pole_above_the_real_axis_takes_quadrature(monkeypatch):
    """I(lambda) is the Faddeeva form for Im lambda <= 0 only. Rounding can
    put a pole just above the real axis (seen for gamma = 4e-11 against an
    emitter detuning of 3e10); such a row takes the matrix-function fallback,
    which needs no poles, and matches an adaptive quadrature to 1e-13."""
    def lifted(kernel):
        def lift(*args):
            found = kernel(*args)
            return found._replace(values=found.values.real + 1e-9j)
        return lift

    for name in ("resolvent_poles", "pair_poles"):
        monkeypatch.setattr(linalg, name, lifted(getattr(linalg, name)))
    calls = spy_on_fallback(monkeypatch)
    cfg = make_config()
    assert sc.fidelity_numeric(cfg).single().notes == ("matrix-function fallback",)
    assert calls == [[True]]
    assert np.abs(sc.reduced_density_matrix(cfg) - quadrature_reference(cfg)).max() <= 1e-13


#: (g, kappa, gamma, delta_eps_a, delta_eps_b, gate_time, delta_p) of rows with
#: one emitter detuned far past the pulse-scale poles, and how far the pole
#: sum's trusted rho was off the matrix-function form there
FAR_DETUNED = [
    (0.45, 190.0, 1e-3, 6e10, 0.1, 0.6, 3.5),                 # 8.2e-9
    (0.45, 190.0, 8e-11, 6e10, 0.1, 0.6, 3.5),                # 8.2e-9, and "clamped"
    (2.0, 0.1, 2e-10, 8e10, 0.1, 0.6, 3.5),                   # 2.1e-8, and "clamped"
    (0.856, 0.498, 1.03e-4, -9.88e10, -0.898, 9.27, 0.092),   # 8.5e-7
    (0.5, 1.0, 0.01, 1e14, 0.1, 2.0, 0.3),                    # delta_eps_a/gamma = 1e16: 2.2e-4
    (0.5, 1.0, 0.01, 1e16, 0.1, 2.0, 0.3),                    # 1e18: 3.6e-2
    (0.5, 1.0, 0.01, 1e50, 0.1, 2.0, 0.3),                    # 1e52: 1.0e-2
    (0.5, 1.0, 0.01, 1e4, 0.1, 2.0, 0.3),                     # 1e6: 1.2e-14, stays trusted
]


def test_far_detuned_rows_take_the_matrix_function(monkeypatch):
    """`eigvals` errs by about eps max|H_ij| on every pole, which the residue
    trust rule does not see. Rows where that reaches 1e-6 of sigma_p or of
    the narrowest coupled pole's width take the matrix-function form and say
    so, and no longer come back "clamped"; at delta_eps_a/gamma = 1e18 and
    1e52 F reads 0.4995851 (the pole sum gave 0.4814 and 0.4945). A row at
    1e6, where the pole sum is within 1.2e-14, keeps it."""
    g, kappa, gamma, delta_a, delta_b, gate_time, delta_p = np.array(FAR_DETUNED).T
    cfg = sc.ScatteringConfig(CavitySystem(g=g, kappa=kappa, gamma=gamma),
                              sc.PhotonPulse.from_gate_time(gate_time, delta_p=delta_p),
                              delta_a, delta_b)
    routed = np.arange(len(FAR_DETUNED)) < 7
    calls = spy_on_fallback(monkeypatch)
    rho, fallback = sc._density_matrices(cfg)
    assert calls == [routed.tolist()] and fallback.tolist() == routed.tolist()
    matrix_function = sc._matrix_function(cfg, routed.shape, routed)
    assert np.array_equal(rho[:, :, routed], matrix_function)
    batch = sc.fidelity_numeric(cfg)
    assert [batch[i].notes for i in range(len(routed))] == (
        [("matrix-function fallback",)] * 7 + [()])
    assert batch.fidelity[5:7] == pytest.approx([0.4995851] * 2, abs=1e-7)


def test_clamped_rows_are_marked(monkeypatch):
    """F^2 and the trace are clamped into [0, 1] and the row says so: a
    density matrix 1.1 |psi_T><psi_T| (F^2 and trace 1.1) and one with
    F^2 = -0.05 come back as 1 and 0, marked "clamped"."""
    target = np.outer(sc.IDEAL_TARGET, sc.IDEAL_TARGET)
    rhos = np.stack([0.9 * target, 1.1 * target, 0.25 * np.eye(4) - 0.3 * target])
    monkeypatch.setattr(sc, "_pole_sum", lambda config, shape: (
        np.moveaxis(rhos, 0, -1).astype(complex), np.ones(3, dtype=bool)))
    cav = CavitySystem.from_cooperativity(4000.0, 0.1, 1.0)
    cfg = sc.ScatteringConfig(cav, sc.PhotonPulse(1.0, delta_p=np.array([0.0, 1.0, 2.0])))
    batch = sc.fidelity_numeric(cfg)
    assert batch.notes["clamped"].tolist() == [False, True, True]
    assert batch.fidelity.tolist() == pytest.approx([math.sqrt(0.9), 1.0, 0.0])
    assert batch.success_probability.tolist() == pytest.approx([0.9, 1.0, 0.7])
    assert batch[1].notes == ("clamped",)


def test_batch_rows_match_one_row_calls():
    """An array-valued config keeps its grid shape, and every row equals the
    one-configuration call."""
    cav = CavitySystem.from_cooperativity(4000.0, 0.5, 1.0)
    gate_time = np.array([0.5, 2.0, 20.0])[:, None]
    delta_p = np.array([0.0, 30.0])
    cfg = sc.ScatteringConfig(cav, sc.PhotonPulse.from_gate_time(gate_time, delta_p=delta_p),
                              delta_eps_a=0.2, gamma_eff=1e-4)
    batch = sc.fidelity_numeric(cfg)
    assert batch.shape == (3, 2)
    for i, j in np.ndindex(3, 2):
        single = sc.fidelity_numeric(sc.ScatteringConfig(
            cav, sc.PhotonPulse.from_gate_time(float(gate_time[i, 0]), float(delta_p[j])),
            delta_eps_a=0.2, gamma_eff=1e-4)).single()
        assert batch[i, j] == single


def test_density_matrices_do_not_depend_on_batch_size():
    """A row's bits do not depend on the size of its batch: 4,096 seeded
    rows in one call equal 256-row calls bit for bit. About half the rows
    have identical emitters, so the stacks of pairs and of 3x3 generators
    differ in size between the calls."""
    rng = np.random.default_rng(41)
    n = 4096

    def uniform(lo, hi):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

    cav = CavitySystem.from_cooperativity(uniform(1.0, 1e5), uniform(0.01, 10.0), 1.0)
    cfg = sc.ScatteringConfig(cav, sc.PhotonPulse.from_gate_time(uniform(0.1, 50.0),
                                                                 rng.uniform(-100.0, 100.0, n)),
                              delta_eps_a=(delta := rng.uniform(-0.5, 0.5, n)),
                              delta_eps_b=np.where(rng.random(n) < 0.5, delta, 0.0))

    def rows(s):
        return sc.ScatteringConfig(
            CavitySystem(cav.g[s], cav.kappa[s], 1.0),
            sc.PhotonPulse(cfg.pulse.sigma_p[s], cfg.pulse.delta_p[s]), cfg.delta_eps_a[s],
            cfg.delta_eps_b[s])

    whole = sc.reduced_density_matrix(cfg)
    parts = [sc.reduced_density_matrix(rows(slice(s, s + 256))) for s in range(0, n, 256)]
    assert np.array_equal(whole, np.concatenate(parts))


def test_cavity_rows_match_one_row_calls(monkeypatch):
    """A cavity per row: the numeric and the analytic batch equal their
    one-row calls. Row 0 sits at an exceptional point, so it alone takes the
    matrix-function fallback, which must use that row's own cavity; row 2
    (C = 2, a large Gamma*T) is outside the closed form's domain and clamped."""
    calls = spy_on_fallback(monkeypatch)
    cavities = CavitySystem(g=np.array([1.0, 2000.0, 1.0]), kappa=np.array([5.0, 4000.0, 2.0]),
                            gamma=1.0)
    cfg = sc.ScatteringConfig(cavities, sc.PhotonPulse.from_gate_time(20.0, delta_p=0.5),
                              gamma_eff=np.array([0.0, 1e-4, 1.0]))
    with pytest.warns(ValidityWarning):
        analytic = sc.fidelity_analytic(cfg)
    numeric = sc.fidelity_numeric(cfg)
    assert calls == [[True, False, False]]
    assert numeric[0].notes == ("matrix-function fallback",)
    assert analytic[2].notes == ("outside validity domain", "clamped")
    for i in range(3):
        one_row = sc.ScatteringConfig(
            CavitySystem(float(cavities.g[i]), float(cavities.kappa[i]), 1.0), cfg.pulse,
            gamma_eff=float(cfg.gamma_eff[i]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            single = (sc.fidelity_numeric(one_row).single(), sc.fidelity_analytic(one_row).single())
        for batch, result in zip((numeric, analytic), single):
            assert batch[i].fidelity == pytest.approx(result.fidelity, rel=1e-12, abs=1e-15)
            assert batch[i].success_probability == pytest.approx(result.success_probability,
                                                                 rel=1e-12)
            assert batch[i].notes == result.notes


#: a cavity at the one-emitter exceptional point g = (kappa - gamma)/4, whose
#: rows with a resonant emitter take the matrix-function fallback
_EP_CAVITY = (1.0, 5.0)
_REGIME = st.just(_EP_CAVITY) | st.builds(
    lambda c, gk: (c / (4.0 * gk), c / (4.0 * gk**2)),   # (g, kappa) of (C, g/kappa), gamma = 1
    st.floats(1.0, 1e5), st.floats(0.01, 10.0))


@settings(max_examples=40, deadline=None)
@given(regimes=st.lists(_REGIME, min_size=3, max_size=3),
       rows=st.lists(st.tuples(st.floats(0.1, 50.0), st.floats(-100.0, 100.0),
                               st.just(0.0) | st.floats(-0.5, 0.5)), min_size=1, max_size=6))
@example(regimes=[_EP_CAVITY, (0.5, 10.0), _EP_CAVITY],
         rows=[(1.0, 0.0, 0.0), (2.0, 30.0, 0.3)])   # fallback and pole-sum rows together
def test_stacked_regimes_match_their_slices(regimes, rows):
    """A (3, n) config, three cavities as a column against n pulses and
    detunings, gives row for row the fidelity, trace and "matrix-function
    fallback" note of its three (n,) slices, up to rounding."""
    (g, kappa), (gate_time, delta_p, delta) = np.array(regimes).T, np.array(rows).T

    def config(g, kappa):
        return sc.ScatteringConfig(CavitySystem(g, kappa, 1.0),
                                   sc.PhotonPulse.from_gate_time(gate_time, delta_p),
                                   delta_eps_a=delta, delta_eps_b=delta, gamma_eff=1e-5)

    stacked = sc.fidelity_numeric(config(g[:, None], kappa[:, None]))
    assert stacked.shape == (3, len(rows))
    for i in range(3):
        alone = sc.fidelity_numeric(config(g[i], kappa[i]))
        for field in ("fidelity", "success_probability"):
            np.testing.assert_allclose(getattr(stacked, field)[i], getattr(alone, field),
                                       rtol=1e-14, atol=1e-15)
        for note in ("matrix-function fallback", "clamped"):
            assert np.array_equal(stacked.notes[note][i], alone.notes[note])


def test_closed_form_kernel_is_the_evaluator_bit_for_bit():
    """`fidelity_analytic` is its checks around `_closed_form`: on seeded
    families (C from 1 to 1e5, g/kappa from 0.01 to 10, detuned pulses and
    emitters, rows outside the validity domain and clamped rows), the
    kernel's output, clamped as `gate_results` clamps it, equals the
    evaluator's fidelity bit for bit."""
    rng = np.random.default_rng(26)
    n = 400
    for _ in range(3):
        def log_uniform(lo, hi):
            return 10.0 ** rng.uniform(lo, hi, n)

        cfg = make_config(log_uniform(0, 5), log_uniform(-2, 1), log_uniform(-2, 2),
                          rng.normal(0.0, 30.0, n), log_uniform(-7, -0.5),
                          rng.normal(0.0, 1.0, n), rng.normal(0.0, 1.0, n))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            result = sc.fidelity_analytic(cfg)
        kernel = sc._closed_form(cfg.cavity, cfg.pulse.delta_p, cfg.pulse.sigma_p,
                                 cfg.delta_eps_a, cfg.delta_eps_b, cfg.gamma_eff,
                                 cfg.pulse.gate_time)
        assert np.array_equal(clamp_unit(kernel), result.fidelity)
        outside = result.notes["outside validity domain"]
        assert 0 < outside.sum() < n and result.notes["clamped"].any()


def test_fidelity_does_not_depend_on_batch_size():
    """F's sum over rho's 16 entries runs in one order for any batch: 4,096
    seeded rows with distinct emitters in one call equal their 256-row calls
    and their first 50 one-row calls bit for bit. (That sum once followed
    the memory layout numpy chose: 451 of these rows differed from their
    256-row calls, by up to 4 ulp.)"""
    rng = np.random.default_rng(34)
    n = 4096

    def uniform(lo, hi):
        return np.exp(rng.uniform(math.log(lo), math.log(hi), n))

    cav = CavitySystem.from_cooperativity(uniform(1.0, 1e5), uniform(0.01, 10.0), 1.0)
    pulse = sc.PhotonPulse.from_gate_time(uniform(0.1, 50.0), rng.uniform(-100.0, 100.0, n))
    delta_a, delta_b = rng.uniform(-0.5, 0.5, (2, n))

    def fidelity(s):
        return sc.fidelity_numeric(sc.ScatteringConfig(
            CavitySystem(cav.g[s], cav.kappa[s], 1.0),
            sc.PhotonPulse(pulse.sigma_p[s], pulse.delta_p[s]), delta_a[s], delta_b[s])).fidelity

    whole = fidelity(slice(None))
    assert np.array_equal(whole, np.concatenate([fidelity(slice(s, s + 256))
                                                 for s in range(0, n, 256)]))
    assert np.array_equal(whole[:50], [fidelity(i) for i in range(50)])


#: (cavity, pulse, delta_eps_a, gamma_eff, generators) of batches whose
#: generators are shared across rows: the CLI delta_p sweep, fig2's three
#: regimes against 121 gate times, an empty pulse, a far-detuned emitter
#: whose width rule sends 4 of its 7 pulse rows to the fallback, and rows
#: that only gamma_eff tells apart, alone or against a pulse axis
_SHARED = {
    "scalar-x-21": (CavitySystem.from_cooperativity(4000.0, 0.3, 1.0),
                    sc.PhotonPulse(1.0, np.linspace(0.0, 40.0, 21)), 0.1, 1e-5, 1),
    "3x1-x-121": (CavitySystem.from_cooperativity(4000.0, np.array([[0.01], [0.5], [10.0]]), 1.0),
                  sc.PhotonPulse.from_gate_time(np.geomspace(0.05, 50.0, 121), 30.0), 0.1, 1e-5,
                  3),
    "2x1-x-0": (CavitySystem.from_cooperativity(4000.0, np.array([[0.1], [2.0]]), 1.0),
                sc.PhotonPulse(np.ones(0)), 0.1, 1e-5, 0),
    "far-detuned": (CavitySystem.from_cooperativity(4000.0, 0.3, 1.0),
                    sc.PhotonPulse(np.geomspace(1e-9, 2.0, 7)), 5e6, 1e-5, 1),
    "gamma_eff-3": (CavitySystem.from_cooperativity(4000.0, 0.3, 1.0), sc.PhotonPulse(1.0), 0.1,
                    np.array([0.0, 1e-4, 1e-3]), 1),
    "gamma_eff-3x1-x-4": (CavitySystem.from_cooperativity(4000.0, 0.3, 1.0),
                          sc.PhotonPulse(np.array([0.5, 1.0, 2.0, 4.0])), 0.1,
                          np.array([[0.0], [1e-4], [1e-3]]), 1),
}


@pytest.mark.parametrize("identical", [True, False])
@pytest.mark.parametrize("name", _SHARED)
def test_shared_generators_match_per_row_generators(monkeypatch, name, identical):
    """A batch whose cavity and detunings are shared across rows solves
    each distinct generator once, on the generator fields' own shape
    right-aligned to the batch's: one stack of 2 m pairs with identical
    emitters, or m 3x3 stars and 2 m pairs with distinct ones, for m
    generators (none for an empty batch). rho is of the batch's shape, and
    rho, the fallback mask and the results equal bit for bit those of the
    same rows with every field one value per row, whose generators are one
    per row, and those of the one-row calls."""
    cav, pulse, delta_a, gamma_eff, m = _SHARED[name]
    shared = sc.ScatteringConfig(cav, pulse, delta_a, delta_a if identical else -0.2, gamma_eff)
    shape = config_shape(shared)
    per_row = sc._rows(shared, shape, np.ones(math.prod(shape), dtype=bool))
    stacks = []
    spy_on_eigensolves(monkeypatch, lambda h: stacks.append(h.shape))
    rho, fallback = sc._density_matrices(shared)
    assert stacks == ([] if not m else [(2 * m, 2, 2)] if identical
                      else [(m, 3, 3), (2 * m, 2, 2)])
    assert rho.shape == (4, 4) + shape and fallback.shape == shape
    assert sc.reduced_density_matrix(shared).shape == shape + (4, 4)
    results = sc.fidelity_numeric(shared)
    expected_rho, expected_fallback = sc._density_matrices(per_row)
    expected = sc.fidelity_numeric(per_row)
    assert rho.reshape(4, 4, -1).tobytes() == expected_rho.tobytes()
    assert np.array_equal(fallback.reshape(-1), expected_fallback)
    for field in ("fidelity", "success_probability", "gate_time"):
        assert getattr(results, field).reshape(-1).tobytes() == getattr(expected, field).tobytes()
    assert all(np.array_equal(results.notes[k].reshape(-1), expected.notes[k])
               for k in expected.notes)
    if name == "far-detuned":
        assert fallback.tolist() == [True] * 4 + [False] * 3
    for i, index in enumerate(np.ndindex(shape)):
        one_rho, one_fallback = sc._density_matrices(row(per_row, i))
        assert rho[(...,) + index].tobytes() == one_rho.tobytes()
        assert fallback[index] == one_fallback
        assert results[index] == sc.fidelity_numeric(row(per_row, i)).single()
