import collections
import math
import warnings

import numpy as np
import pytest

from cavity_gates import exchange, figures, linalg, raman, scattering
from cavity_gates.params import CavitySystem, config_shape


def test_figure_names():
    assert figures.FIGURE_NAMES == (
        "fig2a", "fig2b", "fig2c", "fig4", "fig6a", "fig6b", "fig7", "fig8a", "fig8b")
    with pytest.raises(ValueError):
        figures.build_figure("fig99")


def test_format_csv_shape():
    data = figures.FigureData("demo", ("a = 1",), ("x", "y"),
                              np.array([[1.0, 2.0], [3.0, 0.5]]))
    text = figures.format_csv(data)
    lines = text.split("\n")
    assert lines[0] == "# a = 1"
    assert lines[1] == "x,y"
    assert lines[2] == "1.00000000000e+00,2.00000000000e+00"
    assert text.endswith("\n")
    assert "\r" not in text


def test_fig7_columns():
    data = figures.build_figure("fig7")
    assert data.header[0] == "cooperativity"
    rows = data.rows
    # scattering column equals its closed form; exchange columns coincide
    c = rows[:, 0]
    assert np.allclose(rows[:, 1], 1 - 1 / (c + 1) - 1 / (4 * c + 2), rtol=1e-12)
    assert np.allclose(rows[:, 3], rows[:, 4], rtol=1e-14)
    assert rows[-1, 1] > 1 - 1e-5 and rows[-1, 3] > 1 - 1e-2


def test_fig2_builders_make_batch_calls_only(monkeypatch):
    """fig2a-c and fig8a-b evaluate whole columns at once: every scattering
    or Raman analytic call takes an array-valued config, every call of the
    two closed-form kernels (the fig8 search objectives) is array-valued,
    and each fig2 builder is one call of each scattering evaluator (fig2a
    and fig2b stack their three cavity regimes)."""
    calls = []
    for module, name in ((scattering, "fidelity_numeric"), (scattering, "fidelity_analytic"),
                         (raman, "fidelity_analytic_raman")):
        def spy(config, _name=name, _evaluate=getattr(module, name)):
            calls.append((_name, config_shape(config)))
            return _evaluate(config)
        monkeypatch.setattr(module, name, spy)
    kernels = {f"{module.__name__}._closed_form" for module in (scattering, raman)}
    for module in (scattering, raman):
        def kernel_spy(*args, _name=f"{module.__name__}._closed_form",
                       _kernel=module._closed_form):
            f_gate = _kernel(*args)
            calls.append((_name, np.shape(f_gate)))
            return f_gate
        monkeypatch.setattr(module, "_closed_form", kernel_spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in ("fig8a", "fig8b", "fig2a", "fig2b", "fig2c"):
            calls.clear()
            figures.build_figure(name)
            assert calls and all(shape for _, shape in calls), name
            if name.startswith("fig2"):
                assert sorted(evaluator for evaluator, _ in calls if evaluator not in kernels) == [
                    "fidelity_analytic", "fidelity_numeric"], name
            else:
                assert kernels <= {evaluator for evaluator, _ in calls}, name


def test_fig8_table_builds_few_configs(monkeypatch):
    """The fig8 searches run on the closed-form kernels, not on a config per
    golden-section step: one table builds two RamanConfigs (the coarse scan
    and the optima; one per Raman objective call, 169, before) and two
    ScatteringConfigs (the bracket ends and the optima)."""
    built = collections.Counter()
    for cls in (raman.RamanConfig, scattering.ScatteringConfig):
        def counting(self, _check=cls.__post_init__, _name=cls.__name__):
            built[_name] += 1
            _check(self)
        monkeypatch.setattr(cls, "__post_init__", counting)
    figures._fig8_table()
    assert 0 < built["RamanConfig"] <= 3 and 0 < built["ScatteringConfig"] <= 3, built


def test_fig8_raman_objective_is_the_evaluator_on_the_coarse_grid():
    """The fig8 Raman search objective equals `fidelity_analytic_raman` on
    the configs it stands for, bit for bit, over the coarse scan's grid at
    every Gamma row, and past the Omega/Delta cap of 0.45."""
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    two_photon = raman.optimal_two_photon(cav.kappa, 8000.0)
    gammas = np.exp(np.linspace(math.log(1e-6), math.log(1e-1), 41))[:, None, None]
    log_d = np.linspace(math.log(0.1 * cav.kappa), math.log(1e4 * cav.kappa), 41)[:, None]
    log_x = np.append(np.linspace(math.log(1e-3), math.log(0.45), 31), math.log(0.6))
    objective = figures._fig8_raman_objective(cav, two_photon, log_d, log_x, gammas)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        configs = figures._fig8_raman_configs(cav, two_photon, log_d, log_x, gammas)
        expected = raman.fidelity_analytic_raman(configs).fidelity
    assert objective.shape == (41, 41, 32) and (expected == 0.0).any()
    assert np.array_equal(objective, expected)


def test_fig2_pair_poles_make_no_lapack_call(monkeypatch):
    """Every fig2 row has identical emitters, so its s_uu generator splits
    into a dark state and a bright pair: the fig2 builders make no
    `np.linalg` eigensolve at all, and every pole comes from the closed form
    of the pairs (s_ud, s_du and the bright pairs)."""
    calls = []

    def refuse(name):
        def spy(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"np.linalg.{name} called")
        return spy

    for name in ("eig", "eigvals", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse(name))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in ("fig2a", "fig2b", "fig2c"):
            figures.build_figure(name)
    assert calls == []


@pytest.mark.parametrize("name", ["fig4", "fig6b", "fig6a"])
def test_eigvals_are_eigs_eigenvalues_on_exchange_figure_stacks(monkeypatch, name):
    """The premise of the eigenvalue-only exchange kernel: on every sector
    stack the builder propagates (3x3 and 5x5), `np.linalg.eigvals` returns
    `np.linalg.eig`'s eigenvalues bit for bit, so the fig4-fig6b references
    see the same poles as before. fig6a is checked on every row with
    ||H||_F T >= 1e9 (a superset of ||H||_2 T >= 1e9, where the reference is
    most sensitive to the poles; about 4,500 of its 14,641 rows) and every
    10th other row."""
    stacks = {}

    def spy(h, t, _amplitudes=linalg.return_amplitudes):
        k = np.shape(h)[-1]
        stacks.setdefault(k, []).append(
            (np.array(h).reshape(-1, k, k), np.broadcast_to(t, np.shape(h)[:-2]).ravel()))
        return _amplitudes(h, t)

    monkeypatch.setattr(linalg, "return_amplitudes", spy)
    figures.build_figure(name)
    assert sorted(stacks) == ([3] if name == "fig4" else [3, 5])
    for calls in stacks.values():
        h = np.concatenate([h for h, _ in calls])
        norm_t = np.linalg.norm(h, axis=(1, 2)) * np.concatenate([t for _, t in calls])
        rows = (norm_t >= 1e9) | (np.arange(len(h)) % 10 == 0)
        assert (norm_t >= 1e9).any()
        assert np.array_equal(np.linalg.eigvals(h[rows]), np.linalg.eig(h[rows])[0])


def test_fig2c_most_robust_regime_near_critical_coupling():
    data = figures.build_figure("fig2c")
    rows = data.rows
    best = rows[np.argmax(rows[:, 1]), 0]
    # minimum of the detuning-sensitivity bracket sits at 2g ~ kappa
    assert 0.2 < best < 1.0


def test_fig6b_analytic_tracks_numeric():
    data = figures.build_figure("fig6b")
    rows = data.rows
    weak = rows[:, 1]
    analytic = rows[:, 3]
    # compare inside the adiabatic window only (plateau region)
    mask = (rows[:, 0] > 0.5) & (rows[:, 0] < 100.0)
    assert np.abs(weak[mask] - analytic[mask]).max() < 0.01
    assert weak[mask].max() > 0.96


def test_fig8_trends():
    fig8a = figures.build_figure("fig8a")
    for col in (1, 2, 3):
        values = fig8a.rows[:, col]
        assert np.all(np.diff(values) <= 1e-9)          # fidelity falls with Gamma
        assert values[0] > 0.96
    fig8b = figures.build_figure("fig8b")
    assert np.all(fig8b.rows[:, 1:] > 0)
    for col in (1, 2, 3):
        assert np.all(np.diff(fig8b.rows[:, col]) <= 1e-9)  # optima get faster
    # scattering gate time follows the cube-root law
    gammas = fig8b.rows[:, 0]
    ratio = fig8b.rows[0, 1] / fig8b.rows[-1, 1]
    assert ratio == pytest.approx((gammas[-1] / gammas[0]) ** (1 / 3), rel=0.05)


def test_fig8_optima_hold_on_numeric_paths():
    """The fig8 optima are searched on the analytic paths; at every Gamma row
    the numeric path of the optimal configuration agrees: scattering within
    2e-4 (1.78e-4 measured) and simple exchange within 1e-6 (8.88e-7). The
    Raman analytic optimum, reported with its (Delta, Omega/Delta) and
    carrying no note, lies above its numeric path on every row, by less than
    1e-3 for Gamma <= 1.8e-4 (4.2e-5 at 1e-6, 9.2e-4 at 1.78e-4); the gap
    grows with Gamma, to 7.5e-2 at Gamma = 7.5e-2, where Omega/Delta = 0.37
    (ROADMAP items 8 and 9)."""
    fidelity, gate_time, raman_optimum = figures._fig8_table()
    gammas = fidelity[:, 0]
    scatter = figures._scatter_configs(8000.0, 0.1, gammas, 0.0, gate_time[:, 1])
    numeric = scattering.fidelity_numeric(scatter).fidelity
    assert np.abs(numeric - fidelity[:, 1]).max() < 2e-4
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    simple = exchange.ExchangeConfig(cav, detuning=gate_time[:, 2] * cav.g**2 / math.pi,
                                     gamma_eff=gammas)
    numeric = exchange.fidelity_numeric_exchange(simple)
    assert numeric.gate_time == pytest.approx(gate_time[:, 2], rel=1e-14)
    assert np.abs(numeric.fidelity - fidelity[:, 2]).max() < 1e-6
    configs = raman.symmetric_raman_config(cav, raman.optimal_two_photon(cav.kappa, 8000.0),
                                           raman_optimum[:, 0], raman_optimum[:, 1], gammas)
    analytic = raman.fidelity_analytic_raman(configs)
    assert np.array_equal(analytic.fidelity, fidelity[:, 3])
    assert np.array_equal(analytic.gate_time, gate_time[:, 3])
    assert not any(mask.any() for mask in analytic.notes.values())
    gap = fidelity[:, 3] - raman.fidelity_numeric_raman(configs).fidelity
    assert (gap > 0).all()
    small = gammas <= 1.8e-4
    assert small.sum() == 19 and gap[small].max() < 1e-3


def test_fig4_columns_and_peak():
    data = figures.build_figure("fig4")
    assert data.header == ("Delta_over_kappa", "F_numeric_weak", "F_numeric_strong",
                           "F_analytic")
    rows = data.rows
    best = rows[np.argmax(rows[:, 1]), 0]
    assert best == pytest.approx(0.5 * np.sqrt(8000.0), rel=0.1)
    # adiabatic closed form tracks the weak-coupling curve over the
    # detuning decade around the optimum
    root_c = np.sqrt(8000.0)
    mask = (rows[:, 0] >= root_c / 10.0) & (rows[:, 0] <= 10.0 * root_c)
    assert np.abs(rows[mask, 1] - rows[mask, 3]).max() < 0.01
