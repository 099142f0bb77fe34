"""Reproduction data for the survey figures, emitted as plot-ready tables.

All builders work in units of the emitter decay rate (gamma = 1). Each
figure carries a `#`-prefixed parameter block; swept quantities are marked
with the SWEEP token so a single row can be reproduced through the
command-line evaluate path.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import exchange, raman, scattering, sweep
from .params import CavitySystem


class FigureData(NamedTuple):
    name: str
    comments: tuple      # lines of the parameter block (without '# ' prefix)
    header: tuple
    rows: np.ndarray     # shape (n_rows, len(header))


def _scatter_configs(cooperativity, g_over_kappa, gamma_eff, delta_p, gate_time):
    cav = CavitySystem.from_cooperativity(cooperativity, g_over_kappa, 1.0)
    pulse = scattering.PhotonPulse.from_gate_time(gate_time, delta_p=delta_p)
    return scattering.ScatteringConfig(cav, pulse, gamma_eff=gamma_eff)


def scatter_numeric(cooperativity, g_over_kappa, gamma_eff, delta_p, gate_time):
    cfg = _scatter_configs(cooperativity, g_over_kappa, gamma_eff, delta_p, gate_time)
    return scattering.fidelity_numeric(cfg).fidelity


def scatter_analytic(cooperativity, g_over_kappa, gamma_eff, delta_p, gate_time):
    cfg = _scatter_configs(cooperativity, g_over_kappa, gamma_eff, delta_p, gate_time)
    return scattering.fidelity_analytic(cfg).fidelity


# The exchange and Raman helpers take detuning arrays that broadcast
# together and return the fidelity array of their broadcast shape.

def exchange_numeric(cooperativity, g_over_kappa, detuning_over_kappa):
    cav = CavitySystem.from_cooperativity(cooperativity, g_over_kappa, 1.0)
    cfg = exchange.ExchangeConfig(cav, detuning=detuning_over_kappa * cav.kappa)
    return exchange.fidelity_numeric_exchange_batch(cfg).fidelity


def exchange_analytic(cooperativity, g_over_kappa, detuning_over_kappa):
    cav = CavitySystem.from_cooperativity(cooperativity, g_over_kappa, 1.0)
    cfg = exchange.ExchangeConfig(cav, detuning=detuning_over_kappa * cav.kappa)
    return exchange.fidelity_analytic_exchange_batch(cfg).fidelity


def raman_numeric(cooperativity, g_over_kappa, two_photon_over_kappa,
                  detuning_over_kappa, rabi_over_detuning):
    cav = CavitySystem.from_cooperativity(cooperativity, g_over_kappa, 1.0)
    cfg = raman.symmetric_raman_config(cav, two_photon_over_kappa * cav.kappa,
                                       detuning_over_kappa * cav.kappa, rabi_over_detuning)
    return raman.fidelity_numeric_raman_batch(cfg).fidelity


def raman_analytic(cooperativity, g_over_kappa, two_photon_over_kappa,
                   detuning_over_kappa, rabi_over_detuning):
    cav = CavitySystem.from_cooperativity(cooperativity, g_over_kappa, 1.0)
    cfg = raman.symmetric_raman_config(cav, two_photon_over_kappa * cav.kappa,
                                       detuning_over_kappa * cav.kappa, rabi_over_detuning)
    return raman.fidelity_analytic_raman_batch(cfg).fidelity


_SCATTER_REGIMES = (0.01, 0.5, 10.0)


def _fig2(axis_name, axis_values, fixed, variable):
    """Shared builder for the scattering sweeps: three cavity regimes,
    numeric and analytic columns each."""
    header = [axis_name]
    for gk in _SCATTER_REGIMES:
        header += [f"F_numeric_gk{gk:g}", f"F_analytic_gk{gk:g}"]
    rows = []
    for x in axis_values:
        params = dict(fixed)
        params[variable] = float(x)
        row = [float(x)]
        for gk in _SCATTER_REGIMES:
            row.append(scatter_numeric(g_over_kappa=gk, **params))
            row.append(scatter_analytic(g_over_kappa=gk, **params))
        rows.append(row)
    return header, np.array(rows)


def build_fig2a():
    values = np.exp(np.linspace(math.log(0.05), math.log(50.0), 121))
    fixed = dict(cooperativity=4000.0, gamma_eff=1e-5, delta_p=30.0)
    header, rows = _fig2("gate_time_gamma", values, fixed, "gate_time")
    comments = (
        "[cavity]", "cooperativity = 4000", "g_over_kappa = 0.01", "gamma = 1 rad_s",
        "[decoherence]", "qubit_pure_dephasing = 4e-5 per_gamma",
        "[scheme.scattering]", "delta_p = 30 per_gamma", "gate_time = SWEEP inv_gamma",
    )
    return FigureData("fig2a", comments, tuple(header), rows)


def build_fig2b():
    values = np.linspace(0.0, 100.0, 101)
    fixed = dict(cooperativity=4000.0, gamma_eff=1e-5, gate_time=2.0)
    header, rows = _fig2("delta_p_gamma", values, fixed, "delta_p")
    comments = (
        "[cavity]", "cooperativity = 4000", "g_over_kappa = 0.01", "gamma = 1 rad_s",
        "[decoherence]", "qubit_pure_dephasing = 4e-5 per_gamma",
        "[scheme.scattering]", "delta_p = SWEEP per_gamma", "gate_time = 2 inv_gamma",
    )
    return FigureData("fig2b", comments, tuple(header), rows)


def build_fig2c():
    values = np.exp(np.linspace(math.log(0.01), math.log(10.0), 121))
    rows = []
    for gk in values:
        rows.append([
            float(gk),
            scatter_numeric(4000.0, float(gk), 1e-5, 30.0, 2.0),
            scatter_analytic(4000.0, float(gk), 1e-5, 30.0, 2.0),
        ])
    comments = (
        "[cavity]", "cooperativity = 4000", "g_over_kappa = SWEEP", "gamma = 1 rad_s",
        "[decoherence]", "qubit_pure_dephasing = 4e-5 per_gamma",
        "[scheme.scattering]", "delta_p = 30 per_gamma", "gate_time = 2 inv_gamma",
    )
    return FigureData("fig2c", comments, ("g_over_kappa", "F_numeric", "F_analytic"),
                      np.array(rows))


def build_fig4():
    values = np.exp(np.linspace(math.log(1.0), math.log(1e4), 201))
    rows = np.column_stack([
        values,
        exchange_numeric(8000.0, 0.1, values),
        exchange_numeric(8000.0, 10.0, values),
        exchange_analytic(8000.0, 0.1, values),
    ])
    comments = (
        "[cavity]", "cooperativity = 8000", "g_over_kappa = 0.1", "gamma = 1 rad_s",
        "[scheme.simple_exchange]", "detuning = SWEEP per_kappa",
        "splitting_eg = ideal", "detuning_error = 0 rad_s",
    )
    return FigureData(
        "fig4", comments,
        ("Delta_over_kappa", "F_numeric_weak", "F_numeric_strong", "F_analytic"),
        rows)


def build_fig6a():
    grid = np.exp(np.linspace(math.log(0.1), math.log(1e3), 121))
    # rows run over the laser detuning within each two-photon detuning
    dok, lok = np.meshgrid(grid, grid, indexing="ij")
    rows = np.column_stack([dok.ravel(), lok.ravel(),
                            raman_numeric(8000.0, 0.1, dok, lok, 0.05).ravel()])
    comments = (
        "[cavity]", "cooperativity = 8000", "g_over_kappa = 0.1", "gamma = 1 rad_s",
        "[scheme.raman]", "two_photon = SWEEP per_kappa", "laser_detuning = SWEEP per_kappa",
        "rabi_over_detuning = 0.05",
    )
    return FigureData(
        "fig6a", comments,
        ("two_photon_over_kappa", "laser_detuning_over_kappa", "F_numeric"),
        rows)


def build_fig6b():
    ridge = 0.5 * math.sqrt(8000.0)
    values = np.exp(np.linspace(math.log(0.1), math.log(1e3), 201))
    rows = np.column_stack([
        values,
        raman_numeric(8000.0, 0.1, ridge, values, 0.05),
        raman_numeric(8000.0, 0.1, ridge, values, 1.0 / 3.0),
        raman_analytic(8000.0, 0.1, ridge, values, 0.05),
    ])
    comments = (
        "[cavity]", "cooperativity = 8000", "g_over_kappa = 0.1", "gamma = 1 rad_s",
        "[scheme.raman]", "two_photon = optimal", "laser_detuning = SWEEP per_kappa",
        "rabi_over_detuning = 0.05",
    )
    return FigureData(
        "fig6b", comments,
        ("laser_detuning_over_kappa", "F_numeric_om20", "F_numeric_om3", "F_analytic"),
        rows)


def build_fig7():
    c_values = np.exp(np.linspace(math.log(10.0), math.log(1e6), 121))
    table = sweep.cooperativity_scaling(c_values)
    header = ("cooperativity", "F_scattering", "F_scattering_asymptote",
              "F_simple_exchange", "F_raman", "F_exchange_asymptote")
    rows = np.column_stack([table["cooperativity"], table["scattering"],
                            table["scattering_asymptote"], table["simple_exchange"],
                            table["raman"], table["exchange_asymptote"]])
    comments = ("all error terms zero; cooperativity-limited maxima",)
    return FigureData("fig7", comments, header, rows)


def _fig8_scattering(gamma_eff, cooperativity=8000.0, g_over_kappa=0.1):
    t_guess = scattering.optimal_gate_time(cooperativity, 1.0, gamma_eff)

    def f(log_t):
        return scatter_analytic(cooperativity, g_over_kappa, gamma_eff, 0.0, math.exp(log_t))

    log_t, _ = sweep.golden_section_max(f, math.log(t_guess / 10.0), math.log(10.0 * t_guess),
                                        tol=1e-6)
    t_opt = math.exp(log_t)
    return f(log_t), t_opt


def _fig8_exchange(gamma_eff, cooperativity=8000.0, g_over_kappa=0.1):
    cav = CavitySystem.from_cooperativity(cooperativity, g_over_kappa, 1.0)
    g2 = cav.g**2

    def f(log_d):
        d = math.exp(log_d)
        return (0.5 * (exchange.ridge_f_pi(d, cav.kappa, cooperativity) + 1.0)
                - gamma_eff * math.pi * d / g2)

    ridge = math.log(exchange.optimal_detuning(cav.kappa, cooperativity))
    log_d, best = sweep.golden_section_max(f, ridge - 5.0, ridge + 3.0, tol=1e-6)
    return best, math.pi * math.exp(log_d) / g2


def _fig8_raman(gamma_eff, cooperativity=8000.0, g_over_kappa=0.1):
    cav = CavitySystem.from_cooperativity(cooperativity, g_over_kappa, 1.0)
    two_photon = raman.optimal_two_photon(cav.kappa, cooperativity)

    def f(log_d, log_x):
        cfg = raman.symmetric_raman_config(cav, two_photon, math.exp(log_d),
                                           min(math.exp(log_x), 0.45), gamma_eff)
        return raman.fidelity_analytic_raman(cfg).fidelity

    # coarse scan first, in one batch: the -Gamma*T clamp creates flat zero
    # plateaus that defeat a bare golden section
    d_grid = np.linspace(math.log(0.1 * cav.kappa), math.log(1e4 * cav.kappa), 41)
    x_grid = np.linspace(math.log(1e-3), math.log(0.45), 31)
    grid_cfg = raman.symmetric_raman_config(cav, two_photon, np.exp(d_grid)[:, None],
                                            np.minimum(np.exp(x_grid), 0.45), gamma_eff)
    values = raman.fidelity_analytic_raman_batch(grid_cfg).fidelity
    i, j = np.unravel_index(np.argmax(values), values.shape)
    d_lo, d_hi = d_grid[max(i - 1, 0)], d_grid[min(i + 1, len(d_grid) - 1)]
    x_lo, x_hi = x_grid[max(j - 1, 0)], x_grid[min(j + 1, len(x_grid) - 1)]
    log_d, log_x = float(d_grid[i]), float(x_grid[j])
    best = float(values[i, j])
    for _ in range(10):
        log_d, _ = sweep.golden_section_max(lambda v: f(v, log_x), d_lo, d_hi, tol=1e-6)
        new_x, best = sweep.golden_section_max(lambda v: f(log_d, v), x_lo, x_hi, tol=1e-6)
        if abs(new_x - log_x) < 1e-6:
            log_x = new_x
            break
        log_x = new_x
    cfg = raman.symmetric_raman_config(cav, two_photon, math.exp(log_d),
                                       min(math.exp(log_x), 0.45), gamma_eff)
    return best, raman.raman_gate_time(cfg)


def build_fig8(which):
    gammas = np.exp(np.linspace(math.log(1e-6), math.log(1e-1), 41))
    rows = []
    for ge in gammas:
        fs, ts = _fig8_scattering(float(ge))
        fe, te = _fig8_exchange(float(ge))
        fr, tr = _fig8_raman(float(ge))
        if which == "fig8a":
            rows.append([float(ge), fs, fe, fr])
        else:
            rows.append([float(ge), ts, te, tr])
    comments = ("cooperativity = 8000", "g_over_kappa = 0.1",
                "per-point optimum over gate time / detuning / drive strength")
    if which == "fig8a":
        header = ("gamma_eff_over_gamma", "F_scattering", "F_simple_exchange", "F_raman")
    else:
        header = ("gamma_eff_over_gamma", "T_scattering_gamma", "T_simple_exchange_gamma",
                  "T_raman_gamma")
    return FigureData(which, comments, header, np.array(rows))


BUILDERS: dict[str, Callable[[], FigureData]] = {
    "fig2a": build_fig2a,
    "fig2b": build_fig2b,
    "fig2c": build_fig2c,
    "fig4": build_fig4,
    "fig6a": build_fig6a,
    "fig6b": build_fig6b,
    "fig7": build_fig7,
    "fig8a": lambda: build_fig8("fig8a"),
    "fig8b": lambda: build_fig8("fig8b"),
}

FIGURE_NAMES = tuple(sorted(BUILDERS))


def build_figure(name: str) -> FigureData:
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown figure {name!r}; choose from {', '.join(FIGURE_NAMES)}")
    return builder()


def format_csv(data: FigureData) -> str:
    """Deterministic CSV: '#' parameter lines, header, 12-significant-digit
    scientific values, LF endings."""
    lines = [f"# {c}" for c in data.comments]
    lines.append(",".join(data.header))
    for row in data.rows:
        lines.append(",".join(f"{v:.11e}" for v in row))
    return "\n".join(lines) + "\n"
