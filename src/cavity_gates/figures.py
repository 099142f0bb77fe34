"""Reproduction data for the survey figures, emitted as plot-ready tables.

All builders work in units of the emitter decay rate (gamma = 1). Each
figure carries a `#`-prefixed parameter block; swept quantities are marked
with the SWEEP token so a single row can be reproduced through the
command-line evaluate path. Every builder evaluates whole columns in one
evaluator call each, a fig2 builder in one call of each scattering path
(its g/kappa regimes a (3, 1) column); a refused cell raises its error
(`GateResults.whole`). The fig8 optima are row-wise golden-section searches
over the Gamma column on the closed-form kernels, validated once before the
search and reported through the public evaluators; fig8a and fig8b each run
them, by design (see `_fig8_table`).
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from . import exchange, raman, scattering, sweep
from .params import CavitySystem, clamp_unit


class FigureData(NamedTuple):
    name: str
    comments: tuple      # lines of the parameter block (without '# ' prefix)
    header: tuple
    rows: np.ndarray     # shape (n_rows, len(header))


# The config helpers take arrays that broadcast together, the cavity's
# (C, g/kappa) included, so that a builder evaluates its columns in batches.

def _scatter_configs(cooperativity, g_over_kappa, gamma_eff, delta_p, gate_time):
    cav = CavitySystem.from_cooperativity(cooperativity, g_over_kappa, 1.0)
    pulse = scattering.PhotonPulse.from_gate_time(gate_time, delta_p=delta_p)
    return scattering.ScatteringConfig(cav, pulse, gamma_eff=gamma_eff)


def _exchange_configs(cooperativity, g_over_kappa, detuning_over_kappa):
    cav = CavitySystem.from_cooperativity(cooperativity, g_over_kappa, 1.0)
    return exchange.ExchangeConfig(cav, detuning=detuning_over_kappa * cav.kappa)


def _raman_configs(cooperativity, g_over_kappa, two_photon_over_kappa, detuning_over_kappa,
                   rabi_over_detuning):
    cav = CavitySystem.from_cooperativity(cooperativity, g_over_kappa, 1.0)
    return raman.symmetric_raman_config(cav, two_photon_over_kappa * cav.kappa,
                                        detuning_over_kappa * cav.kappa, rabi_over_detuning)


_SCATTER_REGIMES = (0.01, 0.5, 10.0)


def _fig2(axis_name, axis_values, fixed, variable):
    """Shared builder for the scattering sweeps: three cavity regimes, with
    a numeric and an analytic column each (one (3, n) batch call apiece)."""
    header = [axis_name]
    for gk in _SCATTER_REGIMES:
        header += [f"F_numeric_gk{gk:g}", f"F_analytic_gk{gk:g}"]
    batch = _scatter_configs(g_over_kappa=np.array(_SCATTER_REGIMES)[:, None], **fixed,
                             **{variable: axis_values})
    columns = np.stack([scattering.fidelity_numeric(batch).whole().fidelity,
                        scattering.fidelity_analytic(batch).whole().fidelity], axis=1)
    return header, np.column_stack([axis_values, *columns.reshape(-1, len(axis_values))])


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
    batch = _scatter_configs(4000.0, values, 1e-5, 30.0, 2.0)
    rows = np.column_stack([values, scattering.fidelity_numeric(batch).whole().fidelity,
                            scattering.fidelity_analytic(batch).whole().fidelity])
    comments = (
        "[cavity]", "cooperativity = 4000", "g_over_kappa = SWEEP", "gamma = 1 rad_s",
        "[decoherence]", "qubit_pure_dephasing = 4e-5 per_gamma",
        "[scheme.scattering]", "delta_p = 30 per_gamma", "gate_time = 2 inv_gamma",
    )
    return FigureData("fig2c", comments, ("g_over_kappa", "F_numeric", "F_analytic"), rows)


def build_fig4():
    values = np.exp(np.linspace(math.log(1.0), math.log(1e4), 201))
    weak_and_strong = _exchange_configs(8000.0, np.array([[0.1], [10.0]]), values)
    numeric = exchange.fidelity_numeric_exchange(weak_and_strong).whole().fidelity
    analytic = exchange.fidelity_analytic_exchange(_exchange_configs(8000.0, 0.1, values))
    rows = np.column_stack([values, *numeric, analytic.whole().fidelity])
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
    numeric = raman.fidelity_numeric_raman(_raman_configs(8000.0, 0.1, dok, lok, 0.05))
    rows = np.column_stack([dok.ravel(), lok.ravel(), numeric.whole().fidelity.ravel()])
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
    numeric = raman.fidelity_numeric_raman(_raman_configs(
        8000.0, 0.1, ridge, values, np.array([[0.05], [1.0 / 3.0]]))).whole().fidelity
    analytic = raman.fidelity_analytic_raman(_raman_configs(8000.0, 0.1, ridge, values, 0.05))
    rows = np.column_stack([values, *numeric, analytic.whole().fidelity])
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


def _fig8_raman_configs(cav, two_photon, log_d, log_x, gamma_eff):
    """The symmetric Raman configs of the fig8 search points: laser detuning
    e^log_d and Omega/Delta = e^log_x, capped at 0.45."""
    return raman.symmetric_raman_config(cav, two_photon, np.exp(log_d),
                                        np.minimum(np.exp(log_x), 0.45), gamma_eff)


def _fig8_raman_objective(cav, two_photon, log_d, log_x, gamma_eff):
    """fidelity_analytic_raman(_fig8_raman_configs(...)).fidelity bit for bit,
    on the kernels with no config and no check. In a symmetric config the
    mean detunings are the detunings themselves and the matched drive_b is
    rabi_a exactly (matched_rabi_b scales it by sqrt(1.0))."""
    big_d = np.exp(log_d)
    rabi = np.minimum(np.exp(log_x), 0.45) * big_d
    gate_time = raman._gate_time(cav.g, cav.g, rabi, rabi, two_photon, big_d, big_d)
    return clamp_unit(raman._closed_form(cav, two_photon, big_d, np.sqrt(rabi * rabi),
                                       cav.g * cav.g, gamma_eff, gate_time))


def _fig8_table():
    """Optimal fidelities and gate times of the three gates over the fig8
    Gamma column, and each row's Raman optimum (Delta, Omega/Delta).

    Each optimum is a row-wise golden-section search on its gate's
    closed-form kernel, with no config or check per step. The searched
    inputs are validated once instead: the scattering bracket ends by one
    ScatteringConfig, and every Raman bracket by the coarse scan's
    `fidelity_analytic_raman` call (each check is monotone in each searched
    variable, so what holds at a box's ends holds inside it). The scattering
    ends are not evaluated: a golden section never visits them, and at large
    Gamma the short end lies outside the closed form's validity domain,
    which would warn for a point no cell comes from. Each reported optimum
    is evaluated once more through its public evaluator, so every cell
    passes its checks and warns where it should. fig8a and fig8b each build
    the table, by design: a table kept between builder calls would turn
    every later build into a lookup.
    """
    cooperativity, g_over_kappa = 8000.0, 0.1
    gammas = np.exp(np.linspace(math.log(1e-6), math.log(1e-1), 41))
    cav = CavitySystem.from_cooperativity(cooperativity, g_over_kappa, 1.0)

    def scatter_configs(log_t):
        return _scatter_configs(cooperativity, g_over_kappa, gammas, 0.0, np.exp(log_t))

    def scatter(log_t):   # fidelity_analytic(scatter_configs(log_t)).fidelity, bit for bit
        sigma_p = scattering.GATE_TIME_FACTOR / np.exp(log_t)   # PhotonPulse.from_gate_time
        return clamp_unit(scattering._closed_form(cav, 0.0, sigma_p, 0.0, 0.0, gammas,
                                                scattering.GATE_TIME_FACTOR / sigma_p))

    t_guess = scattering.optimal_gate_time(cooperativity, 1.0, gammas)
    log_lo, log_hi = np.log(t_guess / 10.0), np.log(10.0 * t_guess)
    scatter_configs(np.stack([log_lo, log_hi]))   # checks that hold on the whole bracket
    log_t, _ = sweep.golden_section_max(scatter, log_lo, log_hi, tol=1e-6)
    best_s = scattering.fidelity_analytic(scatter_configs(log_t)).whole().fidelity

    def simple(log_d):
        d = np.exp(log_d)
        return (0.5 * (exchange.ridge_f_pi(d, cav.kappa, cooperativity) + 1.0)
                - gammas * exchange.exchange_gate_time(d, cav.g, cav.g))

    ridge = math.log(exchange.optimal_detuning(cav.kappa, cooperativity))
    log_e, best_e = sweep.golden_section_max(simple, np.full_like(gammas, ridge - 5.0),
                                             ridge + 3.0, tol=1e-6)

    two_photon = raman.optimal_two_photon(cav.kappa, cooperativity)

    def f(log_d, log_x):
        return _fig8_raman_objective(cav, two_photon, log_d, log_x, gammas)

    # coarse scan first, in one batch: the -Gamma*T clamp creates flat zero
    # plateaus that defeat a bare golden section
    d_grid = np.linspace(math.log(0.1 * cav.kappa), math.log(1e4 * cav.kappa), 41)
    x_grid = np.linspace(math.log(1e-3), math.log(0.45), 31)
    values = raman.fidelity_analytic_raman(_fig8_raman_configs(
        cav, two_photon, d_grid[:, None], x_grid, gammas[:, None, None])).whole().fidelity
    i, j = np.unravel_index(values.reshape(len(gammas), -1).argmax(axis=1), values.shape[1:])
    d_lo, d_hi = d_grid[np.maximum(i - 1, 0)], d_grid[np.minimum(i + 1, len(d_grid) - 1)]
    x_lo, x_hi = x_grid[np.maximum(j - 1, 0)], x_grid[np.minimum(j + 1, len(x_grid) - 1)]
    log_d, log_x = d_grid[i], x_grid[j]
    active = np.ones(len(gammas), dtype=bool)   # rows whose x has not yet converged
    for _ in range(10):
        new_d, _ = sweep.golden_section_max(lambda v: f(v, log_x), d_lo, d_hi, tol=1e-6)
        new_x, _ = sweep.golden_section_max(lambda v: f(new_d, v), x_lo, x_hi, tol=1e-6)
        log_d, new_x = np.where(active, (new_d, new_x), (log_d, log_x))
        active &= ~(abs(new_x - log_x) < 1e-6)
        log_x = new_x
        if not active.any():
            break
    best = raman.fidelity_analytic_raman(_fig8_raman_configs(cav, two_photon, log_d, log_x,
                                                             gammas)).whole()
    return (np.column_stack([gammas, best_s, best_e, best.fidelity]),
            np.column_stack([gammas, np.exp(log_t),
                             exchange.exchange_gate_time(np.exp(log_e), cav.g, cav.g),
                             best.gate_time]),
            np.column_stack([np.exp(log_d), np.minimum(np.exp(log_x), 0.45)]))


def build_fig8(which):
    fidelity, gate_time, _ = _fig8_table()
    comments = ("cooperativity = 8000", "g_over_kappa = 0.1",
                "per-point optimum over gate time / detuning / drive strength")
    if which == "fig8a":
        header = ("gamma_eff_over_gamma", "F_scattering", "F_simple_exchange", "F_raman")
        return FigureData(which, comments, header, fidelity)
    header = ("gamma_eff_over_gamma", "T_scattering_gamma", "T_simple_exchange_gamma",
              "T_raman_gamma")
    return FigureData(which, comments, header, gate_time)


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
