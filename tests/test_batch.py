"""The array evaluation core against the one-configuration path.

Batches span sizes below, at and above the largest kernel call of
`phase_fidelity` (512 rows, one stack of 1,024 generators) and that stack
size itself; rows at the call boundaries are always compared. A batch of at
least two floor-sized shares (`exchange.MIN_BLOCK_ROWS` rows each) gives
each of up to one worker per CPU a contiguous share of its rows, walked in
calls of at most 512 rows, and the workers past the first run on threads,
which must leave every row bit for bit unchanged; a smaller batch starts no
thread.
"""
import dataclasses
import enum
import math
import os
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavity_gates import exchange as ex
from cavity_gates import linalg, lindblad
from cavity_gates import raman as rm
from cavity_gates import scattering as sc
from cavity_gates.cli import _EVALUATORS
from cavity_gates.errors import (ConvergenceFailure, NonFinite, ValidityWarning,
                                 ZeroDecoherence)
from cavity_gates.params import (CavitySystem, DecoherenceSpec, Method, gate_results,
                                 stack_configs)
from cavity_gates.scattering import PhotonPulse

#: most rows per block-kernel call of exchange.phase_fidelity, and generators per linalg call
BLOCK = 512
#: fewest rows per worker share of a split batch
FLOOR = ex.MIN_BLOCK_ROWS
CHUNK = 2 * BLOCK
SIZES = (1, 7, BLOCK, BLOCK + 1, CHUNK + 3)


def log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def random_cavity(rng, n=None):
    """One cavity, or one drawn per row when n is given."""
    c = log_uniform(rng, 1e2, 1e5, n or 1)
    g_over_kappa = log_uniform(rng, 1e-2, 10.0, n or 1)
    if n is None:
        c, g_over_kappa = float(c[0]), float(g_over_kappa[0])
    return CavitySystem.from_cooperativity(c, g_over_kappa, 1.0)


def exchange_batch(seed, n, per_row_cavity=False):
    rng = np.random.default_rng(seed)
    cav = random_cavity(rng, n if per_row_cavity else None)
    ideal = rng.random(n) < 0.5
    fields = dict(
        detuning=log_uniform(rng, 0.5, 10.0, n) * 0.5 * np.sqrt(cav.cooperativity) * cav.kappa,
        splitting_eg=np.where(ideal, math.inf, log_uniform(rng, 1e2, 1e5, n) * cav.kappa),
        detuning_error=rng.uniform(-0.05, 0.05, n),
        gamma_eff=log_uniform(rng, 1e-7, 10.0, n),   # the top decade clamps
        mode=list(ex.ExchangeMode)[rng.integers(2)],
    )
    if rng.random() < 0.5:
        fields["g_up_a"] = cav.g * rng.uniform(0.8, 1.2, n)
    return ex.ExchangeConfig(cav, **fields)


def raman_batch(seed, n, per_row_cavity=False):
    rng = np.random.default_rng(seed)
    cav = random_cavity(rng, n if per_row_cavity else None)
    ridge = 0.5 * np.sqrt(cav.cooperativity) * cav.kappa
    laser_a = log_uniform(rng, 0.5, 50.0, n) * cav.kappa
    fields = dict(
        laser_detuning_a=laser_a,
        laser_detuning_b=laser_a * rng.choice([1.0, 1.01], n),
        two_photon_a=log_uniform(rng, 0.5, 10.0, n) * ridge,
        two_photon_b=log_uniform(rng, 0.5, 10.0, n) * ridge,
        rabi_a=log_uniform(rng, 0.02, 0.3, n) * laser_a,
        gamma_eff=log_uniform(rng, 1e-7, 10.0, n),
    )
    if rng.random() < 0.5:
        fields["g_b"] = cav.g * rng.uniform(0.8, 1.2, n)
    return rm.RamanConfig(cav, **fields)


def scattering_batch(seed, n, per_row_cavity=False):
    """Scattering configs; about one row in ten has an emitter detuned far
    past the pulse-scale poles, which takes the matrix-function fallback,
    and about one in three has identical emitters, whose s_uu splits into a
    bright pair and a dark state."""
    rng = np.random.default_rng(seed)
    cav = random_cavity(rng, n if per_row_cavity else None)
    far = np.where(rng.random(n) < 0.1, 1e12, 1.0)
    pulse = PhotonPulse.from_gate_time(log_uniform(rng, 0.1, 50.0, n),
                                       delta_p=rng.uniform(-100.0, 100.0, n))
    delta_a = rng.uniform(-1.0, 1.0, n) * far
    delta_b = rng.uniform(-1.0, 1.0, n)
    gamma_eff = log_uniform(rng, 1e-7, 0.1, n)
    same = rng.random(n) < 0.3
    return sc.ScatteringConfig(cav, pulse, delta_eps_a=delta_a,
                               delta_eps_b=np.where(same, delta_a, delta_b), gamma_eff=gamma_eff)


def row(config, i):
    """The one-configuration config of row i of an array-valued config, its
    cavity and pulse included."""
    changes = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            changes[f.name] = row(value, i)
        elif isinstance(value, np.ndarray):
            changes[f.name] = float(value[i])
    return dataclasses.replace(config, **changes)


def rows_to_check(seed, n):
    rng = np.random.default_rng(seed + 1)
    picks = set(rng.choice(n, size=min(n, 8), replace=False).tolist())
    return sorted(i for i in picks | {0, n - 1, BLOCK - 1, BLOCK, CHUNK - 1, CHUNK} if i < n)


def assert_rows_match(evaluate, config, rows):
    """Each listed row of one evaluator call on an array-valued config
    equals the call on that row alone bit for bit (fidelity, gate time,
    success probability, notes and method), and a refused row is refused
    alone with the same error; returns the batch."""
    batch = evaluate(config)
    for i in rows:
        error = batch.refusal(i)
        if error is not None:
            with pytest.raises(type(error), match=f"^{re.escape(str(error))}$"):
                evaluate(row(config, i)).single()
            continue
        single = evaluate(row(config, i)).single()
        assert single.fidelity == batch.fidelity[i]
        assert single.gate_time == batch.gate_time[i]
        assert single == batch[i]
    return batch


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from(SIZES), per_row_cavity=st.booleans())
def test_exchange_batch_matches_scalar(seed, n, per_row_cavity):
    cfg = exchange_batch(seed, n, per_row_cavity)
    rows = rows_to_check(seed, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        numeric = assert_rows_match(ex.fidelity_numeric_exchange, cfg, rows)
        analytic = assert_rows_match(ex.fidelity_analytic_exchange, cfg, rows)
        assert numeric.shape == analytic.shape == (n,)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from(SIZES), per_row_cavity=st.booleans())
def test_raman_batch_matches_scalar(seed, n, per_row_cavity):
    cfg = raman_batch(seed, n, per_row_cavity)
    rows = rows_to_check(seed, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        numeric = assert_rows_match(rm.fidelity_numeric_raman, cfg, rows)
        analytic = assert_rows_match(rm.fidelity_analytic_raman, cfg, rows)
        assert numeric.shape == analytic.shape == (n,)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from(SIZES[:3]),
       per_row_cavity=st.booleans())
def test_scattering_numeric_batch_matches_scalar(seed, n, per_row_cavity):
    """The scattering numeric path, pole sum and matrix-function rows alike,
    so that CLI `sweep` and `evaluate` agree bit for bit. (The closed form
    keeps a float `**2`, which can round unlike numpy's square.)"""
    cfg = scattering_batch(seed, n, per_row_cavity)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        batch = assert_rows_match(sc.fidelity_numeric, cfg, rows_to_check(seed, n))
    assert batch.shape == (n,)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from(SIZES), per_row_cavity=st.booleans(),
       raman=st.booleans())
def test_lindblad_batch_matches_scalar(seed, n, per_row_cavity, raman):
    cfg = (raman_batch if raman else exchange_batch)(seed, n, per_row_cavity)
    rows = rows_to_check(seed, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        batch = assert_rows_match(lindblad.gate_fidelity_lindblad, cfg, rows)
        assert batch.shape == (n,)


FAMILIES = {"scattering": scattering_batch, "simple_exchange": exchange_batch,
            "raman": raman_batch}


def in_units(config, factor):
    """The same gate with every rate scaled by `factor` (so every time by
    1/factor): every float field of the config and of its parts."""
    changes = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            changes[f.name] = in_units(value, factor)
        elif value is not None and not isinstance(value, enum.Enum):
            changes[f.name] = value * factor
    return dataclasses.replace(config, **changes)


@pytest.mark.parametrize("scheme, method", _EVALUATORS)
def test_unit_change_keeps_every_fidelity(scheme, method):
    """The same gate in other units, on two seeded 250-row families (one
    cavity, and one per row). Rates x4 and times x1/4 are exact in binary
    floating point, and numpy's `eig` and `eigvals` are bit-equivariant
    under 4^k, so every fidelity is bit-identical and every gate time is
    exactly a quarter. x2 is exact too but changes LAPACK's rounding, and
    the a <-> b emitter swap is the same scattering gate. At x2 the
    exchange and Raman closed forms move no fidelity. The scattering paths
    and the simple exchange's numeric path and Lindblad check move none by
    more than 1e-14 (measured: 2.2e-16 on scattering numeric, 3.3e-16 under
    its swap, 5.6e-16 on the exchange). The Raman numeric path and Lindblad
    check propagate the 5x5 |ud> sector over T, so each row moves by at most
    machine epsilon times ||H_ud||_2 T (measured: 0.18 of that, and 4.3e-9
    at most; over 1,500 rows of seeds 0-5, 0.20 of it and 2.7e-8)."""
    evaluate = _EVALUATORS[(scheme, method)]
    for seed in (0, 1):
        config = FAMILIES[scheme](seed, 250, per_row_cavity=bool(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ValidityWarning)
            base = evaluate(config)
            quarter = evaluate(in_units(config, 4.0))
            assert np.array_equal(quarter.fidelity, base.fidelity, equal_nan=True)
            assert np.array_equal(quarter.gate_time, base.gate_time / 4.0, equal_nan=True)
            other = evaluate(in_units(config, 2.0))
            moved = np.abs(other.fidelity - base.fidelity)
            if scheme != "scattering" and method == "analytic":
                assert np.array_equal(other.fidelity, base.fidelity, equal_nan=True)
            elif scheme == "raman":
                lossy_sectors, params = config.sectors()
                norm = np.linalg.norm(lossy_sectors(*params)[0], 2, axis=(-2, -1))
                assert (moved <= np.finfo(float).eps * norm * base.gate_time).all()
            else:
                assert moved.max() <= 1e-14
            if scheme == "scattering":
                swapped = dataclasses.replace(config, delta_eps_a=config.delta_eps_b,
                                              delta_eps_b=config.delta_eps_a)
                assert np.abs(evaluate(swapped).fidelity - base.fidelity).max() <= 1e-14


def time_overflow_rows(scheme):
    """A valid config, then one whose gate time T overflows to inf:
    sigma_p = 5e-324 (scattering), Delta = 1e308 with Gamma_eff = 0 (simple
    exchange) or a laser detuning of 1e300 (Raman)."""
    if scheme == "scattering":
        cav = CavitySystem.from_cooperativity(1000.0, 0.1, 1.0)
        return [sc.ScatteringConfig(cav, PhotonPulse(sigma)) for sigma in (1.0, 5e-324)]
    cav = CavitySystem(0.1, 1.0, 1.0)
    if scheme == "simple_exchange":
        return [ex.ExchangeConfig(cav, detuning=detuning) for detuning in (5.0, 1e308)]
    return [rm.RamanConfig(cav, laser, laser, 10.0, 10.0, rabi_a=0.1 * laser)
            for laser in (1.0, 1e300)]


@pytest.mark.parametrize("scheme, method", _EVALUATORS)
def test_gate_time_out_of_range_is_refused_first(scheme, method):
    """On every (scheme, method) path, `gate_results` refuses a row whose
    gate time leaves the double range for its gate time, before the
    overflow of its fidelity or propagation, and no RuntimeWarning escapes;
    the valid row beside it is its one-row result bit for bit."""
    evaluate = _EVALUATORS[(scheme, method)]
    rows = time_overflow_rows(scheme)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        results = evaluate(stack_configs(rows))
        assert results[0] == evaluate(rows[0]).single()
    with pytest.raises(NonFinite, match="^gate_time is not finite$"):
        results[1]


def test_refused_rows_stay_rows():
    """1,000 simple-exchange rows at C = 5e4, g/kappa = 0.1 (kappa = 1.25e6
    gamma), with Delta log-spaced from 2e3 gamma to 2e6 gamma: the 41 rows
    below about kappa/450 overflow the closed form. One call refuses those
    rows alone (NaN, with their error) and returns the 959 others, every
    row equal to its one-row call; so do 500 of the rows on the numeric
    path, which overflows nowhere."""
    cav = CavitySystem.from_cooperativity(5e4, 0.1, 1.0)
    detuning = np.exp(np.linspace(math.log(2e3), math.log(2e6), 1000))
    analytic = assert_rows_match(ex.fidelity_analytic_exchange,
                                 ex.ExchangeConfig(cav, detuning=detuning), range(1000))
    refused = np.isnan(analytic.fidelity)
    assert refused.tolist() == [True] * 41 + [False] * 959
    assert np.isnan(analytic.gate_time[refused]).all()
    assert [(str(error), mask.tolist()) for error, mask in analytic.refused.items()] == [
        ("fidelity is nan: the evaluation overflowed", refused.tolist())]
    numeric = assert_rows_match(ex.fidelity_numeric_exchange,
                                ex.ExchangeConfig(cav, detuning=detuning[::2]), range(500))
    assert numeric.refused == {} and np.isfinite(numeric.fidelity).all()


def test_grid_shape_is_kept():
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    two_photon = np.array([20.0, 40.0, 60.0])[:, None] * cav.kappa
    laser = np.array([1.0, 3.0])[None, :] * cav.kappa
    cfg = rm.symmetric_raman_config(cav, two_photon, laser, 0.05)
    batch = rm.fidelity_numeric_raman(cfg)
    assert batch.shape == (3, 2)
    single = rm.symmetric_raman_config(cav, float(two_photon[2, 0]), float(laser[0, 1]), 0.05)
    assert rm.fidelity_numeric_raman(single).single().fidelity == batch.fidelity[2, 1]
    # a cavity per row broadcasts with scalar detunings, on both paths
    cavities = CavitySystem.from_cooperativity(np.array([800.0, 8000.0]), 0.1, 1.0)
    cfg = rm.symmetric_raman_config(cavities, 40.0 * cavities.kappa, 3.0 * cavities.kappa, 0.05)
    for evaluate in (rm.fidelity_numeric_raman, rm.fidelity_analytic_raman):
        assert_rows_match(evaluate, cfg, range(2))


def array_configs():
    """(paths, config) of configs holding two configurations, with the
    one-configuration paths of their gate (the expanded maxima)."""
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    cavities = CavitySystem.from_cooperativity(np.array([800.0, 8000.0]), 0.1, 1.0)
    exchange = ex.ExchangeConfig(cav, detuning=40.0 * cav.kappa, splitting_eg=300.0 * cav.kappa)
    raman = rm.symmetric_raman_config(cav, 40.0 * cav.kappa, 3.0 * cav.kappa, 0.05)
    exchange_paths = (ex.max_fidelity_exchange,)
    raman_paths = (rm.max_fidelity_raman,)
    two_rates = np.array([0.0, 1e-3])
    return [
        pytest.param(exchange_paths, dataclasses.replace(exchange, gamma_eff=two_rates),
                     id="exchange-gamma-eff"),
        pytest.param(exchange_paths, dataclasses.replace(exchange, cavity=cavities),
                     id="exchange-cavity"),
        pytest.param(raman_paths, dataclasses.replace(
            raman, two_photon_a=np.array([40.0, 50.0]) * cav.kappa), id="raman-two-photon"),
        pytest.param(raman_paths, dataclasses.replace(raman, gamma_eff=two_rates),
                     id="raman-gamma-eff"),
    ]


@pytest.mark.parametrize("paths, config", array_configs())
def test_one_configuration_paths_reject_arrays(paths, config):
    """The expanded maxima have no array form: an array config is refused
    with a ValueError that says so."""
    for path in paths:
        with pytest.raises(ValueError, match="takes one configuration"):
            path(config)


def random_lossy(rng, n, k):
    a = rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k))
    decay = rng.uniform(0.0, 2.0, (n, k))
    return a + a.conj().swapaxes(1, 2) - 0.5j * decay[:, :, None] * np.eye(k)


@pytest.mark.parametrize("n", (CHUNK - 1, CHUNK, CHUNK + 1))
def test_return_amplitudes_across_chunks(n):
    # one stacked call of any size; each row equals its one-row call
    rng = np.random.default_rng(n)
    h = random_lossy(rng, n, 3)
    t = rng.uniform(0.1, 3.0, n)
    amps = linalg.return_amplitudes(h, t)
    for i in sorted({0, CHUNK - 1, CHUNK, n - 1} & set(range(n))):
        assert amps[i] == linalg.return_amplitudes(h[i:i + 1], t[i])[0]
        assert amps[i] == pytest.approx(linalg._expm_squaring(-1j * t[i] * h[i])[0, 0], rel=1e-9)


def triple_exceptional_point(g):
    """Emitter-cavity-emitter chain with decays 0, 2 sqrt(2) g and 4 sqrt(2) g:
    a third-order exceptional point (a single defective 3x3 Jordan block),
    whose eigenvector matrix has a condition number near 1e10."""
    r2 = math.sqrt(2.0)
    return np.array([[0.0, g, 0.0], [g, -1j * r2 * g, g], [0.0, g, -2j * r2 * g]])


def test_exceptional_point_row_takes_fallback(monkeypatch):
    rng = np.random.default_rng(3)
    h = random_lossy(rng, 9, 3)
    h[4] = triple_exceptional_point(0.7)
    t = np.full(9, 2.0)
    calls = []
    squaring = linalg._expm_squaring

    def spy(m):
        calls.append(m)
        return squaring(m)

    monkeypatch.setattr(linalg, "_expm_squaring", spy)
    amps = linalg.return_amplitudes(h, t)
    assert len(calls) == 1 and np.array_equal(calls[0], -1j * 2.0 * h[4])
    assert amps[4] == linalg.return_amplitudes(h[4:5], 2.0)[0]
    # e^{-itH} = e^{-sqrt(2) g t} (1 - i t N - t^2 N^2 / 2) with N nilpotent
    gt = 0.7 * 2.0
    exact = math.exp(-math.sqrt(2.0) * gt) * (1.0 + math.sqrt(2.0) * gt + 0.5 * gt**2)
    assert amps[4] == pytest.approx(exact, rel=1e-12)


def test_second_order_exceptional_point_row(monkeypatch):
    # the emitter-cavity pair at g = kappa/4, gamma = Delta = 0: its
    # eigenvector condition number (~1e8) is far past EIG_COND_LIMIT, so
    # both of its rows take the Taylor fallback and match the closed form
    kappa, t = 1.0, 3.0
    ep = np.array([[0.0, kappa / 4.0], [kappa / 4.0, -0.5j * kappa]])
    h = np.stack([ep, np.diag([0.3, -0.2j]), ep])
    calls = []
    squaring = linalg._expm_squaring

    def spy(m):
        calls.append(m)
        return squaring(m)

    monkeypatch.setattr(linalg, "_expm_squaring", spy)
    amps = linalg.return_amplitudes(h, t)
    assert len(calls) == 2
    assert all(np.array_equal(m, -1j * t * ep) for m in calls)
    exact = math.exp(-kappa * t / 4.0) * (1.0 + kappa * t / 4.0)
    assert amps[0] == amps[2] == linalg.return_amplitudes(ep[None], t)[0]
    assert amps[0] == pytest.approx(exact, rel=1e-12)


def test_nan_row_raises_non_finite():
    """A NaN detuning or coupling is rejected by the config. A generator
    that overflows is refused on its own row, as a non-finite time is: on
    both Raman paths, overflowing detunings (refused first for their gate
    time) and an overflowing generator at a finite gate time (refused as a
    propagation overflow) leave every other row bit for bit as it was, and
    no RuntimeWarning escapes. In `linalg`, a NaN generator's amplitude is
    not finite and `refusals` names it."""
    cfg = raman_batch(5, 12)
    for name, value in (("two_photon_b", cfg.two_photon_b), ("g_b", np.full(12, cfg.cavity.g))):
        bad = value.copy()
        bad[7] = np.nan
        with pytest.raises(ValueError):
            dataclasses.replace(cfg, **{name: bad})
    huge = dataclasses.replace(cfg, **{name: np.where(np.arange(12) == 7, 1.7e308,
                                                      getattr(cfg, name))
                                       for name in ("laser_detuning_b", "two_photon_b")})
    cavity = CavitySystem(0.5, 1.0, 1.0)
    with pytest.warns(ValidityWarning, match="drive is not weak"):
        pair = stack_configs([
            rm.RamanConfig(cavity, 10.0, 10.0, 5.0, 5.0, rabi_a=1.0, rabi_b=1.0, g_b=0.5),
            rm.RamanConfig(cavity, 1e-310, 1e308, 1.0, 1e308, rabi_a=1e-5, rabi_b=1e6, g_b=0.5)])
    assert np.isfinite(pair.gate_time).all()
    for evaluate in (rm.fidelity_numeric_raman, lindblad.gate_fidelity_lindblad):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", ValidityWarning)
            clean, results, both = evaluate(cfg), evaluate(huge), evaluate(pair)
        keep = np.arange(12) != 7
        assert results.fidelity[keep].tobytes() == clean.fidelity[keep].tobytes()
        assert str(results.refusal(7)) == "gate_time is not finite"
        assert all(results.refusal(i) is None for i in keep.nonzero()[0])
        assert both[0] == evaluate(row(pair, 0)).single()
        with pytest.raises(NonFinite, match=f"^{re.escape(linalg.OVERFLOW)}$"):
            both[1]
    h = random_lossy(np.random.default_rng(1), 4, 3)
    h[2, 0, 1] = np.nan
    t = np.array([1.0, 1.0, 1.0, np.inf])
    amps = linalg.return_amplitudes(h, t)
    assert amps[0] == linalg.return_amplitudes(h[:1], 1.0)[0] and not np.isfinite(amps[2:]).any()
    [(error, mask)] = linalg.refusals(amps).items()
    assert isinstance(error, NonFinite) and mask.tolist() == [False, False, True, True]


def test_config_checks_are_vectorised():
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        ex.ExchangeConfig(cav, detuning=np.array([1.0, -1.0, 2.0]))
    with pytest.raises(ValueError):
        ex.ExchangeConfig(cav, detuning=np.ones(2), splitting_eg=np.array([math.inf, -5.0]))
    # a NaN row fails every check, and so does a zero splitting
    nan_row = np.array([1.0, np.nan, 2.0])
    exchange_bad = [dict(detuning=nan_row), dict(detuning=np.array([1.0, math.inf])),
                    dict(splitting_eg=nan_row), dict(splitting_eg=np.array([math.inf, 0.0])),
                    dict(splitting_eg=0.0), dict(gamma_eff=nan_row),
                    dict(gamma_eff=np.array([0.0, math.inf]))]
    for bad in exchange_bad:
        with pytest.raises(ValueError):
            ex.ExchangeConfig(cav, **{"detuning": np.ones(3), **bad})
    raman_good = dict(laser_detuning_a=np.full(3, 10.0), laser_detuning_b=np.full(3, 10.0),
                      two_photon_a=np.full(3, 40.0), two_photon_b=np.full(3, 40.0),
                      rabi_a=np.full(3, 0.5), gamma_eff=np.zeros(3))
    for name in raman_good:
        with pytest.raises(ValueError):
            rm.RamanConfig(cav, **{**raman_good, name: nan_row})
    with pytest.raises(ValueError):
        rm.RamanConfig(cav, **{**raman_good, "laser_detuning_b": np.array([10.0, math.inf, 10.0])})
    for delta_p in (math.nan, math.inf):
        with pytest.raises(ValueError):
            PhotonPulse(sigma_p=1.0, delta_p=delta_p)
    for bad in (dict(g=nan_row), dict(kappa=np.array([1.0, math.inf, 1.0])),
                dict(gamma=np.array([1.0, 0.0, 1.0]))):
        with pytest.raises(ValueError):
            CavitySystem(**{"g": np.ones(3), "kappa": np.ones(3), "gamma": 1.0, **bad})
    with pytest.raises(ValueError):
        CavitySystem.from_cooperativity(np.array([10.0, math.nan]), 0.1)
    rates = ("qubit_relaxation", "qubit_pure_dephasing", "optical_pure_dephasing",
             "shelving_decay")
    for name, value in [(name, v) for name in rates for v in (math.nan, math.inf)] + [
            ("qubit_t2", math.nan)]:
        with pytest.raises(ValueError):
            DecoherenceSpec(**{name: value})
    # the ideal spectator (splitting_eg = inf) is a decoupled state, not a
    # separate code path, so ideal and finite rows share one batch
    for mode in ex.ExchangeMode:
        mixed = ex.ExchangeConfig(
            cav, detuning=np.full(4, 40.0 * cav.kappa), mode=mode,
            splitting_eg=np.array([math.inf, 300.0, math.inf, 3000.0]) * cav.kappa,
            detuning_error=np.array([0.0, 0.01, 0.02, 0.0]))
        assert_rows_match(ex.fidelity_numeric_exchange, mixed, range(4))
        assert_rows_match(ex.fidelity_analytic_exchange, mixed, range(4))
    laser = np.array([10.0, 10.0, 10.0])
    with pytest.warns(ValidityWarning) as record:
        rm.RamanConfig(cav, laser, laser, 40.0, 40.0, rabi_a=np.array([1.0, 6.0, 7.0]))
    assert len(record) == 1


def test_clamped_note_same_on_both_paths():
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    cfg = ex.ExchangeConfig(cav, detuning=np.full(3, 40.0 * cav.kappa),
                            gamma_eff=np.array([0.0, 1e3, 0.0]))
    batch = ex.fidelity_numeric_exchange(cfg)
    assert batch.notes["clamped"].tolist() == [False, True, False]
    assert batch.fidelity[1] == 0.0
    single = ex.fidelity_numeric_exchange(row(cfg, 1)).single()
    assert single.notes == ("clamped",) and single.fidelity == 0.0


def test_optimum_helpers_take_arrays():
    """Each closed-form optimum evaluates a column of rows exactly as its
    per-row scalar calls, and a zero-Gamma row still raises."""
    c = np.array([10.0, 8000.0, 5e4, 1e6])
    gamma_eff = np.array([1e-6, 1e-3, 0.05, 0.5])
    kappa = np.array([0.5, 3.0, 40.0, 7.0])
    helpers = [(ex.optimal_detuning, (kappa, c)), (rm.optimal_two_photon, (kappa, c)),
               (ex.optimal_gate_time_exchange, (1.5, c)),
               (rm.optimal_gate_time_raman, (1.0, c, np.array([1.0, 3.0, 20.0, 50.0]))),
               (sc.optimal_gate_time, (c, 1.0, gamma_eff))]
    for helper, args in helpers:
        column = helper(*args)
        for i in range(len(c)):
            assert column[i] == helper(*(a[i] if np.ndim(a) else a for a in args))
    separation = rm.max_spectral_separation(kappa, 1.0, gamma_eff, c)
    for i in range(len(c)):
        assert tuple(field[i] for field in separation) == rm.max_spectral_separation(
            kappa[i], 1.0, gamma_eff[i], c[i])
    with pytest.raises(ZeroDecoherence):
        sc.optimal_gate_time(c, 1.0, np.array([1e-3, 0.0, 1e-3, 1e-3]))
    with pytest.raises(ZeroDecoherence):
        rm.max_spectral_separation(kappa, 1.0, np.array([1e-3, 1e-3, 0.0, 1e-3]), c)


# -- the threaded row shares of exchange.phase_fidelity -----------------------

@pytest.fixture
def started_threads(monkeypatch):
    """Names of the threads started while the test runs."""
    names = []

    class Counted(threading.Thread):
        def start(self):
            names.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Counted)
    return names


def set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def fig6a_config():
    """The fig6a grid: 121 x 121 two-photon and laser detunings, 14,641 rows."""
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    grid = np.exp(np.linspace(math.log(0.1), math.log(1e3), 121))
    dok, lok = np.meshgrid(grid, grid, indexing="ij")
    return rm.symmetric_raman_config(cav, dok * cav.kappa, lok * cav.kappa, 0.05)


@pytest.fixture(scope="module")
def fig6a_one_thread():
    """(config, F_pi from one block-kernel call on all 14,641 rows)."""
    cfg = fig6a_config()
    return cfg, ex._block_f_pi(*cfg.sectors(), cfg.gate_time).reshape(121, 121)


def test_return_amplitudes_do_not_depend_on_stack_size():
    """A row's bits do not depend on the size of its stack: fig6a's 14,641
    |uu> generators in one call equal 512-row calls bit for bit. (numpy
    multiplies into a temporary operand in place once it reaches 256 KiB,
    which would form a complex product with its operands swapped.)"""
    cfg = fig6a_config()
    lossy_sectors, params = cfg.sectors()
    h = lossy_sectors(*params)[1].reshape(-1, 3, 3)
    t = np.broadcast_to(cfg.gate_time, (121, 121)).ravel()
    whole = linalg.return_amplitudes(h, t)
    blocks = [linalg.return_amplitudes(h[s:s + BLOCK], t[s:s + BLOCK])
              for s in range(0, len(h), BLOCK)]
    assert np.array_equal(whole, np.concatenate(blocks))


@pytest.mark.parametrize("cpus", (1, 2, 3, 4))
def test_threaded_blocks_are_bit_identical(monkeypatch, started_threads, fig6a_one_thread,
                                           cpus):
    # more workers than this machine may have cores, switching often
    cfg, expected = fig6a_one_thread
    set_cpus(monkeypatch, cpus)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        f_pi = ex.phase_fidelity(*cfg.sectors(), cfg.gate_time)
    finally:
        sys.setswitchinterval(interval)
    assert f_pi.shape == expected.shape and np.array_equal(f_pi, expected)
    assert len(started_threads) == cpus - 1
    assert threading.active_count() == before   # every worker was joined


@pytest.mark.parametrize("n, cpus, calls", [
    (1, 4, 1), (21, 4, 1), (2 * FLOOR - 1, 4, 1), (2 * FLOOR, 2, 2), (402, 2, 2), (402, 4, 2),
    (BLOCK, 1, 1), (BLOCK + 1, 1, 2), (14641, 1, 29), (14641, 2, 30), (14641, 3, 30),
    (14641, 4, 32)])
def test_block_count(monkeypatch, started_threads, n, cpus, calls):
    """W = max(1, min(CPUs, n // 160)) workers each walk a contiguous share
    of the rows in block-kernel calls of at most 512 rows, which cover every
    row once: fig6b's 402 rows as 2 x 201 on two or four CPUs, fig6a's 14,641
    as 2 x 15 calls on two. W - 1 threads start."""
    set_cpus(monkeypatch, cpus)
    lossy_sectors, params = lossy_pairs(n, ())
    kernel = ex._block_f_pi
    seen = []

    def record(lossy_sectors, params, gate_time):
        seen.append((threading.current_thread(), np.broadcast(*params, gate_time).size))
        return kernel(lossy_sectors, params, gate_time)

    monkeypatch.setattr(ex, "_block_f_pi", record)
    f_pi = ex.phase_fidelity(lossy_sectors, params, 3.0)
    workers = max(1, min(cpus, n // FLOOR))
    sizes = [size for _, size in seen]
    assert len(sizes) == calls and max(sizes) <= BLOCK and sum(sizes) == n
    assert len(started_threads) == workers - 1 and len({t for t, _ in seen}) == workers
    assert np.array_equal(f_pi, kernel(lossy_sectors, params, 3.0))


def test_fig6b_batch_is_split_in_two(monkeypatch, started_threads):
    """fig6b's 2 x 201 numeric rows run as two blocks of 201 rows on two
    CPUs, one of them on one started thread, bit for bit as one block."""
    set_cpus(monkeypatch, 2)
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    laser = np.exp(np.linspace(math.log(0.1), math.log(1e3), 201)) * cav.kappa
    cfg = rm.symmetric_raman_config(cav, 0.5 * math.sqrt(8000.0) * cav.kappa, laser,
                                    np.array([[0.05], [1.0 / 3.0]]))
    kernel = ex._block_f_pi
    unsplit = kernel(*cfg.sectors(), cfg.gate_time).reshape(2, 201)
    sizes = []

    def record(lossy_sectors, params, gate_time):
        sizes.append(np.broadcast(*params, gate_time).size)
        return kernel(lossy_sectors, params, gate_time)

    monkeypatch.setattr(ex, "_block_f_pi", record)
    f_pi = ex.phase_fidelity(*cfg.sectors(), cfg.gate_time)
    assert sizes == [201, 201] and len(started_threads) == 1
    assert f_pi.shape == (2, 201) and np.array_equal(f_pi, unsplit)


def lossy_pairs(n, marked):
    """phase_fidelity inputs of n rows of 2x2 generators: every row is a
    diagonal (trusted) pair but the marked ones, which sit at the g = kappa/4
    exceptional point (untrusted: they take the Taylor fallback). Both
    sectors come in one array, as the exchange pair does."""
    ep = np.array([[0.0, 0.25], [0.25, -0.5j]])
    diag = np.diag([0.3, -0.2j])
    flag = np.zeros(n)
    flag[list(marked)] = 1.0

    def lossy_sectors(flag):
        h = np.where(flag[..., None, None] == 1.0, ep, diag)
        return np.stack([h, 0.5 * h])

    return lossy_sectors, [flag]


def test_nan_time_in_last_block_raises(monkeypatch, started_threads):
    """A NaN time, a row-local failure, makes that row's F_pi not finite in
    the last block of the last worker and leaves every other row as it was;
    reading that row, once refused, raises the NonFinite of its gate time,
    which `gate_results` puts before the overflow that `refusals` names."""
    set_cpus(monkeypatch, 4)
    n = 3 * BLOCK + 5
    lossy_sectors, params = lossy_pairs(n, ())
    t = np.full(n, 2.0)
    t[-1] = np.nan
    f_pi = ex.phase_fidelity(lossy_sectors, params, t)
    assert len(started_threads) == 3
    assert not np.isfinite(f_pi[-1]) and np.array_equal(f_pi[:-1], ex.phase_fidelity(
        lossy_sectors, [params[0][:-1]], 2.0))
    results = gate_results(f_pi, t, Method.NON_HERMITIAN, refused=linalg.refusals(f_pi))
    assert np.logical_or.reduce(list(results.refused.values())).nonzero()[0].tolist() == [n - 1]
    with pytest.raises(NonFinite, match="^gate_time is not finite$"):
        results[-1]


def test_worker_exception_reaches_caller(monkeypatch, started_threads):
    # four workers of 512 rows each: worker 1 runs on a started thread
    set_cpus(monkeypatch, 4)
    seen = []

    def fail(m):
        seen.append(threading.current_thread())
        raise ConvergenceFailure("injected")

    monkeypatch.setattr(linalg, "_expm_squaring", fail)
    n = 4 * BLOCK
    lossy_sectors, params = lossy_pairs(n, [BLOCK + 7])
    with pytest.raises(ConvergenceFailure, match="injected"):
        ex.phase_fidelity(lossy_sectors, params, 3.0)
    assert len(started_threads) == 3
    assert len(seen) == 1 and seen[0] is not threading.main_thread()


def test_single_block_starts_no_thread(monkeypatch):
    """A batch smaller than two floor-sized shares is one call on the
    calling thread, and so are a one-row evaluation and the 21 rows of a
    CLI sweep."""
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    set_cpus(monkeypatch, 4)
    monkeypatch.setattr(threading, "Thread", refuse)
    lossy_sectors, params = lossy_pairs(2 * FLOOR - 1, [3])
    f_pi = ex.phase_fidelity(lossy_sectors, params, 3.0)
    assert f_pi.shape == (2 * FLOOR - 1,)
    rm.fidelity_numeric_raman(row(raman_batch(2, 1), 0)).single()   # a one-row evaluation
    assert ex.fidelity_numeric_exchange(exchange_batch(2, 21)).shape == (21,)


#: LAPACK calls of a one-row evaluation, per (scheme, method)
ONE_ROW_LAPACK = {
    ("simple_exchange", "numeric"): {"eigvals": 1},
    ("simple_exchange", "lindblad"): {"eigvals": 1},
    ("raman", "numeric"): {"eig": 1, "inv": 1, "eigvals": 1},
    ("raman", "lindblad"): {"eig": 2, "inv": 2},
    ("scattering", "numeric"): {"eigvals": 1},
    ("scattering-identical", "numeric"): {},
    ("simple_exchange", "analytic"): {},
    ("raman", "analytic"): {},
    ("scattering", "analytic"): {},
}


@pytest.mark.parametrize("scheme, method", ONE_ROW_LAPACK)
def test_one_row_lapack_budget(monkeypatch, scheme, method):
    """A one-row evaluation pays for its eigensolve and not for the batch
    machinery: exactly these `np.linalg` calls (one stack per sector size),
    no thread and no CPU count. Identical scattering emitters need no
    eigensolve: their s_uu is a bright pair in closed form."""
    scattering = sc.ScatteringConfig(CavitySystem.from_cooperativity(1e3, 0.3, 1.0),
                                     PhotonPulse.from_gate_time(2.0, 3.0), 0.1, -0.2, 1e-4)
    configs = {
        "simple_exchange": row(exchange_batch(4, 1), 0),
        "raman": row(raman_batch(4, 1), 0),
        "scattering": scattering,
        "scattering-identical": dataclasses.replace(scattering, delta_eps_b=0.1),
    }
    calls = {}

    def counted(name, kernel):
        def spy(*args):
            calls[name] = calls.get(name, 0) + 1
            return kernel(*args)
        return spy

    def refuse(*args, **kwargs):
        raise AssertionError("a one-row evaluation started a thread or asked for the CPUs")

    for name in ("eig", "eigvals", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(threading, "Thread", refuse)
    monkeypatch.setattr(ex, "_cpus", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        evaluate = _EVALUATORS[(scheme.removesuffix("-identical"), method)]
        result = evaluate(configs[scheme]).single()
    assert 0.0 < result.fidelity <= 1.0
    assert calls == ONE_ROW_LAPACK[(scheme, method)]


#: np.errstate contexts that the package enters in a one-row evaluation: the
#: evaluator's own, one per gate-time or matched-drive helper and one per
#: public `linalg` kernel call, none between kernels (numpy's `eig`, `inv` and
#: `eigvals` enter their own, which are not counted)
ONE_ROW_ERRSTATE = {
    ("simple_exchange", "numeric"): 3,
    ("simple_exchange", "lindblad"): 3,
    ("raman", "numeric"): 5,
    ("raman", "lindblad"): 5,
    ("scattering", "numeric"): 3,
    ("scattering-identical", "numeric"): 2,
    ("simple_exchange", "analytic"): 2,
    ("raman", "analytic"): 3,
    ("scattering", "analytic"): 1,
}


@pytest.mark.parametrize("scheme, method", ONE_ROW_ERRSTATE)
def test_one_row_errstate_budget(monkeypatch, scheme, method):
    """A one-row evaluation enters each floating-point state once where it
    needs one, and no kernel enters one inside another: at most these
    `np.errstate` contexts, entered by a `with` or as a decorator, both of
    which build their state with numpy's `_make_extobj`."""
    config = pytest.importorskip("numpy._core._ufunc_config")
    if not hasattr(config, "_make_extobj"):
        pytest.skip("numpy < 2 builds no error-state object")
    scattering = sc.ScatteringConfig(CavitySystem.from_cooperativity(1e3, 0.3, 1.0),
                                     PhotonPulse.from_gate_time(2.0, 3.0), 0.1, -0.2, 1e-4)
    configs = {
        "simple_exchange": row(exchange_batch(4, 1), 0),
        "raman": row(raman_batch(4, 1), 0),
        "scattering": scattering,
        "scattering-identical": dataclasses.replace(scattering, delta_eps_b=0.1),
    }
    owners = []
    make = config._make_extobj

    def spy(*args, **kwargs):
        frame = sys._getframe(1)   # errstate.__enter__, or the decorator's wrapper
        owners.append(frame.f_locals["func"].__module__ if frame.f_code.co_name == "inner"
                      else frame.f_back.f_globals["__name__"])
        return make(*args, **kwargs)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        evaluate = _EVALUATORS[(scheme.removesuffix("-identical"), method)]
        monkeypatch.setattr(config, "_make_extobj", spy)
        result = evaluate(configs[scheme]).single()
    assert 0.0 < result.fidelity <= 1.0
    ours = [owner for owner in owners if owner.startswith("cavity_gates")]
    assert len(ours) == ONE_ROW_ERRSTATE[(scheme, method)], owners


def test_workers_see_the_callers_errstate(monkeypatch, started_threads):
    set_cpus(monkeypatch, 4)
    seen = []
    amplitudes = linalg.return_amplitudes

    def record(h, t):
        seen.append((threading.current_thread(), np.geterr()))
        return amplitudes(h, t)

    monkeypatch.setattr(linalg, "return_amplitudes", record)
    lossy_sectors, params = lossy_pairs(4 * BLOCK, ())
    with np.errstate(over="ignore", under="raise"):
        caller = np.geterr()
        ex.phase_fidelity(lossy_sectors, params, 3.0)
    assert caller != np.geterr()
    assert {thread.name for thread, _ in seen} >= set(started_threads)
    assert len(seen) == 4 and all(err == caller for _, err in seen)
