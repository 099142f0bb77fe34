"""The array evaluation core against the one-configuration path.

Batches span sizes below, at and above the row block of `phase_fidelity`
(linalg.CHUNK // 2 rows, one stack of linalg.CHUNK generators) and the
linalg chunk itself; rows at the block boundaries are always compared.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavity_gates import exchange as ex
from cavity_gates import linalg
from cavity_gates import raman as rm
from cavity_gates.errors import NonFinite, ValidityWarning
from cavity_gates.params import CavitySystem

CHUNK = linalg.CHUNK
BLOCK = CHUNK // 2
SIZES = (1, 7, BLOCK, BLOCK + 1, CHUNK + 3)
REL = 1e-12


def log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def random_cavity(rng):
    c = float(log_uniform(rng, 1e2, 1e5, 1)[0])
    return CavitySystem.from_cooperativity(c, float(log_uniform(rng, 1e-2, 10.0, 1)[0]), 1.0)


def exchange_batch(seed, n):
    rng = np.random.default_rng(seed)
    cav = random_cavity(rng)
    ideal = rng.random(n) < 0.5
    fields = dict(
        detuning=log_uniform(rng, 0.5, 10.0, n) * 0.5 * math.sqrt(cav.cooperativity) * cav.kappa,
        splitting_eg=np.where(ideal, math.inf, log_uniform(rng, 1e2, 1e5, n) * cav.kappa),
        detuning_error=rng.uniform(-0.05, 0.05, n),
        gamma_eff=log_uniform(rng, 1e-7, 10.0, n),   # the top decade clamps
        mode=list(ex.ExchangeMode)[rng.integers(2)],
    )
    if rng.random() < 0.5:
        fields["g_up_a"] = cav.g * rng.uniform(0.8, 1.2, n)
    return ex.ExchangeConfig(cav, **fields)


def raman_batch(seed, n):
    rng = np.random.default_rng(seed)
    cav = random_cavity(rng)
    ridge = 0.5 * math.sqrt(cav.cooperativity) * cav.kappa
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


def row(config, i):
    """The one-configuration config of row i of an array-valued config."""
    return dataclasses.replace(config, **{
        f.name: float(getattr(config, f.name)[i]) for f in dataclasses.fields(config)
        if isinstance(getattr(config, f.name), np.ndarray)})


def rows_to_check(seed, n):
    rng = np.random.default_rng(seed + 1)
    picks = set(rng.choice(n, size=min(n, 8), replace=False).tolist())
    return sorted(i for i in picks | {0, n - 1, BLOCK - 1, BLOCK, CHUNK - 1, CHUNK} if i < n)


def assert_rows_match(batch, scalar, rows):
    for i in rows:
        single = scalar(i)
        assert single.fidelity == pytest.approx(batch.fidelity[i], rel=REL, abs=0.0)
        assert single.gate_time == pytest.approx(batch.gate_time[i], rel=REL, abs=0.0)
        assert single.notes == batch[i].notes
        assert single.method is batch.method


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from(SIZES))
def test_exchange_batch_matches_scalar(seed, n):
    cfg = exchange_batch(seed, n)
    rows = rows_to_check(seed, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        numeric = ex.fidelity_numeric_exchange_batch(cfg)
        analytic = ex.fidelity_analytic_exchange_batch(cfg)
        assert numeric.shape == analytic.shape == (n,)
        assert_rows_match(numeric, lambda i: ex.fidelity_numeric_exchange(row(cfg, i)), rows)
        assert_rows_match(analytic, lambda i: ex.fidelity_analytic_exchange(row(cfg, i)), rows)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from(SIZES))
def test_raman_batch_matches_scalar(seed, n):
    cfg = raman_batch(seed, n)
    rows = rows_to_check(seed, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        numeric = rm.fidelity_numeric_raman_batch(cfg)
        analytic = rm.fidelity_analytic_raman_batch(cfg)
        assert numeric.shape == analytic.shape == (n,)
        assert_rows_match(numeric, lambda i: rm.fidelity_numeric_raman(row(cfg, i)), rows)
        assert_rows_match(analytic, lambda i: rm.fidelity_analytic_raman(row(cfg, i)), rows)


def test_grid_shape_is_kept():
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    two_photon = np.array([20.0, 40.0, 60.0])[:, None] * cav.kappa
    laser = np.array([1.0, 3.0])[None, :] * cav.kappa
    cfg = rm.symmetric_raman_config(cav, two_photon, laser, 0.05)
    batch = rm.fidelity_numeric_raman_batch(cfg)
    assert batch.shape == (3, 2)
    single = rm.symmetric_raman_config(cav, float(two_photon[2, 0]), float(laser[0, 1]), 0.05)
    assert rm.fidelity_numeric_raman(single).fidelity == pytest.approx(
        batch.fidelity[2, 1], rel=REL, abs=0.0)


def random_lossy(rng, n, k):
    a = rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k))
    decay = rng.uniform(0.0, 2.0, (n, k))
    return a + a.conj().swapaxes(1, 2) - 0.5j * decay[:, :, None] * np.eye(k)


@pytest.mark.parametrize("n", (CHUNK - 1, CHUNK, CHUNK + 1))
def test_return_amplitudes_across_chunks(n):
    rng = np.random.default_rng(n)
    h = random_lossy(rng, n, 3)
    t = rng.uniform(0.1, 3.0, n)
    amps = linalg.return_amplitudes(h, 1, t)
    for i in sorted({0, CHUNK - 1, CHUNK, n - 1} & set(range(n))):
        assert amps[i] == pytest.approx(linalg.return_amplitude(h[i], 1, t[i]), rel=REL)
        assert amps[i] == pytest.approx(linalg._expm_squaring(-1j * t[i] * h[i])[1, 1], rel=1e-9)


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
    amps = linalg.return_amplitudes(h, 0, t)
    assert len(calls) == 1 and np.array_equal(calls[0], -1j * 2.0 * h[4])
    assert amps[4] == linalg.return_amplitude(h[4], 0, 2.0)
    # e^{-itH} = e^{-sqrt(2) g t} (1 - i t N - t^2 N^2 / 2) with N nilpotent
    gt = 0.7 * 2.0
    exact = math.exp(-math.sqrt(2.0) * gt) * (1.0 + math.sqrt(2.0) * gt + 0.5 * gt**2)
    assert amps[4] == pytest.approx(exact, rel=1e-12)


def test_second_order_exceptional_point_row():
    # the emitter-cavity pair at g = kappa/4, gamma = Delta = 0: its
    # eigenvector condition number (~1e8) sits at EIG_COND_LIMIT, so the row
    # may take either path; both agree with the closed form to 1e-7
    kappa, t = 1.0, 3.0
    ep = np.array([[0.0, kappa / 4.0], [kappa / 4.0, -0.5j * kappa]])
    h = np.stack([ep, np.diag([0.3, -0.2j]), ep])
    amps = linalg.return_amplitudes(h, 0, t)
    exact = math.exp(-kappa * t / 4.0) * (1.0 + kappa * t / 4.0)
    assert amps[0] == amps[2] == linalg.return_amplitude(ep, 0, t)
    assert amps[0] == pytest.approx(exact, rel=1e-7)


def test_nan_row_raises_non_finite():
    cfg = raman_batch(5, 12)
    bad = cfg.two_photon_b.copy()
    bad[7] = np.nan
    with pytest.raises(NonFinite):
        rm.fidelity_numeric_raman_batch(dataclasses.replace(cfg, two_photon_b=bad))
    h = random_lossy(np.random.default_rng(1), 4, 3)
    h[2, 0, 1] = np.nan
    with pytest.raises(NonFinite):
        linalg.return_amplitudes(h, 0, 1.0)
    with pytest.raises(NonFinite):
        linalg.return_amplitudes(h[:2], 0, np.array([1.0, np.inf]))


def test_config_checks_are_vectorised():
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    with pytest.raises(ValueError):
        ex.ExchangeConfig(cav, detuning=np.array([1.0, -1.0, 2.0]))
    with pytest.raises(ValueError):
        ex.ExchangeConfig(cav, detuning=np.ones(2), splitting_eg=np.array([math.inf, -5.0]))
    # the ideal spectator (splitting_eg = inf) is a decoupled state, not a
    # separate code path, so ideal and finite rows share one batch
    for mode in ex.ExchangeMode:
        mixed = ex.ExchangeConfig(
            cav, detuning=np.full(4, 40.0 * cav.kappa), mode=mode,
            splitting_eg=np.array([math.inf, 300.0, math.inf, 3000.0]) * cav.kappa,
            detuning_error=np.array([0.0, 0.01, 0.02, 0.0]))
        assert_rows_match(ex.fidelity_numeric_exchange_batch(mixed),
                          lambda i: ex.fidelity_numeric_exchange(row(mixed, i)), range(4))
        assert_rows_match(ex.fidelity_analytic_exchange_batch(mixed),
                          lambda i: ex.fidelity_analytic_exchange(row(mixed, i)), range(4))
    laser = np.array([10.0, 10.0, 10.0])
    with pytest.warns(ValidityWarning) as record:
        rm.RamanConfig(cav, laser, laser, 40.0, 40.0, rabi_a=np.array([1.0, 6.0, 7.0]))
    assert len(record) == 1


def test_clamped_note_same_on_both_paths():
    cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
    cfg = ex.ExchangeConfig(cav, detuning=np.full(3, 40.0 * cav.kappa),
                            gamma_eff=np.array([0.0, 1e3, 0.0]))
    batch = ex.fidelity_numeric_exchange_batch(cfg)
    assert batch.notes["clamped"].tolist() == [False, True, False]
    assert batch.fidelity[1] == 0.0
    single = ex.fidelity_numeric_exchange(row(cfg, 1))
    assert single.notes == ("clamped",) and single.fidelity == 0.0
