import math
import warnings

import pytest
from hypothesis import given, strategies as st

import numpy as np

from cavity_gates.errors import NonFinite
from cavity_gates.params import (
    CavitySystem, DecoherenceSpec, GateResult, Method, Scheme, gate_results,
)

positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)


def test_cooperativity_direct_substitution():
    assert CavitySystem(g=1.0, kappa=4.0, gamma=1.0).cooperativity == 1.0


@pytest.mark.parametrize("g", [1e-200, np.array([1.0, 1e-200])], ids=["scalar", "array"])
def test_cavity_refuses_underflowed_cooperativity(g):
    """A C that underflows to 0 (g^2 = 0), which every scheme divides by, is
    refused when the cavity is built, for a scalar g and an array row."""
    with pytest.raises(ValueError, match=r"^cooperativity 4 g\^2/\(kappa gamma\) underflows "
                                         r"to 0$"):
        CavitySystem(g=g, kappa=1.0, gamma=1.0)


@pytest.mark.parametrize("c, gok, gamma", [
    (4000.0, 0.1, 1.0),
    (50_000.0, 0.1, 2.0 * math.pi * 596.0),
    (8000.0, 10.0, 1.0),
])
def test_from_cooperativity_round_trip(c, gok, gamma):
    cav = CavitySystem.from_cooperativity(c, gok, gamma)
    assert cav.cooperativity == pytest.approx(c, rel=1e-12)
    assert cav.g_over_kappa == pytest.approx(gok, rel=1e-12)
    assert cav.gamma == gamma


@given(g=positive, kappa=positive, gamma=positive, factor=positive)
def test_cooperativity_scale_invariant(g, kappa, gamma, factor):
    cav = CavitySystem(g, kappa, gamma)
    scaled = CavitySystem(g * factor, kappa * factor, gamma * factor)
    assert scaled.cooperativity == pytest.approx(cav.cooperativity, rel=1e-12)


@pytest.mark.parametrize("bad", [dict(g=0.0), dict(kappa=-1.0), dict(gamma=math.inf)])
def test_cavity_validation(bad):
    params = dict(g=1.0, kappa=1.0, gamma=1.0)
    params.update(bad)
    with pytest.raises(ValueError):
        CavitySystem(**params)


def test_effective_rate_t2_only():
    spec = DecoherenceSpec(qubit_t2=6.6e-3)
    assert spec.effective_rate(Scheme.SCATTERING) == pytest.approx(75.7576, rel=1e-4)


def test_effective_rate_simple_exchange_adds_optical_dephasing():
    spec = DecoherenceSpec(qubit_t2=6.6e-3, optical_pure_dephasing=9e3)
    rate = spec.effective_rate(Scheme.SIMPLE_EXCHANGE)
    assert rate == pytest.approx(4575.76, rel=1e-4)  # ~4.58e3 1/s
    # scattering path ignores optical dephasing
    assert spec.effective_rate(Scheme.SCATTERING) == pytest.approx(75.7576, rel=1e-4)


def test_effective_rate_all_zero():
    assert DecoherenceSpec().effective_rate(Scheme.RAMAN) == 0.0


def test_raman_adds_shelving_decay():
    spec = DecoherenceSpec(shelving_decay=8.0)
    assert spec.effective_rate(Scheme.RAMAN) == pytest.approx(1.0)
    assert spec.effective_rate(Scheme.SCATTERING) == 0.0


@given(relax=st.floats(0, 1e3), dephase=st.floats(0, 1e3),
       optical=st.floats(0, 1e3), shelving=st.floats(0, 1e3))
def test_effective_rate_floor(relax, dephase, optical, shelving):
    spec = DecoherenceSpec(qubit_relaxation=relax, qubit_pure_dephasing=dephase,
                           optical_pure_dephasing=optical, shelving_decay=shelving)
    floor = relax / 8.0 + dephase / 4.0
    for scheme in Scheme:
        assert spec.effective_rate(scheme) >= floor - 1e-15


def test_gate_result_validation():
    with pytest.raises(ValueError):
        GateResult(fidelity=1.2, gate_time=1.0, success_probability=1.0,
                   method=Method.ANALYTIC)
    with pytest.raises(ValueError):
        GateResult(fidelity=0.5, gate_time=0.0, success_probability=1.0,
                   method=Method.ANALYTIC)
    with pytest.raises(ValueError):
        GateResult(fidelity=0.5, gate_time=1.0, success_probability=-0.1,
                   method=Method.ANALYTIC)


def assert_last_row_refused(results, message):
    """The last row of results is refused with NonFinite(message), NaN in
    every field, and the rows before it are kept."""
    last = (-1,) * len(results.shape)
    assert np.isnan(results.fidelity[last]) and np.isnan(results.gate_time[last])
    assert np.isnan(np.broadcast_to(results.success_probability, results.shape)[last])
    with pytest.raises(NonFinite, match=f"^{message}"):
        results[last]
    with pytest.raises(NonFinite, match=f"^{message}"):
        results.whole()
    if results.shape:
        assert results[0].fidelity == 0.5 and results[0].success_probability == 1.0


@pytest.mark.parametrize("gate_time", [math.inf, -math.inf, math.nan,
                                       np.array([1.0, math.inf])])
def test_gate_results_refuse_non_finite_gate_time(gate_time):
    # an overflowed gate time is an evaluator error, not a result
    results = gate_results(np.full(np.shape(gate_time), 0.5), gate_time, Method.ANALYTIC)
    assert_last_row_refused(results, "gate_time is not finite")


@pytest.mark.parametrize("gate_time", [0.0, -1.0, np.array([1.0, 0.0])])
def test_gate_results_refuse_non_positive_gate_time(gate_time):
    # an underflowed gate time is an evaluator error too, not a config error
    results = gate_results(np.full(np.shape(gate_time), 0.5), gate_time, Method.ANALYTIC)
    assert_last_row_refused(results, "gate_time must be > 0")


def test_gate_results_keep_the_first_refusal_of_a_row():
    """A row's first refusal wins: a gate time not finite or not > 0, then
    the caller's, in its order, then NaN fidelity and NaN probability. A row
    none refuses is kept and a batch with no refused row has no `refused`
    entry."""
    caller = NonFinite("the caller's")
    nan, inf = math.nan, math.inf
    results = gate_results(np.array([0.5, nan, nan, 0.5, nan, nan, 0.5]),
                           np.array([1.0, 1.0, 1.0, inf, inf, 0.0, 2.0]),
                           Method.NUMERIC_AMPLITUDE,
                           success_probability=np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, nan]),
                           refused={caller: np.array([0, 0, 1, 1, 0, 0, 0], dtype=bool)})
    assert results[0].fidelity == 0.5
    messages = []
    for row in range(1, 7):
        with pytest.raises(NonFinite) as refused:
            results[row]
        messages.append(str(refused.value))
    time = "gate_time is not finite"
    assert messages == ["fidelity is nan: the evaluation overflowed", "the caller's", time, time,
                        "gate_time must be > 0",
                        "success_probability is nan: the evaluation overflowed"]
    assert np.isnan(results.success_probability[1:]).all()
    assert gate_results(np.array([0.5, 1.5]), 1.0, Method.ANALYTIC).refused == {}


def test_cavity_with_overflowing_array_rates_warns_nothing():
    """Array rates whose g^2 and kappa gamma both overflow make C = inf/inf:
    refused with the ValueError alone, not a RuntimeWarning first (an error
    in this suite)."""
    rates = np.array([1e200, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="cooperativity .* must be finite"):
            CavitySystem(g=rates, kappa=rates, gamma=rates)
