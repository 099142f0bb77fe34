import math

import numpy as np
import pytest

from cavity_gates import sweep
from cavity_gates.errors import BoundaryMaximum


def quadratic(x):
    return 1.0 - (x - 1.3) ** 2


def bumpy(x, y):
    return 1.0 - (x - 2.0) ** 2 - 0.5 * (y - 0.7) ** 2


def constant(x):
    return 0.5


def sometimes_fails(x):
    if 0.4 < x < 0.6:
        raise RuntimeError("bad cell")
    return 1.0 - x * x


def test_axis_values():
    lin = sweep.Axis("a", 0.0, 1.0, 5).values()
    assert np.allclose(lin, [0.0, 0.25, 0.5, 0.75, 1.0])
    log = sweep.Axis("a", 1.0, 100.0, 3, scale="log").values()
    assert np.allclose(log, [1.0, 10.0, 100.0])


def test_axis_validation():
    with pytest.raises(ValueError):
        sweep.Axis("a", 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        sweep.Axis("a", 1.0, 0.0, 5)
    with pytest.raises(ValueError):
        sweep.Axis("a", -1.0, 1.0, 5, scale="log")
    with pytest.raises(ValueError):
        sweep.Axis("a", 0.0, 1.0, 5, scale="cubic")


def test_constant_evaluator_tie_break():
    spec = sweep.SweepSpec(axes=(sweep.Axis("x", 0.0, 1.0, 7),), evaluator=constant)
    result = sweep.run_sweep(spec)
    assert result.max_index == (0,)
    assert result.max_value == 0.5


def test_run_sweep_deterministic():
    spec = sweep.SweepSpec(axes=(sweep.Axis("x", 0.0, 2.0, 33),), evaluator=quadratic)
    a = sweep.run_sweep(spec)
    b = sweep.run_sweep(spec)
    assert a.values.tobytes() == b.values.tobytes()
    assert a.metadata["config_hash"] == b.metadata["config_hash"]


def test_nan_policy():
    spec = sweep.SweepSpec(axes=(sweep.Axis("x", 0.0, 1.0, 11),), evaluator=sometimes_fails)
    result = sweep.run_sweep(spec)
    assert len(result.errors) == 1  # only x = 0.5 lies strictly inside (0.4, 0.6)
    assert np.isnan(result.values).sum() == 1
    assert result.max_index == (0,)


def test_refine_max_quadratic_vertex():
    spec = sweep.SweepSpec(axes=(sweep.Axis("x", 0.0, 2.0, 21),), evaluator=quadratic)
    result = sweep.run_sweep(spec)
    refined = sweep.refine_max(result)
    assert refined.coords[0] == pytest.approx(1.3, abs=2e-4)
    assert refined.value >= result.max_value


def test_refine_max_2d():
    axes = (sweep.Axis("x", 0.5, 3.5, 19), sweep.Axis("y", 0.0, 1.5, 19))
    result = sweep.run_sweep(sweep.SweepSpec(axes=axes, evaluator=bumpy))
    refined = sweep.refine_max(result)
    assert refined.coords[0] == pytest.approx(2.0, abs=1e-3)
    assert refined.coords[1] == pytest.approx(0.7, abs=1e-3)
    assert refined.value >= result.max_value


def test_refine_max_log_axis():
    def log_peak(x):
        return 1.0 - (math.log(x) - math.log(30.0)) ** 2

    spec = sweep.SweepSpec(axes=(sweep.Axis("x", 1.0, 1000.0, 31, scale="log"),),
                           evaluator=log_peak)
    refined = sweep.refine_max(sweep.run_sweep(spec))
    assert refined.coords[0] == pytest.approx(30.0, rel=1e-3)


def test_refine_max_boundary():
    spec = sweep.SweepSpec(axes=(sweep.Axis("x", 2.0, 4.0, 11),), evaluator=quadratic)
    with pytest.raises(BoundaryMaximum):
        sweep.refine_max(sweep.run_sweep(spec))


def test_golden_section_cosine():
    x, fx = sweep.golden_section_max(math.cos, -2.0, 2.0, tol=1e-6)
    assert x == pytest.approx(0.0, abs=1e-5)
    assert fx == pytest.approx(1.0, abs=1e-9)


def test_cooperativity_scaling_table():
    table = sweep.cooperativity_scaling([100.0, 1000.0, 1e4, 1e12])
    c = table["cooperativity"]
    assert table["scattering"][0] == pytest.approx(1 - 1 / 101.0 - 1 / 402.0, rel=1e-14)
    assert np.allclose(table["simple_exchange"], table["raman"])
    assert table["simple_exchange"][-1] == pytest.approx(1.0, abs=1e-5)
    assert table["scattering"][-1] == pytest.approx(1.0, abs=1e-11)
    assert np.all(np.diff(table["scattering"]) > 0)
    with pytest.raises(ValueError):
        sweep.cooperativity_scaling([0.5])


def test_spec_requires_one_or_two_axes():
    with pytest.raises(ValueError):
        sweep.SweepSpec(axes=(), evaluator=quadratic)
