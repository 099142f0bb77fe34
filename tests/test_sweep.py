import math

import numpy as np
import pytest

from cavity_gates import sweep


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
    with pytest.raises(ValueError):
        sweep.Axis("a", 0.0, math.inf, 5)


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

