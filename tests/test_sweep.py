import math

import numpy as np
import pytest

from cavity_gates import sweep
from cavity_gates.errors import NonFinite


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
    # a scalar call with a plain Python callable gives scalars
    for f in (math.cos, lambda v: -v * v):
        assert all(np.ndim(value) == 0 and isinstance(value, float)
                   for value in sweep.golden_section_max(f, -1.0, 1.0, tol=1e-6))
    # array brackets: rows of different width and span stop after different
    # numbers of steps, and a flat row ties every comparison; each row's
    # (x, f(x)) is that of its own scalar call, bit for bit
    lo = np.array([-2.0, -0.5, 3.0, 100.0, -7.0])
    hi = np.array([2.0, 0.1, 3.5, 180.0, 5.0])
    peak = np.array([0.3, -0.2, 3.4, 150.0, 0.0])
    slope = np.array([1.0, 4.0, 0.5, 1e-3, 0.0])   # the last row is flat

    def objective(rows):
        return lambda v: np.cos(slope[rows] * (v - peak[rows]))

    xs, fxs = sweep.golden_section_max(objective(slice(None)), lo, hi, tol=1e-6)
    steps = set()
    for i in range(len(lo)):
        evals = []

        def scalar(v, f=objective(i)):
            evals.append(v)
            return f(v)

        x, fx = sweep.golden_section_max(scalar, lo[i], hi[i], tol=1e-6)
        assert (xs[i], fxs[i]) == (x, fx)
        steps.add(len(evals))
    assert len(steps) > 1
    # brackets that broadcast: a scalar hi against a column of lo
    xs, fxs = sweep.golden_section_max(objective(slice(0, 2)), lo[:2], 2.0, tol=1e-6)
    for i in range(2):
        assert (xs[i], fxs[i]) == sweep.golden_section_max(objective(i), lo[i], 2.0, tol=1e-6)


def test_golden_section_refuses_nan():
    """A NaN objective value raises NonFinite: it neither comes back as the
    optimum (the scalar case returned (0.99999967, nan)) nor steers a row
    of a per-row bracket, while the rows it spares still converge alone."""
    def scalar(v):
        return math.nan if v > 0.3 else -(v - 0.5) ** 2

    with pytest.raises(NonFinite, match="NaN"):
        sweep.golden_section_max(scalar, -1.0, 1.0, tol=1e-6)

    def rows(v):
        return np.where(v > 0.3, np.nan, -(v - 0.5) ** 2)

    lo, hi = np.array([-1.0, -1.0, 0.0]), np.array([0.2, 1.0, 0.25])
    with pytest.raises(NonFinite, match="NaN"):
        sweep.golden_section_max(rows, lo, hi, tol=1e-6)
    x, fx = sweep.golden_section_max(rows, lo[[0, 2]], hi[[0, 2]], tol=1e-6)
    assert x == pytest.approx([0.2, 0.25], abs=1e-5) and np.isfinite(fx).all()
    # a NaN at a first interior point, before any step
    with pytest.raises(NonFinite):
        sweep.golden_section_max(lambda v: np.where(v < -0.2, np.nan, -v * v), -1.0, 1.0)


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

