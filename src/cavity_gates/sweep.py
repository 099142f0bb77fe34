"""Grid axes, golden-section maximization and the cooperativity table.

`Axis` validates and lays out a linear or logarithmic grid; CLI `sweep`
builds its grid with it. `golden_section_max` refines a 1-D maximum on
every row of an array of brackets at once, as the fig8 optima do, and a
scalar bracket is its 0-d case. It validates nothing of what its objective
evaluates, but it refuses a NaN objective value with NonFinite rather than
steer a row by it, so a NaN is never returned as an optimum.
`cooperativity_scaling` tabulates the
cooperativity-limited fidelity of every scheme. Whole-grid evaluation needs
no loop here: every evaluator of the three gates takes an array-valued config
in one call, and CLI `sweep` stacks its grid points into one with
`params.stack_configs`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFinite
from .exchange import cooperativity_limited_max_exchange
from .scattering import cooperativity_limited_max

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Axis:
    name: str
    start: float
    stop: float
    points: int
    scale: str = "linear"

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("an axis needs at least 2 points")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("axis range must be finite")
        if not self.start < self.stop:
            raise ValueError("axis range must be ordered (start < stop)")
        if self.scale not in ("linear", "log"):
            raise ValueError("scale must be 'linear' or 'log'")
        if self.scale == "log" and self.start <= 0:
            raise ValueError("log axes require a positive range")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.exp(np.linspace(math.log(self.start), math.log(self.stop), self.points))
        return np.linspace(self.start, self.stop, self.points)


def golden_section_max(f: Callable, lo, hi, tol: float = 1e-4):
    """Golden-section maximization on [lo, hi]; tol is relative in x.

    lo and hi may be arrays that broadcast together, one bracket per row,
    and f then maps an array of that shape to one. Each row takes its own
    steps and freezes once its bracket is below tol * max(|lo|, |hi|, 1),
    so its (x, f(x)) is bit for bit that of its own scalar (0-d) call.
    A NaN from f raises NonFinite: at either first interior point, at the
    step of a row that has not frozen, or at the returned optimum. (A
    frozen row's step is evaluated but steers nothing.)
    """
    a, b = (np.array(end) for end in np.broadcast_arrays(np.asarray(lo, dtype=float),
                                                           np.asarray(hi, dtype=float)))
    span = np.maximum(np.maximum(abs(a), abs(b)), 1.0)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = _refuse_nan(f(c)), _refuse_nan(f(d))
    while (live := abs(b - a) > tol * span).any():
        left = np.greater_equal(fc, fd)   # the maximum lies in [a, d], else in [c, b]
        np.copyto(a, c, where=live & ~left)
        np.copyto(b, d, where=live & left)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = _refuse_nan(f(x), live)
        c, fc, d, fd = (np.where(left, x, d), np.where(left, fx, fd),
                        np.where(left, c, x), np.where(left, fc, fx))
    x = 0.5 * (a + b)
    return x, _refuse_nan(f(x))


def _refuse_nan(fx, rows=True):
    """fx, unless it is NaN on one of the rows (a mask, or True for all)."""
    if (np.isnan(fx) & rows).any():
        raise NonFinite("golden_section_max: the objective returned NaN inside the bracket")
    return fx


def cooperativity_scaling(c_values) -> dict:
    """Cooperativity-limited maximum fidelity per scheme, all error terms
    zeroed: scattering.cooperativity_limited_max and, shared by both exchange
    schemes, exchange.cooperativity_limited_max_exchange; with the large-C
    asymptotes 1 - 5/(4C) and 1 - pi/sqrt(C), which underestimate at low C.
    """
    c = np.asarray(c_values, dtype=float)
    if np.any(c < 1):
        raise ValueError("cooperativity values must be >= 1")
    exchange = cooperativity_limited_max_exchange(c)
    return {
        "cooperativity": c,
        "scattering": cooperativity_limited_max(c),
        "scattering_asymptote": 1.0 - 5.0 / (4.0 * c),
        "simple_exchange": exchange,
        "raman": exchange.copy(),
        "exchange_asymptote": 1.0 - np.pi / np.sqrt(c),
    }
