"""Grid axes, golden-section maximization and the cooperativity table.

`Axis` validates and lays out a linear or logarithmic grid; CLI `sweep`
builds its grid with it. `golden_section_max` refines a 1-D maximum on
every row of an array of brackets at once, as the fig8 optima do, and a
scalar bracket is its 0-d case. `cooperativity_scaling` tabulates the
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
    """
    a, b = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    span = np.maximum(np.maximum(abs(a), abs(b)), 1.0)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while np.any(live := abs(b - a) > tol * span):
        left = fc >= fd   # the maximum lies in [a, d], else in [c, b]
        a = np.where(live & ~left, c, a)
        b = np.where(live & left, d, b)
        x = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        fx = f(x)
        c, fc, d, fd = np.where(left, (x, fx, c, fc), (d, fd, x, fx))
    x = 0.5 * (a + b)
    return x, f(x)


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
