"""Grid axes, golden-section maximization and the cooperativity table.

`Axis` validates and lays out a linear or logarithmic grid; CLI `sweep`
builds its grid with it. `golden_section_max` refines a 1-D maximum, as
the figure builders' optima do. `cooperativity_scaling` tabulates the
cooperativity-limited fidelity of every scheme. Whole-grid evaluation runs
on the batch evaluators of the three gates: `scattering.fidelity_*_batch`,
`exchange.fidelity_*_exchange_batch` and `raman.fidelity_*_raman_batch`.
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


def golden_section_max(f: Callable[[float], float], lo: float, hi: float,
                       tol: float = 1e-4) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; tol is relative in x."""
    a, b = float(lo), float(hi)
    span = max(abs(a), abs(b), 1.0)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > tol * span:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
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
