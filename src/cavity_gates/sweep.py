"""Deterministic parameter sweeps with golden-section refinement.

Grid cells are pure function evaluations written into preallocated slots
in grid order, so identical specs give byte-identical results. An evaluator
failure marks its cell NaN and is recorded in SweepResult.errors; it never
aborts a sweep.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import BoundaryMaximum

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


@dataclass(frozen=True)
class SweepSpec:
    """Axes (one or two), an evaluator f(**axis values, **fixed) -> float in
    [0, 1], and fixed keyword parameters."""

    axes: tuple
    evaluator: Callable
    fixed: tuple = ()
    name: str = ""

    def __post_init__(self):
        if len(self.axes) not in (1, 2):
            raise ValueError("only 1-D and 2-D sweeps are supported")

    def fixed_dict(self) -> dict:
        return dict(self.fixed)

    def config_hash(self) -> str:
        parts = [self.name, getattr(self.evaluator, "__qualname__", repr(self.evaluator))]
        for ax in self.axes:
            parts.append(f"{ax.name}:{ax.start!r}:{ax.stop!r}:{ax.points}:{ax.scale}")
        parts.extend(f"{k}={v!r}" for k, v in sorted(self.fixed))
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]


@dataclass
class SweepResult:
    spec: SweepSpec
    coords: tuple            # one or two 1-D coordinate arrays
    values: np.ndarray       # shape (n,) or (n, m)
    max_index: tuple
    max_value: float
    errors: tuple = ()
    metadata: dict = field(default_factory=dict)

    def max_coords(self) -> tuple:
        return tuple(self.coords[d][self.max_index[d]] for d in range(len(self.coords)))


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the grid; identical specs produce identical result bytes."""
    coords = tuple(ax.values() for ax in spec.axes)
    names = [ax.name for ax in spec.axes]
    fixed = spec.fixed_dict()
    shape = tuple(len(c) for c in coords)
    values = np.full(shape, np.nan)
    errors = []
    for idx in np.ndindex(shape):
        kwargs = {names[d]: float(coords[d][idx[d]]) for d in range(len(shape))}
        kwargs.update(fixed)
        try:
            values[idx] = float(spec.evaluator(**kwargs))
        except Exception as exc:  # NaN cell, sweep completes
            errors.append((idx, f"{type(exc).__name__}: {exc}"))

    if np.all(np.isnan(values)):
        max_index, max_value = tuple(0 for _ in shape), math.nan
    else:
        flat = np.nanargmax(values)  # ties resolve to the lowest flat index
        max_index = np.unravel_index(flat, shape)
        max_value = float(values[max_index])
    return SweepResult(
        spec=spec, coords=coords, values=values,
        max_index=tuple(int(i) for i in max_index), max_value=max_value,
        errors=tuple(errors),
        metadata={"config_hash": spec.config_hash()},
    )


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


class RefinedMax(NamedTuple):
    coords: tuple
    value: float


def refine_max(result: SweepResult, evaluator: Callable | None = None,
               tol: float = 1e-4, max_rounds: int = 50) -> RefinedMax:
    """Refine the best grid cell by golden section (1-D) or alternating
    golden sections (2-D). Raises BoundaryMaximum when the best cell touches
    the grid edge. Never returns less than the best grid value."""
    spec = result.spec
    f = evaluator if evaluator is not None else spec.evaluator
    names = [ax.name for ax in spec.axes]
    fixed = spec.fixed_dict()
    idx = result.max_index
    if math.isnan(result.max_value):
        raise BoundaryMaximum("no finite cells in the sweep")
    for d, i in enumerate(idx):
        if i == 0 or i == len(result.coords[d]) - 1:
            raise BoundaryMaximum(
                f"maximum on the {names[d]} boundary; extend the sweep range")

    logscale = [ax.scale == "log" for ax in spec.axes]

    def call(xs):
        kwargs = {names[d]: (math.exp(xs[d]) if logscale[d] else xs[d])
                  for d in range(len(xs))}
        kwargs.update(fixed)
        try:
            return float(f(**kwargs))
        except Exception:
            return -math.inf

    def coord(d, i):
        x = float(result.coords[d][i])
        return math.log(x) if logscale[d] else x

    brackets = [(coord(d, idx[d] - 1), coord(d, idx[d] + 1)) for d in range(len(idx))]
    current = [coord(d, idx[d]) for d in range(len(idx))]

    if len(idx) == 1:
        x, fx = golden_section_max(lambda v: call([v]), *brackets[0], tol=tol)
        current = [x]
        best = fx
    else:
        best = call(current)
        for _ in range(max_rounds):
            moved = 0.0
            for d in range(2):
                def line(v, d=d):
                    trial = list(current)
                    trial[d] = v
                    return call(trial)
                x, fx = golden_section_max(line, *brackets[d], tol=tol)
                moved = max(moved, abs(x - current[d]) / max(abs(x), 1.0))
                current[d] = x
                best = max(best, fx)
            if moved < tol:
                break

    coords = tuple(math.exp(c) if logscale[d] else c for d, c in enumerate(current))
    if best < result.max_value:
        return RefinedMax(result.max_coords(), result.max_value)
    return RefinedMax(coords, best)


def cooperativity_scaling(c_values) -> dict:
    """Cooperativity-limited maximum fidelity per scheme, with the large-C
    asymptotes, all error terms zeroed.

    Scattering: 1 - 1/(C+1) - 1/(4C+2), asymptote 1 - 5/(4C). Both exchange
    schemes share the unexpanded optimum (e^{-2 pi/sqrt(C)}
    cosh^2(pi/(2 sqrt(C))) + 1)/2 at 2*detuning = kappa*sqrt(C), asymptote
    1 - pi/sqrt(C); the asymptotes underestimate at low C.
    """
    c = np.asarray(c_values, dtype=float)
    if np.any(c < 1):
        raise ValueError("cooperativity values must be >= 1")
    scattering = 1.0 - 1.0 / (c + 1.0) - 1.0 / (4.0 * c + 2.0)
    f_pi = np.exp(-2.0 * np.pi / np.sqrt(c)) * np.cosh(0.5 * np.pi / np.sqrt(c)) ** 2
    exchange = 0.5 * (f_pi + 1.0)
    return {
        "cooperativity": c,
        "scattering": scattering,
        "scattering_asymptote": 1.0 - 5.0 / (4.0 * c),
        "simple_exchange": exchange,
        "raman": exchange.copy(),
        "exchange_asymptote": 1.0 - np.pi / np.sqrt(c),
    }
