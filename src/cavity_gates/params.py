"""Canonical domain types and unit conventions shared by all gate schemes.

All rates are angular frequencies (rad/s, or any consistent unit system such
as multiples of the emitter decay rate). Configuration ingestion converts
ordinary frequencies (Hz) by multiplying with 2*pi; coherence times entered
as T2 contribute 1/(2*T2) to the effective decoherence rate.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np


TWO_PI = 2.0 * math.pi


class Scheme(enum.Enum):
    SCATTERING = "scattering"
    SIMPLE_EXCHANGE = "simple_exchange"
    RAMAN = "raman"


class Method(enum.Enum):
    ANALYTIC = "analytic"
    NUMERIC_AMPLITUDE = "numeric_amplitude"
    NON_HERMITIAN = "non_hermitian"
    LINDBLAD = "lindblad"


@dataclass(frozen=True)
class CavitySystem:
    """Cavity coupling rate g, cavity decay rate kappa and emitter decay
    rate gamma, all in the same (angular) units.

    The figure of merit is the cooperativity C = 4 g^2 / (kappa * gamma).
    """

    g: float
    kappa: float
    gamma: float

    def __post_init__(self):
        for name in ("g", "kappa", "gamma"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"CavitySystem.{name} must be finite and > 0, got {value!r}")

    @property
    def cooperativity(self) -> float:
        return 4.0 * self.g**2 / (self.kappa * self.gamma)

    @property
    def g_over_kappa(self) -> float:
        return self.g / self.kappa

    @classmethod
    def from_cooperativity(cls, cooperativity, g_over_kappa, gamma=1.0):
        """Build a system from (C, g/kappa, gamma).

        Solves C = 4 g^2/(kappa gamma) with g = (g/kappa)*kappa, so
        kappa = C*gamma / (4*(g/kappa)^2).
        """
        if cooperativity <= 0 or g_over_kappa <= 0 or gamma <= 0:
            raise ValueError("cooperativity, g_over_kappa and gamma must be > 0")
        kappa = cooperativity * gamma / (4.0 * g_over_kappa**2)
        return cls(g=g_over_kappa * kappa, kappa=kappa, gamma=gamma)

    def in_gamma_units(self) -> "CavitySystem":
        """Return the same system with all rates expressed in units of gamma."""
        return CavitySystem(self.g / self.gamma, self.kappa / self.gamma, 1.0)

    def scaled(self, factor) -> "CavitySystem":
        """Uniformly rescale all rates; cooperativity is invariant."""
        return CavitySystem(self.g * factor, self.kappa * factor, self.gamma * factor)


@dataclass(frozen=True)
class DecoherenceSpec:
    """Slow decoherence channels lumped into one effective rate.

    qubit_t2 is an optional coherence time; it contributes 1/(2*T2).
    The remaining fields are rates in the same units as the cavity rates.
    """

    qubit_relaxation: float = 0.0
    qubit_pure_dephasing: float = 0.0
    optical_pure_dephasing: float = 0.0
    shelving_decay: float = 0.0
    qubit_t2: float | None = None

    def __post_init__(self):
        for name in ("qubit_relaxation", "qubit_pure_dephasing",
                     "optical_pure_dephasing", "shelving_decay"):
            if getattr(self, name) < 0:
                raise ValueError(f"DecoherenceSpec.{name} must be >= 0")
        if self.qubit_t2 is not None and self.qubit_t2 <= 0:
            raise ValueError("DecoherenceSpec.qubit_t2 must be > 0 when given")

    @classmethod
    def from_t2(cls, qubit_t2, **rates) -> "DecoherenceSpec":
        return cls(qubit_t2=qubit_t2, **rates)

    def qubit_rate(self) -> float:
        """Scheme-independent floor: relaxation/8 + pure dephasing/4 (+ 1/(2 T2))."""
        rate = self.qubit_relaxation / 8.0 + self.qubit_pure_dephasing / 4.0
        if self.qubit_t2 is not None:
            rate += 0.5 / self.qubit_t2
        return rate

    def effective_rate(self, scheme: Scheme) -> float:
        """Effective decoherence rate for the given scheme.

        Scattering uses the qubit channels only. The simple exchange is
        additionally sensitive to optical pure dephasing (gamma*/2) because
        one system sits in the excited state for the whole gate. The Raman
        scheme adds the shelving-state decay (gamma_s/8).
        """
        rate = self.qubit_rate()
        if scheme is Scheme.SIMPLE_EXCHANGE:
            rate += self.optical_pure_dephasing / 2.0
        elif scheme is Scheme.RAMAN:
            rate += self.shelving_decay / 8.0
        return rate


@dataclass(frozen=True)
class GateResult:
    """Outcome of one gate evaluation.

    gate_time is in the inverse of whatever rate unit the inputs used
    (seconds when rates are rad/s, units of 1/gamma in dimensionless mode).
    success_probability is 1.0 for the deterministic exchange schemes and the
    heralding-probability proxy (reduced-state trace) on the scattering
    numeric path.
    """

    fidelity: float
    gate_time: float
    success_probability: float
    method: Method
    notes: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if not 0.0 <= self.fidelity <= 1.0:
            raise ValueError(f"fidelity must lie in [0, 1], got {self.fidelity!r}")
        if not 0.0 <= self.success_probability <= 1.0:
            raise ValueError("success_probability must lie in [0, 1]")
        if not self.gate_time > 0:
            raise ValueError("gate_time must be > 0")

    def as_dict(self) -> dict:
        return {
            "fidelity": self.fidelity,
            "gate_time": self.gate_time,
            "success_probability": self.success_probability,
            "method": self.method.value,
            "notes": list(self.notes),
        }


def any_row(condition) -> bool:
    """True when a condition holds for at least one row. Accepts the Python
    or numpy scalars of a one-configuration call as well as arrays."""
    return bool(condition.any()) if isinstance(condition, np.ndarray) else bool(condition)


def all_rows(condition) -> bool:
    """True when a condition holds for every row (scalars or arrays)."""
    return bool(condition.all()) if isinstance(condition, np.ndarray) else bool(condition)


def broadcast_shape(*values) -> tuple:
    """Broadcast shape of scalars and arrays; () when all are scalars."""
    return np.broadcast(*values).shape


@dataclass(frozen=True)
class GateResults:
    """Outcomes of a batch of configurations of a deterministic (exchange)
    scheme that share one method, so every success probability is 1.

    fidelity and gate_time are arrays of the batch's broadcast shape (numpy
    scalars for a one-configuration batch). notes maps each note to a
    boolean mask of the rows it applies to; a row's GateResult carries the
    notes whose mask is set, in insertion order.
    """

    fidelity: np.ndarray
    gate_time: np.ndarray
    method: Method
    notes: dict = field(default_factory=dict)

    @property
    def shape(self) -> tuple:
        return self.fidelity.shape

    def __getitem__(self, index) -> GateResult:
        return GateResult(
            fidelity=float(self.fidelity[index]), gate_time=float(self.gate_time[index]),
            success_probability=1.0, method=self.method,
            notes=tuple(note for note, mask in self.notes.items() if mask[index]))

    def single(self) -> GateResult:
        """The result of a one-configuration batch."""
        if self.fidelity.size != 1:
            raise ValueError(f"expected one configuration, got shape {self.shape}")
        return self[(0,) * self.fidelity.ndim]


def _broadcast(value, shape, dtype):
    value = np.asarray(value, dtype=dtype)[()]
    return value if value.shape == shape else np.broadcast_to(value, shape)


def gate_results(f_gate, gate_time, method: Method, notes: dict | None = None) -> GateResults:
    """Clamp gate fidelities into [0, 1] and mark every clamped row with the
    "clamped" note, ahead of any extra notes (note -> row mask). Raises
    ValueError for NaN fidelities and non-positive gate times, as
    GateResult does."""
    # a one-configuration batch works on numpy scalars, whose comparisons
    # are much cheaper than those of 0-d arrays
    fidelity = np.asarray(f_gate, dtype=float)[()]
    gate_time = _broadcast(gate_time, fidelity.shape, float)
    if any_row(np.isnan(fidelity)):
        raise ValueError("fidelity must lie in [0, 1], got nan")
    if not all_rows(gate_time > 0):
        raise ValueError("gate_time must be > 0")
    masks = {"clamped": (fidelity < 0.0) | (fidelity > 1.0)}
    for note, mask in (notes or {}).items():
        masks[note] = _broadcast(mask, fidelity.shape, bool)
    return GateResults(np.minimum(np.maximum(fidelity, 0.0), 1.0), gate_time, method, masks)


_RATE_UNITS = {
    "rad_s": lambda v, gamma, kappa: v,
    "hz": lambda v, gamma, kappa: TWO_PI * v,
    "per_gamma": lambda v, gamma, kappa: v * gamma,
    "per_kappa": lambda v, gamma, kappa: v * kappa,
}

_TIME_UNITS = {
    "s": lambda v, gamma: v,
    "inv_gamma": lambda v, gamma: v / gamma,
}


def rate_to_angular(value, unit, gamma=None, kappa=None):
    """Convert a (value, unit) rate to angular units.

    Supported units: rad_s, hz (multiplied by 2*pi), per_gamma, per_kappa.
    """
    try:
        conv = _RATE_UNITS[unit]
    except KeyError:
        raise ValueError(f"unknown rate unit {unit!r}; expected one of {sorted(_RATE_UNITS)}")
    if unit == "per_gamma" and gamma is None:
        raise ValueError("per_gamma unit requires gamma")
    if unit == "per_kappa" and kappa is None:
        raise ValueError("per_kappa unit requires kappa")
    return conv(value, gamma, kappa)


def time_to_seconds(value, unit, gamma=None):
    """Convert a (value, unit) duration to the canonical time unit.

    Supported units: s, inv_gamma (multiples of 1/gamma).
    """
    try:
        conv = _TIME_UNITS[unit]
    except KeyError:
        raise ValueError(f"unknown time unit {unit!r}; expected one of {sorted(_TIME_UNITS)}")
    if unit == "inv_gamma" and gamma is None:
        raise ValueError("inv_gamma unit requires gamma")
    return conv(value, gamma)
