"""Canonical domain types shared by all gate schemes.

All rates are angular frequencies in one consistent unit system (rad/s, or
multiples of the emitter decay rate), and all times are in its inverse.
"""
from __future__ import annotations

import dataclasses
import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFinite


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
    Each rate may be a numpy array, broadcast with the config's other fields.
    """

    g: float
    kappa: float
    gamma: float

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")   # C refused below
    def __post_init__(self):
        check_rates(self, ("g", "kappa", "gamma"))
        # finite rates can still give a C that overflows, or one that
        # underflows to 0, which every scheme divides by; g**2, unlike the
        # property's g * g, raises on a float g^2 past the double range
        try:
            cooperativity = 4.0 * self.g**2 / (self.kappa * self.gamma)
        except (OverflowError, ZeroDivisionError):  # a float g**2 or 1/(kappa gamma) out of range
            cooperativity = math.inf
        if not all_rows(cooperativity < math.inf):
            raise ValueError(f"CavitySystem cooperativity 4 g^2/(kappa gamma) must be finite, "
                             f"got {cooperativity!r}")
        if not all_rows(cooperativity > 0):
            raise ValueError("cooperativity 4 g^2/(kappa gamma) underflows to 0")

    @property
    def cooperativity(self) -> float:
        # g * g: a float's g**2 is pow, which rounds unlike numpy's array square
        return 4.0 * (self.g * self.g) / (self.kappa * self.gamma)

    @property
    def g_over_kappa(self) -> float:
        return self.g / self.kappa

    @classmethod
    @np.errstate(over="ignore", divide="ignore")
    def from_cooperativity(cls, cooperativity, g_over_kappa, gamma=1.0):
        """Build a system from (C, g/kappa, gamma), scalars or arrays.

        Solves C = 4 g^2/(kappa gamma) with g = (g/kappa)*kappa, so
        kappa = C*gamma / (4*(g/kappa)^2).
        """
        if not all_rows((cooperativity > 0) & (g_over_kappa > 0) & (gamma > 0)):
            raise ValueError("cooperativity, g_over_kappa and gamma must be > 0")
        try:
            kappa = cooperativity * gamma / (4.0 * g_over_kappa**2)
            g = g_over_kappa * kappa
        except (OverflowError, ZeroDivisionError):  # a float g_over_kappa**2 out of range
            raise ValueError(f"g_over_kappa = {g_over_kappa!r} puts kappa = "
                             "C*gamma/(4*(g/kappa)^2) out of the double range") from None
        # an array row out of range is inf or 0 here, which __post_init__ refuses
        return cls(g=g, kappa=kappa, gamma=gamma)


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
        check_rates(self, ("qubit_relaxation", "qubit_pure_dephasing", "optical_pure_dephasing",
                           "shelving_decay"), zero=True)
        if self.qubit_t2 is not None and not self.qubit_t2 > 0:
            raise ValueError("DecoherenceSpec.qubit_t2 must be > 0 when given")

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


def any_row(condition) -> bool:
    """True when a condition holds for at least one row. Accepts the Python
    or numpy scalars of a one-configuration call as well as arrays."""
    return np.count_nonzero(condition) > 0 if isinstance(condition, np.ndarray) else bool(condition)


def all_rows(condition) -> bool:
    """True when a condition holds for every row (scalars or arrays)."""
    if isinstance(condition, np.ndarray):   # a third of the cost of `ndarray.all`
        return np.count_nonzero(condition) == condition.size
    return bool(condition)


def check_rates(config, names, zero=False):
    """ValueError unless each named field of a config is None or, on every
    row, finite and > 0 (>= 0 with zero=True). Written so that NaN fails."""
    for name in names:
        value = getattr(config, name)
        if value is not None and not all_rows(((value >= 0) if zero else (value > 0))
                                              & (value < math.inf)):
            raise ValueError(f"{type(config).__name__}.{name} must be finite and "
                             f"{'>=' if zero else '>'} 0, got {value!r}")


def broadcast_shape(*values) -> tuple:
    """Broadcast shape of scalars and arrays; () when all are scalars, which
    `np.broadcast` is not given (each would cost it an array)."""
    return np.broadcast(_NO_AXES, *[v for v in values if not isinstance(v, _SCALARS)]).shape


_SCALARS, _NO_AXES = (int, float, complex, np.generic), np.empty(())


def config_shape(config) -> tuple:
    """Broadcast shape of a config dataclass's array fields, those of the
    configs it holds (cavity, pulse) included; () for one configuration."""
    return broadcast_shape(*_leaves(config))


def _leaves(config):
    """The fields of a config dataclass, those of the configs it holds in
    their place (a dataclass instance has `__dataclass_fields__`)."""
    for value in vars(config).values():
        if hasattr(value, "__dataclass_fields__"):
            yield from _leaves(value)
        else:
            yield value


def stack_configs(configs):
    """One array-valued config whose rows are the given configs of one type.
    A field equal in all of them stays as it is (a mode, a None, a shared
    cavity), a config field is stacked in turn, and any other field becomes
    an array of its values."""
    first = configs[0]
    if all(config == first for config in configs):
        return first
    if not dataclasses.is_dataclass(first):
        return np.array(configs, dtype=float)
    return type(first)(**{field.name: stack_configs([getattr(c, field.name) for c in configs])
                          for field in dataclasses.fields(first)})


@dataclass(frozen=True)
class GateResults:
    """Outcomes of a batch of configurations that share one scheme and method.

    fidelity and gate_time are arrays of the batch's broadcast shape (numpy
    scalars for a one-configuration batch). success_probability is such an
    array on the scattering numeric path (the heralding-probability proxy)
    and the scalar 1.0 of the deterministic schemes, which holds for every
    row. notes maps each note to a boolean mask of the rows it applies to;
    a row's GateResult carries the notes whose mask is set, in insertion
    order: the evaluator's own notes first, "clamped" last.
    refused maps the error of each row-local failure (an overflow, say) to
    the mask of the rows it refused (each mask sets a row), in the order of
    `gate_results`. A refused row is NaN in every field, and indexing it
    raises its first error.
    """

    fidelity: np.ndarray
    gate_time: np.ndarray
    method: Method
    notes: dict = field(default_factory=dict)
    success_probability: np.ndarray | float = 1.0
    refused: dict = field(default_factory=dict)

    @property
    def shape(self) -> tuple:
        return self.fidelity.shape

    def refusal(self, index):
        """The first error of a refused row, None for any other."""
        return next((error for error, mask in self.refused.items() if mask[index]), None)

    def __getitem__(self, index) -> GateResult:
        if self.refused and (error := self.refusal(index)) is not None:
            raise error.with_traceback(None)
        probability = self.success_probability
        return GateResult(
            fidelity=float(self.fidelity[index]), gate_time=float(self.gate_time[index]),
            success_probability=float(probability if isinstance(probability, float)
                                      else probability[index]),
            method=self.method,
            notes=tuple(note for note, mask in self.notes.items() if mask[index]))

    def single(self) -> GateResult:
        """The result of a one-configuration batch: the one guard of every
        caller that takes one configuration (CLI `evaluate`, the case study,
        the expanded maxima), which raises ValueError for any other batch."""
        if self.fidelity.size != 1:
            raise ValueError(f"this path takes one configuration, got results of shape "
                             f"{self.shape}")
        return self[(0,) * self.fidelity.ndim]

    def whole(self) -> "GateResults":
        """These results, unless a row was refused: then its error raises."""
        if self.refused:
            raise next(iter(self.refused)).with_traceback(None)
        return self


def _broadcast(value, shape, dtype):
    value = np.asarray(value, dtype=dtype)[()]
    # np.full's copy costs a third of np.broadcast_to's view
    return value if value.shape == shape else np.full(shape, value, dtype)


def clamp_unit(values):
    """Values clamped into [0, 1], NaN kept: the clamp of gate_results, which
    a search on a closed-form kernel applies to match its evaluator."""
    return np.minimum(np.maximum(values, 0.0), 1.0)


def gate_results(f_gate, gate_time, method: Method, notes: dict | None = None,
                 success_probability=None, refused: dict | None = None) -> GateResults:
    """Clamp gate fidelities into [0, 1], and success probabilities when
    given (a deterministic scheme gives none: every row's is 1), and mark
    every row where either was clamped with the "clamped" note, after the
    caller's notes (note -> row mask). The one owner of row refusals: rows
    are refused with NonFinite for a gate time not finite or not > 0 (an
    overflow, a zero drive or an underflow; no path refuses it elsewhere),
    then for the caller's (error -> row mask), a NaN fidelity or a NaN
    probability."""
    # a one-configuration batch works on numpy scalars, whose comparisons
    # are much cheaper than those of 0-d arrays
    fidelity = np.asarray(f_gate, dtype=float)[()]
    shape = fidelity.shape
    # T keeps its own shape (a pulse column, say) until a refusal or the result needs the batch's
    gate_time = np.asarray(gate_time, dtype=float)[()]
    probability = (1.0 if success_probability is None
                   else _broadcast(success_probability, shape, float))
    caller, refused = refused or {}, {}
    # comparisons, not np.isfinite and np.isnan, which cost a numpy scalar far more
    if not all_rows((gate_time > 0.0) & (gate_time < math.inf)):   # NaN fails both
        if not all_rows(finite := np.isfinite(gate_time)):
            refused[NonFinite("gate_time is not finite")] = _broadcast(~finite, shape, bool)
        if not all_rows(positive := gate_time > 0):
            refused[NonFinite("gate_time must be > 0")] = _broadcast(~positive, shape, bool)
    for error, mask in caller.items():
        refused[error] = _broadcast(mask, shape, bool)
    if any_row(nan := fidelity != fidelity):   # NaN alone is not itself
        refused[NonFinite("fidelity is nan: the evaluation overflowed")] = nan
    if success_probability is not None and any_row(nan := probability != probability):
        refused[NonFinite("success_probability is nan: the evaluation overflowed")] = nan
    if refused:
        rows = np.logical_or.reduce(list(refused.values()))
        fidelity, gate_time, probability = (np.where(rows, np.nan, value)[()]
                                            for value in (fidelity, gate_time, probability))
    clamped = (fidelity < 0.0) | (fidelity > 1.0)
    if success_probability is not None:
        clamped = clamped | (probability < 0.0) | (probability > 1.0)
        probability = clamp_unit(probability)
    masks = {note: _broadcast(mask, shape, bool) for note, mask in (notes or {}).items()}
    masks["clamped"] = clamped
    return GateResults(clamp_unit(fidelity), _broadcast(gate_time, shape, float), method, masks,
                       probability, refused)
