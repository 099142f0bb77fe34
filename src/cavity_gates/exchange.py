"""Simple virtual-photon-exchange controlled phase-flip gate, and the one
numeric path of both exchange gates.

One emitter is excited by a fast optical pi pulse; a dispersively coupled
cavity then mediates a resonant excitation swap with the other emitter,
which adiabatically imprints a pi phase on exactly one two-qubit product
state. Two equivalent operating modes exist: the opposite-spin transitions
brought into resonance (phase lands on |ud>), or the equal-spin transitions
(phase lands on |uu>). The non-Hermitian 3x3 subspace Hamiltonians carry
cavity decay kappa on the one-photon state and emitter decay gamma on the
excited states. splitting_eg = inf is the ideal spectator: a decoupled
third state, not a separate code path.

The Raman gate gets its pi phase from the same lossy swap, so the numeric
functions here take an ExchangeConfig or a RamanConfig; each supplies its
sector builder and parameters (`sectors()`) and its pi-phase `gate_time`.
Numeric fields of either config, the cavity's included, may be numpy arrays
that broadcast together (the mode stays one value); each evaluator takes
every row at once, through the stacked propagation of `linalg` on the
numeric path (split over the CPUs by `phase_fidelity`), and returns
GateResults of the broadcast shape.
"""
from __future__ import annotations

import contextvars
import enum
import functools
import math
import os
import threading
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import linalg
from .errors import ValidityWarning
from .params import (CavitySystem, GateResult, GateResults, Method, all_rows, any_row,
                     broadcast_shape, check_rates, gate_results)

if TYPE_CHECKING:
    from .raman import RamanConfig


class ExchangeMode(enum.Enum):
    #: |up e2> of A resonant with |e1 down> of B; pi phase on |ud>
    OPPOSITE_RESONANT = "opposite"
    #: equal transitions resonant; pi phase on |uu>
    EQUAL_RESONANT = "equal"


@dataclass(frozen=True)
class ExchangeConfig:
    """Inputs of the simple-exchange gate.

    detuning is the cavity detuning of the excited system (Delta_A > 0).
    splitting_eg (> 0) is the spectator-transition splitting; math.inf marks
    the ideal isolated-spectator limit, row by row. detuning_error is the
    residual error in the partner's tuned resonance condition. Per-transition couplings
    default to the cavity's g; a given one must be finite and > 0.
    """

    cavity: CavitySystem
    detuning: float
    splitting_eg: float = math.inf
    detuning_error: float = 0.0
    gamma_eff: float = 0.0
    g_up_a: float | None = None
    g_down_b: float | None = None
    g_up_b: float | None = None
    mode: ExchangeMode = ExchangeMode.OPPOSITE_RESONANT

    def __post_init__(self):
        # written so that NaN fails every check
        check_rates(self, ("detuning", "g_up_a", "g_down_b", "g_up_b"))
        if not all_rows(self.splitting_eg > 0):
            raise ValueError("splitting_eg must be > 0 (math.inf for ideal)")
        check_rates(self, ("gamma_eff",), zero=True)
        if not all_rows(np.isfinite(self.detuning_error)):
            raise ValueError("detuning_error must be finite")

    @property
    def coupling_a(self) -> float:
        return self.cavity.g if self.g_up_a is None else self.g_up_a

    @property
    def coupling_b_resonant(self) -> float:
        """Coupling of B's transition that participates in the swap."""
        if self.mode is ExchangeMode.OPPOSITE_RESONANT:
            return self.cavity.g if self.g_down_b is None else self.g_down_b
        return self.cavity.g if self.g_up_b is None else self.g_up_b

    @property
    def coupling_b_spectator(self) -> float:
        if self.mode is ExchangeMode.OPPOSITE_RESONANT:
            return self.cavity.g if self.g_up_b is None else self.g_up_b
        return self.cavity.g if self.g_down_b is None else self.g_down_b

    @property
    def gate_time(self):
        """Excitation dwell time for a pi phase (exchange_gate_time)."""
        return exchange_gate_time(self.detuning, self.coupling_a, self.coupling_b_resonant)

    def sectors(self):
        """(builder of the stacked (H_eff_ud, H_eff_uu), its parameters)."""
        params = (self.detuning, self.coupling_a, self.coupling_b_resonant,
                  self.coupling_b_spectator, self.detuning_error, self.splitting_eg,
                  self.cavity.kappa, self.cavity.gamma)
        return functools.partial(_lossy_sectors, mode=self.mode), params


@np.errstate(over="ignore", divide="ignore")
def exchange_gate_time(detuning, g_a, g_b) -> float:
    """Excitation dwell time for a pi phase: T = pi * Delta / (g_a * g_b).
    A T out of the double range (g_a g_b underflowed, say) warns of nothing,
    and `gate_results` refuses its row."""
    if any_row(g_a <= 0) or any_row(g_b <= 0):
        raise ValueError("couplings must be > 0")
    return np.divide(math.pi * detuning, g_a * g_b)


def _lossy_sectors(detuning, g_a, g_res, g_spec, detuning_error, splitting_eg, kappa, gamma,
                   mode):
    """(H_eff_ud, H_eff_uu) as one array (2,) + the broadcast shape of the
    parameters + (3, 3) of lossy (excited-A, one-photon, excited-B) blocks.

    Bases: |ud> sector (e2 down 0, up down 1, up e1 0) and |uu> sector
    (e2 up 0, up up 1, up e2 0). With the partner tuned, the resonant
    sector's end state sits at -detuning_error (minus the residual Stark
    offset) and the spectator's at splitting_eg above it; an infinite
    splitting_eg decouples the spectator end state (g = offset = 0).
    """
    shape = broadcast_shape(detuning, g_a, g_res, g_spec, detuning_error, splitting_eg, kappa,
                            gamma)
    stark = (g_a * g_a - g_res * g_res) / detuning
    offset_res = -detuning_error - stark
    ideal = np.isinf(splitting_eg)
    h = np.zeros((2,) + shape + (3, 3), dtype=complex)
    h[..., 0, 0] = -0.5j * gamma
    h[..., 0, 1] = h[..., 1, 0] = g_a
    h[..., 1, 1] = detuning - 0.5j * kappa
    resonant, sign = (0, 1.0) if mode is ExchangeMode.OPPOSITE_RESONANT else (1, -1.0)
    for sector, g_b, offset in ((resonant, g_res, offset_res),
                                (1 - resonant, np.where(ideal, 0.0, g_spec),
                                 np.where(ideal, 0.0, offset_res + sign * splitting_eg))):
        h[sector, ..., 1, 2] = h[sector, ..., 2, 1] = g_b
        h[sector, ..., 2, 2] = offset - 0.5j * gamma
    return h


#: most rows in one block: its `linalg.return_amplitudes` stacks hold at
#: most 1,024 generators, so a grid of any size runs in bounded memory
MAX_BLOCK_ROWS = 512

#: fewest rows in a worker's share of a split batch. On a 2-core VM with one
#: BLAS thread, two threads against one call (median time ratio): 3x3
#: sectors at 2 x 128 rows 1.11, 2 x 144 0.96, 2 x 160 0.88; Raman at
#: 2 x 96 1.05, 2 x 128 0.80. They hold once the process has run threaded work
#: for about a second; before that, two threads gained nothing at any size
MIN_BLOCK_ROWS = 160


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_f_pi(lossy_sectors, params, gate_time):
    """F_pi of every row of one block, of the broadcast shape of `params` and
    `gate_time`: one `linalg.return_amplitudes` call on a stacked exchange
    pair, one per sector on the Raman 5x5 and 3x3. It never splits the block
    and starts no thread."""
    sectors = lossy_sectors(*params)
    if isinstance(sectors, np.ndarray):
        ud, uu = linalg.return_amplitudes(sectors, gate_time)
    else:
        ud, uu = (linalg.return_amplitudes(h[None], gate_time)[0] for h in sectors)
    return 0.5 * np.abs(uu - ud)


def phase_fidelity(lossy_sectors, params, gate_time):
    """F_pi = (1/2)|<0| e^{-iT H_uu} |0> - <0| e^{-iT H_ud} |0>| (each sector
    starts in its state 0) for every row of the broadcast parameter arrays
    `params` and `gate_time`. Scalar inputs give a numpy scalar.

    `lossy_sectors(*params)` returns (H_eff_ud, H_eff_uu) over the broadcast
    shape of the params: the exchange pair as one (2, ..., 3, 3) array, which
    takes one `linalg.return_amplitudes` call, and the Raman 5x5 and 3x3 as
    two arrays, one call each. The 3x3 sectors take the eigenvalue-only
    kernel `linalg.resolvent_poles`, the Raman 5x5 `linalg.eigenbasis`
    (eigenvectors and the start state's coordinates, no inverse); both
    judge a row by the same residue rule.

    The n rows run on W = max(1, min(CPUs, n // MIN_BLOCK_ROWS)) workers, with
    CPUs the number this process may use (`os.sched_getaffinity`, else
    `os.cpu_count`, asked only when n >= 2 MIN_BLOCK_ROWS). Worker w takes
    the contiguous rows [w n/W, (w+1) n/W) and walks them in `_block_f_pi`
    calls of at most MAX_BLOCK_ROWS rows, so a grid of any size runs in
    bounded memory: 402 rows run as 2 x 201 on two CPUs, 14,641 as 2 x 15
    calls, and a batch of at most 512 rows on one worker is one call. A
    row's bits do not depend on the size of its call, nor on W.

    The calling thread is worker 0 and the others start as threads, all
    joined before the call returns (numpy's linalg gufuncs release the GIL).
    Each worker runs in a copy of the caller's context, so the caller's
    `np.errstate` holds there, and the first exception of any worker (a
    warning escalated to an error, say) is raised here after the joins; a
    row whose propagation fails, or whose generator is not finite, is not
    finite (see `linalg.refusals`).
    """
    shape = broadcast_shape(*params, gate_time)
    n = math.prod(shape)
    workers = min(_cpus(), n // MIN_BLOCK_ROWS) if n >= 2 * MIN_BLOCK_ROWS else 1
    if workers == 1 and n <= MAX_BLOCK_ROWS:
        return _block_f_pi(lossy_sectors, params, gate_time)[()]
    flat = [np.broadcast_to(p, shape).ravel() for p in (*params, gate_time)]
    f_pi = np.empty(n)
    errors = []

    def work(w):
        try:
            stop = (w + 1) * n // workers
            for start in range(w * n // workers, stop, MAX_BLOCK_ROWS):
                if errors:   # another worker failed: its error is raised
                    return
                rows = slice(start, min(start + MAX_BLOCK_ROWS, stop))
                f_pi[rows] = _block_f_pi(lossy_sectors, [p[rows] for p in flat[:-1]],
                                         flat[-1][rows])
        except BaseException as exc:   # raised by the caller, after the joins
            errors.append(exc)

    threads = []
    try:
        for w in range(1, workers):
            thread = threading.Thread(target=contextvars.copy_context().run, args=(work, w))
            thread.start()
            threads.append(thread)
        work(0)
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return f_pi.reshape(shape)


def ridge_f_pi(detuning, kappa, cooperativity):
    """Ideal-error F_pi of a virtual exchange at the given detuning,
    exp(-2 pi Delta/(C kappa) - pi kappa/(2 Delta)) cosh^2(pi kappa/(4 Delta)),
    written as exp(-2 pi Delta/(C kappa)) (1 + exp(-pi kappa/(2 Delta)))^2 / 4,
    which cannot overflow.

    The same function governs the Raman scheme with the two-photon detuning
    in place of the cavity detuning. An array when any input is an array.
    """
    d = np.asarray(detuning, dtype=float)
    out = (np.exp(-2.0 * np.pi * d / (cooperativity * kappa))
           * 0.25 * np.square(1.0 + np.exp(-np.pi * kappa / (2.0 * d))))
    return out if np.ndim(out) else float(out)


def cooperativity_limited_max_exchange(cooperativity):
    """Fidelity ceiling of both exchange schemes from finite cooperativity
    alone: (ridge_f_pi + 1)/2 at 2 Delta = kappa sqrt(C), where kappa drops
    out: (e^{-2 pi/sqrt(C)} cosh^2(pi/(2 sqrt(C))) + 1)/2, which tends to
    1/2 as C -> 0."""
    return 0.5 * (ridge_f_pi(0.5 * np.sqrt(cooperativity), 1.0, cooperativity) + 1.0)


def f_pi_closed_form(config: ExchangeConfig):
    """Adiabatic closed form of F_pi at equal couplings.

    F_pi = (1/2) e^{-2 pi Delta/(C kappa) - pi kappa/(2 Delta)}
           |e^{i 4 pi g^2/(Delta delta_eg)} +
            cosh(pi kappa/(2 Delta)) e^{-i pi Delta_eps Delta / g^2}|,
    reducing to ridge_f_pi for delta_eg -> inf and Delta_eps -> 0.
    """
    g_a = config.coupling_a
    g_b = config.coupling_b_resonant
    mismatch = abs(g_a - g_b)
    if any_row((mismatch > 1e-9 * abs(g_a)) & (mismatch > 1e-9 * abs(g_b))):
        warnings.warn("closed form assumes equal resonant couplings; using their "
                      "geometric mean", ValidityWarning, stacklevel=2)
    g2 = g_a * g_b
    cav = config.cavity
    delta = config.detuning
    envelope = np.exp(-2.0 * np.pi * delta / (cav.cooperativity * cav.kappa)
                      - np.pi * cav.kappa / (2.0 * delta))
    # np.divide, np.abs: Python's complex / and abs round unlike numpy's array loops
    spectator_phase = np.exp(np.divide(4j * np.pi * g2, delta * config.splitting_eg))
    swap_term = (np.cosh(np.pi * cav.kappa / (2.0 * delta))
                 * np.exp(np.divide(-1j * np.pi * config.detuning_error * delta, g2)))
    return 0.5 * envelope * np.abs(spectator_phase + swap_term)


@np.errstate(over="ignore", invalid="ignore")   # rows refused by gate_results
def fidelity_numeric_exchange(config: ExchangeConfig | RamanConfig) -> GateResults:
    """Gate fidelity (F_pi + 1)/2 - Gamma*T from non-Hermitian propagation
    at the config's pi-phase gate time T, for every row of a config of
    either gate, with F_pi the `phase_fidelity` of its two sectors."""
    gate_time = config.gate_time
    f_pi = phase_fidelity(*config.sectors(), gate_time)
    f_gate = 0.5 * (f_pi + 1.0) - config.gamma_eff * gate_time
    return gate_results(f_gate, gate_time, Method.NON_HERMITIAN, refused=linalg.refusals(f_pi))


@np.errstate(over="ignore", invalid="ignore")
def fidelity_analytic_exchange(config: ExchangeConfig) -> GateResults:
    """Gate fidelity (F_pi + 1)/2 - Gamma*T from the adiabatic closed form
    at the config's pi-phase gate time T, for every row of the config. A
    detuning far below kappa overflows cosh: that row is refused with
    NonFinite, with no RuntimeWarning."""
    gate_time = config.gate_time
    f_gate = 0.5 * (f_pi_closed_form(config) + 1.0) - config.gamma_eff * gate_time
    return gate_results(f_gate, gate_time, Method.ANALYTIC)


def optimal_detuning(kappa, cooperativity) -> float:
    """Detuning of maximum fidelity in the adiabatic regime: 2 Delta = kappa sqrt(C)."""
    return 0.5 * kappa * np.sqrt(cooperativity)


def optimal_gate_time_exchange(gamma, cooperativity) -> float:
    """Gate time at the optimal detuning: T_o = 2 pi / (gamma sqrt(C))."""
    return 2.0 * math.pi / (gamma * np.sqrt(cooperativity))


def expanded_max_fidelity(cooperativity, penalty, gamma_eff, t_o) -> GateResult:
    """1 - pi/sqrt(C) - penalty - Gamma T_o, the expanded maximum of both
    exchange gates (each gives its error penalty and T_o), capped by the
    unexpanded ceiling cooperativity_limited_max_exchange where it overshoots
    at small C; C < 10 warns. One configuration only."""
    if any_row(cooperativity < 10):
        warnings.warn("expansion assumes C >> 1", ValidityWarning, stacklevel=3)
    f_gate = 1.0 - math.pi / np.sqrt(cooperativity) - penalty - gamma_eff * t_o
    f_gate = np.minimum(f_gate, cooperativity_limited_max_exchange(cooperativity))
    return gate_results(f_gate, t_o, Method.ANALYTIC).single()


def max_fidelity_exchange(config: ExchangeConfig) -> GateResult:
    """Expanded maximum fidelity at the optimal detuning 2 Delta = kappa sqrt(C):

    F_max = 1 - pi/sqrt(C)
              - (3 pi^2/32) [ (T_o Delta_eps / 2 pi)^2 + (2 pi/(T_o delta_eg))^2 - 12/C ]
              - Gamma T_o,   T_o = 2 pi/(gamma sqrt(C)).

    The config's detuning field is ignored; only the error terms enter.
    One configuration only.
    """
    c = config.cavity.cooperativity
    t_o = optimal_gate_time_exchange(config.cavity.gamma, c)
    penalty = (3.0 * math.pi**2 / 32.0) * (
        (t_o * config.detuning_error / (2.0 * math.pi)) ** 2
        + (2.0 * math.pi / (t_o * config.splitting_eg)) ** 2
        - 12.0 / c)
    return expanded_max_fidelity(c, penalty, config.gamma_eff, t_o)
