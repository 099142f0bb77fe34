"""Photon-scattering controlled phase-flip gate.

A single photon reflects off a one-sided cavity holding two three-level
emitters whose spin-up transition is cavity-resonant. Input-output theory
gives a spin-dependent reflection amplitude for each plane-wave component;
tracing the photon out of the joint state yields the reduced two-qubit
density matrix and with it the gate fidelity. The closed-form fidelity
approximation is valid for high cooperativity and small photon detuning
and bandwidth relative to gamma*C.

The numeric path integrates the photon spectrum on panels refined around
the reflection poles (eigenvalues of the lossy cavity-emitter generator)
with fixed 32- and 64-node Gauss-Legendre rules that must agree.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DivergentDenominator, QuadratureNotConverged, ValidityWarning, ZeroDecoherence
from .params import CavitySystem, GateResult, Method

LN2 = math.log(2.0)

#: gate time T = GATE_TIME_FACTOR / sigma_p (twice the photon FWHM duration)
GATE_TIME_FACTOR = 8.0 * math.pi * math.sqrt(2.0 * LN2)

#: ideal two-qubit target (1/2)(|uu> + |ud> + |du> - |dd>)
IDEAL_TARGET = np.array([0.5, 0.5, 0.5, -0.5])

#: Gaussian-envelope half-width of the frequency integration, in units of sigma_p
_T_SPAN = 8.0


@dataclass(frozen=True)
class PhotonPulse:
    """Incident Gaussian photon: spectral intensity std sigma_p and mean
    cavity detuning delta_p, in the same angular units as the cavity rates."""

    sigma_p: float
    delta_p: float = 0.0

    def __post_init__(self):
        if not self.sigma_p > 0:
            raise ValueError("PhotonPulse.sigma_p must be > 0")

    @property
    def gate_time(self) -> float:
        return GATE_TIME_FACTOR / self.sigma_p

    @classmethod
    def from_gate_time(cls, gate_time, delta_p=0.0) -> "PhotonPulse":
        if not gate_time > 0:
            raise ValueError("gate_time must be > 0")
        return cls(sigma_p=GATE_TIME_FACTOR / gate_time, delta_p=delta_p)


@dataclass(frozen=True)
class ScatteringConfig:
    """Scattering-gate inputs.

    delta_eps_a/b are the emitter-cavity detunings of the coupled (spin-up)
    transitions; gamma_eff is the lumped slow-decoherence rate. All rates
    share the cavity's unit system.
    """

    cavity: CavitySystem
    pulse: PhotonPulse
    delta_eps_a: float = 0.0
    delta_eps_b: float = 0.0
    gamma_eff: float = 0.0

    def __post_init__(self):
        values = (self.delta_eps_a, self.delta_eps_b, self.gamma_eff)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("detunings and gamma_eff must be finite")
        if self.gamma_eff < 0:
            raise ValueError("gamma_eff must be >= 0")


def spin_amplitudes(config: ScatteringConfig, omega):
    """The four spin-conditioned reflection amplitudes (s_uu, s_ud, s_du, s_dd)
    a_out/a_in of a plane wave at detuning omega.

    s = 1 - kappa / (kappa/2 - i*omega + sum_k g^2/r_k), r_k = gamma/2 + i*(delta_k - omega),
    summed over the spin-up emitters, which sit at their detuning delta_eps;
    spin-down emitters are far detuned (their term vanishes).
    """
    cav = config.cavity
    w = np.asarray(omega, dtype=float)
    bare = cav.kappa / 2.0 - 1j * w
    term_a = cav.g**2 / (cav.gamma / 2.0 + 1j * (config.delta_eps_a - w))
    term_b = cav.g**2 / (cav.gamma / 2.0 + 1j * (config.delta_eps_b - w))
    denoms = (bare + term_a + term_b, bare + term_a, bare + term_b, bare)
    if any(np.any(np.abs(d) < 1e-300) for d in denoms):
        raise DivergentDenominator("reflection denominator vanished")
    ratios = (1.0 - cav.kappa / d for d in denoms)
    return tuple(complex(r) if np.isscalar(omega) else r for r in ratios)


def _denominator_features(config: ScatteringConfig):
    """(center, half-width) of every reflection-denominator resonance.

    The zeros w = center - i*half-width of kappa/2 - i*w + sum_k g^2/r_k(w),
    one set per amplitude, are the eigenvalues of the lossy single-excitation
    generator: cavity at -i*kappa/2, each coupled emitter at delta_k - i*gamma/2,
    g between the cavity and each emitter. A mode whose unit-norm eigenvector
    has a cavity component <= 1e-8 (the dark state at delta_a == delta_b) is
    dropped: its residue in the amplitudes is about that component squared.
    """
    cav = config.cavity
    features = [(0.0, cav.kappa / 2.0)]
    for deltas in ((config.delta_eps_a,), (config.delta_eps_b,),
                   (config.delta_eps_a, config.delta_eps_b)):
        generator = np.diag([-0.5j * cav.kappa] + [d - 0.5j * cav.gamma for d in deltas])
        generator[0, 1:] = generator[1:, 0] = cav.g
        poles, modes = np.linalg.eig(generator)
        for pole, cavity_part in zip(poles, np.abs(modes[0])):
            if cavity_part > 1e-8:
                features.append((float(pole.real), abs(float(pole.imag)) + 1e-12))
    return features


def _frequency_panels(config: ScatteringConfig):
    """Panel breakpoints (in pulse-normalized units t = (w - delta_p)/sigma_p)
    covering the Gaussian envelope and refining every narrow resonance."""
    sp = config.pulse.sigma_p
    dp = config.pulse.delta_p
    points = {-_T_SPAN, _T_SPAN}
    points.update(s * x for s in (-1, 1) for x in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0))
    for center, width in _denominator_features(config):
        ct = (center - dp) / sp
        wt = width / sp
        if wt >= 1.0 or abs(ct) > _T_SPAN + 50.0 * wt:
            continue  # broad relative to the pulse, or negligible weight
        for mult in (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0):
            for s in (-1, 1):
                x = ct + s * mult * wt
                if -_T_SPAN < x < _T_SPAN:
                    points.add(x)
    pts = np.array(sorted(points))
    keep = np.concatenate([[True], np.diff(pts) > 1e-12])
    return pts[keep]


def _integrate_outer(config: ScatteringConfig, panels: np.ndarray, rule) -> np.ndarray:
    """Gaussian-weighted integrals of the amplitude outer products.

    Returns the 4x4 matrix integral of s_i(w) s_j(w)* |f(w)|^2 dw evaluated
    with the Gauss-Legendre rule (nodes, weights) on every panel.
    """
    x, wgt = rule
    lo = panels[:-1][:, None]
    hi = panels[1:][:, None]
    t = (0.5 * (hi - lo) * x[None, :] + 0.5 * (hi + lo)).ravel()
    w_quad = (0.5 * (hi - lo) * wgt[None, :]).ravel()
    envelope = np.exp(-0.5 * t**2) / math.sqrt(2.0 * math.pi)
    omega = config.pulse.delta_p + config.pulse.sigma_p * t
    s = np.vstack(spin_amplitudes(config, omega))
    weights = w_quad * envelope
    return np.einsum("n,in,jn->ij", weights, s, s.conj())


@functools.cache
def _rules():
    """The per-panel Gauss-Legendre (nodes, weights) and the doubled check rule,
    built on first use: at import, their LAPACK call costs time and memory."""
    return leggauss(32), leggauss(64)


def reduced_density_matrix(config: ScatteringConfig) -> np.ndarray:
    """Two-qubit reduced density matrix after reflection of the pulse.

    rho = (1/4) * integral |f(w)|^2 s_ij(w) s_kl(w)* |ij><kl| dw in the basis
    (uu, ud, du, dd). Hermitian; trace <= 1, the deficit being the
    photon-loss-weighted amplitude reduction.

    The panels are built once and integrated with the fixed 32- and 64-node
    rules; the 64-node result is returned, and QuadratureNotConverged is
    raised when any element of the two differs by more than 1e-10.
    """
    panels = _frequency_panels(config)
    rho, rho2 = (_integrate_outer(config, panels, rule) / 4.0 for rule in _rules())
    change = np.abs(rho - rho2).max()
    if change > 1e-10:
        raise QuadratureNotConverged(
            f"doubling quadrature nodes changed the density matrix by {change:.2e}")
    return 0.5 * (rho2 + rho2.conj().T)


def _apply_dephasing(rho: np.ndarray, gamma_eff: float, gate_time: float) -> np.ndarray:
    """Exponentially degrade all spin coherences.

    The off-diagonal scale e^{-(8/3) Gamma T} reproduces F = 1 - Gamma*T to
    first order for the canonical initial state.
    """
    scale = math.exp(-(8.0 / 3.0) * gamma_eff * gate_time)
    out = rho * scale
    out[np.diag_indices(4)] = np.diag(rho)
    return out


def fidelity_numeric(config: ScatteringConfig) -> GateResult:
    """Gate fidelity from the exact amplitude integral (no small-parameter
    expansion), conditioned on photon detection.

    F = sqrt(<psi_T| rho' |psi_T>) against the ideal state
    (1/2)(|uu> + |ud> + |du> - |dd>), where rho' adds the effective
    decoherence. The reduced-state trace is reported as the heralding
    probability proxy.
    """
    t_gate = config.pulse.gate_time
    rho = reduced_density_matrix(config)
    trace = float(np.trace(rho).real)
    rho = _apply_dephasing(rho, config.gamma_eff, t_gate)
    f2 = float(np.real(IDEAL_TARGET @ rho @ IDEAL_TARGET))
    fidelity = math.sqrt(min(max(f2, 0.0), 1.0))
    return GateResult(
        fidelity=fidelity,
        gate_time=t_gate,
        success_probability=min(max(trace, 0.0), 1.0),
        method=Method.NUMERIC_AMPLITUDE,
    )


def fidelity_analytic(config: ScatteringConfig) -> GateResult:
    """Closed-form fidelity of the scattering gate.

    F = 1 - 5/(4C)
          - (delta_p^2 + sigma_p^2)/(8 gamma^2 C^2) * [11 - 20(2g/kappa)^2 + 12(2g/kappa)^4]
          - (delta_eps_a - delta_eps_b)^2/(4 gamma^2 C) - Gamma*T.

    Valid for C >> 1 and delta_p, sigma_p small against gamma*C (and
    delta_eps small against gamma); a ValidityWarning is emitted outside
    that domain and the result is clamped to [0, 1].
    """
    cav = config.cavity
    c = cav.cooperativity
    gamma = cav.gamma
    t_gate = config.pulse.gate_time
    notes = []
    scale = gamma * c
    if c < 10 or abs(config.pulse.delta_p) > 0.25 * scale or config.pulse.sigma_p > 0.25 * scale \
            or max(abs(config.delta_eps_a), abs(config.delta_eps_b)) > gamma:
        warnings.warn("inputs outside the closed-form validity domain "
                      "(C >> 1, detunings small against gamma*C)", ValidityWarning, stacklevel=2)
        notes.append("outside validity domain")
    u = (2.0 * cav.g / cav.kappa) ** 2
    bracket = 11.0 - 20.0 * u + 12.0 * u**2
    fidelity = (
        1.0
        - 5.0 / (4.0 * c)
        - (config.pulse.delta_p**2 + config.pulse.sigma_p**2) / (8.0 * scale**2) * bracket
        - (config.delta_eps_a - config.delta_eps_b) ** 2 / (4.0 * gamma**2 * c)
        - config.gamma_eff * t_gate
    )
    if fidelity < 0.0 or fidelity > 1.0:
        notes.append("clamped")
        fidelity = min(max(fidelity, 0.0), 1.0)
    return GateResult(
        fidelity=fidelity,
        gate_time=t_gate,
        success_probability=1.0,
        method=Method.ANALYTIC,
        notes=tuple(notes),
    )


def optimal_gate_time(cooperativity, gamma, gamma_eff) -> float:
    """Gate time balancing finite photon bandwidth against decoherence:
    T^3 = 352 pi^2 ln2 / (gamma^2 C^2 Gamma)."""
    if gamma_eff <= 0:
        raise ZeroDecoherence("optimal gate time diverges for gamma_eff = 0")
    return (352.0 * math.pi**2 * LN2 / (gamma**2 * cooperativity**2 * gamma_eff)) ** (1.0 / 3.0)


def cooperativity_limited_max(cooperativity) -> float:
    """Fidelity ceiling from finite cooperativity alone:
    1 - 1/(C+1) - 1/(4C+2), approaching 1 - 5/(4C) for large C."""
    c = np.asarray(cooperativity, dtype=float)
    out = 1.0 - 1.0 / (c + 1.0) - 1.0 / (4.0 * c + 2.0)
    return float(out) if np.isscalar(cooperativity) else out
