"""Photon-scattering controlled phase-flip gate.

A single photon reflects off a one-sided cavity holding two three-level
emitters whose spin-up transition is cavity-resonant. Input-output theory
gives a spin-dependent reflection amplitude for each plane-wave component;
tracing the photon out of the joint state yields the reduced two-qubit
density matrix and with it the gate fidelity. The closed-form fidelity
approximation is valid for high cooperativity and small photon detuning
and bandwidth relative to gamma*C.

The numeric path needs no frequency quadrature. Each amplitude is rational
in omega, s_i = 1 + sum_k a_ik/(omega - lambda_ik), with its poles lambda_ik
the eigenvalues of a lossy cavity-emitter generator; `linalg.eigenbasis`
gives the poles and residues of all four amplitudes in one stacked call.
The Gaussian average of each pole term is the Faddeeva function w(z),
written here in numpy with Weideman's rational expansion (J. A. C.
Weideman, SIAM J. Numer. Anal. 31, 1497 (1994)) at 36 terms, which agrees
with scipy's `wofz` to 2.3e-14 relative over the upper half plane. Rows
whose eigenbasis `linalg` does not trust (near an exceptional point of a
generator, where the pole sum can lose up to cond^2 * machine epsilon)
take the Gauss-Legendre path instead: panels refined around the
reflection poles, fixed 32- and 64-node rules that must agree.

Numeric fields of ScatteringConfig, its PhotonPulse and its CavitySystem
may be numpy arrays that broadcast together; `fidelity_numeric_batch` and
`fidelity_analytic_batch` then evaluate every row at once and return
GateResults of the broadcast shape, and `fidelity_numeric` and
`fidelity_analytic` are their one-configuration calls.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import linalg
from .errors import (DivergentDenominator, NonFinite, QuadratureNotConverged, ValidityWarning,
                     ZeroDecoherence)
from .params import (CavitySystem, GateResult, GateResults, Method, all_rows, any_row,
                     config_row, config_shape, gate_results)

LN2 = math.log(2.0)

#: gate time T = GATE_TIME_FACTOR / sigma_p (twice the photon FWHM duration)
GATE_TIME_FACTOR = 8.0 * math.pi * math.sqrt(2.0 * LN2)

#: ideal two-qubit target (1/2)(|uu> + |ud> + |du> - |dd>)
IDEAL_TARGET = np.array([0.5, 0.5, 0.5, -0.5])

#: Gaussian-envelope half-width of the frequency integration, in units of sigma_p
_T_SPAN = 8.0

#: terms of the rational expansion of the Faddeeva function
_W_TERMS = 36


@dataclass(frozen=True)
class PhotonPulse:
    """Incident Gaussian photon: spectral intensity std sigma_p and mean
    cavity detuning delta_p, in the same angular units as the cavity rates.
    Either may be an array; the two broadcast together."""

    sigma_p: float
    delta_p: float = 0.0

    def __post_init__(self):
        # written so that NaN fails every check
        if not all_rows(self.sigma_p > 0):
            raise ValueError("PhotonPulse.sigma_p must be > 0")
        if not all_rows(abs(self.delta_p) < math.inf):
            raise ValueError("PhotonPulse.delta_p must be finite")

    @property
    def gate_time(self):
        return GATE_TIME_FACTOR / self.sigma_p

    @classmethod
    def from_gate_time(cls, gate_time, delta_p=0.0) -> "PhotonPulse":
        if not all_rows(gate_time > 0):
            raise ValueError("gate_time must be > 0")
        return cls(sigma_p=GATE_TIME_FACTOR / gate_time, delta_p=delta_p)


@dataclass(frozen=True)
class ScatteringConfig:
    """Scattering-gate inputs.

    delta_eps_a/b are the emitter-cavity detunings of the coupled (spin-up)
    transitions; gamma_eff is the lumped slow-decoherence rate. All rates
    share the cavity's unit system. The detunings, gamma_eff, the pulse
    fields and the cavity rates may be arrays that broadcast together.
    """

    cavity: CavitySystem
    pulse: PhotonPulse
    delta_eps_a: float = 0.0
    delta_eps_b: float = 0.0
    gamma_eff: float = 0.0

    def __post_init__(self):
        # written so that NaN fails every check
        if not all_rows((abs(self.delta_eps_a) < math.inf) & (abs(self.delta_eps_b) < math.inf)
                        & (abs(self.gamma_eff) < math.inf)):
            raise ValueError("detunings and gamma_eff must be finite")
        if not all_rows(self.gamma_eff >= 0):
            raise ValueError("gamma_eff must be >= 0")


def spin_amplitudes(config: ScatteringConfig, omega):
    """The four spin-conditioned reflection amplitudes (s_uu, s_ud, s_du, s_dd)
    a_out/a_in of a plane wave at detuning omega.

    s = 1 - kappa / (kappa/2 - i*omega + sum_k g^2/r_k), r_k = gamma/2 + i*(delta_k - omega),
    summed over the spin-up emitters, which sit at their detuning delta_eps;
    spin-down emitters are far detuned (their term vanishes). omega may be
    complex (the amplitudes continue analytically off the real axis) and
    broadcasts with the config's fields; a scalar result is a Python complex.
    """
    cav = config.cavity
    w = np.asarray(omega)
    bare = cav.kappa / 2.0 - 1j * w
    term_a = cav.g**2 / (cav.gamma / 2.0 + 1j * (config.delta_eps_a - w))
    term_b = cav.g**2 / (cav.gamma / 2.0 + 1j * (config.delta_eps_b - w))
    denoms = (bare + term_a + term_b, bare + term_a, bare + term_b, bare)
    if any(np.any(np.abs(d) < 1e-300) for d in denoms):
        raise DivergentDenominator("reflection denominator vanished")
    ratios = (1.0 - cav.kappa / d for d in denoms)
    return tuple(complex(r) if np.ndim(r) == 0 else r for r in ratios)


@functools.cache
def _weideman():
    """(L, c) of Weideman's expansion w(z) = 2 p(Z)/(L - iz)^2 + 1/(sqrt(pi) (L - iz)),
    Z = (L + iz)/(L - iz), p(Z) = sum_n c_n Z^n, from an FFT of
    e^{-t^2} (L^2 + t^2) on t = L tan(theta/2); built on first use."""
    n = _W_TERMS
    m = 2 * n
    scale = math.sqrt(n / math.sqrt(2.0))
    t = scale * np.tan(np.arange(1 - m, m) * np.pi / (2 * m))
    f = np.concatenate([[0.0], np.exp(-t**2) * (scale**2 + t**2)])
    return scale, np.fft.fft(np.fft.fftshift(f)).real[1:n + 1] / (2 * m)


def _faddeeva(z):
    """The Faddeeva function w(z) = e^{-z^2} erfc(-iz) for Im z >= 0."""
    scale, coeff = _weideman()
    d = scale - 1j * z
    big_z = (scale + 1j * z) / d
    p = np.full_like(big_z, coeff[-1])
    for c in coeff[-2::-1]:
        p = p * big_z + c
    return (2.0 * p / d + 1.0 / math.sqrt(math.pi)) / d


def _generators(config: ScatteringConfig, shape: tuple) -> np.ndarray:
    """Lossy cavity-emitter generators of (s_uu, s_ud, s_du, s_dd), shape
    (4,) + shape + (3, 3): cavity at -i*kappa/2, each coupled emitter at
    delta_k - i*gamma/2 with g to the cavity; an uncoupled emitter is a
    decoupled zero state."""
    cav = config.cavity
    h = np.zeros((4,) + shape + (3, 3), dtype=complex)
    h[..., 0, 0] = -0.5j * cav.kappa
    for slot, delta, amplitudes in ((1, config.delta_eps_a, [0, 1]),
                                    (2, config.delta_eps_b, [0, 2])):
        h[amplitudes, ..., slot, slot] = delta - 0.5j * cav.gamma
        h[amplitudes, ..., 0, slot] = h[amplitudes, ..., slot, 0] = cav.g
    return h


def _pole_sum(config: ScatteringConfig, shape: tuple):
    """Density matrices (4, 4) + shape of the pole sum, and the rows (flat,
    of size prod(shape)) whose eigenbasis `linalg` trusts.

    s_i = 1 + sum_k a_ik/(omega - lambda_ik), with a_ik = -i kappa V[0,k] (V^-1 e_0)_k,
    and s_i s_j* has simple poles only, so
    4 rho_ij = 1 + sum_k a_ik sbar_j(lambda_ik) I(lambda_ik) + conj(same with i <-> j),
    sbar_j(x) = conj(s_j(conj x)) and I(lambda) = integral N(omega)/(omega - lambda) d omega
    = conj(i sqrt(pi/2)/sigma_p w(z)), z = (conj(lambda) - delta_p)/(sqrt(2) sigma_p).
    """
    n = math.prod(shape)
    h = _generators(config, shape).reshape(4 * n, 3, 3)
    start = np.zeros((4 * n, 3))
    start[:, 0] = 1.0
    basis = linalg.eigenbasis(h, start)

    def rows_last(x):  # (4n, 3) -> (4, 3) + shape
        return np.moveaxis(x.reshape((4,) + shape + (3,)), -1, 1)

    poles = rows_last(basis.values)
    residues = -1j * config.cavity.kappa * rows_last(basis.vectors[:, 0, :] * basis.coeff)
    sbar = np.conj(spin_amplitudes(config, np.conj(poles)))   # (4_j, 4_i, 3_k) + shape
    sigma = config.pulse.sigma_p
    z = (np.conj(poles) - config.pulse.delta_p) / (math.sqrt(2.0) * sigma)
    weights = residues * np.conj(1j * math.sqrt(0.5 * math.pi) / sigma * _faddeeva(z))
    t = np.einsum("ik...,jik...->ij...", weights, sbar)
    rho = 0.25 * (1.0 + t + np.conj(np.swapaxes(t, 0, 1)))
    # I(lambda) above needs Im lambda <= 0, which rounding can break for an
    # emitter whose gamma is below machine epsilon times the generator's norm
    trusted = basis.trusted & (basis.values.imag <= 0.0).all(axis=1)
    return rho, trusted.reshape(4, n).all(axis=0)


def _denominator_features(config: ScatteringConfig):
    """(center, half-width) of every reflection-denominator resonance.

    The zeros w = center - i*half-width of kappa/2 - i*w + sum_k g^2/r_k(w),
    one set per amplitude, are the eigenvalues of the lossy single-excitation
    generator: cavity at -i*kappa/2, each coupled emitter at delta_k - i*gamma/2,
    g between the cavity and each emitter. A mode whose unit-norm eigenvector
    has a cavity component <= 1e-12 (the dark state at delta_a == delta_b) is
    dropped: its residue in the amplitudes is about kappa times that
    component squared. A mode that is nearly dark (unequal detunings against
    a Purcell-broadened bright mode, a cavity component of 8e-9 at C = 1e5)
    still carries a residue of 2e-8 and is kept.
    """
    cav = config.cavity
    features = [(0.0, cav.kappa / 2.0)]
    for deltas in ((config.delta_eps_a,), (config.delta_eps_b,),
                   (config.delta_eps_a, config.delta_eps_b)):
        generator = np.diag([-0.5j * cav.kappa] + [d - 0.5j * cav.gamma for d in deltas])
        generator[0, 1:] = generator[1:, 0] = cav.g
        poles, modes = np.linalg.eig(generator)
        for pole, cavity_part in zip(poles, np.abs(modes[0])):
            if cavity_part > 1e-12:
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


def _quadrature(config: ScatteringConfig) -> np.ndarray:
    """The density matrix of a one-configuration config from the frequency
    quadrature: the panels are built once and integrated with the fixed 32-
    and 64-node rules; the 64-node result is returned, and
    QuadratureNotConverged is raised when any element of the two differs by
    more than 1e-10."""
    panels = _frequency_panels(config)
    rho, rho2 = (_integrate_outer(config, panels, rule) / 4.0 for rule in _rules())
    change = np.abs(rho - rho2).max()
    if change > 1e-10:
        raise QuadratureNotConverged(
            f"doubling quadrature nodes changed the density matrix by {change:.2e}")
    return 0.5 * (rho2 + rho2.conj().T)


def _density_matrices(config: ScatteringConfig):
    """(rho of the config's broadcast shape + (4, 4), mask of the rows that
    took the quadrature)."""
    shape = config_shape(config)
    rho, trusted = _pole_sum(config, shape)
    flat = rho.reshape(4, 4, -1)
    fallback = ~trusted
    for i in fallback.nonzero()[0]:
        flat[:, :, i] = _quadrature(config_row(config, shape, np.unravel_index(i, shape)))
    return np.moveaxis(rho, (0, 1), (-2, -1)), fallback.reshape(shape)


def reduced_density_matrix(config: ScatteringConfig) -> np.ndarray:
    """Two-qubit reduced density matrix after reflection of the pulse, of
    the config's broadcast shape + (4, 4).

    rho = (1/4) * integral |f(w)|^2 s_ij(w) s_kl(w)* |ij><kl| dw in the basis
    (uu, ud, du, dd). Hermitian; trace <= 1, the deficit being the
    photon-loss-weighted amplitude reduction.

    The integral is the exact pole sum over the reflection poles, with the
    Gaussian average of each pole term a Faddeeva function w(z) (see the
    module docstring). Over 9,000 random configs (C from 1 to 1e5, g/kappa
    from 0.01 to 10, |delta_p| <= 100 gamma, T from 0.1/gamma to 50/gamma)
    it agrees with the quadrature to 1.4e-14. Its error bound grows as
    cond^2 * machine epsilon towards an exceptional point of a generator;
    measured, it stays below 5e-14 up to a Frobenius cond of 910 (2-norm
    743), just inside the trust limit. A row whose eigenbasis
    `linalg.eigenbasis` does not trust (cond at or past its limit; at the
    exceptional point itself, cond ~ 1e8 and the pole sum is off by up to
    9e-9), or that has a pole rounded above the real axis, takes the
    Gauss-Legendre quadrature, one row at a time: panels refined around the
    poles, fixed 32- and 64-node rules, and QuadratureNotConverged when the
    two differ by more than 1e-10 in any element.
    """
    return _density_matrices(config)[0]


def fidelity_numeric_batch(config: ScatteringConfig) -> GateResults:
    """Gate fidelity from the exact amplitude integral (no small-parameter
    expansion), conditioned on photon detection, for every row of an
    array-valued config.

    F = sqrt(<psi_T| rho' |psi_T>) against the ideal state
    (1/2)(|uu> + |ud> + |du> - |dd>), where rho' scales every spin coherence
    of rho by e^{-(8/3) Gamma T}, which reproduces F = 1 - Gamma*T to first
    order. The reduced-state trace is reported as the heralding probability
    proxy. F^2 and the trace are clamped into [0, 1] (rows marked
    "clamped"), and rows that took the quadrature are marked
    "quadrature fallback".
    """
    t_gate = config.pulse.gate_time
    rho, fallback = _density_matrices(config)
    trace = np.trace(rho, axis1=-2, axis2=-1).real
    coherent = np.einsum("i,...ij,j->...", IDEAL_TARGET, rho, IDEAL_TARGET).real
    decay = -(8.0 / 3.0) * config.gamma_eff * t_gate
    # every IDEAL_TARGET weight squared is 1/4, so the populations add trace/4
    f2 = np.exp(decay) * coherent - np.expm1(decay) * trace / 4.0
    return gate_results(np.copysign(np.sqrt(np.abs(f2)), f2), t_gate, Method.NUMERIC_AMPLITUDE,
                        {"quadrature fallback": fallback}, success_probability=trace)


def fidelity_numeric(config: ScatteringConfig) -> GateResult:
    """Gate fidelity from the exact amplitude integral for a
    one-configuration config (see fidelity_numeric_batch)."""
    return fidelity_numeric_batch(config).single()


def fidelity_analytic_batch(config: ScatteringConfig) -> GateResults:
    """Closed-form fidelity of the scattering gate, for every row of an
    array-valued config.

    F = 1 - 5/(4C)
          - (delta_p^2 + sigma_p^2)/(8 gamma^2 C^2) * [11 - 20(2g/kappa)^2 + 12(2g/kappa)^4]
          - (delta_eps_a - delta_eps_b)^2/(4 gamma^2 C) - Gamma*T.

    Valid for C >> 1 and delta_p, sigma_p small against gamma*C (and
    delta_eps small against gamma); rows outside that domain carry the note
    "outside validity domain" and emit a ValidityWarning. Fidelities are
    clamped to [0, 1] (rows marked "clamped"); a one-configuration config
    whose terms overflow raises NonFinite.
    """
    cav = config.cavity
    c = cav.cooperativity
    gamma = cav.gamma
    pulse = config.pulse
    t_gate = pulse.gate_time
    scale = gamma * c
    outside = ((c < 10) | (abs(pulse.delta_p) > 0.25 * scale) | (pulse.sigma_p > 0.25 * scale)
               | (abs(config.delta_eps_a) > gamma) | (abs(config.delta_eps_b) > gamma))
    if any_row(outside):
        warnings.warn("inputs outside the closed-form validity domain "
                      "(C >> 1, detunings small against gamma*C)", ValidityWarning, stacklevel=2)
    u = (2.0 * cav.g / cav.kappa) ** 2
    bracket = 11.0 - 20.0 * u + 12.0 * u**2
    try:
        fidelity = (
            1.0
            - 5.0 / (4.0 * c)
            - (pulse.delta_p**2 + pulse.sigma_p**2) / (8.0 * scale**2) * bracket
            - (config.delta_eps_a - config.delta_eps_b) ** 2 / (4.0 * gamma**2 * c)
            - config.gamma_eff * t_gate
        )
    except OverflowError as exc:  # a float ** past the double range
        raise NonFinite(f"closed-form scattering fidelity overflows: {exc}") from None
    return gate_results(fidelity, t_gate, Method.ANALYTIC, {"outside validity domain": outside})


def fidelity_analytic(config: ScatteringConfig) -> GateResult:
    """Closed-form fidelity of a one-configuration config (see
    fidelity_analytic_batch)."""
    return fidelity_analytic_batch(config).single()


def optimal_gate_time(cooperativity, gamma, gamma_eff) -> float:
    """Gate time balancing finite photon bandwidth against decoherence:
    T^3 = 352 pi^2 ln2 / (gamma^2 C^2 Gamma)."""
    if any_row(gamma_eff <= 0):
        raise ZeroDecoherence("optimal gate time diverges for gamma_eff = 0")
    return (352.0 * math.pi**2 * LN2 / (gamma**2 * cooperativity**2 * gamma_eff)) ** (1.0 / 3.0)


def cooperativity_limited_max(cooperativity) -> float:
    """Fidelity ceiling from finite cooperativity alone:
    1 - 1/(C+1) - 1/(4C+2), approaching 1 - 5/(4C) for large C."""
    c = np.asarray(cooperativity, dtype=float)
    out = 1.0 - 1.0 / (c + 1.0) - 1.0 / (4.0 * c + 2.0)
    return out if np.ndim(out) else float(out)
