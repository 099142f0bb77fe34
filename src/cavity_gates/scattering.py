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
the eigenvalues of the lossy generator H of the cavity and the emitters that
couple in it (only spin-up emitters do). The residues need no
eigenvectors: a_ik = -i*kappa*w_k with w_k the cofactor residue of
`linalg.resolvent_poles`. H is an arrowhead (the cavity couples to each
emitter, and the emitters do not couple to each other), so the cavity's
minor is a product over the emitter levels H_ee and
w_k = prod_e (lambda_k - H_ee) / prod_{j!=k} (lambda_k - lambda_j).
s_dd, the bare cavity, has the one pole -i*kappa/2 with residue -i*kappa
and needs no eigensolve. Rows come in two kinds, read from the config
fields, and `_pole_terms` states each kind's poles, amplitudes and sums:
- a row with identical emitters (delta_eps_a == delta_eps_b bit for bit,
  as on every fig2 row) has three distinct amplitudes, s_uu, s_ud and
  s_dd (its s_du is s_ud bit for bit, and rho repeats s_ud's row and
  column), and five poles: two of s_uu, two of s_ud, then the cavity pole.
  Its s_uu splits in two: the dark state (|a> - |b>)/sqrt(2) has no cavity
  component, so its pole at delta - i*gamma/2 has residue exactly 0, and
  the bright state couples to the cavity with sqrt(2)*g. The bright pair
  and the s_ud pair take one `linalg.pair_poles` call on their entries,
  in closed form with no LAPACK call;
- a row with distinct emitters has four distinct amplitudes and eight
  poles: three of s_uu, two each of s_ud and s_du, then the cavity pole.
  Its s_uu star (cavity and two emitters) takes a stacked 3x3 `eigvals`
  call, and its s_ud and s_du pairs, the star's (cavity, emitter) blocks,
  a `linalg.pair_poles` call.
Poles, residues, the first two trust rules below and the amplitudes at the
poles depend on the generator alone (g, kappa, gamma, the detunings): a
batch of one kind computes them once per distinct generator (fig2a's 363
rows have 3), and a mixed batch once per row (`_rows`). Each row evaluates
the Gaussian averages on its own poles only, and at each pole its own
distinct amplitudes only, all of a kind's in one stacked call of
`_amplitudes`; each amplitude's pole terms are summed over its own poles,
in pole order. The Gaussian average of each pole term is the Faddeeva
function w(z), written here in numpy with Weideman's rational expansion
(J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1497 (1994)) at 36 terms,
which agrees with scipy's `wofz` to 2.3e-14 relative over the upper half
plane. Three kinds of row take the same sum as a rational matrix function
of the generators, which needs no spectrum, instead: rows whose poles
`linalg` does not trust (near an exceptional point of a generator, where
the pole sum can lose up to (sum_k |w_k|)^2 * machine epsilon), rows with
a pole rounded above the real axis, and rows where machine epsilon times
max|H_ij|, the absolute error of every pole, reaches 1e-6 of sigma_p or of
the narrowest coupled pole's width |Im lambda| (an emitter detuned far
past the pulse-scale poles; the dark pole's gamma/2 counts).

Numeric fields of ScatteringConfig, its PhotonPulse and its CavitySystem
may be numpy arrays that broadcast together. `fidelity_numeric` and
`fidelity_analytic` evaluate every row at once and return GateResults of the
broadcast shape; a one-configuration caller takes its GateResult with
`.single()`.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .errors import DivergentDenominator, NonFinite, ValidityWarning, ZeroDecoherence
from .params import (CavitySystem, GateResults, Method, all_rows, any_row, broadcast_shape,
                     check_rates, config_shape, gate_results)

LN2 = math.log(2.0)

#: gate time T = GATE_TIME_FACTOR / sigma_p (twice the photon FWHM duration)
GATE_TIME_FACTOR = 8.0 * math.pi * math.sqrt(2.0 * LN2)

#: ideal two-qubit target (1/2)(|uu> + |ud> + |du> - |dd>)
IDEAL_TARGET = np.array([0.5, 0.5, 0.5, -0.5])

#: weights of rho's entries, row-major, in <psi_T| rho |psi_T>
_COHERENT = np.outer(IDEAL_TARGET, IDEAL_TARGET).reshape(16, 1)

#: machine epsilon, the relative error of `eigvals` against max|H_ij|
_EPS = np.finfo(float).eps

#: terms of the rational expansion of the Faddeeva function
_W_TERMS = 36

#: which emitters (a, b) are coupled to the cavity in (s_uu, s_ud, s_du, s_dd)
_COUPLED = np.array([[True, True], [True, False], [False, True], [False, False]])


@dataclass(frozen=True)
class PhotonPulse:
    """Incident Gaussian photon: spectral intensity std sigma_p and mean
    cavity detuning delta_p, in the same angular units as the cavity rates.
    Either may be an array; the two broadcast together."""

    sigma_p: float
    delta_p: float = 0.0

    def __post_init__(self):
        # written so that NaN fails every check
        check_rates(self, ("sigma_p",))
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
        if not all_rows((abs(self.delta_eps_a) < math.inf) & (abs(self.delta_eps_b) < math.inf)):
            raise ValueError("detunings must be finite")
        check_rates(self, ("gamma_eff",), zero=True)


def spin_amplitudes(config: ScatteringConfig, omega):
    """The four spin-conditioned reflection amplitudes (s_uu, s_ud, s_du, s_dd)
    a_out/a_in of a plane wave at detuning omega.

    s = 1 - kappa / (kappa/2 - i*omega + sum_k g^2/r_k), r_k = gamma/2 + i*(delta_k - omega),
    summed over the spin-up emitters, which sit at their detuning delta_eps;
    spin-down emitters are far detuned (their term vanishes). omega may be
    complex (the amplitudes continue analytically off the real axis) and
    broadcasts with the config's fields; a scalar result is a Python complex.
    An omega at a pole of an amplitude, where a denominator is exactly 0
    (omega = -i kappa/2 for s_dd, say), raises DivergentDenominator for the
    whole call. On the real axis and in the closed upper half plane, where
    the package evaluates them, every denominator has a real part of at
    least kappa/2, which is 0 only if it underflows. Where delta_eps_a ==
    delta_eps_b bit for bit, s_du is s_ud bit for bit. This is the
    four-amplitude form of the kernel `_amplitudes`, which the pole sum
    calls for each kind of row's distinct amplitudes only.
    """
    return tuple(complex(s) if s.ndim == 0 else s for s in _amplitudes(config, omega, False))


def _amplitudes(config: ScatteringConfig, omega, identical: bool) -> np.ndarray:
    """The distinct amplitudes of `spin_amplitudes`, stacked (j,) + the
    broadcast shape of omega and the config's fields: (s_uu, s_ud, s_dd)
    where every row has identical emitters (s_du is s_ud, and term_b is
    term_a), else (s_uu, s_ud, s_du, s_dd). Each denominator is built once,
    in the operation order of the four-amplitude call, and all of them are
    checked and divided in one pass each."""
    cav = config.cavity
    w = np.asarray(omega)
    bare = cav.kappa / 2.0 - 1j * w
    g2 = cav.g * cav.g   # a float's g**2 is pow, which rounds unlike numpy's array square
    term_a = g2 / (cav.gamma / 2.0 + 1j * (config.delta_eps_a - w))
    term_b = term_a if identical else g2 / (cav.gamma / 2.0 + 1j * (config.delta_eps_b - w))
    shape = np.broadcast(bare, term_a, term_b).shape
    d = np.empty((3 if identical else 4,) + shape, dtype=complex)
    # d[j, ...]: a 0-d view, where d[j] of a scalar omega would be a copy
    np.add(bare, term_a, out=d[1, ...])        # s_ud's
    np.add(d[1], term_b, out=d[0, ...])        # s_uu's: (bare + term_a) + term_b
    if not identical:
        np.add(bare, term_b, out=d[2, ...])    # s_du's
    d[-1] = bare                               # s_dd's
    if not all_rows(d):   # an exact 0 (a NaN is not one)
        raise DivergentDenominator("reflection denominator vanished")
    np.divide(cav.kappa, d, out=d)
    return np.subtract(1.0, d, out=d)


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
    for c in coeff[-2::-1]:   # in place: for a few poles the loop is call overhead
        p *= big_z
        p += c
    return (2.0 * p / d + 1.0 / math.sqrt(math.pi)) / d


def _arrowheads(cavity: CavitySystem, shape: tuple, generators) -> np.ndarray:
    """Lossy cavity-plus-emitter generators, (len(generators),) + shape +
    (k + 1, k + 1): the cavity (state 0) at -i*kappa/2 and, in generator j,
    emitter state e at delta - i*gamma/2 with coupling g to the cavity for
    (g, delta) = generators[j][e - 1], or a decoupled zero state for None."""
    k = len(generators[0])
    h = np.zeros((len(generators),) + shape + (k + 1, k + 1), dtype=complex)
    h[..., 0, 0] = -0.5j * cavity.kappa
    for h_j, emitters in zip(h, generators):
        for e, emitter in enumerate(emitters, 1):
            if emitter is not None:
                g, delta = emitter
                h_j[..., e, e] = delta - 0.5j * cavity.gamma
                h_j[..., 0, e] = h_j[..., e, 0] = g
    return h


def _pairs(poles, residues, cavity: CavitySystem, shape: tuple, couplings, emitters):
    """Poles and residues of the pairs [[-i*kappa/2, g_j], [g_j, e_j]] of
    zip(couplings, emitters) over `shape`, pair after pair into the rows
    (4, n) `poles` and `residues`; returns the rows (n,) `linalg` trusts."""
    entries = np.empty((3, 2) + shape, dtype=complex)
    entries[0] = -0.5j * cavity.kappa
    for j, (g, e) in enumerate(zip(couplings, emitters)):
        entries[1, j], entries[2, j] = g, e
    a, g, e = entries.reshape(3, -1)
    pairs = linalg.pair_poles(a, g, g, e)
    for out, x in zip((poles, residues), (pairs.values, pairs.weights)):
        out.reshape(2, 2, -1)[...] = x.reshape(2, -1, 2).transpose(0, 2, 1)
    return pairs.trusted.reshape(2, -1).all(0)


def _generators(config: ScatteringConfig, shape: tuple) -> np.ndarray:
    """Generators of (s_uu, s_ud, s_du, s_dd), shape (4,) + shape + (3, 3),
    with emitters (a, b) coupled as in _COUPLED and an uncoupled emitter a
    decoupled zero state."""
    cav = config.cavity
    a, b = (cav.g, config.delta_eps_a), (cav.g, config.delta_eps_b)
    return _arrowheads(cav, shape, ((a, b), (a, None), (None, b), (None, None)))


#: rho's (uu, ud, du, dd) rows and columns from an identical row's (s_uu, s_ud, s_dd)
_DU_FROM_UD = np.ix_((0, 1, 1, 2), (0, 1, 1, 2))


def _pole_sum(config: ScatteringConfig, shape: tuple):
    """Density matrices (4, 4) + shape of the pole sum, and the rows (flat,
    of size prod(shape)) whose poles it trusts (see the module docstring).

    s_i = 1 + sum_k a_ik/(omega - lambda_ik) over the poles of amplitude i:
    the eigenvalues of its generator H over the states coupled in it, with
    a_ik = -i kappa w_k, w_k = prod_{e>=1} (lambda_k - H_ee) / prod_{j!=k} (lambda_k - lambda_j)
    the residue of <0|(omega - H)^-1|0> (inf at a double pole), and for s_dd
    the bare cavity pole -i kappa/2 with residue -i kappa.

    `_pole_terms` sums a batch of one kind as it is, each distinct generator
    once, and each kind of a mixed batch on its own rows.

    s_i s_j* has simple poles only, so
    4 rho_ij = 1 + sum_k a_ik sbar_j(lambda_ik) I(lambda_ik) + conj(same with i <-> j),
    sbar_j(x) = conj(s_j(conj x)) and I(lambda) = integral N(omega)/(omega - lambda) d omega
    = conj(i sqrt(pi/2)/sigma_p w(z)), z = (conj(lambda) - delta_p)/(sqrt(2) sigma_p).
    """
    n = math.prod(shape)
    # np.equal broadcasts the fields to the batch's shape for a third of
    # np.broadcast_to's cost, which is about 1 % of a one-row call
    same = np.equal(config.delta_eps_a, config.delta_eps_b,
                    out=np.empty(shape, dtype=bool)).reshape(n)
    if n and (count := np.count_nonzero(same)) in (0, n):   # one kind of row
        return _pole_terms(config, shape, count == n)
    rho, trusted = np.empty((4, 4, n), dtype=complex), np.empty(n, dtype=bool)
    for identical, rows in ((True, same), (False, ~same)):   # both kinds, or no row
        if count := np.count_nonzero(rows):
            rho[:, :, rows], trusted[rows] = _pole_terms(_rows(config, shape, rows), (count,),
                                                         identical)
    return rho.reshape((4, 4) + shape), trusted


def _rows(config: ScatteringConfig, shape: tuple, rows: np.ndarray) -> ScatteringConfig:
    """The config of the flat rows selected by the mask `rows`, each field
    an array of one value per row."""
    def at(x):
        return np.broadcast_to(x, shape).reshape(-1)[rows]

    cav, pulse = config.cavity, config.pulse
    return ScatteringConfig(CavitySystem(at(cav.g), at(cav.kappa), at(cav.gamma)),
                            PhotonPulse(at(pulse.sigma_p), at(pulse.delta_p)),
                            at(config.delta_eps_a), at(config.delta_eps_b), at(config.gamma_eff))


def _pole_terms(config: ScatteringConfig, shape: tuple, identical: bool):
    """Density matrices (4, 4) + shape of the pole sum (see `_pole_sum`)
    over rows of one kind, with identical or distinct emitters (see the
    module docstring), and the rows (flat) whose poles it trusts: those that
    `linalg` trusts and that pass the module docstring's other two rules. A
    row that fails one takes no pole term of its own, since the fallback
    replaces its rho. It solves each distinct generator once."""
    cav = config.cavity
    kappa = cav.kappa
    # the stages up to the width rule run once per distinct generator, on its fields' shape
    own = broadcast_shape(cav.g, kappa, cav.gamma, config.delta_eps_a, config.delta_eps_b)
    own = (1,) * (len(shape) - len(own)) + own
    n = math.prod(own)
    width = config.pulse.sigma_p
    emitter_a = config.delta_eps_a - 0.5j * cav.gamma
    poles, residues = np.empty((2, 5 if identical else 8, n), dtype=complex)
    if identical:   # s_uu's bright pair, s_ud's pair, the cavity pole; s_du is s_ud
        trusted = _pairs(poles[:4], residues[:4], cav, own, (math.sqrt(2.0) * cav.g, cav.g),
                         (emitter_a, emitter_a))
        width = np.minimum(width, 0.5 * cav.gamma)   # the dark pole's, which takes no term
    else:   # s_uu's star, whose (cavity, emitter) blocks are s_ud's and s_du's pairs
        emitters = ((cav.g, config.delta_eps_a), (cav.g, config.delta_eps_b))
        star = linalg.resolvent_poles(_arrowheads(cav, own, (emitters,)).reshape(n, 3, 3))
        poles[:3], residues[:3] = star.values.T, star.weights.T
        trusted = star.trusted & _pairs(poles[3:7], residues[3:7], cav, own, (cav.g, cav.g),
                                        (emitter_a, config.delta_eps_b - 0.5j * cav.gamma))
    poles, residues = poles.reshape((-1,) + own), residues.reshape((-1,) + own)
    poles[-1] = -0.5j * kappa   # s_dd = 1 - i kappa/(omega + i kappa/2)
    residues[-1] = 1.0
    # I(lambda) below needs Im lambda <= 0, which rounding can break for an
    # emitter whose gamma is below machine epsilon times the generator's norm
    # (the cavity pole's -kappa/2 cannot); where it holds, the narrowest
    # coupled pole's width is -highest
    highest = poles[:-1].imag.max(axis=0)
    trusted = trusted.reshape(own) & (highest <= 0.0)
    width = np.minimum(width, -highest)
    # `eigvals` errs by about eps max|H_ij| on every pole, so an emitter
    # detuned far past the pulse-scale poles moves them by a visible fraction
    # of their width. The bound 1e-6 on eps max|H_ij| / width sits far above
    # fig2's worst row (2.2e-9) and below the mildest row seen off (0.027,
    # 8e-9 in rho). max|H_ij| is the largest of kappa/2, g, |delta - i gamma/2|.
    detuning = abs(config.delta_eps_a)
    if not identical:
        detuning = np.maximum(detuning, abs(config.delta_eps_b))
    norm = np.maximum(np.maximum(0.5 * kappa, cav.g), np.hypot(detuning, 0.5 * cav.gamma))
    trusted = np.logical_and(trusted, _EPS * norm < 1e-6 * width,
                             out=np.empty(shape, dtype=bool))
    # the fallback's rows, on the batch's shape: no far, inf or NaN pole term, and at the pole
    # -i every denominator of `_amplitudes` has a real part >= 1 (at -i kappa/2 s_dd's is kappa)
    if not all_rows(trusted):
        poles, residues = (np.array(np.broadcast_to(x, x.shape[:1] + shape))
                           for x in (poles, residues))
        poles[:, ~trusted] = -1j
        residues[:, ~trusted] = 0.0
    residues *= -1j * kappa
    mirrored = np.conj(poles)
    sbar = _amplitudes(config, mirrored, identical)   # (j, k) + generators, or + rows
    np.conjugate(sbar, out=sbar)
    sigma = config.pulse.sigma_p
    # on the batch's shape, which may hold axes of gamma_eff's alone
    z = np.subtract(mirrored, config.pulse.delta_p, out=np.empty(poles.shape[:1] + shape, complex))
    z /= math.sqrt(2.0) * sigma
    # not `*`, which may swap the complex operands on a large temporary (see `linalg`),
    # and np.divide: a Python complex / rounds unlike numpy's array loop
    weights = np.multiply(residues, np.conj(np.divide(1j * math.sqrt(0.5 * math.pi), sigma)
                                            * _faddeeva(z)))
    # t[j, i] sums sbar_j over amplitude i's own poles, in pole order
    p = np.multiply(weights, sbar)
    if identical:   # poles 0-1, 2-3 and 4
        t = p[:, ::2]
        t[:, :2] += p[:, 1::2]
    else:   # poles 0-2, 3-4, 5-6 and 7
        t = p[:, 1::2]
        t[:, 0] += p[:, 0]   # p1 + p0 is p0 + p1 bit for bit
        t[:, :3] += p[:, 2::2]
    rho = 0.25 * (1.0 + np.swapaxes(t, 0, 1) + np.conj(t))
    return (rho[_DU_FROM_UD] if identical else rho), trusted.reshape(-1)


def _arrow_inverse(a: np.ndarray) -> np.ndarray:
    """Inverses of a stack of symmetric arrowhead matrices (..., 3, 3) (the
    cavity row and column, an emitter diagonal b), entry by entry from the
    cavity's Schur complement s = a_00 - sum_k a_0k^2/b_k: v v^T/s + diag(0, 1/b)
    with v = (1, -a_0k/b_k). A pivoted LU would lose up to cond(a) relative
    to the largest entry, which the fallback multiplies by g^2."""
    b = np.diagonal(a, axis1=-2, axis2=-1)[..., 1:]
    v = np.concatenate([np.ones(b.shape[:-1] + (1,)), -a[..., 0, 1:] / b], axis=-1)
    s = a[..., 0, 0] + (v[..., 1:] * a[..., 0, 1:]).sum(-1)
    diag = np.concatenate([np.zeros(b.shape[:-1] + (1,)), 1.0 / b], axis=-1)
    return v[..., :, None] * v[..., None, :] / s[..., None, None] + diag[..., None] * np.eye(3)


def _matrix_function(config: ScatteringConfig, shape: tuple, rows: np.ndarray) -> np.ndarray:
    """Density matrices (4, 4, m) of the m flat rows selected by the mask
    `rows`, as matrix functions of their generators: no eigenbasis.

    The pole sum's 4 rho_ij = 1 + t_ij + conj(t_ji) holds with
    t_ij = -i kappa e_0^T sbar_j(H_i) I(H_i) e_0. I(H) = -i sqrt(pi/2)/sigma_p w(U),
    U = (delta_p - H)/(sqrt(2) sigma_p), is Weideman's expansion on the matrix:
    w(U) = (2 p(Z) + d/sqrt(pi)) d^-2 with d = L - iU and Z = 2L d^-1 - 1.
    sbar_j(H) v = v + i kappa M^-1 v, M = H - i kappa/2 - sum_k g^2 (H - delta_k - i gamma/2)^-1
    over the emitters k coupled in amplitude j. For H with its spectrum in the
    closed lower half plane, exceptional point or not, all three are invertible.
    """
    config = _rows(config, shape, rows)

    def at(x):  # a field of the selected rows, to broadcast against (m, 3, 3)
        return x[:, None, None]

    cav, pulse = config.cavity, config.pulse
    kappa, scaled = at(cav.kappa), math.sqrt(2.0) * at(pulse.sigma_p)
    h = _generators(config, cav.kappa.shape)
    eye = np.eye(3)
    scale, coeff = _weideman()
    inv_d = linalg.solve((scale - 1j * at(pulse.delta_p) / scaled) * eye + 1j * h / scaled, eye)
    big_z = 2.0 * scale * inv_d - eye
    y = inv_d[..., 0]                                # d^-1 e_0
    y2 = np.einsum("...ab,...b->...a", inv_d, y)     # d^-2 e_0
    p = coeff[-1] * y2
    for c in coeff[-2::-1]:
        p = np.einsum("...ab,...b->...a", big_z, p) + c * y2
    u = -1j * math.sqrt(math.pi) / scaled[..., 0] * (2.0 * p + y / math.sqrt(math.pi))
    shifts = np.stack([at(config.delta_eps_a), at(config.delta_eps_b)]) + 0.5j * at(cav.gamma)
    resolvents = _arrow_inverse(h[:, None] - shifts * eye)            # (4_i, 2_k, m, 3, 3)
    m = (h[:, None] - 0.5j * kappa * eye
         - at(cav.g)**2 * np.einsum("jk,ik...->ij...", _COUPLED, resolvents))   # (4_i, 4_j, ...)
    x = linalg.solve(m, u[:, None])
    t = -1j * kappa[:, 0, 0] * (u[:, None, :, 0] + 1j * kappa[:, 0, 0] * x[..., 0])
    return 0.25 * (1.0 + t + np.conj(np.swapaxes(t, 0, 1)))


def _density_matrices(config: ScatteringConfig):
    """(rho of shape (4, 4) + the config's broadcast shape, and the mask of
    the rows that took the matrix-function fallback)."""
    shape = config_shape(config)
    rho, trusted = _pole_sum(config, shape)
    flat, fallback = rho.reshape(4, 4, -1), ~trusted
    if fallback.any():
        flat[:, :, fallback] = _matrix_function(config, shape, fallback)
    return rho, fallback.reshape(shape)


def reduced_density_matrix(config: ScatteringConfig) -> np.ndarray:
    """Two-qubit reduced density matrix after reflection of the pulse, of
    the config's broadcast shape + (4, 4).

    rho = (1/4) * integral |f(w)|^2 s_ij(w) s_kl(w)* |ij><kl| dw in the basis
    (uu, ud, du, dd). Hermitian; trace <= 1, the deficit being the
    photon-loss-weighted amplitude reduction.

    The integral is the exact pole sum over the reflection poles (see the
    module docstring). Over 9,000 random configs (C from 1 to 1e5, g/kappa
    from 0.01 to 10, |delta_p| <= 100 gamma, T from 0.1/gamma to 50/gamma)
    it agreed with a Gauss-Legendre quadrature to 1.4e-14. Its error grows
    as (sum_k |w_k|)^2 * machine epsilon towards an exceptional point of a
    generator: against an adaptive quadrature near both exceptional points
    (both emitters detuned by 0.1 to 1e-5 gamma, T from 2/gamma to
    50/gamma) it stays below 2.7e-14 up to a 2 sum_k |w_k| of 632 on a
    one-emitter block, and below 4.5e-14 up to 752 on s_uu's bright pair,
    just inside the trust limit. At the exceptional point itself (2 sum_k
    |w_k| ~ 1e8) the pole sum is off by up to 5e-9; the rows that fail a
    trust rule take the matrix-function form of the same sum, in one
    stacked evaluation, which is within 3e-16 of an adaptive quadrature at
    an exceptional point, but off the pole sum by up to 3e-12 at large
    kappa/sigma_p, where the pole sum is the more accurate.
    """
    rho = _density_matrices(config)[0]
    return rho.transpose(tuple(range(2, rho.ndim)) + (0, 1))


def fidelity_numeric(config: ScatteringConfig) -> GateResults:
    """Gate fidelity from the exact amplitude integral (no small-parameter
    expansion), for every row of the config.

    F = sqrt(<psi_T| rho' |psi_T>) against the ideal state
    (1/2)(|uu> + |ud> + |du> - |dd>), where rho' scales every spin coherence
    of rho by e^{-(8/3) Gamma T}, which reproduces F = 1 - Gamma*T to first
    order. rho' is not renormalised: F^2 is the unnormalised overlap, and
    the photon loss that lowers the trace of rho below 1 lowers F too. The
    fidelity is not conditioned on photon detection; the trace is reported
    separately as the success probability (heralding probability proxy).
    Whether the conditioned overlap F^2/trace is the better reading is
    ROADMAP item 8's open question. F^2 and the trace are clamped into
    [0, 1] (rows marked "clamped"), and rows that took the matrix-function
    form are marked "matrix-function fallback".
    """
    with np.errstate(over="ignore", invalid="ignore"):   # T out of range: refused by gate_results
        t_gate = config.pulse.gate_time
        decay = -(8.0 / 3.0) * config.gamma_eff * t_gate   # -inf or NaN for such a T
    if any_row(out_of_range := ~np.isfinite(t_gate)):
        # a placeholder sigma_p, kappa, keeps such a row's pole sum in range and quiet;
        # gate_results refuses the row
        pulse = config.pulse
        config = replace(config, pulse=PhotonPulse(
            np.where(out_of_range, config.cavity.kappa, pulse.sigma_p), pulse.delta_p))
    rho, fallback = _density_matrices(config)
    # rho's 16 entries in row-major order, real and imaginary parts side by side: each sum
    # below runs over the outer axis, entry by entry in that order, for a batch of any
    # size (over a flat axis, a one-row sum would be pairwise), so that a row's F is bit
    # for bit its one-row call's
    parts = np.ascontiguousarray(rho).reshape(16, -1).view(float)
    coherent = (_COHERENT * parts).sum(0)[::2].reshape(rho.shape[2:])
    trace = parts[::5].sum(0)[::2].reshape(rho.shape[2:])   # the populations
    # every IDEAL_TARGET weight squared is 1/4, so the populations add trace/4
    f2 = np.exp(decay) * coherent - np.expm1(decay) * trace / 4.0
    return gate_results(np.copysign(np.sqrt(np.abs(f2)), f2), t_gate, Method.NUMERIC_AMPLITUDE,
                        {"matrix-function fallback": fallback}, success_probability=trace)


def fidelity_analytic(config: ScatteringConfig) -> GateResults:
    """Closed-form fidelity of the scattering gate, for every row of the
    config.

    F = 1 - 5/(4C)
          - (delta_p^2 + sigma_p^2)/(8 gamma^2 C^2) * [11 - 20(2g/kappa)^2 + 12(2g/kappa)^4]
          - (delta_eps_a - delta_eps_b)^2/(4 gamma^2 C) - Gamma*T.

    Valid for C >> 1 and delta_p, sigma_p small against gamma*C (and
    delta_eps small against gamma); rows outside that domain carry the note
    "outside validity domain" and emit a ValidityWarning. Fidelities are
    clamped to [0, 1] (rows marked "clamped"). A row whose terms overflow
    is refused with NonFinite.
    """
    cav = config.cavity
    c = cav.cooperativity
    gamma = cav.gamma
    pulse = config.pulse
    scale = gamma * c
    outside = ((c < 10) | (abs(pulse.delta_p) > 0.25 * scale) | (pulse.sigma_p > 0.25 * scale)
               | (abs(config.delta_eps_a) > gamma) | (abs(config.delta_eps_b) > gamma))
    if any_row(outside):
        warnings.warn("inputs outside the closed-form validity domain "
                      "(C >> 1, detunings small against gamma*C)", ValidityWarning, stacklevel=2)
    message = "closed-form scattering fidelity overflows"
    try:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            t_gate = pulse.gate_time   # out of the double range: refused by gate_results
            fidelity = _closed_form(cav, pulse.delta_p, pulse.sigma_p, config.delta_eps_a,
                                    config.delta_eps_b, config.gamma_eff, t_gate)
    except (OverflowError, ZeroDivisionError) as exc:  # float arithmetic past the double range,
        # on a field that every row shares
        fidelity, message = np.full(config_shape(config), math.nan), f"{message}: {exc}"
    finite = np.isfinite(fidelity)
    return gate_results(fidelity, t_gate, Method.ANALYTIC, {"outside validity domain": outside},
                        refused={} if all_rows(finite) else {NonFinite(message): ~finite})


def _closed_form(cavity, delta_p, sigma_p, delta_eps_a, delta_eps_b, gamma_eff, gate_time):
    """The unclamped F of fidelity_analytic, unchecked, on arrays that
    broadcast with the cavity's rates. An overflowing row comes back inf or
    NaN (with a RuntimeWarning outside np.errstate), and an overflowing
    Python float raises OverflowError or ZeroDivisionError."""
    c = cavity.cooperativity
    gamma = cavity.gamma
    scale = gamma * c
    u = (2.0 * cavity.g / cavity.kappa) ** 2
    bracket = 11.0 - 20.0 * u + 12.0 * u**2
    return (
        1.0
        - 5.0 / (4.0 * c)
        - (delta_p**2 + sigma_p**2) / (8.0 * scale**2) * bracket
        - (delta_eps_a - delta_eps_b) ** 2 / (4.0 * gamma**2 * c)
        - gamma_eff * gate_time
    )


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
