"""Lindblad master-equation check of both exchange gates, for array configs:
`gate_fidelity_lindblad` evaluates every row of a config in one call.

The full master equation keeps the recycling terms that the non-Hermitian
treatment drops. Its no-jump generator is block-diagonal: the evolving |ud>
and |uu> sector blocks of `config.sectors()`, and the two other sectors,
whose ground states are frozen. Every jump lands on a frozen state, so the
density matrix at the gate time has an exact single-jump closure. The start
state holds the four sector states with amplitude 1/2 each. Its overlap
with the target, maximized over the local-Z phase of the control qubit (the
gauge in which the ideal gate is defined), gives

    F = sqrt(clip((1/2 (1 + F_pi))^2 + J/4, 0, 1)) - Gamma_eff T,

with F_pi = 1/2 |<0|e^{-iTH_uu}|0> - <0|e^{-iTH_ud}|0>| as on the numeric
path, and the recycled weight

    J = sum_c r_c int_0^T |a_c(s)|^2 ds,
    a_c(s) = 1/2 (<src_ud| e^{-isH_ud} |0> + <src_uu| e^{-isH_uu} |0>),

summed over the jumps c (rate r_c, source states src_ud and src_uu) that
land on a state the target holds. The time integral is closed form over the
eigenvalue pairs lambda_k - conj(lambda_l) of both sectors.

Raman gate: photon loss and emitter decay leave the emitters in the frozen
|d,s> and |d,d> ground states, which the target holds, so recycled
population lands on the target and J > 0; F_pi and J come from one
`linalg.eigenbasis` call per sector stack. Exchange gate: every jump lands
in an A-ground state that the closing pi pulse re-excites, which the target
does not hold. So J = 0 there and F = (F_pi + 1)/2 - Gamma_eff T, the
numeric path's formula: the check returns the result of
`exchange.fidelity_numeric_exchange` with the Lindblad method, bit for bit,
near an exceptional point too, where its Taylor fallback serves.

A row-local failure refuses that row alone (see `params.GateResults`): a
gate time out of the double range, then a Raman row whose sector
eigenbasis `linalg` does not trust (the package's one ConvergenceFailure:
the closure has no fallback), then a propagation or a generator out of the
double range.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from . import linalg
from .errors import ConvergenceFailure, NonFinite
from .exchange import ExchangeConfig, fidelity_numeric_exchange
from .params import GateResults, Method, all_rows, any_row, clamp_unit, gate_results
from .raman import RamanConfig

#: each block's rows of V_ik (V^-1)_k0: its start state 0, then the sources of
#: the Raman jumps that land on a target state, cavity photon loss, emitter A
#: decay and emitter B decay (the |uu> block has no emitter B)
_JUMP_ROWS = (np.array([0, 2, 1, 3]), np.array([0, 2, 1]))


def gate_fidelity_lindblad(config: ExchangeConfig | RamanConfig) -> GateResults:
    """Full master-equation gate fidelity for every row of a config of
    either exchange gate, at its pi-phase gate time. A corrected
    fidelity outside [0, 1] is clamped and carries the "clamped" note, as
    on the numeric path.

    An exchange config has J = 0, so F = (F_pi + 1)/2 - Gamma_eff T, which
    is `fidelity_numeric_exchange`'s result relabelled: the same numbers and
    refusals bit for bit, near an exceptional point too. A Raman config has
    no fallback: the closed-form jump integral loses about cond^2 times
    machine epsilon, so a row whose sector eigenbasis `linalg` does not
    trust (near an exceptional point) is refused with ConvergenceFailure,
    after a gate time out of range and before an overlap that overflows.
    """
    if isinstance(config, ExchangeConfig):   # J = 0: sqrt of the overlap is (1 + F_pi)/2
        return dataclasses.replace(fidelity_numeric_exchange(config), method=Method.LINDBLAD)
    return _raman_lindblad(config)


# a row that overflows is refused below; z = 0 divides by zero in the unused branch
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _raman_lindblad(config: RamanConfig) -> GateResults:
    """`gate_fidelity_lindblad` of a Raman config: the closure with its J."""
    gate_time = config.gate_time
    lossy_sectors, params = config.sectors()
    sectors = lossy_sectors(*params)
    shape = sectors[0].shape[:-2]   # gate_time is a function of the params
    t = np.full(shape, gate_time).reshape(-1, 1)
    bases = [linalg.eigenbasis(h.reshape(-1, *h.shape[-2:])) for h in sectors]
    # both sectors side by side: their eigenvalues and _JUMP_ROWS, 0 where a block has none
    lam = np.concatenate([basis.values for basis in bases], axis=-1)
    a = np.zeros((len(t), len(_JUMP_ROWS[0]), lam.shape[-1]), dtype=complex)
    for basis, rows, states in zip(bases, _JUMP_ROWS, (slice(0, 5), slice(5, 8))):
        np.multiply(basis.vectors.take(rows, 1), basis.inverse[:, None, :, 0],
                    out=a[:, :len(rows), states])
    start = a[:, 0] * np.exp(-1j * t * lam)
    ud, uu = start[:, :5].sum(-1), start[:, 5:].sum(-1)
    u = 0.5 * a[:, 1:]   # a_c(s) = sum_k u_ck e^{-is lambda_k}
    # int_0^T e^{-isz} ds over z = lambda_k - conj(lambda_l), with a small-|z|T branch
    z = lam[:, :, None] - lam.conj()[:, None, :]
    span = t[:, :, None]
    integral = (1.0 - np.exp(-1j * z * span)) / (1j * z)
    if any_row(small := np.abs(z) * span < 1e-9):
        integral = np.where(small, span * (1.0 - 0.5j * z * span), integral)
    rates = np.empty(shape + (3,))   # kappa, gamma, gamma
    rates[..., 0], rates[..., 1:] = config.cavity.kappa, np.asarray(config.cavity.gamma)[..., None]
    weights = np.einsum("nck,nkl,ncl->nc", u, integral, u.conj()).real
    overlap = ((0.5 * (1.0 + 0.5 * np.abs(uu - ud))) ** 2
               + 0.25 * (rates.reshape(weights.shape) * weights).sum(-1))
    trusted, finite = bases[0].trusted & bases[1].trusted, np.isfinite(overlap)
    refused = {}
    if not all_rows(trusted & finite):   # an untrusted row first: its overlap is unused
        cond = np.where(bases[0].trusted, bases[1].cond, bases[0].cond)
        for row in (~trusted).nonzero()[0]:
            refused[ConvergenceFailure(f"eigenbasis of H_eff not trusted (condition number "
                                       f"{cond[row]:.2e}): too near an exceptional point")] = (
                np.arange(len(t)) == row).reshape(shape)
        if not all_rows(finite):
            refused[NonFinite(linalg.OVERFLOW)] = ~finite.reshape(shape)
    f_gate = np.sqrt(clamp_unit(overlap)).reshape(shape) - config.gamma_eff * gate_time
    return gate_results(f_gate, gate_time, Method.LINDBLAD, refused=refused)
