"""Small dense complex matrix algebra for subspace Hamiltonians.

Matrices here are 2x2, 3x3 and 5x5 generators H_j in stacks (n, k, k) of
many configurations, each started in its state 0. Two spectral kernels
share one trust limit, EIG_COND_LIMIT; near an exceptional point the closed
forms on a spectrum lose about its trust measure squared times epsilon.

- `resolvent_poles` serves every generator of at most 3x3 and needs no
  eigenvectors: the poles of <0|(z - H)^-1|0> are the eigenvalues (of a
  2x2 stack in closed form with no LAPACK call, of a 3x3 stack from one
  stacked `np.linalg.eigvals`, whose eigenvalues are `np.linalg.eig`'s bit
  for bit) and the cofactor formula gives their residues w_k. A row is
  trusted when 2 sum_k |w_k| is below the limit; for a complex-symmetric
  2x2 that is exactly the Frobenius condition number, and on the
  scattering 3x3 generators (fig2a-c and 20,000 random configs)
  cond_F / sum_k |w_k| lies between 2.4 and 6.9. It has two callers. The
  scattering pole sum makes its calls per kind of row: rows with identical
  emitters pass one stack of pairs, their bright pairs and their
  one-emitter blocks, so fig2a-c make no LAPACK call; rows with distinct
  emitters pass their 3x3 stars, and then a stack of their two
  one-emitter blocks. It sends untrusted rows to a matrix function of the
  generators built on `solve`. `return_amplitudes` passes both exchange
  sectors and the Raman |uu> sector, and sends untrusted rows to its
  Taylor fallback.
- `eigenbasis` makes one stacked `np.linalg.eig` and one stacked
  `np.linalg.inv` of the eigenvectors V. A row is trusted when its
  Frobenius condition number ||V||_F ||V^-1||_F (from the 2-norm one to k
  times it) is below the limit. It serves the Raman 5x5 |ud> sector in
  `return_amplitudes`, and both Raman sectors in the Raman Lindblad
  closure, whose jump integral needs the amplitudes of the jump sources,
  not only of the start state. The 5x5 keeps V_0k (V^-1)_k0 because its
  weights pin the fig6a reference: on rows with ||H|| T >= 1e9, where two
  slow eigenvalues nearly coincide, eigenvalue-only weights move hundreds
  of fig6a cells past 1e-10 (ROADMAP item 2).

`return_amplitudes` sends the untrusted rows of either kernel to Taylor
scaling-and-squaring, one row at a time. It propagates the numeric path of
both exchange gates and, through it, the simple exchange's Lindblad check.
The Raman Lindblad closure has no fallback: it refuses each row whose
eigenbasis is untrusted, with ConvergenceFailure.

In both kernels a NaN or Inf trust measure (products that overflowed, say),
and every row of a stack whose eigensolve (or inverse) raises LinAlgError,
are untrusted. NaN or Inf in a generator raises NonFinite for the whole
stack. A row whose propagation leaves the double range (a non-finite t, a
phase e^{-i t lambda} or an untrusted row's Taylor generator t H past it)
is not finite, and `refusals` names it for `params.gate_results`, with one
overflow message whichever route the row took. No stack is split here: the
callers size it, and each call makes one LAPACK call per kernel whatever
its size. At one row the checks and bookkeeping still cost about three
times the eigensolve: a one-row exchange pair takes about 50 us in
`return_amplitudes`, 12 of them in `eigvals` (2-core VM, one BLAS thread).
A row's result does not depend on the size of its stack, and numpy's linalg
gufuncs release the GIL.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, NonFinite
from .params import all_rows, any_row

#: eigenvector condition number (or twice the residue sum of `resolvent_poles`)
#: from which a spectrum is not trusted
EIG_COND_LIMIT = 1e3

#: truncation tolerance of the Taylor fallback
SERIES_TOL = 1e-12

#: the NonFinite text of an overflowing propagation, whichever route a row took
OVERFLOW = "propagation overflows: ||H|| t is past the double range"


class Eigenbasis(NamedTuple):
    """H_j = V_j diag(values_j) V_j^-1 per row (column 0 of V_j^-1: the start
    state's coordinates); untrusted rows hold the identity, no usable basis."""

    values: np.ndarray   # (n, k)
    vectors: np.ndarray  # (n, k, k) V
    inverse: np.ndarray  # (n, k, k) V^-1
    cond: np.ndarray     # (n,) ||V_j||_F ||V_j^-1||_F in [cond_2, k cond_2]; NaN: eig/inv raised
    trusted: np.ndarray  # (n,) cond < EIG_COND_LIMIT


class Poles(NamedTuple):
    """<0|(z - H_j)^-1|0> = sum_k weights_jk / (z - values_jk) per row;
    untrusted rows hold no usable weights."""

    values: np.ndarray   # (n, k) eigenvalues of H_j
    weights: np.ndarray  # (n, k) residues; they sum to 1
    cond: np.ndarray     # (n,) 2 sum_k |weights_jk|; NaN or inf: a double pole
    trusted: np.ndarray  # (n,) cond < EIG_COND_LIMIT


def eigenbasis(h) -> Eigenbasis:
    """Eigenbasis of every generator of a stack h (n, k, k)."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise NonFinite("matrix contains NaN or Inf entries")
    try:
        values, vectors = np.linalg.eig(h)
        inverse = np.linalg.inv(vectors)
    except np.linalg.LinAlgError:
        values = np.full(h.shape[:2], np.nan, dtype=complex)
        vectors = inverse = np.full_like(h, np.nan)
    # ||V||_F^2 = k (eig's columns are unit); a defective row's ||V^-1||^2 is inf
    with np.errstate(over="ignore"):
        cond = np.sqrt(h.shape[-1] * (abs(inverse)**2).sum((1, 2)))
    trusted = cond < EIG_COND_LIMIT   # NaN counts as untrusted
    if not trusted.all():   # the identity keeps untrusted coordinates finite
        vectors[~trusted] = inverse[~trusted] = np.eye(h.shape[-1])
    return Eigenbasis(values, vectors, inverse, cond, trusted)


def _residues(g, values):
    """(eigenvalues, residues) of <0|(z - G_j)^-1|0> for a stack g (n, k, k):
    pairs in closed form (`values` is not used), and 1 or 3 states from
    their given eigenvalues `values` (n, k) by the cofactor formula."""
    if g.shape[-1] == 2:
        a, b, c, d = g[:, 0, 0], g[:, 0, 1], g[:, 1, 0], g[:, 1, 1]
        mean, root = 0.5 * (a + d), np.sqrt((0.5 * (a - d))**2 + b * c)   # m, r
        values = np.empty((len(g), 2), dtype=complex)
        big = values[:, 0] = mean + np.where((mean.conj() * root).real < 0.0, -root, root)
        values[:, 1] = (a * d - b * c) / big
        return values, (values - d[:, None]) / (values - values[:, ::-1])
    k = g.shape[-1]   # the diagonals below are strided views of the flat rows
    minor = (values[:, :, None] - g.reshape(len(g), -1)[:, None, k + 1::k + 1]).prod(-1)
    if k == 3:
        minor -= g[:, 1, 2, None] * g[:, 2, 1, None]
    gaps = values[:, :, None] - values[:, None, :]
    gaps.reshape(len(g), -1)[:, ::k + 1] = 1.0   # 1 at j = k
    return values, minor / gaps.prod(-1)


def resolvent_poles(h) -> Poles:
    """Poles and residues of <0|(z - H_j)^-1|0> for every generator of a
    stack h (n, k, k) with k <= 3; a larger stack raises ValueError.

    The residue at the eigenvalue lambda_k is the adjugate formula
    w_k = q(lambda_k) / prod_{j!=k} (lambda_k - lambda_j), equal to
    V[0,k] (V^-1 e_0)_k, with q(z) = det(z - H_11) the minor of the start
    state: (z - h_11)(z - h_22) - h_12 h_21 for a 3x3 (h_12 = 0 on a star)
    and z - h_11 for a pair. So eigenvalues suffice: one `np.linalg.eigvals`
    call, or for pairs [[a, b], [c, d]] the closed form lambda_1 = m + r of
    the larger modulus, m = (a + d)/2, r = +-sqrt(((a - d)/2)^2 + bc), and
    lambda_2 = (ad - bc)/lambda_1, whose small root keeps its relative
    accuracy. A row is trusted when 2 sum_k |w_k| < EIG_COND_LIMIT; a row
    with a double pole divides by zero and is not.

    An untrusted row is solved again once, in a way that changes no
    trusted row: a state i >= 1 coupled to no other (row and column i zero
    off the diagonal) is not a pole of the resolvent, but it may share its
    eigenvalue with another state, where the formula is 0/0, so the row is
    solved without such states, whose eigenvalues h_ii get weight 0. (On a
    trusted row the formula gives h_ii a weight within rounding of 0, and
    exactly 0 when `eigvals` returns h_ii itself, as LAPACK's balancing
    does for an isolated state.) A row whose products overflow, where
    ||H|| nears the edge of the double range, stays untrusted.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {h.shape}")
    k = h.shape[-1]
    if k > 3:
        raise ValueError(f"resolvent_poles takes generators of at most 3x3, got {k}x{k}")
    if not np.isfinite(h).all():
        raise NonFinite("matrix contains NaN or Inf entries")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = None
        if k != 2:
            try:
                values = np.linalg.eigvals(h)
            except np.linalg.LinAlgError:
                values = np.full(h.shape[:2], np.nan, dtype=complex)
        values, weights = _residues(h, values)
        cond = 2.0 * abs(weights).sum(-1)
        trusted = cond < EIG_COND_LIMIT   # NaN counts as untrusted
        if not trusted.all():
            rows = (~trusted).nonzero()[0]
            off = (h[rows] != 0.0) & ~np.eye(k, dtype=bool)
            decoupled = ~(off.any(1) | off.any(2))
            decoupled[:, 0] = False
            for drop in {tuple(row) for row in decoupled[decoupled.any(1)].tolist()}:
                sub, keep = rows[(decoupled == drop).all(1)], ~np.array(drop)
                rest = resolvent_poles(h[sub][:, keep][:, :, keep])
                values[sub] = np.concatenate(
                    [rest.values, np.diagonal(h[sub], axis1=1, axis2=2)[:, ~keep]], axis=1)
                weights[sub] = 0.0
                weights[sub, :keep.sum()] = rest.weights
                cond[sub], trusted[sub] = rest.cond, rest.trusted
    return Poles(values, weights, cond, trusted)


def solve(a, b) -> np.ndarray:
    """x_j = a_j^-1 b_j for square matrices a (..., k, k) and vectors b
    (..., k, one axis fewer than a) or matrices b (..., k, m). NaN or Inf
    input raises NonFinite, and a singular a_j ConvergenceFailure."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NonFinite("linear system contains NaN or Inf entries")
    vectors = b.ndim == a.ndim - 1
    try:
        x = np.linalg.solve(a, b[..., None] if vectors else b)
    except np.linalg.LinAlgError:
        raise ConvergenceFailure("singular matrix in a stacked linear solve") from None
    return x[..., 0] if vectors else x


def _expm_squaring(m: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with a Taylor series truncated at SERIES_TOL,
    which it reaches within 12 terms: the k-th is at most 2^-k/k!."""
    norm = np.linalg.norm(m, 1)
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0.5 else 0
    a = m / (2.0**squarings)
    result = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, 60):
        term = term @ a / k
        result = result + term
        if np.abs(term).max() < SERIES_TOL:
            break
    for _ in range(squarings):
        result = result @ result
    return result


def refusals(t, values) -> dict:
    """{NonFinite: row mask} of the rows of `values`, computed row by row from
    `return_amplitudes` at times t, that are not finite: a non-finite t, else
    an overflow."""
    if all_rows(finite := np.isfinite(values)):
        return {}
    timed = np.isfinite(t)
    return {error: rows for error, rows in (
        (NonFinite("propagation time contains NaN or Inf entries"), ~timed),
        (NonFinite(OVERFLOW), ~finite & timed)) if any_row(rows)}


def return_amplitudes(h, t) -> np.ndarray:
    """<0| e^{-i t_j H_j} |0> = sum_k w_k e^{-i t_j lambda_k} for a stack h
    (..., k, k) of generators with at least one stack axis, in one kernel
    call on the flattened stack: w_k of `resolvent_poles` for k <= 3, V_0k
    (V^-1)_k0 of `eigenbasis` above. t is a scalar or broadcasts with the
    stack axes, whose broadcast shape the result has. Untrusted rows take
    Taylor scaling-and-squaring. A row whose propagation leaves the double
    range is not finite, with no RuntimeWarning: see `refusals`."""
    h = np.asarray(h, dtype=complex)
    t = np.asarray(t, dtype=float)
    if h.ndim < 3 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {h.shape}")
    if t.ndim:   # a time per row: one shape for both
        h = np.broadcast_to(h, np.broadcast_shapes(h.shape[:-2], t.shape) + h.shape[-2:])
    lead, k = h.shape[:-2], h.shape[-1]
    flat = h.reshape(-1, k, k)
    if k > 3:
        basis = eigenbasis(flat)
        values, weights = basis.values, basis.vectors[:, 0] * basis.inverse[:, :, 0]
        trusted = basis.trusted
    else:
        values, weights, _, trusted = resolvent_poles(flat)
    values, weights = values.reshape(lead + (k,)), weights.reshape(lead + (k,))
    # not `*`: on a large temporary numpy swaps the operands, which may round
    # differently, so a row's bits would depend on the size of its stack
    with np.errstate(over="ignore", invalid="ignore"):   # untrusted rows replaced below
        out = np.multiply(weights, np.exp(-1j * t[..., None] * values)).sum(-1)
        for i in (~trusted).nonzero()[0]:
            m = -1j * np.broadcast_to(t, lead).flat[i] * flat[i]
            # past ||m||_1 = 2^1023 the scaling 2^-s leaves the double range; NaN fails
            out.flat[i] = _expm_squaring(m)[0, 0] if np.abs(m).sum(0).max() < 2.0**1023 else np.nan
    return out
