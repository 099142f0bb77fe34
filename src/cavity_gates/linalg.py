"""Small dense complex matrix algebra for subspace Hamiltonians.

Matrices here are 2x2, 3x3 and 5x5 generators H_j in stacks (n, k, k) of
many configurations, each started in its state 0. Two spectral kernels
share one trust limit, EIG_COND_LIMIT; near an exceptional point the closed
forms on a spectrum lose about its trust measure squared times epsilon.

- `resolvent_poles` serves every generator of at most 3x3 and needs no
  eigenvectors: the poles of <0|(z - H)^-1|0> are the eigenvalues (of a
  3x3 stack from one stacked `np.linalg.eigvals`, whose eigenvalues are
  `np.linalg.eig`'s bit for bit; of pairs in closed form, `pair_poles`,
  which takes their entries) and the cofactor formula gives their
  residues w_k. A row is trusted when 2 sum_k |w_k| is below the limit;
  for a complex-symmetric 2x2 that is exactly the Frobenius condition
  number, and on the scattering 3x3 generators (fig2a-c and 20,000 random
  configs) cond_F / sum_k |w_k| lies between 2.4 and 6.9. The scattering
  pole sum passes its 3x3 stars, and its (cavity, emitter) pairs to
  `pair_poles`; `return_amplitudes` passes both exchange sectors and the
  Raman |uu> sector.
- `eigenbasis` makes one stacked `np.linalg.eig` and one stacked
  `np.linalg.inv` of the eigenvectors V. A row is trusted when its
  Frobenius condition number ||V||_F ||V^-1||_F (from the 2-norm one to k
  times it) is below the limit. It serves the Raman 5x5 |ud> sector in
  `return_amplitudes`, and both Raman sectors in the Raman Lindblad
  closure, whose jump integral needs the amplitudes of the jump sources.
  The 5x5 keeps V_0k (V^-1)_k0: on fig6a rows with ||H|| T >= 1e9,
  eigenvalue-only weights move hundreds of cells past 1e-10 (ROADMAP
  item 2).

Untrusted rows take `return_amplitudes`' Taylor scaling-and-squaring, one
row at a time, or the scattering pole sum's matrix function built on
`solve`; the Raman Lindblad closure refuses them with ConvergenceFailure. A
NaN or Inf trust measure, and every row of a finite stack whose eigensolve
(or inverse) raises LinAlgError, are untrusted. NaN or Inf in a generator,
which numpy's own scan in `eig` and `eigvals` refuses for the whole stack,
makes that row NaN alone. A row whose propagation leaves the double range
is not finite, and `refusals` names it for `params.gate_results`. `solve`
raises nothing: a NaN, Inf or singular system makes its own row NaN.

Each public kernel enters np.errstate once, and the kernels it calls none.
No stack is split here: a row's result does not depend on the size of its
stack, and numpy's linalg gufuncs release the GIL. At one row the
bookkeeping costs about twice the eigensolve: a one-row exchange pair takes
about 33 us in `return_amplitudes`, 11 of them in `eigvals` (2-core VM, one
BLAS thread).
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import NonFinite
from .params import all_rows

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
    cond: np.ndarray     # (n,) ||V_j||_F ||V_j^-1||_F in [cond_2, k cond_2]; NaN: not solved
    trusted: np.ndarray  # (n,) cond < EIG_COND_LIMIT


class Poles(NamedTuple):
    """<0|(z - H_j)^-1|0> = sum_k weights_jk / (z - values_jk) per row;
    untrusted rows hold no usable weights."""

    values: np.ndarray   # (n, k) eigenvalues of H_j
    weights: np.ndarray  # (n, k) residues; they sum to 1
    cond: np.ndarray     # (n,) 2 sum_k |weights_jk|; NaN or inf: a double pole
    trusted: np.ndarray  # (n,) cond < EIG_COND_LIMIT


#: every public kernel's floating-point state, entered once per call: a row that
#: overflows, or divides by zero at a double pole, is inf or NaN and warns of nothing
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _stack(h) -> np.ndarray:
    """h as a complex stack (n, k, k); ValueError for any other shape."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {h.shape}")
    return h


def _apart(kernel, h, bad):
    """`kernel`'s result on a stack h whose rows `bad` hold NaN or Inf: they
    are NaN in every field and trusted, for the caller's one finiteness
    check, and the other rows are solved without them."""
    result = kernel(np.where(bad[:, None, None], 0.0, h))
    for field in result[:-1]:
        field[bad] = np.nan
    result.trusted[bad] = True
    return result


@_quiet
def eigenbasis(h) -> Eigenbasis:
    """Eigenbasis of every generator of a stack h (n, k, k)."""
    return _eigenbasis(_stack(h))


def _eigenbasis(h) -> Eigenbasis:
    try:
        values, vectors = np.linalg.eig(h)
        inverse = np.linalg.inv(vectors)
    except np.linalg.LinAlgError:
        if (bad := ~np.isfinite(h).all((1, 2))).any():
            return _apart(_eigenbasis, h, bad)
        values = np.full(h.shape[:2], np.nan, dtype=complex)
        vectors = inverse = np.full_like(h, np.nan)
    # ||V||_F^2 = k (eig's columns are unit); a defective row's ||V^-1||^2 is inf
    cond = np.sqrt(h.shape[-1] * (abs(inverse)**2).sum((1, 2)))
    trusted = cond < EIG_COND_LIMIT   # NaN counts as untrusted
    if not all_rows(trusted):   # the identity keeps untrusted coordinates finite
        vectors[~trusted] = inverse[~trusted] = np.eye(h.shape[-1])
    return Eigenbasis(values, vectors, inverse, cond, trusted)


def _trust(values, weights) -> Poles:
    cond = 2.0 * abs(weights).sum(-1)
    return Poles(values, weights, cond, cond < EIG_COND_LIMIT)   # NaN counts as untrusted


@_quiet
def pair_poles(a, b, c, d) -> Poles:
    """`resolvent_poles` of the pairs [[a_j, b_j], [c_j, d_j]], given by
    their entries: arrays that broadcast to the shape (n,) of d. Their
    callers' pairs are coupled (b c != 0): no retry for a decoupled state."""
    mean, root = 0.5 * (a + d), np.sqrt((0.5 * (a - d))**2 + b * c)   # m, r
    values = np.empty((len(d), 2), dtype=complex)
    big = values[:, 0] = mean + np.where((mean.conj() * root).real < 0.0, -root, root)
    values[:, 1] = (a * d - b * c) / big
    return _trust(values, (values - d[:, None]) / (values - values[:, ::-1]))


@_quiet
def resolvent_poles(h) -> Poles:
    """Poles and residues of <0|(z - H_j)^-1|0> for every generator of a
    stack h (n, k, k) with k <= 3; a larger stack raises ValueError.

    The residue at the eigenvalue lambda_k is the adjugate formula
    w_k = q(lambda_k) / prod_{j!=k} (lambda_k - lambda_j), equal to
    V[0,k] (V^-1 e_0)_k, with q(z) = det(z - H_11) the minor of the start
    state. For pairs [[a, b], [c, d]] the closed form takes lambda_1 = m + r
    of the larger modulus, m = (a + d)/2, r = +-sqrt(((a - d)/2)^2 + bc),
    and lambda_2 = (ad - bc)/lambda_1, whose small root keeps its relative
    accuracy. A row with a double pole divides by zero and is untrusted.

    An untrusted row is solved again once, in a way that changes no
    trusted row: a state i >= 1 coupled to no other is not a pole of the
    resolvent, but may share its eigenvalue with another state (0/0), so
    the row is solved without such states, whose eigenvalues h_ii get
    weight 0 (on a trusted row within rounding of 0, and exactly 0 when
    `eigvals` returns h_ii itself, as LAPACK's balancing does for an
    isolated state). A row whose products overflow stays untrusted.
    """
    h = _stack(h)
    if (k := h.shape[-1]) > 3:
        raise ValueError(f"resolvent_poles takes generators of at most 3x3, got {k}x{k}")
    return _resolvent_poles(h)


def _resolvent_poles(h) -> Poles:
    n, k = h.shape[:2]
    if k == 2:
        # the undecorated kernel (functools.wraps keeps it): the state is entered
        poles = pair_poles.__wrapped__(h[:, 0, 0], h[:, 0, 1], h[:, 1, 0], h[:, 1, 1])
    else:
        try:
            values = np.linalg.eigvals(h)
        except np.linalg.LinAlgError:
            if (bad := ~np.isfinite(h).all((1, 2))).any():
                return _apart(_resolvent_poles, h, bad)
            values = np.full((n, k), np.nan, dtype=complex)
        # q(lambda_k) over the diagonal's strided view of the flat rows; 1 at j = k in the gaps
        minor = (values[:, :, None] - h.reshape(n, -1)[:, None, k + 1::k + 1]).prod(-1)
        if k == 3:
            minor -= h[:, 1, 2, None] * h[:, 2, 1, None]
        gaps = values[:, :, None] - values[:, None, :]
        gaps.reshape(n, -1)[:, ::k + 1] = 1.0
        poles = _trust(values, minor / gaps.prod(-1))
    if not all_rows(poles.trusted):
        values, weights, cond, trusted = poles
        rows = (~trusted).nonzero()[0]
        off = (h[rows] != 0.0) & ~np.eye(k, dtype=bool)
        decoupled = ~(off.any(1) | off.any(2))
        decoupled[:, 0] = False
        for drop in {tuple(row) for row in decoupled[decoupled.any(1)].tolist()}:
            sub, keep = rows[(decoupled == drop).all(1)], ~np.array(drop)
            rest = _resolvent_poles(h[sub][:, keep][:, :, keep])
            values[sub] = np.concatenate(
                [rest.values, np.diagonal(h[sub], axis1=1, axis2=2)[:, ~keep]], axis=1)
            weights[sub] = 0.0
            weights[sub, :keep.sum()] = rest.weights
            cond[sub], trusted[sub] = rest.cond, rest.trusted
    return poles


def solve(a, b) -> np.ndarray:
    """x_j = a_j^-1 b_j for square matrices a (..., k, k) and vectors b
    (..., k, one axis fewer than a) or matrices b (..., k, m), row by row: a
    NaN, Inf or singular (exact zero LU pivot) system, or one whose solution
    overflows, makes its own row NaN and no other row moves. It raises
    nothing and warns of nothing."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    vectors = b.ndim == a.ndim - 1
    b = b[..., None] if vectors else b
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:   # a zero pivot; slogdet's sign is 0 at the same one
        singular = (np.linalg.slogdet(a)[0] == 0)[..., None, None]
        x = np.linalg.solve(np.where(singular, np.eye(a.shape[-1]), a), b)
        x = np.where(singular, np.nan, x)
    # LAPACK overflows quietly to inf, which the caller's arithmetic would turn
    # into NaN with a RuntimeWarning
    x = np.where(np.isfinite(x).all((-2, -1), keepdims=True), x, np.nan)
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


def refusals(values) -> dict:
    """{NonFinite(OVERFLOW): row mask} of the rows of `values`, computed row
    by row from `return_amplitudes`, that are not finite (a time out of
    range too: `gate_results` refuses that row for it first); {} if none."""
    if all_rows(finite := np.isfinite(values)):
        return {}
    return {NonFinite(OVERFLOW): ~finite}


@_quiet
def return_amplitudes(h, t) -> np.ndarray:
    """<0| e^{-i t_j H_j} |0> = sum_k w_k e^{-i t_j lambda_k} for a stack h
    (..., k, k) of generators with at least one stack axis, in one kernel
    call on the flattened stack: w_k of `resolvent_poles` for k <= 3, V_0k
    (V^-1)_k0 of `eigenbasis` above. t is a scalar or broadcasts with the
    stack axes, whose broadcast shape the result has. Untrusted rows take
    Taylor scaling-and-squaring. A row whose propagation leaves the double
    range, or whose generator holds NaN or Inf, is not finite, with no
    RuntimeWarning: see `refusals`."""
    h = np.asarray(h, dtype=complex)
    t = np.asarray(t, dtype=float)
    if h.ndim < 3 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {h.shape}")
    if t.ndim:   # a time per row: one shape for both
        h = np.broadcast_to(h, np.broadcast_shapes(h.shape[:-2], t.shape) + h.shape[-2:])
    lead, k = h.shape[:-2], h.shape[-1]
    flat = h if h.ndim == 3 else h.reshape(-1, k, k)
    if k > 3:
        basis = _eigenbasis(flat)
        values, weights = basis.values, basis.vectors[:, 0] * basis.inverse[:, :, 0]
        trusted = basis.trusted
    else:
        values, weights, _, trusted = _resolvent_poles(flat)
    if h.ndim > 3:
        values, weights = values.reshape(lead + (k,)), weights.reshape(lead + (k,))
    # not `*`: on a large temporary numpy swaps the operands, which may round
    # differently, so a row's bits would depend on the size of its stack
    out = np.multiply(weights, np.exp(-1j * t[..., None] * values)).sum(-1)
    if not all_rows(trusted):
        for i in (~trusted).nonzero()[0]:
            m = -1j * np.broadcast_to(t, lead).flat[i] * flat[i]
            # past ||m||_1 = 2^1023 the scaling 2^-s leaves the double range; NaN fails
            out.flat[i] = _expm_squaring(m)[0, 0] if np.abs(m).sum(0).max() < 2.0**1023 else np.nan
    return out
