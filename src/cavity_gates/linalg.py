"""Small dense complex matrix algebra for subspace Hamiltonians.

Matrices here are <= 16x16 numpy arrays. Propagation works on stacks: the
generators H_j (n, k, k), states psi_j and times t_j of many configurations
are evolved together, CHUNK rows at a time, with one stacked
`np.linalg.eig`, one `np.linalg.cond` and one `np.linalg.solve` per chunk
(chunks keep the LAPACK workspace and temporaries small for grids of any
size). The eigendecomposition is cheap and exact for long propagation
times. A row whose eigenvector matrix has condition number EIG_COND_LIMIT
or more (near an exceptional point of a non-Hermitian block), and every
row of a chunk whose stacked call raises LinAlgError, falls back one row
at a time to scaling-and-squaring with a truncated Taylor series. NaN or
Inf anywhere in a stack or its times raises NonFinite. `propagate` and
`return_amplitude` are one-row calls of the same path.
"""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceFailure, NonFinite

#: condition-number threshold above which the eigenvector basis is distrusted
EIG_COND_LIMIT = 1e8

#: truncation tolerance of the Taylor fallback
SERIES_TOL = 1e-12

#: largest number of matrices handed to one stacked LAPACK call
CHUNK = 1024


def _as_square(matrix) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise NonFinite("matrix contains NaN or Inf entries")
    return m


def _expm_squaring(m: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring with a Taylor series truncated at SERIES_TOL."""
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
    else:
        raise ConvergenceFailure("Taylor series for the matrix exponential did not truncate")
    for _ in range(squarings):
        result = result @ result
    return result


def mat_exp(matrix) -> np.ndarray:
    """Matrix exponential e^M.

    Diagonalizes when the eigenvector condition number is below
    EIG_COND_LIMIT, otherwise uses scaling-and-squaring. For anti-Hermitian
    input the result is unitary to ~1e-10.
    """
    m = _as_square(matrix)
    try:
        evals, vecs = np.linalg.eig(m)
        cond = np.linalg.cond(vecs)
        if np.isfinite(cond) and cond < EIG_COND_LIMIT:
            return (vecs * np.exp(evals)) @ np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        pass
    return _expm_squaring(m)


def _propagate(h: np.ndarray, psi: np.ndarray, t: np.ndarray) -> np.ndarray:
    """e^{-i t_j H_j} psi_j for stacks h (n, k, k), psi (n, k) and t (n,)."""
    if not np.isfinite(h).all():
        raise NonFinite("matrix contains NaN or Inf entries")
    if not np.isfinite(t).all():
        raise NonFinite("propagation time contains NaN or Inf entries")
    out = np.empty_like(psi)
    for start in range(0, len(h), CHUNK):
        rows = slice(start, start + CHUNK)
        out[rows] = _propagate_chunk(h[rows], psi[rows], t[rows])
    return out


def _propagate_chunk(h, psi, t):
    try:
        evals, vecs = np.linalg.eig(h)
        fallback = ~(np.linalg.cond(vecs) < EIG_COND_LIMIT)  # NaN counts as failed
        if fallback.any():
            # recomputed below; the identity keeps the stacked solve well-posed
            vecs[fallback] = np.eye(h.shape[-1])
        coeff = np.linalg.solve(vecs, psi[:, :, None])
        out = (vecs @ (np.exp(-1j * t[:, None] * evals)[:, :, None] * coeff))[:, :, 0]
    except np.linalg.LinAlgError:
        fallback = np.ones(len(h), dtype=bool)
        out = np.empty_like(psi)
    for i in fallback.nonzero()[0]:
        out[i] = _expm_squaring(-1j * t[i] * h[i]) @ psi[i]
    return out


def propagate(h_eff, psi0, t: float) -> np.ndarray:
    """Propagate a state under a (generally non-Hermitian) generator.

    Returns e^{-i t H_eff} psi0. For H_eff = H - (i/2) * sum of nonnegative
    decay projectors the output norm never exceeds the input norm.
    """
    h = _as_square(h_eff)
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != (h.shape[0],):
        raise ValueError(f"state dimension {psi.shape} does not match generator {h.shape}")
    if not np.isfinite(psi).all():
        raise NonFinite("state contains NaN or Inf entries")
    return _propagate(h[None], psi[None], np.array([t], dtype=float))[0]


def return_amplitudes(h_eff, index: int, t) -> np.ndarray:
    """<index| e^{-i t_j H_j} |index> for every generator of a stack.

    h_eff has shape (n, k, k); t is a scalar or has shape (n,).
    """
    h = np.asarray(h_eff, dtype=complex)
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {h.shape}")
    psi = np.zeros(h.shape[:2], dtype=complex)
    psi[:, index] = 1.0
    times = np.empty(len(h))
    times[:] = t
    return _propagate(h, psi, times)[:, index]


def return_amplitude(h_eff, index: int, t: float) -> complex:
    """<index| e^{-i t H_eff} |index> for a basis state of the generator."""
    return complex(return_amplitudes(np.asarray(h_eff)[None], index, t)[0])
