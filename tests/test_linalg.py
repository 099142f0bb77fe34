import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavity_gates import linalg
from cavity_gates.errors import ConvergenceFailure, NonFinite


def random_complex(shape, rng, scale=1.0):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def taylor_expm(m, terms=30):
    """Independent oracle: plain truncated Taylor sum."""
    result = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ m / k
        result = result + term
    return result


def amplitude_one(h, t):
    """<0| e^{-i t H} |0> as a one-row stack."""
    return linalg.return_amplitudes(np.asarray(h)[None], t)[0]


def test_exp_zero_is_identity():
    out = linalg._expm_squaring(np.zeros((4, 4), dtype=complex))
    assert np.abs(out - np.eye(4)).max() < 1e-12


def test_exp_diagonal_phases():
    thetas = np.array([0.3, -1.7])
    out = linalg._expm_squaring(-1j * np.diag(thetas))
    assert np.abs(out - np.diag(np.exp(-1j * thetas))).max() < 1e-12


def test_exp_matches_taylor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = random_complex((5, 5), rng, scale=0.1)
        assert np.linalg.norm(m) < 1.0
        assert np.abs(linalg._expm_squaring(m) - taylor_expm(m)).max() < 1e-10


def test_exp_unitary_for_anti_hermitian():
    rng = np.random.default_rng(11)
    a = random_complex((6, 6), rng)
    h = a + a.conj().T
    u = linalg._expm_squaring(-1j * h)
    assert np.abs(u @ u.conj().T - np.eye(6)).max() < 1e-10


def test_eig_path_agrees_with_squaring():
    rng = np.random.default_rng(3)
    for dim in (3, 5):
        for _ in range(4):
            h = random_complex((dim, dim), rng, scale=0.7)
            expected = linalg._expm_squaring(-1j * 1.3 * h)[0, 0]
            assert abs(amplitude_one(h, 1.3) - expected) < 1e-9


def test_squaring_handles_defective_matrix():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # Jordan block
    out = linalg._expm_squaring(m)
    assert np.abs(out - np.array([[1.0, 1.0], [0.0, 1.0]])).max() < 1e-12


def test_propagate_pure_decay():
    h = np.array([[-0.5j * 2.0]])
    assert amplitude_one(h, 3.0) == pytest.approx(np.exp(-3.0), rel=1e-12)


def test_propagate_norm_preserved_for_hermitian():
    # e^{-itH} is unitary: |<0|U(t)|0>| <= 1, and <0|U(-t)|0> = conj(<0|U(t)|0>)
    rng = np.random.default_rng(5)
    a = random_complex((4, 4), rng)
    h = a + a.conj().T
    forward, backward = linalg.return_amplitudes(np.stack([h, h]), np.array([2.3, -2.3]))
    assert abs(forward) <= 1.0 + 1e-10
    assert abs(backward - forward.conjugate()) < 1e-10


def test_norm_monotone_under_decay():
    # the return amplitude of a lossy generator starts at 1 and never exceeds
    # it: |<0|e^{-itH}|0>| <= ||e^{-itH} e_0|| <= 1
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = random_complex((5, 5), rng)
        h = a + a.conj().T - 0.5j * np.diag(rng.uniform(0.0, 2.0, 5))
        times = np.linspace(0.0, 4.0, 20)
        out = linalg.return_amplitudes(np.broadcast_to(h, (20, 5, 5)), times)
        assert abs(out[0] - 1.0) <= 1e-9
        assert np.all(abs(out) <= 1.0 + 1e-9)


def test_non_finite_rejected():
    with pytest.raises(NonFinite):
        amplitude_one(np.array([[np.nan, 0.0], [0.0, 0.0]]), 1.0)
    with pytest.raises(NonFinite):
        amplitude_one(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1.0)
    with pytest.raises(NonFinite):
        amplitude_one(np.eye(2), np.nan)


def test_shape_validation():
    with pytest.raises(ValueError):
        linalg.return_amplitudes(np.ones((1, 2, 3)), 1.0)
    with pytest.raises(ValueError):
        linalg.return_amplitudes(np.eye(2), 1.0)   # one matrix is not a stack
    with pytest.raises(ValueError):
        linalg.return_amplitudes(np.stack([np.eye(2)] * 3), np.ones(2))


def test_return_amplitude_is_eigenbasis_sum():
    # <0|e^{-itH}|0> = sum_k V_0k (V^-1)_k0 e^{-it lambda_k}, bit for bit the
    # product order of the Lindblad closure, and within 1e-12 of the Taylor form
    rng = np.random.default_rng(17)
    a = random_complex((3, 3), rng)
    h = a + a.conj().T - 0.5j * np.diag([1.0, 0.2, 0.0])
    basis = linalg.eigenbasis(h[None])
    terms = basis.vectors[0, 0] * basis.inverse[0, :, 0] * linalg.phases(basis.values, 2.0)[0]
    assert amplitude_one(h, 2.0) == terms.sum()
    assert amplitude_one(h, 2.0) == pytest.approx(
        complex(linalg._expm_squaring(-2.0j * h)[0, 0]), rel=1e-12)


def test_eigenbasis_trust_flag():
    # a random lossy row is trusted and its start-state coordinates solve
    # V c = e_0; the emitter-cavity pair at g = kappa/4 (cond ~ 1e8) is not
    rng = np.random.default_rng(19)
    a = random_complex((2, 2), rng)
    ep = np.array([[0.0, 0.25], [0.25, -0.5j]])
    h = np.stack([a + a.conj().T - 0.5j * np.diag([0.4, 0.0]), ep])
    basis = linalg.eigenbasis(h)
    assert basis.trusted.tolist() == [True, False]
    assert basis.cond[0] < linalg.EIG_COND_LIMIT <= basis.cond[1]
    assert np.abs(basis.vectors[0] @ basis.inverse[0, :, 0] - np.eye(2)[0]).max() < 1e-12


def lossy_stack(rng, n, k):
    """n random generators H - (i/2) diag(decay) of size k."""
    a = random_complex((n, k, k), rng)
    return a + a.conj().swapaxes(1, 2) - 0.5j * rng.uniform(0.0, 2.0, (n, k))[:, None] * np.eye(k)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 5), n=st.integers(1, 6))
def test_eigenbasis_cond_bounds_two_norm_cond(seed, k, n):
    # the Frobenius condition number lies between cond_2(V) and k cond_2(V),
    # and the start-state coordinates reproduce e_0 to within cond * 1e-12
    rng = np.random.default_rng(seed)
    h = lossy_stack(rng, n, k)
    basis = linalg.eigenbasis(h)
    cond_2 = np.linalg.cond(np.linalg.eig(h)[1])
    assert np.all(cond_2 <= basis.cond * (1 + 1e-12))
    assert np.all(basis.cond <= k * cond_2 * (1 + 1e-12))
    residual = np.abs(np.einsum("nij,nj->ni", basis.vectors, basis.inverse[:, :, 0])
                      - np.eye(k)[0]).max(axis=1)
    assert np.all(residual <= 1e-12 * basis.cond)


def test_defective_row_is_untrusted():
    # an exactly defective row (||V^-1|| ~ 1e292) in a stack of good rows:
    # cond = inf without a RuntimeWarning, the Taylor fallback on that row,
    # and the other rows bit for bit their one-row calls
    rng = np.random.default_rng(29)
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    h = lossy_stack(rng, 4, 2)
    h[2] = jordan
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        basis = linalg.eigenbasis(h)
        out = linalg.return_amplitudes(h, 0.7)
    assert basis.trusted.tolist() == [True, True, False, True]
    assert basis.cond[2] == np.inf
    assert out[2] == linalg._expm_squaring(-0.7j * jordan)[0, 0]
    for i in (0, 1, 3):
        one = linalg.eigenbasis(h[i:i + 1])
        for field, value in zip(basis, one):
            assert np.array_equal(field[i], value[0])
        assert out[i] == amplitude_one(h[i], 0.7)


def test_failed_eigensolve_falls_back_on_every_row(monkeypatch):
    # a LinAlgError from the eigensolve or from the inverse of its vectors
    # leaves every row of the stack untrusted
    rng = np.random.default_rng(23)
    a = random_complex((3, 4, 4), rng)
    h = a + a.conj().swapaxes(1, 2) - 0.5j * np.eye(4)

    def fail(m):
        raise np.linalg.LinAlgError("did not converge")

    for failing in ("eig", "inv"):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, failing, fail)
            basis = linalg.eigenbasis(h)
            assert not basis.trusted.any() and np.isnan(basis.cond).all()
            out = linalg.return_amplitudes(h, 0.7)
        for i in range(3):
            assert abs(out[i] - linalg._expm_squaring(-0.7j * h[i])[0, 0]) < 1e-12


def test_solve_stacks_of_vectors_and_matrices():
    """`solve` takes a stack of vectors (one axis fewer than the matrices)
    or of matrices, refuses NaN or Inf with NonFinite and a singular matrix
    with ConvergenceFailure."""
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 5, 3, 3)) + 1j * rng.normal(size=(2, 5, 3, 3))
    b = rng.normal(size=(2, 5, 3))
    x = linalg.solve(a, b)
    assert x.shape == (2, 5, 3)
    assert np.abs(np.einsum("...ij,...j->...i", a, x) - b).max() < 1e-12
    inverse = linalg.solve(a, np.eye(3))
    assert np.abs(a @ inverse - np.eye(3)).max() < 1e-12
    with pytest.raises(NonFinite):
        linalg.solve(np.where(np.eye(3), np.nan, a), b)
    with pytest.raises(NonFinite):
        linalg.solve(a, np.full_like(b, np.inf))
    singular = a.copy()
    singular[1, 2, 0] = 0.0
    with pytest.raises(ConvergenceFailure):
        linalg.solve(singular, b)


def star_stack(rng, n, k, symmetric=False):
    """n random lossy generators in star form: state 0 coupled to every
    other state, those uncoupled from each other; complex-symmetric or not."""
    h = np.zeros((n, k, k), dtype=complex)
    diag = rng.standard_normal((n, k)) - 0.5j * rng.uniform(0.0, 2.0, (n, k))
    h[:, np.arange(k), np.arange(k)] = diag
    h[:, 0, 1:] = random_complex((n, k - 1), rng)
    h[:, 1:, 0] = h[:, 0, 1:] if symmetric else random_complex((n, k - 1), rng)
    return h


def mpmath_pairs(h):
    """(lambda_1, lambda_2, unit eigenvectors) of every 2x2 [[a, b], [c, d]]
    of the stack h with b != 0, at the caller's mpmath precision: the roots
    of the characteristic polynomial, with the vectors (b, lambda - a)."""
    import mpmath
    for (a, b), (c, d) in h.tolist():
        a, b, c, d = (mpmath.mpc(x) for x in (a, b, c, d))
        mean, root = (a + d) / 2, mpmath.sqrt(((a - d) / 2)**2 + b * c)
        values = (mean + root, mean - root)
        yield values, [(b / n, (x - a) / n) for x in values
                       for n in [mpmath.sqrt(abs(b)**2 + abs(x - a)**2)]]


def mpmath_pair_eigenvalues(h):
    """Both eigenvalues of every 2x2 of the stack h, at 50 digits."""
    import mpmath
    with mpmath.workdps(50):
        return np.array([[complex(x) for x in values] for values, _ in mpmath_pairs(h)])


def mpmath_pair_cond(h):
    """Frobenius condition number ||V||_F ||V^-1||_F of the unit eigenvectors
    of every 2x2 of the stack h, at 50 digits: 2/|det V|, as a 2x2 and its
    adjugate have the same entries."""
    import mpmath
    with mpmath.workdps(50):
        return np.array([float(2 / abs(u0 * v1 - u1 * v0))
                         for _, ((u0, u1), (v0, v1)) in mpmath_pairs(h)])


def nearest(values, reference):
    """reference (n, k) reordered so that each entry is the one nearest to
    the same entry of values."""
    order = abs(values[:, :, None] - reference[:, None, :]).argmin(-1)
    return np.take_along_axis(reference, order, -1)


@pytest.mark.parametrize("k", [2, 3])
def test_resolvent_poles_match_eigenbasis(k):
    # the eigenvalue-only weights equal V[0,k] (V^-1 e_0)_k to within
    # about eps (sum |w|)^2, and sum to 1 (the z -> infinity limit of z <0|(z - H)^-1|0>);
    # 3x3 poles are eig's eigenvalues, and pairs, solved in closed form, are
    # within a few eps relative of their 50-digit values
    rng = np.random.default_rng(31 + k)
    h = star_stack(rng, 2000, k)
    basis = linalg.eigenbasis(h)
    poles = linalg.resolvent_poles(h)
    spread = abs(poles.weights).sum(-1)
    residues = basis.vectors[:, 0, :] * basis.inverse[:, :, 0]
    if k == 2:
        exact = nearest(poles.values, mpmath_pair_eigenvalues(h))
        assert np.all(abs(poles.values - exact) <= 8 * np.finfo(float).eps * abs(exact))
        # eig lists a pair's eigenvalues in an order of its own
        residues = np.take_along_axis(
            residues, abs(poles.values[:, :, None] - basis.values[:, None, :]).argmin(-1), -1)
    else:
        assert np.array_equal(poles.values, basis.values)
    change = abs(poles.weights - residues).max(-1)
    assert np.all(change <= 50 * np.finfo(float).eps * spread**2)
    assert abs(poles.weights.sum(-1) - 1.0).max() <= 50 * np.finfo(float).eps * spread.max()
    assert np.array_equal(poles.trusted, 2.0 * spread < linalg.EIG_COND_LIMIT)


def test_resolvent_pair_kernel_closed_form(monkeypatch):
    """Pairs are solved with no LAPACK call. A far-detuned pair keeps its
    small (pulse-scale) root and its residue accurate relative to
    themselves; a Jordan pair, a defective pair with a nonzero double root
    and the exceptional point g = (kappa - gamma)/4 divide by zero and are
    untrusted; none of them warns."""
    def fail(m):
        raise AssertionError("a 2x2 stack reached np.linalg.eigvals")

    far = np.array([[-0.25j, 1.0], [1.0, 1e10 - 0.5e-3j]])
    double = -0.5j * np.eye(2) + np.array([[1.0, 1.0], [-1.0, -1.0]])
    h = np.array([far, [[0.0, 1.0], [0.0, 0.0]], double, [[-2.5j, 1.0], [1.0, -0.5j]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        poles = linalg.resolvent_poles(h)
    assert poles.trusted.tolist() == [True, False, False, False]
    exact = nearest(poles.values[:1], mpmath_pair_eigenvalues(far[None]))[0]
    small = abs(poles.values[0]).argmin()
    eps = np.finfo(float).eps
    assert np.all(abs(poles.values[0] - exact) <= 4 * eps * abs(exact))
    assert abs(poles.weights[0, small] - 1.0) <= 4 * eps


def test_resolvent_poles_trust_is_frobenius_cond_for_symmetric_pairs():
    # for a complex-symmetric 2x2, 2 sum |w| is the Frobenius condition
    # number of its eigenvectors, so both kernels draw the trust line alike:
    # on random pairs, on pairs detuned by 1e-6 to 1e-5 from the exceptional
    # point at g = (kappa - gamma)/4 (cond 2/sqrt(detuning), 630 to 2,000,
    # across the limit) and at that point itself (cond ~ 1e8)
    rng = np.random.default_rng(37)
    detuning = np.geomspace(1e-6, 1e-5, 40)
    near = np.zeros((40, 2, 2), dtype=complex)
    near[:, 0, 0], near[:, 1, 1] = -2.5j, detuning - 0.5j
    near[:, 0, 1] = near[:, 1, 0] = 1.0
    h = np.concatenate([star_stack(rng, 2000, 2, symmetric=True), near,
                        [[[-2.5j, 1.0], [1.0, -0.5j]]]])
    basis = linalg.eigenbasis(h)
    poles = linalg.resolvent_poles(h)
    spread = 2.0 * abs(poles.weights).sum(-1)
    # the closed-form pair poles carry a relative rounding error of about
    # eps * cond; eig's cond, from other eigenvalues, is up to ~500 eps cond^2
    # off the 50-digit value near the exceptional point, so that is the reference
    cond = mpmath_pair_cond(h[:-1])
    assert np.all(abs(spread[:-1] - cond) <= 64 * np.finfo(float).eps * cond**2)
    assert np.array_equal(poles.trusted, basis.trusted)
    assert poles.trusted[-41:-1].any() and not poles.trusted[-41:].all()
    assert not poles.trusted[-1]


def test_resolvent_poles_refuse_and_distrust():
    # NaN or Inf input raises NonFinite; a defective row (a double
    # eigenvalue, weights 0/0) is untrusted, and a LinAlgError from the
    # eigensolve leaves every row untrusted with NaN poles, both without a
    # RuntimeWarning
    with pytest.raises(NonFinite):
        linalg.resolvent_poles(np.array([[[np.nan, 1.0], [1.0, 0.0]]]))
    with pytest.raises(NonFinite):
        linalg.resolvent_poles(np.array([[[0.0, np.inf], [1.0, 0.0]]]))
    with pytest.raises(ValueError):
        linalg.resolvent_poles(np.eye(2))
    h = star_stack(np.random.default_rng(41), 3, 3)

    def fail(m):
        raise np.linalg.LinAlgError("did not converge")

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pair = np.array([[[0.0, 1.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, -1.0]]])
        jordan = linalg.resolvent_poles(pair)
        assert jordan.trusted.tolist() == [False, True]
        patch.setattr(np.linalg, "eigvals", fail)
        poles = linalg.resolvent_poles(h)
    assert not poles.trusted.any() and np.isnan(poles.values).all()


def test_phases_refuse_overflow_on_trusted_rows_only():
    """An overflowing phase raises NonFinite on a trusted row; on an
    untrusted row, whose eigenbasis is not used, it is set to 0."""
    values = np.array([[1.0, -0.5j], [1e300, 1.0]])
    t = np.array([[1.0], [1e10]])
    with pytest.raises(NonFinite, match="overflows"):
        linalg.phases(values, t)
    out = linalg.phases(values, t, trusted=np.array([True, False]))
    assert out[1, 0] == 0.0
    assert np.array_equal(out[[0, 0, 1], [0, 1, 1]], np.exp(-1j * np.array([1.0, -0.5j, 1e10])))
