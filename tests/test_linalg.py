import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavity_gates import linalg, raman
from cavity_gates.errors import NonFinite
from cavity_gates.exchange import ExchangeConfig
from cavity_gates.params import CavitySystem, Method, gate_results
from cavity_gates.raman import symmetric_raman_config


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
    # NaN or Inf in a generator, like a NaN time, is a row-local failure:
    # that row's amplitude is not finite, an overflow to `refusals`, with no
    # RuntimeWarning, and the other rows are their one-row results
    rng = np.random.default_rng(17)
    for k in (2, 3, 5):
        h = lossy_stack(rng, 3, k)
        h[1, 0, 0], h[2, k - 1, 1] = np.nan, np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = linalg.return_amplitudes(h, 1.0)
        assert out[0] == amplitude_one(h[0], 1.0) and not np.isfinite(out[1:]).any()
        [(error, rows)] = linalg.refusals(out).items()
        assert str(error) == linalg.OVERFLOW and rows.tolist() == [False, True, True]
    assert not np.isfinite(amplitude_one(np.eye(2), np.nan))


def test_shape_validation():
    with pytest.raises(ValueError):
        linalg.return_amplitudes(np.ones((1, 2, 3)), 1.0)
    with pytest.raises(ValueError):
        linalg.return_amplitudes(np.eye(2), 1.0)   # one matrix is not a stack
    with pytest.raises(ValueError):
        linalg.return_amplitudes(np.stack([np.eye(2)] * 3), np.ones(2))


def test_return_amplitude_is_pole_sum():
    # <0|e^{-itH}|0> = sum_k w_k e^{-it lambda_k} over the poles and residues
    # of `resolvent_poles`, bit for bit the product order of the Lindblad
    # closure, and within 1e-12 of the Taylor form
    rng = np.random.default_rng(17)
    a = random_complex((3, 3), rng)
    h = a + a.conj().T - 0.5j * np.diag([1.0, 0.2, 0.0])
    poles = linalg.resolvent_poles(h[None])
    terms = poles.weights[0] * np.exp(-1j * 2.0 * poles.values[0])
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
    assert np.abs(basis.vectors[0] @ basis.coords[0] - np.eye(2)[0]).max() < 1e-12


def lossy_stack(rng, n, k):
    """n random generators H - (i/2) diag(decay) of size k."""
    a = random_complex((n, k, k), rng)
    return a + a.conj().swapaxes(1, 2) - 0.5j * rng.uniform(0.0, 2.0, (n, k))[:, None] * np.eye(k)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 5), n=st.integers(1, 6))
def test_eigenbasis_cond_bounds_two_norm_cond(seed, k, n):
    # the trust measure is 2 sum_k |V_0k c_k|: at least 2, as the residues
    # sum to 1, and at most 2 sqrt(k) cond_2(V), as |V_0k| <= 1 (unit
    # columns) and ||c||_2 <= ||V^-1||_2; the start-state coordinates
    # reproduce e_0 to within cond * 1e-12
    rng = np.random.default_rng(seed)
    h = lossy_stack(rng, n, k)
    basis = linalg.eigenbasis(h)
    vectors = np.linalg.eig(h)[1]
    assert np.array_equal(basis.cond, 2.0 * abs(vectors[:, 0] * basis.coords).sum(-1))
    assert np.all(basis.cond >= 2.0 - 1e-12 * basis.cond)
    assert np.all(basis.cond <= 2.0 * np.sqrt(k) * np.linalg.cond(vectors) * (1 + 1e-9))
    residual = np.abs(np.einsum("nij,nj->ni", basis.vectors, basis.coords)
                      - np.eye(k)[0]).max(axis=1)
    assert np.all(residual <= 1e-12 * basis.cond)


def raman_chains(rng, n):
    """n seeded Raman |ud> sectors (5x5 chains), log-uniform over four
    decades of every rate and detuning, asymmetric in both systems."""
    def draw(lo, hi):
        return np.exp(rng.uniform(np.log(lo), np.log(hi), n))
    two_photon_a, two_photon_b = draw(1.0, 1e4), draw(1.0, 1e4)
    return raman._lossy_sectors(two_photon_a, two_photon_b, draw(0.1, 1e3), draw(0.1, 1e3),
                                draw(1.0, 1e2), draw(1.0, 1e2), draw(10.0, 1e5),
                                draw(10.0, 1e5), draw(10.0, 1e3), 1.0)[0]


def test_eigenbasis_weights_are_the_inverse_column():
    # the residues from the solve of V c = e_0 are V_0k (V^-1)_k0 from the
    # whole inverse, to within 4 eps sum_k |w_k|, on seeded Raman chains
    h = raman_chains(np.random.default_rng(53), 2000)
    basis = linalg.eigenbasis(h)
    assert basis.trusted.all()
    vectors = np.linalg.eig(h)[1]
    expected = vectors[:, 0] * np.linalg.inv(vectors)[:, :, 0]
    spread = abs(basis.weights).sum(-1, keepdims=True)
    assert np.all(abs(basis.weights - expected) <= 4 * np.finfo(float).eps * spread)
    assert np.array_equal(basis.weights, basis.vectors[:, 0] * basis.coords)


def test_defective_row_is_untrusted():
    # a defective row whose start state is not an eigenvector, the nilpotent
    # [[i, 1], [1, -i]] (weights ~ 1e15), in a stack of good rows: untrusted
    # without a RuntimeWarning, the Taylor fallback on that row, and the
    # other rows bit for bit their one-row calls. A Jordan row whose start
    # state is its eigenvector has c = e_0 and the exact spectral value 1
    rng = np.random.default_rng(29)
    nilpotent = np.array([[1j, 1.0], [1.0, -1j]])
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    h = lossy_stack(rng, 4, 2)
    h[2] = nilpotent
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        basis = linalg.eigenbasis(h)
        out = linalg.return_amplitudes(h, 0.7)
        start = linalg.eigenbasis(jordan[None])
        assert linalg.return_amplitudes(jordan[None], 0.7)[0] == 1.0
    assert basis.trusted.tolist() == [True, True, False, True]
    assert basis.cond[2] >= linalg.EIG_COND_LIMIT
    assert out[2] == linalg._expm_squaring(-0.7j * nilpotent)[0, 0]
    assert start.trusted[0] and np.array_equal(start.coords[0], [1.0, 0.0])
    for i in (0, 1, 3):
        one = linalg.eigenbasis(h[i:i + 1])
        for field, value in zip(basis, one):
            assert np.array_equal(field[i], value[0])
        assert out[i] == amplitude_one(h[i], 0.7)


def test_eigenbasis_states_share_the_start_state_rule():
    # with states, the residues V_ik c_k of each and the largest measure:
    # on [[0, 0], [1, 0]] the start state's residues are (0, 1) (its
    # amplitude, 1, is exact) but state 1's cancel between +-5e291, so the
    # row is untrusted and holds V = 1; a random row's state 0 is the default
    rng = np.random.default_rng(59)
    h = np.stack([lossy_stack(rng, 1, 2)[0], [[0.0, 0.0], [1.0, 0.0]]])
    start, both = linalg.eigenbasis(h), linalg.eigenbasis(h, np.arange(2))
    assert start.trusted.tolist() == [True, True] and both.trusted.tolist() == [True, False]
    assert start.cond[1] == 2.0 and both.cond[1] > 1e291
    assert np.array_equal(both.weights[0, 0], start.weights[0])
    assert np.array_equal(both.weights[0], both.vectors[0] * both.coords[0])
    assert np.array_equal(both.weights[1], np.diag([1.0, 0.0]))
    assert np.array_equal(both.vectors[1], np.eye(2))


def test_failed_eigensolve_falls_back_on_every_row(monkeypatch):
    # a LinAlgError from the eigensolve or from the solve on its vectors
    # leaves every row of the stack untrusted
    rng = np.random.default_rng(23)
    a = random_complex((3, 4, 4), rng)
    h = a + a.conj().swapaxes(1, 2) - 0.5j * np.eye(4)

    def fail(*args):
        raise np.linalg.LinAlgError("did not converge")

    for failing in ("eig", "solve"):
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, failing, fail)
            basis = linalg.eigenbasis(h)
            assert not basis.trusted.any() and np.isnan(basis.cond).all()
            out = linalg.return_amplitudes(h, 0.7)
        for i in range(3):
            assert abs(out[i] - linalg._expm_squaring(-0.7j * h[i])[0, 0]) < 1e-12


def test_no_full_inverse():
    """No module of the package inverts a matrix: `eigenbasis` solves for
    the one column of V^-1 that its callers read."""
    package = os.path.dirname(os.path.abspath(linalg.__file__))
    offenders = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                offenders += [f"{name}:{i}" for i, line in enumerate(fh, 1)
                              if re.search(r"\blinalg\.inv\b|\binv\(", line)]
    assert offenders == []


def test_solve_stacks_of_vectors_and_matrices():
    """`solve` takes a stack of vectors (one axis fewer than the matrices)
    or of matrices, row by row: a NaN, Inf or singular system, or one whose
    solution overflows (a 1e-300 matrix against a 1e300 vector), makes its
    own row NaN, with no raise and no RuntimeWarning, and every other row is
    bit for bit as in the stack without it."""
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 5, 3, 3)) + 1j * rng.normal(size=(2, 5, 3, 3))
    b = rng.normal(size=(2, 5, 3))
    x = linalg.solve(a, b)
    assert x.shape == (2, 5, 3)
    assert np.abs(np.einsum("...ij,...j->...i", a, x) - b).max() < 1e-12
    inverse = linalg.solve(a, np.eye(3))
    assert np.abs(a @ inverse - np.eye(3)).max() < 1e-12
    singular = a.copy()
    singular[1, 2, 0] = 0.0
    inf_b = b.copy()
    inf_b[1, 2] = np.inf
    bad = np.zeros((2, 5), dtype=bool)
    bad[1, 2] = True
    nan_a = np.where(bad[..., None, None] & np.eye(3, dtype=bool), np.nan, a)
    tiny_a = np.where(bad[..., None, None], 1e-300 * a, a)
    huge_b = np.where(bad[..., None], 1e300 * b, b)
    for a_bad, b_bad, clean in ((nan_a, b, x), (a, inf_b, x), (singular, b, x),
                                (singular, np.eye(3), inverse), (tiny_a, huge_b, x)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = linalg.solve(a_bad, b_bad)
        assert np.isnan(out[bad]).all() and np.array_equal(out[~bad], clean[~bad])


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


def chain_stack(rng, n, k):
    """n random lossy complex-symmetric chains: state i coupled to i + 1
    only, as in the exchange and Raman sectors."""
    h = np.zeros((n, k, k), dtype=complex)
    h[:, np.arange(k), np.arange(k)] = (rng.standard_normal((n, k))
                                         - 0.5j * rng.uniform(0.0, 2.0, (n, k)))
    h[:, np.arange(k - 1), np.arange(1, k)] = h[:, np.arange(1, k), np.arange(k - 1)] = (
        random_complex((n, k - 1), rng))
    return h


@pytest.mark.parametrize("family, k", [("star", 2), ("star", 3), ("chain", 3), ("lossy", 3)],
                         ids=["2", "3", "chain-3", "lossy-3"])
def test_resolvent_poles_match_eigenbasis(family, k):
    # the eigenvalue-only weights equal V[0,k] (V^-1 e_0)_k to within
    # about eps (sum |w|)^2, and sum to 1 (the z -> infinity limit of z <0|(z - H)^-1|0>),
    # on stars, chains and general lossy generators (every entry coupled);
    # 3x3 poles are eig's eigenvalues, and pairs, solved in closed form, are
    # within a few eps relative of their 50-digit values
    rng = np.random.default_rng(31 + k + 10 * ("star", "chain", "lossy").index(family))
    h = {"star": star_stack, "chain": chain_stack, "lossy": lossy_stack}[family](rng, 2000, k)
    basis = linalg.eigenbasis(h)
    poles = linalg.resolvent_poles(h)
    spread = abs(poles.weights).sum(-1)
    residues = basis.weights
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
    assert np.array_equal(poles.cond, 2.0 * spread)
    assert np.array_equal(poles.trusted, 2.0 * spread < linalg.EIG_COND_LIMIT)


def test_resolvent_poles_drop_decoupled_states():
    """A state coupled to no other is not a pole. Where it shares its
    eigenvalue with another state (the cofactor formula is 0/0 there), the
    row is solved without it: its eigenvalue gets weight 0 and the rest are
    the poles of the generator without it, so exact zero couplings give the
    bare decay e^{-t/2} exactly. Elsewhere the formula gives it weight 0
    itself, and a state coupled one way only is kept."""
    pair = np.array([[-0.5j, 0.3], [0.3, 2.0 - 0.1j]])
    h = np.zeros((4, 3, 3), dtype=complex)
    h[0, :2, :2] = np.triu(pair)   # state 2 decoupled, its eigenvalue -0.5j that of state 0
    h[0, 2, 2] = -0.5j
    h[1] = np.diag([-0.5j, 5.0 - 0.5j, -0.5j])   # states 1 and 2 decoupled
    h[2][np.ix_([0, 2], [0, 2])] = pair   # state 1 decoupled (not a chain), at 0.7
    h[2, 1, 1] = 0.7
    h[3, :2, :2] = pair          # state 2 coupled to state 1 one way only
    h[3, 2, 2], h[3, 2, 1] = 1.0, 0.4
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        poles = linalg.resolvent_poles(h)
    reduced = linalg.resolvent_poles(np.triu(pair)[None])
    assert poles.trusted.all()
    assert np.array_equal(poles.values[0], [*reduced.values[0], -0.5j])
    assert np.array_equal(poles.weights[0], [*reduced.weights[0], 0.0])
    assert poles.cond[0] == reduced.cond[0]
    assert np.array_equal(poles.values[1], h[1].diagonal())
    assert np.array_equal(poles.weights[1], [1.0, 0.0, 0.0])
    for row, dropped in ((2, 1), (3, 2)):
        assert np.array_equal(poles.values[row], np.linalg.eigvals(h[row]))
        decoupled = abs(poles.values[row] - h[row, dropped, dropped]).argmin()
        assert abs(poles.weights[row, decoupled]) <= np.finfo(float).eps
    assert linalg.return_amplitudes(h[1:2], 2.0)[0] == np.exp(-1.0)
    out = linalg.return_amplitudes(h, 1.3)
    for i in range(4):
        assert abs(out[i] - linalg._expm_squaring(-1.3j * h[i])[0, 0]) < 1e-13


def figure_sector(case):
    """(3x3 generator, gate time) of one oracle row: a fig4 row (g/kappa 0.1
    or 10, Delta/kappa 1 or 1e4) in either exchange sector, or the Raman |uu>
    sector at a fig6a corner (delta/kappa 1e3, Delta/kappa 0.1 or 1e3)."""
    figure, g_over_kappa, sector, detuning_over_kappa = case
    if figure == "fig4":
        cav = CavitySystem.from_cooperativity(8000.0, g_over_kappa, 1.0)
        config = ExchangeConfig(cav, detuning=detuning_over_kappa * cav.kappa)
    else:
        cav = CavitySystem.from_cooperativity(8000.0, 0.1, 1.0)
        config = symmetric_raman_config(cav, 1e3 * cav.kappa, detuning_over_kappa * cav.kappa,
                                        0.05)
    lossy_sectors, params = config.sectors()
    h = lossy_sectors(*params)[("ud", "uu").index(sector)]
    return np.asarray(h).reshape(3, 3), float(config.gate_time)


ORACLE_ROWS = [("fig4", g, sector, d) for g in (0.1, 10.0) for d in (1.0, 1e4)
               for sector in ("ud", "uu")] + [("fig6a", 0.1, "uu", d) for d in (0.1, 1e3)]


@pytest.mark.parametrize("case", ORACLE_ROWS, ids=lambda case: "-".join(map(str, case)))
def test_three_state_return_amplitude_matches_mpmath_expm(case):
    """Return amplitudes of the eigenvalue-only kernel against a 40-digit
    matrix exponential of the same double generator: within 10 eps
    ||H||_2 T (measured up to 3.6 of it, at g/kappa = 10, Delta/kappa = 1,
    where ||H||_2 T = 0.46; the fig6a corners have ||H||_2 T = 1.3e11 and
    come within 3.1e-3 of it). The fig4 |uu> sector holds a decoupled state
    (the ideal spectator)."""
    import mpmath
    h, t = figure_sector(case)
    norm_t = np.linalg.norm(h, 2) * t
    assert case[0] == "fig4" or norm_t >= 1e9
    with mpmath.workdps(40):
        exact = complex(mpmath.expm(-1j * mpmath.mpf(t) * mpmath.matrix(h.tolist()))[0, 0])
    assert abs(amplitude_one(h, t) - exact) <= 10 * np.finfo(float).eps * norm_t


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
    # a row with NaN or Inf in its generator is NaN on its own: `eigvals`,
    # whose scan raises for the whole stack, solves the other rows without
    # it, and it counts as trusted, for its caller to refuse as not finite
    # (a pair's closed form is NaN there and untrusted); a stack of more
    # than three states (whatever its form) raises ValueError; a defective
    # row (a double eigenvalue, weights 0/0) is untrusted, and a LinAlgError
    # of a finite stack's eigensolve leaves every row untrusted with NaN
    # poles, all without a RuntimeWarning
    finite = star_stack(np.random.default_rng(47), 3, 3)
    bad = finite.copy()
    bad[1, 2, 2], bad[2, 0, 1] = np.nan, np.inf
    pair = np.array([[[np.nan, 1.0], [1.0, 0.0]], [[0.0, np.inf], [1.0, 0.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        poles, pairs = linalg.resolvent_poles(bad), linalg.resolvent_poles(pair)
    for field, one in zip(poles, linalg.resolvent_poles(finite[:1])):
        assert np.array_equal(field[:1], one)
    assert np.isnan(poles.values[1:]).all() and np.isnan(poles.weights[1:]).all()
    assert np.isnan(poles.cond[1:]).all() and poles.trusted.all()
    assert np.isnan(pairs.values).all() and not pairs.trusted.any()
    with pytest.raises(ValueError):
        linalg.resolvent_poles(np.eye(2))
    rng = np.random.default_rng(43)
    for larger in (chain_stack(rng, 3, 4), star_stack(rng, 3, 5), lossy_stack(rng, 1, 5)):
        with pytest.raises(ValueError, match="at most 3x3"):
            linalg.resolvent_poles(larger)
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
    """A trusted row whose phase e^{-i t lambda} is past the double range is
    not finite, an overflow to `refusals`, with no RuntimeWarning. An
    untrusted row, whose pole sum is not used, is not refused for it: it
    takes its Taylor result. The other rows are their one-row results."""
    h = np.array([[[1.0, 0.5], [0.5, -0.5j]], [[1e300, 0.0], [0.0, 1.0]],
                  [[0.0, 1.0], [0.0, 0.0]]])
    t = np.array([1.0, 1e10, 1e10])
    assert linalg.resolvent_poles(h).trusted.tolist() == [True, True, False]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = linalg.return_amplitudes(h, t)
    assert out[0] == linalg.return_amplitudes(h[:1], 1.0)[0] and not np.isfinite(out[1])
    assert out[2] == 1.0   # e^{-i t N} = 1 - i t N for the nilpotent N
    [(error, rows)] = linalg.refusals(out).items()
    assert str(error) == linalg.OVERFLOW and rows.tolist() == [False, True, False]


def test_untrusted_row_whose_generator_overflows_raises_non_finite():
    """A double pole (untrusted) with ||t H|| past the double range goes to
    the Taylor fallback, whose generator -i t H overflows (t = 1e10), or
    whose scaling 2^-s would (t = 1e8: ||t H||_1 = 1e308 >= 2^1023): the
    row is NaN, with no RuntimeWarning and no OverflowError from the
    squaring count, and reading it raises the NonFinite overflow that
    `refusals` names."""
    h = np.array([[[0.0, 1e300], [0.0, 0.0]]])
    assert not linalg.resolvent_poles(h).trusted.any()
    for t in (1e10, 1e8):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = linalg.return_amplitudes(h, t)
        assert np.isnan(out[0])
        results = gate_results(np.abs(out), t, Method.NON_HERMITIAN,
                               refused=linalg.refusals(out))
        with pytest.raises(NonFinite, match=f"^{re.escape(linalg.OVERFLOW)}$"):
            results.single()
