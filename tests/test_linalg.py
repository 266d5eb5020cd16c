import numpy as np
import pytest

from bimult.linalg import psd_project, schatten_norm, svd
from bimult.symbols import complex_normal, make_rng


def test_svd_examples():
    res = svd(np.diag([3.0, 1.0]).astype(complex))
    assert np.allclose(res.sigma, [3.0, 1.0])
    res = svd(np.zeros((3, 2), dtype=complex))
    assert np.allclose(res.sigma, 0.0)


def test_svd_against_hermitian_eigensolve():
    rng = make_rng(105)
    a = complex_normal(rng, (4, 3))
    res = svd(a)
    eigs = np.sort(np.linalg.eigvalsh(a.conj().T @ a))[::-1]
    assert np.abs(res.sigma ** 2 - eigs).max() <= 1e-10
    fro = np.linalg.norm(a)
    assert np.linalg.norm(a - res.reconstruct()) <= 1e-10 * (1 + fro)
    assert np.abs(res.u.conj().T @ res.u - np.eye(3)).max() <= 1e-10
    assert np.abs(res.v.conj().T @ res.v - np.eye(3)).max() <= 1e-10
    assert np.all(np.diff(res.sigma) <= 0)


def test_schatten_rank_one():
    rng = make_rng(106)
    xi = complex_normal(rng, (4,))
    eta = complex_normal(rng, (3,))
    a = np.outer(xi, eta.conj())
    expect = np.linalg.norm(xi) * np.linalg.norm(eta)
    for p in (1, 2, "inf"):
        assert abs(schatten_norm(a, p) - expect) <= 1e-12 * (1 + expect)


def test_schatten_identity():
    n = 5
    eye = np.eye(n, dtype=complex)
    assert abs(schatten_norm(eye, 1) - n) <= 1e-12
    assert abs(schatten_norm(eye, 2) - np.sqrt(n)) <= 1e-12
    assert abs(schatten_norm(eye, "inf") - 1.0) <= 1e-12


def test_schatten_ordering_and_rank_bound():
    rng = make_rng(107)
    a = complex_normal(rng, (4, 4))
    s1 = schatten_norm(a, 1)
    s2 = schatten_norm(a, 2)
    sinf = schatten_norm(a, "inf")
    assert s1 >= s2 >= sinf
    rank = np.linalg.matrix_rank(a)
    assert s1 <= np.sqrt(rank) * s2 + 1e-10


def test_schatten_two_entrywise():
    rng = make_rng(108)
    a = complex_normal(rng, (3, 5))
    direct = np.sqrt(np.real(np.trace(a.conj().T @ a)))
    assert abs(schatten_norm(a, 2) - direct) <= 1e-12
    assert abs(schatten_norm(a, 1) - schatten_norm(a.conj().T, 1)) <= 1e-10


def test_schatten_bad_p():
    with pytest.raises(ValueError):
        schatten_norm(np.eye(2), 3)


def test_psd_project_examples():
    rng = make_rng(109)
    g = complex_normal(rng, (3, 3))
    p = g.conj().T @ g
    assert np.abs(psd_project(p) - p).max() <= 1e-12 * (1 + np.abs(p).max())
    assert np.allclose(psd_project(np.diag([1.0, -2.0])), np.diag([1.0, 0.0]))


def test_psd_project_is_nearest_clip():
    rng = make_rng(110)
    h = complex_normal(rng, (4, 4))
    h = 0.5 * (h + h.conj().T)
    out = psd_project(h)
    assert np.linalg.eigvalsh(out)[0] >= -1e-12
    assert np.abs(psd_project(out) - out).max() <= 1e-10  # idempotent
    w, v = np.linalg.eigh(h)
    dist = np.linalg.norm(h - out)
    # any other pattern of clipping eigenvalues is at least as far
    for mask in range(16):
        clipped = np.array([max(w[i], 0.0) if (mask >> i) & 1 else max(w[i], 0.0) * 0.0
                            for i in range(4)])
        cand = (v * clipped) @ v.conj().T
        assert dist <= np.linalg.norm(h - cand) + 1e-12
