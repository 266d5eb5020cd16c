"""Property-based invariants on randomized inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bimult.linalg import psd_project, schatten_norm, svd
from bimult.multiplier import apply_schur, apply_tau
from bimult.norms import gamma2
from bimult.symbols import SchurSymbol, complex_normal, embed_schur, make_rng, sup_norm

from test_norms import certificate_checks

dims = st.integers(min_value=1, max_value=5)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def rand_matrix(seed, shape):
    return complex_normal(make_rng(seed), shape)


@given(seeds, dims, dims)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_schatten_ordering_property(seed, n, m):
    a = rand_matrix(seed, (n, m))
    s1 = schatten_norm(a, 1)
    s2 = schatten_norm(a, 2)
    sinf = schatten_norm(a, "inf")
    assert s1 + 1e-12 >= s2 >= sinf - 1e-12
    assert abs(s1 - schatten_norm(a.conj().T, 1)) <= 1e-10 * (1 + s1)


@given(seeds, dims)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_psd_project_idempotent_property(seed, n):
    h = rand_matrix(seed, (n, n))
    h = 0.5 * (h + h.conj().T)
    p = psd_project(h)
    assert np.linalg.eigvalsh(p)[0] >= -1e-12 * (1 + np.abs(p).max())
    assert np.abs(psd_project(p) - p).max() <= 1e-10 * (1 + np.abs(p).max())


@given(seeds, dims, dims)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_svd_reconstruction_property(seed, n, m):
    a = rand_matrix(seed, (n, m))
    res = svd(a)
    assert np.linalg.norm(a - res.reconstruct()) <= 1e-10 * (1 + np.linalg.norm(a))
    r = res.sigma.size
    assert np.abs(res.u.conj().T @ res.u - np.eye(r)).max() <= 1e-10
    assert np.abs(res.v.conj().T @ res.v - np.eye(r)).max() <= 1e-10


@given(seeds, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_schur_action_bound_property(seed, n1, n2, n3):
    rng = make_rng(seed)
    s = SchurSymbol(complex_normal(rng, (n1, n2, n3)))
    x = complex_normal(rng, (n2, n1))
    y = complex_normal(rng, (n3, n2))
    out = apply_schur(s, y, x)
    bound = sup_norm(s) * np.linalg.norm(x) * np.linalg.norm(y)
    assert np.linalg.norm(out) <= bound * (1 + 1e-12) + 1e-15


@given(seeds, st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_embedding_consistency_property(seed, n1, n2, n3):
    rng = make_rng(seed)
    s = SchurSymbol(complex_normal(rng, (n1, n2, n3)))
    x = complex_normal(rng, (n2, n1))
    y = complex_normal(rng, (n3, n2))
    lhs = apply_tau(embed_schur(s), y, x)
    rhs = apply_schur(s, y, x)
    assert np.abs(lhs - rhs).max() <= 1e-12 * (1 + np.abs(rhs).max())


# gamma2 inputs: square and rectangular shapes, drawn generic, rank-deficient,
# or with a zero row or column
gamma2_shapes = st.sampled_from([(1, 1), (2, 2), (3, 3), (4, 4), (2, 5), (5, 2), (3, 4)])
gamma2_kinds = st.sampled_from(["generic", "rank-deficient", "zero-row", "zero-col"])
gamma2_tols = st.sampled_from([1e-3, 1e-6, 1e-9])


def gamma2_input(seed, shape, kind):
    rng = make_rng(seed)
    n, k = shape
    if kind == "rank-deficient":
        r = max(1, min(n, k) - 1)
        return complex_normal(rng, (n, r)) @ complex_normal(rng, (r, k))
    m = complex_normal(rng, shape)
    if kind == "zero-row" and n > 1:
        m[rng.integers(n)] = 0.0
    if kind == "zero-col" and k > 1:
        m[:, rng.integers(k)] = 0.0
    return m


def brackets_meet(res, other, factor=1.0):
    """Both brackets hold the same value: they must overlap, up to rounding."""
    slack = 1e-9 * (1.0 + res.value)
    return (res.lower <= factor * other.value + slack
            and factor * other.lower <= res.value + slack)


@given(seeds, gamma2_shapes, gamma2_kinds, gamma2_tols)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_gamma2_bracket_property(seed, shape, kind, tol):
    m = gamma2_input(seed, shape, kind)
    res = gamma2(m, tol=tol)
    assert np.abs(m).max() <= res.lower <= res.value * (1 + 1e-12)
    if res.converged:
        assert res.value - res.lower <= tol
    na = np.linalg.norm(res.a_vecs, axis=1).max()
    nb = np.linalg.norm(res.b_vecs, axis=1).max()
    assert abs(na * nb - res.value) <= 1e-12 * res.value  # the factors attain the value
    certificate_checks(m, res)


@given(seeds, gamma2_shapes, gamma2_kinds, st.floats(1e-3, 1e3), st.floats(0.0, 2 * np.pi))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_gamma2_homogeneity_property(seed, shape, kind, radius, angle):
    m = gamma2_input(seed, shape, kind)
    c = radius * np.exp(1j * angle)
    base = gamma2(m, tol=1e-6 * (1 + np.abs(m).max()))
    scaled = gamma2(c * m, tol=1e-6 * radius * (1 + np.abs(m).max()))
    assert brackets_meet(scaled, base, factor=radius)


@given(seeds, gamma2_shapes, gamma2_kinds)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_gamma2_unimodular_permutation_invariance_property(seed, shape, kind):
    m = gamma2_input(seed, shape, kind)
    rng = make_rng(seed, 1)
    n, k = shape
    left = np.exp(1j * rng.uniform(0, 2 * np.pi, n))[:, None]
    right = np.exp(1j * rng.uniform(0, 2 * np.pi, k))[None, :]
    twisted = (left * m * right)[rng.permutation(n)][:, rng.permutation(k)]
    assert brackets_meet(gamma2(twisted, tol=1e-6), gamma2(m, tol=1e-6))
