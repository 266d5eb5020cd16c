import pickle

import numpy as np
import pytest

from bimult import norms
from bimult.norms import (GAMMA2_MIN_TOL, Gamma2Result, amplified_norm, evaluate_amplified,
                          evaluate_bilinear, gamma2, norm_bilinear, s1_norm_schur)
from bimult.symbols import SchurSymbol, complex_normal, embed_schur, make_rng, sup_norm

from _oracles import gamma2_minimax_oracle, naive_schur_action
from test_acceptance import BASE_SEED


def rand_schur(seed, dims):
    return SchurSymbol(complex_normal(make_rng(seed), dims))


def test_norm_bilinear_s2_matches_sup_norm():
    for seed, dims in ((1, (2, 2, 2)), (2, (3, 2, 4)), (3, (4, 4, 4))):
        s = rand_schur(seed, dims)
        est = norm_bilinear(s, "S2")
        assert est.kind == "lower_bound"
        assert est.value <= sup_norm(s) * (1 + 1e-9)
        assert est.value >= sup_norm(s) - 1e-3


def test_norm_bilinear_b_examples():
    s = SchurSymbol(np.ones((2, 2, 2)))
    est = norm_bilinear(s, "B")
    assert abs(est.value - 1.0) <= 1e-6  # action is (y, x) -> yx on unit HS pairs
    for seed in (11, 12):
        s = rand_schur(seed, (3, 3, 2))
        est = norm_bilinear(s, "B")
        assert est.value <= sup_norm(s) * (1 + 1e-9)
        assert est.value >= sup_norm(s) - 1e-3


def test_norm_bilinear_scalar_dims():
    s = SchurSymbol(np.full((1, 1, 1), -2.0 + 1.0j))
    for target in ("S2", "B"):
        est = norm_bilinear(s, target)
        assert abs(est.value - abs(-2.0 + 1.0j)) <= 1e-9
    upper, lower = s1_norm_schur(s)
    for value in (upper, lower.value):
        assert abs(value - abs(-2.0 + 1.0j)) <= 1e-9


def test_norm_bilinear_witnesses_reproduce_value():
    for target in ("S2", "B"):
        s = rand_schur(21, (3, 2, 3))
        est = norm_bilinear(s, target)
        redo = evaluate_bilinear(s, target, est.witness_x[0], est.witness_y[0])
        assert abs(redo - est.value) <= 1e-9 * (1 + est.value)
        assert est.iterations == 0 and est.restarts_used == 1  # the closed form runs no ascent


def test_norm_bilinear_determinism_and_restart_monotonicity():
    s = rand_schur(33, (3, 2, 2))
    for target in ("S2", "B"):
        assert pickle.dumps(norm_bilinear(s, target)) == pickle.dumps(norm_bilinear(s, target))
    # the restarted bilinear S1 ascent of a Schur kernel is the level-1 amplified ascent
    phi = embed_schur(s)
    a = amplified_norm(phi, 1, restarts=6, seed=5)
    b = amplified_norm(phi, 1, restarts=6, seed=5)
    assert a.value == b.value
    c = amplified_norm(phi, 1, restarts=12, seed=5)
    assert c.value >= a.value - 1e-15


def test_norm_bilinear_validation():
    s = rand_schur(1, (2, 2, 2))
    with pytest.raises(ValueError):
        norm_bilinear(s, "S3")
    with pytest.raises(ValueError, match="s1_norm_schur"):
        norm_bilinear(s, "S1")


@pytest.mark.parametrize("s", [rand_schur(24, (3, 4, 2)), SchurSymbol(np.zeros((2, 3, 2))),
                               SchurSymbol(np.full((1, 1, 1), 0.5 - 3.0j))],
                         ids=["generic", "all-zero", "1x1x1"])
@pytest.mark.parametrize("target", ["S2", "B"])
def test_norm_bilinear_closed_form(s, target):
    est = norm_bilinear(s, target)
    assert est.value == sup_norm(s) and est.kind == "lower_bound"
    assert est.restarts_used == 1 and est.iterations == 0
    t1, t2, t3 = np.unravel_index(np.argmax(np.abs(s.data)), s.dims)
    n1, n2, n3 = s.dims
    x, y = est.witness_x[0], est.witness_y[0]
    unit_x = np.zeros((n2, n1))
    unit_x[t2, t1] = 1.0
    unit_y = np.zeros((n3, n2))
    unit_y[t3, t2] = 1.0
    assert np.array_equal(x, unit_x) and np.array_equal(y, unit_y)
    naive = naive_schur_action(s.data, y, x)
    by_loops = np.linalg.norm(naive) if target == "S2" else np.linalg.svd(naive, compute_uv=False)[0]
    for value in (evaluate_bilinear(s, target, x, y), by_loops):
        assert abs(value - est.value) <= 1e-12 * (1 + est.value)


def test_gamma2_trivial_values():
    res = gamma2(np.ones((4, 4)), tol=1e-8)
    assert abs(res.value - 1.0) <= 1e-6
    res = gamma2(np.eye(2), tol=1e-8)
    assert abs(res.value - 1.0) <= 1e-6
    res = gamma2(np.zeros((2, 3)))
    assert res.value == 0.0 and res.a_vecs.shape == (2, 0)


def test_gamma2_hadamard_matches_oracle():
    m = np.array([[1.0, 1.0], [1.0, -1.0]])
    res = gamma2(m, tol=1e-7)
    oracle = gamma2_minimax_oracle(m, restarts=20, seed=0)
    assert abs(res.value - oracle) <= 1e-4 * max(1.0, oracle)
    assert abs(res.value - np.sqrt(2.0)) <= 1e-5


def certificate_checks(m, res: Gamma2Result):
    """Both sides of the bracket, with gates relative to the size of m."""
    n, k = m.shape
    block = np.block([[res.x_cert, m], [m.conj().T, res.y_cert]])
    block = 0.5 * (block + block.conj().T)
    assert np.linalg.eigvalsh(block)[0] >= -1e-8 * (1 + res.value)
    assert np.real(np.diagonal(res.x_cert)).max() <= res.value * (1 + 1e-12)
    assert np.real(np.diagonal(res.y_cert)).max() <= res.value * (1 + 1e-12)
    recon = res.a_vecs.conj() @ res.b_vecs.T
    assert np.abs(recon - m).max() <= 1e-9 * (1 + np.abs(m).max())
    weight_checks(m, res)


def weight_checks(m, res: Gamma2Result):
    """The dual weights are unit, nonnegative, and attain ``lower``."""
    for w, size in ((res.u, m.shape[0]), (res.v, m.shape[1])):
        assert w.shape == (size,) and np.all(w >= 0)
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
    attained = np.linalg.svd(res.u[:, None] * m * res.v, compute_uv=False).sum()
    assert abs(attained - res.lower) <= 1e-12 * res.lower


def test_gamma2_certificates_random_complex():
    rng = make_rng(55)
    for _ in range(4):
        m = complex_normal(rng, (3, 3))
        res = gamma2(m, tol=1e-4)
        certificate_checks(m, res)
        assert res.primal_residual <= 1e-6


def test_gamma2_lower_bound_and_homogeneity():
    rng = make_rng(56)
    m = complex_normal(rng, (3, 3))
    res = gamma2(m, tol=1e-4)
    assert res.value >= np.abs(m).max() - 1e-6
    res2 = gamma2(2.5 * m, tol=1e-4)
    assert abs(res2.value - 2.5 * res.value) <= 1e-3 * res.value + 2.5 * 2e-4


def test_gamma2_unimodular_and_permutation_invariance():
    rng = make_rng(57)
    m = complex_normal(rng, (3, 3))
    base = gamma2(m, tol=1e-4).value
    phases = np.exp(1j * rng.standard_normal(3))
    d1 = np.diag(phases)
    d2 = np.diag(np.exp(1j * rng.standard_normal(3)))
    twisted = gamma2(d1 @ m @ d2, tol=1e-4).value
    assert abs(twisted - base) <= 2e-3 * base
    perm = np.eye(3)[[2, 0, 1]]
    permuted = gamma2(perm @ m @ perm.T, tol=1e-4).value
    assert abs(permuted - base) <= 2e-3 * base


def test_gamma2_schur_product_submultiplicative():
    rng = make_rng(58)
    m = complex_normal(rng, (3, 3))
    n = complex_normal(rng, (3, 3))
    gm = gamma2(m, tol=1e-4).value
    gn = gamma2(n, tol=1e-4).value
    gmn = gamma2(m * n, tol=1e-4).value
    assert gmn <= gm * gn + 1e-6 + 3e-3 * gm * gn


def test_gamma2_tol_validation():
    with pytest.raises(ValueError):
        gamma2(np.eye(2), tol=1e-11)


def _rank_one():
    rng = make_rng(59)
    u, v = complex_normal(rng, 3), complex_normal(rng, 4)
    return np.outer(u, v), float(np.abs(u).max() * np.abs(v).max())


@pytest.mark.parametrize("m, exact", [
    (np.ones((4, 4)), 1.0),
    (np.eye(2), 1.0),
    (np.array([[1.0, 1.0], [1.0, -1.0]]), np.sqrt(2.0)),
    _rank_one(),
], ids=["ones-4x4", "eye-2", "hadamard-2", "rank-one-3x4"])
def test_gamma2_exact_values(m, exact):
    res = gamma2(m, tol=GAMMA2_MIN_TOL)
    assert res.converged
    assert abs(res.value - exact) <= 1e-10 * exact
    assert abs(res.lower - exact) <= 1e-10 * exact
    certificate_checks(np.asarray(m, dtype=complex), res)


def test_gamma2_zero_matrix_bracket():
    res = gamma2(np.zeros((2, 3)))
    assert res.value == res.lower == 0.0
    assert res.converged and res.iterations == 0
    assert np.array_equal(res.u, [1.0, 0.0]) and np.array_equal(res.v, [1.0, 0.0, 0.0])
    certificate_checks(np.zeros((2, 3), dtype=complex), res)


@pytest.mark.parametrize("tol", [1e-2, 1e-6, GAMMA2_MIN_TOL])
@pytest.mark.parametrize("zero_row", [None, 0, 2])
def test_gamma2_weights_attain_lower(zero_row, tol):
    m = complex_normal(make_rng(64), (3, 4))
    if zero_row is not None:
        m[zero_row] = 0.0
    weight_checks(m, gamma2(m, tol=tol))


def test_gamma2_weights_start_at_the_largest_entry():
    # gamma2 is the largest entry, so no step beats the matrix units at that entry
    m = np.ones((3, 3))
    m[1, 2] = 2.0
    res = gamma2(m, tol=1e-2)
    assert res.lower == 2.0
    assert np.array_equal(res.u, [0.0, 1.0, 0.0]) and np.array_equal(res.v, [0.0, 0.0, 1.0])
    weight_checks(m, res)


def test_gamma2_reports_a_bracket_that_cannot_close():
    # tol=1e-10 on a value near 1e6 asks for 1e-16 relative, below rounding
    m = 1e6 * complex_normal(make_rng(63), (3, 3))
    res = gamma2(m, tol=1e-10)
    assert not res.converged and res.value - res.lower > 1e-10
    assert 0 < res.iterations <= 5000
    scale = np.abs(m).max()
    assert scale <= res.lower <= res.value <= res.lower * (1 + 1e-6)
    assert np.abs(res.a_vecs.conj() @ res.b_vecs.T - m).max() <= 1e-9 * scale
    certificate_checks(m, res)


@pytest.mark.parametrize("seed", range(10))
def test_gamma2_boundary_2x5_converges(seed):
    # the optimal column weights of a generic 2x5 matrix sit on the boundary
    m = complex_normal(make_rng(62, seed), (2, 5))
    res = gamma2(m, tol=1e-8)
    assert res.converged and res.iterations > 0
    assert np.abs(m).max() <= res.lower <= res.value <= res.lower + 1e-8
    certificate_checks(m, res)


def _zero_row():
    m = complex_normal(make_rng(64), (3, 4))
    m[0] = 0.0
    return m


@pytest.mark.parametrize("rejected", [1, 2], ids=["gate", "gate-and-repair"])
@pytest.mark.parametrize("m", [
    complex_normal(make_rng(70), (3, 3)),
    _rank_one()[0],
    _zero_row(),
], ids=["full-rank-3x3", "rank-one-3x4", "zero-row-3x4"])
def test_gamma2_certificate_falls_back(monkeypatch, m, rejected):
    # the first check rejects the deferred factors (full rank) or the first
    # step's factors (rank-deficient); the second also fails the repair sweeps
    calls = []
    gate = norms._interpolates

    def rejecting(a, b, ms):
        calls.append(None)
        return len(calls) > rejected and gate(a, b, ms)

    monkeypatch.setattr(norms, "_interpolates", rejecting)
    tol = 1e-8
    res = gamma2(m, tol=tol)
    assert len(calls) > rejected
    certificate_checks(m, res)
    attained = (np.linalg.norm(res.a_vecs, axis=1).max()
                * np.linalg.norm(res.b_vecs, axis=1).max())
    assert abs(attained - res.value) <= 1e-12 * res.value
    assert res.converged == (res.value - res.lower <= tol)
    assert res.converged


@pytest.mark.parametrize("m", [
    make_rng(65).standard_normal((6, 6)),
    complex_normal(make_rng(70), (3, 3)),
    1e3 * complex_normal(make_rng(71), (2, 5)),
], ids=["real-6x6", "complex-3x3", "scaled-2x5"])
def test_gamma2_forms_factors_only_to_certify(monkeypatch, m):
    # full-rank steps estimate the upper bound from the weight masses; the
    # factors are formed once, at the step with the best estimate
    formed = []
    form = norms._weighted_factors

    def counting(*args):
        formed.append(None)
        return form(*args)

    monkeypatch.setattr(norms, "_weighted_factors", counting)
    res = gamma2(m, tol=1e-8)
    assert res.converged and res.iterations >= 20
    assert len(formed) <= 2
    certificate_checks(m, res)


def test_s1_norm_schur_single_slice():
    s = rand_schur(61, (3, 1, 3))
    upper, lower = s1_norm_schur(s, tol=1e-4, restarts=20)
    direct = gamma2(s.slice_at(0), tol=1e-4).value
    assert abs(upper - direct) <= 1e-12
    assert lower.value <= upper * (1 + 1e-6)
    assert lower.value >= upper * 0.98


def test_s1_norm_schur_middle_only_dependence():
    alphas = np.array([0.5, -2.0 + 1.0j, 1.0])
    data = np.ones((2, 3, 2), dtype=complex) * alphas[None, :, None]
    upper, lower = s1_norm_schur(SchurSymbol(data), tol=1e-5, restarts=10)
    # each slice is alpha * (all ones), whose factorization norm is |alpha|
    assert abs(upper - np.abs(alphas).max()) <= 1e-4
    assert lower.value <= upper * (1 + 1e-6)


def test_s1_norm_schur_zero():
    upper, lower = s1_norm_schur(SchurSymbol(np.zeros((2, 2, 2))), restarts=2)
    assert upper == 0.0 and lower.value == 0.0


def slice_sum(s, x, y):
    """The action out[t3, t1], summed slice by slice: y[t3, t2] M_t2[t1, t3] x[t2, t1]."""
    return sum(y[:, t2, None] * s.slice_at(t2).T * x[t2] for t2 in range(s.dims[1]))


def _zero_slice_kernel():
    data = complex_normal(make_rng(65), (3, 3, 2))
    data[:, 1, :] = 0.0
    return SchurSymbol(data)


@pytest.mark.parametrize("s", [rand_schur(66, (3, 2, 3)), _zero_slice_kernel(),
                               SchurSymbol(np.zeros((2, 3, 2)))],
                         ids=["generic", "zero-slice", "all-zero"])
def test_s1_norm_schur_witness_reproduces_lower(s):
    upper, lower = s1_norm_schur(s, tol=1e-6)
    x, y = lower.witness_x[0], lower.witness_y[0]
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12 and abs(np.linalg.norm(y) - 1.0) <= 1e-12
    by_action = evaluate_bilinear(s, "S1", x, y)
    by_slices = np.linalg.svd(slice_sum(s, x, y), compute_uv=False).sum()
    for value in (by_action, by_slices):
        assert abs(value - lower.value) <= 1e-12 * (1 + lower.value)
    # the witness stays on the slice with the largest gamma2 lower bound
    rows = np.flatnonzero(np.abs(x).sum(axis=1))
    cols = np.flatnonzero(np.abs(y).sum(axis=0))
    assert len(rows) == 1 and np.array_equal(rows, cols)
    slices = [gamma2(s.slice_at(t2), 1e-6) for t2 in range(s.dims[1])]
    assert rows[0] == np.argmax([res.lower for res in slices])
    assert slices[rows[0]].lower * (1 - 1e-12) <= lower.value <= upper * (1 + 1e-6)
    assert lower.restarts_used == 1 and lower.iterations >= 1


def test_s1_norm_schur_witness_not_below_restarted_ascent():
    # the kernels of acceptance criterion 05
    for i in range(50):
        s = SchurSymbol(complex_normal(make_rng(BASE_SEED, 5, i), (3, 2, 3)))
        upper, lower = s1_norm_schur(s, tol=1e-6)
        ascent = amplified_norm(embed_schur(s), 1, restarts=20, seed=BASE_SEED + i)
        assert lower.value >= ascent.value - 1e-9 * upper


def test_s1_norm_schur_ignores_restarts():
    s = rand_schur(67, (3, 2, 3))
    first = pickle.dumps(s1_norm_schur(s, restarts=1))
    for restarts in (20, 5):
        assert pickle.dumps(s1_norm_schur(s, restarts=restarts)) == first
    with pytest.raises(ValueError):
        s1_norm_schur(s, restarts=0)


def test_amplified_level_one_matches_bilinear():
    # the s1_norm_schur witness, re-evaluated as a level-1 amplified witness
    s = rand_schur(71, (2, 3, 2))
    _, lower = s1_norm_schur(s)
    amp1 = evaluate_amplified(embed_schur(s), lower.witness_x, lower.witness_y)
    assert abs(lower.value - amp1) <= 1e-9 * (1 + lower.value)


def test_amplified_zero_symbol():
    phi = embed_schur(SchurSymbol(np.zeros((2, 2, 2))))
    est = amplified_norm(phi, 2, restarts=2, seed=0)
    assert est.value == 0.0


def test_amplified_nondecreasing_in_restarts():
    phi = embed_schur(rand_schur(73, (2, 3, 2)))
    v1 = amplified_norm(phi, 2, restarts=3, seed=11).value
    assert amplified_norm(phi, 2, restarts=3, seed=11).value == v1  # deterministic
    v2 = amplified_norm(phi, 2, restarts=9, seed=11).value
    assert v2 >= v1 - 1e-15


def test_amplified_witnesses_and_validation():
    s = rand_schur(72, (2, 2, 2))
    phi = embed_schur(s)
    est = amplified_norm(phi, 2, restarts=4, seed=9)
    assert len(est.witness_x) == 2 and len(est.witness_y) == 2
    redo = evaluate_amplified(phi, est.witness_x, est.witness_y)
    assert abs(redo - est.value) <= 1e-9 * (1 + est.value)
    with pytest.raises(ValueError):
        amplified_norm(phi, 0)
    with pytest.raises(ValueError):
        amplified_norm(phi, 2, restarts=0)
