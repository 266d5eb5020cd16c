import copy
import pickle

import numpy as np
import pytest

import bimult.io as bio
import bimult.norms
from bimult.algebra import AlgebraTriple, preset_algebra
from bimult.factorize import (FactorFamily, VectorField, col_wnorm, opmul_symbol,
                              row_wnorm, schur_s1_factorize, synthesize_u,
                              to_weak_factorization, verify_factorization)
from bimult.linalg import ShapeError, schatten_norm
from bimult.multiplier import PairSymbol, apply_tau, elementary_pair
from bimult.norms import amplified_norm, gamma2, s1_norm_schur, slice_gamma2
from bimult.symbols import (SchurSymbol, complex_normal, elementary_symbol,
                            embed_schur, make_rng)


def full_triple(dims):
    return AlgebraTriple(*(preset_algebra("full", d) for d in dims))


def test_opmul_elementary():
    rng = make_rng(501)
    r = complex_normal(rng, (2, 2))
    s = complex_normal(rng, (3, 3))
    sp = complex_normal(rng, (3, 3))
    t = complex_normal(rng, (2, 2))
    got = opmul_symbol(elementary_pair(r, s), elementary_pair(sp, t))
    want = elementary_symbol(r, sp @ s, t)
    assert np.abs(got.data - want.data).max() <= 1e-13 * (1 + np.abs(want.data).max())


def test_opmul_identity_first_leg():
    rng = make_rng(502)
    b = PairSymbol(complex_normal(rng, (3, 3, 2, 2)))
    eye_pair = elementary_pair(np.eye(2, dtype=complex), np.eye(3, dtype=complex))
    got = opmul_symbol(eye_pair, b)
    # (1 (x) b): identity pattern on the first leg, b's coefficients elsewhere
    direct = np.zeros((2, 2, 3, 3, 2, 2), dtype=complex)
    for p1 in range(2):
        direct[p1, p1] = b.data
    assert np.abs(got.data - direct).max() <= 1e-14


def test_opmul_bilinearity():
    rng = make_rng(503)
    a1 = PairSymbol(complex_normal(rng, (2, 2, 3, 3)))
    a2 = PairSymbol(complex_normal(rng, (2, 2, 3, 3)))
    b = PairSymbol(complex_normal(rng, (3, 3, 2, 2)))
    lhs = opmul_symbol(PairSymbol(a1.data + 2.0 * a2.data), b).data
    rhs = opmul_symbol(a1, b).data + 2.0 * opmul_symbol(a2, b).data
    assert np.abs(lhs - rhs).max() <= 1e-12 * (1 + np.abs(rhs).max())
    with pytest.raises(ShapeError):
        opmul_symbol(a1, PairSymbol(complex_normal(rng, (2, 2, 2, 2))))


def test_magic_identity_bulk():
    worst = 0.0
    for i in range(100):
        rng = make_rng(504, i)
        d1, d2, d3 = (2, 2, 2) if i % 2 == 0 else (2, 3, 2)
        a = PairSymbol(complex_normal(rng, (d1, d1, d2, d2)))
        b = PairSymbol(complex_normal(rng, (d2, d2, d3, d3)))
        x = complex_normal(rng, (d2, d1))
        y = complex_normal(rng, (d3, d2))
        from bimult.multiplier import tau1_apply, tau3_apply
        lhs = apply_tau(opmul_symbol(a, b), y, x)
        rhs = tau3_apply(b, y) @ tau1_apply(a, x)
        scale = 1 + np.abs(rhs).max()
        worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
    assert worst <= 1e-12


def test_synthesize_single_and_empty():
    rng = make_rng(505)
    r = complex_normal(rng, (2, 2))
    s = complex_normal(rng, (3, 3))
    sp = complex_normal(rng, (3, 3))
    t = complex_normal(rng, (2, 2))
    fam = FactorFamily(a_list=(elementary_pair(r, s),), b_list=(elementary_pair(sp, t),),
                       dims=(2, 3, 2))
    x = complex_normal(rng, (3, 2))
    y = complex_normal(rng, (2, 3))
    got = apply_tau(synthesize_u(fam), y, x)
    want = t @ y @ sp @ s @ x @ r
    assert np.abs(got - want).max() <= 1e-12 * (1 + np.abs(want).max())
    empty = FactorFamily(a_list=(), b_list=(), dims=(2, 3, 2))
    assert np.abs(synthesize_u(empty).data).max() == 0.0


def test_schur_factorize_all_ones():
    s = SchurSymbol(np.ones((2, 2, 2)))
    a, b = schur_s1_factorize(s, tol=1e-6)
    assert abs(a.sup_norm() * b.sup_norm() - 1.0) <= 1e-4
    recon = np.einsum("abk,bck->abc", a.vectors.conj(), b.vectors)
    assert np.abs(recon - s.data).max() <= 1e-8


def test_schur_factorize_identity_slice():
    data = np.zeros((2, 1, 2), dtype=complex)
    data[0, 0, 0] = 1.0
    data[1, 0, 1] = 1.0
    a, b = schur_s1_factorize(SchurSymbol(data), tol=1e-6)
    assert abs(a.sup_norm() - 1.0) <= 1e-4
    assert abs(b.sup_norm() - 1.0) <= 1e-4


def test_schur_factorize_random_round_trip():
    s = SchurSymbol(complex_normal(make_rng(506), (3, 2, 3)))
    a, b = schur_s1_factorize(s, tol=1e-3)
    recon = np.einsum("abk,bck->abc", a.vectors.conj(), b.vectors)
    assert np.abs(recon - s.data).max() <= 1e-6 * (1 + np.abs(s.data).max())
    best = max(gamma2(s.slice_at(t2), tol=1e-3).value for t2 in range(2))
    assert a.sup_norm() * b.sup_norm() <= (1 + 1e-4) * best


def _counting_gamma2(monkeypatch):
    calls = []
    solve = bimult.norms.gamma2

    def counted(m, tol=1e-8):
        calls.append(float(tol))
        return solve(m, tol)

    monkeypatch.setattr(bimult.norms, "gamma2", counted)
    return calls


def test_slice_gamma2_solves_each_slice_once_per_tol(monkeypatch):
    calls = _counting_gamma2(monkeypatch)
    s = SchurSymbol(complex_normal(make_rng(508), (3, 4, 2)))
    n2 = s.dims[1]
    s1_norm_schur(s, tol=1e-6)
    schur_s1_factorize(s, tol=1e-6)
    assert calls == [1e-6] * n2
    schur_s1_factorize(s, tol=1e-5)
    s1_norm_schur(s, tol=1e-5)
    assert calls == [1e-6] * n2 + [1e-5] * n2
    assert slice_gamma2(s, 1e-6) is slice_gamma2(s, np.float64(1e-6))
    assert len(calls) == 2 * n2


def test_default_tolerances_share_one_slice_solve(monkeypatch):
    calls = _counting_gamma2(monkeypatch)
    s = SchurSymbol(complex_normal(make_rng(516), (2, 3, 3)))
    s1_norm_schur(s)
    schur_s1_factorize(s)
    assert len(calls) == s.dims[1]


def _outputs(norm_sym, fact_sym, tol):
    a, b = schur_s1_factorize(fact_sym, tol=tol)
    return pickle.dumps(s1_norm_schur(norm_sym, tol=tol)), a.vectors.tobytes(), b.vectors.tobytes()


@pytest.mark.parametrize("norm_first", [True, False], ids=["norm-first", "factorize-first"])
def test_shared_slice_solve_is_byte_identical(norm_first):
    data = complex_normal(make_rng(509), (3, 3, 3))
    want = _outputs(SchurSymbol(data), SchurSymbol(data), 1e-6)  # a fresh symbol per call
    s = SchurSymbol(data)
    if norm_first:
        norm = pickle.dumps(s1_norm_schur(s, tol=1e-6))
        a, b = schur_s1_factorize(s, tol=1e-6)
    else:
        a, b = schur_s1_factorize(s, tol=1e-6)
        norm = pickle.dumps(s1_norm_schur(s, tol=1e-6))
    assert (norm, a.vectors.tobytes(), b.vectors.tobytes()) == want
    assert _outputs(s, s, 1e-6) == want  # and again, fully warm


def test_slice_gamma2_rejected_tol_stores_nothing():
    s = SchurSymbol(complex_normal(make_rng(510), (2, 3, 2)))
    with pytest.raises(ValueError):
        s1_norm_schur(s, tol=1e-11)
    with pytest.raises(ValueError):
        schur_s1_factorize(s, tol=1e-11)
    assert s._slice_gamma2 == {}
    upper, _ = s1_norm_schur(s, tol=1e-6)
    assert upper == max(r.value for r in slice_gamma2(s, 1e-6))
    assert list(s._slice_gamma2) == [1e-6]


def test_slice_gamma2_store_is_invisible():
    s = SchurSymbol(complex_normal(make_rng(511), (2, 2, 3)))
    before = (repr(s), bio.schur_to_json(s))
    s1_norm_schur(s)
    schur_s1_factorize(s)
    assert (repr(s), bio.schur_to_json(s)) == before
    assert "_slice_gamma2" not in repr(s)
    for twin in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert twin._slice_gamma2 == {}
        assert not twin.data.flags.writeable
        assert np.array_equal(twin.data, s.data)


def test_slice_gamma2_results_are_read_only():
    s = SchurSymbol(complex_normal(make_rng(512), (3, 2, 3)))
    for res in slice_gamma2(s, 1e-6):
        for arr in (res.x_cert, res.y_cert, res.a_vecs, res.b_vecs, res.u, res.v):
            with pytest.raises(ValueError):
                arr[...] = 0.0
        with pytest.raises(AttributeError):
            res.value = 0.0


def test_weak_factorization_round_trip():
    s = SchurSymbol(complex_normal(make_rng(507), (3, 2, 3)))
    a, b = schur_s1_factorize(s, tol=1e-3)
    fam = to_weak_factorization(a, b)
    assert fam.count == a.k
    phi = embed_schur(s)
    resid = np.linalg.norm(synthesize_u(fam).data - phi.data)
    assert resid <= 1e-6 * (1 + phi.norm())


def test_weak_factorization_trivial_and_zero():
    ones = VectorField(np.ones((2, 2, 1)))
    fam = to_weak_factorization(ones, ones)
    assert fam.count == 1
    eye_sym = embed_schur(SchurSymbol(np.ones((2, 2, 2))))
    assert np.abs(synthesize_u(fam).data - eye_sym.data).max() <= 1e-14
    zero = VectorField(np.zeros((2, 3, 2)))
    zfam = to_weak_factorization(zero, VectorField(np.zeros((3, 2, 2))))
    assert np.abs(synthesize_u(zfam).data).max() == 0.0
    with pytest.raises(ShapeError):
        to_weak_factorization(ones, VectorField(np.ones((3, 2, 1))))


def test_wnorms_identity_and_diagonal_reduction():
    eye_pair = elementary_pair(np.eye(2, dtype=complex), np.eye(3, dtype=complex))
    fam = FactorFamily(a_list=(eye_pair,), b_list=(elementary_pair(np.eye(3, dtype=complex), np.eye(2, dtype=complex)),),
                       dims=(2, 3, 2))
    assert abs(row_wnorm(fam) - 1.0) <= 1e-12
    assert abs(col_wnorm(fam) - 1.0) <= 1e-12
    a = VectorField(complex_normal(make_rng(508), (2, 3, 4)))
    b = VectorField(complex_normal(make_rng(509), (3, 2, 4)))
    fam = to_weak_factorization(a, b)
    assert abs(row_wnorm(fam) - a.sup_norm()) <= 1e-10 * (1 + a.sup_norm())
    assert abs(col_wnorm(fam) - b.sup_norm()) <= 1e-10 * (1 + b.sup_norm())


def pair_adj(t):
    return t.transpose(1, 0, 3, 2).conj()


def test_wnorms_match_one_sided_action_norms():
    """The w-norms are the operator norms of the Gram sums in the one-sided actions.

    Independent route: assemble sum a_i a_i* (second leg reversed) and
    sum b_i* b_i (first leg reversed) on coefficient tensors, matricize the
    corresponding one-sided action, and take its spectral norm.  Extremal
    eigenvectors must attain the square-sum bounds with equality.
    """
    rng = make_rng(515)
    d1, d2, d3 = 2, 3, 2
    a_list = [complex_normal(rng, (d1, d1, d2, d2)) for _ in range(3)]
    b_list = [complex_normal(rng, (d2, d2, d3, d3)) for _ in range(3)]
    fam = FactorFamily(a_list=tuple(PairSymbol(a) for a in a_list),
                       b_list=tuple(PairSymbol(b) for b in b_list), dims=(d1, d2, d3))

    def opmul_first(x, y):
        return np.einsum("aqrb,pabs->pqrs", x, y)

    def opmul_second(x, y):
        return np.einsum("pmns,mqrn->pqrs", x, y)

    tot_b = sum(opmul_first(pair_adj(b), b) for b in b_list)
    kb = tot_b.transpose(2, 1, 3, 0).reshape(d3 * d2, d3 * d2)
    true_col = np.sqrt(np.linalg.svd(kb, compute_uv=False)[0])
    tot_a = sum(opmul_second(a, pair_adj(a)) for a in a_list)
    ka = tot_a.transpose(2, 1, 3, 0).reshape(d2 * d1, d2 * d1)
    true_row = np.sqrt(np.linalg.svd(ka, compute_uv=False)[0])
    assert abs(col_wnorm(fam) - true_col) <= 1e-10 * (1 + true_col)
    assert abs(row_wnorm(fam) - true_row) <= 1e-10 * (1 + true_row)

    from bimult.multiplier import tau1_apply, tau3_apply
    _, v = np.linalg.eigh(0.5 * (kb + kb.conj().T))
    y = v[:, -1].reshape(d3, d2)
    ssum = sum(np.linalg.norm(tau3_apply(PairSymbol(b), y)) ** 2 for b in b_list)
    assert col_wnorm(fam) ** 2 - ssum >= -1e-10 * (1 + ssum)
    assert abs(col_wnorm(fam) ** 2 - ssum) <= 1e-9 * (1 + ssum)  # attained
    _, v = np.linalg.eigh(0.5 * (ka + ka.conj().T))
    x = v[:, -1].reshape(d2, d1)
    ssum = sum(np.linalg.norm(tau1_apply(PairSymbol(a), x)) ** 2 for a in a_list)
    assert row_wnorm(fam) ** 2 - ssum >= -1e-10 * (1 + ssum)
    assert abs(row_wnorm(fam) ** 2 - ssum) <= 1e-9 * (1 + ssum)

    # the report's slacks are the exact suprema, so they vanish up to rounding
    report = verify_factorization(synthesize_u(fam), fam, full_triple((d1, d2, d3)), 0.0)
    assert abs(report.square_slack_x) <= 1e-9 * (1 + report.row_norm ** 2)
    assert abs(report.square_slack_y) <= 1e-9 * (1 + report.col_norm ** 2)
    assert report.passed


def test_wnorm_scaling_and_permutation():
    rng = make_rng(510)
    a_list = tuple(PairSymbol(complex_normal(rng, (2, 2, 3, 3))) for _ in range(3))
    b_list = tuple(PairSymbol(complex_normal(rng, (3, 3, 2, 2))) for _ in range(3))
    fam = FactorFamily(a_list=a_list, b_list=b_list, dims=(2, 3, 2))
    scaled = FactorFamily(a_list=tuple(PairSymbol(2.0 * a.data) for a in a_list),
                          b_list=b_list, dims=(2, 3, 2))
    assert abs(row_wnorm(scaled) - 2.0 * row_wnorm(fam)) <= 1e-10 * row_wnorm(fam)
    perm = FactorFamily(a_list=a_list[::-1], b_list=b_list[::-1], dims=(2, 3, 2))
    assert abs(row_wnorm(perm) - row_wnorm(fam)) <= 1e-12
    assert abs(col_wnorm(perm) - col_wnorm(fam)) <= 1e-12


def test_verify_factorization_schur_path():
    s = SchurSymbol(complex_normal(make_rng(511), (3, 2, 3)))
    a, b = schur_s1_factorize(s, tol=1e-3)
    fam = to_weak_factorization(a, b)
    phi = embed_schur(s)
    measured = amplified_norm(phi, 1, restarts=10, seed=4)
    report = verify_factorization(phi, fam, full_triple((3, 2, 3)), measured)
    assert report.passed
    assert report.synthesis_residual <= 1e-6 * (1 + phi.norm())
    assert report.measured_value <= report.row_norm * report.col_norm * (1 + 1e-6)
    assert report.square_slack_x >= -1e-10 and report.square_slack_y >= -1e-10


@pytest.mark.parametrize("data", [1e6 * make_rng(517).standard_normal((2, 1, 5)),
                                  1e6 * complex_normal(make_rng(518), (3, 2, 3))],
                         ids=["real-2x1x5", "complex-3x2x3"])
def test_verify_factorization_passes_at_large_scale(data):
    # the square-sum gate scales with the w-norms: exact slacks of a valid
    # factorization sit at rounding level relative to row^2 and col^2
    s = SchurSymbol(data)
    a, b = schur_s1_factorize(s)
    report = verify_factorization(embed_schur(s), to_weak_factorization(a, b),
                                  full_triple(s.dims), s1_norm_schur(s)[1])
    assert report.passed


def test_verify_factorization_detects_truncation():
    s = SchurSymbol(complex_normal(make_rng(512), (2, 2, 2)))
    a, b = schur_s1_factorize(s, tol=1e-3)
    fam = to_weak_factorization(a, b)
    broken = FactorFamily(a_list=fam.a_list, b_list=(fam.b_list[0], PairSymbol(np.zeros_like(fam.b_list[1].data))) + fam.b_list[2:],
                          dims=fam.dims)
    phi = embed_schur(s)
    measured = amplified_norm(phi, 1, restarts=5, seed=4)
    report = verify_factorization(phi, broken, full_triple((2, 2, 2)), measured)
    assert report.synthesis_residual > 1e-4
    assert not report.synthesis_ok


def test_verify_factorization_zero_member_family():
    fam = FactorFamily(a_list=(), b_list=(), dims=(2, 3, 2))
    phi = embed_schur(SchurSymbol(complex_normal(make_rng(515), (2, 3, 2))))
    report = verify_factorization(phi, fam, full_triple((2, 3, 2)), 0.0)
    assert report.row_norm == report.col_norm == 0.0
    assert report.square_slack_x == report.square_slack_y == 0.0
    assert report.a_membership_residuals == report.b_membership_residuals == []
    assert report.membership_ok and report.bound_ok and report.square_ok
    assert not report.synthesis_ok and not report.passed


def test_verify_factorization_membership_per_member():
    from bimult.algebra import pair_membership_residual
    s = SchurSymbol(complex_normal(make_rng(516), (2, 3, 2)))
    fam = to_weak_factorization(*schur_s1_factorize(s, tol=1e-6))
    diag = AlgebraTriple(*(preset_algebra("diagonal", d) for d in (2, 3, 2)))
    report = verify_factorization(embed_schur(s), fam, diag, 0.0)
    assert report.membership_ok and report.passed  # diagonal pairs lie in D (x) D
    off = PairSymbol(complex_normal(make_rng(517), (2, 2, 3, 3)))
    broken = FactorFamily(a_list=(off,) + fam.a_list[1:], b_list=fam.b_list, dims=fam.dims)
    report = verify_factorization(embed_schur(s), broken, diag, 0.0)
    assert not report.membership_ok
    want = [float(pair_membership_residual(p.data, diag.m1, diag.m2)) for p in broken.a_list]
    assert report.a_membership_residuals == pytest.approx(want, rel=1e-15, abs=1e-15)
    assert want[0] > 1.0 and max(want[1:]) <= 1e-14


def test_verify_factorization_elementary_bound():
    rng = make_rng(513)
    r = complex_normal(rng, (2, 2))
    s = complex_normal(rng, (2, 2))
    sp = complex_normal(rng, (2, 2))
    t = complex_normal(rng, (2, 2))
    fam = FactorFamily(a_list=(elementary_pair(r, s),), b_list=(elementary_pair(sp, t),),
                       dims=(2, 2, 2))
    phi = synthesize_u(fam)
    x = complex_normal(rng, (2, 2))
    x /= np.linalg.norm(x)
    y = complex_normal(rng, (2, 2))
    y /= np.linalg.norm(y)
    witness = schatten_norm(apply_tau(phi, y, x), 1)
    report = verify_factorization(phi, fam, full_triple((2, 2, 2)), witness)
    assert report.bound_ok
    assert witness <= report.row_norm * report.col_norm * (1 + 1e-6)


def test_family_validation():
    rng = make_rng(514)
    a = PairSymbol(complex_normal(rng, (2, 2, 3, 3)))
    b = PairSymbol(complex_normal(rng, (3, 3, 2, 2)))
    with pytest.raises(ShapeError):
        FactorFamily(a_list=(a,), b_list=(), dims=(2, 3, 2))
    with pytest.raises(ShapeError):
        FactorFamily(a_list=(a,), b_list=(b,), dims=(2, 2, 2))


def test_family_coefficient_stacks():
    rng = make_rng(518)
    a = PairSymbol(complex_normal(rng, (2, 2, 3, 3)))
    b = PairSymbol(complex_normal(rng, (3, 3, 2, 2)))
    fam = FactorFamily(a_list=(a, a), b_list=(b, b), dims=(2, 3, 2))
    assert fam.a.shape == (2, 2, 2, 3, 3) and fam.b.shape == (2, 3, 3, 2, 2)
    assert np.array_equal(fam.a[1], a.data) and np.array_equal(fam.b[0], b.data)
    with pytest.raises(ValueError):
        fam.a[0, 0, 0, 0, 0] = 1.0  # the stacks are read-only
    empty = FactorFamily(a_list=(), b_list=(), dims=(2, 3, 2))
    assert empty.a.shape == (0, 2, 2, 3, 3) and empty.b.shape == (0, 3, 3, 2, 2)
