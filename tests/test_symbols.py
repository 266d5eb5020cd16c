import numpy as np
import pytest

from bimult.algebra import AlgebraTriple, preset_algebra, tensor_membership
from bimult.symbols import (SchurSymbol, Symbol3, as_operator, complex_normal,
                            elementary_symbol, embed_schur, make_rng,
                            random_symbol_in, sup_norm)


def diag_triple(dims):
    return AlgebraTriple(*(preset_algebra("diagonal", d) for d in dims))


def test_embed_all_ones_is_identity_operator():
    s = SchurSymbol(np.ones((2, 3, 2)))
    phi = embed_schur(s)
    assert np.abs(as_operator(phi) - np.eye(12)).max() == 0.0


def test_embed_single_point():
    s = SchurSymbol(np.full((1, 1, 1), 2.0 - 1.0j))
    phi = embed_schur(s)
    assert phi.data.shape == (1, 1, 1, 1, 1, 1)
    assert phi.data[0, 0, 0, 0, 0, 0] == 2.0 - 1.0j


def test_embed_lands_in_diagonal_triple():
    rng = make_rng(301)
    s = SchurSymbol(complex_normal(rng, (2, 3, 2)))
    member, resid = tensor_membership(embed_schur(s), diag_triple((2, 3, 2)))
    assert member and resid <= 1e-12


def test_embed_sup_norm_isometric():
    rng = make_rng(302)
    s = SchurSymbol(complex_normal(rng, (2, 2, 3)))
    op = as_operator(embed_schur(s))
    opnorm = np.linalg.svd(op, compute_uv=False)[0]
    assert abs(opnorm - sup_norm(s)) <= 1e-12


def test_slice_round_trip():
    rng = make_rng(303)
    s = SchurSymbol(complex_normal(rng, (3, 4, 2)))
    rebuilt = np.stack([s.slice_at(t2) for t2 in range(4)], axis=1)
    assert np.array_equal(rebuilt, s.data)
    const = SchurSymbol(np.full((2, 1, 3), 1.5))
    assert np.array_equal(const.slice_at(0), np.full((2, 3), 1.5))
    with pytest.raises(IndexError):
        s.slice_at(4)


def test_sup_norm_examples():
    assert sup_norm(SchurSymbol(np.ones((2, 2, 2)))) == 1.0
    data = np.zeros((2, 2, 2), dtype=complex)
    data[1, 0, 1] = 3.0 - 4.0j
    assert sup_norm(SchurSymbol(data)) == 5.0
    rng = make_rng(304)
    arr = complex_normal(rng, (3, 2, 4))
    scan = max(abs(arr[i, j, k]) for i in range(3) for j in range(2) for k in range(4))
    assert abs(sup_norm(SchurSymbol(arr)) - scan) <= 1e-12


def test_elementary_symbol_examples():
    eye2 = np.eye(2, dtype=complex)
    phi = elementary_symbol(eye2, eye2, eye2)
    assert np.array_equal(phi.data, embed_schur(SchurSymbol(np.ones((2, 2, 2)))).data)
    zero = elementary_symbol(np.zeros((2, 2)), eye2, eye2)
    assert np.abs(zero.data).max() == 0.0
    rng = make_rng(305)
    r, rp, s, t = (complex_normal(rng, (2, 2)) for _ in range(4))
    lhs = elementary_symbol(r + rp, s, t).data
    rhs = elementary_symbol(r, s, t).data + elementary_symbol(rp, s, t).data
    assert np.abs(lhs - rhs).max() <= 1e-13


def test_random_symbol_determinism_and_membership():
    t = AlgebraTriple(preset_algebra("diagonal", 2), preset_algebra("full", 2),
                      preset_algebra("block:1+2", 3))
    phi1 = random_symbol_in(t, seed=9)
    phi2 = random_symbol_in(t, seed=9)
    assert np.array_equal(phi1.data, phi2.data)
    member, resid = tensor_membership(phi1, t)
    assert member and resid <= 1e-10


def test_random_symbol_scalar_triple():
    t = AlgebraTriple(*(preset_algebra("scalar", d) for d in (2, 3, 2)))
    phi = random_symbol_in(t, seed=4)
    ident = embed_schur(SchurSymbol(np.ones((2, 3, 2)))).data
    coeff = phi.data[0, 0, 0, 0, 0, 0]
    assert np.abs(phi.data - coeff * ident).max() <= 1e-12 * (1 + abs(coeff))


def test_symbol_validation():
    with pytest.raises(ValueError):
        SchurSymbol(np.array([[[np.inf]]]))
    from bimult.linalg import ShapeError
    with pytest.raises(ShapeError):
        Symbol3(np.zeros((2, 3, 2, 2, 2, 2)))
    with pytest.raises(ShapeError):
        elementary_symbol(np.zeros((2, 3)), np.eye(2), np.eye(2))


def test_negative_seed_rejected_by_every_seeded_call():
    from bimult.norms import amplified_norm
    from bimult.selftest import run_selftest

    phi = embed_schur(SchurSymbol(np.ones((2, 2, 2))))
    calls = (lambda: make_rng(-1), lambda: amplified_norm(phi, 1, seed=-1),
             lambda: random_symbol_in(diag_triple((2, 2, 2)), seed=-1),
             lambda: run_selftest(seed=-1))
    for call in calls:
        with pytest.raises(ValueError, match="seed must be >= 0"):
            call()
