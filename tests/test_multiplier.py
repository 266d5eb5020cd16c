import numpy as np
import pytest

import bimult.multiplier as mult
from bimult.algebra import AlgebraTriple, preset_algebra
from bimult.linalg import ShapeError
from bimult.multiplier import (ModularityMethodMismatch, PairSymbol, apply_schur,
                               apply_tau, elementary_pair, extract_U, is_modular,
                               tau1_apply, tau3_apply)
from bimult.symbols import (SchurSymbol, Symbol3, complex_normal, elementary_symbol,
                            embed_schur, make_rng, random_symbol_in)

from _oracles import naive_schur_action, pair_opmul


def unit(d_out, d_in, i, j):
    e = np.zeros((d_out, d_in), dtype=complex)
    e[i, j] = 1.0
    return e


def test_apply_schur_constant_symbol_composes():
    rng = make_rng(401)
    s = SchurSymbol(np.ones((2, 3, 4)))
    x = complex_normal(rng, (3, 2))
    y = complex_normal(rng, (4, 3))
    assert np.abs(apply_schur(s, y, x) - y @ x).max() <= 1e-13


def test_apply_schur_scalars():
    s = SchurSymbol(np.full((1, 1, 1), 2.5 + 1.0j))
    out = apply_schur(s, np.array([[3.0 + 0j]]), np.array([[-1.0 + 2j]]))
    assert abs(out[0, 0] - (2.5 + 1.0j) * 3.0 * (-1.0 + 2j)) <= 1e-13


def test_apply_schur_against_triple_loop():
    rng = make_rng(402)
    s = SchurSymbol(complex_normal(rng, (2, 3, 2)))
    x = complex_normal(rng, (3, 2))
    y = complex_normal(rng, (2, 3))
    assert np.abs(apply_schur(s, y, x) - naive_schur_action(s.data, y, x)).max() <= 1e-13


def test_apply_schur_shape_errors():
    s = SchurSymbol(np.ones((2, 3, 4)))
    with pytest.raises(ShapeError):
        apply_schur(s, np.zeros((4, 3)), np.zeros((2, 3)))


def test_apply_tau_elementary_rule():
    rng = make_rng(403)
    r = complex_normal(rng, (2, 2))
    s = complex_normal(rng, (3, 3))
    t = complex_normal(rng, (2, 2))
    x = complex_normal(rng, (3, 2))
    y = complex_normal(rng, (2, 3))
    got = apply_tau(elementary_symbol(r, s, t), y, x)
    want = t @ y @ s @ x @ r
    assert np.abs(got - want).max() <= 1e-13 * (1 + np.abs(want).max())


def test_apply_tau_matches_schur_action():
    rng = make_rng(404)
    s = SchurSymbol(complex_normal(rng, (3, 2, 3)))
    x = complex_normal(rng, (2, 3))
    y = complex_normal(rng, (3, 2))
    got = apply_tau(embed_schur(s), y, x)
    assert np.abs(got - apply_schur(s, y, x)).max() <= 1e-13


def test_apply_tau_zero_and_bilinearity():
    rng = make_rng(405)
    phi = Symbol3(complex_normal(rng, (2, 2, 3, 3, 2, 2)))
    x1 = complex_normal(rng, (3, 2))
    x2 = complex_normal(rng, (3, 2))
    y1 = complex_normal(rng, (2, 3))
    y2 = complex_normal(rng, (2, 3))
    alpha = 0.7 - 1.3j
    lhs = apply_tau(phi, alpha * y1 + y2, x1)
    rhs = alpha * apply_tau(phi, y1, x1) + apply_tau(phi, y2, x1)
    assert np.abs(lhs - rhs).max() <= 1e-12 * (1 + np.abs(rhs).max())
    lhs = apply_tau(phi, y1, alpha * x1 + x2)
    rhs = alpha * apply_tau(phi, y1, x1) + apply_tau(phi, y1, x2)
    assert np.abs(lhs - rhs).max() <= 1e-12 * (1 + np.abs(rhs).max())
    zero = Symbol3(np.zeros_like(phi.data))
    assert np.abs(apply_tau(zero, y1, x1)).max() == 0.0


def test_tau1_elementary_and_identity():
    rng = make_rng(406)
    r = complex_normal(rng, (2, 2))
    s = complex_normal(rng, (3, 3))
    x = complex_normal(rng, (3, 2))
    got = tau1_apply(elementary_pair(r, s), x)
    assert np.abs(got - s @ x @ r).max() <= 1e-13
    eye_pair = elementary_pair(np.eye(2, dtype=complex), np.eye(3, dtype=complex))
    assert np.abs(tau1_apply(eye_pair, x) - x).max() <= 1e-14


def test_tau1_superposition():
    rng = make_rng(407)
    a1 = PairSymbol(complex_normal(rng, (2, 2, 3, 3)))
    a2 = PairSymbol(complex_normal(rng, (2, 2, 3, 3)))
    x1 = complex_normal(rng, (3, 2))
    x2 = complex_normal(rng, (3, 2))
    both = PairSymbol(a1.data + a2.data)
    lhs = tau1_apply(both, x1 + x2)
    rhs = (tau1_apply(a1, x1) + tau1_apply(a1, x2)
           + tau1_apply(a2, x1) + tau1_apply(a2, x2))
    assert np.abs(lhs - rhs).max() <= 1e-12 * (1 + np.abs(rhs).max())


def test_tau3_elementary_and_op_multiplicativity():
    rng = make_rng(408)
    s = complex_normal(rng, (3, 3))
    t = complex_normal(rng, (2, 2))
    y = complex_normal(rng, (2, 3))
    got = tau3_apply(elementary_pair(s, t), y)
    assert np.abs(got - t @ y @ s).max() <= 1e-13
    eye_pair = elementary_pair(np.eye(3, dtype=complex), np.eye(2, dtype=complex))
    assert np.abs(tau3_apply(eye_pair, y) - y).max() <= 1e-14
    b = complex_normal(rng, (3, 3, 2, 2))
    bp = complex_normal(rng, (3, 3, 2, 2))
    prod = PairSymbol(pair_opmul(b, bp))
    lhs = tau3_apply(prod, y)
    rhs = tau3_apply(PairSymbol(b), tau3_apply(PairSymbol(bp), y))
    assert np.abs(lhs - rhs).max() <= 1e-12 * (1 + np.abs(rhs).max())


def test_tau3_is_the_tau1_contraction():
    assert tau3_apply is tau1_apply
    pair = PairSymbol(np.zeros((2, 2, 3, 3)))
    with pytest.raises(ShapeError):
        tau1_apply(pair, np.zeros((2, 3)))  # must be 3 x 2


def test_tau1_apply_on_a_stack():
    rng = make_rng(430)
    pair = PairSymbol(complex_normal(rng, (2, 2, 3, 3)))
    xs = complex_normal(rng, (5, 3, 2))
    got = tau1_apply(pair, xs)
    assert got.shape == xs.shape
    for x, g in zip(xs, got):
        one = tau1_apply(pair, x)
        assert np.abs(g - one).max() <= 1e-15 * np.abs(one).max()
    with pytest.raises(ShapeError):
        tau1_apply(pair, np.zeros((5, 2, 3)))  # each member must be 3 x 2
    with pytest.raises(ShapeError):
        tau1_apply(pair, np.zeros(6))
    bad = xs.copy()
    bad[3, 1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        tau1_apply(pair, bad)


def test_extract_u_elementary_pattern():
    rng = make_rng(409)
    r = complex_normal(rng, (2, 2))
    s = complex_normal(rng, (3, 3))
    t = complex_normal(rng, (2, 2))
    u1 = extract_U(elementary_symbol(r, s, t), 1)
    for a2 in range(3):
        for b2 in range(3):
            for a3 in range(2):
                for b3 in range(2):
                    want = s[a2, b2] * t[a3, b3] * r
                    assert np.abs(u1[a2, b2, a3, b3] - want).max() <= 1e-13
    zero = Symbol3(np.zeros((2, 2, 3, 3, 2, 2)))
    for which in (1, 2, 3):
        assert np.abs(extract_U(zero, which)).max() == 0.0
    with pytest.raises(ValueError):
        extract_U(zero, 4)


def test_extract_u_rank_one_round_trip():
    rng = make_rng(410)
    phi = Symbol3(complex_normal(rng, (2, 2, 3, 3, 2, 2)))
    u1 = extract_U(phi, 1)
    d1, d2, d3 = phi.dims
    for q1 in range(d1):
        for p2 in range(d2):
            for q2 in range(d2):
                for p3 in range(d3):
                    out = apply_tau(phi, unit(d3, d2, p3, q2), unit(d2, d1, p2, q1))
                    for i in range(d3):
                        for j in range(d1):
                            # the action at rank-one inputs is exactly a slice value entry
                            assert out[i, j] == u1[q2, p2, i, p3, q1, j]


def test_is_modular_member_and_perturbed():
    t = AlgebraTriple(preset_algebra("diagonal", 2), preset_algebra("full", 2),
                      preset_algebra("block:1+2", 3))
    phi = random_symbol_in(t, seed=31)
    modular, violation = is_modular(phi, t)
    assert modular and violation <= 1e-10 * (1 + phi.norm())
    from bimult.selftest import perturb_outside
    rng = make_rng(411)
    phi_bad = perturb_outside(phi, t, rng, eps=1e-3)
    assert phi_bad is not None
    modular, violation = is_modular(phi_bad, t)
    assert not modular and violation > 1e-4


def test_is_modular_full_triple_always():
    t = AlgebraTriple(*(preset_algebra("full", d) for d in (2, 3, 2)))
    rng = make_rng(412)
    phi = Symbol3(complex_normal(rng, (2, 2, 3, 3, 2, 2)))
    modular, violation = is_modular(phi, t)
    assert modular and violation <= 1e-10 * (1 + phi.norm())


def test_is_modular_scaling_invariance():
    t = AlgebraTriple(preset_algebra("diagonal", 2), preset_algebra("scalar", 2),
                      preset_algebra("full", 2))
    phi = random_symbol_in(t, seed=3)
    m0, _ = is_modular(phi, t)
    m1, _ = is_modular(Symbol3(1e5 * phi.data), t)
    assert m0 == m1


def test_direct_violation_matches_literal_module_identities():
    """The vectorized direct check equals brute-force evaluation of the identities.

    Literal route: evaluate u(Ty, x) - T u(y, x), u(y, xR) - u(y, x) R and
    u(yS, x) - u(y, Sx) through apply_tau on every matrix-unit pair, for every
    commutant basis element, and take the largest Frobenius norm over the
    matrix-unit coefficients of the violation (stacked over (x, y) pairs per
    slice position, matching the per-slice commutator norms).
    """
    from bimult.algebra import commutant
    from bimult.multiplier import _direct_violation
    t = AlgebraTriple(preset_algebra("diagonal", 2), preset_algebra("block:1+2", 3),
                      preset_algebra("scalar", 2))
    rng = make_rng(414)
    phi = Symbol3(complex_normal(rng, (2, 2, 3, 3, 2, 2)))
    d1, d2, d3 = phi.dims

    def units(rows, cols):
        return [unit(rows, cols, i, j) for i in range(rows) for j in range(cols)]

    worst = 0.0
    comms = [commutant(t.m1), commutant(t.m2), commutant(t.m3)]
    for x in units(d2, d1):
        for y in units(d3, d2):
            base = apply_tau(phi, y, x)
            for r in comms[0].basis:
                delta = apply_tau(phi, y, x @ r) - base @ r
                worst = max(worst, float(np.linalg.norm(delta)))
            for s_el in comms[1].basis:
                delta = apply_tau(phi, y @ s_el, x) - apply_tau(phi, y, s_el @ x)
                worst = max(worst, float(np.linalg.norm(delta)))
            for t_el in comms[2].basis:
                delta = apply_tau(phi, t_el @ y, x) - t_el @ base
                worst = max(worst, float(np.linalg.norm(delta)))
    vectorized = _direct_violation(phi, t)
    # the two aggregations (full slice norms vs per-unit rows across slices)
    # bound each other up to dimension factors and vanish together
    factor = np.sqrt(d1 * d1 * d2 * d2 * d3 * d3)
    assert vectorized <= worst * factor + 1e-10
    assert worst <= vectorized * factor + 1e-10

    member = random_symbol_in(t, seed=99)
    scale = 1.0 + member.norm()
    assert _direct_violation(member, t) <= 1e-10 * scale


def test_max_violation_independent_of_generating_set():
    """One algebra given by two generator sets: the same violations.

    The sets give different orthonormal commutant bases; the direct violation
    is the Hilbert-Schmidt norm of the commutator map on the commutant, so it
    must not move with them.
    """
    from bimult.algebra import generate_algebra
    from bimult.multiplier import _direct_violation
    rng = make_rng(431)
    q, _ = np.linalg.qr(complex_normal(rng, (3, 3)))

    def block():  # an element of q (C + M2) q*
        m = np.zeros((3, 3), dtype=complex)
        m[0, 0] = complex_normal(rng, ())
        m[1:, 1:] = complex_normal(rng, (2, 2))
        return q @ m @ q.conj().T

    g1, g2 = block(), block()
    phi = Symbol3(complex_normal(rng, (2, 2, 3, 3, 2, 2)))
    results = []
    for gens in ([g1, g2], [g2, g1, g1 @ g2]):
        m2 = generate_algebra(3, gens)
        assert m2.size == 5
        t = AlgebraTriple(preset_algebra("diagonal", 2), m2, preset_algebra("full", 2))
        results.append((_direct_violation(phi, t), *is_modular(phi, t)))
    (d0, mod0, v0), (d1, mod1, v1) = results
    assert mod0 is mod1 is False
    assert abs(d0 - d1) <= 1e-12 * d0
    assert abs(v0 - v1) <= 1e-12 * v0


def test_is_modular_method_mismatch_guard(monkeypatch):
    t = AlgebraTriple(*(preset_algebra("diagonal", 2) for _ in range(3)))
    phi = random_symbol_in(t, seed=8)
    monkeypatch.setattr(mult, "_direct_violation", lambda *a: 1.0)
    with pytest.raises(ModularityMethodMismatch):
        is_modular(phi, t)


def test_schur_action_hilbert_schmidt_bound():
    rng = make_rng(413)
    from bimult.symbols import sup_norm
    for i in range(20):
        s = SchurSymbol(complex_normal(rng, (3, 2, 3)))
        x = complex_normal(rng, (2, 3))
        y = complex_normal(rng, (3, 2))
        out = apply_schur(s, y, x)
        bound = sup_norm(s) * np.linalg.norm(x) * np.linalg.norm(y)
        assert np.linalg.norm(out) <= bound * (1 + 1e-12)
