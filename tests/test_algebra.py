import numpy as np
import pytest

from bimult.algebra import (AlgebraTriple, commutant, conditional_expectation,
                            generate_algebra, pair_membership_residual, preset_algebra,
                            project_symbol, tensor_membership)
from bimult.linalg import ShapeError
from bimult.symbols import Symbol3, complex_normal, elementary_symbol, make_rng, random_symbol_in


def closure_dimension_oracle(dim, generators, rounds=6):
    """Span dimension of all words in the generators, by rank of stacked words."""
    words = [np.eye(dim, dtype=complex)]
    frontier = [np.eye(dim, dtype=complex)]
    gens = [np.asarray(g, dtype=complex) for g in generators]
    gens = gens + [g.conj().T for g in gens]
    for _ in range(rounds):
        frontier = [w @ g for w in frontier for g in gens]
        words.extend(frontier)
    stack = np.array([w.ravel() for w in words])
    return np.linalg.matrix_rank(stack, tol=1e-9)


def triple(names, dims):
    return AlgebraTriple(*(preset_algebra(n, d) for n, d in zip(names, dims)))


def test_generate_trivial_and_full():
    assert generate_algebra(3, []).size == 1
    units = []
    for i in range(2):
        for j in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    assert generate_algebra(2, units).size == 4


def assert_algebra_invariants(alg, gens):
    """Orthonormal basis (for tr(a* b) / d), closed under products, containing I and
    every generator."""
    basis = np.stack(alg.basis)
    gram = np.einsum("aij,bij->ab", basis.conj(), basis) / alg.dim
    assert np.abs(gram - np.eye(alg.size)).max() <= 1e-10
    prods = np.einsum("aij,bjk->abik", basis, basis)
    resid = np.linalg.norm(prods - alg.project(prods), axis=(2, 3))
    assert (resid <= 1e-9 * (1 + np.linalg.norm(prods, axis=(2, 3)))).all()
    for m in (np.eye(alg.dim, dtype=complex), *gens):
        assert np.linalg.norm(m - alg.project(m)) <= 1e-9 * (1 + np.linalg.norm(m))


def _unit(dim, i, j):
    e = np.zeros((dim, dim), dtype=complex)
    e[i, j] = 1.0
    return e


def _oracle_sets():
    """(dim, generators, oracle rounds) at scale about 1, keyed by a test id."""
    rng = make_rng(206)
    sets = {"diag-1-2-3": (3, [np.diag([1.0, 2.0, 3.0]).astype(complex)]),
            "e12": (2, [_unit(2, 0, 1)]),
            "jordan": (2, [np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)])}
    for d in range(2, 6):
        for k in (1, 2):
            sets[f"random-d{d}-k{k}"] = (d, [complex_normal(rng, (d, d)) for _ in range(k)])
    # W (C + M3) W* in M4, built as the benchmark's alg4.json is
    w, _ = np.linalg.qr(complex_normal(rng, (4, 4)))
    block = np.zeros((4, 4), bool)
    block[0, 0] = True
    block[1:, 1:] = True
    sets["conj-c+m3-d4"] = (4, [w @ np.where(block, complex_normal(rng, (4, 4)), 0) @ w.conj().T
                                for _ in range(2)])
    eye2 = np.eye(2, dtype=complex)
    sets["m2-x-1"] = (4, [np.kron(complex_normal(rng, (2, 2)), eye2)])
    sets["1-x-m2"] = (4, [np.kron(eye2, complex_normal(rng, (2, 2)))])
    a = complex_normal(rng, (3, 3))
    sets["diag-a-a"] = (6, [np.kron(eye2, a)])
    h = complex_normal(rng, (5, 5))
    sets["hermitian-d5"] = (5, [h + h.conj().T])
    sets["diag-1-1e-6-2"] = (3, [np.diag([1.0, 1.0 + 1e-6, 2.0]).astype(complex)])
    sets = {name: (dim, gens, 6) for name, (dim, gens) in sets.items()}
    # matrix units already span an algebra: words of length 2 show it is closed
    for name, dim in (("full", 3), ("diagonal", 3), ("scalar", 3), ("block:1+2", 3),
                      ("block:2+1+1", 4)):
        sets[f"preset-{name}"] = (dim, list(preset_algebra(name, dim).generators), 2)
    return sets


ORACLE_SETS = _oracle_sets()


@pytest.mark.parametrize("name", sorted(ORACLE_SETS))
def test_generate_matches_closure_oracle(name):
    # the word-span oracle is independent of the commutant solve; its absolute
    # rank tolerance is why every set here is scaled about 1
    dim, gens, rounds = ORACLE_SETS[name]
    alg = generate_algebra(dim, gens)
    assert alg.size == closure_dimension_oracle(dim, gens, rounds)
    assert_algebra_invariants(alg, gens)


def test_generated_basis_invariants():
    rng = make_rng(201)
    gens = [complex_normal(rng, (3, 3))]
    assert_algebra_invariants(generate_algebra(3, gens), gens)


@pytest.mark.parametrize("name,dim,expected", [
    ("full", 3, 1), ("scalar", 3, 9), ("diagonal", 3, 3), ("block:1+2", 3, 2),
])
def test_commutant_sizes(name, dim, expected):
    assert commutant(preset_algebra(name, dim)).size == expected


def test_commutant_contains_identity_and_is_algebra():
    alg = commutant(preset_algebra("diagonal", 3))
    eye = np.eye(3, dtype=complex)
    assert np.linalg.norm(eye - alg.project(eye)) <= 1e-10
    for b1 in alg.basis:
        prod = b1 @ alg.basis[-1]
        assert np.linalg.norm(prod - alg.project(prod)) <= 1e-9


def test_bicommutant():
    rng = make_rng(202)
    for gens in ([complex_normal(rng, (3, 3))],
                 [np.diag([1.0, 1.0, 2.0]).astype(complex)]):
        alg = generate_algebra(3, gens)
        bicom = commutant(commutant(alg))
        for b in alg.basis:
            assert np.linalg.norm(b - bicom.project(b)) <= 1e-8
        for b in bicom.basis:
            assert np.linalg.norm(b - alg.project(b)) <= 1e-8


def test_commutant_of_central_generator():
    # every commutator is rounding noise: the generated algebra is the scalars,
    # whose commutant is all of M_3
    rng = make_rng(207)
    g = (0.3 + 0.4j) * np.eye(3) + 1e-17 * complex_normal(rng, (3, 3))
    alg = generate_algebra(3, [g])
    assert alg.size == 1
    assert commutant(alg).size == 9


def test_commutant_of_mixed_scale_generators():
    # the null-space threshold must not depend on the generators' scales
    gens = [1e6 * np.diag([1.0, 2.0, 3.0]).astype(complex), 1e-6 * _unit(3, 0, 1)]
    assert generate_algebra(3, gens).size == 5  # M_2 + C
    assert commutant(generate_algebra(3, gens)).size == 2


def test_conditional_expectation_examples():
    diag = preset_algebra("diagonal", 3)
    x = np.diag([2.0, 3.0, 4.0]).astype(complex)
    assert np.abs(conditional_expectation(x, diag) - x).max() <= 1e-12
    e12 = np.zeros((3, 3), dtype=complex)
    e12[0, 1] = 1.0
    assert np.abs(conditional_expectation(e12, diag)).max() <= 1e-12
    scalar = preset_algebra("scalar", 3)
    rng = make_rng(203)
    x = complex_normal(rng, (3, 3))
    expect = (np.trace(x) / 3) * np.eye(3)
    assert np.abs(conditional_expectation(x, scalar) - expect).max() <= 1e-12


def test_conditional_expectation_properties():
    alg = preset_algebra("block:1+2", 3)
    rng = make_rng(204)
    x = complex_normal(rng, (3, 3))
    ex = conditional_expectation(x, alg)
    assert np.abs(conditional_expectation(ex, alg) - ex).max() <= 1e-10  # idempotent
    eye = np.eye(3, dtype=complex)
    assert np.abs(conditional_expectation(eye, alg) - eye).max() <= 1e-10  # unital
    assert abs(np.trace(ex) - np.trace(x)) <= 1e-10 * (1 + abs(np.trace(x)))
    h = 0.5 * (x + x.conj().T)
    eh = conditional_expectation(h, alg)
    assert np.abs(eh - eh.conj().T).max() <= 1e-10  # Hermitian-preserving


def test_tensor_membership_basis_tensor():
    t = triple(("diagonal", "full", "block:1+2"), (2, 2, 3))
    phi = random_symbol_in(t, seed=17)
    member, resid = tensor_membership(phi, t)
    assert member and resid <= 1e-12 * (1 + phi.norm())


def test_tensor_membership_off_diagonal_leg():
    t = triple(("diagonal", "full", "full"), (2, 2, 2))
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    eye = np.eye(2, dtype=complex)
    member, resid = tensor_membership(elementary_symbol(e12, eye, eye), t)
    assert not member and resid > 0.1


def test_tensor_membership_detects_small_perturbation():
    t = triple(("diagonal", "full", "scalar"), (2, 2, 2))
    rng = make_rng(205)
    phi = random_symbol_in(t, seed=5)
    g = Symbol3(complex_normal(rng, phi.data.shape))
    g_perp = g.data - project_symbol(g, t).data
    g_perp /= np.linalg.norm(g_perp)
    eps = 1e-3 * (1 + phi.norm())
    member, resid = tensor_membership(Symbol3(phi.data + eps * g_perp), t)
    assert not member
    assert abs(resid - eps) <= 1e-9 * (1 + eps)


def test_tensor_membership_scaling_invariance():
    t = triple(("diagonal", "scalar", "full"), (3, 2, 2))
    phi = random_symbol_in(t, seed=11)
    member0, _ = tensor_membership(phi, t)
    member1, _ = tensor_membership(Symbol3(1e6 * phi.data), t)
    member2, _ = tensor_membership(Symbol3(1e-6 * phi.data), t)
    assert member0 == member1 == member2


def test_tensor_membership_shape_error():
    t = triple(("full", "full", "full"), (2, 2, 2))
    phi = random_symbol_in(triple(("full", "full", "full"), (2, 2, 3)), seed=1)
    with pytest.raises(ShapeError):
        tensor_membership(phi, t)


def test_pair_membership_residual_on_a_stack():
    rng = make_rng(1017)
    ma, mb = preset_algebra("diagonal", 2), preset_algebra("block:1+2", 3)
    # span{b_a (x) b_b} through its own orthonormal basis, |e|_F^2 = da * db
    span = np.array([np.einsum("pq,rs->pqrs", u, v).ravel()
                     for u in ma.basis for v in mb.basis]) / np.sqrt(2 * 3)
    stack = complex_normal(rng, (4, 2, 2, 3, 3))
    stack[1] = 0.0
    stack[2] = (complex_normal(rng, len(span)) @ span).reshape(2, 2, 3, 3)
    got = pair_membership_residual(stack, ma, mb)
    assert got.shape == (4,) and got[1] == 0.0 and got[2] <= 1e-14
    for member, r in zip(stack, got):
        one = float(pair_membership_residual(member, ma, mb))
        assert abs(r - one) <= 1e-15 * (1.0 + one)
        flat = member.ravel()
        oracle = np.linalg.norm(flat - (span.conj() @ flat) @ span)
        assert abs(one - oracle) <= 1e-12 * (1.0 + oracle)
    with pytest.raises(ShapeError):
        pair_membership_residual(stack[..., :2], ma, mb)


def test_generate_from_non_star_closed_generator():
    # a single nilpotent matrix unit generates all of M_2 via adjoints/products
    e12 = np.zeros((2, 2), dtype=complex)
    e12[0, 1] = 1.0
    assert generate_algebra(2, [e12]).size == 4


def test_commutant_of_jordan_block():
    # the unital algebra generated by a Jordan block is not *-closed as a set,
    # but generation adds adjoints; the resulting algebra is all of M_2
    j = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    alg = generate_algebra(2, [j])
    assert alg.size == 4
    assert commutant(alg).size == 1


def test_preset_block_validation():
    with pytest.raises(ShapeError):
        preset_algebra("block:1+3", 3)
    with pytest.raises(ValueError):
        preset_algebra("nonsense", 3)
