"""Tests of the benchmark's independent references and of its failure counting."""

import itertools

import numpy as np
import pytest

import reference as ref


def _rng(seed):
    return np.random.default_rng(seed)


def _cn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_brackets(br, value, rtol=1e-9):
    assert br.lower <= value * (1 + 1e-12) + 1e-15
    assert br.upper >= value * (1 - 1e-12) - 1e-15
    assert br.upper - br.lower <= rtol * max(value, 1.0)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_gamma2_of_ones_and_identity_is_one(n):
    _assert_brackets(ref.gamma2_bracket(np.ones((n, n + 1))), 1.0)
    _assert_brackets(ref.gamma2_bracket(np.eye(n)), 1.0)


def test_gamma2_of_rank_one_is_product_of_sup_norms():
    rng = _rng(3)
    for shape in ((3, 3), (2, 5), (6, 4)):
        u, v = _cn(rng, shape[0]), _cn(rng, shape[1])
        _assert_brackets(ref.gamma2_bracket(np.outer(u, v)), np.abs(u).max() * np.abs(v).max())


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gamma2_of_hadamard_is_sqrt_n(k):
    h = np.array([[1.0]])
    for _ in range(k):
        h = np.kron(h, np.array([[1.0, 1.0], [1.0, -1.0]]))
    _assert_brackets(ref.gamma2_bracket(h), np.sqrt(h.shape[0]))


def test_gamma2_bracket_factors_attain_the_upper_bound():
    rng = _rng(4)
    for shape in ((3, 3), (4, 4), (6, 6), (12, 12), (3, 5)):
        m = _cn(rng, shape)
        br = ref.gamma2_bracket(m)
        assert br.lower <= br.upper
        assert br.lower >= np.abs(m).max()  # the trivial lower bound
        # rounding residual is small, and the upper bound already pays for it
        assert np.abs(br.a_rows.conj() @ br.b_rows.T - m).max() <= 1e-8 * np.abs(m).max()
        top = np.linalg.norm(br.a_rows, axis=1).max() * np.linalg.norm(br.b_rows, axis=1).max()
        assert top <= br.upper * (1 + 1e-12)
        # the dual side: any unit weights give a lower bound
        assert np.linalg.svd(m / np.sqrt(m.size), compute_uv=False).sum() <= br.upper


def test_gamma2_zero_rows_and_zero_matrix():
    m = np.zeros((3, 4), complex)
    br = ref.gamma2_bracket(m)
    assert br.lower == br.upper == 0.0
    m[1, :] = [1, -1, 1, 1]
    _assert_brackets(ref.gamma2_bracket(m), 1.0)


def test_schur_s1_is_the_largest_slice_gamma2():
    rng = _rng(5)
    s = _cn(rng, (3, 3, 2))
    s[:, 1, :] *= 4.0
    whole = ref.schur_s1_bracket(s)
    slices = [ref.gamma2_bracket(s[:, t, :]) for t in range(3)]
    assert whole.upper == max(b.upper for b in slices)
    assert whole.lower == max(b.lower for b in slices)


def test_sup_norm_is_attained_by_matrix_units():
    rng = _rng(6)
    s = _cn(rng, (3, 4, 2))
    t1, t2, t3 = np.unravel_index(np.abs(s).argmax(), s.shape)
    x = np.zeros((4, 3), complex)
    y = np.zeros((2, 4), complex)
    x[t2, t1] = 1.0
    y[t3, t2] = 1.0
    out = ref.schur_action(s, y, x)
    assert np.linalg.norm(out) == pytest.approx(ref.sup_norm(s), rel=1e-15)
    assert np.linalg.svd(out, compute_uv=False)[0] == pytest.approx(ref.sup_norm(s), rel=1e-15)


def test_actions_match_their_defining_sums():
    rng = _rng(7)
    s = _cn(rng, (2, 3, 4))
    x, y = _cn(rng, (3, 2)), _cn(rng, (4, 3))
    loop = np.zeros((4, 2), complex)
    for t1, t2, t3 in itertools.product(range(2), range(3), range(4)):
        loop[t3, t1] += s[t1, t2, t3] * x[t2, t1] * y[t3, t2]
    assert np.allclose(ref.schur_action(s, y, x), loop, atol=1e-13)
    r, sm, t = _cn(rng, (2, 2)), _cn(rng, (3, 3)), _cn(rng, (4, 4))
    phi = np.einsum("ab,cd,ef->abcdef", r, sm, t)
    assert np.allclose(ref.symbol_action(phi, y, x), t @ y @ sm @ x @ r, atol=1e-12)


def test_digits_are_capped_and_one_sided():
    exact = ref.exact_bracket(2.0)
    assert ref.upper_digits(2.0, exact) == ref.DIGITS_CAP
    assert ref.upper_digits(2.002, exact) == pytest.approx(3.0)
    assert ref.lower_digits(1.998, exact) == pytest.approx(3.0)
    wide = ref.Bracket(1.0, 1.001, np.zeros((0, 0)), np.zeros((0, 0)))
    assert ref.upper_digits(1.0, wide) == pytest.approx(3.0)


class _Task:
    def __init__(self, name, run, check):
        self.name, self.run, self.check = name, run, check
        self.prepare = lambda: None


def test_corrupted_certificate_is_counted_as_failed():
    import run
    import workloads

    m = _cn(_rng(9), (4, 4))
    br = ref.gamma2_bracket(m)
    a, b = br.a_rows, br.b_rows
    good = (a.conj() @ a.T, b.conj() @ b.T, a, b, br.upper)
    x_bad = good[0].copy()
    x_bad[0, 0] = -1.0  # breaks the PSD block and nothing else
    b_bad = b.copy()
    b_bad[0] *= 1.5  # breaks the reconstruction
    cases = {"good": good, "psd": (x_bad,) + good[1:],
             "recon": good[:3] + (b_bad, br.upper), "cap": good[:4] + (0.5 * br.upper,)}

    def check(result, ck):
        workloads._check_gamma2_certificate(ck, m, *result, "gamma2")
        ck.upper_bound(result[4], br, "gamma2")

    runner = run.Runner(None, seed=0, seconds=0.0)
    for name, cert in cases.items():
        runner._record(_Task(name, lambda: cert, check), cert, None)
    assert runner.attempted == 4
    assert runner.failed == 3
    assert not any("gamma2" in f and "good" in f for f in runner.failures)
    runner._record(_Task("raises", None, check), None, "raises: raised RuntimeError")
    assert runner.failed == 4
