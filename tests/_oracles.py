"""Independent oracles used by the test suite.

Everything here is deliberately written against the definitions, not the
package's computational paths: naive loop summations, eigensolves of normal
matrices, a constrained minimax descent for the factorization norm, and
seeded alternating ascents for the Schur S2 and B norms.
"""

import numpy as np
from scipy.optimize import minimize


def naive_schur_action(s, y, x):
    """Direct triple-loop summation of the kernel formula."""
    n1, n2, n3 = s.shape
    out = np.zeros((n3, n1), dtype=complex)
    for t1 in range(n1):
        for t3 in range(n3):
            acc = 0.0 + 0.0j
            for t2 in range(n2):
                acc += s[t1, t2, t3] * x[t2, t1] * y[t3, t2]
            out[t3, t1] = acc
    return out


def _schur_action(s, y, x):
    """out[t3, t1] = sum_t2 s[t1, t2, t3] x[t2, t1] y[t3, t2], by einsum."""
    return np.einsum("abc,ba,cb->ca", s, x, y)


def _unit_gaussian(rng, shape):
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _restarted_ascent(phase, s, restarts, seed, stop_at, max_iter=500):
    """Best (value, x, y) over seeded restarts of a phase-restarting ascent.

    Restart r draws from the Philox substream (seed, r) and spends at most
    ``max_iter`` steps on phases from fresh Gaussian pairs, keeping the best
    value; the search stops early once a value reaches ``stop_at``.
    """
    s = np.asarray(s, dtype=complex)
    best = None
    for r in range(restarts):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(r,))))
        iters = 0
        while iters < max_iter:
            val, x, y, used = phase(s, rng, max_iter - iters)
            iters += used
            if best is None or val > best[0]:
                best = (val, x, y)
            if best[0] >= stop_at:
                return best
    return best


def _s2_phase(s, rng, budget):
    """One phase of exact coordinate maximization of |action(y, x)|_2.

    For fixed y the map x -> action(y, x) acts column by column, so the best
    unit x is the top right-singular vector of the best column block; likewise
    for y row by row.
    """
    n1, n2, n3 = s.shape
    x = _unit_gaussian(rng, (n2, n1))
    y = _unit_gaussian(rng, (n3, n2))
    val = float(np.linalg.norm(_schur_action(s, y, x)))
    iters = 0
    while iters < budget:
        iters += 1
        _, sig, vh = np.linalg.svd(np.einsum("abc,cb->acb", s, y))  # blocks[t1][t3, t2]
        t1 = int(np.argmax(sig[:, 0]))
        x = np.zeros((n2, n1), dtype=complex)
        x[:, t1] = vh[t1, 0].conj()
        _, sig, vh = np.linalg.svd(np.einsum("abc,ba->cab", s, x))  # blocks[t3][t1, t2]
        t3 = int(np.argmax(sig[:, 0]))
        y = np.zeros((n3, n2), dtype=complex)
        y[t3, :] = vh[t3, 0].conj()
        done = float(sig[t3, 0]) - val <= 1e-9 * max(1.0, abs(val))
        val = float(sig[t3, 0])
        if done:
            break
    return float(np.linalg.norm(_schur_action(s, y, x))), x, y, iters


def _b_phase(s, rng, budget):
    """One phase of alternating maximization of the operator norm of the action.

    The operator norm is Re <u, action(y, x) v> maximized over unit u, v; for
    fixed (y, u, v) that is a linear functional of x, maximized by its
    normalized adjoint, and (u, v) is refreshed from the SVD of the action.
    """
    n1, n2, n3 = s.shape

    def top_pair(a):
        u_, sig, vh = np.linalg.svd(a)
        return u_[:, 0], vh[0].conj(), float(sig[0])

    x = _unit_gaussian(rng, (n2, n1))
    y = _unit_gaussian(rng, (n3, n2))
    u, v, val = top_pair(_schur_action(s, y, x))
    iters = 0
    while iters < budget:
        iters += 1
        c = np.einsum("c,a,abc,cb->ba", u.conj(), v, s, y)
        nc = np.linalg.norm(c)
        if nc > 0:
            x = c.conj() / nc
        u, v, _ = top_pair(_schur_action(s, y, x))
        c = np.einsum("c,a,abc,ba->cb", u.conj(), v, s, x)
        nc = np.linalg.norm(c)
        if nc > 0:
            y = c.conj() / nc
        u, v, new_val = top_pair(_schur_action(s, y, x))
        done = new_val - val <= 1e-9 * max(1.0, abs(val))
        val = new_val
        if done:
            break
    return float(np.linalg.svd(_schur_action(s, y, x), compute_uv=False)[0]), x, y, iters


def schur_s2_ascent_oracle(s, restarts=20, seed=0, stop_at=np.inf):
    """Seeded ascent lower bound (value, x, y) for the Schur norm S2 x S2 -> S2."""
    return _restarted_ascent(_s2_phase, s, restarts, seed, stop_at)


def schur_b_ascent_oracle(s, restarts=20, seed=0, stop_at=np.inf):
    """Seeded ascent lower bound (value, x, y) for the Schur norm S2 x S2 -> B."""
    return _restarted_ascent(_b_phase, s, restarts, seed, stop_at)


def gamma2_minimax_oracle(m, restarts=16, seed=0):
    """Multi-start factorization descent for the gamma2 norm of a real matrix.

    Parameterizes real vectors a_i, b_j in R^(n+k) and minimizes the common
    cap t subject to the exact interpolation a_i . b_j = M_ij and the norm
    caps |a_i|^2 <= t, |b_j|^2 <= t (an SLSQP descent per start, best kept).
    """
    m = np.asarray(m, dtype=float)
    n, k = m.shape
    amb = n + k
    rng = np.random.default_rng(seed)
    best = np.inf

    def unpack(x):
        a = x[1:1 + n * amb].reshape(n, amb)
        b = x[1 + n * amb:].reshape(k, amb)
        return x[0], a, b

    def fgrad(x):
        g = np.zeros_like(x)
        g[0] = 1.0
        return g

    def ineq(x):
        t, a, b = unpack(x)
        return np.concatenate([t - (a * a).sum(1), t - (b * b).sum(1)])

    def ineq_jac(x):
        t, a, b = unpack(x)
        jac = np.zeros((n + k, x.size))
        jac[:, 0] = 1.0
        for i in range(n):
            jac[i, 1 + i * amb:1 + (i + 1) * amb] = -2 * a[i]
        for j in range(k):
            jac[n + j, 1 + n * amb + j * amb:1 + n * amb + (j + 1) * amb] = -2 * b[j]
        return jac

    def eq(x):
        _, a, b = unpack(x)
        return (a @ b.T - m).ravel()

    def eq_jac(x):
        _, a, b = unpack(x)
        jac = np.zeros((n * k, x.size))
        for i in range(n):
            for j in range(k):
                row = i * k + j
                jac[row, 1 + i * amb:1 + (i + 1) * amb] = b[j]
                jac[row, 1 + n * amb + j * amb:1 + n * amb + (j + 1) * amb] = a[i]
        return jac

    for _ in range(restarts):
        a0 = rng.standard_normal((n, amb))
        b0 = rng.standard_normal((k, amb))
        x0 = np.concatenate([[max(1.0, (a0 * a0).sum(1).max(), (b0 * b0).sum(1).max())],
                             a0.ravel(), b0.ravel()])
        res = minimize(lambda x: x[0], x0, jac=fgrad, method="SLSQP",
                       constraints=[{"type": "ineq", "fun": ineq, "jac": ineq_jac},
                                    {"type": "eq", "fun": eq, "jac": eq_jac}],
                       options={"maxiter": 200, "ftol": 1e-12})
        if not res.success:
            continue
        t, a, b = unpack(res.x)
        feasible = (np.abs(a @ b.T - m).max() < 1e-7
                    and (a * a).sum(1).max() <= t + 1e-7
                    and (b * b).sum(1).max() <= t + 1e-7)
        if feasible:
            best = min(best, float(t))
    return best


def pair_opmul(b, bp):
    """Product of two pair tensors with the FIRST leg multiplying reversed.

    (E_pq (x) E_rs) . (E_p'q' (x) E_r's') = (E_p'q' E_pq) (x) (E_rs E_r's'),
    matching the reversed-first-leg rule used by the one-sided action on the
    (middle, last) legs.
    """
    return np.einsum("aqrb,pabs->pqrs", b, bp)
