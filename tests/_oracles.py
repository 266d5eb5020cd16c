"""Independent oracles used by the test suite.

Everything here is deliberately written against the definitions, not the
package's computational paths: naive loop summations, eigensolves of normal
matrices, and a constrained minimax descent for the factorization norm.
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
