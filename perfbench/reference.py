"""Independent references for the benchmark's correctness checks.

Nothing here imports ``bimult``: every value is computed from the
definitions with plain numpy, so a defect in the package cannot hide in the
reference it is checked against.

* ``gamma2_bracket`` -- certified bracket for the gamma2 factorization norm
  from the dual-weight fixed point (Lee, Shraibman and Spalek 2008):
  gamma2(M) = max over unit u, v >= 0 of |D_u M D_v|_1.  Every iterate gives
  a lower bound |D_u M D_v|_1 = |U S V*|_1 and, through the exact factor rows
  a_i = (U S^1/2)_i / u_i, b_j = (V S^1/2)_j / v_j, an upper bound.
* ``schur_s1_bracket`` -- the exact S1 multiplier norm of a Schur kernel,
  the largest slice gamma2.
* ``sup_norm`` -- the S2 and B multiplier norms of a Schur kernel (the
  sup-norm law).
* ``schur_action`` / ``symbol_action`` -- the multiplier actions written as
  explicit sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIGITS_CAP = 9.0  # resolution the benchmark certifies: 1e-9 relative
BRACKET_RTOL = 1e-10  # relative width at which gamma2_bracket stops
STAGE_ITER = 100  # fixed-point iterations per damping stage of gamma2_bracket


@dataclass(frozen=True)
class Bracket:
    """lower <= exact value <= upper, with the factor rows attaining upper."""

    lower: float
    upper: float
    a_rows: np.ndarray
    b_rows: np.ndarray

    @property
    def resolution(self) -> float:
        """Relative width of the bracket (0 for an exact zero)."""
        if self.upper == 0.0:
            return 0.0
        return (self.upper - self.lower) / self.lower if self.lower > 0 else np.inf


def _residual_gamma2_bound(e: np.ndarray) -> float:
    """gamma2(E) <= largest column norm of E (factor E = I @ E)."""
    return float(np.linalg.norm(e, axis=0).max()) if e.size else 0.0


def _weighted_factors(m: np.ndarray, p: np.ndarray, q: np.ndarray):
    """Factor rows of m from the SVD of B = D_u m D_v (u = sqrt p, v = sqrt q).

    conj(a_i) = m_i D_v V S^-1/2 and b_j = (U* D_u m)_j S^-1/2, which is
    (U S^1/2)_i / u_i and (V S^1/2)_j / v_j without dividing by small weights.
    Returns the rows, |B|_1 and the row and column masses diag((B B*)^1/2),
    diag((B* B)^1/2).
    """
    u, v = np.sqrt(p), np.sqrt(q)
    uu, s, vh = np.linalg.svd(u[:, None] * m * v[None, :], full_matrices=False)
    keep = s > 1e-15 * s[0]
    inv_root = 1.0 / np.sqrt(s[keep])
    a = np.conj((m * v[None, :]) @ vh[keep].conj().T * inv_root)
    b = (m.T * u[None, :]) @ uu[:, keep].conj() * inv_root
    return a, b, float(s.sum()), (np.abs(uu) ** 2) @ s, (np.abs(vh.T) ** 2) @ s


def gamma2_bracket(m) -> Bracket:
    """Certified bracket for gamma2(m) from the dual-weight fixed point.

    The weights follow the damped update p <- (r + 2 mu) / (|B|_1 + 2 n mu),
    r = diag((B B*)^1/2), the stationarity condition of |B|_1 + mu sum log p
    on the simplex; mu falls from 1e-2 to 1e-12 (relative to max |m_ij|).
    The damping keeps every weight positive, so the factor rows stay exact
    where the optimal weights sit on the boundary, and at the damped fixed
    point every squared row norm is within 2 n mu of |B|_1.  Each iterate
    gives the lower bound |B|_1 and the upper bound of its exact factor rows,
    inflated by a bound on gamma2 of their rounding residual.  A bracket that
    has not closed to ``BRACKET_RTOL`` is returned as it stands.
    """
    m = np.asarray(m, dtype=np.complex128)
    n, k = m.shape
    scale = float(np.abs(m).max()) if m.size else 0.0
    if scale == 0.0:
        return Bracket(0.0, 0.0, np.zeros((n, 0), complex), np.zeros((k, 0), complex))
    ms = m / scale
    p, q = np.full(n, 1.0 / n), np.full(k, 1.0 / k)
    lower, upper, best = 1.0, np.inf, None
    for mu in 10.0 ** -np.arange(2, 13):
        for _ in range(STAGE_ITER):
            a, b, tn, row_mass, col_mass = _weighted_factors(ms, p, q)
            lower = max(lower, tn)
            cand = (float(np.linalg.norm(a, axis=1).max()) * float(np.linalg.norm(b, axis=1).max())
                    + _residual_gamma2_bound(ms - a.conj() @ b.T))
            if cand < upper:
                upper, best = cand, (a, b)
            if upper - lower <= BRACKET_RTOL * lower:
                break
            p_new = (row_mass + 2 * mu) / (tn + 2 * n * mu)
            q_new = (col_mass + 2 * mu) / (tn + 2 * k * mu)
            settled = max(np.abs(p_new - p).max(), np.abs(q_new - q).max()) < 1e-13
            p, q = p_new, q_new
            if settled:
                break
        if upper - lower <= BRACKET_RTOL * lower:
            break
    a, b = best
    balance = np.sqrt(np.linalg.norm(b, axis=1).max() / np.linalg.norm(a, axis=1).max())
    root = np.sqrt(scale)
    return Bracket(lower * scale, upper * scale, a * balance * root, b / balance * root)


def schur_s1_bracket(s: np.ndarray) -> Bracket:
    """Exact S1 multiplier norm of a kernel s[t1, t2, t3]: the largest slice gamma2."""
    slices = [gamma2_bracket(s[:, t2, :]) for t2 in range(s.shape[1])]
    top = max(slices, key=lambda br: br.upper)
    return Bracket(max(br.lower for br in slices), top.upper, top.a_rows, top.b_rows)


def sup_norm(s: np.ndarray) -> float:
    """The S2 and B multiplier norms of a Schur kernel: the largest entry modulus."""
    return float(np.abs(s).max())


def upper_digits(reported: float, exact: Bracket) -> float:
    """Digits of a reported upper bound: -log10 of its relative excess over exact.

    Capped at the bracket's resolution and at ``DIGITS_CAP``.  The excess is
    taken over the bracket's lower end, so it can only be overstated.
    """
    if exact.upper == 0.0:
        return DIGITS_CAP if reported == 0.0 else 0.0
    excess = max((reported - exact.lower) / exact.lower, exact.resolution, 10.0 ** -DIGITS_CAP)
    return float(min(DIGITS_CAP, -np.log10(excess)))


def lower_digits(reported: float, exact: Bracket) -> float:
    """Digits of a reported lower bound: -log10 of its relative shortfall below exact."""
    if exact.upper == 0.0:
        return DIGITS_CAP if reported == 0.0 else 0.0
    short = max((exact.upper - reported) / exact.upper, exact.resolution, 10.0 ** -DIGITS_CAP)
    return float(min(DIGITS_CAP, -np.log10(short)))


def exact_bracket(value: float) -> Bracket:
    """A bracket of zero width, for values known in closed form."""
    return Bracket(value, value, np.zeros((0, 0)), np.zeros((0, 0)))


# ---------------------------------------------------------------------------
# multiplier actions
# ---------------------------------------------------------------------------


def schur_action(s: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """out[t3, t1] = sum_t2 s[t1, t2, t3] x[t2, t1] y[t3, t2], summed slice by slice."""
    n1, n2, n3 = s.shape
    out = np.zeros((n3, n1), complex)
    for t2 in range(n2):
        out += s[:, t2, :].T * np.outer(y[:, t2], x[t2, :])
    return out


def symbol_action(phi: np.ndarray, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Action of a 6-index symbol as a sum over matrix units: E3 y E2 x E1 per coefficient."""
    d1, _, d2, _, d3, _ = phi.shape
    # out[i, j] = sum phi[a1, j, a2, b2, i, b3] y[b3, a2] x[b2, a1]
    t = phi.transpose(4, 1, 5, 2, 3, 0).reshape(d3 * d1, d3 * d2 * d2 * d1)
    w = np.multiply.outer(y, x)  # [b3, a2, b2, a1]
    return (t @ w.reshape(-1)).reshape(d3, d1)
