"""Norm computation for bilinear multipliers.

Three kinds of quantities are produced:

* the bilinear norms of a Schur kernel into S2 and B (``norm_bilinear``), in
  closed form: the sup-norm law, attained by matrix units at the entry of
  largest modulus; and the level-n amplified S1 norms of a general symbol
  (``amplified_norm``), lower bounds from the trace ascent, the one ascent
  engine of the package.  Both are reported as ``lower_bound`` with
  witnesses;
* the gamma2 factorization norm of a matrix (``gamma2``), the optimum of the
  semidefinite program  min t  s.t.  [[X, M], [M*, Y]] >= 0, diag(X) <= t,
  diag(Y) <= t, computed from its dual form gamma2(M) = max over unit
  weights u, v >= 0 of |D_u M D_v|_1 by a damped fixed point on the weights.
  Every iterate certifies the lower bound |D_u M D_v|_1.  The upper bound is
  estimated at every iterate from the weight masses, which equal the value
  of the exact factor rows read off the SVD of D_u M D_v in exact
  arithmetic, and is certified once, by forming and gating the factors of
  the best estimate (no external solver dependency);
* the S1 multiplier norm of a Schur kernel (``s1_norm_schur``), bracketed
  by the largest per-slice gamma2 value above and, below, by a witness built
  from the gamma2 dual weights of the worst slice and refined by one run of
  the trace ascent.

The per-slice gamma2 results of a Schur kernel (``slice_gamma2``) are solved
once per symbol and tolerance and kept on the symbol, so ``s1_norm_schur``
and ``factorize.schur_s1_factorize`` read the same optimum: the norm is its
largest value and the factor fields are its factors.  Only calls with equal
``tol`` share a solve; both functions default to ``tol=1e-8``.

Only ``amplified_norm``, where no certificate exists, draws random starts:
unit-sphere Gaussians from the seeded counter-based generator, restart r
from substream (seed, r), so its estimates are nondecreasing in the number
of restarts for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, schatten_norm
from .multiplier import apply_schur, apply_tau
from .symbols import SchurSymbol, Symbol3, complex_normal, make_rng, sup_norm

DEFAULT_RESTARTS = 20
MAX_ITERATIONS = 500
REL_IMPROVEMENT = 1e-9

_TARGETS = ("s2", "b", "s1")


@dataclass
class NormEstimate:
    """A lower bound on a norm, with the witnesses that attain it.

    ``kind`` is always ``"lower_bound"``: the witnesses reproduce ``value``
    when re-evaluated, even where the value is known to be exact (the S2/B
    sup-norm law).  Upper bounds, such as the slice-gamma2 bound of
    ``s1_norm_schur``, are returned as plain floats beside it.
    ``restarts_used`` and ``iterations`` count the ascent's starts and steps
    (1 and 0 for the closed-form S2/B values).
    """

    value: float
    kind: str
    witness_x: list
    witness_y: list
    restarts_used: int
    iterations: int


def _norm_target(target: str) -> str:
    t = str(target).strip().lower()
    if t not in _TARGETS:
        raise ValueError(f"target must be one of S2, B, S1; got {target!r}")
    return t


def evaluate_bilinear(s: SchurSymbol, target: str, x: np.ndarray, y: np.ndarray) -> float:
    """Norm of the Schur action at (y, x), in the requested target norm."""
    out = apply_schur(s, y, x)
    t = _norm_target(target)
    if t == "s2":
        return float(np.linalg.norm(out))
    if t == "b":
        return schatten_norm(out, "inf")
    return schatten_norm(out, 1)


def evaluate_amplified(phi: Symbol3, xs, ys) -> float:
    """Trace norm of the block matrix [u(y_i, x_j)]_{i,j}, assembled directly."""
    rows = [np.hstack([apply_tau(phi, y, x) for x in xs]) for y in ys]
    return schatten_norm(np.vstack(rows), 1)


def _unit(rng, shape) -> np.ndarray:
    v = complex_normal(rng, shape)
    n = np.linalg.norm(v)
    return v / n if n > 0 else v


def _ascend_trace(eval_blocks, adj_x, adj_y, x0, y0):
    """Trace-norm ascent of ``amplified_norm`` and the ``s1_norm_schur`` refinement.

    The subgradient of the trace norm at B = U diag(sigma) V* is W = U V*; a
    full-length step projected back to the unit sphere is the normalized
    adjoint of W, which maximizes Re <W, B(x, y)> exactly in each variable
    block, so the objective is nondecreasing.
    """
    x, y = x0, y0
    n, _, d1 = x.shape
    d3 = y.shape[1]

    def tnorm_and_w(t4):
        mat = t4.reshape(n * d3, n * d1)
        u, sig, vh = np.linalg.svd(mat, full_matrices=False)
        return float(sig.sum()), (u @ vh).reshape(n, d3, n, d1)

    val, w = tnorm_and_w(eval_blocks(x, y))
    iters = 0
    for _ in range(MAX_ITERATIONS):
        iters += 1
        c = adj_x(w, y)
        nc = np.linalg.norm(c)
        if nc > 0:
            x = c.conj() / nc
        _, w = tnorm_and_w(eval_blocks(x, y))
        c = adj_y(w, x)
        nc = np.linalg.norm(c)
        if nc > 0:
            y = c.conj() / nc
        new_val, w = tnorm_and_w(eval_blocks(x, y))
        if new_val - val <= REL_IMPROVEMENT * max(1.0, abs(val)):
            val = new_val
            break
        val = new_val
    return val, x, y, iters


def _schur_trace_maps(s: SchurSymbol):
    data = s.data

    def eval_blocks(x, y):
        return np.einsum("abc,nba,mcb->mcna", data, x, y)

    def adj_x(w, y):
        return np.einsum("mcna,abc,mcb->nba", w.conj(), data, y)

    def adj_y(w, x):
        return np.einsum("mcna,abc,nba->mcb", w.conj(), data, x)

    return eval_blocks, adj_x, adj_y


def _symbol_trace_maps(phi: Symbol3):
    data = phi.data

    def eval_blocks(x, y):
        return np.einsum("ajcdie,mec,nda->minj", data, y, x)

    def adj_x(w, y):
        return np.einsum("minj,ajcdie,mec->nda", w.conj(), data, y)

    def adj_y(w, x):
        return np.einsum("minj,ajcdie,nda->mec", w.conj(), data, x)

    return eval_blocks, adj_x, adj_y


def norm_bilinear(s: SchurSymbol, target: str) -> NormEstimate:
    """Bilinear norm of a Schur kernel into S2 or B, with witnesses.

    The norm is sup |s| (the sup-norm law), attained by the matrix units
    x = E_{t2,t1}, y = E_{t3,t2} at the entry (t1, t2, t3) of largest
    modulus, whose action is s[t1, t2, t3] E_{t3,t1}.  The kind is
    ``lower_bound``, and the witnesses reproduce ``value`` when
    re-evaluated.  The S1 norm has its own certified bracket,
    ``s1_norm_schur``; asking for it here raises ``ValueError``.
    """
    if _norm_target(target) == "s1":
        raise ValueError("norm_bilinear covers S2 and B; the S1 norm of a Schur kernel "
                         "is s1_norm_schur(s)")
    n1, n2, n3 = s.dims
    t1, t2, t3 = np.unravel_index(int(np.argmax(np.abs(s.data))), s.dims)
    x = np.zeros((n2, n1), dtype=np.complex128)
    y = np.zeros((n3, n2), dtype=np.complex128)
    x[t2, t1] = y[t3, t2] = 1.0
    return NormEstimate(sup_norm(s), "lower_bound", [x], [y], 1, 0)


def amplified_norm(phi: Symbol3, n: int, restarts: int = DEFAULT_RESTARTS,
                   seed: int = 0) -> NormEstimate:
    """Lower bound for the level-n amplified S1 norm.

    Assembles the (n*d3) x (n*d1) block matrix [u(y_i, x_j)] and ascends its
    trace norm over tuples with sum |x_j|_2^2 = sum |y_i|_2^2 = 1 by the
    subgradient alternation of ``_ascend_trace``, best of ``restarts`` starts;
    restart r draws from substream (seed, r), and ``seed`` must be >= 0.
    """
    if n < 1:
        raise ValueError("amplification level must be >= 1")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    d1, d2, d3 = phi.dims
    maps = _symbol_trace_maps(phi)
    best, total = None, 0
    for r in range(restarts):
        rng = make_rng(seed, r)
        x0 = _unit(rng, (n, d2, d1))
        y0 = _unit(rng, (n, d3, d2))
        val, x, y, iters = _ascend_trace(*maps, x0, y0)
        total += iters
        if best is None or val > best[0]:
            best = (val, x, y)
    val, x, y = best
    return NormEstimate(val, "lower_bound", list(x), list(y), restarts, total)


# ---------------------------------------------------------------------------
# gamma2 factorization norm
# ---------------------------------------------------------------------------


GAMMA2_MIN_TOL = 1e-10  # smallest ``tol`` gamma2 accepts; the CLI's --tol range starts here
_RECON_GATE = 1e-10  # entrywise error, relative to 1 + max |M_ij|, of an accepted factorization
_MU_RANGE = (1e-12, 1e-2)  # damping of the weight update, relative to max |M_ij|
_MU_PER_GAP = 0.05  # damping per unit of certified gap, per row and column
_RELAX = 1.8  # over-relaxation of the weight update, applied in log space
_MAX_ITER = 5000  # fixed-point iterations before gamma2 gives up on ``tol``


@dataclass(frozen=True)
class Gamma2Result:
    """Certified bracket ``lower <= gamma2(M) <= value`` with its certificates.

    ``value`` is attained by the factor vectors: <a_i, b_j> = M_ij with the
    pairing conjugate-linear in the first slot, and every row of ``a_vecs``
    and ``b_vecs`` (one vector per row of M, resp. per column) has squared
    norm at most ``value``.  The block matrix [[x_cert, M], [M*, y_cert]] is
    their Gram matrix, so it is PSD and both diagonals are capped by
    ``value``.  ``lower`` is the best |D_u M D_v|_1 over unit weights
    u, v >= 0 that the iteration visited, and at least max |M_ij|.  ``u`` (one
    weight per row) and ``v`` (one per column) attain it; they are the
    matrix units at the entry of largest modulus when no step improved on
    that entry, and the first basis vectors for the zero matrix.
    ``converged`` says whether ``value - lower <= tol``; ``iterations``
    counts fixed-point steps, one SVD each.  ``lower`` is certified at every
    step, ``value`` only at the step whose factors are returned: the steps
    in between estimate it from their weight masses.  The result is frozen;
    the results that ``slice_gamma2`` shares between callers also have
    read-only arrays.
    """

    value: float
    x_cert: np.ndarray
    y_cert: np.ndarray
    a_vecs: np.ndarray
    b_vecs: np.ndarray
    primal_residual: float
    lower: float
    iterations: int
    converged: bool
    u: np.ndarray
    v: np.ndarray


def _factor_value(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a, axis=1).max()) if a.size else 0.0
    nb = float(np.linalg.norm(b, axis=1).max()) if b.size else 0.0
    return na * nb


def _interpolates(a: np.ndarray, b: np.ndarray, ms: np.ndarray) -> bool:
    """Whether <a_i, b_j> reproduces ms to the reconstruction gate."""
    gate = _RECON_GATE * (1.0 + float(np.abs(ms).max()))
    return float(np.abs(a.conj() @ b.T - ms).max()) <= gate


def _descent_sweeps(a: np.ndarray, b: np.ndarray, ms: np.ndarray, sweeps: int):
    """Alternating minimum-norm interpolation sweeps.

    Each half step solves the exact constraint <a_i, b_j> = M_ij for one side
    by pseudoinverse, which can only shrink that side's row norms, so the
    product of max row norms is nonincreasing and the pair stays an exact
    factorization (hence a certified upper bound for the program).  Returns
    the best (value, a, b) seen, or None when the interpolation degrades.
    """
    b = (np.linalg.pinv(a.conj()) @ ms).T  # re-interpolate exactly from a
    if not _interpolates(a, b, ms):
        return None
    best = (_factor_value(a, b), a, b)
    for _ in range(sweeps):
        a = np.conj(ms @ np.linalg.pinv(b.T))
        b = (np.linalg.pinv(a.conj()) @ ms).T
        if not _interpolates(a, b, ms):
            break
        val = _factor_value(a, b)
        if val < best[0] - 1e-15:
            best = (val, a, b)
        else:
            break
    return best


def _seed_factors(ms: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Exactly interpolating factor rows seeded from the SVD split and refined."""
    u, s, vh = np.linalg.svd(ms, full_matrices=False)
    root = np.sqrt(s)
    a = u.conj() * root
    b = vh.T * root
    out = _descent_sweeps(a, b, ms, sweeps=12)
    if out is None:
        return _factor_value(a, b), a, b
    return out


def _weighted_step(ms: np.ndarray, p: np.ndarray, q: np.ndarray):
    """One SVD of B = D_u ms D_v (u = sqrt p, v = sqrt q) and the weight masses.

    Returns u, v, the SVD (U, S, V*) of B, and the row and column masses
    diag((B B*)^1/2) = |U|^2 S and diag((B* B)^1/2) = |V|^2 S.  |B|_1 = sum S
    is a certified lower bound.  When every singular value is ``_kept``,
    row i of the factor ``a`` of ``_weighted_factors`` is conj(U_i S^1/2) /
    u_i, of squared norm row_mass_i / p_i, and row j of ``b`` has squared
    norm col_mass_j / q_j, so sqrt(max row_mass / p * max col_mass / q) is
    the factor value in exact arithmetic: an upper estimate that needs no
    factor matrix.
    """
    u, v = np.sqrt(p), np.sqrt(q)
    svd = np.linalg.svd(u[:, None] * ms * v, full_matrices=False)
    row_mass = (np.abs(svd[0]) ** 2) @ svd[1]
    col_mass = (np.abs(svd[2]) ** 2).T @ svd[1]
    return u, v, svd, row_mass, col_mass


def _kept(sig: np.ndarray) -> np.ndarray:
    """The singular values a step's factors use: those above 1e-15 of the largest."""
    return sig > 1e-15 * sig[0]


def _weighted_factors(ms: np.ndarray, u: np.ndarray, v: np.ndarray, svd):
    """The factor rows of one step, read off the SVD of B = D_u ms D_v.

    conj(a_i) = ms_i D_v V S^-1/2 and b_j = (U* D_u ms)_j S^-1/2 are the rows
    (U S^1/2)_i / u_i and (V S^1/2)_j / v_j, formed without dividing by small
    weights, over the ``_kept`` singular values.
    """
    left, sig, vh = svd
    keep = _kept(sig)
    inv_root = 1.0 / np.sqrt(sig[keep])
    a = np.conj((ms * v) @ vh[keep].conj().T * inv_root)
    b = (ms.T * u) @ left[:, keep].conj() * inv_root
    return a, b


def _certify(ms: np.ndarray, u: np.ndarray, v: np.ndarray, svd):
    """Certified upper bound (value, a, b) of one step, or None.

    The step's factors count when their reconstruction of ms passes the
    gate; otherwise they are repaired by minimum-norm interpolation sweeps,
    and None means the repair failed too.
    """
    a, b = _weighted_factors(ms, u, v, svd)
    if _interpolates(a, b, ms):
        return _factor_value(a, b), a, b
    return _descent_sweeps(a, b, ms, sweeps=3)


def gamma2(m: np.ndarray, tol: float = 1e-8) -> Gamma2Result:
    """gamma2 factorization norm with a certified bracket and factor vectors.

    Uses the dual characterization gamma2(M) = max over unit u, v >= 0 of
    |D_u M D_v|_1 (Lee, Shraibman and Spalek 2008; Linial and Shraibman
    2009).  With p = u^2, q = v^2 and B = D_u M D_v = U S V*, the weights
    move towards the damped fixed point p = (diag((B B*)^1/2) + 2 mu) /
    (|B|_1 + 2 n mu), and q likewise on the column side; each step is
    over-relaxed in log space.  The damping mu (relative to max |M_ij|)
    shrinks with the gap, from 1e-2 down to 1e-12, and keeps every weight
    positive, so the iteration does not stall where the optimal weights sit
    on the boundary.

    The lower bound is certified at every step: |B|_1.  The upper bound is
    estimated at every step from the weight masses, which equal the value of
    the exact factor rows (U S^1/2)_i / u_i, (V S^1/2)_j / v_j in exact
    arithmetic, and is certified once, when the loop stops: the factors of
    the step with the best estimate are formed and count once their
    reconstruction of M passes the gate (otherwise they are repaired by
    minimum-norm interpolation sweeps).  If that fails, or the certified
    bracket is still wider than ``tol`` while the budget lasts and the
    weights still move, the loop resumes and certifies every step.  A step
    that drops a singular value (rank-deficient B) is always certified on
    the spot.  The loop stops when the bracket is narrower than ``tol``
    (absolute, on the value), the weights stop moving, or the iteration
    budget runs out; ``converged`` says which.  ``value`` is always attained
    by the returned factors, so it is never below the true optimum, and
    ``lower`` never above it.
    """
    m = as_matrix(m)
    if not tol >= GAMMA2_MIN_TOL:
        raise ValueError(f"tol must be >= {GAMMA2_MIN_TOL:g}")
    n, k = m.shape
    mags = np.abs(m)
    scale = float(mags.max())
    i, j = np.unravel_index(int(np.argmax(mags)), m.shape)
    u_best, v_best = np.zeros(n), np.zeros(k)
    u_best[i] = v_best[j] = 1.0  # matrix-unit weights: |D_u M D_v|_1 = |M_ij|
    if scale == 0.0:
        return Gamma2Result(0.0, np.zeros((n, n)), np.zeros((k, k)),
                            np.zeros((n, 0)), np.zeros((k, 0)), 0.0, 0.0, 0, True,
                            u_best, v_best)
    ms = m / scale
    lo, hi, est = 1.0, np.inf, np.inf  # the largest entry modulus is always a lower bound
    a_best = b_best = pending = None  # pending: the step of the best estimate, not yet certified
    p, q = np.full(n, 1.0 / n), np.full(k, 1.0 / k)
    iterations, step, defer = 0, np.inf, True
    while True:
        # the bracket test does the arithmetic of ``converged`` below
        while (min(hi, est) * scale - lo * scale > tol and iterations < _MAX_ITER
               and step > 1e-14):
            iterations += 1
            u, v, svd, row_mass, col_mass = _weighted_step(ms, p, q)
            sig = svd[1]
            trace = float(sig.sum())
            if trace > lo:
                lo, u_best, v_best = trace, u, v
            if defer and _kept(sig).all():
                guess = float(np.sqrt((row_mass / p).max() * (col_mass / q).max()))
                if guess < est:
                    est, pending = guess, (u, v, svd)
            else:
                cand = _certify(ms, u, v, svd)
                if cand is not None and cand[0] < hi:
                    hi, a_best, b_best = cand
            gap = min(hi, est) - lo
            mu = min(max(_MU_PER_GAP * gap / (n + k), _MU_RANGE[0]), _MU_RANGE[1])
            p_new = p * ((row_mass + 2 * mu) / ((trace + 2 * n * mu) * p)) ** _RELAX
            q_new = q * ((col_mass + 2 * mu) / ((trace + 2 * k * mu) * q)) ** _RELAX
            p_new /= p_new.sum()
            q_new /= q_new.sum()
            step = max(float(np.abs(p_new - p).max()), float(np.abs(q_new - q).max()))
            p, q = p_new, q_new
        if pending is None:
            break
        cand = _certify(ms, *pending)
        if cand is not None and cand[0] < hi:
            hi, a_best, b_best = cand
        # a failed gate or a still open bracket resumes the loop while the
        # budget lasts and the weights move, now certifying every step
        pending, est, defer = None, np.inf, False
    if a_best is None:  # no iterate passed the gate
        hi, a_best, b_best = _seed_factors(ms)

    na = np.linalg.norm(a_best, axis=1).max() if a_best.size else 0.0
    nb = np.linalg.norm(b_best, axis=1).max() if b_best.size else 0.0
    if na > 0 and nb > 0:
        r = np.sqrt(nb / na)
        a_best = a_best * r
        b_best = b_best / r
    a_vecs = a_best * np.sqrt(scale)
    b_vecs = b_best * np.sqrt(scale)
    x_cert = a_vecs.conj() @ a_vecs.T
    y_cert = b_vecs.conj() @ b_vecs.T
    recon = a_vecs.conj() @ b_vecs.T
    primal_residual = float(np.linalg.norm(recon - m))
    value, lower = hi * scale, lo * scale
    return Gamma2Result(value, x_cert, y_cert, a_vecs, b_vecs, primal_residual,
                        lower, iterations, value - lower <= tol, u_best, v_best)


def slice_gamma2(s: SchurSymbol, tol: float = 1e-8) -> tuple[Gamma2Result, ...]:
    """``gamma2(s.slice_at(t2), tol)`` for every middle index t2, solved once.

    The first call for a given ``tol`` solves every slice and stores the
    tuple on the symbol, with every result array read-only; later calls with
    an equal ``tol`` return that same tuple.  The symbol's data is read-only,
    so a stored result cannot go stale.  A ``tol`` that gamma2 rejects raises
    and stores nothing.
    """
    key = float(tol)
    results = s._slice_gamma2.get(key)
    if results is None:
        results = tuple(gamma2(s.slice_at(t2), tol) for t2 in range(s.dims[1]))
        for res in results:
            for arr in (res.x_cert, res.y_cert, res.a_vecs, res.b_vecs, res.u, res.v):
                arr.setflags(write=False)
        s._slice_gamma2[key] = results
    return results


def s1_norm_schur(s: SchurSymbol, tol: float = 1e-8,
                  restarts: int = DEFAULT_RESTARTS) -> tuple[float, NormEstimate]:
    """S1 multiplier norm of a Schur kernel: slice-gamma2 upper bound + witness lower bound.

    The middle index decouples the factorization slice by slice, so the exact
    norm is max_t2 gamma2(slice(t2)); the largest gamma2 ``value`` is the
    upper bound.  The slice results come from ``slice_gamma2``, so they are
    shared with ``schur_s1_factorize`` on the same symbol at the same
    ``tol`` (both default to 1e-8).  The lower bound is a witness read off
    the dual weights (u, v) of the slice t2* with the largest gamma2
    ``lower``: the unit inputs x = e_t2* (x) u, y = v (x) e_t2* give the
    action D_v M_t2*^T D_u, whose trace norm is that ``lower``.  One run of
    the trace ascent from this witness refines it; the ascent does not
    decrease the value and keeps the witness on slice t2*, so it stays below
    gamma2 of that slice (a violation of the upper bound is an internal
    error).  Nothing is drawn at random: ``restarts`` is validated (>= 1)
    but does not change the result; the estimate reports one restart, and
    its refinement steps as ``iterations``.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    n1, n2, n3 = s.dims
    results = slice_gamma2(s, tol)
    upper = max(res.value for res in results)
    top = int(np.argmax([res.lower for res in results]))
    x0 = np.zeros((1, n2, n1), dtype=np.complex128)
    y0 = np.zeros((1, n3, n2), dtype=np.complex128)
    x0[0, top, :] = results[top].u
    y0[0, :, top] = results[top].v
    val, x, y, iters = _ascend_trace(*_schur_trace_maps(s), x0, y0)
    if val > upper * (1.0 + 1e-6):
        raise RuntimeError(
            f"s1_norm_schur: witness lower bound {val} exceeds slice upper bound {upper}"
        )
    return upper, NormEstimate(val, "lower_bound", [x[0]], [y[0]], 1, iters)
