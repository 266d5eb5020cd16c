"""Weak factorizations of trace-class Schur multipliers.

A kernel s admitting a bounded S2 x S2 -> S1 action factors through a finite
dimensional Hilbert space: s[t1, t2, t3] = <a(t1, t2), b(t2, t3)> with the
pairing conjugate-linear in the first slot.  The middle index decouples, so
the fields are built slice by slice from the gamma2 certificates.  Component
functions of the fields then yield a weak factorization of the embedded
symbol, phi = sum_i (a_i (x) 1)(1 (x) b_i), whose quality is measured by the
row/column w-norms |sum a_i a_i*|^(1/2) and |sum b_i* b_i|^(1/2) (products
taken with the reversed middle-leg multiplication).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import MEMBERSHIP_RTOL, AlgebraTriple, pair_membership_residual
from .linalg import ShapeError, schatten_norm
from .multiplier import PairSymbol, tau1_apply
from .norms import slice_gamma2
from .symbols import SchurSymbol, Symbol3, sup_norm


@dataclass(frozen=True)
class VectorField:
    """A grid of complex k-vectors, one per (ta, tb)."""

    vectors: np.ndarray  # (na, nb, k)

    def __post_init__(self):
        arr = np.ascontiguousarray(self.vectors, dtype=np.complex128)
        if arr.ndim != 3:
            raise ShapeError(f"shape: vector field must be 3-index, got ndim={arr.ndim}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("vector field entries must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def grid_dims(self) -> tuple[int, int]:
        return self.vectors.shape[0], self.vectors.shape[1]

    @property
    def k(self) -> int:
        return self.vectors.shape[2]

    def sup_norm(self) -> float:
        if self.vectors.size == 0:
            return 0.0
        return float(np.linalg.norm(self.vectors, axis=2).max())


@dataclass(frozen=True)
class FactorFamily:
    """Finite families (a_i), (b_i) of pair symbols with uniform leg dims.

    ``a`` and ``b`` are the coefficients stacked along a leading member axis,
    read-only, of shapes (count, d1, d1, d2, d2) and (count, d2, d2, d3, d3);
    every quantity of the family is one contraction over them.
    """

    a_list: tuple[PairSymbol, ...]
    b_list: tuple[PairSymbol, ...]
    dims: tuple[int, int, int]
    a: np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.a_list) != len(self.b_list):
            raise ShapeError("shape: factor families must have equal length")
        d1, d2, d3 = self.dims
        for a in self.a_list:
            if a.leg_dims != (d1, d2):
                raise ShapeError(f"shape: a-symbol legs {a.leg_dims} vs dims {(d1, d2)}")
        for b in self.b_list:
            if b.leg_dims != (d2, d3):
                raise ShapeError(f"shape: b-symbol legs {b.leg_dims} vs dims {(d2, d3)}")
        for name, pairs, legs in (("a", self.a_list, (d1, d2)), ("b", self.b_list, (d2, d3))):
            shape = (self.count, legs[0], legs[0], legs[1], legs[1])
            stack = np.array([p.data for p in pairs], dtype=np.complex128).reshape(shape)
            stack.setflags(write=False)
            object.__setattr__(self, name, stack)

    @property
    def count(self) -> int:
        return len(self.a_list)


def _product_sum(a: np.ndarray, b: np.ndarray) -> Symbol3:
    """sum_i (a_i (x) 1)(1 (x) b_i) over coefficient stacks; the middle leg multiplies reversed.

    On elementary tensors (R (x) S (x) 1)(1 (x) S' (x) T) = R (x) S'S (x) T,
    which in coefficients is a single contraction over the shared middle
    index and the member axis.
    """
    return Symbol3(np.einsum("ipqmw,irmst->pqrwst", a, b))


def opmul_symbol(a: PairSymbol, b: PairSymbol) -> Symbol3:
    """The product symbol (a (x) 1)(1 (x) b): the one-member product sum."""
    if a.leg_dims[1] != b.leg_dims[0]:
        raise ShapeError(f"shape: middle legs disagree, {a.leg_dims[1]} vs {b.leg_dims[0]}")
    return _product_sum(a.data[None], b.data[None])


def synthesize_u(f: FactorFamily) -> Symbol3:
    """The symbol sum_i (a_i (x) 1)(1 (x) b_i) of a factor family."""
    return _product_sum(f.a, f.b)


def schur_s1_factorize(s: SchurSymbol, tol: float = 1e-8) -> tuple[VectorField, VectorField]:
    """Hilbert-space factorization s[t1,t2,t3] = <a(t1,t2), b(t2,t3)>.

    Takes the gamma2 result of every middle-index slice from
    ``norms.slice_gamma2``, which solves them once per symbol and tolerance,
    so this shares the solve with ``s1_norm_schur`` on the same symbol at
    the same ``tol`` (both default to 1e-8).  Embeds
    the per-slice factor vectors into a common ambient dimension (the
    largest slice rank, smaller slices zero-padded) and keeps the per-slice
    balancing, so the product of the two sup norms equals the largest slice
    gamma2 value.
    """
    n1, n2, n3 = s.dims
    results = slice_gamma2(s, tol)
    k = max((r.a_vecs.shape[1] for r in results), default=0)
    a_field = np.zeros((n1, n2, k), dtype=np.complex128)
    b_field = np.zeros((n2, n3, k), dtype=np.complex128)
    for t2, r in enumerate(results):
        kk = r.a_vecs.shape[1]
        a_field[:, t2, :kk] = r.a_vecs
        b_field[t2, :, :kk] = r.b_vecs
    a = VectorField(a_field)
    b = VectorField(b_field)

    recon = np.einsum("abk,bck->abc", a_field.conj(), b_field)
    err = float(np.abs(recon - s.data).max()) if s.data.size else 0.0
    scale = 1.0 + sup_norm(s)
    if err > 1e-6 * scale:
        raise RuntimeError(f"schur_s1_factorize: reconstruction error {err:.3e} beyond contract")
    best = max((r.value for r in results), default=0.0)
    if a.sup_norm() * b.sup_norm() > (1.0 + 1e-4) * best + 1e-12:
        raise RuntimeError("schur_s1_factorize: factor sup norms exceed the slice gamma2 bound")
    return a, b


def to_weak_factorization(a: VectorField, b: VectorField) -> FactorFamily:
    """Turn factor fields into a weak factorization family of diagonal pair symbols.

    Member i has the coefficients data[i, p, p, r, r] = field[p, r, i].
    Component i of the first field enters conjugated: the field pairing is
    conjugate-linear in its first slot, while the weak factorization sums the
    plain products a_i(t1,t2) b_i(t2,t3).
    """
    n1, n2 = a.grid_dims
    n2b, n3 = b.grid_dims
    if n2 != n2b or a.k != b.k:
        raise ShapeError(f"shape: fields disagree, middle {n2} vs {n2b}, ambient {a.k} vs {b.k}")
    stacks = []
    for values in (a.vectors.conj(), b.vectors):
        na, nb, k = values.shape
        data = np.zeros((k, na, na, nb, nb), dtype=np.complex128)
        i, j = np.arange(na)[:, None], np.arange(nb)[None, :]
        data[:, i, i, j, j] = values.transpose(2, 0, 1)
        stacks.append(tuple(map(PairSymbol, data)))
    return FactorFamily(a_list=stacks[0], b_list=stacks[1], dims=(n1, n2, n3))


def row_wnorm(f: FactorFamily) -> float:
    """|sum_i a_i a_i*|^(1/2); the middle (second) leg multiplies reversed.

    Transposing the reversed leg is a *-isomorphism onto a plain matrix
    algebra, so R_i[(p, s), (q, r)] = a_i[p, q, r, s] is a faithful
    representation on C^{d1 d2}, and operator norms computed there are
    representation independent.  sum_i R_i R_i* is the Gram matrix of the
    row [R_1 ... R_k], so the w-norm is that row's top singular value.
    """
    d1, d2, _ = f.dims
    row = f.a.transpose(1, 4, 0, 2, 3).reshape(d1 * d2, f.count * d1 * d2)
    return schatten_norm(row, "inf")


def col_wnorm(f: FactorFamily) -> float:
    """|sum_i b_i* b_i|^(1/2); the middle (first) leg multiplies reversed.

    Transposing the reversed (first) leg, C_i[(q, r), (p, s)] = b_i[p, q, r, s]
    is a faithful representation on C^{d2 d3}; sum_i C_i* C_i is the Gram
    matrix of the column [C_1; ...; C_k], whose top singular value is the
    w-norm.
    """
    _, d2, d3 = f.dims
    col = f.b.transpose(0, 2, 3, 1, 4).reshape(f.count * d2 * d3, d2 * d3)
    return schatten_norm(col, "inf")


def square_slacks(f: FactorFamily, row: float, col: float) -> tuple[float, float]:
    """Exact slacks row^2 - sup sum_i |tau1(a_i, x)|_2^2 and col^2 - sup sum_i |tau3(b_i, y)|_2^2.

    The suprema run over unit x (d2 x d1) and y (d3 x d2).  Each is the top
    eigenvalue of sum_i T_i* T_i, T_i the matrix of the one-sided action
    (``tau1_apply``, which is ``tau3_apply``) on the matrix units, built by
    one call on the stack of all units: a route independent of
    ``row_wnorm`` and ``col_wnorm``.  The bounds are attained, so for the
    w-norms both slacks are zero up to rounding.
    """
    d1, d2, d3 = f.dims
    slacks = []
    for pairs, shape, norm in ((f.a_list, (d2, d1), row), (f.b_list, (d3, d2), col)):
        n = shape[0] * shape[1]
        units = np.eye(n).reshape(n, *shape)
        gram = np.zeros((n, n), dtype=np.complex128)
        for p in pairs:
            t = tau1_apply(p, units).reshape(n, n).T
            gram += t.conj().T @ t
        slacks.append(norm * norm - float(np.linalg.eigvalsh(gram)[-1]))
    return tuple(slacks)


@dataclass
class FactorizationReport:
    """Outcome of verify_factorization; failures are entries, never raises.

    The square slacks are those of ``square_slacks``; ``square_ok`` accepts
    each down to -1e-10 * max(1, w-norm^2).
    """

    synthesis_residual: float
    synthesis_ok: bool
    a_membership_residuals: list[float]
    b_membership_residuals: list[float]
    membership_ok: bool
    row_norm: float
    col_norm: float
    measured_value: float
    bound_ok: bool
    square_slack_x: float
    square_slack_y: float
    square_ok: bool

    @property
    def passed(self) -> bool:
        return self.synthesis_ok and self.membership_ok and self.bound_ok and self.square_ok


def verify_factorization(phi: Symbol3, f: FactorFamily, t: AlgebraTriple,
                         measured_norm) -> FactorizationReport:
    """Check a claimed weak factorization of phi against its defining properties.

    Reports the synthesis residual |phi - sum (a_i (x) 1)(1 (x) b_i)|, the
    two-leg membership residuals of every a_i and b_i, the norm bound
    measured <= row_wnorm * col_wnorm, and the square-sum inequalities
    sum_i |tau1(a_i, x)|_2^2 <= row^2 |x|_2^2 (and the b/y analogue), whose
    suprema over unit x and y are computed exactly (``square_slacks``).
    """
    d1, d2, d3 = f.dims
    if phi.dims != (d1, d2, d3):
        raise ShapeError(f"shape: symbol dims {phi.dims} vs family dims {f.dims}")
    scale = 1.0 + phi.norm()
    residual = float(np.linalg.norm(phi.data - synthesize_u(f).data))

    memb_ok = True
    resids = []
    for stack, algs in ((f.a, (t.m1, t.m2)), (f.b, (t.m2, t.m3))):
        resid = pair_membership_residual(stack, *algs)
        norms = np.sqrt((np.abs(stack) ** 2).sum(axis=(1, 2, 3, 4)))
        memb_ok = memb_ok and bool(np.all(resid <= MEMBERSHIP_RTOL * (1.0 + norms)))
        resids.append(resid.tolist())

    row = row_wnorm(f)
    col = col_wnorm(f)
    measured = float(getattr(measured_norm, "value", measured_norm))
    bound_ok = measured <= row * col * (1.0 + 1e-6) + 1e-12
    slack_x, slack_y = square_slacks(f, row, col)

    return FactorizationReport(
        synthesis_residual=residual,
        synthesis_ok=bool(residual <= 1e-6 * scale),
        a_membership_residuals=resids[0],
        b_membership_residuals=resids[1],
        membership_ok=bool(memb_ok),
        row_norm=row,
        col_norm=col,
        measured_value=measured,
        bound_ok=bool(bound_ok),
        square_slack_x=slack_x,
        square_slack_y=slack_y,
        square_ok=bool(slack_x >= -1e-10 * max(1.0, row * row)
                       and slack_y >= -1e-10 * max(1.0, col * col)),
    )
