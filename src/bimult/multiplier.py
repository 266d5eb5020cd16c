"""Bilinear multiplier actions and modularity testing.

Operators are stored "target x source": an operator from the first space to
the second is a d2 x d1 matrix with ``x[t2, t1] = f(t1, t2)`` for kernels.
The bilinear action of a 6-index symbol is the linear extension of the
elementary-tensor rule

    (R (x) S (x) T) . (y, x)  =  T y S x R,

and the Schur action of a 3-index kernel is

    out[t3, t1] = sum_t2 s[t1, t2, t3] * x[t2, t1] * y[t3, t2].

Both are single einsum contractions; no attempt is made at asymptotically
faster contraction orders (desk scale only).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraTriple, commutant, commutator_maps
from .linalg import ShapeError, as_matrix
from .symbols import SchurSymbol, Symbol3, _validate

MODULARITY_RTOL = 1e-8  # two SVD-grade projections compose
MODULARITY_MISMATCH_RTOL = 1e-7


class ModularityMethodMismatch(RuntimeError):
    """The projection and direct modularity checks disagree: implementation bug."""


@dataclass(frozen=True)
class PairSymbol:
    """4-index tensor c[p, q, r, s] meaning sum c[...] E^a_{pq} (x) E^b_{rs}."""

    data: np.ndarray

    def __post_init__(self):
        arr = _validate(self.data, 4)
        if arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3]:
            raise ShapeError(f"shape: leg index pairs must match, got {arr.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def leg_dims(self) -> tuple[int, int]:
        return self.data.shape[0], self.data.shape[2]

    def norm(self) -> float:
        return float(np.linalg.norm(self.data))


def elementary_pair(r: np.ndarray, s: np.ndarray) -> PairSymbol:
    """The pair symbol of R (x) S."""
    r = as_matrix(r)
    s = as_matrix(s)
    return PairSymbol(np.einsum("ab,cd->abcd", r, s))


def apply_schur(s: SchurSymbol, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Schur action: out[t3, t1] = sum_t2 s[t1, t2, t3] x[t2, t1] y[t3, t2]."""
    n1, n2, n3 = s.dims
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape != (n2, n1):
        raise ShapeError(f"shape: x must be {(n2, n1)}, got {x.shape}")
    if y.shape != (n3, n2):
        raise ShapeError(f"shape: y must be {(n3, n2)}, got {y.shape}")
    return np.einsum("abc,ba,cb->ca", s.data, x, y)


def apply_tau(phi: Symbol3, y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bilinear action of a 6-index symbol.

    out[i, j] = sum phi[a1, j, a2, b2, i, b3] * y[b3, a2] * x[b2, a1],
    the linear extension of E3_{a3 b3} y E2_{a2 b2} x E1_{a1 b1}.
    """
    d1, d2, d3 = phi.dims
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape != (d2, d1):
        raise ShapeError(f"shape: x must be {(d2, d1)}, got {x.shape}")
    if y.shape != (d3, d2):
        raise ShapeError(f"shape: y must be {(d3, d2)}, got {y.shape}")
    return np.einsum("ajcdie,ec,da->ij", phi.data, y, x)


def tau1_apply(p: PairSymbol, x: np.ndarray) -> np.ndarray:
    """One-sided action of a pair symbol: R (x) S acts as x -> S x R.

    On the first leg pair this is tau1 (x is d2 x d1); on the last leg pair,
    S (x) T acting as y -> T y S, it is tau3 (y is d3 x d2).  Both are the
    same contraction, so ``tau3_apply`` is this function.  It acts on the last
    two axes of x: a stack of shape (..., db, da) gives a stack of images,
    so a single matrix is the case with no leading axes.
    """
    da, db = p.leg_dims
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim < 2 or x.shape[-2:] != (db, da):
        raise ShapeError(f"shape: input must be {(db, da)}, got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix entries must be finite")
    return np.einsum("pjiq,...qp->...ij", p.data, x)


tau3_apply = tau1_apply


def extract_U(phi: Symbol3, which: int) -> np.ndarray:
    """Slice family of the symbol along one leg.

    For ``which=1`` returns U with ``U[a2, b2, a3, b3]`` the d1 x d1 matrix
    whose (a1, b1) entry is ``phi[a1, b1, a2, b2, a3, b3]``; these are exactly
    the values of the 4-linear map attached to the bilinear action on the
    rank-one basis (evaluating the action at matrix units reproduces them).
    Analogously for ``which=2`` (d2 x d2 values) and ``which=3``.
    """
    if which == 1:
        return phi.data.transpose(2, 3, 4, 5, 0, 1).copy()
    if which == 2:
        return phi.data.transpose(0, 1, 4, 5, 2, 3).copy()
    if which == 3:
        return phi.data.copy()
    raise ValueError(f"which must be 1, 2 or 3, got {which!r}")


def _projection_violation(phi: Symbol3, t: AlgebraTriple) -> float:
    """Max residual of the slice values after conditional expectation onto M_i."""
    worst = 0.0
    for which, alg in ((1, t.m1), (2, t.m2), (3, t.m3)):
        fam = extract_U(phi, which)
        d = alg.dim
        slices = fam.reshape(-1, d, d)
        resid = np.linalg.norm(slices - alg.project(slices), axis=(1, 2))
        if resid.size:
            worst = max(worst, float(resid.max()))
    return worst


def _direct_violation(phi: Symbol3, t: AlgebraTriple) -> float:
    """Largest violation of the module identities over the leg slices.

    The identities u(Ty, x) = T u(y, x), u(y, xR) = u(y, x) R and
    u(yS, x) = u(y, Sx) are linear in x and y, so checking them on all matrix
    units is the same as requiring each leg slice to commute with the
    commutant.  A slice's violation is the Hilbert-Schmidt norm of
    c -> [c, slice] on the commutant: the root-sum-square of the commutators
    with the trace-orthonormal basis, stacked into one map
    (``commutator_maps``), which does not depend on the basis chosen.
    """
    worst = 0.0
    for which, alg in ((1, t.m1), (2, t.m2), (3, t.m3)):
        d = alg.dim
        maps = commutator_maps(commutant(alg).basis).reshape(-1, d * d)
        slices = extract_U(phi, which).reshape(-1, d * d)
        worst = max(worst, float(np.linalg.norm(slices @ maps.T, axis=1).max()))
    return worst


def is_modular(phi: Symbol3, t: AlgebraTriple) -> tuple[bool, float]:
    """Is the bilinear action of phi a module map for the commutant triple?

    Runs two independent checks: (a) conditional-expectation residuals of the
    slice values against each M_i, and (b) the direct module identities, as
    the commutators of the slices with the commutants.  Both vanish exactly
    when phi lies in M1 (x) M2 (x) M3.  A disagreement beyond 1e-7 * (1 + |phi|)
    signals an implementation bug and raises ModularityMethodMismatch.
    """
    if phi.dims != t.dims:
        raise ShapeError(f"shape: symbol dims {phi.dims} vs algebra dims {t.dims}")
    scale = 1.0 + phi.norm()
    tol = MODULARITY_RTOL * scale
    band = MODULARITY_MISMATCH_RTOL * scale
    v_proj = _projection_violation(phi, t)
    v_direct = _direct_violation(phi, t)
    if (v_proj <= tol < band < v_direct) or (v_direct <= tol < band < v_proj):
        raise ModularityMethodMismatch(
            f"modularity_method_mismatch: projection {v_proj:.3e} vs direct {v_direct:.3e}"
        )
    return (v_proj <= tol and v_direct <= tol), max(v_proj, v_direct)
