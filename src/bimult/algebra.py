"""Finite-dimensional von Neumann algebra machinery.

A ``MatrixAlgebra`` is a unital *-subalgebra of d x d matrices, stored through
an orthonormal basis with respect to the normalized trace inner product
``<A, B> = tr(A* B) / d`` (which makes the identity a unit vector).  One
null-space solve gives the commutant of a set of matrices and their adjoints.
By von Neumann's double commutant theorem the unital *-algebra generated by a
set S is (S u S*)'', so generation is that solve run twice; the presets have
exact bases.  The module also provides trace-orthogonal conditional
expectations and membership tests for triple tensor products of algebras,
which project one tensor leg at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ShapeError, as_matrix
from .symbols import Symbol3

# With every generator scaled to unit Frobenius norm, a singular value of the
# stacked commutator maps <= NULLSPACE_RTOL counts as a null direction.
NULLSPACE_RTOL = 1e-10
MEMBERSHIP_RTOL = 1e-8


@dataclass(frozen=True)
class MatrixAlgebra:
    """Unital *-subalgebra of M_d given by generators plus an orthonormal basis."""

    dim: int
    generators: tuple[np.ndarray, ...]
    basis: tuple[np.ndarray, ...]

    def __post_init__(self):
        for m in (*self.generators, *self.basis):
            if m.shape != (self.dim, self.dim):
                raise ShapeError(f"shape: algebra element {m.shape} in dimension {self.dim}")

    @property
    def size(self) -> int:
        return len(self.basis)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the span of the basis, on the last two axes of x.

        The leading axes are a stack: each d x d matrix of x is projected.
        """
        d = self.dim
        basis = np.stack(self.basis).reshape(self.size, d * d)
        flat = np.reshape(x, (*x.shape[:-2], d * d))
        return ((flat @ basis.conj().T / d) @ basis).reshape(x.shape)


@dataclass(frozen=True)
class AlgebraTriple:
    m1: MatrixAlgebra
    m2: MatrixAlgebra
    m3: MatrixAlgebra

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.m1.dim, self.m2.dim, self.m3.dim


def commutator_maps(mats) -> np.ndarray:
    """Matrices of X -> MX - XM on row-major vectorized X, one per M, stacked.

    Returns an (m, d*d, d*d) array for m matrices of size d x d: entry
    [(i, k), (j, l)] is M[i, j] delta(k, l) - delta(i, j) M[l, k], which is
    kron(M, I) - kron(I, M^T).
    """
    mats = np.asarray(mats, dtype=np.complex128)
    m, d, _ = mats.shape
    eye = np.eye(d)
    maps = np.einsum("nij,kl->nikjl", mats, eye) - np.einsum("ij,nlk->nikjl", eye, mats)
    return maps.reshape(m, d * d, d * d)


def _commutant_basis(dim: int, mats) -> tuple[np.ndarray, ...]:
    """Trace-orthonormal basis of {X : MX = XM for every M in mats}.

    The constraints are linear in X, so this is the null space of the stacked
    commutator maps (``commutator_maps``), read off the SVD.  Only the given
    matrices are stacked: a caller whose span is not *-closed passes the
    adjoints too.  Each matrix is scaled to unit norm (zero ones impose
    nothing), so the threshold NULLSPACE_RTOL does not depend on their scale.
    """
    norms = [np.linalg.norm(m) for m in mats]
    unit = [m / n for m, n in zip(mats, norms) if n > 0.0]
    if unit:
        rows = commutator_maps(unit).reshape(-1, dim * dim)
        _, sigma, vh = np.linalg.svd(rows, full_matrices=False)
        null = vh[int(np.sum(sigma > NULLSPACE_RTOL)):].conj()
    else:
        null = np.eye(dim * dim, dtype=np.complex128)
    return tuple(np.sqrt(dim) * vec.reshape(dim, dim) for vec in null)


def _with_adjoints(gens) -> list[np.ndarray]:
    """Each generator followed by its adjoint."""
    return [h for g in gens for h in (g, g.conj().T)]


def generate_algebra(dim: int, generators) -> MatrixAlgebra:
    """Smallest unital *-algebra containing the generators.

    By the double commutant theorem this is the commutant of the commutant of
    the generators and their adjoints; the basis is read off the second
    null-space solve.  That solve stacks the first one's basis alone, since
    the commutant of a *-closed set is *-closed.  The generators are kept as
    given.
    """
    gens = tuple(as_matrix(g) for g in generators)
    for g in gens:
        if g.shape != (dim, dim):
            raise ShapeError(f"shape: generator {g.shape} for dimension {dim}")
    basis = _commutant_basis(dim, _commutant_basis(dim, _with_adjoints(gens)))
    return MatrixAlgebra(dim=dim, generators=gens, basis=basis)


def commutant(a: MatrixAlgebra) -> MatrixAlgebra:
    """Commutant {X : XG = GX for the generators G and their adjoints}.

    The null space of the stacked commutator maps of the generators and their
    adjoints, as in ``generate_algebra``.  Using the generators only (not the
    full basis) is equivalent and cheaper.
    """
    basis = _commutant_basis(a.dim, _with_adjoints(a.generators))
    return MatrixAlgebra(dim=a.dim, generators=basis, basis=basis)


def conditional_expectation(x: np.ndarray, a: MatrixAlgebra) -> np.ndarray:
    """Trace-orthogonal projection onto the algebra.

    Idempotent, unital, trace-preserving and Hermitian-preserving because the
    basis span is a unital *-closed subspace.
    """
    x = as_matrix(x)
    if x.shape != (a.dim, a.dim):
        raise ShapeError(f"shape: expected {(a.dim, a.dim)}, got {x.shape}")
    return a.project(x)


def _project_legs(data: np.ndarray, algs) -> np.ndarray:
    """Project leg k of data onto algs[k], for every k.

    The legs are the last 2 * len(algs) axes, an index pair each; any axes
    before them are a stack.  The projection onto a tensor product of spans
    is the product of the projections of its legs.
    """
    lead = data.ndim - 2 * len(algs)
    for k, alg in enumerate(algs):
        legs = (lead + 2 * k, lead + 2 * k + 1)
        data = np.moveaxis(alg.project(np.moveaxis(data, legs, (-2, -1))), (-2, -1), legs)
    return data


def project_symbol(phi: Symbol3, t: AlgebraTriple) -> Symbol3:
    """Orthogonal projection of phi onto span{b1 (x) b2 (x) b3}."""
    if phi.dims != t.dims:
        raise ShapeError(f"shape: symbol dims {phi.dims} vs algebra dims {t.dims}")
    return Symbol3(_project_legs(phi.data, (t.m1, t.m2, t.m3)))


def tensor_membership(phi: Symbol3, t: AlgebraTriple) -> tuple[bool, float]:
    """Does phi lie in M1 (x) M2 (x) M3 (as a linear subspace)?

    Projects the 6-index tensor onto span{b1 (x) b2 (x) b3} over the three
    orthonormal bases; the opposite multiplication on the middle leg does not
    change the subspace.  Returns (member, residual) with membership decided
    at residual <= 1e-8 * (1 + |phi|).
    """
    recon = project_symbol(phi, t)
    residual = float(np.linalg.norm(phi.data - recon.data))
    return residual <= MEMBERSHIP_RTOL * (1.0 + phi.norm()), residual


def pair_membership_residual(data: np.ndarray, ma: MatrixAlgebra,
                             mb: MatrixAlgebra) -> np.ndarray:
    """Projection residuals of a stack of 4-index tensors onto span{b_a (x) b_b}.

    data has shape (..., da, da, db, db); the result has the leading shape,
    one Frobenius residual per member (a 0-d array for a single tensor).
    """
    da, db = ma.dim, mb.dim
    if data.ndim < 4 or data.shape[-4:] != (da, da, db, db):
        raise ShapeError(f"shape: pair tensor {data.shape} vs dims {(da, db)}")
    resid = data - _project_legs(data, (ma, mb))
    return np.linalg.norm(resid.reshape(*data.shape[:-4], da * da * db * db), axis=-1)


def _block_algebra(dim: int, sizes) -> MatrixAlgebra:
    """Block-diagonal algebra: the matrix units inside the blocks, scaled to unit norm."""
    units = []
    off = 0
    for k in sizes:
        for i in range(off, off + k):
            for j in range(off, off + k):
                e = np.zeros((dim, dim), dtype=np.complex128)
                e[i, j] = 1.0
                units.append(e)
        off += k
    scale = np.sqrt(dim)  # trace-normalized units have norm 1/sqrt(d)
    return MatrixAlgebra(dim=dim, generators=tuple(units), basis=tuple(scale * u for u in units))


def preset_algebra(name: str, dim: int) -> MatrixAlgebra:
    """Named presets: "full", "diagonal", "scalar", "block:<k1+k2+...>".

    Each has an exact basis, with no generation: "full" is one block,
    "diagonal" has blocks of size 1, and "scalar" is spanned by the identity.
    """
    name = name.strip().lower()
    if name == "full":
        return _block_algebra(dim, [dim])
    if name == "scalar":
        return MatrixAlgebra(dim=dim, generators=(), basis=(np.eye(dim, dtype=np.complex128),))
    if name == "diagonal":
        return _block_algebra(dim, [1] * dim)
    if name.startswith("block:"):
        sizes = [int(p) for p in name.split(":", 1)[1].split("+")]
        if any(k <= 0 for k in sizes) or sum(sizes) != dim:
            raise ShapeError(f"shape: block sizes {sizes} do not partition dimension {dim}")
        return _block_algebra(dim, sizes)
    raise ValueError(f"unknown algebra preset {name!r}")
