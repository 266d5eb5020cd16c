"""Symbols of bilinear multipliers.

Two representations are used throughout:

* ``Symbol3`` -- a 6-index tensor ``phi[a1, b1, a2, b2, a3, b3]`` giving the
  coefficients of a symbol in the matrix-unit expansion
  ``sum phi[...] E1_{a1 b1} (x) E2_{a2 b2} (x) E3_{a3 b3}``.  The middle leg
  carries the opposite multiplication; that affects products of symbols only
  (see :mod:`bimult.factorize`), never this storage layout.
* ``SchurSymbol`` -- a 3-index tensor ``s[t1, t2, t3]`` over finite index sets
  with counting measure, the kernel of a bilinear Schur multiplier.

The fixed index order ``(a1, b1, a2, b2, a3, b3)``, row-major, is the single
convention every contraction in this package is written against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .linalg import ShapeError, as_matrix

if TYPE_CHECKING:  # pragma: no cover
    from .algebra import AlgebraTriple


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic counter-based generator; extra ints select substreams.

    Every seed of the library reaches this function, and it must be >= 0.
    Seed 0 is reserved for documentation examples.
    """
    if int(seed) < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    """Entrywise re+im standard normal draws."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _validate(data: np.ndarray, ndim: int) -> np.ndarray:
    arr = np.ascontiguousarray(data, dtype=np.complex128)
    if arr.ndim != ndim or min(arr.shape) < 1:
        raise ShapeError(f"shape: expected a {ndim}-index array with positive dims, "
                         f"got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("symbol entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SchurSymbol:
    """3-index kernel s[t1, t2, t3] over finite sets with counting measure.

    ``data`` is read-only, so results derived from it can be kept on the
    symbol: ``norms.slice_gamma2`` stores its per-slice gamma2 results in
    ``_slice_gamma2``, keyed by tolerance.  That store takes no part in
    ``repr``, equality or pickling.
    """

    data: np.ndarray
    _slice_gamma2: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "data", _validate(self.data, 3))

    def __reduce__(self):
        # rebuild through __init__: read-only data again, and an empty store
        return (SchurSymbol, (self.data,))

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def slice_at(self, t2: int) -> np.ndarray:
        """The n1 x n3 matrix M[t1, t3] = s[t1, t2, t3] at a fixed middle index."""
        n2 = self.data.shape[1]
        if not 0 <= t2 < n2:
            raise IndexError(f"middle index {t2} out of range [0, {n2})")
        return self.data[:, t2, :].copy()


@dataclass(frozen=True)
class Symbol3:
    """6-index coefficient tensor of a symbol in M_{d1} (x) M_{d2}^op (x) M_{d3}."""

    data: np.ndarray

    def __post_init__(self):
        arr = _validate(self.data, 6)
        if arr.shape[0] != arr.shape[1] or arr.shape[2] != arr.shape[3] or arr.shape[4] != arr.shape[5]:
            raise ShapeError(f"shape: leg index pairs must match, got {arr.shape}")
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[0], self.data.shape[2], self.data.shape[4]

    def norm(self) -> float:
        """Euclidean norm of the 6-index coefficient tensor."""
        return float(np.linalg.norm(self.data))


def sup_norm(s: SchurSymbol) -> float:
    """Largest entry modulus; equals the S2->S2 (and S2xS2->B) multiplier norm."""
    return float(np.abs(s.data).max()) if s.data.size else 0.0


def embed_schur(s: SchurSymbol) -> Symbol3:
    """Embed a Schur kernel as a diagonal 6-index symbol.

    phi[a1, b1, a2, b2, a3, b3] = s[a1, a2, a3] * delta_{a1 b1} delta_{a2 b2} delta_{a3 b3},
    i.e. each L-infinity leg becomes the corresponding multiplication operator.
    """
    n1, n2, n3 = s.dims
    out = np.zeros((n1, n1, n2, n2, n3, n3), dtype=np.complex128)
    i1 = np.arange(n1)[:, None, None]
    i2 = np.arange(n2)[None, :, None]
    i3 = np.arange(n3)[None, None, :]
    out[i1, i1, i2, i2, i3, i3] = s.data
    return Symbol3(out)


def elementary_symbol(r: np.ndarray, s: np.ndarray, t: np.ndarray) -> Symbol3:
    """The symbol of the elementary tensor R (x) S (x) T."""
    r = as_matrix(r)
    s = as_matrix(s)
    t = as_matrix(t)
    for m in (r, s, t):
        if m.shape[0] != m.shape[1]:
            raise ShapeError(f"shape: elementary legs must be square, got {m.shape}")
    return Symbol3(np.einsum("ab,cd,ef->abcdef", r, s, t))


def as_operator(phi: Symbol3) -> np.ndarray:
    """Realize the symbol as a matrix on C^{d1 d2 d3} (plain Kronecker legs).

    Row index (a1, a2, a3), column index (b1, b2, b3).  Used for norm checks of
    embedded (diagonal) symbols; it does not encode the opposite multiplication
    of the middle leg.
    """
    d1, d2, d3 = phi.dims
    n = d1 * d2 * d3
    return phi.data.transpose(0, 2, 4, 1, 3, 5).reshape(n, n).copy()


def random_symbol_in(t: "AlgebraTriple", seed: int) -> Symbol3:
    """Random member of M1 (x) M2 (x) M3: standard-normal combination of basis tensors."""
    rng = make_rng(seed)
    b1 = np.stack(t.m1.basis)
    b2 = np.stack(t.m2.basis)
    b3 = np.stack(t.m3.basis)
    coeff = complex_normal(rng, (b1.shape[0], b2.shape[0], b3.shape[0]))
    data = np.einsum("ijk,iab,jcd,kef->abcdef", coeff, b1, b2, b3)
    return Symbol3(data)
