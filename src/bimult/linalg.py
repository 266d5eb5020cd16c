"""Dense complex linear algebra kernel.

Matrices are 2-D complex128 ndarrays ("target x source" for operators).
Everything here is a pure function of its inputs; results are fresh arrays.
Factorizations are delegated to LAPACK through numpy, behind the small
contracts the rest of the package relies on (descending singular values,
clip-based PSD projection).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent ("shape" errors)."""


class ConvergenceError(RuntimeError):
    """An iterative factorization failed to converge."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, validating finiteness."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeError(f"shape: expected a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


@dataclass(frozen=True)
class SVDResult:
    """Thin SVD a = u @ diag(sigma) @ v.conj().T, sigma descending."""

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.sigma) @ self.v.conj().T


def svd(a: np.ndarray) -> SVDResult:
    a = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceError(f"svd_convergence: {exc}") from exc
    return SVDResult(u=u, sigma=s, v=vh.conj().T)


def singular_values(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.svd(np.asarray(a, dtype=np.complex128), compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"svd_convergence: {exc}") from exc


def schatten_norm(a: np.ndarray, p) -> float:
    """Schatten norm for p in {1, 2, inf}.

    p=2 is computed straight from the entries (Frobenius), not via SVD.
    """
    a = np.asarray(a, dtype=np.complex128)
    if p == 2:
        return float(np.linalg.norm(a))
    if p == 1:
        return float(singular_values(a).sum())
    if p in ("inf", np.inf, float("inf")):
        s = singular_values(a)
        return float(s[0]) if s.size else 0.0
    raise ValueError(f"unsupported Schatten exponent {p!r}")


def eigh(h: np.ndarray):
    """Eigendecomposition of the Hermitian part of h, ascending eigenvalues."""
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise ShapeError(f"shape: expected square matrix, got {h.shape}")
    sym = 0.5 * (h + h.conj().T)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise ConvergenceError(f"eig_convergence: {exc}") from exc
    return w, v


def psd_project(h: np.ndarray) -> np.ndarray:
    """Nearest (Frobenius) PSD matrix: symmetrize, clip negative eigenvalues."""
    w, v = eigh(h)
    w = np.clip(w, 0.0, None)
    out = (v * w) @ v.conj().T
    return 0.5 * (out + out.conj().T)
