"""Dense complex matrix kernel.

Small, self-contained helpers for the matrix sizes this library actually
meets (everything is <= 10x10): inversion with an explicit pivot guard,
of one matrix or of each matrix of a stack, trace, the transpose-sandwich
form A[B] = tB A B, Hermitian positive-definiteness tests, and the JSON
wire format shared by all higher layers.  Backed by numpy/scipy; the
contracts (shapes, error conditions, tolerances) are what the rest of the
library relies on.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularMatrix",
    "as_cmatrix",
    "mat_inverse",
    "trace",
    "bracket_form",
    "is_hermitian_pd",
    "hermitian_pd_margin",
    "max_abs",
    "sym_defect",
    "mat_to_json",
    "mat_from_json",
]

# Relative pivot threshold for LU inversion: pivots below this times the
# largest entry signal a (numerically) singular input.
PIVOT_RTOL = 1e-12


class SingularMatrix(Exception):
    """Raised when a matrix required to be invertible is numerically singular."""


def as_cmatrix(data, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Return a complex128 2-D array, validating shape and finiteness."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {m.shape}")
    if rows is not None and m.shape[0] != rows:
        raise ValueError(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise ValueError(f"expected {cols} cols, got {m.shape[1]}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def max_abs(m) -> float:
    """Max-norm (largest entry magnitude)."""
    return float(np.max(np.abs(np.asarray(m))))


def mat_inverse(m: np.ndarray) -> np.ndarray:
    """Invert a square matrix, or each matrix of a (K, n, n) stack, by
    elimination with partial pivoting.

    Raises SingularMatrix when the smallest pivot of a matrix falls below
    PIVOT_RTOL times that matrix's largest entry; callers treat that as
    "the point or group element is outside its domain".
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"mat_inverse needs a square matrix or a stack of them, "
                         f"got {m.shape}")
    if m.ndim == 3:
        return _inverse_stack(m)
    # Deferred: importing scipy.linalg is most of the package's import time,
    # which every `sjgeo eval` / `sample` call would pay up front.
    from scipy.linalg import lapack

    scale = float(np.abs(m).max())
    if scale == 0.0:
        raise SingularMatrix("zero matrix")
    lu, piv, _ = lapack.zgetrf(m)
    _pivot_guard(float(np.abs(lu.diagonal()).min()), scale)
    inv, _ = lapack.zgetri(lu, piv)
    return inv


def _pivot_guard(pivot: float, scale: float):
    if pivot < PIVOT_RTOL * scale:
        raise SingularMatrix(f"pivot {pivot:.3e} below {PIVOT_RTOL:.0e} * {scale:.3e}")


def _inverse_stack(m: np.ndarray) -> np.ndarray:
    """Gauss-Jordan elimination vectorized over a (K, n, n) stack.

    Pivots are chosen by |Re| + |Im| as LAPACK's getrf does, so each
    matrix meets the guard of the single-matrix path on its own scale.
    """
    scale = np.max(np.abs(m), axis=(-2, -1))
    if np.any(scale == 0.0):
        raise SingularMatrix("zero matrix")
    k_count, n, _ = m.shape
    aug = np.zeros((k_count, n, 2 * n), dtype=np.complex128)
    aug[:, :, :n] = m
    aug[:, np.arange(n), n + np.arange(n)] = 1.0
    rows = np.arange(k_count)
    pivots = np.empty((k_count, n))
    for k in range(n):
        col = aug[:, k:, k]
        r = k + np.argmax(np.abs(col.real) + np.abs(col.imag), axis=1)
        top = aug[rows, k].copy()
        aug[rows, k] = aug[rows, r]
        aug[rows, r] = top
        p = aug[:, k, k].copy()
        pivots[:, k] = np.abs(p)
        # A zero pivot fails the guard below; dividing by 1 keeps the rest finite.
        aug[:, k] /= np.where(p == 0.0, 1.0, p)[:, None]
        # Row by row, so the temporaries stay one row of the stack in size.
        for i in range(n):
            if i != k:
                aug[:, i] -= aug[:, i, k, None] * aug[:, k]
    low = pivots.min(axis=-1)
    worst = np.argmax(low < PIVOT_RTOL * scale)
    _pivot_guard(low[worst], scale[worst])
    return np.ascontiguousarray(aug[:, :, n:])


def trace(m: np.ndarray) -> complex:
    """Trace of a square matrix."""
    m = np.asarray(m)
    if m.shape[-1] != m.shape[-2]:
        raise ValueError(f"trace needs a square matrix, got {m.shape}")
    return complex(np.trace(m)) if m.ndim == 2 else np.trace(m, axis1=-2, axis2=-1)


def bracket_form(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sandwich tB A B for a k x k matrix A and k x l matrix B."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"first argument must be square, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"shapes do not conform: {a.shape} vs {b.shape}")
    return b.T @ a @ b


def hermitian_pd_margin(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of ``m``.

    Positive values measure how far the matrix is inside the
    positive-definite cone; used by samplers to enforce a boundary margin.
    """
    m = np.asarray(m, dtype=np.complex128)
    h = 0.5 * (m + m.conj().T)
    return float(np.linalg.eigvalsh(h).min())


def is_hermitian_pd(m: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff ``m`` is Hermitian within ``tol`` and positive definite."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"is_hermitian_pd needs a square matrix, got {m.shape}")
    if max_abs(m - m.conj().T) > tol:
        return False
    return hermitian_pd_margin(m) > tol


def sym_defect(m: np.ndarray):
    """Max-norm distance from symmetry, ||m - tm||_max.

    A float for one matrix; for a (K, n, n) stack, one defect per matrix.
    """
    m = np.asarray(m)
    defect = np.max(np.abs(m - m.mT), axis=(-2, -1))
    return float(defect) if m.ndim == 2 else defect


def mat_to_json(m: np.ndarray) -> dict:
    """Wire form: {"rows": r, "cols": c, "data": [[re, im], ...]} row-major."""
    m = as_cmatrix(m)
    data = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def mat_from_json(obj: dict) -> np.ndarray:
    """Inverse of mat_to_json, with shape validation."""
    rows, cols = int(obj["rows"]), int(obj["cols"])
    data = obj["data"]
    if len(data) != rows * cols:
        raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
    flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    return as_cmatrix(flat.reshape(rows, cols))
