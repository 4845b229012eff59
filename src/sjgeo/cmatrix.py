"""Dense complex matrix kernel.

Small, self-contained helpers for the matrix sizes this library actually
meets (everything is <= 10x10): inversion with an explicit pivot guard,
block assembly, the Hermitian positive-definite margin, the max-norm and
the symmetry defect, each of one matrix or of every matrix of a stack,
the seeded draws every random_* builds on, and the JSON wire format
shared by all higher layers.  Backed by numpy
alone, with one algorithm per operation for one matrix and for a stack;
the contracts (shapes, error conditions, tolerances) are what the rest
of the library relies on.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularMatrix",
    "as_cmatrix",
    "frozen",
    "seeded",
    "block",
    "mat_inverse",
    "hermitian_pd_margin",
    "max_abs",
    "mat_max_abs",
    "sym_defect",
    "mat_to_json",
    "mat_from_json",
]

# Relative pivot threshold for inversion: pivots below this times the
# largest entry signal a (numerically) singular input.
PIVOT_RTOL = 1e-12


class SingularMatrix(Exception):
    """Raised when a matrix required to be invertible is numerically singular."""


def as_cmatrix(data) -> np.ndarray:
    """Return a complex128 2-D array, validating shape and finiteness."""
    m = np.asarray(data, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix dimensions must be >= 1, got {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    return m


def frozen(a, dtype, shape: tuple | None = None) -> np.ndarray:
    """A read-only array of ``dtype`` with the values of ``a``; ``shape``,
    when given, is the expected full shape, stack axes included.

    An array that is already read-only, of ``dtype`` and owns its data is
    taken as it is, without a copy (stacked points can be large); any
    other input is copied, so a caller's array never changes flags.
    """
    if not (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.flags.owndata and not a.flags.writeable):
        a = np.array(a, dtype=dtype)
        a.flags.writeable = False
    if shape is not None and a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    return a


def seeded(seed, draw):
    """The tuple of arrays ``draw(rng)`` returns for a generator of ``seed``;
    for an array of seeds, each seed's arrays stacked along a leading axis,
    so that member k is, to the last bit, what seed k draws alone."""
    seeds = np.asarray(seed)
    if seeds.ndim > 1 or not seeds.size:
        raise ValueError(f"expected a seed or a 1-D array of seeds, got shape {seeds.shape}")
    if not (seeds.dtype.kind in "iu" or isinstance(seed, int)):   # no generator, no None
        raise TypeError(f"a seed is an integer, got {type(seed).__name__}")
    if seeds.ndim == 0:
        return draw(np.random.default_rng(seed))
    draws = [draw(np.random.default_rng(s)) for s in seeds.tolist()]
    return tuple(np.stack(arrays) for arrays in zip(*draws))


def max_abs(m) -> float:
    """Max-norm (largest entry magnitude)."""
    return float(np.max(np.abs(np.asarray(m))))


def _per_matrix(values: np.ndarray):
    """A float for one matrix, the array of values for a stack."""
    return float(values) if values.ndim == 0 else values


def mat_max_abs(m):
    """Max-norm of one matrix (a float) or of each matrix of a stack."""
    return _per_matrix(np.max(np.abs(np.asarray(m)), axis=(-2, -1)))


def block(rows) -> np.ndarray:
    """np.block for a grid of matrices that may carry leading stack axes.

    The blocks' stack shapes broadcast against each other; ``None`` is a
    zero block, sized by the other blocks of its block row and column.
    """
    blocks = [b for row in rows for b in row if b is not None]
    heights = [next(b.shape[-2] for b in row if b is not None) for row in rows]
    widths = [next(row[j].shape[-1] for row in rows if row[j] is not None)
              for j in range(len(rows[0]))]
    batch = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    out = np.zeros(batch + (sum(heights), sum(widths)), dtype=np.result_type(*blocks))
    top = 0
    for row, height in zip(rows, heights):
        left = 0
        for b, width in zip(row, widths):
            if b is not None:
                out[..., top: top + height, left: left + width] = b
            left += width
        top += height
    return out


def mat_inverse(m: np.ndarray) -> np.ndarray:
    """Invert a square matrix, or each matrix of a (K, n, n) stack, by
    Gauss-Jordan elimination with partial pivoting.

    One matrix is inverted as a stack of one, so a matrix gets the same
    inverse, to the last bit, alone or in a stack of any size.  Pivots are
    chosen by |Re| + |Im|.  Raises SingularMatrix when the smallest pivot
    of a matrix falls below PIVOT_RTOL times that matrix's largest entry,
    and when an entry is not finite; callers treat that as "the point or
    group element is outside its domain".
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"mat_inverse needs a square matrix or a stack of them, "
                         f"got {m.shape}")
    n = m.shape[-1]
    stack = m.reshape(-1, n, n)
    scale = np.max(np.abs(stack), axis=(-2, -1))
    if np.any(scale == 0.0):
        raise SingularMatrix("zero matrix")
    if not np.all(np.isfinite(scale)):
        raise SingularMatrix("matrix entry is not finite")
    k_count = len(stack)
    aug = np.zeros((k_count, n, 2 * n), dtype=np.complex128)
    aug[:, :, :n] = stack
    aug[:, np.arange(n), n + np.arange(n)] = 1.0
    rows = np.arange(k_count)
    pivots = np.empty((k_count, n))
    for k in range(n):
        col = aug[:, k:, k]
        r = k + np.argmax(np.abs(col.real) + np.abs(col.imag), axis=1)
        if np.any(r != k):   # row swaps; often none in a small stack
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
    # written so that a NaN pivot (an overflow in the elimination) fails too
    failed = ~(low >= PIVOT_RTOL * scale)
    worst = np.argmax(failed)
    if failed[worst]:
        raise SingularMatrix(f"pivot {low[worst]:.3e} below {PIVOT_RTOL:.0e} "
                             f"* {scale[worst]:.3e}")
    return np.ascontiguousarray(aug[:, :, n:]).reshape(m.shape)


def hermitian_pd_margin(m: np.ndarray):
    """Smallest eigenvalue of the Hermitian part of ``m``, per matrix of a stack.

    Positive values measure how far the matrix is inside the
    positive-definite cone; used by samplers to enforce a boundary margin.
    """
    m = np.asarray(m, dtype=np.complex128)
    h = 0.5 * (m + m.conj().mT)
    return _per_matrix(np.linalg.eigvalsh(h).min(axis=-1))


def sym_defect(m: np.ndarray):
    """Max-norm distance from symmetry, ||m - tm||_max.

    A float for one matrix; for a (K, n, n) stack, one defect per matrix.
    """
    m = np.asarray(m)
    return _per_matrix(np.max(np.abs(m - m.mT), axis=(-2, -1)))


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
