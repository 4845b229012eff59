"""Dense complex matrix kernel.

Small, self-contained helpers for the matrix sizes this library actually
meets (everything is <= 10x10): the product of small matrices or of
stacks of them (mat_mul: the metric forms and the fields multiply a
stack of stencil nodes or oracle points with it, not with one BLAS call
per matrix), inversion with an explicit pivot guard (mat_inverse), block
assembly, the Hermitian positive-definite margin, the max-norm and the
symmetry defect, each of one matrix or of every matrix of a stack, the
seeded draws every random_* builds on (one generator per seed for the
raw draws; the arithmetic runs on the stack), and the JSON wire format
shared by all higher layers.

mat_mul and mat_inverse take stacks in any memory order and keep it: a
stack laid out stack-last, as (K, r, c) views of (r, c, K) memory, gets
stack-last products and inverses, with the bits of a C-contiguous stack.

Backed by numpy alone, with one algorithm per operation for one matrix
and for a stack, in any memory order, so a matrix gets the same bits
alone or in any stack; the contracts (shapes, error conditions, tolerances)
are what the rest of the library relies on.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularMatrix",
    "as_cmatrix",
    "frozen",
    "seeded",
    "block",
    "mat_mul",
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
    other input is copied, so a caller's array never changes flags.  The
    library's own producers (the chart's unpacking, act_upper, act_disk)
    mark the arrays they have just made, and alone hold, read-only before
    they hand them over, so a fresh point is built without a second copy.
    """
    if not (isinstance(a, np.ndarray) and a.dtype == dtype
            and a.flags.owndata and not a.flags.writeable):
        a = np.array(a, dtype=dtype)
        a.flags.writeable = False
    if shape is not None and a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    return a


def seeded(seed, sizes, draw, build) -> tuple:
    """A seeded draw: ``draw(rng)`` makes one seed's raw ``integers`` and
    ``uniform`` calls on a generator of that seed and returns them as
    arrays of a fixed shape; ``build`` takes those arrays stacked along a
    leading axis, one member per seed, and does all the arithmetic once on
    the stack.

    ``seed`` is an integer or a 1-D array of them, and a single seed is a
    stack of one: the result is the tuple ``build`` returns, or member 0 of
    each of its arrays.  Member k of a stacked draw is, to the last bit,
    what seed k draws alone.  ``sizes`` are the draw's matrix dimensions
    (n, and m where it has one); each must be >= 1.
    """
    if any(size < 1 for size in sizes):
        raise ValueError("n and m must be >= 1")
    seeds = np.asarray(seed)
    if seeds.ndim > 1 or not seeds.size:
        raise ValueError(f"expected a seed or a 1-D array of seeds, got shape {seeds.shape}")
    # no generator, no None, no bool (a bool is an int to Python, not to numpy)
    if seeds.dtype.kind == "b" or not (seeds.dtype.kind in "iu" or isinstance(seed, int)):
        raise TypeError(f"a seed is an integer, got {type(seed).__name__}")
    raws = [draw(np.random.default_rng(s)) for s in seeds.reshape(-1).tolist()]
    built = build(*(np.stack(arrays) for arrays in zip(*raws)))
    return built if seeds.ndim else tuple(a[0] for a in built)


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


def mat_mul(a, b) -> np.ndarray:
    """The product a @ b of two matrices, or of the matrices of stacks
    whose leading axes broadcast as they do for ``@``.

    The inner index is summed in a fixed order, term k added to the sum of
    terms 0..k-1, with elementwise products only: no BLAS call and no
    einsum, whose rounding may depend on the size or layout of the stack.
    So a matrix gets the same product, to the last bit, alone or in a
    stack of any size.  On a stack of small matrices this is also much
    faster than ``@``, which makes one BLAS call per matrix.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ValueError(f"mat_mul needs matrices with matching inner sizes, "
                         f"got {a.shape} and {b.shape}")
    out = a[..., :, :1] * b[..., :1, :]
    if a.shape[-1] > 1:
        term = np.empty_like(out)   # one temporary, reused for every k
        for k in range(1, a.shape[-1]):
            np.multiply(a[..., :, k: k + 1], b[..., k: k + 1, :], out=term)
            out += term
    return out


def mat_inverse(m: np.ndarray) -> np.ndarray:
    """Invert a square matrix, or each matrix of a (K, n, n) stack, by
    Gauss-Jordan elimination with partial pivoting.

    The elimination runs on one (n, 2n, K) working array, [m | I], with
    the stack axis last, so each row operation is one pass over
    contiguous memory for the whole stack.  Step k updates only columns
    k + 1 onward, the only ones a later step reads, and swaps rows under
    a mask per candidate row.  One matrix is inverted as a stack of one,
    and every entry sees the same operations in the same order wherever
    its matrix sits, so a matrix gets the same inverse, to the last bit,
    alone or in a stack of any size.  The inverse is a new array in the
    memory order of ``m``: a C-contiguous stack gets a C-contiguous
    inverse, and a (K, n, n) view of stack-last memory a stack-last one.
    Pivots are chosen by |Re| + |Im|.  Raises SingularMatrix when the
    smallest pivot of a matrix falls below PIVOT_RTOL times that matrix's
    largest entry, and when an entry is not finite; callers treat that as
    "the point or group element is outside its domain".
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"mat_inverse needs a square matrix or a stack of them, "
                         f"got {m.shape}")
    n = m.shape[-1]
    stack = m.reshape(-1, n, n)
    aug = np.zeros((n, 2 * n, len(stack)), dtype=np.complex128)
    aug[:, :n] = stack.transpose(1, 2, 0)
    scale = np.max(np.abs(aug[:, :n]), axis=(0, 1))
    if np.any(scale == 0.0):
        raise SingularMatrix("zero matrix")
    if not np.all(np.isfinite(scale)):
        raise SingularMatrix("matrix entry is not finite")
    aug[np.arange(n), n + np.arange(n)] = 1.0
    pivots = np.empty((n, len(stack)))
    for k in range(n):
        last = k == n - 1   # no row below the pivot: no search, no swap
        if not last:
            col = aug[k:, k]
            r = k + np.argmax(np.abs(col.real) + np.abs(col.imag), axis=0)
            for i in range(k + 1, n):   # swap rows k and i where row i holds the pivot
                swap = r == i
                if swap.any():
                    top = aug[k, k:].copy()
                    np.copyto(aug[k, k:], aug[i, k:], where=swap)
                    np.copyto(aug[i, k:], top, where=swap)
        p = aug[k, k]
        pivots[k] = np.abs(p)
        # A zero pivot fails the guard below; dividing by 1 keeps the rest finite.
        aug[k, k + 1:] /= np.where(p == 0.0, 1.0, p)
        # The rows above and below the pivot.  Column k is not written, so
        # the multipliers stay as they were.
        if k:
            aug[:k, k + 1:] -= aug[:k, k, None] * aug[k, k + 1:]
        if not last:
            aug[k + 1:, k + 1:] -= aug[k + 1:, k, None] * aug[k, k + 1:]
    low = pivots.min(axis=0)
    # written so that a NaN pivot (an overflow in the elimination) fails too
    failed = ~(low >= PIVOT_RTOL * scale)
    worst = np.argmax(failed)
    if failed[worst]:
        raise SingularMatrix(f"pivot {low[worst]:.3e} below {PIVOT_RTOL:.0e} "
                             f"* {scale[worst]:.3e}")
    out = np.empty_like(m)
    out[...] = aug[:, n:].transpose(2, 0, 1).reshape(m.shape)
    return out


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
