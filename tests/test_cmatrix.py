import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sjgeo.cmatrix import (
    SingularMatrix,
    frozen,
    hermitian_pd_margin,
    mat_from_json,
    mat_inverse,
    mat_mul,
    mat_to_json,
)


def max_abs(x) -> float:
    """Largest entry magnitude of an array."""
    return float(np.max(np.abs(x)))


def _rand_complex(rng, rows, cols):
    return rng.uniform(-1, 1, (rows, cols)) + 1j * rng.uniform(-1, 1, (rows, cols))


def test_inverse_identity():
    assert max_abs(mat_inverse(np.eye(3)) - np.eye(3)) == 0.0


def test_inverse_scalar():
    assert mat_inverse(np.array([[2.0]]))[0, 0] == pytest.approx(0.5)


def test_inverse_residual_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = np.eye(3) + 0.5 * _rand_complex(rng, 3, 3)
        assert max_abs(m @ mat_inverse(m) - np.eye(3)) < 1e-10 * max(1.0, max_abs(m))


def test_inverse_involution():
    rng = np.random.default_rng(1)
    m = np.eye(3) + 0.5 * _rand_complex(rng, 3, 3)
    assert max_abs(mat_inverse(mat_inverse(m)) - m) < 1e-10


def test_singular_raises():
    with pytest.raises(SingularMatrix):
        mat_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrix):
        mat_inverse(np.zeros((2, 2)))


def test_nan_raises():
    # a NaN compares false with the pivot bound, so the guard must fail on it
    with pytest.raises(SingularMatrix):
        mat_inverse(np.full((1, 2, 2), np.nan + 0j))
    stack = np.stack([np.eye(2), np.eye(2), np.eye(2)]).astype(complex)
    stack[1, 0, 1] = np.nan
    with pytest.raises(SingularMatrix):
        mat_inverse(stack)


def test_frozen():
    a = np.ones((2, 2))
    f = frozen(a, np.complex128, (2, 2))
    assert f.dtype == np.complex128 and not f.flags.writeable
    assert a.flags.writeable   # the caller's array is copied, not frozen
    assert frozen(f, np.complex128) is f   # already frozen: taken as it is
    with pytest.raises(ValueError, match="expected shape"):
        frozen(a, np.float64, (3, 2))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_transpose_of_product(seed):
    # t(AB) = tB tA for commuting entries; identical sums up to BLAS
    # reassociation of the additions
    rng = np.random.default_rng(seed)
    a = _rand_complex(rng, 2, 3)
    b = _rand_complex(rng, 3, 4)
    assert max_abs((a @ b).T - b.T @ a.T) < 1e-15


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_transpose_shuffle_identity(seed):
    # t(A t(BC)) = B t(A tC) on conforming triples
    rng = np.random.default_rng(seed)
    k, l, nn, mm = 2, 4, 3, 5
    a = _rand_complex(rng, k, l)
    b = _rand_complex(rng, nn, mm)
    c = _rand_complex(rng, mm, l)
    lhs = (a @ (b @ c).T).T
    rhs = b @ (a @ c.T).T
    assert max_abs(lhs - rhs) < 1e-13 * (1 + max_abs(lhs))


def _rel_to_matmul(a, b) -> float:
    want = a @ b
    return max_abs(mat_mul(a, b) - want) / max_abs(want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_mat_mul_square_matches_matmul(n):
    rng = np.random.default_rng(n)
    assert _rel_to_matmul(_rand_complex(rng, n, n), _rand_complex(rng, n, n)) < 1e-14


def test_mat_mul_rectangular_matches_matmul():
    rng = np.random.default_rng(4)
    n, m = 3, 2
    vec, sq = _rand_complex(rng, m, n), _rand_complex(rng, n, n)
    assert _rel_to_matmul(vec, sq) < 1e-14          # m x n by n x n
    assert _rel_to_matmul(sq, vec.mT) < 1e-14       # n x n by n x m
    assert mat_mul(sq, vec.mT).shape == (n, m)


def test_mat_mul_broadcasts_one_matrix_against_a_stack():
    rng = np.random.default_rng(5)
    one = _rand_complex(rng, 3, 3)
    stack = np.stack([_rand_complex(rng, 3, 3) for _ in range(7)])
    assert mat_mul(one, stack).shape == mat_mul(stack, one).shape == (7, 3, 3)
    assert _rel_to_matmul(one, stack) < 1e-14
    assert _rel_to_matmul(stack, one) < 1e-14


def test_mat_mul_real_times_complex():
    rng = np.random.default_rng(6)
    real = rng.uniform(-1, 1, (2, 3))
    cplx = _rand_complex(rng, 3, 3)
    assert mat_mul(real, cplx).dtype == np.complex128
    assert _rel_to_matmul(real, cplx) < 1e-14
    assert _rel_to_matmul(cplx, real.T) < 1e-14


def test_mat_mul_rejects_mismatched_inner_sizes():
    with pytest.raises(ValueError, match="inner sizes"):
        mat_mul(np.ones((2, 3)), np.ones((2, 3)))


@pytest.mark.parametrize("size", [1, 2, 5, 17, 1153])
def test_mat_mul_member_of_a_stack_is_its_product_alone(size):
    rng = np.random.default_rng(size)
    a = rng.uniform(-1, 1, (size, 3, 3)) + 1j * rng.uniform(-1, 1, (size, 3, 3))
    b = rng.uniform(-1, 1, (size, 3, 2)) + 1j * rng.uniform(-1, 1, (size, 3, 2))
    stacked = mat_mul(a, b)
    for k in {0, size // 2, size - 1}:
        assert np.array_equal(stacked[k], mat_mul(a[k], b[k]))
        assert np.array_equal(stacked[k], mat_mul(a[k: k + 1], b[k: k + 1])[0])


def _stack_last(x):
    """One matrix as it is, a (K, r, c) stack as a view of (r, c, K) memory."""
    return x if x.ndim == 2 else np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)


def _is_stack_last(x):
    return x.ndim == 2 or x.transpose(1, 2, 0).flags.c_contiguous


# Products of stack-last operands ("mul_last"): mat_mul and mat_inverse
# give any memory order the bits of C-contiguous stacks.  Every broadcast
# of a Moebius map: one element (K = 1) against a stack of points, a stack
# against a stack, one against one, a stack of elements against one
# point; real blocks (A, C, lambda) times complex ones, complex times
# complex, and the sum times the inverse of a stack-last stack.
@pytest.mark.parametrize("ka,kb", [(None, 1153), (7, 7), (None, None), (7, None), (1, 7)])
@pytest.mark.parametrize("rows,n", [(3, 3), (2, 3), (2, 2), (1, 2), (1, 1)])
@pytest.mark.parametrize("real_left", [True, False])
def test_mul_last_is_mat_mul_bit_for_bit(ka, kb, rows, n, real_left):
    rng = np.random.default_rng(rows * 10 + n)
    a_shape = (rows, n) if ka is None else (ka, rows, n)
    b_shape = (n, n) if kb is None else (kb, n, n)
    a = rng.uniform(-1, 1, a_shape) + (0 if real_left else 1j * rng.uniform(-1, 1, a_shape))
    b = rng.uniform(-1, 1, b_shape) + 1j * rng.uniform(-1, 1, b_shape)
    want = mat_mul(a, b)
    got = mat_mul(_stack_last(a), _stack_last(b))
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    if kb is not None:   # a stack on the right keeps the product stack-last
        assert _is_stack_last(got)
    m = np.eye(n) + 0.1 * b
    want_inv = mat_inverse(m)
    assert want_inv.flags.c_contiguous and want_inv.flags.owndata
    view = _stack_last(m)
    inv = mat_inverse(view)
    assert inv.tobytes() == want_inv.tobytes()
    assert inv.flags.owndata and inv.strides == view.strides
    got = mat_mul(_stack_last(a), inv)
    assert got.tobytes() == mat_mul(a, want_inv).tobytes()


def test_mul_last_rejects_mismatched_inner_sizes():
    # stack-last views of (2, 3) matrices: the inner sizes 3 and 2 differ
    a = _stack_last(np.ones((1, 2, 3)))
    with pytest.raises(ValueError, match="inner sizes"):
        mat_mul(a, a)


def test_hermitian_pd():
    assert hermitian_pd_margin(np.eye(3)) == pytest.approx(1.0)
    assert hermitian_pd_margin(np.diag([1.0, -1.0])) == pytest.approx(-1.0)
    w = 0.5 * np.eye(2)
    assert hermitian_pd_margin(np.eye(2) - w.conj().T @ w) == pytest.approx(0.75)


def test_json_roundtrip():
    rng = np.random.default_rng(3)
    m = _rand_complex(rng, 2, 3)
    obj = mat_to_json(m)
    assert obj["rows"] == 2 and obj["cols"] == 3 and len(obj["data"]) == 6
    assert max_abs(mat_from_json(obj) - m) == 0.0


def test_json_rejects_bad_count():
    with pytest.raises(ValueError):
        mat_from_json({"rows": 2, "cols": 2, "data": [[1.0, 0.0]]})


# ---------------------------------------------------------------------------
# The bits of mat_inverse, pinned: a reordered elimination or a change of
# layout that moves a bit shows here even where a matrix alone and in a
# stack still agree with each other.


def _inverse_stack(n: int) -> np.ndarray:
    """Every row permutation of three random matrices (12 random row
    permutations of each at n = 5), so at n = 3 every pattern of row swaps
    occurs at every step."""
    rng = np.random.default_rng(50 + n)
    bases = [_rand_complex(rng, n, n) for _ in range(3)]
    perms = (list(itertools.permutations(range(n))) if n <= 3
             else [rng.permutation(n) for _ in range(12)])
    return np.stack([b[list(perm)] for b in bases for perm in perms])


def _bits(x: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(x).tobytes(), digest_size=16).hexdigest()


# blake2b of mat_inverse(_inverse_stack(n)), computed before the elimination
# moved to its (n, 2n, K) working array
INVERSE_DIGESTS = {
    1: "32f5ed4bf687b5c43743e93f174cb88f",
    2: "1b9208ed6ccd42f6501639fbebfb6efd",
    3: "d0d26e2f4fbd3f7266a6752415593ff7",
    5: "15c92dfce64c1913d522bec19a7b61ec",
}


@pytest.mark.parametrize("n", sorted(INVERSE_DIGESTS))
def test_inverse_bits_are_pinned_alone_and_in_the_stack(n):
    stack = _inverse_stack(n)
    inv = mat_inverse(stack)
    assert _bits(inv) == INVERSE_DIGESTS[n]
    for k, one in enumerate(stack):
        assert mat_inverse(one).tobytes() == inv[k].tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 7, 200])
def test_inverse_commutes_with_conjugation_bit_for_bit(n, k):
    # the pivot rule |Re| + |Im| and every step are symmetric under
    # conjugation, so the metric forms may conjugate one inverse for another
    rng = np.random.default_rng(60 + n)
    swaps = _inverse_stack(n)    # every pattern of row swaps at n <= 3
    stack = np.concatenate([swaps, [_rand_complex(rng, n, n) for _ in range(k)]])[:k]
    for a in (stack, stack[0]):
        assert mat_inverse(a.conj()).tobytes() == mat_inverse(a).conj().tobytes()


def test_inverse_stack_holds_every_row_permutation():
    stack = _inverse_stack(3)
    for start in range(0, len(stack), 6):
        base = stack[start]
        assert ({bytes(m) for m in stack[start: start + 6]}
                == {bytes(base[list(perm)]) for perm in itertools.permutations(range(3))})


@pytest.mark.parametrize("m,message", [
    (np.array([[1.0, 2.0], [2.0, 4.0]]), "pivot 0.000e+00 below 1e-12 * 4.000e+00"),
    (np.zeros((2, 2)), "zero matrix"),
    (np.full((1, 2, 2), np.nan + 0j), "matrix entry is not finite"),
    (np.array([np.eye(2), [[1.0, np.nan], [0.0, 1.0]], np.eye(2)]),
     "matrix entry is not finite"),
])
def test_singular_messages(m, message):
    with pytest.raises(SingularMatrix) as info:
        mat_inverse(m)
    assert str(info.value) == message
