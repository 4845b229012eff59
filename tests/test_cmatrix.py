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
    max_abs,
)


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
