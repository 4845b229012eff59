import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sjgeo import groups as G
from sjgeo.cmatrix import max_abs


def _flat_h(h):
    return np.concatenate([h.lam.ravel(), h.mu.ravel(), h.kappa.ravel()])


def _flat_j(g):
    return np.concatenate([g.sp.matrix().ravel(), _flat_h(g.h)])


def _flat_s(s):
    return np.concatenate([s.g.p.ravel(), s.g.q.ravel(), s.xi.ravel(),
                           s.kappa.astype(complex).ravel()])


def test_heisenberg_scalar_case():
    x = G.HeisenbergElement([[1.0]], [[0.0]], [[0.0]])
    y = G.HeisenbergElement([[0.0]], [[1.0]], [[0.0]])
    z = G.heisenberg_mul(x, y)
    assert z.lam[0, 0] == 1 and z.mu[0, 0] == 1 and z.kappa[0, 0] == 1


def test_heisenberg_identity_and_inverse():
    e = G.heisenberg_identity(2, 2)
    x = G.random_heisenberg(2, 2, 0)
    assert max_abs(_flat_h(G.heisenberg_mul(x, e)) - _flat_h(x)) == 0.0
    inv = G.heisenberg_inverse(x)
    assert max_abs(_flat_h(G.heisenberg_mul(x, inv))) < 1e-12
    one = G.HeisenbergElement([[1.0]], [[1.0]], [[1.0]])
    back = G.heisenberg_inverse(one)
    assert back.lam[0, 0] == -1 and back.mu[0, 0] == -1 and back.kappa[0, 0] == -1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_heisenberg_associative(seed):
    xs = [G.random_heisenberg(2, 2, seed + k) for k in range(3)]
    lhs = G.heisenberg_mul(G.heisenberg_mul(xs[0], xs[1]), xs[2])
    rhs = G.heisenberg_mul(xs[0], G.heisenberg_mul(xs[1], xs[2]))
    assert max_abs(_flat_h(lhs) - _flat_h(rhs)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_heisenberg_invariant_preserved(seed):
    x = G.random_heisenberg(3, 2, seed)
    y = G.random_heisenberg(3, 2, seed + 1)
    assert G.heisenberg_defect(x) < 1e-12
    assert G.heisenberg_defect(G.heisenberg_mul(x, y)) < 1e-12


def test_jacobi_identity_law():
    g = G.random_jacobi(2, 1, 5)
    e = G.jacobi_identity(2, 1)
    assert max_abs(_flat_j(G.jacobi_mul(g, e)) - _flat_j(g)) == 0.0
    assert max_abs(_flat_j(G.jacobi_mul(e, g)) - _flat_j(g)) < 1e-15


def test_jacobi_translation_part():
    # (M, 0) * (I, h) keeps h untouched
    g = G.random_jacobi(2, 2, 9)
    m_only = G.JacobiElement(g.sp, G.heisenberg_identity(2, 2))
    h = G.random_heisenberg(2, 2, 1)
    h_only = G.JacobiElement(G.sp_identity(2), h)
    prod = G.jacobi_mul(m_only, h_only)
    assert max_abs(prod.h.lam - h.lam) == 0.0
    assert max_abs(prod.h.mu - h.mu) == 0.0
    assert max_abs(prod.h.kappa - h.kappa) == 0.0


def test_jacobi_group_laws_random():
    for seed in range(30):
        g1 = G.random_jacobi(3, 2, seed)
        g2 = G.random_jacobi(3, 2, seed + 100)
        g3 = G.random_jacobi(3, 2, seed + 200)
        lhs = G.jacobi_mul(G.jacobi_mul(g1, g2), g3)
        rhs = G.jacobi_mul(g1, G.jacobi_mul(g2, g3))
        scale = 1 + max_abs(_flat_j(lhs))
        assert max_abs(_flat_j(lhs) - _flat_j(rhs)) / scale < 1e-12
        inv = G.jacobi_mul(g1, G.jacobi_inverse(g1))
        assert max_abs(_flat_j(inv) - _flat_j(G.jacobi_identity(3, 2))) < 1e-9
        assert G.sp_defect(lhs.sp) < 1e-10 * scale
        assert G.heisenberg_defect(lhs.h) < 1e-10 * scale


def _random_sp_reference(n, rng):
    # the generator product as full 2n x 2n matrices, as np.block builds them
    mat = np.eye(2 * n)
    for _ in range(int(rng.integers(4, 9))):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            b = rng.uniform(-1.0, 1.0, size=(n, n))
            gen = np.block([[np.eye(n), 0.5 * (b + b.T)], [np.zeros((n, n)), np.eye(n)]])
        elif kind == 1:
            a = np.eye(n) + 0.3 * rng.uniform(-1.0, 1.0, size=(n, n))
            gen = np.block([[a, np.zeros((n, n))], [np.zeros((n, n)), np.linalg.inv(a).T]])
        else:
            gen = G.jmat(n)
        mat = mat @ gen
    return mat


def test_random_sp_matches_full_matrix_product():
    # column blocks give the same draws as the full products, up to the order
    # of summation
    for n in (1, 2, 3):
        for seed in range(20):
            got = G.random_sp(n, seed).matrix()
            want = _random_sp_reference(n, np.random.default_rng(seed))
            scale = 1.0 + max_abs(want)
            assert max_abs(got - want) <= 1e-14 * scale
            assert G.sp_defect(G.SpElement.from_matrix(got)) < 1e-12 * scale ** 2


def test_theta_identity_and_rotation():
    e = G.theta_map(G.jacobi_identity(2, 1))
    assert max_abs(e.g.p - np.eye(2)) == 0.0 and max_abs(e.g.q) == 0.0
    assert max_abs(e.xi) == 0.0 and max_abs(e.kappa) == 0.0
    j_elem = G.JacobiElement(G.SpElement.from_matrix(G.jmat(2)),
                             G.heisenberg_identity(2, 1))
    th = G.theta_map(j_elem)
    assert max_abs(th.g.p - 1j * np.eye(2)) == 0.0
    assert max_abs(th.g.q) == 0.0


def test_theta_homomorphism_and_conjugation():
    for seed in range(30):
        g1 = G.random_jacobi(2, 2, seed)
        g2 = G.random_jacobi(2, 2, seed + 1000)
        lhs = G.theta_map(G.jacobi_mul(g1, g2))
        rhs = G.jacobistar_mul(G.theta_map(g1), G.theta_map(g2))
        scale = 1 + max_abs(_flat_s(lhs))
        assert max_abs(_flat_s(lhs) - _flat_s(rhs)) / scale < 1e-12
        t = G.tstar(4)
        conj = np.linalg.inv(t) @ G.embed_sp(g1) @ t
        assert max_abs(conj - G.star_matrix(G.theta_map(g1))) / scale < 1e-12


def test_embed_sp_properties():
    e = G.embed_sp(G.jacobi_identity(2, 1))
    assert max_abs(e - np.eye(6)) == 0.0
    for seed in range(20):
        g1 = G.random_jacobi(2, 1, seed)
        g2 = G.random_jacobi(2, 1, seed + 77)
        e1, e2 = G.embed_sp(g1), G.embed_sp(g2)
        j = G.jmat(3)
        scale = 1 + max_abs(e1) ** 2
        assert max_abs(e1.T @ j @ e1 - j) / scale < 1e-12
        assert max_abs(G.embed_sp(G.jacobi_mul(g1, g2)) - e1 @ e2) / scale < 1e-12


def test_jacobistar_inverse_and_closure():
    for seed in range(20):
        s = G.random_jacobistar(2, 2, seed)
        e = G.jacobistar_mul(s, G.jacobistar_inverse(s))
        ident = G.jacobistar_identity(2, 2)
        assert max_abs(_flat_s(e) - _flat_s(ident)) < 1e-9
        assert G.jacobistar_defect(s) < 1e-10 * (1 + max_abs(s.g.p) ** 2)


def test_complex_heisenberg_consistency():
    # the disk-model law is the restriction of the complexified one
    for seed in range(20):
        s1 = G.random_jacobistar(2, 1, seed)
        s2 = G.random_jacobistar(2, 1, seed + 31)
        direct = G.jacobistar_mul(s1, s2)
        c1 = G.ComplexJacobiElement(
            s1.g.matrix(), G.ComplexHeisenbergElement(s1.xi, s1.xi.conj(), 1j * s1.kappa))
        c2 = G.ComplexJacobiElement(
            s2.g.matrix(), G.ComplexHeisenbergElement(s2.xi, s2.xi.conj(), 1j * s2.kappa))
        via = G.cjacobi_mul(c1, c2)
        n = 2
        assert max_abs(via.mat[:n, :n] - direct.g.p) < 1e-12
        assert max_abs(via.h.xi - direct.xi) < 1e-12
        assert max_abs(via.h.zeta - 1j * direct.kappa) < 1e-12
        assert G.cheisenberg_defect(via.h) < 1e-12


def test_random_jacobi_determinism_and_validity():
    a = G.random_jacobi(2, 1, 11)
    b = G.random_jacobi(2, 1, 11)
    assert max_abs(_flat_j(a) - _flat_j(b)) == 0.0
    c = G.random_jacobi(2, 1, 12)
    assert max_abs(_flat_j(a) - _flat_j(c)) > 1e-3
    for seed in range(50):
        g = G.random_jacobi(3, 2, seed)
        assert G.sp_defect(g.sp) < 1e-10 * (1 + max_abs(g.sp.matrix()) ** 2)
        assert G.heisenberg_defect(g.h) < 1e-12


def test_element_json_roundtrip():
    g = G.random_jacobi(2, 2, 3)
    back = G.element_from_json(G.element_to_json(g))
    assert max_abs(_flat_j(back) - _flat_j(g)) == 0.0
    s = G.random_jacobistar(2, 2, 3)
    back_s = G.element_from_json(G.element_to_json(s))
    assert max_abs(_flat_s(back_s) - _flat_s(s)) == 0.0


def test_bad_sizes_rejected():
    with pytest.raises(ValueError):
        G.random_jacobi(0, 1, 1)
    with pytest.raises(ValueError):
        G.heisenberg_mul(
            G.heisenberg_identity(1, 1), G.heisenberg_identity(2, 1))
