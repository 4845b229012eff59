import numpy as np
import pytest

from sjgeo import geometry as geo
from sjgeo import groups as G
from sjgeo.cmatrix import PIVOT_RTOL, SingularMatrix, mat_inverse, max_abs
from sjgeo.metrics import Chart


def _pt_flat(p):
    if isinstance(p, geo.UpperPoint):
        return np.concatenate([p.omega.ravel(), p.z.ravel()])
    return np.concatenate([p.w.ravel(), p.eta.ravel()])


def _rel(a, b):
    d = max_abs(_pt_flat(a) - _pt_flat(b))
    return d / (1 + max(max_abs(_pt_flat(a)), max_abs(_pt_flat(b))))


def test_point_validation():
    p = geo.DiskPoint([[0.2 + 0.1j]], [[1.0]])
    assert geo.validate_point(p) == []
    outside = geo.DiskPoint([[1.5]], [[0.0]])
    assert "positive definite" in geo.validate_point(outside)[0]
    with pytest.raises(ValueError):
        geo.UpperPoint([[1j, 0], [0, 1j]], [[1.0]])  # z has wrong width


def test_validation_matches_the_pivot_guard():
    # margin 1e-8 clears the absolute 1e-9 floor but not PIVOT_RTOL times
    # the largest entry 1e6 of Im Omega, where inverting Im Omega fails
    stiff = geo.UpperPoint(np.diag([1e6j, 1e-8j]), np.zeros((1, 2)))
    assert geo.validate_point(stiff) == ["Im Omega is not positive definite"]
    with pytest.raises(SingularMatrix):
        mat_inverse(stiff.y.astype(complex))
    # the same margin beside a largest entry of 1e3 is accepted and inverts
    milder = geo.UpperPoint(np.diag([1e3j, 1e-8j]), np.zeros((1, 2)))
    assert 1e-8 > PIVOT_RTOL * 1e3
    assert geo.validate_point(milder) == []
    mat_inverse(milder.y.astype(complex))
    # a stacked point is judged point by point
    both = geo.UpperPoint(np.stack([milder.omega, stiff.omega]), np.zeros((2, 1, 2)))
    assert geo.validate_point(both) == [[], ["Im Omega is not positive definite"]]


def test_act_siegel_examples():
    omega = 1j * np.eye(2)
    ident = G.sp_identity(2)
    assert max_abs(geo.act_siegel(ident, omega) - omega) == 0.0
    rot = G.SpElement.from_matrix(G.jmat(2))
    assert max_abs(geo.act_siegel(rot, omega) - omega) < 1e-15


def test_act_upper_translation():
    p = geo.random_point("upper", 2, 1, 0)
    h = G.random_heisenberg(2, 1, 4)
    g = G.JacobiElement(G.sp_identity(2), h)
    moved = geo.act_upper(g, p)
    assert max_abs(moved.omega - p.omega) == 0.0
    expect = p.z + h.lam @ p.omega + h.mu
    assert max_abs(moved.z - expect) < 1e-14


def test_action_axioms_random():
    for seed in range(30):
        n, m = 2, 2
        g1 = G.random_jacobi(n, m, seed)
        g2 = G.random_jacobi(n, m, seed + 500)
        pu = geo.random_point("upper", n, m, seed)
        lhs = geo.act_upper(G.jacobi_mul(g1, g2), pu)
        rhs = geo.act_upper(g1, geo.act_upper(g2, pu))
        assert _rel(lhs, rhs) < 1e-9
        assert geo.validate_point(lhs, strict=False) == []
        pd = geo.random_point("disk", n, m, seed)
        s1, s2 = G.theta_map(g1), G.theta_map(g2)
        lhs_d = geo.act_disk(G.jacobistar_mul(s1, s2), pd)
        rhs_d = geo.act_disk(s1, geo.act_disk(s2, pd))
        assert _rel(lhs_d, rhs_d) < 1e-9
        assert geo.validate_point(lhs_d, strict=False) == []


def test_cayley_values():
    origin = geo.DiskPoint(np.zeros((2, 2)), np.zeros((1, 2)))
    up = geo.cayley(origin)
    assert max_abs(up.omega - 1j * np.eye(2)) == 0.0
    assert max_abs(up.z) == 0.0
    back = geo.cayley_inv(up)
    assert max_abs(back.w) == 0.0
    half = geo.DiskPoint([[0.5]], [[0.0]])
    assert geo.cayley(half).omega[0, 0] == pytest.approx(3j)
    three_i = geo.UpperPoint([[3j]], [[0.0]])
    assert geo.cayley_inv(three_i).w[0, 0] == pytest.approx(0.5)


def test_cayley_roundtrips():
    for seed in range(50):
        pd = geo.random_point("disk", 2, 2, seed)
        assert _rel(geo.cayley_inv(geo.cayley(pd)), pd) < 1e-12
        pu = geo.random_point("upper", 2, 2, seed + 999)
        assert _rel(geo.cayley(geo.cayley_inv(pu)), pu) < 1e-12


def test_cayley_boundary_raises():
    boundary = geo.DiskPoint.__new__(geo.DiskPoint)
    object.__setattr__(boundary, "w", np.array([[1.0 + 0j]]))
    object.__setattr__(boundary, "eta", np.zeros((1, 1), dtype=complex))
    with pytest.raises(SingularMatrix):
        geo.cayley(boundary)


def test_cayley_compat():
    assert geo.check_cayley_compat(
        G.jacobi_identity(1, 1), geo.DiskPoint([[0.0]], [[0.0]])) == 0.0
    for seed in range(30):
        g = G.random_jacobi(2, 2, seed)
        p = geo.random_point("disk", 2, 2, seed + 5)
        lhs = geo.act_upper(g, geo.cayley(p))
        scale = 1 + max(max_abs(lhs.omega), max_abs(lhs.z))
        assert geo.check_cayley_compat(g, p) / scale < 1e-9


def test_hc_route_matches_action():
    for seed in range(30):
        s = G.random_jacobistar(2, 2, seed)
        p = geo.random_point("disk", 2, 2, seed + 17)
        assert _rel(geo.hc_pplus_component(s, p), geo.act_disk(s, p)) < 1e-9
    # identity and a diagonal rotation element
    p = geo.random_point("disk", 2, 1, 3)
    e = G.jacobistar_identity(2, 1)
    assert _rel(geo.hc_pplus_component(e, p), p) < 1e-14


def test_random_point_properties():
    a = geo.random_point("disk", 2, 2, 8)
    b = geo.random_point("disk", 2, 2, 8)
    assert _rel(a, b) == 0.0
    for seed in range(200):
        p = geo.random_point("disk", 2, 1, seed)
        assert geo.point_margin(p) >= 0.1
        u = geo.random_point("upper", 2, 1, seed)
        assert geo.validate_point(u) == []
    with pytest.raises(ValueError):
        geo.random_point("nowhere", 1, 1, 0)


def test_point_json_roundtrip():
    for model in ("upper", "disk"):
        p = geo.random_point(model, 2, 1, 4)
        back = geo.point_from_json(geo.point_to_json(p))
        assert _rel(back, p) == 0.0


def _blocks(p):
    return (p.omega, p.z) if isinstance(p, geo.UpperPoint) else (p.w, p.eta)


@pytest.mark.parametrize("model", ["upper", "disk"])
def test_fresh_points_are_read_only_and_own_their_blocks(model):
    # the chart and the actions hand their new arrays to the point, which
    # takes them without a copy; they share no memory with the inputs
    chart = Chart(model, 2, 1)
    p = geo.random_point(model, 2, 1, np.arange(3))
    v = chart.point_to_vec(p)
    g = G.random_jacobi(2, 1, np.arange(3))
    if model == "upper":
        moved, inputs = geo.act_upper(g, p), (p.omega, p.z, g.sp.a, g.h.lam)
    else:
        s = G.theta_map(g)
        moved, inputs = geo.act_disk(s, p), (p.w, p.eta, s.g.p, s.xi)
    for q, sources in ((chart.vec_to_point(v), (v,)), (moved, inputs)):
        for block in _blocks(q):
            assert not block.flags.writeable
            assert not any(np.shares_memory(block, src) for src in sources)


@pytest.mark.parametrize("point", [geo.UpperPoint, geo.DiskPoint])
def test_points_copy_a_callers_writable_arrays(point):
    mat = np.array([[0.1 + 0.5j, 0.0], [0.0, 0.2 + 0.5j]])
    vec = np.array([[0.3 + 0.1j, 0.4]])
    p = point(mat, vec)
    for block, src in zip(_blocks(p), (mat, vec)):
        assert not block.flags.writeable and not np.shares_memory(block, src)
    assert mat.flags.writeable and vec.flags.writeable
