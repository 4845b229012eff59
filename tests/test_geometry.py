import hashlib
from functools import partial

import numpy as np
import pytest

from sjgeo import geometry as geo
from sjgeo import groups as G
from sjgeo.cmatrix import PIVOT_RTOL, SingularMatrix, mat_inverse
from sjgeo.metrics import Chart


def max_abs(x) -> float:
    """Largest entry magnitude of an array."""
    return float(np.max(np.abs(x)))


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


# ---------------------------------------------------------------------------
# The bits of the three actions, pinned: blake2b of the moved blocks at
# (1,1), (2,1) and (3,2).  Each digest was taken on an earlier memory
# layout of the actions (the first three cases before they laid stacks out
# stack-last, the 200-element cases on that layout), so they pin that the
# memory order changes no bit.  Five cases: one element moving a stack of
# 1153 points (the size of one sample's stencil at (3,2)), a stack of
# elements against a stack of as many points, one element moving one
# point, and the traffic of the stacked checks: 200 elements against 200
# points, and 200 elements moving one point (a broadcast).

def _action_case(case: str):
    """The element's seed and the points' seed of a case."""
    if case == "stencil":
        return 3, 1000 + np.arange(1153)
    if case == "stacked":
        return np.arange(5), 100 + np.arange(5)
    if case == "stacked-200":
        return np.arange(200), 300 + np.arange(200)
    if case == "one-point-200":
        return np.arange(200), 7
    return 3, 7


def _digest(blocks) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for block in blocks:
        digest.update(np.ascontiguousarray(block).tobytes())
    return digest.hexdigest()


def _action_bits(action: str, case: str, n: int, m: int) -> str:
    g_seed, p_seed = _action_case(case)
    g = G.random_jacobi(n, m, g_seed)
    if action == "siegel":
        blocks = (geo.act_siegel(g.sp, geo.random_point("upper", n, m, p_seed).omega),)
    elif action == "upper":
        blocks = _blocks(geo.act_upper(g, geo.random_point("upper", n, m, p_seed)))
    else:
        blocks = _blocks(geo.act_disk(G.theta_map(g), geo.random_point("disk", n, m, p_seed)))
    return _digest(blocks)


ACTION_DIGESTS = {
    ("siegel", "stencil", 1, 1): "6532c1b2d24050aaf31b911f84a60ea2",
    ("siegel", "stencil", 2, 1): "9130d445bd7464d1456f91b8e5d4e496",
    ("siegel", "stencil", 3, 2): "1436dee0f5711a167c00411569704fee",
    ("siegel", "stacked", 1, 1): "6b5f57789b1bb40c10e860d1a85e68dc",
    ("siegel", "stacked", 2, 1): "216a019f5b09b84a095f5a6e0107a5b3",
    ("siegel", "stacked", 3, 2): "7684bb9d3957f1ce448cd5fe552c9d35",
    ("siegel", "single", 1, 1): "4b2a187a3b377f9bde5340575a10e0cf",
    ("siegel", "single", 2, 1): "951c29d7f6cc672b57219cbb2093c026",
    ("siegel", "single", 3, 2): "a16636c7fce477913e20cf39ac096bed",
    ("upper", "stencil", 1, 1): "bac7a95d5b1db8b558956141089e6f91",
    ("upper", "stencil", 2, 1): "5133e258927b7ded8e4421fc8b72e28e",
    ("upper", "stencil", 3, 2): "e52befba4952aa5edc36bfa848e6bf2f",
    ("upper", "stacked", 1, 1): "2030ae859590f77b6589940fe34ff085",
    ("upper", "stacked", 2, 1): "59f6a34557ec5fdb7dc378faf9f2a048",
    ("upper", "stacked", 3, 2): "c4b95125c70677ca82212257b7456982",
    ("upper", "single", 1, 1): "c90f0a314d875913e4ce9f378467385f",
    ("upper", "single", 2, 1): "2467189b229ee8d3006fe5ed28bd1667",
    ("upper", "single", 3, 2): "cd96ab29ab28e69ec8d945b9dd0cb6a3",
    ("disk", "stencil", 1, 1): "c0fa80782cd797b85452ae3839bdea4d",
    ("disk", "stencil", 2, 1): "bc738edfc0463501cc2e6b60da3a279e",
    ("disk", "stencil", 3, 2): "f11e73220fe91705f7f344ca4b773e6f",
    ("disk", "stacked", 1, 1): "3bc5e83f34b826856048256875a667a5",
    ("disk", "stacked", 2, 1): "6130567e5a59dce1d2e7ccf33d18a1ce",
    ("disk", "stacked", 3, 2): "01cb08d41b92723165c8357b7c513190",
    ("disk", "single", 1, 1): "b8b99d41e1e8c42eeed37129704dcdb2",
    ("disk", "single", 2, 1): "3508df6bc61a66a555823b113842d29c",
    ("disk", "single", 3, 2): "be18eb89d22d1eda88e7528e2e8975ec",
    ("siegel", "stacked-200", 1, 1): "b079d8eebd71e35a8ccc08f6b769acc1",
    ("siegel", "stacked-200", 2, 1): "a683404220b23b6f96a8d8377a95b588",
    ("siegel", "stacked-200", 3, 2): "94da279426a1c8f93a276ab9db8cc0db",
    ("siegel", "one-point-200", 1, 1): "8dafdbf3136ca95d3547d0b3cafd6200",
    ("siegel", "one-point-200", 2, 1): "1817100d50254a312e6c6588e559d2cf",
    ("siegel", "one-point-200", 3, 2): "d556d7bcacff9647c8252c9e71b70951",
    ("upper", "stacked-200", 1, 1): "7c007ff81a615979cdbd6d856117039b",
    ("upper", "stacked-200", 2, 1): "12c0cee82966c97fb8feadbf34c93b89",
    ("upper", "stacked-200", 3, 2): "fee505054109841ab879acdc125cf388",
    ("upper", "one-point-200", 1, 1): "9c5d8a671d248d34a38a236e5accdf77",
    ("upper", "one-point-200", 2, 1): "ca0741c83a3352e2bfd8f412d3ccc486",
    ("upper", "one-point-200", 3, 2): "846c491d858e09b2387a4d91a24e9386",
    ("disk", "stacked-200", 1, 1): "a05566d2f96472ccdf7165da94909f1c",
    ("disk", "stacked-200", 2, 1): "66ce3845acef2f7682499ebb4b3bb697",
    ("disk", "stacked-200", 3, 2): "5034ca8f6e58d4b7351ecacdae5a3b54",
    ("disk", "one-point-200", 1, 1): "b63d167c70ddad70f4110b65bfb09bf4",
    ("disk", "one-point-200", 2, 1): "f7e5277a08cf1482be53d3707e057f17",
    ("disk", "one-point-200", 3, 2): "d3c4a3b86dd2beb32765a5c20092825b",
}


@pytest.mark.parametrize("action,case,n,m", list(ACTION_DIGESTS))
def test_action_bits_are_pinned(action, case, n, m):
    assert _action_bits(action, case, n, m) == ACTION_DIGESTS[action, case, n, m]


# The bits of action_differential on the full chart's slot basis (the
# complex Jacobian the invariance checks pull bundles back with), pinned
# in both models for a stack of elements at as many points and for one
# element at one point, taken on the stack-last layout as well.

def _differential_bits(model: str, case: str, n: int, m: int) -> str:
    g_seed, p_seed = _action_case(case)
    g = G.random_jacobi(n, m, g_seed)
    p = geo.random_point(model, n, m, p_seed)
    if model == "upper":
        q = geo.act_upper(g, p)
    else:
        g = G.theta_map(g)
        q = geo.act_disk(g, p)
    return _digest(geo.action_differential(g, p, q, *Chart(model, n, m).slot_basis()))


DIFFERENTIAL_DIGESTS = {
    ("upper", "stacked", 1, 1): "d6205275b36ca9b174dc96e01df80b4b",
    ("upper", "stacked", 2, 1): "867dc7437d8e7abb5dc2a3f0dd69fe5d",
    ("upper", "stacked", 3, 2): "b4ffce68c52654ed5be32176a363e9ec",
    ("upper", "single", 1, 1): "9c98815005b4626c56d031183911039a",
    ("upper", "single", 2, 1): "2d240cdb86b0d0b1c5bc617c5661511b",
    ("upper", "single", 3, 2): "65f3ae666dea0ca5307a2acce3ce7d23",
    ("disk", "stacked", 1, 1): "d1a8fd8629ab6cc1d8ad8fefdce5a9c3",
    ("disk", "stacked", 2, 1): "a04b22886635e2f6d4b9acf487e9889c",
    ("disk", "stacked", 3, 2): "9f3ef2dd025564e8aaae22e7b4ef4f83",
    ("disk", "single", 1, 1): "9f53139e907e36020b528a3c41a4100c",
    ("disk", "single", 2, 1): "ffdd2ad621beb6168b45ac82acf13c8a",
    ("disk", "single", 3, 2): "e0182e5f110ad323412be29f4857de03",
}


@pytest.mark.parametrize("model,case,n,m", list(DIFFERENTIAL_DIGESTS))
def test_action_differential_bits_are_pinned(model, case, n, m):
    assert _differential_bits(model, case, n, m) == DIFFERENTIAL_DIGESTS[model, case, n, m]


@pytest.mark.parametrize("model", ["upper", "disk", "cayley"])
def test_closed_form_differentials_invert_nothing(monkeypatch, model):
    # (CX + D)^-1 is read off the image (Siegel's identity), so a
    # differential given p and its image q inverts no matrix
    g = G.random_jacobi(2, 1, 5)
    p = geo.random_point("upper" if model == "upper" else "disk", 2, 1, 6)
    if model == "upper":
        differential, q = partial(geo.action_differential, g), geo.act_upper(g, p)
    elif model == "disk":
        s = G.theta_map(g)
        differential, q = partial(geo.action_differential, s), geo.act_disk(s, p)
    else:
        differential, q = geo.cayley_differential, geo.cayley(p)
    calls = []

    def counted(mat):
        calls.append(mat.shape)
        return mat_inverse(mat)
    monkeypatch.setattr(geo, "mat_inverse", counted)
    differential(p, q, *Chart(p.model, 2, 1).slot_basis())
    assert calls == []


# ---------------------------------------------------------------------------
# The actions' contracts


def _moved_with_inputs(action: str, g_seed, p_seed):
    """The blocks of an action's image and the arrays it was computed from."""
    g = G.random_jacobi(2, 1, g_seed)
    if action == "siegel":
        omega = geo.random_point("upper", 2, 1, p_seed).omega
        return (geo.act_siegel(g.sp, omega),), (omega, g.sp.a, g.sp.b, g.sp.c, g.sp.d)
    if action == "upper":
        p = geo.random_point("upper", 2, 1, p_seed)
        return _blocks(geo.act_upper(g, p)), (p.omega, p.z, g.sp.a, g.sp.b, g.sp.c,
                                                g.sp.d, g.h.lam, g.h.mu)
    s = G.theta_map(g)
    p = geo.random_point("disk", 2, 1, p_seed)
    return _blocks(geo.act_disk(s, p)), (p.w, p.eta, s.g.p, s.g.q, s.xi)


@pytest.mark.parametrize("action", ["siegel", "upper", "disk"])
@pytest.mark.parametrize("g_seed,p_seed", [(1, 2), (1, np.arange(4)), (np.arange(4), np.arange(4))])
def test_moved_blocks_are_read_only_own_their_data_and_share_nothing(action, g_seed, p_seed):
    blocks, inputs = _moved_with_inputs(action, g_seed, p_seed)
    for block in blocks:
        assert not block.flags.writeable and block.flags.owndata
        assert block.flags.c_contiguous
        assert not any(np.shares_memory(block, src) for src in inputs)


def _heisenberg_zero(n, m, batch=()):
    return G.HeisenbergElement(np.zeros(batch + (m, n)), np.zeros(batch + (m, n)),
                               np.zeros(batch + (m, m)))


def _singular_cases():
    """Each action with a denominator C X + D that is exactly singular:
    diag(0, i) for the upper actions, diag(0, 0.1) for the disk."""
    sp = G.SpElement(np.zeros((2, 2)), np.eye(2), np.eye(2), np.diag([-1.0, 0.0]))
    omega = np.diag([1.0, 1j])
    star = G.JacobiStarElement(G.GStarElement(-np.diag([0.5, 0.1]), np.eye(2)),
                               np.zeros((1, 2)), np.zeros((1, 1)))
    w = np.diag([0.5, 0.2]).astype(complex)
    return {
        "siegel": lambda: geo.act_siegel(sp, omega),
        "upper": lambda: geo.act_upper(G.JacobiElement(sp, _heisenberg_zero(2, 1)),
                                       geo.UpperPoint(omega, np.zeros((1, 2)))),
        "disk": lambda: geo.act_disk(star, geo.DiskPoint(w, np.zeros((1, 2)))),
        # a stack whose middle point is the singular one
        "upper-stacked": lambda: geo.act_upper(
            G.JacobiElement(sp, _heisenberg_zero(2, 1)),
            geo.UpperPoint(np.stack([1j * np.eye(2), omega, 2j * np.eye(2)]),
                           np.zeros((3, 1, 2)))),
        "disk-stacked": lambda: geo.act_disk(star, geo.DiskPoint(
            np.stack([np.zeros((2, 2)), w, 0.1 * np.eye(2)]), np.zeros((3, 1, 2)))),
    }


@pytest.mark.parametrize("case,message", [
    ("siegel", "pivot 0.000e+00 below 1e-12 * 1.000e+00"),
    ("upper", "pivot 0.000e+00 below 1e-12 * 1.000e+00"),
    ("disk", "pivot 0.000e+00 below 1e-12 * 1.000e-01"),
    ("upper-stacked", "pivot 0.000e+00 below 1e-12 * 1.000e+00"),
    ("disk-stacked", "pivot 0.000e+00 below 1e-12 * 1.000e-01"),
])
def test_singular_denominator_message(case, message):
    with pytest.raises(SingularMatrix) as info:
        _singular_cases()[case]()
    assert str(info.value) == message


def test_asymmetric_image_message():
    # not symplectic, so the image (A Omega + B)(C Omega + D)^-1 is not symmetric
    sp = G.SpElement(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 2)),
                     np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError) as info:
        geo.act_siegel(sp, 1j * np.eye(2))
    assert str(info.value) == "siegel action produced an asymmetric result (defect 1.000e+00)"
    g = G.JacobiElement(sp, _heisenberg_zero(2, 1))
    with pytest.raises(ValueError) as info:
        geo.act_upper(g, geo.UpperPoint(1j * np.eye(2), np.zeros((1, 2))))
    assert str(info.value) == "siegel action produced an asymmetric result (defect 1.000e+00)"
    star = G.JacobiStarElement(G.GStarElement(np.eye(2), [[0.0, 1.0], [0.0, 0.0]]),
                               np.zeros((1, 2)), np.zeros((1, 1)))
    with pytest.raises(ValueError) as info:
        geo.act_disk(star, geo.DiskPoint(0.5 * np.eye(2), np.zeros((1, 2))))
    assert str(info.value) == "disk action produced an asymmetric result (defect 7.500e-01)"
