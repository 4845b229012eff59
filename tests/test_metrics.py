import numpy as np
import pytest

from sjgeo import geometry as geo
from sjgeo import metrics as me
from sjgeo.cmatrix import mat_inverse, max_abs

UNIT = me.MetricParams(1.0, 1.0)


def _exact_cayley_differential(p, t):
    n = p.n
    inv = mat_inverse(np.eye(n) - p.w)
    d_omega = 2j * inv @ t.dmat @ inv
    d_z = 2j * (t.dvec + p.eta @ inv @ t.dmat) @ inv
    return me.Tangent("upper", 0.5 * (d_omega + d_omega.T), d_z)


def test_siegel_form_values():
    t = me.Tangent("upper", [[1.0]], [[0.0]])
    assert me.q_siegel(np.array([[1j]]), t) == pytest.approx(1.0)
    zero = me.Tangent("upper", [[0.0]], [[0.0]])
    assert me.q_siegel(np.array([[1j]]), zero) == 0.0


def test_upper_form_at_base_point():
    # at Omega = iI, Z = 0 the cross terms vanish
    p = geo.UpperPoint(1j * np.eye(2), np.zeros((2, 2)))
    t = me.random_tangent("upper", 2, 2, 0)
    params = me.MetricParams(1.7, 0.4)
    expect = 1.7 * np.trace(t.dmat @ t.dmat.conj()).real \
        + 0.4 * np.trace(t.dvec.T @ t.dvec.conj()).real
    assert me.q_upper(p, t, params) == pytest.approx(expect, rel=1e-12)


def test_disk_form_origin_values():
    p = geo.DiskPoint([[0.0]], [[0.0]])
    assert me.q_disk(p, me.Tangent("disk", [[1.0]], [[0.0]]), UNIT) == pytest.approx(4.0)
    assert me.q_disk(p, me.Tangent("disk", [[0.0]], [[1.0]]), UNIT) == pytest.approx(4.0)


def test_disk_n_form():
    t = me.Tangent("disk", [[1.0]], [[0.0]])
    assert me.q_disk_n(np.zeros((1, 1)), t) == pytest.approx(4.0)
    zero = me.Tangent("disk", [[0.0]], [[0.0]])
    assert me.q_disk_n(np.zeros((1, 1)), zero) == 0.0


def test_b_to_zero_reduction():
    p = geo.random_point("disk", 2, 2, 3)
    t = me.Tangent("disk", me.random_tangent("disk", 2, 2, 5).dmat, np.zeros((2, 2)))
    qa = me.q_disk(p, t, me.MetricParams(2.0, 1e-300))
    assert qa == pytest.approx(2.0 * me.q_disk_n(p.w, t), rel=1e-12)


def test_closed_form_n1m1():
    for seed in range(100):
        p = geo.random_point("disk", 1, 1, seed)
        t = me.random_tangent("disk", 1, 1, seed + 1)
        a = me.q_disk(p, t, UNIT)
        b = me.q_disk_closed_11(p, t)
        assert abs(a - b) <= 1e-12 * (1 + max(abs(a), abs(b)))


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_cayley_isometry_exact_differential(n, m):
    params = me.MetricParams(1.3, 0.7)
    for seed in range(20):
        p = geo.random_point("disk", n, m, seed)
        t = me.random_tangent("disk", n, m, seed)
        qd = me.q_disk(p, t, params)
        qu = me.q_upper(geo.cayley(p), _exact_cayley_differential(p, t), params)
        assert abs(qd - qu) <= 1e-12 * (1 + max(abs(qd), abs(qu)))


def test_completed_square_identities():
    # the rectangular-block part of each family is a perfect square
    for seed in range(20):
        pu = geo.random_point("upper", 2, 2, seed)
        t = me.random_tangent("upper", 2, 2, 100 + seed)
        yi = mat_inverse(pu.y.astype(complex))
        e = t.dvec - pu.v @ yi @ t.dmat
        square = np.trace(yi @ e.T @ e.conj()).real
        b_part = me.q_upper(pu, t, me.MetricParams(1.0, 1.0)) \
            - me.q_upper(pu, t, me.MetricParams(1.0, 1e-300))
        assert abs(b_part - square) < 1e-10 * (1 + abs(square))

        pd = geo.random_point("disk", 2, 2, seed)
        td = me.random_tangent("disk", 2, 2, 200 + seed)
        li = mat_inverse(np.eye(2) - pd.w @ pd.w.conj())
        fshift = td.dvec + (pd.eta @ pd.w.conj() - pd.eta.conj()) @ li @ td.dmat
        square_d = 4.0 * np.trace(li @ fshift.T @ fshift.conj()).real
        b_part_d = me.q_disk(pd, td, me.MetricParams(1.0, 1.0)) \
            - me.q_disk(pd, td, me.MetricParams(1.0, 1e-300))
        assert abs(b_part_d - square_d) < 1e-10 * (1 + abs(square_d))


def test_metric_tensor_origin():
    g = me.metric_tensor(geo.DiskPoint([[0.0]], [[0.0]]), UNIT)
    assert max_abs(g - 4.0 * np.eye(4)) < 1e-12
    assert not g.flags.writeable


def test_metric_tensor_consistency_and_pd():
    for model in ("upper", "disk"):
        for seed in range(10):
            p = geo.random_point(model, 2, 1, seed)
            tensor = me.metric_tensor(p, UNIT)
            chart = me.chart_for(p)
            for k in range(5):
                t = me.random_tangent(model, 2, 1, 10 * seed + k)
                direct = me.evaluate_form(model, p, t, UNIT)
                v = chart.tangent_to_vec(t)
                via = v @ tensor @ v
                assert abs(direct - via) <= 1e-9 * (1 + abs(direct))
            assert np.linalg.eigvalsh(tensor).min() > 0.0


def test_mat_only_tensors():
    p = geo.random_point("upper", 2, 1, 4)
    g = me.metric_tensor(p, UNIT, kind="siegel")
    assert g.shape == (6, 6) and np.linalg.eigvalsh(g).min() > 0.0
    pd = geo.random_point("disk", 2, 1, 4)
    gd = me.metric_tensor(pd, UNIT, kind="diskn")
    assert gd.shape == (6, 6) and np.linalg.eigvalsh(gd).min() > 0.0


def test_chart_roundtrips():
    chart = me.Chart("disk", 2, 2)
    p = geo.random_point("disk", 2, 2, 7)
    assert max_abs(chart.point_to_vec(chart.vec_to_point(chart.point_to_vec(p)))
                   - chart.point_to_vec(p)) == 0.0
    t = me.random_tangent("disk", 2, 2, 2)
    v = chart.tangent_to_vec(t)
    back = chart.vec_to_tangent(v)
    assert max_abs(back.dmat - t.dmat) == 0.0
    assert max_abs(back.dvec - t.dvec) == 0.0
    assert chart.dim == 2 * 3 + 2 * 4


def test_tangent_json_roundtrip():
    t = me.random_tangent("upper", 2, 1, 1)
    back = me.tangent_from_json(me.tangent_to_json(t))
    assert max_abs(back.dmat - t.dmat) == 0.0 and max_abs(back.dvec - t.dvec) == 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        me.MetricParams(0.0, 1.0)
    with pytest.raises(ValueError):
        me.MetricParams(1.0, -2.0)


def test_asymmetric_dmat_rejected():
    with pytest.raises(ValueError):
        me.Tangent("disk", [[0.0, 1.0], [0.0, 0.0]], np.zeros((1, 2)))
