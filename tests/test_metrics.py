import hashlib

import numpy as np
import pytest

from sjgeo import geometry as geo
from sjgeo import metrics as me
from sjgeo.cmatrix import mat_inverse


def max_abs(x) -> float:
    """Largest entry magnitude of an array."""
    return float(np.max(np.abs(x)))


UNIT = me.MetricParams(1.0, 1.0)


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
        q = geo.cayley(p)
        moved = me.Tangent("upper", *(x[0] for x in geo.cayley_differential(
            p, q, t.dmat[None], t.dvec[None])))
        qu = me.q_upper(q, moved, params)
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
    for model, form in (("upper", me.q_upper), ("disk", me.q_disk)):
        for seed in range(10):
            p = geo.random_point(model, 2, 1, seed)
            tensor = me.metric_tensor(p, UNIT)
            chart = me.chart_for(p)
            for k in range(5):
                t = me.random_tangent(model, 2, 1, 10 * seed + k)
                direct = form(p, t, UNIT)
                v = chart.tangent_to_vec(t)
                via = v @ tensor @ v
                assert abs(direct - via) <= 1e-9 * (1 + abs(direct))
            assert np.linalg.eigvalsh(tensor).min() > 0.0


# The bits of metric_tensor, pinned: blake2b of the tensors of every form
# kind on a stack of 49 points and on one point, at (A, B) = (1.3, 0.7),
# computed before the slot-basis products became an index gather.  A
# tensor entry that moved a bit changes these digests.

TENSOR_DIGESTS = {
    ("upper", 1, 1): ("2f6a1806e4173777b4897ab4d2ab822b",
                       "6c79a107d42d7c51ef85db9ce12e4424"),
    ("upper", 2, 1): ("bc9bf66ffbc35886fff5bfa88e77cef5",
                       "fcfbec715a02b65893056e552d987de6"),
    ("upper", 2, 2): ("c669c518b28cee48c429f2dc8692a35b",
                       "cfc9ec3e7f8277a574ed8d295c02ced0"),
    ("upper", 3, 2): ("53168454930a606ae341fe66c40cc219",
                       "1c407351de95d48e7aceab6d90c86e9e"),
    ("disk", 1, 1): ("0111ea92cc84771fad821ae180ee2eb3",
                      "326d8af7b335328c0991c69f5028b9bd"),
    ("disk", 2, 1): ("0f894cda9993ba19d4803fba26537185",
                      "547140cbc931a1c1b279bc94ba9f707c"),
    ("disk", 2, 2): ("25b2fece6bb6467b6646dea7df52057e",
                      "00980def0ea3f1d880ea26a682442ff5"),
    ("disk", 3, 2): ("e76bdc4c3138dd851ef5712bcf73c777",
                      "5dbe1f605c1b175a47c5e0c130bfd73b"),
    ("siegel", 1, 1): ("dce668230b2b045659c20e855c4a22a7",
                        "d4a6d103ddf1eab21d770b28a6db821f"),
    ("siegel", 2, 1): ("3afc596a0d59ec7a55a291d9bb074d8b",
                        "e5315255f7bc45a0b3608b6558cb76fb"),
    ("siegel", 2, 2): ("3afc596a0d59ec7a55a291d9bb074d8b",
                        "e5315255f7bc45a0b3608b6558cb76fb"),
    ("siegel", 3, 2): ("4676a80c92171aa02152c166bcf10454",
                        "908b6892751c2283cc22b5c250701d19"),
    ("diskn", 1, 1): ("3fdf701eaa83f0e0a44472f01fa09584",
                       "94fa4893719d2b597d4f157b8795ed6f"),
    ("diskn", 2, 1): ("cffe5416ad4d6970fc94af139db45e0b",
                       "f9295f784536e1c56fb1dac64b4de047"),
    ("diskn", 2, 2): ("cffe5416ad4d6970fc94af139db45e0b",
                       "f9295f784536e1c56fb1dac64b4de047"),
    ("diskn", 3, 2): ("a7fb8667c683258e5304befb0c7e7ffc",
                       "aba2e79f42c1275b27fc85309899e867"),
}


@pytest.mark.parametrize("kind,n,m", sorted(TENSOR_DIGESTS))
def test_metric_tensor_bits_are_pinned(kind, n, m):
    model = "upper" if kind in ("upper", "siegel") else "disk"
    params = me.MetricParams(1.3, 0.7)
    got = tuple(
        hashlib.blake2b(np.ascontiguousarray(me.metric_tensor(p, params, kind)).tobytes(),
                        digest_size=16).hexdigest()
        for p in (geo.random_point(model, n, m, 100 + np.arange(49)),
                  geo.random_point(model, n, m, 7)))
    assert got == TENSOR_DIGESTS[kind, n, m]


def test_form_gathers_are_read_only_and_built_once_per_chart(monkeypatch):
    built = []
    inner = me.Chart._form_gather
    monkeypatch.setattr(me.Chart, "_form_gather",
                        lambda self, x, y: built.append((x, y)) or inner(self, x, y))
    chart = me.Chart("disk", 3, 2)
    mat_only = me.Chart("disk", 3, 2, include_vec=False)
    assert built == [(0, 0), (0, 1), (1, 0), (1, 1), (0, 0)]
    p = geo.random_point("disk", 3, 2, 100 + np.arange(4))
    for _ in range(2):
        me._form_matrix(me._form_terms("disk", p, UNIT), chart)
        me._form_matrix(me._form_terms("diskn", p, UNIT), mat_only)
    assert len(built) == 5
    assert me.chart_for(p) is me.chart_of("disk", 3, 2)    # metric_tensor's, cached
    for table in [*chart.form_gathers.values(), *mat_only.form_gathers.values()]:
        assert [a.shape[2:] for a in table] == [(2, 2)] * 2
        for a in table:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[...] = 0


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
