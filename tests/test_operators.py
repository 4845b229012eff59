import hashlib

import numpy as np
import pytest

from sjgeo import geometry as geo
from sjgeo import operators as op
from sjgeo.metrics import MetricParams, chart_of, metric_tensor
from sjgeo.verify import laplace_beltrami

UNIT = MetricParams(1.0, 1.0)


def test_domain_margin_guard():
    near = geo.DiskPoint([[0.999999]], [[0.0]])
    f = op.named_field("disk", 1, 1, "absW2", 0)
    with pytest.raises(op.DomainMargin):
        op.second_bundle(f, near)


def _lap_siegel(n, m, name, p):
    f = op.named_field("upper", n, m, name, 0)
    return op.lap_siegel(op.second_bundle(f, p, mat_only=True), p)


def test_lap_siegel_examples():
    p = geo.random_point("upper", 1, 1, 3)
    assert _lap_siegel(1, 1, "sigmaY", p) == pytest.approx(0.0, abs=1e-7)
    assert _lap_siegel(1, 1, "logDetY", p) == pytest.approx(-1.0, rel=1e-6)
    p2 = geo.random_point("upper", 2, 1, 11)
    assert _lap_siegel(2, 1, "logDetY", p2) == pytest.approx(-3.0, rel=1e-6)


def test_lap_disk_n_example():
    p = geo.random_point("disk", 1, 1, 5)
    f = op.named_field("disk", 1, 1, "absW2", 0)
    expect = (1 - abs(p.w[0, 0]) ** 2) ** 2
    sb = op.second_bundle(f, p, mat_only=True)
    assert op.lap_disk_n(sb, p) == pytest.approx(expect, rel=1e-7)


def test_lap_disk_closed_values():
    f_w = op.named_field("disk", 1, 1, "absW2", 0)
    p = geo.DiskPoint([[0.0]], [[0.4 + 0.2j]])
    assert op.lap_disk(op.second_bundle(f_w, p), p, UNIT) == pytest.approx(1.0, rel=1e-7)
    f_e = op.named_field("disk", 1, 1, "absEta2", 0)
    origin = geo.DiskPoint([[0.0]], [[0.0]])
    assert op.lap_disk(op.second_bundle(f_e, origin), origin, UNIT) == \
        pytest.approx(1.0, rel=1e-7)


def test_constants_annihilated():
    for model, maker in (("upper", op.lap_upper), ("disk", op.lap_disk)):
        p = geo.random_point(model, 2, 1, 9)
        f = op.test_field_suite(model, 2, 1, 0)[0]
        assert abs(maker(op.second_bundle(f, p), p, UNIT)) < 1e-8


def test_quarter_laplacian_split():
    p = geo.random_point("upper", 2, 2, 21)
    f = op.test_field_suite("upper", 2, 2, 77)[3]
    sb = op.second_bundle(f, p)
    lhs = 0.25 * op.lap_upper(sb, p, UNIT) - op.op_invariant("D", sb, p)
    rhs = op.op_invariant("L", sb, p)
    assert abs(lhs - rhs) < 1e-8 * (1 + abs(rhs))
    pd = geo.random_point("disk", 2, 2, 22)
    fd = op.test_field_suite("disk", 2, 2, 78)[3]
    sbd = op.second_bundle(fd, pd)
    lhs_d = op.lap_disk(sbd, pd, UNIT) - op.op_invariant("Dtilde", sbd, pd)
    rhs_d = op.op_invariant("Ltilde", sbd, pd)
    assert abs(lhs_d - rhs_d) < 1e-8 * (1 + abs(rhs_d))


def test_d_ignores_mat_only_fields():
    p = geo.random_point("upper", 2, 2, 2)
    f = op.ScalarField("ymat", "upper", lambda q: np.sum(q.y * q.y, axis=(-2, -1)))
    assert abs(op.op_invariant("D", op.second_bundle(f, p), p)) < 1e-10


def test_printed_forms_agree_at_n1():
    # with a 1 x 1 symmetric block the symmetrization is trivial
    for m in (1, 2):
        p = geo.random_point("disk", 1, m, 4)
        f = op.test_field_suite("disk", 1, m, 5)[3]
        sb = op.second_bundle(f, p)
        a = op.lap_disk(sb, p, UNIT)
        b = op.lap_disk_printed(sb, p, UNIT)
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


def test_printed_forms_deviate_at_n2():
    # the expanded displays drop the shift symmetrization; visible for n >= 2
    found = 0.0
    for seed in range(5):
        p = geo.random_point("disk", 2, 1, seed)
        f = op.test_field_suite("disk", 2, 1, 7)[3]
        sb = op.second_bundle(f, p)
        a = op.lap_disk(sb, p, UNIT)
        b = op.lap_disk_printed(sb, p, UNIT)
        found = max(found, abs(a - b) / (1 + max(abs(a), abs(b))))
    assert found > 1e-8


def test_cayley_transfer_of_laplacians():
    # the disk Laplacian is the model transfer of the upper one
    from sjgeo.metrics import Chart
    n, m = 2, 1
    p = geo.random_point("disk", n, m, 13)
    up = geo.cayley(p)
    chu = Chart("upper", n, m)
    rng = np.random.default_rng(3)
    center = chu.point_to_vec(up) + rng.uniform(-0.4, 0.4, chu.dim)
    f = op.ScalarField("bump", "upper",
                       lambda q: np.exp(-np.sum((chu.point_to_vec(q) - center) ** 2, axis=-1)))
    comp = op.ScalarField("bump-pullback", "disk", lambda q: f(geo.cayley(q)))
    a = op.lap_disk(op.second_bundle(comp, p), p, UNIT)
    b = op.lap_upper(op.second_bundle(f, up), up, UNIT)
    assert abs(a - b) <= 1e-6 * (1 + max(abs(a), abs(b)))


def test_lap_disk_vs_closed_11():
    for seed in range(20):
        p = geo.random_point("disk", 1, 1, 400 + seed)
        for f in op.test_field_suite("disk", 1, 1, seed)[1:]:
            sb = op.second_bundle(f, p)
            a = op.lap_disk(sb, p, UNIT)
            b = op.lap_disk_closed_11(sb, p)
            assert abs(a - b) <= 1e-6 * (1 + max(abs(a), abs(b)))


def test_field_suite_properties():
    suite = op.test_field_suite("disk", 2, 2, 42)
    names = [f.name for f in suite]
    assert names == ["const", "linear", "trace-quad", "gauss", "cross"]
    again = op.test_field_suite("disk", 2, 2, 42)
    p = geo.random_point("disk", 2, 2, 0)
    for f, g in zip(suite, again):
        assert f(p) == g(p)
        assert np.isfinite(f(p))
    assert suite[0](p) == 1.0
    with pytest.raises(KeyError):
        op.named_field("disk", 1, 1, "no-such-field", 0)
    assert "absW2" in op.field_registry_ids("disk")


# ---------------------------------------------------------------------------
# The bits of the stencil path, pinned: blake2b of the four tensors of
# second_bundle and of the flux-form oracle, for the gauss and cross fields
# at a stack of three points, computed before the node-offset table and the
# cached charts (the oracle's since it takes one central difference of the
# field along g^-1 e_i per flux point).  A node that moved a bit changes
# these digests.

BUNDLE_DIGESTS = {
    ("upper", 1, 1, False): ("9628fb67f107da4cd15e903679ada104",
                            "9be133bc1617f98d17d017a86c631ae6"),
    ("upper", 1, 1, True): ("556c967c010d583987a1864385e5839e",
                           "476167d43cc427d6279f476442b79bb0"),
    ("upper", 2, 1, False): ("ce4ec6bb3233b0e9a39ef9cd3fd5bbae",
                            "68e7bd0a3daa38dfcab2ed968118860c"),
    ("upper", 2, 1, True): ("e7cd80feb21ee264be6a1e593fedbf91",
                           "60125750f9062967089dd4a7452f0265"),
    ("upper", 3, 2, False): ("a626429c138d7e77c16a1ee31fadc209",
                            "056485f10f9d3c077dea5c29f10e30ee"),
    ("upper", 3, 2, True): ("b2a2261fb0ed1240c402ab1811bdffef",
                           "772fe5d9a12d9ace77a104f0a2efada9"),
    ("disk", 1, 1, False): ("8c430e534307fd06631b9ac5e30f175d",
                           "ad1b33a6140156ed1a709fcbc1120dba"),
    ("disk", 1, 1, True): ("a81fd3abded4dd997e5f205bf6b736fd",
                          "529a8f58c7812ce55d349828d9ad84af"),
    ("disk", 2, 1, False): ("f6c15a0d4fccae3e6ca858d5e227704e",
                           "8e56fef1a9c212aa484a48f550363b7f"),
    ("disk", 2, 1, True): ("6dad0ed95223f4d51111decd5b68b213",
                          "16b80d7a9985c68c8addad82dc3ec762"),
    ("disk", 3, 2, False): ("ca014fcc3ee025166102b4ae8e39ea80",
                           "6295431b8a53346c67edf2ed7073bfee"),
    ("disk", 3, 2, True): ("c0bcd4df8447a64ba4c2152d30071c3f",
                          "d53283d303048eb98cb9c73096cb7293"),
}


def _stencil_bits(model, n, m, mat_only) -> tuple:
    kind = {"upper": "siegel", "disk": "diskn"}[model] if mat_only else model
    p = geo.random_point(model, n, m, np.arange(3))
    bundle, oracle = hashlib.blake2b(digest_size=16), hashlib.blake2b(digest_size=16)
    for f in op.test_field_suite(model, n, m, 5, mat_only=mat_only)[3:]:
        sb = op.second_bundle(f, p)
        for tensor in (sb.mat_mat, sb.vec_vec, sb.mat_vec, sb.vec_mat):
            bundle.update(b"-" if tensor is None else np.ascontiguousarray(tensor).tobytes())
        lb = laplace_beltrami(f, p, lambda q: metric_tensor(q, UNIT, kind))
        oracle.update(np.ascontiguousarray(lb).tobytes())
    return bundle.hexdigest(), oracle.hexdigest()


@pytest.mark.parametrize("model,n,m,mat_only", list(BUNDLE_DIGESTS))
def test_stencil_bits_are_pinned(model, n, m, mat_only):
    assert _stencil_bits(model, n, m, mat_only) == BUNDLE_DIGESTS[model, n, m, mat_only]


# The bits of the four invariant operators, pinned: blake2b of
# op_invariant of every kind on the bundles of the gauss and cross fields
# at a stack of three points, computed before D and Dtilde stopped
# building the shifted Maass part.

INVARIANT_DIGESTS = {
    (1, 1): "9a6e819ccfb1702431fc01f4c5c06c78",
    (2, 1): "ee0e0e6277fa92d5a70a2c5326f68083",
    (3, 2): "94efc07b04acdb08f8a5da5497bea8e0",
}


def _invariant_bits(n, m) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for model, kinds in (("upper", ("D", "L")), ("disk", ("Dtilde", "Ltilde"))):
        p = geo.random_point(model, n, m, 20 + np.arange(3))
        for f in op.test_field_suite(model, n, m, 9)[3:]:
            sb = op.second_bundle(f, p, mat_only=False)
            for kind in kinds:
                digest.update(np.ascontiguousarray(op.op_invariant(kind, sb, p)).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("n,m", list(INVARIANT_DIGESTS))
def test_invariant_bits_are_pinned(n, m):
    assert _invariant_bits(n, m) == INVARIANT_DIGESTS[n, m]


@pytest.mark.parametrize("model,n,m,mat_only", list(BUNDLE_DIGESTS))
def test_bundle_of_rebuilds_the_bundle_bit_for_bit(model, n, m, mat_only):
    p = geo.random_point(model, n, m, np.arange(3))
    chart = chart_of(model, n, m, not mat_only)
    for f in op.test_field_suite(model, n, m, 5, mat_only=mat_only)[3:]:
        sb = op.second_bundle(f, p)
        rebuilt = op.bundle_of(sb.mixed, chart)
        assert rebuilt.mixed is sb.mixed
        for name in ("mat_mat", "vec_vec", "mat_vec", "vec_mat"):
            a, b = getattr(sb, name), getattr(rebuilt, name)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), name
