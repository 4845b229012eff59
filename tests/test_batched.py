"""The stacked evaluation path against the node-by-node path.

Stack-safe fields see a (K, n, n) / (K, m, n) stacked point and return K
values; every other callable is evaluated one node at a time.  Both must
give the same numbers, and the kernels below them (mat_inverse, the
actions, symmetrization) must judge each matrix of a stack on its own.
"""

import dataclasses

import numpy as np
import pytest

from sjgeo import geometry as geo
from sjgeo import groups as G
from sjgeo import operators as op
from sjgeo import verify as V
from sjgeo.cmatrix import SingularMatrix, mat_inverse, max_abs, sym_defect
from sjgeo.metrics import Chart, MetricParams, metric_tensor

PARAMS = MetricParams(1.3, 0.7)
SHAPES = [(1, 1), (2, 1), (3, 2)]


def _rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return max_abs(a - b) / (1.0 + max(max_abs(a), max_abs(b)))


def _stack(model, n, m, seeds):
    chart = Chart(model, n, m)
    points = [geo.random_point(model, n, m, s) for s in seeds]
    return points, chart.vec_to_point(np.stack([chart.point_to_vec(p) for p in points]))


def _fields(model, n, m):
    suite = {f.name: f for f in op.test_field_suite(model, n, m, 5)}
    return [suite[name] if name in suite else op.named_field(model, n, m, name)
            for name in op.field_registry_ids(model)]


def _node_by_node(f):
    return dataclasses.replace(f, stacked=False)


@pytest.mark.parametrize("model", ["upper", "disk"])
@pytest.mark.parametrize("n,m", SHAPES)
def test_registry_fields_stacked_match_pointwise(model, n, m):
    points, stacked = _stack(model, n, m, range(7))
    assert stacked.batch == (7,)
    fields = _fields(model, n, m) + op.test_field_suite(model, n, m, 5, mat_only=True)
    for f in fields:
        assert f.stacked, f.name
        vals = f(stacked)
        assert vals.shape == (7,)
        assert _rel(vals, [f(p) for p in points]) <= 1e-14, f.name


def test_stack_safe_field_must_return_one_value_per_point():
    _, stacked = _stack("disk", 2, 1, range(3))
    summed = op.ScalarField("summed", "disk",
                            lambda q: float(np.sum(np.abs(q.eta) ** 2)), stacked=True)
    with pytest.raises(ValueError):
        summed(stacked)


@pytest.mark.parametrize("model", ["upper", "disk"])
@pytest.mark.parametrize("n,m", [(2, 1), (3, 2)])
def test_second_bundle_stacked_matches_node_by_node(model, n, m):
    p = geo.random_point(model, n, m, 17)
    for f in op.test_field_suite(model, n, m, 3)[1:]:
        a = op.second_bundle(f, p)
        b = op.second_bundle(_node_by_node(f), p)
        for name in ("mat_mat", "vec_vec", "mat_vec", "vec_mat"):
            assert _rel(getattr(a, name), getattr(b, name)) <= 1e-6, (f.name, name)


@pytest.mark.parametrize("n,m", [(2, 1), (3, 2)])
def test_composed_fields_stacked_match_node_by_node(n, m):
    # the invariance checks differentiate f after an action, on stacks
    g = G.random_jacobi(n, m, 4)
    s = G.theta_map(g)
    for model, act, elem in (("upper", geo.act_upper, g), ("disk", geo.act_disk, s)):
        f = op.test_field_suite(model, n, m, 8)[3]
        comp = op.ScalarField("comp", model, lambda q, a=act, e=elem: f(a(e, q)),
                              stacked=True)
        p = geo.random_point(model, n, m, 9)
        a = op.second_bundle(comp, p)
        b = op.second_bundle(_node_by_node(comp), p)
        assert _rel(a.mat_mat, b.mat_mat) <= 1e-6
        assert _rel(a.vec_vec, b.vec_vec) <= 1e-6


@pytest.mark.parametrize("kind", ["upper", "disk", "siegel", "diskn"])
@pytest.mark.parametrize("n,m", [(2, 1), (3, 2)])
def test_laplace_beltrami_stacked_matches_node_by_node(kind, n, m):
    model = "upper" if kind in ("upper", "siegel") else "disk"
    mat_only = kind in ("siegel", "diskn")
    f = op.test_field_suite(model, n, m, 11, mat_only=mat_only)[3]
    p = geo.random_point(model, n, m, 12)

    def stacked_metric(q):
        return metric_tensor(q, PARAMS, kind=kind)
    stacked_metric.stacked = True

    a = V.laplace_beltrami(f, p, stacked_metric)
    b = V.laplace_beltrami(_node_by_node(f),  p,
                           lambda q: metric_tensor(q, PARAMS, kind=kind))
    assert _rel(a, b) <= 1e-6


@pytest.mark.parametrize("kind", ["upper", "disk", "siegel", "diskn"])
def test_metric_tensor_stacked_matches_pointwise(kind):
    model = "upper" if kind in ("upper", "siegel") else "disk"
    points, stacked = _stack(model, 3, 2, range(5))
    tensors = metric_tensor(stacked, PARAMS, kind=kind)
    assert tensors.g.shape == (5, tensors.dim, tensors.dim)
    for k, p in enumerate(points):
        assert _rel(tensors.g[k], metric_tensor(p, PARAMS, kind=kind).g) <= 1e-13


def _well_conditioned(rng, k, n):
    return np.eye(n) + 0.3 * (rng.uniform(-1, 1, (k, n, n))
                              + 1j * rng.uniform(-1, 1, (k, n, n)))


def test_mat_inverse_stack_matches_single():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 6):
        stack = _well_conditioned(rng, 9, n)
        inv = mat_inverse(stack)
        assert inv.shape == stack.shape
        for k in range(9):
            assert max_abs(inv[k] - mat_inverse(stack[k])) < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_mat_inverse_stack_singular_member_raises():
    stack = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2)])
    with pytest.raises(SingularMatrix):
        mat_inverse(stack)


def test_mat_inverse_stack_guard_is_per_matrix():
    # scales 1e6, 1 and 1e-7 in one stack: a guard against the largest
    # entry of the whole stack would reject the last member
    rng = np.random.default_rng(1)
    base = _well_conditioned(rng, 1, 3)[0]
    stack = np.stack([1e6 * base, base, 1e-7 * base])
    inv = mat_inverse(stack)
    for k in range(3):
        assert max_abs(stack[k] @ inv[k] - np.eye(3)) < 1e-12


def test_mat_inverse_stack_zero_member_raises():
    stack = np.stack([np.eye(3), np.zeros((3, 3)), np.eye(3)])
    with pytest.raises(SingularMatrix):
        mat_inverse(stack)


def test_sym_defect_per_matrix():
    rng = np.random.default_rng(2)
    stack = rng.uniform(-1, 1, (4, 3, 3)) + 1j * rng.uniform(-1, 1, (4, 3, 3))
    defects = sym_defect(stack)
    assert defects.shape == (4,)
    assert np.array_equal(defects, [sym_defect(mat) for mat in stack])


def test_symmetrized_judges_each_matrix():
    skew = np.array([[0.0, 1e-4], [-1e-4, 0.0]])
    big = 1e6 * np.eye(2) + skew    # defect 2e-4, within 1e-9 * (1 + 1e6)
    small = np.eye(2) + skew        # same defect, far beyond 1e-9 * (1 + 1)
    out = geo._symmetrized(np.stack([big, big]), "test")
    assert np.array_equal(out[0], 0.5 * (big + big.T))
    with pytest.raises(ValueError):
        geo._symmetrized(np.stack([big, small]), "test")


def test_actions_on_stacks_match_pointwise():
    g = G.random_jacobi(3, 2, 6)
    for model, act, elem in (("upper", geo.act_upper, g),
                             ("disk", geo.act_disk, G.theta_map(g))):
        points, stacked = _stack(model, 3, 2, range(5))
        moved = act(elem, stacked)
        chart = Chart(model, 3, 2)
        for k, p in enumerate(points):
            one = chart.point_to_vec(act(elem, p))
            assert _rel(chart.point_to_vec(moved)[k], one) <= 1e-13


# ---------------------------------------------------------------------------
# Sample-batched algebra checks: stacked elements and tangents, per-sample
# residuals, the stack boundary and the per-sample fallback on error.

UNIT = MetricParams(1.0, 1.0)


def _jacobis(n, m, seeds):
    items = [G.random_jacobi(n, m, s) for s in seeds]
    return items, V._stack(items)


def _flat(x) -> np.ndarray:
    """The arrays of an element, point or tangent, as one vector per stack member."""
    if dataclasses.is_dataclass(x):
        return np.concatenate([_flat(getattr(x, f.name)) for f in dataclasses.fields(x)
                               if not isinstance(getattr(x, f.name), str)], axis=-1)
    x = np.asarray(x)
    return x.reshape(x.shape[:-2] + (-1,)) if x.ndim >= 2 else x[..., None]


def _matches(stacked, singles, tol):
    for k, one in enumerate(singles):
        assert _rel(_flat(stacked)[k], _flat(one)) <= tol, k


@pytest.mark.parametrize("n,m", [(1, 1), (2, 2), (3, 2)])
def test_stacked_group_laws_match_per_element(n, m):
    g1s, g1 = _jacobis(n, m, range(6))
    g2s, g2 = _jacobis(n, m, range(10, 16))
    hs = [G.random_heisenberg(n, m, np.random.default_rng(s)) for s in range(6)]
    h = V._stack(hs)
    s1s, s2s = [G.theta_map(g) for g in g1s], [G.theta_map(g) for g in g2s]
    s1, s2 = G.theta_map(g1), G.theta_map(g2)
    pairs = [
        (G.heisenberg_mul(h, g2.h), [G.heisenberg_mul(a, b.h) for a, b in zip(hs, g2s)]),
        (G.heisenberg_inverse(h), [G.heisenberg_inverse(a) for a in hs]),
        (G.jacobi_mul(g1, g2), [G.jacobi_mul(a, b) for a, b in zip(g1s, g2s)]),
        (G.jacobi_inverse(g1), [G.jacobi_inverse(a) for a in g1s]),
        (G.jacobi_mul(g1, G.jacobi_identity(n, m)), g1s),
        (s1, s1s),
        (G.jacobistar_mul(s1, s2), [G.jacobistar_mul(a, b) for a, b in zip(s1s, s2s)]),
        (G.jacobistar_inverse(s1), [G.jacobistar_inverse(a) for a in s1s]),
        (G.embed_sp(g1), [G.embed_sp(a) for a in g1s]),
        (G.star_matrix(s1), [G.star_matrix(a) for a in s1s]),
    ]
    for stacked, singles in pairs:
        _matches(stacked, singles, 1e-14)
    defects = [
        (G.heisenberg_defect(h), [G.heisenberg_defect(a) for a in hs]),
        (G.sp_defect(g1.sp), [G.sp_defect(a.sp) for a in g1s]),
        (G.jacobistar_defect(s1), [G.jacobistar_defect(a) for a in s1s]),
    ]
    for stacked, singles in defects:
        assert stacked.shape == (6,)
        assert np.allclose(stacked, singles, rtol=0.0, atol=1e-14)
    points, pd = _stack("disk", n, m, range(6))
    _matches(geo.hc_pplus_component(s1, pd),
             [geo.hc_pplus_component(a, p) for a, p in zip(s1s, points)], 1e-14)
    _matches(geo.act_upper(g1, geo.cayley(pd)),
             [geo.act_upper(a, geo.cayley(p)) for a, p in zip(g1s, points)], 1e-14)


@pytest.mark.parametrize("model", ["upper", "disk"])
def test_stacked_forms_and_differential_match_per_point(model):
    from sjgeo.metrics import q_disk, q_disk_n, q_siegel, q_upper, random_tangent
    n, m = 3, 2
    points, p = _stack(model, n, m, range(5))
    ts = [random_tangent(model, n, m, np.random.default_rng(s)) for s in range(5)]
    t = V._stack(ts)
    if model == "upper":
        forms = [lambda q, s: q_upper(q, s, PARAMS), lambda q, s: q_siegel(q.omega, s)]
        g = G.random_jacobi(n, m, 3)
        act = lambda q: geo.act_upper(g, q)
    else:
        forms = [lambda q, s: q_disk(q, s, PARAMS), lambda q, s: q_disk_n(q.w, s)]
        act = geo.cayley
    for form in forms:
        values = form(p, t)
        assert values.shape == (5,)
        assert _rel(values, [form(a, b) for a, b in zip(points, ts)]) <= 1e-12
    moved = V.map_differential(act, p, t)
    # each point as a stack of one takes the same kernels: same step, same stencil
    _matches(moved, [V.map_differential(act, V._stack([a]), V._stack([b]))
                     for a, b in zip(points, ts)], 1e-12)
    # one unstacked point inverts through LAPACK, a stack by Gauss-Jordan: their
    # round-off differs by ~1e-16, which the 1 / (2 h) of the stencil turns into ~1e-11
    _matches(moved, [V.map_differential(act, a, b) for a, b in zip(points, ts)], 1e-9)


def _per_sample(name, n, m, samples, seed):
    outcomes = V._sample_outcomes(name, n, m, UNIT, samples, seed)
    return [(o.max_rel, o.label) for o in outcomes]


@pytest.mark.parametrize("name", ["group-laws", "metric-invariance-upper", "tensor-pd"])
def test_residuals_do_not_depend_on_the_stack(name):
    # samples 0..255 fill one stack, sample 256 opens the next; each sample's
    # residuals equal those of a run that holds it in another stack
    assert V._STACK == 256
    full = _per_sample(name, 1, 1, 257, 3)
    assert full[:256] == _per_sample(name, 1, 1, 256, 3)
    alone = V._stack_outcomes(V._CHECKS[name], 1, 1, UNIT, 3, np.array([256]))
    assert full[256] == (alone[0].max_rel, alone[0].label)


def test_failing_sample_is_isolated(monkeypatch):
    seed, bad = 42, 3
    clean = V._sample_outcomes("cayley-compat", 2, 1, UNIT, 8, seed)
    poisoned = geo.random_point("disk", 2, 1, V.sample_seed(seed, bad, "pd"))
    correct = V.check_cayley_compat

    def flaky(g, pd):
        if np.any(np.all(pd.w == poisoned.w, axis=(-2, -1))):
            raise SingularMatrix("injected")
        return correct(g, pd)
    monkeypatch.setattr(V, "check_cayley_compat", flaky)
    outcomes = V._sample_outcomes("cayley-compat", 2, 1, UNIT, 8, seed)
    assert [o.label for o in outcomes].count("sample-error") == 1
    assert outcomes[bad].label == "sample-error"
    assert outcomes[bad].info == {"error": "SingularMatrix: injected"}
    for k in range(8):
        if k != bad:
            assert (outcomes[k].max_rel, outcomes[k].label) == (clean[k].max_rel,
                                                                 clean[k].label)
    rep = V.run_check("cayley-compat", 2, 1, UNIT, 8, seed)
    assert not rep.passed and rep.worst["sample"] == bad


@pytest.mark.parametrize("name, key, model, tag", [
    ("cayley-isometry", "point", "disk", "p"),
    ("pushforward-identities", "point", "disk", "p"),
    ("cayley-roundtrip", "point", "disk", "pd"),
    ("cayley-compat", "point", "disk", "pd"),
    ("group-laws", "element", None, ("g", 0)),
])
def test_worst_sample_replays(name, key, model, tag):
    rep = V.run_check(name, 2, 2, UNIT, 40, 9)
    k = rep.worst["sample"]
    if model is None:
        drawn = G.element_to_json(G.random_jacobi(2, 2, V.sample_seed(9, k, *tag)))
    else:
        drawn = geo.point_to_json(geo.random_point(model, 2, 2, V.sample_seed(9, k, tag)))
    assert rep.worst[key] == drawn
