"""The stacked evaluation path against one point at a time.

Fields and metrics see a (K, n, n) / (K, m, n) stacked point and return
K values; the reference evaluates them one point at a time
(_node_by_node).  Both must give the same numbers, and the kernels below
them (mat_inverse, the actions, symmetrization) must judge each matrix of
a stack on its own.
"""

import dataclasses

import numpy as np
import pytest

from sjgeo import geometry as geo
from sjgeo import groups as G
from sjgeo import operators as op
from sjgeo import verify as V
from sjgeo.cmatrix import SingularMatrix, mat_inverse, max_abs, sym_defect
from sjgeo.metrics import Chart, MetricParams, metric_tensor, random_tangent

PARAMS = MetricParams(1.3, 0.7)
SHAPES = [(1, 1), (2, 1), (3, 2)]


def _rel(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    return max_abs(a - b) / (1.0 + max(max_abs(a), max_abs(b)))


def _points(model, n, m, seeds):
    """The points of ``seeds`` one at a time, and their stacked draw."""
    seeds = list(seeds)
    return ([geo.random_point(model, n, m, s) for s in seeds],
            geo.random_point(model, n, m, seeds))


def _fields(model, n, m):
    return [op.named_field(model, n, m, name, 5) for name in op.field_registry_ids(model)]


def _node_by_node(fn):
    """A field or a metric evaluated at one point of a stacked point at a
    time: the reference the stacked engine is compared with."""
    def each(q):
        return np.array([fn(V._at(q, k)) for k in range(q.batch[0])])
    return dataclasses.replace(fn, fn=each) if isinstance(fn, op.ScalarField) else each


@pytest.mark.parametrize("model", ["upper", "disk"])
@pytest.mark.parametrize("n,m", SHAPES)
def test_registry_fields_stacked_match_pointwise(model, n, m):
    points, stacked = _points(model, n, m, range(7))
    assert stacked.batch == (7,)
    fields = _fields(model, n, m) + op.test_field_suite(model, n, m, 5, mat_only=True)
    for f in fields:
        vals = f(stacked)
        assert vals.shape == (7,)
        assert _rel(vals, [f(p) for p in points]) <= 1e-14, f.name


def test_stack_safe_field_must_return_one_value_per_point():
    _, stacked = _points("disk", 2, 1, range(3))
    summed = op.ScalarField("summed", "disk",
                            lambda q: float(np.sum(np.abs(q.eta) ** 2)))
    with pytest.raises(ValueError, match="summed"):
        summed(stacked)

    # a plain per-point callable fails by name rather than giving a wrong number
    def per_point(q):
        return float(np.sum(np.abs(q.eta) ** 2))
    with pytest.raises(ValueError, match="per_point"):
        op.second_bundle(per_point, geo.random_point("disk", 2, 1, 0))


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
        comp = op.ScalarField("comp", model, lambda q, a=act, e=elem: f(a(e, q)))
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

    def metric(q):
        return metric_tensor(q, PARAMS, kind=kind)

    a = V.laplace_beltrami(f, p, metric)
    b = V.laplace_beltrami(_node_by_node(f), p, _node_by_node(metric))
    assert _rel(a, b) <= 1e-6


@pytest.mark.parametrize("kind", ["upper", "disk", "siegel", "diskn"])
def test_metric_tensor_stacked_matches_pointwise(kind):
    model = "upper" if kind in ("upper", "siegel") else "disk"
    points, stacked = _points(model, 3, 2, range(5))
    tensors = metric_tensor(stacked, PARAMS, kind=kind)
    dim = tensors.shape[-1]
    assert tensors.shape == (5, dim, dim)
    for k, p in enumerate(points):
        assert _rel(tensors[k], metric_tensor(p, PARAMS, kind=kind)) <= 1e-13


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
            assert np.array_equal(inv[k], mat_inverse(stack[k]))


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
        points, stacked = _points(model, 3, 2, range(5))
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
    seeds = list(seeds)
    return [G.random_jacobi(n, m, s) for s in seeds], G.random_jacobi(n, m, seeds)


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
    hs = [G.random_heisenberg(n, m, s) for s in range(6)]
    h = G.random_heisenberg(n, m, list(range(6)))
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
    points, pd = _points("disk", n, m, range(6))
    _matches(geo.hc_pplus_component(s1, pd),
             [geo.hc_pplus_component(a, p) for a, p in zip(s1s, points)], 1e-14)
    _matches(geo.act_upper(g1, geo.cayley(pd)),
             [geo.act_upper(a, geo.cayley(p)) for a, p in zip(g1s, points)], 1e-14)


@pytest.mark.parametrize("model", ["upper", "disk"])
def test_stacked_forms_and_differential_match_per_point(model):
    from sjgeo.metrics import q_disk, q_disk_n, q_siegel, q_upper
    n, m = 3, 2
    points, p = _points(model, n, m, range(5))
    ts = [random_tangent(model, n, m, s) for s in range(5)]
    t = random_tangent(model, n, m, list(range(5)))
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
    # a point alone, unstacked or as a stack of one, takes the same kernels with
    # the same step and stencil, so its differential is the same to the last bit
    _matches(moved, [V.map_differential(act, geo.random_point(model, n, m, [s]),
                                        random_tangent(model, n, m, [s]))
                     for s in range(5)], 0.0)
    _matches(moved, [V.map_differential(act, a, b) for a, b in zip(points, ts)], 0.0)


def _per_sample(name, n, m, samples, seed):
    st = V._all_samples(name, n, m, UNIT, samples, seed)
    return list(zip(st.max_rel, st.labels))


@pytest.mark.parametrize("name", ["group-laws", "metric-invariance-upper", "tensor-pd"])
def test_residuals_do_not_depend_on_the_stack(name):
    # samples 0..255 fill one stack, sample 256 opens the next; each sample's
    # residuals equal those of a run that holds it in another stack
    assert V._STACK == 256
    full = _per_sample(name, 1, 1, 257, 3)
    assert full[:256] == _per_sample(name, 1, 1, 256, 3)
    alone = V._sample_stack(V._CHECKS[name], 1, 1, UNIT, 3, np.array([256]))
    assert full[256] == (alone.max_rel[0], alone.labels[0])


def test_failing_sample_is_isolated(monkeypatch):
    seed, bad = 42, 3
    clean = V._all_samples("cayley-compat", 2, 1, UNIT, 8, seed)
    poisoned = geo.random_point("disk", 2, 1, V.sample_seed(seed, bad, "pd"))
    correct = V.check_cayley_compat

    def flaky(g, pd):
        if np.any(np.all(pd.w == poisoned.w, axis=(-2, -1))):
            raise SingularMatrix("injected")
        return correct(g, pd)
    monkeypatch.setattr(V, "check_cayley_compat", flaky)
    st = V._all_samples("cayley-compat", 2, 1, UNIT, 8, seed)
    assert list(st.labels).count("sample-error") == 1
    assert st.labels[bad] == "sample-error"
    assert st.description(bad) == {"error": "SingularMatrix: injected"}
    for k in range(8):
        if k != bad:
            assert (st.max_rel[k], st.labels[k]) == (clean.max_rel[k], clean.labels[k])
    rep = V.run_check("cayley-compat", 2, 1, UNIT, 8, seed)
    assert not rep.passed and rep.worst["sample"] == bad


# ---------------------------------------------------------------------------
# Sample-stacked stencil checks: a sample's residuals are the same in a
# stack of any size, operators take stacked bundles, and a failing sample
# stays isolated.

STENCIL_CHECKS = ["lb-equivalence-upper", "lb-equivalence-disk", "laplacian-invariance",
                  "remark41-invariance", "reduce-n1m1"]


@pytest.mark.parametrize("name", STENCIL_CHECKS)
@pytest.mark.parametrize("n,m", [(1, 1), (2, 1)])
def test_stencil_residuals_do_not_depend_on_the_stack(name, n, m):
    cdef = V._CHECKS[name]
    idx = np.arange(10)     # every test field, twice or more
    stacked = V._sample_stack(cdef, n, m, UNIT, 5, idx)
    alone = V._Stack.concat([V._sample_stack(cdef, n, m, UNIT, 5, idx[k: k + 1])
                             for k in range(len(idx))])
    assert list(stacked.labels) == list(alone.labels)
    assert np.allclose(stacked.max_rel, alone.max_rel, rtol=1e-12, atol=0.0)
    assert np.array_equal(stacked.retries, alone.retries)


def test_stencil_stack_sizes():
    # a fixed budget of chart coordinates: the README run at (1,1) packs all
    # 50 samples, the desk corner (3,2) runs them one at a time
    lb = V._CHECKS["lb-equivalence-disk"]
    assert lb.stack(1, 1) >= 50
    assert lb.stack(3, 2) == 1
    assert V._CHECKS["group-laws"].stack(3, 2) == V._STACK


@pytest.mark.parametrize("n,m", SHAPES)
def test_stacked_operators_match_single_point(n, m):
    # one stacked bundle and contraction against each point on its own: the
    # same kernels round each point alike, so the values are equal
    for model, lap, kinds in (("upper", op.lap_upper, ("D", "L")),
                              ("disk", op.lap_disk, ("Dtilde", "Ltilde"))):
        points, stacked = _points(model, n, m, range(4))
        metric = lambda q: metric_tensor(q, PARAMS, kind=model)
        for f in op.test_field_suite(model, n, m, 5)[2::2]:   # trace-quad, cross
            sb = op.second_bundle(f, stacked)
            ones = [op.second_bundle(f, p) for p in points]
            values = [lap(sb, stacked, PARAMS)] + [op.op_invariant(k, sb, stacked)
                                                   for k in kinds]
            singles = [[lap(b, p, PARAMS) for b, p in zip(ones, points)]] + [
                [op.op_invariant(k, b, p) for b, p in zip(ones, points)] for k in kinds]
            lb = V.laplace_beltrami(f, stacked, metric)
            values.append(lb)
            singles.append([V.laplace_beltrami(f, p, metric) for p in points])
            for got, want in zip(values, singles):
                assert got.shape == (4,)
                assert np.array_equal(got, want), (model, f.name)


def test_failing_stencil_sample_is_isolated(monkeypatch):
    seed, bad = 42, 3
    assert V._CHECKS["lb-equivalence-disk"].stack(1, 1) >= 8   # one stacked call
    clean = V._all_samples("lb-equivalence-disk", 1, 1, UNIT, 8, seed)
    poisoned = geo.random_point("disk", 1, 1, V.sample_seed(seed, bad, "p"))
    correct = V.laplace_beltrami

    def flaky(f, p, metric):
        if np.any(np.all(p.w == poisoned.w, axis=(-2, -1))):
            raise op.DomainMargin("injected")
        return correct(f, p, metric)
    monkeypatch.setattr(V, "laplace_beltrami", flaky)
    st = V._all_samples("lb-equivalence-disk", 1, 1, UNIT, 8, seed)
    assert list(st.labels).count("sample-error") == 1
    assert st.labels[bad] == "sample-error"
    assert st.description(bad) == {"error": "DomainMargin: injected"}
    for k in range(8):
        if k != bad:
            assert (st.max_rel[k], st.labels[k]) == (clean.max_rel[k], clean.labels[k])
    rep = V.run_check("lb-equivalence-disk", 1, 1, UNIT, 8, seed)
    assert not rep.passed and rep.worst["sample"] == bad


def test_reduce_n1m1_reports_its_own_cell():
    asked = V.run_check("reduce-n1m1", 3, 2, UNIT, 6, 42).to_json()
    own = V.run_check("reduce-n1m1", 1, 1, UNIT, 6, 42).to_json()
    assert (asked["n"], asked["m"]) == (1, 1)
    assert {k: v for k, v in asked.items() if k != "ms"} == \
        {k: v for k, v in own.items() if k != "ms"}


def _assert_replays(name, n, m, seed, draws):
    """The worst sample's described draws equal fresh draws from their tags."""
    rep = V.run_check(name, n, m, UNIT, 40, seed)
    k = rep.worst["sample"]
    for key, (model, tag) in draws.items():
        if model is None:
            drawn = G.element_to_json(G.random_jacobi(n, m, V.sample_seed(seed, k, *tag)))
        else:
            drawn = geo.point_to_json(geo.random_point(model, n, m, V.sample_seed(seed, k, tag)))
        assert rep.worst[key] == drawn, key


@pytest.mark.parametrize("name, key, model, tag", [
    ("cayley-isometry", "point", "disk", "p"),
    ("pushforward-identities", "point", "disk", "p"),
    ("cayley-roundtrip", "point", "disk", "pd"),
    ("cayley-compat", "point", "disk", "pd"),
    ("group-laws", "element", None, ("g", 0)),
    ("lb-equivalence-upper", "point", "upper", "p"),
    ("lb-equivalence-siegel", "point", "upper", "p"),
])
def test_worst_sample_replays(name, key, model, tag):
    _assert_replays(name, 2, 2, 9, {key: (model, tag)})


@pytest.mark.parametrize("name, n, m, seed, draws", [
    ("group-laws", 1, 1, 9, {"element": (None, ("g", 0))}),
    ("action-axioms", 1, 1, 7, {"point": ("upper", "pu"), "element": (None, ("g", 0))}),
])
def test_worst_sample_replays_whatever_part_wins(name, n, m, seed, draws):
    # the worst parts here (star-closure, disk-assoc) draw no element or
    # upper point of their own; the sample's description still holds them
    _assert_replays(name, n, m, seed, draws)


@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_upper_draw_is_a_member_of_the_stacked_draw(n, m):
    # a stack of upper draws takes one cayley call; a worst upper sample
    # replays through random_point only if member k is that draw exactly
    seeds = [V.sample_seed(42, i, "p") for i in range(50)]
    stacked = geo.random_point("upper", n, m, seeds)
    for k, seed in enumerate(seeds):
        one, member = geo.random_point("upper", n, m, seed), V._at(stacked, k)
        assert np.array_equal(one.omega, member.omega), k
        assert np.array_equal(one.z, member.z), k


# The other draws, by name: one seed gives one draw, an array of seeds the stack.
DRAWS = {
    "point-disk": lambda n, m, seed: geo.random_point("disk", n, m, seed),
    "jacobi": lambda n, m, seed: G.random_jacobi(n, m, seed),
    "jacobistar": lambda n, m, seed: G.random_jacobistar(n, m, seed),
    "heisenberg": lambda n, m, seed: G.random_heisenberg(n, m, seed),
    "sp": lambda n, m, seed: G.random_sp(n, seed),
    "tangent": lambda n, m, seed: random_tangent("disk", n, m, seed),
}


@pytest.mark.parametrize("draw", list(DRAWS))
@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_seed_array_draw_members_are_single_draws(draw, n, m):
    # a check draws its samples with one call of their seeds; a worst sample
    # replays through the single-seed draw only if member k is that draw exactly
    seeds = [V.sample_seed(42, i, "p") for i in range(50)]
    stacked = DRAWS[draw](n, m, np.array(seeds))
    assert len(_flat(stacked)) == len(seeds)
    for k, seed in enumerate(seeds):
        one, member = DRAWS[draw](n, m, seed), V._at(stacked, k)
        assert type(one) is type(member)
        assert np.array_equal(_flat(one), _flat(member)), k


@pytest.mark.parametrize("seeds", [[], [[1, 2]]])
def test_seed_array_must_be_one_dimensional_and_non_empty(seeds):
    with pytest.raises(ValueError, match="seeds"):
        geo.random_point("disk", 1, 1, seeds)


@pytest.mark.parametrize("seed", [None, np.random.default_rng(0), 1.5])
def test_a_seed_is_an_integer(seed):
    # default_rng would take these too: None draws from fresh entropy, and a
    # generator would make a draw depend on what it drew before
    with pytest.raises(TypeError, match="integer"):
        geo.random_point("disk", 1, 1, seed)
