"""The stacked evaluation path against one point at a time.

Fields and metrics see a (K, n, n) / (K, m, n) stacked point and return
K values; the reference evaluates them one point at a time
(_node_by_node).  Both must give the same numbers, and the kernels below
them (mat_inverse, the actions, symmetrization) must judge each matrix of
a stack on its own.
"""

import dataclasses
import hashlib
from functools import partial

import numpy as np
import pytest

from sjgeo import geometry as geo
from sjgeo import groups as G
from sjgeo import operators as op
from sjgeo import verify as V
from sjgeo.cmatrix import SeedStream, SingularMatrix, mat_inverse, sym_defect
from sjgeo.metrics import Chart, MetricParams, chart_of, metric_tensor, random_tangent


def max_abs(x) -> float:
    """Largest entry magnitude of an array."""
    return float(np.max(np.abs(x)))


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
    # a field after an action, differentiated on a stack of stencil nodes
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
        # to the last bit, sign of zero included
        assert tensors[k].tobytes() == metric_tensor(p, PARAMS, kind=kind).tobytes()


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
    alone = V._sample_stack(V._CHECKS[name].prepare(1, 1, UNIT, 3), np.array([256]))
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
@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (3, 2)])
def test_stencil_residuals_do_not_depend_on_the_stack(name, n, m):
    sampler = V._CHECKS[name].prepare(n, m, UNIT, 5)
    idx = np.arange(10)     # every test field, twice or more
    stacked = V._sample_stack(sampler, idx)
    alone = V._Stack.concat([V._sample_stack(sampler, idx[k: k + 1])
                             for k in range(len(idx))])
    assert list(stacked.labels) == list(alone.labels)
    assert np.array_equal(stacked.max_rel, alone.max_rel)
    assert stacked.parts == alone.parts
    assert np.array_equal(stacked.retries, alone.retries)


def test_oracle_takes_each_field_class_as_one_stack(monkeypatch):
    # at (3,2), 50 samples over 5 test fields are 5 oracle calls of 10 points
    calls = []
    oracle = V.laplace_beltrami

    def counted(f, p, metric):
        calls.append(p.batch)
        return oracle(f, p, metric)
    monkeypatch.setattr(V, "laplace_beltrami", counted)
    V.run_check("lb-equivalence-siegel", 3, 2, UNIT, 50, 42)
    assert calls == [(10,)] * 5


@pytest.mark.parametrize("name", [f"lb-equivalence-{kind}" for kind in
                                  ("upper", "disk", "siegel", "diskn")] + ["reduce-n1m1"])
def test_stencil_checks_draw_their_block_once(monkeypatch, name):
    # each per-sample draw is one call for the whole block, whatever the
    # number of test fields it is split into
    draws = ["point", "tangent"] if name == "reduce-n1m1" else ["point"]
    calls = []

    def counted(kind, draw):
        def wrapper(*args):
            calls.append((kind, len(args[-1])))
            return draw(*args)
        return wrapper
    monkeypatch.setattr(V, "random_point", counted("point", V.random_point))
    monkeypatch.setattr(V, "random_tangent", counted("tangent", V.random_tangent))
    V.run_check(name, 1, 1, UNIT, 10, 42)
    assert calls == [(kind, 10) for kind in draws]


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


_OPERATORS = {
    "upper": [("lap_upper", lambda sb, p: op.lap_upper(sb, p, PARAMS)),
              ("lap_upper_printed", lambda sb, p: op.lap_upper_printed(sb, p, PARAMS)),
              ("D", partial(op.op_invariant, "D")), ("L", partial(op.op_invariant, "L"))],
    "disk": [("lap_disk", lambda sb, p: op.lap_disk(sb, p, PARAMS)),
             ("lap_disk_printed", lambda sb, p: op.lap_disk_printed(sb, p, PARAMS)),
             ("Dtilde", partial(op.op_invariant, "Dtilde")),
             ("Ltilde", partial(op.op_invariant, "Ltilde"))],
}
_MAT_ONLY_OPERATORS = {"upper": [("lap_siegel", op.lap_siegel)],
                       "disk": [("lap_disk_n", op.lap_disk_n)]}


@pytest.mark.parametrize("n,m,count", [(3, 2, 256), (2, 2, 1100)])
def test_operators_keep_a_points_bits_in_a_large_stack(n, m, count):
    # one bundle of `count` seeded Hermitian slot matrices, far past the size
    # where numpy's multi-axis sums change order with the memory layout:
    # every operator's value at a member equals that member's alone
    members = np.linspace(0, count - 1, 16).astype(int)
    for model in ("upper", "disk"):
        p = geo.random_point(model, n, m, list(range(count)))
        for include_vec, operators in ((True, _OPERATORS), (False, _MAT_ONLY_OPERATORS)):
            chart = chart_of(model, n, m, include_vec)
            mixed = V._hermitian(V._seeds(9, np.arange(count), "herm"), chart.n_slots)
            sb = op.bundle_of(mixed, chart)
            for name, fn in operators[model]:
                stacked = fn(sb, p)
                alone = [fn(op.bundle_of(mixed[k], chart), V._at(p, k)) for k in members]
                assert stacked.shape == (count,)
                assert np.array_equal(stacked[members], alone), (model, name)


def test_failing_stencil_sample_is_isolated(monkeypatch):
    seed, bad = 42, 3
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
    # random_jacobi draws its Sp part first, so that part is the Sp draw alone
    "sp": lambda n, m, seed: G.random_jacobi(n, 1, seed).sp,
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


# The bytes of each draw from np.arange(64) and from the seed 7, as drawn
# when each seed's draw still did its own arithmetic (blake2b of _flat): a
# reordered or merged generator call, or arithmetic that moved a bit, shows
# here even where a single draw and a stacked one agree with each other.
GOLDEN_DRAWS = DRAWS | {
    "point-upper": lambda n, m, seed: geo.random_point("upper", n, m, seed),
}
GOLDEN_DIGESTS = {
    ("sp", 1, 1): ("99b5ed7d4141b51440d7a5c021c6fa17", "bd5dfe8a8cb6489db8991ffb8fb63117"),
    ("sp", 2, 1): ("aba1f526ae024dcccebd5064ecdb3d6a", "f0dafcdc9a5505c6ecf2bf46329ddee4"),
    ("sp", 2, 2): ("aba1f526ae024dcccebd5064ecdb3d6a", "f0dafcdc9a5505c6ecf2bf46329ddee4"),
    ("sp", 3, 2): ("c7e5e00ac05ed7433f31a9d3043c460c", "06fa315b07da0b3af6d7cc97d0cebe5f"),
    ("heisenberg", 1, 1): ("e838b8f6b089fbc081005835b38c0ef8", "91e3af6ca7a964917a1a75053346ab18"),
    ("heisenberg", 2, 1): ("bab687366532f5f4608bf41798fc4b32", "aafdb24d16088998fff142453d6da76b"),
    ("heisenberg", 2, 2): ("1c7df88c5856b46b28d0646f9cbda181", "dd5fde67949febcb7ab93c950599ad23"),
    ("heisenberg", 3, 2): ("74ec71207feca28b1c4ef7f0fa2d8149", "4eb5f54d48be511e3a666c1d7705f3e7"),
    ("jacobi", 1, 1): ("280c7d36eb3ca47e4aed5d510ab148c9", "14c51bc60790a51c02dafcab57c00529"),
    ("jacobi", 2, 1): ("9df4e6e3bb394364141dc080271bedde", "9b008c73cf8f1e18333ea250df8a65f4"),
    ("jacobi", 2, 2): ("49c670ec07bde9b1dc91d49409cf543f", "7008faa85c8ad06a4b05dd85cf0e6c3b"),
    ("jacobi", 3, 2): ("aad3bc902be2731decea5630bd135fd7", "c2aaacf3a1085e3d64cc63015c26dd0d"),
    ("point-upper", 1, 1): ("22896f7be0d8be040ae628f7965de63b", "c8439a49d6598f5fba891bdde47a671c"),
    ("point-upper", 2, 1): ("1b0b142d210d3b003c4739f4cfff01d7", "dfbb5bc5d16183aadb912375f2f90c6c"),
    ("point-upper", 2, 2): ("c09c1ede6b8f1230842ac5a3b1e1c270", "2c27182d1c181d67d947eca8af5b2dca"),
    ("point-upper", 3, 2): ("d69b2e8390e990df2509815fd3d6d7cd", "d211dcf6d9b92e2975ebbc4fb7db1fab"),
    ("point-disk", 1, 1): ("256950c7b0f3477bdf00e8f3a9ca0e91", "877b5cebc95cbe71a50a2f13fe0b5e95"),
    ("point-disk", 2, 1): ("55eecd6bef64d9509caaab27600761bf", "ab87d953e5f40eaee1d24ee9ff3e3d70"),
    ("point-disk", 2, 2): ("537713bb3d2bb8b97e9204364e7e8c6e", "bab98fe72cb20828eed45a29c9074b73"),
    ("point-disk", 3, 2): ("a98f923931266f7a0cb3eba29c28aea6", "c365a8af6a4b064411c18631c2f2737e"),
    ("tangent", 1, 1): ("d6baf62cb62bd8285d843a10f83a1b70", "3e8c4ecc3a6cbc0e74ca43ea72bdf73b"),
    ("tangent", 2, 1): ("ff5233d68340164e55e2050ae2ce09fa", "b2ab7aad4c94518499e4753296b8bf8d"),
    ("tangent", 2, 2): ("178fe730792ea04256af9f6a817e46c3", "af2e67a4171ecbc3db968b7a380b381c"),
    ("tangent", 3, 2): ("86976efd01ebe42637bd99ea9b978fa5", "71896ab6dfdc6b4ee30a0a7c90815242"),
}


def _digest(x) -> str:
    return hashlib.blake2b(np.ascontiguousarray(_flat(x)).tobytes(), digest_size=16).hexdigest()


@pytest.mark.parametrize("draw,n,m", list(GOLDEN_DIGESTS))
def test_draws_keep_their_golden_streams(draw, n, m):
    stacked, single = GOLDEN_DIGESTS[draw, n, m]
    assert _digest(GOLDEN_DRAWS[draw](n, m, np.arange(64))) == stacked
    assert _digest(GOLDEN_DRAWS[draw](n, m, 7)) == single


# The Hermitian slot matrices of the invariance checks, from np.arange(64)
# and from the seed 7, by size (blake2b of the matrices' bytes).
GOLDEN_HERMITIAN = {
    2: ("c7a47623e048c524221f7bf03bbfcff1", "c00b4ea13f599aaa149151d61ee44b0d"),
    5: ("98b064255a3c8b31b5a123fbfc3af9c4", "05d1f0aa2fa1a9b92576f76dbb3abb18"),
    12: ("954f27e8cd439f62cb7b7967e407069f", "f3ba538f930221583d8e4685a28f6ba9"),
}


@pytest.mark.parametrize("size", list(GOLDEN_HERMITIAN))
def test_hermitian_draw_keeps_its_golden_stream(size):
    stacked, single = GOLDEN_HERMITIAN[size]
    assert _digest(V._hermitian(np.arange(64), size)) == stacked
    assert _digest(V._hermitian(7, size)) == single


# The suite of seed 7 evaluated at the disk or upper draws of np.arange(8):
# its linear, Gaussian and product fields read every coefficient the suite
# draws (the vector coefficients of the product field without mat_only, the
# matrix ones with it).
GOLDEN_SUITES = {
    ("upper", False, 1, 1): "55cf6d207d3127644d8e0e823d08c4ff",
    ("upper", False, 2, 1): "56ea2ea3cf00504f40c92d75dac64025",
    ("upper", False, 2, 2): "07d44b94d5801199f023389186e94977",
    ("upper", False, 3, 2): "e6c2f30a835b962f7bca4267a298280a",
    ("upper", True, 1, 1): "6474f2b26ec57c0916fe233142b59e0a",
    ("upper", True, 2, 1): "8c7d7d3488f531e636a11ab7ea6aad87",
    ("upper", True, 2, 2): "81a58b244fb0cd0b04c139e8baca6940",
    ("upper", True, 3, 2): "40481b7d676b91b6356c1afc11d776ba",
    ("disk", False, 1, 1): "f1b5c60b3c1f93fee74f5c535227432b",
    ("disk", False, 2, 1): "592b165567f841bc6c0856cbef6b3c23",
    ("disk", False, 2, 2): "e16b0c25760997292b8364e81e1c6069",
    ("disk", False, 3, 2): "1f08da42f4b0bc03a1a8a1e47cbc6461",
    ("disk", True, 1, 1): "c58dc99016abf49e8f91852c09c49cbc",
    ("disk", True, 2, 1): "d482cb8d3fe0f11cd6b93dbd4641128f",
    ("disk", True, 2, 2): "b04c2f5669a03b30e69e659e8389889e",
    ("disk", True, 3, 2): "4b86b758b3498b16f1e3c8cca64a82c7",
}


@pytest.mark.parametrize("model,mat_only,n,m", list(GOLDEN_SUITES))
def test_field_suite_keeps_its_golden_coefficients(model, mat_only, n, m):
    p = geo.random_point(model, n, m, np.arange(8))
    values = np.stack([f(p) for f in op.test_field_suite(model, n, m, 7, mat_only=mat_only)])
    assert _digest(values) == GOLDEN_SUITES[model, mat_only, n, m]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_golden_sp_stack_holds_every_count_and_kind(n):
    # so the pinned sp digests cover every branch of the stacked product
    kinds = G._sp_draw(n, SeedStream(np.arange(64)))[0]
    assert set((kinds >= 0).sum(axis=1)) == set(range(4, 9))
    for t in range(8):
        assert {0, 1, 2} <= set(kinds[:, t]), t


@pytest.mark.parametrize("draw,n,m", [(draw, n, m) for draw in GOLDEN_DRAWS
                                      for n, m in [(0, 1), (1, 0), (0, 0)]
                                      if (draw, n) != ("sp", 1)])   # the sp draw has no m
def test_every_draw_needs_positive_sizes(draw, n, m):
    for seed in (1, [1, 2]):
        with pytest.raises(ValueError, match="n and m must be >= 1"):
            GOLDEN_DRAWS[draw](n, m, seed)


def test_unknown_model_is_refused_before_the_draw():
    with pytest.raises(ValueError, match="unknown model"):
        geo.random_point("klein", 1, 1, None)


@pytest.mark.parametrize("seeds", [[], [[1, 2]]])
def test_seed_array_must_be_one_dimensional_and_non_empty(seeds):
    with pytest.raises(ValueError, match="seeds"):
        geo.random_point("disk", 1, 1, seeds)


@pytest.mark.parametrize("seed", [None, np.random.default_rng(0), 1.5, True, np.bool_(False),
                                  np.array([True, False])])
def test_a_seed_is_an_integer(seed):
    # default_rng would take these too: None draws from fresh entropy, and a
    # generator would make a draw depend on what it drew before; a bool is an
    # int to Python but not to numpy, so neither form of it is a seed
    with pytest.raises(TypeError, match="integer"):
        geo.random_point("disk", 1, 1, seed)
