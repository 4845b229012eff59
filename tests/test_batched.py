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
