import json
from functools import partial

import numpy as np
import pytest

from sjgeo import geometry as geo
from sjgeo import groups as G
from sjgeo import operators as op
from sjgeo import verify as V
from sjgeo.cmatrix import SingularMatrix
from sjgeo.metrics import Chart, MetricParams, Tangent, chart_of, metric_tensor, random_tangent
from sjgeo.operators import DomainMargin, ScalarField


def max_abs(x) -> float:
    """Largest entry magnitude of an array."""
    return float(np.max(np.abs(x)))


UNIT = MetricParams(1.0, 1.0)


def test_sample_seed_stable():
    assert V.sample_seed(42, 1, "x") == V.sample_seed(42, 1, "x")
    assert V.sample_seed(42, 1, "x") != V.sample_seed(42, 2, "x")


def test_pushforward_identity_element():
    p = geo.random_point("upper", 2, 1, 3)
    t = random_tangent("upper", 2, 1, 0)
    e = G.jacobi_identity(2, 1)
    moved = V.map_differential(lambda q: geo.act_upper(e, q), p, t)
    assert max_abs(moved.dmat - t.dmat) < 1e-10
    assert max_abs(moved.dvec - t.dvec) < 1e-10


def test_pushforward_linearity():
    p = geo.random_point("disk", 2, 2, 5)
    g = G.random_jacobistar(2, 2, 7)
    t = random_tangent("disk", 2, 2, 1)
    double = Tangent("disk", 2 * t.dmat, 2 * t.dvec)
    act = lambda q: geo.act_disk(g, q)
    a = V.map_differential(act, p, t)
    b = V.map_differential(act, p, double)
    assert max_abs(b.dmat - 2 * a.dmat) < 1e-6 * (1 + max_abs(a.dmat))
    assert max_abs(b.dvec - 2 * a.dvec) < 1e-6 * (1 + max_abs(a.dvec))


def test_pushforward_translation():
    # pure Heisenberg translations: dOmega unchanged, dZ gains lambda dOmega
    h = G.random_heisenberg(2, 1, 2)
    g = G.JacobiElement(G.sp_identity(2), h)
    p = geo.random_point("upper", 2, 1, 11)
    t = random_tangent("upper", 2, 1, 3)
    moved = V.map_differential(lambda q: geo.act_upper(g, q), p, t)
    assert max_abs(moved.dmat - t.dmat) < 1e-9
    assert max_abs(moved.dvec - (t.dvec + h.lam @ t.dmat)) < 1e-8


def test_laplace_beltrami_euclidean():
    chart = Chart("disk", 1, 1)
    flat = lambda q: np.broadcast_to(np.eye(chart.dim), q.batch + (chart.dim,) * 2)
    f = ScalarField("sq", "disk", lambda q: np.sum(chart.point_to_vec(q) ** 2, axis=-1))
    p = geo.DiskPoint([[0.05 + 0.1j]], [[0.2 - 0.3j]])
    assert V.laplace_beltrami(f, p, flat) == pytest.approx(2.0 * chart.dim, rel=1e-6)
    const = ScalarField("one", "disk", lambda q: np.ones(q.batch))
    assert V.laplace_beltrami(const, p, flat) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("model", ["upper", "disk"])
@pytest.mark.parametrize("c", [1e-150, 1e-20, 1e20, 1e150])
def test_laplace_beltrami_is_covariant_in_a_scale_of_the_metric(model, c):
    # no determinant to underflow or overflow: c g gives the value / c,
    # also where sqrt(det(c g)) itself is out of range (c^12 at dim 24)
    p = geo.random_point(model, 3, 2, 30 + np.arange(3))
    f = op.test_field_suite(model, 3, 2, 5)[3]
    metric = lambda q: metric_tensor(q, UNIT, model)
    base = V.laplace_beltrami(f, p, metric)
    scaled = V.laplace_beltrami(f, p, lambda q: c * metric(q)) * c
    assert np.max(np.abs(scaled - base) / np.abs(base)) < 1e-9


def _flat_except(at_point, elsewhere):
    """The disk (1, 1) chart's metric diag(at_point) at the point below and
    diag(elsewhere) at every other point, and that point."""
    chart = Chart("disk", 1, 1)
    p = geo.DiskPoint([[0.05 + 0.1j]], [[0.2 - 0.3j]])
    v0 = chart.point_to_vec(p)

    def metric(q):
        here = np.all(np.abs(chart.point_to_vec(q) - v0) < 1e-12, axis=-1)
        return np.where(here[:, None, None], np.diag(at_point), np.diag(elsewhere))
    return metric, p


@pytest.mark.parametrize("at_point,elsewhere", [
    ([1.0, 1.0, 1.0, 1.0], [-1.0, -1.0, 1.0, 1.0]),    # det > 0 at every flux point
    ([-1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]),
])
def test_laplace_beltrami_needs_a_positive_definite_metric_at_every_node(at_point, elsewhere):
    metric, p = _flat_except(np.array(at_point), np.array(elsewhere))
    f = ScalarField("sq", "disk", lambda q: np.sum(Chart("disk", 1, 1).point_to_vec(q) ** 2, axis=-1))
    with pytest.raises(SingularMatrix):
        V.laplace_beltrami(f, p, metric)


# Fields with closed-form Laplacians for the upper metric of weights (A, B):
# det(Y)^s gives n s (2s - n - 1) / (2A) det(Y)^s, and the height
# tr(V Y^-1 tV) the constant 2nm / B.  Composed with cayley, they give the
# disk metric's Laplacians at the image point.

def _det_power(s):
    return lambda q: np.linalg.det(q.y) ** s


def _height(q):
    return np.trace(q.v @ np.linalg.inv(q.y) @ q.v.mT, axis1=-2, axis2=-1)


@pytest.mark.parametrize("model", ["upper", "disk"])
@pytest.mark.parametrize("a,b", [(1.0, 1.0), (1.3, 0.7)])
@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_laplace_beltrami_matches_closed_forms(model, a, b, n, m):
    params = MetricParams(a, b)
    p = geo.random_point(model, n, m, np.arange(8))
    image = p if model == "upper" else geo.cayley(p)
    cases = [(_det_power(s), n * s * (2 * s - n - 1) / (2 * a) * np.linalg.det(image.y) ** s,
              1e-5) for s in (0.5, 1.0)]
    cases.append((_height, np.full(8, 2 * n * m / b), 1e-4))
    for fn, exact, tol in cases:
        field = fn if model == "upper" else (lambda q, fn=fn: fn(geo.cayley(q)))
        lb = V.laplace_beltrami(ScalarField("closed", model, field), p,
                                lambda q: metric_tensor(q, params, model))
        assert np.max(np.abs(lb - exact) / (1.0 + np.abs(exact))) <= tol


def test_laplace_beltrami_of_a_quadratic_under_a_constant_metric():
    # off the axes: every w_a = G^-1 e_i has several nonzero entries
    chart = Chart("upper", 2, 1)
    d = chart.dim
    rng = np.random.default_rng(4)
    a = rng.uniform(-1.0, 1.0, (d, d))
    g = a @ a.T + d * np.eye(d)
    hess = rng.uniform(-1.0, 1.0, (d, d))
    hess = hess + hess.T
    lin = rng.uniform(-1.0, 1.0, d)

    def quad(q):
        v = chart.point_to_vec(q)
        return 0.5 * np.einsum("...i,ij,...j->...", v, hess, v) + v @ lin

    p = geo.random_point("upper", 2, 1, np.arange(4))
    lb = V.laplace_beltrami(ScalarField("quad", "upper", quad), p,
                            lambda q: np.broadcast_to(g, q.batch + (d, d)))
    exact = np.trace(np.linalg.solve(g, hess))
    assert np.max(np.abs(lb - exact)) / (1.0 + abs(exact)) <= 1e-5


@pytest.mark.parametrize("model,mat_only", [("upper", False), ("disk", True)])
def test_laplace_beltrami_evaluates_the_field_at_4_dim_nodes_per_point(model, mat_only):
    # one central difference per flux point: 2 nodes at each of 2 dim
    calls = []
    inner = op.test_field_suite(model, 3, 2, 5, mat_only=mat_only)[3]

    def counted(q):
        calls.append(q.batch)
        return inner(q)

    p = geo.random_point(model, 3, 2, np.arange(3))
    kind = {"upper": "siegel", "disk": "diskn"}[model] if mat_only else model
    V.laplace_beltrami(ScalarField("counted", model, counted, mat_only), p,
                       lambda q: metric_tensor(q, UNIT, kind))
    dim = chart_of(model, 3, 2, not mat_only).dim
    assert calls == [(4 * dim * 3,)]


def test_run_check_unknown_name():
    with pytest.raises(V.UnknownCheck):
        V.run_check("nope", 1, 1, UNIT, 5, 0)


def test_run_check_reports_deterministic():
    a = V.run_check("cayley-roundtrip", 2, 1, UNIT, 10, 42)
    b = V.run_check("cayley-roundtrip", 2, 1, UNIT, 10, 42)
    da = a.to_json(); db = b.to_json()
    da.pop("ms"); db.pop("ms")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    assert a.passed


def test_run_check_sample_count_independence():
    # sample k draws the same data whatever the sample count, so a run cut
    # off just after the worst sample reproduces it exactly
    full = V.run_check("group-laws", 2, 1, UNIT, 12, 7)
    k = full.worst["sample"]
    cut = V.run_check("group-laws", 2, 1, UNIT, k + 1, 7)
    assert cut.max_rel == full.max_rel
    assert cut.worst == full.worst


def test_run_check_rejects_threads():
    with pytest.raises(ValueError):
        V.run_check("group-laws", 1, 1, UNIT, 2, 7, threads=2)


def test_report_schema_fields():
    rep = V.run_check("tensor-pd", 1, 1, UNIT, 4, 1).to_json()
    for key in ("check", "n", "m", "A", "B", "samples", "seed", "max_abs",
                "max_rel", "tol", "pass", "constant", "worst", "parts", "ms"):
        assert key in rep
    assert rep["pass"] == (rep["max_rel"] <= rep["tol"])


def test_check_names_match_spec_list():
    expected = {
        "group-laws", "theta-hom", "action-axioms", "cayley-roundtrip",
        "cayley-compat", "metric-invariance-upper", "metric-invariance-disk",
        "cayley-isometry", "tensor-pd", "lb-equivalence-upper",
        "lb-equivalence-disk", "lb-equivalence-siegel", "lb-equivalence-diskn",
        "laplacian-invariance", "remark41-invariance", "reduce-n1m1",
        "pushforward-identities",
    }
    assert set(V.CHECK_NAMES) == expected and len(V.CHECK_NAMES) == 17


@pytest.fixture(scope="module")
def small_runs():
    """Every check at (1,1) and (3,2), seeds 7 and 9, on a few samples."""
    return {name: [V.run_check(name, n, m, UNIT, 2 if V._CHECKS[name].fields is not None else 10, seed)
                   for (n, m) in [(1, 1), (3, 2)] for seed in (7, 9)]
            for name in V.CHECK_NAMES}


@pytest.mark.parametrize("name", V.CHECK_NAMES)
def test_worst_keys_do_not_depend_on_the_winning_part(small_runs, name):
    # every sample of a check is described alike, whichever part is worst
    keys = {tuple(sorted(rep.worst)) for rep in small_runs[name]}
    assert len(keys) == 1, keys


@pytest.mark.parametrize("name", V.CHECK_NAMES)
def test_parts_hold_the_maximum(small_runs, name):
    for rep in small_runs[name]:
        assert max(rep.parts.values()) == rep.max_rel
        assert rep.parts[rep.worst["part"]] == rep.max_rel


@pytest.mark.parametrize("name,parts", [
    ("group-laws", ["heisenberg-assoc", "heisenberg-identity", "heisenberg-inverse",
                    "heisenberg-symmetry", "jacobi-assoc", "jacobi-identity",
                    "jacobi-inverse", "jacobi-symmetry", "sp-closure", "star-assoc",
                    "star-identity", "star-inverse", "star-closure"]),
    ("action-axioms", ["siegel-assoc", "siegel-identity", "upper-assoc", "upper-identity",
                       "disk-assoc", "disk-identity", "domain-upper", "domain-disk",
                       "hc-vs-direct"]),
    ("metric-invariance-upper", ["upper-differential", "upper-family", "siegel"]),
    ("metric-invariance-disk", ["disk-differential", "disk-family", "disk-base"]),
])
def test_part_order_is_kept(small_runs, name, parts):
    # of two equal residuals the later part names the worst, so the order
    # of the parts is part of the report, though a JSON file may sort it
    for rep in small_runs[name]:
        assert list(rep.parts) == parts


@pytest.mark.parametrize("name", ["group-laws", "theta-hom", "action-axioms",
                                  "cayley-roundtrip", "cayley-compat",
                                  "tensor-pd", "reduce-n1m1",
                                  "pushforward-identities"])
def test_fast_checks_pass_small(name):
    rep = V.run_check(name, 2, 1, UNIT, 10, 42)
    assert rep.passed, f"{name}: max_rel={rep.max_rel}"


@pytest.mark.parametrize("name", ["metric-invariance-upper",
                                  "metric-invariance-disk",
                                  "cayley-isometry"])
def test_metric_checks_pass_small(name):
    rep = V.run_check(name, 2, 1, UNIT, 15, 42)
    assert rep.passed, f"{name}: max_rel={rep.max_rel}"


@pytest.mark.parametrize("name", ["lb-equivalence-upper", "lb-equivalence-disk",
                                  "lb-equivalence-siegel", "lb-equivalence-diskn"])
def test_lb_checks_pass_small(name):
    rep = V.run_check(name, 1, 1, UNIT, 10, 42)
    assert rep.passed, f"{name}: max_rel={rep.max_rel}"
    assert rep.constant == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("name", ["laplacian-invariance", "remark41-invariance"])
def test_invariance_checks_pass_small(name):
    rep = V.run_check(name, 1, 1, UNIT, 8, 42)
    assert rep.passed, f"{name}: max_rel={rep.max_rel}"


def test_invariance_redraws_a_sample_whose_image_is_near_the_boundary():
    # at (2,1), seed 42, the first draw of sample 43 moves its disk point
    # to margin 0.048, under _MIN_MARGIN_NESTED, so the sample is drawn
    # once more; alone and in the stack of samples 40-47 it gets the same
    # retry count and residual, and the stack comes back in sample order
    seeds = V._seeds(42, np.array([43]), "op-inv", 0)
    s = G.theta_map(G.random_jacobi(2, 1, seeds))
    qd = geo.act_disk(s, geo.random_point("disk", 2, 1, V._seeds(seeds, "pd")))
    assert geo.point_margin(qd)[0] < V._MIN_MARGIN_NESTED
    sampler = V._CHECKS["laplacian-invariance"].prepare(2, 1, UNIT, 42)
    stack = sampler(np.arange(40, 48))
    assert stack.samples.tolist() == list(range(40, 48))
    assert stack.retries.tolist() == [0, 0, 0, 1, 0, 0, 0, 0]
    for k, sample in enumerate(stack.samples):
        alone = sampler(np.array([sample]))
        assert alone.retries[0] == stack.retries[k]
        assert alone.max_rel[0] == stack.max_rel[k] and alone.labels[0] == stack.labels[k]


def test_redraw_gives_up_after_max_retries():
    drawn = []

    def make(seeds):
        drawn.append(seeds)
        return np.zeros(len(seeds))

    with pytest.raises(DomainMargin) as info:
        V._redraw(make, lambda draws: np.zeros(len(draws), dtype=bool), 42, np.arange(3), "t")
    assert str(info.value) == f"no admissible sample after {V._MAX_RETRIES} draws (t)"
    # every attempt redraws every sample, each with a seed of its own
    assert [len(seeds) for seeds in drawn] == [3] * V._MAX_RETRIES
    assert len({seed for seeds in drawn for seed in seeds}) == 3 * V._MAX_RETRIES


@pytest.mark.parametrize("name,want", [
    ("laplacian-invariance", {("lap_upper", 4): 4, ("lap_disk", 4): 4}),
    ("remark41-invariance", {**{("op_invariant", kind, 4): 4
                                for kind in ("D", "L", "Dtilde", "Ltilde")},
                             ("lap_upper", 1): 4, ("lap_disk", 1): 4}),
])
def test_invariance_draws_once_per_block_and_applies_each_operator_once_per_point(
        monkeypatch, name, want):
    # at (3,2) the 4 samples are 4 field classes of one sample each, yet the
    # block takes one _redraw and one Jacobian per model; each class applies
    # each operator once per model, to the field's and the Hermitian
    # matrix's bundles at both points (p and q) together (4 members); the
    # remark's splits take the field's at q alone
    redraws, jacobians, calls = [], [], []
    redraw, slot_jacobian = V._redraw, V._slot_jacobian

    def counted_redraw(make, accept, master, idx, tag):
        redraws.append(len(idx))
        return redraw(make, accept, master, idx, tag)

    def counted_jacobian(differential, p, q):
        jacobians.append(p.batch)
        return slot_jacobian(differential, p, q)

    monkeypatch.setattr(V, "_redraw", counted_redraw)
    monkeypatch.setattr(V, "_slot_jacobian", counted_jacobian)
    for op_name in ("lap_upper", "lap_disk", "op_invariant"):
        def counted(*args, _name=op_name, _inner=getattr(V, op_name)):
            kind, point = (args[:1], args[2]) if _name == "op_invariant" else ((), args[1])
            calls.append((_name, *kind, point.batch[0]))
            return _inner(*args)
        monkeypatch.setattr(V, op_name, counted)
    assert V.run_check(name, 3, 2, UNIT, 4, 42).passed
    assert redraws == [4] and jacobians == [(4,), (4,)]
    assert {call: calls.count(call) for call in calls} == want


@pytest.mark.parametrize("name", ["laplacian-invariance", "remark41-invariance"])
def test_invariance_sample_never_admissible_fails_alone(monkeypatch, name):
    # every draw of sample 3 is rejected, so the block's redraw gives up;
    # each sample then runs alone, and only sample 3 reports the error
    seed, bad, n, m = 42, 3, 2, 1
    clean = V._all_samples(name, n, m, UNIT, 8, seed)
    attempts = [V.sample_seed(seed, bad, "op-inv", a) for a in range(V._MAX_RETRIES)]
    poisoned = geo.random_point("upper", n, m, V._seeds(attempts, "pu")).omega
    admissible = V._invariance_admissible

    def never_sample_3(draws):
        drawn = draws[2].omega[:, None]
        return admissible(draws) & ~np.any(np.all(drawn == poisoned, axis=(-2, -1)), axis=1)

    monkeypatch.setattr(V, "_invariance_admissible", never_sample_3)
    st = V._all_samples(name, n, m, UNIT, 8, seed)
    assert list(st.labels).count("sample-error") == 1 and st.labels[bad] == "sample-error"
    assert st.description(bad) == {
        "error": f"DomainMargin: no admissible sample after {V._MAX_RETRIES} draws (op-inv)"}
    for k in range(8):
        if k != bad:
            assert ((st.max_rel[k], st.max_abs[k], st.labels[k], st.retries[k])
                    == (clean.max_rel[k], clean.max_abs[k], clean.labels[k], clean.retries[k]))


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2: at tiny weights the residual's 1 + vanishes, and the "
    "field parts compare finite-difference noise on near-zero Laplacians"))
def test_laplacian_invariance_passes_at_tiny_weights_on_40_samples():
    # sample 7 raises ArithmeticError (lap_upper's realness guard)
    assert V.run_check("laplacian-invariance", 2, 1, MetricParams(1e-20, 1e-20), 40, 0).passed


def test_nonunit_parameters():
    params = MetricParams(2.5, 0.3)
    for name in ("metric-invariance-disk", "cayley-isometry"):
        rep = V.run_check(name, 2, 1, params, 10, 3)
        assert rep.passed
    rep = V.run_check("lb-equivalence-disk", 1, 1, params, 10, 3)
    assert rep.passed and rep.constant == pytest.approx(1.0, abs=1e-4)


# The complex Jacobian in slot coordinates of an action, or of the Cayley
# transform, from its exact differential (geometry.action_differential or
# geometry.cayley_differential on the chart's slot basis).

def _element(model, n, m, seed):
    g = G.random_jacobi(n, m, seed)
    return g if model == "upper" else G.theta_map(g)


def _act(model):
    return geo.act_upper if model == "upper" else geo.act_disk


def _map(model, n, m, seed):
    """The map of a case with its closed-form differential, and the model
    of the points it takes: the action of a seeded element, or cayley."""
    if model == "cayley":
        return geo.cayley, geo.cayley_differential, "disk"
    g = _element(model, n, m, seed)
    return partial(_act(model), g), partial(geo.action_differential, g), model


@pytest.mark.parametrize("model", ["upper", "disk"])
@pytest.mark.parametrize("n,m", [(1, 1), (3, 2)])
def test_identity_element_has_the_identity_jacobian(model, n, m):
    e = G.jacobi_identity(n, m) if model == "upper" else G.jacobistar_identity(n, m)
    p = geo.random_point(model, n, m, [3, 4])
    jac = V._slot_jacobian(partial(geo.action_differential, e), p, _act(model)(e, p))
    slots = Chart(model, n, m).n_slots
    assert jac.shape == (2, slots, slots)
    assert np.array_equal(jac, np.broadcast_to(np.eye(slots), jac.shape))


@pytest.mark.parametrize("model", ["upper", "disk", "cayley"])
@pytest.mark.parametrize("n,m", [(2, 1), (3, 2)])
def test_stacked_jacobian_has_each_samples_bytes(model, n, m):
    seeds = [11, 12, 13, 14, 15]
    fn, differential, domain = _map(model, n, m, seeds)
    p = geo.random_point(domain, n, m, seeds)
    jac = V._slot_jacobian(differential, p, fn(p))
    for k, seed in enumerate(seeds):
        fn, differential, _ = _map(model, n, m, seed)
        pk = geo.random_point(domain, n, m, seed)
        alone = V._slot_jacobian(differential, pk, fn(pk))
        assert jac[k].tobytes() == alone.tobytes()


@pytest.mark.parametrize("model", ["upper", "disk", "cayley"])
@pytest.mark.parametrize("n,m", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_jacobian_matches_map_differential_on_the_slot_basis(model, n, m):
    for seed in range(3):
        fn, differential, domain = _map(model, n, m, 20 + seed)
        p = geo.random_point(domain, n, m, 30 + seed)
        q = fn(p)
        moved = V.map_differential(fn, p, Tangent(domain, *Chart(domain, n, m).slot_basis()))
        fd = Chart(q.model, n, m).slot_coords(moved.dmat, moved.dvec).T
        exact = V._slot_jacobian(differential, p, q)
        assert max_abs(exact - fd) / (1.0 + max_abs(exact)) <= 1e-7


@pytest.mark.parametrize("name,action,calls", [
    ("metric-invariance-upper", "act_upper", 3),
    ("metric-invariance-disk", "act_disk", 3),
    ("cayley-isometry", "cayley", 1),
    ("pushforward-identities", "cayley", 3),
])
def test_metric_checks_move_each_stack_once(monkeypatch, name, action, calls):
    # one image per stack of draws and two per map_differential (its
    # stencil sides)
    count = []
    inner = getattr(V, action)

    def counted(*args):
        count.append(action)
        return inner(*args)

    monkeypatch.setattr(V, action, counted)
    report = V.run_check(name, 3, 2, UNIT, 200, 42)
    assert report.passed and report.retries == 0
    assert len(count) == calls


@pytest.mark.parametrize("model,point,tangent_is_zero,error", [
    ("disk", geo.DiskPoint(np.eye(2), np.zeros((1, 2))), False, SingularMatrix),
    ("disk", geo.DiskPoint(np.eye(2), np.zeros((1, 2))), True, SingularMatrix),
    ("disk", geo.DiskPoint(1.5j * np.eye(2), np.zeros((1, 2))), False, DomainMargin),
    ("upper", geo.UpperPoint(-1j * np.eye(2), np.zeros((1, 2))), False, DomainMargin),
    ("upper", geo.UpperPoint(np.full((2, 2), np.nan), np.zeros((1, 2))), False,
     SingularMatrix),
])
def test_pushforward_outside_the_domain_raises(model, point, tangent_is_zero, error):
    # fn's own error where fn fails at p, DomainMargin where only the margin does
    t = random_tangent(model, 2, 1, 0)
    if tangent_is_zero:
        t = Tangent(model, np.zeros((2, 2)), np.zeros((1, 2)))
    fn = geo.cayley if model == "disk" else (lambda q: geo.act_upper(G.random_jacobi(2, 1, 3), q))
    with pytest.raises(error):
        V.map_differential(fn, point, t)
