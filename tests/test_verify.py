import json

import numpy as np
import pytest

from sjgeo import geometry as geo
from sjgeo import groups as G
from sjgeo import verify as V
from sjgeo.cmatrix import max_abs
from sjgeo.metrics import Chart, MetricParams, Tangent, random_tangent
from sjgeo.operators import ScalarField

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
    return {name: [V.run_check(name, n, m, UNIT, 2 if V._CHECKS[name].stencil else 10, seed)
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


def test_nonunit_parameters():
    params = MetricParams(2.5, 0.3)
    for name in ("metric-invariance-disk", "cayley-isometry"):
        rep = V.run_check(name, 2, 1, params, 10, 3)
        assert rep.passed
    rep = V.run_check("lb-equivalence-disk", 1, 1, params, 10, 3)
    assert rep.passed and rep.constant == pytest.approx(1.0, abs=1e-4)
