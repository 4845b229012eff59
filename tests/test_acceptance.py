"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `criterion-N ... : PASS` line (visible with
``pytest -s``); a failure raises with the offending residual.  Desk
scale throughout: n <= 3, m <= 2, 50-100 samples per check.
"""

import sys

import numpy as np
import pytest

from sjgeo import geometry as geo
from sjgeo import operators as op
from sjgeo import verify as V
from sjgeo.cmatrix import mat_inverse
from sjgeo.metrics import (
    MetricParams,
    q_disk,
    q_disk_closed_11,
    random_tangent,
)

UNIT = MetricParams(1.0, 1.0)
SEED = 42


def _line(criterion: str, detail: str, ok: bool):
    status = "PASS" if ok else "FAIL"
    print(f"{criterion:<46s} {detail:<34s} {status}", file=sys.stderr)
    assert ok, f"{criterion}: {detail}"


def _run(name, n, m, samples, tol, params=UNIT):
    rep = V.run_check(name, n, m, params, samples, SEED, tol=tol)
    return rep


def test_criterion_01_group_laws():
    worst = 0.0
    for (n, m) in [(1, 1), (2, 1), (3, 2)]:
        rep = _run("group-laws", n, m, 100, 1e-10)
        worst = max(worst, rep.max_rel)
        assert rep.passed
    _line("criterion-1 group-laws", f"max_rel={worst:.2e} tol=1e-10", worst <= 1e-10)


def test_criterion_02_theta_homomorphism():
    worst = 0.0
    for (n, m) in [(1, 1), (2, 2), (3, 2)]:
        rep = _run("theta-hom", n, m, 100, 1e-10)
        worst = max(worst, rep.max_rel)
        assert rep.passed
    _line("criterion-2 theta-homomorphism", f"max_rel={worst:.2e} tol=1e-10",
          worst <= 1e-10)


@pytest.fixture(scope="module")
def action_axioms():
    """The action-axioms reports of criteria 3 and 5, each cell run once."""
    return {(n, m): _run("action-axioms", n, m, 100, 1e-9)
            for (n, m) in [(1, 1), (2, 1), (2, 2)]}


def test_criterion_03_action_axioms(action_axioms):
    worst = 0.0
    for (n, m) in [(1, 1), (2, 1), (2, 2)]:
        rep = action_axioms[(n, m)]
        worst = max(worst, rep.max_rel)
        assert rep.passed
    _line("criterion-3 action-axioms+domains", f"max_rel={worst:.2e} tol=1e-9",
          worst <= 1e-9)


def test_criterion_04_partial_cayley():
    worst_rt = worst_compat = 0.0
    for (n, m) in [(1, 1), (2, 1), (2, 2)]:
        rep_rt = _run("cayley-roundtrip", n, m, 100, 1e-10)
        rep_cc = _run("cayley-compat", n, m, 100, 1e-9)
        worst_rt = max(worst_rt, rep_rt.max_rel)
        worst_compat = max(worst_compat, rep_cc.max_rel)
    _line("criterion-4a cayley-roundtrips", f"max_rel={worst_rt:.2e} tol=1e-10",
          worst_rt <= 1e-10)
    _line("criterion-4b cayley-compatibility", f"max_rel={worst_compat:.2e} tol=1e-9",
          worst_compat <= 1e-9)


def test_criterion_05_harish_chandra_route(action_axioms):
    # the block-triangular route is the hc-vs-direct part of action-axioms
    worst = 0.0
    for (n, m) in [(1, 1), (2, 2)]:
        rep = action_axioms[(n, m)]
        worst = max(worst, rep.max_rel)
        assert rep.passed
    _line("criterion-5 harish-chandra-route", f"max_rel={worst:.2e} tol=1e-9",
          worst <= 1e-9)


def test_criterion_06_upper_metric_invariance():
    worst = 0.0
    for (n, m) in [(1, 1), (2, 1), (2, 2)]:
        rep = _run("metric-invariance-upper", n, m, 100, 1e-5)
        worst = max(worst, rep.max_rel)
        assert rep.passed
    _line("criterion-6 upper-metric-invariance", f"max_rel={worst:.2e} tol=1e-5",
          worst <= 1e-5)


def test_criterion_07_disk_metric_invariance_and_positivity():
    worst = 0.0
    for (n, m) in [(1, 1), (2, 1), (2, 2)]:
        rep = _run("metric-invariance-disk", n, m, 100, 1e-5)
        worst = max(worst, rep.max_rel)
        assert rep.passed
    rep_pd = _run("tensor-pd", 2, 2, 100, 1e-9)
    _line("criterion-7a disk-metric-invariance", f"max_rel={worst:.2e} tol=1e-5",
          worst <= 1e-5)
    _line("criterion-7b tensor-positivity",
          f"min_eig={rep_pd.constant:.4f} at 100 points",
          rep_pd.passed and rep_pd.constant > 0.0)


def test_criterion_08_cayley_isometry():
    worst = 0.0
    for (n, m) in [(1, 1), (2, 1), (2, 2)]:
        rep = _run("cayley-isometry", n, m, 100, 1e-5)
        worst = max(worst, rep.max_rel)
        assert rep.passed
    _line("criterion-8 cayley-isometry", f"max_rel={worst:.2e} tol=1e-5",
          worst <= 1e-5)


def test_criterion_09_laplace_beltrami_equivalence():
    worst = 0.0
    constants = {}
    for (n, m) in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]:
        for kind in ("upper", "disk"):
            rep = _run(f"lb-equivalence-{kind}", n, m, 50, 1e-3)
            worst = max(worst, rep.max_rel)
            assert rep.passed, f"{kind} ({n},{m}): {rep.max_rel}"
    for kind in ("siegel", "diskn"):
        rep = _run(f"lb-equivalence-{kind}", 2, 1, 50, 1e-3)
        constants[kind] = rep.constant
        assert rep.passed
    _line("criterion-9 lb-equivalence (5 fields x 10 pts)",
          f"max_rel={worst:.2e} tol=1e-3", worst <= 1e-3)
    _line("criterion-9 pairing constants",
          f"siegel={constants['siegel']:.6f} disk={constants['diskn']:.6f}",
          abs(constants["siegel"] - 1) < 1e-3 and abs(constants["diskn"] - 1) < 1e-3)


def test_criterion_10_operator_invariance():
    worst = 0.0
    for (n, m, samples) in [(1, 1, 20), (2, 1, 10), (2, 2, 8), (3, 2, 8)]:
        for name in ("laplacian-invariance", "remark41-invariance"):
            rep = _run(name, n, m, samples, 1e-3)
            worst = max(worst, rep.max_rel)
            assert rep.passed, f"{name} ({n},{m}): {rep.max_rel}"
    _line("criterion-10 operator-invariance", f"max_rel={worst:.2e} tol=1e-3",
          worst <= 1e-3)


def test_criterion_11_n1m1_reduction():
    worst_metric = 0.0
    for idx in range(100):
        p = geo.random_point("disk", 1, 1, V.sample_seed(SEED, idx, "r-p"))
        t = random_tangent("disk", 1, 1,
                           np.random.default_rng(V.sample_seed(SEED, idx, "r-t")))
        a = q_disk(p, t, UNIT)
        b = q_disk_closed_11(p, t)
        worst_metric = max(worst_metric, abs(a - b) / (1 + max(abs(a), abs(b))))
    worst_lap = 0.0
    fields = op.test_field_suite("disk", 1, 1, V.sample_seed(SEED, "r-f"))
    for idx in range(100):
        p = geo.random_point("disk", 1, 1, V.sample_seed(SEED, idx, "r-lp"))
        f = fields[1 + idx % 4]
        sb = op.second_bundle(f, p)
        a = op.lap_disk(sb, p, UNIT)
        b = op.lap_disk_closed_11(sb, p)
        worst_lap = max(worst_lap, abs(a - b) / (1 + max(abs(a), abs(b))))
    _line("criterion-11a n=m=1 metric reduction",
          f"max_rel={worst_metric:.2e} tol=1e-12", worst_metric <= 1e-12)
    _line("criterion-11b n=m=1 laplacian reduction",
          f"max_rel={worst_lap:.2e} tol=1e-6", worst_lap <= 1e-6)


def test_criterion_12_pushforward_identities():
    worst_point = 0.0
    worst_diff = 0.0
    for (n, m) in [(1, 1), (2, 1), (2, 2)]:
        for idx in range(100):
            p = geo.random_point("disk", n, m, V.sample_seed(SEED, idx, "pf-p"))
            t = random_tangent("disk", n, m,
                               np.random.default_rng(V.sample_seed(SEED, idx, "pf-t")))
            eye = np.eye(n)
            inv_w = mat_inverse(eye - p.w)
            inv_wc = mat_inverse(eye - p.w.conj())
            target = geo.cayley(p)
            _, r1 = V.rel_residual(target.y, inv_w @ (eye - p.w @ p.w.conj()) @ inv_wc)
            _, r2 = V.rel_residual(target.v, p.eta @ inv_w + p.eta.conj() @ inv_wc)
            worst_point = max(worst_point, r1, r2)
            chart = V.Chart("disk", n, m)
            h = 1e-6 * (1.0 + chart.point_scale(p))
            moved = V.map_differential(geo.cayley, p, t, h=h)
            d_omega = 2j * inv_w @ t.dmat @ inv_w
            d_z = 2j * (t.dvec + p.eta @ inv_w @ t.dmat) @ inv_w
            _, r3 = V.rel_residual(moved.dmat, 0.5 * (d_omega + d_omega.T))
            _, r4 = V.rel_residual(moved.dvec, d_z)
            worst_diff = max(worst_diff, r3, r4)
    _line("criterion-12a point identities", f"max_rel={worst_point:.2e} tol=1e-10",
          worst_point <= 1e-10)
    _line("criterion-12b differential identities", f"max_rel={worst_diff:.2e} tol=1e-6",
          worst_diff <= 1e-6)
