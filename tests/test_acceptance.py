"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `criterion-N ... : PASS` line (visible with
``pytest -s``); a failure raises with the offending residual.  Desk
scale throughout: n <= 3, m <= 2, 50-100 samples per check.
"""

import sys

import pytest

from sjgeo import verify as V
from sjgeo.metrics import MetricParams

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
    worst = max(action_axioms[cell].parts["hc-vs-direct"] for cell in [(1, 1), (2, 2)])
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
          f"tensor-pd={rep_pd.parts['tensor-pd']:.1e} at 100 points",
          rep_pd.passed and rep_pd.parts["tensor-pd"] == 0.0)


def test_criterion_08_cayley_isometry():
    worst = 0.0
    for (n, m) in [(1, 1), (2, 1), (2, 2)]:
        rep = _run("cayley-isometry", n, m, 100, 1e-10)
        worst = max(worst, rep.max_rel)
        assert rep.passed
    _line("criterion-8 cayley-isometry", f"max_rel={worst:.2e} tol=1e-10",
          worst <= 1e-10)


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
    worst = worst_hermitian = 0.0
    for (n, m, samples) in [(1, 1, 20), (2, 1, 10), (2, 2, 8), (3, 2, 8)]:
        for name in ("laplacian-invariance", "remark41-invariance"):
            rep = _run(name, n, m, samples, 1e-3)
            worst = max(worst, rep.max_rel)
            assert rep.passed, f"{name} ({n},{m}): {rep.max_rel}"
            # each operator on a seeded Hermitian bundle, with no field at all
            hermitian = {k: v for k, v in rep.parts.items() if k.endswith("[hermitian]")}
            assert len(hermitian) == (2 if name == "laplacian-invariance" else 4)
            worst_hermitian = max([worst_hermitian, *hermitian.values()])
    _line("criterion-10 operator-invariance", f"max_rel={worst:.2e} tol=1e-3",
          worst <= 1e-3)
    _line("criterion-10 hermitian-bundle invariance",
          f"max_rel={worst_hermitian:.2e} tol=1e-7", worst_hermitian <= 1e-7)


def test_criterion_11_n1m1_reduction():
    parts = _run("reduce-n1m1", 1, 1, 100, 1e-10).parts
    metric, lap = parts["metric-closed-form"], parts["laplacian-closed-form"]
    _line("criterion-11a n=m=1 metric reduction",
          f"max_rel={metric:.2e} tol=1e-12", metric <= 1e-12)
    _line("criterion-11b n=m=1 laplacian reduction",
          f"max_rel={lap:.2e} tol=1e-10", lap <= 1e-10)


def test_criterion_12_pushforward_identities():
    worst_point = worst_diff = 0.0
    for (n, m) in [(1, 1), (2, 1), (2, 2)]:
        parts = _run("pushforward-identities", n, m, 100, 1e-6).parts
        worst_point = max(worst_point, parts["point-identity-Y"], parts["point-identity-V"])
        worst_diff = max(worst_diff, parts["differential-dOmega"], parts["differential-dZ"])
    _line("criterion-12a point identities", f"max_rel={worst_point:.2e} tol=1e-10",
          worst_point <= 1e-10)
    _line("criterion-12b differential identities", f"max_rel={worst_diff:.2e} tol=1e-6",
          worst_diff <= 1e-6)
