"""Mutation tests: each injects one known defect into a Laplacian, a
group law or a metric form, and asserts that the matching check fails.

A check that still passes with the defect in place cannot tell the
defective operator from the correct one.
"""

import pytest

from sjgeo import groups as G
from sjgeo import metrics as M
from sjgeo import operators as op
from sjgeo import verify as V
from sjgeo.metrics import MetricParams

UNIT = MetricParams(1.0, 1.0)


def _run(name):
    return V.run_check(name, 2, 1, UNIT, 10, 42)


@pytest.mark.parametrize("name, kind", [("lap_upper", "upper"),
                                        ("lap_disk", "disk")])
def test_doubled_laplacian_fails(monkeypatch, name, kind):
    correct = getattr(V, name)
    monkeypatch.setattr(V, name, lambda *a, **k: 2.0 * correct(*a, **k))
    rep = _run(f"lb-equivalence-{kind}")
    assert not rep.passed, f"max_rel={rep.max_rel} constant={rep.constant}"
    assert rep.constant == pytest.approx(2.0, rel=1e-3)


def test_printed_disk_laplacian_fails(monkeypatch):
    monkeypatch.setattr(V, "lap_disk", op.lap_disk_printed)
    rep = _run("lb-equivalence-disk")
    assert not rep.passed, f"max_rel={rep.max_rel}"


# Algebra checks at (2,2): at m = 1 kappa is 1 x 1, so the symmetry parts
# are vacuous and a flipped twist sign in the group laws goes unseen.


def _run22(name):
    return V.run_check(name, 2, 2, UNIT, 10, 42)


def _flipped_twist(mul):
    """mul with the sign of its central twist term flipped: the correct
    centre is kappa1 + kappa2 + twist, the flipped one kappa1 + kappa2 - twist."""
    def flipped(x, y):
        good = mul(x, y)
        h, hx, hy = (good.h, x.h, y.h) if hasattr(good, "sp") else (good, x, y)
        kappa = 2.0 * (hx.kappa + hy.kappa) - h.kappa
        h_bad = G.HeisenbergElement(h.lam, h.mu, kappa)
        return G.JacobiElement(good.sp, h_bad) if hasattr(good, "sp") else h_bad
    return flipped


def test_flipped_heisenberg_twist_fails_group_laws(monkeypatch):
    monkeypatch.setattr(V, "heisenberg_mul", _flipped_twist(G.heisenberg_mul))
    rep = _run22("group-laws")
    assert not rep.passed, f"max_rel={rep.max_rel}"


@pytest.mark.parametrize("name", ["group-laws", "theta-hom"])
def test_flipped_jacobi_twist_fails(monkeypatch, name):
    monkeypatch.setattr(V, "jacobi_mul", _flipped_twist(G.jacobi_mul))
    rep = _run22(name)
    assert not rep.passed, f"max_rel={rep.max_rel}"


@pytest.mark.parametrize("name", ["metric-invariance-disk", "cayley-isometry"])
def test_scaled_disk_cmid_weight_fails(monkeypatch, name):
    correct = M._disk_terms

    def scaled(*args):
        *terms, (weight, left, x, right, y) = correct(*args)
        return terms + [(1.01 * weight, left, x, right, y)]
    monkeypatch.setattr(M, "_disk_terms", scaled)
    rep = _run22(name)
    assert not rep.passed, f"max_rel={rep.max_rel}"
