"""Mutation tests: each injects one known defect into a Laplacian and
asserts that the matching lb-equivalence check fails.

A check that still passes with the defect in place cannot tell the
defective operator from the correct one.
"""

import pytest

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
