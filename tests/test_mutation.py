"""Mutation tests: each injects one known defect into a Laplacian, a
group law, a metric form, a map or its differential, and asserts that the
matching check fails.

A check that still passes with the defect in place cannot tell the
defective operator from the correct one.
"""

import dataclasses

import numpy as np
import pytest

from sjgeo import geometry as geo
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


def _nan_like(x):
    """x with every value NaN; a point keeps its type."""
    if dataclasses.is_dataclass(x):
        return dataclasses.replace(x, **{f.name: _nan_like(getattr(x, f.name))
                                         for f in dataclasses.fields(x)})
    return np.full_like(x, np.nan)


@pytest.mark.parametrize("name, check", [("lap_upper", "lb-equivalence-upper"),
                                         ("q_upper", "cayley-isometry"),
                                         ("cayley_inv", "cayley-roundtrip")])
def test_nan_residual_fails(monkeypatch, name, check):
    # a NaN compares false with every bound, so it must count as infinite
    correct = getattr(V, name)
    monkeypatch.setattr(V, name, lambda *a, **k: _nan_like(correct(*a, **k)))
    with np.errstate(invalid="ignore"):
        rep = _run(check)
    assert not rep.passed, f"max_rel={rep.max_rel}"
    assert rep.parts[rep.worst["part"]] == np.inf


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


# cayley-isometry and reduce-n1m1 compare closed forms with no finite
# difference between them, so a defect far below an FD floor shows.

@pytest.mark.parametrize("name", ["_upper_terms", "_disk_terms"])
@pytest.mark.parametrize("k", range(5))
def test_metric_term_defect_fails_cayley_isometry(monkeypatch, name, k):
    correct = getattr(M, name)

    def scaled(*args):
        terms = correct(*args)
        weight, *rest = terms[k]
        terms[k] = ((1.0 + 1e-8) * weight, *rest)
        return terms
    monkeypatch.setattr(M, name, scaled)
    rep = V.run_check("cayley-isometry", 2, 1, UNIT, 50, 42)
    assert not rep.passed, f"max_rel={rep.max_rel}"


def test_closed_form_laplacian_defect_fails_reduce_n1m1(monkeypatch):
    correct = V.lap_disk_closed_11
    monkeypatch.setattr(V, "lap_disk_closed_11",
                        lambda *a: (1.0 + 1e-7) * correct(*a))
    rep = V.run_check("reduce-n1m1", 1, 1, UNIT, 50, 42)
    assert not rep.passed, f"max_rel={rep.max_rel}"


# Invariance by the chain rule (laplacian-invariance, remark41-invariance):
# an operator on a bundle at q = g . p must equal the operator at p on the
# bundle pulled back by the action's Jacobian, for the suite fields and for
# a seeded Hermitian slot matrix.  The printed displays are not invariant
# for n >= 2, and agree with the corrected forms at n = 1.

PRINTED = [("lap_upper", op.lap_upper_printed), ("lap_disk", op.lap_disk_printed)]


@pytest.mark.parametrize("name, printed", PRINTED)
@pytest.mark.parametrize("n, m", [(2, 1), (2, 2), (3, 2)])
def test_printed_laplacian_fails_invariance(monkeypatch, name, printed, n, m):
    monkeypatch.setattr(V, name, printed)
    rep = V.run_check("laplacian-invariance", n, m, UNIT, 8, 42)
    assert not rep.passed, f"max_rel={rep.max_rel}"


@pytest.mark.parametrize("name, printed", PRINTED)
def test_printed_laplacian_is_invariant_at_n1(monkeypatch, name, printed):
    monkeypatch.setattr(V, name, printed)
    rep = V.run_check("laplacian-invariance", 1, 1, UNIT, 8, 42)
    assert rep.passed, f"max_rel={rep.max_rel}"


def _scaled_shifted_maass(monkeypatch):
    """_hat_mat_mat with 0.01 of the unshifted tensor added: the L blocks
    of both Laplacians (and L, Ltilde) are then no longer invariant."""
    correct = op._hat_mat_mat
    monkeypatch.setattr(op, "_hat_mat_mat",
                        lambda sb, twist, sign: correct(sb, twist, sign) + 0.01 * sb.mat_mat)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (3, 2)])
def test_shifted_maass_mutant_fails_remark41_invariance(monkeypatch, n, m):
    _scaled_shifted_maass(monkeypatch)
    rep = V.run_check("remark41-invariance", n, m, UNIT, 8, 42)
    assert not rep.passed, f"max_rel={rep.max_rel}"


def test_invariance_holds_at_tiny_weights_and_still_catches_a_mutant(monkeypatch):
    # both sides share one mixed matrix, so the 1/A and 1/B scaling of the
    # operators leaves no finite-difference noise to compare with itself
    tiny = MetricParams(1e-20, 1e-20)
    for n, m in [(1, 1), (2, 1)]:
        rep = V.run_check("laplacian-invariance", n, m, tiny, 4, 42)
        assert rep.passed, f"({n},{m}) max_rel={rep.max_rel}"
    _scaled_shifted_maass(monkeypatch)
    for n, m in [(1, 1), (2, 1)]:
        rep = V.run_check("laplacian-invariance", n, m, tiny, 4, 42)
        assert not rep.passed, f"({n},{m}) max_rel={rep.max_rel}"


def test_differential_without_its_shift_term_fails(monkeypatch):
    # drop -V'C dX from dV' = (dV + (Lam - V'C) dX) t(A - X'C): with V' = 0
    # the helper computes exactly that
    correct = geo._moebius_differential

    def dropped(a, c, lam, image, dx, dv):
        return correct(a, c, lam, (image[0], np.zeros_like(image[1])), dx, dv)
    monkeypatch.setattr(geo, "_moebius_differential", dropped)
    rep = _run("metric-invariance-upper")
    assert not rep.passed and rep.worst["part"] == "upper-differential", rep.parts
    rep = _run("laplacian-invariance")
    assert not rep.passed, f"max_rel={rep.max_rel}"
