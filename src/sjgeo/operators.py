"""Wirtinger finite-difference engine and the invariant differential operators.

Derivatives with respect to the symmetric matrix variable carry the
weight (1 + delta_mu_nu)/2 on each entry; the entry (mu, nu) with
mu != nu differentiates with respect to the single independent variable
sitting in both mirrored slots.  Derivatives with respect to the
rectangular variable are arranged as an n x m matrix whose (l, k) entry
differentiates the (k, l) entry, matching the transposed layout used in
all trace contractions.

Operators (coefficients evaluated at the point, second derivatives of
the field only):

  * lap_siegel    4 sigma(Y t(Y dOmegabar) dOmega)
  * lap_upper     (4/A) sigma(Y t(Y hatbar) hat) + (4/B) sigma(Y dZ t(dZbar))
                  with hat = dOmega + Sym[(dZ) V Y^-1]
  * lap_disk_n    sigma((I-W Wbar) t((I-W Wbar) dWbar) dW)
  * lap_disk      (1/A) sigma(Lm t(Lm hatbar) hat) + (1/B) sigma(Rm deta t(detabar))
                  with Lm = I-W Wbar, Rm = I-Wbar W and
                  hat = dW - Sym[(deta)(eta Wbar - etabar) Lm^-1]
  * op_invariant  the four first-class invariant pieces D, L, Dtilde, Ltilde

The hat substitution arises from completing the square in the paired
metric: its rectangular-block part is sigma(Y^-1 tE conj(E)) with
E = dZ - V Y^-1 dOmega (and the disk analogue), so the dual
second-order contraction acts through the shifted derivative.  The
widely quoted expanded displays of these Laplacians drop the
symmetrization of the shift; that loses nothing for 1 x 1 blocks but
deviates from the true Laplace-Beltrami operator for n >= 2.  Both
forms are provided (lap_upper / lap_upper_printed and likewise for the
disk).  The corrected forms are checked numerically against the
coordinate Laplace-Beltrami oracle (sjgeo.verify.laplace_beltrami) by
the lb-equivalence-* checks; the printed forms reproduce the corrected
ones at n = 1.

Second derivatives use nested central differences (the two passes
collapse to the standard mixed-difference stencil) with one Richardson
extrapolation level (h, h/2).  Each level's stencil is one (K, dim)
array of chart coordinates.  A stack-safe field (ScalarField.stacked)
is called once on the K stacked points; any other callable is called
once per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cmatrix import mat_inverse
from .geometry import DiskPoint, UpperPoint, point_margin
from .metrics import Chart

__all__ = [
    "DomainMargin",
    "ScalarField",
    "DerivativeBundle",
    "SecondBundle",
    "default_step",
    "wirtinger_bundle",
    "second_bundle",
    "lap_siegel",
    "lap_upper",
    "lap_upper_printed",
    "lap_disk_n",
    "lap_disk",
    "lap_disk_printed",
    "lap_disk_closed_11",
    "op_invariant",
    "test_field_suite",
    "named_field",
    "field_registry_ids",
]

# Imaginary defect bound for operator values on real fields.
_OP_IMAG_GUARD = 1e-6


class DomainMargin(Exception):
    """Raised when a point is too close to its domain boundary for the stencil."""


@dataclass(frozen=True)
class ScalarField:
    """Deterministic scalar test function on one model.

    A field with ``stacked=True`` declares that ``fn`` also takes a stacked
    point (see geometry.UpperPoint) and returns one value per point, shape
    ``p.batch``.  The finite-difference engine then evaluates a whole
    stencil in one call; fields without the flag are called node by node.
    """

    name: str
    model: str
    fn: Callable
    mat_only: bool = False
    smoothness: str = "C-infinity"
    stacked: bool = False

    def __call__(self, p):
        """The value at one point (a float), or at each point of a stack
        (an array of shape p.batch; stack-safe fields only)."""
        if not self.stacked:
            return float(self.fn(p))
        vals = np.asarray(self.fn(p), dtype=np.float64)
        if vals.shape != p.batch:
            raise ValueError(f"field {self.name!r} returned shape {vals.shape} "
                             f"for points of batch shape {p.batch}")
        return vals if p.batch else float(vals)


@dataclass(frozen=True)
class DerivativeBundle:
    """Weighted first-order Wirtinger derivatives of a field at a point."""

    d_mat: np.ndarray
    d_mat_conj: np.ndarray
    d_vec: np.ndarray | None
    d_vec_conj: np.ndarray | None


@dataclass(frozen=True)
class SecondBundle:
    """Mixed (barred x unbarred) weighted second Wirtinger derivatives.

    mat_mat[k,e,c,a] pairs the conjugate matrix derivative at (k,e) with
    the plain one at (c,a); vec_vec, mat_vec, vec_mat follow the same
    barred-first convention.
    """

    mat_mat: np.ndarray
    vec_vec: np.ndarray | None
    mat_vec: np.ndarray | None
    vec_mat: np.ndarray | None


def default_step(p, chart: Chart, order: int = 2) -> float:
    """1e-5 (1 + scale) for first derivatives, 1e-4 (1 + scale) for nested ones."""
    base = 1e-5 if order == 1 else 1e-4
    return base * (1.0 + chart.point_scale(p))


def _require_margin(p, needed: float):
    margin = point_margin(p)
    if margin <= needed:
        raise DomainMargin(
            f"boundary margin {margin:.3e} insufficient for step budget {needed:.3e}")


def _field_at_nodes(f, chart: Chart, nodes: np.ndarray) -> np.ndarray:
    """Values of f at the rows of a (K, dim) array of chart coordinates.

    A stack-safe field is called once on the K stacked points; any other
    callable is called once per node.
    """
    if getattr(f, "stacked", False):
        points = chart.vec_to_point(nodes)
        del nodes   # callers pass a temporary: free it before the field runs
        return f(points)
    return np.array([f(chart.vec_to_point(v)) for v in nodes])


def _grad_real(f, chart: Chart, v0: np.ndarray, h: float) -> np.ndarray:
    """Central-difference gradient at v0, or at each row of a (K, dim) v0;
    every stencil node is evaluated in one _field_at_nodes call."""
    d = chart.dim
    # nodes[0] = v0 + h e_i, nodes[1] = v0 - h e_i, built in one allocation
    steps = h * np.eye(d) * np.array([1.0, -1.0])[:, None, None]
    steps = steps.reshape((2,) + (1,) * (v0.ndim - 1) + (d, d))
    vals = _field_at_nodes(f, chart, (v0[..., None, :] + steps).reshape(-1, d))
    vals = vals.reshape((2,) + v0.shape[:-1] + (d,))
    return (vals[0] - vals[1]) / (2.0 * h)


def _hess_real(f, chart: Chart, v0: np.ndarray, h: float) -> np.ndarray:
    """Nested central differences; mixed entries reduce to the 4-point stencil.

    The nodes are the centre, v0 +- 2h e_i, and v0 +- h e_i +- h e_j for
    i < j, evaluated in one _field_at_nodes call.
    """
    d = chart.dim
    e = np.eye(d)
    iu, ju = np.triu_indices(d, 1)
    both = e[iu] + e[ju]
    skew = e[iu] - e[ju]
    vals = _field_at_nodes(f, chart, np.concatenate([
        v0[None], v0 + 2.0 * h * e, v0 - 2.0 * h * e,
        v0 + h * both, v0 + h * skew, v0 - h * skew, v0 - h * both]))
    f0, fp, fm = vals[0], vals[1: 1 + d], vals[1 + d: 1 + 2 * d]
    fpp, fpm, fmp, fmm = vals[1 + 2 * d:].reshape(4, -1)
    hess = np.empty((d, d))
    hess[np.diag_indices(d)] = (fp - 2.0 * f0 + fm) / (4.0 * h * h)
    mixed = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    hess[iu, ju] = mixed
    hess[ju, iu] = mixed
    return hess


def _mixed_wirtinger(hess: np.ndarray, chart: Chart) -> np.ndarray:
    """Complex matrix of d/dconj(c_t) d/dc_s from the real Hessian."""
    x, y = chart.x_indices, chart.y_indices
    hxx = hess[np.ix_(x, x)]
    hyy = hess[np.ix_(y, y)]
    hyx = hess[np.ix_(y, x)]
    hxy = hess[np.ix_(x, y)]
    return 0.25 * ((hxx + hyy) + 1j * (hyx - hxy))


def wirtinger_bundle(f, p, h: float | None = None) -> DerivativeBundle:
    """Weighted first-order Wirtinger derivative matrices by central differences."""
    model = "upper" if isinstance(p, UpperPoint) else "disk"
    mat_only = getattr(f, "mat_only", False)
    chart = Chart(model, p.n, p.m, include_vec=not mat_only)
    if h is None:
        h = default_step(p, chart, order=1)
    _require_margin(p, 2.0 * h)
    grad = _grad_real(f, chart, chart.point_to_vec(p), h)
    gx = grad[chart.x_indices]
    gy = grad[chart.y_indices]
    holo = 0.5 * (gx - 1j * gy)
    anti = 0.5 * (gx + 1j * gy)
    ms, mw = chart.mat_entry_slots, chart.mat_weights
    d_mat = mw * holo[ms]
    d_mat_conj = mw * anti[ms]
    if chart.include_vec:
        vs = chart.vec_entry_slots
        d_vec = holo[vs]
        d_vec_conj = anti[vs]
    else:
        d_vec = d_vec_conj = None
    return DerivativeBundle(d_mat, d_mat_conj, d_vec, d_vec_conj)


def second_bundle(f, p, h: float | None = None,
                  mat_only: bool | None = None) -> SecondBundle:
    """Mixed second Wirtinger tensors with one Richardson level."""
    model = "upper" if isinstance(p, UpperPoint) else "disk"
    if mat_only is None:
        mat_only = getattr(f, "mat_only", False)
    chart = Chart(model, p.n, p.m, include_vec=not mat_only)
    if h is None:
        h = default_step(p, chart, order=2)
    _require_margin(p, 4.0 * h)
    v0 = chart.point_to_vec(p)
    coarse = _hess_real(f, chart, v0, h)
    fine = _hess_real(f, chart, v0, 0.5 * h)
    mixed = _mixed_wirtinger((4.0 * fine - coarse) / 3.0, chart)
    ms, mw = chart.mat_entry_slots, chart.mat_weights
    # barred index pair first: tensor[k,e,c,a] = w(k,e) w(c,a) mixed[slot(k,e), slot(c,a)]
    mat_mat = (mw[:, :, None, None] * mw[None, None, :, :]
               * mixed[ms[:, :, None, None], ms[None, None, :, :]])
    if chart.include_vec:
        vs = chart.vec_entry_slots
        vec_vec = mixed[vs[:, :, None, None], vs[None, None, :, :]]
        mat_vec = mw[:, :, None, None] * mixed[ms[:, :, None, None], vs[None, None, :, :]]
        vec_mat = mw[None, None, :, :] * mixed[vs[:, :, None, None], ms[None, None, :, :]]
    else:
        vec_vec = mat_vec = vec_mat = None
    return SecondBundle(mat_mat, vec_vec, mat_vec, vec_mat)


def _real_value(val: complex, what: str) -> float:
    if abs(val.imag) > _OP_IMAG_GUARD * (1.0 + abs(val.real)):
        raise ArithmeticError(f"{what} lost realness ({val.imag:.3e})")
    return float(val.real)


# ---------------------------------------------------------------------------
# The shifted-derivative tensor shared by both corrected Laplacians


def _hat_mat_mat(sb: SecondBundle, twist: np.ndarray, sign: float) -> np.ndarray:
    """Second-derivative tensor of hat = dmat + sign * Sym[(dvec) twist].

    ``twist`` is the m x n coefficient of the shift; the result replaces
    sb.mat_mat in the Maass-type contraction.  Normal ordering is exact
    here: the shift coefficients are holomorphic in the unbarred slots,
    so no first-order remainders appear.
    """
    tw = twist
    twc = twist.conj()
    half = 0.5 * sign
    hat = sb.mat_mat.astype(complex).copy()
    # (dmatbar)(dvec) cross block: sym over the unbarred index pair (c,a)
    hat += half * (np.einsum("kecj,ja->keca", sb.mat_vec, tw)
                   + np.einsum("keaj,jc->keca", sb.mat_vec, tw))
    # (dvecbar)(dmat) cross block: sym over the barred index pair (k,e)
    hat += half * (np.einsum("kjca,je->keca", sb.vec_mat, twc)
                   + np.einsum("ejca,jk->keca", sb.vec_mat, twc))
    # (dvecbar)(dvec) block: both symmetrizations
    quarter = 0.25
    hat += quarter * (np.einsum("kpcq,pe,qa->keca", sb.vec_vec, twc, tw)
                      + np.einsum("kpaq,pe,qc->keca", sb.vec_vec, twc, tw)
                      + np.einsum("epcq,pk,qa->keca", sb.vec_vec, twc, tw)
                      + np.einsum("epaq,pk,qc->keca", sb.vec_vec, twc, tw))
    return hat


# ---------------------------------------------------------------------------
# Upper-model operators


def _upper_terms_printed(p: UpperPoint, sb: SecondBundle):
    y = p.y.astype(complex)
    v = p.v.astype(complex)
    yi = mat_inverse(y)
    t1 = np.einsum("ae,ck,keca->", y, y, sb.mat_mat)
    t2 = np.einsum("ka,ab,jb,ce,ejck->", v, yi, v, y, sb.vec_vec)
    t3 = np.einsum("ke,cj,jeck->", v, y, sb.mat_vec)
    t4 = np.einsum("ka,ce,ekca->", v, y, sb.vec_mat)
    t5 = np.einsum("ac,akck->", y, sb.vec_vec)
    return t1, t2, t3, t4, t5


def _upper_parts(p: UpperPoint, sb: SecondBundle):
    """Corrected second-order blocks: the shifted Maass part and the dZ part."""
    y = p.y.astype(complex)
    v = p.v.astype(complex)
    hat = _hat_mat_mat(sb, v @ mat_inverse(y), +1.0)
    part_a = np.einsum("ae,ck,keca->", y, y, hat)
    part_b = np.einsum("ac,akck->", y, sb.vec_vec)
    return part_a, part_b


def lap_siegel(f, p: UpperPoint, h: float | None = None) -> float:
    """4 sigma(Y t(Y dOmegabar) dOmega) applied to a field of Omega alone."""
    sb = second_bundle(f, p, h, mat_only=True)
    y = p.y.astype(complex)
    val = 4.0 * np.einsum("ae,ck,keca->", y, y, sb.mat_mat)
    return _real_value(complex(val), "siegel laplacian")


def lap_upper(f, p: UpperPoint, params, h: float | None = None,
              _sb: SecondBundle | None = None) -> float:
    """Laplacian of the two-parameter family on the Siegel-Jacobi space."""
    sb = _sb if _sb is not None else second_bundle(f, p, h, mat_only=False)
    part_a, part_b = _upper_parts(p, sb)
    val = (4.0 / params.a) * part_a + (4.0 / params.b) * part_b
    return _real_value(complex(val), "upper laplacian")


def lap_upper_printed(f, p: UpperPoint, params, h: float | None = None,
                      _sb: SecondBundle | None = None) -> float:
    """Literal five-term transcription of the widely used expanded display.

    Deviates from the true Laplacian for n >= 2 (the display drops the
    symmetrization of the derivative shift); kept for comparison runs.
    """
    sb = _sb if _sb is not None else second_bundle(f, p, h, mat_only=False)
    t1, t2, t3, t4, t5 = _upper_terms_printed(p, sb)
    val = (4.0 / params.a) * (t1 + t2 + t3 + t4) + (4.0 / params.b) * t5
    return _real_value(complex(val), "upper laplacian (printed)")


# ---------------------------------------------------------------------------
# Disk-model operators


def _disk_terms_printed(p: DiskPoint, sb: SecondBundle):
    n = p.n
    eye = np.eye(n)
    w = p.w
    wc = w.conj()
    eta = p.eta
    ec = eta.conj()
    lm = eye - w @ wc
    rm = eye - wc @ w
    lm_inv = mat_inverse(lm)
    rm_inv = mat_inverse(rm)
    t1 = np.einsum("ae,ck,keca->", lm, lm, sb.mat_mat)
    t2 = np.einsum("ka,ec,ekca->", eta - ec @ w, rm, sb.vec_mat)
    t3 = np.einsum("je,ck,kecj->", ec - eta @ wc, lm, sb.mat_vec)
    c4 = eta @ wc @ lm_inv @ eta.T
    c5 = ec @ w @ rm_inv @ ec.T
    c6 = ec @ lm_inv @ eta.T
    c7 = eta @ wc @ w @ rm_inv @ ec.T
    t_eta = np.einsum("jk,ec,ekcj->", -c4 - c5 + c6 + c7, rm, sb.vec_vec)
    t8 = np.einsum("ec,ejcj->", rm, sb.vec_vec)
    return t1, t2, t3, t_eta, t8


def _disk_parts(p: DiskPoint, sb: SecondBundle):
    """Corrected blocks: shifted Maass-type part and the deta part."""
    n = p.n
    eye = np.eye(n)
    lm = eye - p.w @ p.w.conj()
    rm = eye - p.w.conj() @ p.w
    twist = (p.eta @ p.w.conj() - p.eta.conj()) @ mat_inverse(lm)
    hat = _hat_mat_mat(sb, twist, -1.0)
    part_a = np.einsum("ae,ck,keca->", lm, lm, hat)
    part_b = np.einsum("ec,ejcj->", rm, sb.vec_vec)
    return part_a, part_b


def lap_disk_n(f, p: DiskPoint, h: float | None = None) -> float:
    """sigma((I-W Wbar) t((I-W Wbar) dWbar) dW) on a field of W alone."""
    sb = second_bundle(f, p, h, mat_only=True)
    n = p.n
    lm = np.eye(n) - p.w @ p.w.conj()
    val = np.einsum("ae,ck,keca->", lm, lm, sb.mat_mat)
    return _real_value(complex(val), "disk laplacian")


def lap_disk(f, p: DiskPoint, params, h: float | None = None,
             _sb: SecondBundle | None = None) -> float:
    """Laplacian of the two-parameter family on the Siegel-Jacobi disk."""
    sb = _sb if _sb is not None else second_bundle(f, p, h, mat_only=False)
    part_a, part_b = _disk_parts(p, sb)
    val = (1.0 / params.a) * part_a + (1.0 / params.b) * part_b
    return _real_value(complex(val), "disk laplacian")


def lap_disk_printed(f, p: DiskPoint, params, h: float | None = None,
                     _sb: SecondBundle | None = None) -> float:
    """Literal eight-term transcription of the expanded display; deviates
    from the true Laplacian for n >= 2 (see lap_disk)."""
    sb = _sb if _sb is not None else second_bundle(f, p, h, mat_only=False)
    t1, t2, t3, t_eta, t8 = _disk_terms_printed(p, sb)
    val = (1.0 / params.a) * (t1 + t2 + t3 + t_eta) + (1.0 / params.b) * t8
    return _real_value(complex(val), "disk laplacian (printed)")


def lap_disk_closed_11(f, p: DiskPoint, h: float | None = None) -> float:
    """Independent scalar transcription of the n = m = 1 disk Laplacian
    at unit weights:
      (1-|W|^2)^2 f_{W Wbar} + (1-|W|^2) f_{eta etabar}
      + (1-|W|^2)(eta - etabar W) f_{W etabar}
      + (1-|W|^2)(etabar - eta Wbar) f_{Wbar eta}
      - (Wbar eta^2 + W etabar^2) f_{eta etabar}
      + (1 + |W|^2)|eta|^2 f_{eta etabar}.
    """
    if p.n != 1 or p.m != 1:
        raise ValueError("closed form is defined for n = m = 1 only")
    sb = second_bundle(f, p, h, mat_only=False)
    w = complex(p.w[0, 0])
    eta = complex(p.eta[0, 0])
    d = 1.0 - abs(w) ** 2
    f_wwb = complex(sb.mat_mat[0, 0, 0, 0])
    f_eeb = complex(sb.vec_vec[0, 0, 0, 0])
    f_web = complex(sb.vec_mat[0, 0, 0, 0])   # d/detabar d/dW
    f_wbe = complex(sb.mat_vec[0, 0, 0, 0])   # d/dWbar d/deta
    val = (d ** 2 * f_wwb + d * f_eeb
           + d * (eta - eta.conjugate() * w) * f_web
           + d * (eta.conjugate() - eta * w.conjugate()) * f_wbe
           - (w.conjugate() * eta ** 2 + w * eta.conjugate() ** 2) * f_eeb
           + (1.0 + abs(w) ** 2) * abs(eta) ** 2 * f_eeb)
    return _real_value(val, "closed disk laplacian")


# ---------------------------------------------------------------------------
# The four named invariant operators


def op_invariant(kind: str, f, p, h: float | None = None,
                 _sb: SecondBundle | None = None) -> float:
    """Apply one of the first-class invariant operators.

    D       sigma(Y dZ t(dZbar))                       (upper model)
    L       the shifted Maass part, = lap/4 - D        (upper model)
            at unit weights
    Dtilde  sigma((I-Wbar W) deta t(detabar))          (disk model)
    Ltilde  the shifted Maass part, = lap - Dtilde     (disk model)
    """
    if kind in ("D", "L"):
        if not isinstance(p, UpperPoint):
            raise ValueError(f"operator {kind} needs an upper-model point")
        sb = _sb if _sb is not None else second_bundle(f, p, h, mat_only=False)
        part_a, part_b = _upper_parts(p, sb)
        val = part_b if kind == "D" else part_a
    elif kind in ("Dtilde", "Ltilde"):
        if not isinstance(p, DiskPoint):
            raise ValueError(f"operator {kind} needs a disk-model point")
        sb = _sb if _sb is not None else second_bundle(f, p, h, mat_only=False)
        part_a, part_b = _disk_parts(p, sb)
        val = part_b if kind == "Dtilde" else part_a
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    return _real_value(complex(val), f"operator {kind}")


# ---------------------------------------------------------------------------
# Test fields


def _tr(x: np.ndarray) -> np.ndarray:
    """Trace of each matrix of a stack (or of one matrix)."""
    return np.trace(x, axis1=-2, axis2=-1)


def test_field_suite(model: str, n: int, m: int, seed: int,
                     mat_only: bool = False) -> list:
    """Deterministic suite: constant, random linear, quadratic trace,
    Gaussian bump with random center, and a product field.  All five are
    stack-safe."""
    if model not in ("upper", "disk"):
        raise ValueError(f"unknown model {model!r}")
    rng = np.random.default_rng(seed)
    chart = Chart(model, n, m, include_vec=not mat_only)
    coeff = rng.uniform(-1.0, 1.0, chart.dim)
    center = rng.uniform(-0.5, 0.5, chart.dim)
    lam0 = rng.uniform(-1.0, 1.0, (m, n))
    a0 = rng.uniform(-1.0, 1.0, (n, n))
    a0 = 0.5 * (a0 + a0.T)

    def blocks(p):
        return (p.omega, p.z) if model == "upper" else (p.w, p.eta)

    def lin(p):
        return chart.point_to_vec(p) @ coeff

    if model == "upper":
        def quad(p):
            return np.sum(p.y * p.y, axis=(-2, -1))
    else:
        def quad(p):
            return _tr(p.w.conj() @ p.w).real

    def gauss(p):
        d = chart.point_to_vec(p)
        d -= center
        return np.exp(-np.einsum("...i,...i->...", d, d))

    if mat_only:
        def cross(p):
            mat, _ = blocks(p)
            return _tr(mat).real * _tr(a0 @ mat).imag
    else:
        def cross(p):
            mat, vec = blocks(p)
            return _tr(mat).real * _tr(vec @ lam0.T).imag

    return [
        ScalarField("const", model, lambda p: np.ones(p.batch), mat_only, stacked=True),
        ScalarField("linear", model, lin, mat_only, stacked=True),
        ScalarField("trace-quad", model, quad, mat_only, stacked=True),
        ScalarField("gauss", model, gauss, mat_only, stacked=True),
        ScalarField("cross", model, cross, mat_only, stacked=True),
    ]


def named_field(model: str, n: int, m: int, name: str) -> ScalarField:
    """Fixed fields addressable by id (independent of any seed); all stack-safe."""
    rows, cols = np.triu_indices(n)
    if model == "disk":
        table = {
            "absW2": lambda p: np.sum(np.abs(p.w[..., rows, cols]) ** 2, axis=-1),
            "absEta2": lambda p: np.sum(np.abs(p.eta) ** 2, axis=(-2, -1)),
            "reSigmaW": lambda p: _tr(p.w).real,
            "logDetIWW": lambda p: np.log(np.linalg.det(
                np.eye(n) - p.w.conj() @ p.w).real),
        }
        mat_only = ()
    elif model == "upper":
        table = {
            "absZ2": lambda p: np.sum(np.abs(p.z) ** 2, axis=(-2, -1)),
            "sigmaY": lambda p: _tr(p.y),
            "logDetY": lambda p: np.log(np.linalg.det(p.y)),
        }
        mat_only = ("sigmaY", "logDetY")
    else:
        raise ValueError(f"unknown model {model!r}")
    if name not in table:
        raise KeyError(f"unknown field id {name!r} for model {model}")
    return ScalarField(name, model, table[name], mat_only=name in mat_only, stacked=True)


def field_registry_ids(model: str) -> list[str]:
    suite = ["const", "linear", "trace-quad", "gauss", "cross"]
    named = (["absW2", "absEta2", "reSigmaW", "logDetIWW"] if model == "disk"
             else ["absZ2", "sigmaY", "logDetY"])
    return suite + named
