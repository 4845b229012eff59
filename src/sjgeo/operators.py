"""Wirtinger finite-difference engine and the invariant differential operators.

Derivatives with respect to the symmetric matrix variable carry the
weight (1 + delta_mu_nu)/2 on each entry; the entry (mu, nu) with
mu != nu differentiates with respect to the single independent variable
sitting in both mirrored slots.  Derivatives with respect to the
rectangular variable are arranged as an n x m matrix whose (l, k) entry
differentiates the (k, l) entry, matching the transposed layout used in
all trace contractions.

Each operator takes the SecondBundle of a field at the point, built by
second_bundle(f, p), and contracts it with coefficients evaluated at the
point; no operator differentiates, so one bundle serves every operator
at its point.  A bundle is the mixed Wirtinger matrix of the chart's
complex slots, gathered into four tensors by bundle_of(mixed, chart),
which second_bundle ends in; any Hermitian slot matrix makes a bundle,
such as one moved by the chain rule (see verify's invariance checks).
lap_siegel and lap_disk_n read the matrix block only and also take a
matrix-only bundle; the others need the full-chart one:

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
extrapolation level (h, h/2).  Each level's stencil is one (N, dim)
array of chart coordinates, and the field is called once on the N
stacked points: every field takes a stacked point and returns one value
per point (see ScalarField).

Every function here also takes a stacked point of K points (see
geometry.UpperPoint): second_bundle then differentiates at each point
with that point's own step, so the stencils of all K points are one
node array and one field call per Richardson level, and the bundle's
tensors gain a leading axis of length K.  The operators contract such a
bundle with the K points' coefficients and return one value per point;
for a single point they return a float.  A point's bundle and operator
values are the same, to the last bit, alone or in a stack of any size:
the suite fields, the contractions, mat_inverse and cmatrix.mat_mul (the
product of a stack's matrices, used by the metric forms, the fields and
the actions) round each point alike wherever it sits, in any memory order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .cmatrix import SeedStream, mat_inverse, mat_mul, seeded
from .geometry import DiskPoint, UpperPoint, point_margin
from .metrics import Chart, _realize, chart_of

__all__ = [
    "DomainMargin",
    "ScalarField",
    "SecondBundle",
    "default_step",
    "second_bundle",
    "bundle_of",
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

class DomainMargin(Exception):
    """Raised when a point is too close to its domain boundary for the stencil."""


@dataclass(frozen=True)
class ScalarField:
    """Deterministic scalar test function on one model.

    ``fn`` takes a point or a stacked point (see geometry.UpperPoint) and
    returns one value per point, shape ``p.batch``, where value k depends
    on point k alone; the finite-difference engine evaluates a whole
    stencil in one call.  The same contract holds for a plain callable
    passed to second_bundle or verify.laplace_beltrami.
    """

    name: str
    model: str
    fn: Callable
    mat_only: bool = False

    def __call__(self, p):
        """The value at one point (a float), or at each point of a stack
        (an array of shape p.batch)."""
        vals = _one_per_point(self.fn(p), p, self.name)
        return vals if p.batch else float(vals)


def _one_per_point(vals, p, name: str) -> np.ndarray:
    """A field's values at p as floats, rejected unless there is one per point."""
    vals = np.asarray(vals, dtype=np.float64)
    if vals.shape != p.batch:
        raise ValueError(f"field {name!r} returned shape {vals.shape} for points of "
                         f"batch shape {p.batch}: a field takes a stacked point and "
                         f"returns one value per point")
    return vals


@dataclass(frozen=True)
class SecondBundle:
    """Mixed (barred x unbarred) weighted second Wirtinger derivatives.

    mat_mat[k,e,c,a] pairs the conjugate matrix derivative at (k,e) with
    the plain one at (c,a); vec_vec, mat_vec, vec_mat follow the same
    barred-first convention.  ``mixed`` is the slot matrix the tensors
    are gathered from (see bundle_of, the one constructor).
    """

    mixed: np.ndarray
    mat_mat: np.ndarray
    vec_vec: np.ndarray | None
    mat_vec: np.ndarray | None
    vec_mat: np.ndarray | None


def default_step(p, chart: Chart, order: int = 2) -> float:
    """1e-5 (1 + scale) for first derivatives, 1e-4 (1 + scale) for nested ones."""
    base = 1e-5 if order == 1 else 1e-4
    return base * (1.0 + chart.point_scale(p))


def _require_margin(p, needed, where=True):
    """DomainMargin unless every point of p keeps a margin above its step
    budget; ``where`` (one flag per point) exempts the points where it is false."""
    margin, needed, where = np.broadcast_arrays(point_margin(p), needed, where)
    short = where & (margin <= needed)
    if np.any(short):
        k = np.argmax(short)
        raise DomainMargin(f"boundary margin {margin.flat[k]:.3e} insufficient "
                           f"for step budget {needed.flat[k]:.3e}")


def _field_at_nodes(f, chart: Chart, nodes: np.ndarray) -> np.ndarray:
    """Values of f at the rows of a (N, dim) array of chart coordinates,
    from one call of f on the N stacked points."""
    points = chart.vec_to_point(nodes)
    del nodes   # a temporary the caller passed is freed before the field runs
    name = getattr(f, "name", getattr(f, "__name__", type(f).__name__))
    return _one_per_point(f(points), points, name)


@cache
def _hess_offsets(d: int) -> tuple:
    """The node offsets of _hess_real in units of the step, one read-only
    (1 + 2d + 2d(d-1), d) table per chart dimension d, and the (i, j),
    i < j, of its mixed rows.

    The rows are the centre, +-2 e_i, then e_i + e_j, e_i - e_j,
    -(e_i - e_j) and -(e_i + e_j) for i < j.  Every entry is 0, +-1 or +-2,
    so h * offset is exact, and a zero offset of a subtracted node is -0.0
    (the centre's too): c + h * offset is, to the last bit and the sign of
    zero, c - h * e for a subtracted node and c itself at the centre.
    """
    e = np.eye(d)
    iu, ju = np.triu_indices(d, 1)
    both = e[iu] + e[ju]
    skew = e[iu] - e[ju]
    table = np.concatenate([np.full((1, d), -0.0), 2.0 * e, -(2.0 * e),
                            both, skew, -skew, -both])
    for a in (table, iu, ju):
        a.flags.writeable = False
    return table, iu, ju


def _hess_real(f, chart: Chart, v0: np.ndarray, h) -> np.ndarray:
    """Nested central differences; mixed entries reduce to the 4-point stencil.

    At each row of v0, shape (..., dim), with the matching step of h
    (shape v0.shape[:-1]), the nodes are the centre, v0 +- 2h e_i, and
    v0 +- h e_i +- h e_j for i < j: c + h * offsets, with the chart
    dimension's offset table (_hess_offsets), built in place as one array,
    the only one of its size.  The nodes of all rows are evaluated in one
    _field_at_nodes call.
    """
    d = chart.dim
    offsets, iu, ju = _hess_offsets(d)
    h = np.asarray(h, dtype=np.float64)[..., None, None]
    nodes = h * offsets
    nodes += v0[..., None, :]
    vals = _field_at_nodes(f, chart, nodes.reshape(-1, d))
    vals = vals.reshape(v0.shape[:-1] + (-1,))
    f0, fp, fm = vals[..., :1], vals[..., 1: 1 + d], vals[..., 1 + d: 1 + 2 * d]
    corners = vals[..., 1 + 2 * d:].reshape(v0.shape[:-1] + (4, -1))
    fpp, fpm, fmp, fmm = np.moveaxis(corners, -2, 0)
    h = h[..., 0]
    hess = np.empty(v0.shape[:-1] + (d, d))
    hess[..., np.arange(d), np.arange(d)] = (fp - 2.0 * f0 + fm) / (4.0 * h * h)
    mixed = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    hess[..., iu, ju] = mixed
    hess[..., ju, iu] = mixed
    return hess


def _mixed_wirtinger(hess: np.ndarray, chart: Chart) -> np.ndarray:
    """Complex matrix of d/dconj(c_t) d/dc_s from the real Hessian (per sample of a stack)."""
    x, y = chart.x_indices, chart.y_indices
    hxx = hess[..., x[:, None], x]
    hyy = hess[..., y[:, None], y]
    hyx = hess[..., y[:, None], x]
    hxy = hess[..., x[:, None], y]
    return 0.25 * ((hxx + hyy) + 1j * (hyx - hxy))


def second_bundle(f, p, mat_only: bool | None = None) -> SecondBundle:
    """Mixed second Wirtinger tensors of f at p with one Richardson level.

    ``mat_only`` (default: the field's own flag) drops the vector blocks;
    lap_siegel and lap_disk_n need only the matrix block, every other
    operator needs the full-chart bundle (``mat_only=False``).  At a
    stacked point each tensor gains the leading sample axis.
    """
    if mat_only is None:
        mat_only = getattr(f, "mat_only", False)
    chart = chart_of(p.model, p.n, p.m, not mat_only)
    h = np.asarray(default_step(p, chart, order=2))
    _require_margin(p, 4.0 * h)
    v0 = chart.point_to_vec(p)
    coarse = _hess_real(f, chart, v0, h)
    fine = _hess_real(f, chart, v0, 0.5 * h)
    return bundle_of(_mixed_wirtinger((4.0 * fine - coarse) / 3.0, chart), chart)


def bundle_of(mixed: np.ndarray, chart: Chart) -> SecondBundle:
    """The bundle of a mixed slot matrix over ``chart``'s complex slots,
    mixed[..., t, s] = d/dconj(c_t) d/dc_s, one matrix or a stack.

    Any such matrix makes a bundle: a field's (second_bundle), or one
    moved by the chain rule or drawn at random (the invariance checks).
    The matrix derivative pairs carry the weights of the symmetric entries
    (chart.mat_weights); the bundle keeps ``mixed`` as it is.
    """
    ms, mw = chart.mat_entry_slots, chart.mat_weights
    # barred index pair first: tensor[k,e,c,a] = w(k,e) w(c,a) mixed[slot(k,e), slot(c,a)]
    mat_mat = (mw[:, :, None, None] * mw[None, None, :, :]
               * mixed[..., ms[:, :, None, None], ms[None, None, :, :]])
    if chart.include_vec:
        vs = chart.vec_entry_slots
        vec_vec = mixed[..., vs[:, :, None, None], vs[None, None, :, :]]
        mat_vec = (mw[:, :, None, None]
                   * mixed[..., ms[:, :, None, None], vs[None, None, :, :]])
        vec_mat = (mw[None, None, :, :]
                   * mixed[..., vs[:, :, None, None], ms[None, None, :, :]])
    else:
        vec_vec = mat_vec = vec_mat = None
    return SecondBundle(mixed, mat_mat, vec_vec, mat_vec, vec_mat)


def _require_full(sb: SecondBundle):
    if sb.vec_vec is None:
        raise ValueError("operator needs the full-chart bundle: "
                         "second_bundle(f, p, mat_only=False)")


# ---------------------------------------------------------------------------
# The shifted-derivative tensor shared by both corrected Laplacians


def _hat_mat_mat(sb: SecondBundle, twist: np.ndarray, sign: float) -> np.ndarray:
    """Second-derivative tensor of hat = dmat + sign * Sym[(dvec) twist].

    ``twist`` is the m x n coefficient of the shift; the result replaces
    sb.mat_mat in the Maass-type contraction.  Normal ordering is exact
    here: the shift coefficients are holomorphic in the unbarred slots,
    so no first-order remainders appear.
    """
    _require_full(sb)
    tw = twist[..., None, None, :, :]
    twc_t = twist.conj().mT[..., None, :, :]

    def barred(x):   # sum_j conj(twist)[j, e] x[k, j, c, a], as [k, e, c, a]
        flat = twc_t @ x.reshape(x.shape[:-2] + (-1,))
        return flat.reshape(x.shape[:-3] + (x.shape[-2],) * 3)

    def sym_plain(x):    # symmetrized over the unbarred index pair (c, a)
        return x + x.swapaxes(-1, -2)

    def sym_barred(x):   # symmetrized over the barred index pair (k, e)
        return x + x.swapaxes(-4, -3)

    half = 0.5 * sign
    # (dmatbar)(dvec) and (dvecbar)(dmat) cross blocks, then the (dvecbar)(dvec) block
    return (sb.mat_mat
            + half * sym_plain(sb.mat_vec @ tw)
            + half * sym_barred(barred(sb.vec_mat))
            + 0.25 * sym_barred(sym_plain(barred(sb.vec_vec @ tw))))


def _contract(outer: np.ndarray, inner: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """sum of outer[w, y] inner[x, z] tensor[w, x, y, z] over w, x, y, z,
    one value per sample of a stack.

    Products and one sum over one flattened axis, not einsum: einsum's
    summation order can change with the stack size, and then a sample's
    value would depend on the stack it sits in.  Nor a sum over the four
    axes: the product keeps the memory order of bundle_of's gathers, which
    put the stack axis last, and once it holds 2^14 entries or more numpy
    sums several axes in that order.  Summed as one C-order row, a
    sample's products give the same value alone or in a stack of any size.
    """
    prod = outer[..., :, None, :, None] * inner[..., None, :, None, :] * tensor
    return np.sum(prod.reshape(prod.shape[:-4] + (-1,)), axis=-1)


def _maass(left: np.ndarray, tensor: np.ndarray) -> np.ndarray:
    """sigma(L t(L dbar) d) of a (k,e,c,a) tensor: sum of L[a,e] L[c,k] tensor[k,e,c,a]."""
    return _contract(left.mT, left.mT, tensor)


def _vec_part(coef: np.ndarray, sb: SecondBundle) -> np.ndarray:
    """sigma(C dvec t(dvecbar)): sum of coef[a,c] vec_vec[a,k,c,k]."""
    return _contract(coef, np.eye(sb.vec_vec.shape[-1]), sb.vec_vec)


# ---------------------------------------------------------------------------
# Upper-model operators


def _upper_terms_printed(p: UpperPoint, sb: SecondBundle):
    _require_full(sb)
    y = p.y.astype(complex)
    v = p.v.astype(complex)
    yi = mat_inverse(y)
    t1 = _maass(y, sb.mat_mat)
    t2 = _contract(y.mT, (v @ yi @ v.mT).mT, sb.vec_vec)
    t3 = _contract(y.mT, v.mT, sb.mat_vec)
    t4 = _contract(y.mT, v, sb.vec_mat)
    t5 = _vec_part(y, sb)
    return t1, t2, t3, t4, t5


def _upper_l(p: UpperPoint, sb: SecondBundle):
    """The corrected Maass-type block L: the shifted Maass part."""
    y = p.y.astype(complex)
    v = p.v.astype(complex)
    hat = _hat_mat_mat(sb, v @ mat_inverse(y), +1.0)
    return _maass(y, hat)


def _upper_d(p: UpperPoint, sb: SecondBundle):
    """The dZ block D: sigma(Y dZ t(dZbar)), with no inversion."""
    _require_full(sb)
    return _vec_part(p.y.astype(complex), sb)


def lap_siegel(sb: SecondBundle, p: UpperPoint):
    """4 sigma(Y t(Y dOmegabar) dOmega) applied to a field of Omega alone."""
    return _realize(4.0 * _maass(p.y.astype(complex), sb.mat_mat), "siegel laplacian")


def lap_upper(sb: SecondBundle, p: UpperPoint, params):
    """Laplacian of the two-parameter family on the Siegel-Jacobi space."""
    val = (4.0 / params.a) * _upper_l(p, sb) + (4.0 / params.b) * _upper_d(p, sb)
    return _realize(val, "upper laplacian")


def lap_upper_printed(sb: SecondBundle, p: UpperPoint, params):
    """Literal five-term transcription of the widely used expanded display.

    Deviates from the true Laplacian for n >= 2 (the display drops the
    symmetrization of the derivative shift); kept for comparison runs.
    """
    t1, t2, t3, t4, t5 = _upper_terms_printed(p, sb)
    val = (4.0 / params.a) * (t1 + t2 + t3 + t4) + (4.0 / params.b) * t5
    return _realize(val, "upper laplacian (printed)")


# ---------------------------------------------------------------------------
# Disk-model operators


def _disk_terms_printed(p: DiskPoint, sb: SecondBundle):
    _require_full(sb)
    n = p.n
    eye = np.eye(n)
    w = p.w
    wc = w.conj()
    eta = p.eta
    ec = eta.conj()
    lm = eye - w @ wc
    rm = eye - wc @ w
    lm_inv = mat_inverse(lm)
    rm_inv = lm_inv.conj()      # rm is conj(lm)
    t1 = _maass(lm, sb.mat_mat)
    t2 = _contract(rm, eta - ec @ w, sb.vec_mat)
    t3 = _contract(lm.mT, (ec - eta @ wc).mT, sb.mat_vec)
    c4 = eta @ wc @ lm_inv @ eta.mT
    c5 = ec @ w @ rm_inv @ ec.mT
    c6 = ec @ lm_inv @ eta.mT
    c7 = eta @ wc @ w @ rm_inv @ ec.mT
    t_eta = _contract(rm, (-c4 - c5 + c6 + c7).mT, sb.vec_vec)
    t8 = _vec_part(rm, sb)
    return t1, t2, t3, t_eta, t8


def _disk_l(p: DiskPoint, sb: SecondBundle):
    """The corrected Maass-type block Ltilde: the shifted Maass part."""
    lm = np.eye(p.n) - p.w @ p.w.conj()
    twist = (p.eta @ p.w.conj() - p.eta.conj()) @ mat_inverse(lm)
    hat = _hat_mat_mat(sb, twist, -1.0)
    return _maass(lm, hat)


def _disk_d(p: DiskPoint, sb: SecondBundle):
    """The deta block Dtilde: sigma((I-Wbar W) deta t(detabar)), with no inversion."""
    _require_full(sb)
    return _vec_part(np.eye(p.n) - p.w.conj() @ p.w, sb)


def lap_disk_n(sb: SecondBundle, p: DiskPoint):
    """sigma((I-W Wbar) t((I-W Wbar) dWbar) dW) on a field of W alone."""
    lm = np.eye(p.n) - p.w @ p.w.conj()
    return _realize(_maass(lm, sb.mat_mat), "disk laplacian")


def lap_disk(sb: SecondBundle, p: DiskPoint, params):
    """Laplacian of the two-parameter family on the Siegel-Jacobi disk."""
    val = (1.0 / params.a) * _disk_l(p, sb) + (1.0 / params.b) * _disk_d(p, sb)
    return _realize(val, "disk laplacian")


def lap_disk_printed(sb: SecondBundle, p: DiskPoint, params):
    """Literal eight-term transcription of the expanded display; deviates
    from the true Laplacian for n >= 2 (see lap_disk)."""
    t1, t2, t3, t_eta, t8 = _disk_terms_printed(p, sb)
    val = (1.0 / params.a) * (t1 + t2 + t3 + t_eta) + (1.0 / params.b) * t8
    return _realize(val, "disk laplacian (printed)")


def lap_disk_closed_11(sb: SecondBundle, p: DiskPoint):
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
    _require_full(sb)
    w = p.w[..., 0, 0]
    eta = p.eta[..., 0, 0]
    d = 1.0 - abs(w) ** 2
    f_wwb = sb.mat_mat[..., 0, 0, 0, 0]
    f_eeb = sb.vec_vec[..., 0, 0, 0, 0]
    f_web = sb.vec_mat[..., 0, 0, 0, 0]   # d/detabar d/dW
    f_wbe = sb.mat_vec[..., 0, 0, 0, 0]   # d/dWbar d/deta
    val = (d ** 2 * f_wwb + d * f_eeb
           + d * (eta - eta.conjugate() * w) * f_web
           + d * (eta.conjugate() - eta * w.conjugate()) * f_wbe
           - (w.conjugate() * eta ** 2 + w * eta.conjugate() ** 2) * f_eeb
           + (1.0 + abs(w) ** 2) * abs(eta) ** 2 * f_eeb)
    return _realize(val, "closed disk laplacian")


# ---------------------------------------------------------------------------
# The four named invariant operators


# Each operator's model and the one block that computes it.
_INVARIANT = {"D": ("upper", _upper_d), "L": ("upper", _upper_l),
              "Dtilde": ("disk", _disk_d), "Ltilde": ("disk", _disk_l)}


def op_invariant(kind: str, sb: SecondBundle, p):
    """Apply one of the first-class invariant operators.

    D       sigma(Y dZ t(dZbar))                       (upper model)
    L       the shifted Maass part, = lap/4 - D        (upper model)
            at unit weights
    Dtilde  sigma((I-Wbar W) deta t(detabar))          (disk model)
    Ltilde  the shifted Maass part, = lap - Dtilde     (disk model)

    Only the named block is computed: D and Dtilde are one contraction
    of the bundle's vector block; L and Ltilde build the shifted tensor
    and invert one matrix per point.  lap_upper and lap_disk are the
    weighted sums of the same blocks.
    """
    if kind not in _INVARIANT:
        raise ValueError(f"unknown operator kind {kind!r}")
    model, part = _INVARIANT[kind]
    if p.model != model:
        raise ValueError(f"operator {kind} needs a point of the {model} model")
    return _realize(part(p, sb), f"operator {kind}")


# ---------------------------------------------------------------------------
# Test fields


def _tr(x: np.ndarray) -> np.ndarray:
    """Trace of each matrix of a stack (or of one matrix)."""
    return np.trace(x, axis1=-2, axis2=-1)


def _tr_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_tr(mat_mul(a, b)), to the last bit, from the diagonal alone: each
    diagonal entry summed over k in mat_mul's order."""
    diag = a[..., :, 0] * b[..., 0, :]
    for k in range(1, a.shape[-1]):
        diag += a[..., :, k] * b[..., k, :]
    return diag.sum(axis=-1)


# The fields of test_field_suite, in its order.
_SUITE_IDS = ("const", "linear", "trace-quad", "gauss", "cross")


def _suite_draw(dim: int, n: int, m: int, stream: SeedStream) -> tuple:
    """Each seed's linear coefficients and Gaussian center in a chart of
    dimension ``dim``, and the product field's lambda_0 and A_0 (not yet
    symmetrized)."""
    return stream.uniform((-1.0, 1.0, dim), (-0.5, 0.5, dim),
                          (-1.0, 1.0, (m, n)), (-1.0, 1.0, (n, n)))


def test_field_suite(model: str, n: int, m: int, seed: int,
                     mat_only: bool = False) -> list:
    """Deterministic suite: constant, random linear, quadratic trace,
    Gaussian bump with random center, and a product field."""
    if model not in ("upper", "disk"):
        raise ValueError(f"unknown model {model!r}")
    chart = chart_of(model, n, m, not mat_only)
    coeff, center, lam0, a0 = seeded(seed, (n, m), lambda s: _suite_draw(chart.dim, n, m, s),
                                     lambda *drawn: drawn)
    a0 = 0.5 * (a0 + a0.T)

    def blocks(p):
        return (p.omega, p.z) if model == "upper" else (p.w, p.eta)

    def lin(p):
        # a sum per point, not a BLAS product, whose rounding of a row
        # depends on the row's position in the stack
        v = chart.point_to_vec(p)
        v *= coeff
        return np.sum(v, axis=-1)

    if model == "upper":
        def quad(p):
            return np.sum(p.y * p.y, axis=(-2, -1))
    else:
        def quad(p):
            return _tr_mul(p.w.conj(), p.w).real

    def gauss(p):
        d = chart.point_to_vec(p)
        d -= center
        return np.exp(-np.einsum("...i,...i->...", d, d))

    if mat_only:
        def cross(p):
            mat, _ = blocks(p)
            return _tr(mat).real * _tr_mul(a0, mat).imag
    else:
        def cross(p):
            mat, vec = blocks(p)
            return _tr(mat).real * _tr_mul(vec, lam0.T).imag

    fns = (lambda p: np.ones(p.batch), lin, quad, gauss, cross)
    return [ScalarField(name, model, fn, mat_only) for name, fn in zip(_SUITE_IDS, fns)]


def _abs_w2(p):
    """The sum of |W_ij|^2 over the upper triangle."""
    rows, cols = np.triu_indices(p.n)
    return np.sum(np.abs(p.w[..., rows, cols]) ** 2, axis=-1)


# The fixed fields of each model, by id, and the ids of those of Omega alone.
_FIXED = {
    "disk": {
        "absW2": _abs_w2,
        "absEta2": lambda p: np.sum(np.abs(p.eta) ** 2, axis=(-2, -1)),
        "reSigmaW": lambda p: _tr(p.w).real,
        "logDetIWW": lambda p: np.log(np.linalg.det(np.eye(p.n)
                                                    - mat_mul(p.w.conj(), p.w)).real),
    },
    "upper": {
        "absZ2": lambda p: np.sum(np.abs(p.z) ** 2, axis=(-2, -1)),
        "sigmaY": lambda p: _tr(p.y),
        "logDetY": lambda p: np.log(np.linalg.det(p.y)),
    },
}
_FIXED_MAT_ONLY = ("sigmaY", "logDetY")


def named_field(model: str, n: int, m: int, name: str, seed: int) -> ScalarField:
    """The field with id ``name``: a field of test_field_suite(model, n, m,
    seed), or a fixed field, which does not depend on the seed."""
    for f in test_field_suite(model, n, m, seed):
        if f.name == name:
            return f
    if name not in _FIXED[model]:
        raise KeyError(f"unknown field id {name!r} for model {model}")
    return ScalarField(name, model, _FIXED[model][name], mat_only=name in _FIXED_MAT_ONLY)


def field_registry_ids(model: str) -> list[str]:
    """Every id named_field resolves for ``model``."""
    return list(_SUITE_IDS) + list(_FIXED[model])
