"""Invariant metrics as evaluable quadratic forms, plus the real chart.

Four line elements are implemented as quadratic forms on tangents:

  * q_siegel   -- sigma(Y^-1 dOmega Y^-1 conj(dOmega)) on the Siegel space.
  * q_upper    -- the two-parameter family on the Siegel-Jacobi space,
                  5 trace terms coupling dOmega and dZ through Y and V.
  * q_disk_n   -- 4 sigma((I-W conj W)^-1 dW (I-conj(W) W)^-1 conj(dW)).
  * q_disk     -- the two-parameter family on the Siegel-Jacobi disk,
                  10 trace terms; transcribed exactly as printed,
                  including the two terms carrying (I - conj W)^-1.

Each form is held as coefficient blocks that depend on the point only;
metric_tensor contracts them against the chart's basis tangents, for one
point or a stack of points, and returns the read-only (..., dim, dim)
float array of the form in the chart.

The chart fixes a canonical ordering of real coordinates: independent Re
entries of the symmetric matrix block (row-major over the upper
triangle), then the matching Im entries, then Re of the rectangular
block row-major, then its Im entries.  Tangent basis vectors for
off-diagonal symmetric entries set both mirrored matrix entries to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .cmatrix import (
    SeedStream,
    mat_from_json,
    mat_inverse,
    mat_max_abs,
    mat_mul,
    mat_to_json,
    seeded,
    sym_defect,
)
from .geometry import DiskPoint, UpperPoint, _frozen_pair, _point_blocks

__all__ = [
    "Tangent",
    "MetricParams",
    "Chart",
    "chart_of",
    "q_siegel",
    "q_upper",
    "q_disk_n",
    "q_disk",
    "q_disk_closed_11",
    "metric_tensor",
    "random_tangent",
    "tangent_to_json",
    "tangent_from_json",
]

# Transcription bugs in the self-conjugate trace sums and the operators'
# contractions show up as O(1) imaginary parts; round-off stays far below.
_IMAG_GUARD = 1e-6

# The two blocks of a tangent: the symmetric dmat and the rectangular dvec.
_MAT, _VEC = 0, 1


@dataclass(frozen=True)
class Tangent:
    """Tangent vector: symmetric dmat (dOmega or dW) and dvec (dZ or deta).

    A stacked tangent holds K tangents as (K, n, n) and (K, m, n) arrays,
    like a stacked point.
    """

    model: str
    dmat: np.ndarray
    dvec: np.ndarray

    def __post_init__(self):
        if self.model not in ("upper", "disk"):
            raise ValueError(f"unknown model {self.model!r}")
        dmat, dvec = _frozen_pair(self.dmat, self.dvec, "dmat", "dvec")
        if np.any(sym_defect(dmat) > 1e-12 * (1.0 + mat_max_abs(dmat))):
            raise ValueError("dmat must be symmetric")
        object.__setattr__(self, "dmat", dmat)
        object.__setattr__(self, "dvec", dvec)

    @property
    def n(self) -> int:
        return self.dmat.shape[-1]

    @property
    def m(self) -> int:
        return self.dvec.shape[-2]


@dataclass(frozen=True)
class MetricParams:
    """The two positive weights of the metric family."""

    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise ValueError("both metric parameters must be positive")


class Chart:
    """Canonical real chart of either model (optionally the matrix part only).

    Points and tangents share one packing; the unpacking methods also take
    a (K, dim) array of coordinate rows and return K stacked points.  A
    chart's index arrays are read-only, so one chart serves every caller:
    the library takes its charts from chart_of, which builds each once.
    """

    def __init__(self, model: str, n: int, m: int, include_vec: bool = True):
        if model not in ("upper", "disk"):
            raise ValueError(f"unknown model {model!r}")
        self.model = model
        self.n = n
        self.m = m
        self.include_vec = include_vec
        # Upper triangle, row-major: the independent entries of the symmetric block.
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        self.mat_rows, self.mat_cols = np.array(pairs, dtype=int).T
        self.n_mat_slots = len(pairs)
        self.n_vec_slots = m * n if include_vec else 0
        self.n_slots = self.n_mat_slots + self.n_vec_slots
        self.dim = 2 * self.n_slots

        # Real coordinate index of the Re / Im part of each complex slot.
        self.x_indices = np.concatenate([
            np.arange(self.n_mat_slots),
            2 * self.n_mat_slots + np.arange(self.n_vec_slots),
        ]).astype(int)
        self.y_indices = np.concatenate([
            self.n_mat_slots + np.arange(self.n_mat_slots),
            2 * self.n_mat_slots + self.n_vec_slots + np.arange(self.n_vec_slots),
        ]).astype(int)

        # Slot index and weight per matrix entry of the symmetric block.
        self.mat_entry_slots = np.zeros((n, n), dtype=int)
        self.mat_weights = np.zeros((n, n))
        for s, (i, j) in enumerate(pairs):
            self.mat_entry_slots[i, j] = self.mat_entry_slots[j, i] = s
            self.mat_weights[i, j] = self.mat_weights[j, i] = 0.5 if i != j else 1.0

        # Slot index per entry of the n x m derivative arrangement: the
        # (l, k) entry differentiates with respect to the (k, l) entry of
        # the rectangular block.
        if include_vec:
            self.vec_entry_slots = np.zeros((n, m), dtype=int)
            for k in range(m):
                for l in range(n):
                    self.vec_entry_slots[l, k] = self.n_mat_slots + k * n + l
        # The index tables of _form_matrix, one per pair of blocks.
        self.slot_ranges = (slice(0, self.n_mat_slots), slice(self.n_mat_slots, self.n_slots))
        blocks = (_MAT, _VEC) if include_vec else (_MAT,)
        self.form_gathers = {(x, y): self._form_gather(x, y) for x in blocks for y in blocks}
        arrays = [a for a in vars(self).values() if isinstance(a, np.ndarray)]
        for index in arrays + [a for table in self.form_gathers.values() for a in table]:
            index.flags.writeable = False

    def _unit_entries(self, block: int):
        """The unit entries of each basis tangent of a block's slots, in
        row-major order: (slots, 2) arrays of rows and of columns, and a
        flag per slot whose tangent has one unit entry (a diagonal dmat
        slot or a dvec slot), which the arrays then repeat."""
        if block == _MAT:
            i, j = self.mat_rows, self.mat_cols     # i <= j: entries (i, j) and (j, i)
            return np.stack([i, j], axis=-1), np.stack([j, i], axis=-1), i == j
        k, l = np.divmod(np.arange(self.n_vec_slots), self.n)     # dvec[k, l]
        return np.stack([k, k], axis=-1), np.stack([l, l], axis=-1), np.ones(k.shape, dtype=bool)

    def _form_gather(self, x: int, y: int) -> tuple:
        """Read-only tables of the products of a form term whose linear slot
        is in block x and conjugate slot in block y (see _form_matrix):
        flat indices into left and into right, each (S_x, S_y, 2, 2) over
        (s, t, entry a of E_t, entry b of E_s); a padding product reads
        index -1 of both, the +0 that _form_matrix appends to each."""
        s_rows, s_cols, s_single = self._unit_entries(x)
        t_rows, t_cols, t_single = self._unit_entries(y)
        # E_s's entries by column, as a product's inner sum meets them: the
        # reverse of row-major for a dmat slot, (j, i) in column i first
        r, k = s_rows[:, None, None, ::-1], s_cols[:, None, None, ::-1]
        c, d = t_rows[None, :, :, None], t_cols[None, :, :, None]
        left = c * (self.n if x == _MAT else self.m) + r     # left[c, r], left row-major
        right = k * self.n + d                               # right[k, d]
        second = np.arange(2) == 1
        pad = ((s_single[:, None, None, None] & second)
               | (t_single[None, :, None, None] & second[:, None]))
        return tuple(np.where(pad, -1, a) for a in (left, right))

    # -- packing shared by points and tangents -------------------------

    def _pack(self, mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
        ns, nv = self.n_mat_slots, self.n_vec_slots
        v = np.empty(mat.shape[:-2] + (self.dim,))
        v[..., :ns] = mat.real[..., self.mat_rows, self.mat_cols]
        v[..., ns: 2 * ns] = mat.imag[..., self.mat_rows, self.mat_cols]
        if self.include_vec:
            v[..., 2 * ns: 2 * ns + nv] = vec.real.reshape(v.shape[:-1] + (nv,))
            v[..., 2 * ns + nv:] = vec.imag.reshape(v.shape[:-1] + (nv,))
        return v

    def _unpack(self, v: np.ndarray):
        v = np.asarray(v, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[-1] != self.dim:
            raise ValueError(f"expected a vector of length {self.dim} "
                             f"or a stack of them")
        batch = v.shape[:-1]
        ns, nv = self.n_mat_slots, self.n_vec_slots
        mat = np.empty(batch + (self.n, self.n), dtype=np.complex128)
        mat.real = v[..., self.mat_entry_slots]
        mat.imag = v[..., ns + self.mat_entry_slots]
        vec = np.zeros(batch + (self.m, self.n), dtype=np.complex128)
        if self.include_vec:
            off = 2 * ns
            vec.real = v[..., off: off + nv].reshape(vec.shape)
            vec.imag = v[..., off + nv:].reshape(vec.shape)
        # new arrays that nothing else holds: a point or tangent takes them
        # as they are (cmatrix.frozen), without a copy
        mat.flags.writeable = vec.flags.writeable = False
        return mat, vec

    # -- points --------------------------------------------------------

    def _parts(self, p):
        if not isinstance(p, (UpperPoint, DiskPoint)) or p.model != self.model:
            raise TypeError(f"expected a point of the {self.model} model")
        return _point_blocks(p)

    def point_to_vec(self, p) -> np.ndarray:
        return self._pack(*self._parts(p))

    def vec_to_point(self, v: np.ndarray):
        point = UpperPoint if self.model == "upper" else DiskPoint
        return point(*self._unpack(v))

    # -- tangents ------------------------------------------------------

    def tangent_to_vec(self, t: Tangent) -> np.ndarray:
        if t.model != self.model:
            raise ValueError("tangent model does not match the chart")
        return self._pack(t.dmat, t.dvec)

    def vec_to_tangent(self, v: np.ndarray) -> Tangent:
        return Tangent(self.model, *self._unpack(v))

    def slot_basis(self):
        """Stacked dmat / dvec arrays of one basis tangent per complex slot:
        the tangent of the slot's Re coordinate.  The tangent of its Im
        coordinate is i times it.  The invariance checks (verify) push them
        through the action's differential to get its complex Jacobian."""
        return self._unpack(np.eye(self.dim)[self.x_indices])

    def slot_coords(self, mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
        """The complex slot coordinates of tangent blocks, one row per
        tangent of a stack: slot_basis's tangents give the identity."""
        coords = mat[..., self.mat_rows, self.mat_cols]
        if self.include_vec:
            coords = np.concatenate([coords, vec.reshape(vec.shape[:-2] + (-1,))], axis=-1)
        return coords

    def point_scale(self, p):
        """Largest coordinate magnitude; one per point of a stacked point."""
        scale = np.max(np.abs(self.point_to_vec(p)), axis=-1)
        return float(scale) if scale.ndim == 0 else scale


# ---------------------------------------------------------------------------
# Quadratic forms
#
# Each form is a list of terms (weight, left, x, right, y).  A term's value
# on a tangent is the Frobenius pairing sum((left @ X @ right) * conj(Y)),
# with X and Y taken from (dmat, dvec) by the slot indices x and y: linear
# in X, conjugate-linear in Y.  The trace terms sigma(A dM B conj(dM)) of
# the printed line elements take this shape because dM is symmetric.
# The coefficient blocks left / right depend on the point only, so one
# list serves every tangent, and on a stacked point they are stacked.
#
# metric_tensor pairs the chart's basis tangents E_s and E_t through each
# term.  A basis tangent has one or two unit entries (E_s[i, j] =
# E_s[j, i] = 1 for a dmat slot with i != j), so a term's entry is at
# most four products w left[c, r] right[k, d], with (r, k) a unit entry of
# E_s and (c, d) one of E_t; where E_s or E_t has one unit entry, the
# missing products are padding, which reads a +0 appended to both operands
# (+0 * +0 = +0).  _form_matrix gathers them by index tables
# that each chart builds once (Chart.form_gathers) and adds them in the
# order in which the matrix products ((w left) E_s) right, paired with
# E_t, would add them.  Those products' other summands are zeros, and a
# zero leaves a nonzero sum unchanged, so the tensor has their bits, and
# each point's bits do not depend on its stack.  A chart with S complex
# slots (S = n(n+1)/2 + mn) holds 4 S^2 table entries per array, and a
# term gathers 4 S^2 complex products per point.

def _realize(q, what: str):
    """The real part of q (a float for one value); ArithmeticError unless
    every value is real on its own scale, |imag| <= _IMAG_GUARD (1 + |real|)."""
    q = np.asarray(q)
    defect = np.abs(q.imag) - _IMAG_GUARD * (1.0 + np.abs(q.real))
    if np.any(defect > 0):
        raise ArithmeticError(f"{what} lost realness (defect {float(defect.max()):.3e})")
    return float(q.real) if q.ndim == 0 else q.real


def _chain(*factors) -> np.ndarray:
    """The product of the factors, multiplied left to right by mat_mul."""
    return reduce(mat_mul, factors)


def _siegel_terms(y: np.ndarray) -> list:
    yi = mat_inverse(y.astype(complex))
    return [(1.0, yi, _MAT, yi, _MAT)]


def _upper_terms(y: np.ndarray, v: np.ndarray, a: float, b: float) -> list:
    yi = mat_inverse(y.astype(complex))
    vyi = mat_mul(v, yi)
    c_vv = _chain(yi, v.mT, vyi)
    return [
        (a, yi, _MAT, yi, _MAT),
        (b, c_vv, _MAT, yi, _MAT),
        (b, np.eye(v.shape[-2]), _VEC, yi.mT, _VEC),
        (-b, vyi, _MAT, yi, _VEC),
        (-b, vyi.mT, _VEC, yi.mT, _MAT),
    ]


def _disk_n_terms(w: np.ndarray) -> list:
    n = w.shape[-1]
    li = mat_inverse(np.eye(n) - mat_mul(w, w.conj()))
    return [(4.0, li, _MAT, li.conj(), _MAT)]


def _disk_terms(w: np.ndarray, eta: np.ndarray, a: float, b: float) -> list:
    n = w.shape[-1]
    eye = np.eye(n)
    wc = w.conj()
    ec = eta.conj()
    li = mat_inverse(eye - mat_mul(w, wc))
    ri = li.conj()      # (I - conj(W) W)^-1; mat_inverse commutes with conj bit for bit
    one_minus_w = eye - w
    one_minus_wc = eye - wc
    one_minus_w_inv = mat_inverse(one_minus_w)
    one_minus_wc_inv = one_minus_w_inv.conj()
    li_et = mat_mul(li, eta.mT)     # the prefix of the first and third chains
    e1 = mat_mul(eta, wc) - ec
    e2 = mat_mul(ec, w) - eta
    # dW/conj(dW) coefficient, summed over the six eta-quadratic terms.
    c_mid = (
        - _chain(li_et, eta, ri, wc)
        - _chain(w, ri, ec.mT, ec, li)
        + _chain(li_et, ec, li)
        + _chain(one_minus_wc_inv, ec.mT, eta, wc, li)
        + _chain(one_minus_wc_inv, one_minus_w, ri, ec.mT, eta, ri, one_minus_wc, one_minus_w_inv)
        - _chain(li, one_minus_w, one_minus_wc_inv, ec.mT, eta, one_minus_w_inv)
    )
    a4, b4 = 4.0 * a, 4.0 * b
    return [
        (a4, li, _MAT, ri, _MAT),
        (b4, np.eye(eta.shape[-2]), _VEC, li.mT, _VEC),
        (b4, mat_mul(e1, li), _MAT, ri, _VEC),
        (b4, mat_mul(e2, ri).mT, _VEC, li.mT, _MAT),
        (b4, c_mid, _MAT, ri, _MAT),
    ]


def _form_terms(kind: str, p, params: MetricParams) -> list:
    if kind == "upper":
        return _upper_terms(p.y, p.v, params.a, params.b)
    if kind == "disk":
        return _disk_terms(p.w, p.eta, params.a, params.b)
    if kind == "siegel":
        return _siegel_terms(p.y)
    if kind == "diskn":
        return _disk_n_terms(p.w)
    raise ValueError(f"unknown form kind {kind!r}")


def _form_value(terms: list, dmat: np.ndarray, dvec: np.ndarray):
    """The form at one tangent, or at tangent k and point k of stacks."""
    slots = (dmat, dvec)
    return sum(w * np.sum(_chain(left, slots[x], right) * slots[y].conj(), axis=(-2, -1))
               for w, left, x, right, y in terms)


def _form_at(terms: list, t: Tangent, what: str):
    """The real form value: a float, or one value per stacked tangent."""
    return _realize(_form_value(terms, t.dmat, t.dvec), what)


def _form_matrix(terms: list, chart: Chart) -> np.ndarray:
    """H[..., s, t]: the terms with the chart's basis tangent E_s in the
    linear slot and E_t in the conjugate slot; leading axes follow the point.

    Per term, one gather of (w left) and of right by the chart's tables of
    its block pair gives p[..., s, t, a, b] = w left[c_a, r_b] right[k_b, d_a]
    for entry b of E_s (by column) and entry a of E_t (row-major); padding
    combinations multiply the +0 appended to each operand, +0 * +0 = +0.
    The term adds (p00 + p01) + (p10 + p11) to its
    block of H, the terms in list order, as the products
    ((w left) E_s) right paired with E_t would sum them.
    """
    lead = np.broadcast_shapes(*(block.shape[:-2] for _, left, _, right, _ in terms
                                 for block in (left, right)))
    total = np.zeros(lead + (chart.n_slots, chart.n_slots), dtype=np.complex128)
    for w, left, x, right, y in terms:
        wl, r = (np.concatenate([a.reshape(a.shape[:-2] + (-1,)), np.zeros(a.shape[:-2] + (1,))],
                                axis=-1) for a in (w * left, right))
        at_left, at_right = chart.form_gathers[x, y]
        p = np.take(wl, at_left, axis=-1) * np.take(r, at_right, axis=-1)
        inner = p[..., 0] + p[..., 1]
        total[..., chart.slot_ranges[x], chart.slot_ranges[y]] += inner[..., 0] + inner[..., 1]
    return total


def q_siegel(omega: np.ndarray, t: Tangent):
    """sigma(Y^-1 dOmega Y^-1 conj(dOmega)) at Omega = X + iY.

    Like the other forms, it takes a stacked point and tangent and then
    returns one value per point.
    """
    omega = np.asarray(omega, dtype=np.complex128)
    return _form_at(_siegel_terms(omega.imag), t, "siegel form")


def q_upper(p: UpperPoint, t: Tangent, params: MetricParams):
    """Two-parameter invariant form on the Siegel-Jacobi space."""
    return _form_at(_upper_terms(p.y, p.v, params.a, params.b), t, "upper form")


def q_disk_n(w: np.ndarray, t: Tangent):
    """4 sigma((I - W conj W)^-1 dW (I - conj(W) W)^-1 conj(dW))."""
    return _form_at(_disk_n_terms(np.asarray(w, dtype=np.complex128)), t, "disk form")


def q_disk(p: DiskPoint, t: Tangent, params: MetricParams):
    """Two-parameter invariant form on the Siegel-Jacobi disk."""
    return _form_at(_disk_terms(p.w, p.eta, params.a, params.b), t, "disk form")


def q_disk_closed_11(p: DiskPoint, t: Tangent):
    """Independent scalar transcription of the n = m = 1 disk form (A = B = 1),
    per point of a stacked point and tangent.

    One quarter of the line element reads
      dW conj(dW) / (1-|W|^2)^2 + deta conj(deta) / (1-|W|^2)
      + ((1+|W|^2)|eta|^2 - conj(W) eta^2 - W conj(eta)^2) / (1-|W|^2)^3
        * dW conj(dW)
      + (eta conj(W) - conj(eta)) / (1-|W|^2)^2 * dW conj(deta)
      + (conj(eta) W - eta) / (1-|W|^2)^2 * conj(dW) deta.
    """
    if p.n != 1 or p.m != 1:
        raise ValueError("closed form is defined for n = m = 1 only")
    w = p.w[..., 0, 0]
    eta = p.eta[..., 0, 0]
    dw = t.dmat[..., 0, 0]
    de = t.dvec[..., 0, 0]
    d = 1.0 - abs(w) ** 2
    quarter = (
        dw * dw.conjugate() / d ** 2
        + de * de.conjugate() / d
        + ((1.0 + abs(w) ** 2) * abs(eta) ** 2
           - w.conjugate() * eta ** 2 - w * eta.conjugate() ** 2) / d ** 3
        * dw * dw.conjugate()
        + (eta * w.conjugate() - eta.conjugate()) / d ** 2 * dw * de.conjugate()
        + (eta.conjugate() * w - eta) / d ** 2 * dw.conjugate() * de
    )
    return _realize(4.0 * quarter, "closed disk form")


# ---------------------------------------------------------------------------
# Tensor assembly and helpers


def metric_tensor(p, params: MetricParams, kind: str | None = None) -> np.ndarray:
    """Chart matrix of the selected form (default: the point's own model's
    family), a read-only (dim, dim) float array for one point and
    (K, dim, dim) for a stack of K points.

    H[s, t] pairs the slot basis tangents E_s (linear) and E_t (conjugate)
    through the form's terms.  Slot s has the chart tangents E_s and i E_s,
    so with A, B the symmetric and antisymmetric parts of H the matrix is
    Re A in the Re-Re and Im-Im blocks and Im B in the Re-Im block.  This
    equals polarization, G[i][j] = (Q(e_i + e_j) - Q(e_i - e_j)) / 4.
    """
    if kind is None:
        kind = p.model
    chart = chart_for(p, kind)
    h = _form_matrix(_form_terms(kind, p, params), chart)
    what = f"{kind} tensor"
    same = _realize(0.5 * (h + h.mT), what)
    cross = _realize(-0.5j * (h - h.mT), what)
    x, y = chart.x_indices, chart.y_indices
    g = np.empty(h.shape[:-2] + (chart.dim, chart.dim))
    g[..., x[:, None], x] = same
    g[..., y[:, None], y] = same
    g[..., x[:, None], y] = cross
    g[..., y[:, None], x] = cross.mT
    g.flags.writeable = False
    return g


def chart_of(model: str, n: int, m: int, include_vec: bool = True) -> Chart:
    """The chart of (model, n, m, include_vec), built on the first call and
    shared by every later one, however the arguments are spelled."""
    return _cached_chart(model, n, m, include_vec)


@cache
def _cached_chart(model: str, n: int, m: int, include_vec: bool) -> Chart:
    return Chart(model, n, m, include_vec)


def chart_for(p, kind: str | None = None) -> Chart:
    """The chart of the form ``kind`` (default: the point's model) at p."""
    return chart_of(p.model, p.n, p.m, kind not in ("siegel", "diskn"))


def _tangent_draw(n: int, m: int, stream: SeedStream) -> tuple:
    """Each seed's Re and Im of dmat, stacked as (2, n, n), and of dvec."""
    return stream.uniform((-1.0, 1.0, (2, n, n)), (-1.0, 1.0, (2, m, n)))


def _tangent_blocks(dmat: np.ndarray, dvec: np.ndarray) -> tuple:
    dmat = dmat[:, 0] + 1j * dmat[:, 1]
    return 0.5 * (dmat + dmat.mT), dvec[:, 0] + 1j * dvec[:, 1]


def random_tangent(model: str, n: int, m: int, seed) -> Tangent:
    """One seed's tangent, or the stack of an array of seeds' (cmatrix.seeded)."""
    return Tangent(model, *seeded(seed, (n, m), lambda s: _tangent_draw(n, m, s),
                                  _tangent_blocks))


def tangent_to_json(t: Tangent) -> dict:
    return {"model": t.model, "n": t.n, "m": t.m,
            "dmat": mat_to_json(t.dmat), "dvec": mat_to_json(t.dvec)}


def tangent_from_json(obj: dict) -> Tangent:
    return Tangent(obj["model"], mat_from_json(obj["dmat"]), mat_from_json(obj["dvec"]))
