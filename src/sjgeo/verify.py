"""Independent oracles and the named verification suites.

Oracles:
  * map_differential Cauchy-contour differential of a holomorphic point
                     map, such as a group action or the Cayley transform,
                     exactly linear in the tangent by construction: the
                     independent witness of the closed-form differentials, in
                     the *-differential and differential-d* parts.
  * laplace_beltrami coordinate Laplacian |g|^(-1/2) d_i(|g|^(1/2) g^ij d_j f)
                     of an arbitrary metric-tensor field, by nested
                     central differences.

Each named check draws deterministic per-sample data from
blake2b(master seed, sample index), evaluates one scalar residual per
sample, and reduces to a CheckReport.  Relative residuals are
|lhs - rhs| / (1 + max(|lhs|, |rhs|)) so they stay meaningful near zero.
Samples whose transformed points sit too close to the domain boundary
for the finite-difference stencils are re-drawn (up to 10 attempts,
logged in the report).

Every sampler call returns one residual stack (_Stack): per sample, the
worst relative residual over its parts and that part's name, per part
its largest one, and one description of the samples whichever part is
worst (their draws and values).  Every sampler call takes a block of up
to 256 samples (_STACK) and makes each of its draws once for the whole
block, one call given the samples' seeds; sample k of the stack is what
its seed draws alone.  Only the evaluation is split: the stencil checks
cut each block by test field into one stack per field (at most _STACK
samples, the one memory bound), and _grouped hands each stack its slice
of the block's draws.  There, each Richardson level of every sample's
stencil is one field call, and each oracle one metric call and one field
call; their test fields are drawn once per run_check (_CheckDef.prepare),
not once per sampler call.  A call that raises is run again one sample at
a time, so only the failing sample reports the error.
run_check reduces the concatenated stack of all samples to the report:
the worst sample's description becomes ``worst``, and the part maxima
``parts``.
"""

from __future__ import annotations

import dataclasses
import time
from _blake2 import blake2b   # hashlib's own blake2b, without loading OpenSSL
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cmatrix import SingularMatrix, mat_inverse, mat_max_abs, mat_mul, seeded
from .geometry import (
    DiskPoint,
    UpperPoint,
    _point_blocks,
    act_disk,
    act_siegel,
    act_upper,
    action_differential,
    cayley,
    cayley_differential,
    cayley_inv,
    check_cayley_compat,
    hc_pplus_component,
    point_margin,
    point_to_json,
    random_point,
    validate_point,
)
from .groups import (
    element_to_json,
    embed_sp,
    heisenberg_defect,
    heisenberg_identity,
    heisenberg_inverse,
    heisenberg_mul,
    jacobi_identity,
    jacobi_inverse,
    jacobi_mul,
    jacobistar_defect,
    jacobistar_identity,
    jacobistar_inverse,
    jacobistar_mul,
    jmat,
    random_heisenberg,
    random_jacobi,
    sp_defect,
    star_matrix,
    theta_map,
    tstar,
)
from .metrics import (
    MetricParams,
    Tangent,
    chart_for,
    chart_of,
    metric_tensor,
    q_disk,
    q_disk_closed_11,
    q_disk_n,
    q_siegel,
    q_upper,
    random_tangent,
)
from .operators import (
    DomainMargin,
    _field_at_nodes,
    _require_margin,
    bundle_of,
    default_step,
    lap_disk,
    lap_disk_closed_11,
    lap_disk_n,
    lap_disk_printed,
    lap_siegel,
    lap_upper,
    lap_upper_printed,
    op_invariant,
    second_bundle,
    test_field_suite,
)

__all__ = [
    "CheckReport",
    "UnknownCheck",
    "CHECK_NAMES",
    "DEFAULT_TOLERANCES",
    "sample_seed",
    "map_differential",
    "laplace_beltrami",
    "run_check",
]


class UnknownCheck(ValueError):
    """Raised for a verification suite name outside the registry."""


# Margin / scale gates for redrawing samples whose transformed points
# would starve the finite-difference stencils.
_MIN_MARGIN_NESTED = 0.05
_MAX_SCALE_NESTED = 12.0
_MAX_RETRIES = 10


@dataclass
class CheckReport:
    """Outcome of one verification suite run."""

    check: str
    n: int
    m: int
    a: float
    b: float
    samples: int
    seed: int
    max_abs: float
    max_rel: float
    tol: float
    passed: bool
    constant: float | None   # the LB pairing ratio (see _pairing_constant); None elsewhere
    worst: dict
    parts: dict   # part label -> its largest relative residual
    retries: int
    ms: float

    def to_json(self) -> dict:
        return {
            "check": self.check, "n": self.n, "m": self.m,
            "A": self.a, "B": self.b,
            "samples": self.samples, "seed": self.seed,
            "max_abs": self.max_abs, "max_rel": self.max_rel,
            "tol": self.tol, "pass": self.passed,
            "constant": self.constant, "worst": self.worst,
            "parts": self.parts, "retries": self.retries, "ms": self.ms,
        }


def sample_seed(master: int, *parts) -> int:
    """Stable per-sample seed derivation."""
    text = ":".join([str(master)] + [str(p) for p in parts])
    digest = blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# Oracles


# map_differential's contour: _CONTOUR_NODES nodes on a circle of radius
# _CONTOUR_RADIUS times the point's margin
_CONTOUR_NODES = 8
_CONTOUR_RADIUS = 0.02


def map_differential(fn, p, t: Tangent) -> Tangent:
    """Differential of a holomorphic point map at p along t, by a Cauchy contour.

    fn must be holomorphic in p's complex coordinates, as the Jacobi actions
    and the partial Cayley transform are.  With u = t / |t| (|t| the chart
    norm of t), c_k = r w^k and w = exp(2 pi i / N), the differential is

        |t| (1/N) sum_k fn(p + c_k u) / c_k,

    the trapezoidal rule for Cauchy's integral of the derivative of
    c -> fn(p + c u) on the circle |c| = r, with N = 8 nodes and
    r = 0.02 point_margin(p).  For a map holomorphic within rho of p its
    error falls as (r / rho)^N (Trefethen & Weideman, "The exponentially
    convergent trapezoidal rule", SIAM Review 56, 2014), so it reads
    rounding; the result is exactly linear in t.  A stacked point and
    tangent give the stacked differentials, each with its point's own
    radius, from one call of ``fn`` per node on the whole stack; each
    point's sum runs over k in order, so a point keeps its bits in any stack.
    """
    chart = chart_for(p)
    tv = chart.tangent_to_vec(t)
    norm = np.linalg.norm(tv, axis=-1)
    try:
        # a zero tangent has the zero image whatever the margin
        _require_margin(p, 0.0, where=norm != 0.0)
    except DomainMargin:
        fn(p)   # where fn itself fails at p, its own error is the one raised
        raise
    unit = np.where(norm == 0.0, 1.0, norm)[..., None]
    u = tv / unit
    iu = chart.tangent_to_vec(Tangent(t.model, 1j * t.dmat, 1j * t.dvec)) / unit
    # a zero tangent's nodes are p itself, whatever the radius
    r = np.where(norm == 0.0, 1.0, _CONTOUR_RADIUS * point_margin(p))
    v0 = chart.point_to_vec(p)
    total = (0.0, 0.0)
    for k in range(_CONTOUR_NODES):
        root = np.exp(2j * np.pi * k / _CONTOUR_NODES)
        image = fn(chart.vec_to_point(v0 + r[..., None] * (root.real * u + root.imag * iu)))
        c = (r * root)[..., None, None]
        total = tuple(acc + block / c for acc, block in zip(total, _point_blocks(image)))
    weight = (norm / _CONTOUR_NODES)[..., None, None]
    return Tangent(image.model, *(acc * weight for acc in total))


def laplace_beltrami(f, p, metric):
    """Coordinate Laplacian of f at p for the metric-tensor field ``metric``.

    The chart is the field's, as in operators.second_bundle: the
    matrix-only chart for a field with a true ``mat_only`` flag, the full
    chart otherwise, and ``metric`` maps a stacked point to its stacked
    tensors over that chart, a (K, dim, dim) float array (such as
    metrics.metric_tensor's).  The point and its 2 dim flux points
    v0 +- h e_i are one node array and one metric call.

    The flux at flux point a of axis i is sqrt(det g_a) (g_a^-1 grad f)_i,
    and (g_a^-1 grad f)_i = w_a . grad f with w_a = g_a^-1 e_i (g_a is
    symmetric): one directional derivative along w_a, taken as one central
    difference along w_a / |w_a| and scaled by |w_a|.  So the field is
    evaluated at 2 nodes per flux point, 4 dim per point, all in one call
    (see operators.ScalarField for the field contract); every node lies
    within h + h1 of the point.

    A stacked point of K points gives K values, each with its point's own
    steps: the tensors at all K points and their flux points come from one
    metric call, the w_a from one solve, and the field's values from one
    field call.

    One Cholesky factorization of the tensors at all 2 dim + 1 nodes
    requires g positive definite at every node (SingularMatrix otherwise)
    and gives sqrt(det g) from the factor's diagonal, taken relative to the
    point's, so the value is covariant in a scale of the metric: c g gives
    the value / c, with no determinant to underflow or overflow.
    """
    chart = chart_of(p.model, p.n, p.m, not getattr(f, "mat_only", False))
    d = chart.dim
    # Smaller than the generic nested step: the outer derivative acts on
    # the smooth metric field, where round-off is negligible and the
    # truncation term dominates.
    h = 0.3 * np.asarray(default_step(p, chart, order=2))
    _require_margin(p, 4.0 * h)
    v0 = chart.point_to_vec(p)[..., None, :]
    step = h[..., None, None] * np.eye(d)
    nodes = np.concatenate([v0, v0 + step, v0 - step], axis=-2)   # the point, then its flux points
    h1 = np.asarray(default_step(p, chart, order=1))[..., None]
    rows = nodes.reshape(-1, d)
    g = np.asarray(metric(chart.vec_to_point(rows)))
    if g.shape != (len(rows), d, d):
        raise ValueError(f"metric returned tensors of shape {g.shape} for {len(rows)} "
                         f"points of the field's chart of dimension {d}")
    g = g.reshape(nodes.shape + (d,))
    try:
        factor = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise SingularMatrix("metric tensor is not positive definite on the stencil") from None
    # sqrt(det g) at each flux point over sqrt(det g) at the point, as a
    # product of ratios of the factors' diagonals, which no scale of g overflows
    pivots = np.diagonal(factor, axis1=-2, axis2=-1)
    ratio = np.prod(pivots[..., 1:, :] / pivots[..., :1, :], axis=-1)
    # w_a = g_a^-1 e_i at flux point a = v0 +- h e_i
    axes = np.concatenate([np.eye(d), np.eye(d)])[..., None]
    w = np.linalg.solve(g[..., 1:, :, :], axes)[..., 0]
    norm = np.linalg.norm(w, axis=-1)
    shift = (h1 / norm)[..., None] * w
    flux_nodes = nodes[..., 1:, :]
    vals = _field_at_nodes(f, chart, np.concatenate([flux_nodes + shift, flux_nodes - shift],
                                                    axis=-2).reshape(-1, d))
    vals = vals.reshape(norm.shape[:-1] + (2, 2 * d))
    flux = ratio * norm * (vals[..., 0, :] - vals[..., 1, :]) / (2.0 * h1)
    val = np.sum(flux[..., :d] - flux[..., d:], axis=-1) / (2.0 * h)
    return float(val) if val.ndim == 0 else val


# ---------------------------------------------------------------------------
# The residual stack


def _sample_max(x: np.ndarray) -> np.ndarray:
    """Largest entry magnitude of each sample of a (K, ...) array."""
    return np.abs(x).reshape(len(x), -1).max(axis=1)


class _Stack:
    """The residuals of a stack of samples, one per sample and part.

    ``add`` and ``add_residual`` take values with a leading sample axis and
    reduce each sample over its parts: a part at least as bad as the worst
    so far takes over the label.  ``where`` limits a part to some of the
    samples; within it a NaN residual counts as infinite.  ``parts`` keeps
    each part's largest relative residual.  ``describe`` records the data
    that describe the samples (see _member_json); run_check turns the worst
    sample's into JSON, and reduces some of them over every sample.
    """

    def __init__(self, samples):
        self.samples = np.asarray(samples)
        count = len(self.samples)
        self.max_abs = np.zeros(count)
        self.max_rel = np.zeros(count)
        self.labels = np.full(count, "", dtype=object)
        self.retries = np.zeros(count, dtype=int)
        self.parts = {}
        self.described = []   # (sample indices, members) per sampler call

    @property
    def count(self) -> int:
        return len(self.max_rel)

    @staticmethod
    def concat(stacks: list) -> "_Stack":
        """The samples of ``stacks``, in sample order."""
        samples = np.concatenate([st.samples for st in stacks])
        order = np.argsort(samples, kind="stable")
        out = _Stack(samples[order])
        for key in ("max_abs", "max_rel", "labels", "retries"):
            setattr(out, key, np.concatenate([getattr(st, key) for st in stacks])[order])
        for st in stacks:
            out.described += st.described
            for label, rel in st.parts.items():
                out.parts[label] = max(out.parts.get(label, 0.0), rel)
        return out

    def add(self, label: str, lhs, rhs, where=None):
        """Relative residual of lhs against rhs.  Either side may be a tuple
        of arrays, compared pair by pair as one concatenated vector; in each
        pair at least one side is stacked, the other broadcasts."""
        if not isinstance(lhs, tuple):
            lhs, rhs = (lhs,), (rhs,)
        d = scale = np.zeros(self.count)
        for a, b in zip(lhs, rhs):
            a, b = np.broadcast_arrays(a, b)
            d = np.maximum(d, _sample_max(a - b))
            scale = np.maximum(scale, np.maximum(_sample_max(a), _sample_max(b)))
        self._record(label, d, d / (1.0 + scale), where)

    def add_residual(self, label: str, value, scale=0.0, where=None):
        value = np.broadcast_to(np.asarray(value, dtype=np.float64), (self.count,))
        self._record(label, value, value / (1.0 + scale), where)

    def _record(self, label, d, rel, where):
        inside = np.ones(self.count, dtype=bool) if where is None else where
        d = np.where(np.isnan(d), np.inf, d)
        rel = np.where(np.isnan(rel), np.inf, rel)
        win = inside & (rel >= self.max_rel)
        self.max_rel = np.where(win, rel, self.max_rel)
        self.labels[win] = label
        self.max_abs = np.maximum(self.max_abs, np.where(inside, d, 0.0))
        self.parts[label] = max(self.parts.get(label, 0.0),
                                float(np.max(rel, where=inside, initial=0.0)))

    def describe(self, **members):
        """Describe the samples: each member is a stack with a leading
        sample axis, a list of one item per sample, or a str they share."""
        self.described.append((self.samples, members))

    def description(self, sample: int) -> dict:
        """The JSON description of sample ``sample``."""
        for samples, members in self.described:
            hit = np.flatnonzero(samples == sample)
            if hit.size:
                return {key: _member_json(value, int(hit[0])) for key, value in members.items()}
        return {}

    def column(self, key: str) -> np.ndarray:
        """The values of member ``key`` of every sample that describes one."""
        return np.concatenate([np.empty(0)] + [members[key] for _, members in self.described
                                               if key in members])


def _member_json(value, k: int):
    """Item k of a described member, as JSON."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return value[k]
    item = _at(value, k)
    if isinstance(item, (UpperPoint, DiskPoint)):
        return point_to_json(item)
    if dataclasses.is_dataclass(item):
        return element_to_json(item)
    return float(item)


def _stack(stacks: list):
    """One stacked object from stacks of draws, joined along their sample
    axis; tuples and dataclasses are joined member by member."""
    first = stacks[0]
    if isinstance(first, np.ndarray):
        return np.concatenate(stacks)
    if isinstance(first, tuple):
        return tuple(_stack(list(column)) for column in zip(*stacks))
    if dataclasses.is_dataclass(first):
        return type(first)(**{f.name: _stack([getattr(x, f.name) for x in stacks])
                              for f in dataclasses.fields(first)})
    return first    # shared by every sample, such as a tangent's model


def _at(x, k):
    """Member k of a stacked object, or the stack of the members an index
    array or boolean mask k selects; arrays are indexed along their leading
    axis, tuples and dataclasses member by member (see _stack)."""
    if isinstance(x, np.ndarray):
        return x[k]
    if isinstance(x, tuple):
        return tuple(_at(column, k) for column in x)
    if dataclasses.is_dataclass(x):
        return type(x)(**{f.name: _at(getattr(x, f.name), k)
                          for f in dataclasses.fields(x)})
    return x


def _seeds(*key) -> list:
    """sample_seed(*key) per sample: the one list or array in ``key`` (the
    sample indices, or the seeds of a redraw) is taken entry by entry."""
    j = next(k for k, part in enumerate(key) if np.ndim(part))
    return [sample_seed(*key[:j], part, *key[j + 1:]) for part in key[j]]


def _redraw(make, accept, master: int, idx, tag: str):
    """Draw each sample until the acceptance predicate holds; count the retries.

    Attempt a of sample i draws with seed sample_seed(master, i, tag, a).
    ``make`` takes the seeds of the samples still pending and returns their
    draws as one stack, which ``accept`` judges with one verdict per draw.
    Returns the stack of accepted draws in sample order and the retries.
    """
    accepted, owners = [], []
    retries = np.zeros(len(idx), dtype=int)
    pending = np.arange(len(idx))
    for attempt in range(_MAX_RETRIES):
        drawn = make(_seeds(master, idx[pending], tag, attempt))
        retries[pending] = attempt
        ok = np.atleast_1d(accept(drawn))
        accepted.append(_at(drawn, ok))
        owners.append(pending[ok])
        pending = pending[~ok]
        if not pending.size:
            order = np.argsort(np.concatenate(owners))
            return _at(_stack(accepted), order), retries
    raise DomainMargin(f"no admissible sample after {_MAX_RETRIES} draws ({tag})")


# ---------------------------------------------------------------------------
# Check samplers
#
# A sampler takes the run's (n, m, params, master), the test fields of a
# stencil check, and a block of sample indices (any index array), and
# returns one _Stack of their residuals, in the same order.  Each draw is
# one call with the whole block's seeds: member k of the stack is what
# sample k draws alone, as in a one-sample run, and each identity is
# evaluated once on the stack.  A stencil check (and tensor-pd, by model)
# evaluates its block as one stack per class (_grouped), each on its
# slice of the block's draws.  A law stated for several groups, actions or
# models is written once, as a loop over a table of its cases built inside
# the sampler, so it holds the module's functions as they are at the call.
# The loop adds the parts in the table's order: of two equal residuals, the
# later part names the sample's worst.


def _grouped(count: int, idx, drawn, retries, evaluate) -> _Stack:
    """The block idx split by idx % count into one stack per class that
    has samples, joined back in sample order.  Each class's _Stack starts
    with its samples' members of ``retries`` (an array over the block, or
    a count all share), and evaluate(out, j, draws) adds the residuals of
    class j, where ``draws`` are the class's members of the block's
    ``drawn`` (_at)."""
    stacks = []
    for j in range(count):
        at = np.flatnonzero(idx % count == j)
        if at.size:
            out = _Stack(idx[at])
            out.retries[:] = _at(retries, at)
            evaluate(out, j, _at(drawn, at))
            stacks.append(out)
    return _Stack.concat(stacks)


def _heisenberg_parts(h):
    return h.lam, h.mu, h.kappa


def _jacobi_parts(g):
    return (g.sp.matrix(),) + _heisenberg_parts(g.h)


def _star_parts(s):
    return s.g.p, s.g.q, s.xi, s.kappa


def _chk_group_laws(n, m, params, master, idx) -> _Stack:
    out = _Stack(idx)
    hs = [random_heisenberg(n, m, _seeds(master, idx, "h", k)) for k in range(3)]
    gs = [random_jacobi(n, m, _seeds(master, idx, "g", k)) for k in range(3)]
    # per group: three elements, its product, identity, inverse and parts,
    # and the defects (label, value, scale) that vanish on a product
    laws = (
        ("heisenberg", hs, heisenberg_mul, heisenberg_identity, heisenberg_inverse,
         _heisenberg_parts,
         lambda h: [("heisenberg-symmetry", heisenberg_defect(h), mat_max_abs(h.kappa))]),
        ("jacobi", gs, jacobi_mul, jacobi_identity, jacobi_inverse, _jacobi_parts,
         lambda g: [("jacobi-symmetry", heisenberg_defect(g.h), mat_max_abs(g.h.kappa)),
                    ("sp-closure", sp_defect(g.sp), mat_max_abs(g.sp.matrix()) ** 2)]),
        ("star", [theta_map(g) for g in gs], jacobistar_mul, jacobistar_identity,
         jacobistar_inverse, _star_parts,
         lambda s: [("star-closure", jacobistar_defect(s), mat_max_abs(s.g.p) ** 2)]),
    )
    for name, (x, y, z), mul, identity, inverse, parts, defects in laws:
        xy = mul(x, y)
        out.add(f"{name}-assoc", parts(mul(xy, z)), parts(mul(x, mul(y, z))))
        e = identity(n, m)
        out.add(f"{name}-identity", parts(mul(x, e)), parts(x))
        out.add(f"{name}-inverse", parts(mul(x, inverse(x))), parts(e))
        for label, defect, scale in defects(xy):
            out.add_residual(label, defect, scale)
    out.describe(element=gs[0])
    return out


def _chk_theta_hom(n, m, params, master, idx) -> _Stack:
    out = _Stack(idx)
    g1 = random_jacobi(n, m, _seeds(master, idx, "g", 0))
    g2 = random_jacobi(n, m, _seeds(master, idx, "g", 1))
    t12 = theta_map(jacobi_mul(g1, g2))
    tt = jacobistar_mul(theta_map(g1), theta_map(g2))
    out.add("theta-homomorphism", _star_parts(t12), _star_parts(tt))

    k = n + m
    t = tstar(k)
    conj_form = np.linalg.inv(t) @ embed_sp(g1) @ t
    out.add("theta-vs-conjugation", conj_form, star_matrix(theta_map(g1)))

    e12 = embed_sp(jacobi_mul(g1, g2))
    out.add("embed-homomorphism", e12, embed_sp(g1) @ embed_sp(g2))
    emb = embed_sp(g1)
    out.add_residual("embed-symplectic", mat_max_abs(emb.mT @ jmat(k) @ emb - jmat(k)),
                     mat_max_abs(emb) ** 2)
    out.describe(element=g1)
    return out


def _chk_action_axioms(n, m, params, master, idx) -> _Stack:
    out = _Stack(idx)
    g1 = random_jacobi(n, m, _seeds(master, idx, "g", 0))
    g2 = random_jacobi(n, m, _seeds(master, idx, "g", 1))
    pu = random_point("upper", n, m, _seeds(master, idx, "pu"))
    pd = random_point("disk", n, m, _seeds(master, idx, "pd"))
    s1, s2 = theta_map(g1), theta_map(g2)
    # per space: the action, its group's product and identity, two elements,
    # a point and the point's parts; Omega moves by a Jacobi element's Sp part
    actions = (
        ("siegel", lambda g, omega: act_siegel(g.sp, omega), jacobi_mul, jacobi_identity,
         g1, g2, pu.omega, lambda omega: omega),
        ("upper", act_upper, jacobi_mul, jacobi_identity, g1, g2, pu,
         lambda p: (p.omega, p.z)),
        ("disk", act_disk, jacobistar_mul, jacobistar_identity, s1, s2, pd,
         lambda p: (p.w, p.eta)),
    )
    moved = {}
    for name, act, mul, identity, x, y, p, parts in actions:
        moved[name] = act(mul(x, y), p)
        out.add(f"{name}-assoc", parts(moved[name]), parts(act(x, act(y, p))))
        out.add(f"{name}-identity", parts(act(identity(n, m), p)), parts(p))

    # transformed points must stay inside their domains
    found = {tag: validate_point(moved[tag], strict=False) for tag in ("upper", "disk")}
    for tag, problems in found.items():
        bad = np.array([bool(p) for p in problems])
        out.add_residual(f"domain-{tag}", 1.0, where=bad)
        out.add_residual(f"domain-{tag}", 0.0, where=~bad)

    # the triangular-factorization route must match the direct action
    hc = hc_pplus_component(s1, pd)
    direct = act_disk(s1, pd)
    out.add("hc-vs-direct", (hc.w, hc.eta), (direct.w, direct.eta))
    out.describe(point=pu, element=g1, violations=[u + d for u, d in zip(*found.values())])
    return out


def _chk_cayley_roundtrip(n, m, params, master, idx) -> _Stack:
    out = _Stack(idx)
    pd = random_point("disk", n, m, _seeds(master, idx, "pd"))
    pu = random_point("upper", n, m, _seeds(master, idx, "pu"))
    back = cayley_inv(cayley(pd))
    out.add("disk-roundtrip", (back.w, back.eta), (pd.w, pd.eta))
    fwd = cayley(cayley_inv(pu))
    out.add("upper-roundtrip", (fwd.omega, fwd.z), (pu.omega, pu.z))
    out.describe(point=pd)
    return out


def _chk_cayley_compat(n, m, params, master, idx) -> _Stack:
    out = _Stack(idx)
    g = random_jacobi(n, m, _seeds(master, idx, "g"))
    pd = random_point("disk", n, m, _seeds(master, idx, "pd"))
    resid = check_cayley_compat(g, pd)
    lhs = act_upper(g, cayley(pd))
    out.add_residual("compat", resid,
                     np.maximum(mat_max_abs(lhs.omega), mat_max_abs(lhs.z)))
    out.describe(point=pd, element=g)
    return out


def _push(differential, p, q, t) -> Tangent:
    """t at p pushed to q by a closed-form ``differential(p, q, dmat,
    dvec)`` (geometry.action_differential with its element bound, or
    geometry.cayley_differential), one tangent per point: the tangent axis
    the differential takes is added and dropped here."""
    pushed = differential(p, q, t.dmat[..., None, :, :], t.dvec[..., None, :, :])
    return Tangent(q.model, *(x[..., 0, :, :] for x in pushed))


def _metric_invariance(model, n, m, params, master, idx) -> _Stack:
    """The invariant forms of ``model`` on a tangent t at p against theirs on
    t pushed to q = g . p by the action's closed-form differential, after
    part <model>-differential: map_differential's push against that one."""
    # per model: the action, the element it takes from a Jacobi element, and
    # the forms; Omega moves by g's Sp part alone, so the push of dOmega is
    # the same for q_siegel
    act, element, forms = {
        "upper": (act_upper, lambda g: g,
                  (("upper-family", lambda p, t: q_upper(p, t, params)),
                   ("siegel", lambda p, t: q_siegel(p.omega, t)))),
        "disk": (act_disk, theta_map,
                 (("disk-family", lambda p, t: q_disk(p, t, params)),
                  ("disk-base", lambda p, t: q_disk_n(p.w, t)))),
    }[model]
    out = _Stack(idx)
    # no stencil sits at q, so no draw is refused: each sample draws with
    # the seeds of a redraw's first attempt
    seeds = _seeds(master, idx, f"mi-{model}", 0)
    g = element(random_jacobi(n, m, seeds))
    p = random_point(model, n, m, _seeds(seeds, "p"))
    q = act(g, p)
    t = random_tangent(model, n, m, _seeds(master, idx, "t"))
    exact = _push(partial(action_differential, g), p, q, t)
    moved = map_differential(lambda x: act(g, x), p, t)
    out.add(f"{model}-differential", (moved.dmat, moved.dvec), (exact.dmat, exact.dvec))
    for label, form in forms:
        out.add(label, form(p, t), form(q, exact))
    # a disk element's description is not kept: it is the larger by far
    out.describe(point=p, **({"element": g} if model == "upper" else {}))
    return out


def _chk_cayley_isometry(n, m, params, master, idx) -> _Stack:
    out = _Stack(idx)
    p = random_point("disk", n, m, _seeds(master, idx, "p"))
    t = random_tangent("disk", n, m, _seeds(master, idx, "t"))
    q = cayley(p)
    moved = _push(cayley_differential, p, q, t)
    out.add("isometry", q_disk(p, t, params), q_upper(q, moved, params))
    out.describe(point=p)
    return out


def _tensor_pd(out, model, n, m, params, master):
    idx = out.samples
    p = random_point(model, n, m, _seeds(master, idx, "p"))
    g = metric_tensor(p, params)
    out.add_residual("tensor-symmetry", mat_max_abs(g - g.mT), mat_max_abs(g))
    eig = np.linalg.eigvalsh(g).min(axis=-1)
    out.add_residual("tensor-pd", 1.0 + np.abs(eig), where=eig <= 0.0)
    chart = chart_for(p)
    for k in range(2):
        t = random_tangent(model, n, m, _seeds(master, idx, "v", k))
        direct = q_upper(p, t, params) if model == "upper" else q_disk(p, t, params)
        v = chart.tangent_to_vec(t)
        via_tensor = (v[..., None, :] @ g @ v[..., :, None])[..., 0, 0]
        out.add(f"polarization-{k}", direct, via_tensor)
    out.describe(point=p, min_eig=eig)


def _chk_tensor_pd(n, m, params, master, idx) -> _Stack:
    # even samples check the upper model, odd ones the disk; the draws
    # depend on the model, so each class draws its own
    return _grouped(2, idx, None, 0, lambda out, parity, _: _tensor_pd(
        out, ("upper", "disk")[parity], n, m, params, master))


def _chk_pushforward_identities(n, m, params, master, idx) -> _Stack:
    out = _Stack(idx)
    p = random_point("disk", n, m, _seeds(master, idx, "p"))
    t = random_tangent("disk", n, m, _seeds(master, idx, "t"))
    eye = np.eye(n)
    inv_w = mat_inverse(eye - p.w)
    inv_wc = inv_w.conj()
    target = cayley(p)

    out.add("point-identity-Y", target.y,
            inv_w @ (eye - p.w @ p.w.conj()) @ inv_wc)
    out.add("point-identity-V", target.v,
            p.eta @ inv_w + p.eta.conj() @ inv_wc)

    moved = map_differential(cayley, p, t)
    exact = _push(cayley_differential, p, target, t)
    out.add("differential-dOmega", moved.dmat, exact.dmat)
    out.add("differential-dZ", moved.dvec, exact.dvec)
    out.describe(point=p)
    return out


def _chk_reduce_n1m1(n, m, params, master, idx) -> _Stack:
    # the closed forms on one seeded Hermitian bundle (_hermitian), as in
    # the invariance checks' [hermitian] parts: both sides are exact
    out = _Stack(idx)
    unit = MetricParams(1.0, 1.0)
    p = random_point("disk", 1, 1, _seeds(master, idx, "p"))
    t = random_tangent("disk", 1, 1, _seeds(master, idx, "t"))
    out.add("metric-closed-form", q_disk(p, t, unit), q_disk_closed_11(p, t))
    chart = chart_for(p)
    sb = bundle_of(_hermitian(_seeds(master, idx, "herm"), chart.n_slots), chart)
    out.add("laplacian-closed-form", lap_disk(sb, p, unit), lap_disk_closed_11(sb, p))
    out.describe(point=p)
    return out


# The checks below build second-order stencils.  Each test field serves
# the samples whose index is its position modulo the number of fields: a
# sampler draws its block, then differentiates each field once on the
# stack of its samples (see _grouped).  The fields are drawn once per run
# (_CheckDef.fields).


def _lb_model(kind) -> tuple:
    """The model and mat_only of the Laplacian ``kind``."""
    return "upper" if kind in ("upper", "siegel") else "disk", kind in ("siegel", "diskn")


def _lb_fields(kind, n, m, master) -> list:
    model, mat_only = _lb_model(kind)
    return test_field_suite(model, n, m, sample_seed(master, "fields"), mat_only=mat_only)


def _lb_pair(kind, n, m, params, master, fields, idx) -> _Stack:
    model, mat_only = _lb_model(kind)

    def metric(q):
        return metric_tensor(q, params, kind=kind)

    def evaluate(out, j, p):
        f = fields[j]
        sb = second_bundle(f, p, mat_only=mat_only)
        printed = None
        if kind == "upper":
            lhs = lap_upper(sb, p, params)
            printed = lap_upper_printed(sb, p, params)
        elif kind == "disk":
            lhs = lap_disk(sb, p, params)
            printed = lap_disk_printed(sb, p, params)
        elif kind == "siegel":
            lhs = lap_siegel(sb, p)
        else:
            lhs = lap_disk_n(sb, p)
        rhs = laplace_beltrami(f, p, metric)
        out.add(f"lb-pair[{f.name}]", lhs, rhs)
        gap = {} if printed is None else {"printed_rel_gap": _rel_gap(lhs, printed)}
        out.describe(field=f.name, point=p, laplacian=lhs, oracle=rhs, **gap)

    p = random_point(model, n, m, _seeds(master, idx, "p"))
    return _grouped(len(fields), idx, p, 0, evaluate)


def _rel_gap(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """|lhs - rhs| / (1 + max(|lhs|, |rhs|)) of each pair of values."""
    return np.abs(lhs - rhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))


def _hermitian(seeds, size: int) -> np.ndarray:
    """A seeded Hermitian size x size matrix per seed: A + A^H, with the
    real and imaginary parts of A uniform in [-1, 1]."""
    def build(a):
        a = a[:, 0] + 1j * a[:, 1]
        return (a + a.conj().mT,)
    return seeded(seeds, (size,), lambda s: s.uniform((-1.0, 1.0, (2, size, size))), build)[0]


def _slot_jacobian(differential, p, q) -> np.ndarray:
    """J[..., s', s] = dc'_s' / dc_s: the complex Jacobian at p of a
    holomorphic map with image q, from p's full chart's complex slots to
    q's; column s is ``differential(p, q, dmat, dvec)`` on slot s's basis
    tangent (chart.slot_basis), the map's exact differential: an action's
    is partial(action_differential, g), the Cayley transform's is
    cayley_differential."""
    return chart_for(q).slot_coords(*differential(p, q, *chart_for(p).slot_basis())).mT


def _pullbacks(f, jac, p, q, herm) -> tuple:
    """One bundle of 4K members and its points (p, p, q, q), for a stack of
    K samples, where q = g . p and ``jac`` is the action's complex Jacobian
    at p (_slot_jacobian).  The quarters are the field f's bundle at q
    pulled back to p, the Hermitian slot matrices ``herm`` pulled back to
    p, then the field's bundle at q and ``herm`` at q themselves, so one
    operator call serves both sides of both parts (_both_parts).

    The pull-back is the holomorphic chain rule: the mixed matrix of a
    function after the action is J^H M J, where M is the function's at q.
    An invariant operator gives the same value at p as at q."""
    jac = np.concatenate([jac, jac])
    at_q = np.concatenate([second_bundle(f, q, mat_only=False).mixed, herm])
    pulled = mat_mul(mat_mul(jac.conj().mT, at_q), jac)
    return (bundle_of(np.concatenate([pulled, at_q]), chart_for(p)), _stack([p, p, q, q]))


def _both_parts(out, label: str, values):
    """Part ``label`` from an operator's values on a bundle of _pullbacks
    (the field's pulled-back quarter against its quarter at q), and part
    label[hermitian] from the Hermitian matrices' quarters."""
    pulled, herm_pulled, at_q, herm_at_q = np.split(values, 4)
    out.add(label, pulled, at_q)
    out.add(label + "[hermitian]", herm_pulled, herm_at_q)


def _invariance_suites(n, m, master) -> tuple:
    return (test_field_suite("upper", n, m, sample_seed(master, "fu")),
            test_field_suite("disk", n, m, sample_seed(master, "fd")))


def _invariance_admissible(draws) -> np.ndarray:
    """Whether each draw's moved points leave the nested stencils room."""
    qu, qd = draws[4:]
    return ((point_margin(qu) >= _MIN_MARGIN_NESTED)
            & (point_margin(qd) >= _MIN_MARGIN_NESTED)
            & (chart_for(qu).point_scale(qu) <= _MAX_SCALE_NESTED)
            & (chart_for(qd).point_scale(qd) <= _MAX_SCALE_NESTED))


def _invariance_sample(n, m, master, suites, idx, parts) -> _Stack:
    """The residuals ``parts(out, upper, disk)`` adds for the stack of
    samples of each field, where each model's argument is its _pullbacks
    at the drawn point p and the moved point q = g . p.  The block's draws
    are one _redraw of the elements, points and images, one draw of the
    Hermitian slot matrices, both models sharing sample k's, and each
    model's action Jacobians, which no field changes.  Sample k uses the
    non-constant field 1 + k % 4 of each model's suite
    (_invariance_suites)."""
    suite_u, suite_d = suites

    def make(seeds):
        # the draws carry their images: the redraw judges them, and the
        # bundles are built there
        g = random_jacobi(n, m, seeds)
        s = theta_map(g)
        pu = random_point("upper", n, m, _seeds(seeds, "pu"))
        pd = random_point("disk", n, m, _seeds(seeds, "pd"))
        return g, s, pu, pd, act_upper(g, pu), act_disk(s, pd)

    (g, s, pu, pd, qu, qd), retries = _redraw(make, _invariance_admissible, master, idx,
                                              "op-inv")
    herm = _hermitian(_seeds(master, idx, "herm"), chart_of("upper", n, m).n_slots)
    draws = (pu, pd, qu, qd, _slot_jacobian(partial(action_differential, g), pu, qu),
             _slot_jacobian(partial(action_differential, s), pd, qd), herm)

    def evaluate(out, j, drawn):
        pu, pd, qu, qd, jac_u, jac_d, herm = drawn
        f_u, f_d = suite_u[1 + j], suite_d[1 + j]   # skip the constant field
        parts(out, _pullbacks(f_u, jac_u, pu, qu, herm), _pullbacks(f_d, jac_d, pd, qd, herm))
        out.describe(field=f_u.name, point=pu, disk_point=pd)

    return _grouped(len(suite_u) - 1, idx, draws, retries, evaluate)


def _chk_laplacian_invariance(n, m, params, master, suites, idx) -> _Stack:
    def parts(out, upper, disk):
        for name, lap, bundle in (("upper-laplacian", lap_upper, upper),
                                  ("disk-laplacian", lap_disk, disk)):
            _both_parts(out, name, lap(*bundle, params))
    return _invariance_sample(n, m, master, suites, idx, parts)


def _chk_remark_invariance(n, m, params, master, suites, idx) -> _Stack:
    unit = MetricParams(1.0, 1.0)

    def parts(out, upper, disk):
        k = out.count
        moved = {}   # each operator on the field's bundle at the moved points
        for bundle, kinds in ((upper, ("D", "L")), (disk, ("Dtilde", "Ltilde"))):
            for kind in kinds:
                values = op_invariant(kind, *bundle)
                moved[kind] = values[2 * k: 3 * k]
                _both_parts(out, kind, values)
        # the defining splits of the field's bundle at the moved points (the
        # third quarter): a quarter of the unit-weight Laplacian minus D is
        # L, the disk Laplacian minus Dtilde is Ltilde
        field_u, field_d = (_at(bundle, slice(2 * k, 3 * k)) for bundle in (upper, disk))
        out.add("L-split", 0.25 * lap_upper(*field_u, unit) - moved["D"], moved["L"])
        out.add("Ltilde-split", lap_disk(*field_d, unit) - moved["Dtilde"], moved["Ltilde"])
    return _invariance_sample(n, m, master, suites, idx, parts)


# ---------------------------------------------------------------------------
# Check registry and run_check

# Samples per sampler call (a block): a constant, so memory stays bounded.
_STACK = 256

@dataclass(frozen=True)
class _CheckDef:
    # (n, m, params, master, idx) -> _Stack of len(idx); with ``fields``,
    # (n, m, params, master, fields(n, m, master), idx)
    sampler: Callable
    default_tol: float
    cell: tuple | None = None   # the (n, m) the check runs at, whatever is asked
    fields: Callable | None = None   # the test fields of one run (a stencil check's)

    def prepare(self, n: int, m: int, params: MetricParams, master: int) -> Callable:
        """The sampler of one run, idx -> _Stack, with its fields drawn once."""
        if self.fields is None:
            return partial(self.sampler, n, m, params, master)
        return partial(self.sampler, n, m, params, master, self.fields(n, m, master))


_CHECKS: dict[str, _CheckDef] = {
    "group-laws": _CheckDef(_chk_group_laws, 1e-10),
    "theta-hom": _CheckDef(_chk_theta_hom, 1e-10),
    "action-axioms": _CheckDef(_chk_action_axioms, 1e-9),
    "cayley-roundtrip": _CheckDef(_chk_cayley_roundtrip, 1e-10),
    "cayley-compat": _CheckDef(_chk_cayley_compat, 1e-9),
    **{f"metric-invariance-{model}": _CheckDef(partial(_metric_invariance, model), 1e-9)
       for model in ("upper", "disk")},
    "cayley-isometry": _CheckDef(_chk_cayley_isometry, 1e-10),
    "tensor-pd": _CheckDef(_chk_tensor_pd, 1e-9),
    **{f"lb-equivalence-{kind}": _CheckDef(partial(_lb_pair, kind), 1e-3,
                                           fields=partial(_lb_fields, kind))
       for kind in ("upper", "disk", "siegel", "diskn")},
    "laplacian-invariance": _CheckDef(_chk_laplacian_invariance, 1e-3,
                                      fields=_invariance_suites),
    "remark41-invariance": _CheckDef(_chk_remark_invariance, 1e-3,
                                     fields=_invariance_suites),
    "reduce-n1m1": _CheckDef(_chk_reduce_n1m1, 1e-10, cell=(1, 1)),
    "pushforward-identities": _CheckDef(_chk_pushforward_identities, 1e-9),
}

CHECK_NAMES = list(_CHECKS)
DEFAULT_TOLERANCES = {name: c.default_tol for name, c in _CHECKS.items()}


def _pairing_constant(lhs: np.ndarray, rhs: np.ndarray) -> float | None:
    """Median lhs/rhs ratio over samples where the oracle value is
    informative; reported only, the residuals compare unscaled values."""
    ok = np.abs(rhs) > 1e-3 * (1.0 + np.abs(lhs))   # false where NaN
    ratio = np.sort(lhs[ok] / rhs[ok])   # np.median's bits, without importing numpy.ma
    return float(np.mean(ratio[(len(ratio) - 1) // 2: len(ratio) // 2 + 1])) if ok.any() else None


def _sample_stack(sampler: Callable, idx) -> _Stack:
    """The samples ``idx`` in one call of a run's sampler (_CheckDef.prepare).
    When the call raises, each sample runs again on its own, so only a
    failing sample reports the error."""
    try:
        return sampler(idx)
    except (DomainMargin, SingularMatrix, ArithmeticError) as exc:
        if len(idx) > 1:
            return _Stack.concat([_sample_stack(sampler, idx[k: k + 1])
                                  for k in range(len(idx))])
        error = f"{type(exc).__name__}: {exc}"
        bad = _Stack(idx)
        bad.add_residual("sample-error", float("inf"))
        bad.describe(error=error)
        return bad


def _all_samples(name: str, n: int, m: int, params: MetricParams,
                 samples: int, seed: int) -> _Stack:
    """Every sample of a check, in order, evaluated a block at a time."""
    sampler = _CHECKS[name].prepare(n, m, params, seed)
    return _Stack.concat([_sample_stack(sampler, np.arange(start, min(start + _STACK, samples)))
                          for start in range(0, samples, _STACK)])


def run_check(name: str, n: int, m: int, params: MetricParams,
              samples: int, seed: int, tol: float | None = None,
              threads: int = 1) -> CheckReport:
    """Run one named verification suite and reduce it to a report.

    Samples run in order in the calling thread; ``threads`` must be 1.  A
    check defined at one cell only (reduce-n1m1, at n = m = 1) runs there
    whatever ``n``, ``m`` ask, and its report names that cell.
    """
    if name not in _CHECKS:
        raise UnknownCheck(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    if tol is None:
        tol = _CHECKS[name].default_tol
    n, m = _CHECKS[name].cell or (n, m)
    start = time.perf_counter()
    st = _all_samples(name, n, m, params, samples, seed)

    constant = _pairing_constant(st.column("laplacian"), st.column("oracle"))

    max_abs_res = st.max_abs.max()
    max_rel_res = st.max_rel.max()
    worst_idx = int(np.argmax(st.max_rel))
    worst = st.description(worst_idx)
    worst["sample"] = worst_idx
    worst["part"] = st.labels[worst_idx]
    gaps = st.column("printed_rel_gap")
    if gaps.size:
        worst["printed_rel_gap_max"] = float(gaps.max())
    retries = int(st.retries.sum())
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckReport(
        check=name, n=n, m=m, a=params.a, b=params.b,
        samples=samples, seed=seed,
        max_abs=float(max_abs_res), max_rel=float(max_rel_res),
        tol=float(tol), passed=bool(max_rel_res <= tol),
        constant=constant, worst=worst, parts=st.parts, retries=retries, ms=elapsed,
    )
