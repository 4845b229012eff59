"""Independent oracles and the named verification suites.

Oracles:
  * map_differential central-difference differential of a smooth point
                     map, such as a group action, exactly linear in the
                     tangent by construction.
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
worst (their draws and values).  Every check draws its samples with one
call per draw, given the samples' seeds, and evaluates each identity
once on the stack; sample k of the stack is what its seed draws alone.
The checks that build no second-order stencil take up to 256 samples per
call; the stencil checks take as many as fit a fixed budget of chart
coordinates (_STENCIL_COORDS): all 50 of a run at (1, 1), one at a time
at (3, 2).  There, each Richardson level of every sample's stencil is one
field call, and each oracle one metric call.  A call that raises is run
again one sample at a time, so only the failing sample reports the error.
run_check reduces the concatenated stack of all samples to the report:
the worst sample's description becomes ``worst``, and the part maxima
``parts``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .cmatrix import SingularMatrix, mat_inverse, mat_max_abs
from .geometry import (
    DiskPoint,
    UpperPoint,
    act_disk,
    act_siegel,
    act_upper,
    cayley,
    cayley_inv,
    check_cayley_compat,
    hc_pplus_component,
    point_margin,
    point_to_json,
    random_point,
    validate_point,
)
from .groups import (
    JacobiElement,
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
    Chart,
    MetricParams,
    Tangent,
    chart_for,
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
    ScalarField,
    _grad_real,
    _require_margin,
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
_MIN_MARGIN_METRIC = 0.01
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
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# Oracles


def map_differential(fn, p, t: Tangent, h=None) -> Tangent:
    """Central-difference differential of a smooth point map at p along t.

    The step is taken along the normalized direction and rescaled, so the
    result is exactly linear in t.  A stacked point and tangent give the
    stacked differentials, with each point's own step (``h`` may also be
    one step per point) and one call of ``fn`` per stencil side.
    """
    chart = chart_for(p)
    if h is None:
        h = default_step(p, chart, order=1)
    h = np.asarray(h, dtype=np.float64)
    tv = chart.tangent_to_vec(t)
    norm = np.linalg.norm(tv, axis=-1)
    target = fn(p)
    tchart = chart_for(target)
    # a zero tangent has the zero image whatever the margin
    _require_margin(p, 2.0 * h, where=norm != 0.0)
    v0 = chart.point_to_vec(p)
    u = tv / np.where(norm == 0.0, 1.0, norm)[..., None]
    step = h[..., None] * u
    plus = tchart.point_to_vec(fn(chart.vec_to_point(v0 + step)))
    minus = tchart.point_to_vec(fn(chart.vec_to_point(v0 - step)))
    return tchart.vec_to_tangent((plus - minus) * (norm / (2.0 * h))[..., None])


def laplace_beltrami(f, p, metric):
    """Coordinate Laplacian of f at p for the metric-tensor field ``metric``.

    The chart is the field's, as in operators.second_bundle: the
    matrix-only chart for a field with a true ``mat_only`` flag, the full
    chart otherwise, and ``metric`` maps a stacked point to its stacked
    tensors over that chart, a (K, dim, dim) float array (such as
    metrics.metric_tensor's).  The point and its 2 dim flux points
    v0 +- h e_i are one node array and one metric call.  The gradients at
    every flux point come from one field evaluation of all their stencils
    (see operators.ScalarField for the field contract).

    A stacked point of K points gives K values, each with its point's own
    steps: the tensors at all K points and their flux points come from one
    metric call, and the gradient stencils from one field call.
    """
    chart = Chart(p.model, p.n, p.m, include_vec=not getattr(f, "mat_only", False))
    d = chart.dim
    # Smaller than the generic nested step: the outer derivative acts on
    # the smooth metric field, where round-off is negligible and the
    # truncation term dominates.
    h = 0.3 * np.asarray(default_step(p, chart, order=2))
    _require_margin(p, 4.0 * h)
    v0 = chart.point_to_vec(p)[..., None, :]
    step = h[..., None, None] * np.eye(d)
    nodes = np.concatenate([v0, v0 + step, v0 - step], axis=-2)   # the point, then its flux points
    h1 = np.asarray(default_step(p, chart, order=1))
    # the gradient stencils first: their nodes are the largest array, and
    # the tensors need not be alive beside them
    grad = _grad_real(f, chart, nodes[..., 1:, :], h1[..., None])
    rows = nodes.reshape(-1, d)
    g = np.asarray(metric(chart.vec_to_point(rows)))
    if g.shape != (len(rows), d, d):
        raise ValueError(f"metric returned tensors of shape {g.shape} for {len(rows)} "
                         f"points of the field's chart of dimension {d}")
    g = g.reshape(nodes.shape + (d,))
    det0 = np.linalg.det(g[..., 0, :, :])
    if np.any(det0 <= 0.0) or np.any(np.linalg.eigvalsh(g[..., 0, :, :]).min(axis=-1) <= 0.0):
        raise SingularMatrix("metric tensor is not positive definite at the point")
    gq = g[..., 1:, :, :]
    det = np.linalg.det(gq)
    if np.any(det <= 0.0):
        raise SingularMatrix("metric tensor degenerates inside the stencil")
    flux = np.sqrt(det)[..., None] * np.linalg.solve(gq, grad[..., None])[..., 0]
    diag = np.arange(d)
    total = np.sum(flux[..., diag, diag] - flux[..., d + diag, diag], axis=-1) / (2.0 * h)
    val = total / np.sqrt(det0)
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
# A sampler takes an array of sample indices and returns one _Stack of
# their residuals, in the same order.  Each draw is one call with the
# samples' seeds: member k of the stack is what sample k draws alone, as
# in a one-sample run, and each identity is evaluated once on the stack.


def _grouped(count: int, idx, sampler) -> _Stack:
    """The samples idx split by idx % count: sampler(j, sub) gives the stack
    of the samples sub of class j, and the classes are joined back in
    sample order."""
    classes = [(j, idx[idx % count == j]) for j in range(count)]
    return _Stack.concat([sampler(j, sub) for j, sub in classes if sub.size])


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
    ss = [theta_map(g) for g in gs]

    h12 = heisenberg_mul(hs[0], hs[1])
    lhs = heisenberg_mul(h12, hs[2])
    rhs = heisenberg_mul(hs[0], heisenberg_mul(hs[1], hs[2]))
    out.add("heisenberg-assoc", _heisenberg_parts(lhs), _heisenberg_parts(rhs))
    e = heisenberg_identity(n, m)
    out.add("heisenberg-identity", heisenberg_mul(hs[0], e).kappa, hs[0].kappa)
    inv = heisenberg_mul(hs[0], heisenberg_inverse(hs[0]))
    out.add_residual("heisenberg-inverse",
                     np.maximum.reduce([_sample_max(a) for a in _heisenberg_parts(inv)]))
    out.add_residual("heisenberg-symmetry", heisenberg_defect(h12),
                     mat_max_abs(h12.kappa))

    g12 = jacobi_mul(gs[0], gs[1])
    lhs_g = jacobi_mul(g12, gs[2])
    rhs_g = jacobi_mul(gs[0], jacobi_mul(gs[1], gs[2]))
    out.add("jacobi-assoc", _jacobi_parts(lhs_g), _jacobi_parts(rhs_g))
    out.add("jacobi-identity", _jacobi_parts(jacobi_mul(gs[0], jacobi_identity(n, m))),
            _jacobi_parts(gs[0]))
    ginv = jacobi_mul(gs[0], jacobi_inverse(gs[0]))
    out.add("jacobi-inverse", _jacobi_parts(ginv), _jacobi_parts(jacobi_identity(n, m)))
    out.add_residual("jacobi-symmetry", heisenberg_defect(g12.h), mat_max_abs(g12.h.kappa))
    out.add_residual("sp-closure", sp_defect(g12.sp),
                     mat_max_abs(g12.sp.matrix()) ** 2)

    s12 = jacobistar_mul(ss[0], ss[1])
    lhs_s = jacobistar_mul(s12, ss[2])
    rhs_s = jacobistar_mul(ss[0], jacobistar_mul(ss[1], ss[2]))
    out.add("star-assoc", _star_parts(lhs_s), _star_parts(rhs_s))
    out.add("star-identity", _star_parts(jacobistar_mul(ss[0], jacobistar_identity(n, m))),
            _star_parts(ss[0]))
    sinv = jacobistar_mul(ss[0], jacobistar_inverse(ss[0]))
    out.add("star-inverse", _star_parts(sinv), _star_parts(jacobistar_identity(n, m)))
    out.add_residual("star-closure", jacobistar_defect(s12),
                     mat_max_abs(s12.g.p) ** 2)
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

    om_lhs = act_siegel(jacobi_mul(g1, g2).sp, pu.omega)
    om_rhs = act_siegel(g1.sp, act_siegel(g2.sp, pu.omega))
    out.add("siegel-assoc", om_lhs, om_rhs)
    out.add("siegel-identity", act_siegel(jacobi_identity(n, m).sp, pu.omega), pu.omega)

    up_lhs = act_upper(jacobi_mul(g1, g2), pu)
    up_rhs = act_upper(g1, act_upper(g2, pu))
    out.add("upper-assoc", (up_lhs.omega, up_lhs.z), (up_rhs.omega, up_rhs.z))
    out.add("upper-identity", act_upper(jacobi_identity(n, m), pu).omega, pu.omega)

    s1, s2 = theta_map(g1), theta_map(g2)
    dk_lhs = act_disk(jacobistar_mul(s1, s2), pd)
    dk_rhs = act_disk(s1, act_disk(s2, pd))
    out.add("disk-assoc", (dk_lhs.w, dk_lhs.eta), (dk_rhs.w, dk_rhs.eta))
    out.add("disk-identity", act_disk(jacobistar_identity(n, m), pd).w, pd.w)

    # transformed points must stay inside their domains
    found = {tag: validate_point(pt, strict=False) for tag, pt in (("upper", up_lhs),
                                                                   ("disk", dk_lhs))}
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


def _metric_invariance(out, tag, action_fn, p, t, evaluate):
    moved = map_differential(action_fn, p, t)
    lhs = evaluate(p, t)
    rhs = evaluate(action_fn(p), moved)
    out.add(tag, lhs, rhs)


def _chk_metric_invariance_upper(n, m, params, master, idx) -> _Stack:
    out = _Stack(idx)

    def make(seeds):
        return random_jacobi(n, m, seeds), random_point("upper", n, m, _seeds(seeds, "p"))

    def accept(pairs):
        g, p = pairs
        return point_margin(act_upper(g, p)) >= _MIN_MARGIN_METRIC

    (g, p), out.retries = _redraw(make, accept, master, idx, "mi-upper")
    t = random_tangent("upper", n, m, _seeds(master, idx, "t"))
    _metric_invariance(out, "upper-family", lambda q: act_upper(g, q), p, t,
                       lambda q, s: q_upper(q, s, params))
    sp_only = JacobiElement(g.sp, heisenberg_identity(n, m))
    _metric_invariance(out, "siegel", lambda q: act_upper(sp_only, q), p, t,
                       lambda q, s: q_siegel(q.omega, s))
    out.describe(point=p, element=g)
    return out


def _chk_metric_invariance_disk(n, m, params, master, idx) -> _Stack:
    out = _Stack(idx)

    def make(seeds):
        return random_jacobi(n, m, seeds), random_point("disk", n, m, _seeds(seeds, "p"))

    def accept(pairs):
        g, p = pairs
        return point_margin(act_disk(theta_map(g), p)) >= _MIN_MARGIN_METRIC

    (g, p), out.retries = _redraw(make, accept, master, idx, "mi-disk")
    s = theta_map(g)
    t = random_tangent("disk", n, m, _seeds(master, idx, "t"))
    _metric_invariance(out, "disk-family", lambda q: act_disk(s, q), p, t,
                       lambda q, v: q_disk(q, v, params))
    _metric_invariance(out, "disk-base", lambda q: act_disk(s, q), p, t,
                       lambda q, v: q_disk_n(q.w, v))
    out.describe(point=p)
    return out


def _chk_cayley_isometry(n, m, params, master, idx) -> _Stack:
    out = _Stack(idx)
    p = random_point("disk", n, m, _seeds(master, idx, "p"))
    t = random_tangent("disk", n, m, _seeds(master, idx, "t"))
    lhs = q_disk(p, t, params)
    rhs = q_upper(cayley(p), map_differential(cayley, p, t), params)
    out.add("isometry", lhs, rhs)
    out.describe(point=p)
    return out


def _tensor_pd(model, n, m, params, master, idx) -> _Stack:
    out = _Stack(idx)
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
    return out


def _chk_tensor_pd(n, m, params, master, idx) -> _Stack:
    # even samples check the upper model, odd ones the disk
    return _grouped(2, idx, lambda parity, sub: _tensor_pd(
        ("upper", "disk")[parity], n, m, params, master, sub))


def _chk_pushforward_identities(n, m, params, master, idx) -> _Stack:
    out = _Stack(idx)
    p = random_point("disk", n, m, _seeds(master, idx, "p"))
    t = random_tangent("disk", n, m, _seeds(master, idx, "t"))
    eye = np.eye(n)
    inv_w = mat_inverse(eye - p.w)
    inv_wc = mat_inverse(eye - p.w.conj())
    target = cayley(p)

    out.add("point-identity-Y", target.y,
            inv_w @ (eye - p.w @ p.w.conj()) @ inv_wc)
    out.add("point-identity-V", target.v,
            p.eta @ inv_w + p.eta.conj() @ inv_wc)

    chart = chart_for(p)
    h = 1e-6 * (1.0 + chart.point_scale(p))
    moved = map_differential(cayley, p, t, h=h)
    d_omega = 2j * inv_w @ t.dmat @ inv_w
    d_z = 2j * (t.dvec + p.eta @ inv_w @ t.dmat) @ inv_w
    out.add("differential-dOmega", moved.dmat, 0.5 * (d_omega + d_omega.mT))
    out.add("differential-dZ", moved.dvec, d_z)
    out.describe(point=p)
    return out


# The checks below build second-order stencils (or, for reduce-n1m1, call
# operators that do).  Each test field serves the samples whose index is
# its position modulo the number of fields: a sampler differentiates
# each field once on the stack of its samples (see _grouped).


def _lb_pair(kind, n, m, params, master, idx) -> _Stack:
    model = "upper" if kind in ("upper", "siegel") else "disk"
    mat_only = kind in ("siegel", "diskn")
    fields = test_field_suite(model, n, m, sample_seed(master, "fields"),
                              mat_only=mat_only)

    def metric(q):
        return metric_tensor(q, params, kind=kind)

    def sampler(j, sub):
        f = fields[j]
        p = random_point(model, n, m, _seeds(master, sub, "p"))
        out = _Stack(sub)
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
        return out
    return _grouped(len(fields), idx, sampler)


def _rel_gap(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """|lhs - rhs| / (1 + max(|lhs|, |rhs|)) of each pair of values."""
    return np.abs(lhs - rhs) / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))


def _compose(f, action, elements, count: int) -> ScalarField:
    """f after the action of a stack of ``count`` elements, as a field.

    It takes a stacked point whose points come in ``count`` equal runs,
    such as the stencil nodes of that many samples, and moves run k by
    element k, so the whole stencil stays one field call.  A stack of one
    element broadcasts against the points as it is."""
    return ScalarField(f.name, f.model, lambda q: f(action(
        elements if count == 1
        else _at(elements, np.repeat(np.arange(count), q.batch[0] // count)), q)),
        f.mat_only)


def _invariance_sample(n, m, master, idx, parts) -> _Stack:
    """The residuals ``parts(out, upper, disk)`` adds for each stack of
    samples, where each model's argument is (sb_moved, p, sb, q): the bundle
    of the field after the action at the drawn point p, and the bundle of
    the field at the moved point q.  Sample k uses the non-constant field
    1 + k % 4 of each model's suite."""
    suite_u = test_field_suite("upper", n, m, sample_seed(master, "fu"))
    suite_d = test_field_suite("disk", n, m, sample_seed(master, "fd"))

    def make(seeds):
        # the draws carry their images: accept judges them, and they are the
        # stencil centres of the moved fields
        g = random_jacobi(n, m, seeds)
        s = theta_map(g)
        pu = random_point("upper", n, m, _seeds(seeds, "pu"))
        pd = random_point("disk", n, m, _seeds(seeds, "pd"))
        return g, s, pu, pd, act_upper(g, pu), act_disk(s, pd)

    def accept(draws):
        qu, qd = draws[4:]
        cu = Chart("upper", n, m)
        cd = Chart("disk", n, m)
        return ((point_margin(qu) >= _MIN_MARGIN_NESTED)
                & (point_margin(qd) >= _MIN_MARGIN_NESTED)
                & (cu.point_scale(qu) <= _MAX_SCALE_NESTED)
                & (cd.point_scale(qd) <= _MAX_SCALE_NESTED))

    def sampler(j, sub):
        out = _Stack(sub)
        (g, s, pu, pd, qu, qd), out.retries = _redraw(make, accept, master, sub, "op-inv")
        f_u, f_d = suite_u[1 + j], suite_d[1 + j]   # skip the constant field
        upper = (second_bundle(_compose(f_u, act_upper, g, len(sub)), pu, mat_only=False), pu,
                 second_bundle(f_u, qu, mat_only=False), qu)
        disk = (second_bundle(_compose(f_d, act_disk, s, len(sub)), pd, mat_only=False), pd,
                second_bundle(f_d, qd, mat_only=False), qd)
        parts(out, upper, disk)
        out.describe(field=f_u.name, point=pu, disk_point=pd)
        return out
    return _grouped(len(suite_u) - 1, idx, sampler)


def _chk_laplacian_invariance(n, m, params, master, idx) -> _Stack:
    def parts(out, upper, disk):
        for name, lap, (sb_moved, p, sb, q) in (("upper-laplacian", lap_upper, upper),
                                                ("disk-laplacian", lap_disk, disk)):
            out.add(name, lap(sb_moved, p, params), lap(sb, q, params))
    return _invariance_sample(n, m, master, idx, parts)


def _chk_remark_invariance(n, m, params, master, idx) -> _Stack:
    unit = MetricParams(1.0, 1.0)

    def parts(out, upper, disk):
        for (sb_moved, p, sb, q), kinds in ((upper, ("D", "L")), (disk, ("Dtilde", "Ltilde"))):
            for kind in kinds:
                out.add(kind, op_invariant(kind, sb_moved, p), op_invariant(kind, sb, q))
        # the defining splits at the moved points: a quarter of the
        # unit-weight Laplacian minus D is L, the disk Laplacian minus
        # Dtilde is Ltilde
        sb, q = upper[2:]
        out.add("L-split", 0.25 * lap_upper(sb, q, unit) - op_invariant("D", sb, q),
                op_invariant("L", sb, q))
        sb, q = disk[2:]
        out.add("Ltilde-split", lap_disk(sb, q, unit) - op_invariant("Dtilde", sb, q),
                op_invariant("Ltilde", sb, q))
    return _invariance_sample(n, m, master, idx, parts)


def _chk_reduce_n1m1(n, m, params, master, idx) -> _Stack:
    # always at n = m = 1 (its _CheckDef.cell)
    unit = MetricParams(1.0, 1.0)
    fields = test_field_suite("disk", 1, 1, sample_seed(master, "f"))

    def sampler(j, sub):
        out = _Stack(sub)
        p = random_point("disk", 1, 1, _seeds(master, sub, "p"))
        t = random_tangent("disk", 1, 1, _seeds(master, sub, "t"))
        out.add("metric-closed-form", q_disk(p, t, unit), q_disk_closed_11(p, t))
        f = fields[1 + j]   # skip the constant field
        sb = second_bundle(f, p, mat_only=False)
        out.add("laplacian-closed-form", lap_disk(sb, p, unit), lap_disk_closed_11(sb, p))
        out.describe(field=f.name, point=p)
        return out
    return _grouped(len(fields) - 1, idx, sampler)


# ---------------------------------------------------------------------------
# Check registry and run_check

# Samples per sampler call: a constant, so a stack's memory stays bounded.
_STACK = 256

# Chart coordinates per sampler call of a stencil check.  Its largest
# array is the oracle's gradient stencil, (2 dim)^2 nodes of dim chart
# coordinates per sample, so one sample at the desk corner (3,2), chart
# dimension 24, fills the budget: a call holds as many samples as fit.
_STENCIL_COORDS = 4 * 24 ** 3


@dataclass(frozen=True)
class _CheckDef:
    sampler: Callable   # (n, m, params, master, idx) -> _Stack of len(idx)
    default_tol: float
    stencil: bool = False   # builds second-order stencils (see stack)
    cell: tuple | None = None   # the (n, m) the check runs at, whatever is asked

    def stack(self, n: int, m: int) -> int:
        """Samples per sampler call at (n, m)."""
        if not self.stencil:
            return _STACK
        dim = Chart("upper", n, m).dim
        return max(1, _STENCIL_COORDS // (4 * dim ** 3))


_CHECKS: dict[str, _CheckDef] = {
    "group-laws": _CheckDef(_chk_group_laws, 1e-10),
    "theta-hom": _CheckDef(_chk_theta_hom, 1e-10),
    "action-axioms": _CheckDef(_chk_action_axioms, 1e-9),
    "cayley-roundtrip": _CheckDef(_chk_cayley_roundtrip, 1e-10),
    "cayley-compat": _CheckDef(_chk_cayley_compat, 1e-9),
    "metric-invariance-upper": _CheckDef(_chk_metric_invariance_upper, 1e-5),
    "metric-invariance-disk": _CheckDef(_chk_metric_invariance_disk, 1e-5),
    "cayley-isometry": _CheckDef(_chk_cayley_isometry, 1e-5),
    "tensor-pd": _CheckDef(_chk_tensor_pd, 1e-9),
    "lb-equivalence-upper": _CheckDef(partial(_lb_pair, "upper"), 1e-3, stencil=True),
    "lb-equivalence-disk": _CheckDef(partial(_lb_pair, "disk"), 1e-3, stencil=True),
    "lb-equivalence-siegel": _CheckDef(partial(_lb_pair, "siegel"), 1e-3, stencil=True),
    "lb-equivalence-diskn": _CheckDef(partial(_lb_pair, "diskn"), 1e-3, stencil=True),
    "laplacian-invariance": _CheckDef(_chk_laplacian_invariance, 1e-3, stencil=True),
    "remark41-invariance": _CheckDef(_chk_remark_invariance, 1e-3, stencil=True),
    "reduce-n1m1": _CheckDef(_chk_reduce_n1m1, 1e-6, stencil=True,
                             cell=(1, 1)),
    "pushforward-identities": _CheckDef(_chk_pushforward_identities, 1e-6),
}

CHECK_NAMES = list(_CHECKS)
DEFAULT_TOLERANCES = {name: c.default_tol for name, c in _CHECKS.items()}


def _pairing_constant(lhs: np.ndarray, rhs: np.ndarray) -> float | None:
    """Median lhs/rhs ratio over samples where the oracle value is
    informative; reported only, the residuals compare unscaled values."""
    ok = np.abs(rhs) > 1e-3 * (1.0 + np.abs(lhs))   # false where NaN
    return float(np.median(lhs[ok] / rhs[ok])) if ok.any() else None


def _sample_stack(cdef: _CheckDef, n, m, params, seed, idx) -> _Stack:
    """The samples ``idx`` in one sampler call.  When the call raises, each
    sample runs again on its own, so only a failing sample reports the error."""
    try:
        return cdef.sampler(n, m, params, seed, idx)
    except (DomainMargin, SingularMatrix, ArithmeticError) as exc:
        if len(idx) > 1:
            return _Stack.concat([_sample_stack(cdef, n, m, params, seed, idx[k: k + 1])
                                  for k in range(len(idx))])
        error = f"{type(exc).__name__}: {exc}"
        bad = _Stack(idx)
        bad.add_residual("sample-error", float("inf"))
        bad.describe(error=error)
        return bad


def _all_samples(name: str, n: int, m: int, params: MetricParams,
                 samples: int, seed: int) -> _Stack:
    """Every sample of a check, in order, evaluated a stack at a time."""
    cdef = _CHECKS[name]
    stack = cdef.stack(n, m)
    return _Stack.concat([
        _sample_stack(cdef, n, m, params, seed,
                      np.arange(start, min(start + stack, samples)))
        for start in range(0, samples, stack)])


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
