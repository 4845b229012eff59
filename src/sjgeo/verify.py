"""Independent oracles and the named verification suites.

Oracles:
  * pushforward      central-difference differential of a group action
                     (or any smooth point map), exactly linear in the
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
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .cmatrix import SingularMatrix, max_abs, mat_inverse
from .geometry import (
    UpperPoint,
    act_disk,
    act_siegel,
    act_upper,
    cayley,
    cayley_inv,
    check_cayley_compat,
    disk_margin,
    hc_pplus_component,
    point_margin,
    point_to_json,
    random_point,
    upper_margin,
    validate_point,
)
from .groups import (
    JacobiElement,
    JacobiStarElement,
    SpElement,
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
    "rel_residual",
    "sample_seed",
    "pushforward",
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
    constant: float | None
    worst: dict
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
            "retries": self.retries, "ms": self.ms,
        }


def rel_residual(lhs, rhs) -> tuple[float, float]:
    """(absolute, relative) max-norm residual with a 1 + scale denominator."""
    lhs = np.asarray(lhs, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    d = max_abs(lhs - rhs)
    return d, d / (1.0 + max(max_abs(lhs), max_abs(rhs)))


def sample_seed(master: int, *parts) -> int:
    """Stable per-sample seed derivation."""
    text = ":".join([str(master)] + [str(p) for p in parts])
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# Oracles


def map_differential(fn, p, t: Tangent, h: float | None = None) -> Tangent:
    """Central-difference differential of a smooth point map at p along t.

    The step is taken along the normalized direction and rescaled, so the
    result is exactly linear in t.
    """
    chart = chart_for(p)
    if h is None:
        h = default_step(p, chart, order=1)
    tv = chart.tangent_to_vec(t)
    norm = float(np.linalg.norm(tv))
    target = fn(p)
    tchart = chart_for(target)
    if norm == 0.0:
        return tchart.vec_to_tangent(np.zeros(tchart.dim))
    margin = point_margin(p)
    if margin <= 2.0 * h:
        raise DomainMargin(f"margin {margin:.3e} too small for step {h:.3e}")
    v0 = chart.point_to_vec(p)
    u = tv / norm
    plus = tchart.point_to_vec(fn(chart.vec_to_point(v0 + h * u)))
    minus = tchart.point_to_vec(fn(chart.vec_to_point(v0 - h * u)))
    return tchart.vec_to_tangent((plus - minus) * (norm / (2.0 * h)))


def pushforward(g, p, t: Tangent, h: float | None = None) -> Tangent:
    """Differential of the action of g at p applied to t."""
    if isinstance(g, JacobiElement):
        fn = lambda q: act_upper(g, q)
    elif isinstance(g, SpElement):
        wrapped = JacobiElement(g, heisenberg_identity(g.n, p.m))
        fn = lambda q: act_upper(wrapped, q)
    elif isinstance(g, JacobiStarElement):
        fn = lambda q: act_disk(g, q)
    elif callable(g):
        fn = g
    else:
        raise TypeError(f"cannot push forward along {type(g).__name__}")
    return map_differential(fn, p, t, h)


def laplace_beltrami(f, p, metric, h: float | None = None) -> float:
    """Coordinate Laplacian of f at p for the metric-tensor field ``metric``.

    ``metric`` maps a point to a MetricTensor over either the full chart
    or the matrix-only chart; the chart is inferred from its dimension.
    The 2 dim flux points v0 +- h e_i are one node array: a metric with a
    true ``stacked`` attribute gets them in one call as a stacked point and
    returns stacked tensors, any other is called point by point.  The
    gradients at every flux point come from one field evaluation of all
    their stencils (see operators.ScalarField for the field contract).
    """
    g0 = metric(p)
    model = "upper" if isinstance(p, UpperPoint) else "disk"
    full = Chart(model, p.n, p.m, include_vec=True)
    if g0.dim == full.dim:
        chart = full
    else:
        chart = Chart(model, p.n, p.m, include_vec=False)
        if g0.dim != chart.dim:
            raise ValueError(f"tensor dimension {g0.dim} matches no chart")
    if h is None:
        # Smaller than the generic nested step: the outer derivative acts on
        # the smooth metric field, where round-off is negligible and the
        # truncation term dominates.
        h = 0.3 * default_step(p, chart, order=2)
    margin = point_margin(p)
    if margin <= 4.0 * h:
        raise DomainMargin(f"margin {margin:.3e} too small for step {h:.3e}")
    det0 = float(np.linalg.det(g0.g))
    if det0 <= 0.0 or g0.min_eigenvalue() <= 0.0:
        raise SingularMatrix("metric tensor is not positive definite at the point")
    h1 = default_step(p, chart, order=1)
    v0 = chart.point_to_vec(p)
    step = h * np.eye(chart.dim)
    flux_nodes = np.concatenate([v0 + step, v0 - step])
    grad = _grad_real(f, chart, flux_nodes, h1)
    if getattr(metric, "stacked", False):
        gq = metric(chart.vec_to_point(flux_nodes)).g
    else:
        gq = np.array([metric(chart.vec_to_point(v)).g for v in flux_nodes])
    det = np.linalg.det(gq)
    if np.any(det <= 0.0):
        raise SingularMatrix("metric tensor degenerates inside the stencil")
    flux = np.sqrt(det)[:, None] * np.linalg.solve(gq, grad[..., None])[..., 0]
    diag = np.arange(chart.dim)
    total = np.sum(flux[diag, diag] - flux[chart.dim + diag, diag]) / (2.0 * h)
    return float(total / np.sqrt(det0))


# ---------------------------------------------------------------------------
# Sample outcome plumbing


@dataclass
class _Outcome:
    max_abs: float = 0.0
    max_rel: float = 0.0
    label: str = ""
    info: dict = field(default_factory=dict)
    retries: int = 0
    pair: tuple[float, float] | None = None
    constant_candidate: float | None = None

    def add(self, label: str, lhs, rhs, info: dict | None = None):
        d, r = rel_residual(lhs, rhs)
        if r >= self.max_rel:
            self.max_rel = r
            self.label = label
            if info is not None:
                self.info = info
        self.max_abs = max(self.max_abs, d)

    def add_residual(self, label: str, value: float, scale: float = 0.0,
                     info: dict | None = None):
        rel = value / (1.0 + scale)
        if rel >= self.max_rel:
            self.max_rel = rel
            self.label = label
            if info is not None:
                self.info = info
        self.max_abs = max(self.max_abs, value)


def _redraw(make, accept, master: int, idx: int, tag: str):
    """Draw until the acceptance predicate holds; count the retries."""
    for attempt in range(_MAX_RETRIES):
        obj = make(sample_seed(master, idx, tag, attempt))
        if accept(obj):
            return obj, attempt
    raise DomainMargin(f"no admissible sample after {_MAX_RETRIES} draws ({tag})")


# ---------------------------------------------------------------------------
# Check samplers


def _chk_group_laws(n, m, params, master, idx) -> _Outcome:
    out = _Outcome()
    hs = [random_heisenberg(n, m, np.random.default_rng(sample_seed(master, idx, "h", k)))
          for k in range(3)]
    gs = [random_jacobi(n, m, sample_seed(master, idx, "g", k)) for k in range(3)]
    ss = [theta_map(g) for g in gs]

    h12 = heisenberg_mul(hs[0], hs[1])
    lhs = heisenberg_mul(h12, hs[2])
    rhs = heisenberg_mul(hs[0], heisenberg_mul(hs[1], hs[2]))
    out.add("heisenberg-assoc",
            np.concatenate([lhs.lam.ravel(), lhs.mu.ravel(), lhs.kappa.ravel()]),
            np.concatenate([rhs.lam.ravel(), rhs.mu.ravel(), rhs.kappa.ravel()]))
    e = heisenberg_identity(n, m)
    out.add("heisenberg-identity",
            np.concatenate([heisenberg_mul(hs[0], e).kappa.ravel()]),
            np.concatenate([hs[0].kappa.ravel()]))
    inv = heisenberg_mul(hs[0], heisenberg_inverse(hs[0]))
    out.add_residual("heisenberg-inverse",
                     max(max_abs(inv.lam), max_abs(inv.mu), max_abs(inv.kappa)))
    out.add_residual("heisenberg-symmetry", heisenberg_defect(h12),
                     max_abs(h12.kappa))

    g12 = jacobi_mul(gs[0], gs[1])
    lhs_g = jacobi_mul(g12, gs[2])
    rhs_g = jacobi_mul(gs[0], jacobi_mul(gs[1], gs[2]))
    flat = lambda g: np.concatenate([g.sp.matrix().ravel(), g.h.lam.ravel(),
                                     g.h.mu.ravel(), g.h.kappa.ravel()])
    out.add("jacobi-assoc", flat(lhs_g), flat(rhs_g),
            info={"element": element_to_json(gs[0])})
    out.add("jacobi-identity", flat(jacobi_mul(gs[0], jacobi_identity(n, m))), flat(gs[0]))
    ginv = jacobi_mul(gs[0], jacobi_inverse(gs[0]))
    out.add("jacobi-inverse", flat(ginv), flat(jacobi_identity(n, m)))
    out.add_residual("jacobi-symmetry", heisenberg_defect(g12.h), max_abs(g12.h.kappa))
    out.add_residual("sp-closure", sp_defect(g12.sp),
                     max_abs(g12.sp.matrix()) ** 2)

    s12 = jacobistar_mul(ss[0], ss[1])
    lhs_s = jacobistar_mul(s12, ss[2])
    rhs_s = jacobistar_mul(ss[0], jacobistar_mul(ss[1], ss[2]))
    flat_s = lambda s: np.concatenate([s.g.p.ravel(), s.g.q.ravel(),
                                       s.xi.ravel(), s.kappa.astype(complex).ravel()])
    out.add("star-assoc", flat_s(lhs_s), flat_s(rhs_s))
    out.add("star-identity", flat_s(jacobistar_mul(ss[0], jacobistar_identity(n, m))),
            flat_s(ss[0]))
    sinv = jacobistar_mul(ss[0], jacobistar_inverse(ss[0]))
    out.add("star-inverse", flat_s(sinv), flat_s(jacobistar_identity(n, m)))
    out.add_residual("star-closure", jacobistar_defect(s12),
                     max_abs(s12.g.p) ** 2)
    return out


def _chk_theta_hom(n, m, params, master, idx) -> _Outcome:
    out = _Outcome()
    g1 = random_jacobi(n, m, sample_seed(master, idx, "g", 0))
    g2 = random_jacobi(n, m, sample_seed(master, idx, "g", 1))
    t12 = theta_map(jacobi_mul(g1, g2))
    tt = jacobistar_mul(theta_map(g1), theta_map(g2))
    flat_s = lambda s: np.concatenate([s.g.p.ravel(), s.g.q.ravel(),
                                       s.xi.ravel(), s.kappa.astype(complex).ravel()])
    out.add("theta-homomorphism", flat_s(t12), flat_s(tt),
            info={"element": element_to_json(g1)})

    k = n + m
    t = tstar(k)
    conj_form = np.linalg.inv(t) @ embed_sp(g1) @ t
    out.add("theta-vs-conjugation", conj_form, star_matrix(theta_map(g1)))

    e12 = embed_sp(jacobi_mul(g1, g2))
    out.add("embed-homomorphism", e12, embed_sp(g1) @ embed_sp(g2))
    emb = embed_sp(g1)
    out.add_residual("embed-symplectic", max_abs(emb.T @ jmat(k) @ emb - jmat(k)),
                     max_abs(emb) ** 2)
    return out


def _chk_action_axioms(n, m, params, master, idx) -> _Outcome:
    out = _Outcome()
    g1 = random_jacobi(n, m, sample_seed(master, idx, "g", 0))
    g2 = random_jacobi(n, m, sample_seed(master, idx, "g", 1))
    pu = random_point("upper", n, m, sample_seed(master, idx, "pu"))
    pd = random_point("disk", n, m, sample_seed(master, idx, "pd"))

    om_lhs = act_siegel(jacobi_mul(g1, g2).sp, pu.omega)
    om_rhs = act_siegel(g1.sp, act_siegel(g2.sp, pu.omega))
    out.add("siegel-assoc", om_lhs, om_rhs)
    out.add("siegel-identity",
            act_siegel(jacobi_identity(n, m).sp, pu.omega), pu.omega)

    up_lhs = act_upper(jacobi_mul(g1, g2), pu)
    up_rhs = act_upper(g1, act_upper(g2, pu))
    out.add("upper-assoc",
            np.concatenate([up_lhs.omega.ravel(), up_lhs.z.ravel()]),
            np.concatenate([up_rhs.omega.ravel(), up_rhs.z.ravel()]),
            info={"point": point_to_json(pu), "element": element_to_json(g1)})
    out.add("upper-identity",
            np.concatenate([act_upper(jacobi_identity(n, m), pu).omega.ravel()]),
            np.concatenate([pu.omega.ravel()]))

    s1, s2 = theta_map(g1), theta_map(g2)
    dk_lhs = act_disk(jacobistar_mul(s1, s2), pd)
    dk_rhs = act_disk(s1, act_disk(s2, pd))
    out.add("disk-assoc",
            np.concatenate([dk_lhs.w.ravel(), dk_lhs.eta.ravel()]),
            np.concatenate([dk_rhs.w.ravel(), dk_rhs.eta.ravel()]))
    out.add("disk-identity",
            np.concatenate([act_disk(jacobistar_identity(n, m), pd).w.ravel()]),
            np.concatenate([pd.w.ravel()]))

    # transformed points must stay inside their domains
    for tag, pt in (("upper", up_lhs), ("disk", dk_lhs)):
        problems = validate_point(pt, strict=False)
        out.add_residual(f"domain-{tag}", 1.0 if problems else 0.0,
                         info={"violations": problems} if problems else None)

    # the triangular-factorization route must match the direct action
    hc = hc_pplus_component(s1, pd)
    direct = act_disk(s1, pd)
    out.add("hc-vs-direct",
            np.concatenate([hc.w.ravel(), hc.eta.ravel()]),
            np.concatenate([direct.w.ravel(), direct.eta.ravel()]))
    return out


def _chk_cayley_roundtrip(n, m, params, master, idx) -> _Outcome:
    out = _Outcome()
    pd = random_point("disk", n, m, sample_seed(master, idx, "pd"))
    pu = random_point("upper", n, m, sample_seed(master, idx, "pu"))
    back = cayley_inv(cayley(pd))
    out.add("disk-roundtrip",
            np.concatenate([back.w.ravel(), back.eta.ravel()]),
            np.concatenate([pd.w.ravel(), pd.eta.ravel()]),
            info={"point": point_to_json(pd)})
    fwd = cayley(cayley_inv(pu))
    out.add("upper-roundtrip",
            np.concatenate([fwd.omega.ravel(), fwd.z.ravel()]),
            np.concatenate([pu.omega.ravel(), pu.z.ravel()]))
    return out


def _chk_cayley_compat(n, m, params, master, idx) -> _Outcome:
    out = _Outcome()
    g = random_jacobi(n, m, sample_seed(master, idx, "g"))
    pd = random_point("disk", n, m, sample_seed(master, idx, "pd"))
    resid = check_cayley_compat(g, pd)
    lhs = act_upper(g, cayley(pd))
    out.add_residual("compat", resid, max(max_abs(lhs.omega), max_abs(lhs.z)),
                     info={"point": point_to_json(pd), "element": element_to_json(g)})
    return out


def _metric_invariance(out, tag, action_fn, p, t, evaluate):
    moved = map_differential(action_fn, p, t)
    lhs = evaluate(p, t)
    rhs = evaluate(action_fn(p), moved)
    out.add(tag, np.asarray(lhs), np.asarray(rhs))


def _chk_metric_invariance_upper(n, m, params, master, idx) -> _Outcome:
    out = _Outcome()

    def make(seed):
        g = random_jacobi(n, m, seed)
        p = random_point("upper", n, m, sample_seed(seed, "p"))
        return g, p

    def accept(pair):
        g, p = pair
        return upper_margin(act_upper(g, p)) >= _MIN_MARGIN_METRIC

    (g, p), retries = _redraw(make, accept, master, idx, "mi-upper")
    out.retries = retries
    rng = np.random.default_rng(sample_seed(master, idx, "t"))
    t = random_tangent("upper", n, m, rng)
    _metric_invariance(out, "upper-family", lambda q: act_upper(g, q), p, t,
                       lambda q, s: q_upper(q, s, params))
    sp_only = JacobiElement(g.sp, heisenberg_identity(n, m))
    _metric_invariance(out, "siegel", lambda q: act_upper(sp_only, q), p, t,
                       lambda q, s: q_siegel(q.omega, s))
    out.info.setdefault("point", point_to_json(p))
    out.info.setdefault("element", element_to_json(g))
    return out


def _chk_metric_invariance_disk(n, m, params, master, idx) -> _Outcome:
    out = _Outcome()

    def make(seed):
        g = theta_map(random_jacobi(n, m, seed))
        p = random_point("disk", n, m, sample_seed(seed, "p"))
        return g, p

    def accept(pair):
        g, p = pair
        return disk_margin(act_disk(g, p)) >= _MIN_MARGIN_METRIC

    (g, p), retries = _redraw(make, accept, master, idx, "mi-disk")
    out.retries = retries
    rng = np.random.default_rng(sample_seed(master, idx, "t"))
    t = random_tangent("disk", n, m, rng)
    _metric_invariance(out, "disk-family", lambda q: act_disk(g, q), p, t,
                       lambda q, s: q_disk(q, s, params))
    _metric_invariance(out, "disk-base", lambda q: act_disk(g, q), p, t,
                       lambda q, s: q_disk_n(q.w, s))
    out.info.setdefault("point", point_to_json(p))
    return out


def _chk_cayley_isometry(n, m, params, master, idx) -> _Outcome:
    out = _Outcome()
    p = random_point("disk", n, m, sample_seed(master, idx, "p"))
    rng = np.random.default_rng(sample_seed(master, idx, "t"))
    t = random_tangent("disk", n, m, rng)
    lhs = q_disk(p, t, params)
    rhs = q_upper(cayley(p), map_differential(cayley, p, t), params)
    out.add("isometry", np.asarray(lhs), np.asarray(rhs),
            info={"point": point_to_json(p)})
    return out


def _chk_tensor_pd(n, m, params, master, idx) -> _Outcome:
    out = _Outcome()
    model = "upper" if idx % 2 == 0 else "disk"
    p = random_point(model, n, m, sample_seed(master, idx, "p"))
    tensor = metric_tensor(p, params)
    sym = max_abs(tensor.g - tensor.g.T)
    out.add_residual("tensor-symmetry", sym, max_abs(tensor.g),
                     info={"point": point_to_json(p)})
    eig = tensor.min_eigenvalue()
    out.constant_candidate = eig
    if eig <= 0.0:
        out.add_residual("tensor-pd", 1.0 + abs(eig),
                         info={"point": point_to_json(p), "min_eig": eig})
    chart = chart_for(p)
    rng = np.random.default_rng(sample_seed(master, idx, "v"))
    for k in range(2):
        t = random_tangent(model, n, m, rng)
        direct = (q_upper(p, t, params) if model == "upper"
                  else q_disk(p, t, params))
        out.add(f"polarization-{k}", np.asarray(direct),
                np.asarray(tensor.apply(chart.tangent_to_vec(t))))
    return out


def _lb_pair(kind, n, m, params, master, idx):
    model = "upper" if kind in ("upper", "siegel") else "disk"
    mat_only = kind in ("siegel", "diskn")
    fields = test_field_suite(model, n, m, sample_seed(master, "fields"),
                              mat_only=mat_only)
    f = fields[idx % len(fields)]
    p = random_point(model, n, m, sample_seed(master, idx, "p"))
    metric = lambda q: metric_tensor(q, params, kind=kind)
    metric.stacked = True
    out = _Outcome()
    if kind == "upper":
        sb = second_bundle(f, p, mat_only=False)
        lhs = lap_upper(None, p, params, _sb=sb)
        printed = lap_upper_printed(None, p, params, _sb=sb)
        out.info["printed_rel_gap"] = rel_residual(lhs, printed)[1]
    elif kind == "disk":
        sb = second_bundle(f, p, mat_only=False)
        lhs = lap_disk(None, p, params, _sb=sb)
        printed = lap_disk_printed(None, p, params, _sb=sb)
        out.info["printed_rel_gap"] = rel_residual(lhs, printed)[1]
    elif kind == "siegel":
        lhs = lap_siegel(f, p)
    else:
        lhs = lap_disk_n(f, p)
    rhs = laplace_beltrami(f, p, metric)
    out.pair = (float(lhs), float(rhs))
    out.info.update({"field": f.name, "point": point_to_json(p)})
    out.add(f"lb-pair[{f.name}]", np.asarray(lhs), np.asarray(rhs), info=out.info)
    return out


def _compose(f, action) -> ScalarField:
    """f after a point map; stack-safe when f is, since the actions are."""
    return ScalarField(f.name, f.model, lambda q: f(action(q)), f.mat_only,
                       stacked=f.stacked)


def _invariance_sample(n, m, params, master, idx, operators_upper, operators_disk):
    out = _Outcome()
    suite_u = test_field_suite("upper", n, m, sample_seed(master, "fu"))
    suite_d = test_field_suite("disk", n, m, sample_seed(master, "fd"))
    f_u = suite_u[1 + idx % (len(suite_u) - 1)]   # skip the constant field
    f_d = suite_d[1 + idx % (len(suite_d) - 1)]

    def make(seed):
        g = random_jacobi(n, m, seed)
        pu = random_point("upper", n, m, sample_seed(seed, "pu"))
        pd = random_point("disk", n, m, sample_seed(seed, "pd"))
        return g, pu, pd

    def accept(trip):
        g, pu, pd = trip
        qu = act_upper(g, pu)
        qd = act_disk(theta_map(g), pd)
        cu = Chart("upper", n, m)
        cd = Chart("disk", n, m)
        return (upper_margin(qu) >= _MIN_MARGIN_NESTED
                and disk_margin(qd) >= _MIN_MARGIN_NESTED
                and cu.point_scale(qu) <= _MAX_SCALE_NESTED
                and cd.point_scale(qd) <= _MAX_SCALE_NESTED)

    (g, pu, pd), retries = _redraw(make, accept, master, idx, "op-inv")
    out.retries = retries
    s = theta_map(g)

    act_u = lambda q: act_upper(g, q)
    act_d = lambda q: act_disk(s, q)
    comp_u = _compose(f_u, act_u)
    comp_d = _compose(f_d, act_d)
    sb_cu = second_bundle(comp_u, pu, mat_only=False)
    sb_u = second_bundle(f_u, act_upper(g, pu), mat_only=False)
    sb_cd = second_bundle(comp_d, pd, mat_only=False)
    sb_d = second_bundle(f_d, act_disk(s, pd), mat_only=False)

    for name, apply_op in operators_upper:
        lhs = apply_op(pu, _sb=sb_cu)
        rhs = apply_op(act_upper(g, pu), _sb=sb_u)
        out.add(f"{name}", np.asarray(lhs), np.asarray(rhs),
                info={"field": f_u.name, "point": point_to_json(pu)})
    for name, apply_op in operators_disk:
        lhs = apply_op(pd, _sb=sb_cd)
        rhs = apply_op(act_disk(s, pd), _sb=sb_d)
        out.add(f"{name}", np.asarray(lhs), np.asarray(rhs),
                info={"field": f_d.name, "point": point_to_json(pd)})
    return out


def _chk_laplacian_invariance(n, m, params, master, idx) -> _Outcome:
    ops_u = [("upper-laplacian",
              lambda p, _sb: lap_upper(None, p, params, _sb=_sb))]
    ops_d = [("disk-laplacian",
              lambda p, _sb: lap_disk(None, p, params, _sb=_sb))]
    return _invariance_sample(n, m, params, master, idx, ops_u, ops_d)


def _chk_remark_invariance(n, m, params, master, idx) -> _Outcome:
    ops_u = [(kind, (lambda k: lambda p, _sb: op_invariant(k, None, p, _sb=_sb))(kind))
             for kind in ("D", "L")]
    ops_d = [(kind, (lambda k: lambda p, _sb: op_invariant(k, None, p, _sb=_sb))(kind))
             for kind in ("Dtilde", "Ltilde")]
    out = _invariance_sample(n, m, params, master, idx, ops_u, ops_d)

    # the defining split: quarter of the unit-weight Laplacian minus D is L
    unit = MetricParams(1.0, 1.0)
    pu = random_point("upper", n, m, sample_seed(master, idx, "rel-u"))
    f = test_field_suite("upper", n, m, sample_seed(master, "fu"))[3]
    sb = second_bundle(f, pu, mat_only=False)
    lhs = 0.25 * lap_upper(None, pu, unit, _sb=sb) - op_invariant("D", None, pu, _sb=sb)
    out.add("L-split", np.asarray(lhs),
            np.asarray(op_invariant("L", None, pu, _sb=sb)))
    pd = random_point("disk", n, m, sample_seed(master, idx, "rel-d"))
    fd = test_field_suite("disk", n, m, sample_seed(master, "fd"))[3]
    sbd = second_bundle(fd, pd, mat_only=False)
    lhs_d = (lap_disk(None, pd, unit, _sb=sbd)
             - op_invariant("Dtilde", None, pd, _sb=sbd))
    out.add("Ltilde-split", np.asarray(lhs_d),
            np.asarray(op_invariant("Ltilde", None, pd, _sb=sbd)))
    return out


def _chk_reduce_n1m1(n, m, params, master, idx) -> _Outcome:
    out = _Outcome()
    unit = MetricParams(1.0, 1.0)
    p = random_point("disk", 1, 1, sample_seed(master, idx, "p"))
    rng = np.random.default_rng(sample_seed(master, idx, "t"))
    t = random_tangent("disk", 1, 1, rng)
    out.add("metric-closed-form", np.asarray(q_disk(p, t, unit)),
            np.asarray(q_disk_closed_11(p, t)),
            info={"point": point_to_json(p)})
    f = test_field_suite("disk", 1, 1, sample_seed(master, "f"))[1 + idx % 4]
    out.add("laplacian-closed-form", np.asarray(lap_disk(f, p, unit)),
            np.asarray(lap_disk_closed_11(f, p)),
            info={"field": f.name, "point": point_to_json(p)})
    return out


def _chk_pushforward_identities(n, m, params, master, idx) -> _Outcome:
    out = _Outcome()
    p = random_point("disk", n, m, sample_seed(master, idx, "p"))
    rng = np.random.default_rng(sample_seed(master, idx, "t"))
    t = random_tangent("disk", n, m, rng)
    eye = np.eye(n)
    inv_w = mat_inverse(eye - p.w)
    inv_wc = mat_inverse(eye - p.w.conj())
    target = cayley(p)

    out.add("point-identity-Y", target.y,
            inv_w @ (eye - p.w @ p.w.conj()) @ inv_wc,
            info={"point": point_to_json(p)})
    out.add("point-identity-V", target.v,
            p.eta @ inv_w + p.eta.conj() @ inv_wc)

    chart = chart_for(p)
    h = 1e-6 * (1.0 + chart.point_scale(p))
    moved = map_differential(cayley, p, t, h=h)
    d_omega = 2j * inv_w @ t.dmat @ inv_w
    d_z = 2j * (t.dvec + p.eta @ inv_w @ t.dmat) @ inv_w
    out.add("differential-dOmega", moved.dmat, 0.5 * (d_omega + d_omega.T))
    out.add("differential-dZ", moved.dvec, d_z)
    return out


@dataclass(frozen=True)
class _CheckDef:
    sampler: object
    default_tol: float


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
    "lb-equivalence-upper": _CheckDef(partial(_lb_pair, "upper"), 1e-3),
    "lb-equivalence-disk": _CheckDef(partial(_lb_pair, "disk"), 1e-3),
    "lb-equivalence-siegel": _CheckDef(partial(_lb_pair, "siegel"), 1e-3),
    "lb-equivalence-diskn": _CheckDef(partial(_lb_pair, "diskn"), 1e-3),
    "laplacian-invariance": _CheckDef(_chk_laplacian_invariance, 1e-3),
    "remark41-invariance": _CheckDef(_chk_remark_invariance, 1e-3),
    "reduce-n1m1": _CheckDef(_chk_reduce_n1m1, 1e-6),
    "pushforward-identities": _CheckDef(_chk_pushforward_identities, 1e-6),
}

CHECK_NAMES = list(_CHECKS)
DEFAULT_TOLERANCES = {name: c.default_tol for name, c in _CHECKS.items()}


def _pairing_constant(outcomes: list[_Outcome]) -> float | None:
    """Median lhs/rhs ratio over samples where the oracle value is
    informative; reported only, the residuals compare unscaled values."""
    ratios = [lhs / rhs for lhs, rhs in (o.pair for o in outcomes if o.pair)
              if abs(rhs) > 1e-3 * (1.0 + abs(lhs))]
    return float(np.median(ratios)) if ratios else None


def run_check(name: str, n: int, m: int, params: MetricParams,
              samples: int, seed: int, tol: float | None = None,
              threads: int = 1) -> CheckReport:
    """Run one named verification suite and reduce it to a report.

    Samples run in order in the calling thread; ``threads`` must be 1.
    """
    if name not in _CHECKS:
        raise UnknownCheck(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}")
    cdef = _CHECKS[name]
    if tol is None:
        tol = cdef.default_tol
    start = time.perf_counter()

    def one(idx: int) -> _Outcome:
        try:
            return cdef.sampler(n, m, params, seed, idx)
        except (DomainMargin, SingularMatrix, ArithmeticError) as exc:
            bad = _Outcome()
            bad.add_residual("sample-error", float("inf"),
                             info={"error": f"{type(exc).__name__}: {exc}"})
            return bad

    outcomes = [one(i) for i in range(samples)]

    candidates = [o.constant_candidate for o in outcomes
                  if o.constant_candidate is not None]
    constant = _pairing_constant(outcomes)
    if constant is None and candidates:
        constant = min(candidates)

    max_abs_res = max(o.max_abs for o in outcomes)
    max_rel_res = max(o.max_rel for o in outcomes)
    worst_idx = int(np.argmax([o.max_rel for o in outcomes]))
    worst = dict(outcomes[worst_idx].info)
    worst["sample"] = worst_idx
    worst["part"] = outcomes[worst_idx].label
    gaps = [o.info["printed_rel_gap"] for o in outcomes
            if "printed_rel_gap" in o.info]
    if gaps:
        worst["printed_rel_gap_max"] = float(max(gaps))
    retries = sum(o.retries for o in outcomes)
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckReport(
        check=name, n=n, m=m, a=params.a, b=params.b,
        samples=samples, seed=seed,
        max_abs=float(max_abs_res), max_rel=float(max_rel_res),
        tol=float(tol), passed=bool(max_rel_res <= tol),
        constant=constant, worst=worst, retries=retries, ms=elapsed,
    )
