"""Domains and group actions.

The upper model is the Siegel-Jacobi space: pairs (Omega, Z) with Omega
symmetric and Im Omega positive definite, Z an arbitrary complex m x n
matrix.  The disk model is the Siegel-Jacobi disk: pairs (W, eta) with W
symmetric, I - conj(W) W positive definite.  The partial Cayley
transform maps the disk model onto the upper model and intertwines the
two Jacobi group actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .cmatrix import (
    PIVOT_RTOL,
    block,
    frozen,
    hermitian_pd_margin,
    mat_from_json,
    mat_inverse,
    mat_max_abs,
    mat_to_json,
    seeded,
    sym_defect,
)
from .groups import (
    ComplexHeisenbergElement,
    ComplexJacobiElement,
    JacobiElement,
    JacobiStarElement,
    SpElement,
    cjacobi_mul,
    theta_map,
)

__all__ = [
    "UpperPoint",
    "DiskPoint",
    "act_siegel",
    "act_upper",
    "act_disk",
    "cayley",
    "cayley_inv",
    "check_cayley_compat",
    "hc_pplus_component",
    "random_point",
    "point_margin",
    "point_to_json",
    "point_from_json",
    "validate_point",
]

# Tolerated asymmetry of a freshly computed Moebius image before the
# round-off symmetrization is considered invalid.
_ACTION_SYM_TOL = 1e-9


def _frozen_pair(mat, vec, mat_name: str, vec_name: str):
    """Read-only complex128 forms of the two blocks of a point or a
    tangent, shapes validated.

    Either one point, (n, n) and (m, n), or a stack of K points,
    (K, n, n) and (K, m, n).
    """
    mat = frozen(mat, np.complex128)
    vec = frozen(vec, np.complex128)
    if mat.ndim not in (2, 3) or mat.shape[-1] != mat.shape[-2]:
        raise ValueError(f"{mat_name} must be square")
    if (vec.ndim != mat.ndim or vec.shape[-1] != mat.shape[-1]
            or vec.shape[:-2] != mat.shape[:-2]):
        raise ValueError(f"{vec_name} must be m x n with n matching {mat_name}")
    return mat, vec


@dataclass(frozen=True)
class UpperPoint:
    """(Omega, Z): Omega symmetric with Im Omega > 0, Z complex m x n.

    A stacked point holds K points as (K, n, n) and (K, m, n) arrays.
    """

    model: ClassVar[str] = "upper"
    omega: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        omega, z = _frozen_pair(self.omega, self.z, "Omega", "Z")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.omega.shape[-1]

    @property
    def m(self) -> int:
        return self.z.shape[-2]

    @property
    def batch(self) -> tuple:
        """() for one point, (K,) for a stack of K points."""
        return self.omega.shape[:-2]

    @property
    def y(self) -> np.ndarray:
        """Im Omega, the positive-definite part."""
        return self.omega.imag

    @property
    def v(self) -> np.ndarray:
        """Im Z."""
        return self.z.imag


@dataclass(frozen=True)
class DiskPoint:
    """(W, eta): W symmetric with I - conj(W) W > 0, eta complex m x n.

    A stacked point holds K points as (K, n, n) and (K, m, n) arrays.
    """

    model: ClassVar[str] = "disk"
    w: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        w, eta = _frozen_pair(self.w, self.eta, "W", "eta")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "eta", eta)

    @property
    def n(self) -> int:
        return self.w.shape[-1]

    @property
    def m(self) -> int:
        return self.eta.shape[-2]

    @property
    def batch(self) -> tuple:
        """() for one point, (K,) for a stack of K points."""
        return self.w.shape[:-2]


def _margin_matrix(p) -> np.ndarray:
    """The matrix that must be positive definite: Im Omega, or I - conj(W) W."""
    if p.model == "upper":
        return p.y.astype(complex)
    return np.eye(p.n) - p.w.conj() @ p.w


def point_margin(p):
    """Boundary margin of a point of either model: the smallest eigenvalue
    of Im Omega, or of I - conj(W) W (the distance inside the domain).

    A float for one point, one margin per point for a stacked point.
    """
    return hermitian_pd_margin(_margin_matrix(p))


def _symmetrized(mat: np.ndarray, what: str) -> np.ndarray:
    """Average out round-off asymmetry, rejecting anything beyond tolerance.

    Each matrix of a stack is judged against its own scale.
    """
    defect = sym_defect(mat)
    if np.any(defect > _ACTION_SYM_TOL * (1.0 + np.max(np.abs(mat), axis=(-2, -1)))):
        raise ValueError(f"{what} produced an asymmetric result "
                         f"(defect {np.max(defect):.3e})")
    return 0.5 * (mat + mat.mT)


# ---------------------------------------------------------------------------
# Actions


def act_siegel(m: SpElement, omega: np.ndarray) -> np.ndarray:
    """Moebius action (A Omega + B)(C Omega + D)^-1 on the upper half space.

    Stacked elements and stacked Omega act matrix by matrix, as in the
    actions below.
    """
    omega = np.asarray(omega, dtype=np.complex128)
    denom = m.c @ omega + m.d
    res = (m.a @ omega + m.b) @ mat_inverse(denom)
    return _symmetrized(res, "siegel action")


def act_upper(g: JacobiElement, p: UpperPoint) -> UpperPoint:
    """Jacobi action: (M . Omega, (Z + lambda Omega + mu)(C Omega + D)^-1).

    A stacked point is moved point by point in one call, by one element
    or by a stack of as many elements.
    """
    if (g.n, g.m) != (p.n, p.m):
        raise ValueError("element and point sizes differ")
    denom_inv = mat_inverse(g.sp.c @ p.omega + g.sp.d)
    omega = _symmetrized((g.sp.a @ p.omega + g.sp.b) @ denom_inv, "siegel action")
    z = (p.z + g.h.lam @ p.omega + g.h.mu) @ denom_inv
    return UpperPoint(omega, z)


def act_disk(g: JacobiStarElement, p: DiskPoint) -> DiskPoint:
    """Disk action: ((PW+Q)(conj(Q)W + conj(P))^-1,
    (eta + xi W + conj(xi))(conj(Q)W + conj(P))^-1).

    A stacked point is moved point by point in one call, by one element
    or by a stack of as many elements.
    """
    if (g.n, g.m) != (p.n, p.m):
        raise ValueError("element and point sizes differ")
    denom_inv = mat_inverse(g.g.q.conj() @ p.w + g.g.p.conj())
    w = _symmetrized((g.g.p @ p.w + g.g.q) @ denom_inv, "disk action")
    eta = (p.eta + g.xi @ p.w + g.xi.conj()) @ denom_inv
    return DiskPoint(w, eta)


# ---------------------------------------------------------------------------
# Partial Cayley transform


def cayley(p: DiskPoint) -> UpperPoint:
    """(W, eta) -> (i(I+W)(I-W)^-1, 2i eta (I-W)^-1)."""
    n = p.n
    inv = mat_inverse(np.eye(n) - p.w)
    omega = _symmetrized(1j * (np.eye(n) + p.w) @ inv, "cayley")
    return UpperPoint(omega, 2j * p.eta @ inv)


def cayley_inv(p: UpperPoint) -> DiskPoint:
    """(Omega, Z) -> ((Omega - iI)(Omega + iI)^-1, Z (Omega + iI)^-1)."""
    n = p.n
    inv = mat_inverse(p.omega + 1j * np.eye(n))
    w = _symmetrized((p.omega - 1j * np.eye(n)) @ inv, "inverse cayley")
    return DiskPoint(w, p.z @ inv)


def check_cayley_compat(g: JacobiElement, p: DiskPoint):
    """Max-norm residual of g . Phi(p) = Phi(theta(g) . p), per point of a stack."""
    lhs = act_upper(g, cayley(p))
    rhs = cayley(act_disk(theta_map(g), p))
    return np.maximum(mat_max_abs(lhs.omega - rhs.omega), mat_max_abs(lhs.z - rhs.z))


# ---------------------------------------------------------------------------
# Harish-Chandra route to the disk action


def _point_element(p: DiskPoint) -> ComplexJacobiElement:
    """Embed a disk point as ((I, W; 0, I), (0, eta; 0)) in the complexified group."""
    eye = np.eye(p.n)
    mat = block([[eye, p.w], [None, eye]])
    zeta = np.zeros(p.batch + (p.m, p.m))
    h = ComplexHeisenbergElement(np.zeros_like(p.eta), p.eta, zeta)
    return ComplexJacobiElement(mat, h)


def hc_pplus_component(g: JacobiStarElement, p: DiskPoint) -> DiskPoint:
    """Disk action recovered from the block-triangular factorization.

    Multiplies g against the embedded point inside the complexified
    group and normalizes the product back to upper-triangular unipotent
    form: for matrix part [[P,Q],[R,S]] and Heisenberg part
    (xi, eta; zeta) the normalized component is (Q S^-1, eta S^-1).
    Provides a computation path for the action that shares no code with
    act_disk.
    """
    if (g.n, g.m) != (p.n, p.m):
        raise ValueError("element and point sizes differ")
    n = g.n
    h = ComplexHeisenbergElement(g.xi, g.xi.conj(), 1j * g.kappa)
    full = cjacobi_mul(ComplexJacobiElement(g.g.matrix(), h), _point_element(p))
    s_block = full.mat[..., n:, n:]
    q_block = full.mat[..., :n, n:]
    s_inv = mat_inverse(s_block)
    w = _symmetrized(q_block @ s_inv, "triangular normalization")
    eta = full.h.eta @ s_inv
    return DiskPoint(w, eta)


# ---------------------------------------------------------------------------
# Random points


def _disk_blocks(n: int, m: int, rng: np.random.Generator) -> tuple:
    s = rng.uniform(-1.0, 1.0, size=(n, n)) + 1j * rng.uniform(-1.0, 1.0, size=(n, n))
    s = 0.5 * (s + s.T)
    # Scaling by 0.45 / max(1, ||S||) keeps I - conj(W) W comfortably positive.
    norm = np.linalg.norm(s, 2)
    w = 0.45 * s / max(1.0, norm)
    eta = rng.uniform(-2.0, 2.0, size=(m, n)) + 1j * rng.uniform(-2.0, 2.0, size=(m, n))
    return w, eta


def random_point(model: str, n: int, m: int, seed):
    """Deterministic in-domain sample, or the stack of an array of seeds'
    (cmatrix.seeded); disk points keep a spectral margin >= 0.1, and an upper
    point is the Cayley image of its seed's disk point, so it is inside exactly."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    disk = DiskPoint(*seeded(seed, lambda rng: _disk_blocks(n, m, rng)))
    if model == "disk":
        return disk
    if model == "upper":
        return cayley(disk)
    raise ValueError(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# JSON wire forms


def point_to_json(p) -> dict:
    if isinstance(p, UpperPoint):
        return {"model": "upper", "n": p.n, "m": p.m,
                "omega": mat_to_json(p.omega), "z": mat_to_json(p.z)}
    if isinstance(p, DiskPoint):
        return {"model": "disk", "n": p.n, "m": p.m,
                "w": mat_to_json(p.w), "eta": mat_to_json(p.eta)}
    raise TypeError(f"unsupported point type {type(p).__name__}")


def point_from_json(obj: dict):
    model = obj["model"]
    if model == "upper":
        return UpperPoint(mat_from_json(obj["omega"]), mat_from_json(obj["z"]))
    if model == "disk":
        return DiskPoint(mat_from_json(obj["w"]), mat_from_json(obj["eta"]))
    raise ValueError(f"unknown model {model!r}")


def validate_point(p, strict: bool = True) -> list:
    """Names of violated membership invariants (empty when the point is valid);
    for a stacked point, one such list per point.

    The margin matrix (Im Omega, or I - conj(W) W) counts as positive
    definite when its smallest eigenvalue exceeds both 1e-9 (0 when not
    ``strict``) and PIVOT_RTOL times its largest entry: the scale below
    which mat_inverse rejects it as singular.
    """
    if isinstance(p, UpperPoint):
        mat, names = p.omega, ("Omega is not symmetric",
                               "Im Omega is not positive definite")
    elif isinstance(p, DiskPoint):
        mat, names = p.w, ("W is not symmetric",
                           "I - conj(W) W is not positive definite")
    else:
        return [f"not a point: {type(p).__name__}"]
    gram = _margin_matrix(p)
    asym = sym_defect(mat) > 1e-12 * (1.0 + mat_max_abs(mat))
    floor = np.maximum(1e-9 if strict else 0.0, PIVOT_RTOL * mat_max_abs(gram))
    thin = hermitian_pd_margin(gram) <= floor
    problems = [[name for name, bad in zip(names, flags) if bad]
                for flags in zip(np.atleast_1d(asym), np.atleast_1d(thin))]
    return problems if p.batch else problems[0]
