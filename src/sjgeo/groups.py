"""Group elements and multiplication laws.

Covers the real Heisenberg group H(n,m), the Jacobi group
Sp(n,R) x| H(n,m) acting on the Siegel-Jacobi upper space, the complex
Heisenberg group, the disk-model Jacobi group (block matrices
[[P,Q],[Qbar,Pbar]] with twisted Heisenberg part), the conjugation map
between the two models, and the embedding of a Jacobi element into
Sp(m+n,R).

Conventions:
  * lambda/mu are real m x n, kappa real m x m with kappa + mu t(lambda)
    symmetric.
  * Disk-model elements carry (xi, conj(xi); i*kappa) with xi complex
    m x n and kappa real m x m; the stored kappa is the real parameter
    of the purely imaginary central entry.
  * All element values are immutable after construction.
  * An element may hold a stack of K elements: every array then carries a
    leading axis of length K, and the laws, maps and defects below work
    per element of the stack.  Stacked and single elements combine by
    broadcasting, so a stack times the identity is a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmatrix import SeedStream, block, frozen, mat_max_abs, seeded, sym_defect

__all__ = [
    "HeisenbergElement",
    "SpElement",
    "JacobiElement",
    "GStarElement",
    "JacobiStarElement",
    "ComplexHeisenbergElement",
    "ComplexJacobiElement",
    "jmat",
    "tstar",
    "heisenberg_identity",
    "heisenberg_mul",
    "heisenberg_inverse",
    "sp_identity",
    "sp_mul",
    "sp_inverse",
    "jacobi_identity",
    "jacobi_mul",
    "jacobi_inverse",
    "jacobistar_identity",
    "jacobistar_mul",
    "jacobistar_inverse",
    "cjacobi_mul",
    "theta_map",
    "embed_sp",
    "star_matrix",
    "sp_defect",
    "heisenberg_defect",
    "jacobistar_defect",
    "cheisenberg_defect",
    "random_heisenberg",
    "random_jacobi",
    "random_jacobistar",
    "element_to_json",
    "element_from_json",
]


def _square(a: np.ndarray, what: str) -> np.ndarray:
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"{what} must be square")
    return a


@dataclass(frozen=True)
class HeisenbergElement:
    """(lambda, mu; kappa) with kappa + mu t(lambda) symmetric."""

    lam: np.ndarray
    mu: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        lam = frozen(self.lam, np.float64)
        if lam.ndim < 2:
            raise ValueError("lambda must be an m x n matrix")
        m = lam.shape[-2]
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", frozen(self.mu, np.float64, lam.shape))
        object.__setattr__(self, "kappa",
                           frozen(self.kappa, np.float64, lam.shape[:-2] + (m, m)))

    @property
    def n(self) -> int:
        return self.lam.shape[-1]

    @property
    def m(self) -> int:
        return self.lam.shape[-2]


@dataclass(frozen=True)
class SpElement:
    """Real symplectic matrix [[A,B],[C,D]] of degree n."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a = _square(frozen(self.a, np.float64), "blocks")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", frozen(self.b, np.float64, a.shape))
        object.__setattr__(self, "c", frozen(self.c, np.float64, a.shape))
        object.__setattr__(self, "d", frozen(self.d, np.float64, a.shape))

    @property
    def n(self) -> int:
        return self.a.shape[-1]

    def matrix(self) -> np.ndarray:
        return block([[self.a, self.b], [self.c, self.d]])

    @classmethod
    def from_matrix(cls, mat: np.ndarray) -> "SpElement":
        mat = np.asarray(mat, dtype=np.float64)
        n = mat.shape[-1] // 2
        return cls(mat[..., :n, :n], mat[..., :n, n:], mat[..., n:, :n], mat[..., n:, n:])


@dataclass(frozen=True)
class JacobiElement:
    """Upper-model Jacobi group element (M, (lambda, mu; kappa))."""

    sp: SpElement
    h: HeisenbergElement

    def __post_init__(self):
        if self.h.n != self.sp.n:
            raise ValueError("Heisenberg part does not match the symplectic degree")

    @property
    def n(self) -> int:
        return self.sp.n

    @property
    def m(self) -> int:
        return self.h.m


@dataclass(frozen=True)
class GStarElement:
    """Disk-model symplectic element, blocks [[P,Q],[conj Q, conj P]]."""

    p: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        p = _square(frozen(self.p, np.complex128), "P")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", frozen(self.q, np.complex128, p.shape))

    @property
    def n(self) -> int:
        return self.p.shape[-1]

    def matrix(self) -> np.ndarray:
        return block([[self.p, self.q], [self.q.conj(), self.p.conj()]])


@dataclass(frozen=True)
class JacobiStarElement:
    """Disk-model Jacobi element (g, (xi, conj(xi); i*kappa))."""

    g: GStarElement
    xi: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        xi = frozen(self.xi, np.complex128)
        if xi.ndim < 2 or xi.shape[-1] != self.g.n:
            raise ValueError("xi must be m x n with n the symplectic degree")
        object.__setattr__(self, "xi", xi)
        kappa_shape = xi.shape[:-2] + (xi.shape[-2],) * 2
        object.__setattr__(self, "kappa", frozen(self.kappa, np.float64, kappa_shape))

    @property
    def n(self) -> int:
        return self.g.n

    @property
    def m(self) -> int:
        return self.xi.shape[-2]


@dataclass(frozen=True)
class ComplexHeisenbergElement:
    """(xi, eta; zeta) with zeta + eta t(xi) symmetric."""

    xi: np.ndarray
    eta: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        xi = frozen(self.xi, np.complex128)
        if xi.ndim < 2:
            raise ValueError("xi must be an m x n matrix")
        m = xi.shape[-2]
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", frozen(self.eta, np.complex128, xi.shape))
        object.__setattr__(self, "zeta",
                           frozen(self.zeta, np.complex128, xi.shape[:-2] + (m, m)))

    @property
    def n(self) -> int:
        return self.xi.shape[-1]

    @property
    def m(self) -> int:
        return self.xi.shape[-2]


@dataclass(frozen=True)
class ComplexJacobiElement:
    """Element of the complexified Jacobi group SL(2n,C) x| complex Heisenberg."""

    mat: np.ndarray
    h: ComplexHeisenbergElement

    def __post_init__(self):
        mat = frozen(self.mat, np.complex128)
        if mat.shape[-2:] != (2 * self.h.n, 2 * self.h.n):
            raise ValueError("matrix degree does not match the Heisenberg part")
        object.__setattr__(self, "mat", mat)

    @property
    def n(self) -> int:
        return self.h.n

    @property
    def m(self) -> int:
        return self.h.m


def jmat(n: int) -> np.ndarray:
    """The standard symplectic form [[0, I], [-I, 0]] of degree n."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = np.eye(n)
    j[n:, :n] = -np.eye(n)
    return j


def tstar(k: int) -> np.ndarray:
    """The unitary change of model (1/sqrt 2) [[I, I], [iI, -iI]] of degree k."""
    i = np.eye(k)
    return block([[i, i], [1j * i, -1j * i]]) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# Real Heisenberg group


def heisenberg_identity(n: int, m: int) -> HeisenbergElement:
    return HeisenbergElement(np.zeros((m, n)), np.zeros((m, n)), np.zeros((m, m)))


def heisenberg_mul(x: HeisenbergElement, y: HeisenbergElement) -> HeisenbergElement:
    """Twisted addition (l,u;k)(l',u';k') = (l+l', u+u'; k+k'+l tu' - u tl')."""
    if (x.n, x.m) != (y.n, y.m):
        raise ValueError("size mismatch")
    kappa = x.kappa + y.kappa + x.lam @ y.mu.mT - x.mu @ y.lam.mT
    return HeisenbergElement(x.lam + y.lam, x.mu + y.mu, kappa)


def heisenberg_inverse(x: HeisenbergElement) -> HeisenbergElement:
    kappa = -x.kappa + x.lam @ x.mu.mT - x.mu @ x.lam.mT
    return HeisenbergElement(-x.lam, -x.mu, kappa)


def heisenberg_defect(x: HeisenbergElement):
    """Distance of kappa + mu t(lambda) from symmetry."""
    return sym_defect(x.kappa + x.mu @ x.lam.mT)


# ---------------------------------------------------------------------------
# Sp(n, R)


def sp_identity(n: int) -> SpElement:
    return SpElement(np.eye(n), np.zeros((n, n)), np.zeros((n, n)), np.eye(n))


def sp_mul(x: SpElement, y: SpElement) -> SpElement:
    return SpElement.from_matrix(x.matrix() @ y.matrix())


def sp_inverse(x: SpElement) -> SpElement:
    # For symplectic [[A,B],[C,D]] the inverse is [[tD,-tB],[-tC,tA]].
    return SpElement(x.d.mT, -x.b.mT, -x.c.mT, x.a.mT)


def sp_defect(x: SpElement):
    """Residual of the defining relation tM J M = J."""
    mat = x.matrix()
    j = jmat(x.n)
    return mat_max_abs(mat.mT @ j @ mat - j)


# ---------------------------------------------------------------------------
# Jacobi group (upper model)


def jacobi_identity(n: int, m: int) -> JacobiElement:
    return JacobiElement(sp_identity(n), heisenberg_identity(n, m))


def _translate(lam: np.ndarray, mu: np.ndarray, sp: SpElement):
    """(lam, mu) M for the row action of a symplectic matrix."""
    lt = lam @ sp.a + mu @ sp.c
    mt = lam @ sp.b + mu @ sp.d
    return lt, mt


def jacobi_mul(g1: JacobiElement, g2: JacobiElement) -> JacobiElement:
    """(M,h)(M',h') with the Heisenberg part twisted by (lam,mu) -> (lam,mu)M'."""
    if (g1.n, g1.m) != (g2.n, g2.m):
        raise ValueError("size mismatch")
    lt, mt = _translate(g1.h.lam, g1.h.mu, g2.sp)
    kappa = g1.h.kappa + g2.h.kappa + lt @ g2.h.mu.mT - mt @ g2.h.lam.mT
    h = HeisenbergElement(lt + g2.h.lam, mt + g2.h.mu, kappa)
    return JacobiElement(sp_mul(g1.sp, g2.sp), h)


def jacobi_inverse(g: JacobiElement) -> JacobiElement:
    minv = sp_inverse(g.sp)
    lt, mt = _translate(g.h.lam, g.h.mu, minv)
    kappa = -g.h.kappa + lt @ mt.mT - mt @ lt.mT
    return JacobiElement(minv, HeisenbergElement(-lt, -mt, kappa))


# ---------------------------------------------------------------------------
# Complex Heisenberg group and the complexified Jacobi group


def cheisenberg_defect(x: ComplexHeisenbergElement):
    return sym_defect(x.zeta + x.eta @ x.xi.mT)


def _ch_twist(h: ComplexHeisenbergElement, mat: np.ndarray) -> ComplexHeisenbergElement:
    """Right twist (xi, eta) -> (xi P' + eta R', xi Q' + eta S'), zeta unchanged."""
    n = h.n
    p, q = mat[..., :n, :n], mat[..., :n, n:]
    r, s = mat[..., n:, :n], mat[..., n:, n:]
    return ComplexHeisenbergElement(h.xi @ p + h.eta @ r, h.xi @ q + h.eta @ s, h.zeta)


def cjacobi_mul(x: ComplexJacobiElement, y: ComplexJacobiElement) -> ComplexJacobiElement:
    if (x.n, x.m) != (y.n, y.m):
        raise ValueError("size mismatch")
    tw = _ch_twist(x.h, y.mat)
    zeta = tw.zeta + y.h.zeta + tw.xi @ y.h.eta.mT - tw.eta @ y.h.xi.mT
    h = ComplexHeisenbergElement(tw.xi + y.h.xi, tw.eta + y.h.eta, zeta)
    return ComplexJacobiElement(x.mat @ y.mat, h)


# ---------------------------------------------------------------------------
# Disk-model Jacobi group


def jacobistar_identity(n: int, m: int) -> JacobiStarElement:
    g = GStarElement(np.eye(n, dtype=complex), np.zeros((n, n), dtype=complex))
    return JacobiStarElement(g, np.zeros((m, n), dtype=complex), np.zeros((m, m)))


def jacobistar_mul(g1: JacobiStarElement, g2: JacobiStarElement) -> JacobiStarElement:
    """Disk-model law: xi twists through (P', conj Q') and the purely
    imaginary center picks up xi~ t(conj xi') - conj(xi~) t(xi')."""
    if (g1.n, g1.m) != (g2.n, g2.m):
        raise ValueError("size mismatch")
    p = g1.g.p @ g2.g.p + g1.g.q @ g2.g.q.conj()
    q = g1.g.p @ g2.g.q + g1.g.q @ g2.g.p.conj()
    xi_t = g1.xi @ g2.g.p + g1.xi.conj() @ g2.g.q.conj()
    center = (1j * g1.kappa + 1j * g2.kappa
              + xi_t @ g2.xi.conj().mT - xi_t.conj() @ g2.xi.mT)
    if np.any(mat_max_abs(center.real) > 1e-9 * (1.0 + mat_max_abs(center))):
        raise ValueError("central parameter lost its purely imaginary form")
    return JacobiStarElement(GStarElement(p, q), xi_t + g2.xi, center.imag)


def _to_cjacobi(g: JacobiStarElement) -> ComplexJacobiElement:
    h = ComplexHeisenbergElement(g.xi, g.xi.conj(), 1j * g.kappa)
    return ComplexJacobiElement(g.g.matrix(), h)


def jacobistar_inverse(g: JacobiStarElement) -> JacobiStarElement:
    # Symplectic inverse of [[P,Q],[Qbar,Pbar]] keeps the block shape:
    # inverse is [[P*, -tQ],[conj thereof]].
    pinv = g.g.p.conj().mT
    qinv = -g.g.q.mT
    ginv = GStarElement(pinv, qinv)
    xi_t = g.xi @ pinv + g.xi.conj() @ qinv.conj()
    center = -1j * g.kappa + xi_t @ xi_t.conj().mT - xi_t.conj() @ xi_t.mT
    return JacobiStarElement(ginv, -xi_t, center.imag)


def jacobistar_defect(g: JacobiStarElement):
    """Membership defect of the full element via its (m+n)-degree matrix form."""
    k = g.n + g.m
    t = tstar(k)
    real_form = t @ star_matrix(g) @ t.conj().T
    j = jmat(k)
    imag_part = mat_max_abs(real_form.imag)
    sympl = mat_max_abs(real_form.real.mT @ j @ real_form.real - j)
    return np.maximum(np.maximum(imag_part, sympl), cheisenberg_defect(_to_cjacobi(g).h))


# ---------------------------------------------------------------------------
# The map between models and the Sp(m+n, R) embedding


def theta_map(g: JacobiElement) -> JacobiStarElement:
    """Conjugation of an upper-model element into the disk model.

    P = ((A+D) + i(B-C))/2, Q = ((A-D) - i(B+C))/2, xi = (lambda + i mu)/2,
    and the central parameter becomes -i kappa / 2.
    """
    a, b, c, d = g.sp.a, g.sp.b, g.sp.c, g.sp.d
    p = 0.5 * ((a + d) + 1j * (b - c))
    q = 0.5 * ((a - d) - 1j * (b + c))
    xi = 0.5 * (g.h.lam + 1j * g.h.mu)
    return JacobiStarElement(GStarElement(p, q), xi, -0.5 * g.h.kappa)


def embed_sp(g: JacobiElement) -> np.ndarray:
    """Embed (M, (lambda, mu; kappa)) as a symplectic matrix of degree m + n."""
    a, b, c, d = g.sp.a, g.sp.b, g.sp.c, g.sp.d
    lam, mu, kappa = g.h.lam, g.h.mu, g.h.kappa
    eye = np.eye(g.m)
    return block([
        [a, None, b, a @ mu.mT - b @ lam.mT],
        [lam, eye, mu, kappa],
        [c, None, d, c @ mu.mT - d @ lam.mT],
        [None, None, None, eye],
    ])


def star_matrix(g: JacobiStarElement) -> np.ndarray:
    """The 2(m+n) complex matrix form [[P*,Q*],[conj Q*, conj P*]].

    P* = [[P, Q txi - P t(conj xi)], [xi, I - i kappa]],
    Q* = [[Q, P t(conj xi) - Q txi], [conj xi, i kappa]].
    """
    p, q, xi, kappa = g.g.p, g.g.q, g.xi, g.kappa
    pu = q @ xi.mT - p @ xi.conj().mT
    qu = p @ xi.conj().mT - q @ xi.mT
    pstar = block([[p, pu], [xi, np.eye(g.m) - 1j * kappa]])
    qstar = block([[q, qu], [xi.conj(), 1j * kappa]])
    return block([[pstar, qstar], [qstar.conj(), pstar.conj()]])


# ---------------------------------------------------------------------------
# Random generation (deterministic in the seed; an array of seeds draws the
# stack whose member k is what seed k draws alone, see cmatrix.seeded)


# Generators in a random Sp product: 4 to 8, so the raw draw pads to 8.
_SP_STEPS = 8


def _sp_draw(n: int, stream: SeedStream) -> tuple:
    """Each seed's generator kinds (0 shear, 1 block-diagonal, 2 J; -1 pads
    past its count) and the uniforms of its shears and block-diagonals,
    zero for the other steps."""
    return stream.steps(range(4, _SP_STEPS + 1), 3, 2, (n, n))


def _sp_blocks(kinds: np.ndarray, u: np.ndarray) -> tuple:
    """A, B, C, D of each product of a stack of _sp_draw's: 4-8 exact
    symplectic generators, shears [[I,B],[0,I]] with B symmetric,
    block-diagonal [[A,0],[0,tA^-1]] with A near I, and J.

    The generators are applied step by step, one mask per generator kind,
    to the column blocks [L, R] of every running product at once: the
    shear gives [L, L B + R], the block-diagonal one [L A, R tA^-1] and J
    gives [-R, L].
    """
    k, n = u.shape[0], u.shape[-1]
    left = np.tile(np.eye(2 * n, n), (k, 1, 1))
    right = np.tile(np.eye(2 * n, n, -n), (k, 1, 1))
    for step, uniforms in zip(kinds.T, u.swapaxes(0, 1)):
        shear, diag, j = (step == kind for kind in range(3))
        if shear.any():
            b = uniforms[shear]
            right[shear] = left[shear] @ (0.5 * (b + b.mT)) + right[shear]
        if diag.any():
            a = np.eye(n) + 0.3 * uniforms[diag]
            left[diag], right[diag] = left[diag] @ a, right[diag] @ np.linalg.inv(a).mT
        if j.any():
            left[j], right[j] = -right[j], left[j]
    return left[:, :n], right[:, :n], left[:, n:], right[:, n:]


def _heisenberg_draw(n: int, m: int, stream: SeedStream) -> tuple:
    """Each seed's lambda and mu, stacked as (2, m, n), and S."""
    return stream.uniform((-1.0, 1.0, (2, m, n)), (-1.0, 1.0, (m, m)))


def _heisenberg_blocks(lam_mu: np.ndarray, s: np.ndarray) -> tuple:
    lam, mu = lam_mu[:, 0], lam_mu[:, 1]
    s = 0.5 * (s + s.mT)
    # kappa = S - mu t(lambda) makes kappa + mu t(lambda) symmetric by construction.
    return lam, mu, s - mu @ lam.mT


def random_heisenberg(n: int, m: int, seed) -> HeisenbergElement:
    return HeisenbergElement(*seeded(seed, (n, m), lambda s: _heisenberg_draw(n, m, s),
                                     _heisenberg_blocks))


def random_jacobi(n: int, m: int, seed) -> JacobiElement:
    blocks = seeded(seed, (n, m), lambda s: _sp_draw(n, s) + _heisenberg_draw(n, m, s),
                    lambda kinds, u, *h: _sp_blocks(kinds, u) + _heisenberg_blocks(*h))
    return JacobiElement(SpElement(*blocks[:4]), HeisenbergElement(*blocks[4:]))


def random_jacobistar(n: int, m: int, seed) -> JacobiStarElement:
    """Disk-model sample, drawn as the model image of an upper-model sample."""
    return theta_map(random_jacobi(n, m, seed))


# ---------------------------------------------------------------------------
# JSON wire forms (field names mirror the element definitions)


def element_to_json(g) -> dict:
    from .cmatrix import mat_to_json as mj

    if isinstance(g, HeisenbergElement):
        return {"type": "heisenberg", "n": g.n, "m": g.m,
                "lambda": mj(g.lam), "mu": mj(g.mu), "kappa": mj(g.kappa)}
    if isinstance(g, SpElement):
        return {"type": "sp", "n": g.n,
                "a": mj(g.a), "b": mj(g.b), "c": mj(g.c), "d": mj(g.d)}
    if isinstance(g, JacobiElement):
        return {"type": "jacobi", "n": g.n, "m": g.m,
                "sp": element_to_json(g.sp), "h": element_to_json(g.h)}
    if isinstance(g, GStarElement):
        return {"type": "gstar", "n": g.n, "p": mj(g.p), "q": mj(g.q)}
    if isinstance(g, JacobiStarElement):
        return {"type": "jacobi_star", "n": g.n, "m": g.m,
                "g": element_to_json(g.g), "xi": mj(g.xi), "kappa": mj(g.kappa)}
    raise TypeError(f"unsupported element type {type(g).__name__}")


def element_from_json(obj: dict):
    from .cmatrix import mat_from_json as mf

    kind = obj["type"]
    if kind == "heisenberg":
        return HeisenbergElement(mf(obj["lambda"]).real, mf(obj["mu"]).real,
                                 mf(obj["kappa"]).real)
    if kind == "sp":
        return SpElement(mf(obj["a"]).real, mf(obj["b"]).real,
                         mf(obj["c"]).real, mf(obj["d"]).real)
    if kind == "jacobi":
        return JacobiElement(element_from_json(obj["sp"]), element_from_json(obj["h"]))
    if kind == "gstar":
        return GStarElement(mf(obj["p"]), mf(obj["q"]))
    if kind == "jacobi_star":
        return JacobiStarElement(element_from_json(obj["g"]), mf(obj["xi"]),
                                 mf(obj["kappa"]).real)
    raise ValueError(f"unknown element type {kind!r}")
