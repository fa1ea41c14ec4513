"""Moving least squares and its direct (functional) generalization.

The local fit uses shifted-scaled monomials centered at the evaluation/test
point; a linear functional ``lam`` applied to the basis turns the usual shape
functions ``p(x) (P^T W P)^{-1} P^T W`` into a direct recovery of ``lam(u)``
from nodal values.  The compactly supported Gaussian weight is defined once
here (``gaussian``), with its radial derivative for the classical
shape-function gradients and the Gaussian test function; the fits in this
module use its values only.

``MomentSystem`` builds and factorizes the local fit at one point.
``gmls_batch`` does the same work for a whole stack of points at once: one
neighbour query, moment matrices formed and checked chunk by chunk, and one
batched solve per chunk for any stack of functionals.  Field recovery and the
direct assembly use the batched kernel; the single-point class is the public
per-point API and the reference the kernel is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .geometry import NodeSet

COND_LIMIT = 1e12

# Padded node-point pairs per chunk of ``gmls_batch``: bounds its temporaries
# to a few MB whatever the number of points.
PAIR_BUDGET = 16384


class NodeDeficiencyError(Exception):
    """The active node set cannot support the polynomial degree at a point."""

    def __init__(self, point, cond, detail=""):
        self.point = np.asarray(point, dtype=float)
        self.cond = cond
        msg = f"deficient node set at {self.point} (condition {cond:.3e})"
        super().__init__(msg + (f": {detail}" if detail else ""))


@lru_cache(maxsize=None)
def monomial_exponents(m: int, dim: int) -> tuple:
    """Exponent multi-indices of total degree <= m in graded lexicographic order."""
    if m < 1:
        raise ValueError("basis degree must be >= 1")
    exps = [e for e in np.ndindex(*(m + 1,) * dim) if sum(e) <= m]
    exps.sort(key=lambda e: (sum(e), tuple(-v for v in e)))
    return tuple(exps)


def basis_size(m: int, dim: int) -> int:
    return math.comb(m + dim, dim)


@lru_cache(maxsize=None)
def _monomial_parents(m: int, dim: int) -> tuple:
    """For each exponent after the first: (index of alpha - e_j, axis j).

    j is the first axis with alpha_j > 0; the lower exponent precedes alpha
    in the graded order, so monomials can be built by one product each.
    """
    exps = monomial_exponents(m, dim)
    pos = {e: n for n, e in enumerate(exps)}
    parents = []
    for e in exps[1:]:
        j = next(i for i, v in enumerate(e) if v)
        parents.append((pos[e[:j] + (e[j] - 1,) + e[j + 1:]], j))
    return tuple(parents)


def monomials(z, m: int) -> np.ndarray:
    """All monomials z^alpha with |alpha| <= m, graded order: (..., d) -> (..., Q)."""
    z = np.asarray(z, dtype=float)
    dim = z.shape[-1]
    out = np.empty(z.shape[:-1] + (basis_size(m, dim),))
    out[..., 0] = 1.0
    for n, (parent, j) in enumerate(_monomial_parents(m, dim), start=1):
        np.multiply(out[..., parent], z[..., j], out=out[..., n])
    return out


@lru_cache(maxsize=None)
def _first_derivative_maps(m: int, dim: int) -> np.ndarray:
    """(Q, Q, dim) integer maps: monomials(z, m) @ maps[:, :, j] = d/dz_j of every monomial.

    d/dz_j z^alpha = alpha_j z^(alpha - e_j), so column alpha holds alpha_j in
    the row of alpha - e_j; the degree-m rows stay zero.
    """
    exps = monomial_exponents(m, dim)
    pos = {e: n for n, e in enumerate(exps)}
    maps = np.zeros((len(exps), len(exps), dim))
    for n, e in enumerate(exps):
        for j in range(dim):
            if e[j]:
                maps[pos[e[:j] + (e[j] - 1,) + e[j + 1:]], n, j] = e[j]
    maps.flags.writeable = False
    return maps


@lru_cache(maxsize=None)
def _derivative_map(m: int, alpha: tuple) -> np.ndarray:
    """(Q, Q) map taking monomials(z, m) to D_z^alpha of every monomial.

    The product of the first-derivative maps, alpha_j factors of axis j; the
    entries are the falling-factorial coefficients, exact in floating point.
    """
    maps = _first_derivative_maps(m, len(alpha))
    out = np.eye(maps.shape[0])
    for j, a in enumerate(alpha):
        for _ in range(a):
            out = out @ maps[:, :, j]
    out.flags.writeable = False
    return out


class PolyBasis:
    """Shifted-scaled monomials p_n(x) = ((x - center)/scale)^alpha.

    ``gradients`` also serves a stack of bases, centres (..., dim) and scales
    (...), at points (..., P, dim).
    """

    def __init__(self, m: int, dim: int, center, scale):
        if np.any(np.asarray(scale) <= 0.0):
            raise ValueError("basis scale must be positive")
        self.m = m
        self.dim = dim
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale) if np.ndim(scale) == 0 else np.asarray(scale, dtype=float)
        self.exponents = np.array(monomial_exponents(m, dim))

    @property
    def q(self) -> int:
        return self.exponents.shape[0]

    def values(self, points) -> np.ndarray:
        """Basis values at one point (Q,) or a stack of points (n, Q)."""
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        out = monomials((np.atleast_2d(pts) - self.center) / self.scale, self.m)
        return out[0] if single else out

    def derivative(self, points, alpha) -> np.ndarray:
        """D^alpha of every basis function; rejects |alpha| > m.

        All such derivatives vanish identically, so a request for one is
        treated as a caller bug rather than silently returning zeros.
        """
        alpha = tuple(int(a) for a in alpha)
        order = sum(alpha)
        if min(alpha) < 0:
            raise ValueError(f"derivative order {alpha} has a negative entry")
        if order > self.m:
            raise ValueError(f"derivative order {alpha} exceeds degree {self.m}")
        if order == 0:
            return self.values(points)
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        z = (np.atleast_2d(pts) - self.center) / self.scale
        out = monomials(z, self.m) @ _derivative_map(self.m, alpha) / self.scale**order
        return out[0] if single else out

    def gradients(self, points) -> np.ndarray:
        """First derivatives of all basis functions, shape (..., P, Q, d)."""
        scale = np.asarray(self.scale)[..., None, None]
        z = (np.atleast_2d(np.asarray(points, dtype=float)) - self.center[..., None, :]) / scale
        maps = _first_derivative_maps(self.m, self.dim)
        grads = monomials(z, self.m) @ maps.reshape(self.q, -1)
        return grads.reshape(*z.shape[:-1], self.q, self.dim) / scale[..., None]


def gaussian(r, eps: float):
    """Compactly supported Gaussian at scaled distances r: (value, d/dr).

    (exp(-(eps r)^2) - exp(-eps^2)) / (1 - exp(-eps^2)) for r < 1; both the
    value and the radial derivative are zero at and beyond r = 1.
    """
    floor = math.exp(-eps * eps)
    inside = r < 1.0
    g = np.exp(-((eps * r) ** 2))
    w = np.where(inside, (g - floor) / (1.0 - floor), 0.0)
    dw = np.where(inside, -2.0 * eps**2 * r * g / (1.0 - floor), 0.0)
    return w, dw


class WeightFunction:
    """Compactly supported Gaussian weight of distances scaled by delta."""

    def __init__(self, eps: float = 4.0):
        if eps <= 0.0:
            raise ValueError("shape parameter must be positive")
        self.eps = float(eps)

    def __call__(self, dist, delta) -> np.ndarray:
        return gaussian(np.asarray(dist, dtype=float) / delta, self.eps)[0]


def weight_eval(x, y, eps: float, delta: float) -> float:
    """Weight value between two points; zero at and beyond distance delta."""
    if delta <= 0.0:
        raise ValueError("support radius must be positive")
    d = float(np.linalg.norm(np.asarray(x, float) - np.asarray(y, float)))
    return float(WeightFunction(eps)(d, delta))


@dataclass
class MomentSystem:
    """Factorized weighted normal equations of the local fit at one point."""

    point: np.ndarray
    basis: PolyBasis
    active: np.ndarray          # global node indices
    node_points: np.ndarray
    weights: np.ndarray
    cho: tuple
    cond: float
    node_basis: np.ndarray      # basis values at the active nodes

    @classmethod
    def build(cls, x, nodes: NodeSet, m: int, eps: float = 4.0,
              delta: float | None = None) -> "MomentSystem":
        x = np.asarray(x, dtype=float)
        if delta is None:
            delta = nodes.support_at(x)
        active = nodes.neighbors(x, delta)
        q = basis_size(m, nodes.dim)
        basis = PolyBasis(m, nodes.dim, x, delta)
        if active.size < q:
            raise NodeDeficiencyError(x, math.inf,
                                      f"{active.size} active nodes for {q} basis functions")
        pts = nodes.points[active]
        w = WeightFunction(eps)(np.linalg.norm(pts - x, axis=1), delta)
        p = basis.values(pts)
        a = (p.T * w) @ p
        eig = np.linalg.eigvalsh(a)
        cond = float(eig[-1] / eig[0]) if eig[0] > 0.0 else math.inf
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise NodeDeficiencyError(x, cond)
        try:
            cho = scipy.linalg.cho_factor(a)
        except scipy.linalg.LinAlgError as err:
            raise NodeDeficiencyError(x, cond, str(err)) from None
        return cls(point=x, basis=basis, active=active, node_points=pts,
                   weights=w, cho=cho, cond=cond, node_basis=p)

    def phi(self) -> np.ndarray:
        """(P^T W P)^{-1} P^T W, shape (Q, n_active)."""
        return scipy.linalg.cho_solve(self.cho, self.node_basis.T * self.weights)

    def row(self, lambda_p: np.ndarray) -> np.ndarray:
        """Coefficients a(lambda) = lambda(p) A^{-1} P^T W for stacked functionals."""
        lambda_p = np.atleast_2d(np.asarray(lambda_p, dtype=float))
        return lambda_p @ self.phi()


@dataclass
class GmlsBatch:
    """Recovery coefficients of a stack of functionals at many points.

    Point i owns the nodes ``active[indptr[i]:indptr[i + 1]]`` (ascending)
    and the same columns of ``coefficients`` (F, nnz).  ``cond`` is each
    point's moment-matrix condition number (inf below Q active nodes) and
    ``ok`` marks the points that pass the active-count and ``COND_LIMIT``
    checks; the coefficients of a failed point are NaN.
    """

    points: np.ndarray
    indptr: np.ndarray
    active: np.ndarray
    coefficients: np.ndarray
    cond: np.ndarray
    ok: np.ndarray
    q: int

    def error(self, i: int) -> NodeDeficiencyError:
        """The error the single-point ``MomentSystem.build`` raises at point i."""
        count = int(self.indptr[i + 1] - self.indptr[i])
        detail = f"{count} active nodes for {self.q} basis functions" if count < self.q else ""
        return NodeDeficiencyError(self.points[i], float(self.cond[i]), detail)

    def check(self) -> None:
        """Raise the error of the first failed point in input order, if any."""
        bad = np.flatnonzero(~self.ok)
        if bad.size:
            raise self.error(int(bad[0]))

    def apply(self, nodal_values) -> np.ndarray:
        """Every functional contracted against per-node data: (F, n, ...)."""
        values = np.asarray(nodal_values, dtype=float)
        shape = (self.indptr.size - 1, values.shape[0])
        return np.stack([sp.csr_matrix((c, self.active, self.indptr), shape=shape) @ values
                         for c in self.coefficients])


def gmls_batch(points, deltas, nodes: NodeSet, m: int, functionals,
               eps: float = 4.0) -> GmlsBatch:
    """Direct GMLS recovery of a stack of functionals at many points at once.

    ``functionals`` (n, F, Q) gives each point's F functionals as their
    action on the basis centred at the point and scaled by its support
    radius.  Neighbours come from one radius query with
    per-point radii ``deltas``.  The points are then worked through in
    chunks of at most ``PAIR_BUDGET`` padded node-point pairs; each chunk
    forms its moment matrices with one batched product, checks them with one
    batched eigenvalue call and solves once for all functionals.  Nothing is
    raised for a deficient point; see ``GmlsBatch.check``.
    """
    dim = nodes.dim
    points = np.atleast_2d(np.asarray(points, dtype=float))
    deltas = np.asarray(deltas, dtype=float)
    n = points.shape[0]
    q = basis_size(m, dim)
    lam = np.asarray(functionals, dtype=float)
    indptr, active = nodes.index.query_ball_batch(points, deltas)
    counts = np.diff(indptr)
    coefficients = np.empty((lam.shape[1], active.size))
    cond = np.empty(n)
    weight = WeightFunction(eps)
    size = max(1, PAIR_BUDGET // max(int(counts.max(initial=0)), 1))
    for s in range(0, n, size):
        e = min(n, s + size)
        c = counts[s:e]
        seg = slice(indptr[s], indptr[e])
        delta = deltas[s:e, None]
        slot = np.arange(c.max(initial=0)) < c[:, None]    # (b, L) real pairs
        diff = np.zeros(slot.shape + (dim,))
        diff[slot] = nodes.points[active[seg]] - np.repeat(points[s:e], c, axis=0)
        w = np.where(slot, weight(np.sqrt(np.einsum("bld,bld->bl", diff, diff)), delta), 0.0)
        p = monomials(diff / delta[..., None], m)           # (b, L, Q)
        pw = p * w[..., None]
        a = np.matmul(pw.transpose(0, 2, 1), p)
        eig = np.linalg.eigvalsh(a)
        with np.errstate(divide="ignore", invalid="ignore"):
            cnd = np.where(eig[:, 0] > 0.0, eig[:, -1] / eig[:, 0], math.inf)
        cnd[c < q] = math.inf
        ok = cnd <= COND_LIMIT
        cond[s:e] = cnd
        a[~ok] = np.eye(q)
        coef = np.matmul(pw, np.linalg.solve(a, lam[s:e].transpose(0, 2, 1)))
        coef[~ok] = np.nan
        coefficients[:, seg] = coef[slot].T
    return GmlsBatch(points, indptr, active, coefficients, cond,
                     cond <= COND_LIMIT, q)


@dataclass
class GmlsRow:
    """Recovery coefficients of one (or several stacked) linear functionals."""

    point: np.ndarray
    active: np.ndarray
    coefficients: np.ndarray    # (n_rows, n_active)

    def apply(self, nodal_values: np.ndarray) -> np.ndarray:
        """Contract against per-node data (values indexed by global node)."""
        return self.coefficients @ np.asarray(nodal_values)[self.active]


def mls_shape(x, nodes: NodeSet, m: int, eps: float = 4.0,
              delta: float | None = None) -> GmlsRow:
    """Classical shape-function row: the point-evaluation functional at x."""
    moment = MomentSystem.build(x, nodes, m, eps=eps, delta=delta)
    lam = moment.basis.values(moment.point)
    return GmlsRow(moment.point, moment.active, moment.row(lam))


def gmls_row(lambda_p: np.ndarray, moment: MomentSystem) -> GmlsRow:
    """Direct recovery row for a functional given its action on the basis."""
    return GmlsRow(moment.point, moment.active, moment.row(lambda_p))


def gmls_derivative_row(x, alpha, nodes: NodeSet, m: int, eps: float = 4.0,
                        delta: float | None = None) -> GmlsRow:
    """Row recovering D^alpha u(x) directly from nodal values."""
    moment = MomentSystem.build(x, nodes, m, eps=eps, delta=delta)
    lam = moment.basis.derivative(moment.point, alpha)
    return GmlsRow(moment.point, moment.active, moment.row(lam))
