"""Stiffness assembly, the direct-method rows (DMLPG1/DMLPG5), solve and
recovery.

One node loop (``_assemble``) serves the direct and the classical methods:
it builds each node's subdomain, collocates the prescribed components,
scatters the global matrix and collects errors and stats.  The methods
differ only in the row kernel that turns a local weak form into matrix
entries.  A direct row is a d x (d*Q) functional matrix: the local weak form
applied to the shifted polynomial basis, integrated over polynomials only,
built once per key (nodes with equal subdomains about them share one), and
turned into entries by the generalized moving least squares fit at the node.
The direct box rows come straight from the subdomain plan, in one array pass
(``_box_rows``).  A classical row (``mlpg``) integrates MLS shape-function
derivatives at quadrature points and gives the entries directly.  Essential
boundary conditions are collocation rows; mixed nodes replace only their
prescribed component rows.
"""

from __future__ import annotations

import math
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgWarning, lapack, lu_factor, lu_solve

from . import elasticity as ela
from . import mls
from . import quadrature as quad
from .geometry import (DIRICHLET, MIXED, Subdomain, UnsupportedClipError, ball_clip,
                       box_clip, box_clip_error, build_subdomain, canonical_shape)


class SingularSystemError(Exception):
    """Direct factorization failed or produced non-finite values."""


class AssemblyError(Exception):
    """One or more nodes failed during assembly; carries (node, error) pairs."""

    def __init__(self, failures):
        self.failures = failures
        detail = "; ".join(f"node {k}: {e}" for k, e in failures[:5])
        more = "" if len(failures) <= 5 else f" (+{len(failures) - 5} more)"
        super().__init__(f"{len(failures)} node(s) failed during assembly: {detail}{more}")


@dataclass(frozen=True)
class SolverConfig:
    """Discretization parameters shared by the direct and classical methods.

    Construction (``dataclasses.replace`` too) checks every value, and a bad
    one raises ``ValueError`` naming its field.
    """

    m: int = 2
    eps: float = 4.0
    shape: str = "box"              # subdomain shape away from curved boundaries
    box_factor: float = 1.0         # box side = factor * local spacing
    ball_factor: float = 0.7        # ball radius = factor * local spacing
    quad_interior: int | None = None   # per-axis points on boxes (None: exact count)
    quad_boundary: int | None = None   # per-axis points on box faces (None: exact)
    quad_ball: int = 10             # points per direction on disks and balls
    quad_curved: int = 24           # rule for subdomains clipped by a curved boundary
    quad_traction: int = 16         # rule for prescribed-traction pieces
    quad_mlpg: int = 10             # per-axis points in the classical methods
    cache: bool = True
    scale_rows: bool = False        # scale weak rows by 1/measure(subdomain)

    def __post_init__(self):
        canonical_shape(self.shape)
        counts = ["quad_ball", "quad_curved", "quad_traction", "quad_mlpg"]
        counts += [name for name in ("quad_interior", "quad_boundary")
                   if getattr(self, name) is not None]       # None: the exact count
        self._require([("m", self.m >= 1, "at least 1"),
                       *((name, getattr(self, name) > 0.0, "positive")
                         for name in ("eps", "box_factor", "ball_factor")),
                       *((name, getattr(self, name) in range(1, 65), "a point count in [1, 64]")
                         for name in counts)])

    def _require(self, checks):
        """Raise ``ValueError`` naming the first field of ``checks``, triples
        (field, passed, rule), that fails its rule."""
        for name, ok, rule in checks:
            if not ok:
                raise ValueError(f"{name!r} must be {rule}, not {getattr(self, name)!r}")

    def interior_points(self) -> int:
        if self.quad_interior is not None:
            return self.quad_interior
        # per-axis integrand degree (m-1) + 2 (the box test bump) for the volume rows
        return math.ceil((self.m + 2) / 2)

    def boundary_points(self) -> int:
        if self.quad_boundary is not None:
            return self.quad_boundary
        return math.ceil(self.m / 2)


# ---------------------------------------------------------------------------
# Test functions


class BoxTestFunction:
    """Polynomial bump on the unclipped box: prod_i (1 - 4 dx_i^2/s^2).

    Vanishes on every face of the original box, so clipped faces lying on the
    global boundary are the only boundary pieces where it survives.  A stack
    of boxes, centres (..., d) and sizes (...), takes points (..., P, d).
    """

    def __init__(self, center, size):
        self.center = np.asarray(center, dtype=float)
        self.size = np.asarray(size, dtype=float)

    def _scaled(self, points):
        pts = np.atleast_2d(points)
        return (pts - self.center[..., None, :]) * (2.0 / self.size)[..., None, None]

    def values(self, points) -> np.ndarray:
        return np.prod(1.0 - self._scaled(points)**2, axis=-1)

    def gradients(self, points) -> np.ndarray:
        z = self._scaled(points)
        factors = 1.0 - z**2
        prod_all = np.prod(factors, axis=-1, keepdims=True)
        # others[..., a] is the product of every factor but axis a's.  On a
        # face the own factor is 0 and the quotient undefined; inside the box
        # the quotient is kept, because an ulp's change in it moves the
        # assembled rows of ill-conditioned mixed nodes by up to 2.5e-13
        rest = np.prod(np.where(np.eye(z.shape[-1], dtype=bool), 1.0, factors[..., None, :]),
                       axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            others = np.where(factors > 0.0, prod_all / factors, rest)
        return others * (-2.0 * z * (2.0 / self.size)[..., None, None])


class GaussianTestFunction:
    """The compactly supported Gaussian bump with support radius r_k."""

    def __init__(self, center, radius: float, eps: float = 4.0):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.eps = float(eps)

    def values(self, points) -> np.ndarray:
        r = np.linalg.norm(np.atleast_2d(points) - self.center, axis=1) / self.radius
        return mls.gaussian(r, self.eps)[0]

    def gradients(self, points) -> np.ndarray:
        diff = np.atleast_2d(points) - self.center
        dist = np.linalg.norm(diff, axis=1)
        _, dphi = mls.gaussian(dist / self.radius, self.eps)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(dist > 0.0,
                             dphi / (self.radius * np.maximum(dist, 1e-300)), 0.0)
        return diff * scale[:, None]


def test_function(sub: Subdomain, config: SolverConfig):
    if sub.shape == "box":
        return BoxTestFunction(sub.center, sub.size)
    return GaussianTestFunction(sub.center, sub.size, config.eps)


# ---------------------------------------------------------------------------
# Functional rows


@dataclass
class FunctionalRow:
    """Local weak form applied to a trial basis, plus its right-hand side.

    ``lam[n]`` is the d x d block of trial function n.  With ``active`` None
    the trial functions are the shifted-scaled polynomials centred at the
    node (the direct methods), and the GMLS fit there turns the blocks into
    matrix entries.  Otherwise they are the MLS shape functions of the nodes
    ``active`` (the classical methods), so the blocks are the entries.
    """

    node: int
    lam: np.ndarray             # (Q, d, d) or (len(active), d, d)
    beta: np.ndarray            # (d,)
    active: np.ndarray | None = None
    shape_evals: int = 0        # points where shape functions were evaluated


def _interior_rule(sub: Subdomain, config: SolverConfig):
    if sub.shape == "box":
        return sub.interior_rule(config.interior_points())
    if sub.curved_clip:
        return sub.interior_rule(config.quad_curved)
    return sub.interior_rule(config.quad_ball)


def _piece_rule(piece, sub: Subdomain, config: SolverConfig, traction: bool):
    if traction:
        n = max(config.quad_traction, config.quad_curved if sub.curved_clip else 0)
    elif piece.kind == "box-face":
        n = config.boundary_points()
    elif sub.curved_clip:
        n = config.quad_curved
    else:
        n = config.quad_ball
    return piece.rule(n)


def weak_operator(weights, vectors, dmat, tmap) -> np.ndarray:
    """w_q (T v_q) D T at every point q, shape (..., q, d, d, d) indexed (q, i, j, t).

    ``vectors`` (..., q, d) are the test-function gradients (volume rows) or
    the outward normals (boundary rows), ``weights`` (..., q).  Contracted
    with trial gradients (``weak_contract``) it gives the weak-form blocks.
    """
    n_voigt, d = tmap.shape[:2]
    tv = (np.einsum("vij,qj->qiv", tmap, vectors.reshape(-1, d))
          * weights.reshape(-1, 1, 1))
    return (tv.reshape(-1, n_voigt) @ (dmat @ tmap.reshape(n_voigt, d * d))
            ).reshape(*vectors.shape[:-1], d, d, d)


def weak_contract(operator, grads) -> np.ndarray:
    """sum_q,t operator[..., q, i, j, t] grads[..., q, n, t], one GEMM each: (..., n, d, d)."""
    *lead, npts, d = operator.shape[:-2]
    flat = np.moveaxis(operator, -1, -3).reshape(*lead, npts * d, d * d)
    trial = np.swapaxes(grads, -3, -2).reshape(*lead, grads.shape[-2], npts * d)
    return (trial @ flat).reshape(*lead, -1, d, d)


def _lambda_volume(sub: Subdomain, basis: mls.PolyBasis, dmat, config: SolverConfig):
    """-int eps_v D P_n over the subdomain interior (the DMLPG1 functional)."""
    rule = _interior_rule(sub, config)
    test = test_function(sub, config)
    op = weak_operator(-rule.weights, test.gradients(rule.points), dmat,
                       ela.voigt_map(basis.dim))
    return weak_contract(op, basis.gradients(rule.points))


def _lambda_boundary(sub: Subdomain, basis: mls.PolyBasis, dmat, config: SolverConfig):
    """int N D P_n over boundary pieces with unknown traction (DMLPG5)."""
    points, op = boundary_operator(
        sub, dmat, ela.voigt_map(basis.dim),
        lambda piece: _piece_rule(piece, sub, config, traction=False))
    return weak_contract(op, basis.gradients(points))


def boundary_operator(sub: Subdomain, dmat, tmap, rule_of):
    """Stacked points and ``weak_operator`` of the pieces with unknown traction.

    ``rule_of(piece)`` gives a piece's rule.  Pieces whose traction is fully
    prescribed contribute to the right-hand side only and are skipped; on
    the other global-boundary pieces the operator rows of the prescribed
    components are zero.
    """
    d = sub.center.size
    rules, masks = [], []
    for piece in sub.pieces:
        if piece.on_gamma and all(piece.traction_known):
            continue
        rules.append(rule_of(piece))
        masks.append(piece.traction_known if piece.on_gamma else (False,) * d)
    if not rules:
        return np.empty((0, d)), np.empty((0, d, d, d))
    op = weak_operator(np.concatenate([r.weights for r in rules]),
                       np.concatenate([r.normals for r in rules]), dmat, tmap)
    op[np.repeat(np.array(masks, dtype=bool), [r.weights.size for r in rules], axis=0)] = 0.0
    return np.concatenate([r.points for r in rules]), op


def _beta(sub: Subdomain, problem, config: SolverConfig, survivors,
          test=None, tractions=None) -> np.ndarray:
    """Right-hand side of the local weak form.

    With the equilibrium convention div(sigma) + b = 0, integrating by parts
    leaves -int(b v) - int(tbar v) over the prescribed-traction pieces.
    ``test=None`` means the constant test function of the boundary variant.
    ``tractions`` stacks tbar at the points of those pieces' rules, in piece
    order; None evaluates ``problem.traction`` here, piece by piece.
    """
    d = sub.center.size
    start = 0
    beta = np.zeros(d)
    if getattr(problem, "body", None) is not None:
        rule = _interior_rule(sub, config)
        v = test.values(rule.points) if test is not None else np.ones(rule.points.shape[0])
        beta -= np.einsum("q,qi->i", rule.weights * v, problem.body(rule.points))
    for piece in sub.pieces:
        if not piece.on_gamma:
            continue
        known = np.asarray(piece.traction_known, dtype=bool)
        if test is not None and np.any(~known & survivors):
            raise _surviving_test(sub.center)
        if not np.any(known):
            continue
        rule = _piece_rule(piece, sub, config, traction=True)
        v = test.values(rule.points) if test is not None else np.ones(rule.points.shape[0])
        tbar = (problem.traction(rule.points, rule.normals) if tractions is None
                else tractions[start:start + rule.weights.size])
        start += rule.weights.size
        beta[known] -= np.einsum("q,qi->i", rule.weights * v, tbar)[known]
    return beta


def _surviving_test(center) -> UnsupportedClipError:
    return UnsupportedClipError(f"subdomain at {center}: test function does not vanish "
                                "on a boundary piece with unknown traction")


def dmlpg1_row(node: int, sub: Subdomain, problem, config: SolverConfig,
               scale: float, survivors, lam=None, tractions=None) -> FunctionalRow:
    """Volume-integrated functional row (vanishing test trace on the subdomain
    rim); ``lam`` is the functional when it is known, else it is built."""
    if lam is None:
        basis = mls.PolyBasis(config.m, sub.center.size, sub.center, scale)
        lam = _lambda_volume(sub, basis, ela.elastic_matrix(problem.material), config)
    beta = _beta(sub, problem, config, survivors, test=test_function(sub, config),
                 tractions=tractions)
    return FunctionalRow(node, lam, beta)


def dmlpg5_row(node: int, sub: Subdomain, problem, config: SolverConfig,
               scale: float, survivors, lam=None, tractions=None) -> FunctionalRow:
    """Boundary-integrated row (unit test function); ``lam`` as in ``dmlpg1_row``."""
    if lam is None:
        basis = mls.PolyBasis(config.m, sub.center.size, sub.center, scale)
        lam = _lambda_boundary(sub, basis, ela.elastic_matrix(problem.material), config)
    beta = _beta(sub, problem, config, survivors, test=None, tractions=tractions)
    return FunctionalRow(node, lam, beta)


# ---------------------------------------------------------------------------
# Global system


@dataclass
class GlobalSystem:
    """Sparse block system K u = R with per-node row classification."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    row_kinds: list
    nodes: object
    dim: int
    stats: dict = field(default_factory=dict)


@dataclass
class SubdomainPlan:
    """The shape/size policy's decisions and the builders' clips, per node.

    ``shape`` ("box" or "ball") and ``size`` are what ``build_subdomain``
    receives.  ``lo`` and ``hi`` are a box's corners as its builder clips
    them, and for a ball those of its bound box (side 2r).  ``faces`` marks
    the (low, high) bound planes of each axis that clip a subdomain: a box
    face moved onto one, or a plane through a ball's centre.  ``whole``
    marks the subdomains their builder does not clip, ``curved`` the nodes
    on a curve, whose disk or ball the curve clips, and ``crosses`` the
    boxes that reach across a curve, which their builder rejects.
    """

    shape: np.ndarray           # (n,) str
    size: np.ndarray            # (n,) side length (box) or radius (ball)
    whole: np.ndarray           # (n,) bool
    lo: np.ndarray              # (n, d)
    hi: np.ndarray              # (n, d)
    faces: np.ndarray           # (n, 2, d) bool
    curved: np.ndarray          # (n,) bool
    crosses: np.ndarray         # (n,) bool


def plan_subdomains(points, spacing, geometry, config: SolverConfig) -> SubdomainPlan:
    """Shape/size policy: a node on a curve (within the disk builder's
    tolerance) gets a clipped disk or ball; every other node uses the
    configured shape, shrunk clear of the curves.  The clips come from the
    builders' own rules, ``geometry.box_clip`` and ``geometry.ball_clip``."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    spacing = np.asarray(spacing, dtype=float)
    radius = config.ball_factor * spacing
    _, _, curves, tol = ball_clip(points, radius, geometry)
    clearance = np.min([np.full(len(points), math.inf), *(gap for _, gap in curves)], axis=0)
    shape = canonical_shape(config.shape)
    size, cap = radius, clearance
    if shape == "box":
        size, cap = config.box_factor * spacing, 2.0 * clearance / math.sqrt(points.shape[1])
    size = np.where(size > cap, cap * (1.0 - 1e-9), size)
    curved = clearance <= tol
    size = np.where(curved, radius, size)
    ball = curved | (shape == "ball")
    lo, hi, box_faces, crosses = box_clip(points, np.where(ball, 2.0 * size, size), geometry)
    lo_gap, hi_gap, curves, tol = ball_clip(points, size, geometry)
    faces = np.where(ball[:, None, None], np.stack([lo_gap, hi_gap], axis=1) <= tol[:, None, None],
                     np.stack(box_faces, axis=1))
    # a ball is whole when no plane or curve is within the tolerance of its
    # centre or short of its radius by more
    gaps = np.column_stack([lo_gap, hi_gap, *(gap for _, gap in curves)])
    whole = np.where(ball, np.all((gaps > tol[:, None]) & (gaps >= (size - tol)[:, None]), axis=1),
                     ~faces.any(axis=(1, 2)) & ~crosses)
    return SubdomainPlan(np.where(ball, "ball", "box"), size, whole, lo, hi, faces, curved,
                         crosses & ~ball)


def subdomain_for_node(k: int, nodes, geometry, config: SolverConfig) -> Subdomain:
    """Node k's subdomain under the policy of ``plan_subdomains``."""
    plan = plan_subdomains(nodes.points[k:k + 1], nodes.spacing[k:k + 1], geometry,
                           config)
    return build_subdomain(nodes.points[k], plan.shape[0], plan.size[0], geometry)


def _functional_keys(plan: SubdomainPlan, nodes, weak, shared: bool) -> np.ndarray:
    """Each node's key: the lowest-index weak node whose functional it shares.

    A direct functional depends only on the support radius (the basis scale)
    and the subdomain about its node.  With ``shared`` one sort of the
    ``weak`` nodes by the plan finds the equal ones: shape, support, a box's
    extent about the node or a ball's radius, and clipped faces.  Any other
    node, a curve-clipped one included, is its own key."""
    keys = np.arange(nodes.n)
    if not shared or not weak.size:
        return keys
    ball = plan.shape[weak] == "ball"
    x = nodes.points[weak]
    extent = np.column_stack([plan.lo[weak] - x, plan.hi[weak] - x])
    columns = np.column_stack([ball, nodes.support[weak],
                               np.where(ball[:, None], plan.size[weak, None], extent),
                               plan.faces[weak].reshape(weak.size, -1),
                               np.where(plan.curved[weak], weak, -1)])
    order = np.lexsort(columns.T)       # stable: ascending node order within a key
    columns = columns[order]
    first = np.r_[True, np.any(columns[1:] != columns[:-1], axis=1)]
    members = weak[order]
    keys[members] = members[first][np.cumsum(first) - 1]
    return keys


# The node loop builds rows in batches that share one ``problem.traction``
# call: at most about TRACTION_BUDGET prescribed-traction points and
# BATCH_NODES subdomains, so the pending subdomains stay few
TRACTION_BUDGET = 4096
BATCH_NODES = 64


class StageTimer:
    """Wall time summed per named stage: ``with timer("rows_s"): ...``.

    A plain class, not a generator context manager: the node loop enters it
    twice per node, so each use must cost well under a microsecond.
    """

    def __init__(self, *names):
        self.totals = dict.fromkeys(names, 0.0)

    def __call__(self, name):
        self._name = name
        return self

    def __enter__(self):
        self._start = time.perf_counter()

    def __exit__(self, exc_type, exc, tb):
        self.totals[self._name] += time.perf_counter() - self._start


_ROW_KINDS = {DIRICHLET: "dirichlet-collocation", MIXED: "mixed-replaced"}


def assemble(nodes, problem, method: str = "dmlpg1",
             config: SolverConfig | None = None) -> GlobalSystem:
    """Build the global sparse system for one of the direct methods.

    ``dmlpg1_row`` or ``dmlpg5_row`` integrates each weak node's local weak
    form against the polynomial basis centred at the node; see ``_assemble``
    for the boundary conditions, the matrix and the stats.
    """
    config = config or SolverConfig()
    if method not in ("dmlpg1", "dmlpg5"):
        raise ValueError(f"unknown direct method {method!r}")
    if config.m < 2:    # every interior row would vanish: int grad(v) = 0 = closed int n
        raise ValueError(f"the direct methods need a basis of degree m >= 2, not {config.m}")
    return _assemble(nodes, problem, method, config)


def _node_rows(row_builder, table, nodes, batch, problem, config, counts) -> list:
    """The row kernel of a direct method: ``row_builder`` node by node.  A row
    takes its key's functional from the key ``table``, or builds and stores it."""
    rows = []
    for k, key, sub, tractions in batch:
        try:
            row = row_builder(k, sub, problem, config, float(nodes.support[k]),
                              ~nodes.masks[k], table.get(key), tractions)
            table.setdefault(key, row.lam)
        except (UnsupportedClipError, mls.NodeDeficiencyError) as err:
            row = err
        rows.append(row)
    return rows


def _plane_tractions(geometry, d: int):
    """By (side, axis) of the bound planes: whether a boundary condition holds
    there (2, d), and the traction components it prescribes (2, d, d)."""
    bcs = [[geometry.plane_bc(axis, side) for axis in range(d)] for side in (-1, 1)]
    held = np.array([[bc is not None for bc in row] for row in bcs])
    known = np.array([[bc.traction_known if bc else (False,) * d for bc in row]
                      for row in bcs], dtype=bool)
    return held, known


def _box_rows(method: str, nodes, problem, config: SolverConfig, plan: SubdomainPlan,
              keys, boxes, stage: StageTimer):
    """The rows of the built box nodes ``boxes`` (ascending) of a direct
    method, in one array pass over the plan: no ``Subdomain``, ``Piece`` or
    per-node rule is built.

    A box functional depends only on the clipped box (``plan.lo``,
    ``plan.hi``, ``plan.faces``), the basis scale and, in DMLPG1, the test
    function's box (``plan.size``).  So each key's functional is built at its
    first node, with the arithmetic of ``dmlpg1_row``/``dmlpg5_row``: the
    DMLPG5 face rules are stacked per pattern of kept faces, so that each
    node's contraction keeps its per-node shape.  The right-hand side
    integrates the body force and the prescribed tractions as ``_beta`` does,
    with one ``problem.traction`` call per about ``TRACTION_BUDGET`` points.

    Returns the keys, their functionals (keys, Q, d, d), each box's
    right-hand side (boxes, d) and the failures {node: error}: the builder's
    clip errors and, in DMLPG1, a test function that survives on a face with
    an unknown traction.
    """
    d = nodes.dim
    dmat, tmap = ela.elastic_matrix(problem.material), ela.voigt_map(d)
    held, known = _plane_tractions(problem.geometry, d)
    lo, hi, faces, crosses = (plan.lo[boxes], plan.hi[boxes], plan.faces[boxes],
                              plan.crosses[boxes])
    centers, sizes = nodes.points[boxes], plan.size[boxes]
    volume = method == "dmlpg1"
    with stage("rows_s"):
        failures = {}
        clipped = (hi <= lo).any(axis=1) | crosses | (faces & ~held).any(axis=(1, 2))
        for i in np.flatnonzero(clipped).tolist():
            failures[int(boxes[i])] = box_clip_error(centers[i], lo[i], hi[i], faces[i],
                                                     crosses[i], problem.geometry)
        if volume:
            survives = faces[..., None] & ~known & ~nodes.masks[boxes][:, None, None, :]
            for i in np.flatnonzero(survives.any(axis=(1, 2, 3)) & ~clipped).tolist():
                failures[int(boxes[i])] = _surviving_test(centers[i])
        heads, at = np.unique(keys[boxes], return_index=True)
        basis = mls.PolyBasis(config.m, d, centers[at], nodes.support[heads])
        if volume:
            rule = quad.rule_box(lo[at], hi[at], config.interior_points())
            test = BoxTestFunction(centers[at], sizes[at])
            op = weak_operator(-rule.weights, test.gradients(rule.points), dmat, tmap)
            lam = weak_contract(op, basis.gradients(rule.points))
        else:
            lam = _box_boundary_functionals(lo[at], hi[at], faces[at], known, basis,
                                            dmat, tmap, config.boundary_points())
        beta = np.zeros((boxes.size, d))
        if getattr(problem, "body", None) is not None:
            rule = quad.rule_box(lo, hi, config.interior_points())
            wv = rule.weights
            if volume:
                wv = wv * BoxTestFunction(centers, sizes).values(rule.points)
            for i in range(boxes.size):
                beta[i] -= np.einsum("q,qi->i", wv[i], problem.body(rule.points[i]))
        # the faces on a plane that prescribes some traction, in piece order
        loaded = faces & known.any(axis=-1)
        rows = np.flatnonzero(loaded.any(axis=(1, 2)))
        n = config.quad_traction
        window = (np.cumsum(loaded[rows].sum(axis=(1, 2)) * n ** (d - 1)) - 1) // TRACTION_BUDGET
    for part in np.split(rows, np.flatnonzero(np.diff(window)) + 1) if rows.size else ():
        with stage("rows_s"):
            rules = []
            for axis in range(d):
                for side in (0, 1):
                    sel = part[loaded[part, side, axis]]
                    if sel.size:
                        rules.append((sel, known[side, axis], quad.rule_box_face(
                            lo[sel], hi[sel], axis, 2 * side - 1, n)))
        with stage("traction_s"):
            tbar = problem.traction(
                np.concatenate([r.points.reshape(-1, d) for *_, r in rules]),
                np.concatenate([r.normals.reshape(-1, d) for *_, r in rules]))
        with stage("rows_s"):
            start = 0
            for sel, kn, r in rules:
                t = tbar[start:start + r.weights.size].reshape(r.points.shape)
                start += r.weights.size
                wv = r.weights
                if volume:
                    wv = wv * BoxTestFunction(centers[sel], sizes[sel]).values(r.points)
                beta[sel[:, None], np.flatnonzero(kn)] -= np.einsum("nq,nqi->ni", wv, t)[:, kn]
    return heads, lam, beta, failures


def _box_boundary_functionals(lo, hi, faces, known, basis, dmat, tmap, n: int):
    """The DMLPG5 functionals (boxes, Q, d, d) of clipped boxes: ``boundary_operator``
    on the faces of one pattern of kept faces at a time.  A face on a plane
    that prescribes every traction component is dropped."""
    d = lo.shape[1]
    on = faces.transpose(0, 2, 1).reshape(-1, 2 * d)         # piece order: axis, side
    face_known = known.transpose(1, 0, 2).reshape(2 * d, d)
    kept = ~(on & face_known.all(axis=1))
    codes = kept @ (1 << np.arange(2 * d))
    lam = np.zeros((lo.shape[0], basis.q, d, d))
    for code in np.unique(codes).tolist():
        sel = np.flatnonzero(codes == code)
        pieces = [f for f in range(2 * d) if code >> f & 1]
        if not pieces:
            continue
        rules = [quad.rule_box_face(lo[sel], hi[sel], f // 2, 2 * (f % 2) - 1, n)
                 for f in pieces]
        masks = [np.broadcast_to((on[sel, f, None] & face_known[f])[:, None, :],
                                 r.normals.shape) for f, r in zip(pieces, rules)]
        op = weak_operator(np.concatenate([r.weights for r in rules], axis=1),
                           np.concatenate([r.normals for r in rules], axis=1), dmat, tmap)
        op[np.concatenate(masks, axis=1)] = 0.0
        points = np.concatenate([r.points for r in rules], axis=1)
        stack = mls.PolyBasis(basis.m, d, basis.center[sel], basis.scale[sel])
        lam[sel] = weak_contract(op, stack.gradients(points))
    return lam


def _weak_rows(nodes, problem, config: SolverConfig, method: str, weak_rows,
               stage: StageTimer, counts: dict):
    """The weak rows of the node loop.  The classical row kernel
    ``weak_rows(nodes, batch, problem, config, counts)`` (the direct methods'
    is ``_node_rows``) maps a batch of ``(node, key, subdomain, tractions)``
    to each node's ``FunctionalRow`` or error.

    ``plan_subdomains`` sizes every subdomain in one pass and
    ``_functional_keys`` keys it (the direct methods with the cache on).  A
    node builds its row when it is the first node of its key, its subdomain
    is not whole, or there is a body force; any other node gets a zero
    right-hand side.  The direct methods build their box rows from the plan
    in one array pass (``_box_rows``), and every other row from its built
    subdomain, in node order, in batches that share one ``problem.traction``
    call (``TRACTION_BUDGET``, ``BATCH_NODES``), of which ``tractions`` is
    the node's slice.  Both paths store a direct key's functional in one key
    table, which one fan-out hands to every weak node of the key.  With
    ``scale_rows`` a row is divided by its subdomain's measure: a box's from
    the plan, a built disk's or ball's, or a served one's key's.

    Returns the node-centred functionals (n, d, d, Q), the right-hand side,
    the explicit ``(node, active, blocks)`` rows of the classical kernels,
    each subdomain-built row's shape-evaluation count, the failures {node:
    error} and the stats: ``cache_misses`` (the keys, 0 without sharing),
    ``cache_hits`` and ``cache_hit_counts`` (a key's other nodes, in total
    and per first node) and ``groups`` (``subdomains_built``: the nodes that
    build their row, from a subdomain or from the plan).
    """
    d = nodes.dim
    direct = method in ("dmlpg1", "dmlpg5")
    functionals = np.zeros((nodes.n, d, d, mls.basis_size(config.m, d)))
    rhs = np.zeros((nodes.n, d))
    evals, explicit, failures, table = [], [], {}, {}
    if direct:
        weak_rows = partial(_node_rows, dmlpg1_row if method == "dmlpg1" else dmlpg5_row, table)
    weak = np.flatnonzero(nodes.tags != DIRICHLET)
    with stage("subdomains_s"):
        plan = plan_subdomains(nodes.points, nodes.spacing, problem.geometry, config)
        keys = _functional_keys(plan, nodes, weak, direct and config.cache)
    scale = np.prod(plan.hi - plan.lo, axis=1) if config.scale_rows else np.ones(nodes.n)
    body = getattr(problem, "body", None) is not None
    build = (keys[weak] == weak) | ~plan.whole[weak] | body
    built, served = weak[build], weak[~build]
    on_plan = built[plan.shape[built] == "box"] if direct else built[:0]

    def build_rows(pending, rules):
        tbar = np.empty((0, d))
        with stage("traction_s"):
            if rules:
                tbar = problem.traction(np.concatenate([r.points for r in rules]),
                                        np.concatenate([r.normals for r in rules]))
        with stage("rows_s"):
            batch = [(k, key, sub, tbar[span]) for k, key, sub, span in pending]
            for (k, _, sub, _), row in zip(batch, weak_rows(nodes, batch, problem, config,
                                                            counts)):
                if isinstance(row, Exception):
                    failures[k] = row
                    continue
                evals.append(row.shape_evals)
                rhs[k] = row.beta
                if config.scale_rows:
                    scale[k] = sub.measure
                if row.active is not None:
                    lam = row.lam / scale[k]
                    lam[:, nodes.masks[k], :] = 0.0
                    explicit.append((k, row.active, lam))

    pending, rules, points = [], [], 0
    for k in np.setdiff1d(built, on_plan).tolist():
        with stage("subdomains_s"):
            try:
                sub = build_subdomain(nodes.points[k], plan.shape[k], plan.size[k],
                                      problem.geometry)
            except UnsupportedClipError as err:
                failures[k] = err
                continue
            start = points
            for piece in sub.pieces:
                if piece.on_gamma and any(piece.traction_known):
                    rules.append(_piece_rule(piece, sub, config, traction=True))
                    points += rules[-1].weights.size
            pending.append((k, int(keys[k]), sub, slice(start, points)))
        if points >= TRACTION_BUDGET or len(pending) >= BATCH_NODES:
            build_rows(pending, rules)
            pending, rules, points = [], [], 0
    build_rows(pending, rules)
    if on_plan.size:
        heads, lam, rhs[on_plan], box_failures = _box_rows(method, nodes, problem, config,
                                                           plan, keys, on_plan, stage)
        failures.update(box_failures)
        table.update(zip(heads.tolist(), lam))
    with stage("rows_s"):
        balls = served[plan.shape[served] == "ball"]
        scale[balls] = scale[keys[balls]]
        rhs[weak] /= scale[weak, None]
        heads, inverse, members = np.unique(keys[weak], return_inverse=True, return_counts=True)
        if failures:        # a key whose first node failed fails its other nodes
            failures.update((k, failures[int(keys[k])]) for k in served.tolist()
                            if int(keys[k]) in failures)
        elif direct and weak.size:
            block = np.stack([table[h] for h in heads.tolist()]).transpose(0, 2, 3, 1)[inverse]
            block /= scale[weak, None, None, None]
            block[nodes.masks[weak]] = 0.0
            functionals[weak] = block
    hit_counts = {int(h): int(c) - 1 for h, c in zip(heads, members) if c > 1}
    return functionals, rhs.reshape(-1), explicit, evals, failures, {
        "cache_hits": sum(hit_counts.values()),
        "cache_misses": int(heads.size) if direct and config.cache else 0,
        "cache_hit_counts": hit_counts, "groups": {"subdomains_built": int(built.size)}}


def _assemble(nodes, problem, method: str, config: SolverConfig,
              weak_rows=None) -> GlobalSystem:
    """The node loop of every method; ``weak_rows`` is the classical row
    kernel, None for the direct methods.

    Dirichlet nodes become collocation block rows, mixed nodes keep weak rows
    only for their unprescribed components, and all remaining nodes
    contribute pure weak-form rows (``_weak_rows``), one functional per key
    from the subdomain plan in the direct methods.  A prescribed component
    i is the functional e_0 (the value at the node) on the diagonal block
    (i, i) of the basis centred at the node.  One batched GMLS solve
    (``mls.gmls_batch``) turns the node-centred functionals into matrix
    entries.  It runs over every node in the direct methods, whose rows are
    all node-centred, and otherwise over the nodes with a prescribed
    component only.  Every failing node is reported, in node order, in one
    ``AssemblyError``; a deficient moment matrix takes precedence over the
    node's row error.  ``stats["stages"]`` holds the wall
    time spent on subdomains, weak rows, moment systems and the scatter.
    """
    d = nodes.dim
    stage = StageTimer("subdomains_s", "rows_s", "traction_s", "moments_s", "scatter_s")
    t0 = time.perf_counter()
    classical = Counter(chunks=0, pairs=0, padded_pairs=0)
    functionals, rhs, explicit, evals, failures, keyed = _weak_rows(
        nodes, problem, config, method, weak_rows, stage, classical)
    prescribed = np.flatnonzero(nodes.masks.any(axis=1))
    ubar = problem.dirichlet(nodes.points[prescribed])
    owner, comp = np.nonzero(nodes.masks[prescribed])
    functionals[prescribed[owner], comp, comp, 0] = 1.0
    rhs[d * prescribed[owner] + comp] = ubar[owner, comp]
    # a slice keeps the direct path's inputs views, not copies
    take = slice(None) if method in ("dmlpg1", "dmlpg5") else prescribed
    centres = np.arange(nodes.n)[take]
    with stage("moments_s"):
        moments = mls.gmls_batch(
            nodes.points[take], nodes.support[take], nodes, config.m,
            functionals[take].reshape(centres.size, d * d, -1), eps=config.eps)
    failures.update((int(centres[i]), moments.error(i))
                    for i in np.flatnonzero(~moments.ok))
    if failures:
        raise AssemblyError(sorted(failures.items()))
    with stage("scatter_s"):
        matrix = _block_rows(centres, np.diff(moments.indptr), moments.active,
                             moments.coefficients.reshape(d, d, -1).transpose(2, 0, 1),
                             nodes.n)
        if explicit:
            owners, actives, blocks = zip(*explicit)
            matrix = matrix + _block_rows(owners, [a.size for a in actives],
                                          np.concatenate(actives), np.concatenate(blocks),
                                          nodes.n)
        matrix.eliminate_zeros()
    cond = moments.cond
    stats = {
        "t_assemble": time.perf_counter() - t0,
        "shape_evals": sum(evals),
        "min_evals_per_subdomain": min(evals, default=0),
        **keyed,
        "moment_cond": {"min": float(cond.min(initial=math.inf)),
                        "median": float(np.median(cond)) if cond.size else math.nan,
                        "max": float(cond.max(initial=0.0))},
        "stages": stage.totals,
        "classical": classical,
        "method": method,
    }
    row_kinds = [_ROW_KINDS.get(int(tag), "weak-form") for tag in nodes.tags]
    return GlobalSystem(matrix, rhs, row_kinds, nodes, d, stats)


def _block_rows(owners, counts, active, blocks, n: int) -> sp.csr_matrix:
    """CSR matrix of the d x d ``blocks`` (nnz, d, d): node ``owners[i]``
    (ascending) holds ``counts[i]`` of them, in node columns ``active``."""
    nd = n * blocks.shape[-1]
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[np.asarray(owners, dtype=np.int64) + 1] = counts
    return sp.bsr_matrix((blocks, active, np.cumsum(indptr)), shape=(nd, nd)).tocsr()


COND_ALERT = 1e14
# nnz / n^2 at or above which ``solve`` factors a dense copy with LAPACK.  The
# 3D shell's matrix is about 16% dense; the 2D beams and plate at benchmark
# sizes are 1-3% dense.
DENSE_DENSITY = 0.05
# Factor precisions ``solve`` tries in order, ending with float64.  A lower
# precision is kept only when float64 refinement certifies its solution;
# ``(np.float64,)`` forces double.
FACTOR_DTYPES = (np.float32, np.float64)
# refinement stops after REFINE_STEPS corrections; a lower-precision solution
# is accepted at a relative residual of REFINE_TOL or below on every column
REFINE_STEPS = 10
REFINE_TOL = 1e-10


def solve(system: GlobalSystem) -> np.ndarray:
    """Direct LU solve, dense or sparse by the matrix's density, single
    precision first.

    With ``nnz >= DENSE_DENSITY * n**2`` LAPACK factors one dense copy of the
    matrix in place, and ``gecon`` estimates the condition number.  Otherwise
    SuperLU factors the sparse matrix with the symmetric ``MMD_AT_PLUS_A``
    column ordering and a diagonal-preferring pivot threshold of 0.1, and
    ``onenormest`` estimates it through block solves with the factors.  Both
    estimates are in the 1-norm, with ``||A||_1`` taken from the sparse matrix,
    and come from the accepted factor.

    Each ``FACTOR_DTYPES`` entry in turn factors the matrix and solves b and
    a fixed random probe g as one block (``_certified_solve``).  g weighs
    every mode of the matrix.  Below float64 the block is refined in float64
    and must reach ``REFINE_TOL`` on both columns, and every precision must
    keep the condition estimate at most ``COND_ALERT``.  A lower precision
    that fails hands over to the next; at float64 an exactly singular factor,
    a non-finite solution or a condition estimate above ``COND_ALERT`` (e.g.
    duplicated nodes making rows and columns coincide) raises
    ``SingularSystemError`` rather than returning an arbitrary solution.  Above
    ``COND_ALERT`` the message names the nodes where A^-1 g, and so the
    weakest mode, peaks.

    The stats receive the relative ``residual`` of b, the
    ``condition_estimate`` and ``solver``: the ``backend`` ("dense-lu" or
    "sparse-lu"), the ``precision`` ("single" or "double") and
    ``refine_steps`` of the accepted solve, ``fallback`` (None, or why the
    last lower-precision factor was dropped), ``t_factor`` (factoring,
    solving and refining with every factor tried), ``t_condest`` and
    ``fill``, the stored factor entries (n^2 dense; SuperLU's ``nnz``
    sparse).
    """
    t0 = time.perf_counter()
    mat = system.matrix
    n = mat.shape[0]
    anorm = float(spla.norm(mat, 1))
    if not math.isfinite(anorm):   # LAPACK below runs without check_finite
        raise SingularSystemError("matrix has non-finite entries")
    backend = "dense-lu" if mat.nnz >= DENSE_DENSITY * n * n else "sparse-lu"
    factor = _dense_lu if backend == "dense-lu" else _sparse_lu
    b = np.column_stack([system.rhs, np.random.default_rng(0).standard_normal(n)])
    t1 = time.perf_counter()
    fallback = None
    for dtype in FACTOR_DTYPES:
        solved = _certified_solve(factor, mat, b, anorm, dtype, backend, system.dim)
        if not isinstance(solved, str):
            break
        fallback = solved
    x, residual, cond, solver = solved
    t_factor = time.perf_counter() - t1 - solver["t_condest"]
    system.stats["t_solve"] = time.perf_counter() - t0
    system.stats["residual"] = residual
    system.stats["condition_estimate"] = float(cond)
    system.stats["solver"] = {"backend": backend, **solver, "fallback": fallback,
                              "t_factor": t_factor}
    return x[:, 0].copy()


def _certified_solve(factor, mat, b, anorm, dtype, backend: str, dim: int):
    """(X, relative residual of b, cond, solver stats) of ``A X = b`` from
    one ``dtype`` factor, refined in float64 below float64.  A factor that
    fails a check is dropped with the reason: below float64 the reason is
    returned, at float64 it is raised as ``SingularSystemError``."""
    double = dtype == np.float64

    def reject(reason):
        if double:
            raise SingularSystemError(reason) from None
        return reason

    with warnings.catch_warnings():
        warnings.simplefilter("error", LinAlgWarning)
        warnings.simplefilter("error", spla.MatrixRankWarning)
        try:
            inverse, condest, fill = factor(mat, dtype)
            x = inverse(b).astype(np.float64, copy=False)
        except (LinAlgWarning, spla.MatrixRankWarning, RuntimeError) as err:
            return reject(f"{backend} factorization failed: {err}")
    if not np.isfinite(x).all():
        return reject("factorization produced non-finite values")
    norms = np.maximum(np.linalg.norm(b, axis=0), 1e-300)
    r = b - mat @ x
    rel = np.linalg.norm(r, axis=0) / norms
    steps = 0
    if not double:
        while steps < REFINE_STEPS and np.isfinite(rel).all():
            x_next = x + inverse(r)
            r_next = b - mat @ x_next
            rel_next = np.linalg.norm(r_next, axis=0) / norms
            if not rel_next.max() <= 0.5 * rel.max():
                break
            x, r, rel = x_next, r_next, rel_next
            steps += 1
        if not np.all(rel <= REFINE_TOL):
            return (f"refinement stopped after {steps} steps at relative residuals "
                    f"{rel[0]:.2e} (b) and {rel[1]:.2e} (g), above {REFINE_TOL:.0e}")
    t1 = time.perf_counter()
    cond = condest(anorm)
    t_condest = time.perf_counter() - t1
    if not cond <= COND_ALERT:
        # A^-1 g leans on the weakest mode, so the largest entries of the
        # probe's solution name the nodes that carry it
        peaks = np.argsort(np.abs(x[:, 1]).reshape(-1, dim).max(axis=1))[::-1][:3]
        return reject(
            f"system condition estimate {cond:.2e} exceeds {COND_ALERT:.0e}; its "
            f"weakest mode peaks at nodes {peaks.tolist()} (largest first)")
    return x, float(rel[0]), cond, {
        "precision": "double" if double else "single", "refine_steps": steps,
        "t_condest": t_condest, "fill": int(fill)}


def _dense_lu(mat, dtype):
    """LAPACK LU of one dense ``dtype`` copy: (solve, condition estimate given
    ||A||_1, fill)."""
    # the C-ordered copy's transpose is F-ordered, so LAPACK factors A^T in
    # place and no second n x n array is made; the sparse matrix is cast
    # first, so no float64 n x n array is made for a float32 factor either
    lu = lu_factor(mat.astype(dtype, copy=False).toarray(order="C").T,
                   overwrite_a=True, check_finite=False)
    gecon = lapack.get_lapack_funcs("gecon", (lu[0],))

    def cond(anorm):
        # kappa_1(A) = kappa_inf(A^T), and ||A^T||_inf = ||A||_1
        rcond, _ = gecon(lu[0], anorm, norm="I")
        return 1.0 / rcond if rcond > 0.0 else math.inf

    # the right-hand side is cast to the factor's precision: a float64 one
    # would make ``lu_solve`` copy the factor to float64
    return (lambda b: lu_solve(lu, b.astype(dtype, copy=False), trans=1,
                               check_finite=False), cond, mat.shape[0] ** 2)


def _sparse_lu(mat, dtype):
    """SuperLU factors of a ``dtype`` copy: (solve, condition estimate given
    ||A||_1, fill)."""
    lu = spla.splu(mat.astype(dtype, copy=False).tocsc(), permc_spec="MMD_AT_PLUS_A",
                   diag_pivot_thresh=0.1)

    # SuperLU casts only safely, so a float32 factor needs float32 input
    def inverse(b):
        return lu.solve(b.astype(dtype, copy=False))

    def transposed(b):
        return lu.solve(b.astype(dtype, copy=False), trans="T")

    def cond(anorm):
        # whole blocks go through one solve each
        op = spla.LinearOperator(mat.shape, matvec=inverse, rmatvec=transposed,
                                 matmat=inverse, rmatmat=transposed, dtype=dtype)
        return anorm * spla.onenormest(op)

    # lu.nnz counts the stored entries; lu.L and lu.U would copy the factors
    return inverse, cond, lu.nnz


def recover_field(points, nodes, u: np.ndarray, material, m: int = 2,
                  eps: float = 4.0):
    """Post-process displacement, strain, stress, and von Mises at points.

    All points go through one batched GMLS solve (``mls.gmls_batch``).  Each
    point's support radius is its nearest node's (lowest index on ties).  The
    functionals are exact at the centre of the shifted-scaled basis: the
    value is e_0, and d_j is e_j / delta on the linear monomial of axis j.
    Displacements use the value row; strains assemble the derivative rows
    into Voigt form.  A deficient point raises ``NodeDeficiencyError`` for
    the first such point in input order.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = nodes.dim
    tmap = ela.voigt_map(d)
    dmat = ela.elastic_matrix(material)
    exps = mls.monomial_exponents(m, d)
    deltas = nodes.support[nodes.index.nearest_batch(points)]
    lam = np.zeros((points.shape[0], d + 1, len(exps)))
    lam[:, 0, 0] = 1.0
    for j, unit in enumerate(np.eye(d, dtype=int)):
        lam[:, 1 + j, exps.index(tuple(unit))] = 1.0 / deltas
    batch = mls.gmls_batch(points, deltas, nodes, m, lam, eps=eps)
    batch.check()
    rec = batch.apply(np.asarray(u, dtype=float).reshape(nodes.n, d))
    disp = rec[0]
    strain = np.einsum("vij,jni->nv", tmap, rec[1:])   # rec[1 + j][:, i] = d_j u_i
    stress = strain @ dmat.T
    return {
        "displacement": disp,
        "strain": strain,
        "stress": stress,
        "von_mises": ela.von_mises(stress),
    }
