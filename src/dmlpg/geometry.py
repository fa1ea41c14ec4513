"""Node clouds, benchmark domains, local subdomains, and neighbor search.

Node clouds are plain coordinate arrays with boundary tags, per-node support
radii for the moving-least-squares weight, and per-node spacing used to size
local integration subdomains.  Subdomains are axis boxes or disks/balls
centered at a node, clipped against the global domain, with their boundary
split into classified pieces.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.spatial

from . import quadrature as quad

INTERIOR = 0
DIRICHLET = 1
NEUMANN = 2
MIXED = 3

_GEOM_TOL = 1e-12


class UnsupportedClipError(Exception):
    """A subdomain intersects the domain boundary in a shape we cannot map."""


class PointIndex:
    """Spatial index over the node cloud (k-d tree) for radius queries.

    Per-node support radii vary by two orders of magnitude on the graded
    clouds, so a uniform background grid degenerates; radius queries here stay
    proportional to the true neighborhood size.
    """

    def __init__(self, points: np.ndarray):
        self.points = points
        self._tree = scipy.spatial.cKDTree(points)

    def query_ball(self, x: np.ndarray, r: float) -> np.ndarray:
        """Indices with ||x_j - x|| <= r, ascending."""
        idx = self._tree.query_ball_point(np.asarray(x, dtype=float), r)
        return np.sort(np.asarray(idx, dtype=np.int64))

    def query_ball_batch(self, points: np.ndarray, radii: np.ndarray):
        """Neighbour lists of many points, point i within radius radii[i].

        One tree query; returns CSR arrays ``(indptr, indices)`` with point
        i's indices, ascending, in ``indices[indptr[i]:indptr[i + 1]]``.
        """
        lists = self._tree.query_ball_point(np.asarray(points, dtype=float),
                                            np.asarray(radii, dtype=float),
                                            return_sorted=True)
        indptr = np.zeros(len(lists) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, lists), dtype=np.int64, count=len(lists)),
                  out=indptr[1:])
        indices = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64,
                              count=int(indptr[-1]))
        return indptr, indices

    def nearest(self, x: np.ndarray) -> int:
        """Nearest node index; ties resolve to the lowest index."""
        return int(self.nearest_batch(np.asarray(x, dtype=float)[None, :])[0])

    def nearest_batch(self, points: np.ndarray) -> np.ndarray:
        """Nearest node index of each point; ties resolve to the lowest index.

        Each point looks at its 4 nearest nodes; a point whose 4 all tie (a
        cell centre of a 3D grid has 8) asks again for twice as many.
        """
        points = np.asarray(points, dtype=float).reshape(-1, self.points.shape[1])
        n = self.points.shape[0]
        nearest = np.empty(points.shape[0], dtype=np.int64)
        todo = np.arange(points.shape[0])
        k = 4
        while todo.size:
            d, i = self._tree.query(points[todo], k=k)
            d, i = d.reshape(-1, k), i.reshape(-1, k)
            ties = d - d[:, :1] <= 1e-12 * np.maximum(d[:, :1], 1.0)   # d ascending
            nearest[todo] = np.where(ties, i, np.iinfo(np.int64).max).min(axis=1)
            if k >= n:
                break
            todo = todo[ties[:, -1]]
            k = min(2 * k, n)
        return nearest


@dataclass
class NodeSet:
    """Scattered nodes with boundary tags, spacing, and MLS support radii.

    Dirichlet nodes always come first (stable reordering happens at
    generation time); ``masks`` records which displacement components are
    prescribed at each node (all for Dirichlet, none for Neumann/interior).
    """

    points: np.ndarray          # (N, d)
    tags: np.ndarray            # (N,) int
    masks: np.ndarray           # (N, d) bool, prescribed displacement components
    spacing: np.ndarray         # (N,) local spacing used to size subdomains
    support: np.ndarray         # (N,) MLS support radius delta
    mesh_size: float
    _index: PointIndex | None = field(default=None, repr=False)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.tags = np.asarray(self.tags, dtype=np.int64)
        self.masks = np.asarray(self.masks, dtype=bool)
        self.spacing = np.asarray(self.spacing, dtype=float)
        self.support = np.asarray(self.support, dtype=float)
        n, d = self.points.shape
        if d not in (2, 3):
            raise ValueError("only 2D and 3D node sets are supported")
        if not (np.isfinite(self.points).all() and np.isfinite(self.spacing).all()
                and np.isfinite(self.support).all()):
            finite = (np.isfinite(self.points).all(axis=1) & np.isfinite(self.spacing)
                      & np.isfinite(self.support))
            raise ValueError(f"node {int(np.argmin(finite))} has a non-finite "
                             "coordinate, spacing or support")
        if not self.mesh_size > 0.0:
            raise ValueError("mesh_size must be positive")
        if np.any(self.support <= self.mesh_size):
            raise ValueError("every support radius must exceed the mesh size")
        dir_idx = np.nonzero(self.tags == DIRICHLET)[0]
        if dir_idx.size and dir_idx.max() != dir_idx.size - 1:
            raise ValueError("Dirichlet nodes must come first")
        if np.any(self.masks[self.tags == DIRICHLET] != True):
            raise ValueError("Dirichlet nodes must prescribe all components")
        if np.any(self.masks[(self.tags == NEUMANN) | (self.tags == INTERIOR)]):
            raise ValueError("Neumann/interior nodes cannot prescribe components")
        mixed = self.tags == MIXED
        if np.any(~np.any(self.masks[mixed], axis=1)) or np.any(np.all(self.masks[mixed], axis=1)):
            raise ValueError("mixed nodes must prescribe some but not all components")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_dirichlet(self) -> int:
        return int(np.count_nonzero(self.tags == DIRICHLET))

    @property
    def index(self) -> PointIndex:
        if self._index is None:
            self._index = PointIndex(self.points)
        return self._index

    def nearest(self, x) -> int:
        """Index of the nearest node (lowest index on ties)."""
        return self.index.nearest(np.asarray(x, dtype=float))

    def support_at(self, x) -> float:
        """Support radius at an arbitrary point: the nearest node's delta."""
        return float(self.support[self.nearest(x)])

    def neighbors(self, x, delta: float | None = None, brute: bool = False) -> np.ndarray:
        """Indices j with ||x - x_j|| <= delta, ascending.

        ``delta`` defaults to the support radius at ``x``.  ``brute`` forces
        the O(N) scan used to validate the indexed path.
        """
        x = np.asarray(x, dtype=float)
        if delta is None:
            delta = self.support_at(x)
        if brute:
            d = np.linalg.norm(self.points - x, axis=1)
            return np.nonzero(d <= delta)[0]
        return self.index.query_ball(x, delta)


def reorder_dirichlet_first(points, tags, masks, spacing, support):
    """Stable permutation putting Dirichlet nodes at the front."""
    tags = np.asarray(tags)
    perm = np.concatenate([np.nonzero(tags == DIRICHLET)[0],
                           np.nonzero(tags != DIRICHLET)[0]])
    return (np.asarray(points)[perm], tags[perm], np.asarray(masks)[perm],
            np.asarray(spacing)[perm], np.asarray(support)[perm])


def save_nodes(path, nodes: NodeSet) -> None:
    """Write a node table; decimals use 17 significant digits (round-trip exact).

    Line format: one node per row with columns
    ``x1 .. xd  tag  mask  spacing  support`` where ``tag`` is the integer
    code (0 interior, 1 dirichlet, 2 neumann, 3 mixed) and ``mask`` packs the
    prescribed-component flags as bits (component i -> bit i).
    """
    with open(path, "w") as fh:
        fh.write(f"# dmlpg-nodes dim={nodes.dim} count={nodes.n} "
                 f"mesh_size={nodes.mesh_size:.17g}\n")
        fh.write("# columns: x1..xd tag mask spacing support\n")
        for i in range(nodes.n):
            coords = " ".join(f"{v:.17g}" for v in nodes.points[i])
            mask = sum(1 << j for j in range(nodes.dim) if nodes.masks[i, j])
            fh.write(f"{coords} {int(nodes.tags[i])} {mask} "
                     f"{nodes.spacing[i]:.17g} {nodes.support[i]:.17g}\n")


def load_nodes(path) -> NodeSet:
    with open(path) as fh:
        header = fh.readline().split()
        meta = dict(item.split("=") for item in header[2:])
        dim = int(meta["dim"])
        mesh_size = float(meta["mesh_size"])
        fh.readline()
        pts, tags, masks, spacing, support = [], [], [], [], []
        for line in fh:
            parts = line.split()
            pts.append([float(v) for v in parts[:dim]])
            tags.append(int(parts[dim]))
            bits = int(parts[dim + 1])
            masks.append([(bits >> j) & 1 == 1 for j in range(dim)])
            spacing.append(float(parts[dim + 2]))
            support.append(float(parts[dim + 3]))
    return NodeSet(np.array(pts), np.array(tags), np.array(masks),
                   np.array(spacing), np.array(support), mesh_size)


# ---------------------------------------------------------------------------
# Domains


@dataclass(frozen=True)
class PlaneBC:
    """Boundary conditions carried by one flat piece of the global boundary."""

    kind: str                  # "dirichlet", "neumann", or "mixed"
    traction_known: tuple      # per displacement component


class DomainGeometry:
    """Base for the benchmark domains: an axis box plus optional curved cuts."""

    dim = 2
    bounds_lo: np.ndarray
    bounds_hi: np.ndarray

    def plane_bc(self, axis: int, side: int) -> PlaneBC | None:
        """BC spec of the domain boundary plane (axis, side) or None."""
        raise NotImplementedError

    def curves(self):
        """Curved boundary descriptors: list of (kind, center, radius, keep)."""
        return []

    def curve_bc(self, curve) -> PlaneBC:
        raise NotImplementedError


class BeamDomain(DomainGeometry):
    """Rectangle [0, L] x [0, D]; clamped on x=0, tractions elsewhere."""

    dim = 2

    def __init__(self, length: float, height: float):
        self.length = float(length)
        self.height = float(height)
        self.bounds_lo = np.array([0.0, 0.0])
        self.bounds_hi = np.array([self.length, self.height])

    def plane_bc(self, axis, side):
        if axis == 0 and side < 0:
            return PlaneBC("dirichlet", (False, False))
        return PlaneBC("neumann", (True, True))


class BoxDomain(DomainGeometry):
    """Axis box with the x=0 face clamped and tractions elsewhere (any d)."""

    def __init__(self, lengths):
        lengths = np.atleast_1d(np.asarray(lengths, dtype=float))
        self.dim = lengths.size
        self.bounds_lo = np.zeros(self.dim)
        self.bounds_hi = lengths.copy()

    def plane_bc(self, axis, side):
        if axis == 0 and side < 0:
            return PlaneBC("dirichlet", (False,) * self.dim)
        return PlaneBC("neumann", (True,) * self.dim)


class PlateQuadrant(DomainGeometry):
    """Quadrant of a square plate of half-width b with a central hole of radius a."""

    dim = 2

    def __init__(self, hole_radius: float, half_width: float):
        if hole_radius >= half_width:
            raise ValueError("hole radius must be smaller than the plate half-width")
        self.hole_radius = float(hole_radius)
        self.half_width = float(half_width)
        self.bounds_lo = np.array([0.0, 0.0])
        self.bounds_hi = np.array([self.half_width, self.half_width])

    def plane_bc(self, axis, side):
        if side > 0:
            return PlaneBC("neumann", (True, True))
        if axis == 0:  # x = 0: u1 = 0, t2 = 0
            return PlaneBC("mixed", (False, True))
        return PlaneBC("mixed", (True, False))  # y = 0: u2 = 0, t1 = 0

    def curves(self):
        return [("hole", np.zeros(2), self.hole_radius, "outside")]

    def curve_bc(self, curve):
        return PlaneBC("neumann", (True, True))  # traction-free hole


class SphereOctantShell(DomainGeometry):
    """First octant of a spherical shell r_inner <= rho <= b."""

    dim = 3

    def __init__(self, inner_radius: float, outer_radius: float):
        if inner_radius >= outer_radius:
            raise ValueError("inner radius must be smaller than the outer radius")
        self.inner_radius = float(inner_radius)
        self.outer_radius = float(outer_radius)
        self.bounds_lo = np.zeros(3)
        self.bounds_hi = np.full(3, self.outer_radius)

    def plane_bc(self, axis, side):
        if side > 0:
            return None  # the outer sphere bounds the domain before these planes
        known = [True, True, True]
        if axis in (0, 1):
            known[axis] = False  # symmetry plane: normal displacement prescribed
        return PlaneBC("mixed" if axis in (0, 1) else "neumann", tuple(known))

    def curves(self):
        return [("inner-sphere", np.zeros(3), self.inner_radius, "outside"),
                ("outer-sphere", np.zeros(3), self.outer_radius, "inside")]

    def curve_bc(self, curve):
        return PlaneBC("dirichlet", (False, False, False))


# ---------------------------------------------------------------------------
# Subdomains


@dataclass
class Piece:
    """One classified piece of a subdomain boundary.

    ``on_gamma`` marks pieces lying on the global boundary; those carry the
    per-component mask of prescribed tractions.  Interior pieces (the original
    box faces or sphere arcs) have ``traction_known=None``.
    """

    kind: str
    on_gamma: bool
    traction_known: tuple | None
    measure: float
    _builder: object = field(repr=False)
    _rules: dict = field(default_factory=dict, repr=False)

    def rule(self, n: int) -> quad.QuadratureRule:
        """The piece's rule with ``n`` points per direction, built once per n."""
        rule = self._rules.get(n)
        if rule is None:
            rule = self._rules[n] = self._builder(n)
        return rule


@dataclass
class Subdomain:
    """Local integration region: a clipped axis box or disk/ball."""

    center: np.ndarray
    shape: str                  # "box" or "ball"
    size: float                 # side length (box) or radius (ball)
    pieces: list
    _measure: object            # the measure, or a function that gives it
    bounding_radius: float
    curved_clip: bool = False
    _interior_builder: object = field(default=None, repr=False)

    @property
    def measure(self) -> float:
        """Area or volume; a function's value is taken on first read."""
        if callable(self._measure):
            self._measure = self._measure()
        return self._measure

    def interior_rule(self, n: int) -> quad.QuadratureRule:
        """Interior rule; ``n`` is points per axis (box) or per direction (ball)."""
        return self._interior_builder(n)


def _norm(v):
    """Euclidean norm over the last axis, one dot product per vector as
    ``np.linalg.norm`` takes it for one vector, so one and a stack agree bit
    for bit."""
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])


# The clip rules take one subdomain ((d,) centre, float size) or a stack ((n,
# d), (n,)).  The builders and ``assembly.plan_subdomains`` share them, so a
# subdomain is whole in the plan exactly when its builder clips nothing.


def box_clip(centers, size, geometry):
    """The clip rule of axis boxes of side ``size``.

    A face within ``_GEOM_TOL * size`` of a bound plane, or beyond it, moves
    onto it.  Returns ``lo`` and ``hi`` so clipped, ``faces``: the (low,
    high) flags of the faces that moved, (..., d) each, and ``crosses``
    (...): whether the clipped box reaches more than ``_GEOM_TOL`` across a
    curve.  A box may not cross a curve; the size policy shrinks it instead.
    """
    centers = np.asarray(centers, dtype=float)
    size = np.asarray(size, dtype=float)[..., None]
    half, tol = 0.5 * size, _GEOM_TOL * size
    lo, hi = centers - half, centers + half
    faces = (lo - geometry.bounds_lo <= tol, geometry.bounds_hi - hi <= tol)
    np.copyto(lo, geometry.bounds_lo, where=faces[0])
    np.copyto(hi, geometry.bounds_hi, where=faces[1])
    crosses = np.zeros(centers.shape[:-1], dtype=bool)
    for _, ccenter, radius, keep in geometry.curves():
        if keep == "outside":       # the box's nearest point
            crosses |= _norm(np.clip(ccenter, lo, hi) - ccenter) < radius - _GEOM_TOL
        else:                       # its farthest corner
            far = np.where(np.abs(lo - ccenter) > np.abs(hi - ccenter), lo, hi)
            crosses |= _norm(far - ccenter) > radius + _GEOM_TOL
    return lo, hi, faces, crosses


def ball_clip(centers, radius, geometry):
    """The clip rule of disks and balls of ``radius``.

    Returns the gaps from the centre to the low and to the high bound plane
    of each axis ((..., d) each), ``curves``: each curve of
    ``geometry.curves()`` with its clearance (the gap to it, positive inside
    the domain), and the tolerance ``_GEOM_TOL * max(radius, 1)``.  A gap
    within the tolerance clips the subdomain through its centre; a gap short
    of the radius by more than the tolerance crosses it off-centre.
    """
    curves = []
    for curve in geometry.curves():
        _, ccenter, cradius, keep = curve
        rho = _norm(centers - ccenter)
        curves.append((curve, rho - cradius if keep == "outside" else cradius - rho))
    scale = max(radius, 1.0) if isinstance(radius, float) else np.maximum(radius, 1.0)
    return centers - geometry.bounds_lo, geometry.bounds_hi - centers, curves, _GEOM_TOL * scale


def _centre_planes(center, radius, geometry):
    """``ball_clip`` of one disk or ball: the bound planes (axis, side)
    through its centre, the curves with their clearance and the tolerance.
    Raises for a centre outside the bound box or a plane crossing off-centre."""
    lo_gap, hi_gap, curves, tol = ball_clip(center, radius, geometry)
    reach = radius - tol
    planes = []
    for axis, (low, high) in enumerate(zip(lo_gap.tolist(), hi_gap.tolist())):
        for side, gap in ((-1, low), (1, high)):
            if gap <= tol:
                if gap < -tol:
                    raise UnsupportedClipError(f"center {center} outside domain box")
                planes.append((axis, side))
            elif gap < reach:
                raise UnsupportedClipError(
                    f"subdomain at {center} crosses plane x[{axis}] off-center")
    return planes, curves, tol


def box_clip_error(center, lo, hi, faces, crosses, geometry):
    """The builder's objection to a box clipped by ``box_clip``, or None: the
    box collapses, crosses a curve, or a bound plane with no boundary
    condition clips it.  ``faces`` holds the (low, high) face flags."""
    if (hi <= lo).any():
        return UnsupportedClipError(f"box subdomain at {center} collapses under clipping")
    if crosses:
        return UnsupportedClipError(f"box subdomain at {center} crosses a curved boundary")
    for axis in range(center.size):
        for side in (-1, 1):
            if faces[int(side > 0)][axis] and geometry.plane_bc(axis, side) is None:
                return UnsupportedClipError(
                    f"box subdomain at {center} clipped by a non-boundary plane")
    return None


def _build_box_subdomain(center, size, geometry) -> Subdomain:
    d = center.size
    lo, hi, faces, crosses = box_clip(center, size, geometry)
    error = box_clip_error(center, lo, hi, faces, crosses, geometry)
    if error is not None:
        raise error
    faces = [f.tolist() for f in faces]
    pieces = []
    for axis in range(d):
        for side in (-1, 1):
            on_gamma = faces[side > 0][axis]
            known = geometry.plane_bc(axis, side).traction_known if on_gamma else None
            extents = np.delete(hi - lo, axis)
            pieces.append(Piece(
                "box-face", on_gamma, known, float(np.prod(extents)),
                _builder=(lambda n, lo=lo.copy(), hi=hi.copy(), axis=axis, side=side:
                          quad.rule_box_face(lo, hi, axis, side, n)),
            ))
    reach = np.maximum(np.abs(lo - center), np.abs(hi - center))
    return Subdomain(
        center=center, shape="box", size=size, pieces=pieces,
        _measure=float(np.prod(hi - lo)),
        bounding_radius=float(np.linalg.norm(reach)),
        _interior_builder=(lambda n, lo=lo.copy(), hi=hi.copy():
                           quad.rule_box(lo, hi, n)),
    )


def _interval_intersect(lo1, hi1, lo2, hi2):
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    return (lo, hi) if hi > lo + 1e-14 else None


def _build_disk_subdomain(center, radius, geometry) -> Subdomain:
    """Disk subdomain clipped by axis planes through its center and, for
    centers sitting on a circular hole, by the hole itself.

    The kept angular directions are maintained as a list of intervals so
    clips wrapping through theta = 0 keep every piece; boundary coverage is
    checked downstream by divergence-theorem identities in the tests.
    """
    plane_clips, curves, tol = _centre_planes(center, radius, geometry)

    def intersect_all(intervals, lo, hi):
        out = []
        for a, b in intervals:
            for shift in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
                cut = _interval_intersect(a, b, lo + shift, hi + shift)
                if cut is not None:
                    out.append(cut)
        return out

    def plane_range(axis, side):
        # open half-circle of directions kept by one keep-side plane clip
        if axis == 0 and side == -1:
            return -0.5 * math.pi, 0.5 * math.pi     # keep x >= c
        if axis == 0:
            return 0.5 * math.pi, 1.5 * math.pi      # keep x <= c
        if side == -1:
            return 0.0, math.pi                      # keep y >= c
        return -math.pi, 0.0                         # keep y <= c

    kept = [(0.0, 2.0 * math.pi)]
    for axis, side in plane_clips:
        kept = intersect_all(kept, *plane_range(axis, side))
        if not kept:
            raise UnsupportedClipError(f"disk at {center}: empty plane clip")

    hole = None
    for curve, clearance in curves:
        if clearance <= tol and curve[3] == "outside":
            hole = curve
        elif clearance < radius - tol:
            raise UnsupportedClipError(
                f"disk at {center} crosses curved boundary {curve[0]} off-center")

    zero = lambda th: np.zeros_like(th)
    segments = []          # (th0, th1, rlo_fn): interior radial sections
    if hole is None:
        segments = [(a, b, zero) for a, b in kept]
    else:
        _, ocenter, oradius, _ = hole
        outward = center - ocenter
        theta_out = math.atan2(outward[1], outward[0])
        psi = math.acos(max(-1.0, min(1.0, -radius / (2.0 * oradius))))
        t_c = lambda th: -2.0 * (np.cos(th) * outward[0] + np.sin(th) * outward[1])
        raw = [(theta_out - 0.5 * math.pi, theta_out + 0.5 * math.pi, zero),
               (theta_out + 0.5 * math.pi, theta_out + psi, t_c),
               (theta_out - psi, theta_out - 0.5 * math.pi, t_c)]
        for lo, hi, rlo in raw:
            segments.extend((a, b, rlo) for a, b in intersect_all(kept, lo, hi))
    segments.sort(key=lambda s: s[0])

    pieces = []
    for th0, th1, _rlo in segments:
        pieces.append(Piece(
            "arc", False, None, radius * (th1 - th0),
            _builder=(lambda n, c=center.copy(), r=radius, a=th0, b=th1:
                      quad.rule_arc(c, r, a, b, n)),
        ))
    if hole is not None:
        _, ocenter, oradius, _ = hole
        alpha0 = math.atan2(center[1] - ocenter[1], center[0] - ocenter[0])
        halfspan = 2.0 * math.asin(min(1.0, radius / (2.0 * oradius)))
        # the symmetry planes of the benchmark domains pass through the hole
        # center, so plane clips translate directly to hole-angle ranges
        arcs = [(alpha0 - halfspan, alpha0 + halfspan)]
        for axis, side in plane_clips:
            arcs = intersect_all(arcs, *plane_range(axis, side))
        if not arcs:
            raise UnsupportedClipError(f"disk at {center}: hole arc clipped away")
        bc = geometry.curve_bc(hole)
        for lo_a, hi_a in arcs:
            pieces.append(Piece(
                "arc", True, bc.traction_known, oradius * (hi_a - lo_a),
                _builder=(lambda n, c=np.asarray(ocenter, float).copy(), r=oradius,
                          a=lo_a, b=hi_a: quad.rule_arc(c, r, a, b, n, outward=-1.0)),
            ))

    def contains_direction(th):
        for a, b in kept:
            for shift in (-2.0 * math.pi, 0.0, 2.0 * math.pi):
                if a - 1e-9 <= th + shift <= b + 1e-9:
                    return True
        return False

    for axis, side in plane_clips:
        for th_b in ((0.5 * math.pi, 1.5 * math.pi) if axis == 0 else (0.0, math.pi)):
            if not contains_direction(th_b):
                continue
            e = np.array([math.cos(th_b), math.sin(th_b)])
            e[axis] = 0.0
            rlo = 0.0
            if hole is not None:
                _, ocenter, _, _ = hole
                outward = center - ocenter
                rlo = max(0.0, -2.0 * float(outward @ e))
            if rlo >= radius - tol:
                continue
            bc = geometry.plane_bc(axis, side)
            if bc is None:
                raise UnsupportedClipError(
                    f"disk at {center} clipped by a non-boundary plane")
            normal = np.zeros(2)
            normal[axis] = float(side)
            p0 = center + rlo * e
            p1 = center + radius * e
            pieces.append(Piece(
                "segment", True, bc.traction_known, float(radius - rlo),
                _builder=(lambda n, p0=p0, p1=p1, nv=normal:
                          quad.rule_segment(p0, p1, n, nv)),
            ))

    def interior(n, segs=tuple(segments), c=center.copy(), r=radius):
        if hole is None:
            return quad.rule_disk(c, r, n, n, [(a, b) for a, b, _ in segs])
        return quad.rule_polar(c, [(a, b, rlo, lambda th: np.full_like(th, r))
                                   for a, b, rlo in segs], n, n)

    # a hole disk's measure is summed from a fine rule, when it is read
    measure = (0.5 * radius**2 * sum(b - a for a, b, _ in segments) if hole is None
               else lambda: float(np.sum(interior(40).weights)))
    return Subdomain(
        center=center, shape="ball", size=radius, pieces=pieces,
        _measure=measure,
        bounding_radius=radius,
        curved_clip=hole is not None,
        _interior_builder=interior,
    )


def _build_ball_subdomain(center, radius, geometry) -> Subdomain:
    """3D ball clipped by axis planes through its center (keep-positive side)."""
    planes, curves, tol = _centre_planes(center, radius, geometry)
    if any(side > 0 for _, side in planes):
        raise UnsupportedClipError(
            f"ball at {center}: clip against a high plane is unsupported")
    clips = [axis for axis, _ in planes]
    for curve, clearance in curves:
        if clearance < radius - tol:
            raise UnsupportedClipError(
                f"ball at {center} meets curved boundary {curve[0]}")
    polar = (0.0, 0.5 * math.pi) if 2 in clips else (0.0, math.pi)
    if 0 in clips and 1 in clips:
        azim = (0.0, 0.5 * math.pi)
    elif 0 in clips:
        azim = (-0.5 * math.pi, 0.5 * math.pi)
    elif 1 in clips:
        azim = (0.0, math.pi)
    else:
        azim = (0.0, 2.0 * math.pi)
    polar_fraction = 1.0 if polar == (0.0, math.pi) else 0.5
    fraction = polar_fraction * (azim[1] - azim[0]) / (2.0 * math.pi)
    pieces = [Piece(
        "sphere-patch", False, None,
        4.0 * math.pi * radius**2 * fraction,
        _builder=(lambda n, c=center.copy(), r=radius, p=polar, a=azim:
                  quad.rule_sphere_patch(c, r, p, a, n)),
    )]
    for axis in sorted(clips):
        others = [i for i in range(3) if i != axis]
        # in-plane azimuth range from the other active clips: for keep-positive
        # clips each other axis restricts its trig factor to be nonnegative
        lo, hi = 0.0, 2.0 * math.pi
        if others[0] in clips:
            lo, hi = -0.5 * math.pi, 0.5 * math.pi
        if others[1] in clips:
            cut = _interval_intersect(lo, hi, 0.0, math.pi)
            if cut is None:
                raise UnsupportedClipError(f"ball at {center}: empty plane sector")
            lo, hi = cut
        bc = geometry.plane_bc(axis, -1)
        if bc is None:
            raise UnsupportedClipError(f"ball at {center} clipped by a non-boundary plane")
        pieces.append(Piece(
            "plane-sector", True, bc.traction_known,
            0.5 * radius**2 * (hi - lo),
            _builder=(lambda n, c=center.copy(), r=radius, ax=axis, rng=(lo, hi):
                      quad.rule_plane_sector(c, r, ax, -1, rng, n, n)),
        ))
    measure = 4.0 / 3.0 * math.pi * radius**3 * fraction
    return Subdomain(
        center=center, shape="ball", size=radius, pieces=pieces,
        _measure=measure,
        bounding_radius=radius,
        _interior_builder=(lambda n, c=center.copy(), r=radius, p=polar, a=azim:
                           quad.rule_spherical(c, r, p, a, n, n)),
    )


_SHAPES = {"box": "box", "rect": "box", "square": "box", "cube": "box",
           "ball": "ball", "disk": "ball", "circle": "ball", "sphere": "ball"}


def canonical_shape(shape: str) -> str:
    """"box" or "ball" for a shape name or its alias (square/rect/cube,
    disk/circle/sphere)."""
    if shape not in _SHAPES:
        raise ValueError(f"'shape' must be one of {', '.join(_SHAPES)}, not {shape!r}")
    return _SHAPES[shape]


def build_subdomain(center, shape: str, size: float, geometry: DomainGeometry) -> Subdomain:
    """Construct the local region around ``center`` clipped to the domain.

    ``shape`` is "box" or "ball" or an alias (``canonical_shape``); ``size``
    is the side length or radius.
    """
    size = float(size)          # the builders' scalar arithmetic is faster on a float
    if size <= 0.0:
        raise ValueError("subdomain size must be positive")
    center = np.asarray(center, dtype=float).copy()
    shape = canonical_shape(shape)
    if shape == "box":
        return _build_box_subdomain(center, size, geometry)
    if center.size == 2:
        return _build_disk_subdomain(center, size, geometry)
    return _build_ball_subdomain(center, size, geometry)


# ---------------------------------------------------------------------------
# Node generators


def generate_beam_nodes(nx: int, ny: int, length: float, height: float,
                        m: int = 2, support_factor: float = 2.0) -> NodeSet:
    """Uniform grid on the cantilever rectangle; the x=0 edge is clamped."""
    if nx < 2 or ny < 2:
        raise ValueError("grid must have at least 2 nodes per direction")
    xs = np.linspace(0.0, length, nx)
    ys = np.linspace(0.0, height, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    h = max(length / (nx - 1), height / (ny - 1))
    tags = np.where(pts[:, 0] == 0.0, DIRICHLET, NEUMANN)
    masks = np.zeros((pts.shape[0], 2), dtype=bool)
    masks[tags == DIRICHLET] = True
    spacing = np.full(pts.shape[0], h)
    support = np.full(pts.shape[0], support_factor * m * h)
    out = reorder_dirichlet_first(pts, tags, masks, spacing, support)
    return NodeSet(*out, mesh_size=h)


def generate_grid_nodes(counts, lengths, m: int = 2,
                        support_factor: float = 2.0) -> NodeSet:
    """Uniform grid on an axis box (2D or 3D); the x=0 face is clamped."""
    counts = list(counts)
    lengths = np.atleast_1d(np.asarray(lengths, dtype=float))
    if any(c < 2 for c in counts):
        raise ValueError("grid must have at least 2 nodes per direction")
    axes = [np.linspace(0.0, L, c) for c, L in zip(counts, lengths)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    h = max(L / (c - 1) for c, L in zip(counts, lengths))
    tags = np.where(pts[:, 0] == 0.0, DIRICHLET, NEUMANN)
    masks = np.zeros(pts.shape, dtype=bool)
    masks[tags == DIRICHLET] = True
    spacing = np.full(pts.shape[0], h)
    support = np.full(pts.shape[0], support_factor * m * h)
    out = reorder_dirichlet_first(pts, tags, masks, spacing, support)
    return NodeSet(*out, mesh_size=h)


def generate_plate_nodes(a: float, b: float, nr: int, ntheta: int,
                         grading: float = 1.0, m: int = 2,
                         near_factor: float = 2.0, far_factor: float = 2.5) -> NodeSet:
    """Polar-graded cloud on the plate quadrant, denser near the hole.

    ``nr`` counts the radial nodes along the first ray (hole to outer edge
    inclusive); steps between them grow geometrically by ``grading``.  Rays
    start uniform in angle and are decimated (every second ray dropped)
    whenever the live arc spacing falls behind the radial gap, keeping the
    cloud locally isotropic.  Mesh size is min(h_r, h_theta) at the hole.
    Nodes whose spacing is still at the hole scale use
    ``near_factor * m * h`` supports, the rest scale with their own spacing.
    """
    if a >= b:
        raise ValueError("hole radius must be smaller than the plate half-width")
    if nr < 2 or ntheta < 2:
        raise ValueError("need at least 2 nodes radially and in angle")
    if grading < 1.0:
        raise ValueError("grading ratio must be >= 1")
    dtheta = 0.5 * math.pi / (ntheta - 1)
    if grading > 1.0:
        h_r = (b - a) * (grading - 1.0) / (grading**(nr - 1) - 1.0)
    else:
        h_r = (b - a) / (nr - 1)
    h_theta = a * dtheta
    h = min(h_r, h_theta)
    near_spacing = 1.2 * max(h_r, h_theta)
    # max decimation keeping the closing ray theta = pi/2 alive
    max_level = 0
    while (ntheta - 1) % 2 ** (max_level + 1) == 0:
        max_level += 1
    rays = [(math.cos(j * dtheta), math.sin(j * dtheta)) for j in range(ntheta)]
    r_max = [b / max(abs(ct), abs(st)) for ct, st in rays]
    # the radial ladder every ray climbs until it nears its edge: ladder[i]
    # steps by steps[i], and steps grow by the grading
    ladder, steps = [a], [h_r]
    while ladder[-1] + steps[-1] < max(r_max):
        ladder.append(ladder[-1] + steps[-1])
        steps.append(steps[-1] * grading)
    ladder, steps = np.array(ladder), np.array(steps)
    tol = 1e-13 * b
    parts = []
    for j, ((ct, st), edge) in enumerate(zip(rays, r_max)):
        top = int(np.argmin(ladder + steps < edge - 0.45 * steps))
        radii = np.append(ladder[:top + 1], edge)
        gaps = np.diff(radii)
        gap_prev, gap_next = np.r_[gaps[0], gaps], np.r_[gaps, gaps[-1]]
        gap = np.maximum(gap_prev, gap_next)
        # the coarsest ray spacing that still keeps up with the radial gap
        level = np.zeros(radii.size, dtype=np.int64)
        for lv in range(max_level):
            level += (level == lv) & (radii * dtheta * 2**lv < gap / 1.4)
        keep = j % 2**level == 0
        x = np.column_stack([radii * ct, radii * st])[keep]
        x[np.abs(x) < tol] = 0.0
        on_left, on_bottom = x[:, 0] == 0.0, x[:, 1] == 0.0
        if np.any(on_left & on_bottom):
            raise ValueError("degenerate plate node on both symmetry edges")
        edges = np.zeros(radii.size, dtype=bool)
        edges[[0, -1]] = True
        tags = np.where(on_left | on_bottom, MIXED,
                        np.where(edges[keep], NEUMANN, INTERIOR))
        arc = (radii * dtheta * 2**level)[keep]
        loc_min = np.minimum(np.minimum(gap_prev[keep], gap_next[keep]), arc)
        loc_max = np.maximum(np.maximum(gap_prev[keep], gap_next[keep]), arc)
        support = np.where(loc_max <= near_spacing, near_factor * m * h,
                           far_factor * m * loc_max)
        parts.append((x, tags, np.column_stack([on_left, on_bottom]), loc_min, support))
    out = reorder_dirichlet_first(*(np.concatenate(field) for field in zip(*parts)))
    return NodeSet(*out, mesh_size=h)


def _octant_sphere_counts(nb: int) -> list:
    """Point counts of the rings of the octant sphere grid, pole first."""
    return [1] + [max(1, round(nb * math.sin(i * 0.5 * math.pi / nb))) + 1
                  for i in range(1, nb + 1)]


def _octant_sphere_points(rho: float, nb: int):
    """Roughly uniform point grid on the first-octant sphere surface: the
    pole, then rings of polar angle beta, each from phi = 0 to pi/2."""
    sin_b, cos_b, cos_p, sin_p = [0.0], [1.0], [1.0], [0.0]
    for i, count in enumerate(_octant_sphere_counts(nb)[1:], start=1):
        beta = i * 0.5 * math.pi / nb
        phis = [j * 0.5 * math.pi / (count - 1) for j in range(count)]
        sin_b += [math.sin(beta)] * count
        cos_b += [math.cos(beta)] * count
        cos_p += map(math.cos, phis)
        sin_p += map(math.sin, phis)
    ring = rho * np.array(sin_b)
    return np.column_stack([ring * cos_p, ring * sin_p, rho * np.array(cos_b)])


def _boussinesq_bands(nb0: int, n_layers: int, decay: float, floor: int, ratio: float):
    scale = ratio ** (np.arange(n_layers + 1) / n_layers)
    return [max(floor, round(nb0 / s**decay)) for s in scale]


def generate_boussinesq_nodes(b: float, r_inner: float, target: int,
                              m: int = 2, support_factor: float = 1.5,
                              band_decay: float = 0.35,
                              min_bands: int = 5) -> NodeSet:
    """Concentric-layer cloud on the octant shell, denser near the inner sphere.

    Layer radii are geometric between the two spheres; per-layer surface grids
    coarsen with distance (power-law decay with a floor) so layer counts
    decrease monotonically.  The layout is searched so the total lands close
    to ``target`` (within 2% for targets that are not degenerately small).
    """
    if r_inner >= b:
        raise ValueError("inner radius must be smaller than the outer radius")
    if target < 4:
        raise ValueError("target node count too small")
    ratio = b / r_inner

    layer_counts = {}

    def count_for(bands):
        total = 0
        for nb in bands:
            if nb not in layer_counts:
                layer_counts[nb] = sum(_octant_sphere_counts(nb))
            total += layer_counts[nb]
        return total

    # search layer ladders near a target-scaled reference; the band floor may
    # bind only in the outer tail, otherwise the cloud turns anisotropic
    ref_layers = max(2, round(20.0 * (target / 1386.0) ** (1.0 / 3.0)))
    chosen = None
    fallback = None
    for floor in (min_bands, 3, 2):
        for n_layers in sorted(range(2, 48), key=lambda n: abs(n - ref_layers)):
            for nb0 in range(floor, 48):
                bands = _boussinesq_bands(nb0, n_layers, band_decay, floor, ratio)
                count = count_for(bands)
                diff = abs(count - target)
                saturated = sum(1 for nb in bands if nb == floor)
                shape_ok = saturated <= max(1, len(bands) // 3)
                if fallback is None or diff < fallback[0]:
                    fallback = (diff, n_layers, bands)
                if shape_ok and diff / target <= 0.02:
                    chosen = (diff, n_layers, bands)
                    break
                if count > 3 * target:
                    break
            if chosen:
                break
        if chosen:
            break
    _, n_layers, bands = chosen or fallback
    radii = r_inner * ratio ** (np.arange(n_layers + 1) / n_layers)
    layers = [_octant_sphere_points(rho, nb) for rho, nb in zip(radii, bands)]
    pts = np.concatenate(layers)
    pts[np.abs(pts) < 1e-13 * b] = 0.0
    gaps = np.diff(radii)
    gap_prev, gap_next = np.r_[gaps[0], gaps], np.r_[gaps, gaps[-1]]
    arc = radii * 0.5 * math.pi / np.array(bands)
    sizes = [len(layer) for layer in layers]
    spacing = np.repeat(np.minimum(np.minimum(gap_prev, gap_next), arc), sizes)
    support = np.repeat(support_factor * m * np.maximum(np.maximum(gap_prev, gap_next), arc),
                        sizes)
    on_sphere = np.zeros(len(layers), dtype=bool)
    on_sphere[[0, -1]] = True
    on_sphere = np.repeat(on_sphere, sizes)
    masks = np.column_stack([pts[:, :2] == 0.0, np.zeros(len(pts), dtype=bool)])
    tags = np.where(masks.any(axis=1), MIXED, np.where(pts[:, 2] == 0.0, NEUMANN, INTERIOR))
    tags[on_sphere] = DIRICHLET
    masks[on_sphere] = True
    h = float(min(spacing))
    out = reorder_dirichlet_first(pts, tags, masks, spacing, support)
    return NodeSet(*out, mesh_size=h)
