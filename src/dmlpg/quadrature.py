"""Gauss-Legendre rules on boxes, disks, balls, and their boundary pieces.

All rules return physical-space points with the volume/area Jacobian absorbed
into the weights, so integrating a function is always ``weights @ f(points)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Points/weights in physical coordinates; normals attached for boundary rules."""

    points: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)
    normals: np.ndarray | None = None  # (n, d) outward unit normals

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


@lru_cache(maxsize=None)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre_1d(n: int):
    """Points and weights on [-1, 1], exact for polynomials of degree 2n-1."""
    if not 1 <= n <= 64:
        raise ValueError(f"point count {n} outside supported range [1, 64]")
    return _leggauss(n)


def _mapped_1d(n: int, lo: float, hi: float):
    x, w = gauss_legendre_1d(n)
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * x, 0.5 * (hi - lo) * w


def _angular_1d(n: int, lo: float, hi: float):
    """1D rule for an angular variable.

    A full period gets the equispaced midpoint rule (exact for trigonometric
    polynomials up to degree n-1); partial arcs use Gauss-Legendre.
    """
    if abs((hi - lo) - 2.0 * np.pi) <= 1e-12:
        step = (hi - lo) / n
        return lo + (np.arange(n) + 0.5) * step, np.full(n, step)
    return _mapped_1d(n, lo, hi)


@lru_cache(maxsize=None)
def _reference_box(n: int, d: int):
    """Tensor Gauss grid on [-1, 1]^d: points and per-axis weights, both (n^d, d).

    Index order is that of ``meshgrid(..., indexing="ij")``.
    """
    x, w = gauss_legendre_1d(n)
    idx = np.indices((n,) * d).reshape(d, -1).T
    points, weights = x[idx], w[idx]
    points.flags.writeable = False
    weights.flags.writeable = False
    return points, weights


def rule_box(lo, hi, n_per_axis: int) -> QuadratureRule:
    """Tensor-product rule over an axis-aligned box given by corner arrays.

    The corners may be stacks (..., d): the rule's points are then (..., P, d)
    and its weights (..., P), box by box.  The cached reference grid is
    mapped axis by axis; each point's weight is the product of its mapped 1D
    weights, taken in axis order.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    ref_pts, ref_wts = _reference_box(n_per_axis, lo.shape[-1])
    half = 0.5 * (hi - lo)[..., None, :]
    pts = 0.5 * (hi + lo)[..., None, :] + half * ref_pts
    axis_wts = half * ref_wts
    wts = axis_wts[..., 0].copy()
    for a in range(1, lo.shape[-1]):
        wts *= axis_wts[..., a]
    return QuadratureRule(pts, wts)


def rule_box_face(lo, hi, axis: int, side: int, n_per_axis: int) -> QuadratureRule:
    """Rule over one face of a box with the outward normal attached.

    ``axis`` selects the fixed coordinate and ``side`` is -1 (low face) or +1.
    The corners may be stacks (..., d), as in ``rule_box``.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = lo.shape[-1]
    fixed = (lo if side < 0 else hi)[..., axis, None]
    free = [i for i in range(d) if i != axis]
    if free:
        sub = rule_box(lo[..., free], hi[..., free], n_per_axis)
        pts = np.empty(sub.points.shape[:-1] + (d,))
        pts[..., free] = sub.points
        pts[..., axis] = fixed
        wts = sub.weights
    else:
        pts = fixed[..., None].copy()
        wts = np.ones(pts.shape[:-1])
    normals = np.zeros_like(pts)
    normals[..., axis] = float(side)
    return QuadratureRule(pts, wts, normals=normals)


def rule_segment(p0, p1, n: int, normal) -> QuadratureRule:
    """Rule along a straight 2D segment with a constant unit normal."""
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    t, w = _mapped_1d(n, 0.0, 1.0)
    pts = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    wts = w * np.linalg.norm(p1 - p0)
    normals = np.broadcast_to(np.asarray(normal, dtype=float), pts.shape).copy()
    return QuadratureRule(pts, wts, normals=normals)


def rule_arc(center, radius: float, theta0: float, theta1: float, n: int,
             outward: float = 1.0) -> QuadratureRule:
    """Rule on a circular arc; normals point radially, flipped by ``outward``."""
    th, w = _angular_1d(n, theta0, theta1)
    directions = np.stack([np.cos(th), np.sin(th)], axis=-1)
    pts = np.asarray(center, dtype=float)[None, :] + radius * directions
    return QuadratureRule(pts, w * radius, normals=outward * directions)


def rule_polar(center, segments, n_radial: int, n_angular: int) -> QuadratureRule:
    """Composite polar rule around ``center``.

    ``segments`` is a list of (theta0, theta1, rlo_fn, rhi_fn); the callables
    map an angle array to radial bounds, letting one rule cover disks clipped
    by straight edges or by a circular hole through the center.
    """
    center = np.asarray(center, dtype=float)
    all_pts, all_wts = [], []
    for th0, th1, rlo_fn, rhi_fn in segments:
        th, wth = _angular_1d(n_angular, th0, th1)
        rlo = np.maximum(rlo_fn(th), 0.0)
        rhi = rhi_fn(th)
        u, wu = gauss_legendre_1d(n_radial)
        # map [-1,1] to [rlo, rhi] per angle
        r = 0.5 * (rhi + rlo)[None, :] + 0.5 * (rhi - rlo)[None, :] * u[:, None]
        wr = 0.5 * (rhi - rlo)[None, :] * wu[:, None]
        w = (wr * wth[None, :]) * r  # polar Jacobian
        cs = np.stack([np.cos(th), np.sin(th)], axis=-1)
        pts = center[None, None, :] + r[:, :, None] * cs[None, :, :]
        all_pts.append(pts.reshape(-1, 2))
        all_wts.append(w.ravel())
    return QuadratureRule(np.concatenate(all_pts), np.concatenate(all_wts))


def rule_disk(center, radius: float, n_radial: int, n_angular: int,
              arcs=((0.0, 2.0 * np.pi),)) -> QuadratureRule:
    """``rule_polar`` over the sectors ``arcs`` ((theta0, theta1) pairs) of a
    disk, with its offsets from the centre built once per (radius, counts, arcs)."""
    offsets, weights = _disk_offsets(float(radius), n_radial, n_angular, tuple(arcs))
    return QuadratureRule(np.asarray(center, dtype=float) + offsets, weights)


@lru_cache(maxsize=1024)
def _disk_offsets(radius: float, n_radial: int, n_angular: int, arcs: tuple):
    rule = rule_polar(np.zeros(2), [(a, b, np.zeros_like, lambda th: np.full_like(th, radius))
                                    for a, b in arcs], n_radial, n_angular)
    rule.weights.flags.writeable = False
    return rule.points, rule.weights


def rule_spherical(center, radius: float, polar_range, azim_range,
                   n_radial: int, n_angular: int) -> QuadratureRule:
    """Spherical-coordinate rule over a ball sector (polar angle from +z)."""
    center = np.asarray(center, dtype=float)
    r, wr = _mapped_1d(n_radial, 0.0, radius)
    b, wb = _mapped_1d(n_angular, *polar_range)
    p, wp = _angular_1d(n_angular, *azim_range)
    R, B, P = np.meshgrid(r, b, p, indexing="ij")
    W = (np.multiply.outer(np.multiply.outer(wr, wb), wp) * R**2 * np.sin(B))
    pts = np.stack(
        [R * np.sin(B) * np.cos(P), R * np.sin(B) * np.sin(P), R * np.cos(B)],
        axis=-1,
    ).reshape(-1, 3) + center[None, :]
    return QuadratureRule(pts, W.ravel())


def rule_sphere_patch(center, radius: float, polar_range, azim_range,
                      n_angular: int, outward: float = 1.0) -> QuadratureRule:
    """Rule on a spherical surface patch with radial normals."""
    center = np.asarray(center, dtype=float)
    b, wb = _mapped_1d(n_angular, *polar_range)
    p, wp = _angular_1d(n_angular, *azim_range)
    B, P = np.meshgrid(b, p, indexing="ij")
    W = np.multiply.outer(wb, wp) * radius**2 * np.sin(B)
    directions = np.stack(
        [np.sin(B) * np.cos(P), np.sin(B) * np.sin(P), np.cos(B)], axis=-1
    ).reshape(-1, 3)
    pts = center[None, :] + radius * directions
    return QuadratureRule(pts, W.ravel(), normals=outward * directions)


def rule_plane_sector(center, radius: float, axis: int, side: int,
                      azim_range, n_radial: int, n_angular: int) -> QuadratureRule:
    """Flat piece of a clipped 3D ball lying in an axis plane through its center.

    The piece is a disk sector of the given radius inside the plane
    ``x[axis] = center[axis]``; for a clip keeping the side ``side`` of the
    plane, the outward normal of the kept region is ``side * e_axis`` (e.g.
    keeping x >= c, side=-1, gives normal -e_x).
    """
    center = np.asarray(center, dtype=float)
    u_ax, v_ax = [i for i in range(3) if i != axis]
    r, wr = _mapped_1d(n_radial, 0.0, radius)
    t, wt = _angular_1d(n_angular, *azim_range)
    R, T = np.meshgrid(r, t, indexing="ij")
    W = np.multiply.outer(wr, wt) * R
    pts = np.tile(center, (R.size, 1))
    pts[:, u_ax] += (R * np.cos(T)).ravel()
    pts[:, v_ax] += (R * np.sin(T)).ravel()
    normals = np.zeros_like(pts)
    normals[:, axis] = float(side)
    return QuadratureRule(pts, W.ravel(), normals=normals)

