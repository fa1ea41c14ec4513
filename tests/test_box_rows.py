"""The direct box rows from the subdomain plan (``assembly._box_rows``) against
the per-node functions on the built ``Subdomain``: ``_lambda_volume``,
``_lambda_boundary`` and ``_beta``, bit for bit, and the builders' errors.

The boxes cover every subset of clipped faces of 2D and 3D boxes (per axis:
none, low, high or both), on bound planes that prescribe some, every or no
traction component, or carry no boundary condition, plus boxes shrunk clear
of a hole.
"""

import itertools
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from dmlpg import assembly as asm
from dmlpg import elasticity as ela
from dmlpg import geometry as geo
from dmlpg import mls

# (axis, side) -> prescribed traction components; (2, +1) has no condition
PLANES = {(0, -1): (False, True, True), (0, 1): (True, True, True),
          (1, -1): (False, False, False), (1, 1): (True, False, True),
          (2, -1): (True, True, False), (2, 1): None}
ERRORS = ("collapses under clipping", "clipped by a non-boundary plane",
          "does not vanish on a boundary piece with unknown traction")


class _Planes(geo.DomainGeometry):
    """An axis box whose bound planes carry the conditions of ``PLANES``,
    with an optional hole that shrinks the boxes near it."""

    def __init__(self, lengths, hole=None):
        self.dim = len(lengths)
        self.bounds_lo = np.zeros(self.dim)
        self.bounds_hi = np.asarray(lengths, dtype=float)
        self.hole = hole

    def plane_bc(self, axis, side):
        known = PLANES[axis, side]
        return None if known is None else geo.PlaneBC("mixed", known[:self.dim])

    def curves(self):
        if self.hole is None:
            return []
        return [("hole", np.asarray(self.hole[0], dtype=float), self.hole[1], "outside")]


class _Loads:
    """Row-wise tractions and body force on a ``_Planes`` domain."""

    def __init__(self, geometry, body: bool):
        self.geometry = geometry
        mode = ela.PLANE_STRESS if geometry.dim == 2 else ela.SOLID_3D
        self.material = ela.MaterialModel(1.0, 0.3, mode)
        self.body = (lambda points: np.exp(-points)) if body else None

    def traction(self, points, normals):
        return np.cos(points) + normals * points.sum(axis=1, keepdims=True)


def _cases(d):
    """(geometry, centres, spacings): boxes of side 1.5 clipped on each subset
    of faces, then boxes shrunk by a hole, one of them clipped by x = 0, and
    one box outside the domain, which collapses."""
    for both in itertools.product([False, True], repeat=d):
        centres = [[(2.0, 0.3, 3.7, 0.5)[p] for p in pattern]
                   for pattern in itertools.product(range(4), repeat=d)
                   if [p == 3 for p in pattern] == list(both)]
        yield _Planes(np.where(both, 1.0, 4.0)), np.array(centres), np.full(len(centres), 1.5)
    hole = np.r_[0.8, np.full(d - 1, 2.0)]
    offsets = np.eye(d)[[0, 0, 1, 1, 0]] * np.array([-0.6, 0.9, 0.5, -0.7, -1.8])[:, None]
    yield _Planes(np.full(d, 4.0), (hole, 0.3)), hole + offsets, np.full(5, 1.0)


def _masks(plan, geometry):
    """Every other node prescribes the components its clipped faces leave
    unknown, so that DMLPG1's test function may survive on them."""
    d = geometry.dim
    known = np.array([[PLANES[axis, side] or (True,) * 3 for axis in range(d)]
                      for side in (-1, 1)])[..., :d]
    masks = (plan.faces[..., None] & ~known).any(axis=(1, 2))
    masks[1::2] = False
    return masks


def _per_node(k, points, plan, nodes, problem, method, config):
    """Node k's functional and right-hand side on its built subdomain."""
    sub = geo.build_subdomain(points[k], "box", plan.size[k], problem.geometry)
    basis = mls.PolyBasis(config.m, points.shape[1], sub.center, float(nodes.support[k]))
    dmat = ela.elastic_matrix(problem.material)
    if method == "dmlpg1":
        lam = asm._lambda_volume(sub, basis, dmat, config)
        test = asm.test_function(sub, config)
    else:
        lam = asm._lambda_boundary(sub, basis, dmat, config)
        test = None
    return sub, lam, asm._beta(sub, problem, config, ~nodes.masks[k], test=test)


@pytest.mark.parametrize("body", [False, True])
@pytest.mark.parametrize("method", ["dmlpg1", "dmlpg5"])
@pytest.mark.parametrize("d", [2, 3])
def test_box_rows_match_the_per_node_functions(d, method, body):
    config = asm.SolverConfig()
    patterns, shrunk, built, failed = set(), 0, 0, Counter()
    for geometry, points, spacing in _cases(d):
        problem = _Loads(geometry, body)
        plan = asm.plan_subdomains(points, spacing, geometry, config)
        assert (plan.shape == "box").all() and not plan.curved.any()
        patterns.update(map(tuple, plan.faces.reshape(len(points), -1).tolist()))
        shrunk += int(np.count_nonzero(plan.size < spacing))
        nodes = SimpleNamespace(dim=d, points=points, support=2.5 * spacing,
                                masks=_masks(plan, geometry))
        boxes = np.arange(len(points))
        heads, lam, beta, failures = asm._box_rows(
            method, nodes, problem, config, plan, boxes, boxes,
            asm.StageTimer("rows_s", "traction_s"))
        assert heads.tolist() == boxes.tolist()
        for k in boxes.tolist():
            try:
                _, expect_lam, expect_beta = _per_node(k, points, plan, nodes, problem,
                                                       method, config)
            except geo.UnsupportedClipError as err:
                assert str(failures.pop(k)) == str(err)
                failed[next(t for t in ERRORS if str(err).endswith(t))] += 1
                continue
            built += 1
            assert np.array_equal(lam[k], expect_lam)
            assert np.array_equal(beta[k], expect_beta)
        assert not failures
    assert len(patterns) == 4 ** d and shrunk >= 3
    assert built >= 4 ** d // 4
    collapses, unbound, survives = (failed[t] for t in ERRORS)
    assert collapses == 1
    assert (unbound > 0) == (d == 3)
    assert (survives > 0) == (method == "dmlpg1")


@pytest.mark.parametrize("scale_rows", [False, True])
@pytest.mark.parametrize("method", ["dmlpg1", "dmlpg5"])
@pytest.mark.parametrize("d", [2, 3])
def test_weak_rows_take_the_box_rows_as_the_node_loop_did(d, method, scale_rows):
    """The functionals and right-hand sides of the healthy boxes: each
    node's own row (no sharing), over its measure with ``scale_rows``, and
    with the rows of its prescribed components zeroed."""
    config = asm.SolverConfig(scale_rows=scale_rows, cache=False)
    row_builder = asm.dmlpg1_row if method == "dmlpg1" else asm.dmlpg5_row
    for geometry, points, spacing in _cases(d):
        problem = _Loads(geometry, body=False)
        plan = asm.plan_subdomains(points, spacing, geometry, config)
        masks = _masks(plan, geometry)
        healthy = []
        for k in range(len(points)):
            nodes = SimpleNamespace(dim=d, points=points, support=2.5 * spacing, masks=masks)
            try:
                _per_node(k, points, plan, nodes, problem, method, config)
                healthy.append(k)
            except geo.UnsupportedClipError:
                pass
        pts = points[healthy]
        nodes = SimpleNamespace(dim=d, n=len(healthy), points=pts, spacing=spacing[healthy],
                                support=2.5 * spacing[healthy], masks=masks[healthy],
                                tags=np.full(len(healthy), geo.NEUMANN))
        functionals, rhs, _, _, failures, _ = asm._weak_rows(
            nodes, problem, config, method, None,
            asm.StageTimer("subdomains_s", "rows_s", "traction_s"), Counter())
        assert not failures
        for k in range(nodes.n):
            sub = geo.build_subdomain(pts[k], "box", plan.size[healthy[k]], geometry)
            row = row_builder(k, sub, problem, config, float(nodes.support[k]), ~nodes.masks[k])
            measure = sub.measure if scale_rows else 1.0
            lam = row.lam / measure
            lam[:, nodes.masks[k], :] = 0.0
            assert np.array_equal(functionals[k], lam.transpose(1, 2, 0))
            assert np.array_equal(rhs[d * k: d * k + d], row.beta / measure)
