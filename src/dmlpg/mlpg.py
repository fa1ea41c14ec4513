"""Classical MLPG1/MLPG5 baselines: quadrature against MLS shape functions.

The stiffness rows integrate the elastic operator applied to the trial
expansion, which requires shape-function values *and* their standard (full)
derivatives at every quadrature point.  Evaluations are batched per
subdomain; an evaluation counter records the per-point cost that the direct
methods avoid entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import elasticity as ela
from . import mls
from .assembly import (FunctionalRow, GlobalSystem, SolverConfig, _assemble, _beta,
                       boundary_operator, test_function, weak_contract, weak_operator)


@dataclass
class ShapeFunctionEvaluation:
    """MLS values and first derivatives at one point."""

    point: np.ndarray
    active: np.ndarray
    values: np.ndarray          # (n_active,)
    gradients: np.ndarray       # (n_active, d)


def batched_shape_eval(points, node_points, deltas, basis: mls.PolyBasis,
                       eps: float, full_cond_check: bool = True):
    """Shape functions and standard derivatives at a batch of points.

    ``node_points`` is a superset of every point's active set; nodes beyond a
    point's support get exactly zero value and gradient, so using the union
    changes nothing.  The moment matrices are assembled from the symmetric
    monomial pairs (one GEMM) and the dA/dx contraction is fused, which keeps
    the per-subdomain cost linear in the union size.  Returns values
    (n_pts, n_nodes), gradients (n_pts, n_nodes, d), and condition estimates
    (all points when ``full_cond_check``, else the first point only).
    """
    points = np.atleast_2d(points)
    npts, d = points.shape
    deltas = np.broadcast_to(np.asarray(deltas, dtype=float), (npts,))
    p = basis.values(node_points)                     # (nU, Q)
    q = p.shape[1]
    # squared distances through one GEMM; keeps temporaries two-dimensional
    d2 = (np.add.outer((points**2).sum(axis=1), (node_points**2).sum(axis=1))
          - 2.0 * (points @ node_points.T))
    dist = np.sqrt(np.maximum(d2, 0.0))
    r = dist / deltas[:, None]
    w, dphi = mls.gaussian(r, eps)
    with np.errstate(divide="ignore", invalid="ignore"):
        radial = np.where((dist > 0.0) & (r < 1.0),
                          dphi / (deltas[:, None] * np.maximum(dist, 1e-300)), 0.0)
    iu, il = np.triu_indices(q)
    a_pairs = w @ (p[:, iu] * p[:, il])
    a = np.empty((npts, q, q))
    a[:, iu, il] = a_pairs
    a[:, il, iu] = a_pairs
    sample = a if full_cond_check else a[:1]
    eig = np.linalg.eigvalsh(sample)
    conds = eig[:, -1] / np.where(eig[:, 0] > 0.0, eig[:, 0], np.nan)
    if not np.all(np.isfinite(conds)) or np.any(conds > mls.COND_LIMIT):
        bad = int(np.nanargmax(np.where(np.isfinite(conds), conds, np.inf)))
        raise mls.NodeDeficiencyError(points[bad], float(conds[bad]))
    p_x = basis.values(points)                        # (n, Q)
    dp_x = basis.gradients(points)                    # (n, Q, d)
    try:
        c = np.linalg.solve(a, p_x[:, :, None])[:, :, 0]
        cp = c @ p.T                                  # (n, nU)
        # dA/dx_t @ c contracted without forming dw: the weight gradient is
        # radial[q,j] * (x_q - X_j), so the sum splits into two GEMM terms
        s = radial * cp
        sp = s @ p                                    # (n, Q)
        da_c = points[:, None, :] * sp[:, :, None] \
            - np.stack([s @ (node_points[:, t:t + 1] * p) for t in range(d)], axis=2)
        dc = np.linalg.solve(a, dp_x - da_c)          # (n, Q, d)
    except np.linalg.LinAlgError as err:
        raise mls.NodeDeficiencyError(points[0], math.inf, str(err)) from None
    values = cp * w
    # gradients = (dc . p) w + cp * dw, assembled with 2D temporaries per axis
    gradients = np.empty((npts, node_points.shape[0], d))
    for t in range(d):
        gradients[:, :, t] = (dc[:, :, t] @ p.T) * w \
            + cp * radial * (points[:, t:t + 1] - node_points[None, :, t])
    return values, gradients, conds


def mls_shape_with_derivatives(x, nodes, m: int, eps: float = 4.0,
                               delta: float | None = None) -> ShapeFunctionEvaluation:
    """Classical shape functions and their analytic first derivatives at x."""
    x = np.asarray(x, dtype=float)
    if delta is None:
        delta = nodes.support_at(x)
    active = nodes.neighbors(x, delta)
    if active.size < mls.basis_size(m, nodes.dim):
        raise mls.NodeDeficiencyError(x, math.inf, "too few active nodes")
    basis = mls.PolyBasis(m, nodes.dim, x, delta)
    values, gradients, _ = batched_shape_eval(
        x[None, :], nodes.points[active], np.array([delta]), basis, eps)
    return ShapeFunctionEvaluation(x, active, values[0], gradients[0])


def _union_set(k: int, nodes, sub):
    """Union of the active sets over the subdomain.

    Every quadrature point lies within the bounding radius of the center, so
    its nearest node sits within twice that radius; the union then only needs
    to reach one local support radius beyond the subdomain.
    """
    x = nodes.points[k]
    near = nodes.index.query_ball(x, 2.0 * sub.bounding_radius * (1.0 + 1e-12))
    dmax = float(nodes.support[near].max())
    return nodes.index.query_ball(x, sub.bounding_radius + dmax)


def _point_supports(points, nodes):
    """Support radius at each point: its nearest node's delta."""
    return nodes.support[nodes.index.nearest_batch(points)]


def assemble_mlpg(nodes, problem, variant: str = "mlpg1",
                  config: SolverConfig | None = None) -> GlobalSystem:
    """Assemble the classical system; BC handling matches the direct methods.

    The node loop, the boundary conditions and the scatter are the direct
    methods' (``assembly._assemble``); only the weak rows differ
    (``_classical_row``).
    """
    config = config or SolverConfig()
    if variant not in ("mlpg1", "mlpg5"):
        raise ValueError(f"unknown classical variant {variant!r}")
    return _assemble(nodes, problem, variant, config,
                     partial(_classical_row, nodes, variant), centred=False)


def _classical_row(nodes, variant: str, k: int, sub, problem, config: SolverConfig,
                   scale: float, survivors, cache) -> FunctionalRow:
    """Weak-form blocks of node k against the shape functions of its union set.

    MLPG1 integrates the test-function gradient over the subdomain, MLPG5 the
    traction over the boundary pieces with unknown traction; both evaluate
    the shape-function derivatives at every quadrature point.
    """
    d = nodes.dim
    tmap = ela.voigt_map(d)
    dmat = ela.elastic_matrix(problem.material)
    union = _union_set(k, nodes, sub)
    basis = mls.PolyBasis(config.m, d, nodes.points[k], scale)
    if variant == "mlpg1":
        rule = sub.interior_rule(config.quad_mlpg)
        test = test_function(sub, config)
        points = rule.points
        op = weak_operator(-rule.weights, test.gradients(points), dmat, tmap)
        beta = _beta(sub, problem, config, survivors, test=test)
    else:
        points, op = boundary_operator(sub, dmat, tmap,
                                       lambda piece: piece.rule(config.quad_mlpg))
        beta = _beta(sub, problem, config, survivors, test=None)
    _, grads, _ = batched_shape_eval(
        points, nodes.points[union], _point_supports(points, nodes), basis,
        config.eps, full_cond_check=False)
    return FunctionalRow(k, weak_contract(op, grads), beta, active=union,
                         shape_evals=points.shape[0])
