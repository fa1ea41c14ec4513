"""Classical MLPG1/MLPG5 baselines: quadrature against MLS shape functions.

The stiffness rows integrate the elastic operator applied to the trial
expansion, which requires shape-function values *and* their standard (full)
derivatives at every quadrature point.  Each batch of the node loop queries
its union sets and point supports at once, then makes one
``batched_shape_eval`` call per chunk of subdomains within ``PAIR_BUDGET``
padded point-node pairs.  An evaluation counter records the per-point cost
that the direct methods avoid entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import elasticity as ela
from . import mls
from .assembly import (FunctionalRow, GlobalSystem, SolverConfig, UnsupportedClipError,
                       _assemble, _beta, boundary_operator, test_function, weak_contract,
                       weak_operator)

# Padded point-node pairs per call of ``batched_shape_eval`` (at least one
# subdomain per call): bounds the kernel's temporaries to a few MB.
PAIR_BUDGET = 65536


@dataclass
class ShapeFunctionEvaluation:
    """MLS values and first derivatives at one point."""

    point: np.ndarray
    active: np.ndarray
    values: np.ndarray          # (n_active,)
    gradients: np.ndarray       # (n_active, d)


def batched_shape_eval(points, node_points, deltas, centres, scales, m: int, eps: float,
                       real=None):
    """Shape functions and standard derivatives for a stack of subdomains.

    Subdomain b has the points ``points[b]`` (P, d) with support radii
    ``deltas[b]``, the basis of degree m in ``(x - centres[b]) / scales[b]``
    and the nodes ``node_points[b]`` (U, d), a superset of every point's
    active set; padding nodes (``real[b]`` False) get zero weight.  Returns
    values (b*P, U) and gradients (b*P, d, U), point-major, and per subdomain
    None or the ``NodeDeficiencyError`` of a moment matrix failing
    ``mls.COND_LIMIT`` at its first point; such a subdomain gets identity
    matrices and fails alone.  A singular matrix elsewhere raises.
    """
    nb, npts, d = points.shape
    deltas, centres, scales = deltas[..., None], centres[:, None, :], scales[:, None, None]
    p = mls.monomials((node_points - centres) / scales, m)        # (b, U, Q)
    q = p.shape[-1]
    # squared distances through one GEMM; keeps temporaries three-dimensional
    d2 = ((points**2).sum(axis=2)[:, :, None] + (node_points**2).sum(axis=2)[:, None, :]
          - 2.0 * (points @ node_points.transpose(0, 2, 1)))
    dist = np.sqrt(np.maximum(d2, 0.0))
    r = dist / deltas
    if real is not None:            # padding nodes sit on the support's rim
        r = np.where(real[:, None, :], r, 1.0)
    w, dphi = mls.gaussian(r, eps)
    radial = dphi / (deltas * np.maximum(dist, 1e-300))     # dphi = 0 at r = 0 and r >= 1
    iu, il = np.triu_indices(q)
    a_pairs = w @ (p[..., iu] * p[..., il])
    a = np.empty((nb, npts, q, q))
    a[..., iu, il] = a_pairs
    a[..., il, iu] = a_pairs
    eig = np.linalg.eigvalsh(a[:, 0])
    conds = eig[:, -1] / np.where(eig[:, 0] > 0.0, eig[:, 0], np.nan)
    ok = conds <= mls.COND_LIMIT
    errors = [None if good else mls.NodeDeficiencyError(x, float(cond))
              for good, x, cond in zip(ok, points[:, 0], conds)]
    a[~ok] = np.eye(q)
    p_x = mls.monomials((points - centres) / scales, m)            # (b, P, Q)
    maps = mls._first_derivative_maps(m, d)
    dp_x = (p_x @ maps.reshape(q, -1)).reshape(nb, npts, q, d) / scales[..., None]
    try:
        c = np.linalg.solve(a, p_x[..., None])[..., 0]
        cp = c @ p.swapaxes(1, 2)                                  # (b, P, U)
        # dA/dx_t @ c contracted without forming dw: the weight gradient is
        # radial[q,j] * (x_q - X_j), so the sum splits into two GEMM terms
        s = radial * cp
        sp = s @ p                                                 # (b, P, Q)
        da_c = points[..., None, :] * sp[..., None] \
            - np.stack([s @ (node_points[..., t:t + 1] * p) for t in range(d)], axis=3)
        dc = np.linalg.solve(a, dp_x - da_c)                       # (b, P, Q, d)
    except np.linalg.LinAlgError as err:
        raise mls.NodeDeficiencyError(points[0, 0], math.inf, str(err)) from None
    # gradients = (dc . p) w + cp * dw, assembled with 3D temporaries per axis
    gradients = np.empty((nb, npts, d, node_points.shape[1]))
    for t in range(d):
        gradients[:, :, t] = (dc[..., t] @ p.swapaxes(1, 2)) * w \
            + s * (points[..., t:t + 1] - node_points[:, None, :, t])
    return (cp * w).reshape(nb * npts, -1), gradients.reshape(nb * npts, d, -1), errors


def mls_shape_with_derivatives(x, nodes, m: int, eps: float = 4.0,
                               delta: float | None = None) -> ShapeFunctionEvaluation:
    """Classical shape functions and their analytic first derivatives at x."""
    x = np.asarray(x, dtype=float)
    if delta is None:
        delta = nodes.support_at(x)
    active = nodes.neighbors(x, delta)
    if active.size < mls.basis_size(m, nodes.dim):
        raise mls.NodeDeficiencyError(x, math.inf, "too few active nodes")
    values, gradients, errors = batched_shape_eval(
        x[None, None], nodes.points[active][None], np.full((1, 1), delta), x[None],
        np.full(1, delta), m, eps)
    if errors[0] is not None:
        raise errors[0]
    return ShapeFunctionEvaluation(x, active, values[0], gradients[0].T)


def assemble_mlpg(nodes, problem, variant: str = "mlpg1",
                  config: SolverConfig | None = None) -> GlobalSystem:
    """Assemble the classical system; BC handling matches the direct methods.

    The node loop, the boundary conditions and the scatter are the direct
    methods' (``assembly._assemble``); only the weak rows differ
    (``_classical_rows``).
    """
    config = config or SolverConfig()
    if variant not in ("mlpg1", "mlpg5"):
        raise ValueError(f"unknown classical variant {variant!r}")
    return _assemble(nodes, problem, variant, config, partial(_classical_rows, variant),
                     centred=False)


def _chunks(npts, nuni) -> list:
    """A batch's subdomains in chunks: sorted by rule size, then union size,
    and cut greedily in that order.  A chunk takes the next subdomain while
    its padded pairs (subdomains x largest rule x largest union) stay within
    ``PAIR_BUDGET``, and holds at least one."""
    order = np.lexsort((nuni, npts))
    chunks, start, most_p, most_u = [], 0, 0, 0
    for i, (p, u) in enumerate(zip(npts[order].tolist(), nuni[order].tolist())):
        most_p, most_u = max(most_p, p), max(most_u, u)
        if i > start and (i + 1 - start) * most_p * most_u > PAIR_BUDGET:
            chunks.append(order[start:i])
            start, most_p, most_u = i, p, u
    return chunks + [order[start:]]


def _classical_rows(variant, nodes, batch, problem, config, counts) -> list:
    """Each node's ``FunctionalRow`` (or error) against its union set.  A point
    within the bounding radius R of the centre has its nearest node within 2R,
    so the union reaches the largest support found there beyond R."""
    d, tmap, dmat = nodes.dim, ela.voigt_map(nodes.dim), ela.elastic_matrix(problem.material)
    rows, ready = [None] * len(batch), []
    for slot, (k, _, sub, tractions) in enumerate(batch):
        try:
            if variant == "mlpg1":
                rule = sub.interior_rule(config.quad_mlpg)
                test = test_function(sub, config)
                points = rule.points
                op = weak_operator(-rule.weights, test.gradients(points), dmat, tmap)
            else:
                test = None
                points, op = boundary_operator(sub, dmat, tmap,
                                               lambda piece: piece.rule(config.quad_mlpg))
            beta = _beta(sub, problem, config, ~nodes.masks[k], test=test, tractions=tractions)
        except UnsupportedClipError as err:
            rows[slot] = err
            continue
        ready.append((slot, k, sub.bounding_radius, points, op, beta))
    if not ready:
        return rows
    slots, ks, reach, points, ops, betas = zip(*ready)
    ks, reach = np.array(ks), np.array(reach)
    centres = nodes.points[ks]
    uptr, near = nodes.index.query_ball_batch(centres, 2.0 * reach * (1.0 + 1e-12))
    dmax = np.maximum.reduceat(nodes.support[near], uptr[:-1])
    uptr, union = nodes.index.query_ball_batch(centres, reach + dmax)
    npts, nuni = np.array([len(p) for p in points]), np.diff(uptr)
    start = np.cumsum(npts) - npts
    points, ops = np.concatenate(points), np.concatenate(ops)
    deltas = nodes.support[nodes.index.nearest_batch(points)]

    chunks = _chunks(npts, nuni)
    while chunks:           # one kernel call each; padding points repeat the first
        sel = chunks.pop()
        pm, um = np.arange(npts[sel].max()), np.arange(nuni[sel].max())
        pslot, uslot = pm < npts[sel, None], um < nuni[sel, None]
        take = start[sel, None] + np.where(pslot, pm, 0)
        members = union[uptr[sel, None] + np.where(uslot, um, 0)]
        try:
            _, grads, errors = batched_shape_eval(
                points[take], nodes.points[members], deltas[take], centres[sel],
                nodes.support[ks[sel]], config.m, config.eps, real=uslot)
        except mls.NodeDeficiencyError as err:      # a singular matrix: solve alone
            if sel.size == 1:
                rows[slots[sel[0]]] = err
            else:
                chunks += np.split(sel, sel.size)
            continue
        counts.update(chunks=1, pairs=int(npts[sel] @ nuni[sel]),    # adds to each
                      padded_pairs=take.size * um.size)
        blocks = weak_contract(ops[take] * pslot[..., None, None, None],
                               grads.reshape(*take.shape, d, um.size).swapaxes(-1, -2))
        for j, i in enumerate(sel):
            rows[slots[i]] = errors[j] or FunctionalRow(
                int(ks[i]), blocks[j, :nuni[i]], betas[i], active=union[uptr[i]:uptr[i + 1]],
                shape_evals=int(npts[i]))
    return rows
