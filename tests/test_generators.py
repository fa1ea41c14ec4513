"""The vectorised node generators against their former per-point loops.

``generate_plate_nodes`` and ``generate_boussinesq_nodes`` build their clouds
with array operations; the oracles below are the per-point loops they
replace, kept verbatim.  Every ``NodeSet`` field must be equal, bit for bit.
"""

import math

import numpy as np
import pytest

from dmlpg import benchmarks as bm
from dmlpg import geometry as geo

FIELDS = ("points", "tags", "masks", "spacing", "support", "mesh_size")


def _assert_same_cloud(nodes, oracle):
    for name in FIELDS:
        got, want = getattr(nodes, name), getattr(oracle, name)
        assert np.asarray(got).dtype == np.asarray(want).dtype, name
        assert np.array_equal(got, want), name


def _snap(values: np.ndarray, tol: float) -> np.ndarray:
    values = np.asarray(values, dtype=float).copy()
    values[np.abs(values) < tol] = 0.0
    return values


def _plate_oracle(a: float, b: float, nr: int, ntheta: int,
                  grading: float = 1.0, m: int = 2,
                  near_factor: float = 2.0, far_factor: float = 2.5):
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

    def level_for(k: int, r: float, gap: float) -> int:
        level = 0
        while level < max_level and r * dtheta * 2**level < gap / 1.4:
            level += 1
        return level

    pts, tags, masks, spacing, support = [], [], [], [], []
    for j in range(ntheta):
        theta = j * dtheta
        ct, st = math.cos(theta), math.sin(theta)
        r_max = b / max(abs(ct), abs(st))
        radii = [a]
        step = h_r
        while radii[-1] + step < r_max - 0.45 * step:
            radii.append(radii[-1] + step)
            step *= grading
        radii.append(r_max)
        gaps = [radii[k + 1] - radii[k] for k in range(len(radii) - 1)]
        for k, r in enumerate(radii):
            gap_prev = gaps[k - 1] if k > 0 else gaps[0]
            gap_next = gaps[k] if k < len(gaps) else gap_prev
            level = level_for(k, r, max(gap_prev, gap_next))
            if j % 2**level:
                continue
            x = _snap(np.array([r * ct, r * st]), 1e-13 * b)
            on_hole = k == 0
            on_outer = k == len(radii) - 1
            on_bottom = x[1] == 0.0
            on_left = x[0] == 0.0
            if on_left and on_bottom:
                raise ValueError("degenerate plate node on both symmetry edges")
            if on_left:
                tag, mask = geo.MIXED, (True, False)
            elif on_bottom:
                tag, mask = geo.MIXED, (False, True)
            elif on_hole or on_outer:
                tag, mask = geo.NEUMANN, (False, False)
            else:
                tag, mask = geo.INTERIOR, (False, False)
            arc = r * dtheta * 2**level
            loc_min = min(gap_prev, gap_next, arc)
            loc_max = max(gap_prev, gap_next, arc)
            pts.append(x)
            tags.append(tag)
            masks.append(mask)
            spacing.append(loc_min)
            if loc_max <= near_spacing:
                support.append(near_factor * m * h)
            else:
                support.append(far_factor * m * loc_max)
    out = geo.reorder_dirichlet_first(np.array(pts), np.array(tags), np.array(masks),
                                  np.array(spacing), np.array(support))
    return geo.NodeSet(*out, mesh_size=h)



def _sphere_oracle(rho: float, nb: int):
    pts = [np.array([0.0, 0.0, rho])]
    for i in range(1, nb + 1):
        beta = i * 0.5 * math.pi / nb
        count = max(1, round(nb * math.sin(beta)))
        for j in range(count + 1):
            phi = j * 0.5 * math.pi / count
            pts.append(np.array([
                rho * math.sin(beta) * math.cos(phi),
                rho * math.sin(beta) * math.sin(phi),
                rho * math.cos(beta),
            ]))
    return np.array(pts)



def _bands_oracle(nb0: int, n_layers: int, decay: float, floor: int, ratio: float):
    scale = ratio ** (np.arange(n_layers + 1) / n_layers)
    return [max(floor, round(nb0 / s**decay)) for s in scale]


def _shell_oracle(b: float, r_inner: float, target: int,
                  m: int = 2, support_factor: float = 1.5,
                  band_decay: float = 0.35,
                  min_bands: int = 5):
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
                layer_counts[nb] = len(_sphere_oracle(1.0, nb))
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
                bands = _bands_oracle(nb0, n_layers, band_decay, floor, ratio)
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
    pts, tags, masks, spacing, support = [], [], [], [], []
    tol = 1e-13 * b
    for l, (rho, nb) in enumerate(zip(radii, bands)):
        layer = _snap(_sphere_oracle(rho, nb), tol)
        gap_prev = radii[l] - radii[l - 1] if l > 0 else radii[1] - radii[0]
        gap_next = radii[l + 1] - radii[l] if l < n_layers else gap_prev
        arc = rho * 0.5 * math.pi / nb
        on_sphere = l == 0 or l == n_layers
        for x in layer:
            mask = [x[0] == 0.0, x[1] == 0.0, False]
            if on_sphere:
                tag, mask = geo.DIRICHLET, [True, True, True]
            elif any(mask):
                tag = geo.MIXED
            elif x[2] == 0.0:
                tag = geo.NEUMANN
            else:
                tag = geo.INTERIOR
            pts.append(x)
            tags.append(tag)
            masks.append(mask)
            spacing.append(min(gap_prev, gap_next, arc))
            support.append(support_factor * m * max(gap_prev, gap_next, arc))
    h = float(min(spacing))
    out = geo.reorder_dirichlet_first(np.array(pts), np.array(tags), np.array(masks),
                                  np.array(spacing), np.array(support))
    return geo.NodeSet(*out, mesh_size=h)


def _plate_args(level):
    nr0, nt0, g0 = bm.PLATE_BASE
    problem = bm.PlateProblem()
    return (problem.hole_radius, problem.half_width, (nr0 - 1) * 2**level + 1,
            (nt0 - 1) * 2**level + 1, g0 ** (1.0 / 2**level))


@pytest.mark.parametrize("args", [_plate_args(level) for level in range(4)]
                         + [(1.0, 4.0, 24, 21, 1.08)])
def test_plate_cloud_matches_the_per_point_loop(args):
    _assert_same_cloud(geo.generate_plate_nodes(*args), _plate_oracle(*args))


def test_plate_rejects_a_node_on_both_symmetry_edges():
    # a hole of radius 1e-15 puts its first node within the snap tolerance
    # of both x = 0 and y = 0
    for generate in (geo.generate_plate_nodes, _plate_oracle):
        with pytest.raises(ValueError, match="degenerate plate node on both symmetry edges"):
            generate(1e-15, 1.0, 5, 5, 1.0)


@pytest.mark.parametrize("target", [8, 800, 1386, 11088])
def test_shell_cloud_matches_the_per_point_loop(target):
    problem = bm.BoussinesqProblem()
    args = (problem.outer_radius, problem.inner_radius, target)
    _assert_same_cloud(geo.generate_boussinesq_nodes(*args), _shell_oracle(*args))
