import math

import numpy as np
import pytest

from dmlpg import geometry as geo


def test_beam_grid_counts():
    nodes = geo.generate_beam_nodes(33, 5, 8.0, 1.0)
    assert nodes.n == 165
    assert nodes.mesh_size == 0.25
    assert nodes.n_dirichlet == 5
    assert np.all(nodes.points[:5, 0] == 0.0)


def test_beam_minimal_grid():
    nodes = geo.generate_beam_nodes(2, 2, 1.0, 1.0)
    assert nodes.n == 4
    assert nodes.mesh_size == 1.0


def test_beam_refined_grid():
    nodes = geo.generate_beam_nodes(65, 9, 8.0, 1.0)
    assert nodes.n == 585
    assert nodes.mesh_size == 0.125


def test_beam_rejects_tiny_counts():
    with pytest.raises(ValueError):
        geo.generate_beam_nodes(1, 5, 8.0, 1.0)
    with pytest.raises(ValueError):
        geo.generate_beam_nodes(5, 1, 8.0, 1.0)


def test_dirichlet_ordering_invariant():
    nodes = geo.generate_beam_nodes(9, 5, 8.0, 1.0)
    first = nodes.tags[: nodes.n_dirichlet]
    rest = nodes.tags[nodes.n_dirichlet:]
    assert np.all(first == geo.DIRICHLET)
    assert np.all(rest != geo.DIRICHLET)


def test_plate_reference_count():
    nr, nt, g = 24, 21, 1.08
    nodes = geo.generate_plate_nodes(1.0, 4.0, nr, nt, g)
    assert nodes.n == 535
    assert nodes.n_dirichlet == 0
    # hole nodes exist and are tagged traction-free except the two corners
    r = np.hypot(nodes.points[:, 0], nodes.points[:, 1])
    on_hole = np.isclose(r, 1.0)
    assert np.any(on_hole)
    corners = np.isclose(nodes.points[:, 0], 0.0) | np.isclose(nodes.points[:, 1], 0.0)
    assert np.all(nodes.tags[on_hole & ~corners] == geo.NEUMANN)
    assert np.all(nodes.tags[on_hole & corners] == geo.MIXED)


def test_plate_minimal():
    nodes = geo.generate_plate_nodes(1.0, 4.0, 2, 2, 1.0)
    assert nodes.n == 4
    expect = {(1.0, 0.0), (4.0, 0.0), (0.0, 1.0), (0.0, 4.0)}
    assert {tuple(p) for p in nodes.points} == expect


def test_plate_rejects_bad_radii():
    with pytest.raises(ValueError):
        geo.generate_plate_nodes(4.0, 1.0, 5, 5, 1.1)


def test_plate_refinement_density():
    base = geo.generate_plate_nodes(1.0, 4.0, 24, 21, 1.08)
    fine = geo.generate_plate_nodes(1.0, 4.0, 47, 41, 1.08 ** 0.5)
    finest = geo.generate_plate_nodes(1.0, 4.0, 93, 81, 1.08 ** 0.25)
    assert 3.0 < fine.n / base.n < 5.0
    assert 3.0 < finest.n / fine.n < 5.0


def test_boussinesq_count_and_grading():
    nodes = geo.generate_boussinesq_nodes(10.0, 0.25, 1386)
    assert abs(nodes.n - 1386) <= 0.02 * 1386
    rho = np.linalg.norm(nodes.points, axis=1)
    assert np.all(rho >= 0.25 - 1e-12)
    assert np.all(rho <= 10.0 + 1e-12)
    layers = np.unique(np.round(rho, 9))
    counts = [int(np.sum(np.isclose(rho, r))) for r in layers]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[-1] < counts[0]
    # supports grow with distance
    order = np.argsort(rho)
    assert nodes.support[order[-1]] > nodes.support[order[0]]
    # spheres are fully prescribed, coordinate planes partially
    on_spheres = np.isclose(rho, 0.25) | np.isclose(rho, 10.0)
    assert np.all(nodes.tags[on_spheres] == geo.DIRICHLET)
    inner_plane = (~on_spheres) & (np.isclose(nodes.points[:, 0], 0.0))
    assert np.all(nodes.tags[inner_plane] == geo.MIXED)


def test_boussinesq_tiny_target_valid():
    nodes = geo.generate_boussinesq_nodes(10.0, 0.25, 8)
    assert nodes.n >= 8
    assert np.all((nodes.tags >= 0) & (nodes.tags <= 3))


def test_boussinesq_rejects_bad_radii():
    with pytest.raises(ValueError):
        geo.generate_boussinesq_nodes(0.25, 10.0, 100)


@pytest.mark.parametrize("field", ["points", "spacing", "support"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nodeset_rejects_non_finite_values_naming_the_node(field, bad):
    base = geo.generate_beam_nodes(9, 5, 8.0, 1.0)
    arrays = {"points": base.points.copy(), "spacing": base.spacing.copy(),
              "support": base.support.copy()}
    arrays[field][[7, 12]] = bad        # a points row gets bad in both coordinates
    with pytest.raises(ValueError, match=r"node 7 has a non-finite"):
        geo.NodeSet(arrays["points"], base.tags, base.masks, arrays["spacing"],
                    arrays["support"], base.mesh_size)


def test_nodeset_rejects_nan_mesh_size():
    base = geo.generate_beam_nodes(9, 5, 8.0, 1.0)
    with pytest.raises(ValueError, match="mesh_size"):
        geo.NodeSet(base.points, base.tags, base.masks, base.spacing, base.support,
                    math.nan)


def test_clip_rules_of_a_point_and_of_a_stack_agree():
    dom = geo.SphereOctantShell(0.25, 10.0)
    rng = np.random.default_rng(4)
    pts = rng.uniform(0.0, 9.0, (200, 3))
    sizes = rng.uniform(0.1, 8.0, 200)
    lo_gap, hi_gap, curves, tol = geo.ball_clip(pts, sizes, dom)
    assert [curve[0] for curve, _ in curves] == ["inner-sphere", "outer-sphere"]
    rho = np.array([float(np.linalg.norm(x)) for x in pts])
    assert np.array_equal(curves[0][1], rho - 0.25)
    assert np.array_equal(curves[1][1], 10.0 - rho)
    lo, hi, (low, high), crosses = geo.box_clip(pts, sizes, dom)
    assert crosses.any() and low.any() and high.any() and not crosses.all()
    for k, (x, size) in enumerate(zip(pts, sizes)):
        one = geo.ball_clip(x, float(size), dom)
        assert np.array_equal(one[0], lo_gap[k]) and np.array_equal(one[1], hi_gap[k])
        assert [c for _, c in one[2]] == [c[k] for _, c in curves]
        assert one[3] == tol[k] == 1e-12 * max(size, 1.0)
        one = geo.box_clip(x, float(size), dom)
        assert np.array_equal(one[0], lo[k]) and np.array_equal(one[1], hi[k])
        assert np.array_equal(one[2][0], low[k]) and np.array_equal(one[2][1], high[k])
        assert one[3] == crosses[k]
    assert geo.ball_clip(pts[:, :2], sizes, geo.BeamDomain(8.0, 1.0))[2] == []


def test_neighbors_match_brute_force():
    nodes = geo.generate_plate_nodes(1.0, 4.0, 24, 21, 1.08)
    rng = np.random.default_rng(5)
    for _ in range(40):
        x = rng.uniform([0, 0], [4, 4])
        fast = nodes.neighbors(x)
        slow = nodes.neighbors(x, brute=True)
        assert np.array_equal(fast, slow)


def test_neighbors_examples():
    nodes = geo.generate_beam_nodes(33, 5, 8.0, 1.0)
    x = nodes.points[40]
    assert 40 in nodes.neighbors(x)
    assert nodes.neighbors(x, delta=1e-9).tolist() == [40]
    far = nodes.neighbors(np.array([100.0, 100.0]), delta=0.5)
    assert far.size == 0


def test_neighbors_uniform_grid_count():
    # delta = 2mh on the uniform grid: count matches the brute-force ball
    nodes = geo.generate_beam_nodes(33, 5, 8.0, 1.0, m=2, support_factor=2.0)
    h = nodes.mesh_size
    x = np.array([4.0, 0.5])
    delta = 2 * 2 * h
    d = np.linalg.norm(nodes.points - x, axis=1)
    assert nodes.neighbors(x, delta=delta).size == int(np.sum(d <= delta))


def test_support_at_matches_nearest():
    nodes = geo.generate_plate_nodes(1.0, 4.0, 24, 21, 1.08)
    x = np.array([2.0, 1.3])
    d = np.linalg.norm(nodes.points - x, axis=1)
    assert nodes.support_at(x) == nodes.support[np.argmin(d)]


def test_node_io_roundtrip(tmp_path):
    nodes = geo.generate_plate_nodes(1.0, 4.0, 24, 21, 1.08)
    path = tmp_path / "nodes.txt"
    geo.save_nodes(path, nodes)
    loaded = geo.load_nodes(path)
    assert np.array_equal(loaded.points, nodes.points)
    assert np.array_equal(loaded.tags, nodes.tags)
    assert np.array_equal(loaded.masks, nodes.masks)
    assert np.array_equal(loaded.spacing, nodes.spacing)
    assert np.array_equal(loaded.support, nodes.support)
    assert loaded.mesh_size == nodes.mesh_size


# ---------------------------------------------------------------------------
# subdomains


def _closure_defect(sub, n=40):
    total_n = np.zeros(sub.center.size)
    total_xn = 0.0
    for p in sub.pieces:
        rule = p.rule(n)
        total_n += rule.weights @ rule.normals
        total_xn += rule.weights @ np.einsum("qi,qi->q", rule.points - sub.center,
                                             rule.normals)
    return np.abs(total_n).max(), abs(total_xn - sub.center.size * sub.measure)


def test_interior_square_subdomain():
    dom = geo.BeamDomain(8.0, 1.0)
    sub = geo.build_subdomain(np.array([4.0, 0.5]), "box", 0.25, dom)
    assert abs(sub.measure - 0.0625) < 1e-15
    assert len(sub.pieces) == 4
    assert not any(p.on_gamma for p in sub.pieces)


def test_top_edge_half_square():
    dom = geo.BeamDomain(8.0, 1.0)
    sub = geo.build_subdomain(np.array([4.0, 1.0]), "box", 0.25, dom)
    assert abs(sub.measure - 0.25 * 0.125) < 1e-15
    gammas = [p for p in sub.pieces if p.on_gamma]
    assert len(gammas) == 1
    assert gammas[0].traction_known == (True, True)


def test_interior_disk_unclipped():
    dom = geo.BeamDomain(8.0, 1.0)
    r = 0.7 * 0.25
    sub = geo.build_subdomain(np.array([4.0, 0.5]), "disk", r, dom)
    assert abs(sub.measure - math.pi * r**2) < 1e-12
    assert abs(sub.interior_rule(10).total_weight - sub.measure) < 1e-12


def test_half_and_quarter_disks():
    dom = geo.BeamDomain(8.0, 1.0)
    r = 0.7 * 0.25
    half = geo.build_subdomain(np.array([4.0, 0.0]), "disk", r, dom)
    assert abs(half.measure - math.pi * r**2 / 2) < 1e-12
    quarter = geo.build_subdomain(np.array([8.0, 1.0]), "disk", r, dom)
    assert abs(quarter.measure - math.pi * r**2 / 4) < 1e-12


def test_subdomain_boundary_closure():
    beam = geo.BeamDomain(8.0, 1.0)
    plate = geo.PlateQuadrant(1.0, 4.0)
    shell = geo.SphereOctantShell(0.25, 10.0)
    cases = [
        (beam, [4.0, 0.5], "box", 0.25), (beam, [4.0, 1.0], "box", 0.25),
        (beam, [8.0, 0.0], "box", 0.25), (beam, [4.0, 0.0], "ball", 0.17),
        (beam, [8.0, 1.0], "ball", 0.17),
        (plate, [0.0, 1.0], "ball", 0.015), (plate, [1.0, 0.0], "ball", 0.015),
        (plate, [math.cos(0.6), math.sin(0.6)], "ball", 0.02),
        (plate, [0.0, 2.5], "box", 0.1), (plate, [4.0, 4.0], "box", 0.1),
        (shell, [3.0, 3.0, 3.0], "box", 0.3), (shell, [3.0, 0.0, 3.0], "box", 0.3),
        (shell, [3.0, 3.0, 0.0], "box", 0.3), (shell, [3.0, 0.0, 0.0], "box", 0.3),
        (shell, [3.0, 3.0, 3.0], "ball", 0.2), (shell, [3.0, 0.0, 3.0], "ball", 0.2),
        (shell, [3.0, 0.0, 0.0], "ball", 0.2), (shell, [0.0, 0.0, 3.0], "ball", 0.2),
    ]
    for dom, center, shape, size in cases:
        sub = geo.build_subdomain(np.array(center, dtype=float), shape, size, dom)
        dn, dxn = _closure_defect(sub)
        scale = max(sub.measure, 1e-12)
        assert dn < 1e-10 * max(1.0, scale), (center, shape)
        assert dxn < 1e-10 * max(1.0, scale), (center, shape)
        assert abs(sub.interior_rule(30).total_weight - sub.measure) < 1e-8 * max(1.0, scale)


def test_hole_disk_measure_monte_carlo():
    dom = geo.PlateQuadrant(1.0, 4.0)
    r = 0.05
    sub = geo.build_subdomain(np.array([math.cos(0.5), math.sin(0.5)]), "ball", r, dom)
    rng = np.random.default_rng(42)
    n = 400_000
    pts = sub.center + rng.uniform(-r, r, size=(n, 2))
    inside = (np.linalg.norm(pts - sub.center, axis=1) <= r) & \
        (np.hypot(pts[:, 0], pts[:, 1]) >= 1.0)
    mc = inside.mean() * (2 * r) ** 2
    assert abs(mc - sub.measure) / sub.measure < 0.01


def test_box_crossing_curve_rejected():
    dom = geo.PlateQuadrant(1.0, 4.0)
    with pytest.raises(geo.UnsupportedClipError):
        geo.build_subdomain(np.array([1.05, 0.0]), "box", 0.5, dom)


def test_disk_off_center_plane_rejected():
    dom = geo.BeamDomain(8.0, 1.0)
    with pytest.raises(geo.UnsupportedClipError):
        geo.build_subdomain(np.array([4.0, 0.05]), "ball", 0.2, dom)


def test_unknown_shape_rejected():
    dom = geo.BeamDomain(8.0, 1.0)
    with pytest.raises(ValueError):
        geo.build_subdomain(np.array([4.0, 0.5]), "hexagon", 0.2, dom)
