import math

import numpy as np
import pytest

from dmlpg import assembly as asm
from dmlpg import benchmarks as bm
from dmlpg import elasticity as ela
from dmlpg import geometry as geo


def test_beam_exact_values():
    p = bm.BeamProblem()
    u, sigma = bm.beam_exact(np.array([[8.0, 0.5]]), 8.0, 1.0, 1.0, p.material)
    assert abs(u[0, 1] - 2069.0) < 1e-9
    pts = np.array([[1.0, 0.3], [5.0, 0.9]])
    assert np.all(p.exact_stress(pts)[:, 1] == 0.0)
    _, s = bm.beam_exact(np.array([[3.0, 0.5]]), 8.0, 1.0, 1.0, p.material)
    assert abs(s[0, 2] - 1.5) < 1e-12


def test_beam_end_traction_integrates_to_load():
    from dmlpg import quadrature as quad

    p = bm.BeamProblem()
    rule = quad.rule_box_face([0.0, 0.0], [8.0, 1.0], 0, 1, 12)
    t = p.traction(rule.points, rule.normals)
    assert abs(rule.weights @ t[:, 1] - 1.0) < 1e-10
    assert abs(rule.weights @ t[:, 0]) < 1e-10


def test_plate_exact_values():
    p = bm.PlateProblem()
    s = p.exact_stress(np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 300.0]]))
    assert abs(s[0, 0] - 3.0) < 1e-12
    assert abs(s[1, 0]) < 1e-12
    assert abs(s[2, 0] - 1.0) < 1e-4   # far-field limit


def test_boussinesq_exact_values():
    p = bm.BoussinesqProblem()
    u = p.exact_u(np.array([[1.0, 0.0, 0.0]]))
    assert abs(u[0, 2] - 0.9375 / (1000.0 * math.pi)) < 1e-15
    assert u[0, 0] < 0.0   # inward surface displacement
    # O(1/rho) decay along a ray
    ray = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    u1 = p.exact_u((1.0 * ray)[None, :])[0]
    u4 = p.exact_u((4.0 * ray)[None, :])[0]
    assert np.linalg.norm(u1) / np.linalg.norm(u4) == pytest.approx(4.0, rel=0.3)


@pytest.mark.parametrize("problem,points", [
    (bm.BeamProblem(), [[3.0, 0.7], [6.2, 0.2]]),
    (bm.PlateProblem(), [[1.5, 1.2], [2.5, 0.6]]),
    (bm.BoussinesqProblem(), [[1.0, 1.0, 1.0], [0.8, 0.5, 2.0]]),
])
def test_exact_solutions_satisfy_equilibrium(problem, points):
    # finite differences of the printed stresses: div(sigma) = 0 off the load
    tmap = ela.voigt_map(len(points[0]))
    h = 1e-5
    for x in map(np.asarray, points):
        div = np.zeros(x.size)
        for j in range(x.size):
            dx = np.zeros(x.size)
            dx[j] = h
            ds = (problem.exact_stress((x + dx)[None])[0]
                  - problem.exact_stress((x - dx)[None])[0]) / (2 * h)
            div += np.einsum("vi,v->i", tmap[:, :, j], ds)
        scale = np.abs(problem.exact_stress(x[None])).max()
        assert np.abs(div).max() < 1e-4 * max(scale, 1e-3)


@pytest.mark.parametrize("problem,points", [
    (bm.BeamProblem(), [[3.0, 0.7]]),
    (bm.PlateProblem(), [[1.3, 0.9], [0.5, 2.5]]),
    (bm.BoussinesqProblem(), [[0.8, 0.5, 0.9]]),
])
def test_strains_match_displacement_gradients(problem, points):
    d = len(points[0])
    h = 1e-6
    tmap = ela.voigt_map(d)
    for x in map(np.asarray, points):
        grad = np.zeros((d, d))
        for j in range(d):
            dx = np.zeros(d)
            dx[j] = h
            grad[:, j] = (problem.exact_u((x + dx)[None])[0]
                          - problem.exact_u((x - dx)[None])[0]) / (2 * h)
        eps_fd = np.einsum("vij,ij->v", tmap, grad)
        eps = problem.exact_strain(x[None])[0]
        assert np.abs(eps_fd - eps).max() < 1e-4 * max(np.abs(eps).max(), 1e-12)


@pytest.mark.parametrize("problem", [
    bm.BeamProblem(), bm.PlateProblem(), bm.BoussinesqProblem(),
    bm.ManufacturedProblem(bm.quadratic_patch_coeffs(2), (2.0, 1.0)),
    bm.ManufacturedProblem(bm.quadratic_patch_coeffs(3), (1.0, 0.5, 0.5)),
], ids=["beam", "plate", "boussinesq", "manufactured-2d", "manufactured-3d"])
def test_dirichlet_values_of_a_stack_match_one_point_at_a_time(problem):
    # the assembly takes every prescribed value from one stacked call
    d = problem.geometry.dim
    points = np.random.default_rng(3).uniform(0.3, 1.0, (257, d))
    one = np.concatenate([problem.dirichlet(x[None]) for x in points])
    assert np.array_equal(problem.dirichlet(points), one)


def test_relative_errors_trivial_cases():
    prob = bm.BeamProblem()
    nodes = geo.generate_beam_nodes(17, 5, 8.0, 1.0)
    eval_pts = bm.beam_eval_mesh(nx=21, ny=7)
    exact = prob.exact_u(nodes.points).ravel()
    rep = bm.relative_errors(exact, nodes, prob, eval_pts)
    assert rep.r_u < 5e-3  # interpolation-level error of the exact nodal data
    scaled = bm.relative_errors(1.01 * exact, nodes, prob, eval_pts)
    assert scaled.r_u == pytest.approx(np.sqrt((rep.r_u)**2 + 0.01**2), rel=0.3)


def test_error_metric_invariant_under_reordering():
    prob = bm.BeamProblem()
    nodes = geo.generate_beam_nodes(17, 5, 8.0, 1.0)
    u, _ = bm.solve_problem(nodes, prob, "dmlpg1", asm.SolverConfig())
    pts = bm.beam_eval_mesh(nx=13, ny=5)
    rng = np.random.default_rng(0)
    perm = rng.permutation(pts.shape[0])
    a = bm.relative_errors(u, nodes, prob, pts)
    b = bm.relative_errors(u, nodes, prob, pts[perm])
    assert a.r_u == pytest.approx(b.r_u, rel=1e-12)


def test_convergence_study_orders_and_csv(tmp_path):
    prob = bm.ManufacturedProblem(bm.quadratic_patch_coeffs(2), (1.0, 0.5))

    def factory(level):
        n = 5 * 2**level
        return prob, geo.generate_grid_nodes((2 * n - 1, n), (1.0, 0.5))

    pts = geo.generate_grid_nodes((9, 5), (1.0, 0.5)).points
    rows = bm.convergence_study(factory, "dmlpg1", 2, pts)
    # manufactured polynomial solution: errors at the round-off floor
    assert all(r.r_u < 1e-9 for r in rows)
    path = tmp_path / "conv.csv"
    bm.write_convergence_csv(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("h,N,r_u")
    assert len(lines) == 3


def test_study_identical_levels_nan_order(tmp_path):
    prob = bm.BeamProblem()
    nodes = geo.generate_beam_nodes(17, 5, 8.0, 1.0)

    def factory(level):
        return prob, nodes

    pts = bm.beam_eval_mesh(nx=13, ny=5)
    rows = bm.convergence_study(factory, "dmlpg1", 2, pts)
    assert math.isnan(rows[1].order_u)
    path = tmp_path / "conv.csv"
    bm.write_convergence_csv(path, rows)
    assert "nan" in path.read_text().splitlines()[2]


def test_profile_csv_columns(tmp_path):
    path = tmp_path / "profile.csv"
    bm.write_profile_csv(path, [0.0, 1.0], [1.5, 2.5], [1.4, 2.6])
    lines = path.read_text().splitlines()
    assert lines[0] == "coordinate,numerical,exact"
    assert lines[1].split(",") == ["0", "1.5", "1.3999999999999999"]
