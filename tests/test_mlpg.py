import numpy as np
import pytest

from dmlpg import assembly as asm
from dmlpg import benchmarks as bm
from dmlpg import geometry as geo
from dmlpg import mlpg
from dmlpg import mls


@pytest.fixture(scope="module")
def beam_nodes():
    return geo.generate_beam_nodes(33, 5, 8.0, 1.0)


def test_partition_of_unity_and_derivative_sums(beam_nodes):
    ev = mlpg.mls_shape_with_derivatives(np.array([3.17, 0.44]), beam_nodes, 2)
    assert abs(ev.values.sum() - 1.0) < 1e-10
    assert np.abs(ev.gradients.sum(axis=0)).max() < 1e-8


def test_standard_derivatives_recover_polynomials(beam_nodes):
    x = np.array([2.6, 0.55])
    ev = mlpg.mls_shape_with_derivatives(x, beam_nodes, 2)
    u = 0.4 * beam_nodes.points[:, 0] ** 2 - beam_nodes.points[:, 0] * beam_nodes.points[:, 1]
    du_dx = 0.8 * x[0] - x[1]
    du_dy = -x[0]
    assert abs(ev.gradients[:, 0] @ u[ev.active] - du_dx) < 1e-8
    assert abs(ev.gradients[:, 1] @ u[ev.active] - du_dy) < 1e-8


def test_derivatives_match_finite_differences(beam_nodes):
    rng = np.random.default_rng(9)
    u = rng.uniform(-1, 1, beam_nodes.n)
    x = np.array([4.83, 0.37])
    ev = mlpg.mls_shape_with_derivatives(x, beam_nodes, 2)
    h = 1e-6
    for axis in range(2):
        dx = np.zeros(2)
        dx[axis] = h
        up = mlpg.mls_shape_with_derivatives(x + dx, beam_nodes, 2)
        dn = mlpg.mls_shape_with_derivatives(x - dx, beam_nodes, 2)
        fd = (up.values @ u[up.active] - dn.values @ u[dn.active]) / (2 * h)
        an = ev.gradients[:, axis] @ u[ev.active]
        assert abs(fd - an) < 1e-5 * max(1.0, abs(an))


def test_batched_matches_single_point(beam_nodes):
    pts = np.array([[3.1, 0.42], [3.15, 0.5], [2.95, 0.61]])
    union = beam_nodes.neighbors(pts[0], delta=1.5)
    deltas = np.array([beam_nodes.support_at(p) for p in pts])
    values, grads, errors = mlpg.batched_shape_eval(
        pts[None], beam_nodes.points[union][None], deltas[None], pts[:1], np.ones(1), 2, 4.0)
    assert errors == [None]
    for i, p in enumerate(pts):
        single = mlpg.mls_shape_with_derivatives(p, beam_nodes, 2)
        lookup = {j: k for k, j in enumerate(union)}
        for k, j in enumerate(single.active):
            assert abs(values[i, lookup[j]] - single.values[k]) < 1e-10
            assert np.abs(grads[i, :, lookup[j]] - single.gradients[k]).max() < 1e-8


@pytest.mark.parametrize("variant", ["mlpg1", "mlpg5"])
def test_linear_patch(variant):
    prob = bm.ManufacturedProblem(bm.linear_patch_coeffs(2), (1.0, 0.5))
    nodes = geo.generate_grid_nodes((9, 5), (1.0, 0.5))
    system = mlpg.assemble_mlpg(nodes, prob, variant, asm.SolverConfig())
    u = asm.solve(system)
    exact = prob.exact_u(nodes.points).ravel()
    assert np.linalg.norm(u - exact) / np.linalg.norm(exact) < 1e-7


def test_shape_eval_counters_2d():
    prob = bm.BeamProblem()
    nodes = geo.generate_beam_nodes(33, 5, 8.0, 1.0)
    system = mlpg.assemble_mlpg(nodes, prob, "mlpg1", asm.SolverConfig())
    weak = sum(1 for k in system.row_kinds if k != "dirichlet-collocation")
    assert system.stats["min_evals_per_subdomain"] == 100   # 10x10 interior rule
    assert system.stats["shape_evals"] == 100 * weak
    direct = __import__("dmlpg.assembly", fromlist=["assemble"]).assemble(
        nodes, prob, "dmlpg1", asm.SolverConfig())
    assert direct.stats["shape_evals"] == 0


def test_beam_accuracy_close_to_direct():
    prob = bm.BeamProblem()
    nodes = geo.generate_beam_nodes(33, 5, 8.0, 1.0)
    eval_pts = bm.beam_eval_mesh()
    cfg = asm.SolverConfig(shape="box")
    u_m, _ = bm.solve_problem(nodes, prob, "mlpg1", cfg)
    u_d, _ = bm.solve_problem(nodes, prob, "dmlpg1", cfg)
    r_m = bm.relative_errors(u_m, nodes, prob, eval_pts, cfg).r_u
    r_d = bm.relative_errors(u_d, nodes, prob, eval_pts, cfg).r_u
    assert r_m < 3.0 * r_d


def test_mixed_bc_handled_like_direct():
    # the collocation constraint pins the MLS fit of u1 on the symmetry edge
    # (not the raw nodal coefficients: the fit is not interpolatory)
    prob = bm.PlateProblem()
    nodes = geo.generate_plate_nodes(1.0, 4.0, 24, 21, 1.08)
    system = mlpg.assemble_mlpg(nodes, prob, "mlpg5", asm.SolverConfig())
    u = asm.solve(system).reshape(-1, 2)
    for k in np.nonzero(nodes.points[:, 0] == 0.0)[0][:8]:
        row = mls.mls_shape(nodes.points[k], nodes, 2)
        assert abs(row.coefficients[0] @ u[row.active, 0]) < 1e-12
