"""The solver contract on both LU paths: dense LAPACK and sparse SuperLU.

Each path is forced by setting ``DENSE_DENSITY`` to 0 (every matrix is dense
enough) or 2 (none is, since nnz <= n^2).
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from dmlpg import assembly as asm
from dmlpg import benchmarks as bm
from dmlpg import geometry as geo

PATHS = {"dense-lu": 0.0, "sparse-lu": 2.0}


@pytest.fixture(params=sorted(PATHS))
def path(request, monkeypatch):
    monkeypatch.setattr(asm, "DENSE_DENSITY", PATHS[request.param])
    return request.param


def _beam(**config):
    # balls: box measures on this grid are powers of two, which scale exactly
    problem = bm.BeamProblem()
    return asm.assemble(geo.generate_beam_nodes(33, 5, 8.0, 1.0), problem, "dmlpg1",
                        asm.SolverConfig(shape="ball", **config))


def _plate(**config):
    problem = bm.PlateProblem()
    return asm.assemble(bm.plate_level_factory(problem)(0)[1], problem, "dmlpg1",
                        asm.SolverConfig(**config))


SYSTEMS = {"beam": _beam, "plate": _plate}


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("method", ["dmlpg1", "dmlpg5"])
@pytest.mark.parametrize("degree", [1, 2])
def test_patch_2d_squares_on_both_paths(path, method, degree):
    coeffs = bm.linear_patch_coeffs(2) if degree == 1 else bm.quadratic_patch_coeffs(2)
    prob = bm.ManufacturedProblem(coeffs, (1.0, 0.5))
    nodes = geo.generate_grid_nodes((9, 5), (1.0, 0.5))
    system = asm.assemble(nodes, prob, method, asm.SolverConfig())
    u = asm.solve(system)
    assert system.stats["solver"]["backend"] == path
    assert _rel(u, prob.exact_u(nodes.points).ravel()) <= 1e-8
    assert system.stats["residual"] < 1e-10


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_paths_agree(name, monkeypatch):
    system = SYSTEMS[name]()
    solutions = {}
    for backend, density in PATHS.items():
        monkeypatch.setattr(asm, "DENSE_DENSITY", density)
        solutions[backend] = asm.solve(system)
        stats = system.stats
        assert stats["solver"]["backend"] == backend
        assert stats["residual"] < 1e-10
        assert 1.0 < stats["condition_estimate"] < asm.COND_ALERT
        if backend == "dense-lu":
            assert stats["solver"]["fill"] == system.matrix.shape[0] ** 2
        else:
            assert stats["solver"]["fill"] >= system.matrix.nnz
    assert _rel(solutions["dense-lu"], solutions["sparse-lu"]) <= 1e-10


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_scale_rows_leaves_solution_unchanged(path, name):
    plain = asm.solve(SYSTEMS[name]())
    system = SYSTEMS[name](scale_rows=True)
    scaled = asm.solve(system)
    assert system.stats["solver"]["backend"] == path
    assert _rel(scaled, plain) <= 1e-8


def test_duplicated_node_raises_on_both_paths(path):
    problem = bm.BeamProblem()
    base = geo.generate_beam_nodes(9, 5, 8.0, 1.0)
    take = np.append(np.arange(base.n), 40)
    nodes = geo.NodeSet(base.points[take], base.tags[take], base.masks[take],
                        base.spacing[take], base.support[take], base.mesh_size)
    system = asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig())
    with pytest.raises(asm.SingularSystemError):
        asm.solve(system)


def test_condition_alert_names_the_weak_node_on_both_paths(path):
    # hole node 96 of the coarsest plate moved 1e-7 outward: the size policy
    # gives it a sliver box (about 3e-6 of its spacing) and a near-null row
    problem = bm.PlateProblem()
    base = bm.plate_level_factory(problem)(0)[1]
    points = base.points.copy()
    points[96] *= 1.0 + 1e-7 / np.linalg.norm(points[96])
    nodes = geo.NodeSet(points, base.tags, base.masks, base.spacing, base.support,
                        base.mesh_size)
    system = asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig())
    with pytest.raises(asm.SingularSystemError,
                       match=r"exceeds 1e\+14; its weakest mode peaks at nodes \[96, "):
        asm.solve(system)


def test_zeroed_row_raises_on_both_paths(path):
    system = _beam()
    keep = np.ones(system.matrix.shape[0])
    keep[101] = 0.0
    system.matrix = (sp.diags(keep) @ system.matrix).tocsr()
    system.matrix.eliminate_zeros()
    with pytest.raises(asm.SingularSystemError, match=path):
        asm.solve(system)


def test_non_finite_matrix_raises():
    system = _beam()
    system.matrix.data[7] = np.nan
    with pytest.raises(asm.SingularSystemError, match="non-finite"):
        asm.solve(system)


def test_dense_path_holds_one_dense_copy(monkeypatch):
    monkeypatch.setattr(asm, "DENSE_DENSITY", 0.0)
    system = _plate()
    n = system.matrix.shape[0]
    tracemalloc.start()
    try:
        asm.solve(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert n * n * 8 <= peak < 1.5 * n * n * 8


def test_density_selects_the_path():
    shell = bm.BoussinesqProblem()
    system = asm.assemble(bm.boussinesq_level_factory(shell, target=800)(0)[1], shell,
                          "dmlpg5", asm.SolverConfig())
    asm.solve(system)
    assert system.stats["solver"]["backend"] == "dense-lu"
    assert system.stats["solver"]["fill"] == system.matrix.shape[0] ** 2
    # beam 129x17 is about 1.8% dense; smaller beams are above 5%
    beam = bm.BeamProblem()
    system = asm.assemble(bm.beam_level_factory(beam)(2)[1], beam, "dmlpg1",
                          asm.SolverConfig(shape="ball"))
    asm.solve(system)
    assert system.matrix.nnz < asm.DENSE_DENSITY * system.matrix.shape[0] ** 2
    solver = system.stats["solver"]
    assert solver["backend"] == "sparse-lu"
    assert solver["fill"] > system.matrix.nnz
    assert solver["t_factor"] > 0.0 and solver["t_condest"] > 0.0
