"""The solver contract on both LU paths, dense LAPACK and sparse SuperLU, and
under both precision policies: float32 first, refined in float64 with a
float64 fallback (the default), and float64 only.

Each path is forced by setting ``DENSE_DENSITY`` to 0 (every matrix is dense
enough) or 2 (none is, since nnz <= n^2), each policy by ``FACTOR_DTYPES``.
The ``path`` cases are named by the backend under the default policy and by
``<backend>-double`` under float64 only; tests without a path run both
policies in turn.
"""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dmlpg import assembly as asm
from dmlpg import benchmarks as bm
from dmlpg import geometry as geo

PATHS = {"dense-lu": 0.0, "sparse-lu": 2.0}
POLICIES = {"single-first": (np.float32, np.float64), "double-only": (np.float64,)}
# what a well-conditioned system is solved in under each policy
PRECISION = {"single-first": "single", "double-only": "double"}
CASES = {**{backend: (backend, "single-first") for backend in PATHS},
         **{f"{backend}-double": (backend, "double-only") for backend in PATHS}}


@pytest.fixture(params=sorted(CASES))
def path(request, monkeypatch):
    backend, policy = CASES[request.param]
    monkeypatch.setattr(asm, "DENSE_DENSITY", PATHS[backend])
    monkeypatch.setattr(asm, "FACTOR_DTYPES", POLICIES[policy])
    return backend


def _single_first():
    return np.float32 in asm.FACTOR_DTYPES


@pytest.fixture
def single_attempts(monkeypatch):
    """Outcomes of the attempts of ``solve`` below float64; a str is the
    reason the factor was dropped."""
    outcomes = []
    real = asm._certified_solve

    def spy(factor, mat, b, anorm, dtype, *args):
        outcome = real(factor, mat, b, anorm, dtype, *args)
        if dtype != np.float64:
            outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(asm, "_certified_solve", spy)
    return outcomes


def _fell_back(outcomes, reason):
    """Whether the single factor, where the policy tries one, was dropped for
    a reason that matches the pattern ``reason``."""
    if not _single_first():
        return outcomes == []
    return (len(outcomes) == 1 and isinstance(outcomes[0], str)
            and re.search(reason, outcomes[0]) is not None)


# the reason a factor whose refinement stalls on the probe g is dropped
STALLED = r"^refinement stopped after \d+ steps at relative residuals \S+ \(b\) and \S+ \(g\)"


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
    for dtypes in POLICIES.values():
        monkeypatch.setattr(asm, "FACTOR_DTYPES", dtypes)
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


def _extended_reference(system):
    """The float64 solution refined with residuals in extended precision, so
    its error is at rounding level, below that of either unrefined LU."""
    wide = system.matrix.astype(np.longdouble)
    lu = spla.splu(system.matrix.tocsc())
    u = lu.solve(system.rhs)
    for _ in range(3):
        u = u + lu.solve((system.rhs - wide @ u.astype(np.longdouble)).astype(float))
    return u


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_single_precision_is_accepted_and_as_accurate_as_double(path, name, monkeypatch):
    system = SYSTEMS[name]()
    u = asm.solve(system)
    solver, cond = system.stats["solver"], system.stats["condition_estimate"]
    assert system.stats["residual"] < 1e-12
    assert solver["fallback"] is None
    if _single_first():
        assert solver["precision"] == "single"
        assert 1 <= solver["refine_steps"] < asm.REFINE_STEPS   # stopped at the floor
    else:
        assert solver["precision"] == "double" and solver["refine_steps"] == 0
    monkeypatch.setattr(asm, "FACTOR_DTYPES", (np.float64,))
    double = asm.solve(system)
    assert cond == pytest.approx(system.stats["condition_estimate"], rel=0.1)
    # the unrefined sparse float64 solve of the beam is itself 4e-12 off, so
    # both are measured against the extended reference
    reference = _extended_reference(system)
    assert _rel(u, reference) <= max(1e-12, _rel(double, reference))


def test_duplicated_node_raises_on_both_paths(path, single_attempts):
    problem = bm.BeamProblem()
    base = geo.generate_beam_nodes(9, 5, 8.0, 1.0)
    take = np.append(np.arange(base.n), 40)
    nodes = geo.NodeSet(base.points[take], base.tags[take], base.masks[take],
                        base.spacing[take], base.support[take], base.mesh_size)
    system = asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig())
    # float32 SuperLU refines b alone to 5e-13 here; the probe column stalls
    with pytest.raises(asm.SingularSystemError):
        asm.solve(system)
    assert _fell_back(single_attempts, STALLED)


def _moved_hole_node_plate():
    # hole node 96 of the coarsest plate moved 1e-7 outward: the size policy
    # gives it a sliver box (about 3e-6 of its spacing) and a near-null row
    problem = bm.PlateProblem()
    base = bm.plate_level_factory(problem)(0)[1]
    points = base.points.copy()
    points[96] *= 1.0 + 1e-7 / np.linalg.norm(points[96])
    nodes = geo.NodeSet(points, base.tags, base.masks, base.spacing, base.support,
                        base.mesh_size)
    return asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig())


WEAK_NODE_96 = r"exceeds 1e\+14; its weakest mode peaks at nodes \[96, "


def test_condition_alert_names_the_weak_node_on_both_paths(path, single_attempts):
    with pytest.raises(asm.SingularSystemError, match=WEAK_NODE_96):
        asm.solve(_moved_hole_node_plate())
    # b alone refines to 5e-15; the probe stalls near 1e-4
    assert _fell_back(single_attempts, STALLED)


@pytest.mark.parametrize("backend", sorted(PATHS))
def test_double_alert_names_the_weak_node_from_one_block_solve(backend, monkeypatch):
    # the alert reads the probe column of the block solve that b needed anyway
    monkeypatch.setattr(asm, "DENSE_DENSITY", PATHS[backend])
    monkeypatch.setattr(asm, "FACTOR_DTYPES", (np.float64,))
    system = _moved_hole_node_plate()
    blocks = []
    name = {"dense-lu": "_dense_lu", "sparse-lu": "_sparse_lu"}[backend]
    real = getattr(asm, name)

    def spied(mat, dtype):
        inverse, cond, fill = real(mat, dtype)

        def recorded(b):
            blocks.append(b.copy())
            return inverse(b)

        return recorded, cond, fill

    monkeypatch.setattr(asm, name, spied)
    with pytest.raises(asm.SingularSystemError, match=WEAK_NODE_96):
        asm.solve(system)
    assert len(blocks) == 1
    n = system.matrix.shape[0]
    assert blocks[0].shape == (n, 2)
    assert np.array_equal(blocks[0][:, 0], system.rhs)
    assert np.array_equal(blocks[0][:, 1], np.random.default_rng(0).standard_normal(n))


def test_condition_alert_is_raised_by_the_double_path(path, single_attempts, monkeypatch):
    # refinement certifies the plate's float32 solution; only the alert,
    # lowered below its condition estimate (4.5e4), rejects it
    monkeypatch.setattr(asm, "COND_ALERT", 1e3)
    with pytest.raises(asm.SingularSystemError, match=r"estimate 4\.48e\+04 exceeds 1e\+03"):
        asm.solve(_plate())
    assert _fell_back(single_attempts, r"^system condition estimate 4\.48e\+04 exceeds 1e\+03")


def test_zeroed_row_raises_on_both_paths(path, single_attempts):
    system = _beam()
    keep = np.ones(system.matrix.shape[0])
    keep[101] = 0.0
    system.matrix = (sp.diags(keep) @ system.matrix).tocsr()
    system.matrix.eliminate_zeros()
    with pytest.raises(asm.SingularSystemError, match=path):
        asm.solve(system)
    assert _fell_back(single_attempts, f"^{path} factorization failed: ")


def test_non_finite_matrix_raises(monkeypatch):
    system = _beam()
    system.matrix.data[7] = np.nan
    for dtypes in POLICIES.values():
        monkeypatch.setattr(asm, "FACTOR_DTYPES", dtypes)
        with pytest.raises(asm.SingularSystemError, match="non-finite"):
            asm.solve(system)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dense_path_holds_one_dense_copy(monkeypatch):
    monkeypatch.setattr(asm, "DENSE_DENSITY", 0.0)
    system = _plate()
    n = system.matrix.shape[0]
    # the float32 copy is cast from the sparse matrix, never from a float64 one
    for policy, dtypes in POLICIES.items():
        monkeypatch.setattr(asm, "FACTOR_DTYPES", dtypes)
        peak = _peak_bytes(asm.solve, system)
        assert system.stats["solver"]["precision"] == PRECISION[policy]
        size = 4 if policy == "single-first" else 8
        assert n * n * size <= peak < 1.5 * n * n * size, policy


def test_dense_fallback_frees_the_single_copy_first(monkeypatch):
    # no refinement reaches a zero residual, so the float32 factor is dropped
    monkeypatch.setattr(asm, "REFINE_TOL", 0.0)
    monkeypatch.setattr(asm, "DENSE_DENSITY", 0.0)
    system = _plate()
    n = system.matrix.shape[0]
    peak = _peak_bytes(asm.solve, system)
    assert system.stats["solver"]["precision"] == "double"
    assert re.search(STALLED + r", above 0e\+00$", system.stats["solver"]["fallback"])
    assert n * n * 8 <= peak < 1.5 * n * n * 8


def _solve_under_each_policy(system, monkeypatch):
    for policy, dtypes in POLICIES.items():
        monkeypatch.setattr(asm, "FACTOR_DTYPES", dtypes)
        asm.solve(system)
        assert system.stats["solver"]["precision"] == PRECISION[policy]


def test_density_selects_the_path(monkeypatch):
    shell = bm.BoussinesqProblem()
    system = asm.assemble(bm.boussinesq_level_factory(shell, target=800)(0)[1], shell,
                          "dmlpg5", asm.SolverConfig())
    _solve_under_each_policy(system, monkeypatch)
    assert system.stats["solver"]["backend"] == "dense-lu"
    assert system.stats["solver"]["fill"] == system.matrix.shape[0] ** 2
    # beam 129x17 is about 1.8% dense; smaller beams are above 5%.  Its
    # condition (5e7) is above 1/eps_single, yet refinement certifies it
    beam = bm.BeamProblem()
    system = asm.assemble(bm.beam_level_factory(beam)(2)[1], beam, "dmlpg1",
                          asm.SolverConfig(shape="ball"))
    _solve_under_each_policy(system, monkeypatch)
    assert system.matrix.nnz < asm.DENSE_DENSITY * system.matrix.shape[0] ** 2
    solver = system.stats["solver"]
    assert solver["backend"] == "sparse-lu"
    assert solver["fill"] > system.matrix.nnz
    assert solver["t_factor"] > 0.0 and solver["t_condest"] > 0.0
