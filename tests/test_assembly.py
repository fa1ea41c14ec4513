import dataclasses

import numpy as np
import pytest

from dmlpg import assembly as asm
from dmlpg import benchmarks as bm
from dmlpg import elasticity as ela
from dmlpg import geometry as geo
from dmlpg import mls


@pytest.fixture(scope="module")
def beam():
    return bm.BeamProblem(), geo.generate_beam_nodes(33, 5, 8.0, 1.0)


def _interior_row(problem, nodes, method, config, k=None):
    if k is None:
        # pick a node far from all boundaries
        k = int(np.argmin(np.linalg.norm(nodes.points - np.array([4.0, 0.5]), axis=1)))
    sub = asm.subdomain_for_node(k, nodes, problem.geometry, config)
    builder = asm.dmlpg1_row if method == "dmlpg1" else asm.dmlpg5_row
    row = builder(k, sub, problem, config, float(nodes.support[k]),
                  np.array([True, True]))
    return row, sub


def test_constant_basis_block_vanishes(beam):
    problem, nodes = beam
    for method in ("dmlpg1", "dmlpg5"):
        row, _ = _interior_row(problem, nodes, method, asm.SolverConfig())
        assert np.abs(row.lam[0]).max() < 1e-14


def test_linear_basis_block_vanishes_by_symmetry(beam):
    # gradient of the centered test bump integrates to zero over the square,
    # and a closed constant-traction integral cancels for the boundary variant
    problem, nodes = beam
    for method in ("dmlpg1", "dmlpg5"):
        row, _ = _interior_row(problem, nodes, method, asm.SolverConfig())
        scale = np.abs(row.lam).max()
        assert np.abs(row.lam[1]).max() < 1e-13 * scale
        assert np.abs(row.lam[2]).max() < 1e-13 * scale


def test_dmlpg5_divergence_theorem_oracle(beam):
    # boundary functional of each basis column equals the volume integral of
    # the divergence of the corresponding stress field
    problem, nodes = beam
    config = asm.SolverConfig()
    row, sub = _interior_row(problem, nodes, "dmlpg5", config)
    basis = mls.PolyBasis(2, 2, sub.center, float(nodes.support[0]))
    tmap = ela.voigt_map(2)
    dmat = ela.elastic_matrix(problem.material)
    rule = sub.interior_rule(12)
    hess = np.zeros((rule.points.shape[0], basis.q, 2, 2))
    for l in range(2):
        for j in range(l, 2):
            alpha = np.zeros(2, dtype=np.int64)
            alpha[l] += 1
            alpha[j] += 1
            v = basis.derivative(rule.points, alpha)
            hess[:, :, l, j] = v
            hess[:, :, j, l] = v
    # (div sigma)_i for displacement e_j p_n
    oracle = np.einsum("q,vit,vw,wjs,qnts->nij", rule.weights, tmap, dmat, tmap,
                       hess, optimize=True)
    assert np.abs(row.lam - oracle).max() < 1e-10 * max(1.0, np.abs(oracle).max())


def test_weak_row_exactness_against_quadrature_oracle(beam):
    # assembled row applied to polynomial nodal data equals the directly
    # integrated weak form of the same field (high-order rule)
    problem, nodes = beam
    config = asm.SolverConfig()
    rng = np.random.default_rng(2)
    coeffs = rng.uniform(-1, 1, size=(2, 6))
    field = bm.ManufacturedProblem(coeffs, (8.0, 1.0))
    for method in ("dmlpg1", "dmlpg5"):
        for probe in ([4.0, 0.5], [4.0, 1.0], [8.0, 0.44]):
            k = int(np.argmin(np.linalg.norm(nodes.points - np.array(probe), axis=1)))
            row, sub = _interior_row(problem, nodes, method, config, k=k)
            moment = mls.MomentSystem.build(nodes.points[k], nodes, 2,
                                            delta=float(nodes.support[k]))
            blocks = np.einsum("nij,nl->lij", row.lam, moment.phi())
            lhs = np.einsum("lij,lj->i", blocks,
                            field.exact_u(nodes.points[moment.active]))
            tmap = ela.voigt_map(2)
            if method == "dmlpg1":
                rule = sub.interior_rule(16)
                test = asm.test_function(sub, config)
                eps_v = np.einsum("vij,qj->qiv", tmap, test.gradients(rule.points))
                lam_u = -np.einsum("q,qiv,qv->i", rule.weights, eps_v,
                                   field.exact_stress(rule.points))
            else:
                lam_u = np.zeros(2)
                for piece in sub.pieces:
                    if piece.on_gamma and all(piece.traction_known):
                        continue
                    prule = piece.rule(16)
                    nq = np.einsum("vij,qj->qiv", tmap, prule.normals)
                    contrib = np.einsum("q,qiv,qv->i", prule.weights, nq,
                                        field.exact_stress(prule.points))
                    if piece.on_gamma:
                        contrib[np.asarray(piece.traction_known)] = 0.0
                    lam_u += contrib
            assert np.abs(lhs - lam_u).max() < 1e-9 * max(1.0, np.abs(lam_u).max())


def _box_gradients_oracle(test, points):
    """Division-based gradients (the former code), valid off the faces only."""
    z = (np.atleast_2d(points) - test.center) * (2.0 / test.size)
    factors = 1.0 - z**2
    others = np.prod(factors, axis=1, keepdims=True) / factors
    return others * (-2.0 * z) * (2.0 / test.size)


@pytest.mark.parametrize("dim", [2, 3])
def test_box_test_gradients_on_faces_edges_and_corners(dim):
    center = np.array([0.2, -0.1, 0.4])[:dim]
    test = asm.BoxTestFunction(center, 2.0)
    inner = np.array([0.3, -0.45, 0.6])[:dim]
    points = [center + inner]
    for count in range(1, dim + 1):       # face, edge (3D), corner
        p = center + inner
        p[:count] = center[:count] + np.array([1.0, -1.0, 1.0])[:count]
        points.append(p)
    points = np.array(points)
    h = 1e-6
    fd = np.stack([(test.values(points + h * e) - test.values(points - h * e)) / (2 * h)
                   for e in np.eye(dim)], axis=1)
    grads = test.gradients(points)
    assert np.abs(grads - fd).max() <= 1e-7
    oracle = _box_gradients_oracle(test, points[:1])
    assert np.abs(grads[:1] - oracle).max() <= 1e-13 * np.abs(oracle).max()
    assert np.abs(grads[1, 0]) > 0.1    # the face-normal derivative survives


def test_stage_timers_cover_the_assembly(beam):
    problem, nodes = beam
    stats = asm.assemble(nodes, problem, "dmlpg5").stats
    stages = stats["stages"]
    assert set(stages) == {"subdomains_s", "rows_s", "traction_s", "moments_s", "scatter_s"}
    assert all(t > 0.0 for t in stages.values())
    assert sum(stages.values()) <= stats["t_assemble"]


def test_cache_hits_on_identical_squares(beam):
    problem, nodes = beam
    config = asm.SolverConfig()
    k1 = int(np.argmin(np.linalg.norm(nodes.points - np.array([4.0, 0.5]), axis=1)))
    k2 = int(np.argmin(np.linalg.norm(nodes.points - np.array([3.0, 0.5]), axis=1)))
    weak = np.flatnonzero(nodes.tags != geo.DIRICHLET)
    plan = asm.plan_subdomains(nodes.points, nodes.spacing, problem.geometry, config)
    keys = asm._functional_keys(plan, nodes, weak, shared=True)
    assert keys[k1] == keys[k2] <= min(k1, k2)
    assert np.array_equal(asm._functional_keys(plan, nodes, weak, shared=False),
                          np.arange(nodes.n))
    rows = []
    for k in (k1, k2):
        sub = asm.subdomain_for_node(k, nodes, problem.geometry, config)
        rows.append(asm.dmlpg1_row(k, sub, problem, config, float(nodes.support[k]),
                                   np.array([True, True]), rows[0].lam if rows else None))
    assert rows[0].lam is rows[1].lam  # the key's functional, shared as is
    hits = asm.assemble(nodes, problem, "dmlpg1", config).stats["cache_hit_counts"]
    assert hits[int(keys[k1])] == np.count_nonzero(keys[weak] == keys[k1]) - 1


def test_cache_on_off_equivalence(beam):
    problem, nodes = beam
    on = asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig(cache=True))
    off = asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig(cache=False))
    diff = (on.matrix - off.matrix)
    scale = np.abs(on.matrix.data).max()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-14 * scale
    assert np.allclose(on.rhs, off.rhs, atol=1e-14)


def test_collocation_row_reproduction(beam):
    problem, nodes = beam
    k = 2  # a clamped-edge node
    row = asm.assemble(nodes, problem).matrix[2 * k].toarray()[0]
    a = row[0::2]                       # u_1 collocation: u_1 columns only
    assert np.all(row[1::2] == 0.0)
    assert abs(a.sum() - 1.0) < 1e-12   # constants reproduced
    q = nodes.points[:, 0] ** 2 + 0.3 * nodes.points[:, 1]
    assert abs(a @ q - q[k]) < 1e-10
    # support confined to the node's active set
    moment = mls.MomentSystem.build(nodes.points[k], nodes, 2,
                                    delta=float(nodes.support[k]))
    assert set(np.flatnonzero(a)) <= set(moment.active)


def test_mixed_replacement_cases(beam):
    problem, nodes = beam
    config = asm.SolverConfig()
    k = int(np.argmin(np.linalg.norm(nodes.points - np.array([4.0, 0.5]), axis=1)))
    row, sub = _interior_row(problem, nodes, "dmlpg1", config, k=k)
    moment = mls.MomentSystem.build(nodes.points[k], nodes, 2,
                                    delta=float(nodes.support[k]))
    blocks = np.einsum("nij,nl->lij", row.lam, moment.phi())
    a = moment.phi()[0]
    # s = 0: nothing replaced
    unchanged = blocks.copy()
    mask = np.array([False, False])
    unchanged[:, mask, :] = 0.0
    assert np.array_equal(unchanged, blocks)
    # s = d: full replacement equals a collocation block row
    full = blocks.copy()
    full[:, :, :] = 0.0
    for i in range(2):
        full[:, i, i] = a
    assert np.allclose(full[:, 0, 0], a)
    assert np.all(full[:, 0, 1] == 0.0)
    # partial: row 1 keeps weak entries when only component 2 is prescribed
    part = blocks.copy()
    mask = np.array([False, True])
    part[:, mask, :] = 0.0
    part[:, 1, 1] = a
    assert np.array_equal(part[:, 0, :], blocks[:, 0, :])
    assert np.allclose(part[:, 1, 1], a)


def test_plate_bottom_edge_mixed_rows():
    problem = bm.PlateProblem()
    nodes = geo.generate_plate_nodes(1.0, 4.0, 24, 21, 1.08)
    system = asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig())
    bottom = np.nonzero((nodes.tags == geo.MIXED) & (nodes.points[:, 1] == 0.0))[0]
    assert bottom.size > 0
    k = bottom[len(bottom) // 2]
    assert system.row_kinds[k] == "mixed-replaced"
    # prescribed component row solves u2 = 0: rhs entry is exactly zero
    assert system.rhs[2 * k + 1] == 0.0


def test_assemble_dimensions(beam):
    problem, nodes = beam
    system = asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig())
    assert system.matrix.shape == (330, 330)
    assert len(system.row_kinds) == 165
    assert system.row_kinds[:5] == ["dirichlet-collocation"] * 5


def test_sparsity_respects_supports(beam):
    problem, nodes = beam
    system = asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig())
    indptr = system.matrix.indptr
    max_active = max(nodes.neighbors(nodes.points[k]).size for k in range(nodes.n))
    nnz_per_row = np.diff(indptr)
    assert nnz_per_row.max() <= 2 * max_active


def test_assembly_determinism(beam):
    problem, nodes = beam
    a = asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig())
    b = asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig())
    assert np.array_equal(a.matrix.data, b.matrix.data)
    assert np.array_equal(a.matrix.indices, b.matrix.indices)
    assert np.array_equal(a.rhs, b.rhs)


def test_all_dirichlet_cloud_reproduces_polynomial():
    # tiny cloud, every node prescribed: collocation must reproduce the field
    pts = np.array([[x, y] for x in np.linspace(0, 1, 5) for y in np.linspace(0, 1, 4)])
    n = pts.shape[0]
    nodes = geo.NodeSet(pts, np.full(n, geo.DIRICHLET), np.ones((n, 2), bool),
                        np.full(n, 0.25), np.full(n, 1.1), 1.0 / 3.0)

    class AllDirichlet(bm.ManufacturedProblem):
        pass

    prob = AllDirichlet(bm.quadratic_patch_coeffs(2), (1.0, 1.0))
    system = asm.assemble(nodes, prob, "dmlpg1", asm.SolverConfig())
    u = asm.solve(system)
    exact = prob.exact_u(pts).ravel()
    assert np.linalg.norm(u - exact) / np.linalg.norm(exact) < 1e-10


@pytest.mark.parametrize("method", ["dmlpg1", "dmlpg5"])
@pytest.mark.parametrize("degree", [1, 2])
def test_patch_2d_squares(method, degree):
    coeffs = bm.linear_patch_coeffs(2) if degree == 1 else bm.quadratic_patch_coeffs(2)
    prob = bm.ManufacturedProblem(coeffs, (1.0, 0.5))
    nodes = geo.generate_grid_nodes((9, 5), (1.0, 0.5))
    system = asm.assemble(nodes, prob, method, asm.SolverConfig())
    u = asm.solve(system)
    exact = prob.exact_u(nodes.points).ravel()
    assert np.linalg.norm(u - exact) / np.linalg.norm(exact) < 1e-8
    assert system.stats["residual"] < 1e-10


@pytest.mark.parametrize("method", ["dmlpg1", "dmlpg5"])
def test_direct_methods_reject_a_linear_basis(method, monkeypatch):
    # every interior row would be zero, and the solve would find the system
    # singular; the classical methods still solve at m = 1
    problem, nodes = bm.BeamProblem(), geo.generate_beam_nodes(17, 5, 8.0, 1.0, m=1)
    monkeypatch.setattr(asm, "plan_subdomains", None)     # no work before the check
    with pytest.raises(ValueError, match="m >= 2"):
        asm.assemble(nodes, problem, method, asm.SolverConfig(m=1))


def test_solve_residual_reported(beam):
    problem, nodes = beam
    system = asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig())
    asm.solve(system)
    assert system.stats["residual"] < 1e-10


def test_duplicated_node_raises():
    problem = bm.BeamProblem()
    base = geo.generate_beam_nodes(9, 5, 8.0, 1.0)
    pts = np.vstack([base.points, base.points[40]])
    tags = np.append(base.tags, base.tags[40])
    masks = np.vstack([base.masks, base.masks[40]])
    spacing = np.append(base.spacing, base.spacing[40])
    support = np.append(base.support, base.support[40])
    nodes = geo.NodeSet(pts, tags, masks, spacing, support, base.mesh_size)
    system = asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig())
    with pytest.raises(asm.SingularSystemError):
        asm.solve(system)


def test_recover_linear_field_exact(beam):
    problem, nodes = beam
    coeffs = bm.linear_patch_coeffs(2)
    prob = bm.ManufacturedProblem(coeffs, (8.0, 1.0))
    u = prob.exact_u(nodes.points).ravel()
    pts = np.array([[3.3, 0.41], [0.2, 0.9], [7.6, 0.05]])
    fields = asm.recover_field(pts, nodes, u, prob.material)
    assert np.allclose(fields["displacement"], prob.exact_u(pts), atol=1e-9)
    assert np.allclose(fields["strain"], prob.exact_strain(pts), atol=1e-9)
    assert np.allclose(fields["stress"], prob.exact_stress(pts), atol=1e-9)


def test_manufactured_body_force_path():
    # quadratic field needs the body-force term; sign fixed by equilibrium
    prob = bm.ManufacturedProblem(bm.quadratic_patch_coeffs(2), (1.0, 0.5))
    assert prob.body is not None
    x = np.array([[0.3, 0.2]])
    h = 1e-5
    div = np.zeros(2)
    tmap = ela.voigt_map(2)
    for j in range(2):
        dx = np.zeros(2)
        dx[j] = h
        ds = (prob.exact_stress(x + dx)[0] - prob.exact_stress(x - dx)[0]) / (2 * h)
        div += np.einsum("vi,v->i", tmap[:, :, j], ds)
    assert np.allclose(div + prob.body(x)[0], 0.0, atol=1e-6)


@pytest.mark.parametrize("key, value", [
    ("shape", "hexagon"), ("m", 0), ("eps", 0.0), ("eps", float("nan")), ("box_factor", -1.0),
    ("ball_factor", 0.0), ("quad_interior", 0), ("quad_boundary", 65), ("quad_ball", 0),
    ("quad_curved", 65), ("quad_traction", -2), ("quad_mlpg", 2.5)])
def test_solver_config_rejects_a_bad_value_naming_its_field(key, value):
    with pytest.raises(ValueError, match=f"'{key}'"):
        asm.SolverConfig(**{key: value})
    with pytest.raises(ValueError, match=f"'{key}'"):
        dataclasses.replace(asm.SolverConfig(), **{key: value})


def test_solver_config_unset_counts_are_the_exact_ones():
    config = asm.SolverConfig(m=3)
    assert (config.interior_points(), config.boundary_points()) == (3, 2)
    config = dataclasses.replace(config, quad_interior=1, quad_boundary=64)
    assert (config.interior_points(), config.boundary_points()) == (1, 64)
