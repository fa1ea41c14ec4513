"""The batched GMLS kernel against the per-point ``MomentSystem`` oracle, and
the weak-form row kernels against the einsum contractions they replaced."""

import math
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from dmlpg import assembly as asm
from dmlpg import benchmarks as bm
from dmlpg import elasticity as ela
from dmlpg import geometry as geo
from dmlpg import mlpg
from dmlpg import mls


def _jittered_cloud():
    """11x6 grid on [0,2]x[0,1] with interior nodes moved by up to h/4."""
    base = geo.generate_grid_nodes((11, 6), (2.0, 1.0))
    rng = np.random.default_rng(7)
    pts = base.points.copy()
    inner = np.all((pts > 1e-9) & (pts < np.array([2.0, 1.0]) - 1e-9), axis=1)
    pts[inner] += rng.uniform(-0.25, 0.25, (int(inner.sum()), 2)) * base.mesh_size
    return geo.NodeSet(pts, base.tags, base.masks, base.spacing, base.support,
                       base.mesh_size)


def _case(name):
    """(problem, nodes, method, config, evaluation points) of one test cloud."""
    if name == "beam":
        problem = bm.BeamProblem()
        return (problem, bm.beam_level_factory(problem)(0)[1], "dmlpg1",
                asm.SolverConfig(shape="ball"), bm.beam_eval_mesh(nx=41, ny=5))
    if name == "plate":
        problem = bm.PlateProblem()
        return (problem, bm.plate_level_factory(problem)(0)[1], "dmlpg1",
                asm.SolverConfig(), bm.plate_eval_mesh(n=20))
    if name == "shell":
        problem = bm.BoussinesqProblem()
        return (problem, bm.boussinesq_level_factory(problem, target=800)(0)[1],
                "dmlpg5", asm.SolverConfig(), bm.boussinesq_eval_mesh(n_surface=10))
    problem = bm.ManufacturedProblem(bm.quadratic_patch_coeffs(2), (2.0, 1.0))
    points = np.random.default_rng(8).uniform([0.0, 0.0], [2.0, 1.0], (300, 2))
    return problem, _jittered_cloud(), "dmlpg1", asm.SolverConfig(), points


CASES = ("beam", "plate", "shell", "jittered")


@pytest.fixture(scope="module", params=CASES)
def case(request):
    return _case(request.param)


def _smooth_field(nodes):
    x = nodes.points
    return np.column_stack([np.sin(x[:, 0] + 0.3 * x[:, 1]) * np.cos(x[:, -1]),
                            np.exp(-0.1 * x[:, 0]) * x[:, 1]]
                           + ([np.cos(x[:, 2] - x[:, 0])] if nodes.dim == 3 else []))


def _rel(a, b):
    """Max-norm difference relative to the max norm of b (dense or sparse)."""
    return abs(a - b).max() / abs(b).max()


def _subdomain_key(k, sub, nodes):
    """Node k's sharing key, from its built subdomain and not from the plan:
    the shape and support radius, then a box's corners about the node (each
    face rule fixes its coordinate to exactly lo or hi) and its faces on the
    global boundary, or a ball's radius and plane clips (the outward normals
    of its on-boundary plane pieces).  A curve-clipped subdomain is its own."""
    if sub.curved_clip:
        return k
    if sub.shape == "box":
        fixed = [piece.rule(1).points[0] - sub.center for piece in sub.pieces]
        extent = (tuple(f[axis] for axis, f in enumerate(fixed[0::2])),
                  tuple(f[axis] for axis, f in enumerate(fixed[1::2])),
                  tuple(piece.on_gamma for piece in sub.pieces))
    else:
        extent = (sub.size, frozenset(tuple(piece.rule(1).normals[0]) for piece in sub.pieces
                                      if piece.on_gamma and piece.kind != "arc"))
    return (sub.shape, float(nodes.support[k]), *extent)


def _per_node_assemble(nodes, problem, method, config):
    """Matrix, right-hand side and moment conditions, one ``MomentSystem`` per node."""
    row_builder = asm.dmlpg1_row if method == "dmlpg1" else asm.dmlpg5_row
    lambdas = {}
    d = nodes.dim
    rows, cols, vals, conds = [], [], [], []
    rhs = np.zeros(nodes.n * d)
    for k, x in enumerate(nodes.points):
        moment = mls.MomentSystem.build(x, nodes, config.m, eps=config.eps,
                                        delta=float(nodes.support[k]))
        conds.append(moment.cond)
        phi = moment.phi()
        mask = nodes.masks[k]
        blocks = np.zeros((moment.active.size, d, d))
        if nodes.tags[k] != geo.DIRICHLET:
            sub = asm.subdomain_for_node(k, nodes, problem.geometry, config)
            key = _subdomain_key(k, sub, nodes) if config.cache else k
            row = row_builder(k, sub, problem, config, float(nodes.support[k]), ~mask,
                              lambdas.get(key))
            lambdas.setdefault(key, row.lam)
            blocks = np.einsum("nij,nl->lij", row.lam, phi)
            rhs[d * k: d * k + d] = row.beta
        for i in np.flatnonzero(mask):
            blocks[:, i, :] = 0.0
            blocks[:, i, i] = phi[0]
            rhs[d * k + i] = problem.dirichlet(x[None, :])[0][i]
        for i in range(d):
            for j in range(d):
                rows.append(np.full(moment.active.size, d * k + i))
                cols.append(d * moment.active + j)
                vals.append(blocks[:, i, j])
    matrix = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                   np.concatenate(cols))),
                           shape=(nodes.n * d, nodes.n * d)).tocsr()
    return matrix, rhs, conds


def _weak_oracle(weights, vectors, dmat, tmap, grads):
    """One 5-operand einsum per call (the former weak-form contraction)."""
    tv = np.einsum("vij,qj->qiv", tmap, vectors)
    return np.einsum("q,qiv,vw,wjt,qnt->nij", weights, tv, dmat, tmap, grads,
                     optimize=True)


def _lambda_volume_oracle(sub, basis, dmat, config):
    rule = asm._interior_rule(sub, config)
    test = asm.test_function(sub, config)
    return -_weak_oracle(rule.weights, test.gradients(rule.points), dmat,
                         ela.voigt_map(basis.dim), basis.gradients(rule.points))


def _lambda_boundary_oracle(sub, basis, dmat, config):
    lam = np.zeros((basis.q, basis.dim, basis.dim))
    for piece in sub.pieces:
        if piece.on_gamma and all(piece.traction_known):
            continue
        rule = asm._piece_rule(piece, sub, config, traction=False)
        contrib = _weak_oracle(rule.weights, rule.normals, dmat,
                               ela.voigt_map(basis.dim), basis.gradients(rule.points))
        if piece.on_gamma:
            contrib[:, np.asarray(piece.traction_known, dtype=bool), :] = 0.0
        lam += contrib
    return lam


def _union_set_oracle(k, nodes, sub):
    """Union of the active sets over node k's subdomain, two queries per node."""
    x = nodes.points[k]
    near = nodes.index.query_ball(x, 2.0 * sub.bounding_radius * (1.0 + 1e-12))
    dmax = float(nodes.support[near].max())
    return nodes.index.query_ball(x, sub.bounding_radius + dmax)


def _shape_gradients_oracle(points, node_points, deltas, basis, eps):
    """Standard MLS shape-function gradients (n_pts, n_nodes, d) of one
    subdomain, with the moment matrix checked at its first point (the
    former per-subdomain algebra)."""
    npts, d = points.shape
    p = basis.values(node_points)
    q = p.shape[1]
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
    eig = np.linalg.eigvalsh(a[:1])
    cond = eig[0, -1] / eig[0, 0] if eig[0, 0] > 0.0 else np.nan
    if not cond <= mls.COND_LIMIT:
        raise mls.NodeDeficiencyError(points[0], float(cond))
    c = np.linalg.solve(a, basis.values(points)[:, :, None])[:, :, 0]
    cp = c @ p.T
    s = radial * cp
    da_c = points[:, None, :] * (s @ p)[:, :, None] \
        - np.stack([s @ (node_points[:, t:t + 1] * p) for t in range(d)], axis=2)
    dc = np.linalg.solve(a, basis.gradients(points) - da_c)
    gradients = np.empty((npts, node_points.shape[0], d))
    for t in range(d):
        gradients[:, :, t] = (dc[:, :, t] @ p.T) * w \
            + cp * radial * (points[:, t:t + 1] - node_points[None, :, t])
    return gradients


def _classical_row_oracle(nodes, problem, variant, config, k, sub, survivors):
    """Union set, (union, d, d) blocks, rhs and point count of one classical
    row, with per-piece 4-operand einsum factors (the former code)."""
    d = nodes.dim
    tmap = ela.voigt_map(d)
    dmat = ela.elastic_matrix(problem.material)
    union = _union_set_oracle(k, nodes, sub)
    basis = mls.PolyBasis(config.m, d, nodes.points[k], float(nodes.support[k]))
    if variant == "mlpg1":
        rule = sub.interior_rule(config.quad_mlpg)
        test = asm.test_function(sub, config)
        eps_v = np.einsum("vij,qj->qiv", tmap, test.gradients(rule.points))
        factors = [(rule, -np.einsum("q,qiv,vw,wjt->qijt", rule.weights, eps_v,
                                     dmat, tmap), None)]
        beta = asm._beta(sub, problem, config, survivors, test=test)
    else:
        factors = []
        for piece in sub.pieces:
            if piece.on_gamma and all(piece.traction_known):
                continue
            prule = piece.rule(config.quad_mlpg)
            nq = np.einsum("vij,qj->qiv", tmap, prule.normals)
            known = np.asarray(piece.traction_known) if piece.on_gamma else None
            factors.append((prule, np.einsum("q,qiv,vw,wjt->qijt", prule.weights,
                                             nq, dmat, tmap), known))
        beta = asm._beta(sub, problem, config, survivors, test=None)
    pts = np.concatenate([rule.points for rule, _, _ in factors])
    deltas = nodes.support[nodes.index.nearest_batch(pts)]
    grads = _shape_gradients_oracle(pts, nodes.points[union], deltas, basis, config.eps)
    blocks = np.zeros((union.size, d, d))
    offset = 0
    for rule, a4, known in factors:
        contrib = np.einsum("qijt,qlt->lij", a4,
                            grads[offset:offset + rule.points.shape[0]], optimize=True)
        if known is not None:
            contrib[:, known, :] = 0.0
        blocks += contrib
        offset += rule.points.shape[0]
    return union, blocks, beta, pts.shape[0]


def _per_node_classical(nodes, problem, variant, config):
    """Matrix, rhs, row kinds and evaluation counts of the classical methods,
    node by node, with collocation rows from one ``MomentSystem`` per node."""
    d = nodes.dim
    rows, cols, vals, kinds, evals = [], [], [], [], []
    rhs = np.zeros(nodes.n * d)

    def collocate(k, components):
        x = nodes.points[k]
        moment = mls.MomentSystem.build(x, nodes, config.m, eps=config.eps,
                                        delta=float(nodes.support[k]))
        ubar = problem.dirichlet(x[None, :])[0]
        for i in components:
            rows.append(np.full(moment.active.size, d * k + i))
            cols.append(d * moment.active + i)
            vals.append(moment.phi()[0])
            rhs[d * k + i] = ubar[i]

    for k in range(nodes.n):
        mask = nodes.masks[k]
        if nodes.tags[k] == geo.DIRICHLET:
            collocate(k, range(d))
            kinds.append("dirichlet-collocation")
            continue
        sub = asm.subdomain_for_node(k, nodes, problem.geometry, config)
        union, blocks, beta, npts = _classical_row_oracle(nodes, problem, variant,
                                                          config, k, sub, ~mask)
        evals.append(npts)
        beta[mask] = 0.0
        rhs[d * k: d * k + d] += beta
        collocate(k, np.flatnonzero(mask))
        kinds.append("mixed-replaced" if nodes.tags[k] == geo.MIXED else "weak-form")
        for i in np.flatnonzero(~mask):
            for j in range(d):
                rows.append(np.full(union.size, d * k + i))
                cols.append(d * union + j)
                vals.append(blocks[:, i, j])
    matrix = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                                   np.concatenate(cols))),
                           shape=(nodes.n * d, nodes.n * d)).tocsr()
    return matrix, rhs, kinds, evals


def test_recovery_matches_per_point_oracle(case):
    problem, nodes, _, config, points = case
    u = _smooth_field(nodes)
    fields = asm.recover_field(points, nodes, u.ravel(), problem.material)
    d = nodes.dim
    disp = np.empty((len(points), d))
    grads = np.empty((len(points), d, d))
    for n, x in enumerate(points):
        moment = mls.MomentSystem.build(x, nodes, config.m)
        lam = [moment.basis.values(x)]
        lam += [moment.basis.derivative(x, unit) for unit in np.eye(d, dtype=int)]
        rows = moment.row(np.array(lam)) @ u[moment.active]
        disp[n], grads[n] = rows[0], rows[1:]
    strain = np.einsum("vij,nji->nv", asm.ela.voigt_map(d), grads)
    assert _rel(fields["displacement"], disp) <= 1e-12
    assert _rel(fields["strain"], strain) <= 1e-8


def test_assembly_matches_per_node_path(case):
    problem, nodes, method, config, _ = case
    system = asm.assemble(nodes, problem, method, config)
    matrix, rhs, conds = _per_node_assemble(nodes, problem, method, config)
    assert _rel(system.matrix, matrix) <= 1e-10
    assert np.array_equal(system.rhs, rhs)
    # the spread of moment-matrix condition numbers is recorded, not dropped
    cond = system.stats["moment_cond"]
    assert cond["min"] == pytest.approx(min(conds), rel=1e-6)
    assert cond["median"] == pytest.approx(np.median(conds), rel=1e-6)
    assert cond["max"] == pytest.approx(max(conds), rel=1e-6)


@pytest.mark.parametrize("name, variant, shape", [("beam", "mlpg1", "ball"),
                                                  ("plate", "mlpg5", "box")])
def test_classical_assembly_matches_per_node_path(name, variant, shape):
    problem, nodes, *_ = _case(name)
    config = asm.SolverConfig(shape=shape)
    system = mlpg.assemble_mlpg(nodes, problem, variant, config)
    matrix, rhs, kinds, evals = _per_node_classical(nodes, problem, variant, config)
    assert _rel(system.matrix, matrix) <= 1e-10
    assert np.array_equal(system.rhs, rhs)
    assert system.row_kinds == kinds
    assert system.stats["shape_evals"] == sum(evals)
    assert system.stats["min_evals_per_subdomain"] == min(evals)
    if name == "plate":
        assert "mixed-replaced" in kinds


def _weak_nodes(nodes, problem, config, count=None):
    """Non-Dirichlet nodes and their subdomains; ``count`` spreads a sample
    over the nodes whose subdomains touch the global boundary and the rest."""
    subs = {k: asm.subdomain_for_node(k, nodes, problem.geometry, config)
            for k in range(nodes.n) if nodes.tags[k] != geo.DIRICHLET}
    if count is None:
        return list(subs.items())
    on_gamma = {k: any(p.on_gamma for p in sub.pieces) for k, sub in subs.items()}
    edge = [k for k in subs if on_gamma[k]]
    inner = [k for k in subs if not on_gamma[k]]
    pick = [group[i] for group in (edge, inner)
            for i in np.unique(np.linspace(0, len(group) - 1, count).astype(int))
            if group]
    return [(k, subs[k]) for k in pick]


def _row_close(a, b):
    """Max-norm difference within 1e-13 of the oracle b's max norm."""
    return np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


@pytest.mark.parametrize("name", ["beam", "plate", "shell"])
def test_direct_row_kernels_match_einsum_oracle(name):
    problem, nodes, _, config, _ = _case(name)
    dmat = ela.elastic_matrix(problem.material)
    for k, sub in _weak_nodes(nodes, problem, config):
        basis = mls.PolyBasis(config.m, nodes.dim, sub.center, float(nodes.support[k]))
        assert _row_close(asm._lambda_volume(sub, basis, dmat, config),
                          _lambda_volume_oracle(sub, basis, dmat, config))
        assert _row_close(asm._lambda_boundary(sub, basis, dmat, config),
                          _lambda_boundary_oracle(sub, basis, dmat, config))


@pytest.mark.parametrize("name", ["beam", "plate", "shell"])
@pytest.mark.parametrize("variant", ["mlpg1", "mlpg5"])
def test_classical_row_matches_einsum_oracle(name, variant):
    problem, nodes, _, config, _ = _case(name)
    batch = _weak_nodes(nodes, problem, config, count=4)
    rows = mlpg._classical_rows(variant, nodes, [(k, k, sub, None) for k, sub in batch],
                                problem, config, Counter())
    for (k, sub), row in zip(batch, rows):
        survivors = ~nodes.masks[k]
        union, blocks, beta, npts = _classical_row_oracle(nodes, problem, variant,
                                                          config, k, sub, survivors)
        assert np.array_equal(row.active, union) and row.shape_evals == npts
        assert _row_close(row.lam, blocks)
        assert np.array_equal(row.beta, beta)


def test_all_methods_report_the_same_stats():
    problem, nodes, *_ = _case("beam")
    keys = {method: set(asm.assemble(nodes, problem, method).stats)
            for method in ("dmlpg1", "dmlpg5")}
    keys.update({variant: set(mlpg.assemble_mlpg(nodes, problem, variant).stats)
                 for variant in ("mlpg1", "mlpg5")})
    assert all(k == keys["dmlpg1"] for k in keys.values())
    assert {"shape_evals", "min_evals_per_subdomain", "moment_cond",
            "cache_hits", "groups", "classical"} <= keys["dmlpg1"]


def test_classical_counts_show_the_padding():
    problem, nodes, *_ = _case("beam")
    direct = asm.assemble(nodes, problem, "dmlpg1").stats["classical"]
    assert direct == {"chunks": 0, "pairs": 0, "padded_pairs": 0}
    for variant in ("mlpg1", "mlpg5"):
        system = mlpg.assemble_mlpg(nodes, problem, variant)
        counts = system.stats["classical"]
        assert 0 < counts["chunks"] < system.stats["groups"]["subdomains_built"]
        assert 0 < counts["pairs"] <= counts["padded_pairs"]


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.tuples(st.integers(1, 400), st.integers(1, 200)), min_size=1, max_size=64))
def test_chunks_are_cut_only_where_the_next_subdomain_overflows(sizes):
    npts, nuni = np.array(sizes).T
    chunks = mlpg._chunks(npts, nuni)
    assert sorted(np.concatenate(chunks).tolist()) == list(range(len(sizes)))

    def padded(chunk):
        return chunk.size * npts[chunk].max() * nuni[chunk].max()
    for chunk, after in zip(chunks, chunks[1:] + [None]):
        assert chunk.size == 1 or padded(chunk) <= mlpg.PAIR_BUDGET
        if after is not None:       # it could not take the next subdomain
            assert padded(np.r_[chunk, after[:1]]) > mlpg.PAIR_BUDGET


def test_mixed_rule_sizes_share_chunks():
    # plate level 0 on boxes: the hole's 300-point polar rules sit in most
    # batches among 100-point box rules; one chunk size per batch from its
    # largest rule made 516 chunks for its 535 subdomains
    problem = bm.PlateProblem()
    nodes = bm.plate_level_factory(problem)(0)[1]
    counts = mlpg.assemble_mlpg(nodes, problem, "mlpg1", asm.SolverConfig()).stats["classical"]
    assert counts["chunks"] < 535 // 3
    assert counts["padded_pairs"] < 1.1 * counts["pairs"]


def _classical_systems(monkeypatch, budget):
    """Beam 33x5 MLPG1/MLPG5 and plate level 0 MLPG5 under a chunk budget."""
    monkeypatch.setattr(mlpg, "PAIR_BUDGET", budget)
    beam = geo.generate_beam_nodes(33, 5, 8.0, 1.0)
    plate_problem = bm.PlateProblem()
    plate = bm.plate_level_factory(plate_problem)(0)[1]
    return [mlpg.assemble_mlpg(nodes, problem, variant)
            for nodes, problem, variant in ((beam, bm.BeamProblem(), "mlpg1"),
                                            (beam, bm.BeamProblem(), "mlpg5"),
                                            (plate, plate_problem, "mlpg5"))]


def test_chunk_budget_does_not_change_classical_results(monkeypatch):
    systems = _classical_systems(monkeypatch, mlpg.PAIR_BUDGET)
    for budget, chunks in ((1, "one subdomain"), (10**12, "a whole batch")):
        for system, again in zip(systems, _classical_systems(monkeypatch, budget)):
            assert _rel(again.matrix, system.matrix) <= 1e-13, chunks
            assert np.array_equal(again.rhs, system.rhs), chunks
            # one chunk per subdomain, or one per batch of BATCH_NODES (no
            # batch of these clouds reaches TRACTION_BUDGET)
            built = again.stats["groups"]["subdomains_built"]
            expect = built if budget == 1 else -(-built // asm.BATCH_NODES)
            assert again.stats["classical"]["chunks"] == expect


def test_chunk_size_does_not_change_results(monkeypatch):
    problem, nodes, method, config, points = _case("plate")
    u = _smooth_field(nodes).ravel()
    system = asm.assemble(nodes, problem, method, config)
    fields = asm.recover_field(points, nodes, u, problem.material)
    for budget in (1, 500):
        monkeypatch.setattr(mls, "PAIR_BUDGET", budget)
        chunked = asm.assemble(nodes, problem, method, config)
        assert _rel(chunked.matrix, system.matrix) <= 1e-13
        again = asm.recover_field(points, nodes, u, problem.material)
        for key in ("displacement", "strain"):
            assert _rel(again[key], fields[key]) <= 1e-13


def test_deficient_point_raises_first_in_input_order():
    problem, nodes, *_ = _case("beam")
    u = np.zeros(2 * nodes.n)
    # (-3.9h, 0.5) sees one node: too few active nodes, not an empty set
    lonely = [-3.9 * nodes.mesh_size, 0.5]
    points = np.array([[4.0, 0.5], [100.0, 100.0], [4.1, 0.5], lonely])
    for first, stack in ((points[1], points), (points[3], points[[0, 2, 3]])):
        with pytest.raises(mls.NodeDeficiencyError) as info:
            asm.recover_field(stack, nodes, u, problem.material)
        assert np.array_equal(info.value.point, first)
        with pytest.raises(mls.NodeDeficiencyError) as oracle:
            mls.MomentSystem.build(first, nodes, 2)
        assert str(info.value) == str(oracle.value)


@pytest.mark.parametrize("method, error", [("dmlpg1", mls.NodeDeficiencyError),
                                           ("mlpg1", geo.UnsupportedClipError)])
def test_deficient_nodes_fail_assembly_in_node_order(method, error):
    problem = bm.ManufacturedProblem(bm.linear_patch_coeffs(2), (2.0, 1.0))
    base = geo.generate_grid_nodes((11, 6), (2.0, 1.0))
    # two far-away nodes see nobody but themselves
    pts = np.vstack([base.points, [[2.0, 40.0], [2.0, 80.0]]])
    n = pts.shape[0]
    nodes = geo.NodeSet(pts, np.append(base.tags, [geo.NEUMANN] * 2),
                        np.vstack([base.masks, np.zeros((2, 2), bool)]),
                        np.append(base.spacing, [0.2] * 2),
                        np.append(base.support, [0.8] * 2), base.mesh_size)
    assemble = asm.assemble if method.startswith("d") else mlpg.assemble_mlpg
    with pytest.raises(asm.AssemblyError) as info:
        assemble(nodes, problem, method)
    assert [k for k, _ in info.value.failures] == [n - 2, n - 1]
    # a direct node's moment deficiency outranks its clip error; the classical
    # methods fit no moment system at a weak node
    assert all(isinstance(e, error) for _, e in info.value.failures)


@pytest.mark.parametrize("variant", ["mlpg1", "mlpg5"])
def test_deficient_classical_nodes_fail_alone(variant):
    problem = bm.ManufacturedProblem(bm.linear_patch_coeffs(2), (2.0, 1.0))
    base = geo.generate_grid_nodes((11, 6), (2.0, 1.0))
    k = int(np.argmin(np.linalg.norm(base.points - [1.0, 0.6], axis=1)))
    support = base.support.copy()
    # the quadrature points inside node k's box have k as nearest node, and
    # no node lies within their shrunken support: a zero moment matrix.  The
    # nominal mesh size only bounds the supports from below
    support[k] = 0.3 * base.mesh_size
    nodes = geo.NodeSet(base.points, base.tags, base.masks, base.spacing, support,
                        0.2 * base.mesh_size)
    config = asm.SolverConfig()
    with pytest.raises(asm.AssemblyError) as info:
        mlpg.assemble_mlpg(nodes, problem, variant, config)
    failures = dict(info.value.failures)

    def first_point(j):
        sub = asm.subdomain_for_node(j, nodes, problem.geometry, config)
        if variant == "mlpg1":
            return sub.interior_rule(config.quad_mlpg).points[0]
        return asm.boundary_operator(sub, np.eye(3), ela.voigt_map(2),
                                     lambda piece: piece.rule(config.quad_mlpg))[0][0]

    nan = mls.NodeDeficiencyError(first_point(k), math.nan)
    if variant == "mlpg1":
        assert failures.keys() == {k} and str(failures[k]) == str(nan)
        return
    # a face point ties between two nodes and takes the lower index's
    # support, so the neighbours above and to the right (k + 1, k + 6) fail
    # too.  k and k + 1 pass the first-point check and meet a singular
    # matrix further on; each is solved alone and reported at its own rule
    assert list(failures) == [k, k + 1, k + 6]
    for j in (k, k + 1):
        singular = mls.NodeDeficiencyError(first_point(j), math.inf, "Singular matrix")
        assert str(failures[j]) == str(singular)
    assert str(failures[k + 6]) == str(mls.NodeDeficiencyError(first_point(k + 6), math.nan))


def test_empty_point_stack_returns_empty_fields():
    problem, nodes, *_ = _case("beam")
    fields = asm.recover_field(np.empty((0, 2)), nodes, np.zeros(2 * nodes.n),
                               problem.material)
    assert fields["displacement"].shape == (0, 2)
    assert fields["strain"].shape == (0, 3)
    assert fields["stress"].shape == (0, 3)
    assert fields["von_mises"].shape == (0,)


def test_nearest_batch_breaks_ties_to_lowest_index():
    base = geo.generate_grid_nodes((9, 9), (1.0, 1.0))
    # the midpoint of each horizontal grid edge is equidistant from its ends
    left = np.flatnonzero(base.points[:, 0] < 1.0 - 1e-9)
    right = [int(np.argmin(np.linalg.norm(base.points - x - [base.mesh_size, 0.0], axis=1)))
             for x in base.points[left]]
    mids = 0.5 * (base.points[left] + base.points[right])
    lowest = np.minimum(left, right)
    assert base.index.nearest_batch(mids).tolist() == lowest.tolist()
    assert [base.nearest(x) for x in mids] == lowest.tolist()
    # two ends with different supports: recovery uses the lowest index's
    i, j = min(zip(lowest, np.maximum(left, right)), key=lambda e: abs(e[0] - e[1]))
    support = base.support.copy()
    support[i], support[j] = 0.3, 0.45
    nodes = geo.NodeSet(base.points, base.tags, base.masks, base.spacing, support,
                        base.mesh_size)
    mid = 0.5 * (nodes.points[i] + nodes.points[j])
    assert nodes.support_at(mid) == 0.3
    u = _smooth_field(nodes)
    material = bm.ManufacturedProblem(bm.linear_patch_coeffs(2), (1.0, 1.0)).material
    fields = asm.recover_field(mid, nodes, u.ravel(), material)
    moment = mls.MomentSystem.build(mid, nodes, 2, delta=0.3)
    expect = moment.row(moment.basis.values(mid))[0] @ u[moment.active]
    assert _rel(fields["displacement"][0], expect) <= 1e-12


def _brute_force_nearest(points, nodes):
    dist = np.linalg.norm(points[:, None, :] - nodes.points[None, :, :], axis=2)
    d0 = dist.min(axis=1, keepdims=True)
    ties = dist - d0 <= 1e-12 * np.maximum(d0, 1.0)
    return np.where(ties, np.arange(nodes.n), nodes.n).min(axis=1)


def test_nearest_batch_matches_brute_force_on_shell_mesh():
    nodes = geo.generate_boussinesq_nodes(10.0, 0.25, 1386)
    points = bm.boussinesq_eval_mesh()
    lowest = _brute_force_nearest(points, nodes)
    assert nodes.index.nearest_batch(points).tolist() == lowest.tolist()


def test_nearest_batch_ties_beyond_four_nodes():
    # each cell centre of a 5x5x5 grid is equidistant from its cell's 8 corners
    nodes = geo.generate_grid_nodes((5, 5, 5), (1.0, 1.0, 1.0))
    h = nodes.mesh_size
    axis = (np.arange(4) + 0.5) * h
    centres = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    dist = np.linalg.norm(centres[:, None] - nodes.points[None], axis=2)
    assert np.all(np.isclose(dist, np.sqrt(3.0) * h / 2.0).sum(axis=1) == 8)
    lowest = _brute_force_nearest(centres, nodes)
    assert nodes.index.nearest_batch(centres).tolist() == lowest.tolist()
    assert [nodes.nearest(x) for x in centres] == lowest.tolist()
