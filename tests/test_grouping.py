"""Plan-keyed assembly: the vectorised subdomain plan against the former
per-node size policy, and the keyed node loop against a per-node loop that
shares functionals by keys taken from the built subdomains."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dmlpg import assembly as asm
from dmlpg import benchmarks as bm
from dmlpg import geometry as geo
from dmlpg import mls
from dmlpg import mlpg
from test_gmls_batch import _case, _rel, _subdomain_key


def _policy_oracle(k, nodes, geometry, config):
    """(shape, size) of node k under the size policy, one node at a time; a
    node on a curve is one within the disk builder's tolerance."""
    center, spacing = nodes.points[k], nodes.spacing[k]
    tol = 1e-12 * max(1.0, config.ball_factor * spacing)
    clearance = math.inf
    for _, ccenter, radius, keep in geometry.curves():
        rho = float(np.linalg.norm(center - ccenter))
        clearance = min(clearance, rho - radius if keep == "outside" else radius - rho)
    if clearance <= tol:
        return "ball", config.ball_factor * spacing
    if config.shape == "box":
        size = config.box_factor * spacing
        cap = 2.0 * clearance / math.sqrt(nodes.dim)
        return "box", cap * (1.0 - 1e-9) if size > cap else size
    size = config.ball_factor * spacing
    return "ball", clearance * (1.0 - 1e-9) if size > clearance else size


def _cloud(name):
    """(problem, nodes, method, config) of a test cloud; beam-box is the beam on boxes."""
    problem, nodes, method, config, _ = _case(name.split("-")[0])
    if name == "beam-box":
        config = asm.SolverConfig(shape="box")
    return problem, nodes, method, config


CLOUDS = ("beam", "beam-box", "plate", "shell", "jittered")


def _per_node_loop(nodes, problem, method, config):
    """Matrix, rhs and hit counts of a per-node loop: one subdomain and one
    row kernel call per weak node, then the same GMLS solve.  With the cache
    on, a node takes the functional of the first node with its
    ``_subdomain_key``; the hit counts are {first node: the other nodes}."""
    row_builder = asm.dmlpg1_row if method == "dmlpg1" else asm.dmlpg5_row
    d = nodes.dim
    lambdas, members = {}, {}
    functionals = np.zeros((nodes.n, d, d, mls.basis_size(config.m, d)))
    rhs = np.zeros(nodes.n * d)
    for k in range(nodes.n):
        mask = nodes.masks[k]
        if nodes.tags[k] != geo.DIRICHLET:
            sub = asm.subdomain_for_node(k, nodes, problem.geometry, config)
            key = _subdomain_key(k, sub, nodes) if config.cache else k
            row = row_builder(k, sub, problem, config, float(nodes.support[k]), ~mask,
                              lambdas.get(key))
            lambdas.setdefault(key, row.lam)
            members.setdefault(key, []).append(k)
            measure = sub.measure if config.scale_rows else 1.0
            lam = row.lam / measure
            lam[:, mask, :] = 0.0
            functionals[k] = lam.transpose(1, 2, 0)
            rhs[d * k: d * k + d] = row.beta / measure
        if mask.any():
            ubar = problem.dirichlet(nodes.points[k][None, :])[0]
            for i in np.flatnonzero(mask):
                functionals[k, i, i, 0] = 1.0
                rhs[d * k + i] = ubar[i]
    moments = mls.gmls_batch(nodes.points, nodes.support, nodes, config.m,
                             functionals.reshape(nodes.n, d * d, -1), eps=config.eps)
    owner = np.repeat(np.arange(nodes.n), np.diff(moments.indptr))
    # the blocks as COO triplets, summed and sorted by scipy (the former scatter)
    blocks = moments.coefficients.reshape(d, d, -1)
    rows = np.broadcast_to(d * owner + np.arange(d)[:, None, None], blocks.shape)
    cols = np.broadcast_to(d * moments.active + np.arange(d)[None, :, None], blocks.shape)
    matrix = sp.coo_matrix((blocks.ravel(), (rows.ravel(), cols.ravel())),
                           shape=(nodes.n * d, nodes.n * d)).tocsr()
    matrix.eliminate_zeros()
    hit_counts = {m[0]: len(m) - 1 for m in members.values() if len(m) > 1}
    return matrix, rhs, hit_counts


def _assert_same_system(system, matrix, rhs):
    assert np.array_equal(system.matrix.indptr, matrix.indptr)
    assert np.array_equal(system.matrix.indices, matrix.indices)
    assert np.array_equal(system.matrix.data, matrix.data)
    assert np.array_equal(system.rhs, rhs)


@pytest.mark.parametrize("name", CLOUDS)
def test_plan_matches_the_per_node_policy(name):
    problem, nodes, _, config = _cloud(name)
    plan = asm.plan_subdomains(nodes.points, nodes.spacing, problem.geometry, config)
    whole = 0
    for k in range(nodes.n):
        shape, size = _policy_oracle(k, nodes, problem.geometry, config)
        assert plan.shape[k] == shape and plan.size[k] == size
        if nodes.tags[k] == geo.DIRICHLET:
            continue        # no subdomain; the shell's clamped spheres have none
        sub = asm.subdomain_for_node(k, nodes, problem.geometry, config)
        assert sub.shape == shape and sub.size == size
        lo, hi = (np.stack([plan.lo[k], plan.hi[k]]) - nodes.points[k]).tolist()
        key = _subdomain_key(k, sub, nodes)
        if shape == "box":      # clipped boxes too: their corners and faces
            assert key[2:] == (tuple(lo), tuple(hi), tuple(plan.faces[k].T.ravel()))
        if plan.whole[k]:
            whole += 1
            assert not any(piece.on_gamma for piece in sub.pieces)
            assert not sub.curved_clip
            extent = ((size, frozenset()) if shape == "ball"
                      else (tuple(lo), tuple(hi), (False,) * 2 * len(lo)))
            assert key == (shape, float(nodes.support[k]), *extent)
    assert whole > nodes.n // 3


@pytest.mark.parametrize("scale_rows", [False, True])
@pytest.mark.parametrize("name", CLOUDS)
def test_grouped_assembly_is_bit_identical_to_the_per_node_loop(name, scale_rows):
    problem, nodes, method, config = _cloud(name)
    config = asm.SolverConfig(**{**config.__dict__, "scale_rows": scale_rows})
    system = asm.assemble(nodes, problem, method, config)
    matrix, rhs, hit_counts = _per_node_loop(nodes, problem, method, config)
    _assert_same_system(system, matrix, rhs)
    weak = int(np.count_nonzero(nodes.tags != geo.DIRICHLET))
    assert system.stats["cache_hit_counts"] == hit_counts
    assert system.stats["cache_hits"] == sum(hit_counts.values())
    assert system.stats["cache_misses"] == weak - sum(hit_counts.values())
    # under a body force (the jittered cloud's quadratic field) every weak
    # node builds its subdomain
    built = system.stats["groups"]["subdomains_built"]
    assert (built < weak) == (problem.body is None)


def test_group_counts_match_every_built_subdomain(monkeypatch):
    problem, nodes, method, config = _cloud("beam")
    weak = [k for k in range(nodes.n) if nodes.tags[k] != geo.DIRICHLET]
    keys, whole = [], []
    for k in weak:
        sub = asm.subdomain_for_node(k, nodes, problem.geometry, config)
        keys.append(_subdomain_key(k, sub, nodes))
        if not sub.curved_clip and not any(piece.on_gamma for piece in sub.pieces):
            whole.append(keys[-1])
    calls = {"build_subdomain": 0, "dmlpg1_row": 0}
    for name in calls:
        def counted(*args, _fn=getattr(asm, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(asm, name, counted)
    stats = asm.assemble(nodes, problem, method, config).stats
    built = len(weak) - len(whole) + len(set(whole))
    assert stats["groups"] == {"subdomains_built": built}
    assert stats["cache_misses"] == len(set(keys)) < built
    assert stats["cache_hits"] == len(weak) - len(set(keys))
    assert calls == {"build_subdomain": built, "dmlpg1_row": built}


@st.composite
def scattered_clouds(draw):
    """(problem, nodes, method, shape): a grid of square cells on an axis box
    whose interior nodes move by up to 0, 1/8 or 1/4 of the spacing per axis,
    with a linear field or a quadratic one (which has a body force)."""
    counts = (draw(st.integers(5, 9)), draw(st.integers(4, 6)))
    lengths = tuple(0.25 * (c - 1) for c in counts)
    base = geo.generate_grid_nodes(counts, lengths)
    pts = base.points.copy()
    inner = np.all((pts > 1e-9) & (pts < np.array(lengths) - 1e-9), axis=1)
    jitter = draw(st.sampled_from([0.0, 0.125, 0.25])) * base.mesh_size
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    pts[inner] += rng.uniform(-jitter, jitter, (int(inner.sum()), 2))
    nodes = geo.NodeSet(pts, base.tags, base.masks, base.spacing, base.support,
                        base.mesh_size)
    coeffs = (bm.linear_patch_coeffs(2) if draw(st.booleans())
              else bm.quadratic_patch_coeffs(2))
    return (bm.ManufacturedProblem(coeffs, lengths), nodes,
            draw(st.sampled_from(["dmlpg1", "dmlpg5"])), draw(st.sampled_from(["box", "ball"])))


@settings(max_examples=25, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scattered_clouds())
def test_keyed_assembly_matches_the_uncached_one_on_scattered_clouds(cloud):
    problem, nodes, method, shape = cloud
    on = asm.assemble(nodes, problem, method, asm.SolverConfig(shape=shape))
    off = asm.assemble(nodes, problem, method, asm.SolverConfig(shape=shape, cache=False))
    assert _rel(on.matrix, off.matrix) <= 1e-14
    assert np.array_equal(on.rhs, off.rhs)
    weak = int(np.count_nonzero(nodes.tags != geo.DIRICHLET))
    assert on.stats["cache_hits"] + on.stats["cache_misses"] == weak


def test_classical_methods_group_nothing():
    problem, nodes, *_ = _case("beam")
    weak = int(np.count_nonzero(nodes.tags != geo.DIRICHLET))
    for variant in ("mlpg1", "mlpg5"):
        stats = mlpg.assemble_mlpg(nodes, problem, variant).stats
        assert stats["groups"] == {"subdomains_built": weak}
        counters = stats["cache_hits"], stats["cache_misses"], stats["cache_hit_counts"]
        assert counters == (0, 0, {})
    off = asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig(cache=False)).stats
    assert off["groups"]["subdomains_built"] == weak
    assert (off["cache_hits"], off["cache_misses"], off["cache_hit_counts"]) == (0, 0, {})


@pytest.mark.parametrize("method", ["dmlpg1", "dmlpg5"])
def test_body_force_groups_match_the_uncached_assembly(method):
    problem = bm.ManufacturedProblem(bm.quadratic_patch_coeffs(3), (1.0, 0.5, 0.5))
    assert problem.body is not None
    nodes = geo.generate_grid_nodes((7, 4, 4), (1.0, 0.5, 0.5))
    on = asm.assemble(nodes, problem, method, asm.SolverConfig())
    off = asm.assemble(nodes, problem, method, asm.SolverConfig(cache=False))
    # with a body force every weak node builds its own subdomain and rule
    assert on.stats["groups"] == {"subdomains_built": int(np.sum(nodes.tags != geo.DIRICHLET))}
    assert on.stats["cache_hits"] > 0
    assert _rel(on.matrix, off.matrix) <= 1e-14
    assert np.abs(on.rhs - off.rhs).max() <= 1e-14 * np.abs(off.rhs).max()


def test_box_face_near_a_plane_takes_the_clipped_path():
    problem = bm.ManufacturedProblem(bm.linear_patch_coeffs(2), (1.0, 0.5))
    base = geo.generate_grid_nodes((9, 5), (1.0, 0.5))
    h = base.mesh_size
    pts = base.points.copy()
    # three interior nodes whose top box face sits 0.5, 1.5 and 3 tolerances
    # (1e-12 * side) below the plane y = 0.5
    moved = []
    for x, gap in ((0.25, 0.5), (0.5, 1.5), (0.75, 3.0)):
        k = int(np.argmin(np.linalg.norm(pts - [x, 0.375], axis=1)))
        pts[k, 1] = 0.5 - 0.5 * h - gap * 1e-12 * h
        moved.append(k)
    nodes = geo.NodeSet(pts, base.tags, base.masks, base.spacing, base.support, h)
    config = asm.SolverConfig()
    plan = asm.plan_subdomains(nodes.points, nodes.spacing, problem.geometry, config)
    assert plan.whole[moved].tolist() == [False, True, True]
    subs = [asm.subdomain_for_node(k, nodes, problem.geometry, config) for k in moved]
    assert [any(p.on_gamma for p in sub.pieces) for sub in subs] == [True, False, False]
    system = asm.assemble(nodes, problem, "dmlpg1", config)
    _assert_same_system(system, *_per_node_loop(nodes, problem, "dmlpg1", config)[:2])


def test_disk_rim_near_a_plane_takes_the_builders_path():
    problem = bm.ManufacturedProblem(bm.linear_patch_coeffs(2), (1.0, 0.5))
    base = geo.generate_grid_nodes((9, 5), (1.0, 0.5))
    config = asm.SolverConfig(shape="ball")
    r = config.ball_factor * base.mesh_size
    pts = base.points.copy()
    # four interior nodes whose disk rim reaches 1.5 and 0.5 tolerances
    # (1e-12 * max(r, 1)) past the plane y = 0.5, or stops 1.5 and 3 short
    moved = []
    for x, gap in ((0.25, -1.5), (0.375, -0.5), (0.5, 1.5), (0.75, 3.0)):
        k = int(np.argmin(np.linalg.norm(pts - [x, 0.375], axis=1)))
        pts[k, 1] = 0.5 - r - gap * 1e-12
        moved.append(k)
    nodes = geo.NodeSet(pts, base.tags, base.masks, base.spacing, base.support,
                        base.mesh_size)
    plan = asm.plan_subdomains(nodes.points, nodes.spacing, problem.geometry, config)
    assert plan.whole[moved].tolist() == [False, True, True, True]
    with pytest.raises(geo.UnsupportedClipError, match="off-center"):
        asm.subdomain_for_node(moved[0], nodes, problem.geometry, config)
    for k in moved[1:]:
        sub = asm.subdomain_for_node(k, nodes, problem.geometry, config)
        assert not any(p.on_gamma for p in sub.pieces)
        assert _subdomain_key(k, sub, nodes)[2:] == (r, frozenset())


@pytest.mark.parametrize("name", ["beam", "plate", "shell"])
def test_traction_batch_size_does_not_change_results(monkeypatch, name):
    problem, nodes, method, config = _cloud(name)
    system = asm.assemble(nodes, problem, method, config)
    for budget in (1, 500):
        monkeypatch.setattr(asm, "TRACTION_BUDGET", budget)
        again = asm.assemble(nodes, problem, method, config)
        assert np.array_equal(again.rhs, system.rhs)
        assert np.array_equal(again.matrix.data, system.matrix.data)


@pytest.mark.parametrize("method", ["dmlpg1", "dmlpg5"])
def test_box_on_a_traction_plane_misses_the_interior_signature(method):
    # node (0.5, 0.375) moved to y = 0.4375: its box keeps the interior boxes'
    # extent, but its top face lies on the prescribed-traction plane y = 0.5
    problem = bm.ManufacturedProblem(bm.linear_patch_coeffs(2), (1.0, 0.5))
    base = geo.generate_grid_nodes((9, 5), (1.0, 0.5))
    pts = base.points.copy()
    k = int(np.argmin(np.linalg.norm(pts - [0.5, 0.375], axis=1)))
    pts[k, 1] = 0.4375
    nodes = geo.NodeSet(pts, base.tags, base.masks, base.spacing, base.support,
                        base.mesh_size)
    sub = asm.subdomain_for_node(k, nodes, problem.geometry, asm.SolverConfig())
    assert [p.on_gamma for p in sub.pieces] == [False, False, False, True]
    on = asm.assemble(nodes, problem, method, asm.SolverConfig())
    off = asm.assemble(nodes, problem, method, asm.SolverConfig(cache=False))
    assert _rel(on.matrix, off.matrix) <= 1e-14
    assert np.array_equal(on.rhs, off.rhs)
    u = asm.solve(on)
    exact = problem.exact_u(nodes.points).ravel()
    assert np.linalg.norm(u - exact) / np.linalg.norm(exact) < 1e-10
