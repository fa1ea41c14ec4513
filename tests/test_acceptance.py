"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Heavy runs (the beam refinement ladders and the 3D point-load problem) are
shared through module fixtures; every tolerance is pinned here.
"""

import math
import time

import numpy as np
import pytest

from dmlpg import assembly as asm
from dmlpg import benchmarks as bm
from dmlpg import elasticity as ela
from dmlpg import geometry as geo
from dmlpg import mlpg
from dmlpg import mls

pytestmark = pytest.mark.acceptance


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy runs


@pytest.fixture(scope="module")
def beam_studies():
    problem = bm.BeamProblem()
    eval_pts = bm.beam_eval_mesh()
    factory = bm.beam_level_factory(problem)
    out = {}
    t0 = time.perf_counter()
    for label, cfg in (("dmlpg1-box", asm.SolverConfig(shape="box")),
                       ("dmlpg1-ball", asm.SolverConfig(shape="ball")),
                       ("mlpg1-box", asm.SolverConfig(shape="box"))):
        method = label.split("-")[0]
        out[label] = bm.convergence_study(factory, method, 3, eval_pts, cfg)
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def boussinesq_runs():
    problem = bm.BoussinesqProblem()
    nodes = geo.generate_boussinesq_nodes(10.0, 0.25, 1386)
    cfg = asm.SolverConfig(shape="box")
    t0 = time.perf_counter()
    direct = asm.assemble(nodes, problem, "dmlpg1", cfg)
    u = asm.solve(direct)
    r = np.linspace(0.5, 5.0, 30)
    pts = np.column_stack([r / math.sqrt(2.0), r / math.sqrt(2.0), np.zeros_like(r)])
    fields = asm.recover_field(pts, nodes, u, problem.material, cfg.m, cfg.eps)
    classical5 = mlpg.assemble_mlpg(nodes, problem, "mlpg5", cfg)
    classical1 = mlpg.assemble_mlpg(nodes, problem, "mlpg1", cfg)
    elapsed = time.perf_counter() - t0
    return {"problem": problem, "nodes": nodes, "u": u, "profile_r": r,
            "profile_pts": pts, "fields": fields, "direct": direct,
            "mlpg5": classical5, "mlpg1": classical1, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_polynomial_reproduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for dim in (2, 3):
        for m in (2, 3):
            counts = (9, 9) if dim == 2 else (6, 6, 6)
            uniform = geo.generate_grid_nodes(counts, (1.0,) * dim, m=m,
                                              support_factor=2.0)
            pts = rng.uniform(0, 1, size=(160 if dim == 2 else 420, dim))
            pts[:, 0] = np.sort(pts[:, 0]) ** 1.6     # graded in x
            graded = geo.NodeSet(
                pts, np.full(pts.shape[0], geo.INTERIOR),
                np.zeros(pts.shape, bool), np.full(pts.shape[0], 0.1),
                np.full(pts.shape[0], (0.5 if dim == 2 else 0.7) * m), 0.05)
            for nodes in (uniform, graded):
                for _ in range(3):
                    x = rng.uniform(0.25, 0.75, size=dim)
                    probe = mls.PolyBasis(m, dim, x, 1.0)
                    vals = probe.values(nodes.points)
                    row = mls.mls_shape(x, nodes, m)
                    worst = max(worst, np.abs(
                        row.coefficients @ vals[row.active] - probe.values(x)).max())
                    moment = mls.MomentSystem.build(x, nodes, m)
                    for axis in range(dim):
                        alpha = np.zeros(dim, dtype=np.int64)
                        alpha[axis] = 1
                        drow = mls.gmls_derivative_row(x, alpha, nodes, m)
                        exact = probe.derivative(x, alpha)
                        got = drow.coefficients @ vals[drow.active]
                        worst = max(worst, np.abs(got - exact).max()
                                    / max(1.0, np.abs(exact).max()))
    # weak-form rows: assembled coefficients applied to polynomial data match
    # an independently integrated local weak form
    problem = bm.BeamProblem()
    nodes = geo.generate_beam_nodes(17, 5, 8.0, 1.0)
    coeffs = rng.uniform(-1, 1, size=(2, 6))
    field = bm.ManufacturedProblem(coeffs, (8.0, 1.0))
    cfg = asm.SolverConfig()
    tmap = ela.voigt_map(2)
    for method in ("dmlpg1", "dmlpg5"):
        k = int(np.argmin(np.linalg.norm(nodes.points - [4.0, 0.5], axis=1)))
        sub = asm.subdomain_for_node(k, nodes, problem.geometry, cfg)
        builder = asm.dmlpg1_row if method == "dmlpg1" else asm.dmlpg5_row
        row = builder(k, sub, problem, cfg, float(nodes.support[k]),
                      np.array([True, True]), asm.LambdaCache(False))
        moment = mls.MomentSystem.build(nodes.points[k], nodes, 2,
                                        delta=float(nodes.support[k]))
        blocks = np.einsum("nij,nl->lij", row.lam, moment.phi())
        lhs = np.einsum("lij,lj->i", blocks, field.exact_u(nodes.points[moment.active]))
        if method == "dmlpg1":
            rule = sub.interior_rule(16)
            test = asm.test_function(sub, cfg)
            eps_v = np.einsum("vij,qj->qiv", tmap, test.gradients(rule.points))
            lam_u = -np.einsum("q,qiv,qv->i", rule.weights, eps_v,
                               field.exact_stress(rule.points))
        else:
            lam_u = np.zeros(2)
            for piece in sub.pieces:
                prule = piece.rule(16)
                nq = np.einsum("vij,qj->qiv", tmap, prule.normals)
                lam_u += np.einsum("q,qiv,qv->i", prule.weights, nq,
                                   field.exact_stress(prule.points))
        worst = max(worst, np.abs(lhs - lam_u).max() / max(1.0, np.abs(lam_u).max()))
    elapsed = time.perf_counter() - t0
    _report("criterion 1 (polynomial reproduction)",
            worst < 1e-9 and elapsed < 10.0,
            f"worst residual {worst:.2e} (limit 1e-9), {elapsed:.1f}s (limit 10s)")


def test_criterion_2_patch_tests():
    t0 = time.perf_counter()
    cases = []
    for dim, shapes in ((2, ("box", "ball")), (3, ("box",))):
        counts = (9, 5) if dim == 2 else (5, 5, 5)
        lengths = (1.0, 0.5) if dim == 2 else (1.0, 1.0, 1.0)
        nodes = geo.generate_grid_nodes(counts, lengths)
        for degree in (1, 2):
            coeffs = (bm.linear_patch_coeffs(dim) if degree == 1
                      else bm.quadratic_patch_coeffs(dim))
            problem = bm.ManufacturedProblem(coeffs, lengths)
            exact = problem.exact_u(nodes.points).ravel()
            for shape in shapes:
                cfg = asm.SolverConfig(shape=shape, quad_radial=24,
                                       quad_angular=24)
                for method in ("dmlpg1", "dmlpg5"):
                    u = asm.solve(asm.assemble(nodes, problem, method, cfg))
                    err = np.linalg.norm(u - exact) / np.linalg.norm(exact)
                    cases.append((f"{method}/{shape}/deg{degree}/{dim}D", err))
    elapsed = time.perf_counter() - t0
    worst = max(err for _, err in cases)
    _report("criterion 2 (patch tests)", worst < 1e-8 and elapsed < 60.0,
            f"worst nodal error {worst:.2e} over {len(cases)} cases "
            f"(limit 1e-8), {elapsed:.1f}s (limit 60s)")


def test_criterion_3_exact_quadrature():
    problem = bm.BeamProblem()
    nodes = geo.generate_beam_nodes(33, 5, 8.0, 1.0)

    def rows_for(method, npts):
        cfg = asm.SolverConfig(
            shape="box",
            quad_interior=npts if method == "dmlpg1" else None,
            quad_boundary=npts if method == "dmlpg5" else None)
        builder = asm.dmlpg1_row if method == "dmlpg1" else asm.dmlpg5_row
        rows = {}
        for k in range(nodes.n):
            if nodes.tags[k] == geo.DIRICHLET:
                continue
            sub = asm.subdomain_for_node(k, nodes, problem.geometry, cfg)
            rows[k] = builder(k, sub, problem, cfg, float(nodes.support[k]),
                              np.array([True, True]), asm.LambdaCache(False))
        return rows

    worst = 0.0
    for method, sparse_pts in (("dmlpg1", 2), ("dmlpg5", 1)):
        coarse = rows_for(method, sparse_pts)
        fine = rows_for(method, 10)
        for k in coarse:
            scale = max(np.abs(fine[k].lam).max(), 1e-30)
            worst = max(worst, np.abs(coarse[k].lam - fine[k].lam).max() / scale)
            bscale = max(np.abs(fine[k].beta).max(), 1e-30)
            worst = max(worst, np.abs(coarse[k].beta - fine[k].beta).max() / bscale)
    _report("criterion 3 (exact quadrature: 2 vs 10 and 1 vs 10 points)",
            worst < 1e-12, f"worst relative row difference {worst:.2e} (limit 1e-12)")


def test_criterion_4_beam_convergence(beam_studies):
    box = beam_studies["dmlpg1-box"]
    ball = beam_studies["dmlpg1-ball"]
    classical = beam_studies["mlpg1-box"]
    ok = True
    details = []
    for rows, label in ((box, "squares"), (ball, "circles")):
        ru = [r.r_u for r in rows]
        reps = [r.r_eps for r in rows]
        monotone = all(a > b for a, b in zip(ru, ru[1:])) and \
            all(a > b for a, b in zip(reps, reps[1:]))
        ok &= monotone
        ok &= rows[-1].order_u >= 1.7
        ok &= rows[-1].order_eps >= 1.0
        details.append(f"{label}: r_u={ru[-1]:.2e} ord_u={rows[-1].order_u:.2f} "
                       f"ord_eps={rows[-1].order_eps:.2f}")
    order_gap = abs(box[-1].order_u - classical[-1].order_u)
    ok &= order_gap < 0.5
    squares_win = all(b.r_u <= c.r_u for b, c in zip(box, ball))
    ok &= squares_win
    ok &= beam_studies["elapsed"] < 300.0
    _report("criterion 4 (beam convergence)", ok,
            "; ".join(details) + f"; direct-vs-classical order gap {order_gap:.2f} "
            f"(limit 0.5); squares at least as accurate: {squares_win}; "
            f"{beam_studies['elapsed']:.0f}s (limit 300s)")


def test_criterion_5_plate_stress_concentration():
    t0 = time.perf_counter()
    problem = bm.PlateProblem()
    factory = bm.plate_level_factory(problem)
    eval_pts = bm.plate_eval_mesh()
    cfg = asm.SolverConfig(shape="box")
    r_us = []
    s11 = None
    for level in range(3):
        prob, nodes = factory(level)
        u, _ = bm.solve_problem(nodes, prob, "dmlpg1", cfg)
        r_us.append(bm.relative_errors(u, nodes, prob, eval_pts, cfg).r_u)
        if level == 2:
            f = asm.recover_field(np.array([[0.0, 1.0]]), nodes, u,
                                  prob.material, cfg.m, cfg.eps)
            s11 = float(f["stress"][0, 0])
    monotone = r_us[0] > r_us[1] > r_us[2]
    within = abs(s11 - 3.0) / 3.0 < 0.05
    elapsed = time.perf_counter() - t0
    _report("criterion 5 (plate stress concentration)", monotone and within,
            f"r_u per level {['%.2e' % r for r in r_us]} decreasing={monotone}; "
            f"s11(0,a)={s11:.4f} vs 3.0 ({abs(s11-3.0)/3.0*100:.2f}%, limit 5%); "
            f"{elapsed:.0f}s")


def test_criterion_6_boussinesq(boussinesq_runs):
    runs = boussinesq_runs
    problem = runs["problem"]
    pts = runs["profile_pts"]
    fields = runs["fields"]
    exact = problem.exact_u(pts)
    ur_n = (fields["displacement"][:, 0] + fields["displacement"][:, 1]) / math.sqrt(2)
    ur_e = (exact[:, 0] + exact[:, 1]) / math.sqrt(2)
    w_n, w_e = fields["displacement"][:, 2], exact[:, 2]
    r_ur = np.linalg.norm(ur_n - ur_e) / np.linalg.norm(ur_e)
    r_w = np.linalg.norm(w_n - w_e) / np.linalg.norm(w_e)
    count_ok = (runs["direct"].stats["shape_evals"] == 0
                and runs["mlpg5"].stats["min_evals_per_subdomain"] >= 100
                and runs["mlpg1"].stats["min_evals_per_subdomain"] >= 1000)
    nodes_ok = abs(runs["nodes"].n - 1386) <= 0.02 * 1386
    ok = r_ur < 0.10 and r_w < 0.10 and count_ok and nodes_ok \
        and runs["elapsed"] < 600.0
    _report("criterion 6 (point-load shell accuracy and counters)", ok,
            f"N={runs['nodes'].n}; u_r {r_ur*100:.1f}% and w {r_w*100:.1f}% "
            f"(limit 10%); evals/subdomain: direct "
            f"{runs['direct'].stats['shape_evals']}, boundary-variant min "
            f"{runs['mlpg5'].stats['min_evals_per_subdomain']} (>=100), "
            f"volume-variant min {runs['mlpg1'].stats['min_evals_per_subdomain']} "
            f"(>=1000); {runs['elapsed']:.0f}s (limit 600s)")


def test_criterion_7_cost_ratios(beam_studies, boussinesq_runs):
    problem = bm.BeamProblem()
    nodes = geo.generate_beam_nodes(129, 17, 8.0, 1.0)
    cfg = asm.SolverConfig(shape="ball")   # matched 10x10 rules on circles
    direct = asm.assemble(nodes, problem, "dmlpg1", cfg)
    classical = mlpg.assemble_mlpg(nodes, problem, "mlpg1", cfg)
    beam_ratio = classical.stats["t_assemble"] / direct.stats["t_assemble"]
    shell_ratio = (boussinesq_runs["mlpg1"].stats["t_assemble"]
                   / boussinesq_runs["direct"].stats["t_assemble"])
    ok = beam_ratio >= 5.0 and shell_ratio >= 20.0
    _report("criterion 7 (assembly cost ratios)", ok,
            f"beam: classical/direct {beam_ratio:.1f}x (floor 5x); "
            f"point-load shell: {shell_ratio:.1f}x (floor 20x)")


def test_criterion_8_cache_equivalence():
    problem = bm.BeamProblem()
    nodes = geo.generate_beam_nodes(65, 9, 8.0, 1.0)
    on = asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig(cache=True))
    off = asm.assemble(nodes, problem, "dmlpg1", asm.SolverConfig(cache=False))
    diff = on.matrix - off.matrix
    scale = np.abs(on.matrix.data).max()
    max_diff = np.abs(diff.data).max() / scale if diff.nnz else 0.0
    hit_counts = on.stats["cache_hit_counts"]
    modal_hits = max(hit_counts.values())
    # interior nodes sharing the modal (unclipped square) signature
    h = nodes.mesh_size
    interior = np.sum(
        (nodes.points[:, 0] >= h / 2) & (nodes.points[:, 0] <= 8.0 - h / 2)
        & (nodes.points[:, 1] >= h / 2) & (nodes.points[:, 1] <= 1.0 - h / 2)
        & (nodes.tags != geo.DIRICHLET))
    ok = max_diff <= 1e-14 and modal_hits == interior - 1
    _report("criterion 8 (functional-row cache)", ok,
            f"cache on/off max entry diff {max_diff:.1e} (limit 1e-14); modal "
            f"signature hits {modal_hits} == interior sharing count - 1 "
            f"({interior - 1})")
