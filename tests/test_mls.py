import math

import numpy as np
import pytest

from dmlpg import geometry as geo
from dmlpg import mls


@pytest.fixture(scope="module")
def beam_nodes():
    return geo.generate_beam_nodes(33, 5, 8.0, 1.0)


def test_weight_values():
    assert mls.weight_eval([0.0, 0.0], [0.0, 0.0], 4.0, 1.0) == 1.0
    assert mls.weight_eval([0.0, 0.0], [1.0, 0.0], 4.0, 1.0) == 0.0
    expect = (math.exp(-4.0) - math.exp(-16.0)) / (1.0 - math.exp(-16.0))
    got = mls.weight_eval([0.0, 0.0], [0.5, 0.0], 4.0, 1.0)
    assert abs(got - expect) < 1e-15
    assert abs(got - 1.83155e-2) < 1e-7


def test_weight_monotone_and_compact():
    w = mls.WeightFunction(4.0)
    r = np.linspace(0.0, 1.5, 200)
    vals = w(r, 1.0)
    assert np.all(np.diff(vals[r < 1.0]) <= 0.0)
    assert np.all(vals[r >= 1.0] == 0.0)


def test_weight_interface_exposes_values_only():
    # derivative-free by construction: the direct rows never need weight
    # derivatives, so the weight type must not offer any
    w = mls.WeightFunction(4.0)
    assert not any("grad" in name or "deriv" in name or name.startswith("d")
                   for name in vars(type(w)) if not name.startswith("__"))


def test_monomial_order_graded_lex():
    assert mls.monomial_exponents(2, 2) == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    assert mls.basis_size(2, 2) == 6
    assert mls.basis_size(2, 3) == 10
    assert mls.basis_size(3, 3) == 20


def test_basis_at_center():
    b = mls.PolyBasis(2, 2, [0.3, -0.4], 0.7)
    assert np.allclose(b.values([0.3, -0.4]), [1, 0, 0, 0, 0, 0])


def test_basis_first_derivative_at_center():
    s = 0.5
    b = mls.PolyBasis(2, 2, [0.0, 0.0], s)
    d = b.derivative([0.0, 0.0], [1, 0])
    expect = np.zeros(6)
    expect[1] = 1.0 / s
    assert np.allclose(d, expect)


def test_basis_all_ones_at_unit_corner():
    s = 0.3
    b = mls.PolyBasis(2, 2, [1.0, 2.0], s)
    assert np.allclose(b.values([1.0 + s, 2.0 + s]), np.ones(6))


def test_basis_rejects_high_derivative():
    b = mls.PolyBasis(2, 2, [0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        b.derivative([0.0, 0.0], [3, 0])
    with pytest.raises(ValueError):
        b.derivative([0.0, 0.0], [2, -1])


def _derivative_oracle(basis, points, alpha):
    """D^alpha from per-call falling factorials and float powers (the former code)."""
    alpha = np.asarray(alpha, dtype=np.int64)
    z = (np.atleast_2d(points) - basis.center) / basis.scale
    exps = basis.exponents - alpha
    coeff = np.prod([[math.perm(int(e), int(a)) for e in basis.exponents[:, i]]
                     for i, a in enumerate(alpha)], axis=0).astype(float)
    out = np.prod(z[:, None, :] ** np.clip(exps, 0, None)[None, :, :], axis=2) \
        * coeff[None, :] / basis.scale**int(alpha.sum())
    out[:, ~np.all(exps >= 0, axis=1)] = 0.0
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_derivative_maps_match_falling_factorials(m, dim):
    rng = np.random.default_rng(10 * m + dim)
    basis = mls.PolyBasis(m, dim, rng.uniform(-1.0, 1.0, dim), 0.37)
    points = basis.center + rng.uniform(-0.5, 0.5, (7, dim))
    for alpha in np.ndindex(*(m + 1,) * dim):
        if 0 < sum(alpha) <= m:
            got = basis.derivative(points, alpha)
            want = _derivative_oracle(basis, points, alpha)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            assert np.array_equal(basis.derivative(points[0], alpha), got[0])
    units = np.eye(dim, dtype=int)
    stacked = np.stack([basis.derivative(points, e) for e in units], axis=-1)
    assert np.array_equal(basis.gradients(points), stacked)


def test_mls_partition_of_unity(beam_nodes):
    row = mls.mls_shape([3.13, 0.42], beam_nodes, 2)
    assert abs(row.coefficients.sum() - 1.0) < 1e-12


def test_mls_reproduces_all_basis_monomials(beam_nodes):
    x = np.array([5.21, 0.63])
    row = mls.mls_shape(x, beam_nodes, 2)
    probe = mls.PolyBasis(2, 2, x, 1.0)
    recon = row.coefficients @ probe.values(beam_nodes.points[row.active])
    assert np.abs(recon - probe.values(x)).max() < 1e-12


def test_collinear_nodes_deficient():
    pts = np.column_stack([np.linspace(0, 1, 9), np.zeros(9)])
    nodes = geo.NodeSet(pts, np.full(9, geo.INTERIOR), np.zeros((9, 2), bool),
                        np.full(9, 0.125), np.full(9, 0.6), 0.125)
    with pytest.raises(mls.NodeDeficiencyError):
        mls.mls_shape([0.5, 0.0], nodes, 2)


def test_compact_support_zero_coefficients(beam_nodes):
    x = np.array([4.0, 0.5])
    row = mls.mls_shape(x, beam_nodes, 2)
    d = np.linalg.norm(beam_nodes.points[row.active] - x, axis=1)
    at_edge = d >= beam_nodes.support_at(x) - 1e-12
    assert np.all(np.abs(row.coefficients[0, at_edge]) == 0.0)


def test_gmls_point_functional_matches_mls(beam_nodes):
    x = np.array([2.7, 0.81])
    moment = mls.MomentSystem.build(x, beam_nodes, 2)
    row = mls.gmls_row(moment.basis.values(x), moment)
    direct = mls.mls_shape(x, beam_nodes, 2)
    assert np.allclose(row.coefficients, direct.coefficients)


def test_gmls_zero_functional(beam_nodes):
    moment = mls.MomentSystem.build([4.0, 0.5], beam_nodes, 2)
    row = mls.gmls_row(np.zeros(6), moment)
    assert np.all(row.coefficients == 0.0)


def test_gmls_derivative_exactness(beam_nodes):
    x = np.array([3.9, 0.4])
    u = beam_nodes.points[:, 0] ** 2
    row = mls.gmls_derivative_row(x, [1, 0], beam_nodes, 2)
    assert abs(row.apply(u)[0] - 2.0 * x[0]) < 1e-10
    row2 = mls.gmls_derivative_row(x, [2, 0], beam_nodes, 2)
    assert abs(row2.apply(u)[0] - 2.0) < 1e-10


def test_gmls_derivative_alpha_zero_reduces_to_shape(beam_nodes):
    x = np.array([6.1, 0.2])
    r0 = mls.gmls_derivative_row(x, [0, 0], beam_nodes, 2)
    r1 = mls.mls_shape(x, beam_nodes, 2)
    assert np.allclose(r0.coefficients, r1.coefficients)


def test_gmls_linear_field_derivative(beam_nodes):
    u = beam_nodes.points[:, 0]
    row = mls.gmls_derivative_row([1.3, 0.7], [1, 0], beam_nodes, 2)
    assert abs(row.apply(u)[0] - 1.0) < 1e-12


@pytest.mark.parametrize("m,dim", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_reproduction_uniform_and_graded(m, dim):
    rng = np.random.default_rng(dim * 10 + m)
    if dim == 2:
        grid = geo.generate_grid_nodes((9, 9), (1.0, 1.0), m=m, support_factor=2.0)
        graded_pts = np.column_stack([
            np.sort(rng.uniform(0, 1, 120)) ** 1.7, rng.uniform(0, 1, 120)])
    else:
        grid = geo.generate_grid_nodes((6, 6, 6), (1.0, 1.0, 1.0), m=m,
                                       support_factor=2.0)
        graded_pts = np.column_stack([
            np.sort(rng.uniform(0, 1, 300)) ** 1.7,
            rng.uniform(0, 1, 300), rng.uniform(0, 1, 300)])
    spacing = np.full(graded_pts.shape[0], 0.12)
    graded = geo.NodeSet(graded_pts, np.full(graded_pts.shape[0], geo.INTERIOR),
                         np.zeros(graded_pts.shape, bool), spacing,
                         np.full(graded_pts.shape[0], (0.45 if dim == 2 else 0.62) * m),
                         0.05)
    for nodes in (grid, graded):
        for trial in range(4):
            x = rng.uniform(0.2, 0.8, size=dim)
            row = mls.mls_shape(x, nodes, m)
            probe = mls.PolyBasis(m, dim, x, 1.0)
            recon = row.coefficients @ probe.values(nodes.points[row.active])
            assert np.abs(recon - probe.values(x)).max() < 1e-9


def test_moment_unisolvency_over_benchmark_clouds():
    # every generated node supports a well-conditioned local fit
    for nodes in (geo.generate_beam_nodes(33, 5, 8.0, 1.0),
                  geo.generate_plate_nodes(1.0, 4.0, 24, 21, 1.08),
                  geo.generate_boussinesq_nodes(10.0, 0.25, 1386)):
        for k in range(nodes.n):
            moment = mls.MomentSystem.build(nodes.points[k], nodes, 2,
                                            delta=float(nodes.support[k]))
            assert moment.cond < mls.COND_LIMIT


def test_gmls_derivative_convergence_order():
    # smooth non-polynomial field: observed order >= m - |alpha| + 0.5
    errs = []
    hs = []
    for n in (11, 21, 41):
        nodes = geo.generate_grid_nodes((n, n), (1.0, 1.0), m=2, support_factor=2.0)
        u = np.sin(2.0 * nodes.points[:, 0]) * np.cos(nodes.points[:, 1])
        x = np.array([0.515, 0.515])
        row = mls.gmls_derivative_row(x, [1, 0], nodes, 2)
        exact = 2.0 * np.cos(2.0 * x[0]) * np.cos(x[1])
        errs.append(abs(row.apply(u)[0] - exact))
        hs.append(nodes.mesh_size)
    order = np.log(errs[0] / errs[-1]) / np.log(hs[0] / hs[-1])
    assert order >= 1.5

