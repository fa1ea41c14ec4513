import math

import numpy as np
import pytest

from dmlpg import quadrature as quad


def test_gauss_1d_midpoint():
    x, w = quad.gauss_legendre_1d(1)
    assert x[0] == 0.0
    assert w[0] == 2.0


def test_gauss_1d_two_point():
    x, w = quad.gauss_legendre_1d(2)
    assert np.allclose(sorted(x), [-0.5773502691896258, 0.5773502691896258])
    assert np.allclose(w, [1.0, 1.0])


def test_gauss_1d_exactness():
    x, w = quad.gauss_legendre_1d(2)
    assert abs(w @ x**3) < 1e-15          # odd symmetry
    assert abs(w @ x**2 - 2.0 / 3.0) < 1e-15


@pytest.mark.parametrize("n", [0, 65, -3])
def test_gauss_1d_rejects_out_of_range(n):
    with pytest.raises(ValueError):
        quad.gauss_legendre_1d(n)


def test_rule_box_unit_square():
    r = quad.rule_box([0.0, 0.0], [1.0, 1.0], 2)
    assert r.points.shape == (4, 2)
    assert abs(r.total_weight - 1.0) < 1e-14
    assert abs(r.weights @ (r.points[:, 0] * r.points[:, 1]) - 0.25) < 1e-14


def test_rule_box_cube():
    s = 0.7
    r = quad.rule_box([0.0, 0.0, 0.0], [s, s, s], 2)
    assert r.points.shape == (8, 3)
    assert abs(r.total_weight - s**3) < 1e-14


def test_gauss_exactness_sweep():
    # every monomial of degree <= 2n-1 integrates exactly on [0, 1]^2
    for n in (1, 2, 3, 4):
        r = quad.rule_box([0.0, 0.0], [1.0, 1.0], n)
        for px in range(2 * n):
            for py in range(2 * n):
                val = r.weights @ (r.points[:, 0] ** px * r.points[:, 1] ** py)
                exact = 1.0 / ((px + 1) * (py + 1))
                assert abs(val - exact) < 1e-13 * max(1.0, abs(exact))


def test_disk_area_and_moment():
    r = quad.rule_disk([0.5, -0.2], 1.3, 10, 10)
    assert abs(r.total_weight - math.pi * 1.3**2) < 1e-12
    r0 = quad.rule_disk([0.0, 0.0], 1.0, 10, 10)
    assert abs(r0.weights @ r0.points[:, 0] ** 2 - math.pi / 4.0) < 1e-10


def test_ball_volume():
    r = quad.rule_spherical([0.0, 0.0, 0.0], 1.0, (0.0, math.pi), (0.0, 2.0 * math.pi),
                            10, 10)
    assert abs(r.total_weight - 4.0 * math.pi / 3.0) < 1e-10


def test_box_face_rules():
    lo, hi = np.zeros(2), np.array([0.3, 0.3])
    total = 0.0
    for axis in range(2):
        for side in (-1, 1):
            r = quad.rule_box_face(lo, hi, axis, side, 1)
            total += r.total_weight
            assert np.allclose(np.linalg.norm(r.normals, axis=1), 1.0)
    assert abs(total - 4 * 0.3) < 1e-14

    lo3, hi3 = np.zeros(3), np.full(3, 0.5)
    total = sum(quad.rule_box_face(lo3, hi3, a, s, 1).total_weight
                for a in range(3) for s in (-1, 1))
    assert abs(total - 6 * 0.25) < 1e-14


def _rule_box_oracle(lo, hi, n):
    """Tensor rule from one meshgrid per call (the former construction)."""
    axes = [quad._mapped_1d(n, a, b) for a, b in zip(lo, hi)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*[a[0] for a in axes], indexing="ij")],
                   axis=-1)
    wts = np.ones(1)
    for _, w in axes:
        wts = np.multiply.outer(wts, w).ravel()
    return pts, wts


@pytest.mark.parametrize("d", [1, 2, 3])
def test_box_rules_equal_meshgrid_construction(d):
    rng = np.random.default_rng(d)
    for n in range(1, 6):
        lo = rng.uniform(-2.0, 1.0, d)
        hi = lo + rng.uniform(0.1, 3.0, d)
        rule = quad.rule_box(lo, hi, n)
        pts, wts = _rule_box_oracle(lo, hi, n)
        assert np.array_equal(rule.points, pts) and np.array_equal(rule.weights, wts)
        for axis in range(d):
            free = [i for i in range(d) if i != axis]
            sub_pts, sub_wts = _rule_box_oracle(lo[free], hi[free], n) if free \
                else (np.empty((1, 0)), np.ones(1))
            for side in (-1, 1):
                face = quad.rule_box_face(lo, hi, axis, side, n)
                assert np.array_equal(face.points[:, free], sub_pts)
                assert np.all(face.points[:, axis] == (lo if side < 0 else hi)[axis])
                assert np.array_equal(face.weights, sub_wts)


def test_full_circle_boundary():
    r = quad.rule_arc([0.0, 0.0], 2.0, 0.0, 2.0 * math.pi, 10)
    assert abs(r.total_weight - 4.0 * math.pi) < 1e-12
    # normals radial
    assert np.allclose(r.points / 2.0, r.normals)


def test_clipped_half_disk():
    rule = quad.rule_polar(
        [0.0, 0.0],
        [(0.0, math.pi, lambda th: np.zeros_like(th), lambda th: np.full_like(th, 2.0))],
        10, 10)
    assert abs(rule.total_weight - math.pi * 2.0) < 1e-10


def test_quarter_ball_volume():
    rule = quad.rule_spherical([0.0, 0.0, 0.0], 1.0, (0.0, math.pi), (0.0, 0.5 * math.pi),
                               10, 10)
    assert abs(rule.total_weight - math.pi / 3.0) < 1e-8


def test_sphere_patch_area():
    rule = quad.rule_sphere_patch([0.0, 0.0, 0.0], 1.0, (0.0, math.pi), (0.0, 2.0 * math.pi), 12)
    assert abs(rule.total_weight - 4.0 * math.pi) < 1e-10

