import numpy as np
import pytest

from dmlpg import elasticity as ela


def test_plane_stress_matrix():
    mat = ela.MaterialModel(1.0, 0.25)
    d = ela.elastic_matrix(mat)
    expect = (16.0 / 15.0) * np.array(
        [[1.0, 0.25, 0.0], [0.25, 1.0, 0.0], [0.0, 0.0, 0.375]])
    assert np.allclose(d, expect, atol=1e-15)


def test_zero_poisson_plane_stress():
    d = ela.elastic_matrix(ela.MaterialModel(1.0, 0.0))
    assert np.allclose(d, np.diag([1.0, 1.0, 0.5]))


def test_solid_matrix_blocks():
    d = ela.elastic_matrix(ela.MaterialModel(1000.0, 0.25, ela.SOLID_3D))
    assert abs(d[0, 0] - 1600.0 * 0.75) < 1e-12   # prefactor 1600, diag 1-nu
    assert abs(d[0, 1] - 1600.0 * 0.25) < 1e-12
    assert np.allclose(d[3:, 3:], 400.0 * np.eye(3))
    assert np.allclose(d[:3, 3:], 0.0)


def test_plane_strain_effective_constants():
    mat = ela.MaterialModel(2.0, 0.3, ela.PLANE_STRAIN)
    assert abs(mat.young_eff - 2.0 / (1 - 0.09)) < 1e-15
    assert abs(mat.poisson_eff - 0.3 / 0.7) < 1e-15


@pytest.mark.parametrize("nu", [-0.1, 0.5, 0.7])
def test_invalid_poisson_rejected(nu):
    with pytest.raises(ValueError):
        ela.MaterialModel(1.0, nu)


def test_spd_for_valid_range():
    for mode in (ela.PLANE_STRESS, ela.PLANE_STRAIN, ela.SOLID_3D):
        for nu in (0.0, 0.2, 0.45, 0.49):
            d = ela.elastic_matrix(ela.MaterialModel(3.0, nu, mode))
            assert np.allclose(d, d.T)
            assert np.linalg.eigvalsh(d)[0] > 0.0


def test_traction_tensor_consistency():
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        nv = dim * (dim + 1) // 2
        tmap = ela.voigt_map(dim)
        mode = ela.PLANE_STRESS if dim == 2 else ela.SOLID_3D
        d = ela.elastic_matrix(ela.MaterialModel(2.3, 0.31, mode))
        for _ in range(20):
            eps = rng.uniform(-1, 1, size=nv)
            n = rng.normal(size=dim)
            n /= np.linalg.norm(n)
            sigma_v = d @ eps
            # full tensor from the Voigt vector
            sigma = np.einsum("vij,v->ij", tmap, sigma_v) if dim == 3 else None
            if dim == 2:
                sigma = np.array([[sigma_v[0], sigma_v[2]], [sigma_v[2], sigma_v[1]]])
            else:
                sigma = np.array([
                    [sigma_v[0], sigma_v[5], sigma_v[4]],
                    [sigma_v[5], sigma_v[1], sigma_v[3]],
                    [sigma_v[4], sigma_v[3], sigma_v[2]]])
            # the traction N sigma through the layout tensor, as the weak rows
            # and ``Problem.traction`` form it
            t_layout = np.einsum("vij,j,v->i", tmap, n, sigma_v)
            assert np.allclose(t_layout, sigma @ n, atol=1e-12)


def test_strain_layout_against_finite_differences():
    # quadratic displacement field; strains from the layout tensor must match
    # centered finite differences of the field
    rng = np.random.default_rng(11)
    c = rng.uniform(-1, 1, size=(2, 6))
    from dmlpg import mls

    basis = mls.PolyBasis(2, 2, np.zeros(2), 1.0)

    def u(x):
        return basis.values(x) @ c.T

    x0 = np.array([0.37, -0.21])
    h = 1e-6
    grad = np.zeros((2, 2))
    for j in range(2):
        dx = np.zeros(2)
        dx[j] = h
        grad[:, j] = (u(x0 + dx) - u(x0 - dx)) / (2 * h)
    eps_fd = np.array([grad[0, 0], grad[1, 1], grad[0, 1] + grad[1, 0]])
    grads = basis.gradients(x0[None, :])[0]           # (Q, d)
    eps_layout = np.einsum("iq,vij,qj->v", c, ela.voigt_map(2), grads)
    assert np.allclose(eps_fd, eps_layout, rtol=1e-6, atol=1e-8)


def test_von_mises_values():
    assert ela.von_mises(np.zeros(3)) == 0.0
    assert abs(ela.von_mises(np.array([2.5, 0.0, 0.0])) - 2.5) < 1e-14
    assert abs(ela.von_mises(np.array([0.0, 0.0, 1.5])) - 1.5 * np.sqrt(3)) < 1e-14
    assert abs(ela.von_mises(np.array([3.0, 0, 0, 0, 0, 0.0])) - 3.0) < 1e-14
