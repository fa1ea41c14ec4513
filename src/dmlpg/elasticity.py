"""Voigt-notation kernels for isotropic linear elasticity.

Component ordering is fixed throughout the package:
2D strain (e11, e22, 2*e12), 3D strain (e11, e22, e33, 2*e23, 2*e13, 2*e12),
with stresses ordered the same way so that sigma = D @ eps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PLANE_STRESS = "plane-stress"
PLANE_STRAIN = "plane-strain"
SOLID_3D = "solid-3d"

# Symmetric-gradient layout tensor: for a scalar field g with gradient grad_g,
# the matrix mapping a displacement direction to Voigt strain is
# M[v, i] = sum_j VOIGT_MAP[v, i, j] * grad_g[j].  The same tensor produces the
# test-strain matrix (rows/columns swapped) and the boundary-normal matrix.
_T2 = np.zeros((3, 2, 2))
_T2[0, 0, 0] = 1.0
_T2[1, 1, 1] = 1.0
_T2[2, 0, 1] = 1.0
_T2[2, 1, 0] = 1.0

_T3 = np.zeros((6, 3, 3))
_T3[0, 0, 0] = 1.0
_T3[1, 1, 1] = 1.0
_T3[2, 2, 2] = 1.0
_T3[3, 1, 2] = 1.0
_T3[3, 2, 1] = 1.0
_T3[4, 0, 2] = 1.0
_T3[4, 2, 0] = 1.0
_T3[5, 0, 1] = 1.0
_T3[5, 1, 0] = 1.0


def voigt_map(dim: int) -> np.ndarray:
    """Layout tensor T with T[v, i, j]; see module docstring for ordering."""
    if dim == 2:
        return _T2
    if dim == 3:
        return _T3
    raise ValueError(f"unsupported dimension {dim}")


@dataclass(frozen=True)
class MaterialModel:
    """Isotropic elastic constants plus the 2D/3D analysis mode."""

    young: float
    poisson: float
    mode: str = PLANE_STRESS

    def __post_init__(self):
        if self.young <= 0.0:
            raise ValueError("Young's modulus must be positive")
        if not 0.0 <= self.poisson < 0.5:
            raise ValueError("Poisson ratio must lie in [0, 0.5)")
        if self.mode not in (PLANE_STRESS, PLANE_STRAIN, SOLID_3D):
            raise ValueError(f"unknown mode {self.mode!r}")

    @property
    def dim(self) -> int:
        return 3 if self.mode == SOLID_3D else 2

    @property
    def young_eff(self) -> float:
        """Effective modulus: E for plane stress, E/(1-nu^2) for plane strain."""
        if self.mode == PLANE_STRAIN:
            return self.young / (1.0 - self.poisson**2)
        return self.young

    @property
    def poisson_eff(self) -> float:
        """Effective ratio: nu for plane stress, nu/(1-nu) for plane strain."""
        if self.mode == PLANE_STRAIN:
            return self.poisson / (1.0 - self.poisson)
        return self.poisson


def elastic_matrix(mat: MaterialModel) -> np.ndarray:
    """Constitutive matrix D (3x3 in 2D, 6x6 in 3D) for sigma = D @ eps."""
    if mat.mode == SOLID_3D:
        e, nu = mat.young, mat.poisson
        d1 = e / ((1.0 - 2.0 * nu) * (1.0 + nu))
        d = np.zeros((6, 6))
        d[:3, :3] = d1 * (nu * np.ones((3, 3)) + (1.0 - 2.0 * nu) * np.eye(3))
        d[3:, 3:] = e / (2.0 * (1.0 + nu)) * np.eye(3)
        return d
    e, nu = mat.young_eff, mat.poisson_eff
    return e / (1.0 - nu**2) * np.array(
        [[1.0, nu, 0.0], [nu, 1.0, 0.0], [0.0, 0.0, (1.0 - nu) / 2.0]]
    )


def von_mises(sigma: np.ndarray) -> np.ndarray:
    """Von Mises equivalent stress from Voigt components (in-plane form in 2D)."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape[-1] == 3:
        s11, s22, s12 = sigma[..., 0], sigma[..., 1], sigma[..., 2]
        return np.sqrt(s11**2 - s11 * s22 + s22**2 + 3.0 * s12**2)
    s11, s22, s33 = sigma[..., 0], sigma[..., 1], sigma[..., 2]
    s23, s13, s12 = sigma[..., 3], sigma[..., 4], sigma[..., 5]
    return np.sqrt(
        0.5 * ((s11 - s22) ** 2 + (s22 - s33) ** 2 + (s33 - s11) ** 2)
        + 3.0 * (s23**2 + s13**2 + s12**2)
    )
