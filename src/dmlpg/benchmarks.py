"""Benchmark problems with closed-form solutions, error metrics, and studies.

Three problems: the end-loaded cantilever beam, the tension plate with a
circular hole (quadrant model), and the point load on a half-space evaluated
on an octant shell.  Each bundles its domain, material, exact fields, and the
boundary-data callables the assemblers consume.  A manufactured polynomial
problem backs the patch tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assembly as asm
from . import elasticity as ela
from . import geometry as geo
from . import mlpg as classical
from . import mls


class Problem:
    """Domain + material + boundary data; exact fields where available."""

    geometry: geo.DomainGeometry
    material: ela.MaterialModel
    body = None     # None means identically zero body force

    def exact_u(self, points) -> np.ndarray:
        raise NotImplementedError

    def exact_stress(self, points) -> np.ndarray:
        raise NotImplementedError

    def exact_strain(self, points) -> np.ndarray:
        dmat = ela.elastic_matrix(self.material)
        return np.linalg.solve(dmat, self.exact_stress(points).T).T

    def dirichlet(self, points) -> np.ndarray:
        return self.exact_u(points)

    def traction(self, points, normals) -> np.ndarray:
        """sigma n at each point: t_i sums sigma_ij n_j over the Voigt
        components v of sigma in order, as the contraction with the strain
        map rounds it."""
        sigma = self.exact_stress(points)
        tmap = ela.voigt_map(points.shape[1])
        out = np.zeros(np.shape(normals))
        for v, i, j in zip(*np.nonzero(tmap)):
            out[:, i] += normals[:, j] * sigma[:, v]
        return out


# ---------------------------------------------------------------------------
# Cantilever beam


def beam_exact(points, length, height, load, material):
    """Closed-form displacement and stress of the end-loaded cantilever."""
    pts = np.atleast_2d(points)
    x, y = pts[:, 0], pts[:, 1]
    e_eff = material.young_eff
    nu_eff = material.poisson_eff
    inertia = height**3 / 12.0
    c = load / (6.0 * e_eff * inertia)
    u1 = -c * (y - height / 2.0) * (3.0 * x * (2.0 * length - x)
                                    + (2.0 + nu_eff) * y * (y - height))
    u2 = c * (x**2 * (3.0 * length - x)
              + 3.0 * nu_eff * (length - x) * (y - height / 2.0) ** 2
              + (4.0 + 5.0 * nu_eff) / 4.0 * height**2 * x)
    s11 = -load / inertia * (length - x) * (y - height / 2.0)
    s12 = -load * y / (2.0 * inertia) * (y - height)
    u = np.column_stack([u1, u2])
    sigma = np.column_stack([s11, np.zeros_like(s11), s12])
    return u, sigma


class BeamProblem(Problem):
    def __init__(self, length=8.0, height=1.0, load=1.0, young=1.0,
                 poisson=0.25, mode=ela.PLANE_STRESS):
        self.length = length
        self.height = height
        self.load = load
        self.material = ela.MaterialModel(young, poisson, mode)
        self.geometry = geo.BeamDomain(length, height)

    def exact_u(self, points):
        return beam_exact(points, self.length, self.height, self.load, self.material)[0]

    def exact_stress(self, points):
        return beam_exact(points, self.length, self.height, self.load, self.material)[1]


# ---------------------------------------------------------------------------
# Plate with a circular hole


def plate_exact(points, hole_radius, far_load, material):
    """Stress-concentration fields around a traction-free circular hole."""
    pts = np.atleast_2d(points)
    x, y = pts[:, 0], pts[:, 1]
    r = np.hypot(x, y)
    th = np.arctan2(y, x)
    a2 = (hole_radius / r) ** 2
    a4 = a2**2
    c2, c4 = np.cos(2 * th), np.cos(4 * th)
    s2, s4 = np.sin(2 * th), np.sin(4 * th)
    s = far_load
    s11 = s * (1.0 - a2 * (1.5 * c2 + c4) + 1.5 * a4 * c4)
    s12 = s * (-a2 * (0.5 * s2 + s4) + 1.5 * a4 * s4)
    s22 = s * (-a2 * (0.5 * c2 - c4) - 1.5 * a4 * c4)
    e_eff = material.young_eff
    nu_eff = material.poisson_eff
    nu = material.poisson
    a = hole_radius
    pref = (1.0 + nu_eff) / e_eff * s
    u1 = pref * (r * np.cos(th) / (1.0 + nu_eff)
                 + 2.0 * a**2 * np.cos(th) / ((1.0 + nu_eff) * r)
                 + 0.5 * a**2 * np.cos(3 * th) / r
                 - 0.5 * a**4 * np.cos(3 * th) / r**3)
    u2 = pref * (-nu * r * np.sin(th) / (1.0 + nu_eff)
                 - (1.0 - nu) * a**2 * np.sin(th) / ((1.0 + nu_eff) * r)
                 + 0.5 * a**2 * np.sin(3 * th) / r
                 - 0.5 * a**4 * np.sin(3 * th) / r**3)
    return np.column_stack([u1, u2]), np.column_stack([s11, s22, s12])


class PlateProblem(Problem):
    def __init__(self, hole_radius=1.0, half_width=4.0, far_load=1.0,
                 young=1.0, poisson=0.25, mode=ela.PLANE_STRESS):
        self.hole_radius = hole_radius
        self.half_width = half_width
        self.far_load = far_load
        self.material = ela.MaterialModel(young, poisson, mode)
        self.geometry = geo.PlateQuadrant(hole_radius, half_width)

    def exact_u(self, points):
        return plate_exact(points, self.hole_radius, self.far_load, self.material)[0]

    def exact_stress(self, points):
        return plate_exact(points, self.hole_radius, self.far_load, self.material)[1]


# ---------------------------------------------------------------------------
# Point load on a half-space (octant shell model)


def boussinesq_exact(points, load, material):
    """Axisymmetric point-load fields; the z-axis stress uses the classical
    closed form (the in-plane components follow from sigma_r = sigma_theta
    on the axis)."""
    pts = np.atleast_2d(points)
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    r = np.hypot(x, y)
    rho = np.sqrt(r**2 + z**2)
    nu = material.poisson
    e = material.young
    coef = (1.0 + nu) * load / (2.0 * e * math.pi)
    ur_over_r = coef * (z / rho**3 - (1.0 - 2.0 * nu) / (rho * (rho + z)))
    w = coef / rho * (z**2 / rho**2 + 2.0 * (1.0 - nu))
    u = np.column_stack([ur_over_r * x, ur_over_r * y, w])

    s_r = load / (2.0 * math.pi * rho**2) * (
        -3.0 * z * r**2 / rho**3 + (1.0 - 2.0 * nu) * rho / (rho + z))
    s_t = (1.0 - 2.0 * nu) * load / (2.0 * math.pi * rho**2) * (
        z / rho - rho / (rho + z))
    s_zz = -3.0 * load * z**3 / (2.0 * math.pi * rho**5)
    t_zr = -3.0 * load * r * z**2 / (2.0 * math.pi * rho**5)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_t = np.where(r > 0.0, x / np.maximum(r, 1e-300), 1.0)
        sin_t = np.where(r > 0.0, y / np.maximum(r, 1e-300), 0.0)
    s11 = s_r * cos_t**2 + s_t * sin_t**2
    s22 = s_r * sin_t**2 + s_t * cos_t**2
    s12 = (s_r - s_t) * cos_t * sin_t
    s13 = t_zr * cos_t
    s23 = t_zr * sin_t
    sigma = np.column_stack([s11, s22, s_zz * np.ones_like(s11), s23, s13, s12])
    return u, sigma


class BoussinesqProblem(Problem):
    def __init__(self, outer_radius=10.0, inner_radius=0.25, load=1.0,
                 young=1000.0, poisson=0.25):
        self.outer_radius = outer_radius
        self.inner_radius = inner_radius
        self.load = load
        self.material = ela.MaterialModel(young, poisson, ela.SOLID_3D)
        self.geometry = geo.SphereOctantShell(inner_radius, outer_radius)

    def exact_u(self, points):
        return boussinesq_exact(points, self.load, self.material)[0]

    def exact_stress(self, points):
        return boussinesq_exact(points, self.load, self.material)[1]


# ---------------------------------------------------------------------------
# Manufactured polynomial problems (patch tests)


class ManufacturedProblem(Problem):
    """Polynomial displacement field on an axis box, with the body force,
    boundary displacements, and tractions it implies."""

    def __init__(self, coeffs, lengths, young=1.0, poisson=0.25, mode=None):
        coeffs = np.atleast_2d(np.asarray(coeffs, dtype=float))
        self.dim = coeffs.shape[0]
        if mode is None:
            mode = ela.PLANE_STRESS if self.dim == 2 else ela.SOLID_3D
        self.material = ela.MaterialModel(young, poisson, mode)
        self.geometry = geo.BoxDomain(lengths)
        self.degree = 0
        exps = mls.monomial_exponents(_degree_for(coeffs.shape[1], self.dim), self.dim)
        self._basis = mls.PolyBasis(_degree_for(coeffs.shape[1], self.dim),
                                    self.dim, np.zeros(self.dim), 1.0)
        self.coeffs = coeffs
        self.degree = int(max(sum(e) for e, c in zip(exps, coeffs.T) if np.any(c != 0.0)))
        if self.degree >= 2:
            self.body = self._body
        else:
            self.body = None

    def exact_u(self, points):
        # einsum, not a BLAS matmul: each row rounds the same in any stack
        return np.einsum("nq,iq->ni", self._basis.values(np.atleast_2d(points)), self.coeffs)

    def _grad_u(self, points):
        grads = self._basis.gradients(np.atleast_2d(points))  # (n, Q, d)
        return np.einsum("iq,nqj->nij", self.coeffs, grads)   # d_j u_i

    def exact_strain(self, points):
        tmap = ela.voigt_map(self.dim)
        return np.einsum("vij,nij->nv", tmap, self._grad_u(points))

    def exact_stress(self, points):
        return self.exact_strain(points) @ ela.elastic_matrix(self.material).T

    def _body(self, points):
        """-div sigma from the second derivatives of the displacement field."""
        pts = np.atleast_2d(points)
        d = self.dim
        tmap = ela.voigt_map(d)
        dmat = ela.elastic_matrix(self.material)
        hess = np.zeros((pts.shape[0], self._basis.q, d, d))
        for l in range(d):
            for j in range(l, d):
                alpha = np.zeros(d, dtype=np.int64)
                alpha[l] += 1
                alpha[j] += 1
                val = self._basis.derivative(pts, alpha)
                hess[:, :, l, j] = val
                hess[:, :, j, l] = val
        # d_j eps_w = T[w,k,l] d_l d_j u_k ; (div sigma)_i = T[v,i,j] D[v,w] d_j eps_w
        hess_u = np.einsum("kq,nqlj->nklj", self.coeffs, hess)
        div = np.einsum("vij,vw,wkl,nklj->ni", tmap, dmat, tmap, hess_u)
        return -div


def linear_patch_coeffs(dim: int):
    """A generic full linear displacement field."""
    q = mls.basis_size(1, dim)
    coeffs = np.zeros((dim, mls.basis_size(2, dim)))
    base = [0.7, -0.4, 0.55, 0.3][: q]
    for i in range(dim):
        coeffs[i, :q] = np.roll(base, i)
    return coeffs


def quadratic_patch_coeffs(dim: int):
    """A generic full quadratic displacement field."""
    q = mls.basis_size(2, dim)
    coeffs = np.zeros((dim, q))
    rng = np.random.default_rng(7)
    for i in range(dim):
        coeffs[i] = rng.uniform(-1.0, 1.0, size=q)
    return coeffs


def _degree_for(q: int, dim: int) -> int:
    for m in range(1, 8):
        if mls.basis_size(m, dim) == q:
            return m
    raise ValueError(f"coefficient count {q} is not a full basis in {dim}D")


# ---------------------------------------------------------------------------
# Error metrics


@dataclass
class ErrorReport:
    """Relative displacement/strain errors plus run costs."""

    r_u: float
    r_eps: float
    eval_mesh: str
    n_eval: int
    t_assemble: float = 0.0
    t_solve: float = 0.0
    shape_evals: int = 0


def beam_eval_mesh(length=8.0, height=1.0, nx=161, ny=21):
    """Cell-centered interior grid used for the beam error norms."""
    x = (np.arange(nx) + 0.5) * length / nx
    y = (np.arange(ny) + 0.5) * height / ny
    X, Y = np.meshgrid(x, y, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel()])


def plate_eval_mesh(hole_radius=1.0, half_width=4.0, n=80):
    """Polar grid over [a, b-0.05] x [0, pi/2]."""
    r = np.linspace(hole_radius, half_width - 0.05, n)
    th = np.linspace(0.0, 0.5 * math.pi, n)
    R, T = np.meshgrid(r, th, indexing="ij")
    return np.column_stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()])


def boussinesq_eval_mesh(n_surface=40, r_range=(0.3, 9.0)):
    """Surface grid on z=0 plus a small interior shell sample."""
    r = np.linspace(*r_range, n_surface)
    phi = np.linspace(0.0, 0.5 * math.pi, n_surface)
    R, P = np.meshgrid(r, phi, indexing="ij")
    surface = np.column_stack([(R * np.cos(P)).ravel(), (R * np.sin(P)).ravel(),
                               np.zeros(R.size)])
    rho = np.geomspace(r_range[0], r_range[1], 8)
    beta = np.linspace(0.15, 0.5 * math.pi - 0.15, 5)
    phi_i = np.linspace(0.1, 0.5 * math.pi - 0.1, 5)
    Rho, B, Ph = np.meshgrid(rho, beta, phi_i, indexing="ij")
    shell = np.column_stack([
        (Rho * np.sin(B) * np.cos(Ph)).ravel(),
        (Rho * np.sin(B) * np.sin(Ph)).ravel(),
        (Rho * np.cos(B)).ravel(),
    ])
    return np.vstack([surface, shell])


def relative_errors(u_vec, nodes, problem, eval_points, config=None,
                    mesh_name="eval") -> ErrorReport:
    """Discrete relative 2-norm errors of displacement and recovered strain."""
    config = config or asm.SolverConfig()
    fields = asm.recover_field(eval_points, nodes, u_vec, problem.material,
                               m=config.m, eps=config.eps)
    u_ex = problem.exact_u(eval_points)
    eps_ex = problem.exact_strain(eval_points)
    r_u = np.linalg.norm(fields["displacement"] - u_ex) / np.linalg.norm(u_ex)
    r_eps = np.linalg.norm(fields["strain"] - eps_ex) / np.linalg.norm(eps_ex)
    return ErrorReport(float(r_u), float(r_eps), mesh_name, eval_points.shape[0])


# ---------------------------------------------------------------------------
# Study driver


def solve_problem(nodes, problem, method: str, config=None):
    """Assemble with the requested method, solve, and return (u, system)."""
    config = config or asm.SolverConfig()
    if method in ("dmlpg1", "dmlpg5"):
        system = asm.assemble(nodes, problem, method, config)
    elif method in ("mlpg1", "mlpg5"):
        system = classical.assemble_mlpg(nodes, problem, method, config)
    else:
        raise ValueError(f"unknown method {method!r}")
    u = asm.solve(system)
    return u, system


@dataclass
class StudyRow:
    h: float
    n_nodes: int
    r_u: float
    r_eps: float
    t_assemble: float
    t_solve: float
    shape_evals: int
    order_u: float = math.nan
    order_eps: float = math.nan


def convergence_study(level_factory, method: str, n_levels: int,
                      eval_points, config=None) -> list:
    """Run refinements and estimate orders between successive levels.

    ``level_factory(level)`` returns (problem, nodes); orders come from
    log-ratios of errors against log-ratios of mesh sizes.
    """
    if n_levels < 1:
        raise ValueError("need at least one level")
    config = config or asm.SolverConfig()
    rows = []
    for level in range(n_levels):
        problem, nodes = level_factory(level)
        u, system = solve_problem(nodes, problem, method, config)
        rep = relative_errors(u, nodes, problem, eval_points, config)
        rows.append(StudyRow(
            h=float(nodes.mesh_size), n_nodes=nodes.n, r_u=rep.r_u,
            r_eps=rep.r_eps, t_assemble=system.stats["t_assemble"],
            t_solve=system.stats["t_solve"],
            shape_evals=system.stats.get("shape_evals", 0)))
    for prev, cur in zip(rows, rows[1:]):
        ratio = math.log(prev.h / cur.h)
        if ratio > 0.0 and cur.r_u > 0.0 and prev.r_u > 0.0:
            cur.order_u = math.log(prev.r_u / cur.r_u) / ratio
        if ratio > 0.0 and cur.r_eps > 0.0 and prev.r_eps > 0.0:
            cur.order_eps = math.log(prev.r_eps / cur.r_eps) / ratio
    return rows


def write_convergence_csv(path, rows, record_times: bool = True) -> None:
    """Schema: h,N,r_u,r_eps,t_assemble_s,t_solve_s,shape_evals,order_u,order_eps."""
    with open(path, "w") as fh:
        fh.write("h,N,r_u,r_eps,t_assemble_s,t_solve_s,shape_evals,order_u,order_eps\n")
        for row in rows:
            ta = row.t_assemble if record_times else 0.0
            ts = row.t_solve if record_times else 0.0
            fh.write(f"{row.h:.17g},{row.n_nodes},{row.r_u:.17g},{row.r_eps:.17g},"
                     f"{ta:.6f},{ts:.6f},{row.shape_evals},"
                     f"{row.order_u:.17g},{row.order_eps:.17g}\n")


def write_profile_csv(path, coordinate, numerical, exact) -> None:
    """Figure-analogue table: coordinate, numerical value, exact value."""
    with open(path, "w") as fh:
        fh.write("coordinate,numerical,exact\n")
        for c, n, e in zip(coordinate, numerical, exact):
            fh.write(f"{c:.17g},{n:.17g},{e:.17g}\n")


# standard refinement ladders

BEAM_GRIDS = [(33, 5), (65, 9), (129, 17)]
PLATE_BASE = (24, 21, 1.08)     # nr, ntheta, grading: 535 nodes at level 0


def beam_level_factory(problem=None, support_factor=2.0, m=2):
    problem = problem or BeamProblem()

    def factory(level):
        nx, ny = BEAM_GRIDS[level]
        nodes = geo.generate_beam_nodes(nx, ny, problem.length, problem.height,
                                        m=m, support_factor=support_factor)
        return problem, nodes

    return factory


def plate_level_factory(problem=None, m=2, near_factor=2.0, far_factor=2.5):
    problem = problem or PlateProblem()
    nr0, nt0, g0 = PLATE_BASE

    def factory(level):
        nr = (nr0 - 1) * 2**level + 1
        ntheta = (nt0 - 1) * 2**level + 1
        grading = g0 ** (1.0 / 2**level)
        nodes = geo.generate_plate_nodes(problem.hole_radius, problem.half_width,
                                         nr, ntheta, grading, m=m,
                                         near_factor=near_factor,
                                         far_factor=far_factor)
        return problem, nodes

    return factory


def boussinesq_level_factory(problem=None, m=2, support_factor=1.5, target=1386):
    problem = problem or BoussinesqProblem()

    def factory(level):
        nodes = geo.generate_boussinesq_nodes(
            problem.outer_radius, problem.inner_radius,
            target * 8**level, m=m, support_factor=support_factor)
        return problem, nodes

    return factory
