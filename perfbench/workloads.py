"""The benchmark's four fixed workloads and their shrunk smoke-mode twins.

Every input is one of the paper's deterministic node clouds, built through the
public generators that a user calls.  Each workload runs one method, chosen so
that each layer of the package does most of the work in one workload and
little in another (see README.md for the full rationale):

- ``beam-dmlpg1``: GMLS moment systems dominate; the functional-row cache
  hits almost every row and the solve is small.
- ``beam-mlpg1``: the classical batched shape-function kernel dominates; the
  only workload that runs ``mlpg``.  With ``beam-dmlpg1`` it is the
  criterion-7 beam pair.
- ``plate-dmlpg1``: sparse LU dominates; largest memory; curved clipping.
- ``shell-dmlpg5``: dense-ish LU, 3D moment systems and the boundary-integrated
  row kernel with a low cache hit ratio.

Generators are looked up on their modules at call time, so the traced run
can wrap them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from dmlpg import assembly as asm
from dmlpg import benchmarks as bm
from dmlpg import geometry as geo
from dmlpg import mlpg


@dataclass(frozen=True)
class Workload:
    """One fixed input, one method, and the accuracy recorded for it."""

    name: str
    method: str
    config: asm.SolverConfig
    make_problem: Callable
    make_nodes: Callable        # problem -> NodeSet
    make_eval_points: Callable  # () -> (n, d) evaluation mesh
    reference: tuple            # (r_u, r_eps) when the benchmark was defined

    def setup(self):
        """Node cloud, evaluation mesh and the k-d tree: the user's set-up."""
        problem = self.make_problem()
        nodes = self.make_nodes(problem)
        eval_points = self.make_eval_points()
        nodes.index
        return problem, nodes, eval_points

    def assemble(self, nodes, problem):
        if self.method.startswith("mlpg"):
            return mlpg.assemble_mlpg(nodes, problem, self.method, self.config)
        return asm.assemble(nodes, problem, self.method, self.config)


BALLS = asm.SolverConfig(shape="ball")    # matched 10x10 rules, as in criterion 7
BOXES = asm.SolverConfig(shape="box")


def _beam_nodes(level):
    return lambda problem: bm.beam_level_factory(problem)(level)[1]


def _plate_nodes(level):
    return lambda problem: bm.plate_level_factory(problem)(level)[1]


def _shell_nodes(target):
    return lambda problem: bm.boussinesq_level_factory(problem, target=target)(0)[1]


def _workloads(beam_level, plate_level, shell_target, meshes, refs):
    beam_mesh, plate_mesh, shell_mesh = meshes
    return {w.name: w for w in (
        Workload("beam-dmlpg1", "dmlpg1", BALLS, bm.BeamProblem,
                 _beam_nodes(beam_level), beam_mesh, refs["beam-dmlpg1"]),
        Workload("beam-mlpg1", "mlpg1", BALLS, bm.BeamProblem,
                 _beam_nodes(beam_level), beam_mesh, refs["beam-mlpg1"]),
        Workload("plate-dmlpg1", "dmlpg1", BOXES, bm.PlateProblem,
                 _plate_nodes(plate_level), plate_mesh, refs["plate-dmlpg1"]),
        Workload("shell-dmlpg5", "dmlpg5", BOXES, bm.BoussinesqProblem,
                 _shell_nodes(shell_target), shell_mesh, refs["shell-dmlpg5"]),
    )}


# (r_u, r_eps) of each workload, recorded when the benchmark was defined; a
# run whose errors move by more than REFERENCE_RTOL relative counts as failed.
REFERENCE_RTOL = 1e-6

# the documented evaluation meshes: 3381, 6400 and 1800 points
WORKLOADS = _workloads(2, 2, 1386, (
    bm.beam_eval_mesh, bm.plate_eval_mesh, bm.boussinesq_eval_mesh), {
    "beam-dmlpg1": (0.005558219643763857, 0.005478466864158682),
    "beam-mlpg1": (0.009139450264318666, 0.009480407264260977),
    "plate-dmlpg1": (6.0541867060873514e-05, 0.0008135104285605691),
    "shell-dmlpg5": (0.04405795971720027, 0.033983518659423034),
})

# beam 33x5, plate level 0 (535 nodes), shell target 800, on evaluation
# meshes of 205, 400 and 300 points.  Shell DMLPG5 trips
# the solver's condition-estimate alert at targets 200, 250, 300, 350, 500, 600
# and 700, and solves 400 with r_u = 1.15; 800 is the smallest target tried
# that solves with a sane error.
SMOKE_WORKLOADS = _workloads(0, 0, 800, (
    partial(bm.beam_eval_mesh, nx=41, ny=5), partial(bm.plate_eval_mesh, n=20),
    partial(bm.boussinesq_eval_mesh, n_surface=10)), {
    "beam-dmlpg1": (0.09689759269953226, 0.0955738152674637),
    "beam-mlpg1": (0.1304306829229567, 0.13457433679980854),
    "plate-dmlpg1": (0.007072470243171841, 0.009505480899733677),
    "shell-dmlpg5": (0.1247766547026873, 0.11406496297358786),
})
