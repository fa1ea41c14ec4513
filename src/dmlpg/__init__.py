"""Meshfree solvers for 2D/3D linear elasto-statics.

Direct MLPG variants (volume- and boundary-integrated local weak forms
recovered by generalized moving least squares) next to the classical MLPG1/5
baselines, with the cantilever-beam, plate-with-hole, and point-load
benchmarks used to compare their accuracy and assembly cost.
"""

__version__ = "0.1.0"

from .assembly import (GlobalSystem, SolverConfig, assemble, recover_field,
                       solve)
from .benchmarks import (BeamProblem, BoussinesqProblem, ManufacturedProblem,
                         PlateProblem, convergence_study, relative_errors)
from .elasticity import MaterialModel, elastic_matrix, von_mises
from .geometry import (NodeSet, build_subdomain, generate_beam_nodes,
                       generate_boussinesq_nodes, generate_grid_nodes,
                       generate_plate_nodes, load_nodes, save_nodes)
from .mlpg import assemble_mlpg, mls_shape_with_derivatives
from .mls import (GmlsRow, MomentSystem, PolyBasis, WeightFunction,
                  gmls_derivative_row, gmls_row, mls_shape, weight_eval)

__all__ = [
    "BeamProblem", "BoussinesqProblem", "GlobalSystem", "GmlsRow",
    "ManufacturedProblem", "MaterialModel", "MomentSystem", "NodeSet",
    "PlateProblem", "PolyBasis", "SolverConfig", "WeightFunction",
    "assemble", "assemble_mlpg", "build_subdomain", "convergence_study",
    "elastic_matrix", "generate_beam_nodes", "generate_boussinesq_nodes",
    "generate_grid_nodes", "generate_plate_nodes", "gmls_derivative_row",
    "gmls_row", "load_nodes", "mls_shape", "mls_shape_with_derivatives",
    "recover_field", "relative_errors", "save_nodes", "solve", "von_mises",
    "weight_eval",
]
