"""Configuration-driven command line: solve, study, and compare runs.

The config file is plain ``key = value`` text (``#`` comments allowed); every
run writes CSV artifacts plus a line-delimited JSON summary that echoes the
inputs, library versions, and wall times.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, fields

import numpy as np
import scipy

from . import __version__
from . import assembly as asm
from . import benchmarks as bm
from . import geometry as geo

PROBLEMS = ("beam", "plate", "boussinesq", "manufactured")
METHODS = ("dmlpg1", "dmlpg5", "mlpg1", "mlpg5")


class ConfigError(Exception):
    """Parse or validation failure; str() names the key and location."""


@dataclass
class RunConfig:
    problem: str = ""
    method: str = "dmlpg1"
    m: int = 2
    eps: float = 4.0
    shape: str = "box"
    box_factor: float = 1.0
    ball_factor: float = 0.7
    delta_factor: float = 0.0       # support scale; 0 means the per-problem default
    near_factor: float = 2.0        # plate: support scale at the hole
    far_factor: float = 2.5         # plate: support scale away from it
    quad_interior: int = 0          # 0 means the exact-count default
    quad_boundary: int = 0
    quad_radial: int = 10
    quad_angular: int = 10
    quad_curved: int = 24
    quad_traction: int = 16
    quad_mlpg: int = 10
    levels: int = 1
    young: float | None = None      # None means the per-problem default
    poisson: float | None = None
    load: float = 1.0
    target: int = 1386              # boussinesq node budget
    degree: int = 2                 # manufactured field degree
    dim: int = 2                    # manufactured dimension
    cache: bool = True
    scale_rows: bool = False
    record_times: bool = True
    out: str = "out"

    @property
    def support_factor(self) -> float:
        if self.delta_factor > 0.0:
            return self.delta_factor
        return 1.5 if self.problem == "boussinesq" else 2.0   # the shell's tighter supports

    def solver_config(self) -> asm.SolverConfig:
        return asm.SolverConfig(
            m=self.m, eps=self.eps, shape=self.shape, box_factor=self.box_factor,
            ball_factor=self.ball_factor,
            quad_interior=self.quad_interior or None,
            quad_boundary=self.quad_boundary or None,
            quad_radial=self.quad_radial, quad_angular=self.quad_angular,
            quad_curved=self.quad_curved, quad_traction=self.quad_traction,
            quad_mlpg=self.quad_mlpg, cache=self.cache,
            scale_rows=self.scale_rows)


_BOOL = {"true": True, "false": False, "yes": True, "no": False,
         "1": True, "0": False}


def parse_config(text: str) -> RunConfig:
    """Parse the key-value run description; errors carry line/column info."""
    spec = {f.name: f.type for f in fields(RunConfig)}
    defaults = RunConfig()
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        if "=" not in line:
            col = len(raw) - len(raw.lstrip()) + 1
            raise ConfigError(f"line {lineno}, column {col}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in spec:
            col = raw.index(key) + 1 if key and key in raw else 1
            raise ConfigError(f"line {lineno}, column {col}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        default = getattr(defaults, key)
        kind = float if default is None else type(default)   # only floats default to None
        try:
            if kind is bool:
                values[key] = _BOOL[value.lower()]
            elif kind is int:
                values[key] = int(value)
            elif kind is float:
                values[key] = float(value)
            else:
                values[key] = value
        except (ValueError, KeyError):
            raise ConfigError(
                f"line {lineno}: value {value!r} invalid for key {key!r}") from None
    config = RunConfig(**values)
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.problem not in PROBLEMS:
        raise ConfigError(
            f"key 'problem': expected one of {PROBLEMS}, got {config.problem!r}")
    if config.method not in METHODS:
        raise ConfigError(f"key 'method': unknown method {config.method!r}")
    if config.m < 2:
        raise ConfigError("key 'm': the direct methods need basis degree >= 2")
    positive = ["eps", "box_factor", "ball_factor", "near_factor", "far_factor",
                "quad_radial", "quad_angular", "quad_curved", "quad_traction", "quad_mlpg",
                "levels", "load", "target"]
    for name in positive:
        if getattr(config, name) <= 0:
            raise ConfigError(f"key {name!r}: must be positive")
    for name in ("delta_factor", "quad_interior", "quad_boundary"):
        if getattr(config, name) < 0:
            raise ConfigError(f"key {name!r}: must be nonnegative")
    try:
        geo.canonical_shape(config.shape)
    except ValueError as err:
        raise ConfigError(f"key 'shape': {err}") from None
    if config.young is not None and not config.young > 0.0:
        raise ConfigError("key 'young': must be positive")
    if config.poisson is not None and not 0.0 <= config.poisson < 0.5:
        raise ConfigError("key 'poisson': must lie in [0, 0.5)")


_DEFAULT_MATERIAL = {
    "beam": (1.0, 0.25),
    "plate": (1.0, 0.25),
    "boussinesq": (1000.0, 0.25),
    "manufactured": (1.0, 0.25),
}


def build_problem(config: RunConfig):
    young, poisson = _DEFAULT_MATERIAL[config.problem]
    if config.young is not None:
        young = config.young
    if config.poisson is not None:
        poisson = config.poisson
    if config.problem == "beam":
        return bm.BeamProblem(young=young, poisson=poisson, load=config.load)
    if config.problem == "plate":
        return bm.PlateProblem(young=young, poisson=poisson, far_load=config.load)
    if config.problem == "boussinesq":
        return bm.BoussinesqProblem(young=young, poisson=poisson, load=config.load)
    coeffs = (bm.linear_patch_coeffs(config.dim) if config.degree == 1
              else bm.quadratic_patch_coeffs(config.dim))
    lengths = (1.0, 0.5) if config.dim == 2 else (1.0, 1.0, 1.0)
    return bm.ManufacturedProblem(coeffs, lengths, young=young, poisson=poisson)


def level_factory(config: RunConfig, problem):
    support = config.support_factor
    if config.problem == "beam":
        return bm.beam_level_factory(problem, support_factor=support, m=config.m)
    if config.problem == "plate":
        return bm.plate_level_factory(problem, m=config.m,
                                      near_factor=config.near_factor,
                                      far_factor=config.far_factor)
    if config.problem == "boussinesq":
        return bm.boussinesq_level_factory(problem, m=config.m,
                                           support_factor=support,
                                           target=config.target)

    def factory(level):
        counts = (9 * 2**level, 5 * 2**level) if config.dim == 2 else \
            (5 * 2**level,) * 3
        lengths = (1.0, 0.5) if config.dim == 2 else (1.0, 1.0, 1.0)
        nodes = geo.generate_grid_nodes(counts, lengths, m=config.m,
                                        support_factor=support)
        return problem, nodes

    return factory


def eval_mesh_for(config: RunConfig, problem):
    if config.problem == "beam":
        return bm.beam_eval_mesh(problem.length, problem.height)
    if config.problem == "plate":
        return bm.plate_eval_mesh(problem.hole_radius, problem.half_width)
    if config.problem == "boussinesq":
        return bm.boussinesq_eval_mesh()
    pts = geo.generate_grid_nodes((7, 7) if config.dim == 2 else (4, 4, 4),
                                  (1.0, 0.5) if config.dim == 2 else (1.0,) * 3)
    return pts.points


def _write_profiles(out_dir, config, problem, nodes, u, solver_cfg):
    """Figure-analogue CSV tables for the solved problem."""
    import pathlib

    out = pathlib.Path(out_dir)
    written = []
    if config.problem == "beam":
        y = np.linspace(0.0, problem.height, 41)
        pts = np.column_stack([np.full_like(y, problem.length / 2.0), y])
        f = asm.recover_field(pts, nodes, u, problem.material, solver_cfg.m, solver_cfg.eps)
        exact = problem.exact_stress(pts)
        for name, col in (("s11", 0), ("s12", 2)):
            path = out / f"beam_{name}_profile.csv"
            bm.write_profile_csv(path, y, f["stress"][:, col], exact[:, col])
            written.append(str(path))
    elif config.problem == "plate":
        y = np.linspace(problem.hole_radius, problem.half_width, 41)
        pts = np.column_stack([np.zeros_like(y), y])
        f = asm.recover_field(pts, nodes, u, problem.material, solver_cfg.m, solver_cfg.eps)
        exact = problem.exact_stress(pts)
        path = out / "plate_s11_profile.csv"
        bm.write_profile_csv(path, y, f["stress"][:, 0], exact[:, 0])
        written.append(str(path))
    elif config.problem == "boussinesq":
        r = np.linspace(0.5, 5.0, 41)
        pts = np.column_stack([r / math.sqrt(2.0), r / math.sqrt(2.0), np.zeros_like(r)])
        f = asm.recover_field(pts, nodes, u, problem.material, solver_cfg.m, solver_cfg.eps)
        ue = problem.exact_u(pts)
        se = problem.exact_stress(pts)
        from . import elasticity as ela

        profiles = {
            "ur": ((f["displacement"][:, 0] + f["displacement"][:, 1]) / math.sqrt(2.0),
                   (ue[:, 0] + ue[:, 1]) / math.sqrt(2.0)),
            "w": (f["displacement"][:, 2], ue[:, 2]),
            "vm": (f["von_mises"], ela.von_mises(se)),
        }
        for name, (num, exact) in profiles.items():
            path = out / f"boussinesq_{name}_profile.csv"
            bm.write_profile_csv(path, r, num, exact)
            written.append(str(path))
    return written


def run(config: RunConfig, command: str = "solve") -> dict:
    """Execute a run and write artifacts; returns the summary record."""
    import pathlib

    out = pathlib.Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    solver_cfg = config.solver_config()
    problem = build_problem(config)
    factory = level_factory(config, problem)
    eval_pts = eval_mesh_for(config, problem)
    t_start = time.perf_counter()
    artifacts = []
    results = {}
    if command == "solve":
        problem, nodes = factory(config.levels - 1)
        u, system = bm.solve_problem(nodes, problem, config.method, solver_cfg)
        rep = bm.relative_errors(u, nodes, problem, eval_pts, solver_cfg)
        artifacts += _write_profiles(out, config, problem, nodes, u, solver_cfg)
        solver = dict(system.stats["solver"])
        stages = dict(system.stats["stages"])
        if not config.record_times:
            solver.update(t_factor=0.0, t_condest=0.0)
            stages = dict.fromkeys(stages, 0.0)
        results = {"n_nodes": nodes.n, "r_u": rep.r_u, "r_eps": rep.r_eps,
                   "row_kinds": {kind: system.row_kinds.count(kind)
                                 for kind in sorted(set(system.row_kinds))},
                   "solver": solver, "stages": stages,
                   **{key: system.stats[key] for key in (
                       "residual", "condition_estimate", "moment_cond", "shape_evals",
                       "cache_hits", "cache_misses", "groups", "classical")}}
        times = {"assemble_s": system.stats["t_assemble"],
                 "solve_s": system.stats["t_solve"]}
    elif command == "study":
        rows = bm.convergence_study(factory, config.method, config.levels,
                                    eval_pts, solver_cfg)
        path = out / "convergence.csv"
        bm.write_convergence_csv(path, rows, record_times=config.record_times)
        artifacts.append(str(path))
        results = {"levels": [
            {"h": r.h, "N": r.n_nodes, "r_u": r.r_u, "r_eps": r.r_eps,
             "order_u": r.order_u, "order_eps": r.order_eps} for r in rows]}
        times = {"assemble_s": sum(r.t_assemble for r in rows),
                 "solve_s": sum(r.t_solve for r in rows)}
    elif command == "compare":
        other = {"dmlpg1": "mlpg1", "dmlpg5": "mlpg5",
                 "mlpg1": "dmlpg1", "mlpg5": "dmlpg5"}[config.method]
        path = out / "compare.csv"
        times = {"assemble_s": 0.0, "solve_s": 0.0}
        with open(path, "w") as fh:
            fh.write("method,h,N,r_u,r_eps,t_assemble_s,t_solve_s,shape_evals\n")
            for method in (config.method, other):
                rows = bm.convergence_study(factory, method, config.levels,
                                            eval_pts, solver_cfg)
                for r in rows:
                    ta = r.t_assemble if config.record_times else 0.0
                    ts = r.t_solve if config.record_times else 0.0
                    fh.write(f"{method},{r.h:.17g},{r.n_nodes},{r.r_u:.17g},"
                             f"{r.r_eps:.17g},{ta:.6f},{ts:.6f},{r.shape_evals}\n")
                results[method] = {"r_u": rows[-1].r_u,
                                   "t_assemble": rows[-1].t_assemble}
                times["assemble_s"] += sum(r.t_assemble for r in rows)
                times["solve_s"] += sum(r.t_solve for r in rows)
        artifacts.append(str(path))
    else:
        raise ConfigError(f"unknown command {command!r}")
    summary = {
        "record": "run",
        "command": command,
        "config": {f.name: getattr(config, f.name) for f in fields(RunConfig)},
        "versions": {"dmlpg": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "artifacts": artifacts,
        "results": _jsonable(results),
        "wall_times": times if config.record_times else {},
        "total_wall_s": time.perf_counter() - t_start if config.record_times else 0.0,
    }
    with open(out / "summary.jsonl", "w") as fh:
        fh.write(json.dumps(summary, sort_keys=True, allow_nan=False) + "\n")
    return summary


def _jsonable(value):
    """Undefined entries (e.g. the first level's order) become null."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dmlpg",
        description="Meshfree elasto-statics: direct MLPG solvers and benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("solve", "single solve with profile tables"),
                       ("study", "refinement study with a convergence table"),
                       ("compare", "direct-vs-classical timing/accuracy table")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="run description file")
        p.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    try:
        with open(args.config) as fh:
            config = parse_config(fh.read())
        if args.out is not None:
            config.out = args.out
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    try:
        summary = run(config, args.command)
    except Exception as err:  # module errors surface with context
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    print(json.dumps(summary["results"], sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
