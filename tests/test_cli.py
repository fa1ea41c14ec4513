import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import dmlpg
from dmlpg import assembly as asm
from dmlpg import cli


def test_parse_defaults_for_beam():
    cfg = cli.parse_config("problem = beam\n")
    assert cfg.method == "dmlpg1"
    assert cfg.m == 2
    assert cfg.eps == 4.0
    assert cfg.shape == "box"
    assert cfg.box_factor == 1.0
    assert cfg.ball_factor == 0.7


def test_parse_rejects_empty_problem():
    with pytest.raises(cli.ConfigError):
        cli.parse_config("method = dmlpg1\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(cli.ConfigError, match="foo"):
        cli.parse_config("problem = beam\nfoo = 1\n")


def test_parse_reports_line_and_column():
    with pytest.raises(cli.ConfigError, match="line 3"):
        cli.parse_config("problem = beam\n# comment\nnot a pair\n")


def test_parse_rejects_bad_value_type():
    with pytest.raises(cli.ConfigError, match="levels"):
        cli.parse_config("problem = beam\nlevels = many\n")


def test_parse_rejects_bad_method():
    with pytest.raises(cli.ConfigError, match="method"):
        cli.parse_config("problem = beam\nmethod = fem\n")


@pytest.mark.parametrize("shape", ["box", "rect", "square", "cube", "ball", "disk",
                                   "circle", "sphere"])
def test_parse_accepts_every_shape_alias(shape):
    assert cli.parse_config(f"problem = beam\nshape = {shape}\n").shape == shape
    with pytest.raises(cli.ConfigError, match="shape"):
        cli.parse_config("problem = beam\nshape = hexagon\n")


def test_explicit_delta_factor_wins_and_zero_means_the_default():
    defaults = {"beam": 2.0, "plate": 2.0, "boussinesq": 1.5, "manufactured": 2.0}
    for problem, default in defaults.items():
        assert cli.parse_config(f"problem = {problem}\n").support_factor == default
        for value in (2.0, 1.5, 3.0):
            cfg = cli.parse_config(f"problem = {problem}\ndelta_factor = {value}\n")
            assert cfg.support_factor == value
    with pytest.raises(cli.ConfigError, match="delta_factor"):
        cli.parse_config("problem = beam\ndelta_factor = -1\n")


@pytest.mark.parametrize("key, value", [("young", "-5"), ("young", "0"), ("young", "nan"),
                                        ("poisson", "-0.3"), ("poisson", "-1"),
                                        ("poisson", "0.5")])
def test_explicit_material_constants_out_of_range_are_rejected(key, value):
    with pytest.raises(cli.ConfigError, match=f"key '{key}'"):
        cli.parse_config(f"problem = beam\n{key} = {value}\n")


def test_explicit_material_constants_win_and_unset_ones_default():
    def material(text):
        material = cli.build_problem(cli.parse_config("problem = boussinesq\n" + text)).material
        return material.young, material.poisson

    assert material("") == (1000.0, 0.25)
    assert material("young = 2.5\npoisson = 0\n") == (2.5, 0.0)
    assert material("poisson = 0.3\n") == (1000.0, 0.3)


def test_comments_and_blank_lines_ignored():
    cfg = cli.parse_config("\n# header\nproblem = beam  # trailing\n\nlevels = 2\n")
    assert cfg.levels == 2


@pytest.fixture()
def manufactured_cfg(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "problem = manufactured\n"
        "method = dmlpg1\n"
        "degree = 1\n"
        "levels = 1\n"
        f"out = {tmp_path / 'out'}\n")
    return path, tmp_path / "out"


def test_solve_writes_artifacts(manufactured_cfg):
    path, out = manufactured_cfg
    rc = cli.main(["solve", "--config", str(path)])
    assert rc == 0
    summary = json.loads((out / "summary.jsonl").read_text())
    assert summary["record"] == "run"
    assert summary["results"]["r_u"] < 1e-8
    assert summary["config"]["problem"] == "manufactured"
    assert summary["versions"] == {"dmlpg": dmlpg.__version__, "numpy": np.__version__,
                                   "scipy": scipy.__version__}


def test_solve_summary_carries_solver_stats(manufactured_cfg):
    path, out = manufactured_cfg
    assert cli.main(["solve", "--config", str(path)]) == 0
    summary = json.loads((out / "summary.jsonl").read_text())
    solver = summary["results"]["solver"]
    assert set(solver) == {"backend", "precision", "refine_steps", "fallback", "t_factor",
                           "t_condest", "fill"}
    assert solver["fallback"] is None
    # the manufactured level-0 system is small and dense
    n_dof = 2 * summary["results"]["n_nodes"]
    assert solver["backend"] == "dense-lu"
    assert solver["precision"] == "single" and solver["refine_steps"] >= 1
    assert solver["fill"] == n_dof * n_dof
    assert solver["t_factor"] > 0.0 and solver["t_condest"] > 0.0
    stages = summary["results"]["stages"]
    assert set(stages) == {"subdomains_s", "rows_s", "traction_s", "moments_s", "scatter_s"}
    assert all(t > 0.0 for t in stages.values())
    results = summary["results"]
    assert set(results["groups"]) == {"subdomains_built"}
    # interior boxes of the uniform grid share keys, so fewer nodes build
    weak = results["cache_hits"] + results["cache_misses"]
    assert 0 < results["groups"]["subdomains_built"] < weak


@pytest.mark.parametrize("method", ["dmlpg1", "mlpg1"])
def test_solve_summary_says_how_healthy_the_run_was(manufactured_cfg, method):
    path, out = manufactured_cfg
    path.write_text(path.read_text().replace("dmlpg1", method))
    assert cli.main(["solve", "--config", str(path)]) == 0
    results = json.loads((out / "summary.jsonl").read_text())["results"]
    cond = results["moment_cond"]
    assert set(cond) == {"min", "median", "max"}
    assert 1.0 <= cond["min"] <= cond["median"] <= cond["max"]
    assert results["condition_estimate"] >= 1.0
    assert sum(results["row_kinds"].values()) == results["n_nodes"]
    assert results["row_kinds"]["dirichlet-collocation"] > 0
    classical = results["classical"]
    assert set(classical) == {"chunks", "pairs", "padded_pairs"}
    if method == "dmlpg1":
        assert results["cache_hits"] > 0 and results["cache_misses"] > 0
        assert set(classical.values()) == {0}
    else:
        assert results["cache_hits"] == results["cache_misses"] == 0
        assert 0 < classical["pairs"] <= classical["padded_pairs"]


def test_summary_writes_non_finite_values_as_null(manufactured_cfg, monkeypatch):
    path, out = manufactured_cfg
    real = asm.solve

    def no_moments(system):
        u = real(system)
        system.stats["moment_cond"] = {"min": math.inf, "median": math.nan, "max": 0.0}
        return u

    monkeypatch.setattr(asm, "solve", no_moments)
    assert cli.main(["solve", "--config", str(path)]) == 0
    results = json.loads((out / "summary.jsonl").read_text())["results"]
    assert results["moment_cond"] == {"min": None, "median": None, "max": 0.0}


def test_solve_summary_solver_times_zeroed_without_record_times(manufactured_cfg):
    path, out = manufactured_cfg
    path.write_text(path.read_text() + "record_times = false\n")
    assert cli.main(["solve", "--config", str(path)]) == 0
    results = json.loads((out / "summary.jsonl").read_text())["results"]
    solver = results["solver"]
    assert solver["t_factor"] == 0.0 and solver["t_condest"] == 0.0
    assert solver["fill"] > 0
    assert solver["precision"] == "single" and solver["refine_steps"] >= 1
    assert results["stages"] == dict.fromkeys(
        ("subdomains_s", "rows_s", "traction_s", "moments_s", "scatter_s"), 0.0)


def test_study_csv_schema(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = beam\nlevels = 2\n"
                   f"out = {tmp_path / 'out'}\n")
    rc = cli.main(["study", "--config", str(cfg)])
    assert rc == 0
    lines = (tmp_path / "out" / "convergence.csv").read_text().splitlines()
    assert lines[0] == "h,N,r_u,r_eps,t_assemble_s,t_solve_s,shape_evals,order_u,order_eps"
    assert len(lines) == 3
    assert lines[1].split(",")[-1] == "nan"   # undefined first-level order


def test_deterministic_artifacts(tmp_path):
    outputs = []
    for run in ("a", "b"):
        cfg = tmp_path / f"{run}.cfg"
        cfg.write_text("problem = beam\nlevels = 1\nrecord_times = false\n"
                       f"out = {tmp_path / run}\n")
        assert cli.main(["study", "--config", str(cfg)]) == 0
        outputs.append((tmp_path / run / "convergence.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_missing_config_file(tmp_path):
    rc = cli.main(["solve", "--config", str(tmp_path / "absent.cfg")])
    assert rc == 2


def test_bad_config_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problem = warp_drive\n")
    assert cli.main(["solve", "--config", str(cfg)]) == 2


def test_console_entry_point(manufactured_cfg):
    path, out = manufactured_cfg
    # the child imports the package the tests imported, installed or not
    src = str(Path(dmlpg.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "dmlpg", "solve", "--config", str(path),
         "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "r_u" in proc.stdout
