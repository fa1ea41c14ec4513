"""Self-tests of the benchmark, on the smoke-size workloads.

Run from the repository root with ``python3 -m pytest perfbench``; they take
well under a minute.
"""

import dataclasses
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

run.prepare()

import spans  # noqa: E402  (needs the package path set by run.prepare)
from dmlpg import assembly as asm  # noqa: E402
from dmlpg import benchmarks as bm  # noqa: E402
from dmlpg import mls  # noqa: E402
from workloads import SMOKE_WORKLOADS  # noqa: E402

SPEC = run.spec()
TINY = 0.01  # seconds: one timed iteration (two when traced)


@pytest.fixture(scope="module")
def smoke_runs():
    return {(name, trace): run.run_workload(name, TINY, trace, seed=3, smoke=True)
            for name in run.NAMES for trace in (False, True)}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.NAMES)
def test_every_named_metric_with_its_unit(smoke_runs, name, trace):
    result, details, _ = smoke_runs[name, trace]
    table = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in table}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0, details["failures"]
    assert set(details["meta"]) >= {"python", "numpy", "scipy", "blas", "blas_threads",
                                    "nproc", "commit", "seed", "src_lines"}


@pytest.mark.parametrize("name", run.NAMES)
def test_self_times_are_nonnegative_and_add_up(smoke_runs, name):
    tracer = smoke_runs[name, True][2]
    requests = {s.request for s in tracer.spans}
    assert any(r.startswith("iteration") for r in requests)
    for request in requests:
        group = tracer.of_request(request)
        selfs = spans.self_times(group)
        children = {s.sid: 0.0 for s in group}
        for s in group:
            if s.parent is not None:
                children[s.parent] += s.duration
        for s in group:
            assert selfs[s.sid] >= -1e-12, s          # rounding of clock differences
            assert selfs[s.sid] + children[s.sid] == pytest.approx(s.duration, abs=1e-12)
        roots = sum(s.duration for s in group if s.parent is None)
        assert sum(selfs.values()) == pytest.approx(roots, rel=1e-9)
    metrics = smoke_runs[name, True][0]["metrics"]
    split = sum(metrics[f"mls.{p}.moment_self_s"]["value"] for p in ("assembly", "recovery"))
    assert split == pytest.approx(metrics["mls.moment_self_s"]["value"], rel=1e-9)


def _session(name, reference=None):
    workload = SMOKE_WORKLOADS[name]
    if reference is not None:
        workload = dataclasses.replace(workload, reference=reference)
    session = run.Session(workload)
    session.setup()
    return session


@pytest.mark.parametrize("name", ["beam-dmlpg1", "beam-mlpg1"])
def test_moment_builds_match_a_direct_count(monkeypatch, name):
    calls = []
    build = vars(mls.MomentSystem)["build"].__func__

    def counting(cls, *args, **kwargs):
        calls.append(1)
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(mls.MomentSystem, "build", classmethod(counting))
    session = _session(name)
    tracer = spans.Tracer()
    tracer.request = "counted"
    with tracer.patched(spans.SOLVE_TARGETS):
        sample = session.attempt("counted", traced=True)
    metrics = spans.layer_metrics(tracer.of_request("counted"), sample.outputs)
    assert metrics["mls.moment_builds"] == len(calls) > 0
    assert metrics["mls.recovery.moment_builds"] == session.eval_points.shape[0]


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_and_untraced_errors_are_identical(name):
    session = _session(name)
    untraced = session.attempt("untraced")
    tracer = spans.Tracer()
    with tracer.patched(spans.SOLVE_TARGETS):
        traced = session.attempt("traced", traced=True)
    assert (traced.r_u, traced.r_eps) == (untraced.r_u, untraced.r_eps)
    assert not session.failures


def test_patched_attributes_are_restored():
    before = [vars(owner)[attr] for owner, attr, _, _ in spans.SOLVE_TARGETS]
    with pytest.raises(RuntimeError):
        with spans.Tracer().patched(spans.SOLVE_TARGETS):
            raise RuntimeError
    assert [vars(owner)[attr] for owner, attr, _, _ in spans.SOLVE_TARGETS] == before


@pytest.mark.parametrize("name", ["beam-dmlpg1", "shell-dmlpg5"])
def test_errors_equal_the_package_formula(name):
    session = _session(name)
    wl, problem, nodes, points = (session.workload, session.problem, session.nodes,
                                  session.eval_points)
    u = asm.solve(wl.assemble(nodes, problem))
    report = bm.relative_errors(u, nodes, problem, points, wl.config)
    fields = asm.recover_field(points, nodes, u, problem.material, wl.config.m,
                               wl.config.eps)
    assert run.relative_errors(fields, problem, points) == (report.r_u, report.r_eps)
    sample = session.attempt("checked")
    assert (sample.r_u, sample.r_eps) == (report.r_u, report.r_eps)


def test_failures_are_counted_not_fatal(monkeypatch):
    session = _session("beam-dmlpg1", reference=(1.0, 1.0))
    assert session.attempt("wrong reference") is not None
    monkeypatch.setattr(asm, "solve", lambda system: 1 / 0)
    assert session.attempt("raises") is None
    assert session.attempted == 2 and len(session.failures) == 2


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(9))) is None
    assert run.tail_percentile(list(range(25)))[0] == 50
    assert run.tail_percentile(list(range(40)))[0] == 75
    assert run.tail_percentile(list(range(1000)))[0] == 99


def test_exits_nonzero_without_the_package():
    """A directory holding only BENCHMARK.json and perfbench/ gives no result."""
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "beam-dmlpg1",
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
