"""dmlpg benchmark: solve-and-recover workloads timed end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload beam-dmlpg1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20        # every workload
    python3 perfbench/run.py --workload all --smoke --seconds 1  # a few seconds

Each workload runs the calls a user makes: ``generate_*_nodes`` and the
evaluation mesh (set-up), ``assemble``/``assemble_mlpg`` plus ``solve``
(solution) and ``recover_field`` (recovery).  One process, one client, closed
loop: each iteration starts when the previous one returns.  The inputs are
deterministic; ``--seed`` only sets the order of traced and untraced
iterations (and of the workloads under ``all``) and is recorded.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run (see
``spans.py``) and the tracing overhead.  Every iteration is checked against
the closed-form solution; a failure is counted, not fatal.  Metric names and
units are those of ``BENCHMARK.json``.  Details of each run (samples,
percentiles, run metadata, spans) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("beam-dmlpg1", "beam-mlpg1", "plate-dmlpg1", "shell-dmlpg5")

RESIDUAL_LIMIT = 1e-8
SETUP_MIN_REPS = 5          # set-up runs at least this often ...
SETUP_MIN_SECONDS = 0.5     # ... and for at least this long,
SETUP_MAX_REPS = 200        # ... but no more often than this
TRACED_SETUPS = 5
CHILD_TIMEOUT = 600.0       # seconds one workload may take under ``all``


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# run metadata


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_lines() -> int:
    """Non-blank source lines of the package."""
    return sum(1 for path in sorted((SRC / "dmlpg").glob("*.py"))
               for line in path.read_text().splitlines() if line.strip())


def run_metadata(seed: int) -> dict:
    from importlib import metadata

    import numpy as np

    import dmlpg

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "dmlpg": dmlpg.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(),
        "seed": seed,
        "src_lines": source_lines(),
    }


# ---------------------------------------------------------------------------
# one iteration and its correctness check


@dataclass
class Sample:
    assemble_s: float
    solve_s: float
    recovery_s: float
    r_u: float
    r_eps: float
    outputs: dict
    traced: bool

    @property
    def solution_s(self) -> float:
        return self.assemble_s + self.solve_s


def relative_errors(fields, problem, eval_points):
    """The formula of ``dmlpg.benchmarks.relative_errors``, on given fields."""
    import numpy as np

    u_ex = problem.exact_u(eval_points)
    eps_ex = problem.exact_strain(eval_points)
    r_u = np.linalg.norm(fields["displacement"] - u_ex) / np.linalg.norm(u_ex)
    r_eps = np.linalg.norm(fields["strain"] - eps_ex) / np.linalg.norm(eps_ex)
    return float(r_u), float(r_eps)


class Session:
    """One workload's inputs plus the count of attempts and failures."""

    def __init__(self, workload):
        from workloads import REFERENCE_RTOL

        self.workload = workload
        self.rtol = REFERENCE_RTOL
        self.problem = self.nodes = self.eval_points = None
        self.attempted = 0
        self.failures: list[str] = []
        self.samples: list[Sample] = []

    def setup(self) -> float:
        t0 = time.perf_counter()
        self.problem, self.nodes, self.eval_points = self.workload.setup()
        return time.perf_counter() - t0

    def attempt(self, label: str, traced: bool = False,
                keep: bool = True) -> Sample | None:
        """One closed-loop iteration; a raise or a wrong answer is a failure."""
        from dmlpg import assembly as asm

        wl, problem, nodes = self.workload, self.problem, self.nodes
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            system = wl.assemble(nodes, problem)
            t1 = time.perf_counter()
            u = asm.solve(system)
            t2 = time.perf_counter()
            fields = asm.recover_field(self.eval_points, nodes, u, problem.material,
                                       m=wl.config.m, eps=wl.config.eps)
            t3 = time.perf_counter()
        except Exception as err:  # counted, so that failure shares compare
            self.failures.append(f"{label}: {type(err).__name__}: {err}")
            return None
        r_u, r_eps = relative_errors(fields, problem, self.eval_points)
        stats = system.stats
        ref_u, ref_eps = wl.reference
        if not stats["residual"] <= RESIDUAL_LIMIT:
            self.failures.append(f"{label}: residual {stats['residual']:.3e}")
        elif not (abs(r_u - ref_u) <= self.rtol * ref_u
                  and abs(r_eps - ref_eps) <= self.rtol * ref_eps):
            self.failures.append(f"{label}: r_u {r_u!r}, r_eps {r_eps!r} differ from "
                                 f"the reference {ref_u!r}, {ref_eps!r}")
        outputs = {
            "nnz": int(system.matrix.nnz),
            "n": int(system.matrix.shape[0]),
            "row_kinds": Counter(system.row_kinds),
            "cache_hits": int(stats["cache_hits"]),
            "cache_misses": int(stats["cache_misses"]),
            "residual": float(stats["residual"]),
            "cond": float(stats["condition_estimate"]),
            "recover_points": int(self.eval_points.shape[0]),
        }
        sample = Sample(t1 - t0, t2 - t1, t3 - t2, r_u, r_eps, outputs, traced)
        if keep:
            self.samples.append(sample)
        return sample


# ---------------------------------------------------------------------------
# summaries


def tail_percentile(values):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def describe(values) -> dict:
    out = {"median": statistics.median(values), "n": len(values)}
    tail = tail_percentile(values)
    if tail:
        out[f"p{tail[0]}"] = tail[1]
    return out


def median_of(dicts) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def setup_reps(session: Session) -> list:
    """Time the set-up repeatedly; the last one's inputs are used afterwards."""
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or (
            time.perf_counter() - start < SETUP_MIN_SECONDS
            and len(times) < SETUP_MAX_REPS):
        times.append(session.setup())
    return times


# ---------------------------------------------------------------------------
# the two kinds of run


def run_untraced(session: Session, seconds: float):
    """End-to-end metrics: every iteration untraced, after one warm-up."""
    session.setup()
    session.attempt("warm-up", keep=False)
    setup_times = setup_reps(session)
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        session.attempt(f"iteration-{i}")
        i += 1
        if time.perf_counter() >= deadline:
            break
    done = session.samples
    if not done:
        return None, {"setup_s": setup_times}
    samples = {
        "setup_s": setup_times,
        "solution_s": [s.solution_s for s in done],
        "assemble_s": [s.assemble_s for s in done],
        "solve_s": [s.solve_s for s in done],
        "recovery_s": [s.recovery_s for s in done],
    }
    metrics = {
        "setup_s": statistics.median(setup_times),
        "solution_s": statistics.median(samples["solution_s"]),
        "recovery_s": statistics.median(samples["recovery_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "r_u": statistics.median(s.r_u for s in done),
        "r_eps": statistics.median(s.r_eps for s in done),
    }
    return metrics, samples


def run_traced(session: Session, seconds: float, seed: int):
    """Per-layer metrics from traced iterations, alternated with untraced ones."""
    import spans

    tracer = spans.Tracer()
    session.setup()
    session.attempt("warm-up", keep=False)
    setup_layers = []
    for k in range(TRACED_SETUPS):
        tracer.request = f"setup-{k}"
        with tracer.patched(spans.SETUP_TARGETS):
            session.setup()
        setup_layers.append(spans.setup_metrics(tracer.of_request(tracer.request)))
    traced_next = random.Random(seed).random() < 0.5
    deadline = time.perf_counter() + seconds
    layers = []
    i = 0
    while True:
        label = f"iteration-{i}"
        if traced_next:
            tracer.request = label
            with tracer.patched(spans.SOLVE_TARGETS):
                sample = session.attempt(label, traced=True)
            if sample is not None:
                layers.append(spans.layer_metrics(tracer.of_request(label),
                                                  sample.outputs))
        else:
            session.attempt(label)
        traced_next = not traced_next
        i += 1
        if i >= 2 and time.perf_counter() >= deadline:
            break
    traced = [s.solution_s for s in session.samples if s.traced]
    untraced = [s.solution_s for s in session.samples if not s.traced]
    if not traced or not untraced:
        return None, {}, tracer
    metrics = {
        **median_of(setup_layers),
        **median_of(layers),
        "trace.solution_s": statistics.median(traced),
        "trace.untraced_solution_s": statistics.median(untraced),
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
    }
    samples = {"traced_solution_s": traced, "untraced_solution_s": untraced}
    return metrics, samples, tracer


def run_workload(name: str, seconds: float, trace: bool, seed: int, smoke: bool):
    """Run one workload; returns (result line, details, tracer or None)."""
    from workloads import SMOKE_WORKLOADS, WORKLOADS

    workload = (SMOKE_WORKLOADS if smoke else WORKLOADS)[name]
    session = Session(workload)
    tracer = None
    if trace:
        values, samples, tracer = run_traced(session, seconds, seed)
    else:
        values, samples = run_untraced(session, seconds)
    table = spec()["per_layer" if trace else "end_to_end"]
    details = {
        "workload": name, "smoke": smoke, "trace": int(trace), "seed": seed,
        "seconds": seconds, "meta": run_metadata(seed),
        "attempted": session.attempted, "failures": session.failures,
        "samples": samples,
        "summary": {k: describe(v) for k, v in samples.items() if v},
    }
    if values is None:
        return None, details, tracer
    result = {
        "correct": not session.failures,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in table},
    }
    details["result"] = result
    return result, details, tracer


# ---------------------------------------------------------------------------
# printing and the ``all`` mode


def print_report(result, details) -> None:
    meta = details["meta"]
    mode = "traced" if details["trace"] else "untraced"
    size = " (smoke)" if details["smoke"] else ""
    print(f"# workload {details['workload']}{size}, {mode}, seed {details['seed']}, "
          f"{details['seconds']:g} s")
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, stat in details["summary"].items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in stat.items() if k.startswith("p"))
        print(f"#   {name}: median {stat['median']:.6g} s over n={stat['n']} {extra}")
    for failure in details["failures"]:
        print(f"# FAILED {failure}")
    for name, m in result["metrics"].items():
        print(f"{name:<32} {m['value']:<14.8g} {m['unit']}")
    print(f"{'failed_runs':<32} {result['failed']:<14d} count "
          f"(of {result['attempted']} attempted)")


def detail_path(name, trace, seed, smoke) -> Path:
    return OUT / f"{name}{'-smoke' if smoke else ''}-trace{int(trace)}-seed{seed}.json"


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced, plus a summary."""
    order = list(NAMES)
    random.Random(args.seed).shuffle(order)
    results = {}
    for name in order:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                print(f"workload {name} (trace {trace}) exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            print(proc.stdout.rstrip("\n").rsplit("\n", 1)[0])
            results[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    assemble = {}
    for name in ("beam-dmlpg1", "beam-mlpg1"):
        details = json.loads(detail_path(name, 0, args.seed, args.smoke).read_text())
        assemble[name] = details["summary"]["assemble_s"]["median"]
    combined = {}
    print("\n# summary (traced density and LU fill beside the end-to-end metrics)")
    for name in NAMES:
        e2e = results[name, 0]["metrics"]
        layer = results[name, 1]["metrics"]
        shown = {**e2e, "assembly.density": layer["assembly.density"],
                 "assembly.solve.lu_fill": layer["assembly.solve.lu_fill"]}
        cells = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in shown.items())
        print(f"{name:<14} {cells}  failed_runs={results[name, 0]['failed']}")
        combined.update({f"{name}.{k}": v for k, v in shown.items()})
    ratio = assemble["beam-mlpg1"] / assemble["beam-dmlpg1"]
    print(f"criterion7.beam_ratio {ratio:.4g} (MLPG1 over DMLPG1 assembly, "
          f"{assemble['beam-mlpg1']:.4g} s / {assemble['beam-dmlpg1']:.4g} s; "
          "reported, never gated)")
    combined["criterion7.beam_ratio"] = {"value": ratio, "unit": "ratio"}
    runs = list(results.values())
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": combined,
    }))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk clouds: beam 33x5, plate level 0, shell 800")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def prepare() -> bool:
    """Point imports at the checkout's package and cap BLAS threads at nproc."""
    if not (SRC / "dmlpg" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        return False
    os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        print(f"no dmlpg sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result, details, tracer = run_workload(args.workload, args.seconds,
                                           bool(args.trace), args.seed, args.smoke)
    OUT.mkdir(exist_ok=True)
    path = detail_path(args.workload, args.trace, args.seed, args.smoke)
    if tracer is not None:
        spans_path = path.with_suffix(".spans.jsonl")
        tracer.write(spans_path)
        details["spans"] = spans_path.name
    path.write_text(json.dumps(details, indent=1))
    if result is None:
        print("no iteration completed:\n" + "\n".join(details["failures"]),
              file=sys.stderr)
        return 1
    print_report(result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
