"""Alternating A/B pairs of the benchmark: a parent revision against a change.

Usage (from the repository root)::

    python3 tools/ab_pairs.py --parent HEAD~1 --workload shell-dmlpg5 \\
        --pairs 10 --first-seed 2001 --seconds 20 --out BENCH_20.json
    python3 tools/ab_pairs.py --parent HEAD --change HEAD --workload all \\
        --out BENCH_21.json                      # the A/A control

For each seed S, ``perfbench/run.py --workload W --seconds T --seed S --trace 0``
runs once on a ``git archive`` copy of the parent revision and once on the
change, each in its own process: odd seeds run the parent first, even seeds
the change.  The change is the working tree (uncommitted changes included),
or a ``git archive`` copy of ``--change``.  ``--workload`` may repeat; ``all``
means the four workloads.  The output file gets, per workload and per
end-to-end metric of ``BENCHMARK.json``, each side's median and quartiles (the
25th and 75th percentiles of its runs), the number of pairs in which the
change read lower, and the ratio of the medians (change over parent).  When
both sides are the same commit (an A/A run, whose spread is the host's noise),
the workloads go under ``aa_control`` instead of ``workloads``.  An existing
output file keeps the workloads that this run does not measure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("beam-dmlpg1", "beam-mlpg1", "plate-dmlpg1", "shell-dmlpg5")


def commit(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout.strip()


def extract(rev: str, into: Path) -> Path:
    """The files of revision ``rev``, as ``git archive`` gives them, under ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end result line of one benchmark run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(runs: dict, seeds: list, metrics: list) -> dict:
    """Medians, quartiles, pairs won and ratio of each metric over the pairs."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        values = {side: np.array([r["metrics"][name]["value"] for r in runs[side]])
                  for side in ("parent", "change")}
        lower = values["change"] < values["parent"]
        if metric["better"] != "lower":
            lower = values["change"] > values["parent"]
        out[name] = {
            **{side: {"median": float(np.median(v)), "q1": float(np.percentile(v, 25)),
                      "q3": float(np.percentile(v, 75))} for side, v in values.items()},
            "unit": metric["unit"],
            "change_lower_pairs": int(np.count_nonzero(lower)),
            "ratio": float(np.median(values["change"]) / np.median(values["parent"])),
        }
    return {"pairs": len(seeds), "seeds": seeds, "metrics": out,
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in runs},
            "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in runs}}


def host() -> dict:
    import scipy
    return {"cores": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to compare against")
    parser.add_argument("--change", help="the revision to compare (default: the working tree)")
    parser.add_argument("--workload", action="append", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=2001)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)
    workloads = WORKLOADS if "all" in args.workload else tuple(dict.fromkeys(args.workload))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    parent = commit(args.parent)
    change = commit(args.change) if args.change else "working tree"
    section = "aa_control" if change == parent else "workloads"
    report = json.loads(args.out.read_text()) if args.out.exists() else {}
    report.setdefault(section, {})
    report.update(description=args.description or report.get("description", ""), host=host())
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": extract(parent, Path(tmp) / "parent"),
                 "change": extract(change, Path(tmp) / "change") if args.change else ROOT}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for seed in seeds:
                for side in ("parent", "change") if seed % 2 else ("change", "parent"):
                    runs[side].append(run_once(trees[side], workload, seed, args.seconds))
                    print(f"{workload} seed {seed} {side}: " + " ".join(
                        f"{k}={v['value']:.6g}" for k, v in runs[side][-1]["metrics"].items()),
                        flush=True)
            report[section][workload] = {"parent": parent, "change": change,
                                         **summarise(runs, seeds, metrics)}
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
