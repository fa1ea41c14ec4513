"""Fingerprints of the assembled systems: the oracle that a change moves no matrix.

Usage (from the repository root)::

    python3 tools/fingerprint.py                        # record tools/fingerprints.json
    python3 tools/fingerprint.py --check                # working tree against that file
    python3 tools/fingerprint.py --check --parent HEAD  # working tree against a revision

Each system is one method on one fixed node cloud, assembled (not solved)
from the package under ``--src`` (default: this tree's ``src``).  Its
fingerprint holds the SHA-256 of the CSR ``indptr``, ``indices`` and ``data``
and of the right-hand side, nnz, the max and Frobenius norms, the key counters
(``cache_hits``, ``cache_misses``, ``subdomains_built``) and three seeded
sketches: ``A @ r``, ``A.T @ r`` and the right-hand side, each projected onto
``SKETCH`` seeded Gaussian directions so that the file stays small.  The file
records the numpy, scipy and BLAS versions too; hashes compare only between
runs on the same versions.

``--check`` reports each system as identical, or as changed by the relative
2-norm change of each sketch (0 where a sketch is the same to the bit), and
exits 1 if any system changed.  With ``--parent REV`` the reference is not
the file but ``git archive REV``, fingerprinted in a child process with this
script and the revision's own ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from ab_pairs import extract   # the sibling script; a script's directory is on sys.path

ROOT = Path(__file__).resolve().parents[1]
FILE = ROOT / "tools" / "fingerprints.json"
SKETCH = 16


def _systems():
    """name -> (problem, nodes, method, config), built lazily in this order."""
    from dmlpg import assembly as asm
    from dmlpg import benchmarks as bm
    from dmlpg import geometry as geo

    balls, boxes = asm.SolverConfig(shape="ball"), asm.SolverConfig(shape="box")

    def beam():
        problem = bm.BeamProblem()
        return problem, bm.beam_level_factory(problem)(2)[1]

    def plate(level):
        problem = bm.PlateProblem()
        return lambda: (problem, bm.plate_level_factory(problem)(level)[1])

    def shell():
        problem = bm.BoussinesqProblem()
        return problem, bm.boussinesq_level_factory(problem, target=1386)(0)[1]

    def jittered():
        # 11x6 grid on [0,2]x[0,1], interior nodes moved by up to h/4
        base = geo.generate_grid_nodes((11, 6), (2.0, 1.0))
        pts = base.points.copy()
        inner = np.all((pts > 1e-9) & (pts < np.array([2.0, 1.0]) - 1e-9), axis=1)
        pts[inner] += (np.random.default_rng(7).uniform(-0.25, 0.25, (int(inner.sum()), 2))
                       * base.mesh_size)
        nodes = geo.NodeSet(pts, base.tags, base.masks, base.spacing, base.support,
                            base.mesh_size)
        return bm.ManufacturedProblem(bm.quadratic_patch_coeffs(2), (2.0, 1.0)), nodes

    def body3d():
        problem = bm.ManufacturedProblem(bm.quadratic_patch_coeffs(3), (1.0, 0.5, 0.5))
        return problem, geo.generate_grid_nodes((7, 4, 4), (1.0, 0.5, 0.5))

    def signature():
        # 9x5 grid with node (0.5, 0.375) moved to y = 0.4375: its box keeps
        # the interior extent, but its top face lies on the traction plane
        base = geo.generate_grid_nodes((9, 5), (1.0, 0.5))
        pts = base.points.copy()
        pts[int(np.argmin(np.linalg.norm(pts - [0.5, 0.375], axis=1))), 1] = 0.4375
        nodes = geo.NodeSet(pts, base.tags, base.masks, base.spacing, base.support,
                            base.mesh_size)
        return bm.ManufacturedProblem(bm.linear_patch_coeffs(2), (1.0, 0.5)), nodes

    default = asm.SolverConfig()
    return {
        "beam-129x17-balls-dmlpg1": (beam, "dmlpg1", balls),
        "beam-129x17-balls-mlpg1": (beam, "mlpg1", balls),
        "beam-129x17-balls-mlpg5": (beam, "mlpg5", balls),
        "beam-129x17-boxes-dmlpg1": (beam, "dmlpg1", boxes),
        "beam-129x17-boxes-dmlpg5": (beam, "dmlpg5", boxes),
        "beam-129x17-boxes-dmlpg5-scaled": (beam, "dmlpg5", replace(boxes, scale_rows=True)),
        "plate-2-dmlpg1": (plate(2), "dmlpg1", default),
        "plate-2-dmlpg1-scaled": (plate(2), "dmlpg1", replace(default, scale_rows=True)),
        "plate-2-dmlpg1-nocache": (plate(2), "dmlpg1", asm.SolverConfig(cache=False)),
        "plate-2-dmlpg5": (plate(2), "dmlpg5", default),
        "plate-0-boxes-mlpg1": (plate(0), "mlpg1", boxes),
        "plate-0-boxes-mlpg5": (plate(0), "mlpg5", boxes),
        "shell-1386-dmlpg5": (shell, "dmlpg5", default),
        "shell-1386-dmlpg5-scaled": (shell, "dmlpg5", replace(default, scale_rows=True)),
        "shell-1386-dmlpg1": (shell, "dmlpg1", default),
        "jittered-11x6-dmlpg1": (jittered, "dmlpg1", default),
        "jittered-11x6-dmlpg5": (jittered, "dmlpg5", default),
        "body-7x4x4-dmlpg1": (body3d, "dmlpg1", default),
        "body-7x4x4-dmlpg5": (body3d, "dmlpg5", default),
        "signature-9x5-dmlpg1": (signature, "dmlpg1", default),
        "signature-9x5-dmlpg5": (signature, "dmlpg5", default),
    }


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def fingerprint(system) -> dict:
    """The fingerprint of one assembled ``GlobalSystem``."""
    import scipy.sparse.linalg as spla

    a, rhs = system.matrix, system.rhs
    n = a.shape[0]
    rng = np.random.default_rng(0)
    r = rng.standard_normal(n)
    project = rng.standard_normal((SKETCH, n))
    stats = system.stats
    return {
        "n": n, "nnz": int(a.nnz),
        "sha256": {"indptr": _sha(a.indptr), "indices": _sha(a.indices),
                   "data": _sha(a.data), "rhs": _sha(rhs)},
        "max_norm": float(abs(a).max()), "fro_norm": float(spla.norm(a)),
        "cache_hits": stats["cache_hits"], "cache_misses": stats["cache_misses"],
        "subdomains_built": stats["groups"]["subdomains_built"],
        "sketch": {"A@r": (project @ (a @ r)).tolist(), "A.T@r": (project @ (a.T @ r)).tolist(),
                   "rhs": (project @ rhs).tolist()},
    }


def versions() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def record() -> dict:
    """Every system's fingerprint under the package that ``dmlpg`` imports."""
    from dmlpg import assembly as asm
    from dmlpg import mlpg

    out = {}
    for name, (make, method, config) in _systems().items():
        problem, nodes = make()
        if method.startswith("mlpg"):
            system = mlpg.assemble_mlpg(nodes, problem, method, config)
        else:
            system = asm.assemble(nodes, problem, method, config)
        out[name] = fingerprint(system)
        print(f"{name}: nnz {out[name]['nnz']}", file=sys.stderr, flush=True)
    return {"versions": versions(), "systems": out}


def compare(reference: dict, current: dict) -> list[str]:
    """One line per system: identical, or the relative change of each sketch."""
    lines = []
    for name in dict.fromkeys([*reference["systems"], *current["systems"]]):
        old, new = reference["systems"].get(name), current["systems"].get(name)
        if old is None or new is None:
            lines.append(f"{name}: only in the {'current' if old is None else 'reference'} run")
        elif old == new:
            lines.append(f"{name}: identical")
        else:
            moved = []
            for key, ref in old["sketch"].items():
                ref, cur = np.array(ref), np.array(new["sketch"][key])
                rel = np.linalg.norm(cur - ref) / max(np.linalg.norm(ref), 1e-300)
                moved.append(f"{key} {rel:.2e}")
            for key in ("nnz", "cache_hits", "cache_misses", "subdomains_built"):
                if old[key] != new[key]:
                    moved.append(f"{key} {old[key]} -> {new[key]}")
            lines.append(f"{name}: changed (relative: {', '.join(moved)})")
    if reference["versions"] != current["versions"]:
        lines.append(f"versions differ: {reference['versions']} against {current['versions']}")
    return lines


def parent_record(rev: str) -> dict:
    """``record()`` of revision ``rev``, in a child process on its archive."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = extract(rev, Path(tmp))
        out = tree / "fingerprints.json"
        subprocess.run([sys.executable, __file__, "--src", str(tree / "src"),
                        "--out", str(out)], check=True)
        return json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="compare instead of writing the file")
    parser.add_argument("--parent", help="with --check: the revision to compare against")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the package source to fingerprint")
    parser.add_argument("--out", type=Path, default=FILE)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src))
    if not args.check:
        args.out.write_text(json.dumps(record(), indent=1) + "\n")
        return 0
    reference = parent_record(args.parent) if args.parent else json.loads(FILE.read_text())
    lines = compare(reference, record())
    print("\n".join(lines))
    return int(any(": changed" in line or ": only in" in line for line in lines))


if __name__ == "__main__":
    sys.exit(main())
