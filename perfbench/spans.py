"""Span tracing from outside the package, and the per-layer metrics it yields.

The traced run swaps the attributes the package looks up at call time for
wrappers that record a span (name, start, end, parent) around each call, and
restores them afterwards.  Nothing inside ``src/dmlpg`` is changed.  Spans stay
in memory until the run ends; ``layer_metrics`` turns the spans of one
request (one solve-and-recover iteration) into the per-layer metrics.

A span's self time is its duration minus the durations of its direct
children.  The package is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from dataclasses import asdict, dataclass

import scipy.sparse.linalg as spla

from dmlpg import assembly as asm
from dmlpg import geometry as geo
from dmlpg import mlpg
from dmlpg import mls


@dataclass
class Span:
    sid: int
    parent: int | None
    request: str
    name: str
    start: float
    end: float
    attrs: dict | None = None
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rule_points(args, out):
    return {"points": int(out.points.shape[0])}


def _moment(args, out):
    return {"cond": float(out.cond), "active": int(out.active.size)}


def _batch_points(args, out):
    return {"points": int(out[0].shape[0])}


def _lu_fill(args, out):
    return {"fill": int(out.L.nnz + out.U.nnz)}


# (owner, attribute, span name, attribute extractor).  Each owner is where the
# package resolves the name when it calls it: ``assembly.build_subdomain`` is
# assembly's own binding, which ``mlpg`` also reaches through
# ``subdomain_for_node``; ``splu`` and ``onenormest`` are reached as
# ``assembly.spla.*``, i.e. on the scipy module itself.
SETUP_TARGETS = (
    (geo, "generate_beam_nodes", "geometry.generate", None),
    (geo, "generate_plate_nodes", "geometry.generate", None),
    (geo, "generate_boussinesq_nodes", "geometry.generate", None),
    (geo.PointIndex, "__init__", "geometry.index_build", None),
)

SOLVE_TARGETS = (
    (asm, "assemble", "assembly.assemble", None),
    (mlpg, "assemble_mlpg", "mlpg.assemble_mlpg", None),
    (asm, "solve", "assembly.solve", None),
    (asm, "recover_field", "assembly.recover_field", None),
    (geo.PointIndex, "query_ball", "geometry.query_ball", None),
    (asm, "build_subdomain", "geometry.build_subdomain", None),
    (geo.Subdomain, "interior_rule", "quadrature.rule", _rule_points),
    (geo.Piece, "rule", "quadrature.rule", _rule_points),
    (mls.MomentSystem, "build", "mls.moment_build", _moment),
    (asm, "dmlpg1_row", "assembly.row", None),
    (asm, "dmlpg5_row", "assembly.row", None),
    (mlpg, "batched_shape_eval", "mlpg.batched_shape_eval", _batch_points),
    (spla, "splu", "assembly.splu", _lu_fill),
    (spla, "onenormest", "assembly.onenormest", None),
)


class Tracer:
    """Records spans of wrapped calls; one ``request`` id per iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []

    def _wrap(self, name, fn, extract):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as err:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(sid, parent, self.request, name, start, end,
                                       error=type(err).__name__)
                raise
            end = time.perf_counter()
            self._stack.pop()
            attrs = extract(args, out) if extract else None
            self.spans[sid] = Span(sid, parent, self.request, name, start, end, attrs)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, name, extract in targets:
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, extract))
                else:
                    new = self._wrap(name, raw, extract)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def of_request(self, request: str) -> list[Span]:
        return [s for s in self.spans if s.request == request]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its direct children."""
    covered = {s.sid: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.sid: s.duration - covered[s.sid] for s in spans}


ASSEMBLY_ROOTS = ("assembly.assemble", "mlpg.assemble_mlpg")


def _phase(span, by_id) -> str:
    """'assembly' or 'recovery': the top-level call a span ran under."""
    while span is not None:
        if span.name in ASSEMBLY_ROOTS:
            return "assembly"
        if span.name == "assembly.recover_field":
            return "recovery"
        span = by_id.get(span.parent)
    return "other"


def _cond_stats(prefix, builds, selfs):
    conds = [s.attrs["cond"] for s in builds]
    return {
        f"{prefix}.moment_builds": len(builds),
        f"{prefix}.moment_self_s": sum(selfs[s.sid] for s in builds),
        f"{prefix}.cond_min": min(conds, default=0.0),
        f"{prefix}.cond_median": statistics.median(conds) if conds else 0.0,
        f"{prefix}.cond_max": max(conds, default=0.0),
    }


def setup_metrics(spans) -> dict:
    """Layer times of one traced set-up (node generation and k-d tree)."""
    return {
        "geometry.generate_s": sum(s.duration for s in spans
                                   if s.name == "geometry.generate"),
        "geometry.index_build_s": sum(s.duration for s in spans
                                      if s.name == "geometry.index_build"),
    }


def layer_metrics(spans, outputs) -> dict:
    """Per-layer metrics of one request.

    ``outputs`` holds what the program itself returned for the request: the
    assembled system's nnz, size and row kinds, its cache counters, the
    solver's residual and condition estimate, and the number of recovery
    points.
    """
    by_id = {s.sid: s for s in spans}
    selfs = self_times(spans)
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def spans_of(name):
        return named.get(name, [])

    def total(name):
        return sum(s.duration for s in spans_of(name))

    def self_total(name):
        return sum(selfs[s.sid] for s in spans_of(name))

    def attr_total(name, key):
        return sum(s.attrs[key] for s in spans_of(name))

    builds = spans_of("mls.moment_build")
    hits, misses = outputs["cache_hits"], outputs["cache_misses"]
    n = outputs["n"]
    kinds = outputs["row_kinds"]
    metrics = {
        "geometry.neighbor_queries": len(spans_of("geometry.query_ball")),
        "geometry.neighbor_s": total("geometry.query_ball"),
        "geometry.active_mean": (statistics.fmean(s.attrs["active"] for s in builds)
                                 if builds else 0.0),
        "geometry.subdomains": len(spans_of("geometry.build_subdomain")),
        "geometry.subdomain_s": total("geometry.build_subdomain"),
        "quadrature.rules": len(spans_of("quadrature.rule")),
        "quadrature.points": attr_total("quadrature.rule", "points"),
        "quadrature.rule_s": total("quadrature.rule"),
        **_cond_stats("mls", builds, selfs),
        **_cond_stats("mls.assembly",
                      [s for s in builds if _phase(s, by_id) == "assembly"], selfs),
        **_cond_stats("mls.recovery",
                      [s for s in builds if _phase(s, by_id) == "recovery"], selfs),
        "assembly.rows_built": len(spans_of("assembly.row")),
        "assembly.row_s": total("assembly.row"),
        "assembly.cache_hits": hits,
        "assembly.cache_misses": misses,
        "assembly.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "assembly.s": total("assembly.assemble"),
        "assembly.self_s": self_total("assembly.assemble"),
        "assembly.nnz": outputs["nnz"],
        "assembly.density": outputs["nnz"] / float(n * n),
        "assembly.rows.weak": kinds.get("weak-form", 0),
        "assembly.rows.mixed": kinds.get("mixed-replaced", 0),
        "assembly.rows.dirichlet": kinds.get("dirichlet-collocation", 0),
        "assembly.solve.s": total("assembly.solve"),
        "assembly.solve.factor_s": total("assembly.splu"),
        "assembly.solve.lu_fill": attr_total("assembly.splu", "fill"),
        "assembly.solve.condest_s": total("assembly.onenormest"),
        "assembly.solve.residual": outputs["residual"],
        "assembly.solve.cond": outputs["cond"],
        "assembly.recover.s": total("assembly.recover_field"),
        "assembly.recover.points": outputs["recover_points"],
        "assembly.recover.self_s": self_total("assembly.recover_field"),
        "mlpg.s": total("mlpg.assemble_mlpg"),
        "mlpg.self_s": self_total("mlpg.assemble_mlpg"),
        "mlpg.batched_calls": len(spans_of("mlpg.batched_shape_eval")),
        "mlpg.batched_s": total("mlpg.batched_shape_eval"),
        "mlpg.shape_evals": attr_total("mlpg.batched_shape_eval", "points"),
    }
    return metrics
