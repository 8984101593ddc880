"""Span tracing of tbk's layers from outside the program.

Each traced function is replaced at every binding the program calls it
through (module attributes, names imported into other modules, class
attributes), so no file of the program changes. A span records its name,
start, end, parent span and the peak-RSS growth it saw; spans stay in memory
and are written out when the run ends. CycloNumber arithmetic is left alone:
it makes millions of calls, and the trace would mostly measure itself.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

import numpy as np

# Layer boundaries as "<module>.<function>" or "<module>.<Class>.<method>".
LAYERS = (
    "grp.closure", "grp.build_from_cayley", "grp.centralizer",
    "grp.subgroup_generated",
    "cyclo.kernel", "cyclo.CycloMatrix.mul", "cyclo.CycloMatrix.key",
    "cyclo.Subspace.apply", "cyclo.Subspace.contains",
    "zmlin.howell_form", "zmlin.left_kernel", "zmlin.solve",
    "cocycle.is_cocycle", "cocycle.is_coboundary", "cocycle.inflate",
    "cocycle.from_central_extension",
    "rep.matrix_closure", "rep.MatrixRep.fixed_space", "rep.build_model",
    "rep.fixed_locus_survey", "rep.meets_complement",
    "brauer.in_B0", "brauer.in_BG", "brauer.in_BG_bicyclic",
    "brauer.bg_cross_check", "brauer.span_analysis", "brauer.orbifold_dims",
    "brauer.verify_cor53",
    "example.bogomolov_example",
    "fileio.load_json", "fileio.decode_group", "fileio.decode_cocycle",
    "fileio.dump_json",
    "cli.main",
)
RSS_MODULES = ("grp", "cyclo", "rep", "cocycle", "zmlin", "brauer", "fileio")
_METHOD_ATTR = {"mul": "__mul__"}
_RAISED = object()


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _probe(name: str, args, result):
    """Work counters read from a call's arguments and result."""
    if name == "zmlin.howell_form":
        rows, width = (tuple(np.shape(args[0])) + (0, 0))[:2]
        return (rows + width + 1) * width * 8
    if result is _RAISED:
        return None
    if name == "cocycle.is_cocycle":
        n = args[0].group.order
        stop = result[1][0] if result[1] is not None else n - 1
        return (stop + 1) * n * n
    if name in ("zmlin.solve", "cocycle.is_coboundary"):
        return result is None
    if name == "fileio.load_json":
        return os.path.getsize(args[0]) if os.path.exists(args[0]) else 0
    if name == "cli.main":
        return result != 0
    if name == "brauer.span_analysis":
        return result.active_pairs
    return None


class Tracer:
    """Spans of one run, recorded by wrappers around the layer functions."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent, rss_kb, probe]
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rss0 = _maxrss_kb()
            result = _RAISED
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[2] = time.perf_counter()
                rec[4] = _maxrss_kb() - rss0
                stack.pop()
                rec[5] = _probe(name, args, result)

        return traced

    def install(self) -> None:
        """Wrap every layer function at every binding inside tbk."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "tbk" or k.startswith("tbk.")]
        for name in LAYERS:
            parts = name.split(".")
            owner = sys.modules.get("tbk." + parts[0])
            if owner is None:
                continue
            if len(parts) == 3:
                cls = getattr(owner, parts[1], None)
                attr = _METHOD_ATTR.get(parts[2], parts[2])
                if cls is not None and attr in vars(cls):
                    setattr(cls, attr, self._wrap(name, vars(cls)[attr]))
                continue
            orig = getattr(owner, parts[1], None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def metrics(self) -> dict[str, tuple[float, str]]:
        spans = self.spans
        child_time = [0.0] * len(spans)
        child_rss = [0] * len(spans)
        kernel_child = [False] * len(spans)
        for rec in spans:
            parent = rec[3]
            if parent >= 0:
                child_time[parent] += rec[2] - rec[1]
                child_rss[parent] += rec[4]
                kernel_child[parent] |= rec[0] == "cyclo.kernel"
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        rss = dict.fromkeys(RSS_MODULES, 0)
        probes: dict[str, list] = {}
        fixed_hits = 0
        span_cob = span_trivial = 0
        for i, rec in enumerate(spans):
            name = rec[0]
            calls[name] += 1
            self_s[name] += (rec[2] - rec[1]) - child_time[i]
            module = name.split(".")[0]
            if module in rss:
                rss[module] += max(0, rec[4] - child_rss[i])
            if rec[5] is not None:
                probes.setdefault(name, []).append(rec[5])
            if name == "rep.MatrixRep.fixed_space" and not kernel_child[i]:
                fixed_hits += 1
            if name == "cocycle.is_coboundary" and self._inside(
                    i, "brauer.span_analysis"):
                span_cob += 1
                span_trivial += rec[5] is False
        out: dict[str, tuple[float, str]] = {}
        for name in LAYERS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
        fixed_calls = calls["rep.MatrixRep.fixed_space"]
        out["rep.MatrixRep.fixed_space.hit_ratio"] = (
            fixed_hits / fixed_calls if fixed_calls else 0.0, "ratio")
        out["brauer.span_analysis.active_pairs"] = (
            sum(probes.get("brauer.span_analysis", [])), "count")
        out["brauer.span_analysis.trivial_ratio"] = (
            span_trivial / span_cob if span_cob else 0.0, "ratio")
        out["zmlin.howell_form.max_buffer_bytes"] = (
            max(probes.get("zmlin.howell_form", [0])), "bytes")
        out["zmlin.solve.infeasible"] = (
            sum(probes.get("zmlin.solve", [])), "count")
        out["cocycle.is_cocycle.triples"] = (
            sum(probes.get("cocycle.is_cocycle", [])), "count")
        out["fileio.load_json.bytes"] = (
            sum(probes.get("fileio.load_json", [])), "bytes")
        out["cli.main.nonzero_exits"] = (
            sum(probes.get("cli.main", [])), "count")
        for module, kb in rss.items():
            out[f"{module}.rss_growth_mb"] = (kb / 1024, "MB")
        return out

    def _inside(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": [r[:4] for r in self.spans]}, fh)
