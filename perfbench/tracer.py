"""Spans around hamsurf's public functions, recorded from outside the package.

``Tracer.install`` replaces each function in ``TARGETS`` by a wrapper that
records a span, in every ``hamsurf`` module namespace that binds it (module
attributes and module-level dicts such as the CLI's command table), and
``uninstall`` puts the originals back.  Spans stay in memory as
``[name, start, end, parent index, note]`` lists; ``layer_metrics`` turns the
spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import statistics
import sys
from time import perf_counter


def _cells(ball):
    cx = ball.complex
    return len(cx.vertices) + len(cx.edges) + len(cx.faces)


def _note_ball(_args, ball):
    return {"radius": ball.radius, "cells": _cells(ball)}


# (module, attribute or Class.method, span name, note on the result)
TARGETS = [
    ("charts", "load_default_charts", "charts.load", None),
    ("charts", "build_V", "charts.build", None),
    ("corecomplex", "Complex2.vertex_link", "corecomplex.vertex_link", None),
    ("corecomplex", "validate_complex", "corecomplex.validate", None),
    ("corecomplex", "surface_report", "corecomplex.surface_report", None),
    ("hamgraph", "enumerate_hamiltonian_cycles", "hamgraph.cycles",
     lambda _a, r: {"found": len(r)}),
    ("hamgraph", "labeled_isomorphic", "hamgraph.iso", None),
    ("hamgraph", "angular_girth", "hamgraph.girth", None),
    ("cover", "expand_ball", "cover.expand", _note_ball),
    ("cover", "verify_cover", "cover.verify",
     lambda _a, r: {"problems": len(r["problems"])}),
    ("cover", "restrict_ball", "cover.restrict", None),
    ("cover", "serialize_ball", "cover.serialize", lambda _a, r: {"bytes": len(r)}),
    ("surfaces", "propagate_surface", "surfaces.propagate", None),
    ("surfaces", "is_hamiltonian", "surfaces.check", None),
    ("surfaces", "vertex_trace_types", "surfaces.check", None),
    ("surfaces", "periodicity_check", "surfaces.check", None),
    ("census", "count_surfaces_exhaustive", "census",
     lambda _a, r: {"nodes": r[1]}),
    ("cellmap", "automorphism_group", "cellmap.aut", None),
    ("cellmap", "theta_maps", "cellmap.theta", None),
    ("cellmap", "verify_theta_relations", "cellmap.theta", None),
    ("certs", "to_json", "certs.json", lambda _a, r: {"bytes": len(r)}),
    ("cli", "cmd_check_ladder", "cli.check-ladder", None),
    ("cli", "cmd_check_quotient", "cli.check-quotient", None),
    ("cli", "cmd_check_cover", "cli.check-cover", None),
    ("cli", "cmd_find_surfaces", "cli.find-surfaces", None),
    ("cli", "cmd_check_aut", "cli.check-aut", None),
]

LAYERS = ("charts", "corecomplex", "hamgraph", "cover", "surfaces", "census",
          "cellmap", "certs", "cli")
RADII = (1, 2, 3, 4)


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hamsurf" or name.startswith("hamsurf."))]


class Tracer:
    """Span recorder; one instance per traced pass or set-up."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = {"raised": type(exc).__name__}
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result
        return traced

    def install(self):
        modules = _package_modules()
        by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
        for modname, qual, name, note in TARGETS:
            owner, _, attr = qual.rpartition(".")
            owner = getattr(by_name[modname], owner) if owner else by_name[modname]
            original = vars(owner)[attr]
            wrapper = self.wrap(name, original, note)
            self._set(owner, attr, original, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, original, wrapper)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                value[dkey] = wrapper
                                self._restore.append((value, dkey, original))

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "note": note}
                for n, s, e, p, note in self.spans]


def _outermost(spans, names):
    """Spans named in ``names`` with no ancestor named in ``names``."""
    out = []
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(span)
    return out


def _total(spans, *names):
    return sum(s[2] - s[1] for s in _outermost(spans, set(names)))


def _self_times(spans, pass_s):
    """Self time per layer: each span minus its child spans; the remainder
    of the pass is time outside every traced function."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child[span[3]] += span[2] - span[1]
    out = {layer: 0.0 for layer in LAYERS}
    top = 0.0
    for i, span in enumerate(spans):
        out[span[0].partition(".")[0]] += (span[2] - span[1]) - child[i]
        if span[3] < 0:
            top += span[2] - span[1]
    out["untraced"] = pass_s - top
    return out


def setup_metrics(setup_tracers):
    """charts.* from traced set-ups: median over set-ups."""
    return {
        "charts.load_s": statistics.median(_total(t.spans, "charts.load") for t in setup_tracers),
        "charts.build_s": statistics.median(_total(t.spans, "charts.build") for t in setup_tracers),
    }


def layer_metrics(spans, pass_s):
    """Per-layer metrics of one traced pass, as {name: value}."""
    m = {}
    links = [s for s in spans if s[0] == "corecomplex.vertex_link"]
    m["corecomplex.vertex_link_calls"] = len(links)
    m["corecomplex.vertex_link_s"] = _total(spans, "corecomplex.vertex_link")
    m["corecomplex.validate_s"] = _total(spans, "corecomplex.validate")
    m["corecomplex.surface_report_s"] = _total(spans, "corecomplex.surface_report")

    cycles = [s for s in spans if s[0] == "hamgraph.cycles"]
    m["hamgraph.cycles_calls"] = len(cycles)
    m["hamgraph.cycles_s"] = _total(spans, "hamgraph.cycles")
    m["hamgraph.cycles_found"] = sum(s[4]["found"] for s in cycles if s[4])
    m["hamgraph.iso_calls"] = len(_outermost(spans, {"hamgraph.iso"}))
    m["hamgraph.iso_s"] = _total(spans, "hamgraph.iso")
    m["hamgraph.girth_s"] = _total(spans, "hamgraph.girth")

    expands = [s for s in spans if s[0] == "cover.expand" and s[4]]
    for r in RADII:
        at_r = [s for s in expands if s[4]["radius"] == r]
        m[f"cover.expand_s.r{r}"] = sum(s[2] - s[1] for s in at_r)
        m[f"cover.cells.r{r}"] = sum(s[4]["cells"] for s in at_r)
    expand_s = sum(s[2] - s[1] for s in expands)
    m["cover.cells_per_s"] = sum(s[4]["cells"] for s in expands) / expand_s if expand_s else 0.0
    verifies = [s for s in spans if s[0] == "cover.verify"]
    m["cover.verify_s"] = _total(spans, "cover.verify")
    m["cover.verify_problems"] = sum(s[4]["problems"] for s in verifies if s[4])
    m["cover.restrict_s"] = _total(spans, "cover.restrict")
    m["cover.serialize_s"] = _total(spans, "cover.serialize")
    m["cover.serialized_bytes"] = sum(
        s[4]["bytes"] for s in spans if s[0] == "cover.serialize" and s[4])

    props = [s for s in spans if s[0] == "surfaces.propagate"]
    ms = sorted((s[2] - s[1]) * 1e3 for s in props)
    m["surfaces.propagate_calls"] = len(props)
    m["surfaces.propagate_s"] = _total(spans, "surfaces.propagate")
    m["surfaces.propagate_p50_ms"] = ms[len(ms) // 2] if ms else 0.0
    m["surfaces.propagate_p90_ms"] = ms[min(len(ms) - 1, (9 * len(ms)) // 10)] if ms else 0.0
    m["surfaces.contradictions"] = sum(
        1 for s in props if s[4] and s[4].get("raised") == "Contradiction")
    m["surfaces.check_s"] = _total(spans, "surfaces.check")

    census = [s for s in spans if s[0] == "census" and s[4]]
    m["census.s"] = _total(spans, "census")
    m["census.nodes"] = sum(s[4]["nodes"] for s in census)
    m["census.nodes_per_s"] = m["census.nodes"] / m["census.s"] if m["census.s"] else 0.0

    m["cellmap.aut_s"] = _total(spans, "cellmap.aut")
    m["cellmap.theta_s"] = _total(spans, "cellmap.theta")
    m["certs.json_s"] = _total(spans, "certs.json")
    m["certs.json_bytes"] = sum(s[4]["bytes"] for s in spans if s[0] == "certs.json" and s[4])
    for cmd in ("check-ladder", "check-quotient", "check-cover", "find-surfaces", "check-aut"):
        m[f"cli.{cmd}_s"] = _total(spans, f"cli.{cmd}")
    for layer, value in _self_times(spans, pass_s).items():
        m[f"self_s.{layer}"] = value
    m["trace.spans"] = len(spans)
    return m
