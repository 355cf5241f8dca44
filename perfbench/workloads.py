"""The benchmark's workloads and their known answers.

Each workload makes its inputs from the seed (``inputs``), runs one pass
through hamsurf's public functions (``run``) and returns the verdict of
every claim it checked, keyed by claim, plus exact work counters.  The
verdicts are compared against ``expected``; the counters must repeat from
pass to pass.  Module attributes are looked up at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

BASES = ("P", "Q", "R")

# Ball sizes by radius: vertices, edges, faces, interior vertices, and the
# interior lozenges that can seed a propagation.
BALLS = {
    1: {"cells": [17, 28, 12], "interior": 1},
    2: {"cells": [81, 156, 76], "interior": 9, "seeds": 48},
    3: {"cells": [337, 692, 356], "interior": 49, "seeds": 224},
    4: {"cells": [1309, 2764, 1456], "interior": 213},
}

# check-all at radius 2: 39 claims, of which the three honest refutations
# fail.  Claims repeated per base vertex are keyed "<ref>@<base>".
CHECK_ALL_FAILS = ("quotient.genus", "aut.exponent-two", "aut.commute")
CHECK_ALL_REFS = (
    ["ladder.census", "ladder.types", "ladder.omitted-rungs",
     "ladder.used-rung-distance", "ladder.edge-parity",
     "ladder.vertex-transitive", "ladder.girth", "ladder.coxeter",
     "quotient.fixture", "quotient.valid", "quotient.surface",
     "quotient.links-ten", "quotient.genus", "quotient.sibling",
     "quotient.order-two", "quotient.links-ladder", "quotient.flat-pieces",
     "quotient.intersection"]
    + [f"cover.{c}@{b}" for b in BASES for c in ("verify", "girth", "idempotent")]
    + ["surfaces.two", "surfaces.hamiltonian", "surfaces.type-three",
       "surfaces.triangles", "surfaces.periodicity", "surfaces.census",
       "aut.order", "aut.exponent-two", "aut.tables", "aut.generate",
       "aut.commute", "aut.swap"])


def _cells(ball):
    cx = ball.complex
    return [len(cx.vertices), len(cx.edges), len(cx.faces)]


class CheckAll:
    """``hamsurf check-all --radius 2`` in-process, stdout captured."""

    name = "check-all-r2"
    radius = 2

    def inputs(self, seed, tiny):
        # the claim set is fixed: the shipped charts at radius 2
        return {"argv": ["check-all", "--radius", str(self.radius)]}

    def expected(self, tiny):
        exp = {ref: "fail" if ref in CHECK_ALL_FAILS else "pass"
               for ref in CHECK_ALL_REFS}
        exp["cli.exit-code"] = 1
        return exp

    def run(self, hs, _V, inputs):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = hs.cli.main(inputs["argv"])
        text = out.getvalue()
        verdicts = {"cli.exit-code": code}
        witness = {}
        for cert in json.loads(text):
            base = cert["witness"].get("base")
            key = f"{cert['ref']}@{base}" if base else cert["ref"]
            verdicts[key] = cert["status"]
            witness[key] = cert["witness"]
        two = witness.get("surfaces.two", {})
        census = witness.get("surfaces.census", {})
        counters = {
            "claims": len(verdicts) - 1,
            "json_bytes": len(text.encode()),
            "json_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "cells.r2": {b: witness.get(f"cover.verify@{b}", {}).get("cells") for b in BASES},
            "interior_vertices.r2": {
                b: witness.get(f"cover.verify@{b}", {}).get("interior_vertices") for b in BASES},
            "propagate_calls": 2 * two.get("seeds", 0),
            "distinct_surfaces": two.get("surfaces"),
            "census_nodes": census.get("nodes"),
        }
        return verdicts, counters


class SurfacesR3:
    """The two-surface theorem on a ball of radius 3, census included."""

    name = "surfaces-r3"
    radius = 3
    sample = 32   # lozenges, each propagated both ways: about the census time
    # The base is V's first vertex, as in ``find-surfaces``.  The census
    # order follows cell numbering, so from Q it visits 274,149 nodes against
    # 199,758 from P: a seeded base made the pass time depend on the seed.
    base = "P"

    def inputs(self, seed, tiny):
        radius, sample = (2, 4) if tiny else (self.radius, self.sample)
        ranks = sorted(random.Random(seed).sample(range(BALLS[radius]["seeds"]), sample))
        return {"radius": radius, "base": self.base, "ranks": ranks}

    def expected(self, tiny):
        radius = 2 if tiny else self.radius
        ball = BALLS[radius]
        return {"ball.cells": ball["cells"], "ball.interior": ball["interior"],
                "ball.seeds": ball["seeds"], "surfaces.contradictions": 0,
                "surfaces.two": 2, "surfaces.hamiltonian": True,
                "surfaces.type-three": ["type3"], "surfaces.triangles": True,
                "surfaces.periodicity": ["S", "S'"], "surfaces.census": True}

    def run(self, hs, V, inputs):
        LOZENGE, TRIANGLE = hs.corecomplex.LOZENGE, hs.corecomplex.TRIANGLE
        sf = hs.surfaces
        ball = hs.cover.expand_to_radius(V, inputs["base"], inputs["radius"])
        cx, interior = ball.complex, ball.interior_vertices
        seeds = [f for f in cx.face_ids() if cx.faces[f].kind == LOZENGE
                 and any(cx.src(oe) in interior for oe in cx.faces[f].word)]
        found, contradictions, calls = {}, 0, 0
        for rank in inputs["ranks"]:
            for choice in ("with", "other"):
                calls += 1
                try:
                    fs = sf.propagate_surface(ball, seeds[rank], choice)
                except sf.Contradiction:
                    contradictions += 1
                    continue
                found[tuple(sorted(fs.members))] = fs
        types = set()
        for fs in found.values():
            types |= {t.value for t in sf.vertex_trace_types(fs).values()}
        tris = {f for f in cx.face_ids() if cx.faces[f].kind == TRIANGLE
                and all(cx.src(oe) in interior for oe in cx.faces[f].word)}
        solutions, nodes = hs.census.count_surfaces_exhaustive(ball)
        verdicts = {
            "ball.cells": _cells(ball),
            "ball.interior": len(interior),
            "ball.seeds": len(seeds),
            "surfaces.contradictions": contradictions,
            "surfaces.two": len(found),
            "surfaces.hamiltonian": all(sf.is_hamiltonian(fs)[0] for fs in found.values()),
            "surfaces.type-three": sorted(types),
            "surfaces.triangles": all(tris <= fs.members for fs in found.values()),
            "surfaces.periodicity": sorted(sf.periodicity_check(ball, fs)
                                           for fs in found.values()),
            "surfaces.census": set(solutions) == set(found),
        }
        counters = {
            f"cells.r{inputs['radius']}": _cells(ball),
            "interior_vertices": len(interior),
            "propagate_calls": calls,
            "distinct_surfaces": len(found),
            "census_nodes": nodes,
            "census_solutions": len(solutions),
        }
        return verdicts, counters


class ExpandR4:
    """The check-cover claims on one ball of radius 4."""

    name = "expand-r4"
    radius = 4

    def inputs(self, seed, tiny):
        radius = 2 if tiny else self.radius
        return {"radius": radius, "base": random.Random(seed).choice(BASES)}

    def expected(self, tiny):
        radius = 2 if tiny else self.radius
        return {"cover.cells": BALLS[radius]["cells"],
                "cover.interior": BALLS[radius]["interior"],
                "cover.problems": 0, "cover.girth": [6],
                "cover.idempotent": True}

    def run(self, hs, V, inputs):
        cover, radius = hs.cover, inputs["radius"]
        ball = cover.expand_to_radius(V, inputs["base"], radius)
        rep = cover.verify_cover(ball)
        girths = {row.get("girth") for row in rep["vertices"].values() if row["interior"]}
        smaller = cover.expand_to_radius(V, inputs["base"], radius - 1)
        again = cover.serialize_ball(cover.restrict_ball(ball, radius - 1))
        fresh = cover.serialize_ball(smaller)
        verdicts = {
            "cover.cells": _cells(ball),
            "cover.interior": rep["interior_vertex_count"],
            "cover.problems": len(rep["problems"]),
            "cover.girth": sorted(girths),
            "cover.idempotent": again == fresh,
        }
        counters = {
            f"cells.r{radius}": _cells(ball),
            f"cells.r{radius - 1}": _cells(smaller),
            "interior_vertices": rep["interior_vertex_count"],
            "serialized_bytes": len(again.encode()),
        }
        return verdicts, counters


WORKLOADS = {w.name: w for w in (CheckAll(), SurfacesR3(), ExpandR4())}
