"""Command line surface: one subcommand per claim family.

Every subcommand emits a list of certificates (JSON by default, or a text
table) and exits nonzero iff any certificate fails.  ``check-all`` runs
every subcommand in turn.

``run_commands`` is the one path from charts to certificates:

- it loads the charts and builds V at most once per run, and only when a
  named subcommand reads ``--charts`` (``check-ladder`` does not);
- a chart file that cannot be read, parsed, validated or built ends in one
  ``<family>.fixture`` error certificate for each such subcommand, in place
  of its claims;
- it builds each ball of V's cover at most once per run, so ``find-surfaces``
  reads the ball ``check-cover`` built around the same base;
- it stamps the chart's SHA-256 as ``fixture_digest`` on every certificate
  of those subcommands, so no subcommand passes a digest; the ladder's
  certificates carry ``""``, as do the fixture errors of a chart that did
  not load.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from . import __version__
from .certs import check, error_certificate, to_json, to_text
from .charts import (ChartError, build_V, flat_piece_census, load_charts,
                     load_default_charts)
from .cellmap import CellMapError, automorphism_group, theta_maps, verify_theta_relations
from .census import BudgetExceeded, count_surfaces_exhaustive
from .corecomplex import (LOZENGE, TRIANGLE, link_circle_length, subcomplex,
                          surface_report, validate_complex)
from .cover import (FoldConflictError, expand_to_radius, restrict_ball, serialize_ball,
                    verify_cover)
from .hamgraph import (angular_girth, classify_cycle, coxeter_graph,
                       enumerate_hamiltonian_cycles, labeled_isomorphic,
                       labeled_isomorphisms, moebius_ladder)
from .surfaces import (Contradiction, SurfaceError, is_hamiltonian, periodicity_check,
                       propagate_surface)

MAX_RADIUS = 5


def _radius_error(ref, radius, least, why):
    """Error certificate for a radius outside [least, MAX_RADIUS], or None."""
    if radius > MAX_RADIUS:
        reason = f"radius {radius} exceeds cap {MAX_RADIUS}"
    elif radius < least:
        reason = f"radius {radius} is below {least}: {why}"
    else:
        return None
    return error_certificate("expansion radius within configured bounds", ref, reason)


def cmd_check_ladder(args):
    certs = []
    L = moebius_ladder()
    cycles = enumerate_hamiltonian_cycles(L)
    by_rungs = Counter(c.rung_count for c in cycles)
    certs.append(check(
        "the ladder carries exactly five Hamiltonian cycles",
        "ladder.census", len(cycles) == 5 and by_rungs == Counter({0: 1, 2: 4}),
        {"count": len(cycles), "by_rung_count": dict(by_rungs)}))
    types = Counter(classify_cycle(c).value for c in cycles)
    certs.append(check(
        "cycle types split one/two/two with none unclassified",
        "ladder.types", types == Counter({"type1": 1, "type2": 2, "type3": 2}),
        {"types": dict(types)}))
    omitted, used = _ladder_rung_witnesses(L, cycles)
    certs.append(check(
        "every two-rung cycle omits two consecutive rungs",
        "ladder.omitted-rungs", omitted["omitted_consecutive"], omitted))
    certs.append(check(
        "used rungs sit three rim edges apart on both arcs",
        "ladder.used-rung-distance", used["used_distance_three"], used))
    parity = _tutte_parity(L, cycles)
    certs.append(check(
        "every edge lies on an even number of Hamiltonian cycles",
        "ladder.edge-parity", parity["even"], parity))
    # labeled automorphisms are automorphisms of the unlabeled ladder too
    orbit = {auto[0] for auto in labeled_isomorphisms(L, L)}
    certs.append(check(
        "the unlabeled ladder is vertex transitive",
        "ladder.vertex-transitive", orbit == set(L.nodes), {}))
    girth = angular_girth(L)
    certs.append(check(
        "angular girth of the ladder is six units",
        "ladder.girth", girth == 6, {"girth": girth}))
    g = coxeter_graph()
    n_cycles = len(enumerate_hamiltonian_cycles(g))
    certs.append(check(
        "the 28-vertex cubic girth-7 graph has no Hamiltonian cycle",
        "ladder.coxeter", n_cycles == 0, {"nodes": g.node_count(), "cycles": n_cycles}))
    return certs


def _ladder_rung_witnesses(L, cycles):
    """Witnesses of ladder.omitted-rungs and ladder.used-rung-distance.

    Each carries its verdict, the number of two-rung cycles checked and the
    rungs (L edges) of the first cycle that breaks its claim (None when none
    does): the omitted rungs, or the used ones.
    """
    rungs, rim = set(), {}
    for (u, v, lbl, _tag) in L.edges:
        if lbl == "L":
            rungs.add(frozenset((u, v)))
        else:
            rim.setdefault(u, set()).add(v)
            rim.setdefault(v, set()).add(u)
    omitted_checks, used_checks = [], []
    for c in (c for c in cycles if c.rung_count == 2):
        cyc_edges = {frozenset((L.edges[i][0], L.edges[i][1])) for i in c.edge_indices}
        used = rungs & cyc_edges
        omitted = rungs - used
        # omitted pair consecutive: endpoints joined by single rim edges
        (a1, a2), (b1, b2) = (sorted(r) for r in sorted(omitted, key=sorted))
        joined = ((b1 in rim[a1] and b2 in rim[a2]) or (b2 in rim[a1] and b1 in rim[a2]))
        omitted_checks.append((omitted, joined))
        # used pair: the two cycle arcs between the rungs are 3 rim edges
        arcs_ok = len(cyc_edges - used) == 6 and _arcs_of_three(c.nodes, used)
        used_checks.append((used, arcs_ok))
    return (_rung_witness("omitted_consecutive", omitted_checks),
            _rung_witness("used_distance_three", used_checks))


def _rung_witness(verdict_key, checks):
    broken = [sorted(sorted(r) for r in rungs) for rungs, holds in checks if not holds]
    return {verdict_key: not broken, "two_rung_cycles": len(checks),
            "counterexample": broken[0] if broken else None}


def _arcs_of_three(nodes, used_rungs):
    """Both arcs of the cyclic node sequence between its two used rungs
    have three rim edges."""
    n = len(nodes)
    marks = [i for i in range(n) if frozenset((nodes[i], nodes[(i + 1) % n])) in used_rungs]
    if len(marks) != 2:
        return False
    arc1 = marks[1] - marks[0] - 1
    return arc1 == 3 and n - 2 - arc1 == 3


def _tutte_parity(L, cycles):
    counts = Counter()
    for c in cycles:
        for i in c.edge_indices:
            counts[i] += 1
    return {"even": all(v % 2 == 0 for v in counts.values()),
            "per_edge": sorted(counts.values())}


def quotient_surface_certs(S):
    """The surface report of a quotient surface S and the claims on it.

    ``check-quotient`` issues these for the chart's S; acceptance criterion
    3 also runs them on candidate surfaces outside the shipped charts.
    """
    rep = surface_report(S)
    lengths, not_circles = {}, []
    for v in S.vertices:
        try:
            lengths[v] = link_circle_length(S, v)
        except ValueError:
            lengths[v] = None
            not_circles.append(v)
    links = {"lengths": lengths}
    if not_circles:
        links["not_one_circle"] = not_circles
    return rep, [
        check("S is a closed surface with Euler characteristic -2",
              "quotient.surface", rep.is_closed_surface and rep.euler_characteristic == -2,
              {"closed": rep.is_closed_surface, "chi": rep.euler_characteristic}),
        check("every link of S is one circle of angular length 10 units",
              "quotient.links-ten", all(n == 10 for n in lengths.values()), links),
        check("S is orientable of genus two",
              "quotient.genus", bool(rep.orientable) and rep.genus_or_crosscaps == 2,
              {"orientable": rep.orientable, "genus_or_crosscaps": rep.genus_or_crosscaps}),
    ]


def cmd_check_quotient(_args, cd, V, _balls):
    certs = []
    try:
        S = subcomplex(V, cd.surface_faces("S"))
        Sp = subcomplex(V, cd.surface_faces("S'"))
    except ChartError as exc:
        return [error_certificate("chart fixture loads", "quotient.fixture", str(exc))]
    lozenge_records = len(cd.lozenges) + len(cd.rechecks)
    certs.append(check(
        "chart fixture has 12 edges, 3 vertices, 4 triangles, 9 lozenge records",
        "quotient.fixture", len(cd.edges) == 12 and len(cd.vertices) == 3
        and len(cd.triangles) == 4 and lozenge_records == 9,
        {"edges": len(cd.edges), "vertices": len(cd.vertices),
         "triangles": len(cd.triangles), "lozenge_records": lozenge_records}))
    certs.append(check(
        "the ten-face complex passes validation",
        "quotient.valid", not validate_complex(V), {}))
    rep, claims = quotient_surface_certs(S)
    certs += claims
    rep_p = surface_report(Sp)
    certs.append(check(
        "S' matches the surface report of S",
        "quotient.sibling", rep_p == rep,
        {"chi": rep_p.euler_characteristic, "closed": rep_p.is_closed_surface}))
    degrees = {sym: V.edge_face_degree(sym) for sym in V.edges}
    certs.append(check(
        "every edge of V lies on exactly three faces",
        "quotient.order-two", all(v == 3 for v in degrees.values()),
        {"degrees": sorted(set(degrees.values()))}))
    L = moebius_ladder()
    link_ok = {v: labeled_isomorphic(V.vertex_link(v), L) is not None for v in V.vertices}
    certs.append(check(
        "every vertex link of V is the labeled Moebius ladder",
        "quotient.links-ladder", all(link_ok.values()), {"links": link_ok}))
    pieces = flat_piece_census(V)
    kinds = sorted(p["kind"] or "?" for p in pieces)
    certs.append(check(
        "the lozenge pairs close into two tori and one Klein bottle",
        "quotient.flat-pieces", kinds == ["klein_bottle", "torus", "torus"],
        {"pieces": {" ".join(p["faces"]): p["kind"] for p in pieces}}))
    shared = set(S.faces) & set(Sp.faces)
    certs.append(check(
        "S and S' intersect exactly in the four triangles",
        "quotient.intersection", shared == set(cd.triangles),
        {"shared": sorted(shared)}))
    return certs


def cmd_check_cover(args, _cd, V, balls):
    certs = []
    radius = args.radius
    error = _radius_error(
        "cover.radius", radius, 1,
        "a smaller ball has no interior cell, so every cover claim would hold vacuously")
    if error:
        return [error]
    for base in V.vertices:
        claims = (
            (f"ball of radius {radius} from {base} verifies as a cover chunk", "cover.verify"),
            (f"interior links from {base} have angular girth six", "cover.girth"),
            (f"restricting the radius-{radius} ball reproduces radius {radius-1}",
             "cover.idempotent"))
        # a chart whose cover does not fold; the radius r-1 ball below runs
        # the first r-1 of this ball's rounds, so it folds when this one does
        try:
            ball = _ball(balls, V, base, radius)
        except FoldConflictError as exc:
            certs += [error_certificate(claim, ref, f"growing the ball from {base}: {exc}")
                      for claim, ref in claims]
            continue
        rep = verify_cover(ball)
        certs.append(check(
            *claims[0], rep["ok"],
            {"base": base, "cells": rep["cells"],
             "interior_vertices": rep["interior_vertex_count"],
             "problems": rep["problems"][:5]}))
        girths = {v: row.get("girth") for v, row in rep["vertices"].items()
                  if row["interior"]}
        certs.append(check(
            *claims[1], all(g == 6 for g in girths.values()),
            {"base": base, "girths": sorted(set(girths.values()))}))
        # the restriction is compared with a radius r-1 ball grown from V on
        # its own, which the run's table does not keep
        again = serialize_ball(restrict_ball(ball, radius - 1))
        certs.append(check(
            *claims[2], again == serialize_ball(expand_to_radius(V, base, radius - 1)),
            {"base": base}))
    return certs


def cmd_find_surfaces(args, _cd, V, balls):
    radius = args.radius
    error = _radius_error(
        "surfaces.radius", radius, 2,
        "a smaller ball has no interior triangle, so its surfaces are only link germs")
    if error:
        return [error]
    base = V.vertices[0]
    try:
        ball = _ball(balls, V, base, radius)
    except FoldConflictError as exc:
        return [error_certificate(claim, ref, f"growing the ball from {base}: {exc}")
                for claim, ref in SURFACE_CLAIMS]
    return ball_surface_certs(ball)


def _ball(balls, V, base, radius):
    """The ball of the given radius around base, grown from V once per run.

    ``balls`` is the run's table by (base, radius).  The table lives for one
    ``run_commands`` call, so no ball outlives its run.
    """
    if (base, radius) not in balls:
        balls[base, radius] = expand_to_radius(V, base, radius)
    return balls[base, radius]


SURFACE_CLAIMS = (
    ("propagation finds exactly two surfaces over all seeds and choices", "surfaces.two"),
    ("both propagated face sets are interior-Hamiltonian", "surfaces.hamiltonian"),
    ("every vertex trace of both surfaces is a type-3 cycle", "surfaces.type-three"),
    ("both surfaces contain every interior triangle", "surfaces.triangles"),
    ("the two surfaces project onto S and S', one each", "surfaces.periodicity"),
    ("the exhaustive census returns the same two face sets", "surfaces.census"),
)


def ball_surface_certs(ball):
    """The two-surface claims on a ball of the universal cover of V.

    ``find-surfaces`` issues these for the ball around V's first vertex;
    the acceptance suite also runs them on a ball too small for the claims
    to hold, to see that they can fail.
    """
    certs = []
    radius = ball.radius
    cx = ball.complex
    seeds = [f for f in cx.face_ids()
             if cx.faces[f].kind == LOZENGE and ball.face_interior_vertices[f]]
    surfaces, failed = {}, []
    # by face depth, the anchor's on an intact ball: a key's result does not
    # depend on the order of the runs (``propagate_surface``), and runs that
    # reach a known surface's start state stop there
    for seed in sorted(seeds, key=ball.face_depth):
        for choice in ("with", "other"):
            try:
                fs = propagate_surface(ball, seed, choice)
            except Contradiction as exc:
                failed.append({"seed": seed, "choice": choice,
                               "cell": exc.cell, "reason": exc.reason})
            except SurfaceError as exc:
                failed.append({"seed": seed, "choice": choice,
                               "cell": None, "reason": str(exc)})
            else:
                surfaces[fs.members] = fs
    witness = {"radius": radius, "seeds": len(seeds), "surfaces": len(surfaces)}
    if failed:
        rank = {seed: n for n, seed in enumerate(seeds)}
        failed.sort(key=lambda fail: rank[fail["seed"]])  # stable: "with" first
        witness.update(failed_runs=len(failed), first_failure=failed[0])
    certs.append(check(*SURFACE_CLAIMS[0], len(surfaces) == 2 and not failed, witness))
    ham = {key: is_hamiltonian(fs)[0] for key, fs in surfaces.items()}
    certs.append(check(*SURFACE_CLAIMS[1], bool(ham) and all(ham.values()),
                       {"ok": sorted(ham.values())}))
    # a trace that is not one cycle puts its status among the types
    types = {detail.value if status == "cycle" else status
             for fs in surfaces.values() for _v, status, detail in fs.traces}
    certs.append(check(*SURFACE_CLAIMS[2], types == {"type3"}, {"types": sorted(types)}))
    # a grown ball's triangle has its corners over P, Q and R: three vertices
    tris = {f for f in cx.face_ids() if cx.faces[f].kind == TRIANGLE
            and len(ball.face_interior_vertices[f]) == 3}
    certs.append(check(
        *SURFACE_CLAIMS[3], bool(surfaces) and all(tris <= fs.members for fs in surfaces.values()),
        {"interior_triangles": len(tris)}))
    projections = sorted(periodicity_check(ball, fs) for fs in surfaces.values())
    certs.append(check(*SURFACE_CLAIMS[4], projections == ["S", "S'"],
                       {"projections": projections}))
    claim, ref = SURFACE_CLAIMS[5]
    try:
        sols, nodes = count_surfaces_exhaustive(ball)
    except BudgetExceeded as exc:
        return certs + [error_certificate(claim, ref, str(exc))]
    return certs + [check(claim, ref,
                          len(surfaces) == 2 and set(map(frozenset, sols)) == set(surfaces),
                          {"solutions": len(sols), "nodes": nodes})]


AUT_CLAIMS = (
    ("the automorphism group of V has order eight", "aut.order"),
    ("every automorphism is an involution or the identity", "aut.exponent-two"),
    ("the three involution tables are automorphisms of V", "aut.tables"),
    ("the three tables generate the whole group", "aut.generate"),
    ("all pairs of the three tables commute", "aut.commute"),
    ("the arrow-reversing involution carries S onto S'", "aut.swap"),
)


def cmd_check_aut(_args, cd, V, _balls):
    try:
        group = automorphism_group(V)
    except CellMapError as exc:
        return [error_certificate(claim, ref, str(exc)) for claim, ref in AUT_CLAIMS]
    # the first two claims read the group alone, the others the theta maps
    orders = sorted(m.order() for m in group)
    certs = [check(*AUT_CLAIMS[0], len(group) == 8, {"order": len(group)}),
             check(*AUT_CLAIMS[1], all(o <= 2 for o in orders), {"element_orders": orders})]
    try:
        thetas = theta_maps(group)
        rep = verify_theta_relations(thetas, group)
    except CellMapError as exc:
        return certs + [error_certificate(claim, ref, str(exc)) for claim, ref in AUT_CLAIMS[2:]]
    theta2 = thetas["theta2"]
    verdicts = (
        (all(rep["members"].values()) and all(rep["involutive"].values()),
         {"members": rep["members"], "involutive": rep["involutive"]}),
        (rep["generates_group"], {"generated_order": rep["generated_order"]}),
        (rep["all_pairs_commute"], {"pairs": rep["commute"]}),
    )
    certs += [check(claim, ref, ok, witness)
              for (claim, ref), (ok, witness) in zip(AUT_CLAIMS[2:], verdicts)]
    claim, ref = AUT_CLAIMS[-1]
    try:
        image = {theta2.face_map[f] for f in cd.surface_faces("S")}
        target = set(cd.surface_faces("S'"))
    except ChartError as exc:
        return certs + [error_certificate(claim, ref, str(exc))]
    return certs + [check(
        claim, ref, image == target,
        {"image": sorted(image),
         "triangle_action": {k: v for k, v in theta2.face_map.items()
                             if k in cd.triangles}})]


COMMANDS = {
    "check-ladder": cmd_check_ladder,
    "check-quotient": cmd_check_quotient,
    "check-cover": cmd_check_cover,
    "find-surfaces": cmd_find_surfaces,
    "check-aut": cmd_check_aut,
}


OPTIONS = {
    "--charts": dict(default=None, help="chart fixture path (default: shipped fixture)"),
    "--radius": dict(type=int, default=2,
                     help="ball radius for cover/surface checks (default 2)"),
    "--out": dict(default=None, help="directory to write <command>.json into"),
    "--format": dict(choices=("json", "text"), default="json"),
}

# the options each subcommand reads, besides --out and --format
COMMAND_OPTIONS = {
    "check-ladder": (),
    "check-quotient": ("--charts",),
    "check-cover": ("--charts", "--radius"),
    "find-surfaces": ("--charts", "--radius"),
    "check-aut": ("--charts",),
    "check-all": ("--charts", "--radius"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hamsurf",
        description="verify the finite claims about the quotient complex V, "
                    "its covering balls and its Hamiltonian surfaces")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, options in COMMAND_OPTIONS.items():
        p = sub.add_parser(name)
        for option in options + ("--out", "--format"):
            p.add_argument(option, **OPTIONS[option])
    return parser


def run_commands(args, names):
    """The certificates of the named subcommands, in order.

    A subcommand that reads ``--charts`` is called as
    ``command(args, cd, V, balls)``, the others as ``command(args)``;
    ``balls`` is this call's table of balls (see ``_ball``).
    """
    certs, charts, balls = [], None, {}
    for name in names:
        command = COMMANDS[name]
        if "--charts" not in COMMAND_OPTIONS[name]:
            certs += command(args)
            continue
        if charts is None:
            try:
                cd = load_charts(args.charts) if args.charts else load_default_charts()
                charts = cd, build_V(cd)
            except (ChartError, OSError) as exc:
                charts = exc
        if isinstance(charts, Exception):
            # the claim family is the subcommand's last word: check-aut -> aut
            ref = name.partition("-")[2] + ".fixture"
            certs.append(error_certificate("chart fixture loads", ref, str(charts)))
        else:
            cd, V = charts
            for c in command(args, cd, V, balls):
                c.fixture_digest = cd.digest
                certs.append(c)
    return certs


def main(argv=None):
    args = build_parser().parse_args(argv)
    certs = run_commands(args, COMMANDS if args.command == "check-all" else [args.command])
    rendered = to_json(certs) if args.format == "json" else to_text(certs)
    sys.stdout.write(rendered)
    if args.out:
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{args.command}.json").write_text(
                rendered if args.format == "json" else to_json(certs))
        except OSError as exc:
            sys.stderr.write(f"hamsurf: cannot write --out {args.out}: {exc}\n")
            return 2
    return 0 if all(c.ok() for c in certs) else 1


if __name__ == "__main__":
    sys.exit(main())
