"""Hamiltonian-surface predicates and unique-extension propagation.

A candidate surface is a FaceSet: a subset of the faces of an ambient
complex, either a compact quotient (Complex2) or a Ball.  All predicates
quantify over interior cells only; in a compact complex every cell is
interior, in a ball interiority comes from the star-completeness flags.

Formalization used throughout: a surface "visits every edge precisely
once" iff every (interior) edge lies in exactly two member faces, one
surface sheet per edge.  "No multiple vertex" iff the trace of the member
faces in each (interior) vertex link is one spanning cycle, as
``corecomplex.trace_status`` classifies it.

Propagation reads the admissible (type-3) link cycles of V, enumerated once
per V, as the ball carries them to its vertices through the covering map
(``Ball.type3_cycles``, lifted once per ball vertex).  Its result depends on
the seed only through the anchor vertex and the chosen link cycle, so each
ball keeps one result per such pair and every seed that maps to the pair
shares it (``propagate_surface``).  Forced steps commute, so the order in
which the worklist is processed does not change the result; the tests
check this by substituting a worklist that pops a random entry.
"""

from __future__ import annotations

from collections import deque

from .corecomplex import Complex2, LOZENGE, trace_status
from .cover import Ball, Contradiction
from .hamgraph import components


class SurfaceError(ValueError):
    pass


class FaceSet:
    """A candidate surface: member face ids inside an ambient complex.

    The ambient is a Complex2, where every cell is interior, or a Ball,
    whose star flags mark the interior cells; both are resolved once here.
    """

    def __init__(self, ambient, members):
        if isinstance(ambient, Ball):
            self.cx = ambient.complex
            self.interior_vertices = sorted(ambient.interior_vertices, key=str)
            self.interior_edges = sorted(ambient.interior_edges, key=str)
        elif isinstance(ambient, Complex2):
            self.cx = ambient
            self.interior_vertices = list(ambient.vertices)
            self.interior_edges = ambient.edge_symbols()
        else:
            raise SurfaceError(f"unsupported ambient {type(ambient).__name__}")
        self.members = frozenset(members)
        unknown = [f for f in self.members if f not in self.cx.faces]
        if unknown:
            raise SurfaceError(f"faces not in ambient: {sorted(unknown)}")


def _members_connected(cx, members):
    adj = {f: set() for f in members}
    for sym in cx.edges:
        inc = [fid for fid, _i, _s in cx.edge_sides(sym) if fid in members]
        for a in inc:
            adj[a].update(inc)
    return len(components(adj, adj.__getitem__)) <= 1


def is_enveloping(fs):
    """(ok, witness): every interior edge in exactly 2 members, connected."""
    if not fs.members:
        return False, {"reason": "empty face set"}
    for sym in fs.interior_edges:
        cov = sum(1 for fid, _i, _s in fs.cx.edge_sides(sym) if fid in fs.members)
        if cov != 2:
            return False, {"reason": "edge coverage", "edge": sym, "coverage": cov}
    if not _members_connected(fs.cx, fs.members):
        return False, {"reason": "member faces not connected through shared edges"}
    return True, {"reason": "ok"}


def is_hamiltonian(fs):
    """(ok, witness): enveloping and one spanning link cycle per vertex."""
    ok, witness = is_enveloping(fs)
    if not ok:
        return False, witness
    for v in fs.interior_vertices:
        status, detail = trace_status(fs.cx.vertex_link(v), fs.members)
        if status != "cycle":
            return False, {"reason": "vertex trace", "vertex": v,
                           "status": status, "detail": detail}
    return True, {"reason": "ok"}


def vertex_trace_types(fs):
    """Cycle type of the trace at each interior vertex (requires cycles)."""
    out = {}
    for v in fs.interior_vertices:
        status, ctype = trace_status(fs.cx.vertex_link(v), fs.members)
        if status != "cycle":
            raise SurfaceError(f"trace at {v} is not a single cycle")
        out[v] = ctype
    return out


IN, OUT, UNKNOWN = 1, 0, -1


def propagate_surface(ball, seed_lozenge, choice):
    """Grow the unique surface compatible with a local choice at a seed.

    The seed lozenge anchors the propagation at its least-depth interior
    corner vertex; the local choice picks one of the two admissible link
    cycles there: "with" takes the one through the seed's corner (so the
    seed lies on the surface), "other" takes its companion.  A bad seed or
    choice raises SurfaceError.

    Worklist propagation: a face joins when every admissible cycle at some
    vertex uses one of its corners, leaves when none does, and interior
    edges force the complementary side once two of their three faces are
    settled.  Returns the member FaceSet on success and raises
    Contradiction otherwise.

    One run per (anchor, chosen cycle) and ball.  The seeding settles
    exactly the corners at the anchor, in or out as the chosen cycle
    dictates, and after it the worklist never reads the seed; so two seeds
    with the same anchor and chosen cycle start from the same state, queue
    the same cells and end in the same result.  The first call for a key
    runs (``_propagate``) and keeps the member set, or the contradiction's
    cell, reason and trail, in ``ball.propagations``; later calls with the
    key return that set or raise that contradiction again.
    """
    key = _anchor_cycle(ball, seed_lozenge, choice)
    if key not in ball.propagations:
        try:
            ball.propagations[key] = _propagate(ball, *key)
        except Contradiction as exc:
            ball.propagations[key] = (exc.cell, exc.reason, exc.trail)
    found = ball.propagations[key]
    if isinstance(found, tuple):
        raise Contradiction(*found)
    return FaceSet(ball, found)


def _anchor_cycle(ball, seed_lozenge, choice):
    """The anchor vertex of a seed and the admissible cycle a choice picks."""
    cx = ball.complex
    if cx.faces[seed_lozenge].kind != LOZENGE:
        raise SurfaceError(f"seed {seed_lozenge} is not a lozenge")
    anchors = [cx.src(oe) for oe in cx.faces[seed_lozenge].word]
    anchors = [v for v in anchors if v in ball.interior_vertices]
    if not anchors:
        raise SurfaceError("seed lozenge has no interior corner vertex")
    anchor = min(anchors, key=lambda v: (ball.depth[v], int(v[1:])))

    cycles, _all_tags = ball.type3_cycles(anchor)
    with_seed = [c for c in cycles if any(tag[0] == seed_lozenge for tag in c)]
    without = [c for c in cycles if not any(tag[0] == seed_lozenge for tag in c)]
    if len(with_seed) != 1 or len(without) != len(cycles) - 1:
        raise SurfaceError("seed corner is not on exactly one admissible cycle")
    if choice == "with":
        return anchor, with_seed[0]
    if choice == "other":
        if len(without) != 1:
            raise SurfaceError("no unique companion cycle at the anchor")
        return anchor, without[0]
    raise SurfaceError(f"unknown choice {choice!r}")


def _propagate(ball, anchor, chosen):
    """One full propagation run from the anchor state: the member face ids.

    Raises Contradiction, with the trail of settled faces, at a dead end.
    """
    cx = ball.complex
    trail = []

    def cycles_at(v):
        try:
            return ball.type3_cycles(v)
        except Contradiction as exc:
            raise Contradiction(v, exc.reason, trail) from None

    state = {fid: UNKNOWN for fid in cx.faces}
    face_vertices = ball.face_vertices

    work = deque()
    pending = set()

    def push(cell):
        # a queued cell reads the state when it is popped, so one entry is enough
        if cell not in pending:
            pending.add(cell)
            work.append(cell)

    def settle(fid, value, why):
        if state[fid] == value:
            return
        if state[fid] != UNKNOWN:
            raise Contradiction(fid, f"reassignment via {why}", trail)
        state[fid] = value
        trail.append((fid, "in" if value == IN else "out", why))
        for v in face_vertices[fid]:
            if v in ball.interior_vertices:
                push(("v", v))
        for sym, _sign in cx.faces[fid].word:
            if sym in ball.interior_edges:
                push(("e", sym))

    # seed the anchor: its trace is exactly the chosen cycle
    for tag in sorted(cycles_at(anchor)[1]):
        settle(tag[0], IN if tag in chosen else OUT, f"anchor {anchor}")

    def check_vertex(v):
        cycles, all_tags = cycles_at(v)
        admissible = []
        for c in cycles:
            if any(state[tag[0]] == OUT for tag in c):
                continue
            # corners outside c whose face is IN rule c out only if that
            # face has a corner at v not on c
            conflict = False
            for tag in all_tags - c:
                if state[tag[0]] == IN:
                    conflict = True
                    break
            if not conflict:
                admissible.append(c)
        if not admissible:
            raise Contradiction(v, "no admissible link cycle", trail)
        common = frozenset.intersection(*admissible)
        union = frozenset.union(*admissible)
        for tag in sorted(common):
            if state[tag[0]] == UNKNOWN:
                settle(tag[0], IN, f"forced at {v}")
        for tag in sorted(all_tags - union):
            if state[tag[0]] == UNKNOWN:
                settle(tag[0], OUT, f"excluded at {v}")

    def check_edge(sym):
        sides = [fid for fid, _i, _s in cx.edge_sides(sym)]
        ins = [f for f in sides if state[f] == IN]
        unknown = [f for f in sides if state[f] == UNKNOWN]
        if len(ins) > 2:
            raise Contradiction(sym, "edge covered more than twice", trail)
        if len(ins) + len(unknown) < 2:
            raise Contradiction(sym, "edge can no longer reach coverage 2", trail)
        if len(ins) == 2:
            for f in unknown:
                settle(f, OUT, f"edge {sym} full")
        elif len(ins) + len(unknown) == 2:
            for f in list(unknown):
                settle(f, IN, f"edge {sym} needs both")

    for v in sorted(ball.interior_vertices, key=lambda v: (ball.depth[v], int(v[1:]))):
        push(("v", v))
    for sym in sorted(ball.interior_edges, key=str):
        push(("e", sym))

    while work:
        kind, cell = item = work.popleft()
        pending.discard(item)
        if kind == "v":
            check_vertex(cell)
        else:
            check_edge(cell)

    return frozenset(f for f, s in state.items() if s == IN)


def periodicity_check(ball, fs):
    """Project a ball surface through the covering map: S, S' or neither.

    S and S' are the face sets of those names in the chart that V was built
    from (``V.facesets``).
    """
    images = {ball.face_image[fid] for fid in fs.members}
    named = ball.v_complex.facesets
    for name in ("S", "S'"):
        if images == set(named.get(name, ())):
            return name
    return "neither"
