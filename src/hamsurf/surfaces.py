"""Hamiltonian-surface predicates and unique-extension propagation.

A candidate surface is a FaceSet: a subset of the faces of an ambient
complex, either a compact quotient (Complex2) or a Ball.  All predicates
quantify over interior cells only; in a compact complex every cell is
interior, in a ball interiority comes from the star-completeness flags.

Formalization used throughout: a surface "visits every edge precisely
once" iff every (interior) edge lies in exactly two member faces, one
surface sheet per edge.  "No multiple vertex" iff the trace of the member
faces in each (interior) vertex link is one spanning cycle, as
``corecomplex.trace_status`` classifies it.  Propagation reads the
admissible (type-3) link cycles of V once per V and carries them to ball
vertices through the covering map (``lifted_cycles``).
"""

from __future__ import annotations

from .corecomplex import Complex2, LOZENGE, trace_status
from .cover import Ball
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


class Contradiction(Exception):
    """Propagation dead end; carries the blocking cell and the trail."""

    def __init__(self, cell, reason, trail=None):
        super().__init__(f"contradiction at {cell}: {reason}")
        self.cell = cell
        self.reason = reason
        self.trail = trail or []


def lifted_cycles(ball, trail=None):
    """The admissible link cycles at interior vertices, lifted from V.

    Returns a function v -> (cycles, corners): the type-3 Hamiltonian
    cycles of v's link as sets of corner tags (fid, i), and all corners at
    v.  The cycles are V's own (``Complex2.type3_cycles`` of the image
    vertex, enumerated once per V), carried to v by the inverse of
    ``Ball.corner_lift``, a label-preserving isomorphism of the links.
    Raises Contradiction at a vertex whose link does not lift.
    """
    table = {}

    def at(v):
        if v not in table:
            lift = ball.corner_lift(v)
            if lift is None:
                raise Contradiction(v, "link does not lift to its image link in V", trail)
            corner = {image: c for c, image in lift.items()}
            table[v] = ([frozenset(corner[t] for t in cyc)
                         for cyc in ball.v_complex.type3_cycles(ball.vertex_image[v])],
                        frozenset(lift))
        return table[v]

    return at


IN, OUT, UNKNOWN = 1, 0, -1


def propagate_surface(ball, seed_lozenge, choice="with", order_seed=None):
    """Grow the unique surface compatible with a local choice at a seed.

    The seed lozenge anchors the propagation at its least-depth interior
    corner vertex; the local choice picks one of the two admissible link
    cycles there: "with" takes the one through the seed's corner (so the
    seed lies on the surface), "other" takes its companion.

    Worklist propagation: a face joins when every admissible cycle at some
    vertex uses one of its corners, leaves when none does, and interior
    edges force the complementary side once two of their three faces are
    settled.  Returns the member FaceSet on success and raises
    Contradiction otherwise.

    The worklist is processed in sorted order; ``order_seed`` shuffles it
    instead, which must not change the result (forced steps commute) and is
    exercised by the confluence tests.
    """
    cx = ball.complex
    if cx.faces[seed_lozenge].kind != LOZENGE:
        raise SurfaceError(f"seed {seed_lozenge} is not a lozenge")
    anchors = [cx.src(oe) for oe in cx.faces[seed_lozenge].word]
    anchors = [v for v in anchors if v in ball.interior_vertices]
    if not anchors:
        raise SurfaceError("seed lozenge has no interior corner vertex")
    anchor = min(anchors, key=lambda v: (ball.depth[v], int(v[1:])))

    trail = []
    cycles_at = lifted_cycles(ball, trail)
    cycles, all_tags = cycles_at(anchor)
    with_seed = [c for c in cycles if any(tag[0] == seed_lozenge for tag in c)]
    without = [c for c in cycles if not any(tag[0] == seed_lozenge for tag in c)]
    if len(with_seed) != 1 or len(without) != len(cycles) - 1:
        raise SurfaceError("seed corner is not on exactly one admissible cycle")
    if choice == "with":
        chosen = with_seed[0]
    elif choice == "other":
        if len(without) != 1:
            raise SurfaceError("no unique companion cycle at the anchor")
        chosen = without[0]
    else:
        raise SurfaceError(f"unknown choice {choice!r}")

    state = {fid: UNKNOWN for fid in cx.faces}

    face_vertices = {
        fid: sorted({cx.src(oe) for oe in cx.faces[fid].word}, key=str)
        for fid in cx.faces}

    from collections import deque
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
    for tag in sorted(all_tags):
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

    rng = None
    if order_seed is not None:
        import random
        rng = random.Random(order_seed)

    while work:
        if rng is not None and len(work) > 1:
            rng.shuffle(work)
        kind, cell = item = work.popleft()
        pending.discard(item)
        if kind == "v":
            check_vertex(cell)
        else:
            check_edge(cell)

    members = frozenset(f for f, s in state.items() if s == IN)
    return FaceSet(ball, members)


def periodicity_check(ball, fs, face_twist=None):
    """Project a ball surface through the covering map: S, S' or neither.

    S and S' are the face sets of those names in the chart that V was built
    from (``V.facesets``).  ``face_twist`` optionally post-composes the
    projection with a face permutation of V (an automorphism's face map).
    """
    images = set()
    for fid in fs.members:
        img = ball.face_image[fid]
        if face_twist is not None:
            img = face_twist[img]
        images.add(img)
    named = ball.v_complex.facesets
    for name in ("S", "S'"):
        if images == set(named.get(name, ())):
            return name
    return "neither"
