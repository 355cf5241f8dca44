"""Hamiltonian-surface predicates and unique-extension propagation.

A candidate surface is a FaceSet: a subset of the faces of an ambient
complex, either a compact quotient (Complex2) or a Ball.  All predicates
quantify over interior cells only; in a compact complex every cell is
interior, in a ball interiority comes from the star-completeness flags.

Formalization used throughout: a surface "visits every edge precisely
once" iff every (interior) edge lies in exactly two member faces, one
surface sheet per edge.  "No multiple vertex" iff the trace of the member
faces in each (interior) vertex link is one spanning cycle.
"""

from __future__ import annotations

from .corecomplex import Complex2, LOZENGE, TRIANGLE
from .cover import Ball
from .hamgraph import CycleType, classify_cycle, enumerate_hamiltonian_cycles


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


def make_face_set(ambient, members):
    return FaceSet(ambient, members)


def trace_status(link, members):
    """Classify the sub-multigraph of a link traced by member faces.

    Returns (status, detail) with status one of "empty", "paths", "cycle"
    (a single cycle through every link node) or "violation" (a node of
    trace degree > 2, a closed cycle that misses nodes, or a closed cycle
    plus extra components).
    """
    traced = [i for i, (_u, _v, _lbl, tag) in enumerate(link.edges)
              if tag is not None and tag[0] in members]
    if not traced:
        return "empty", None
    deg = {}
    adj = {}
    for i in traced:
        u, v, _lbl, _tag = link.edges[i]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
    over = sorted((n for n, d in deg.items() if d > 2), key=str)
    if over:
        return "violation", f"trace degree exceeds 2 at germ {over[0]}"
    # walk out the components
    seen_edges = set()
    components = []
    for i in traced:
        if i in seen_edges:
            continue
        # walk as far as possible from one endpoint
        u0 = link.edges[i][0]
        comp_edges = set()
        comp_nodes = set()
        stack = [u0]
        while stack:
            n = stack.pop()
            comp_nodes.add(n)
            for m, j in adj.get(n, ()):
                if j not in comp_edges:
                    comp_edges.add(j)
                    stack.append(m)
        seen_edges |= comp_edges
        is_cycle = all(deg[n] == 2 for n in comp_nodes)
        components.append((is_cycle, comp_nodes, comp_edges))
    cycles = [c for c in components if c[0]]
    if not cycles:
        return "paths", len(components)
    if len(components) > 1:
        return "violation", "trace splits into several components including a cycle"
    is_cycle, nodes, _edges = components[0]
    if len(nodes) == link.node_count():
        return "cycle", None
    return "violation", "trace closes a cycle that misses part of the link"


def _members_connected(cx, members):
    if not members:
        return True
    members = set(members)
    adj = {f: set() for f in members}
    for sym in cx.edges:
        inc = [fid for fid, _i, _s in cx.edge_sides(sym) if fid in members]
        for a in inc:
            for b in inc:
                if a != b:
                    adj[a].add(b)
    start = min(members, key=str)
    seen = {start}
    stack = [start]
    while stack:
        f = stack.pop()
        for g in adj[f]:
            if g not in seen:
                seen.add(g)
                stack.append(g)
    return len(seen) == len(members)


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
        link = fs.cx.vertex_link(v)
        status, detail = trace_status(link, fs.members)
        if status != "cycle":
            return False, {"reason": "vertex trace", "vertex": v,
                           "status": status, "detail": detail}
    return True, {"reason": "ok"}


def vertex_trace_types(fs):
    """Cycle type of the trace at each interior vertex (requires cycles)."""
    out = {}
    for v in fs.interior_vertices:
        link = fs.cx.vertex_link(v)
        status, _detail = trace_status(link, fs.members)
        if status != "cycle":
            raise SurfaceError(f"trace at {v} is not a single cycle")
        sub = _trace_subcycle(link, fs.members)
        out[v] = classify_cycle(sub)
    return out


def _trace_subcycle(link, members):
    """The trace as a HamCycle of the link (assumes status == cycle)."""
    keep = [i for i, (_u, _v, _lbl, tag) in enumerate(link.edges)
            if tag is not None and tag[0] in members]
    adj = {}
    for i in keep:
        u, v, _lbl, _tag = link.edges[i]
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
    start = link.sorted_nodes()[0]
    seq = [start]
    edge_seq = []
    prev_edge = None
    node = start
    while True:
        nxt = [(m, i) for m, i in adj[node] if i != prev_edge]
        node, prev_edge = nxt[0]
        edge_seq.append(prev_edge)
        if node == start:
            break
        seq.append(node)
    from .hamgraph import _make_cycle
    return _make_cycle(link, tuple(seq), tuple(edge_seq))


def _lozenge_corner_label_at(cx, fid, end_vertex, sym):
    """Label of the lozenge corner flanking edge sym at the given endpoint."""
    face = cx.faces[fid]
    n = len(face.word)
    for i, (s, _sign) in enumerate(face.word):
        if s != sym:
            continue
        # corner i sits at the start of side i, corner i+1 at its end
        start_corner, end_corner = i, (i + 1) % n
        if cx.src(face.word[i]) == end_vertex:
            return face.corner_label(start_corner)
        if cx.tgt(face.word[i]) == end_vertex:
            return face.corner_label(end_corner)
    raise SurfaceError(f"edge {sym} not adjacent to {end_vertex} on face {fid}")


def shuriken_check(fs, triangle_fid):
    """Pinwheel test: do the member lozenges around a triangle spin one way?

    For each side of the triangle, the member lozenge across that edge must
    attach with its large corner at one end and its small corner at the
    other; the configuration is a shuriken when all three large corners sit
    at the heads of the triangle's boundary word, or all three at the
    tails (the mirror spin).  Returns (ok, spin_or_witness).
    """
    cx = fs.cx
    face = cx.faces[triangle_fid]
    if face.kind != TRIANGLE:
        raise SurfaceError(f"{triangle_fid} is not a triangle")
    if triangle_fid not in fs.members:
        raise SurfaceError(f"{triangle_fid} is not a member of the face set")
    spins = []
    for oedge in face.word:
        sym = oedge[0]
        lozenges = [fid for fid, _i, _s in cx.edge_sides(sym)
                    if fid != triangle_fid and fid in fs.members
                    and cx.faces[fid].kind == LOZENGE]
        if len(lozenges) != 1:
            return False, {"edge": sym, "reason": "no unique member lozenge"}
        loz = lozenges[0]
        head_label = _lozenge_corner_label_at(cx, loz, cx.tgt(oedge), sym)
        tail_label = _lozenge_corner_label_at(cx, loz, cx.src(oedge), sym)
        if {head_label, tail_label} != {"l", "L"}:
            return False, {"edge": sym, "lozenge": loz, "reason": "corner labels"}
        spins.append("head" if head_label == "L" else "tail")
    if spins[0] == spins[1] == spins[2]:
        return True, spins[0]
    return False, {"reason": "mixed spin", "spins": spins}


def shuriken_completion(fs, triangle_fid):
    """The lozenge forced on the last open side of a partial shuriken.

    Requires exactly two of the triangle's sides to carry member lozenges
    with a consistent spin; returns the unique lozenge on the third side
    attaching with the same spin.
    """
    cx = fs.cx
    face = cx.faces[triangle_fid]
    if face.kind != TRIANGLE:
        raise SurfaceError(f"{triangle_fid} is not a triangle")
    spins = {}
    open_sides = []
    for oedge in face.word:
        sym = oedge[0]
        lozenges = [fid for fid, _i, _s in cx.edge_sides(sym)
                    if fid != triangle_fid and fid in fs.members
                    and cx.faces[fid].kind == LOZENGE]
        if not lozenges:
            open_sides.append(oedge)
            continue
        loz = lozenges[0]
        head_label = _lozenge_corner_label_at(cx, loz, cx.tgt(oedge), sym)
        spins[sym] = "head" if head_label == "L" else "tail"
    if len(open_sides) != 1 or len(set(spins.values())) != 1:
        raise SurfaceError("completion needs exactly two lozenges of equal spin")
    spin = next(iter(spins.values()))
    oedge = open_sides[0]
    sym = oedge[0]
    want_at = cx.tgt(oedge) if spin == "head" else cx.src(oedge)
    candidates = []
    for fid, _i, _s in cx.edge_sides(sym):
        if fid == triangle_fid or cx.faces[fid].kind != LOZENGE:
            continue
        if _lozenge_corner_label_at(cx, fid, want_at, sym) == "L":
            candidates.append(fid)
    if len(candidates) != 1:
        raise SurfaceError(f"no unique completing lozenge on {sym}: {candidates}")
    return candidates[0]


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
    v.  The cycles are enumerated once per V vertex, on V's own link, and
    carried to v by the inverse of ``Ball.corner_lift``, a label-preserving
    isomorphism of the links.  Raises Contradiction at a vertex whose link
    does not lift.
    """
    V = ball.v_complex
    image_cycles = {}
    table = {}

    def at(v):
        if v not in table:
            lift = ball.corner_lift(v)
            if lift is None:
                raise Contradiction(v, "link does not lift to its image link in V", trail)
            p = ball.vertex_image[v]
            if p not in image_cycles:
                link = V.vertex_link(p)
                image_cycles[p] = [
                    [link.edges[i][3] for i in cyc.edge_indices]
                    for cyc in enumerate_hamiltonian_cycles(link)
                    if classify_cycle(cyc) is CycleType.TYPE3]
            corner = {image: c for c, image in lift.items()}
            table[v] = ([frozenset(corner[t] for t in cyc) for cyc in image_cycles[p]],
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
    return make_face_set(ball, members)


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
