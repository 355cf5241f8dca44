"""Combinatorial 2-complexes built from triangles and lozenges.

A complex is given by named vertices, directed edge symbols (each symbol
``s`` has a declared source and target; its reverse is written ``(s, -1)``),
and faces with cyclic boundary words of oriented edge symbols.  Corner
angles are exact integers in units of pi/3, so a full turn is 6 units; no
floating point appears anywhere.

Conventions:

* a triangle boundary word has length 3 and corners t,t,t;
* a lozenge boundary word has length 4, written so that position 0 starts at
  a small corner; corners then alternate l,L,l,L;
* corner ``i`` of a face sits between word letters ``i-1`` and ``i``
  (cyclically), at the vertex where those two sides meet.

The link of a vertex has one node per edge germ there and one edge per
face corner, tagged (fid, i).  ``trace_status`` is the one test of whether
a set of faces traces a single spanning cycle in a link, and of its type;
``Complex2.vertex_link`` builds a link, ``Complex2.type3_cycles``
enumerates its type-3 Hamiltonian cycles and ``Complex2.link_girth``
computes its angular girth, each once per complex and vertex.

Cell identifiers are stable opaque strings; maps between complexes are
explicit tables keyed on them.
"""

from __future__ import annotations

from collections import deque, namedtuple

from .hamgraph import (CycleType, GraphError, LabeledGraph, angular_girth, classify_cycle,
                       components, enumerate_hamiltonian_cycles, label_type, label_weight)

TRIANGLE = "triangle"
LOZENGE = "lozenge"

_WORD_LENGTH = {TRIANGLE: 3, LOZENGE: 4}


def reverse(oedge):
    sym, sign = oedge
    return (sym, -sign)


class Face:
    """A 2-cell: id, kind (triangle or lozenge) and cyclic boundary word,
    kept as given: (edge symbol, sign) letters, the signs the ints 1 and -1."""

    __slots__ = ("fid", "kind", "word")

    def __init__(self, fid, kind, word):
        if kind not in _WORD_LENGTH:
            raise ValueError(f"face {fid}: unknown kind {kind!r}")
        self.fid = fid
        self.kind = kind
        self.word = tuple(word)
        for _sym, sign in self.word:
            if sign not in (1, -1):
                raise ValueError(f"face {fid}: bad orientation sign {sign}")

    def __repr__(self):
        return f"Face({self.fid}, {self.kind})"

    def corner_label(self, i):
        """Angle label of corner i (between word letters i-1 and i)."""
        if self.kind == TRIANGLE:
            return "t"
        return "l" if i % 2 == 0 else "L"


class Complex2:
    """An immutable 2-complex; construct, then query.

    Construction does not validate; call :func:`validate_complex` to get the
    list of invariant violations.  The query methods assume a valid complex.
    """

    def __init__(self, vertices, edges, faces):
        """vertices: iterable of ids; edges: {sym: (src, tgt)};
        faces: iterable of Face."""
        self.vertices = tuple(sorted(vertices, key=str))
        self.edges = dict(edges)
        self.faces = {f.fid: f for f in faces}
        self._face_ids = tuple(sorted(self.faces, key=str))
        self._edge_symbols = tuple(sorted(self.edges, key=str))
        self.facesets = {}  # name -> face ids, as charts.build_V records them
        # the incidence index, read as stored by the accessors below; a
        # letter's source is its edge's first end, or its last when reversed
        edges, faces = self.edges, self.faces
        self._sides = sides = {sym: [] for sym in edges}
        self._corners = corners = {v: [] for v in self.vertices}
        for fid in self._face_ids:
            for i, (sym, sign) in enumerate(faces[fid].word):
                at_sym = sides.get(sym)
                if at_sym is not None:
                    at_sym.append((fid, i, sign))
                    at = corners.get(edges[sym][sign < 0])
                    if at is not None:
                        at.append((fid, i))
        self._germs = germs = {v: [] for v in self.vertices}
        for sym in self._edge_symbols:
            s, t = edges[sym]
            germs.setdefault(s, []).append((sym, 1))
            germs.setdefault(t, []).append((sym, -1))
        self._links = {}
        self._type3 = {}
        self._girth = {}

    def __repr__(self):
        return (f"Complex2({len(self.vertices)} vertices, "
                f"{len(self.edges)} edges, {len(self.faces)} faces)")

    def face_ids(self):
        return self._face_ids

    def edge_symbols(self):
        return self._edge_symbols

    def src(self, oedge):
        sym, sign = oedge
        s, t = self.edges[sym]
        return s if sign > 0 else t

    def tgt(self, oedge):
        return self.src(reverse(oedge))

    def edge_sides(self, sym):
        """All face-sides through edge sym: list of (fid, position, sign),
        by face id, then position; kept for the complex, so callers must
        not change it."""
        return self._sides.get(sym, [])

    def edge_face_degree(self, sym):
        """Number of face-sides incident to the edge, with multiplicity."""
        return len(self._sides[sym])

    def corners_at(self, v):
        """All face-corners at vertex v: list of (fid, corner index), by face
        id, then corner index; kept for the complex, so callers must not
        change it."""
        return self._corners[v]

    def germs_at(self, v):
        """Oriented edges leaving v: edge symbols in ``str`` order, an
        outgoing germ before an incoming one; kept for the complex, so
        callers must not change it."""
        return self._germs.get(v, [])

    def corner_germs(self, fid, i):
        """The two germs flanking corner i of face fid (both leave the
        corner vertex): the reversed previous side and the next side."""
        word = self.faces[fid].word
        prev = word[(i - 1) % len(word)]
        return (reverse(prev), word[i])

    def vertex_link(self, v):
        """The link of v: one node per germ, one labeled edge per corner;
        built on first use and kept for the complex, so callers must not
        change it."""
        if v not in self._links:
            link = LabeledGraph()
            for germ in self.germs_at(v):
                link.add_node(germ)
            for fid, i in self.corners_at(v):
                g_in, g_out = self.corner_germs(fid, i)
                link.add_edge(g_in, g_out, self.faces[fid].corner_label(i), tag=(fid, i))
            self._links[v] = link
        return self._links[v]

    def type3_cycles(self, v):
        """The type-3 Hamiltonian cycles of v's link, as frozensets of corner
        tags (fid, i); enumerated on first use and kept for the complex.  A
        link with fewer than 3 nodes, or a disconnected one, on which the
        enumeration raises GraphError, has no Hamiltonian cycle: ()."""
        if v not in self._type3:
            link = self.vertex_link(v)
            try:
                cycles = enumerate_hamiltonian_cycles(link)
            except GraphError:
                cycles = []
            self._type3[v] = tuple(
                frozenset(link.edges[i][3] for i in cyc.edge_indices)
                for cyc in cycles if classify_cycle(cyc) is CycleType.TYPE3)
        return self._type3[v]

    def link_girth(self, v):
        """The angular girth of v's link; computed on first use and kept
        for the complex."""
        if v not in self._girth:
            self._girth[v] = angular_girth(self.vertex_link(v))
        return self._girth[v]


def trace_status(link, members):
    """Classify the sub-multigraph of a vertex link traced by member faces.

    Returns (status, detail): "empty"; "paths" with the number of path
    components; "cycle" with its CycleType when the trace is one cycle
    through every link node; or "violation" with the reason (a node of
    trace degree > 2, a cycle that misses nodes, or a cycle plus extra
    components).  In a link the rungs of a cycle are its L corners, so
    the type is that of the traced corners' label multiset.
    """
    traced = [(u, v, lbl) for u, v, lbl, tag in link.edges if tag[0] in members]
    if not traced:
        return "empty", None
    adj = {}
    for u, v, _lbl in traced:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    over = sorted((n for n, nbrs in adj.items() if len(nbrs) > 2), key=str)
    if over:
        return "violation", f"trace degree exceeds 2 at germ {over[0]}"
    comps = components(adj, adj.__getitem__)
    if all(any(len(adj[n]) < 2 for n in comp) for comp in comps):
        return "paths", len(comps)
    if len(comps) > 1:
        return "violation", "trace splits into several components including a cycle"
    if len(adj) < link.node_count():
        return "violation", "trace closes a cycle that misses part of the link"
    return "cycle", label_type(lbl for _u, _v, lbl in traced)


def validate_complex(cx):
    """All invariant violations of the complex, as strings naming cells.

    Empty list iff the complex is well formed: edge endpoints declared,
    boundary words of the right arity over declared symbols, cyclically
    closed.
    """
    violations = []
    vertices, edges = set(cx.vertices), cx.edges
    for sym in cx.edge_symbols():
        for v in edges[sym]:
            if v not in vertices:
                violations.append(f"edge {sym}: endpoint {v} is not a declared vertex")
    for fid in cx.face_ids():
        face = cx.faces[fid]
        word, want = face.word, _WORD_LENGTH[face.kind]
        if len(word) != want:
            violations.append(
                f"face {fid}: {face.kind} word has length {len(word)}, expected {want}")
            continue
        bad_sym = False
        for sym, _sign in word:
            if sym not in edges:
                violations.append(f"face {fid}: undeclared edge symbol {sym}")
                bad_sym = True
        if bad_sym:
            continue
        # a letter runs from its edge's first end to its last, or back when reversed
        for i in range(want):
            (sym, sign), (nxt, nsign) = word[i], word[i + 1 - want]
            here, there = edges[sym][sign > 0], edges[nxt][nsign < 0]
            if here != there:
                violations.append(
                    f"face {fid}: boundary word not closed between positions {i} "
                    f"and {(i + 1) % want} ({here} != {there})")
    return violations


# orientable and genus_or_crosscaps are None when the complex is not a
# closed surface
SurfaceReport = namedtuple("SurfaceReport", [
    "is_closed_surface", "euler_characteristic", "orientable", "genus_or_crosscaps",
    "vertex_count", "edge_count", "face_count"])


def orientation_parities(cx):
    """Consistent face orientation flips for a 2-sided complex, or None.

    Returns {fid: 0 or 1} such that flipping the faces marked 1 makes every
    edge traversed once in each direction, or None when no assignment
    exists (the complex is non-orientable).  Only meaningful when every
    edge has exactly two face-sides.
    """
    parity = {}
    for start in cx.face_ids():
        if start in parity:
            continue
        parity[start] = 0
        queue = deque([start])
        while queue:
            fid = queue.popleft()
            for sym, _sign in cx.faces[fid].word:
                sides = cx.edge_sides(sym)
                if len(sides) != 2:
                    return None
                (f1, _i1, s1), (f2, _i2, s2) = sides
                if f1 == f2:
                    # one face traversing the edge twice: opposite directions
                    # is fine, same direction is a cross-cap
                    if s1 == s2:
                        return None
                    continue
                # coherent iff the two faces traverse sym in opposite
                # directions after flips: parity difference fixed by signs
                need = 0 if s1 != s2 else 1
                if f2 in parity and f1 in parity:
                    if (parity[f1] ^ parity[f2]) != need:
                        return None
                elif f1 in parity:
                    parity[f2] = parity[f1] ^ need
                    queue.append(f2)
                elif f2 in parity:
                    parity[f1] = parity[f2] ^ need
                    queue.append(f1)
    return parity


def surface_report(cx):
    """Closedness, Euler characteristic, orientability, genus.

    A complex is a closed surface iff every edge has face degree exactly 2
    and every vertex link is a single cycle.  Orientability propagates
    consistent face orientations across shared edges; genus comes from the
    Euler characteristic (2 - 2g orientable, 2 - k non-orientable) and is
    only reported for closed surfaces.
    """
    nv = len(cx.vertices)
    ne = len(cx.edges)
    nf = len(cx.faces)
    chi = nv - ne + nf
    closed = nf > 0
    for sym in cx.edges:
        if len(cx.edge_sides(sym)) != 2:
            closed = False
            break
    if closed:
        for v in cx.vertices:
            if trace_status(cx.vertex_link(v), cx.faces)[0] != "cycle":
                closed = False
                break
    orientable = None
    genus = None
    if closed:
        orientable = orientation_parities(cx) is not None
        if orientable:
            genus = (2 - chi) // 2
        else:
            genus = 2 - chi
    return SurfaceReport(
        is_closed_surface=closed,
        euler_characteristic=chi,
        orientable=orientable,
        genus_or_crosscaps=genus,
        vertex_count=nv,
        edge_count=ne,
        face_count=nf,
    )


def subcomplex(cx, face_ids):
    """The closed subcomplex spanned by the given faces, ids preserved."""
    face_ids = list(face_ids)
    for fid in face_ids:
        if fid not in cx.faces:
            raise KeyError(f"unknown face {fid!r}")
    syms = set()
    for fid in face_ids:
        for sym, _sign in cx.faces[fid].word:
            syms.add(sym)
    verts = set()
    for sym in syms:
        s, t = cx.edges[sym]
        verts.add(s)
        verts.add(t)
    return Complex2(
        vertices=verts,
        edges={sym: cx.edges[sym] for sym in syms},
        faces=[cx.faces[fid] for fid in face_ids],
    )


def link_circle_length(cx, v):
    """Total corner weight around v; requires the link to be one cycle."""
    link = cx.vertex_link(v)
    if trace_status(link, cx.faces)[0] != "cycle":
        raise ValueError(f"link of {v} is not a single cycle")
    return sum(label_weight(lbl) for (_u, _w, lbl, _t) in link.edges)
