"""Finite balls of the universal cover of V, by attach-and-fold expansion.

A Ball wraps a Complex2 together with a cellwise covering map into V, the
base vertex, per-vertex depths (graph distance on the 1-skeleton; lozenge
diagonals are not edges) and interior flags.  A ball built here is its base
plus the closure of its faces.  A cell is interior when its full star is
present: a vertex once the covering map lifts its image's link onto its own
(``Ball.corner_lift``), an edge once all three incident face-sides exist.
Facts about V's links (Hamiltonian cycles, girth) then hold at every
interior vertex through that lift.  The interior flags are computed on
first read, so the intermediate balls of an expansion, which no caller
asks about, never compute them.

Expansion to the next radius completes the star of every vertex at depth
<= radius: for each missing corner of the image link a copy of the
corresponding V-face is attached at that corner, and the result is folded
to a fixpoint after each star.  One round over the stars suffices (see
``_expand_round``), and ``expand_to_radius`` runs one round per radius in a
single workspace.  Folding identifies two edges at a common
vertex with the same covering image and the same end there, and two face
copies over the same V-face that share an edge at the same boundary
position.  Ball boundary words are stored aligned with their image words,
so folds are always positionwise.  The workspace stays folded (Stallings,
"Topology of finite graphs", 1983): every vertex and edge class keeps a
table of its germs by those keys, so a cell whose key is taken, or two
merged classes whose tables share a key, queue exactly the pairs to
identify.  A face copy is attached along the edges already there: walking
its word from the corner, each step reuses the edge that carries the
needed germ, and only the gap left gets new cells.  Each reuse is an
identification folding would make, and the folded quotient does not depend
on the order identifications are made in, so the ball is the one fresh
copies folded afterwards give; on the balls expanded here no cell is ever
created only to be folded away.

Cell identifiers are canonical: once per expansion call the ball is
renumbered by a breadth-first traversal from the base ordered by covering
images, which makes serializations byte-stable across runs and construction
histories.  Restriction numbers the ball's own kept cells by the same walk,
with no workspace.  That traversal also gives the depths; ``verify_cover``
checks them against a second, independent search (``_depths``).

V's facts read for every ball cell come from tables derived once per builder
(``_Builder``) and once per ball (``Ball._image_tables``), which live as long
as their object: none is kept on V or in the module to leak a damaged ball.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import cached_property

from .corecomplex import Complex2, Face, reverse, validate_complex


class FoldConflictError(RuntimeError):
    """Raised when folding would identify two cells of the ball being expanded.

    The expansion rule never merges cells with different covering images
    (identification keys carry the image), so the remaining failure mode is
    two previously verified cells collapsing together, which signals a bad
    fixture or an expansion bug.  The offending cell trail is attached.
    """

    def __init__(self, kinds, trail):
        super().__init__(f"fold would merge two settled {kinds}: {trail}")
        self.trail = trail


class Ball:
    """Immutable radius-annotated chunk of the universal cover of V.

    Keeps the tables it is handed, uncopied; its depths are those that
    ``_canonical_ball``'s numbering walk recorded."""

    def __init__(self, complex2, v_complex, base, radius,
                 vertex_image, edge_image, face_image, depth):
        self.complex = complex2
        self.v_complex = v_complex
        self.base = base
        self.radius = radius
        self.vertex_image = vertex_image
        self.edge_image = edge_image
        self.face_image = face_image
        self.depth = depth
        # the tables ``surfaces`` fills and reads: vertex rules by vertex and
        # propagation results by (anchor, chosen cycle); the ball's own
        # tables are the cached properties below, each built whole when read
        self.vertex_rules = {}
        self.propagations = {}

    @cached_property
    def interior_vertices(self):
        """The vertices whose star is complete: those with a ``corner_lift``."""
        return frozenset(v for v, lift in self._lifts.items() if lift is not None)

    @cached_property
    def interior_edges(self):
        """The edges that carry as many face-sides as their image in V."""
        cx, edge_image = self.complex, self.edge_image
        degree = self._image_tables[-1]
        return frozenset(e for e in cx.edges
                         if cx.edge_face_degree(e) == degree.get(edge_image[e], 0))

    @cached_property
    def interior_vertices_by_depth(self):
        """The interior vertices by depth, then by number: propagation's sweep."""
        return tuple(sorted(self.interior_vertices,
                            key=lambda v: (self.depth[v], int(v[1:]))))

    def corner_lift(self, v):
        """The corner bijection (f, i) -> (face_image[f], i) at v, or None.

        Returns the bijection when the covering map sends the germs at v
        one-to-one onto the germs at its image p in V, the corners at v
        one-to-one onto the corners at p, and the two germs of every corner
        onto the two germs of its image corner.  The bijection is then a
        label-preserving isomorphism of v's link onto p's link (corner
        labels depend only on the face kind and the corner index).  A vertex
        with fewer or more germs than p, such as every boundary vertex of a
        ball, is rejected on that count before any germ is mapped.
        """
        return self._lifts[v]

    @cached_property
    def _lifts(self):
        """Every vertex's ``corner_lift``, or None, by vertex."""
        return {v: self._lift(v) for v in self.complex.vertices}

    @cached_property
    def _image_tables(self):
        """V's facts: each vertex's germs and corners, as sets, each corner's two
        germs as one flat (sym, sign, sym, sign) tuple, and each edge's face-side count."""
        V = self.v_complex
        return ({p: (frozenset(V.germs_at(p)), frozenset(V.corners_at(p))) for p in V.vertices},
                {c: sum(V.corner_germs(*c), ()) for p in V.vertices for c in V.corners_at(p)},
                {sym: V.edge_face_degree(sym) for sym in V.edges})

    def _lift(self, v):
        # V's germs at p are distinct, as are its corners, so equal counts and sets
        # make each map a bijection; no set equals the () an image outside V gets
        cx, p = self.complex, self.vertex_image[v]
        sets_of, corner_germs_of, _degree = self._image_tables
        germs, corners = cx.germs_at(v), cx.corners_at(v)
        image_germs, image_corners = sets_of.get(p, ((), ()))
        if len(germs) != len(image_germs) or len(corners) != len(image_corners):
            return None
        edge_image, face_image = self.edge_image, self.face_image
        if {(edge_image[e], s) for e, s in germs} != image_germs:
            return None
        lift = {(f, i): (face_image[f], i) for f, i in corners}
        if image_corners != set(lift.values()):
            return None
        faces = cx.faces
        for (f, i), image in lift.items():
            # corner i's germs: letter i-1 reversed (the last at i = 0), letter i
            word = faces[f].word
            (e1, s1), (e2, s2) = word[i - 1], word[i]
            sym1, sign1, sym2, sign2 = corner_germs_of[image]
            if s1 != -sign1 or s2 != sign2 or edge_image[e1] != sym1 or edge_image[e2] != sym2:
                return None
        return lift

    @cached_property
    def face_interior_vertices(self):
        """Each face's distinct interior corner vertices, sorted by name: the
        one table of them that propagation's seeds, anchors and worklist read."""
        cx, interior = self.complex, self.interior_vertices
        return {fid: sorted({v for v in map(cx.src, cx.faces[fid].word) if v in interior},
                            key=str)
                for fid in cx.faces}

    def face_depth(self, fid):
        # a letter's source is its edge's first end, or its last when reversed
        edges, depth = self.complex.edges, self.depth
        return min(depth[edges[sym][sign < 0]] for sym, sign in self.complex.faces[fid].word)


def _find(parent, a):
    """Union-find root of a in the parent array, halving the path."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


class _Builder:
    """Mutable workspace: arrays plus union-find over each cell kind, kept folded.

    Each class root carries a germ table.  A vertex root v keeps ``vgerm[v]``:
    (edge image, sign) -> an edge whose oriented copy of that sign leaves v.
    An edge root e keeps ``eside[e]``: (face image, position) -> a face whose
    boundary word runs along e at that position.  Entries may name merged
    cells; readers resolve them through ``_find``, but a cell that is its own
    root is read as it is, without the call.  A folded complex has one class
    under each key, so a key that is already taken when a new cell registers
    it (inline, in ``new_edge`` and ``new_face``), or when the tables of two
    merged classes meet (``_register``), names a pair that folding must
    identify: the pair waits on ``pending`` until ``fold``.  Growth on the
    shipped chart never folds: every cell stays its own root
    (``test_expansion_creates_only_the_cells_the_ball_keeps``).
    Cells attached while ``gen`` is n belong to round n; cells of an earlier
    round are settled.  A face word is its edges; its signs are its image's.

    From V it derives, once, ``walks[fid, c]``: V-face fid's germ keys from
    corner c on, forward and reversed, and shared key tuples: ``germ_keys[sym]``
    is ((sym, 1), (sym, -1)) and ``side_keys[fid]`` lists (fid, position).
    """

    def __init__(self, v_complex):
        self.V = V = v_complex
        self.walks = {}
        for fid, face in V.faces.items():
            word, n = face.word, len(face.word)
            back = [reverse(key) for key in reversed(word)]
            for c in range(n):
                self.walks[fid, c] = word[c:] + word[:c], back[n - c:] + back[:n - c]
        self.germ_keys = {sym: ((sym, 1), (sym, -1)) for sym in V.edges}
        self.side_keys = {f: [(f, p) for p in range(len(V.faces[f].word))] for f in V.faces}
        self.vpar, self.vimg, self.vgen, self.vgerm = [], [], [], []
        self.epar, self.esrc, self.etgt, self.esym, self.egen, self.eside = (
            [], [], [], [], [], [])
        self.fpar, self.fimg, self.fword, self.fgen = [], [], [], []
        self.pending = deque()
        self.gen = 0

    def _register(self, table, key, cell, union):
        first = table.setdefault(key, cell)
        if first != cell:
            self.pending.append((union, first, cell))

    def new_vertex(self, image):
        self.vpar.append(len(self.vpar))
        self.vimg.append(image)
        self.vgen.append(self.gen)
        self.vgerm.append({})
        return len(self.vpar) - 1

    def new_edge(self, src, tgt, sym):
        eid = len(self.epar)
        self.epar.append(eid)
        self.esrc.append(src)
        self.etgt.append(tgt)
        self.esym.append(sym)
        self.egen.append(self.gen)
        self.eside.append({})
        out, into = self.germ_keys.get(sym) or ((sym, 1), (sym, -1))  # any image
        vpar, vgerm = self.vpar, self.vgerm
        first = vgerm[src if vpar[src] == src else _find(vpar, src)].setdefault(out, eid)
        if first != eid:
            self.pending.append((self.eunion, first, eid))
        first = vgerm[tgt if vpar[tgt] == tgt else _find(vpar, tgt)].setdefault(into, eid)
        if first != eid:
            self.pending.append((self.eunion, first, eid))
        return eid

    def new_face(self, image, edges):
        fid = len(self.fpar)
        self.fpar.append(fid)
        self.fimg.append(image)
        self.fword.append(edges)
        self.fgen.append(self.gen)
        epar, eside = self.epar, self.eside
        for key, e in zip(self.side_keys[image], edges):
            first = eside[e if epar[e] == e else _find(epar, e)].setdefault(key, fid)
            if first != fid:
                self.pending.append((self.funion, first, fid))
        return fid

    def _merge(self, kinds, par, img, gen, a, b):
        """Union of the classes of a and b under the lower root, refusing
        two classes with different images or two settled ones; returns
        (kept root, absorbed root), or None when they are one class."""
        a, b = _find(par, a), _find(par, b)
        if a == b:
            return None
        if img[a] != img[b]:
            raise FoldConflictError(kinds, (a, img[a], b, img[b]))
        if gen[a] < self.gen and gen[b] < self.gen:
            raise FoldConflictError(kinds, (a, b, "generation", gen[a]))
        if b < a:
            a, b = b, a
        par[b] = a
        return a, b

    def _join(self, tables, a, b, union):
        """Move absorbed root b's table onto kept root a, the smaller table
        into the larger; each key found in both queues its pair."""
        small, large = tables[b], tables[a]
        if len(small) > len(large):
            small, large = large, small
        for key, cell in small.items():
            self._register(large, key, cell, union)
        tables[a], tables[b] = large, None

    def vunion(self, a, b):
        merged = self._merge("vertices", self.vpar, self.vimg, self.vgen, a, b)
        if merged:
            self._join(self.vgerm, *merged, self.eunion)

    def eunion(self, a, b):
        merged = self._merge("edges", self.epar, self.esym, self.egen, a, b)
        if merged:
            a, b = merged
            self._join(self.eside, a, b, self.funion)
            self.vunion(self.esrc[a], self.esrc[b])
            self.vunion(self.etgt[a], self.etgt[b])

    def funion(self, a, b):
        merged = self._merge("faces", self.fpar, self.fimg, self.fgen, a, b)
        if merged:
            a, b = merged
            for e1, e2 in zip(self.fword[a], self.fword[b]):
                self.eunion(e1, e2)

    # folding --------------------------------------------------------------
    def fold(self):
        """Stallings folding: identify the queued pairs, to a fixpoint.

        Two edges at one vertex with the same image and the same end there
        are one edge, and two faces on one edge with the same image at the
        same position are one face; the germ tables hold one class per such
        key, and every pair that shares a key is on the queue.  Identifying
        a pair joins the tables of its two classes, which queues the pairs
        that now share a key, and merging two edges merges their ends (a
        face union works through edge unions).  So once the queue is empty
        no two cells of the whole complex are left to identify.  Each
        identification is forced, whatever the order the pairs are taken
        in, and the forced identifications of a complex over V generate a
        unique folded quotient, so folding is confluent.
        """
        pending = self.pending
        while pending:
            union, a, b = pending.popleft()
            union(a, b)

    # loading and attaching --------------------------------------------------
    def load(self, ball, faces):
        """Copy the ball's base and the given faces, with their vertices and
        edges; returns the vertex map.  A ball built by this module is its
        base plus the closure of its faces, so all its faces copy it whole.
        A face whose word signs are not its image word's is a ValueError."""
        cx, words = ball.complex, self.V.faces
        edges = dict.fromkeys(e for f in faces for e, _s in cx.faces[f].word)
        ends = dict.fromkeys([ball.base] + [v for e in edges for v in cx.edges[e]])
        vmap = {v: self.new_vertex(ball.vertex_image[v]) for v in ends}
        emap = {e: self.new_edge(*(vmap[v] for v in cx.edges[e]), ball.edge_image[e])
                for e in edges}
        for f in faces:
            word, image = cx.faces[f].word, ball.face_image[f]
            if [s for _e, s in word] != [s for _sym, s in words[image].word]:
                raise ValueError(f"face {f}: word signs differ from its image {image}'s")
            self.new_face(image, [emap[e] for e, _s in word])
        return vmap

    def _walk(self, u, keys):
        """Edges and corners met from root u along the germ keys in turn,
        as far as the germs go: ([edges], [u, corners...])."""
        vgerm, vpar, epar, esrc, etgt = self.vgerm, self.vpar, self.epar, self.esrc, self.etgt
        edges, corners = [], [u]
        for key in keys:
            e = vgerm[u].get(key)
            if e is None:
                break
            if epar[e] != e:
                e = _find(epar, e)
            u = etgt[e] if key[1] > 0 else esrc[e]
            if vpar[u] != u:
                u = _find(vpar, u)
            edges.append(e)
            corners.append(u)
        return edges, corners

    def attach_corner(self, v, v_fid, corner):
        """A copy of V-face v_fid glued at root v on the given corner, along
        the edges already there.

        Walks the face word forward and backward from v, reusing at each
        corner the edge that carries the needed germ there, and creates
        vertices and edges only for the gap that is left.  A reused edge is
        the identification folding would make with a fresh one, so the
        folded result is the same.  When the two walks meet at different
        corners, the last edge walked is left to a fresh one, whose key then
        queues the meeting corners' identification.
        """
        keys, back_keys = self.walks[v_fid, corner]
        n = len(keys)
        ahead, ahead_at = self._walk(v, keys)
        back, back_at = self._walk(v, back_keys[:n - len(ahead)])
        if len(ahead) + len(back) == n and ahead_at[-1] != back_at[-1]:
            if back:
                back.pop()
                back_at.pop()
            else:
                ahead.pop()
                ahead_at.pop()
        u, end, last = ahead_at[-1], back_at[-1], n - len(back) - 1
        v_edges = self.V.edges
        for j in range(len(ahead), last + 1):  # the gap: letter j from corner u to w
            sym, sign = keys[j]
            w = end if j == last else self.new_vertex(v_edges[sym][sign > 0])
            ahead.append(self.new_edge(u, w, sym) if sign > 0 else self.new_edge(w, u, sym))
            u = w
        ahead += reversed(back)  # the word's edges from the corner on
        self.new_face(v_fid, ahead[n - corner:] + ahead[:n - corner])

    def missing_corners(self, v):
        """The corners of root v's image in V that no face at v fills yet,
        as sorted (V fid, corner index) pairs."""
        faces, epar = self.V.faces, self.epar
        present = set()
        for (_sym, sign), e in self.vgerm[v].items():
            for img, pos in self.eside[e if epar[e] == e else _find(epar, e)]:
                if faces[img].word[pos][1] == sign:
                    present.add((img, pos))
        return [c for c in self.V.corners_at(self.vimg[v]) if c not in present]

    def complete_star(self, v):
        """Attach copies for every missing corner at v; returns count."""
        if self.vpar[v] != v:
            v = _find(self.vpar, v)
        missing = self.missing_corners(v)
        for v_fid, corner in missing:
            self.attach_corner(v, v_fid, corner)
        return len(missing)


def _canonical_ball(builder, base_root, radius):
    """Compact the folded builder into an immutable Ball with canonical ids:
    ``_numbered_ball`` over its union-find roots, each face's letter signs
    its image word's.  Only a fold leaves germs naming absorbed edges."""
    V, vpar, epar, fpar, fimg = builder.V, builder.vpar, builder.epar, builder.fpar, builder.fimg
    vroot = [v if p == v else _find(vpar, v) for v, p in enumerate(vpar)]
    eroot = [e if p == e else _find(epar, e) for e, p in enumerate(epar)]
    ends = [(vroot[s], vroot[t]) for s, t in zip(builder.esrc, builder.etgt)]
    germs, fword, builder.vgerm, builder.eside = builder.vgerm, builder.fword, None, None
    if eroot != list(range(len(eroot))):  # an edge was folded away
        for table in filter(None, germs):
            for key, e in table.items():
                table[key] = eroot[e]
        fword = [[eroot[e] for e in word] for word in fword]
    rows = [(fimg[f], fword[f], V.faces[fimg[f]].word) for f in range(len(fpar)) if fpar[f] == f]
    return _numbered_ball(V, base_root, radius, germs, ends, builder.vimg, builder.esym, rows)


def _numbered_ball(V, base, radius, germs, ends, vimg, esym, rows):
    """The Ball of the given cells, with canonical ids and depths.

    ``germs[v]`` maps (edge image, sign) to an edge leaving v so, ``ends[e]``
    is e's (source, target), ``vimg`` and ``esym`` give the cells' images,
    and a face row is (image, edges, word giving the signs).  A breadth-first
    walk from the base, taking each vertex's germs in sorted order, numbers
    vertices and edges and gives the depths; faces go by (image, edge
    numbers), then row order.  The walk, the germs' last reader, empties
    them before the complex and its incidence index are built."""
    order, vname, depths, enum = [base], {base: "v0"}, [0], {}
    for n, v in enumerate(order):
        below = depths[n] + 1
        table = germs[v]
        for key in sorted(table):
            e = table[key]
            # an edge met again was numbered from its other end: its far end here is too
            if e not in enum:
                enum[e] = len(enum)
                w = ends[e][key[1] > 0]
                if w not in vname:
                    vname[w] = f"v{len(order)}"
                    order.append(w)
                    depths.append(below)
    germs.clear()
    enames = [f"e{n}" for n in range(len(enum))]
    edges = {eid: (vname[s], vname[t])
             for eid, (s, t) in zip(enames, map(ends.__getitem__, enum))}
    edge_image = dict(zip(enames, map(esym.__getitem__, enum)))
    rows = sorted([(img, tuple([enum[e] for e in es]), n, word)
                   for n, (img, es, word) in enumerate(rows)])
    kinds = {img: face.kind for img, face in V.faces.items()}
    faces, face_image = [], {}
    for idx, (img, nums, _n, word) in enumerate(rows):
        fid = f"f{idx}"
        faces.append(Face(fid, kinds[img], [(enames[k], s) for k, (_x, s) in zip(nums, word)]))
        face_image[fid] = img
    cx = Complex2(vertices=vname.values(), edges=edges, faces=faces)
    return Ball(cx, V, vname[base], radius, {name: vimg[v] for v, name in vname.items()},
                edge_image, face_image, dict(zip(vname.values(), depths)))


def _expand_round(builder, base, radius):
    """Complete the star of every vertex within radius of base, once.

    Depths are taken by a breadth-first traversal over the live roots, and
    each star is completed and folded in one pass, in order of depth.  One
    pass is enough: folding only merges cells with the same covering
    image, so a corner is only ever identified with a corner over the same
    V-corner at the same vertex, and a completed star never loses a corner.
    A second pass over the same vertices would attach nothing.
    """
    vgerm, vpar, epar, esrc, etgt = (
        builder.vgerm, builder.vpar, builder.epar, builder.esrc, builder.etgt)
    base = _find(vpar, base)
    depth, targets = {base: 0}, [base]
    for v in targets:
        if depth[v] < radius:
            for (_sym, sign), e in vgerm[v].items():
                if epar[e] != e:
                    e = _find(epar, e)
                w = etgt[e] if sign > 0 else esrc[e]
                if vpar[w] != w:
                    w = _find(vpar, w)
                if w not in depth:
                    depth[w] = depth[v] + 1
                    targets.append(w)
    for v in targets:
        builder.complete_star(v)
        builder.fold()


def expand_ball(ball):
    """The ball of radius +1: one expansion round on the ball, loaded as
    its base and all its faces, then renumbered (which records depths)."""
    builder = _Builder(ball.v_complex)
    vmap = builder.load(ball, ball.complex.faces)
    builder.gen = 1
    _expand_round(builder, vmap[ball.base], ball.radius)
    return _canonical_ball(builder, _find(builder.vpar, vmap[ball.base]), ball.radius + 1)


def expand_to_radius(v_complex, base_vertex, radius):
    """The ball of the given radius around a lift of base_vertex.

    One workspace runs one expansion round per radius, round n attaching
    the cells of generation n, and is renumbered once at the end.  Radius
    0 is the base alone; a negative radius is a ValueError.
    """
    if base_vertex not in v_complex.vertices:
        raise KeyError(f"unknown vertex {base_vertex!r}")
    if radius < 0:
        raise ValueError(f"negative radius {radius}")
    builder = _Builder(v_complex)
    base = builder.new_vertex(base_vertex)
    for r in range(radius):
        builder.gen = r + 1
        _expand_round(builder, base, r)
    return _canonical_ball(builder, base, radius)


def restrict_ball(ball, radius):
    """The sub-ball of the given radius (0 up to the ball's): the base and
    the faces with a corner at a vertex of depth <= radius-1, which are
    the faces of ``face_depth`` <= radius-1."""
    if radius > ball.radius:
        raise ValueError("cannot restrict to a larger radius")
    if radius < 0:
        raise ValueError(f"negative radius {radius}")
    cx, depth, edge_image = ball.complex, ball.depth, ball.edge_image
    at_inner = {f for v in cx.vertices if depth[v] <= radius - 1 for f, _i in cx.corners_at(v)}
    keep, faces = [f for f in cx.face_ids() if f in at_inner], cx.faces
    # each key's first edge in the order the kept faces name them wins
    germs = defaultdict(dict)
    for e in dict.fromkeys(e for f in keep for e, _s in faces[f].word):
        s, t = cx.edges[e]
        germs[s].setdefault((edge_image[e], 1), e)
        germs[t].setdefault((edge_image[e], -1), e)
    rows = [(ball.face_image[f], [e for e, _s in faces[f].word], faces[f].word) for f in keep]
    return _numbered_ball(ball.v_complex, ball.base, radius, germs, cx.edges,
                          ball.vertex_image, edge_image, rows)


def _by_number(ids):
    """v<n>/e<n>/f<n> ids given in ``str`` order, in number order: sorted stably by length."""
    return sorted(ids, key=len)


def _depths(cx, base):
    """Graph distance from base on the 1-skeleton of cx, searched afresh."""
    adj = {v: [] for v in cx.vertices}
    for s, t in cx.edges.values():
        adj[s].append(t)
        adj[t].append(s)
    dist = {base: 0}
    queue = deque([base])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def verify_cover(ball):
    """Certificate of the Ball invariants; violations are content, not errors.

    Checks the covering map commutes with sources, targets and boundary
    words, that the covering map lifts the image link in V onto every
    interior link (``Ball.corner_lift``, so the link is labeled-isomorphic
    to its image and has its image's angular girth, reported per vertex),
    that interior edges carry all three face-sides, that the depths the
    numbering walk recorded agree with an independent search
    (``_depths``), and that the interior flags are the ones the depths
    give: vertices at depth <= radius-1 and the edges at them.
    """
    cx, V = ball.complex, ball.v_complex
    vertex_image, edge_image = ball.vertex_image, ball.edge_image
    degree = ball._image_tables[-1]
    problems = list(validate_complex(cx))
    for eid, (s, t) in cx.edges.items():
        image_s, image_t = V.edges[edge_image[eid]]
        if vertex_image[s] != image_s or vertex_image[t] != image_t:
            problems.append(f"edge {eid}: covering map does not commute with endpoints")
    for fid in cx.face_ids():
        word, image = cx.faces[fid].word, V.faces[ball.face_image[fid]].word
        if len(word) == len(image):
            for (e, s), (sym, t) in zip(word, image):
                if edge_image[e] != sym or s != t:
                    break
            else:
                continue
        problems.append(f"face {fid}: boundary word image is misaligned")
    vertex_rows = {}
    for v in _by_number(cx.vertices):
        interior = v in ball.interior_vertices
        row = {"depth": ball.depth[v], "interior": interior}
        if interior:
            lifts = ball.corner_lift(v) is not None
            row["link_matches_image"] = lifts
            row["girth"] = V.link_girth(ball.vertex_image[v]) if lifts else None
            if not lifts:
                problems.append(f"vertex {v}: interior link does not match its image link")
        vertex_rows[v] = row
    for eid in _by_number(cx.edge_symbols()):
        sides = cx.edge_face_degree(eid)
        expected = degree.get(edge_image[eid], 0)
        if eid in ball.interior_edges and sides != expected:
            problems.append(f"edge {eid}: interior but degree {sides} != {expected}")
        if sides > expected:
            problems.append(f"edge {eid}: degree {sides} exceeds image degree {expected}")
    if _depths(cx, ball.base) != ball.depth:
        problems.append("depth table inconsistent with traversal")
    # the interior flags follow the depths: a vertex is interior exactly at
    # depth <= radius-1, an edge exactly when it has an end at such a vertex
    inner = {v for v in cx.vertices if ball.depth[v] <= ball.radius - 1}
    for v in sorted(ball.interior_vertices ^ inner, key=lambda s: int(s[1:])):
        d, r = ball.depth[v], ball.radius
        problems.append(
            f"vertex {v}: depth {d} requires a complete star at radius {r}" if v in inner
            else f"vertex {v}: interior at depth {d}, but radius {r} makes only depths "
                 f"<= {r - 1} interior")
    inner_edges = {e for v in inner for e, _s in cx.germs_at(v)}
    for eid in sorted(ball.interior_edges ^ inner_edges, key=lambda s: int(s[1:])):
        problems.append(
            f"edge {eid}: interior flag disagrees with the depths of its ends "
            f"at radius {ball.radius}")
    interior_count = len(ball.interior_vertices)
    return {
        "radius": ball.radius,
        "ok": not problems,
        "problems": problems,
        "interior_vertex_count": interior_count,
        "vertices": vertex_rows,
        "cells": {
            "vertices": len(cx.vertices),
            "edges": len(cx.edges),
            "faces": len(cx.faces),
        },
    }


def serialize_ball(ball):
    """Deterministic text dump, diffable across runs and versions."""
    lines = [f"ball radius={ball.radius} base={ball.base}"]
    for v in _by_number(ball.complex.vertices):
        mark = " interior" if v in ball.interior_vertices else ""
        lines.append(f"vertex {v} depth={ball.depth[v]} image={ball.vertex_image[v]}{mark}")
    for e in _by_number(ball.complex.edge_symbols()):
        s, t = ball.complex.edges[e]
        mark = " interior" if e in ball.interior_edges else ""
        lines.append(f"edge {e} : {s} -> {t} image={ball.edge_image[e]}{mark}")
    for f in _by_number(ball.complex.face_ids()):
        face = ball.complex.faces[f]
        word = " ".join([f"{e}{'+' if s > 0 else '-'}" for e, s in face.word])
        lines.append(f"face {f} {face.kind} : {word} image={ball.face_image[f]}")
    return "\n".join(lines) + "\n"
