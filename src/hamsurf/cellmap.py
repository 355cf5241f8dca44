"""Cellular maps between 2-complexes and the automorphism group of V.

A CellMap is an explicit table: vertex -> vertex, oriented edge -> oriented
edge (commuting with reversal, source and target) and face -> face, where
each face's boundary word must map to the image face's word up to rotation
and reversal.  For lozenges the rotation must be even so that small corners
go to small corners.

Isomorphisms are found by development.  A face-side of an edge has a key
at each end of the edge: the face's kind and the face's corner label
there.  In every complex searched here no two sides at one edge end share
a key.  In V, and in each ball of its universal cover, the sides at an
edge end are the corners at one germ of a Moebius-ladder link, which has
one t, one l and one L corner; in S and S' the link labels alternate, so
the two sides at an edge end are one triangle and one lozenge.  An
isomorphism preserves keys, so once one face's image and the alignment of
its word are fixed, every side across a mapped edge must go to the one
side of the image edge with the same key (read at the image's far end
when the edge map reverses the edge), aligned along that edge: the rest
of the map is forced face by face.  ``isomorphisms`` develops the first
face onto every face of its kind in every label-keeping alignment and
keeps the developments that are complete bijections.  This finds every
isomorphism when the side keys are distinct at every edge end (it raises
CellMapError otherwise) and the faces are connected through their edges,
with every vertex and edge on some face.
"""

from __future__ import annotations

from collections import deque

from .corecomplex import LOZENGE, reverse


# bounds that turn a runaway closure into an error: V's automorphisms have
# order at most 4 and Aut(V) has 8 elements
ORDER_LIMIT = 64
GROUP_LIMIT = 256


class CellMapError(ValueError):
    pass


class CellMap:
    """A cellular morphism between two complexes (possibly the same)."""

    def __init__(self, source, target, vertex_map, edge_map, face_map):
        """edge_map is keyed on plain symbols with oriented-edge values;
        the reverse of a symbol maps to the reversed value."""
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        self.edge_map = dict(edge_map)
        self.face_map = dict(face_map)

    def map_oedge(self, oedge):
        sym, sign = oedge
        img_sym, img_sign = self.edge_map[sym]
        return (img_sym, img_sign * sign)

    def map_word(self, word):
        return tuple(self.map_oedge(oe) for oe in word)

    def __eq__(self, other):
        return (isinstance(other, CellMap)
                and self.vertex_map == other.vertex_map
                and self.edge_map == other.edge_map
                and self.face_map == other.face_map)

    def key(self):
        """Deterministic sort key (by edge images)."""
        return tuple(sorted((s, v) for s, v in self.edge_map.items()))

    def compose(self, other):
        """self after other (apply ``other`` first)."""
        if other.target is not self.source:
            raise CellMapError("composition domains do not match")
        vmap = {v: self.vertex_map[w] for v, w in other.vertex_map.items()}
        emap = {s: self.map_oedge(oe) for s, oe in other.edge_map.items()}
        fmap = {f: self.face_map[g] for f, g in other.face_map.items()}
        return CellMap(other.source, self.target, vmap, emap, fmap)

    def is_identity(self):
        return (all(v == w for v, w in self.vertex_map.items())
                and all(self.edge_map[s] == (s, 1) for s in self.edge_map)
                and all(f == g for f, g in self.face_map.items()))

    def order(self):
        """Order of the map as an automorphism (source == target)."""
        acc = self
        for n in range(1, ORDER_LIMIT + 1):
            if acc.is_identity():
                return n
            acc = acc.compose(self)
        raise CellMapError(f"order exceeds {ORDER_LIMIT}")


def identity_map(cx):
    return CellMap(
        cx, cx,
        {v: v for v in cx.vertices},
        {s: (s, 1) for s in cx.edges},
        {f: f for f in cx.faces},
    )


def _aligned(word, shift, flipped):
    """``word``, reversed first when ``flipped``, rotated left by ``shift``."""
    word = tuple(reverse(oe) for oe in reversed(word)) if flipped else tuple(word)
    return word[shift:] + word[:shift]


def word_match(word, target_word, even_rotation_only):
    """Alignment of ``word`` onto ``target_word``: (rotation, flipped) or None.

    ``word`` matches if some rotation of it (or of its reversal) equals
    ``target_word``.  With ``even_rotation_only`` (lozenges) only rotations
    preserving corner parity are allowed.
    """
    n = len(word)
    if n != len(target_word):
        return None
    for flipped in (False, True):
        for r in range(0, n, 2 if even_rotation_only else 1):
            if _aligned(word, r, flipped) == tuple(target_word):
                return (r, flipped)
    return None


def check_cellmap(m):
    """All structural violations of a CellMap, as strings; empty iff valid."""
    src, tgt = m.source, m.target
    problems = []
    if sorted(m.vertex_map) != sorted(src.vertices):
        problems.append("vertex map domain mismatch")
    if sorted(set(m.vertex_map.values())) != sorted(tgt.vertices):
        problems.append("vertex map is not onto the target vertices")
    if sorted(m.edge_map) != sorted(src.edges):
        problems.append("edge map domain mismatch")
    for sym, (img, sign) in m.edge_map.items():
        if img not in tgt.edges:
            problems.append(f"edge {sym}: image {img} undeclared")
            continue
        s, t = src.edges[sym]
        if m.vertex_map.get(s) != tgt.src((img, sign)):
            problems.append(f"edge {sym}: source does not commute")
        if m.vertex_map.get(t) != tgt.tgt((img, sign)):
            problems.append(f"edge {sym}: target does not commute")
    img_syms = sorted(img for img, _sign in m.edge_map.values())
    if img_syms != sorted(tgt.edges):
        problems.append("edge map is not a bijection on symbols")
    for fid, gid in m.face_map.items():
        face, gface = src.faces[fid], tgt.faces[gid]
        if face.kind != gface.kind:
            problems.append(f"face {fid}: kind changes under the map")
            continue
        align = word_match(
            m.map_word(face.word), gface.word,
            even_rotation_only=(face.kind == LOZENGE))
        if align is None:
            problems.append(f"face {fid}: word does not match face {gid}")
    if sorted(m.face_map) != sorted(src.faces):
        problems.append("face map domain mismatch")
    if sorted(set(m.face_map.values())) != sorted(tgt.faces):
        problems.append("face map is not onto the target faces")
    return problems


def _face_image_of_word(cx, word, kind):
    """The face of cx whose boundary equals word (up to allowed moves)."""
    for fid in cx.face_ids():
        face = cx.faces[fid]
        if face.kind != kind:
            continue
        if word_match(word, face.word, even_rotation_only=(kind == LOZENGE)) is not None:
            return fid
    return None


def _side_key(cx, side, end):
    """(face kind, corner label) of a face-side (fid, position, sign) of an
    edge, read at the source of the edge's ``end`` orientation."""
    fid, pos, sign = side
    face = cx.faces[fid]
    return face.kind, face.corner_label(pos if sign == end else (pos + 1) % len(face.word))


def _side_index(cx):
    """{(edge, end): {side key: side}}, checking that the keys at every edge
    end are distinct (the condition under which development is forced)."""
    index = {}
    for sym in cx.edge_symbols():
        sides = cx.edge_sides(sym)
        for end in (1, -1):
            index[sym, end] = {_side_key(cx, side, end): side for side in sides}
            if len(index[sym, end]) < len(sides):
                raise CellMapError(f"edge {sym}: two face-sides share a side key")
    return index


def _develop(cx1, cx2, sides1, sides2, fid, seed):
    """The map forced by sending face fid of cx1 to ``seed``, a face of cx2
    and the image of fid's word (an alignment of that face's word).

    Every mapped edge sends each of its face-sides to the side of the image
    edge with the same key, aligned so that the two sides coincide; None
    when two of these demands disagree or a side has no image.  The result
    may still be incomplete or fail ``check_cellmap``.
    """
    vmap, emap = {}, {}
    fmap = {fid: seed}
    queue = deque([fid])
    while queue:
        f = queue.popleft()
        for (sym, sign), img in zip(cx1.faces[f].word, fmap[f][1]):
            val = img if sign > 0 else reverse(img)
            if emap.setdefault(sym, val) != val:
                return None
            for v, w in ((cx1.src((sym, 1)), cx2.src(val)), (cx1.tgt((sym, 1)), cx2.tgt(val))):
                if vmap.setdefault(v, w) != w:
                    return None
            for key, (f1, pos, sign1) in sides1[sym, 1].items():
                if f1 in fmap:
                    continue
                if key not in sides2[val]:
                    return None
                gid, q, t = sides2[val][key]
                gword = cx2.faces[gid].word
                flipped = val[1] * sign1 != t
                shift = (len(gword) - 1 - pos - q if flipped else q - pos) % len(gword)
                fmap[f1] = (gid, _aligned(gword, shift, flipped))
                queue.append(f1)
    return CellMap(cx1, cx2, vmap, emap, {f: g for f, (g, _w) in fmap.items()})


def _cell_counts(cx):
    return len(cx.vertices), len(cx.edges), len(cx.faces)


def isomorphisms(cx1, cx2):
    """All cellular isomorphisms cx1 -> cx2, sorted by ``CellMap.key``.

    Develops cx1's first face onto every face of cx2 of its kind, in every
    rotation and reflection that keeps corner labels (``_develop``), and
    keeps the complete bijections that pass ``check_cellmap``.  Every
    isomorphism sends that face somewhere in one of those alignments and
    is then forced, so the list is complete when the faces of cx1 are
    connected through edges and every vertex and edge lies on a face.
    Raises CellMapError when two sides at one edge end of either complex
    share a key, where the development would not be forced.
    """
    sides1, sides2 = _side_index(cx1), _side_index(cx2)
    if not cx1.faces or _cell_counts(cx1) != _cell_counts(cx2):
        return []
    first = cx1.faces[cx1.face_ids()[0]]
    n = len(first.word)
    results = []
    for gid in cx2.face_ids():
        if cx2.faces[gid].kind != first.kind:
            continue
        for flipped in (False, True):
            for shift in range(0, n, 2 if first.kind == LOZENGE else 1):
                seed = (gid, _aligned(cx2.faces[gid].word, shift, flipped))
                m = _develop(cx1, cx2, sides1, sides2, first.fid, seed)
                if m is not None and not check_cellmap(m):
                    results.append(m)
    return sorted(results, key=CellMap.key)


def automorphism_group(cx):
    """All cellular automorphisms of cx, sorted deterministically."""
    return isomorphisms(cx, cx)


def map_from_edge_table(cx, table):
    """Build an automorphism of cx from a symbol table.

    ``table`` maps edge symbols to oriented edges (sym or (sym, sign));
    entries give both directions of each swap, or single fixed points.  The
    vertex and face maps are derived; raises CellMapError if the table does
    not define an automorphism.
    """
    edge_map = {}
    for sym, img in table.items():
        edge_map[sym] = img if isinstance(img, tuple) else (img, 1)
    for sym in cx.edges:
        if sym not in edge_map:
            edge_map[sym] = (sym, 1)
    vertex_map = {}
    for sym, (img, sign) in edge_map.items():
        for v, w in ((cx.src((sym, 1)), cx.src((img, sign))),
                     (cx.tgt((sym, 1)), cx.tgt((img, sign)))):
            if v in vertex_map and vertex_map[v] != w:
                raise CellMapError(f"edge table inconsistent at vertex {v}")
            vertex_map[v] = w
    probe = CellMap(cx, cx, vertex_map, edge_map, {})
    face_map = {}
    used = set()
    for fid in cx.face_ids():
        face = cx.faces[fid]
        gid = _face_image_of_word(cx, probe.map_word(face.word), face.kind)
        if gid is None:
            raise CellMapError(f"edge table does not map face {fid} to a face")
        if gid in used:
            raise CellMapError(f"edge table maps two faces onto {gid}")
        used.add(gid)
        face_map[fid] = gid
    m = CellMap(cx, cx, vertex_map, edge_map, face_map)
    problems = check_cellmap(m)
    if problems:
        raise CellMapError("; ".join(problems))
    return m


# The three involution tables for V, as subscript maps on the fixture's
# edge symbols.  theta1 flips every lozenge along its long diagonal, theta2
# reverses arrows while exchanging the x and y families (it takes S to S'),
# theta3 exchanges the a/b and c/d charts.

def theta1_table():
    return {
        "x_a": "x_d", "x_d": "x_a", "x_b": "x_c", "x_c": "x_b",
        "y_a": "y_d", "y_d": "y_a", "y_b": "y_c", "y_c": "y_b",
        "z_a": "z_d", "z_d": "z_a", "z_b": "z_c", "z_c": "z_b",
    }


def theta2_table():
    return {
        "x_a": ("y_a", -1), "y_a": ("x_a", -1),
        "x_c": ("y_b", -1), "y_b": ("x_c", -1),
        "x_b": ("y_c", -1), "y_c": ("x_b", -1),
        "x_d": ("y_d", -1), "y_d": ("x_d", -1),
        "z_a": ("z_a", -1),
        "z_b": ("z_c", -1), "z_c": ("z_b", -1),
        "z_d": ("z_d", -1),
    }


def theta3_table():
    return {
        "x_a": "x_b", "x_b": "x_a", "x_c": "x_d", "x_d": "x_c",
        "y_a": "y_b", "y_b": "y_a", "y_c": "y_d", "y_d": "y_c",
        "z_a": "z_b", "z_b": "z_a", "z_c": "z_d", "z_d": "z_c",
    }


def theta_maps(v_complex):
    """The three named automorphisms of V built from their tables."""
    return {
        "theta1": map_from_edge_table(v_complex, theta1_table()),
        "theta2": map_from_edge_table(v_complex, theta2_table()),
        "theta3": map_from_edge_table(v_complex, theta3_table()),
    }


def generated_subgroup(generators):
    """Closure of a generator list under composition: the identity closed
    under left multiplication by the generators, which in a finite group
    reaches every product of them."""
    if not generators:
        return []
    ident = identity_map(generators[0].source)
    elems = {ident.key(): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for h in frontier:
            for g in generators:
                prod = g.compose(h)
                k = prod.key()
                if k not in elems:
                    elems[k] = prod
                    nxt.append(prod)
        frontier = nxt
        if len(elems) > GROUP_LIMIT:
            raise CellMapError("generated group exceeds limit")
    return sorted(elems.values(), key=lambda m: m.key())


def verify_theta_relations(thetas, group):
    """Relation report for the maps ``theta_maps(V)`` inside Aut(V), the
    group given as ``automorphism_group(V)``.

    Checks, and reports rather than assumes: membership of the tables in
    the full automorphism group, involutivity, pairwise commutation,
    generation of the whole group and element orders.
    """
    keys = {m.key() for m in group}
    report = {
        "group_order": len(group),
        "element_orders": sorted(m.order() for m in group),
        "members": {name: m.key() in keys for name, m in thetas.items()},
        "involutive": {name: m.compose(m).is_identity() for name, m in thetas.items()},
        "commute": {},
    }
    names = sorted(thetas)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = thetas[names[i]], thetas[names[j]]
            report["commute"][f"{names[i]}*{names[j]}"] = (
                a.compose(b) == b.compose(a))
    gen = generated_subgroup(list(thetas.values()))
    report["generated_order"] = len(gen)
    report["generates_group"] = {m.key() for m in gen} == keys
    report["exponent_two"] = all(o <= 2 for o in report["element_orders"])
    report["all_pairs_commute"] = all(report["commute"].values())
    return report
