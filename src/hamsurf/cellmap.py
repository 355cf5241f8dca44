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

Aut(V) comes from that one search: ``automorphism_group(V)`` is
``isomorphisms(V, V)``.  The three named involutions theta1-theta3 are read
out of the group by their edge tables (``theta_maps``), and
``verify_theta_relations`` reports their relations inside it.
"""

from __future__ import annotations

from collections import deque

from .corecomplex import LOZENGE, reverse


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
        """Order of the map as an automorphism (source == target).  It is
        only asked of elements of a finite automorphism group, so some power
        is the identity and the loop ends."""
        acc, n = self, 1
        while not acc.is_identity():
            acc, n = acc.compose(self), n + 1
        return n


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
    """All structural violations of a CellMap, as strings; empty iff valid.
    Edges and faces are checked in sorted order, whatever order the map was
    built in."""
    src, tgt = m.source, m.target
    problems = []
    if sorted(m.vertex_map) != sorted(src.vertices):
        problems.append("vertex map domain mismatch")
    if sorted(set(m.vertex_map.values())) != sorted(tgt.vertices):
        problems.append("vertex map is not onto the target vertices")
    if sorted(m.edge_map) != sorted(src.edges):
        problems.append("edge map domain mismatch")
    for sym, (img, sign) in sorted(m.edge_map.items()):
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
    for fid, gid in sorted(m.face_map.items()):
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


# The three involutions of V named by their edge tables: symbol -> oriented
# image, with unlisted symbols fixed.  theta1 flips every lozenge along its
# long diagonal, theta2 reverses arrows while exchanging the x and y
# families (it takes S to S'), theta3 exchanges the a/b and c/d charts.
THETA_TABLES = {
    "theta1": {
        "x_a": ("x_d", 1), "x_d": ("x_a", 1), "x_b": ("x_c", 1), "x_c": ("x_b", 1),
        "y_a": ("y_d", 1), "y_d": ("y_a", 1), "y_b": ("y_c", 1), "y_c": ("y_b", 1),
        "z_a": ("z_d", 1), "z_d": ("z_a", 1), "z_b": ("z_c", 1), "z_c": ("z_b", 1),
    },
    "theta2": {
        "x_a": ("y_a", -1), "y_a": ("x_a", -1),
        "x_c": ("y_b", -1), "y_b": ("x_c", -1),
        "x_b": ("y_c", -1), "y_c": ("x_b", -1),
        "x_d": ("y_d", -1), "y_d": ("x_d", -1),
        "z_a": ("z_a", -1), "z_b": ("z_c", -1), "z_c": ("z_b", -1), "z_d": ("z_d", -1),
    },
    "theta3": {
        "x_a": ("x_b", 1), "x_b": ("x_a", 1), "x_c": ("x_d", 1), "x_d": ("x_c", 1),
        "y_a": ("y_b", 1), "y_b": ("y_a", 1), "y_c": ("y_d", 1), "y_d": ("y_c", 1),
        "z_a": ("z_b", 1), "z_b": ("z_a", 1), "z_c": ("z_d", 1), "z_d": ("z_c", 1),
    },
}


def theta_maps(group):
    """The three named automorphisms of V, read out of ``group`` (Aut(V) as
    ``automorphism_group(V)`` gives it): for each table in ``THETA_TABLES``
    the element whose edge map equals it.  Raises CellMapError naming the
    first table that no element has."""
    thetas = {}
    for name, table in THETA_TABLES.items():
        thetas[name] = next(
            (m for m in group if m.edge_map == {**{s: (s, 1) for s in m.edge_map}, **table}),
            None)
        if thetas[name] is None:
            raise CellMapError(f"no automorphism of V has the edge table {name}")
    return thetas


def generated_subgroup(generators):
    """Closure of a generator list under composition: the generators closed
    under left multiplication by the generators.  In a finite group this
    reaches every product of them, the identity among them as a power of
    each.  The generators are elements of a finite automorphism group, so
    the closure ends."""
    elems = {g.key(): g for g in generators}
    frontier = list(elems.values())
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
    return sorted(elems.values(), key=lambda m: m.key())


def verify_theta_relations(thetas, group):
    """Relation report for the maps ``theta_maps(group)`` inside Aut(V), the
    group given as ``automorphism_group(V)``.

    Checks, and reports rather than assumes: involutivity, pairwise
    commutation and generation of the whole group.  The group's own order
    and element orders are read from the group (``cli.cmd_check_aut``).
    ``members`` looks each map up in the group by its key; maps read out of
    the group by ``theta_maps`` are members by construction.
    """
    keys = {m.key() for m in group}
    report = {
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
    report["all_pairs_commute"] = all(report["commute"].values())
    return report
