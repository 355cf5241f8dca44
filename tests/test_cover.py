import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsurf.cellmap import check_cellmap, isomorphisms
from hamsurf.corecomplex import LOZENGE, TRIANGLE, Complex2, Face, validate_complex
from hamsurf.cover import (Ball, FoldConflictError, _Builder, _by_number, _canonical_ball,
                           _depths, _find, expand_ball, expand_to_radius,
                           restrict_ball, serialize_ball, verify_cover)
from hamsurf.hamgraph import angular_girth, labeled_isomorphic
from hamsurf.surfaces import propagate_surface
from oracles import naive_corner_lift


def test_base_ball(V):
    b0 = expand_to_radius(V, "Q", 0)
    assert b0.radius == 0
    assert len(b0.complex.vertices) == 1
    assert not b0.complex.edges and not b0.complex.faces
    assert b0.vertex_image[b0.base] == "Q"
    with pytest.raises(KeyError):
        expand_to_radius(V, "nope", 0)


def test_first_star(V, ball1):
    assert ball1.radius == 1
    kinds = Counter(f.kind for f in ball1.complex.faces.values())
    assert kinds == {"triangle": 4, "lozenge": 8}
    assert len(ball1.complex.vertices) == 17
    assert len(ball1.complex.edges) == 28
    assert ball1.interior_vertices == {ball1.base}
    rep = verify_cover(ball1)
    assert rep["ok"], rep["problems"]
    assert rep["interior_vertex_count"] == 1


def test_base_link_is_ladder(V, ball1, ladder):
    link = ball1.complex.vertex_link(ball1.base)
    assert labeled_isomorphic(link, ladder) is not None
    assert angular_girth(link) == 6


def test_radius_two(V, ball2):
    rep = verify_cover(ball2)
    assert rep["ok"], rep["problems"]
    assert rep["interior_vertex_count"] == 9
    cells = rep["cells"]
    assert cells == {"vertices": 81, "edges": 156, "faces": 76}
    # contractible chunk
    assert cells["vertices"] - cells["edges"] + cells["faces"] == 1


def test_interior_stars(V, ball2):
    cx = ball2.complex
    for v in ball2.interior_vertices:
        faces = {f for f, _i in cx.corners_at(v)}
        kinds = [cx.faces[f].kind for f in faces]
        assert len(faces) == 12
        assert kinds.count("triangle") == 4
        assert kinds.count("lozenge") == 8
    for eid in ball2.interior_edges:
        assert len(cx.edge_sides(eid)) == 3


def test_ball_complex_is_valid(ball2):
    assert validate_complex(ball2.complex) == []


def test_covering_map_commutes(V, ball2):
    cx = ball2.complex
    for eid, (s, t) in cx.edges.items():
        sym = ball2.edge_image[eid]
        assert ball2.vertex_image[s] == V.src((sym, 1))
        assert ball2.vertex_image[t] == V.tgt((sym, 1))
    for fid in cx.face_ids():
        img_word = tuple((ball2.edge_image[e], s) for e, s in cx.faces[fid].word)
        assert img_word == tuple(V.faces[ball2.face_image[fid]].word)


def test_idempotent_restriction(V, ball1, ball2):
    assert serialize_ball(restrict_ball(ball2, 1)) == serialize_ball(ball1)
    b0 = expand_to_radius(V, "P", 0)
    assert serialize_ball(restrict_ball(ball1, 0)) == serialize_ball(b0)


def test_radius_three_verifies_and_restricts(V, ball2, ball3):
    assert ball3.radius == 3
    rep = verify_cover(ball3)
    assert rep["ok"], rep["problems"][:3]
    assert serialize_ball(restrict_ball(ball3, 2)) == serialize_ball(ball2)


def test_radius_four_verifies_and_restricts(ball3, ball4):
    rep = verify_cover(ball4)
    assert rep["ok"], rep["problems"][:3]
    assert rep["interior_vertex_count"] == 213
    assert rep["cells"] == {"vertices": 1309, "edges": 2764, "faces": 1456}
    assert serialize_ball(restrict_ball(ball4, 3)) == serialize_ball(ball3)


@pytest.mark.parametrize("base,radius", [(b, r) for b in "PQR" for r in (1, 2, 3)] + [("P", 4)])
def test_restriction_to_every_smaller_radius(V, base, radius):
    # restriction keeps the faces with a corner at depth <= k-1; those are
    # the faces of face_depth <= k-1, and they make the k ball grown from V
    ball = expand_to_radius(V, base, radius)
    for k in range(radius):
        restricted = restrict_ball(ball, k)
        assert serialize_ball(restricted) == serialize_ball(expand_to_radius(V, base, k))
        assert Counter(restricted.face_image.values()) == Counter(
            ball.face_image[f] for f in ball.complex.face_ids() if ball.face_depth(f) <= k - 1)


def test_serialization_deterministic(V):
    a = serialize_ball(expand_to_radius(V, "P", 2))
    b = serialize_ball(expand_to_radius(V, "P", 2))
    assert a == b


def test_census_regression(ball2):
    # frozen after the first verified run; the digest pins every cell
    digest = hashlib.sha256(serialize_ball(ball2).encode()).hexdigest()
    assert digest == BALL2_DIGEST


# value frozen from the first verified expansion of the shipped fixture
BALL2_DIGEST = "9c1abfb4941b6de58621fd5bcc272ea3c5536ff52e8c85ae06ed7a700226afdb"

# frozen from verified expansions; any folding order must reproduce them
BALL_DIGESTS = {
    ("P", 3): "2608488de81eaaac2b2ae3653991b7275240b13ede08d22eb959611ba8d14d47",
    ("Q", 3): "bbd6a4fd096ad6d1b6c6ccb253540bd53f99d1cd23b9da3cdeb2add5da6e122a",
    ("R", 3): "a3f1c379c6fed605d0913e15c6bcd9010694e166a25bc54ace86e280aa0a1dbc",
    ("P", 4): "ef82aba6845b79b30408f12f2bf9e2255ad92ea935e5424be222b5c3ef442cfb",
}


@pytest.mark.parametrize("base,radius", sorted(BALL_DIGESTS))
def test_pinned_ball_digests(V, base, radius):
    ball = expand_to_radius(V, base, radius)
    digest = hashlib.sha256(serialize_ball(ball).encode()).hexdigest()
    assert digest == BALL_DIGESTS[base, radius]


# frozen from verified expansions: the whole verify_cover report of each
# BALL_DIGESTS ball, every per-vertex row included.  The report names no
# covering image, so the three radius-3 balls share one digest.
COVER_REPORT_DIGESTS = {
    ("P", 3): "4263236940af98bf2c986c3dbcecd033680708c89c4b60e6bd7a0c747624a564",
    ("Q", 3): "4263236940af98bf2c986c3dbcecd033680708c89c4b60e6bd7a0c747624a564",
    ("R", 3): "4263236940af98bf2c986c3dbcecd033680708c89c4b60e6bd7a0c747624a564",
    ("P", 4): "2b12c426f88d9b98c4eef1f3f961ab4c868964257e829bade793b5059ee7a869",
}


@pytest.mark.parametrize("base,radius", sorted(COVER_REPORT_DIGESTS))
def test_pinned_cover_reports(V, base, radius):
    report = json.dumps(verify_cover(expand_to_radius(V, base, radius)), sort_keys=True)
    digest = hashlib.sha256(report.encode()).hexdigest()
    assert digest == COVER_REPORT_DIGESTS[base, radius]


def test_restriction_numbers_germs_outside_the_image(ball2):
    # one edge at the base maps to a V edge with other ends (x_a: Q -> P
    # becomes y_a: P -> R), so the base carries a germ key its image P
    # lacks; the numbering walk still takes every germ, in sorted key order
    cx = ball2.complex
    e = min((e for e, _s in cx.germs_at(ball2.base) if ball2.edge_image[e] == "x_a"),
            key=lambda s: int(s[1:]))
    damaged = Ball(cx, ball2.v_complex, ball2.base, ball2.radius, ball2.vertex_image,
                   {**ball2.edge_image, e: "y_a"}, ball2.face_image, ball2.depth)
    restricted = restrict_ball(damaged, 1)
    assert [len(cells) for cells in (restricted.complex.vertices, restricted.complex.edges,
                                     restricted.complex.faces)] == [17, 28, 12]
    digest = hashlib.sha256(serialize_ball(restricted).encode()).hexdigest()
    assert digest == "a79ad8496d7630a9b54ee2fbe22338249d4e48e9ccd84f9af2ed37676427bdba"


def _restricted_through_a_workspace(ball, radius):
    """The sub-ball built the other way: the faces of ``face_depth`` <=
    radius-1 loaded into a builder, which ``_canonical_ball`` numbers."""
    keep = [f for f in ball.complex.face_ids() if ball.face_depth(f) <= radius - 1]
    builder = _Builder(ball.v_complex)
    vmap = builder.load(ball, keep)
    return _canonical_ball(builder, vmap[ball.base], radius)


@pytest.mark.parametrize("radius", range(4))
@pytest.mark.parametrize("base", "PQR")
def test_restriction_matches_a_loaded_workspace(V, base, radius):
    # restrict_ball numbers the ball's own cells with no builder; the
    # builder that expand_ball loads is an independent second construction
    ball = expand_to_radius(V, base, radius)
    for k in range(radius + 1):
        assert (serialize_ball(restrict_ball(ball, k))
                == serialize_ball(_restricted_through_a_workspace(ball, k)))


@pytest.mark.parametrize("damage", ["key outside the image", "key taken twice"])
def test_restriction_of_a_damaged_ball_matches_a_loaded_workspace(ball2, damage):
    # an edge at the base relabelled: e0 (x_a) as y_a, the germ key its
    # image P lacks of test_restriction_numbers_germs_outside_the_image, or
    # one outgoing edge as another with a different image, so that one key
    # names two edges and the first in face order must win; both
    # constructions number the damage the same way at every radius
    cx, image = ball2.complex, ball2.edge_image
    if damage == "key outside the image":
        e = min((e for e, _s in cx.germs_at(ball2.base) if image[e] == "x_a"),
                key=lambda s: int(s[1:]))
        relabelled = {e: "y_a"}
    else:
        out = sorted((e for e, s in cx.germs_at(ball2.base) if s == 1), key=lambda s: int(s[1:]))
        other = next(e for e in out if image[e] != image[out[0]])
        relabelled = {out[0]: image[other]}
    damaged = Ball(cx, ball2.v_complex, ball2.base, ball2.radius, ball2.vertex_image,
                   {**image, **relabelled}, ball2.face_image, ball2.depth)
    for k in range(3):
        assert (serialize_ball(restrict_ball(damaged, k))
                == serialize_ball(_restricted_through_a_workspace(damaged, k)))


@pytest.mark.parametrize("radius", range(4))
@pytest.mark.parametrize("base", "PQR")
def test_one_workspace_matches_expanding_ball_by_ball(V, base, radius):
    # expand_to_radius runs every round in one workspace; loading each
    # intermediate ball into a fresh one must give the same bytes
    ball = expand_to_radius(V, base, 0)
    for _ in range(radius):
        ball = expand_ball(ball)
    assert serialize_ball(expand_to_radius(V, base, radius)) == serialize_ball(ball)


def _workspaces(monkeypatch):
    """The builders that reach ``_canonical_ball``, in call order."""
    workspaces = []
    canonical = _canonical_ball

    def keep(builder, base_root, radius):
        workspaces.append(builder)
        return canonical(builder, base_root, radius)

    monkeypatch.setattr("hamsurf.cover._canonical_ball", keep)
    return workspaces


def test_rounds_attach_cells_of_their_own_generation(V, monkeypatch):
    # the cells of rounds 0..n are the ball of radius n, so the generation
    # rule settles exactly that ball while round n+1 runs
    smaller = [expand_to_radius(V, "P", n).complex for n in range(3)]
    workspaces = _workspaces(monkeypatch)
    expand_to_radius(V, "P", 3)
    (builder,) = workspaces
    for par, gen, kind in ((builder.vpar, builder.vgen, "vertices"),
                           (builder.epar, builder.egen, "edges"),
                           (builder.fpar, builder.fgen, "faces")):
        roots = Counter(gen[c] for c in range(len(par)) if par[c] == c)
        for n, cx in enumerate(smaller):
            assert sum(roots[g] for g in range(n + 1)) == len(getattr(cx, kind))


@pytest.mark.parametrize("base", "PQR")
def test_expansion_creates_only_the_cells_the_ball_keeps(V, base, monkeypatch):
    # faces are attached along the germs already there, so no cell is made
    # only to be folded away (fresh copies made 3,829 vertices and 5,284
    # edges for this ball from P)
    workspaces = _workspaces(monkeypatch)
    expand_to_radius(V, base, 4)
    (builder,) = workspaces
    for par, count in ((builder.vpar, 1309), (builder.epar, 2764), (builder.fpar, 1456)):
        assert len(par) == count
        assert all(par[c] == c for c in range(count))


def test_numbering_drops_the_germ_tables(V, monkeypatch):
    # the numbering walk is the germ tables' last reader, so no builder
    # keeps them while its ball's complex is indexed, nor after; restriction
    # numbers the ball's own cells and makes no builder at all
    workspaces, made = _workspaces(monkeypatch), []
    init = _Builder.__init__

    def counting(builder, v_complex):
        made.append(builder)
        init(builder, v_complex)

    monkeypatch.setattr(_Builder, "__init__", counting)
    ball = expand_to_radius(V, "P", 2)
    restrict_ball(ball, 1)
    assert len(made) == 1
    expand_ball(ball)
    assert len(workspaces) == 2 and made == workspaces
    assert all(b.vgerm is None and b.eside is None for b in workspaces)


def test_expand_to_radius_rejects_unknown_base(V):
    with pytest.raises(KeyError):
        expand_to_radius(V, "nope", 2)


def test_fold_follows_merges_through(V):
    # merging x1 with x2 identifies e1 with e2 (same image, both end there),
    # hence a with b, hence f1 with f2 and y1 with y2
    builder = _Builder(V)
    a, b, x1, x2, y1, y2 = (builder.new_vertex(img) for img in "PPQQRR")
    for src, tgt, sym in ((a, x1, "s"), (b, x2, "s"), (a, y1, "t"), (b, y2, "t")):
        builder.new_edge(src, tgt, sym)
    builder.fold()
    assert sum(p == e for e, p in enumerate(builder.epar)) == 4
    builder.vunion(x1, x2)
    builder.fold()
    assert sum(p == e for e, p in enumerate(builder.epar)) == 2
    assert _find(builder.vpar, b) == a and _find(builder.vpar, y2) == y1


def _attach_fresh(builder, v, v_fid, corner):
    """A copy of V-face v_fid glued at root v on the given corner with every
    other cell new, as if no germ at v or beyond were there."""
    word = builder.V.faces[v_fid].word
    n = len(word)
    at = [v if j == corner else builder.new_vertex(builder.V.src(word[j]))
          for j in range(n)]
    edges = []
    for j, (sym, sign) in enumerate(word):
        a, b = (at[j], at[(j + 1) % n]) if sign > 0 else (at[(j + 1) % n], at[j])
        edges.append(builder.new_edge(a, b, sym))
    builder.new_face(v_fid, edges)


@pytest.mark.parametrize("start,at", [(0, 0), (2, 1)])
def test_attach_identifies_the_corners_where_its_walks_meet(V, start, at):
    # the three sides of triangle a run as an open path p0 -> p1 -> p2 -> p3
    # whose first vertex is a copy of corner `start`; a copy of a attached
    # at corner 0 walks the whole path, ahead only (start 0) or both ways
    # (start 2), and its one fresh side folds p3 onto p0
    word = V.faces["a"].word
    assert all(sign == 1 for _sym, sign in word)
    builder = _Builder(V)
    path = [builder.new_vertex(V.src(word[(start + j) % 3])) for j in range(4)]
    for j in range(3):
        builder.new_edge(path[j], path[j + 1], word[(start + j) % 3][0])
    builder.attach_corner(path[at], "a", 0)
    builder.fold()
    assert len(builder.vpar) == 4 and _find(builder.vpar, path[3]) == path[0]
    assert len(builder.epar) == 4 and sum(p == e for e, p in enumerate(builder.epar)) == 3
    (face,) = builder.fword
    ends = [(_find(builder.vpar, builder.esrc[e]), _find(builder.vpar, builder.etgt[e]))
            for e in face]
    assert all(ends[j][1] == ends[(j + 1) % 3][0] for j in range(3))


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fold_confluence(ball1, ball2, data):
    # completing the stars in any order, folding after each star or only
    # once at the end, and attaching along the germs or as fresh copies
    # that leave every identification to the fold, gives the ball
    # expand_ball builds
    ball = data.draw(st.sampled_from([ball1, ball2]), label="ball")
    targets = [v for v in ball.complex.vertices if ball.depth[v] <= ball.radius]
    order = data.draw(st.permutations(sorted(targets)), label="order")
    fold_each = data.draw(st.booleans(), label="fold after each star")
    fresh = data.draw(st.booleans(), label="fresh copies")
    builder = _Builder(ball.v_complex)
    vmap = builder.load(ball, ball.complex.faces)
    builder.gen = 1
    builder.fold()
    for v in order:
        if fresh:
            root = _find(builder.vpar, vmap[v])
            for v_fid, corner in builder.missing_corners(root):
                _attach_fresh(builder, root, v_fid, corner)
        else:
            builder.complete_star(vmap[v])
        if fold_each:
            builder.fold()
    builder.fold()
    assert all(builder.complete_star(vmap[v]) == 0 for v in targets)
    folded = _canonical_ball(builder, _find(builder.vpar, vmap[ball.base]), ball.radius + 1)
    assert serialize_ball(folded) == serialize_ball(expand_ball(ball))


def test_fold_refuses_to_merge_settled_cells(V):
    # two loaded copies of triangle a share only their corner-0 vertex, so
    # two edges with one image leave it: folding them would identify two
    # cells of the ball being expanded
    word = V.faces["a"].word
    assert all(sign == 1 for _sym, sign in word)
    vertex_image, edges, edge_image, faces = {}, {}, {}, []
    for k, at in enumerate((["v0", "v1", "v2"], ["v0", "v3", "v4"])):
        for j, (sym, _sign) in enumerate(word):
            vertex_image[at[j]] = V.src(word[j])
            edges[f"e{3 * k + j}"] = (at[j], at[(j + 1) % 3])
            edge_image[f"e{3 * k + j}"] = sym
        faces.append(Face(f"f{k}", TRIANGLE, tuple((f"e{3 * k + j}", 1) for j in range(3))))
    assert vertex_image["v0"] == "Q"
    cx = Complex2(vertex_image, edges, faces)
    depth = {v: int(v != "v0") for v in vertex_image}
    ball = Ball(cx, V, "v0", 1, vertex_image, edge_image, {"f0": "a", "f1": "a"}, depth)
    with pytest.raises(FoldConflictError, match="settled edges: ") as info:
        expand_ball(ball)
    assert info.value.trail[2:] == ("generation", 0)


def test_load_refuses_a_face_whose_signs_differ_from_its_image(ball1):
    # a workspace face keeps only its edges and reads its signs from its
    # image, so loading a face with one flipped letter must fail, not
    # realign it; restriction keeps the ball's own words, damage included
    cx = ball1.complex
    (e, sign), *rest = cx.faces["f0"].word
    faces = [Face(f, cx.faces[f].kind, [(e, -sign), *rest] if f == "f0" else cx.faces[f].word)
             for f in cx.face_ids()]
    damaged = Ball(Complex2(cx.vertices, cx.edges, faces), ball1.v_complex, ball1.base,
                   ball1.radius, ball1.vertex_image, ball1.edge_image, ball1.face_image,
                   ball1.depth)
    with pytest.raises(ValueError, match="face f0: word signs differ from its image"):
        expand_ball(damaged)
    assert "boundary word image is misaligned" in " ".join(
        verify_cover(restrict_ball(damaged, 1))["problems"])


@pytest.mark.parametrize("radius", range(5))
@pytest.mark.parametrize("base", "PQR")
def test_numbering_walk_depths_match_a_fresh_search(V, base, radius):
    # the depths _canonical_ball records as it numbers the vertices are
    # the graph distances an independent search finds
    ball = expand_to_radius(V, base, radius)
    balls = [ball]
    if radius:
        balls.append(restrict_ball(ball, radius - 1))
        balls.append(expand_ball(balls[-1]))
    for b in balls:
        assert b.depth == _depths(b.complex, b.base)


def test_one_depth_search_per_verification(V, ball2, monkeypatch):
    # building a ball walks its 1-skeleton once, to number it; only
    # verify_cover searches again, to check the depths that walk recorded
    calls = []
    search = _depths

    def counting(cx, base):
        calls.append(base)
        return search(cx, base)

    monkeypatch.setattr("hamsurf.cover._depths", counting)
    ball = expand_to_radius(V, "P", 2)
    expand_ball(restrict_ball(ball, 1))
    assert calls == []
    assert verify_cover(ball)["ok"]
    assert calls == [ball.base]


def test_verify_cover_reports_a_damaged_depth(ball2):
    # a boundary vertex claims one more than its distance from the base
    cx = ball2.complex
    v = max(cx.vertices, key=lambda s: int(s[1:]))
    depth = dict(ball2.depth)
    depth[v] += 1
    damaged = Ball(cx, ball2.v_complex, ball2.base, ball2.radius,
                   ball2.vertex_image, ball2.edge_image, ball2.face_image, depth)
    assert verify_cover(damaged)["problems"] == ["depth table inconsistent with traversal"]


def test_verify_cover_reports_an_edge_image_with_other_ends(ball2):
    # the x_a damage of test_restriction_numbers_germs_outside_the_image:
    # e0 (Q -> P in V) is sent to y_a (P -> R), so its ends do not commute,
    # the words through it are misaligned and the base loses its lift
    cx = ball2.complex
    e = min((e for e, _s in cx.germs_at(ball2.base) if ball2.edge_image[e] == "x_a"),
            key=lambda s: int(s[1:]))
    damaged = Ball(cx, ball2.v_complex, ball2.base, ball2.radius, ball2.vertex_image,
                   {**ball2.edge_image, e: "y_a"}, ball2.face_image, ball2.depth)
    assert e == "e0"
    assert verify_cover(damaged)["problems"] == [
        "edge e0: covering map does not commute with endpoints",
        "face f0: boundary word image is misaligned",
        "face f29: boundary word image is misaligned",
        "face f34: boundary word image is misaligned",
        "vertex v0: depth 0 requires a complete star at radius 2",
        "vertex v1: depth 1 requires a complete star at radius 2",
    ]


def test_verify_cover_reports_an_edge_with_a_fourth_side(ball2):
    # a copy of face f0 under a new id gives each of its three edges a
    # fourth face-side, one more than their image edges have in V
    cx = ball2.complex
    face = cx.faces["f0"]
    copy = f"f{len(cx.faces)}"
    cx2 = Complex2(cx.vertices, cx.edges,
                   [*cx.faces.values(), Face(copy, face.kind, face.word)])
    damaged = Ball(cx2, ball2.v_complex, ball2.base, ball2.radius, ball2.vertex_image,
                   ball2.edge_image, {**ball2.face_image, copy: ball2.face_image["f0"]},
                   ball2.depth)
    assert [sym for sym, _s in face.word] == ["e0", "e4", "e11"]
    assert verify_cover(damaged)["problems"] == [
        "edge e0: degree 4 exceeds image degree 3",
        "edge e4: degree 4 exceeds image degree 3",
        "edge e11: degree 4 exceeds image degree 3",
        "vertex v0: depth 0 requires a complete star at radius 2",
        "vertex v1: depth 1 requires a complete star at radius 2",
        "vertex v5: depth 1 requires a complete star at radius 2",
        "edge e0: interior flag disagrees with the depths of its ends at radius 2",
        "edge e4: interior flag disagrees with the depths of its ends at radius 2",
        "edge e11: interior flag disagrees with the depths of its ends at radius 2",
    ]


def _assert_eight_base_maps(b1, b2):
    """Exactly eight cellular isomorphisms b1 -> b2, all sending base to base."""
    isos = isomorphisms(b1.complex, b2.complex)
    assert len(isos) == 8
    for m in isos:
        assert m.vertex_map[b1.base] == b2.base
        assert check_cellmap(m) == []


def test_base_vertex_independence(V):
    balls = {v: expand_to_radius(V, v, 2) for v in V.vertices}
    for a in V.vertices:
        for b in V.vertices:
            _assert_eight_base_maps(balls[a], balls[b])


def test_base_vertex_independence_radius_one(V):
    balls = {v: expand_to_radius(V, v, 1) for v in V.vertices}
    for a in V.vertices:
        for b in V.vertices:
            _assert_eight_base_maps(balls[a], balls[b])


def test_base_vertex_independence_radius_three(V, ball3):
    _assert_eight_base_maps(ball3, expand_to_radius(V, "R", 3))


def _delete_face(ball, fid):
    """A ball with one face removed (interior flags recomputed)."""
    cx = ball.complex
    faces = [cx.faces[f] for f in cx.face_ids() if f != fid]
    cx2 = Complex2(cx.vertices, dict(cx.edges), faces)
    imgs = {f: ball.face_image[f] for f in cx2.faces}
    return Ball(cx2, ball.v_complex, ball.base, ball.radius,
                ball.vertex_image, ball.edge_image, imgs, ball.depth)


def test_deleted_face_fails_verification(ball1):
    fid = ball1.complex.face_ids()[0]
    broken = _delete_face(ball1, fid)
    rep = verify_cover(broken)
    assert not rep["ok"]
    assert any("complete star" in p for p in rep["problems"])


def test_corner_lift(V, ball2):
    for v in ball2.interior_vertices:
        lift = ball2.corner_lift(v)
        image = ball2.vertex_image[v]
        assert sorted(lift.values()) == sorted(V.corners_at(image))
        assert set(lift) == set(ball2.complex.corners_at(v))
    boundary = set(ball2.complex.vertices) - ball2.interior_vertices
    assert boundary and all(ball2.corner_lift(v) is None for v in boundary)


def _claiming(ball, cx=None, edge_image=None, face_image=None):
    """A copy of ball with some tables replaced, still claiming its interior."""
    damaged = Ball(cx or ball.complex, ball.v_complex, ball.base, ball.radius,
                   ball.vertex_image, edge_image or ball.edge_image,
                   face_image or ball.face_image, ball.depth)
    damaged.interior_vertices = ball.interior_vertices
    damaged.interior_edges = ball.interior_edges
    return damaged


def _swapped_germ_image(ball):
    # one edge at the base maps to another edge of V with the same ends
    V, v = ball.v_complex, ball.base
    e, _sign = ball.complex.germs_at(v)[0]
    sym = ball.edge_image[e]
    other = min(s for s in V.edges if s != sym and V.edges[s] == V.edges[sym])
    return _claiming(ball, edge_image={**ball.edge_image, e: other}), v


def _rotated_word(ball):
    # one face at the base reads its word from the next letter on
    cx, v = ball.complex, ball.base
    fid, _i = cx.corners_at(v)[0]
    face = cx.faces[fid]
    faces = [Face(f, face.kind, face.word[1:] + face.word[:1]) if f == fid else cx.faces[f]
             for f in cx.face_ids()]
    return _claiming(ball, cx=Complex2(cx.vertices, cx.edges, faces)), v


def _deleted_face(ball):
    fid, _i = ball.complex.corners_at(ball.base)[0]
    return _claiming(ball, cx=_delete_face(ball, fid).complex), ball.base


def _swapped_face_images(ball):
    # two triangles with their corners at the base, at the same index, swap
    # their images: the corners still map onto the image's corners
    cx, v = ball.complex, ball.base
    (f, i), (g, j) = [c for c in cx.corners_at(v) if cx.faces[c[0]].kind == TRIANGLE][:2]
    assert i == j
    images = {**ball.face_image, f: ball.face_image[g], g: ball.face_image[f]}
    return _claiming(ball, face_image=images), v


def _replaced_last_letter(ball):
    # a face with its corner 0 at the base ends in another germ leaving the
    # same vertex, so only that corner's first germ, the reverse of the
    # word's last letter, maps wrong; no corner moves and no germ changes
    cx, v = ball.complex, ball.base
    fid = next(f for f, i in cx.corners_at(v) if i == 0)
    face = cx.faces[fid]
    last = face.word[-1]
    other = next(g for g in cx.germs_at(cx.src(last))
                 if ball.edge_image[g[0]] != ball.edge_image[last[0]])
    faces = [Face(f, face.kind, face.word[:-1] + (other,)) if f == fid else cx.faces[f]
             for f in cx.face_ids()]
    return _claiming(ball, cx=Complex2(cx.vertices, cx.edges, faces)), v


@pytest.mark.parametrize("damage, germs_map, corners_map", [
    (_swapped_germ_image, False, True),
    (_rotated_word, True, False),
    (_deleted_face, True, False),
    (_swapped_face_images, True, True),
    (_replaced_last_letter, True, True),
])
def test_each_lift_condition_rejects_on_its_own(ball2, damage, germs_map, corners_map):
    # the damaged vertex keeps its image's germ count, so the count check
    # lets it through; the germ map, the corner map or, when both hold,
    # the germs of a corner must then reject it
    damaged, v = damage(ball2)
    cx, V = damaged.complex, damaged.v_complex
    p = damaged.vertex_image[v]
    assert len(cx.germs_at(v)) == len(V.germs_at(p))
    assert (sorted((damaged.edge_image[e], s) for e, s in cx.germs_at(v))
            == sorted(V.germs_at(p))) is germs_map
    assert (sorted((damaged.face_image[f], i) for f, i in cx.corners_at(v))
            == sorted(V.corners_at(p))) is corners_map
    assert damaged.corner_lift(v) is None
    assert f"vertex {v}: interior link does not match its image link" \
        in verify_cover(damaged)["problems"]


@pytest.mark.parametrize("base", ["P", "Q", "R"])
def test_corner_lift_matches_a_sorted_reading(V, base):
    # corner_lift compares counts, then sets; the oracle sorts both sides
    for radius in (1, 2, 3):
        ball = expand_to_radius(V, base, radius)
        lifts = {v: ball.corner_lift(v) for v in ball.complex.vertices}
        assert lifts == {v: naive_corner_lift(ball, v) for v in ball.complex.vertices}
        assert sum(lift is not None for lift in lifts.values()) == len(ball.interior_vertices) > 0


def _doubled_face(ball):
    # a second copy of a face at the base: the base's corner images are still
    # the image's corner set, but one more than the image has
    cx, v = ball.complex, ball.base
    fid, _i = cx.corners_at(v)[0]
    copy = Face(f"f{len(cx.faces)}", cx.faces[fid].kind, cx.faces[fid].word)
    return _claiming(ball, cx=Complex2(cx.vertices, cx.edges, list(cx.faces.values()) + [copy]),
                     face_image={**ball.face_image, copy.fid: ball.face_image[fid]}), v


@pytest.mark.parametrize("damage", [_swapped_germ_image, _rotated_word, _deleted_face,
                                    _swapped_face_images, _replaced_last_letter, _doubled_face])
def test_corner_lift_matches_a_sorted_reading_on_a_damaged_ball(ball2, damage):
    damaged, v = damage(ball2)
    for u in damaged.complex.vertices:
        assert damaged.corner_lift(u) == naive_corner_lift(damaged, u)
    assert naive_corner_lift(damaged, v) is None


def test_by_number_puts_str_ordered_ids_in_number_order():
    ids = [f"v{n}" for n in range(1201)]
    in_str_order = sorted(random.Random(5).sample(ids, len(ids)), key=str)
    assert in_str_order != ids
    assert _by_number(in_str_order) == sorted(ids, key=lambda s: int(s[1:])) == ids


def test_reports_list_cells_in_number_order(ball3):
    def number(s):
        return int(s[1:])

    cx = ball3.complex
    rows = list(verify_cover(ball3)["vertices"])
    assert rows == sorted(cx.vertices, key=number) != list(cx.vertices)
    lines = serialize_ball(ball3).splitlines()
    for kind, ids in (("vertex", cx.vertices), ("edge", cx.edges), ("face", cx.faces)):
        named = [line.split()[1] for line in lines if line.startswith(f"{kind} ")]
        assert named == sorted(ids, key=number) != sorted(ids, key=str)


def test_interior_flags_are_computed_on_first_read(V, monkeypatch):
    # the intermediate balls of an expansion are never asked about their
    # interior, so only the result's vertices are lifted; the interior
    # flags, verify_cover's rows and propagation's link cycles then share
    # one lift per vertex
    calls = []
    lift = Ball._lift

    def counting(ball, v):
        calls.append(v)
        return lift(ball, v)

    monkeypatch.setattr(Ball, "_lift", counting)
    ball = expand_to_radius(V, "P", 3)
    assert calls == []
    assert len(ball.interior_vertices) == 49
    assert verify_cover(ball)["ok"]
    cx = ball.complex
    seeds = [f for f in cx.face_ids() if cx.faces[f].kind == LOZENGE
             and any(cx.src(oe) in ball.interior_vertices for oe in cx.faces[f].word)]
    for seed in seeds:
        for choice in ("with", "other"):
            propagate_surface(ball, seed, choice)
    assert len(seeds) == 224
    assert len(calls) == len(set(calls)) == len(cx.vertices) == 337


def test_verify_cover_rechecks_claimed_interior(ball1):
    # the annotation still claims the base is interior after a face is gone
    claimed = _delete_face(ball1, ball1.complex.face_ids()[0])
    claimed.interior_vertices = ball1.interior_vertices
    claimed.interior_edges = ball1.interior_edges
    rep = verify_cover(claimed)
    row = rep["vertices"][claimed.base]
    assert row["interior"] and not row["link_matches_image"]
    assert row["girth"] is None
    assert any("does not match its image link" in p for p in rep["problems"])


def test_verify_cover_checks_interior_flags_against_depths(ball2):
    # one vertex and one edge at depth = radius are claimed interior
    cx = ball2.complex
    claimed = Ball(cx, ball2.v_complex, ball2.base, ball2.radius,
                   ball2.vertex_image, ball2.edge_image, ball2.face_image, ball2.depth)
    v = min((u for u in cx.vertices if ball2.depth[u] == 2), key=lambda s: int(s[1:]))
    e = min((f for f, ends in cx.edges.items() if all(ball2.depth[u] == 2 for u in ends)),
            key=lambda s: int(s[1:]))
    claimed.interior_vertices = ball2.interior_vertices | {v}
    claimed.interior_edges = ball2.interior_edges | {e}
    problems = verify_cover(claimed)["problems"]
    assert f"vertex {v}: interior at depth 2, but radius 2 makes only depths <= 1 interior" \
        in problems
    assert f"edge {e}: interior flag disagrees with the depths of its ends at radius 2" \
        in problems


def test_verify_cover_counts_an_inner_edge_from_either_end(ball2):
    # two edges with one end at depth 1 and the other at depth 2 lose their
    # claimed flag: at the inner end one has an incoming germ, the other an
    # outgoing one, and each must still be expected interior
    cx, depth = ball2.complex, ball2.depth
    into = min((e for e, (s, t) in cx.edges.items() if (depth[s], depth[t]) == (2, 1)),
               key=lambda s: int(s[1:]))
    out_of = min((e for e, (s, t) in cx.edges.items() if (depth[s], depth[t]) == (1, 2)),
                 key=lambda s: int(s[1:]))
    claimed = _claiming(ball2)
    claimed.interior_edges = ball2.interior_edges - {into, out_of}
    problems = verify_cover(claimed)["problems"]
    for e in (into, out_of):
        assert f"edge {e}: interior flag disagrees with the depths of its ends at radius 2" \
            in problems


def test_restrict_rejects_larger_radius(ball1):
    with pytest.raises(ValueError):
        restrict_ball(ball1, 5)


def test_restrict_rejects_a_negative_radius(ball2):
    # a "radius -1" ball would be the base alone, and would verify
    with pytest.raises(ValueError, match="negative radius -1"):
        restrict_ball(ball2, -1)


def test_expand_to_radius_rejects_a_negative_radius(V):
    with pytest.raises(ValueError, match="negative radius -2"):
        expand_to_radius(V, "P", -2)
