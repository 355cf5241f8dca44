import random
from itertools import product

import pytest

from hamsurf.corecomplex import (Complex2, Face, link_circle_length, subcomplex,
                                 surface_report, trace_status, validate_complex)
from hamsurf.hamgraph import GraphError, classify_cycle, enumerate_hamiltonian_cycles, label_weight
from oracles import brute_orientable, degree, naive_hamiltonian_cycles


def one_triangle():
    return Complex2(
        vertices=["u", "v", "w"],
        edges={"e1": ("u", "v"), "e2": ("v", "w"), "e3": ("w", "u")},
        faces=[Face("t", "triangle", (("e1", 1), ("e2", 1), ("e3", 1)))],
    )


def lozenge_torus():
    # opposite sides of one lozenge identified orientably
    return Complex2(
        vertices=["o"],
        edges={"a": ("o", "o"), "b": ("o", "o")},
        faces=[Face("q", "lozenge", (("a", 1), ("b", 1), ("a", -1), ("b", -1)))],
    )


def lozenge_klein():
    return Complex2(
        vertices=["o"],
        edges={"a": ("o", "o"), "b": ("o", "o")},
        faces=[Face("q", "lozenge", (("a", 1), ("b", 1), ("a", -1), ("b", 1)))],
    )


def test_face_rejects_bad_kind_and_sign():
    with pytest.raises(ValueError):
        Face("f", "pentagon", ())
    with pytest.raises(ValueError):
        Face("f", "triangle", (("e", 2),))


def test_corner_labels():
    tri = Face("t", "triangle", (("e1", 1), ("e2", 1), ("e3", 1)))
    assert [tri.corner_label(i) for i in range(3)] == ["t", "t", "t"]
    loz = Face("q", "lozenge", (("a", 1), ("b", 1), ("a", -1), ("b", -1)))
    assert [loz.corner_label(i) for i in range(4)] == ["l", "L", "l", "L"]


def test_smallest_valid_complex():
    assert validate_complex(one_triangle()) == []


def unclosed_triangle():
    return Complex2(
        vertices=["u", "v", "w"],
        edges={"e1": ("u", "v"), "e2": ("v", "w"), "e3": ("u", "w")},
        faces=[Face("t", "triangle", (("e1", 1), ("e2", 1), ("e3", 1)))],
    )


def wrong_arity_and_unknown_symbol():
    return Complex2(
        vertices=["u", "v"],
        edges={"e1": ("u", "v")},
        faces=[Face("f", "lozenge", (("e1", 1), ("e1", -1), ("e1", 1))),
               Face("g", "triangle", (("e1", 1), ("zz", 1), ("e1", -1)))],
    )


def ghost_endpoint():
    return Complex2(vertices=["u"], edges={"e": ("u", "ghost")}, faces=[])


def test_unclosed_boundary_is_flagged():
    problems = validate_complex(unclosed_triangle())
    assert problems and all("face t" in p for p in problems)


def test_wrong_arity_and_unknown_symbol_flagged():
    problems = "\n".join(validate_complex(wrong_arity_and_unknown_symbol()))
    assert "length 3, expected 4" in problems
    assert "undeclared edge symbol zz" in problems


def test_unknown_endpoint_flagged():
    assert any("ghost" in p for p in validate_complex(ghost_endpoint()))


def _naive_indexes(cx):
    """Face-sides by symbol, corners by vertex and germs by vertex, read
    letter by letter: faces in ``str`` order, ends through ``cx.src``, and
    letters over undeclared symbols skipped."""
    sides = {sym: [] for sym in cx.edges}
    corners = {v: [] for v in cx.vertices}
    germs = {}
    for fid in sorted(cx.faces, key=str):
        for i, oedge in enumerate(cx.faces[fid].word):
            if oedge[0] in cx.edges:
                sides[oedge[0]].append((fid, i, oedge[1]))
                if cx.src(oedge) in corners:
                    corners[cx.src(oedge)].append((fid, i))
    for sym in sorted(cx.edges, key=str):
        for sign in (1, -1):
            germs.setdefault(cx.src((sym, sign)), []).append((sym, sign))
    return sides, corners, germs


def _naive_violations(cx):
    """validate_complex's list, checked letter by letter through
    ``cx.src`` and ``cx.tgt``."""
    found = []
    for sym in sorted(cx.edges, key=str):
        for v in cx.edges[sym]:
            if v not in cx.vertices:
                found.append(f"edge {sym}: endpoint {v} is not a declared vertex")
    for fid in sorted(cx.faces, key=str):
        face = cx.faces[fid]
        want = 3 if face.kind == "triangle" else 4
        if len(face.word) != want:
            found.append(f"face {fid}: {face.kind} word has length {len(face.word)}, "
                         f"expected {want}")
            continue
        unknown = [sym for sym, _sign in face.word if sym not in cx.edges]
        found += [f"face {fid}: undeclared edge symbol {sym}" for sym in unknown]
        if unknown:
            continue
        for i in range(want):
            here, there = cx.tgt(face.word[i]), cx.src(face.word[(i + 1) % want])
            if here != there:
                found.append(f"face {fid}: boundary word not closed between positions "
                             f"{i} and {(i + 1) % want} ({here} != {there})")
        # a polygon's angles sum to (n - 2) pi, 3 (n - 2) units
        total = sum(label_weight(face.corner_label(i)) for i in range(want))
        if total != 3 * (want - 2):
            found.append(f"face {fid}: corner weights sum to {total}, "
                         f"expected {3 * (want - 2)}")
    return found


def _lozenge_edges_rotated(cx):
    """cx with its first lozenge's edges moved one letter on, each letter
    keeping its sign: a cyclic rotation of the whole word would stay closed."""
    fid = next(f for f in cx.face_ids() if cx.faces[f].kind == "lozenge")
    word = cx.faces[fid].word
    rotated = [(sym, sign) for (sym, _s), (_x, sign) in zip(word[1:] + word[:1], word)]
    faces = [Face(f, "lozenge", rotated) if f == fid else cx.faces[f] for f in cx.face_ids()]
    return Complex2(cx.vertices, cx.edges, faces), fid


def test_indexes_and_violations_match_a_naive_reading(V, S, ball2, ball3):
    rotated, fid = _lozenge_edges_rotated(ball3.complex)
    complexes = [V, S, ball2.complex, unclosed_triangle(),
                 wrong_arity_and_unknown_symbol(), ghost_endpoint(), ball3.complex, rotated]
    for cx in complexes:
        sides, corners, germs = _naive_indexes(cx)
        assert {sym: cx.edge_sides(sym) for sym in cx.edges} == sides
        assert {v: cx.corners_at(v) for v in cx.vertices} == corners
        assert {v: cx.germs_at(v) for v in germs} == germs
        assert all(cx.germs_at(v) == [] for v in cx.vertices if v not in germs)
        assert validate_complex(cx) == _naive_violations(cx)
    # the malformed complexes show each kind of violation
    assert [len(validate_complex(cx)) for cx in complexes] == [0, 0, 0, 2, 2, 1, 0, 4]
    assert len(ball3.complex.faces) > 300
    assert all(p.startswith(f"face {fid}: boundary word not closed")
               for p in validate_complex(rotated))
    assert wrong_arity_and_unknown_symbol().edge_sides("zz") == []
    assert ghost_endpoint().germs_at("ghost") == [("e", -1)]


def test_corner_weights_are_the_polygon_angle_sum():
    # corner labels depend only on the face kind and the corner index, so
    # every face of a kind carries the angle sum of an n-gon, (n - 2) pi or
    # 3 (n - 2) units, and validate_complex has no sum to check
    for kind, n in (("triangle", 3), ("lozenge", 4)):
        face = Face("f", kind, [("e", 1)] * n)
        assert sum(label_weight(face.corner_label(i)) for i in range(n)) == 3 * (n - 2)


def test_single_triangle_link_and_degrees():
    cx = one_triangle()
    assert all(cx.edge_face_degree(s) == 1 for s in cx.edges)
    link = cx.vertex_link("u")
    assert link.node_count() == 2
    assert len(link.edges) == 1
    assert link.edges[0][2] == "t"
    with pytest.raises(ValueError):
        link_circle_length(cx, "u")
    with pytest.raises(KeyError):
        cx.vertex_link("nope")
    with pytest.raises(KeyError):
        cx.edge_face_degree("nope")


def bowtie():
    # two triangles that share only the vertex o: o's link is two disjoint
    # edges
    return Complex2(
        vertices=["o", "a", "b", "c", "d"],
        edges={"e1": ("o", "a"), "e2": ("a", "b"), "e3": ("b", "o"),
               "e4": ("o", "c"), "e5": ("c", "d"), "e6": ("d", "o")},
        faces=[Face("s", "triangle", (("e1", 1), ("e2", 1), ("e3", 1))),
               Face("t", "triangle", (("e4", 1), ("e5", 1), ("e6", 1)))],
    )


def test_links_without_hamiltonian_cycles_have_no_type3_cycles():
    # the enumeration refuses a link of fewer than 3 nodes and a
    # disconnected one; neither has a Hamiltonian cycle, so neither has an
    # admissible one
    for cx, v, reason in ((one_triangle(), "u", "at least 3 nodes"),
                          (bowtie(), "o", "disconnected")):
        with pytest.raises(GraphError, match=reason):
            enumerate_hamiltonian_cycles(cx.vertex_link(v))
        assert cx.type3_cycles(v) == ()


def test_lozenge_torus_report():
    cx = lozenge_torus()
    assert validate_complex(cx) == []
    rep = surface_report(cx)
    assert rep.is_closed_surface
    assert rep.euler_characteristic == 0
    assert rep.orientable is True
    assert rep.genus_or_crosscaps == 1
    assert brute_orientable(cx) is True
    assert link_circle_length(cx, "o") == 6


def test_reports_that_differ_in_one_field_are_unequal():
    rep = surface_report(lozenge_torus())
    assert rep == surface_report(lozenge_torus())
    assert rep._replace(face_count=rep.face_count + 1) != rep
    assert rep._replace(orientable=None) != rep


def test_lozenge_klein_bottle_report():
    cx = lozenge_klein()
    assert validate_complex(cx) == []
    rep = surface_report(cx)
    assert rep.is_closed_surface
    assert rep.euler_characteristic == 0
    assert rep.orientable is False
    assert rep.genus_or_crosscaps == 2
    assert brute_orientable(cx) is False


def test_open_complex_not_closed():
    rep = surface_report(one_triangle())
    assert not rep.is_closed_surface
    assert rep.orientable is None
    assert rep.genus_or_crosscaps is None
    assert rep.euler_characteristic == 1


def test_side_count_identity(V, S):
    for cx in (V, S):
        total_sides = sum(len(f.word) for f in cx.faces.values())
        link_edges = sum(len(cx.vertex_link(v).edges) for v in cx.vertices)
        assert link_edges == total_sides
        sides = sum(len(cx.edge_sides(sym)) for sym in cx.edges)
        assert sides == total_sides


def test_order_two_complex_has_cubic_links(V):
    for v in V.vertices:
        link = V.vertex_link(v)
        assert all(degree(link, n) == 3 for n in link.nodes)


def test_report_invariant_under_relabeling(S):
    rng = random.Random(5)
    base = surface_report(S)
    for _ in range(5):
        vperm = {v: f"V{i}_{rng.randrange(100)}" for i, v in enumerate(S.vertices)}
        eperm = {e: f"E{i}" for i, e in enumerate(sorted(S.edges))}
        fperm = {f: f"F{i}" for i, f in enumerate(S.face_ids())}
        cx = Complex2(
            vertices=vperm.values(),
            edges={eperm[e]: (vperm[s], vperm[t]) for e, (s, t) in S.edges.items()},
            faces=[Face(fperm[f], S.faces[f].kind,
                        tuple((eperm[s], sg) for s, sg in S.faces[f].word))
                   for f in S.face_ids()],
        )
        rep = surface_report(cx)
        assert rep == base


def test_euler_characteristic_additive():
    t = one_triangle()
    q = lozenge_torus()
    both = Complex2(
        vertices=list(t.vertices) + list(q.vertices),
        edges={**t.edges, **q.edges},
        faces=list(t.faces.values()) + list(q.faces.values()),
    )
    assert (surface_report(both).euler_characteristic
            == surface_report(t).euler_characteristic
            + surface_report(q).euler_characteristic)


def test_subcomplex_identity_and_empty(V):
    same = subcomplex(V, V.face_ids())
    assert set(same.faces) == set(V.faces)
    assert set(same.edges) == set(V.edges)
    empty = subcomplex(V, [])
    assert not empty.faces and not empty.edges and not empty.vertices


def test_subcomplex_lozenge_pair(V):
    pair = subcomplex(V, ["x", "x'"])
    assert len(pair.faces) == 2
    assert len(pair.edges) == 4
    assert len(pair.vertices) == 2


def test_subcomplex_unknown_face(V):
    with pytest.raises(KeyError):
        subcomplex(V, ["nope"])


def test_trace_status_over_every_face_subset_of_v(V):
    """In each link of V and for each of the 1,024 sets of V's faces, the
    trace is a cycle exactly when its corners are the edge set of a
    brute-force Hamiltonian cycle of the link, and of that cycle's type."""
    fids = V.face_ids()
    seen = []
    for v in V.vertices:
        link = V.vertex_link(v)
        naive = naive_hamiltonian_cycles(link)
        typed = {c.edge_indices: classify_cycle(c) for c in enumerate_hamiltonian_cycles(link)}
        assert set(typed) == naive
        for bits in product((False, True), repeat=len(fids)):
            members = {f for f, keep in zip(fids, bits) if keep}
            traced = frozenset(i for i, e in enumerate(link.edges) if e[3][0] in members)
            status, detail = trace_status(link, members)
            assert (status == "cycle") == (traced in naive), (v, members)
            if status == "cycle":
                assert detail is typed[traced], (v, members)
                seen.append(detail.value)
    assert {"type1", "type3"} <= set(seen)

